"""Number theory shared by the other modules.

Everything here is a pure function. Primality is deterministic Miller-Rabin
with a fixed witness set valid below 3.3e24, far beyond anything the
constructions need.
"""

import itertools
import math


class NotCoprime(ValueError):
    pass


# Witnesses sufficient for deterministic primality below 3.317e24
# (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_halfopen(lo, hi):
    """All primes in the half-open interval (lo, hi], as an ascending tuple.

    lo and hi may be real; the empty range is fine.
    """
    if not (1 <= lo <= hi):
        raise ValueError("need hi >= lo >= 1")
    start = math.floor(lo) + 1
    stop = math.floor(hi)
    # Sieve when the interval is long, trial Miller-Rabin otherwise.
    if stop - start > 4096 and stop > 2:
        sieve = bytearray([1]) * (stop + 1)
        sieve[0:2] = b"\x00\x00"
        for i in range(2, math.isqrt(stop) + 1):
            if sieve[i]:
                sieve[i * i :: i] = b"\x00" * len(range(i * i, stop + 1, i))
        first = max(2, start)
        return tuple(itertools.compress(range(first, stop + 1),
                                        sieve[first:]))
    return tuple(p for p in range(max(2, start), stop + 1) if is_prime(p))


def mod_inverse(a, m):
    """Inverse of a modulo m, in {1, ..., m-1}.

    Raises NotCoprime when gcd(a, m) != 1.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if a < 1:
        raise ValueError("a must be positive")
    g = math.gcd(a, m)
    if g != 1:
        raise NotCoprime(f"gcd({a}, {m}) = {g}")
    return pow(a, -1, m)


def distinct_prime_divisors(n):
    """nu(n): number of distinct prime divisors, by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            count += 1
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        count += 1
    return count

