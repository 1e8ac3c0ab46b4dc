"""Number theory shared by the other modules.

Everything here is a pure function. Primes come from sieves: the
boolean sieve of Eratosthenes, and a sieve of an interval by the primes
up to the square root of its end.
"""

import math

import numpy as np


class NotCoprime(ValueError):
    pass


def primes_in_halfopen(lo, hi):
    """All primes in the half-open interval (lo, hi], as an ascending tuple:
    a sieve of the interval by the primes up to sqrt(hi).

    lo and hi may be real; the empty range is fine.
    """
    if not (1 <= lo <= hi):
        raise ValueError("need hi >= lo >= 1")
    first, stop = max(2, math.floor(lo) + 1), math.floor(hi)
    seg = np.ones(max(0, stop - first + 1), dtype=bool)
    for p in np.flatnonzero(prime_sieve(math.isqrt(stop))).tolist():
        seg[max(p * p, -(-first // p) * p) - first::p] = False
    return tuple((np.flatnonzero(seg) + first).tolist())


def prime_sieve(n):
    """A bool array s of length n + 1: s[k] is whether k is prime."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return sieve


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

