import math
import random

import pytest

from lowdisc.numeric_core import (NotCoprime, distinct_prime_divisors,
                                  mod_inverse, primes_in_halfopen)


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primes_in_halfopen_match_trial_division():
    # Random windows with real and integer ends, and one at 10^12, whose
    # base primes run to 10^6.
    rng = random.Random(17)
    windows = [(1, 1), (1, 2), (2, 3), (1.5, 2.5), (23, 23)]
    windows += [(lo, lo + rng.uniform(0, 300))
                for lo in (rng.uniform(1, 10 ** 6) for _ in range(20))]
    windows += [(lo, lo + rng.randrange(60)) for lo in
                (rng.randrange(1, 10 ** 4) for _ in range(20))]
    windows.append((10 ** 12, 10 ** 12 + 100))
    for lo, hi in windows:
        want = tuple(p for p in range(math.floor(lo) + 1, math.floor(hi) + 1)
                     if _trial_division_prime(p))
        assert primes_in_halfopen(lo, hi) == want, (lo, hi)
    assert primes_in_halfopen(10 ** 12, 10 ** 12 + 100) == (
        1000000000039, 1000000000061, 1000000000063, 1000000000091)


def test_primes_in_halfopen():
    assert primes_in_halfopen(10, 20) == (11, 13, 17, 19)
    assert primes_in_halfopen(1, 2) == (2,)
    assert primes_in_halfopen(23, 28) == ()


def test_prime_counts_pinned():
    # pi(x), one sieve of (1, x] each.
    for x, pi in ((10, 4), (100, 25), (1000, 168), (10 ** 5, 9592)):
        assert len(primes_in_halfopen(1, x)) == pi


def test_mod_inverse():
    for m in (5, 19, 64, 97):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert a * mod_inverse(a, m) % m == 1
            else:
                with pytest.raises(NotCoprime):
                    mod_inverse(a, m)


def test_distinct_prime_divisors():
    assert distinct_prime_divisors(1) == 0
    assert distinct_prime_divisors(12) == 2
    assert distinct_prime_divisors(30) == 3
    assert distinct_prime_divisors(1024) == 1

