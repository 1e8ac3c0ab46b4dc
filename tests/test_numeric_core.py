import math

import pytest

from lowdisc.numeric_core import (NotCoprime, distinct_prime_divisors,
                                  is_prime, mod_inverse, primes_in_halfopen)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert is_prime(1009) and is_prime(100003)
    assert not is_prime(1007)  # 19 * 53


def test_primes_in_halfopen():
    assert primes_in_halfopen(10, 20) == (11, 13, 17, 19)
    assert primes_in_halfopen(1, 2) == (2,)
    assert primes_in_halfopen(23, 28) == ()


def test_prime_counts_pinned():
    # pi(x); x = 10^5 takes the sieve branch, the others trial division.
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

