import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lowdisc import numeric_core
from lowdisc.numeric_core import (NotCoprime, _rader_plan, _real_dft_prime,
                                  _root_powers, distinct_prime_divisors,
                                  is_odd_prime, mod_inverse, prime_divisors,
                                  primes_in_halfopen, primitive_root,
                                  real_dft, real_dft_error, solve_exact)


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


def test_prime_divisors_and_primitive_roots():
    for n in range(1, 400):
        want = [p for p in range(2, n + 1)
                if n % p == 0 and _trial_division_prime(p)]
        assert prime_divisors(n) == want
        assert is_odd_prime(n) == (n > 2 and _trial_division_prime(n))
    for p in primes_in_halfopen(2, 400):
        g = primitive_root(p)
        assert len({pow(g, a, p) for a in range(p - 1)}) == p - 1
        assert all(len({pow(c, a, p) for a in range(p - 1)}) < p - 1
                   for c in range(2, g))


def test_real_dft_prime_matches_the_fft():
    # Seeded random primes, from 3 up; counts with repeats and an entry
    # at j = 0 (elements = 0 mod m).
    rng = np.random.default_rng(19)
    primes = [3, 5, 7, 67, 101, 1009, 10007, 100003]
    primes += rng.choice(primes_in_halfopen(7, 5000), 8).tolist()
    for m in primes:
        x = rng.integers(0, 4, m) * (rng.random(m) < 0.3)
        x[0] = rng.integers(0, 3)
        k, re, im = _real_dft_prime(x)
        h = (m - 1) // 2
        assert sorted(np.minimum(k, m - k).tolist()) == list(range(1, h + 1))
        want = np.conj(np.fft.fft(x.astype(float)))[k]  # exp(+2 pi i kj/m)
        tol = 1e-12 * max(1, x.sum())
        assert np.max(np.abs(re - want.real), initial=0) <= tol, m
        assert np.max(np.abs(im - want.imag), initial=0) <= tol, m
        # symmetric input: the imaginary part is exactly 0
        sym = x + np.roll(x[::-1], 1)
        assert not _real_dft_prime(sym)[2].any()


def test_real_dft_matches_the_fft():
    # Every kind of length: 2, odd primes (the Rader route), powers of two
    # and of an odd prime, squarefree and other composites; counts with
    # repeats and an entry at j = 0.
    rng = np.random.default_rng(29)
    lengths = [2, 3, 4, 6, 9, 11, 15, 128, 210, 243, 1009, 4096, 10007,
               10403, 2 ** 16, 100003]
    lengths += rng.choice(range(4, 5000), 8).tolist()
    for m in lengths:
        x = rng.integers(0, 4, m) * (rng.random(m) < 0.3)
        x[0] = rng.integers(0, 3)
        k, re, im = real_dft(x)
        # one frequency k != 0 of each pair {k, m - k}
        assert sorted(np.minimum(k, m - k).tolist()) == \
            list(range(1, m // 2 + 1)), m
        if not is_odd_prime(m):
            assert k.tolist() == list(range(1, m // 2 + 1))
        want = np.conj(np.fft.fft(x.astype(float)))[k]  # exp(+2 pi i kj/m)
        tol = 1e-12 * max(1, x.sum())
        assert np.max(np.abs(re - want.real)) <= tol, m
        assert np.max(np.abs(im - want.imag)) <= tol, m
        # IntegerMultiset's 1- and 2-byte counts take the same transform,
        # bit for bit, as int64 or float64 ones
        for counts in (x.astype(np.uint8), x.astype(np.uint16),
                       x.astype(np.float64)):
            same = real_dft(counts)
            assert [a.tobytes() for a in same] == \
                [a.tobytes() for a in (k, re, im)], (m, counts.dtype)


def test_rader_plan_refuses_moduli_from_3e9(monkeypatch):
    # Past 3e9 a uint32 residue table would wrap silently near 2^32. The
    # refusal comes before any work: a plan there is 1.5e9 powers.
    def building(*args):
        raise AssertionError("the plan was started")

    monkeypatch.setattr(numeric_core, "primitive_root", building)
    monkeypatch.setattr(numeric_core, "_root_powers", building)
    m = next(iter(primes_in_halfopen(3e9, 3e9 + 1000)))
    with pytest.raises(ValueError, match="3e9"):
        _rader_plan(m)


def test_root_powers_double_without_wrapping():
    # At the largest prime below 3e9 a product of two residues passes
    # 2^32 (a uint32 product wraps) but stays below 2^63.
    m = primes_in_halfopen(3e9 - 1000, 3e9 - 1)[-1]
    g = primitive_root(m)
    p = _root_powers(g, m, 1000)
    assert p.dtype == np.uint32
    assert p.tolist() == [pow(g, a, m) for a in range(1000)]
    assert max(p.tolist()) ** 2 > 2 ** 32


def test_real_dft_error_bounds_the_computed_transform():
    # Against the direct sum in extended precision (a 64-bit significand),
    # at every route: 2, odd primes, powers of 2, odd and even composites.
    if np.finfo(np.longdouble).eps > 2.0 ** -60:
        pytest.skip("long double is no wider than float64 here")
    rng = np.random.default_rng(31)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for m in (2, 3, 4, 9, 97, 128, 210, 243, 1009, 1024, 1031):
        for x in (rng.standard_normal(m),
                  rng.integers(-3, 4, m) * 1e-200,
                  rng.standard_normal(m) * np.exp(rng.uniform(-200, 200, m))):
            k, re, im = real_dft(x)
            angle = (2 * pi / m) * (np.outer(k, np.arange(m)) % m)
            xl = x.astype(np.longdouble)
            err = np.hypot((re - np.cos(angle) @ xl).astype(float),
                           (im - np.sin(angle) @ xl).astype(float))
            assert np.linalg.norm(err) <= (real_dft_error(m)
                                           * np.linalg.norm(x)), m
    # the bound grows like m log m
    assert real_dft_error(10007) < 2e-9
    assert real_dft_error(100003) < 3e-8


def test_solve_exact_unique_or_none():
    # Square, then consistent with more rows than columns: the unique x,
    # exactly; a dependent column, an inconsistent row or too few rows:
    # None.
    M = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    x = [Fraction(1, 3), -2, Fraction(5, 7)]
    b = [sum(m * v for m, v in zip(row, x)) for row in M]
    assert solve_exact(M, b) == x
    tall = M + [[1, 1, 1]]
    assert solve_exact(tall, b + [sum(x)]) == x
    assert solve_exact(tall, b + [sum(x) + 1]) is None
    assert solve_exact([[1, 2], [2, 4], [0, 0]], [1, 2, 0]) is None
    assert solve_exact([[1, 2, 3]], [1]) is None
    # Inputs stay unchanged.
    assert M == [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
