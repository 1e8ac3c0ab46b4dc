import random
from fractions import Fraction

import numpy as np
import pytest

from lowdisc.discrepancy import IntegerMultiset, disc
from lowdisc.distribution import (DistributionTable, EmptyClass, TooLarge,
                                  _fourier_bound,
                                  binary_entropy, exact_distribution,
                                  fooling_distributions, monomials_upto,
                                  residue_class, uniformity_report)


def brute_force_distribution(Z):
    m, n = Z.m, Z.cardinality
    counts = [0] * m
    for i in range(2 ** n):
        s = sum(z for j, z in enumerate(Z.elements) if (i >> j) & 1) % m
        counts[s] += 1
    return [Fraction(c, 2 ** n) for c in counts]


def test_dp_matches_brute_force():
    rng = random.Random(2)
    for _ in range(20):
        m = rng.randrange(2, 16)
        n = rng.randrange(1, 10)
        Z = IntegerMultiset([rng.randrange(0, m) for _ in range(n)], m)
        table = exact_distribution(Z, method="dp")
        assert list(table.probs) == brute_force_distribution(Z)


def test_dp_matches_walk_exactly():
    rng = random.Random(3)
    cases = 0
    while cases < 30:
        m = rng.randrange(2, 33)
        n = rng.randrange(1, 15)
        Z = IntegerMultiset([rng.randrange(0, 2 * m) for _ in range(n)], m)
        dp = exact_distribution(Z, method="dp")
        walk = exact_distribution(Z, method="walk")
        assert dp.probs == walk.probs  # rational equality
        cases += 1


def test_uniformity_bound_chain():
    rng = random.Random(4)
    for _ in range(15):
        m = rng.randrange(2, 12)
        n = rng.randrange(2, 12)
        Z = IntegerMultiset([rng.randrange(0, m) for _ in range(n)], m)
        rep = uniformity_report(Z)
        cert = disc(Z)
        bound = ((1 + cert.value) / 2) ** (n / 2)
        assert rep["observed_deviation"] <= bound + 1e-9


def test_uniformity_report_fields():
    Z = IntegerMultiset([1, 2, 4], 7)
    rep = uniformity_report(Z, delta=0.1)
    assert rep["observed_deviation"] <= rep["fourier_bound"] + 1e-9
    assert rep["fourier_bound"] <= rep["disc_bound"] + 1e-9
    assert rep["admissible_m"] >= 0


def scalar_fourier_bound(Z):
    """The per-scalar complex loop the vectorized kernel must reproduce
    bit for bit."""
    m = Z.m
    fourier = 0.0
    for k in range(1, m):
        prod = 1.0 + 0.0j
        for z in Z.elements:
            prod *= (1 + np.exp(2j * np.pi * ((k * (z % m)) % m) / m)) / 2
        fourier += abs(prod)
    fourier /= m
    return fourier


def test_fourier_bound_matches_scalar_loop_exactly():
    rng = random.Random(6)
    cases = [(2, 3), (7, 5), (13, 0), (97, 1), (101, 30), (1009, 40),
             (4099, 24)]
    for m, n in cases:
        # elements >= m and negative elements reduce mod m
        Z = IntegerMultiset([rng.randrange(-3 * m, 3 * m) for _ in range(n)],
                            m)
        assert _fourier_bound(Z) == scalar_fourier_bound(Z)


def test_max_deviation_matches_fraction_route():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randrange(2, 40)
        Z = IntegerMultiset([rng.randrange(-m, 2 * m)
                             for _ in range(rng.randrange(1, 70))], m)
        table = exact_distribution(Z)
        want = max(abs(p - Fraction(1, m)) for p in table.probs)
        assert table.max_deviation() == want


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12
    assert abs(binary_entropy(0.11) - binary_entropy(0.89)) < 1e-12


def test_residue_class_partition():
    Z = IntegerMultiset([1, 1, 3], 4)
    seen = 0
    for s in range(4):
        pts = residue_class(Z, s)
        for x in pts:
            assert sum(z * b for z, b in zip(Z.elements, x)) % 4 == s
        seen += len(pts)
    assert seen == 8


def test_fooling_family_moments_agree():
    Z = IntegerMultiset([1] * 12, 4)
    fam = fooling_distributions(Z, 2)
    assert fam.residual <= 1e-9
    # independent exhaustive monomial check
    for mono in monomials_upto(12, 2):
        ref = None
        for s in range(4):
            e = fam.expectation(s, mono)
            if ref is None:
                ref = e
            assert abs(e - ref) <= 1e-8


def test_fooling_family_empty_class():
    Z = IntegerMultiset([2, 2], 4)  # residues 1 and 3 unreachable
    with pytest.raises(EmptyClass):
        fooling_distributions(Z, 1)


def test_caps_enforced():
    with pytest.raises(TooLarge):
        fooling_distributions(IntegerMultiset([1] * 21, 4), 1)


def test_table_rejects_inexact_probabilities():
    n = 3
    ok = (Fraction(5, 8), Fraction(3, 8))
    DistributionTable(m=2, n=n, probs=ok)
    with pytest.raises(ValueError):  # sums to 1 + 2^-n
        DistributionTable(m=2, n=n, probs=(Fraction(5, 8), Fraction(4, 8)))
    with pytest.raises(ValueError):  # sums to 1, but 1/3 is not k/2^n
        DistributionTable(m=2, n=n, probs=(Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(ValueError):  # 7/6; floor(8/3) * 2 + 4 = 8 all the same
        DistributionTable(m=2, n=n, probs=(Fraction(1, 2), Fraction(2, 3)))
    with pytest.raises(ValueError):  # denominator 2^(n+1)
        DistributionTable(m=2, n=n, probs=(Fraction(9, 16), Fraction(7, 16)))
