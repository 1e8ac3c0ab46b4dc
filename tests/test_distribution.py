import random
from fractions import Fraction

import numpy as np
import pytest

from lowdisc.discrepancy import IntegerMultiset, disc
from lowdisc.distribution import (DistributionTable, EmptyClass, TooLarge,
                                  _fourier_bound, _walk_counts,
                                  binary_entropy, exact_distribution,
                                  fooling_distributions, residue_class,
                                  uniformity_report)
from lowdisc.polynomials import monomials_upto_deg


def object_counts(Z):
    """The object-array recurrence the limb kernel replaced: counts <-
    counts + roll(counts, z) on Python ints. The oracle for m > 512, where
    the walk is capped."""
    counts = np.zeros(Z.m, dtype=object)
    counts[0] = 1
    for z in Z.elements:
        counts = counts + np.roll(counts, z % Z.m)
    return counts.tolist()


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
        table = exact_distribution(Z)
        assert list(table.probs) == brute_force_distribution(Z)


def test_dp_matches_walk_exactly():
    rng = random.Random(3)
    cases = 0
    while cases < 30:
        m = rng.randrange(2, 33)
        n = rng.randrange(1, 15)
        Z = IntegerMultiset([rng.randrange(0, 2 * m) for _ in range(n)], m)
        dp = exact_distribution(Z)
        walk = DistributionTable(m, n, tuple(_walk_counts(Z)))
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
    for mono in monomials_upto_deg(12, 2)[1:]:
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
    table = DistributionTable(m=2, n=n, counts=(5, 3))
    assert table.probs == (Fraction(5, 8), Fraction(3, 8))
    with pytest.raises(ValueError):  # sums to 2^n + 1
        DistributionTable(m=2, n=n, counts=(5, 4))
    with pytest.raises(ValueError):  # sums to 2^n - 1
        DistributionTable(m=2, n=n, counts=(5, 2))
    with pytest.raises(ValueError):  # sums to 2^n, but a count is negative
        DistributionTable(m=2, n=n, counts=(9, -1))
    with pytest.raises(ValueError):  # sums to 2^n, but m + 1 counts
        DistributionTable(m=2, n=n, counts=(4, 3, 1))
    with pytest.raises(ValueError):  # sums to 2^n, but m - 1 counts
        DistributionTable(m=2, n=n, counts=(8,))


def test_lowest_terms_match_fractions():
    rng = random.Random(8)
    for n in (0, 1, 5, 40, 97):
        m = rng.randrange(2, 30)
        Z = IntegerMultiset([rng.randrange(-m, 2 * m) for _ in range(n)], m)
        table = exact_distribution(Z)
        want = [(str(p.numerator), str(p.denominator)) for p in table.probs]
        assert list(table.lowest_terms()) == want
        assert table.to_json_dict()["probs"] == [{"num": a, "den": b}
                                                 for a, b in want]


# Sizes around each multiple of the 32-bit limb and of the 30-step carry
# interval.
LIMB_SIZES = (0, 1, 29, 30, 31, 32, 33, 63, 64, 65, 200)


def test_limb_kernel_matches_object_recurrence_and_walk():
    rng = random.Random(9)
    for n in LIMB_SIZES:
        for m in (2, 3, 5, 17, 64, rng.randrange(65, 513), 513, 600):
            pool = [rng.randrange(-3 * m, 3 * m) for _ in range(4)]
            # repeats, multiples of m (z = 0 mod m) and negative elements
            elements = [rng.choice(pool + [0, m, -2 * m, rng.randrange(
                -5 * m, 5 * m)]) for _ in range(n)]
            Z = IntegerMultiset(elements, m)
            counts = exact_distribution(Z).counts
            assert list(counts) == object_counts(Z), (n, m)
            assert sum(counts) == 2 ** n
            if m <= 17 or (m <= 64 and n <= 65):
                assert list(counts) == _walk_counts(Z), (n, m)
    for m in (2, 7, 600):  # every step z = 0: the table doubles at 0
        Z = IntegerMultiset([0, m, -m] * 30, m)
        assert exact_distribution(Z).counts == (2 ** 90,) + (0,) * (m - 1)


def test_uniformity_report_builds_no_cell_fraction_or_object_array(
        monkeypatch):
    """The dist path on an m = 10007, |Z| = 360 set (the benchmark size)
    makes no Fraction per cell and no object-dtype array."""
    fractions = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        fractions.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    objects = []
    for name in ("array", "asarray", "zeros", "zeros_like", "empty",
                 "empty_like", "full", "roll", "concatenate"):
        def made(*args, _f=getattr(np, name), _name=name, **kwargs):
            out = _f(*args, **kwargs)
            if getattr(out, "dtype", None) == object:
                objects.append(_name)
            return out
        monkeypatch.setattr(np, name, made)
    rng = random.Random(10)
    m = 10007
    Z = IntegerMultiset([rng.randrange(m) for _ in range(360)], m)
    rep = uniformity_report(Z)
    table = rep["table"]
    list(table.lowest_terms())
    table.to_json_dict()
    assert len(fractions) == 1  # max_deviation's result
    assert objects == []
    # and the counters do count: the old route trips both
    object_counts(IntegerMultiset([1, 2], 5))
    exact_distribution(IntegerMultiset([1, 2], 5)).probs
    assert objects and len(fractions) == 1 + 5
