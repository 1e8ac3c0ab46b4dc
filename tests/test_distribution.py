import random
from fractions import Fraction

import numpy as np
import pytest

from lowdisc import distribution
from lowdisc.approximation import linprog
from lowdisc.discrepancy import IntegerMultiset, disc
from lowdisc.distribution import (DistributionTable, EmptyClass, TooLarge,
                                  _fourier_bound, _walk_counts,
                                  binary_entropy, exact_distribution,
                                  fooling_distributions, uniformity_report)
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
    assert rep["observed_deviation"] <= rep["fourier_bound"]
    assert rep["fourier_bound"] - rep["fourier_error"] <= rep["disc_bound"]
    assert rep["admissible_m"] >= 0


def scalar_fourier_bound(Z):
    """The per-scalar complex loop (1/m) sum_k |prod_j (1 + omega^{k z_j})/2|
    that the table's DFT replaced: the oracle, accurate to about
    (|Z| + m) u relative where its products neither underflow nor hold an
    exactly 0 factor (which it reads as rounding noise)."""
    m = Z.m
    fourier = 0.0
    for k in range(1, m):
        prod = 1.0 + 0.0j
        for z in Z.elements:
            prod *= (1 + np.exp(2j * np.pi * ((k * (z % m)) % m) / m)) / 2
        fourier += abs(prod)
    fourier /= m
    return fourier


def highprec_fourier_bound(Z):
    """The same sum with mpmath at 50 significant digits."""
    import mpmath

    m = Z.m
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for k in range(1, m):
            prod = mpmath.mpc(1)
            for z in Z.elements:
                prod *= (1 + mpmath.expjpi(mpmath.mpf(2 * ((k * z) % m)) / m)) / 2
            total += abs(prod)
        return total / m


def random_multiset(rng, m, n):
    # elements >= m and negative elements reduce mod m
    return IntegerMultiset([rng.randrange(-3 * m, 3 * m) for _ in range(n)], m)


def test_fourier_bound_matches_scalar_loop_within_its_error():
    # Seeded random primes, odd composites, powers of 2 and m = 2.
    rng = random.Random(6)
    primes = [3, 97, 101, 1009, 4099] + rng.sample(
        [p for p in range(5, 3000) if all(p % q for q in range(2, p))], 3)
    odd_composites = [9, 15, 105, 243, 1001, 2047]
    powers_of_2 = [2, 4, 8, 64, 1024, 4096]
    for m in primes + odd_composites + powers_of_2:
        for n in (0, 1, 5, rng.randrange(2, 40)):
            Z = random_multiset(rng, m, n)
            bound, error = _fourier_bound(exact_distribution(Z))
            loop = scalar_fourier_bound(Z)
            # the loop's rounding, and its noise where a factor is exactly 0
            noise = 32 * (n + m) * 2.0 ** -53 * loop + 2.0 ** -51
            assert 0 <= error <= bound * 1e-8, (m, n)
            assert bound - error - noise <= loop <= bound + noise, (m, n)


def test_fourier_bound_is_above_the_50_digit_value():
    rng = random.Random(16)
    moduli = [2, 3, 4, 6, 7, 9, 12, 16, 31, 64, 97, 105, 128, 199, 200]
    for m in moduli:
        for n in (1, 4, rng.randrange(2, 30)):
            Z = random_multiset(rng, m, n)
            bound, error = _fourier_bound(exact_distribution(Z))
            exact = highprec_fourier_bound(Z)
            assert bound - error <= exact <= bound, (m, n)
            assert (bound == 0) == (exact_distribution(Z).max_deviation() == 0)
    # numerators c_s m - 2^n above 2^1000 take the exact division path
    Z = IntegerMultiset([1] * 1100, 64)
    bound, error = _fourier_bound(exact_distribution(Z))
    assert bound - error <= highprec_fourier_bound(Z) <= bound


def test_fourier_bound_is_exactly_0_on_a_uniform_table():
    # {1, 2} mod 4: every product has a factor 1 + omega^{2k} or
    # 1 + omega^k that is exactly 0, and every deviation is 0; the loop
    # reads rounding noise of cos(pi/2).
    Z = IntegerMultiset([1, 2], 4)
    assert exact_distribution(Z).max_deviation() == 0
    assert _fourier_bound(exact_distribution(Z)) == (0.0, 0.0)
    assert scalar_fourier_bound(Z) > 0
    rep = uniformity_report(Z)
    assert rep["fourier_bound"] == rep["observed_deviation"] == 0.0


def test_fourier_bound_below_the_smallest_float_stays_positive():
    # Every product is below 1e-308 (about 2^-2000), and so is the
    # observed deviation, which rounds to 0.0: the stored bound rounds up
    # to a positive float.
    rng = random.Random(5)
    Z = IntegerMultiset([rng.randrange(1, 1009) for _ in range(2000)], 1009)
    rep = uniformity_report(Z)
    assert rep["observed_deviation"] == 0.0
    assert 0 < rep["fourier_bound"] < 1e-300
    assert rep["fourier_error"] <= rep["fourier_bound"]


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


def residue_class(Z, s):
    """The oracle of a class: every x in {0,1}^n with sum z_j x_j = s
    (mod m), in cube order (x_j is bit j of the index), point by point."""
    n = Z.cardinality
    cube = [tuple(i >> j & 1 for j in range(n)) for i in range(2 ** n)]
    return [x for x in cube
            if sum(z * b for z, b in zip(Z.elements, x)) % Z.m == s]


def test_residue_class_partition():
    # fooling_distributions' classes, from one class key over the cube,
    # are the residue classes in cube order; together they are the cube.
    for Z, d in ((IntegerMultiset([1, 1, 3], 4), 0),
                 (IntegerMultiset([1, 2, 1, 2, 1], 3), 1),
                 (IntegerMultiset([1] * 12, 4), 2)):
        fam = fooling_distributions(Z, d)
        assert sorted(fam.classes) == list(range(Z.m))
        for s in range(Z.m):
            assert fam.classes[s] == residue_class(Z, s)
            assert len(fam.weights[s]) == len(fam.classes[s])
        assert sum(map(len, fam.classes.values())) == 2 ** Z.cardinality


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


def _fooling_lp(classes, monos):
    """The fooling LP's (A_ub, A_eq) built row by row, point by point: one
    equality row per class, then for each monomial a, class s >= 1 and
    sign +1, -1, sign (E_{mu_s}[x^a] - E_{mu_0}[x^a]) - t <= 0."""
    offsets = np.cumsum([0] + [len(classes[s]) for s in sorted(classes)])
    total = offsets[-1]
    A_eq = np.zeros((len(classes), total + 1))
    for s in classes:
        A_eq[s, offsets[s]:offsets[s + 1]] = 1.0
    A_ub = []
    for mono in monos[1:]:
        base = [offsets[0] + i for i, x in enumerate(classes[0])
                if all(x[j] for j in mono)]
        for s in range(1, len(classes)):
            cols = [offsets[s] + i for i, x in enumerate(classes[s])
                    if all(x[j] for j in mono)]
            for sign in (1.0, -1.0):
                row = [0.0] * (total + 1)
                for c in cols:
                    row[c] = sign
                for c in base:
                    row[c] -= sign
                row[-1] = -1.0
                A_ub.append(row)
    return np.array(A_ub), A_eq


def test_fooling_lp_equals_the_pointwise_construction(monkeypatch):
    # The vectorized LP is the pointwise one, entry for entry: HiGHS then
    # returns the same weights, bit for bit.
    calls = []

    def record(*args, **kwargs):
        calls.append(kwargs)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(distribution, "linprog", record)
    for Z, d in ((IntegerMultiset([1] * 12, 4), 2),
                 (IntegerMultiset([1, 1, 1, 1], 2), 3),
                 (IntegerMultiset([1, 2, 1, 2, 1], 3), 1)):
        fam = fooling_distributions(Z, d)
        A_ub, A_eq = _fooling_lp(fam.classes,
                                 monomials_upto_deg(Z.cardinality, d))
        got = calls.pop()
        assert np.array_equal(got["A_ub"], A_ub)
        assert np.array_equal(got["A_eq"], A_eq)
        assert not np.signbit(got["A_ub"][got["A_ub"] == 0]).any()


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
    # max_deviation's result and the Fourier bound's error arithmetic,
    # a fixed number of Fractions, not one per cell
    made = len(fractions)
    assert made < 64
    assert objects == []
    # and the counters do count: the old route trips both
    object_counts(IntegerMultiset([1, 2], 5))
    exact_distribution(IntegerMultiset([1, 2], 5)).probs
    assert objects and len(fractions) == made + 5
