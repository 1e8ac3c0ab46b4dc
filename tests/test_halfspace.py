import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lowdisc.approximation import MAJ, BooleanFunctionTable, TooLarge
from lowdisc.discrepancy import IntegerMultiset, disc
from lowdisc.halfspace import (BadParams, HalfspaceSpec, LiftedProblemSpec,
                               blackbox_approx, build_hardest_halfspace,
                               build_master_halfspace, kp_transform,
                               lift_to_nof, paper_c_prime, rank_factorization,
                               two_party_matrix, udisj_value,
                               unique_intersection_inputs)
from lowdisc.polynomials import all_points


def test_halfspace_matches_majority():
    h = HalfspaceSpec(3, (1, 1, 1), Fraction(3, 2), {})
    maj = MAJ(3)
    for x in itertools.product((0, 1), repeat=3):
        assert h.evaluate(x) == -maj(x)  # MAJ table uses -1 for majority-1


def test_halfspace_rejects_attainable_zero():
    with pytest.raises(BadParams):
        HalfspaceSpec(2, (1, -1), Fraction(0), {})
    # Against enumerating the cube, on specs no parity argument covers.
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(1, 9)
        weights = tuple(rng.randrange(-6, 7) for _ in range(n))
        theta = Fraction(rng.randrange(-12, 13), rng.choice((1, 3)))
        hits = any(sum(w for w, b in zip(weights, x) if b) == theta
                   for x in itertools.product((0, 1), repeat=n))
        try:
            HalfspaceSpec(n, weights, theta, {})
        except BadParams:
            assert hits, (weights, theta)
        else:
            assert not hits, (weights, theta)
    # 20 variables with about 10^6 distinct form values; 0 is the last one.
    weights = tuple(3 ** k % 1000003 for k in range(20))
    with pytest.raises(BadParams):
        HalfspaceSpec(20, weights, Fraction(sum(weights)), {})


def test_master_halfspace_form():
    Z = IntegerMultiset([1, 3, 5], 4)
    h = build_master_halfspace(Z)
    assert h.n == 6
    assert h.weights == (1, 3, 1, -4, -4, -4)
    assert h.evaluate((0,) * 6) == 1  # constant 1/2 dominates
    # scaled form is odd, hence never zero
    for x in itertools.product((0, 1), repeat=6):
        assert h.scaled_form(x) % 2 == 1


def test_halfspace_json_round_trip():
    h = HalfspaceSpec(3, (2, -4, 6), Fraction(-7, 4), {"note": "test"})
    d = json.loads(json.dumps(h.to_json_dict()))
    h2 = HalfspaceSpec.from_json_dict(d)
    assert h2.weights == h.weights and h2.threshold == h.threshold


def test_hardest_halfspace_paper_fallback():
    h = build_hardest_halfspace(10, mode="paper")
    assert Fraction(h.provenance["c_prime"]) == paper_c_prime()
    assert math.floor(Fraction(h.provenance["c_prime"]) * 10) < 1
    for x in itertools.product((0, 1), repeat=h.n):
        assert h.evaluate(x) == (-1 if x[0] else 1)


def test_hardest_halfspace_demo():
    h = build_hardest_halfspace(24, c_prime=0.05, mode="demo", seed=11)
    n_vars = h.n
    assert 24 // 4 * 2 <= n_vars <= 24  # 2 * |Z| variables, |Z| in window
    assert h.provenance["m"] == 2
    if h.provenance["disc_target_met"]:
        assert h.provenance["disc"] <= 0.1 + 1e-12


def test_muroga_error_exact():
    h = HalfspaceSpec(3, (2, 2, 4), Fraction(3), {})
    res = blackbox_approx(h, 1, "poly_linear")
    D = abs(3) + 2 + 2 + 4
    assert abs(res.error - float(1 - Fraction(1, D))) < 1e-12
    assert Fraction(res.meta["exact_error"]) == 1 - Fraction(1, D)


def test_muroga_min_form_general():
    # min |form| = 1/2 here, so the exact error is worse than the 1 - 1/D formula
    h = HalfspaceSpec(2, (1, 2), Fraction(-1, 2), {})
    res = blackbox_approx(h, 1, "poly_linear")
    assert Fraction(res.meta["min_abs_form"]) == Fraction(1, 2)
    assert res.error > float(Fraction(res.meta["formula_value"]))
    assert abs(res.error - float(Fraction(res.meta["exact_error"]))) < 1e-15


def test_rational_newman_blackbox():
    h = HalfspaceSpec(3, (2, 2, 4), Fraction(3), {})
    res = blackbox_approx(h, 3, "rational_newman")
    N = float(Fraction(res.meta["N"]))
    assert res.error <= 1 - N ** (-1 / 3) + 1e-9


def _kp_pointwise(f):
    """f^KP by its definition, one input at a time: f at
    mux(z_i; x_i, y_i) = y_i if z_i else x_i."""
    n = f.n
    values = []
    for w in itertools.product((0, 1), repeat=3 * n):
        w = w[::-1]  # little-endian: table index i has bit j = w[j]
        x, y, z = w[:n], w[n:2 * n], w[2 * n:]
        values.append(f(tuple(y[i] if z[i] else x[i] for i in range(n))))
    return tuple(values)


def test_kp_transform_agrees_with_mux():
    rng = random.Random(14)
    for n in range(5):
        h = HalfspaceSpec(n, tuple(range(1, n + 1)), Fraction(1, 2), {})
        tables = [h.to_table()] + [
            BooleanFunctionTable(n, [rng.choice((-1, 1))
                                     for _ in range(2 ** n)])
            for _ in range(3)]
        for f in tables:
            g = kp_transform(f)  # asserts mux == arithmetized internally
            assert g.n == 3 * n and g.values == _kp_pointwise(f), f.values


def test_udisj_and_unique_intersection():
    assert udisj_value([(1, 0), (1, 1)]) == 1   # one joint coordinate
    assert udisj_value([(1, 0), (0, 1)]) == -1  # disjoint
    for n, m_blk, k in ((2, 2, 2), (3, 2, 2), (2, 1, 3)):
        # The definition: every k-tuple of party inputs in which each
        # block has at most one jointly-1 coordinate. Only the order of
        # unique_intersection_inputs differs from this enumeration.
        total = n * m_blk
        want = set()
        for flat in itertools.product((0, 1), repeat=k * total):
            parties = tuple(flat[p * total:(p + 1) * total]
                            for p in range(k))
            if all(sum(all(p[i * m_blk + j] for p in parties)
                       for j in range(m_blk)) <= 1 for i in range(n)):
                want.add(parties)
        got = unique_intersection_inputs(n, m_blk, k)
        assert len(got) == len(want) and set(got) == want, (n, m_blk, k)


def test_lift_matches_composition():
    h = HalfspaceSpec(3, (1, 2, -3), Fraction(-1, 2), {})
    F = lift_to_nof(h, 2, 2)
    for parties in unique_intersection_inputs(3, 2, 2):
        blocks = [udisj_value([p[i * 2:i * 2 + 2] for p in parties])
                  for i in range(3)]
        want = h.evaluate([(1 - b) // 2 for b in blocks])
        assert F.evaluate(parties) == want


def test_lift_monomial_budget():
    h = HalfspaceSpec(3, (1, 2, -3), Fraction(-1, 2), {})
    F = lift_to_nof(h, 3, 2)
    assert F.monomial_count == 3 * 2 + 1
    assert F.upp_upper_bound() == math.ceil(math.log2(7)) + 2


def test_two_party_rank_factorization():
    h = HalfspaceSpec(3, (1, 2, -3), Fraction(-1, 2), {})
    F = lift_to_nof(h, 2, 2)
    M, R, _pts = two_party_matrix(F)
    assert np.array_equal(np.sign(R), M)
    A, B = rank_factorization(F)
    assert A.dtype == B.dtype == np.int64
    assert A.shape == B.shape == (2 ** 6, F.n * F.m_blk + 1)
    assert np.array_equal(A @ B.T, R)
    assert np.linalg.matrix_rank(R) <= F.n * F.m_blk + 1


def test_rank_factorization_is_exact_at_the_int64_guard():
    # Entries near 2^62 are off by hundreds in float64; the int64 factors
    # reproduce every entry of R.
    F = LiftedProblemSpec(k=2, n=2, m_blk=1, w0_scaled=2 ** 61 + 1,
                          block_weights_scaled=(-(2 ** 60) - 3, 2 ** 59 + 7))
    A, B = rank_factorization(F)
    assert A.dtype == B.dtype == np.int64
    R = two_party_matrix(F)[1]
    assert (A @ B.T).tolist() == R.tolist() == [
        [F.scaled_argument((x, y)) for y in all_points(2).tolist()]
        for x in all_points(2).tolist()]


def test_two_party_matrix_matches_scaled_argument():
    rng = random.Random(8)
    for m_blk in (1, 2):
        for n in range(1, 6 // m_blk + 1):
            weights = [rng.randrange(-20, 21) for _ in range(n)]
            theta = Fraction(rng.randrange(-41, 41, 2), 2)
            h = HalfspaceSpec(n, weights, theta)
            F = lift_to_nof(h, 2, m_blk)
            M, R, pts = two_party_matrix(F)
            assert R.dtype == np.int64
            assert len(pts) == 2 ** (n * m_blk)
            for a, x in enumerate(pts):
                assert x == tuple((a >> j) & 1 for j in range(n * m_blk))
                for b, y in enumerate(pts):
                    assert R[a, b] == F.scaled_argument((x, y))
                    assert M[a, b] == F.evaluate((x, y))


def test_two_party_matrix_exactness_guard():
    ok = LiftedProblemSpec(k=2, n=1, m_blk=1, w0_scaled=2 ** 62 - 2,
                           block_weights_scaled=(1,))
    _M, R, _pts = two_party_matrix(ok)
    top = 2 ** 62 - 1
    assert R.tolist() == [[top - 1, top - 1], [top - 1, top]]
    too_big = LiftedProblemSpec(k=2, n=1, m_blk=1, w0_scaled=2 ** 62 - 1,
                                block_weights_scaled=(-1,))
    for build in (two_party_matrix, rank_factorization):
        with pytest.raises(TooLarge):
            build(too_big)


def rectangle_discrepancy(M):
    """Uniform-distribution rectangle discrepancy of a +-1 matrix: max
    over rectangles S x T of |sum_{S x T} M| / (rows * cols), by
    exhaustive search over column subsets (at most 12 x 12): the oracle
    for the communication report of ROADMAP item 4."""
    rows, cols = M.shape
    if rows > 12 or cols > 12:
        raise TooLarge("at most 12 x 12 for exhaustive rectangles")
    C = M.astype(np.int64) @ all_points(cols).T  # row sums, every subset
    best = max(np.maximum(C, 0).sum(0).max(), np.maximum(-C, 0).sum(0).max())
    return int(best) / (rows * cols)


def test_rectangle_discrepancy_exhaustive():
    M = np.array([[1, -1], [-1, 1]])
    assert abs(rectangle_discrepancy(M) - 0.25) < 1e-12  # a single cell
    assert abs(rectangle_discrepancy(np.ones((3, 3))) - 1.0) < 1e-12
    assert abs(rectangle_discrepancy(np.ones((12, 12))) - 1.0) < 1e-12
    rng = random.Random(5)
    for rows, cols in ((1, 1), (2, 3), (4, 4), (5, 3)):
        # The definition: every rectangle S x T, row and column subsets.
        M = np.array([[rng.choice((-1, 1)) for _ in range(cols)]
                      for _ in range(rows)])
        best = max(abs(int(M[np.ix_(S, T)].sum()))
                   for r in range(1, rows + 1)
                   for S in itertools.combinations(range(rows), r)
                   for c in range(1, cols + 1)
                   for T in itertools.combinations(range(cols), c))
        assert rectangle_discrepancy(M) == best / (rows * cols)
    with pytest.raises(TooLarge):
        rectangle_discrepancy(np.ones((13, 2)))
    with pytest.raises(TooLarge):
        rectangle_discrepancy(np.ones((2, 13)))
