import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lowdisc.approximation import MAJ, TooLarge
from lowdisc.discrepancy import IntegerMultiset, disc
from lowdisc.halfspace import (BadParams, HalfspaceSpec, LiftedProblemSpec,
                               blackbox_approx, build_hardest_halfspace,
                               build_master_halfspace,
                               communication_certificates, kp_transform,
                               lift_to_nof, rank_factorization,
                               rectangle_discrepancy, two_party_matrix,
                               udisj_value, unique_intersection_inputs)


def test_halfspace_matches_majority():
    h = HalfspaceSpec(3, (1, 1, 1), Fraction(3, 2), {})
    maj = MAJ(3)
    for x in itertools.product((0, 1), repeat=3):
        assert h.evaluate(x) == -maj(x)  # MAJ table uses -1 for majority-1


def test_halfspace_rejects_attainable_zero():
    with pytest.raises(BadParams):
        HalfspaceSpec(2, (1, -1), Fraction(0), {})


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


def test_kp_transform_agrees_with_mux():
    for n in range(1, 5):
        h = HalfspaceSpec(n, tuple(range(1, n + 1)), Fraction(1, 2), {})
        f = h.to_table()
        g = kp_transform(f)  # asserts mux == arithmetized internally
        assert g.n == 3 * n


def test_udisj_and_unique_intersection():
    assert udisj_value([(1, 0), (1, 1)]) == 1   # one joint coordinate
    assert udisj_value([(1, 0), (0, 1)]) == -1  # disjoint
    inputs = unique_intersection_inputs(2, 2, 2)
    for parties in inputs:
        for blk in range(2):
            joint = sum(all(p[blk * 2 + j] for p in parties)
                        for j in range(2))
            assert joint <= 1


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
    assert np.max(np.abs(A @ B.T - R)) < 1e-9
    assert np.linalg.matrix_rank(R) <= F.n * F.m_blk + 1


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
    with pytest.raises(TooLarge):
        two_party_matrix(too_big)


def test_rectangle_discrepancy_exhaustive():
    M = np.array([[1, -1], [-1, 1]])
    assert abs(rectangle_discrepancy(M) - 0.25) < 1e-12  # a single cell
    assert abs(rectangle_discrepancy(np.ones((3, 3))) - 1.0) < 1e-12
    assert abs(rectangle_discrepancy(np.ones((12, 12))) - 1.0) < 1e-12
    with pytest.raises(TooLarge):
        rectangle_discrepancy(np.ones((13, 2)))
    with pytest.raises(TooLarge):
        rectangle_discrepancy(np.ones((2, 13)))


def test_communication_certificates():
    h = HalfspaceSpec(2, (1, -2), Fraction(-1, 2), {})
    F = lift_to_nof(h, 2, 1)  # 4x4 matrix: small enough for exhaustive rectangles
    rep = communication_certificates(F, rectangles=True, disc_upper_bound=1.0)
    assert rep.sign_consistent
    assert rep.factorization_rank == F.n * F.m_blk + 1
    assert rep.numeric_rank <= rep.factorization_rank
    assert 0 < rep.rectangle_disc <= 1
    assert rep.pp_lower_bound >= 1.0  # disc <= 1 always
