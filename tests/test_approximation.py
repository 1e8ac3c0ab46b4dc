import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lowdisc.approximation import (MAJ, OMB, PARITY, BooleanFunctionTable,
                                   ErrorBudgetExceeded, RationalApproximant,
                                   _design_matrix, beigel_signrep, buhrman_sign_poly,
                                   builtin_table, exact_multilinear,
                                   minimax_poly, newman_rational_sign,
                                   rational_minimax_discrete, sign_grid,
                                   threshold_degree, threshold_density,
                                   TooLarge, univariatize)
from lowdisc.construction import build_low_disc_set
from lowdisc.discrepancy import IntegerMultiset
from lowdisc.distribution import fooling_distributions
from lowdisc.halfspace import HalfspaceSpec, build_master_halfspace
from lowdisc.polynomials import (MultiPoly, all_points, monomials_upto_deg,
                                 poly_eval)


def test_builtin_tables():
    maj = builtin_table("MAJ_3")
    assert maj((1, 1, 0)) == -1 and maj((0, 0, 1)) == 1
    par = builtin_table("PARITY_2")
    assert [par(x) for x in ((0, 0), (1, 0), (0, 1), (1, 1))] == [1, -1, -1, 1]
    omb = builtin_table("OMB_3")
    assert omb((0, 0, 0)) == 1


def test_table_cap_checked_before_any_call():
    def never(x):
        raise AssertionError("fn called above the table cap")

    with pytest.raises(TooLarge):
        BooleanFunctionTable.from_callable(17, never)
    with pytest.raises(TooLarge):
        HalfspaceSpec(17, (2,) * 17, Fraction(-1, 2)).to_table()


def test_design_matrix_matches_triple_loop():
    rng = random.Random(9)
    for n, d in ((1, 1), (3, 2), (5, 3), (6, 6)):
        points = [x for x in all_points(n) if rng.random() < 0.8]
        monos = monomials_upto_deg(n, d)
        want = np.empty((len(points), len(monos)))
        for i, x in enumerate(points):
            for j, mono in enumerate(monos):
                v = 1.0
                for k in mono:
                    v *= x[k]
                want[i, j] = v
        assert np.array_equal(_design_matrix(points, monos), want)


def test_minimax_maj3_ladder():
    maj = MAJ(3)
    errors = [minimax_poly(maj, d).error for d in range(4)]
    assert np.allclose(errors, [1.0, 0.5, 0.5, 0.0], atol=1e-7)
    for d in range(4):
        res = minimax_poly(maj, d)
        assert res.meta["dual_verified"]


def test_minimax_dual_certificate_structure():
    res = minimax_poly(PARITY(3), 2)
    psi = np.array(res.dual_certificate)
    assert abs(res.error - 1.0) < 1e-7  # parity is blind to lower degrees
    assert np.sum(np.abs(psi)) <= 1 + 1e-6


def test_exact_multilinear_parity():
    par = PARITY(3)
    poly = exact_multilinear(par)
    # (1-2x1)(1-2x2)(1-2x3) expanded
    want = {(): 1, (0,): -2, (1,): -2, (2,): -2,
            (0, 1): 4, (0, 2): 4, (1, 2): 4, (0, 1, 2): -8}
    assert {tuple(sorted(k)): v for k, v in poly.terms.items()} == \
        {k: Fraction(v) for k, v in want.items()}


def test_full_degree_error_is_zero():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randrange(1, 7)
        f = BooleanFunctionTable(
            n, [rng.choice((-1, 1)) for _ in range(2 ** n)])
        assert minimax_poly(f, n).error <= 1e-9


def test_threshold_degree_examples():
    assert threshold_degree(MAJ(3)).degree == 1
    for n in range(1, 5):
        assert threshold_degree(PARITY(n)).degree == n
    rep = threshold_degree(OMB(4))
    assert rep.degree == 1  # it is a halfspace
    assert rep.margin > 0


def test_threshold_density():
    and2 = BooleanFunctionTable(2, [1, 1, 1, -1])
    assert threshold_density(and2).value == 3
    assert threshold_density(PARITY(3)).value == 1


def test_buhrman_sign_poly():
    res = buhrman_sign_poly(4, 1 / 3)
    assert res.d % 2 == 1
    assert res.grid_error <= 1 / 3
    for t in range(-4, 5):
        if t == 0:
            continue
        approx = poly_eval(res.coeffs, t)
        assert abs(approx - (1 if t > 0 else -1)) <= 1 / 3 + 1e-9


def test_newman_bound_and_oddness():
    for N, d in ((10, 1), (50, 2), (100, 3)):
        r, err = newman_rational_sign(N, d)
        bound = 1 - N ** (-1 / d)
        assert err <= bound + 1e-9
        for t in (1.5, 3.0, min(7.0, N)):
            assert abs(r(t) + r(-t)) < 1e-9  # odd function


def test_rational_d1_zero_equals_poly_minimax():
    rng = random.Random(12)
    for _ in range(10):
        pts = sorted(rng.uniform(-3, 3) for _ in range(9))
        targets = [rng.choice((-1.0, 1.0)) for _ in pts]
        d = rng.randrange(0, 3)
        rat = rational_minimax_discrete(pts, targets, d, 0)
        # reference: LP minimax for polynomials on the same points
        from scipy.optimize import linprog
        V = np.vander(np.array(pts), d + 1, increasing=True)
        c = np.zeros(d + 2)
        c[-1] = 1.0
        A = np.block([[V, -np.ones((len(pts), 1))],
                      [-V, -np.ones((len(pts), 1))]])
        b = np.concatenate([targets, -np.array(targets)])
        res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * (d + 2))
        assert abs(rat.error - res.fun) < 1e-6


def test_rational_minimax_certifies_lower_bound():
    pts = [t for t in range(-10, 11) if t]
    targets = [1.0 if t > 0 else -1.0 for t in pts]
    rat = rational_minimax_discrete(pts, targets, 1, 1)
    lo = rat.meta["certified_lower_bound"]
    assert lo <= rat.error + 1e-12
    assert rat.error <= lo + 1e-4
    # re-verify the attained error from the returned coefficients
    worst = 0.0
    for t, y in zip(pts, targets):
        qv = poly_eval(rat.den_coeffs, t)
        assert qv > 0
        worst = max(worst, abs(poly_eval(rat.num_coeffs, t) / qv - y))
    assert worst <= rat.error + 1e-9


def test_beigel_composition_with_exact_approximants():
    # error-0 rational approximants of MAJ_3 exist at degree 3
    maj = MAJ(3)
    p = exact_multilinear(maj)
    q = MultiPoly.constant(1.0)
    r = RationalApproximant(maj, p, q, 0.0)
    rep = beigel_signrep(r, r)
    assert rep.degree <= 4 * 3
    for x in itertools.product((0, 1), repeat=6):
        # AND in the -1 = true convention
        want = -1 if maj(x[:3]) == -1 and maj(x[3:]) == -1 else 1
        got = rep.poly.evaluate(x)
        assert got != 0 and (got > 0) == (want > 0)


def test_beigel_refuses_fraction_errors_over_budget():
    # Exact approximants give Fraction errors; the refusal must still be
    # ErrorBudgetExceeded (Fraction has no :.4f format before Python 3.12).
    maj = MAJ(3)
    r = RationalApproximant(maj, MultiPoly.constant(Fraction(1, 3)),
                            MultiPoly.constant(Fraction(1)), 0.0)
    with pytest.raises(ErrorBudgetExceeded, match="1.3333"):
        beigel_signrep(r, r)


def test_univariatize_preserves_error():
    Z = IntegerMultiset([1, 1, 1, 1], 2)
    h = build_master_halfspace(Z)
    L = MultiPoly.linear([2, 2, 2, 2, -4, -4, -4, -4], const=1)
    for x in itertools.product((0, 1), repeat=8):
        assert L.evaluate(x) == h.scaled_form(x)
    r, _ = newman_rational_sign(15, 5)

    def compose(coeffs):
        out, power = MultiPoly.constant(0.0), MultiPoly.constant(1.0)
        for c in coeffs:
            if c:
                out = out + power.scale(float(c))
            power = power * L
        return out

    p, q = compose(r.num), compose(r.den)
    fool = fooling_distributions(Z, 3)
    with pytest.raises(ValueError):
        univariatize(p, q, Z, fool)  # foolers degree 3 < 2 max(d0, d1)
    res = univariatize(p, q, Z, fool, check_budget=False)
    assert res["output_error"] <= res["input_error"] + 1e-9
    assert res["degree_bounds"] == (2 * p.degree(), 2 * q.degree(),
                                    p.degree() + q.degree())
    assert res["fit_residual"] <= 1e-9
    assert all(v > 0 for v in res["values"]["p2"])
    assert all(v > 0 for v in res["values"]["q2"])


def test_sign_grid_covers_integers():
    g = sign_grid(10)
    for t in range(1, 11):
        assert float(t) in g and float(-t) in g
