"""Acceptance suite: one test per criterion, each recording a single
pass/fail line (see conftest's terminal summary) with its tolerance."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from acceptance_report import check
from lowdisc import cli
from lowdisc.approximation import (MAJ, PARITY, BooleanFunctionTable,
                                   ErrorBudgetExceeded, RationalApproximant,
                                   beigel_signrep, minimax_poly,
                                   newman_rational_sign,
                                   rational_minimax_discrete, threshold_degree,
                                   univariatize)
from lowdisc.construction import (IterationInput, build_low_disc_set,
                                  claim_bounds, iterate)
from lowdisc.discrepancy import IntegerMultiset, disc, disc_highprec
from lowdisc.distribution import (DistributionTable, _walk_counts,
                                  exact_distribution, fooling_distributions,
                                  uniformity_report)
from lowdisc.expander import build_expander, complete_graph
from lowdisc.halfspace import (HalfspaceSpec, blackbox_approx,
                               build_master_halfspace, kp_transform,
                               lift_to_nof, rank_factorization,
                               udisj_value, unique_intersection_inputs)
from lowdisc.numeric_core import primes_in_halfopen
from lowdisc.polynomials import MultiPoly, monomials_upto_deg
from test_approximation import solve_exact


def test_criterion_01_trivial_set_discrepancy():
    started = time.time()
    worst = 0.0
    for m in (2, 3, 10, 1000, 10 ** 6):
        worst = max(worst, disc(IntegerMultiset(range(m), m)).value)
    elapsed = time.time() - started
    check(1, "trivial-set discrepancy", worst <= 1e-9 and elapsed < 5.0,
          f"max disc {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 5s)")


def test_criterion_02_exact_rational_cross_check():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(200):
        m = rng.randrange(2, 65)
        n = rng.randrange(1, 12)
        Z = IntegerMultiset([rng.randrange(0, 2 * m) for _ in range(n)], m)
        worst = max(worst, abs(disc(Z).value - float(disc_highprec(Z))))
    check(2, "double vs exact-rational discrepancy", worst <= 1e-9,
          f"max |double - rational| {worst:.2e} over 200 multisets (tol 1e-9)")


def _iteration_grid():
    for m in (401, 701, 997, 1201, 1601, 2003):
        for P in (5, 7, 11):
            for R in (1, 2, 3):
                if m < P * P * (R + 1):
                    continue
                primes = [p for p in primes_in_halfopen(P / 2, P) if m % p]
                if not primes:
                    continue
                size = min(min(p - 1 for p in primes), 3)
                sets = {p: set(range(1, size + 1)) for p in primes}
                yield IterationInput(m=m, R=R, P=P, sets=sets)


def test_criterion_03_iteration_lemma_exact():
    hand = iterate(IterationInput(m=19, R=1, P=3, sets={2: {1}, 3: {1}}))
    ok = sorted(hand.elements) == [11, 14]
    cases = 0
    for inp in _iteration_grid():
        out = iterate(inp)
        els = list(out.elements)
        ok &= out.cardinality == inp.R * sum(len(s) for s in inp.sets.values())
        ok &= len(set(els)) == len(els) and 0 not in els
        cases += 1
    check(3, "iteration lemma size/distinctness", ok and cases >= 50,
          f"{cases} grid cases (need >= 50), hand example -> "
          f"{sorted(hand.elements)}")


def test_criterion_04_claim_bounds():
    worst_excess = -math.inf
    for m in (997, 2003, 5003, 9973):
        primes = [p for p in primes_in_halfopen(5.5, 11) if m % p]
        sets = {p: {1, 2} for p in primes}
        inp = IterationInput(m=m, R=2, P=11, sets=sets)
        out = iterate(inp)
        zs = np.array(sorted(out.elements))
        hist = np.bincount(zs % m, minlength=m)
        sums = np.abs(np.fft.fft(hist)) / out.cardinality
        max_disc_sp = max(disc(IntegerMultiset(sorted(S), p)).value
                          for p, S in sets.items())
        for k in range(1, m):
            b1, b2 = claim_bounds(k, inp, max_disc_sp)
            worst_excess = max(worst_excess, sums[k] - min(b1, b2))
    check(4, "exponential sums within both claim bounds",
          worst_excess <= 1e-6,
          f"max (sum - min bound) {worst_excess:.2e} for all k, "
          f"m up to 9973 (tol 1e-6)")


def test_criterion_05_practical_construction():
    details, ok = [], True
    for m in (10 ** 4, 10 ** 5, 10 ** 6):
        started = time.time()
        rep = build_low_disc_set(m, 0.3, "practical", seed=7)
        elapsed = time.time() - started
        val = rep.final_certificate.value
        n = rep.final_set.cardinality
        ok &= val <= 0.3 and n <= 40 * math.log2(m) and elapsed < 60.0
        details.append(f"m={m}: disc {val:.3f}, |Z|={n}, {elapsed:.1f}s")
    check(5, "practical-mode sets (disc <= 0.3, |Z| <= 40 log2 m, < 60s)",
          ok, "; ".join(details))


def test_criterion_06_random_set_tail():
    m = 997
    n = math.ceil(8 * math.log(8 * m) / 0.25)
    bound = 4 * m * math.exp(-n * 0.25 / 8)
    rng = random.Random(123)
    bad = sum(
        disc(IntegerMultiset([rng.randrange(m) for _ in range(n)], m)).value
        > 0.5
        for _ in range(1000))
    check(6, "random-set tail probability", bad / 1000 <= bound,
          f"empirical Pr[disc > 0.5] = {bad}/1000 <= bound {bound:.3f} "
          f"(n = {n})")


def test_criterion_07_distribution_oracles():
    rng = random.Random(7)
    ok, cases = True, 0
    while cases < 30:
        m = rng.randrange(2, 33)
        n = rng.randrange(1, 15)
        Z = IntegerMultiset([rng.randrange(0, 2 * m) for _ in range(n)], m)
        dp = exact_distribution(Z)
        walk = DistributionTable(m, n, tuple(_walk_counts(Z)))
        ok &= dp.probs == walk.probs  # exact rational equality
        dev = max(abs(p - Fraction(1, m)) for p in dp.probs)
        bound = ((1 + disc(Z).value) / 2) ** (n / 2)
        ok &= float(dev) <= bound + 1e-12
        cases += 1
    check(7, "dp = walk tables and uniformity bound", ok,
          f"{cases} cases, exact table equality and "
          "max|P(s) - 1/m| <= ((1+disc)/2)^(n/2)")


def test_criterion_08_fooling_family():
    Z = IntegerMultiset([1] * 12, 4)
    fam = fooling_distributions(Z, 2)
    spread = fam.residual
    worst = 0.0
    for mono in monomials_upto_deg(12, 2)[1:]:
        es = [fam.expectation(s, mono) for s in range(4)]
        worst = max(worst, max(es) - min(es))
    check(8, "fooling family moment agreement",
          spread <= 1e-9 and worst <= 1e-8,
          f"LP spread {spread:.2e} (tol 1e-9), exhaustive monomial spread "
          f"{worst:.2e}")


def test_criterion_09_approximation_oracles():
    rng = random.Random(90)
    full_worst = 0.0
    for _ in range(20):
        n = rng.randrange(1, 9)
        f = BooleanFunctionTable(
            n, [rng.choice((-1, 1)) for _ in range(2 ** n)])
        full_worst = max(full_worst, minimax_poly(f, n).error)
    deg_ok = all(threshold_degree(PARITY(n)).d0 == n for n in range(1, 7))
    par2 = abs(minimax_poly(PARITY(2), 1).error - 1.0)
    rat_worst = 0.0
    for _ in range(20):
        pts = sorted(rng.uniform(-3, 3) for _ in range(9))
        targets = [rng.choice((-1.0, 1.0)) for _ in pts]
        d = rng.randrange(0, 3)
        rat = rational_minimax_discrete(pts, targets, d, 0)
        poly = rational_minimax_discrete(pts, targets, d, 0).error
        V = np.vander(np.array(pts), d + 1, increasing=True)
        c = np.zeros(d + 2)
        c[-1] = 1.0
        A = np.block([[V, -np.ones((len(pts), 1))],
                      [-V, -np.ones((len(pts), 1))]])
        b = np.concatenate([targets, -np.array(targets)])
        lp = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * (d + 2))
        rat_worst = max(rat_worst, abs(rat.error - lp.fun))
    check(9, "approximation lab oracles",
          full_worst <= 1e-9 and deg_ok and par2 <= 1e-7
          and rat_worst <= 1e-6,
          f"E(f,n) max {full_worst:.1e}; threshold_degree(PARITY_n)=n for "
          f"n<=6; |E(PARITY_2,1)-1| = {par2:.1e} (tol 1e-7); "
          f"d1=0 vs poly LP max gap {rat_worst:.1e} (tol 1e-6)")


def test_criterion_10_newman_bound():
    details, ok = [], True
    for N, d in ((10, 1), (100, 3), (1000, 5)):
        r, err = newman_rational_sign(N, d)
        bound = 1 - N ** (-1 / d)
        ok &= err <= bound + 1e-9
        pts = [t for t in np.geomspace(1, N, 40)]
        pts = sorted(set([-t for t in pts] + pts))
        targets = [1.0 if t > 0 else -1.0 for t in pts]
        dc = rational_minimax_discrete(pts, targets, d, d)
        worst = max(abs(r(t) - y) for t, y in zip(pts, targets))
        ok &= dc.error <= worst + 1e-9
        details.append(f"(N={N},d={d}): newman {err:.4f} <= {bound:.4f}, "
                       f"dc {dc.error:.4f} <= {worst:.4f}")
    check(10, "newman grid error and differential correction", ok,
          "; ".join(details) + " (tol 1e-9)")


def _deg1_gordan_matrix(f, sigma, eps):
    """Rows of the strict homogeneous system M z > 0 over the coefficients
    z = (p0, p1..pn, q0, q1..qn) of degree-1 p and q, stating that p/q has
    error < eps on f with q of sign sigma(x) at each point x:
    sigma q > 0 and eps sigma q -+ (p - f q) > 0."""
    rows = []
    for x, s in zip(itertools.product((0, 1), repeat=f.n), sigma):
        r = [Fraction(1)] + [Fraction(b) for b in x]
        v = f(x)
        rows.append([Fraction(0)] * len(r) + [s * u for u in r])
        rows.append([-u for u in r] + [(v + eps * s) * u for u in r])
        rows.append(r + [(-v + eps * s) * u for u in r])
    return rows


def _gordan_certificate(M):
    """Exact y >= 0 with sum(y) = 1 and y^T M = 0, proving that M z > 0
    has no solution (Gordan's alternative), or None. A float LP only
    proposes the support; the certificate is solved and checked in
    Fractions."""
    ncols = len(M[0])
    A_eq = [[float(M[i][j]) for i in range(len(M))] for j in range(ncols)]
    A_eq.append([1.0] * len(M))
    lp = linprog(np.zeros(len(M)), A_eq=np.array(A_eq),
                 b_eq=np.array([0.0] * ncols + [1.0]),
                 bounds=[(0, None)] * len(M), method="highs-ds")
    if lp.status != 0:
        return None
    support = [i for i, yi in enumerate(lp.x) if yi > 1e-9]
    cols = [[M[i][j] for i in support] for j in range(ncols)]
    ys = solve_exact(cols + [[Fraction(1)] * len(support)],
                     [Fraction(0)] * ncols + [Fraction(1)])
    if ys is None:
        return None
    y = [Fraction(0)] * len(M)
    for i, yi in zip(support, ys):
        y[i] = yi
    ok = (all(yi >= 0 for yi in y) and sum(y) == 1
          and all(sum(yi * row[j] for yi, row in zip(y, M)) == 0
                  for j in range(ncols)))
    return y if ok else None


def test_criterion_11_beigel_composition():
    # Beigel's composition needs rational approximants with e1 + e2 < 1.
    # At degree 1 the best error for MAJ_3 is exactly 1/2: the witness
    # below attains it, and for every denominator sign pattern a Gordan
    # certificate proves that error < 1/2 is infeasible. Patterns with
    # sigma(000) = -1 need no certificate: (p, q) -> (-p, -q) flips sigma.
    maj = MAJ(3)
    half = Fraction(1, 2)
    p = MultiPoly.constant(Fraction(3, 4))
    q = MultiPoly.linear([-1, -1, -1], const=Fraction(3, 2))
    witness = max(abs(maj(x) - p.evaluate(x) / q.evaluate(x))
                  for x in maj.domain())
    patterns = [s for s in itertools.product((1, -1), repeat=2 ** maj.n)
                if s[0] == 1]
    certified = sum(
        _gordan_certificate(_deg1_gordan_matrix(maj, s, half)) is not None
        for s in patterns)

    r_maj = RationalApproximant(maj, p, q, half)
    try:
        beigel_signrep(r_maj, r_maj)
        refused = False
    except ErrorBudgetExceeded:
        refused = True
    dictator = BooleanFunctionTable(1, [1, -1])
    r_dict = RationalApproximant(dictator, MultiPoly.linear([-2], const=1),
                                 MultiPoly.constant(1), 0.0)
    rep = beigel_signrep(r_maj, r_dict)
    sign_ok = all(
        (rep.poly.evaluate(x) < 0) == (maj(x[:3]) == dictator(x[3:]) == -1)
        and rep.poly.evaluate(x) != 0
        for x in itertools.product((0, 1), repeat=4))
    check(11, "degree-1 rational error of MAJ_3 is exactly 1/2; "
          "Beigel composition within budget",
          witness == half
          and certified == len(patterns) == 128 and refused
          and sign_ok and rep.degree <= 4 * max(p.degree(), q.degree()),
          f"witness (3/4)/(3/2 - |x|) error {witness} (exact); "
          f"{certified}/{len(patterns)} sign patterns with exact Gordan "
          f"certificates at error 1/2; 1/2 + 1/2 budget refused: {refused}; "
          f"MAJ_3 AND dictator sign-correct on all 16 inputs: {sign_ok}, "
          f"degree {rep.degree} <= 4, margin {rep.margin}")


def test_criterion_12_univariatization_end_to_end():
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
    res = univariatize(p, q, Z, fool, check_budget=False)
    deg_ok = res["degree_bounds"] == (2 * p.degree(), 2 * q.degree(),
                                      p.degree() + q.degree())
    check(12, "univariatization preserves error",
          res["input_error"] <= 0.2
          and res["output_error"] <= 0.2 + 1e-9
          and res["output_error"] <= res["input_error"] + 1e-9
          and deg_ok,
          f"input error {res['input_error']:.4f} <= 0.2, output "
          f"{res['output_error']:.4f} <= 0.2 + 1e-9, degrees "
          f"{res['degree_bounds']}")


def test_criterion_13_muroga_linear_approximant():
    ok, cases = True, 0
    for n in range(2, 12):  # 10 halfspaces, all with min |form| = 1
        h = HalfspaceSpec(n, (2,) * n, Fraction(1), {})
        res = blackbox_approx(h, 1, "poly_linear")
        D = 1 + 2 * n
        # exhaustive recomputation of the minimum form value
        min_l = min(abs(sum(s * w for s, w in zip(signs, h.weights)) - 1)
                    for signs in itertools.product((-1, 1), repeat=n))
        ok &= min_l == 1
        ok &= Fraction(res.meta["exact_error"]) == 1 - Fraction(1, D)
        ok &= abs(res.error - float(1 - Fraction(1, D))) <= 1e-12
        cases += 1
    check(13, "exact linear-approximant error 1 - 1/(|theta| + sum|w|)",
          ok and cases == 10, f"{cases} halfspaces with n in 2..11, "
          "exhaustive min-form check, exact rational equality")


def test_criterion_14_kp_transform():
    ok = True
    for n in range(1, 5):
        h = HalfspaceSpec(n, tuple(range(1, n + 1)), Fraction(1, 2), {})
        f = h.to_table()
        g = kp_transform(f)  # raises if mux != arithmetized
        ok &= g.n == 3 * n and all(  # g(x, y, z) = f(mux(z; x, y))
            g(w) == f(tuple(w[n + i] if w[2 * n + i] else w[i]
                            for i in range(n))) for w in g.domain())
    check(14, "multiplexer transform definitions agree", ok,
          "mux vs arithmetized identity, and f at the multiplexed point, "
          "exhaustive up to 2^12 rows")


def test_criterion_15_lifting():
    h = HalfspaceSpec(3, (1, 2, -3), Fraction(-1, 2), {})
    F = lift_to_nof(h, 2, 2)
    ok = True
    for parties in unique_intersection_inputs(3, 2, 2):
        blocks = [udisj_value([p[i * 2:i * 2 + 2] for p in parties])
                  for i in range(3)]
        want = h.evaluate([(1 - b) // 2 for b in blocks])
        ok &= F.evaluate(parties) == want
    F1 = lift_to_nof(h, 2, 1)  # one coordinate per block: the 8x8 matrix
    A, B = rank_factorization(F1)
    rank = int(np.linalg.matrix_rank(A @ B.T))
    check(15, "lift equals composition; realizing-matrix rank <= n + 1",
          ok and rank <= 4,
          f"exhaustive unique-intersection agreement; 8x8 realizing "
          f"matrix rank {rank} <= 4")


def test_criterion_16_expander():
    details, ok = [], True
    for n in (101, 1009, 10007, 100003):
        g = build_expander(n, 0.5, mode="practical", seed=7)
        ok &= g.lam <= 0.5 * g.degree + 1e-9
        ok &= g.degree <= 80 * math.log2(n)
        details.append(f"n={n}: d={g.degree}, lambda={g.lam:.2f}")
    k = complete_graph(11)
    ok &= abs(k.lam - 1.0) <= 1e-9 and k.degree == 10
    check(16, "circulant expanders (lambda <= 0.5 d, d <= 80 log2 n)", ok,
          "; ".join(details) + "; K_11 lambda = 1 = d/(n-1)")


def test_criterion_17_determinism(tmp_path):
    ok = True
    runs = [
        ["lowdisc", "--m", "997", "--eps", "0.4", "--mode", "practical",
         "--seed", "1", "--out", str(tmp_path / "z.json")],
        ["expander", "--n", "1009", "--eps", "0.5", "--mode", "practical",
         "--seed", "7", "--out", str(tmp_path / "g.json")],
    ]
    for argv in runs:
        ok &= cli.main(argv) == 0
        manifest = argv[-1] + ".manifest.json"
        with open(manifest, encoding="utf-8") as fh:
            assert json.load(fh)["schema"] == "lowdisc.run_manifest/1"
        ok &= cli.main(["verify", manifest]) == 0  # re-runs, compares digests
    check(17, "seeded pipelines byte-identical under their manifests", ok,
          "lowdisc and expander re-runs reproduce every output digest")
