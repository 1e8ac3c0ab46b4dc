import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc import approximation
from lowdisc.approximation import (MAJ, OMB, PARITY, BooleanFunctionTable,
                                   ErrorBudgetExceeded, NoConvergence,
                                   RationalApproximant,
                                   approx_problem, beigel_signrep,
                                   builtin_table, dual_failures,
                                   exact_finish, minimax_exchange,
                                   minimax_poly, newman_rational_sign,
                                   rational_minimax_discrete, sign_grid,
                                   threshold_degree, TooLarge, univariatize,
                                   weight_classes)
from lowdisc.construction import build_low_disc_set
from lowdisc.discrepancy import IntegerMultiset
from lowdisc.distribution import fooling_distributions
from lowdisc.halfspace import HalfspaceSpec, build_master_halfspace
from lowdisc.polynomials import (MultiPoly, all_points, monomials_upto_deg,
                                 poly_eval)


def _symmetric(g):
    """The symmetric table with profile g: f(x) = g[|x|] on n = len(g) - 1
    variables."""
    return BooleanFunctionTable.from_callable(
        len(g) - 1, lambda X: np.array(g)[X.sum(1)])


def _singletons(n):
    """The partition of n coordinates into singletons: the cube's design."""
    return [(i,) for i in range(n)]


def _cube(f, d):
    """f's monomial design on the cube and its values, in float64."""
    p = approx_problem(f, d, _singletons(f.n))
    return p.A.astype(float), p.f.astype(float)


def _orbit_psi(p, exact):
    """The exact dual of an `exact` block on design p's orbits."""
    psi = np.full(len(p.first), Fraction(0), dtype=object)
    psi[exact["reference"]] = exact["psi"]
    return psi


def _exact_multilinear(f):
    """The oracle's exact multilinear representation of f, with integer
    coefficients: the Moebius transform c_S = sum_{T <= S} (-1)^{|S|-|T|}
    f(1_T) over the subset lattice, one butterfly per variable. Witnesses
    E(f, n) = 0 exactly."""
    c = np.array(f.values, dtype=np.int64)
    for j in range(f.n):
        c.reshape(-1, 2, 2 ** j)[:, 1] -= c.reshape(-1, 2, 2 ** j)[:, 0]
    p = MultiPoly({frozenset(i for i in range(f.n) if x >> i & 1): int(v)
                   for x, v in enumerate(c) if v})
    assert all(p.evaluate(x) == f(x) for x in f.domain())
    return p


def _minimax_lp(A, fv):
    """The HiGHS oracle: min eps s.t. |A c - fv| <= eps as one LP; returns
    the optimal coefficients c."""
    rows, ncoef = A.shape
    ones = np.ones((rows, 1))
    cost = np.zeros(ncoef + 1)
    cost[-1] = 1.0
    res = approximation.linprog(
        cost, A_ub=np.block([[A, -ones], [-A, -ones]]),
        b_ub=np.concatenate([fv, -fv]),
        bounds=[(None, None)] * ncoef + [(0, None)], method="highs")
    assert res.success, res.message
    return res.x[:ncoef]


def _reference_failures(A, fv, c, psi, ref, sigma):
    """The failed checks of the reference and signs minimax_exchange
    returns: N + 1 distinct rows in ascending order, psi nonzero only on
    them, sigma_i (f - A c)_i = max |f - A c| on each (within 1e-9), and
    sigma_i psi_i >= 0 (up to rounding, -1e-12: a degenerate reference
    row has |psi_i| near 1e-17)."""
    N = A.shape[1]
    if len(A) == N:
        return [] if len(ref) == len(sigma) == 0 else ["square: a reference"]
    error = np.max(np.abs(fv - A @ c))
    off = np.ones(len(A), dtype=bool)
    off[ref] = False
    failed = []
    if len(ref) != N + 1 or not np.all(np.diff(ref) > 0):
        failed.append("reference is not N + 1 ascending rows")
    if len(sigma) != N + 1 or not np.all(np.abs(sigma) == 1):
        failed.append("sigma is not one sign per reference row")
    if np.any(psi[off]):
        failed.append("psi nonzero off the reference")
    if not np.max(np.abs(sigma * (fv - A @ c)[ref] - error)) <= 1e-9:
        failed.append("residual not levelled to sigma_i E on the reference")
    if not np.min(sigma * psi[ref]) >= -1e-12:
        failed.append("sigma_i psi_i < 0")
    return failed


def _exchange_error(f, d):
    """(error, certified): the exchange on f's design matrix at degree d,
    its error on the table, and whether its dual certifies that error and
    its reference and signs pass _reference_failures."""
    A, fv = _cube(f, d)
    c, psi, ref, sigma = minimax_exchange(A, fv)
    error = float(np.max(np.abs(A @ c - fv)))
    return error, not (dual_failures(psi, A, fv, error)
                       or _reference_failures(A, fv, c, psi, ref, sigma))


def _oracle_error(f, d):
    A, fv = _cube(f, d)
    return float(np.max(np.abs(A @ _minimax_lp(A, fv) - fv)))


def test_builtin_tables():
    maj = builtin_table("MAJ_3")
    assert maj((1, 1, 0)) == -1 and maj((0, 0, 1)) == 1
    par = builtin_table("PARITY_2")
    assert [par(x) for x in ((0, 0), (1, 0), (0, 1), (1, 1))] == [1, -1, -1, 1]
    omb = builtin_table("OMB_3")
    assert omb((0, 0, 0)) == 1


def test_table_cap_checked_before_any_call(monkeypatch):
    # At n = 17 neither fn is called nor the cube built.
    def never(*args):
        raise AssertionError("called above the table cap")

    monkeypatch.setattr(approximation, "all_points", never)
    with pytest.raises(TooLarge):
        BooleanFunctionTable.from_callable(17, never)
    with pytest.raises(TooLarge):
        HalfspaceSpec(17, (2,) * 17, Fraction(-1, 2)).to_table()


def test_all_points_is_the_little_endian_cube():
    for n in range(11):
        X = all_points(n)
        i = np.arange(2 ** n)[:, None]
        assert X.shape == (2 ** n, n) and X.dtype == np.uint8
        assert not X.flags.writeable
        assert np.array_equal(X, (i >> np.arange(n)) & 1)


def test_named_tables_match_their_pointwise_definitions():
    pointwise = {
        MAJ: lambda n, x: -1 if sum(x) > n / 2 + 0.25 else 1,
        PARITY: lambda n, x: -1 if sum(x) % 2 else 1,
        OMB: lambda n, x: 1 if 1 + sum((-2) ** (i + 1) * b
                                       for i, b in enumerate(x)) > 0 else -1,
    }
    for fam, g in pointwise.items():
        for n in range(11):
            f = fam(n)
            assert f.values == tuple(g(n, x) for x in f.domain()), (fam, n)
            assert all(type(v) is int for v in f.values)


def test_to_table_matches_evaluate():
    # n = 0, negative weights, an even-denominator threshold, and weights
    # beyond int64.
    big = 2 ** 64 + 3
    for h in (HalfspaceSpec(0, (), Fraction(-1, 2)),
              HalfspaceSpec(0, (), Fraction(1, 2)),
              HalfspaceSpec(4, (3, -5, 2, -1), Fraction(-1, 2)),
              HalfspaceSpec(5, (1, -2, 3, 4, -6), Fraction(3, 4)),
              HalfspaceSpec(4, (big, -big, 2 ** 63, -1), Fraction(1, 2)),
              HalfspaceSpec(3, (big, big, -2 * big), Fraction(big, 2)),
              build_master_halfspace(IntegerMultiset([40, 70, 40], 101))):
        f = h.to_table()
        assert f.values == tuple(h.evaluate(x) for x in f.domain()), h.weights


def test_design_matrix_matches_triple_loop():
    # A[o, j] is the sum over column j's monomials of their product at the
    # orbit's first point: on the singleton partition the cube's monomial
    # design, and on one block C(t, j).
    rng = random.Random(9)
    for n, d, blocks in ((1, 1, [(0,)]), (3, 2, [(0,), (1,), (2,)]),
                         (5, 3, [(0, 3), (1,), (2, 4)]),
                         (6, 6, [(0, 1, 5), (2, 3, 4)]),
                         (6, 4, [tuple(range(6))])):
        f = BooleanFunctionTable(n, [rng.choice((-1, 1))
                                     for _ in range(2 ** n)])
        p = approx_problem(f, d, blocks)
        points = all_points(n)
        want = np.zeros((len(p.first), len(p.lead)), dtype=object)
        for k, mono in enumerate(p.monos):
            for o, x in enumerate(p.first):
                want[o, p.col[k]] += math.prod(points[x][i] for i in mono)
        assert np.array_equal(p.A, want)
        assert p.exact == (len(blocks) == 1)
        for o, x in enumerate(p.first):  # an orbit's first index and size
            members = np.flatnonzero(p.orbit == o)
            assert members[0] == x and p.sizes[o] == len(members)
            counts = {tuple(sum(points[y][i] for i in b) for b in blocks)
                      for y in members}
            assert len(counts) == 1
    p = approx_problem(MAJ(5), 2, _singletons(5))
    assert p.A.shape == (32, 16) and not p.exact
    assert np.array_equal(p.A, _cube(MAJ(5), 2)[0])


def test_weight_classes():
    assert weight_classes(MAJ(5)) == [(0, 1, 2, 3, 4)]
    assert weight_classes(OMB(5)) == _singletons(5)
    assert weight_classes(BooleanFunctionTable(0, [1])) == []
    table_6 = [1 if (i * 13 + (i >> 2)) % 5 < 3 else -1 for i in range(64)]
    assert weight_classes(BooleanFunctionTable(6, table_6)) == [
        (0, 2), (1, 3), (4,), (5,)]
    # The master halfspace of {40, 70, 40} mod 101: the repeated weight and
    # the y block.
    h = build_master_halfspace(IntegerMultiset([40, 70, 40], 101))
    assert weight_classes(h.to_table()) == [(0, 2), (1,), (3, 4, 5)]


def test_minimax_maj3_ladder():
    results = [minimax_poly(MAJ(3), d) for d in range(4)]
    assert [r.meta["exact"]["error"] for r in results] == [
        1, Fraction(1, 2), Fraction(1, 2), 0]
    assert [r.error for r in results] == [1.0, 0.5, 0.5, 0.0]
    assert all(r.meta["dual_verified"] for r in results)


def test_minimax_dual_certificate_structure():
    res = minimax_poly(PARITY(3), 2)
    psi = np.array(res.dual_certificate)
    assert abs(res.error - 1.0) < 1e-7  # parity is blind to lower degrees
    assert np.sum(np.abs(psi)) <= 1 + 1e-6


def _exact_failures(f, d):
    """The failed exact checks of minimax_poly(f, d) on f's binomial design:
    the stored dual proves the exact error, and the coefficients attain it."""
    res = minimax_poly(f, d)
    exact = res.meta["exact"]
    p = approx_problem(f, d)
    failed = dual_failures(_orbit_psi(p, exact), p.A, p.f, exact["error"])
    if max(abs(p.A @ exact["coeffs"] - p.f)) != exact["error"]:
        failed.append("max |f - A c| != error")
    if res.error != float(exact["error"]) or not res.meta["dual_verified"]:
        failed.append("float fields disagree with the exact block")
    return failed


def test_exact_finish_certifies_every_small_profile():
    # Every +-1 profile for n <= 6 at every degree, then MAJ_n and
    # PARITY_n for n <= 16 at every degree.
    tables = [_symmetric(g) for n in range(1, 7)
              for g in itertools.product((-1, 1), repeat=n + 1)]
    tables += [fam(n) for fam in (MAJ, PARITY) for n in range(1, 17)]
    for f in tables:
        for d in range(f.n + 1):
            assert _exact_failures(f, d) == [], (f.n, f.values[:8], d)


def test_exact_finish_refuses_a_non_optimal_reference():
    # The finish proves the exchange's reference optimal, and each of its
    # two checks refuses a reference that is not.
    for f, d, error in ((MAJ(5), 0, 1), (MAJ(2), 1, Fraction(1, 2))):
        p = approx_problem(f, d)
        A, gv = p.A, p.f
        _c, _psi, ref, sigma = minimax_exchange(A, gv)
        assert exact_finish(A, gv, ref, sigma)[0] == error
    # MAJ_5, g = (1, 1, 1, -1, -1, -1): t = 0, 1 with signs (+, -) level
    # the residual at h = 0 with c = 1, and psi = (1/2, -1/2) matches the
    # signs; but |g_5 - c| = 2 > h.
    p = approx_problem(MAJ(5), 0)
    A, gv = p.A, p.f
    with pytest.raises(NoConvergence, match="exceed its levelled error 0"):
        exact_finish(A, gv, [0, 1], [1.0, -1.0])
    # MAJ_2, g = (1, 1, -1): signs (+, +, -) level the residual at h = 1
    # with c = 0, and max |g| = 1 <= h; but the optimum is 1/2, and
    # psi = (-1/2, 1, -1/2) has sigma_0 psi_0 < 0.
    p = approx_problem(MAJ(2), 1)
    A, gv = p.A, p.f
    with pytest.raises(NoConvergence, match="wrong sign"):
        exact_finish(A, gv, [0, 1, 2], [1.0, 1.0, -1.0])


def test_symmetric_reduction_matches_full_lp():
    # The exchange with its exact finish on t = 0..n against the LP on all
    # 2^n points (the oracle): every +-1 profile for n <= 5, seeded
    # profiles for n = 6..8.
    rng = random.Random(71)
    profiles = [list(g) for n in range(1, 6)
                for g in itertools.product((-1, 1), repeat=n + 1)]
    profiles += [[rng.choice((-1, 1)) for _ in range(n + 1)]
                 for n in (6, 7, 8) for _ in range(3)]
    for g in profiles:
        n = len(g) - 1
        f = _symmetric(g)
        for d in range(n + 1):
            res = minimax_poly(f, d)
            p = approx_problem(f, d)
            A, gv = p.A, p.f
            exact = res.meta["exact"]
            error, coeffs, ref, psi = (exact[key] for key in
                                       ("error", "coeffs", "reference", "psi"))
            assert res.error == float(error) and res.meta["dual_verified"]
            assert max(abs(A @ coeffs - gv)) == error
            if d == n:
                assert error == 0 and ref == psi == []
                continue
            assert len(ref) == d + 2 and sum(abs(p) for p in psi) == 1
            assert sum(p * g[t] for p, t in zip(psi, ref)) == error
            assert all(sum(p * math.comb(t, j) for p, t in zip(psi, ref)) == 0
                       for j in range(d + 1))
            assert abs(res.error - _oracle_error(f, d)) <= 1e-7, (g, d)


def _blocks(sizes):
    """Consecutive blocks of coordinates of the given sizes."""
    starts = np.cumsum([0, *sizes])
    return [tuple(range(a, b)) for a, b in zip(starts, starts[1:])]


def _block_table(blocks, g):
    """The table of a function of the per-block counts: g[key], the counts
    read as one mixed-radix number (radix |B| + 1, first block highest)."""
    n = sum(map(len, blocks))
    idx = np.arange(2 ** n)
    key = np.zeros(2 ** n, dtype=np.int64)
    for b in blocks:
        key = key * (len(b) + 1) + sum(idx >> i & 1 for i in b)
    return BooleanFunctionTable(n, [int(v) for v in np.asarray(g)[key]])


def _partitions(n, top=None):
    """The partitions of n, as non-increasing tuples of part sizes."""
    if n == 0:
        yield ()
    for k in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def test_weight_class_reduction_matches_the_cube():
    # E on the orbits of f's weight classes against the exchange on the
    # cube (the singleton partition), within 1e-9, with the dual verified:
    # every +-1 function of the block counts for each partition of n <= 5
    # into consecutive blocks (8 seeded ones where there are more than 64),
    # then a seeded table of three blocks for each n = 6..9, at every d.
    rng = random.Random(5)
    tables = []
    for n in range(1, 6):
        for sizes in _partitions(n):
            orbits = math.prod(k + 1 for k in sizes)
            gs = (itertools.product((-1, 1), repeat=orbits) if orbits <= 6
                  else ([rng.choice((-1, 1)) for _ in range(orbits)]
                        for _ in range(8)))
            tables += [_block_table(_blocks(sizes), g) for g in gs]
    for sizes in ((3, 2, 1), (3, 2, 2), (4, 3, 1), (4, 3, 2)):
        blocks = _blocks(sizes)
        g = [rng.choice((-1, 1)) for _ in range(math.prod(k + 1
                                                          for k in sizes))]
        f = _block_table(blocks, g)
        assert weight_classes(f) == blocks
        tables.append(f)
    for f in tables:
        for d in range(f.n + 1):
            res = minimax_poly(f, d)
            error, certified = _exchange_error(f, d)
            assert res.meta["dual_verified"] and certified, (f.values, d)
            assert abs(res.error - error) <= 1e-9, (f.values, d)


def test_weight_class_reduction_certifies_on_the_cube():
    # A 10-variable table symmetric within {x1..x4}, {x5, x6}, {x7..x10}:
    # 75 orbits, where the cube has 1024 rows. At every d the orbit
    # solution, spread to every monomial and table index, attains its
    # error on the cube and its dual proves it there. At d = 6 the cube's
    # exchange (1024 x 848) agrees within 1e-9; at d = 5 it can run to
    # its step cap.
    rng = random.Random(2)
    blocks = _blocks((4, 2, 4))
    f = _block_table(blocks, [rng.choice((-1, 1)) for _ in range(75)])
    assert weight_classes(f) == blocks
    for d in range(11):
        res = minimax_poly(f, d)
        assert res.meta["dual_verified"]
        A, fv = _cube(f, d)
        c = np.array([res.num_coeffs[m] for m in monomials_upto_deg(10, d)])
        assert abs(np.max(np.abs(A @ c - fv)) - res.error) <= 1e-9, d
        assert dual_failures(res.dual_certificate, A, fv, res.error) == [], d
        if d == 6:
            assert approx_problem(f, d).A.shape == (75, 56)
            error, certified = _exchange_error(f, d)
            assert certified and abs(res.error - error) <= 1e-9


def test_exact_duals_certify_on_the_float_cube():
    # The float dual of every exact result, psi_|x| / C(n, |x|), passes the
    # float checks on the full cube design: MAJ_n, PARITY_n and seeded
    # symmetric profiles, n <= 8, at every degree.
    rng = random.Random(29)
    tables = [MAJ(n) for n in range(1, 9)] + [PARITY(n) for n in range(1, 9)]
    for n in range(1, 9):
        g = [rng.choice((-1, 1)) for _ in range(n + 1)]
        tables.append(_symmetric(g))
    for f in tables:
        for d in range(f.n + 1):
            res = minimax_poly(f, d)
            assert "exact" in res.meta
            A, fv = _cube(f, d)
            assert dual_failures(res.dual_certificate, A, fv,
                                 res.error) == [], (f.values, d)


def test_dual_failures_names_each_check_in_both_arithmetics():
    # A valid dual, then one condition broken at a time: exactly on MAJ_5's
    # binomial design at d = 2, to 1e-6 on OMB_4's cube design at d = 2.
    p = approx_problem(MAJ(5), 2)
    exact = minimax_poly(MAJ(5), 2).meta["exact"]
    exact = (p.A, p.f, _orbit_psi(p, exact), exact["error"], False)
    A, fv = _cube(OMB(4), 2)
    psi = minimax_exchange(A, fv)[1]
    floats = (A, fv, psi, float(psi @ fv), True)
    l1, orthogonal, value = ("sum |psi| > 1",
                             "psi A != 0: psi is not orthogonal to every "
                             "column", "psi . f != value")
    for A, fv, psi, error, within_1e_6 in (exact, floats):
        half_at_0 = psi * 0
        half_at_0[0] = Fraction(1, 2)  # sum |psi| 1/2, psi . f = f_0 / 2
        assert dual_failures(psi, A, fv, error) == []
        assert dual_failures(psi * 0, A, fv, 0) == []
        assert dual_failures(2 * psi, A, fv, 2 * error) == [l1]
        assert dual_failures(half_at_0, A, fv,
                             fv[0] * half_at_0[0]) == [orthogonal]
        assert dual_failures(psi, A, fv, error + Fraction(1, 8)) == [value]
        assert dual_failures(psi, A, fv, error + Fraction(1, 10 ** 7)) == (
            [] if within_1e_6 else [value])


def _same_solution(got, want, exact):
    """Asserts got == want item by item (a solution, or a dual (w,
    reference)): as Fractions on an exact design, else bit for bit as
    float64, and the reference None."""
    for g, w in zip(got, want, strict=True):
        if exact or w is None:
            assert (list(g) if np.ndim(g) else g) == (
                list(w) if np.ndim(w) else w)
        else:
            assert np.asarray(g, dtype=float).tobytes() == np.asarray(
                w, dtype=float).tobytes()
    assert not exact or isinstance(got[-2][0], Fraction)


def test_read_inverts_the_written_result():
    # Design.read of a written result, through its JSON text, gives back
    # the solve's (error, c, w, reference), and read_dual of a threshold
    # certificate the dual one degree lower: exactly on MAJ_6 (one class),
    # bit for bit on a 3-block table and a random 7-variable table, at
    # every degree and for both kinds.
    rng = random.Random(13)
    blocks = _blocks((2, 1, 3))
    tables = [MAJ(6), _block_table(blocks, [rng.choice((-1, 1))
                                            for _ in range(24)]),
              BooleanFunctionTable(7, [rng.choice((-1, 1))
                                       for _ in range(128)])]
    assert weight_classes(tables[1]) == blocks
    assert len(weight_classes(tables[2])) == 7

    def written(res):
        return json.loads(json.dumps(res.to_json_dict()))

    for f in tables:
        for d in range(f.n + 1):
            p = approx_problem(f, d)
            solution = p.solve()
            res, failed = p.result(*solution)
            assert failed == [], (f.n, d)
            _same_solution(p.read(written(res)), solution, p.exact)
        stored = written(threshold_degree(f))
        d0 = stored["d0"]
        p = approx_problem(f, d0)
        _same_solution(p.read(stored), p.solve(), p.exact)
        assert d0 >= 1
        q = approx_problem(f, d0 - 1)
        _same_solution(q.read_dual(stored["meta"]["certificate"]),
                       q.solve()[2:], q.exact)


def test_symmetric_tables_solve_on_weights(monkeypatch):
    rows = []

    def counting_linprog(*args, **kwargs):
        rows.append(len(kwargs["A_ub"]))
        return solve(*args, **kwargs)

    solve = approximation.linprog
    monkeypatch.setattr(approximation, "linprog", counting_linprog)
    res = minimax_poly(MAJ(12), 3)
    assert rows == []  # solved exactly by the exchange, no LP
    assert res.meta["exact"]["error"] == Fraction(27, 40)
    assert res.error == 0.675 and res.meta["dual_verified"]
    res = minimax_poly(OMB(5), 2)  # not symmetric: the float exchange
    assert rows == [] and res.meta["dual_verified"]
    assert abs(res.error - 0.4) < 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.sampled_from((-1, 1)), min_size=2 ** n,
                       max_size=2 ** n)))
def test_exchange_matches_the_highs_oracle(values):
    f = BooleanFunctionTable(int(math.log2(len(values))), values)
    for d in range(f.n):
        error, certified = _exchange_error(f, d)
        assert certified, d
        assert abs(error - _oracle_error(f, d)) <= 1e-7, d


def test_exchange_on_named_tables():
    n = 6
    single = [1] * 2 ** n
    single[37] = -1
    halfspace = BooleanFunctionTable.from_callable(
        n, lambda X: np.where(X @ [3, -2, 1, 0, 2, -1] > 1.5, 1, -1))
    for f in (BooleanFunctionTable(n, [1] * 2 ** n),
              BooleanFunctionTable(n, single), halfspace):
        for d in range(n):
            error, certified = _exchange_error(f, d)
            assert certified and abs(error - _oracle_error(f, d)) <= 1e-7
    assert _exchange_error(BooleanFunctionTable(n, [1] * 2 ** n), 0) == \
        (0.0, True)
    for m in range(1, 7):  # E(PARITY_m, d) = 1 below degree m, 0 at m
        for d in range(m):
            error, certified = _exchange_error(PARITY(m), d)
            assert certified and abs(error - 1) <= 1e-9
        error, certified = _exchange_error(PARITY(m), m)
        assert certified and error <= 1e-9
    A, fv = _cube(OMB(4), 4)  # square: solved directly
    c, psi, ref, sigma = minimax_exchange(A, fv)
    assert np.max(np.abs(A @ c - fv)) <= 1e-12 and not np.any(psi)
    assert len(ref) == len(sigma) == 0


def test_exchange_returns_its_reference_on_a_degenerate_table():
    # A random 6-variable table at d = 3: several reference rows carry
    # |psi| below 1e-15, so signs read back from psi would disagree with
    # sigma; the returned sigma levels the residual on every one.
    rng = random.Random(0)
    f = BooleanFunctionTable(6, [rng.choice((1, -1)) for _ in range(64)])
    A, fv = _cube(f, 3)
    c, psi, ref, sigma = minimax_exchange(A, fv)
    assert _reference_failures(A, fv, c, psi, ref, sigma) == []
    assert np.min(np.abs(psi[ref])) < 1e-15
    assert np.any(np.where(psi[ref] < 0, -1, 1) != sigma)
    error = float(np.max(np.abs(A @ c - fv)))
    assert dual_failures(psi, A, fv, error) == []
    assert abs(error - _oracle_error(f, 3)) <= 1e-7


def test_exchange_rejects_a_repeated_column():
    # The least-squares start solves A^T A, which is singular here; the
    # exchange still raises _pivot_rows' ValueError, not LinAlgError.
    A, fv = _cube(OMB(4), 2)
    with pytest.raises(ValueError, match="dependent columns") as info:
        minimax_exchange(np.column_stack([A, A[:, 1]]), fv)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_exchange_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(approximation, "EXCHANGE_CAP", 0)
    A, fv = _cube(OMB(5), 2)
    with pytest.raises(approximation.NoConvergence):
        minimax_exchange(A, fv)


def test_design_cap_bounds_the_matrix():
    # The cap bounds the orbit design. MAJ_12 without its symmetry at
    # degree 3 is the cube's 4096 x 299, and at degree 5, 4096 x 1586 is
    # over the cap; with it, MAJ_12 is 13 x 6 at degree 5.
    assert approx_problem(MAJ(12), 3, _singletons(12)).A.shape == (4096, 299)
    assert approx_problem(MAJ(12), 5).A.shape == (13, 6)
    with pytest.raises(TooLarge):
        approx_problem(PARITY(12), 5, _singletons(12))
    with pytest.raises(TooLarge):
        minimax_poly(OMB(12), 5)
    assert minimax_poly(MAJ(12), 5).meta["dual_verified"]


def test_exact_multilinear_parity():
    par = PARITY(3)
    poly = _exact_multilinear(par)
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
    assert threshold_degree(MAJ(3)).d0 == 1
    for n in range(1, 5):
        rep = threshold_degree(PARITY(n))
        assert rep.d0 == n
        cert = rep.meta["certificate"]  # exact: parity is symmetric
        assert cert["degree"] == n - 1 and len(cert["reference"]) == n + 1
    rep = threshold_degree(OMB(4))
    assert rep.d0 == 1  # it is a halfspace
    assert rep.meta["margin"] > 0 and rep.error < 1
    rep = threshold_degree(BooleanFunctionTable(2, [1] * 4))
    assert (rep.d0, rep.error, rep.meta["margin"]) == (0, 0.0, 1.0)
    assert rep.meta["certificate"] is None


def test_threshold_degree_certificates():
    # Non-symmetric tables: the witness at d0 sign-represents f, and the
    # dual at d0 - 1 is a Gordan certificate (l1 1, orthogonal, psi.f = 1).
    rng = random.Random(3)
    for n in (3, 5, 7):
        f = BooleanFunctionTable(
            n, [rng.choice((-1, 1)) for _ in range(2 ** n)])
        assert len(weight_classes(f)) > 1
        rep = threshold_degree(f)
        A, fv = _cube(f, rep.d0)
        p = A @ np.array([rep.num_coeffs[m]
                          for m in monomials_upto_deg(f.n, rep.d0)])
        assert np.min(fv * p) == rep.meta["margin"] > 0
        assert abs(np.max(np.abs(p - fv)) - rep.error) < 1e-12
        cert = rep.meta["certificate"]
        assert cert["degree"] == rep.d0 - 1
        A, fv = _cube(f, rep.d0 - 1)
        assert dual_failures(np.array(cert["psi"]), A, fv, 1.0) == []
        assert _oracle_error(f, rep.d0 - 1) > 1 - 1e-9


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
    p = _exact_multilinear(maj)
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
