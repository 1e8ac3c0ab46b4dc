import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lowdisc import approximation
from lowdisc.approximation import (MAJ, OMB, PARITY, BooleanFunctionTable,
                                   DenominatorVanishes, ErrorBudgetExceeded,
                                   NoConvergence, RationalApproximant,
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
    """f's monomial design on the cube and its values."""
    p = approx_problem(f, d, _singletons(f.n))
    return p.A, p.f


def solve_exact(M, b):
    """The oracle: the unique x with M x = b, in Fraction arithmetic, when
    the R x N matrix M has full column rank N and the system is
    consistent; None otherwise. Gauss-Jordan elimination on the augmented
    rows (M | b)."""
    rows = [[Fraction(v) for v in row] + [Fraction(bi)]
            for row, bi in zip(M, b)]
    N = len(M[0])
    for col in range(N):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        top = [v / rows[col][col] for v in rows[col]]
        rows[col] = top
        for i, row in enumerate(rows):
            if i != col and row[col]:
                rows[i] = [a - row[col] * t for a, t in zip(row, top)]
    if any(row[N] for row in rows[N:]):
        return None
    return [row[N] for row in rows[:N]]


def _int_product(A, c):
    """The oracle's A @ c for a matrix A of integers and rationals c: (A C,
    q) as Python ints, C = c q over the least common denominator q, by
    one object-array product."""
    q = math.lcm(*(Fraction(x).denominator for x in c))
    C = np.array([int(Fraction(x) * q) for x in c], dtype=object)
    return A.astype(np.int64).astype(object) @ C, q


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


def _reference_failures(A, fv, c, ref, sigma, error):
    """The failed checks of the reference and signs minimax_exchange
    returns, with the exact coefficients c that exact_finish solves on
    them: N + 1 distinct rows in ascending order, one sign each, and
    sigma_i (f - A c)_i = error on each, exactly."""
    N = A.shape[1]
    if len(A) == N:
        return [] if len(ref) == len(sigma) == 0 else ["square: a reference"]
    failed = []
    if len(ref) != N + 1 or not np.all(np.diff(ref) > 0):
        failed.append("reference is not N + 1 ascending rows")
    if len(sigma) != N + 1 or not np.all(np.abs(sigma) == 1):
        failed.append("sigma is not one sign per reference row")
    Ac, q = _int_product(A[ref], c)
    if any(int(s) * (int(v) * q - a) != error * q
           for s, v, a in zip(sigma, fv[ref], Ac)):
        failed.append("residual not levelled to sigma_i E on the reference")
    return failed


def _exchange_error(f, d):
    """(error, certified): the exchange and its exact finish on f's cube
    design at degree d: the exact error, and whether the finish's dual
    certifies it and its reference and signs pass _reference_failures."""
    A, fv = _cube(f, d)
    ref, sigma = minimax_exchange(A, fv)
    error, c, _, psi = exact_finish(A, fv, ref, sigma)
    return error, not (dual_failures(A, fv, list(ref), psi, error)
                       or _reference_failures(A, fv, c, ref, sigma, error))


def _oracle_error(f, d):
    A, fv = _cube(f, d)
    return float(np.max(np.abs(A @ _minimax_lp(A, fv) - fv)))


def _cube_failures(f, d, exact):
    """The failed exact checks, on f's cube design at degree d, of the
    exact block of f's orbit design spread to the cube: c_j at every
    monomial of column j, and psi_o / |o| at every index of orbit o."""
    p = approx_problem(f, d)
    A, fv = _cube(f, d)
    rows, psi = [], []
    for o, w in zip(exact["reference"], exact["psi"]):
        members = np.flatnonzero(p.orbit == o).tolist()
        rows += members
        psi += [Fraction(w) / len(members)] * len(members)
    failed = dual_failures(A, fv, rows, psi, exact["error"])
    Ac, q = _int_product(A, [exact["coeffs"][j] for j in p.col])
    if max(abs(int(v) * q - a) for v, a in zip(fv, Ac)) != exact["error"] * q:
        failed.append("max |f - A c| != error on the cube")
    return failed


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
        assert p.A.dtype == p.f.dtype == np.float64
        for o, x in enumerate(p.first):  # an orbit's first index and size
            members = np.flatnonzero(p.orbit == o)
            assert members[0] == x and p.sizes[o] == len(members)
            counts = {tuple(sum(points[y][i] for i in b) for b in blocks)
                      for y in members}
            assert len(counts) == 1
    p = approx_problem(MAJ(5), 2, _singletons(5))
    assert p.A.shape == (32, 16)
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
    """The failed exact checks of minimax_poly(f, d) on f's orbit design:
    the stored dual proves the exact error, and the coefficients attain
    it."""
    res = minimax_poly(f, d)
    exact = res.meta["exact"]
    p = approx_problem(f, d)
    failed = dual_failures(p.A, p.f, exact["reference"], exact["psi"],
                           exact["error"])
    Ac, q = _int_product(p.A, exact["coeffs"])
    if max(abs(int(v) * q - a) for v, a in zip(p.f, Ac)) != exact["error"] * q:
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
    # two checks refuses a reference that is not, on a binomial design and
    # on OMB_4's cube design.
    for f, d, error in ((MAJ(5), 0, 1), (MAJ(2), 1, Fraction(1, 2)),
                        (OMB(4), 1, Fraction(4, 5))):
        p = approx_problem(f, d)
        A, gv = p.A, p.f
        ref, sigma = minimax_exchange(A, gv)
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
    # OMB_4 at degree 1, 16 x 5: rows 0-4 and 8 with these signs give a
    # dual with a weight of the wrong sign.
    p = approx_problem(OMB(4), 1)
    with pytest.raises(NoConvergence, match="wrong sign"):
        exact_finish(p.A, p.f, [0, 1, 2, 3, 4, 8],
                     np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0]))
    # A repeated reference row: M is singular.
    with pytest.raises(NoConvergence, match="singular"):
        exact_finish(p.A, p.f, [0, 0, 1, 2, 3, 4], np.ones(6))


def test_solve_exact_unique_or_none():
    # The oracle. Square, then consistent with more rows than columns: the
    # unique x, exactly; a dependent column, an inconsistent row or too few
    # rows: None.
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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-99, 99), min_size=n * n, max_size=n * n),
    st.lists(st.integers(-99, 99), min_size=n, max_size=n))))
def test_lifting_matches_the_fraction_oracle(system):
    # Nonsingular integer systems up to N = 40: numeric lifting on one
    # float inverse gives the oracle's solution, over one denominator.
    entries, b = system
    N = len(b)
    want = solve_exact([entries[i * N:(i + 1) * N] for i in range(N)], b)
    assume(want is not None)
    M = np.array(entries, dtype=float).reshape(N, N)
    x, q = approximation._lift(M, np.linalg.inv(M), np.array(b))
    assert q > 0 and [Fraction(v, q) for v in x] == want


def test_exact_product_is_the_object_product():
    # Rationals far beyond int64, of both signs, through int64 limbs.
    rng = random.Random(4)
    A = np.array([[rng.randrange(-2 ** 16, 2 ** 16) for _ in range(30)]
                  for _ in range(20)], dtype=float)
    x = [rng.randrange(-2 ** 200, 2 ** 200) for _ in range(30)] + [-1, 0]
    A = np.column_stack([A, np.ones((20, 2))])
    got = approximation._exact_product(A, x)
    assert got.tolist() == _int_product(A, x)[0].tolist()


def test_lifting_refuses_a_singular_matrix_and_a_guard_breach():
    # Row 3 is row 1 + row 2, but the float LU leaves a rounded pivot where
    # the exact one is 0, so inv exists, with entries near 1e15.
    M = np.array([[7, 3, 1], [5, 2, 4], [12, 5, 5]], dtype=float)
    with pytest.raises(NoConvergence, match="ill-conditioned"):
        approximation._lift(M, np.linalg.inv(M), np.array([1, 2, 3]))
    # x = 2^62 needs |z| beyond 2^(g+2) = 2^61 in the first step.
    one = np.ones((1, 1))
    with pytest.raises(NoConvergence, match="int64 guard"):
        approximation._lift(one, one, np.array([2 ** 62]))
    x, q = approximation._lift(one, one, np.array([2 ** 40]))
    assert Fraction(x[0], q) == 2 ** 40


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
            Ac, q = _int_product(A, coeffs)
            assert max(abs(int(v) * q - a) for v, a in zip(gv, Ac)) == \
                error * q
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
    # cube (the singleton partition), exactly, with both certified:
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
            assert _exact_failures(f, d) == [], (f.values, d)
            error, certified = _exchange_error(f, d)
            assert certified, (f.values, d)
            assert minimax_poly(f, d).meta["exact"]["error"] == error


def test_weight_class_reduction_certifies_on_the_cube():
    # A 10-variable table symmetric within {x1..x4}, {x5, x6}, {x7..x10}:
    # 75 orbits, where the cube has 1024 rows. At every d the exact orbit
    # solution, spread to every monomial and table index, attains its
    # error on the cube and its dual proves it there, and the floats are
    # the spread exact values. At d = 6 the cube's exchange (1024 x 848)
    # gives the same error; at d = 5 it can run to its step cap.
    rng = random.Random(2)
    blocks = _blocks((4, 2, 4))
    f = _block_table(blocks, [rng.choice((-1, 1)) for _ in range(75)])
    assert weight_classes(f) == blocks
    for d in range(11):
        res = minimax_poly(f, d)
        exact = res.meta["exact"]
        assert res.meta["dual_verified"]
        assert _cube_failures(f, d, exact) == [], d
        p = approx_problem(f, d)
        assert [res.num_coeffs[m] for m in monomials_upto_deg(10, d)] == [
            float(exact["coeffs"][j]) for j in p.col]
        if d == 6:
            assert p.A.shape == (75, 56)
            error, certified = _exchange_error(f, d)
            assert certified and error == exact["error"]


def test_exact_duals_certify_on_the_float_cube():
    # Every table's exact result, spread from its orbit design to the
    # cube, passes the exact checks on the full cube design, and its float
    # dual is the float of each spread weight psi_o / |o|: MAJ_n, PARITY_n,
    # seeded symmetric profiles and seeded tables of no symmetric pair,
    # n <= 8, at every degree.
    rng = random.Random(29)
    tables = [MAJ(n) for n in range(1, 9)] + [PARITY(n) for n in range(1, 9)]
    for n in range(1, 9):
        g = [rng.choice((-1, 1)) for _ in range(n + 1)]
        tables.append(_symmetric(g))
        tables.append(BooleanFunctionTable(n, [rng.choice((-1, 1))
                                               for _ in range(2 ** n)]))
    for f in tables:
        for d in range(f.n + 1):
            res = minimax_poly(f, d)
            exact = res.meta["exact"]
            assert _cube_failures(f, d, exact) == [], (f.values, d)
            p = approx_problem(f, d)
            w = {o: float(Fraction(v) / int(p.sizes[o]))
                 for o, v in zip(exact["reference"], exact["psi"])}
            assert list(res.dual_certificate) == [w.get(o, 0.0)
                                                  for o in p.orbit]


def test_dual_failures_names_each_check():
    # A valid dual, then one condition broken at a time, exactly: on
    # MAJ_5's binomial design and on OMB_4's cube design, at d = 2.
    l1, orthogonal, value = ("sum |psi| > 1",
                             "psi A != 0: psi is not orthogonal to every "
                             "column", "psi . f != value")
    for f in (MAJ(5), OMB(4)):
        p = approx_problem(f, 2)
        exact = minimax_poly(f, 2).meta["exact"]
        A, fv, ref, psi, error = (p.A, p.f, exact["reference"], exact["psi"],
                                  exact["error"])
        assert len(weight_classes(f)) == (1 if f.n == 5 else 4)
        assert dual_failures(A, fv, ref, psi, error) == []
        assert dual_failures(A, fv, ref, [0 * v for v in psi], 0) == []
        assert dual_failures(A, fv, ref, [2 * v for v in psi],
                             2 * error) == [l1]
        assert dual_failures(A, fv, [0], [Fraction(1, 2)],
                             Fraction(int(fv[0]), 2)) == [orthogonal]
        assert dual_failures(A, fv, ref, psi,
                             error + Fraction(1, 8)) == [value]
        assert dual_failures(A, fv, ref, psi,
                             error + Fraction(1, 10 ** 30)) == [value]


def test_read_inverts_the_written_result():
    # Design.read of a written result, through its JSON text, gives back
    # the solve's exact (error, c, ref, psi), and read_dual of a threshold
    # certificate the dual one degree lower: on MAJ_6 (one class), a
    # 3-block table and a random 7-variable table, at every degree and for
    # both kinds.
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
            assert p.read(written(res)) == solution
            assert all(type(x) is Fraction for x in solution[1])
        stored = written(threshold_degree(f))
        d0 = stored["d0"]
        p = approx_problem(f, d0)
        assert p.read(stored) == p.solve()
        assert d0 >= 1
        q = approx_problem(f, d0 - 1)
        assert q.read_dual(stored["meta"]["certificate"]) == q.solve()[2:]


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
    res = minimax_poly(OMB(5), 2)  # not symmetric: the cube design
    assert rows == [] and res.meta["dual_verified"]
    assert res.meta["exact"]["error"] == Fraction(2, 5)


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
        (0, True)
    for m in range(1, 7):  # E(PARITY_m, d) = 1 below degree m, 0 at m
        for d in range(m):
            assert _exchange_error(PARITY(m), d) == (1, True)
        assert _exchange_error(PARITY(m), m) == (0, True)
    A, fv = _cube(OMB(4), 4)  # square: interpolated exactly
    ref, sigma = minimax_exchange(A, fv)
    assert len(ref) == len(sigma) == 0
    error, c, ref, psi = exact_finish(A, fv, ref, sigma)
    Ac, q = _int_product(A, c)
    assert error == 0 and ref == psi == [] and list(Ac) == list(fv * q)


def test_exchange_returns_its_reference_on_a_degenerate_table():
    # A random 6-variable table at d = 3: the exact dual is 0 on 23 of the
    # 43 reference rows, so signs cannot be read back from psi; the
    # returned sigma levels the residual on every one.
    rng = random.Random(0)
    f = BooleanFunctionTable(6, [rng.choice((1, -1)) for _ in range(64)])
    A, fv = _cube(f, 3)
    ref, sigma = minimax_exchange(A, fv)
    error, c, _, psi = exact_finish(A, fv, ref, sigma)
    assert _reference_failures(A, fv, c, ref, sigma, error) == []
    assert sum(v == 0 for v in psi) == 23
    assert dual_failures(A, fv, list(ref), psi, error) == []
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
        assert minimax_poly(f, n).meta["exact"]["error"] == 0


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
    # Non-symmetric tables: the witness at d0 sign-represents f with the
    # exact margin, and the dual at d0 - 1 is a Gordan certificate (l1 1,
    # orthogonal, psi.f = 1), spread to the cube and checked there.
    rng = random.Random(3)
    for n in (3, 5, 7):
        f = BooleanFunctionTable(
            n, [rng.choice((-1, 1)) for _ in range(2 ** n)])
        assert len(weight_classes(f)) > 1
        rep = threshold_degree(f)
        exact = rep.meta["exact"]
        p = approx_problem(f, rep.d0)
        A, fv = _cube(f, rep.d0)
        Ac, q = _int_product(A, [exact["coeffs"][j] for j in p.col])
        margin = Fraction(min(int(v) * a for v, a in zip(fv, Ac)), q)
        assert margin == exact["margin"] > 0
        assert rep.meta["margin"] == float(margin)
        assert _cube_failures(f, rep.d0, exact) == []
        cert = rep.meta["certificate"]
        assert cert["degree"] == rep.d0 - 1
        zero = [0] * len(approx_problem(f, rep.d0 - 1).lead)  # error 1
        assert _cube_failures(f, rep.d0 - 1,
                              {**cert, "error": 1, "coeffs": zero}) == []
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


def _falling_factorial_coeffs(j):
    """Coefficients (ascending, exact ints) of t(t-1)...(t-j+1)."""
    coeffs = [1]
    for i in range(j):
        coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _sym_in_t(prod_poly, n, ny):
    """The dict-product symmetrization univariatize once ran: a MultiPoly
    symmetrized over the y-block (vars n..n+ny-1), as {x-monomial
    frozenset: ascending t-coefficient list}. A y-monomial of size j
    averages to FF(t, j) / FF(ny, j) at block weight t, and the falling
    factorial extends it to arbitrary integer t."""
    out = {}
    for mono, c in prod_poly.terms.items():
        A = frozenset(i for i in mono if i < n)
        j = len(mono) - len(A)
        add = [Fraction(c) * fc / math.perm(ny, j)
               for fc in _falling_factorial_coeffs(j)]
        old = out.get(A, [])
        out[A] = [(old[i] if i < len(old) else 0) + (add[i] if i < len(add)
                                                     else 0)
                  for i in range(max(len(old), len(add)))]
    return out


def _sym_eval(sym, x, t):
    """Evaluate a _sym_in_t result at Boolean x and exact rational t."""
    return sum((poly_eval(tc, t) for A, tc in sym.items()
                if all(x[i] for i in A)), Fraction(0))


def _oracle_expectations(p, q, Z, foolers):
    """The expectations of p^2, q^2 and pq, y-symmetrized, under mu_s at
    t = (w.x - s)/m for s = -m-1..m-1, by dict products of p and q with
    their coefficients converted to Fractions, so that every product is
    exact, and by _sym_in_t, point by point over each class."""
    exact = [MultiPoly({mono: Fraction(c) for mono, c in r.terms.items()})
             for r in (p, q)]
    p, q = exact
    n, m = Z.cardinality, Z.m
    syms = {"p2": _sym_in_t(p * p, n, n), "q2": _sym_in_t(q * q, n, n),
            "r2": _sym_in_t(p * q, n, n)}
    w = [z % m for z in Z.elements]
    vals = {key: [] for key in syms}
    for s in range(-m - 1, m):
        acc = dict.fromkeys(syms, Fraction(0))
        for x, wt in zip(foolers.classes[s % m], foolers.weights[s % m]):
            t = Fraction(sum(wi * xi for wi, xi in zip(w, x)) - s, m)
            assert t.denominator == 1
            for key, sym in syms.items():
                acc[key] += Fraction(wt) * _sym_eval(sym, x, t)
        for key in syms:
            vals[key].append(acc[key])
    return vals


def _newman_master(k, N, d):
    """(Z, p, q): Newman's (N, d) sign approximant composed with the scaled
    form 2 sum x - 4 sum y + 1 of the master halfspace of k 1s mod 2."""
    Z = IntegerMultiset([1] * k, 2)
    L = MultiPoly.linear([2] * k + [-4] * k, const=1)
    h = build_master_halfspace(Z)
    assert all(L.evaluate(x) == h.scaled_form(x)
               for x in all_points(2 * k).tolist())
    r, _ = newman_rational_sign(N, d)

    def compose(coeffs):
        out, power = MultiPoly.constant(0.0), MultiPoly.constant(1.0)
        for c in coeffs:
            if c:
                out = out + power.scale(float(c))
            power = power * L
        return out

    return Z, compose(r.num), compose(r.den)


def _expectations_of(p, q, Z, foolers):
    """approximation._expectations on p and q's values, as univariatize
    calls it."""
    n, m = Z.cardinality, Z.m
    w = np.array([z % m for z in Z.elements], dtype=np.int64)
    return approximation._expectations(
        p.scaled_values(2 * n), q.scaled_values(2 * n), w, foolers,
        list(range(-m - 1, m)))


def test_expectations_equal_the_dict_product_oracle():
    # Criterion 12's instance, and a random 8-variable approximant that is
    # not symmetric within either block: the values route equals the exact
    # dict-product symmetrization, Fraction for Fraction.
    Z, p, q = _newman_master(4, 15, 5)
    fool = fooling_distributions(Z, 3)
    assert _expectations_of(p, q, Z, fool) == _oracle_expectations(
        p, q, Z, fool)
    rng = random.Random(32)
    monos = monomials_upto_deg(8, 2)
    p, q = (MultiPoly({frozenset(mono): rng.uniform(-1, 1) for mono in monos})
            for _ in range(2))
    assert len(weight_classes(BooleanFunctionTable.from_callable(
        8, lambda X: np.where(p.scaled_values(8)[0] > 0, 1, -1)))) == 8
    assert _expectations_of(p, q, Z, fool) == _oracle_expectations(
        p, q, Z, fool)
    # t = (w.x - s)/m stays within the block weights 0..n unless n = 1:
    # one element of 1 mod 2 reaches t = 2 (x = 1, s = -3), where only the
    # interpolant's extension gives the value.
    one = IntegerMultiset([1], 2)
    p, q = (MultiPoly({mono: rng.uniform(-1, 1)
                       for mono in map(frozenset, monomials_upto_deg(2, 2))})
            for _ in range(2))
    fool = fooling_distributions(one, 0)
    assert _expectations_of(p, q, one, fool) == _oracle_expectations(
        p, q, one, fool)


def test_univariatize_output_error_is_within_the_input_error():
    # Exact arithmetic: criterion 12's output error is below its input
    # error with no slack, and both are the exact maxima as floats.
    Z, p, q = _newman_master(4, 15, 5)
    res = univariatize(p, q, Z, fooling_distributions(Z, 3),
                       check_budget=False)
    assert res["output_error"] <= res["input_error"]
    f = build_master_halfspace(Z).to_table()
    assert res["input_error"] == float(
        RationalApproximant(f, p, q, None).verify())


def test_univariatize_at_the_table_cap():
    # 16 variables, the table cap: eight 1s mod 2, Newman (31, 3) (odd
    # numerator of degree 3, even denominator of degree 2), foolers of
    # degree 6 = 2 max(d0, d1), so the moment budget is checked.
    Z, p, q = _newman_master(8, 31, 3)
    res = univariatize(p, q, Z, fooling_distributions(Z, 6))
    assert res["degree_bounds"] == (6, 4, 5)
    assert res["output_error"] <= res["input_error"] < 1
    assert res["fit_residual"] <= 1e-9
    nine = IntegerMultiset([1] * 9, 2)
    with pytest.raises(TooLarge):  # 18 variables
        univariatize(p, q, nine, fooling_distributions(nine, 0))


def test_univariatize_refuses_a_fooling_family_of_another_set():
    # The family of Z' = {1,1,1,0} mod 2 puts points of the wrong residue
    # of Z = {1,1,1,1} in each class; it is refused before any arithmetic.
    Z, p, q = _newman_master(4, 15, 5)
    wrong = fooling_distributions(IntegerMultiset([1, 1, 1, 0], 2), 2)
    with pytest.raises(ValueError, match="not a fooling family"):
        univariatize(p, q, Z, wrong, check_budget=False)
    other_m = fooling_distributions(IntegerMultiset([1, 1, 1, 1], 3), 1)
    with pytest.raises(ValueError, match="not a fooling family"):
        univariatize(p, q, Z, other_m, check_budget=False)


def _terms(draw, N, coefficient):
    monos = st.frozensets(st.integers(0, N - 1)) if N else st.just(frozenset())
    return draw(st.dictionaries(monos, coefficient, max_size=12))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_values_are_the_exact_term_by_term_evaluation(data):
    N = data.draw(st.integers(0, 8))
    coefficient = data.draw(st.sampled_from([
        st.integers(-10 ** 20, 10 ** 20),
        st.fractions(max_denominator=10 ** 6),
        st.floats(allow_nan=False, allow_infinity=False)]))
    p = MultiPoly(_terms(data.draw, N, coefficient))
    vals, den = p.scaled_values(N)
    assert vals.shape == (2 ** N,) and type(den) is int and den > 0
    for x, v in zip(all_points(N).tolist(), vals):
        assert type(v) is int
        assert Fraction(v, den) == sum((Fraction(c) for mono, c in
                                        p.terms.items()
                                        if all(x[i] for i in mono)),
                                       Fraction(0))


def test_values_refuse_a_variable_outside_the_cube():
    vals, den = MultiPoly.linear([0, 0, 3]).scaled_values(3)
    assert (vals.tolist(), den) == ([0, 0, 0, 0, 3, 3, 3, 3], 1)
    with pytest.raises(ValueError):
        MultiPoly.linear([0, 0, 3]).scaled_values(2)


def test_verify_is_exact_and_names_a_vanishing_denominator():
    maj = MAJ(3)
    p = MultiPoly.constant(0.1)
    q = MultiPoly.linear([1, 1, 1], const=1)
    err = RationalApproximant(maj, p, q, None).verify()
    assert err == max(abs(maj(x) - Fraction(0.1) / (1 + sum(x)))
                      for x in maj.domain())
    assert isinstance(err, Fraction)
    q0 = MultiPoly.linear([1, -1, 0])
    with pytest.raises(DenominatorVanishes, match=r"q\(\(0, 0, 0\)\)"):
        RationalApproximant(maj, p, q0, None).verify()


def test_beigel_checks_the_table_cap_first():
    # 9 + 9 variables exceed the table cap: TooLarge before either
    # approximant is verified (their errors 1.1 + 1.1 would be refused).
    r = RationalApproximant(MAJ(9), MultiPoly.constant(0.1),
                            MultiPoly.constant(1), None)
    with pytest.raises(TooLarge):
        beigel_signrep(r, r)


def test_sign_grid_covers_integers():
    g = sign_grid(10)
    for t in range(1, 11):
        assert float(t) in g and float(-t) in g
