"""Minimax polynomial/rational approximation, threshold degree and density,
sign-representation composition, and the univariatization pipeline.

Polynomial minimax and threshold degree run no LP: both solve
E(f, d) = min_c max |A c - f| on approx_problem's design by one
exchange, minimax_exchange, in float64. A symmetric table's design is
exact (its binomial design on t = 0..n), and exact_finish solves the
exchange's final reference once more in Fraction arithmetic and proves
it optimal; every other table keeps the float solution on the cube.
Threshold degree is the least d with E(f, d) < 1. One checker,
dual_failures, verifies a dual on either design, exactly or to 1e-6,
here and in `verify`. scipy's HiGHS-backed linprog, imported on first
use, serves threshold density and differential correction (and
distribution's fooling families). Sign witnesses are evaluated
exhaustively, and rational errors are recomputed pointwise.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .numeric_core import solve_exact
from .polynomials import (MultiPoly, all_points, falling_factorial_coeffs,
                          monomials_upto_deg, poly_eval, poly_mul)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use: importing scipy's
    optimizer costs about half a second, which only LP callers pay."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


class TooLarge(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


class ErrorBudgetExceeded(ValueError):
    pass


class DenominatorVanishes(ValueError):
    pass


class LowerBoundOnly(RuntimeError):
    def __init__(self, cap):
        super().__init__(f"density search truncated at family size {cap}")
        self.cap = cap


# --- Boolean function tables -------------------------------------------------

def _check_table_size(n):
    if n > 16:
        raise TooLarge("n <= 16 for tables")


class BooleanFunctionTable:
    """f: {0,1}^n -> {-1,+1} as a table. Index i encodes the input
    little-endian: bit j of i is x_{j+1}."""

    def __init__(self, n, values):
        _check_table_size(n)
        if len(values) != 2 ** n:
            raise ValueError("table length must be 2^n")
        if any(v not in (-1, 1) for v in values):
            raise ValueError("values must be +-1")
        self.n = n
        self.values = tuple(values)

    @classmethod
    def from_callable(cls, n, fn):
        _check_table_size(n)  # before the 2^n calls of fn
        return cls(n, [fn(x) for x in all_points(n)])

    def __call__(self, x):
        idx = sum(b << j for j, b in enumerate(x))
        return self.values[idx]

    def domain(self):
        return all_points(self.n)

    @classmethod
    def from_text(cls, text):
        """One +-1 per line, index = binary input (little-endian bit 1 = x_1)."""
        vals = [int(line) for line in text.split() if line.strip()]
        return cls(int(math.log2(len(vals))), vals)


def MAJ(n):
    """Majority, -1 on inputs with more than n/2 ones (the sign form
    -sign(sum x - n/2 - 1/4))."""
    return BooleanFunctionTable.from_callable(
        n, lambda x: -1 if sum(x) > n / 2 + 0.25 else 1)


def PARITY(n):
    return BooleanFunctionTable.from_callable(
        n, lambda x: -1 if sum(x) % 2 else 1)


def OMB(n):
    """Odd-max-bit: sign(1 + sum_i (-2)^i x_i)."""
    return BooleanFunctionTable.from_callable(
        n, lambda x: 1 if 1 + sum((-2) ** (i + 1) * b for i, b in enumerate(x)) > 0
        else -1)


BUILTINS = {"MAJ": MAJ, "PARITY": PARITY, "OMB": OMB}


def builtin_table(name):
    """Parse names like MAJ_3, PARITY_6, OMB_4."""
    fam, _, num = name.partition("_")
    if fam not in BUILTINS or not num.isdigit():
        raise ValueError(f"unknown builtin {name!r}")
    return BUILTINS[fam](int(num))


# --- results ------------------------------------------------------------------

class ApproxResult:
    def __init__(self, d0, d1, error, num_coeffs, den_coeffs=None,
                 dual_certificate=None, converged=True, meta=None):
        self.d0 = d0
        self.d1 = d1
        self.error = error
        # monomial-basis coefficients (multivariate: dict)
        self.num_coeffs = num_coeffs
        self.den_coeffs = den_coeffs
        self.dual_certificate = dual_certificate
        self.converged = converged
        self.meta = {} if meta is None else meta

    def to_json_dict(self):
        def enc(c):
            if isinstance(c, dict):
                return {",".join(map(str, sorted(k))): float(v)
                        for k, v in c.items()}
            if c is None:
                return None
            return [float(v) for v in c]
        return {
            "schema": "lowdisc.approx_result/1",
            "d0": self.d0, "d1": self.d1, "error": self.error,
            "num_coeffs": enc(self.num_coeffs),
            "den_coeffs": enc(self.den_coeffs),
            "dual_certificate": (None if self.dual_certificate is None
                                 else [float(v) for v in self.dual_certificate]),
            "converged": self.converged,
            "meta": {k: _enc_meta(v) for k, v in self.meta.items()},
        }


def _enc_meta(v):
    """JSON form of a meta value: a Fraction as {"num", "den"} decimal
    strings, an int beyond 2^53 as a string, containers elementwise."""
    if isinstance(v, Fraction):
        return {"num": str(v.numerator), "den": str(v.denominator)}
    if isinstance(v, dict):
        return {k: _enc_meta(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_enc_meta(x) for x in v]
    return str(v) if isinstance(v, int) and abs(v) > 2**53 else v


class SignRepresentation:
    def __init__(self, degree, poly, margin):
        self.degree = degree
        self.poly = poly  # MultiPoly or coefficient dict
        self.margin = margin


# --- minimax polynomial approximation ----------------------------------------

# Cap on the entries of the 2^n x C(n, <= d) monomial design matrix, checked
# before it is built: 2^22 float64 entries take 32 MB, and minimax_exchange
# briefly holds one more matrix of that size (its pivoting copy, then the
# initial edge norms). MAJ_12 at degree 3 (4096 x 299) fits.
DESIGN_CAP = 1 << 22


def _design_matrix(points, monos):
    """A[i, j] = prod_{k in monos[j]} points[i][k]: each column is the
    product of the point matrix's columns, multiplied in monomial order."""
    X = np.array(points, dtype=float).reshape(len(points), -1)
    A = np.ones((len(points), len(monos)))
    for j, mono in enumerate(monos):
        for k in mono:
            A[:, j] *= X[:, k]
    return A


# A pivot of _pivot_rows is at least this fraction of its column's largest
# entry: the growth stays bounded while the start follows f.
PIVOT_THRESHOLD = 0.1


def _pivot_rows(A, rank):
    """Indices of N rows of the R x N matrix A that form a nonsingular
    N x N submatrix: the pivot rows of Gaussian elimination with threshold
    partial pivoting, which takes in each column, of the rows within
    PIVOT_THRESHOLD of its largest entry, the one of highest rank[i].
    Blocked, so that each block of 32 columns updates the rest with one
    matrix product."""
    block = 32
    B = np.array(A, dtype=float)
    R, N = B.shape
    perm = np.arange(R)
    for k0 in range(0, N, block):
        k1 = min(k0 + block, N)
        for k in range(k0, k1):
            col = np.abs(B[k:, k])
            top = col.max()
            if top < 1e-9:
                raise ValueError("design matrix has dependent columns")
            i = k + int(np.argmax(np.where(col >= PIVOT_THRESHOLD * top,
                                           rank[perm[k:]], -np.inf)))
            B[[k, i]] = B[[i, k]]
            perm[[k, i]] = perm[[i, k]]
            B[k + 1:, k] /= B[k, k]
            B[k + 1:, k + 1:k1] -= np.outer(B[k + 1:, k], B[k, k + 1:k1])
        if k1 < N:
            L = np.tril(B[k0:k1, k0:k1], -1) + np.eye(k1 - k0)
            B[k0:k1, k1:] = np.linalg.solve(L, B[k0:k1, k1:])
            B[k1:, k1:] -= B[k1:, k0:k1] @ B[k0:k1, k1:]
    return perm[:N]


# Exchange steps allowed per reference point before NoConvergence; random
# tables up to n = 12 take at most about 3.
EXCHANGE_CAP = 50


def minimax_exchange(A, fv):
    """min_c max_i |(A c)_i - fv_i| for an R x N matrix A of full column
    rank, by the single-point exchange in float64 (Stiefel's exchange: the
    simplex method on the dual below). Returns (c, psi, reference, sigma):
    the coefficients, the dual weights psi on the rows of A (nonzero only
    on the final reference), and the N + 1 distinct rows of that reference
    in ascending order with their signs, so that fv - A c = sigma_i h on
    every reference row.

    A reference is N + 1 rows i with signs sigma_i. The basis matrix M has
    rows (a_i, sigma_i); M (c, h) = fv on the reference levels the
    residual fv - A c to sigma_i h there, and psi, the last row of M^-1,
    has psi A = 0 and sum sigma_i psi_i = 1. While sigma_i psi_i >= 0,
    sum |psi| = 1 and h = psi . fv is a lower bound on the optimum. A row
    j with |r_j| > h enters with the sign of r_j; the row that leaves is
    the one the ratio test picks, so every sigma_i psi_i stays >= 0 and h
    does not decrease. At max |r| <= h the bound is met. The entering row
    is chosen by dual steepest edge (Forrest and Goldfarb, Math. Programming
    57, 1992): the largest (|r_j| - h)^2 / (1 + ||(a_j, s_j) M^-1||^2),
    with the norms updated recursively at O(R N) per step. M^-1 is kept as
    a factored inverse plus the Sherman-Morrison terms of the exchanges
    since, and refactored every N + 1 steps.

    The start is a crash reference (Bixby, ORSA J. Computing 4, 1992): the
    rows are ranked by the residual |fv - A c| of the least-squares fit,
    _pivot_rows takes N pivot rows by that rank, and the highest-ranked
    row left over completes the reference; sigma is the sign of its psi,
    so the start is dual feasible. The returned c and psi are solved afresh
    on the final reference sorted by row index, so they depend on that
    reference and not on the path that reached it. A square A is solved
    directly, with error 0, psi = 0 and an empty reference.
    """
    A = np.asarray(A, dtype=float)
    fv = np.asarray(fv, dtype=float)
    R, N = A.shape
    if R == N:
        return (np.linalg.solve(A, fv), np.zeros(R), np.zeros(0, dtype=int),
                np.zeros(0))
    try:
        rank = np.abs(fv - A @ np.linalg.solve(A.T @ A, A.T @ fv))
    except np.linalg.LinAlgError:
        raise ValueError("design matrix has dependent columns") from None
    ref = _pivot_rows(A, rank)
    inref = np.zeros(R, dtype=bool)
    inref[ref] = True
    extra = int(np.argmax(np.where(inref, -np.inf, rank)))
    psi = np.append(np.linalg.solve(A[ref].T, -A[extra]), 1.0)
    ref = np.append(ref, extra)
    inref[extra] = True
    sigma = np.where(psi < 0, -1.0, 1.0)
    if psi @ fv[ref] < 0:
        sigma = -sigma
    etas = np.empty((N + 1, N + 1))  # M^-1 = M0^-1 - etas[:t].T @ rows[:t]
    rows = np.empty((N + 1, N + 1))
    steps = 0
    while True:
        M0 = np.linalg.inv(np.column_stack([A[ref], sigma]))
        sol = M0 @ fv[ref]
        psi = M0[N].copy()
        r = fv - A @ sol[:N]
        if steps == 0:
            P = A @ M0[:N]  # (a_j, 0) M^-1 for every row j
            norms, cross = np.einsum("ij,ij->i", P, P), P @ psi
            del P
        for t in range(N + 1):
            h = sol[N]
            excess = np.abs(r) - h
            excess[inref] = 0.0
            viol = np.flatnonzero(excess > 1e-10 * (1.0 + abs(h)))
            if not len(viol):
                order = np.argsort(ref)
                ref, sigma = ref[order], sigma[order]
                M = np.column_stack([A[ref], sigma])
                sol = np.linalg.solve(M, fv[ref])
                out = np.zeros(R)
                out[ref] = np.linalg.solve(M.T, np.eye(N + 1)[N])
                return sol[:N], out, ref, sigma
            s = np.where(r[viol] >= 0, 1.0, -1.0)
            excess = excess[viol]
            weight = 1.0 + norms[viol] + 2.0 * s * cross[viol] + psi @ psi
            i = int(np.argmax(excess * excess / weight))
            j, sj = int(viol[i]), s[i]
            steps += 1
            if steps > EXCHANGE_CAP * (N + 1):
                raise NoConvergence(f"exchange exceeded {steps - 1} steps")
            # w = (a_j, s_j) M^-1: the entering row in reference coordinates
            w = (A[j] @ M0[:N] + sj * M0[N]
                 - (etas[:t, :N] @ A[j] + sj * etas[:t, N]) @ rows[:t])
            grow = sj * sigma * w
            cand = np.flatnonzero(grow > 1e-9 * np.max(np.abs(w)))
            if not len(cand):
                raise NoConvergence("exchange found no pivot")
            ratio = np.maximum(sigma[cand] * psi[cand], 0.0) / grow[cand]
            ties = cand[ratio <= ratio.min() * (1 + 1e-9) + 1e-15]
            k = int(ties[np.argmax(np.abs(w[ties]))])  # largest pivot
            col = M0[:, k] - rows[:t, k] @ etas[:t]
            z = M0 @ w - (rows[:t] @ w) @ etas[:t]
            u = w / w[k]
            u[k] -= 1.0 / w[k]
            # M'^-1 = M^-1 - col u; the norms follow row by row.
            alpha = A @ col[:N]
            Pu = (A @ z[:N] - alpha) / w[k]
            uu = u @ u
            cross -= psi[k] * Pu + alpha * (u @ psi) - alpha * psi[k] * uu
            norms -= 2.0 * alpha * Pu - alpha * alpha * uu
            np.maximum(norms, 0.0, out=norms)
            gamma = (fv[j] - fv[ref[k]]) * (1.0 - u[k]) - u @ fv[ref]
            etas[t], rows[t] = col, u
            psi -= psi[k] * u
            sol += gamma * col
            r -= gamma * alpha
            inref[ref[k]] = False
            inref[j] = True
            ref[k], sigma[k] = j, sj


def _hamming_weights(n):
    """|x| for every table index x of n variables."""
    return ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).sum(axis=1)


def symmetric_profile(f):
    """[f(1^t 0^(n-t)) for t = 0..n] if f depends only on |x|, else None."""
    fv = np.array(f.values)
    g = fv[(1 << np.arange(f.n + 1)) - 1]
    if not np.array_equal(fv, g[_hamming_weights(f.n)]):
        return None
    return [int(v) for v in g]


def approx_problem(f, d, g):
    """(A, f) with E(f, d) = min_c max |A c - f|. With g, f's symmetric
    profile, exactly on t = 0..n: A[t, j] = C(t, j) for j <= d and f = g,
    as object arrays of Python ints (Minsky-Papert: the monomials of degree
    j sum to C(|x|, j), so c_j is the coefficient of each of them). Without
    g, in float64 on the cube: the monomial design matrix, one row per
    table index and one column per monomials_upto_deg(n, d), and f's
    values; above DESIGN_CAP entries it raises TooLarge before building."""
    if g is not None:
        return (np.array([[math.comb(t, j) for j in range(d + 1)]
                          for t in range(f.n + 1)], dtype=object),
                np.array(g, dtype=object))
    cols = sum(math.comb(f.n, k) for k in range(d + 1))
    if 2 ** f.n * cols > DESIGN_CAP:
        raise TooLarge(f"design matrix 2^{f.n} x {cols} exceeds "
                       f"{DESIGN_CAP} entries")
    return (_design_matrix(f.domain(), monomials_upto_deg(f.n, d)),
            np.array(f.values, dtype=float))


def dual_failures(psi, A, f, value):
    """The failed checks (empty: none) of psi as a proof that
    max |A c - f| >= value for every c: sum |psi| <= 1, psi A = 0 and
    psi . f = value, for then psi . f = psi . (f - A c) <= max |f - A c|.
    Exact on an exact design (object arrays), else each to 1e-6."""
    tol = 0 if A.dtype == object else 1e-6
    failed = []
    if not np.sum(np.abs(psi)) <= 1 + tol:
        failed.append("sum |psi| > 1")
    if not np.max(np.abs(psi @ A)) <= tol:
        failed.append("psi A != 0: psi is not orthogonal to every column")
    if not abs(psi @ f - value) <= tol:
        failed.append("psi . f != value")
    return failed


def exact_finish(A, fv, reference, sigma):
    """(E, c, reference, psi) on an exact design (object arrays) from the
    reference and signs minimax_exchange ends on, solved once in Fraction
    arithmetic (Applegate, Cook, Dash and Espinoza, Oper. Res. Letters 35,
    2007). With M the rows (a_i, sigma_i), M (c, h) = f and psi M = e_N,
    so psi A = 0 and sum sigma_i psi_i = 1. Then max |f - A c| <= h and
    sigma_i psi_i >= 0, checked exactly, prove h = E: c attains h, and psi
    (sum |psi| = 1, psi . f = h) bounds every c's error below by h. A
    failed check raises NoConvergence. A square A (empty reference) is
    interpolated: E = 0 and no psi.
    """
    if not len(reference):
        return Fraction(0), solve_exact(A, fv), [], []
    ref = [int(i) for i in reference]
    M = [list(A[i]) + [int(s)] for i, s in zip(ref, sigma)]
    sol = solve_exact(M, fv[ref])
    psi = solve_exact(list(zip(*M)), [0] * (len(M) - 1) + [1])
    if sol is None or psi is None:
        raise NoConvergence("the exchange's reference matrix is singular")
    *c, h = sol
    if np.max(np.abs(fv - A @ c)) > h:
        raise NoConvergence(f"the reference's coefficients exceed its "
                            f"levelled error {h}")
    if any(s * p < 0 for s, p in zip(sigma, psi)):
        raise NoConvergence("the reference's dual has a weight of the "
                            "wrong sign")
    return h, c, ref, psi


def reference_weights(n, reference, psi):
    """The weights psi on the increasing points `reference` of 0..n as one
    exact vector on t = 0..n, 0 off the reference."""
    if (len(psi) != len(reference) or reference != sorted(set(reference))
            or not all(0 <= t <= n for t in reference)):
        raise ValueError("reference is not increasing points of 0..n with "
                         "one weight each")
    per_t = np.zeros(n + 1, dtype=object)
    per_t[reference] = psi
    return per_t


def symmetric_result(n, d, exact, coeffs, reference, psi):
    """The ApproxResult of an exact solution on t = 0..n: error
    float(exact), float(c_j) on every monomial of degree j, and the dual
    spread over the cube as floats, psi(x) = psi_|x| / C(n, |x|), which
    keeps its l1 norm, its value and its orthogonality to every monomial
    of degree <= d. meta["exact"] holds the exact solution."""
    per_t = reference_weights(n, reference, psi)
    spread = np.array([float(p / math.comb(n, t)) for t, p in enumerate(per_t)])
    by_degree = [float(c) for c in coeffs]
    return ApproxResult(
        d0=d, d1=0, error=float(exact),
        num_coeffs={m: by_degree[len(m)] for m in monomials_upto_deg(n, d)},
        dual_certificate=spread[_hamming_weights(n)],
        meta={"exact": {"error": exact, "coeffs": coeffs,
                        "reference": reference, "psi": psi}})


def _minimax(f, d, g):
    """(minimax_poly(f, d), A, f, E, c): the result with its problem
    approx_problem(f, d, g), and the optimum and coefficients in the
    problem's arithmetic."""
    A, fv = approx_problem(f, d, g)
    c, psi, ref, sigma = minimax_exchange(A, fv)
    if g is None:
        value = float(np.max(np.abs(A @ c - fv)))
        res = ApproxResult(d0=d, d1=0, error=value, dual_certificate=psi,
                           num_coeffs=dict(zip(monomials_upto_deg(f.n, d), c)))
    else:
        value, c, ref, psi_t = exact_finish(A, fv, ref, sigma)
        res = symmetric_result(f.n, d, value, c, ref, psi_t)
        psi = reference_weights(f.n, ref, psi_t)
    res.meta["dual_verified"] = not dual_failures(psi, A, fv, value)
    if not res.meta["dual_verified"]:
        res.dual_certificate = None
    return res, A, fv, value, c


def minimax_poly(f, d):
    """E(f, d): optimal max-deviation approximation of f by a multilinear
    polynomial of degree <= d, with a dual certificate: psi over the
    domain with sum |psi| <= 1, orthogonal to every monomial of degree
    <= d and with psi . f = error, whose existence proves optimality
    (checked here by dual_failures, not assumed).

    Every table goes through minimax_exchange, with no LP. A table that
    depends only on |x| is solved on its binomial design (approx_problem),
    finished exactly on the exchange's reference by exact_finish, and
    rendered by symmetric_result; its dual is checked exactly there.
    Other tables are solved on all 2^n points, and their dual is checked
    there to 1e-6.
    """
    if not 0 <= d <= f.n:
        raise ValueError("0 <= d <= n required")
    return _minimax(f, d, symmetric_profile(f))[0]


def exact_multilinear(f):
    """Exact multilinear representation of f (Moebius transform over the
    subset lattice), rational coefficients. Witnesses E(f, n) = 0 exactly."""
    n = f.n
    points = all_points(n)
    coeffs = {}
    for mono in monomials_upto_deg(n, n):
        # c_A = sum_{B subseteq A} (-1)^{|A|-|B|} f(1_B)
        acc = Fraction(0)
        for r in range(len(mono) + 1):
            for sub in itertools.combinations(mono, r):
                x = tuple(1 if j in sub else 0 for j in range(n))
                acc += (-1) ** (len(mono) - r) * f(x)
        if acc:
            coeffs[mono] = acc
    p = MultiPoly({frozenset(m): c for m, c in coeffs.items()})
    assert all(p.evaluate(x) == f(x) for x in points)
    return p


# --- threshold degree and density --------------------------------------------

def threshold_degree(f):
    """deg_+-(f), the least degree of a polynomial that sign-represents f,
    as the least d0 with E(f, d0) < 1: for a +-1 table, p sign-represents f
    exactly when some positive multiple of p is within max distance < 1 of
    f. Returns minimax_poly(f, d0), whose polynomial is the witness, with
    meta["margin"] = min_x f(x) p(x) >= 1 - E > 0 and meta["certificate"]:
    the dual of minimax_poly(f, d0 - 1), whose error is 1, so
    ||psi||_1 = psi . f = 1 and psi is orthogonal to every monomial of
    degree < d0 (a Gordan certificate: sum |psi_x| f(x) p(x) = 0 leaves no
    such p positive on every f(x) p(x)). d0 = 0 has no certificate. For a
    symmetric table the decision, the margin and the certificate are exact.
    """
    g = symmetric_profile(f)
    below = None
    for d in range(f.n + 1):
        res, A, fv, value, c = _minimax(f, d, g)
        if value < 1 - (0 if A.dtype == object else 1e-9):
            break
        below = res
    if below is None:
        certificate = None
    elif not below.meta["dual_verified"]:
        raise AssertionError(f"no dual certificate at degree {d - 1}")
    elif g is None:
        certificate = {"degree": d - 1,
                       "psi": below.dual_certificate.tolist()}
    else:
        exact = below.meta["exact"]
        certificate = {"degree": d - 1, "reference": exact["reference"],
                       "psi": exact["psi"]}
    res.meta.update(kind="threshold_degree", certificate=certificate,
                    margin=float(np.min(fv * (A @ c))))
    return res


class DensityResult:
    def __init__(self, value, family=(), weights=()):
        self.value = value
        self.family = family
        self.weights = weights


def threshold_density(f):
    """dns(f): least number of parities whose signed combination
    sign-represents f. Exhaustive family search with per-family LP, over
    families of at most 8 parities."""
    n = f.n
    if n > 5:
        raise TooLarge("n <= 5")
    points = f.domain()
    fv = np.array([f(x) for x in points], dtype=float)
    all_sets = list(itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)))
    chi = {S: np.array([(-1) ** sum(x[j] for j in S) for x in points], dtype=float)
           for S in all_sets}
    for size in range(1, 9):
        for fam in itertools.combinations(all_sets, size):
            A = np.column_stack([chi[S] for S in fam])
            A_ub = -(fv[:, None] * A)
            res = linprog(np.zeros(size), A_ub=A_ub, b_ub=-np.ones(len(points)),
                          bounds=[(-1e6, 1e6)] * size, method="highs")
            if res.success and np.min(fv * (A @ res.x)) > 0.5:
                return DensityResult(value=size, family=fam,
                                     weights=tuple(res.x))
    raise LowerBoundOnly(8)


# --- explicit sign approximants (Buhrman, Newman) ------------------------------

class BuhrmanApprox:
    def __init__(self, N, eps, d, coeffs, grid_error):
        self.N = N
        self.eps = eps
        self.d = d
        self.coeffs = coeffs  # ascending, in t
        self.grid_error = grid_error

    def __call__(self, t):
        return poly_eval(self.coeffs, t)


def _buhrman_coeffs(d, N):
    """2 B_d(t/(2N) + 1/2) - 1 with B_d(u) = sum_{i>=ceil(d/2)} C(d,i)
    u^i (1-u)^{d-i}, expanded in t (exact rationals)."""
    u = [Fraction(1, 2), Fraction(1, 2 * N) if isinstance(N, int) else Fraction(1) / Fraction(2 * N)]
    one_minus_u = [Fraction(1, 2), -u[1]]
    total = [Fraction(0)]
    for i in range(math.ceil(d / 2), d + 1):
        term = [Fraction(math.comb(d, i))]
        for _ in range(i):
            term = poly_mul(term, u)
        for _ in range(d - i):
            term = poly_mul(term, one_minus_u)
        total = [a + b for a, b in
                 zip(total + [Fraction(0)] * (len(term) - len(total)),
                     term + [Fraction(0)] * (len(total) - len(term)))]
    return [2 * c - (1 if k == 0 else 0) for k, c in enumerate(total)]


def buhrman_sign_poly(N, eps):
    """Smallest odd degree d whose Buhrman approximant has max deviation
    <= eps from sign on the grid {+-1,...,+-ceil(N)} (doubling, then
    binary search over odd degrees)."""
    if not (N > 1 and 0 < eps < 1):
        raise ValueError("need N > 1, 0 < eps < 1")
    grid = [t for k in range(1, math.ceil(N) + 1) for t in (k, -k)]

    def err(d):
        coeffs = [float(c) for c in _buhrman_coeffs(d, N)]
        return max(abs(poly_eval(coeffs, t) - (1 if t > 0 else -1)) for t in grid), coeffs

    d = 1
    e, coeffs = err(d)
    while e > eps:
        d *= 2
        d += 1 - d % 2  # keep d odd (oddness of the approximant)
        if d > 4097:
            raise NoConvergence("degree cap exceeded")
        e, coeffs = err(d)
    lo, hi = max(1, (d - 1) // 2), d  # binary search odd degrees in (lo, hi]
    while lo + 2 <= hi:
        mid = (lo + hi) // 2
        mid += 1 - mid % 2
        if mid >= hi:
            break
        e_mid, c_mid = err(mid)
        if e_mid <= eps:
            hi, e, coeffs = mid, e_mid, c_mid
        else:
            lo = mid
    return BuhrmanApprox(N=N, eps=eps, d=hi, coeffs=tuple(coeffs), grid_error=e)


class RationalFunction:
    def __init__(self, num, den):
        self.num = num  # ascending coefficients
        self.den = den

    def __call__(self, t):
        return poly_eval(self.num, t) / poly_eval(self.den, t)

    @property
    def d0(self):
        return len(self.num) - 1

    @property
    def d1(self):
        return len(self.den) - 1


def sign_grid(N):
    """Integer points +-1..+-ceil(N) plus 100 log-spaced reals per sign."""
    g = [float(k) for k in range(1, math.ceil(N) + 1)]
    g += list(np.logspace(0, math.log10(N), 100))
    return [t * s for t in g for s in (1.0, -1.0)]


def newman_rational_sign(N, d):
    """Odd rational of degree (d, d) approximating sign on +-[1, N].

    Classical geometric nodes N^{(k-1/2)/d}; with A(x) = prod (x + c_k),
    r0 = (A(x) - A(-x)) / (A(x) + A(-x)) is odd and positive on [1, N];
    a final scaling centers it around 1. The Fact's bound 1 - N^{-1/d} is
    certified by grid evaluation, never assumed.
    """
    if not (N > 1 and d >= 1):
        raise ValueError("need N > 1, d >= 1")
    nodes = [N ** ((k - 0.5) / d) for k in range(1, d + 1)]
    A = [1.0]
    for c in nodes:
        A = poly_mul(A, [c, 1.0])
    num = tuple(c if i % 2 else 0.0 for i, c in enumerate(A))  # odd part
    den = tuple(c if i % 2 == 0 else 0.0 for i, c in enumerate(A))
    grid = sign_grid(N)
    pos = [t for t in grid if t > 0]
    vals = [poly_eval(list(num), t) / poly_eval(list(den), t) for t in pos]
    a, b = min(vals), max(vals)
    alpha = 2.0 / (a + b)
    r = RationalFunction(num=tuple(alpha * c for c in num), den=den)
    err = max(abs(r(t) - (1.0 if t > 0 else -1.0)) for t in grid)
    bound = 1 - N ** (-1.0 / d)
    if err > bound + 1e-9:
        raise AssertionError(f"grid error {err:.6f} exceeds bound {bound:.6f}")
    return r, err


# --- rational minimax on finite point sets -------------------------------------

def _dc_step(ts, fv, d0, d1, delta_k):
    """One differential-correction LP. Returns (p, q, dc_gain) or None."""
    npts = len(ts)
    V0 = np.vander(ts, d0 + 1, increasing=True)
    V1 = np.vander(ts, d1 + 1, increasing=True)
    nv = (d0 + 1) + (d1 + 1) + 1  # p, q, gain
    # maximize gain: f_i q_i - p_i - delta_k q_i + gain <= 0 (both signs)
    rows, rhs = [], []
    for i in range(npts):
        for sgn in (1.0, -1.0):
            row = np.zeros(nv)
            row[: d0 + 1] = -sgn * V0[i]
            row[d0 + 1: d0 + 1 + d1 + 1] = (sgn * fv[i] - delta_k) * V1[i]
            row[-1] = 1.0
            rows.append(row)
            rhs.append(0.0)
        # normalization max_i q(t_i) <= 1 (Barrodale-Powell-Roberts),
        # which gives the superlinear variant of the iteration
        row = np.zeros(nv)
        row[d0 + 1: d0 + 1 + d1 + 1] = V1[i]
        rows.append(row)
        rhs.append(1.0)
    bounds = [(None, None)] * nv
    cost = np.zeros(nv)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=np.array(rows), b_ub=rhs, bounds=bounds,
                  method="highs")
    if not res.success:
        return None
    p = res.x[: d0 + 1]
    q = res.x[d0 + 1: d0 + 1 + d1 + 1]
    return p, q, float(res.x[-1])


def rational_minimax_discrete(points, targets, d0, d1):
    """Best rational approximation (degrees d0/d1) with a positive
    denominator on a finite point set, by differential correction.

    Error is within 1e-6 of optimal at convergence (the DC gain going to
    zero is the standard lower-bound functional); d1 = 0 reduces to LP
    minimax. Returns an ApproxResult; .converged False after the cap.
    """
    pts = np.asarray(points, dtype=float)
    fv = np.asarray(targets, dtype=float)
    if len(pts) > 4000:
        raise TooLarge("at most 4000 points")
    T = max(1.0, np.max(np.abs(pts)))
    ts = pts / T

    best = _dc_positive(ts, fv, d0, d1)
    # un-normalize the variable: coefficients were for t/T
    best.num_coeffs = [c / T ** i for i, c in enumerate(best.num_coeffs)]
    best.den_coeffs = [c / T ** i for i, c in enumerate(best.den_coeffs)]
    best.meta["scale"] = T
    return best


def _dc_positive(ts, fv, d0, d1, tol=1e-7):
    """Bisection on the error level using the differential-correction
    subproblem as the oracle. The maximized gain at level delta is >= 0
    exactly when an approximant with error <= delta exists (with q >= 0
    in the closure); a strictly positive gain yields q >= gain/delta > 0,
    so the extracted approximant is valid. An infeasible lower level is
    the standard lower-bound functional, certifying optimality to tol."""
    V0 = np.vander(ts, d0 + 1, increasing=True)
    V1 = np.vander(ts, d1 + 1, increasing=True)
    lo, hi = 0.0, float(np.max(np.abs(fv))) + tol
    p = np.zeros(d0 + 1)
    q = np.zeros(d1 + 1)
    q[0] = 1.0
    best = float(np.max(np.abs(fv)))  # the zero function
    converged = False
    for _ in range(60):
        if hi - lo <= tol:
            converged = True
            break
        mid = (lo + hi) / 2
        step = _dc_step(ts, fv, d0, d1, mid)
        usable = False
        if step is not None and step[2] > 1e-10:
            p2, q2, _ = step
            qv = V1 @ q2
            if np.min(qv) > 1e-12:
                err = float(np.max(np.abs(fv - (V0 @ p2) / qv)))
                if err <= mid + tol:
                    usable = True
                    if err < best:
                        best, p, q = err, p2, q2
        if usable:
            hi = mid
        else:
            lo = mid
    return ApproxResult(d0=d0, d1=d1, error=best, num_coeffs=list(p),
                        den_coeffs=list(q), converged=converged,
                        meta={"method": "differential_correction",
                              "certified_lower_bound": lo})


# --- Beigel composition ---------------------------------------------------------

class RationalApproximant:
    """Multivariate rational approximant p/q of a Boolean function table,
    with its verified max error over the table's domain."""

    def __init__(self, f, p, q, error):
        self.f = f  # BooleanFunctionTable
        self.p = p  # MultiPoly
        self.q = q  # MultiPoly
        self.error = error

    def verify(self):
        worst = 0.0
        for x in self.f.domain():
            qv = self.q.evaluate(x)
            if qv == 0:
                raise DenominatorVanishes(f"q({x}) = 0")
            worst = max(worst, abs(self.f(x) - self.p.evaluate(x) / qv))
        self.error = worst
        return worst


def beigel_signrep(r1, r2):
    """Sign representation of f AND g (AND in the -1 = true convention)
    from rational approximants with error sum < 1:

        q1^2 q2^2 + p1 q1 q2^2 + p2 q2 q1^2

    over disjoint variable sets (g's variables are shifted). Verified
    exhaustively; degree <= 4 max(deg inputs) by construction.
    """
    e1, e2 = r1.verify(), r2.verify()
    if e1 + e2 >= 1:
        raise ErrorBudgetExceeded(
            f"errors {float(e1):.4f} + {float(e2):.4f} >= 1")
    n1 = r1.f.n
    p1, q1 = r1.p, r1.q
    p2 = r2.p.shift_vars(n1)
    q2 = r2.q.shift_vars(n1)
    poly = q1 * q1 * q2 * q2 + p1 * q1 * q2 * q2 + p2 * q2 * q1 * q1

    margin = math.inf
    for x in r1.f.domain():
        for y in r2.f.domain():
            xy = tuple(x) + tuple(y)
            want = -1 if (r1.f(x) == -1 and r2.f(y) == -1) else 1
            val = poly.evaluate(xy)
            if val == 0 or (1 if val > 0 else -1) != want:
                raise AssertionError(f"sign wrong at {xy}")
            margin = min(margin, abs(val))
    dmax = 4 * max(p1.degree(), q1.degree(), r2.p.degree(), r2.q.degree())
    if poly.degree() > dmax:
        raise AssertionError("degree bookkeeping broken")
    return SignRepresentation(degree=poly.degree(), poly=poly, margin=margin)


# --- univariatization ------------------------------------------------------------

def _sym_in_t(prod_poly, n, ny):
    """Symmetrize a MultiPoly over the y-block (vars n..n+ny-1): returns
    {x-monomial frozenset: ascending t-coefficient list}. A y-monomial of
    size j averages to FF(t, j) / FF(ny, j) at block weight t, and the
    falling factorial extends it to arbitrary integer t. Arithmetic is
    exact rational (floats convert losslessly) to avoid cancellation in
    the large alternating sums the extension produces."""
    out = {}
    for mono, c in prod_poly.terms.items():
        A = frozenset(i for i in mono if i < n)
        j = len(mono) - len(A)
        ff = falling_factorial_coeffs(j)
        denom = 1
        for i in range(j):
            denom *= ny - i
        cur = out.setdefault(A, [])
        for i, fc in enumerate(ff):
            v = Fraction(c) * Fraction(fc) / denom
            if i < len(cur):
                cur[i] += v
            else:
                cur.append(v)
    return out


def _sym_eval(sym, x, t):
    """Evaluate a _sym_in_t result at Boolean x and exact rational t."""
    total = Fraction(0)
    for A, tcoeffs in sym.items():
        if all(x[i] for i in A):
            total += poly_eval(tcoeffs, t)
    return total


def univariatize(p, q, Z, foolers, check_budget=True):
    """Steps 1-3 of the reduction from a multivariate rational approximant
    of the master halfspace of Z to univariate sign approximants.

    p, q: MultiPoly over 2n variables (x = 0..n-1, y = n..2n-1) with
    q nonvanishing; foolers: a FoolingFamily for Z.

    Returns a dict with coefficient lists p2 (p**), q2 (q**), r2 (r**),
    the verified input error, the output error on {+-1,...,+-m}, and the
    degree bounds (2 d0, 2 d1, d0 + d1).
    """
    from .halfspace import build_master_halfspace

    m = Z.m
    n = Z.cardinality
    if 2 * n > 12:
        raise TooLarge("total variables <= 12")
    h = build_master_halfspace(Z)

    # Step 0: verify the input approximant on all 2^(2n) points.
    pts = all_points(2 * n)
    eps = 0.0
    for xy in pts:
        qv = q.evaluate(xy)
        if qv == 0:
            raise DenominatorVanishes("q vanishes on the domain")
        eps = max(eps, abs(h.evaluate(xy) - p.evaluate(xy) / qv))
    if eps >= 1:
        raise ValueError(f"input error {eps:.4f} >= 1, nothing to preserve")

    d0 = p.degree()
    d1 = q.degree()
    if check_budget:
        # The degree-(2d0, 2d1, d0+d1) polynomial identities for the
        # expectations rely on the fooling distributions agreeing on all
        # moments up to twice the approximant degree. The numeric ratio
        # guarantees below do not (they are positive-weight averages), so
        # callers may disable this check when only those are claimed; the
        # fit-residual assertion still guards the degree claims directly.
        need = 2 * max(d0, d1)
        if foolers.degree < need:
            raise ValueError(
                f"foolers valid to degree {foolers.degree} < required {need}")

    # Step 1 (squaring) + Step 2 (y-symmetrization).
    sym_p2 = _sym_in_t(p * p, n, n)
    sym_q2 = _sym_in_t(q * q, n, n)
    sym_pq = _sym_in_t(p * q, n, n)

    # Step 3: expectations under mu_s at t = ell(x, s) = (w.x - s)/m.
    w = [z % m for z in Z.elements]
    s_grid = list(range(-m - 1, m))
    vals = {"p2": [], "q2": [], "r2": []}
    for s in s_grid:
        cls = s % m
        acc = {"p2": Fraction(0), "q2": Fraction(0), "r2": Fraction(0)}
        for x, wt in zip(foolers.classes[cls], foolers.weights[cls]):
            if wt == 0:
                continue
            t = Fraction(sum(wi * xi for wi, xi in zip(w, x)) - s, m)
            assert t.denominator == 1
            wf = Fraction(wt)
            acc["p2"] += wf * _sym_eval(sym_p2, x, t)
            acc["q2"] += wf * _sym_eval(sym_q2, x, t)
            acc["r2"] += wf * _sym_eval(sym_pq, x, t)
        vals["p2"].append(acc["p2"])
        vals["q2"].append(acc["q2"])
        vals["r2"].append(acc["r2"])

    # Fit polynomials of the claimed degrees through the expectation values.
    bounds = {"p2": 2 * d0, "q2": 2 * d1, "r2": d0 + d1}
    coeffs, fit_residual = {}, 0.0
    sg = np.array(s_grid, dtype=float)
    for key, vv in vals.items():
        vv = np.array([float(v) for v in vv])
        deg = min(bounds[key], len(s_grid) - 1)
        V = np.vander(sg, deg + 1, increasing=True)
        c, *_ = np.linalg.lstsq(V, vv, rcond=None)
        scale = max(1.0, float(np.max(np.abs(vv))))
        fit_residual = max(
            fit_residual, float(np.max(np.abs(V @ c - vv))) / scale)
        coeffs[key] = list(c) + [0.0] * (bounds[key] - deg)
    if fit_residual > 1e-9:
        raise AssertionError(
            f"expectations not captured at the claimed degrees "
            f"(residual {fit_residual:.2e}); foolers insufficient")

    # Positivity and the two ratio families on {+-1,...,+-m}.
    for s, pv, qv in zip(s_grid, vals["p2"], vals["q2"]):
        if pv <= 0 or qv <= 0:
            raise AssertionError(f"positivity violated at s = {s}")
    # Both ratio families, evaluated at argument s - 1, approximate sign s
    # on {+-1,...,+-m} (the expectation of pq tracks sign(s + 1/2) q**).
    out_err = Fraction(0)
    for t in [k for k in range(1, m + 1)] + [-k for k in range(1, m + 1)]:
        i = s_grid.index(t - 1)
        sgn = 1 if t > 0 else -1
        g1 = vals["r2"][i] / vals["q2"][i]
        g2 = vals["p2"][i] / vals["r2"][i]
        out_err = max(out_err, abs(g1 - sgn), abs(g2 - sgn))
    out_err = float(out_err)
    if out_err > eps + 1e-9:
        raise AssertionError(
            f"error not preserved: output {out_err:.9f} > input {eps:.9f}")

    return {
        "p2": coeffs["p2"], "q2": coeffs["q2"], "r2": coeffs["r2"],
        "degree_bounds": (2 * d0, 2 * d1, d0 + d1),
        "input_error": eps,
        "output_error": out_err,
        "fit_residual": fit_residual,
        "s_grid": s_grid,
        "values": {k: [float(v) for v in vv] for k, vv in vals.items()},
    }
