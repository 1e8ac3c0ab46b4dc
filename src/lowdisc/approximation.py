"""Minimax polynomial/rational approximation, threshold degree,
sign-representation composition, and the univariatization pipeline.

Polynomial minimax and threshold degree run no LP: both solve
E(f, d) = min_c max |A c - f| by one exchange, minimax_exchange, in
float64, on one design for every table: approx_problem reduces the cube
to the orbits of f's weight classes, the maximal blocks of coordinates
in which f is symmetric (Minsky-Papert symmetrization, blockwise). The
design's arithmetic is decided once, in approx_problem, and read only by
Design, which solves, renders, reads back and checks a solution and its
threshold certificate for `approx` and `verify` alike: on a table of one
class the design is exact, and exact_finish solves the exchange's final
reference once more in Fraction arithmetic and proves it optimal; every
other table keeps the float solution. Threshold degree is the least d
with E(f, d) < 1. One checker, dual_failures, verifies a dual in either
arithmetic, exactly or to 1e-6. scipy's HiGHS-backed linprog, imported
on first use, has two callers: differential correction here and
distribution's fooling families, and no CLI command reaches either. Sign
witnesses are evaluated exhaustively, and rational errors are recomputed
pointwise.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .numeric_core import solve_exact
from .polynomials import (all_points, falling_factorial_coeffs,
                          monomials_upto_deg, poly_add, poly_eval, poly_mul)


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
        """The table of fn on the whole cube: one call fn(X) on the
        (2^n, n) uint8 matrix X = all_points(n), which returns the 2^n
        values, row i's at index i. The table cap is checked before X is
        built or fn called."""
        _check_table_size(n)
        return cls(n, np.asarray(fn(all_points(n))).tolist())

    def __call__(self, x):
        idx = sum(b << j for j, b in enumerate(x))
        return self.values[idx]

    def domain(self):
        return list(map(tuple, all_points(self.n).tolist()))

    @classmethod
    def from_text(cls, text):
        """One +-1 per line, index = binary input (little-endian bit 1 = x_1)."""
        vals = [int(line) for line in text.split() if line.strip()]
        return cls(max(len(vals).bit_length() - 1, 0), vals)


def MAJ(n):
    """Majority, -1 on inputs with more than n/2 ones (the sign form
    -sign(sum x - n/2 - 1/4))."""
    return BooleanFunctionTable.from_callable(
        n, lambda X: np.where(X.sum(1) > n / 2 + 0.25, -1, 1))


def PARITY(n):
    return BooleanFunctionTable.from_callable(
        n, lambda X: np.where(X.sum(1) % 2, -1, 1))


def OMB(n):
    """Odd-max-bit: sign(1 + sum_i (-2)^i x_i)."""
    return BooleanFunctionTable.from_callable(
        n, lambda X: np.where(1 + X @ (-2) ** np.arange(1, n + 1) > 0, 1, -1))


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


def _fraction(q):
    """The Fraction that _enc_meta writes as q = {"num", "den"}."""
    return Fraction(int(q["num"]), int(q["den"]))


class SignRepresentation:
    def __init__(self, degree, poly, margin):
        self.degree = degree
        self.poly = poly  # MultiPoly or coefficient dict
        self.margin = margin


# --- minimax polynomial approximation ----------------------------------------

# Cap on the entries of approx_problem's design matrix (orbits x column
# classes), checked before it is built: 2^22 float64 entries take 32 MB,
# and minimax_exchange briefly holds one more matrix of that size (its
# pivoting copy, then the initial edge norms). A table with no symmetric
# pair has the cube's 2^n x C(n, <= d) design; MAJ_12 at degree 3 without
# its symmetry (4096 x 299) fits.
DESIGN_CAP = 1 << 22


def weight_classes(f):
    """The maximal blocks of coordinates in which f is symmetric, as
    increasing tuples in order of their first coordinate. Invariance under
    (i j) is transitive, (i k) = (i j)(j k)(i j), so each coordinate is
    tested against one representative per block, by one comparison over
    the table."""
    fv, idx, blocks = np.array(f.values), np.arange(2 ** f.n), []
    for i in range(f.n):
        for block in blocks:
            swap = ((idx >> i) ^ (idx >> block[0])) & 1
            if np.array_equal(fv, fv[idx ^ (swap << i) ^ (swap << block[0])]):
                block.append(i)
                break
        else:
            blocks.append([i])
    return [tuple(block) for block in blocks]


def _classes(key):
    """(label, first): key's entries grouped by value, the groups numbered
    in order of their first entry; the group of every entry, and the index
    of every group's first entry."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], first[order]


class Design:
    """approx_problem's design: A and f at the first table index of each
    orbit, orbit[x] of each table index, first[o] and sizes[o] of each
    orbit, col[k] of each monomial monos[k] and the first monomial lead[j]
    of each column. Only Design reads its arithmetic: exact (object arrays
    of Python ints, tol 0) on at most one weight class, float64 (tol 1e-9)
    otherwise. A solution is (value, c, w, reference): the error, one
    coefficient per column, the weights w_o = psi_o / |o| (psi spread
    evenly over each orbit) and, on an exact design, the reference."""

    def __init__(self, d, A, f, orbit, first, sizes, monos, col, lead):
        self.d, self.A, self.f, self.exact = d, A, f, A.dtype == object
        self.tol = 0 if self.exact else 1e-9
        self.orbit, self.first, self.sizes = orbit, first, sizes
        self.monos, self.col, self.lead = monos, col, lead

    def solve(self):
        """The solution by minimax_exchange, finished by exact_finish on an
        exact design."""
        c, psi, ref, sigma = minimax_exchange(self.A, self.f)
        if self.exact:
            value, c, ref, psi = exact_finish(self.A, self.f, ref, sigma)
        else:
            value, ref = float(np.max(np.abs(self.A @ c - self.f))), None
        return value, c, psi / self.sizes, ref

    def result(self, value, c, w, reference):
        """(res, failed): the ApproxResult of a solution, as floats at every
        monomial and table index (and exactly in meta["exact"] on an exact
        design), and its failed checks: dual_failures of psi = w |o|, which
        set dual_verified and drop a failed dual, then max |A c - f| = value
        within tol."""
        failed = dual_failures(w * self.sizes, self.A, self.f, value)
        res = ApproxResult(
            d0=self.d, d1=0, error=float(value),
            num_coeffs=dict(zip(self.monos, np.array(c, dtype=float)[self.col]
                                .tolist())),
            dual_certificate=(None if failed else
                              np.array(w, dtype=float)[self.orbit]),
            meta={"dual_verified": not failed})
        if self.exact:
            res.meta["exact"] = {"error": value, "coeffs": list(c),
                                 **self.dual(w, reference)}
        if not abs(np.max(np.abs(self.A @ c - self.f)) - value) <= self.tol:
            failed.append("stored coefficients do not reproduce the error")
        return res, failed

    def dual(self, w, reference):
        """The dual of weights w as a report stores it: psi on the
        reference, exactly, or w at every table index."""
        if self.exact:
            return {"reference": reference,
                    "psi": list(w[reference] * self.sizes[reference])}
        return {"psi": np.array(w, dtype=float)[self.orbit].tolist()}

    def read(self, stored):
        """The solution of a stored result, the inverse of `result`: its
        `exact` block, or its floats at each column's first monomial."""
        if self.exact:
            exact = stored["meta"]["exact"]
            return (_fraction(exact["error"]),
                    [_fraction(q) for q in exact["coeffs"]],
                    *self.read_dual(exact))
        coeffs = stored["num_coeffs"]
        return (float(stored["error"]),
                np.array([float(coeffs.get(",".join(map(str, self.monos[k])),
                                           0.0)) for k in self.lead]),
                *self.read_dual({"psi": stored["dual_certificate"]}))

    def read_dual(self, stored):
        """(w, reference) of a stored dual, the inverse of `dual`: psi on
        increasing reference orbits, or w at each orbit's first index."""
        if not self.exact:
            return np.array(stored["psi"], dtype=float)[self.first], None
        ref = [int(t) for t in stored["reference"]]
        if (len(stored["psi"]) != len(ref) or ref != sorted(set(ref))
                or not all(0 <= t < len(self.first) for t in ref)):
            raise ValueError("reference is not increasing orbits with one "
                             "weight each")
        psi = np.full(len(self.first), Fraction(0), dtype=object)
        psi[ref] = [_fraction(q) for q in stored["psi"]]
        return psi / self.sizes, ref

    def threshold(self, res, c, below, margin=None):
        """The failed checks of the threshold certificate, rendered into
        res.meta: the margin min f (A c) of the witness c is positive (and
        the stored margin within tol, relative above 1), and below, the
        (design, w, reference) of the dual one degree lower, is given
        unless d = 0 and passes dual_failures at value 1."""
        found = float(np.min(self.f * (self.A @ c)))
        margin = found if margin is None else margin
        close = abs(found - margin) <= self.tol * max(1.0, abs(margin))
        failed = [] if found > 0 and close else [
            f"witness margin {found} != claimed {margin} or not positive"]
        res.meta.update(kind="threshold_degree", certificate=None,
                        margin=margin if close else found)
        if below is None:
            return failed + [f"no certificate for degree {self.d - 1}"] * (
                self.d > 0)
        p, w, ref = below
        res.meta["certificate"] = {"degree": p.d, **p.dual(w, ref)}
        return failed + [f"degree {p.d} certificate: {msg}" for msg in
                         dual_failures(w * p.sizes, p.A, p.f, 1)]


def approx_problem(f, d, blocks=None):
    """The Design of E(f, d) = min_c max |A c - f| on the orbits of f under
    blocks (default: weight_classes(f)), Minsky-Papert symmetrization
    applied blockwise. An orbit is a tuple of counts t_B = |x_B|, a column
    a class of monomials of degree <= d by degrees b_B = |S & B|, and
    A[o, j] = prod_B C(t_B, b_B), the number of the class's monomials that
    are 1 on the orbit. Rows and columns are in order of their first table
    index and monomial: singletons give the cube's monomial design, one
    block the binomial design C(t, j) on t = 0..n. Above DESIGN_CAP
    entries it raises TooLarge before building A."""
    blocks = weight_classes(f) if blocks is None else blocks
    radix = [len(b) + 1 for b in blocks]
    stride = np.cumprod([1] + radix[:-1])
    weight = np.zeros(f.n, dtype=np.int64)  # a coordinate's step in a key
    for b, s in zip(blocks, stride):
        weight[list(b)] = s
    key = all_points(f.n) @ weight
    monos = monomials_upto_deg(f.n, d)
    mkey = np.concatenate([weight[np.array(list(g), dtype=np.intp)].sum(1)
                           for _, g in itertools.groupby(monos, len)])
    (orbit, first), (col, lead) = _classes(key), _classes(mkey)
    if len(first) * len(lead) > DESIGN_CAP:
        raise TooLarge(f"design matrix {len(first)} x {len(lead)} exceeds "
                       f"{DESIGN_CAP} entries")
    dtype = object if len(blocks) <= 1 else float
    A = np.ones((len(first), len(lead)), dtype=dtype)
    sizes = np.ones(len(first), dtype=dtype)
    for s, r in zip(stride, radix):
        C = np.array([[math.comb(t, j) for j in range(r)] for t in range(r)],
                     dtype=dtype)
        A *= C[np.ix_(key[first] // s % r, mkey[lead] // s % r)]
        sizes *= C[-1, key[first] // s % r]
    return Design(d, A, np.array(f.values, dtype=dtype)[first], orbit, first,
                  sizes, monos, col, lead)


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

# Differential correction's bisection stops at an error interval this wide.
_DC_TOL = 1e-7


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
    2007), with psi on every row of A (0 off the reference). With M the
    rows (a_i, sigma_i), M (c, h) = f and psi M = e_N,
    so psi A = 0 and sum sigma_i psi_i = 1. Then max |f - A c| <= h and
    sigma_i psi_i >= 0, checked exactly, prove h = E: c attains h, and psi
    (sum |psi| = 1, psi . f = h) bounds every c's error below by h. A
    failed check raises NoConvergence. A square A (empty reference) is
    interpolated: E = 0 and psi = 0.
    """
    out = np.full(len(A), Fraction(0), dtype=object)
    if not len(reference):
        return Fraction(0), solve_exact(A, fv), [], out
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
    out[ref] = psi
    return h, c, ref, out


def minimax_poly(f, d):
    """E(f, d): optimal max-deviation approximation of f by a multilinear
    polynomial of degree <= d, solved on f's orbit design by Design.solve
    with no LP, with a dual certificate: psi with sum |psi| <= 1,
    orthogonal to every monomial of degree <= d and with psi . f = error,
    whose existence proves optimality (checked by dual_failures, exactly
    on a table of one weight class, else to 1e-6, not assumed)."""
    if not 0 <= d <= f.n:
        raise ValueError("0 <= d <= n required")
    p = approx_problem(f, d)
    return p.result(*p.solve())[0]


# --- threshold degree --------------------------------------------------------

def threshold_degree(f):
    """deg_+-(f), the least degree of a polynomial that sign-represents f,
    as the least d0 with E(f, d0) < 1 - tol: a +-1 table's p sign-represents
    f exactly when some positive multiple of p is within max distance < 1
    of f. Returns the result at d0, whose polynomial is the witness, with
    Design.threshold's margin min_x f(x) p(x) >= 1 - E > 0 and certificate,
    the dual at d0 - 1 (none at d0 = 0): E = 1 there, so ||psi||_1 =
    psi . f = 1 and psi is orthogonal to every monomial of degree < d0, a
    Gordan certificate (sum |psi_x| f(x) p(x) = 0 leaves no such p positive
    on every f(x) p(x)). The weight classes are found once."""
    blocks, below = weight_classes(f), None
    for d in range(f.n + 1):
        p = approx_problem(f, d, blocks)
        value, c, w, ref = solution = p.solve()
        if value < 1 - p.tol:
            break
        below = (p, w, ref)
    res = p.result(*solution)[0]
    if failed := p.threshold(res, c, below):
        raise AssertionError("; ".join(failed))
    return res


# --- explicit sign approximants (Newman) -------------------------------------

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
    V0 = np.vander(ts, d0 + 1, increasing=True)
    V1 = np.vander(ts, d1 + 1, increasing=True)
    nv = (d0 + 1) + (d1 + 1) + 1  # p, q, gain
    # Three rows per point: maximize gain with
    # f_i q_i - p_i - delta_k q_i + gain <= 0 for both signs, and the
    # normalization max_i q(t_i) <= 1 (Barrodale-Powell-Roberts), which
    # gives the superlinear variant of the iteration.
    rows = np.zeros((len(ts), 3, nv))
    for k, sgn in enumerate((1.0, -1.0)):
        rows[:, k, :d0 + 1] = -sgn * V0
        rows[:, k, d0 + 1:-1] = (sgn * fv - delta_k)[:, None] * V1
        rows[:, k, -1] = 1.0
    rows[:, 2, d0 + 1:-1] = V1
    cost = np.zeros(nv)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=rows.reshape(-1, nv),
                  b_ub=np.tile([0.0, 0.0, 1.0], len(ts)),
                  bounds=[(None, None)] * nv, method="highs")
    if not res.success:
        return None
    return res.x[:d0 + 1], res.x[d0 + 1:-1], float(res.x[-1])


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


def _dc_positive(ts, fv, d0, d1):
    """Bisection on the error level using the differential-correction
    subproblem as the oracle. The maximized gain at level delta is >= 0
    exactly when an approximant with error <= delta exists (with q >= 0
    in the closure); a strictly positive gain yields q >= gain/delta > 0,
    so the extracted approximant is valid. An infeasible lower level is
    the standard lower-bound functional, certifying optimality to
    _DC_TOL."""
    V0 = np.vander(ts, d0 + 1, increasing=True)
    V1 = np.vander(ts, d1 + 1, increasing=True)
    lo, hi = 0.0, float(np.max(np.abs(fv))) + _DC_TOL
    p = np.zeros(d0 + 1)
    q = np.zeros(d1 + 1)
    q[0] = 1.0
    best = float(np.max(np.abs(fv)))  # the zero function
    converged = False
    for _ in range(60):
        if hi - lo <= _DC_TOL:
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
                if err <= mid + _DC_TOL:
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
        out[A] = poly_add(out.get(A, []),
                          [Fraction(c) * Fraction(fc) / math.perm(ny, j)
                           for fc in falling_factorial_coeffs(j)])
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
    eps = RationalApproximant(h.to_table(), p, q, None).verify()
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
    syms = {"p2": _sym_in_t(p * p, n, n), "q2": _sym_in_t(q * q, n, n),
            "r2": _sym_in_t(p * q, n, n)}

    # Step 3: expectations under mu_s at t = ell(x, s) = (w.x - s)/m.
    w = [z % m for z in Z.elements]
    s_grid = list(range(-m - 1, m))
    vals = {key: [] for key in syms}
    for s in s_grid:
        cls = s % m
        acc = dict.fromkeys(syms, Fraction(0))
        for x, wt in zip(foolers.classes[cls], foolers.weights[cls]):
            if wt == 0:
                continue
            t = Fraction(sum(wi * xi for wi, xi in zip(w, x)) - s, m)
            assert t.denominator == 1
            for key, sym in syms.items():
                acc[key] += Fraction(wt) * _sym_eval(sym, x, t)
        for key in syms:
            vals[key].append(acc[key])

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
