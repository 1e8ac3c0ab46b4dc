"""Minimax polynomial/rational approximation, threshold degree and density,
sign-representation composition, and the univariatization pipeline.

The LP kernel is scipy's HiGHS-backed linprog. Every optimality claim that
matters is re-verified after extraction: dual certificates are checked for
orthogonality / l1 norm / value, sign witnesses are evaluated exhaustively,
and rational errors are recomputed pointwise.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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

@dataclass
class ApproxResult:
    d0: int
    d1: int
    error: float
    num_coeffs: object  # monomial-basis coefficients (multivariate: dict)
    den_coeffs: object = None
    dual_certificate: object = None
    converged: bool = True
    meta: dict = field(default_factory=dict)

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
            "meta": {k: (str(v) if isinstance(v, int) and abs(v) > 2**53 else v)
                     for k, v in self.meta.items()},
        }


@dataclass
class SignRepresentation:
    degree: int
    poly: object        # MultiPoly or coefficient dict
    margin: float


# --- minimax polynomial approximation ----------------------------------------

def _design_matrix(points, monos):
    """A[i, j] = prod_{k in monos[j]} points[i][k]: each column is the
    product of the point matrix's columns, multiplied in monomial order."""
    X = np.array(points, dtype=float).reshape(len(points), -1)
    A = np.ones((len(points), len(monos)))
    for j, mono in enumerate(monos):
        for k in mono:
            A[:, j] *= X[:, k]
    return A


def minimax_poly(f, d):
    """E(f, d): optimal max-deviation approximation of f by a multilinear
    polynomial of degree <= d, with an LP dual certificate.

    The certificate is a signed weight vector psi over the domain with
    sum |psi| <= 1, psi orthogonal to all degree-<= d monomials, and
    sum psi f = error; its existence proves optimality (verified here to
    1e-6, not assumed).
    """
    n = f.n
    if d > n:
        raise ValueError("d <= n required")
    if n > 14:
        raise TooLarge("n <= 14 for the minimax LP")
    points = f.domain()
    fv = np.array([f(x) for x in points], dtype=float)
    monos = monomials_upto_deg(n, d)
    A = _design_matrix(points, monos)
    ncoef = len(monos)
    # minimize eps s.t. A c - eps <= f, -A c - eps <= -f
    A_ub = np.block([[A, -np.ones((len(points), 1))],
                     [-A, -np.ones((len(points), 1))]])
    b_ub = np.concatenate([fv, -fv])
    cost = np.zeros(ncoef + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * ncoef + [(0, None)],
                  method="highs")
    if not res.success:
        raise RuntimeError(f"minimax LP failed: {res.message}")
    coeffs = res.x[:ncoef]
    error = float(np.max(np.abs(A @ coeffs - fv)))

    # dual: u for the upper rows, v for the lower; psi = u - v
    marg = -np.asarray(res.ineqlin.marginals)
    u, v = marg[: len(points)], marg[len(points):]
    psi = v - u
    # psi with l1 norm <= 1, orthogonal to the feasible space, achieving
    # psi . f = error, lower-bounds every approximation: optimality proof.
    dual_ok = (np.sum(np.abs(psi)) <= 1 + 1e-6
               and np.max(np.abs(psi @ A)) < 1e-6
               and abs(float(psi @ fv) - error) < 1e-6)
    return ApproxResult(d0=d, d1=0, error=error,
                        num_coeffs={m: c for m, c in zip(monos, coeffs)},
                        dual_certificate=psi if dual_ok else None,
                        meta={"dual_verified": bool(dual_ok)})


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

def _sign_lp(f, d):
    """Feasibility of f(x) p(x) >= 1 with deg p <= d. Returns (coeffs,
    margin) or None."""
    n = f.n
    points = f.domain()
    fv = np.array([f(x) for x in points], dtype=float)
    monos = monomials_upto_deg(n, d)
    A = _design_matrix(points, monos)
    # -f(x) p(x) <= -1
    A_ub = -(fv[:, None] * A)
    b_ub = -np.ones(len(points))
    res = linprog(np.zeros(len(monos)), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(-1e6, 1e6)] * len(monos),
                  method="highs")
    if not res.success:
        return None
    vals = A @ res.x
    if np.min(fv * vals) < 0.5:  # LP said feasible but the witness is junk
        return None
    poly = MultiPoly({frozenset(m): c for m, c in zip(monos, res.x) if c != 0})
    return poly, float(np.min(fv * vals))


def threshold_degree(f):
    """deg_+-(f): least degree admitting a sign-representing polynomial.

    The feasibility LP provides the witness; the minimax route must agree
    (error < 1 at the found degree, dual-certified error 1 below it).
    """
    if f.n > 14:
        raise TooLarge("n <= 14")
    for d in range(f.n + 1):
        got = _sign_lp(f, d)
        if got is not None:
            poly, margin = got
            # cross-check with the independent minimax formulation
            if f.n <= 10:
                err = minimax_poly(f, d).error
                if err >= 1 - 1e-9:
                    raise AssertionError(
                        f"sign LP and minimax disagree at degree {d}")
            return SignRepresentation(degree=d, poly=poly, margin=margin)
    raise AssertionError("full-degree sign representation must exist")


@dataclass
class DensityResult:
    value: int
    family: tuple = ()
    weights: tuple = ()


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

@dataclass
class BuhrmanApprox:
    N: float
    eps: float
    d: int
    coeffs: tuple  # ascending, in t
    grid_error: float

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


@dataclass
class RationalFunction:
    num: tuple  # ascending coefficients
    den: tuple

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

@dataclass
class RationalApproximant:
    """Multivariate rational approximant p/q of a Boolean function table,
    with its verified max error over the table's domain."""
    f: BooleanFunctionTable
    p: MultiPoly
    q: MultiPoly
    error: float

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
