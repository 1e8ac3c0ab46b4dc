"""Halfspace builders (master form, hardest-instance pipeline), black-box
approximants, the multiplexer transform, the number-on-forehead lifting, and
communication certificates.

All sign decisions are made in exact integer arithmetic: evaluation works on
the scaled linear form den(theta) * (sum w_i x_i - theta), an integer whose
sign is the function value.
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .approximation import ApproxResult, BooleanFunctionTable, TooLarge, \
    newman_rational_sign
from .construction import build_low_disc_set, size_budget
from .discrepancy import BudgetExhausted, disc, random_search
from .polynomials import all_points


class BadParams(ValueError):
    pass


# --- halfspace spec -----------------------------------------------------------

@dataclass
class HalfspaceSpec:
    """h(x) = sign(sum w_i x_i - theta) on {0,1}^n, never evaluating
    sign(0)."""
    n: int
    weights: tuple
    threshold: Fraction
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = tuple(int(w) for w in self.weights)
        self.threshold = Fraction(self.threshold)
        self._check_never_zero()

    def scaled_form(self, x):
        """den(theta) * (sum w_i x_i - theta), an exact integer with the
        same sign as the argument."""
        acc = 0
        for w, b in zip(self.weights, x):
            if b:
                acc += w
        return acc * self.threshold.denominator - self.threshold.numerator

    def evaluate(self, x):
        d = self.scaled_form(x)
        if d == 0:
            raise AssertionError("halfspace argument hit zero")
        return 1 if d > 0 else -1

    def _check_never_zero(self):
        # Parity shortcut: the scaled form is den*sum(w_i x_i) - num; when
        # num is odd and den*sum(w_i x_i) is always even (even denominator,
        # or all weights even), the form is odd, hence never zero.
        num, den = self.threshold.numerator, self.threshold.denominator
        if num % 2 and (den % 2 == 0 or all(w % 2 == 0 for w in self.weights)):
            return
        if self.n <= 20:
            for x in itertools.product((0, 1), repeat=self.n):
                if self.scaled_form(x) == 0:
                    raise BadParams(f"sign(0) reachable at {x}")
            return
        raise BadParams(
            "cannot certify a never-zero argument: n > 20 and no parity "
            "argument applies (use an odd numerator with even weights or "
            "an even denominator)")

    def to_table(self):
        return BooleanFunctionTable.from_callable(self.n, self.evaluate)

    def to_json_dict(self):
        return {
            "schema": "lowdisc.halfspace_spec/1",
            "n": self.n,
            "weights": [str(w) for w in self.weights],
            "threshold": {"num": str(self.threshold.numerator),
                          "den": str(self.threshold.denominator)},
            "provenance": self.provenance,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        return cls(n=int(d["n"]),
                   weights=tuple(int(w) for w in d["weights"]),
                   threshold=Fraction(int(d["threshold"]["num"]),
                                      int(d["threshold"]["den"])),
                   provenance=d.get("provenance", {}))


def build_master_halfspace(Z):
    """sign(1/2 + sum_j (z_j mod m) x_j - m sum_j y_j) on 2n variables
    (x = first n, y = last n)."""
    if Z.cardinality == 0 or Z.m < 2:
        raise BadParams("Z nonempty and m >= 2 required")
    m = Z.m
    weights = tuple(z % m for z in Z.elements) + (-m,) * Z.cardinality
    return HalfspaceSpec(
        n=2 * Z.cardinality, weights=weights, threshold=Fraction(-1, 2),
        provenance={"kind": "master", "m": m, "z_digest": str(Z.digest),
                    "z_elements": [str(e) for e in Z.elements]})


def build_hardest_halfspace(n, c_prime=None, mode="paper", seed=None):
    """The hard-instance halfspace family.

    mode="paper": uses the analytic constant c' = min(1/200, 1/(2 C_{1/10}))
    with the module's measured construction constants; whenever
    floor(c' n) < 1 (every desk-scale n) the construction's own fallback
    h(x) = (-1)^{x_1} is returned, with provenance saying so.

    mode="demo": accepts a user c', sets m = 2^floor(c' n), runs the
    practical set construction at eps = 1/10, duplicates the set into the
    size window [n/4, n/2], and builds the master halfspace. When the
    certified set cannot be fit into the window, the best random-search
    candidate of size floor(n/2) is used and its actual certificate is
    attached; provenance records whether the disc target was met.
    """
    if n < 1:
        raise BadParams("n >= 1")
    if mode == "paper":
        from .construction import iteration_constants
        c, _C = iteration_constants()
        C_tenth = c / (1 / 10) ** 2  # size constant at eps = 1/10
        cp = min(Fraction(1, 200), Fraction(1, 2) / Fraction(C_tenth).limit_denominator(10 ** 6))
        exp = math.floor(cp * n)
        if exp < 1:
            return HalfspaceSpec(
                n=n, weights=(-1,) + (0,) * (n - 1), threshold=Fraction(-1, 2),
                provenance={"kind": "hardest", "mode": "paper",
                            "fallback": True, "c_prime": str(cp),
                            "note": "floor(c'n) < 1; single-bit parity "
                                    "halfspace per the construction"})
        m = 2 ** exp
        report = build_low_disc_set(m, 0.1, mode="paper")
        Z = report.final_set
    elif mode == "demo":
        if c_prime is None:
            raise BadParams("demo mode requires c_prime")
        cp = Fraction(c_prime)
        exp = math.floor(cp * n)
        if exp < 1:
            raise BadParams("floor(c'n) < 1: no valid modulus in demo mode")
        m = 2 ** exp
        report = build_low_disc_set(m, 0.1, mode="practical", seed=seed)
        Z = report.final_set
    else:
        raise BadParams(f"unknown mode {mode!r}")

    lo, hi = -(-n // 4), n // 2  # ceil(n/4), floor(n/2)
    base = Z.cardinality
    k = None
    if base <= hi:
        k = max(1, -(-lo // base))
        if k * base > hi:
            k = None
    if k is not None:
        Zd = Z.duplicate(k)
        cert = disc(Zd)  # equals the base certificate by duplication
        target_met = cert.value <= 0.1
    else:
        # certified set too large for the window: best-effort candidate
        if seed is None:
            raise BadParams("seed required (demo sampling path)")
        size = max(1, hi)
        try:
            Zd = random_search(m, size, 0.1, seed=seed,
                               budget=min(200, size_budget(m)))
        except BudgetExhausted as e:
            Zd = e.best
        cert = disc(Zd)
        target_met = cert.value <= 0.1

    h = build_master_halfspace(Zd)
    h.provenance.update({
        "kind": "hardest", "mode": mode, "fallback": False,
        "c_prime": str(cp), "m": m, "z_size": Zd.cardinality,
        "disc": cert.value, "disc_target_met": bool(target_met),
        "construction_branch": report.branch,
        "seed": str(seed) if seed is not None else None})
    return h


# --- black-box approximants ----------------------------------------------------

def _form_values(h):
    """The set of scaled linear-form values (integers, same signs as the
    argument) over {0,1}^n, via subset-sum dynamic programming (avoids 2^n
    enumeration)."""
    den, num = h.threshold.denominator, h.threshold.numerator
    sums = {0}  # achievable den * sum(w_i x_i)
    for w in h.weights:
        sums |= {s + den * w for s in sums}
    return sorted(s - num for s in sums)


def blackbox_approx(h, d, kind):
    """Degree-d approximants of a halfspace built only from its linear form.

    kind="poly_linear": the scaled linear form L(x)/D with
    D = |theta| + sum |w_i|; exact rational error 1 - min_x |L(x)| / D,
    reported beside the classical formula value 1 - 1/D (they coincide
    exactly when min |L| = 1).

    kind="rational_newman": the sign approximant of newman_rational_sign
    composed with the scaled linear form, verified on every achievable
    form value (equivalent to all 2^n inputs).
    """
    if h.n > 20:
        raise TooLarge("n <= 20")
    D = abs(h.threshold) + sum(abs(w) for w in h.weights)
    den = h.threshold.denominator
    vals = _form_values(h)  # scaled to integers, never zero
    if kind == "poly_linear":
        min_abs = Fraction(min(abs(v) for v in vals), den)
        max_abs = Fraction(max(abs(v) for v in vals), den)
        if max_abs > D:
            raise AssertionError("form exceeds its a priori bound")
        error = 1 - min_abs / D
        coeffs = {(): Fraction(-h.threshold, D)}
        for i, w in enumerate(h.weights):
            if w:
                coeffs[(i,)] = Fraction(w, D)
        return ApproxResult(
            d0=1, d1=0, error=float(error), num_coeffs=coeffs,
            meta={"exact_error": str(error),
                  "formula_value": str(1 - 1 / D),
                  "min_abs_form": str(min_abs), "scale": str(D)})
    if kind == "rational_newman":
        N = max(abs(v) for v in vals)
        r, grid_err = newman_rational_sign(float(N), d)
        worst = 0.0
        for v in vals:
            worst = max(worst, abs((1.0 if v > 0 else -1.0) - r(float(v))))
        bound = 1 - float(N) ** (-1.0 / d)
        if worst > bound + 1e-9:
            raise AssertionError("composed error exceeds the degree bound")
        return ApproxResult(
            d0=r.d0, d1=r.d1, error=worst,
            num_coeffs=list(r.num), den_coeffs=list(r.den),
            meta={"N": str(N), "newman_grid_error": grid_err,
                  "composed_with": "scaled linear form"})
    raise ValueError(f"unknown kind {kind!r}")


# --- multiplexer transform -------------------------------------------------------

def kp_transform(f):
    """f^KP(x, y, z) = f(..., mux(z_i; x_i, y_i), ...) on 3n variables
    (x = vars 0..n-1, y = n..2n-1, z = 2n..3n-1). Computed from both the
    multiplexer definition and the arithmetized identity
    (x_i + y_i + (x_i xor z_i) - (y_i xor z_i)) / 2, which must agree."""
    n = f.n
    if 3 * n > 16:
        raise TooLarge("3n <= 16")
    vals_mux, vals_arith = [], []
    for w in all_points(3 * n):
        x, y, z = w[:n], w[n:2 * n], w[2 * n:]
        mux = tuple(y[i] if z[i] else x[i] for i in range(n))
        arith = tuple((x[i] + y[i] + (x[i] ^ z[i]) - (y[i] ^ z[i])) // 2
                      for i in range(n))
        vals_mux.append(f(mux))
        vals_arith.append(f(arith))
    if vals_mux != vals_arith:
        raise AssertionError("mux and arithmetized definitions disagree")
    return BooleanFunctionTable(3 * n, vals_mux)


# --- number-on-forehead lifting ----------------------------------------------------

@dataclass
class LiftedProblemSpec:
    """F(x_1,...,x_k) = sign(w_0 + sum_{i,j} w_i x_{1,(i,j)} ... x_{k,(i,j)})
    with n blocks of m_blk coordinates; w_0 carries the folded threshold
    (scaled by the threshold denominator so the argument is an exact integer)."""
    k: int
    n: int
    m_blk: int
    w0_scaled: int
    block_weights_scaled: tuple  # per block; each block coordinate shares it

    @property
    def monomial_count(self):
        return self.n * self.m_blk + 1

    def upp_upper_bound(self):
        return math.ceil(math.log2(self.monomial_count)) + 2

    def scaled_argument(self, parties):
        """parties: k tuples of n*m_blk bits, coordinate (i,j) at index
        i*m_blk + j."""
        acc = self.w0_scaled
        for i in range(self.n):
            w = self.block_weights_scaled[i]
            if w == 0:
                continue
            for j in range(self.m_blk):
                idx = i * self.m_blk + j
                if all(p[idx] for p in parties):
                    acc += w
        return acc

    def evaluate(self, parties):
        d = self.scaled_argument(parties)
        if d == 0:
            raise AssertionError("lifted argument hit zero")
        return 1 if d > 0 else -1

    def to_json_dict(self):
        return {
            "schema": "lowdisc.lifted_problem/1",
            "k": self.k, "n": self.n, "m_blk": self.m_blk,
            "w0_scaled": str(self.w0_scaled),
            "block_weights_scaled": [str(w)
                                      for w in self.block_weights_scaled],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        return cls(k=int(d["k"]), n=int(d["n"]), m_blk=int(d["m_blk"]),
                   w0_scaled=int(d["w0_scaled"]),
                   block_weights_scaled=tuple(
                       int(w) for w in d["block_weights_scaled"]))


def lift_to_nof(h, k, m_blk):
    """Compose h with per-block unique set disjointness: substituting
    b_i = 1 - sum_j prod_parties x at block i into the linear form gives
    constant w_0 = sum_j w_j - theta and coordinate weights -w_j."""
    if k < 1 or m_blk < 1:
        raise BadParams("k >= 1 and m_blk >= 1")
    den = h.threshold.denominator
    w0 = den * sum(h.weights) - h.threshold.numerator
    return LiftedProblemSpec(
        k=k, n=h.n, m_blk=m_blk, w0_scaled=w0,
        block_weights_scaled=tuple(-den * w for w in h.weights))


def udisj_value(block_bits_per_party):
    """UDISJ*(x) = -1 + 2 sum_j prod_parties x_{.,j} on one block; only
    meaningful on the promise (at most one jointly-1 coordinate)."""
    m_blk = len(block_bits_per_party[0])
    inter = sum(1 for j in range(m_blk)
                if all(p[j] for p in block_bits_per_party))
    return -1 + 2 * inter


def unique_intersection_inputs(n, m_blk, k):
    """All k-party inputs where every block has at most one jointly-1
    coordinate. Exhaustive; intended for tiny sizes only."""
    total = n * m_blk
    if k * total > 18:
        raise TooLarge("k * n * m_blk <= 18 for exhaustive enumeration")
    out = []
    for flat in itertools.product((0, 1), repeat=k * total):
        parties = [flat[p * total:(p + 1) * total] for p in range(k)]
        ok = True
        for i in range(n):
            inter = sum(1 for j in range(m_blk)
                        if all(p[i * m_blk + j] for p in parties))
            if inter > 1:
                ok = False
                break
        if ok:
            out.append(tuple(parties))
    return out


# --- communication certificates -------------------------------------------------

@dataclass
class CommunicationReport:
    n: int
    factorization_rank: int
    numeric_rank: int
    sign_consistent: bool
    rectangle_disc: float = None
    pp_lower_bound: float = None

    def to_json_dict(self):
        return {
            "schema": "lowdisc.communication_report/1",
            "n": self.n,
            "factorization_rank": self.factorization_rank,
            "numeric_rank": self.numeric_rank,
            "sign_consistent": self.sign_consistent,
            "rectangle_disc": self.rectangle_disc,
            "pp_lower_bound": self.pp_lower_bound,
        }


def two_party_matrix(F):
    """The +-1 matrix of a k=2 lifted problem: rows = party-1 inputs,
    columns = party-2 inputs, little-endian bit order.

    Returns (M, R, pts): M the int8 sign matrix, R the exact int64
    realizing matrix, pts the input tuples indexing rows and columns."""
    if F.k != 2:
        raise BadParams("two-party only")
    total = F.n * F.m_blk
    if total > 12:
        raise TooLarge("n * m_blk <= 12 for matrix output")
    wc = [F.block_weights_scaled[c // F.m_blk] for c in range(total)]
    # Every entry and partial sum of R is bounded by |w0| + sum |w_c|.
    if abs(F.w0_scaled) + sum(abs(w) for w in wc) >= 2 ** 62:
        raise TooLarge("|w0| + sum |w_c| >= 2^62: beyond the int64 matrix")
    pts = all_points(total)
    X = np.array(pts, dtype=np.int64)
    R = (X * np.array(wc, dtype=np.int64)) @ X.T
    R += F.w0_scaled
    if not R.all():
        raise AssertionError("argument hit zero")
    M = np.where(R > 0, np.int8(1), np.int8(-1))
    return M, R, pts


def rank_factorization(F):
    """Explicit rank-(total+1) factorization of the realizing matrix:
    row vectors (1, x_1, ..., x_t), column vectors (w_0, w_1 y_1, ...,
    w_t y_t) for the bilinear form w_0 + sum w_c x_c y_c."""
    total = F.n * F.m_blk
    pts = all_points(total)
    wc = [F.block_weights_scaled[c // F.m_blk] for c in range(total)]
    A = np.array([[1.0] + [float(b) for b in x] for x in pts])
    B = np.array([[float(F.w0_scaled)] + [wc[c] * y[c] for c in range(total)]
                  for y in pts])
    return A, B  # realizing matrix = A @ B.T


def rectangle_discrepancy(M):
    """Uniform-distribution rectangle discrepancy of a +-1 matrix:
    max over rectangles S x T of |sum_{S x T} M| / (rows * cols), by
    exhaustive search over column subsets (at most 12 x 12)."""
    rows, cols = M.shape
    if rows > 12 or cols > 12:
        raise TooLarge("at most 12 x 12 for exhaustive rectangles")
    Mf = M.astype(np.float64)
    best = 0.0
    col_idx = np.arange(cols)
    for tmask in range(1, 2 ** cols):
        sel = (tmask >> col_idx) & 1
        c = Mf @ sel  # row sums over the column subset
        pos = float(np.sum(c[c > 0]))
        neg = float(-np.sum(c[c < 0]))
        best = max(best, pos, neg)
    return best / (rows * cols)


def communication_certificates(F, rectangles=False, disc_upper_bound=None):
    """Certificates for a two-party lifted problem: explicit low-rank
    factorization sign-matching the matrix, its numeric rank, optional
    rectangle discrepancy, and the pp lower bound log2(2/disc) from a
    supplied certified discrepancy upper bound."""
    M, R, _pts = two_party_matrix(F)
    A, B = rank_factorization(F)
    realized = A @ B.T
    if not np.array_equal(np.sign(realized).astype(np.int8), M):
        raise AssertionError("factorization sign-inconsistent")
    if np.max(np.abs(realized - R)) > 1e-9:
        raise AssertionError("factorization does not reproduce the form")
    total = F.n * F.m_blk
    numeric_rank = int(np.linalg.matrix_rank(realized))
    rep = CommunicationReport(
        n=total, factorization_rank=total + 1, numeric_rank=numeric_rank,
        sign_consistent=True)
    if rectangles:
        rep.rectangle_disc = rectangle_discrepancy(M)
    if disc_upper_bound is not None:
        if not (0 < disc_upper_bound <= 1):
            raise BadParams("disc upper bound in (0, 1]")
        rep.pp_lower_bound = math.log2(2 / disc_upper_bound)
    return rep
