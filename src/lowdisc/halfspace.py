"""Halfspace builders (master form, hardest-instance pipeline), black-box
approximants, the multiplexer transform, the number-on-forehead lifting, and
the two-party matrix built from its exact rank-(t+1) factorization.

All sign decisions are made in exact integer arithmetic: evaluation works on
the scaled linear form den(theta) * (sum w_i x_i - theta), an integer whose
sign is the function value.
"""

import math
from fractions import Fraction

import numpy as np

from .approximation import ApproxResult, BooleanFunctionTable, TooLarge, \
    newman_rational_sign
from .construction import build_low_disc_set, iteration_constants, \
    size_budget
from .discrepancy import BudgetExhausted, _is_decimal, disc, random_search
from .polynomials import all_points


class BadParams(ValueError):
    pass


# --- halfspace spec -----------------------------------------------------------

class HalfspaceSpec:
    """h(x) = sign(sum w_i x_i - theta) on {0,1}^n, never evaluating
    sign(0)."""

    def __init__(self, n, weights, threshold, provenance=None):
        self.n = n
        self.weights = tuple(int(w) for w in weights)
        self.threshold = Fraction(threshold)
        self.provenance = {} if provenance is None else provenance
        if len(self.weights) != n:
            raise BadParams(f"{len(self.weights)} weights for n = {self.n}")
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
        if self.n > 20:
            raise BadParams(
                "cannot certify a never-zero argument: n > 20 and no parity "
                "argument applies (use an odd numerator with even weights or "
                "an even denominator)")
        if 0 in _form_values(self):
            raise BadParams("sign(0) reachable: the scaled form takes 0")

    def to_table(self):
        """The table of sign(den(theta) * sum w_i x_i - num(theta)), one
        product of the cube with the scaled weights in object-dtype
        integers, exact for weights of any size; the constructor proved
        the form never 0."""
        den, num = self.threshold.denominator, self.threshold.numerator
        w = np.array([den * w for w in self.weights], dtype=object)
        return BooleanFunctionTable.from_callable(
            self.n, lambda X: np.where(X @ w > num, 1, -1))

    def to_json_dict(self):
        return {
            "schema": "lowdisc.halfspace_spec/3",
            "n": self.n,
            "weights": [str(w) for w in self.weights],
            "threshold": {"num": str(self.threshold.numerator),
                          "den": str(self.threshold.denominator)},
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, d):
        """The spec `to_json_dict` wrote. n, every weight and the
        threshold's num and den are JSON integers or decimal strings, and
        den is nonzero; any other shape raises BadParams."""
        if not isinstance(d, dict):
            raise BadParams("a halfspace spec is a JSON object")
        weights, theta = d["weights"], d["threshold"]
        if not (isinstance(weights, list) and isinstance(theta, dict)
                and all(map(_is_decimal, (d["n"], theta["num"], theta["den"],
                                          *weights)))):
            raise BadParams("n, the weights and the threshold's num and den "
                            "must be integers or decimal strings")
        num, den = int(theta["num"]), int(theta["den"])
        if den == 0:
            raise BadParams("threshold denominator 0")
        return cls(n=int(d["n"]), weights=weights,
                   threshold=Fraction(num, den),
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
        provenance={"kind": "master", "m": m, "z_digest": str(Z.digest()),
                    "z_elements": [str(e) for e in Z.elements]})


def paper_c_prime():
    """c' = min(1/200, 1/(2 C_{1/10})), with the size constant
    C_{1/10} = c / (1/10)^2 of the measured construction constants."""
    c, _C = iteration_constants()
    C_tenth = Fraction(c / (1 / 10) ** 2).limit_denominator(10 ** 6)
    return min(Fraction(1, 200), Fraction(1, 2) / C_tenth)


def build_hardest_halfspace(n, c_prime=None, mode="paper", seed=None):
    """The hard-instance halfspace family.

    mode="paper": uses the analytic constant c' of paper_c_prime; whenever
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
        cp = paper_c_prime()
        exp = math.floor(cp * n)
        if exp < 1:
            return HalfspaceSpec(
                n=n, weights=(-1,) + (0,) * (n - 1), threshold=Fraction(-1, 2),
                provenance={"kind": "hardest", "mode": "paper",
                            "fallback": True, "c_prime": str(cp),
                            "note": "floor(c'n) < 1; single-bit parity "
                                    "halfspace per the construction"})
    elif mode == "demo":
        if c_prime is None:
            raise BadParams("demo mode requires c_prime")
        cp = Fraction(c_prime)
        exp = math.floor(cp * n)
        if exp < 1:
            raise BadParams("floor(c'n) < 1: no valid modulus in demo mode")
    else:
        raise BadParams(f"unknown mode {mode!r}")
    m = 2 ** exp
    report = hardest_construction(m, mode, seed)
    Z = report.final_set

    lo, hi = -(-n // 4), n // 2  # ceil(n/4), floor(n/2)
    base = Z.cardinality
    k = None
    if base <= hi:
        k = max(1, -(-lo // base))
        if k * base > hi:
            k = None
    if k is not None:
        Zd = Z.duplicate(k)  # disc equals the base set's by duplication
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
    return hardest_from_set(Zd, mode, cp, report.branch, seed)


def hardest_construction(m, mode, seed):
    """The set construction of a hardest halfspace at modulus m: eps 1/10,
    in paper mode the paper pipeline (unseeded), in demo mode the
    practical one with the seed."""
    if mode == "paper":
        return build_low_disc_set(m, 0.1, mode="paper")
    if mode == "demo":
        return build_low_disc_set(m, 0.1, mode="practical", seed=seed)
    raise BadParams(f"unknown mode {mode!r}")


def hardest_from_set(Z, mode, c_prime, construction_branch, seed):
    """The halfspace build_hardest_halfspace returns, past its fallback,
    once it has sized the set Z (c' a Fraction)."""
    value = disc(Z).value
    h = build_master_halfspace(Z)
    h.provenance.update({
        "kind": "hardest", "mode": mode, "fallback": False,
        "c_prime": str(c_prime), "m": Z.m, "z_size": Z.cardinality,
        "disc": value, "disc_target_met": value <= 0.1,
        "construction_branch": construction_branch,
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
    (x = vars 0..n-1, y = n..2n-1, z = 2n..3n-1). The multiplexed points
    are computed from both the multiplexer definition and the arithmetized
    identity (x_i + y_i + (x_i xor z_i) - (y_i xor z_i)) / 2, which must
    agree on the whole cube, and f is then indexed once."""
    n = f.n
    if 3 * n > 16:
        raise TooLarge("3n <= 16")
    w = all_points(3 * n).astype(np.int64)
    x, y, z = w[:, :n], w[:, n:2 * n], w[:, 2 * n:]
    mux = np.where(z, y, x)
    if not np.array_equal(mux, (x + y + (x ^ z) - (y ^ z)) // 2):
        raise AssertionError("mux and arithmetized definitions disagree")
    return BooleanFunctionTable(
        3 * n, np.array(f.values)[mux @ (1 << np.arange(n))].tolist())


# --- number-on-forehead lifting ----------------------------------------------------

class LiftedProblemSpec:
    """F(x_1,...,x_k) = sign(w_0 + sum_{i,j} w_i x_{1,(i,j)} ... x_{k,(i,j)})
    with n blocks of m_blk coordinates; w_0 carries the folded threshold
    (scaled by the threshold denominator so the argument is an exact integer)."""

    def __init__(self, k, n, m_blk, w0_scaled, block_weights_scaled, source):
        self.k = k
        self.n = n
        self.m_blk = m_blk
        self.w0_scaled = w0_scaled
        # per block; each block coordinate shares it
        self.block_weights_scaled = block_weights_scaled
        self.source = source  # the HalfspaceSpec lifted
        if k < 1 or m_blk < 1 or len(block_weights_scaled) != n:
            raise BadParams("k >= 1, m_blk >= 1 and one weight per block")

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
        h = self.source.to_json_dict()
        return {
            "schema": "lowdisc.lifted_problem/2",
            "k": self.k, "n": self.n, "m_blk": self.m_blk,
            "w0_scaled": str(self.w0_scaled),
            "block_weights_scaled": [str(w)
                                      for w in self.block_weights_scaled],
            "weights": h["weights"], "threshold": h["threshold"],
        }


def lift_to_nof(h, k, m_blk):
    """Compose h with per-block unique set disjointness: substituting
    b_i = 1 - sum_j prod_parties x at block i into the linear form gives
    constant w_0 = sum_j w_j - theta and coordinate weights -w_j."""
    den = h.threshold.denominator
    w0 = den * sum(h.weights) - h.threshold.numerator
    return LiftedProblemSpec(
        k=k, n=h.n, m_blk=m_blk, w0_scaled=w0,
        block_weights_scaled=tuple(-den * w for w in h.weights), source=h)


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
    parties = all_points(k * total).reshape(-1, k, total)
    blocks = parties.reshape(-1, k, n, m_blk).all(axis=1)
    ok = (blocks.sum(axis=2) <= 1).all(axis=1)
    return [tuple(map(tuple, x)) for x in parties[ok].tolist()]


# --- two-party matrix -------------------------------------------------------------

def rank_factorization(F):
    """The exact rank-(t+1) factorization of a lifted problem's realizing
    matrix w_0 + sum_c w_c x_c y_c, t = n * m_blk coordinates: int64 A
    with rows (1, x_1, ..., x_t) and B with rows (w_0, w_1 y_1, ...,
    w_t y_t) over all_points(t), so the matrix is A @ B.T. Every entry
    and partial sum of that product is bounded by |w_0| + sum |w_c|,
    which must stay below 2^62."""
    total = F.n * F.m_blk
    wc = [F.block_weights_scaled[c // F.m_blk] for c in range(total)]
    if abs(F.w0_scaled) + sum(abs(w) for w in wc) >= 2 ** 62:
        raise TooLarge("|w0| + sum |w_c| >= 2^62: beyond the int64 matrix")
    X = all_points(total).astype(np.int64)
    A = np.column_stack([np.ones(len(X), dtype=np.int64), X])
    B = np.column_stack([np.full(len(X), F.w0_scaled, dtype=np.int64),
                         X * np.array(wc, dtype=np.int64)])
    return A, B


def two_party_matrix(F):
    """The +-1 matrix of a k=2 lifted problem: rows = party-1 inputs,
    columns = party-2 inputs, little-endian bit order.

    Returns (M, R, pts): M the int8 sign matrix, R = A @ B.T the exact
    int64 realizing matrix of rank_factorization (so rank R <= t + 1),
    pts the input tuples indexing rows and columns."""
    if F.k != 2:
        raise BadParams("two-party only")
    if F.n * F.m_blk > 12:
        raise TooLarge("n * m_blk <= 12 for matrix output")
    A, B = rank_factorization(F)
    R = A @ B.T
    if not R.all():
        raise AssertionError("argument hit zero")
    M = np.where(R > 0, np.int8(1), np.int8(-1))
    return M, R, list(map(tuple, A[:, 1:].tolist()))
