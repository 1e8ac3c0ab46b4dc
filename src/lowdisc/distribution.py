"""Exact distribution of linear forms sum z_j X_j mod m under uniform
Boolean inputs, uniformity bounds, and LP-synthesized fooling distributions.

Tables are exact: integer counts over 2^n, exposed as Fractions with
power-of-two denominators. Two independent routes compute them (the
convolution dp and the dense transition-matrix walk) and must agree
exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .approximation import TooLarge, linprog
from .discrepancy import disc
from .polynomials import monomials_upto_deg


class EmptyClass(ValueError):
    def __init__(self, s):
        super().__init__(f"residue class s = {s} is empty")
        self.s = s


class Infeasible(RuntimeError):
    pass


@dataclass(frozen=True)
class DistributionTable:
    m: int
    n: int
    probs: tuple  # Fractions, denominator 2^n

    def __post_init__(self):
        # Exact and cheaper than adding m Fractions: every denominator
        # divides 2^n, and the implied counts p 2^n sum to 2^n.
        den = 2 ** self.n
        total = 0
        for p in self.probs:
            q, r = divmod(den, p.denominator)
            if r:
                raise ValueError(f"probability {p} is not a multiple of "
                                 f"2^-{self.n}")
            total += p.numerator * q
        if total != den:
            raise ValueError("probabilities do not sum to 1")

    def max_deviation(self):
        """max_s |p_s - 1/m| = max_s |c_s m - 2^n| / (m 2^n), with the
        integer counts c_s = p_s 2^n; one Fraction is made at the end."""
        den = 2 ** self.n
        dev = max(abs(p.numerator * (den // p.denominator) * self.m - den)
                  for p in self.probs)
        return Fraction(dev, self.m * den)

    def to_json_dict(self):
        return {
            "schema": "lowdisc.distribution_table/1",
            "m": str(self.m),
            "n": str(self.n),
            "probs": [{"num": str(p.numerator), "den": str(p.denominator)}
                      for p in self.probs],
        }


def residue_class(Z, s):
    """All x in {0,1}^n with sum z_j x_j = s (mod m), exhaustively (n <= 20).

    x is a tuple of 0/1 with x[j] multiplying z_j.
    """
    n = Z.cardinality
    if n > 20:
        raise TooLarge(f"n = {n} > cap 20")
    m = Z.m
    s = s % m
    w = np.array([z % m for z in Z.elements], dtype=np.int64)
    idx = np.arange(2 ** n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1  # little-endian: bit j = x_j
    forms = (bits @ w) % m
    return [tuple(int(b) for b in bits[i]) for i in np.nonzero(forms == s)[0]]


def _dp_counts(Z):
    """counts[s] = #{x : sum z_j x_j = s mod m}, by the convolution
    recurrence counts <- counts + shift_z(counts) (exact integers)."""
    counts = np.zeros(Z.m, dtype=object)  # Python ints: counts reach 2^n
    counts[0] = 1
    for z in Z.elements:
        counts = counts + np.roll(counts, z % Z.m)
    return counts.tolist()


def _walk_counts(Z):
    """Same counts via the dense transition-matrix walk
    p_n = T_{-z_n} ... T_{-z_1} p_0 with T_{-z} = (I + shift_z)/2,
    written as literal matrix-vector products over integers (the factor
    2^n is restored at the end)."""
    m = Z.m
    vec = [0] * m
    vec[0] = 1
    for z in Z.elements:
        zz = z % m
        # row i of 2*T_{-z}: 1 at column i and at column (i - z) mod m
        T = [[0] * m for _ in range(m)]
        for i in range(m):
            T[i][i] += 1
            T[i][(i - zz) % m] += 1
        vec = [sum(T[i][j] * vec[j] for j in range(m)) for i in range(m)]
    return vec


def exact_distribution(Z, method="dp"):
    """DistributionTable of Pr[sum z_j X_j = s (mod m)] for uniform X."""
    n, m = Z.cardinality, Z.m
    if method == "dp":
        if n * m > 10 ** 8:
            raise TooLarge("n*m exceeds dp cap 1e8")
        counts = _dp_counts(Z)
    elif method == "walk":
        if m > 512 or n > 10 ** 4:
            raise TooLarge("walk caps: m <= 512, n <= 1e4")
        counts = _walk_counts(Z)
    else:
        raise ValueError(f"unknown method {method!r}")
    den = 2 ** n
    return DistributionTable(m=m, n=n,
                             probs=tuple(Fraction(c, den) for c in counts))


def binary_entropy(delta):
    if delta in (0, 1):
        return 0.0
    return -delta * math.log2(delta) - (1 - delta) * math.log2(1 - delta)


def _fourier_bound(Z):
    """(1/m) sum_{k=1}^{m-1} |prod_j (1 + omega^{k z_j})/2|.

    One pass over Z updates the products for every k at once, reading
    the factors from a table over the residues r = k z_j mod m. The value
    is serialized, so each step repeats the rounding of the scalar
    complex loop (kept as the oracle in the tests): the exponent is
    (2 pi r)/m on the imaginary axis, the product is written out in real
    and imaginary parts (numpy's complex array multiply may round
    differently), and the magnitudes are summed left to right in k.
    """
    m = Z.m
    arg = np.zeros(m, dtype=np.complex128)
    arg.imag = (2 * np.pi * np.arange(m)) / m
    f = (1 + np.exp(arg)) / 2
    fr, fi = f.real.copy(), f.imag.copy()
    k = np.arange(1, m, dtype=np.int64)
    pr = np.ones(m - 1)
    pi = np.zeros(m - 1)
    for z in Z.elements:
        r = (k * (z % m)) % m
        gr, gi = fr[r], fi[r]
        pr, pi = pr * gr - pi * gi, pr * gi + pi * gr
    total = 0.0
    for v in np.hypot(pr, pi).tolist():
        total += v
    return total / m


def uniformity_report(Z, delta=0.0):
    """Observed deviation from uniform, the Fourier-sum bound, the
    disc-based bound ((1+disc)/2)^(n/2), and the largest admissible m from

        2 <= m <= (2(1-2 delta)/(1+disc))^((1/2-delta) n) * 2^(-H(delta) n - 2).

    Asserts observed <= Fourier bound <= disc bound (+ numeric error).
    """
    if not (0 <= delta < 0.5):
        raise ValueError("need 0 <= delta < 1/2")
    table = exact_distribution(Z, method="dp")
    m, n = Z.m, Z.cardinality
    cert = disc(Z)

    fourier = _fourier_bound(Z)

    disc_bound = ((1 + cert.value) / 2) ** (n / 2)
    observed = float(table.max_deviation())
    slack = 1e-12 + (n + m) * 16 * 2.22e-16
    if not (observed <= fourier + slack and fourier <= disc_bound + slack):
        raise AssertionError("uniformity bound chain violated")

    base = 2 * (1 - 2 * delta) / (1 + cert.value)
    if base <= 0:
        admissible_m = 0
    else:
        log2_bound = (0.5 - delta) * n * math.log2(base) - binary_entropy(delta) * n - 2
        admissible_m = math.floor(2 ** log2_bound) if log2_bound < 63 else 2 ** 63
    return {
        "m": m,
        "n": n,
        "observed_deviation": observed,
        "fourier_bound": fourier,
        "disc_bound": disc_bound,
        "disc": cert.value,
        "delta": delta,
        "admissible_m": admissible_m,
        "table": table,
    }


@dataclass
class FoolingFamily:
    m: int
    degree: int
    classes: dict       # s -> list of 0/1 tuples (the class X_s)
    weights: dict       # s -> list of floats (probability per class point)
    residual: float

    def expectation(self, s, monomial):
        pts = self.classes[s]
        w = self.weights[s]
        return float(sum(wi for x, wi in zip(pts, w)
                         if all(x[j] for j in monomial)))


def fooling_distributions(Z, d):
    """Per-class distributions mu_s whose monomial expectations up to
    degree d agree across classes (moment spread minimized in infinity
    norm; accepted when <= 1e-9).

    Raises EmptyClass if some residue class is empty, Infeasible when the
    LP cannot make the spread small.
    """
    n, m = Z.cardinality, Z.m
    if n > 20 or m > 64 or d > n:
        raise TooLarge("caps: n <= 20, m <= 64, d <= n")
    classes = {}
    for s in range(m):
        pts = residue_class(Z, s)
        if not pts:
            raise EmptyClass(s)
        classes[s] = pts

    monos = monomials_upto_deg(n, d)  # () first; the LP rows skip it
    # Variables: point masses per class, then the spread t.
    offsets, total = {}, 0
    for s in range(m):
        offsets[s] = total
        total += len(classes[s])
    t_idx = total

    A_ub, b_ub = [], []
    A_eq, b_eq = [], []
    for s in range(m):
        row = [0.0] * (total + 1)
        for i in range(len(classes[s])):
            row[offsets[s] + i] = 1.0
        A_eq.append(row)
        b_eq.append(1.0)
    # |E_{mu_s}[x^a] - E_{mu_0}[x^a]| <= t for s >= 1
    for mono in monos[1:]:
        base_cols = [(offsets[0] + i, 1.0)
                     for i, x in enumerate(classes[0]) if all(x[j] for j in mono)]
        for s in range(1, m):
            cols = [(offsets[s] + i, 1.0)
                    for i, x in enumerate(classes[s]) if all(x[j] for j in mono)]
            for sign in (1.0, -1.0):
                row = [0.0] * (total + 1)
                for c, v in cols:
                    row[c] = sign * v
                for c, v in base_cols:
                    row[c] -= sign * v
                row[t_idx] = -1.0
                A_ub.append(row)
                b_ub.append(0.0)

    cost = [0.0] * (total + 1)
    cost[t_idx] = 1.0
    res = linprog(cost, A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=b_ub or None, A_eq=np.array(A_eq), b_eq=b_eq,
                  bounds=[(0, None)] * total + [(0, None)],
                  method="highs")
    if not res.success:
        raise Infeasible(f"LP failed: {res.message}")

    weights = {s: [max(0.0, res.x[offsets[s] + i]) for i in range(len(classes[s]))]
               for s in range(m)}
    # Independent residual check: exhaustive monomial sweep.
    residual = 0.0
    for mono in monos:
        exps = [sum(w for x, w in zip(classes[s], weights[s])
                    if all(x[j] for j in mono))
                for s in range(m)]
        residual = max(residual, max(exps) - min(exps))
    if residual > 1e-9:
        raise Infeasible(f"moment spread {residual:.3e} > 1e-9 at degree {d}")
    return FoolingFamily(m=m, degree=d, classes=classes, weights=weights,
                         residual=residual)
