"""Exact distribution of linear forms sum z_j X_j mod m under uniform
Boolean inputs, uniformity bounds, and LP-synthesized fooling distributions.

Tables are exact: integer counts over 2^n, kept as Python ints and read
as Fractions with power-of-two denominators. Two independent routes
compute them (the convolution dp on 32-bit limbs and the dense
transition-matrix walk) and must agree exactly.
"""

import math
from fractions import Fraction

import numpy as np

from .approximation import TooLarge, linprog
from .discrepancy import disc
from .numeric_core import real_dft, real_dft_error
from .polynomials import all_points, monomials_upto_deg


class EmptyClass(ValueError):
    def __init__(self, s):
        super().__init__(f"residue class s = {s} is empty")
        self.s = s


class Infeasible(RuntimeError):
    pass


class DistributionTable:
    def __init__(self, m, n, counts):
        self.m = m
        self.n = n
        self.counts = counts  # ints: counts[s] = #{x : sum z_j x_j = s mod m}
        if len(counts) != m:
            raise ValueError(f"{len(counts)} counts for m = {m}")
        if min(counts) < 0:
            raise ValueError("negative count")
        if sum(counts) != 2 ** n:
            raise ValueError(f"counts do not sum to 2^{n}")

    @property
    def probs(self):
        """p_s = counts[s] / 2^n as Fractions."""
        den = 2 ** self.n
        return tuple(Fraction(c, den) for c in self.counts)

    def max_deviation(self):
        """max_s |p_s - 1/m| = max_s |c_s m - 2^n| / (m 2^n)."""
        den = 2 ** self.n
        dev = max(abs(c * self.m - den) for c in self.counts)
        return Fraction(dev, self.m * den)

    def lowest_terms(self):
        """Every p_s in lowest terms, as a (num, den) pair of decimal
        strings: num = c >> v and den = 2^(n - v), with v the trailing
        zero bits of c (0/1 at c = 0). Each denominator is rendered once."""
        dens = {}
        for c in self.counts:
            v = (c & -c).bit_length() - 1 if c else self.n
            if v not in dens:
                dens[v] = str(1 << (self.n - v))
            yield str(c >> v), dens[v]

    def json_header(self):
        """Every field of the table's JSON object but "probs", the list of
        lowest_terms as {"num", "den"} objects."""
        return {"schema": "lowdisc.distribution_table/1",
                "m": str(self.m), "n": str(self.n)}


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
    bits = all_points(n)
    return list(map(tuple, bits[bits @ w % m == s].tolist()))


# Counts are kept as rows of 32-bit limbs in uint64 cells. A step at most
# doubles a cell, so carries wait for _LAZY steps: (2^32 - 1) 2^30 < 2^62.
_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LAZY = 30


def _carry(limbs, top):
    """Propagate the carries of rows 0..top-1 into row `top`."""
    for i in range(top):
        limbs[i + 1] += limbs[i] >> _LIMB_BITS
        limbs[i] &= _LIMB_MASK


def _dp_counts(Z):
    """counts[s] = #{x : sum z_j x_j = s mod m}, by the convolution
    recurrence counts <- counts + shift_z(counts) in exact integers: row i
    of a (rows, m) uint64 array holds bits 32i..32i+31 of every count,
    and each step adds the table and its shift into a second array. After
    j steps a count is at most 2^j, so only rows 0..j//32 (as of the last
    carry) can be nonzero and the others are skipped."""
    m, n = Z.m, Z.cardinality
    limbs = np.zeros((n // _LIMB_BITS + 2, m), dtype=np.uint64)
    spare = np.zeros_like(limbs)
    limbs[0, 0] = 1
    active = 1
    for j, z in enumerate(Z.residues(), 1):
        a = limbs[:active]
        if z == 0:
            a += a
        else:
            b = spare[:active]
            np.add(a[:, z:], a[:, :m - z], out=b[:, z:])
            np.add(a[:, :z], a[:, m - z:], out=b[:, :z])
            limbs, spare = spare, limbs
        if j % _LAZY == 0:
            _carry(limbs, active)
            active = j // _LIMB_BITS + 1
    _carry(limbs, active)
    width = n // _LIMB_BITS + 1
    raw = memoryview(limbs[:width].T.astype("<u4", order="C")).cast("B")
    step = 4 * width
    return [int.from_bytes(raw[i:i + step], "little")
            for i in range(0, len(raw), step)]


def _walk_counts(Z):
    """Same counts via the dense transition-matrix walk
    p_n = T_{-z_n} ... T_{-z_1} p_0 with T_{-z} = (I + shift_z)/2,
    written as literal matrix-vector products over integers (the factor
    2^n is restored at the end): the independent route the tests check
    _dp_counts against, for m <= 512 and n <= 1e4."""
    m = Z.m
    if m > 512 or Z.cardinality > 10 ** 4:
        raise TooLarge("walk caps: m <= 512, n <= 1e4")
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


def _check_dp_cap(n, m):
    """exact_distribution's cap, n * m <= 10^8 for n elements mod m, which
    `dist` checks before it builds the multiset."""
    if n * m > 10 ** 8:
        raise TooLarge("n*m exceeds dp cap 1e8")


def exact_distribution(Z):
    """DistributionTable of Pr[sum z_j X_j = s (mod m)] for uniform X, by
    the limb convolution _dp_counts."""
    n, m = Z.cardinality, Z.m
    _check_dp_cap(n, m)
    return DistributionTable(m=m, n=n, counts=tuple(_dp_counts(Z)))


def binary_entropy(delta):
    if delta in (0, 1):
        return 0.0
    return -delta * math.log2(delta) - (1 - delta) * math.log2(1 - delta)


def _deviations(table):
    """(x, e): the numerators c_s m - 2^n of the deviations
    d_s = p_s - 1/m = (c_s m - 2^n) / (m 2^n), times the exact power of two
    2^-e with 2^(e-1) <= max_s |c_s m - 2^n| < 2^e, each rounded once to
    float64 (e = 0 when every deviation is 0). Below 2^1000 the integers
    convert correctly rounded and the scaling is exact, as no nonzero x_s
    is below 2^-1000; above it each is one correctly rounded division."""
    m, den = table.m, 1 << table.n
    nums = [c * m - den for c in table.counts]
    e = max(max(nums), -min(nums)).bit_length()
    if e < 1000:
        return np.ldexp(np.array(nums, dtype=np.float64), -e), e
    scale = 1 << e
    return np.array([v / scale for v in nums]), e


_UNIT = Fraction(1, 2 ** 53)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), exactly (u = 2^-53)."""
    return k * _UNIT / (1 - k * _UNIT)


def _round_up(q):
    """The least float >= the Fraction q >= 0."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _fourier_bound(table):
    """(bound, error): the Fourier bound
    B = (1/m) sum_{k=1}^{m-1} |prod_j (1 + omega^{k z_j})/2| of the table's
    set, rounded up to a float, and a float error with
    bound - error <= B <= bound. Both are 0 exactly when every deviation
    is 0.

    For k != 0 the product is sum_s p_s omega^{ks} = sum_s d_s omega^{ks}
    with d_s = p_s - 1/m, so B is (1/m) sum_k |F(k)| for F the DFT of the
    deviations: one real_dft of their scaled floats x (_deviations), each
    returned k counted for itself and m - k, and k = m/2 once. S, the
    float sum of the |F^(k)|, is within gamma_{K+3} of the exact sum of
    the computed magnitudes, and those are within
    ||w||_2 (real_dft_error(m) + 2 u sqrt(m)) ||x||_2 of the exact ones
    (Cauchy-Schwarz over the K returned k with their weights w, the second
    term the rounding of x), so B lies in
    (S / (1 -+ gamma_{K+3}) +- that) 2^(e - n) / m^2, evaluated in
    Fraction arithmetic and rounded outward.
    """
    m, n = table.m, table.n
    x, e = _deviations(table)
    if e == 0:
        return 0.0, 0.0
    ks, re, im = real_dft(x)
    mags = np.hypot(re, im)
    total = 2 * float(np.sum(mags)) - (float(mags[-1]) if m % 2 == 0 else 0)
    K = len(ks)
    g = _gamma(K + 3)
    norm = Fraction(math.sqrt(float(np.sum(x * x)))) / (1 - _gamma(m + 3))
    slack = (2 * (math.isqrt(K) + 1) * norm
             * (Fraction(real_dft_error(m)) + 2 * _UNIT * (math.isqrt(m) + 1)))
    scale = Fraction(2 ** e, m * m << n)
    upper = (Fraction(total) / (1 - g) + slack) * scale
    lower = max(Fraction(total) / (1 + g) - slack, 0) * scale
    bound = _round_up(upper)
    return bound, _round_up(bound - lower)


def uniformity_report(Z, delta=0.0):
    """Observed deviation from uniform, the Fourier-sum bound with its
    error, the disc-based bound ((1+disc)/2)^(n/2), and the largest
    admissible m from

        2 <= m <= (2(1-2 delta)/(1+disc))^((1/2-delta) n) * 2^(-H(delta) n - 2).

    Asserts observed <= Fourier bound with no slack: the bound is a float
    at or above the exact Fourier sum, which is at least the exact
    deviation, and observed is that deviation rounded to nearest. Asserts
    that the Fourier bound less its error is at most the disc bound,
    relative to disc's numeric error and the rounding of the power.
    """
    if not (0 <= delta < 0.5):
        raise ValueError("need 0 <= delta < 1/2")
    table = exact_distribution(Z)
    m, n = Z.m, Z.cardinality
    cert = disc(Z)  # caches the transform plan _fourier_bound reuses

    fourier, fourier_error = _fourier_bound(table)

    disc_bound = ((1 + cert.value) / 2) ** (n / 2)
    observed = float(table.max_deviation())
    slack = cert.numeric_error + (n + 2) * 2.0 ** -52
    if not (observed <= fourier
            and fourier - fourier_error <= disc_bound * (1 + slack)):
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
        "fourier_error": fourier_error,
        "disc_bound": disc_bound,
        "disc": cert.value,
        "delta": delta,
        "admissible_m": admissible_m,
        "table": table,
    }


class FoolingFamily:
    def __init__(self, m, degree, classes, weights, residual):
        self.m = m
        self.degree = degree
        self.classes = classes  # s -> list of 0/1 tuples (the class X_s)
        self.weights = weights  # s -> list of floats (probability per point)
        self.residual = residual

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
