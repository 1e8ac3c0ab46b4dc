"""m-discrepancy of integer multisets: exact evaluation, the element
digest, and seeded random search.

The discrepancy of a multiset Z modulo m is

    disc(Z, m) = max_{k=1..m-1} |(1/n) sum_j omega^{k z_j}|,   omega = exp(2 pi i / m),

computed here from the frequency vector of Z. Values are doubles with a
certified error bound; a 50-digit cross-check oracle is available for
small moduli.
"""

import math
from dataclasses import dataclass

import numpy as np

_EPS_MACHINE = 2.220446049250313e-16

# Threshold at which the dense exact-length FFT beats the per-entry loop.
_FFT_DENSITY = 64


class BudgetExhausted(RuntimeError):
    """Random search ran out of trials; .best carries the best candidate."""

    def __init__(self, message, best=None, best_value=None):
        super().__init__(message)
        self.best = best
        self.best_value = best_value


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Residues rendered and hashed per chunk, so the decimal text of a large
# set is never held whole.
_DIGEST_CHUNK = 1 << 16


def _residues(elements, m):
    """The elements reduced mod m, as an int64 array; elements outside
    int64 are reduced exactly as Python ints."""
    try:
        arr = np.asarray(elements, dtype=np.int64)
    except OverflowError:
        return np.fromiter((e % m for e in elements), dtype=np.int64,
                           count=len(elements))
    return arr % m


def _comma_decimals(residues):
    """The nonnegative int64 `residues` as ASCII text, each one preceded
    by a comma: a table of digit rows (most significant first, one column
    per residue), with leading zeros set to NUL and deleted."""
    width = len(str(int(residues.max())))
    cells = np.empty((width + 1, len(residues)), dtype=np.uint8)
    cells[0] = ord(",")
    x = residues.astype(np.uint64)
    for row in range(width, 0, -1):
        x, digit = np.divmod(x, 10)
        cells[row] = digit
    cells[1:] += ord("0")
    powers = 10 ** np.arange(width - 1, 0, -1, dtype=np.int64)
    cells[1:width][residues < powers[:, None]] = 0
    return cells.T.tobytes().translate(None, b"\0")


def _fnv1a_low_bytes(data, h):
    """The low byte of the FNV-1a state before each byte of `data` (a
    uint8 array whose length is a multiple of 8), starting from state h.

    The low byte of (h ^ b) * P depends only on the low byte of h ^ b, and
    since P's low byte 0xB3 is odd, its bit k is bit k of h ^ b xor a
    function of the bits below k. So once bits < k of every state are
    known, bit k of state i + 1 is bit k of state i xor a known bit t_i,
    and bit k of all states is a prefix XOR of (bit k of h, t_0, t_1, ...).
    Eight passes give the whole byte. Each prefix XOR runs within 64-bit
    words of 8 byte lanes first, then across the words.
    """
    s = np.zeros(len(data), dtype=np.uint8)
    t = np.empty(len(data), dtype=np.uint8)
    words = t.view("<u8")
    for k in range(8):
        bit = 1 << k
        np.bitwise_xor(s[:-1], data[:-1], out=t[1:])
        np.multiply(t[1:], _FNV_PRIME & 0xFF, out=t[1:])
        np.bitwise_and(t[1:], bit, out=t[1:])
        t[0] = h & bit
        words ^= words << np.uint64(8)
        words ^= words << np.uint64(16)
        words ^= words << np.uint64(32)
        carry = np.bitwise_xor.accumulate(words[:-1] >> np.uint64(56))
        words[1:] ^= carry * np.uint64(0x0101010101010101)
        s |= t
    return s


def _fnv1a(data, h):
    """FNV-1a-64 of the byte string `data`, continuing from state h: the
    byte loop `h = ((h ^ b) * P) mod 2^64`, evaluated exactly in numpy.

    With s_i the low byte of the state before byte i, h ^ b_i equals
    h + d_i for d_i = (s_i ^ b_i) - s_i, so the state after n bytes is
    h P^n + sum_i d_i P^(n - i) mod 2^64: a wrapping uint64 dot product.
    """
    n = len(data)
    if n == 0:
        return h
    b = np.zeros(-(-n // 8) * 8, dtype=np.uint8)
    b[:n] = np.frombuffer(data, dtype=np.uint8)
    s = _fnv1a_low_bytes(b, h)[:n]
    d = (s ^ b[:n]).astype(np.int64) - s
    # P^1 .. P^n by doubling
    powers = np.empty(n, dtype=np.uint64)
    powers[0], done = _FNV_PRIME, 1
    while done < n:
        step = min(done, n - done)
        np.multiply(powers[:step], powers[done - 1],
                    out=powers[done:done + step])
        done += step
    tail = int(np.dot(d.view(np.uint64), powers[::-1]))
    return (h * int(powers[-1]) + tail) & 0xFFFFFFFFFFFFFFFF


def elements_digest(elements, m):
    """Digest of a residue multiset: FNV-1a-64 of the sorted residues
    rendered as comma-joined decimal strings (bit-exact spec in
    docs/formats.md), hashed chunk by chunk."""
    residues = np.sort(_residues(elements, m))
    h = _FNV_OFFSET
    for start in range(0, len(residues), _DIGEST_CHUNK):
        text = _comma_decimals(residues[start:start + _DIGEST_CHUNK])
        h = _fnv1a(text[1:] if start == 0 else text, h)
    return h


class IntegerMultiset:
    """Multiset of integers considered modulo m, with its frequency vector
    (a read-only int64 array of length m)."""

    def __init__(self, elements, m):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = int(m)
        self.elements = tuple(map(int, elements))
        self.freq = np.bincount(_residues(self.elements, self.m),
                                minlength=self.m)
        self.freq.flags.writeable = False

    @property
    def cardinality(self):
        return len(self.elements)

    def residues(self):
        return tuple(e % self.m for e in self.elements)

    def digest(self):
        return elements_digest(self.elements, self.m)

    def negate(self):
        return IntegerMultiset([(-e) % self.m for e in self.elements], self.m)

    def reduce(self):
        return IntegerMultiset([e % self.m for e in self.elements], self.m)

    def duplicate(self, k):
        return IntegerMultiset(self.elements * k, self.m)

    def __eq__(self, other):
        return (isinstance(other, IntegerMultiset) and self.m == other.m
                and np.array_equal(self.freq, other.freq))

    def __repr__(self):
        return f"IntegerMultiset(n={self.cardinality}, m={self.m})"


@dataclass(frozen=True)
class DiscrepancyCertificate:
    m: int
    n: int
    value: float
    argmax_k: int
    numeric_error: float
    elements_digest: int

    def to_json_dict(self):
        return {
            "schema": "lowdisc.discrepancy_certificate/1",
            "m": str(self.m),
            "n": str(self.n),
            "value": self.value,
            "argmax_k": str(self.argmax_k),
            "numeric_error": self.numeric_error,
            "elements_digest": str(self.elements_digest),
        }


def _fourier_magnitudes(freq):
    """|sum_j f_j omega^{kj}| for k = 0..m-1, and the support size.

    Sparse inputs use direct O(m*s) accumulation at exact m-th roots, in
    ascending residue order; dense ones use the exact-length FFT
    (pocketfft handles arbitrary m via Bluestein), which evaluates the
    same sums.
    """
    m = len(freq)
    support = np.flatnonzero(freq).tolist()
    if len(support) >= _FFT_DENSITY:
        return np.abs(np.fft.fft(freq.astype(np.float64))), len(support)
    k = np.arange(m)
    acc = np.zeros(m, dtype=complex)
    for j in support:
        acc += int(freq[j]) * np.exp(2j * np.pi * ((k * j) % m) / m)
    return np.abs(acc), len(support)


def _disc_value(Z):
    """(value, argmax_k, support size): the disc kernel without the
    element digest, for ranking candidates. The empty multiset has value
    0 by convention (argmax_k = 1)."""
    if Z.cardinality == 0:
        return 0.0, 1, 0
    mags, support = _fourier_magnitudes(Z.freq)
    # k = 0 is the constant coefficient; ties broken by smallest k.
    k = 1 + int(np.argmax(mags[1:]))
    value = float(mags[k]) / Z.cardinality
    return min(value, 1.0), k, support


def disc(Z):
    """Discrepancy certificate for an IntegerMultiset."""
    value, k, support = _disc_value(Z)
    return DiscrepancyCertificate(m=Z.m, n=Z.cardinality, value=value,
                                  argmax_k=k,
                                  numeric_error=support * 4 * _EPS_MACHINE * Z.m,
                                  elements_digest=Z.digest())


def disc_highprec(Z):
    """Cross-check oracle: the same maximum evaluated with mpmath at 50
    significant digits. The discrepancy value is an algebraic (generally
    irrational) number, so "exact" here means exact roots of unity summed
    at high precision."""
    import mpmath

    m, n = Z.m, Z.cardinality
    if n == 0:
        return mpmath.mpf(0)
    with mpmath.workdps(50):
        best = mpmath.mpf(0)
        items = [(j, int(Z.freq[j])) for j in np.flatnonzero(Z.freq).tolist()]
        for k in range(1, m):
            acc = mpmath.mpc(0)
            for j, f in items:
                acc += f * mpmath.expjpi(mpmath.mpf(2 * ((k * j) % m)) / m)
            best = max(best, abs(acc))
        return best / n


def random_search(m, size, eps, seed, budget):
    """Seeded rejection sampling for a set of `size` distinct nonzero
    residues mod m with disc <= eps. Deterministic given the arguments.

    Raises BudgetExhausted (carrying the best candidate) after `budget`
    failed trials.
    """
    if not (1 <= size <= m - 1):
        raise ValueError("need 1 <= size <= m-1")
    if not (0 < eps < 1):
        raise ValueError("need 0 < eps < 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if seed is None:
        raise ValueError("seed is required (sampling mode)")
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    best, best_value = None, math.inf
    for _ in range(budget):
        cand = rng.choice(m - 1, size=size, replace=False) + 1
        Z = IntegerMultiset(sorted(cand.tolist()), m)
        value = _disc_value(Z)[0]
        if value <= eps:
            return Z
        if value < best_value:
            best, best_value = Z, value
    raise BudgetExhausted(
        f"no set with disc <= {eps} in {budget} trials (best {best_value:.4f})",
        best=best, best_value=best_value)
