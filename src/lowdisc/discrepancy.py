"""m-discrepancy of integer multisets: exact evaluation, the element
digest, and seeded random search.

The discrepancy of a multiset Z modulo m is

    disc(Z, m) = max_{k=1..m-1} |(1/n) sum_j omega^{k z_j}|,   omega = exp(2 pi i / m),

computed here from the frequency vector of Z. Values are doubles with a
certified error bound; a 50-digit cross-check oracle is available for
small moduli.
"""

import functools
import math

import numpy as np

from .numeric_core import real_dft

_EPS_MACHINE = 2.220446049250313e-16


class BudgetExhausted(RuntimeError):
    """Random search ran out of trials; .best carries the best candidate."""

    def __init__(self, message, best=None, best_value=None):
        super().__init__(message)
        self.best = best
        self.best_value = best_value


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Bytes of digest text hashed per call of _fnv1a.
_DIGEST_CHUNK = 1 << 18

# Elements per block of element text: a block of residues, its digit
# cells and its digest scratch stay in cache while it is hashed, quoted
# and written.
_TEXT_BLOCK = 1 << 15

# Residues summed per step of disc_at: bounds its working arrays to a few
# MB on a complete residue system.
_AT_BLOCK = 1 << 16


def _residues(elements, m):
    """The elements reduced mod m, as an int64 array; elements outside
    int64 are reduced exactly as Python ints."""
    try:
        arr = np.asarray(elements, dtype=np.int64)
    except OverflowError:
        return np.fromiter((e % m for e in elements), dtype=np.int64,
                           count=len(elements))
    return arr % m


def _decimal_fields(values, end, width=0):
    """The nonnegative int64 `values` as a (len, w + 1) uint8 array view:
    row j is values[j] in ASCII decimal, right-aligned and NUL-padded to
    w = max(width, digits of the largest value), then the byte `end`.
    Digits are taken on uint32 lanes when every value fits."""
    top = int(values.max(initial=0))
    digits = len(str(top))
    w = max(width, digits)
    cells = np.zeros((w + 1, len(values)), dtype=np.uint8)
    cells[w] = end
    x = values.astype(np.uint32 if top < 2 ** 32 else np.uint64)
    for row in range(w - 1, w - digits - 1, -1):
        q = x // 10
        cells[row] = x - q * 10
        x = q
    cells[w - digits:w] += ord("0")
    powers = 10 ** np.arange(digits - 1, 0, -1, dtype=np.int64)
    cells[w - digits:w - 1][values < powers[:, None]] = 0
    return cells.T


def _comma_decimals(values):
    """",".join(map(str, values)) as ASCII bytes, for nonnegative int64
    `values`: their decimal fields, each ended by a comma but the last,
    with the NULs deleted."""
    cells = _decimal_fields(values, ord(","))
    cells[-1:, -1] = 0
    return cells.tobytes().translate(None, b"\0")


def _comma_blocks(m):
    """The text ",".join(map(str, range(m))) as ASCII blocks of
    _TEXT_BLOCK residues, each ended by a comma but the last."""
    for lo in range(0, m, _TEXT_BLOCK):
        hi = min(lo + _TEXT_BLOCK, m)
        yield _comma_decimals(np.arange(lo, hi)) + b"," * (hi < m)


def _joined_blocks(strings):
    """",".join(strings).encode() in the blocks of _comma_blocks: one per
    _TEXT_BLOCK strings, each ended by a comma but the last. Raises
    TypeError on an item that is not a str."""
    for lo in range(0, len(strings), _TEXT_BLOCK):
        more = lo + _TEXT_BLOCK < len(strings)
        yield (",".join(strings[lo:lo + _TEXT_BLOCK]) + "," * more).encode()


def _is_decimal(v):
    """Whether the JSON value v is an integer: an int (not a bool), or an
    ASCII decimal string -?(0|[1-9][0-9]*). int() also takes a "+", a
    space, a leading zero, an underscore and a non-ASCII digit; no
    writer does."""
    if type(v) is not str:
        return type(v) is int
    digits = v[1:] if v.startswith("-") else v
    return (digits.isascii() and digits.isdigit()
            and (digits == "0" or digits[0] != "0"))


def _splice_chunks(text, depth, key, items):
    """`text`, the UTF-8 of an indent=2 json.dumps holding `"key": []` at
    depth `depth`, as chunks with that list filled from `items`: byte
    chunks of its entries (at least one), each at depth + 1, joined by a
    comma, a newline and that indent."""
    pad = "\n" + "  " * depth
    head, _, tail = text.partition(f'{pad}"{key}": []'.encode())
    yield head + f'{pad}"{key}": [{pad}  '.encode()
    yield from items
    yield f"{pad}]".encode() + tail


def _lane_scan(words):
    """Prefix XOR, in place, of the 8 byte lanes of each uint64 word, from
    its low lane up."""
    words ^= words << np.uint64(8)
    words ^= words << np.uint64(16)
    words ^= words << np.uint64(32)


def _fnv1a_low_bytes(data, h):
    """The low byte of the FNV-1a state before each byte of `data` (a
    uint8 array whose length is a multiple of 8), starting from state h.

    The low byte of (h ^ b) * P depends only on the low byte of h ^ b, and
    since P's low byte 0xB3 is odd, its bit k is bit k of h ^ b xor a
    function of the bits below k. So once bits < k of every state are
    known, bit k of state i + 1 is bit k of state i xor a known bit t_i,
    and bit k of all states is a prefix XOR of (bit k of h, t_0, t_1, ...).
    Eight passes give the whole byte. Each prefix XOR runs within 64-bit
    words of 8 byte lanes first; then over the words' top lanes, copied 8
    to a word and scanned the same way, with an accumulate only across
    those words; then each word takes the scan of the top lanes before it.
    """
    s = np.zeros(len(data), dtype=np.uint8)
    t = np.empty(len(data), dtype=np.uint8)
    words = t.view("<u8")
    tops = np.zeros(-(-len(words) // 8) * 8, dtype=np.uint8)
    top_words = tops.view("<u8")
    lanes = np.uint64(0x0101010101010101)
    for k in range(8):
        bit = 1 << k
        np.bitwise_xor(s[:-1], data[:-1], out=t[1:])
        np.multiply(t[1:], _FNV_PRIME & 0xFF, out=t[1:])
        np.bitwise_and(t[1:], bit, out=t[1:])
        t[0] = h & bit
        _lane_scan(words)
        tops[:len(words)] = t[7::8]
        _lane_scan(top_words)
        carry = np.bitwise_xor.accumulate(top_words[:-1] >> np.uint64(56))
        top_words[1:] ^= carry * lanes
        words[1:] ^= tops[:len(words) - 1] * lanes
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
    powers = _fnv_powers(1 << (n - 1).bit_length())[-n:]
    tail = int(np.dot(d.view(np.uint64), powers))
    return (h * int(powers[0]) + tail) & 0xFFFFFFFFFFFFFFFF


@functools.lru_cache(maxsize=4)
def _fnv_powers(n):
    """P^n, ..., P^1 mod 2^64 (read-only), for n a power of two: its last
    k entries are the powers a piece of k <= n bytes takes, so pieces of
    every length up to n share one table."""
    powers = np.empty(n, dtype=np.uint64)
    up = powers[::-1]  # P^1 .. P^n, by doubling
    up[0], done = _FNV_PRIME, 1
    while done < n:
        step = min(done, n - done)
        np.multiply(up[:step], up[done - 1], out=up[done:done + step])
        done += step
    powers.flags.writeable = False
    return powers


def elements_digest(elements, m, blocks=None):
    """Digest of a residue multiset: FNV-1a-64 of the sorted residues
    rendered as comma-joined decimal strings (bit-exact spec in
    docs/formats.md), hashed _DIGEST_CHUNK bytes at a time. `blocks`, when
    given, is that rendering in byte blocks, and `elements` is not read."""
    if blocks is None:
        blocks = [_comma_decimals(np.sort(_residues(elements, m)))]
    h = _FNV_OFFSET
    for block in blocks:
        for start in range(0, len(block), _DIGEST_CHUNK):
            h = _fnv1a(memoryview(block)[start:start + _DIGEST_CHUNK], h)
    return h


def _count_dtype(n):
    """The dtype of the counts of an n-element multiset: the smallest
    unsigned one that holds n (uint8 below 256, uint16 below 65,536),
    else int64."""
    return np.uint8 if n < 256 else np.uint16 if n < 65536 else np.int64


class IntegerMultiset:
    """Multiset of integers considered modulo m, with its frequency vector
    freq: a read-only array of length m, in _count_dtype(|Z|), so 1 byte
    per residue below 256 elements. Arithmetic on freq casts it first,
    as real_dft does; uint8 sums and differences wrap."""

    def __init__(self, elements, m):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = int(m)
        self._elements = tuple(map(int, elements))
        self.freq = np.zeros(self.m, dtype=_count_dtype(len(self._elements)))
        np.add.at(self.freq, _residues(self._elements, self.m), 1)
        self.freq.flags.writeable = False
        self._kernel = None  # (value, argmax_k, numeric_error): _disc_value

    @classmethod
    def residue_system(cls, m):
        """{0, ..., m-1}, built from its frequency vector: all ones, as a
        read-only stride-0 view of one count, so it holds no m-long array.
        The element tuple is made only if `elements` is read."""
        Z = cls((), m)
        Z._elements = None
        Z.freq = np.broadcast_to(_count_dtype(Z.m)(1), (Z.m,))
        return Z

    @property
    def elements(self):
        if self._elements is None:
            self._elements = tuple(range(self.m))
        return self._elements

    @property
    def cardinality(self):
        return self.m if self._elements is None else len(self._elements)

    @functools.cached_property
    def element_blocks(self):
        """The elements in order as ASCII decimals joined by commas, in
        the blocks of _comma_blocks (joined, they are the text). The
        residue system's come from the digit kernel, and its digest reads
        them."""
        if self._elements is None:
            return list(_comma_blocks(self.m))
        return list(_joined_blocks(tuple(map(str, self._elements))))

    def residues(self):
        return tuple(e % self.m for e in self.elements)

    def digest(self):
        blocks = self.element_blocks if self._elements is None else None
        return elements_digest(self._elements, self.m, blocks)

    def duplicate(self, k):
        return IntegerMultiset(self.elements * k, self.m)

    def __eq__(self, other):
        return (isinstance(other, IntegerMultiset) and self.m == other.m
                and np.array_equal(self.freq, other.freq))

    def __repr__(self):
        return f"IntegerMultiset(n={self.cardinality}, m={self.m})"


class DiscrepancyCertificate:
    def __init__(self, m, n, value, argmax_k, numeric_error,
                 elements_digest):
        self.m = m
        self.n = n
        self.value = value
        self.argmax_k = argmax_k
        self.numeric_error = numeric_error
        self.elements_digest = elements_digest

    def __eq__(self, other):
        return (isinstance(other, DiscrepancyCertificate)
                and vars(self) == vars(other))

    def to_json_dict(self):
        return {
            "schema": "lowdisc.discrepancy_certificate/5",
            "m": str(self.m),
            "n": str(self.n),
            "value": self.value,
            "argmax_k": str(self.argmax_k),
            "numeric_error": self.numeric_error,
            "elements_digest": str(self.elements_digest),
        }


def _fourier_peak(freq):
    """(peak, k, support): the largest |sum_j f_j omega^{kj}| over
    k = 1..m-1, the smallest k attaining it, and the support size.

    One real DFT (real_dft) gives k and m - k one value (conjugates tie
    exactly), so k is the smallest of its tied pair.

    hypot runs only on the candidates whose s = re^2 + im^2 is within a
    relative 64 ulps of max(s), and every maximizer of hypot over all k is
    one of them: s is within 2 eps of |F|^2 (two squares and a sum, each
    rounded once), hypot within a few ulps of |F|, and a nonconstant
    frequency vector has max |F| >= 1 (Parseval), so no square underflows.
    So peak and k are those of hypot over every frequency.
    """
    m = len(freq)
    ks, re, im = real_dft(freq)
    s = re * re
    s += im * im
    near = np.flatnonzero(s >= s.max() * (1 - 64 * _EPS_MACHINE))
    mags = np.hypot(re[near], im[near])
    peak = mags.max()
    k = np.minimum(ks[near], m - ks[near])[mags == peak].min()
    return float(peak), int(k), int(np.count_nonzero(freq))


def _numeric_error(support, m):
    return support * 4 * _EPS_MACHINE * m


def _disc_value(Z):
    """(value, argmax_k, numeric_error): the disc kernel without the
    element digest, for ranking candidates; kept on Z, so a candidate
    ranked here is not transformed again for its certificate.

    The empty multiset has value 0 by convention. A constant nonzero
    frequency vector (c copies of {0, ..., m-1}) has value exactly 0 with
    no transform: for k != 0 the m-th roots of unity omega^{kj} sum to 0.
    Both take argmax_k = 1, the smallest of the tied k."""
    if Z._kernel is None:
        f = Z.freq
        if Z.cardinality == 0 or (f[0] and not np.any(f != f[0])):
            Z._kernel = (0.0, 1, 0.0)
        else:
            peak, k, support = _fourier_peak(f)
            value = peak / Z.cardinality
            Z._kernel = (min(value, 1.0), k, _numeric_error(support, Z.m))
    return Z._kernel


def disc(Z):
    """Discrepancy certificate for an IntegerMultiset."""
    value, k, numeric_error = _disc_value(Z)
    return DiscrepancyCertificate(m=Z.m, n=Z.cardinality, value=value,
                                  argmax_k=k, numeric_error=numeric_error,
                                  elements_digest=Z.digest())


def disc_at(Z, k):
    """|(1/n) sum_j omega^{k z_j}| at the one frequency k, summed directly
    over Z's support, _AT_BLOCK residues at a time (0 for the empty
    multiset)."""
    support, m, s = np.flatnonzero(Z.freq), Z.m, 0j
    for lo in range(0, len(support), _AT_BLOCK):
        j = support[lo:lo + _AT_BLOCK]
        s += np.dot(Z.freq[j], np.exp(2j * np.pi * ((k * j) % m) / m))
    return abs(s) / max(Z.cardinality, 1)


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
    failed trials. At size m - 1 every trial draws the one candidate
    {1, ..., m-1}, so it is evaluated once, with the same outcome.
    """
    if not (1 <= size <= m - 1):
        raise ValueError("need 1 <= size <= m-1")
    if not (0 < eps <= 1):  # every multiset has disc <= 1
        raise ValueError("need 0 < eps <= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if seed is None:
        raise ValueError("seed is required (sampling mode)")
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    best, best_value = None, math.inf
    for _ in range(budget if size < m - 1 else 1):
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
