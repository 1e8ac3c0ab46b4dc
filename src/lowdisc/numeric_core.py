"""Number theory shared by the other modules, the one real DFT that
`disc` and the circulant spectra take, and the one exact linear solve.

Everything here is a pure function. Primes come from sieves: the
boolean sieve of Eratosthenes, and a sieve of an interval by the primes
up to the square root of its end. Factorizations come from one trial
division. A real DFT of odd prime length m runs as two real
correlations of length (m - 1)/2, indexed by powers of a primitive root;
every other length takes numpy's real FFT. real_dft_error bounds the
rounding error of either route a priori. Linear systems are solved
exactly by Gauss-Jordan elimination in Fraction arithmetic.
"""

import functools
import math
from fractions import Fraction

import numpy as np


class NotCoprime(ValueError):
    pass


def primes_in_halfopen(lo, hi):
    """All primes in the half-open interval (lo, hi], as an ascending tuple:
    a sieve of the interval by the primes up to sqrt(hi).

    lo and hi may be real; the empty range is fine.
    """
    if not (1 <= lo <= hi):
        raise ValueError("need hi >= lo >= 1")
    first, stop = max(2, math.floor(lo) + 1), math.floor(hi)
    seg = np.ones(max(0, stop - first + 1), dtype=bool)
    for p in np.flatnonzero(prime_sieve(math.isqrt(stop))).tolist():
        seg[max(p * p, -(-first // p) * p) - first::p] = False
    return tuple((np.flatnonzero(seg) + first).tolist())


def prime_sieve(n):
    """A bool array s of length n + 1: s[k] is whether k is prime."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return sieve


def mod_inverse(a, m):
    """Inverse of a modulo m, in {1, ..., m-1}.

    Raises NotCoprime when gcd(a, m) != 1.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if a < 1:
        raise ValueError("a must be positive")
    g = math.gcd(a, m)
    if g != 1:
        raise NotCoprime(f"gcd({a}, {m}) = {g}")
    return pow(a, -1, m)


def prime_divisors(n):
    """The distinct prime divisors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    found = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            found.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        found.append(n)
    return found


def distinct_prime_divisors(n):
    """nu(n): number of distinct prime divisors, by trial division."""
    return len(prime_divisors(n))


def is_odd_prime(n):
    """Whether n is a prime other than 2."""
    return n > 2 and prime_divisors(n) == [n]


def primitive_root(p):
    """The least primitive root g of the prime p: g^((p-1)/q) != 1 mod p
    for every prime q dividing p - 1."""
    qs = prime_divisors(p - 1) if p > 2 else []
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


# _real_dft_prime gathers u+- this many residues at a time.
_GATHER = 1 << 16


def _root_powers(g, m, h):
    """g^a mod m for a < h, as a uint32 array, for m < 3e9: by doubling,
    each half the one before times g^done, multiplied in int64 (a product
    of two residues is below 9e18 < 2^63; in uint32 it would wrap)."""
    p = np.empty(h, dtype=np.uint32)
    p[0], done = 1, 1
    while done < h:
        step = min(done, h - done)
        q = np.multiply(p[:step], pow(g, done, m), dtype=np.int64)
        p[done:done + step] = np.remainder(q, m, out=q)
        done += step
    return p


@functools.lru_cache(maxsize=2)
def _rader_plan(m):
    """(p, n, cos_hat, sin_hat) for the odd prime m < 3e9: p[a] = g^a mod m
    for a < h = (m - 1)/2 and a primitive root g, as uint32 (_root_powers);
    n the power of two >= 2h - 1; and the rffts of length n of the cyclic
    extension of cos(2 pi p[c] / m) and the negacyclic one of
    sin(2 pi p[c] / m) to c < 2h - 1, each table computed in place in the
    head of one zeroed length-n buffer. Read-only. Raises ValueError for
    m >= 3e9, before it allocates."""
    if m >= 3e9:
        raise ValueError(f"Rader plan needs m < 3e9, got {m}")
    h = (m - 1) // 2
    p = _root_powers(primitive_root(m), m, h)
    n = 1 << (2 * h - 2).bit_length()
    ext = np.zeros(n)
    head = np.cos(np.multiply(p, 2 * np.pi / m, out=ext[:h]), out=ext[:h])
    ext[h:2 * h - 1] = head[:-1]
    cos_hat = np.fft.rfft(ext)
    np.sin(np.multiply(p, 2 * np.pi / m, out=head), out=head)
    np.negative(head[:-1], out=ext[h:2 * h - 1])
    sin_hat = np.fft.rfft(ext)
    for a in (p, cos_hat, sin_hat):
        a.flags.writeable = False
    return p, n, cos_hat, sin_hat


def _real_dft_prime(x):
    """real_dft of x of odd prime length m, at the h = (m - 1)/2
    frequencies k = p[a] = g^a mod m.

    Rader's reindexing (Proc. IEEE 56, 1968) by powers of a primitive root
    g, with g^h = -1 mod m: for u+-[b] = x[p[b]] +- x[m - p[b]],

        Re F(p[a]) = x_0 + sum_b u+[b] cos(2 pi p[(a + b) mod h] / m),
        Im F(p[a]) = sum_b u-[b] (+-) sin(2 pi p[(a + b) mod h] / m),

    the sign - where a + b >= h: a cyclic and a negacyclic correlation of
    length h, each one zero-padded rfft/irfft pair of length n (no
    wrap-around, as n >= 2h - 1). Both run in one length-n buffer and
    one spectrum buffer: u+- is gathered reversed into the head of the
    buffer, _GATHER residues at a time, over a zeroed tail, and the irfft
    is written back into it. A correlation of u = 0 (u- = 0 where
    x[j] = x[m - j]) is exactly 0 and takes no transform.
    """
    m = len(x)
    p, n, cos_hat, sin_hat = _rader_plan(m)
    h = len(p)
    buf = np.empty(n)
    u = buf[h - 1::-1]
    spectrum = np.empty(n // 2 + 1, dtype=np.complex128)

    def correlate(op, kernel_hat):
        buf[h:] = 0
        for lo in range(0, h, _GATHER):
            q = p[lo:lo + _GATHER]
            op(x[q], x[m - q], out=u[lo:lo + _GATHER], dtype=np.float64)
        if not u.any():
            return np.zeros(h)
        np.fft.rfft(buf, out=spectrum)
        np.multiply(spectrum, kernel_hat, out=spectrum)
        return np.fft.irfft(spectrum, n, out=buf)[h - 1:2 * h - 1].copy()

    re = correlate(np.add, cos_hat)
    re += float(x[0])
    return p, re, correlate(np.subtract, sin_hat)


def real_dft(x):
    """The DFT F(k) = sum_j x_j exp(2 pi i k j / m) of a real vector x of
    length m >= 2 at one frequency k != 0 of each pair {k, m - k}, whose
    values are conjugate: (k, Re F(k), Im F(k)) as arrays. An odd prime m
    takes _real_dft_prime; any other m takes np.fft.rfft at
    k = 1..floor(m/2) (its exp(-2 pi i k j / m) gives the conjugate)."""
    m = len(x)
    if is_odd_prime(m):
        return _real_dft_prime(x)
    half = np.fft.rfft(x.astype(np.float64))[1:m // 2 + 1]
    return np.arange(1, m // 2 + 1), half.real, -half.imag


def real_dft_error(m):
    """beta(m) with ||F^ - F||_2 <= beta(m) ||x||_2 over the frequencies
    real_dft returns, for any float64 vector x of length m: F is the exact
    DFT of x and F^ what real_dft computes. An a priori bound after Higham
    (Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm. 24.2):
    a transform of length N = 2^t with twiddle factors within mu of the
    exact ones has relative error at most eps_t = t eta / (1 - t eta) in
    the 2-norm, eta = mu + gamma_4 (sqrt 2 + mu); with mu <= 2u
    (u = 2^-53), eta <= 8u. Each route of real_dft is at worst a
    correlation of inputs of 2-norm <= 2 ||x||_2 with kernels of length
    L < 2m and entries of modulus <= 1 (Rader's cos and sin tables,
    numpy's Bluestein chirp), through three such transforms (input,
    kernel, inverse) with t <= log2(4m): its error is at most
    2 L (3 eps_t + 33u) ||x||_2, where 33u covers the pointwise products,
    the kernel entries (within 21u) and the sums and differences u+-.
    docs/formats.md has the derivation."""
    unit = 2.0 ** -53
    t = (4 * m).bit_length()
    eps_t = t * 8 * unit / (1 - t * 8 * unit)
    return 4 * m * (3 * eps_t + 33 * unit)


def solve_exact(M, b):
    """The unique x with M x = b, in Fraction arithmetic, when the R x N
    matrix M has full column rank N and the system is consistent; None
    otherwise. Gauss-Jordan elimination on the augmented rows (M | b)."""
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
