"""Number theory shared by the other modules, and the one real DFT that
`disc` and the circulant spectra take.

Everything here is a pure function. Primes come from sieves: the
boolean sieve of Eratosthenes, and a sieve of an interval by the primes
up to the square root of its end. Factorizations come from one trial
division. A real DFT of odd prime length m runs as two real
correlations of length (m - 1)/2, indexed by powers of a primitive root,
one after the other, each transforming its own cos or sin kernel (only
the index table is cached per m); every other length takes numpy's real
FFT. real_dft_error bounds the rounding error of either route a priori.
"""

import functools
import math

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
    """(p, n) for the odd prime m < 3e9: p[a] = g^a mod m for a < h =
    (m - 1)/2 and a primitive root g, as a read-only uint32 array
    (_root_powers), and n the power of two >= 2h - 1, the padded length
    of the correlations. The kernel spectra are not part of the plan:
    each _real_dft_prime call transforms its own. Raises ValueError for
    m >= 3e9, before it allocates."""
    if m >= 3e9:
        raise ValueError(f"Rader plan needs m < 3e9, got {m}")
    h = (m - 1) // 2
    p = _root_powers(primitive_root(m), m, h)
    p.flags.writeable = False
    return p, 1 << (2 * h - 2).bit_length()


def _real_dft_prime(x):
    """real_dft of x of odd prime length m, at the h = (m - 1)/2
    frequencies k = p[a] = g^a mod m.

    Rader's reindexing (Proc. IEEE 56, 1968) by powers of a primitive root
    g, with g^h = -1 mod m: for u+-[b] = x[p[b]] +- x[m - p[b]],

        Re F(p[a]) = x_0 + sum_b u+[b] cos(2 pi p[(a + b) mod h] / m),
        Im F(p[a]) = sum_b u-[b] (+-) sin(2 pi p[(a + b) mod h] / m),

    the sign - where a + b >= h: a cyclic and a negacyclic correlation of
    length h, each one zero-padded rfft/irfft pair of length n (no
    wrap-around, as n >= 2h - 1) and one rfft of its kernel. Three
    buffers serve both: a length-n transform buffer, a spectrum buffer
    and a kernel-spectrum buffer. u+- is gathered reversed into the head
    of the transform buffer, _GATHER residues at a time, over a zeroed
    tail, and transformed into the spectrum buffer. Then the kernel, the
    cos table extended cyclically or the sin table negacyclically to
    c < 2h - 1, is computed in place over the same zeroed tail and
    transformed into the kernel buffer, and the product's irfft is
    written back into the transform buffer. A correlation of u = 0
    (u- = 0 where x[j] = x[m - j]) is exactly 0 and builds no table and
    takes no transform.
    """
    m = len(x)
    p, n = _rader_plan(m)
    h = len(p)
    buf = np.empty(n)
    u, head = buf[h - 1::-1], buf[:h]
    spectrum = np.empty(n // 2 + 1, dtype=np.complex128)
    kernel = np.empty_like(spectrum)

    def correlate(op, table, extend):
        buf[h:] = 0
        for lo in range(0, h, _GATHER):
            q = p[lo:lo + _GATHER]
            op(x[q], x[m - q], out=u[lo:lo + _GATHER], dtype=np.float64)
        if not u.any():
            return np.zeros(h)
        np.fft.rfft(buf, out=spectrum)
        table(np.multiply(p, 2 * np.pi / m, out=head), out=head)
        extend(head[:-1], out=buf[h:2 * h - 1])
        np.fft.rfft(buf, out=kernel)
        np.multiply(spectrum, kernel, out=spectrum)
        return np.fft.irfft(spectrum, n, out=buf)[h - 1:2 * h - 1].copy()

    re = correlate(np.add, np.cos, np.positive)
    re += float(x[0])
    return p, re, correlate(np.subtract, np.sin, np.negative)


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
