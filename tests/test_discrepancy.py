import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowdisc import discrepancy, numeric_core
from lowdisc.construction import build_low_disc_set
from lowdisc.discrepancy import (BudgetExhausted, IntegerMultiset, disc,
                                 disc_highprec, elements_digest,
                                 random_search)

multisets = st.integers(min_value=2, max_value=32).flatmap(
    lambda m: st.lists(st.integers(min_value=0, max_value=4 * m),
                       min_size=1, max_size=12).map(
        lambda els: IntegerMultiset(els, m)))


def test_trivial_set_is_zero():
    for m in (2, 3, 10, 97):
        assert disc(IntegerMultiset(range(m), m)).value <= 1e-12


def test_singleton_has_full_discrepancy():
    assert abs(disc(IntegerMultiset([3], 7)).value - 1.0) < 1e-12


def test_pair_hand_value():
    # {0, 1} mod 2: (1/2)|1 + e^{i pi}| = 0;  {0, 0} mod 2: 1
    assert disc(IntegerMultiset([0, 1], 2)).value <= 1e-12
    assert abs(disc(IntegerMultiset([0, 0], 2)).value - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(multisets)
def test_reduction_invariance(Z):
    reduced = IntegerMultiset([e % Z.m for e in Z.elements], Z.m)
    assert abs(disc(Z).value - disc(reduced).value) < 1e-9


@settings(max_examples=60, deadline=None)
@given(multisets)
def test_negation_invariance(Z):
    negated = IntegerMultiset([-e % Z.m for e in Z.elements], Z.m)
    assert abs(disc(Z).value - disc(negated).value) < 1e-9


@settings(max_examples=60, deadline=None)
@given(multisets, st.integers(min_value=1, max_value=4))
def test_duplication_invariance(Z, k):
    assert abs(disc(Z).value - disc(Z.duplicate(k)).value) < 1e-9


@settings(max_examples=40, deadline=None)
@given(multisets)
def test_value_in_unit_interval(Z):
    v = disc(Z).value
    assert 0.0 <= v <= 1.0


@settings(max_examples=30, deadline=None)
@given(multisets)
def test_argmax_attains_value(Z):
    cert = disc(Z)
    k, m, n = cert.argmax_k, Z.m, Z.cardinality
    acc = sum(math.e ** 0j * f * complex(math.cos(2 * math.pi * k * j / m),
                                         math.sin(2 * math.pi * k * j / m))
              for j, f in enumerate(Z.freq))
    assert abs(abs(acc) / n - cert.value) < 1e-6


def test_highprec_cross_check_random():
    import random
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randrange(2, 64)
        els = [rng.randrange(0, m) for _ in range(rng.randrange(1, 10))]
        Z = IntegerMultiset(els, m)
        assert abs(disc(Z).value - float(disc_highprec(Z))) < 1e-9


def test_digest_sensitive_to_elements():
    a = IntegerMultiset([1, 2, 3], 7)
    b = IntegerMultiset([1, 2, 4], 7)
    assert a.digest() != b.digest()
    assert a.digest() == IntegerMultiset([3, 2, 1], 7).digest()


def test_random_search_success_and_exhaustion():
    Z = random_search(997, 64, 0.9, seed=1, budget=50)
    assert disc(Z).value <= 0.9
    with pytest.raises(BudgetExhausted) as exc:
        random_search(97, 2, 1e-6, seed=1, budget=5)
    assert exc.value.best is not None
    assert exc.value.best_value > 1e-6


def test_random_search_of_m_minus_1_residues_evaluates_once(monkeypatch):
    # {1, ..., m-1} is the one candidate: disc 1/3 at m = 4 misses 0.1,
    # and 1/100 at m = 101 meets 0.3.
    calls = []
    value = discrepancy._disc_value

    def counting(Z):
        calls.append(Z.elements)
        return value(Z)

    monkeypatch.setattr(discrepancy, "_disc_value", counting)
    with pytest.raises(BudgetExhausted) as exc:
        random_search(4, 3, 0.1, seed=1, budget=200)
    assert calls == [(1, 2, 3)] and exc.value.best.elements == (1, 2, 3)
    assert abs(exc.value.best_value - 1 / 3) < 1e-12
    assert "in 200 trials" in str(exc.value)
    calls.clear()
    assert random_search(101, 100, 0.3, seed=1, budget=200).elements == \
        tuple(range(1, 101))
    assert len(calls) == 1


def counting_loop_freq(elements, m):
    freq = [0] * m
    for e in elements:
        freq[e % m] += 1
    return freq


def byte_loop(data, h):
    """FNV-1a-64 as the docs/formats.md loop, continuing from state h."""
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) % 2 ** 64
    return h


def one_shot_digest(elements, m):
    """The docs/formats.md formula, literally: FNV-1a-64 of the UTF-8
    bytes of the sorted residues joined by commas."""
    data = ",".join(str(r) for r in sorted(e % m for e in elements))
    return byte_loop(data.encode("utf-8"), 0xCBF29CE484222325)


def test_freq_matches_counting_loop():
    rng = random.Random(11)
    m = 13
    small = [rng.randrange(-5 * m, 5 * m) for _ in range(200)]
    huge = small + [2 ** 63, 2 ** 63 + 5, 2 ** 70 + 1, -(2 ** 64) - 3]
    # The counts take the smallest unsigned dtype that holds |Z|: a
    # multiplicity of 256 needs 2 bytes, one of 65,536 int64.
    u8, u16, i64 = np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.int64)
    cases = [(small, u8), (huge, u8), ([], u8), ([-1], u8),
             ([m, 2 * m, -m], u8), (range(255), u8), (range(256), u16),
             (IntegerMultiset([7], m).duplicate(256).elements, u16),
             (range(65535), u16),
             (IntegerMultiset([-3, 4], m).duplicate(32768).elements, i64)]
    for elements, dtype in cases:
        elements = list(elements)
        Z = IntegerMultiset(elements, m)
        assert Z.freq.dtype == dtype, (len(elements), Z.freq.dtype)
        assert not Z.freq.flags.writeable
        assert Z.freq.tolist() == counting_loop_freq(elements, m)


def test_digest_matches_one_shot_formula():
    rng = random.Random(12)
    chunk = discrepancy._DIGEST_CHUNK
    m = 1000
    for size in (0, 1, chunk - 1, chunk, chunk + 1):
        elements = [rng.randrange(-3 * m, 3 * m) for _ in range(size)]
        assert elements_digest(elements, m) == one_shot_digest(elements, m)
    huge = [2 ** 70 + 3, -(2 ** 65), 2 ** 63, 7, -1]
    assert elements_digest(huge, m) == one_shot_digest(huge, m)
    assert IntegerMultiset(huge, m).digest() == one_shot_digest(huge, m)
    # the example in docs/formats.md
    assert elements_digest([3, 1, 1], 7) == one_shot_digest([1, 1, 3], 7)


def test_disc_sparse_and_dense_match_highprec():
    # One transform for every support: composite moduli (a power of two,
    # of an odd prime, squarefree, and 2^2) and a prime, with supports on
    # both sides of 64, the size below which disc once summed directly.
    rng = random.Random(13)
    for m in (4, 128, 131, 210, 243):
        for support in (1, 5, 63, 64, 100):
            residues = rng.sample(range(m), min(support, m - 1))
            elements = [r + m * rng.randrange(-2, 3)
                        for r in residues for _ in range(rng.randrange(1, 4))]
            Z = IntegerMultiset(elements, m)
            cert = disc(Z)
            assert abs(cert.value - float(disc_highprec(Z))) < 1e-9, m
            assert cert.numeric_error == \
                len(residues) * 4 * discrepancy._EPS_MACHINE * m
            # the smallest k of its tied pair {k, m - k}, attaining the value
            assert 1 <= cert.argmax_k <= m // 2
            assert abs(discrepancy.disc_at(Z, cert.argmax_k) - cert.value) \
                < 1e-12


def test_argmax_k_is_the_smallest_of_an_exact_tie():
    # {0, 1} and {0, 3} mod 4: |1 + i^k| and |1 + i^(3k)| are sqrt(2) at
    # k = 1 and 3 and 0 at k = 2.
    for elements in ([0, 1], [0, 3]):
        assert disc(IntegerMultiset(elements, 4)).argmax_k == 1


def test_sparse_disc_at_a_million_matches_the_fft():
    # 63 residues, one fewer than the support at which disc took a
    # transform before: at a prime m and at m = 2^20.
    rng = np.random.default_rng(31)
    for m in (1000003, 2 ** 20):
        Z = IntegerMultiset(rng.choice(m, 63, replace=False).tolist(), m)
        cert = disc(Z)
        peak = np.abs(np.fft.fft(Z.freq.astype(float))[1:]).max()
        assert abs(cert.value * 63 - peak) < 1e-12 * 63, m
        assert cert.argmax_k <= m // 2
        assert abs(discrepancy.disc_at(Z, cert.argmax_k) * 63 - peak) < \
            1e-12 * 63, m


def test_dense_disc_at_prime_m_matches_highprec_and_the_fft():
    # Seeded random primes with dense supports, from the smallest dense
    # case (64 residues mod 67) up; repeated elements and multiples of m.
    rng = random.Random(23)
    cases = [(67, 64), (101, 70), (263, 100)]
    cases += [(rng.choice([p for p in range(67, 200)
                           if all(p % d for d in range(2, 15))]), 64)
              for _ in range(2)]
    for m, support in cases:
        residues = rng.sample(range(m), support)
        elements = [r + m * rng.randrange(-2, 3)
                    for r in residues for _ in range(rng.randrange(1, 4))]
        elements += [0, m, -m]
        Z = IntegerMultiset(elements, m)
        cert = disc(Z)
        assert abs(cert.value - float(disc_highprec(Z))) < 1e-9, m
        mags = np.abs(np.fft.fft(Z.freq.astype(float)))[1:]
        assert abs(cert.value * Z.cardinality - mags.max()) < \
            1e-12 * Z.cardinality
        # the smallest k of the tied pair {k, m - k}
        assert cert.argmax_k <= m // 2
        assert abs(mags[cert.argmax_k - 1] - mags.max()) < \
            1e-12 * Z.cardinality
    for m in (10007, 100003):
        Z = IntegerMultiset([rng.randrange(-m, 2 * m) for _ in range(400)],
                            m)
        cert = disc(Z)
        mags = np.abs(np.fft.fft(Z.freq.astype(float)))[1:]
        assert abs(cert.value * 400 - mags.max()) < 1e-12 * 400
        assert abs(discrepancy.disc_at(Z, cert.argmax_k) - cert.value) < 1e-12


def test_dense_disc_at_a_million_stays_small():
    # The exact-length FFT of length 1000003 (Bluestein) peaked at 193-200
    # MB in this child; the two half-length correlations at about 110 MB.
    # A child's ru_maxrss starts from its spawner's resident size, so a
    # fresh launcher process spawns it, not this test process.
    code = ("import numpy as np; from lowdisc.discrepancy import "
            "IntegerMultiset, disc; m = 1000003; "
            "z = np.random.default_rng(1).choice(m, 270, replace=False); "
            "assert 0 < disc(IntegerMultiset(z.tolist(), m)).value < 1")
    launcher = ("import os, subprocess, sys; "
                "c = subprocess.Popen([sys.executable, '-c', sys.argv[1]]); "
                "_, status, usage = os.wait4(c.pid, 0); "
                "c.returncode = os.waitstatus_to_exitcode(status); "
                "print(c.returncode, usage.ru_maxrss)")
    src = os.path.dirname(os.path.dirname(discrepancy.__file__))
    out = subprocess.run([sys.executable, "-c", launcher, code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, check=True).stdout
    exit_code, maxrss_kb = map(int, out.split())
    assert exit_code == 0
    assert maxrss_kb / 1024 < 150


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.integers(min_value=0, max_value=2 ** 64 - 1))
@example(b"", 0)
@example(b"\x00", 2 ** 64 - 1)
@example(b"\xff\x00", 0)
@example(b"\x00\xff", 2 ** 64 - 1)
@example(bytes(range(256)), 0xCBF29CE484222300)
@example(bytes(range(255, -1, -1)), 0xCBF29CE4842223FF)
@example(b"1,22,333,4444,55555,666666,7777777", 0xCBF29CE484222325)
def test_vectorized_fnv1a_matches_byte_loop(data, h):
    assert discrepancy._fnv1a(data, h) == byte_loop(data, h)


def test_comma_decimals_match_str():
    values = [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 10 ** 6 - 1,
              10 ** 6, 2 ** 31, 2 ** 32, 10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1]
    # the top of the 32-bit lanes: maxima 2^32 - 1 and 999,999,999
    top32 = [2 ** 32 - 1, 0, 10 ** 9, 999_999_999, 4_000_000_000, 7]
    top9 = [999_999_999, 0, 10 ** 8, 10 ** 8 - 1, 12_345]
    for chunk in (values, values[:1], values[:3], [0, 0, 7], [5], [],
                  top32, top9, [2 ** 32, 5]):
        rendered = discrepancy._comma_decimals(np.array(chunk, np.int64))
        assert rendered == ",".join(map(str, chunk)).encode()


def test_decimal_fields_are_right_aligned_and_padded():
    values = np.array([0, 7, 10, 99, 123456], np.int64)
    for width, end in ((0, 0), (6, ord(",")), (15, ord("\n")),
                       (23, ord(" "))):
        w = max(width, 6)
        cells = discrepancy._decimal_fields(values, end, width)
        assert cells.shape == (len(values), w + 1)
        assert [bytes(row) for row in cells] == [
            str(v).rjust(w, "\0").encode() + bytes([end]) for v in values]


def test_trivial_set_digest_at_paper_scale():
    # recorded from the per-byte loop before it was vectorized
    m = 1000003
    assert elements_digest(range(m), m) == 10104088331438473643
    assert IntegerMultiset.residue_system(m).digest() == 10104088331438473643


def transform_kernel(Z):
    """The kernel every multiset took before the closed form, written out:
    (value, argmax_k, numeric_error) from the transform."""
    peak, k, support = discrepancy._fourier_peak(Z.freq)
    return (min(peak / Z.cardinality, 1.0), k,
            support * 4 * discrepancy._EPS_MACHINE * Z.m)


def full_hypot_peak(freq):
    """The peak search with hypot over every frequency, as _fourier_peak
    ran it before it filtered candidates: (peak, k, support), and how many
    frequencies tie exactly at the peak."""
    m = len(freq)
    ks, re, im = numeric_core.real_dft(freq)
    mags = np.hypot(re, im)
    peak = mags.max()
    tied = mags == peak
    k = np.minimum(ks, m - ks)[tied].min()
    return (float(peak), int(k), int(np.count_nonzero(freq))), \
        int(np.count_nonzero(tied))


def test_fourier_peak_matches_hypot_over_every_frequency():
    rng = random.Random(2029)
    for _ in range(400):
        m = rng.randint(7, 10007)
        Z = IntegerMultiset([rng.randrange(m)
                             for _ in range(rng.randint(1, 400))], m)
        assert discrepancy._fourier_peak(Z.freq) == \
            full_hypot_peak(Z.freq)[0], Z.elements
    # a * H for the subgroup H of order d of (Z/p)^*: |F(k)| is constant
    # on each coset of H, so magnitudes tie, and some tie exactly in float
    exact_ties = 0
    for p in (101, 211, 1009, 10007):
        g = numeric_core.primitive_root(p)
        for d in (2, 3, 5, 6, 7, 10, 12):
            if (p - 1) % d:
                continue
            h = pow(g, (p - 1) // d, p)
            a = rng.randrange(1, p)
            Z = IntegerMultiset([a * pow(h, j, p) % p for j in range(d)], p)
            want, tied = full_hypot_peak(Z.freq)
            assert discrepancy._fourier_peak(Z.freq) == want, (p, d)
            exact_ties += tied > 1
    assert exact_ties
    Z = build_low_disc_set(1000003, 0.3, "practical", seed=1).final_set
    assert discrepancy._fourier_peak(Z.freq) == full_hypot_peak(Z.freq)[0]


def test_complete_residue_systems_have_closed_form_zero():
    for m in range(2, 201):
        for c in (1, 2, 3):
            Z = IntegerMultiset(list(range(m)) * c, m)
            cert = disc(Z)
            assert (cert.value, cert.argmax_k, cert.numeric_error) == \
                (0.0, 1, 0.0)
            assert transform_kernel(Z)[0] <= 1e-12
            if m in (2, 3, 64) or (m, c) == (200, 3):
                assert disc_highprec(Z) <= 1e-40


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=200),
       st.integers(min_value=1, max_value=3), st.data())
def test_one_element_off_takes_the_transform(m, c, data):
    elements = list(range(m)) * c
    if data.draw(st.booleans()):
        elements.append(data.draw(st.integers(min_value=0, max_value=m - 1)))
    else:
        elements.pop(data.draw(st.integers(min_value=0,
                                           max_value=len(elements) - 1)))
    Z = IntegerMultiset(elements, m)
    cert = disc(Z)
    assert (cert.value, cert.argmax_k, cert.numeric_error) == \
        transform_kernel(IntegerMultiset(elements, m))
    assert cert.numeric_error > 0


def test_random_search_certificate_is_a_fresh_disc():
    for m, size, eps, seed in ((997, 64, 0.9, 1), (10007, 354, 0.3, 3)):
        Z = random_search(m, size, eps, seed=seed, budget=200)
        assert disc(Z) == disc(IntegerMultiset(Z.elements, m))


def test_residue_system_blocks_at_their_seams():
    # m = B - 1, B, B + 1 and 2B + 1 for the block B; the first block
    # changes digit width four times (9 -> 10 ... 9999 -> 10000)
    B = discrepancy._TEXT_BLOCK
    for m in (B - 1, B, B + 1, 2 * B + 1):
        blocks = IntegerMultiset.residue_system(m).element_blocks
        text = ",".join(map(str, range(m))).encode()
        assert b"".join(blocks) == text
        assert len(blocks) == -(-m // B)
        assert [b.count(b",") for b in blocks[:-1]] == [B] * (len(blocks) - 1)
        assert all(b.endswith(b",") for b in blocks[:-1])
        assert not blocks[-1].endswith(b",")
        assert IntegerMultiset.residue_system(m).digest() == \
            byte_loop(text, 0xCBF29CE484222325)
    assert {len(r) for r in blocks[0][:-1].split(b",")} == {1, 2, 3, 4, 5}


def test_residue_system_matches_the_element_list():
    for m in (2, 3, 10, 97, 256, 1000, discrepancy._DIGEST_CHUNK + 5):
        fast, slow = (IntegerMultiset.residue_system(m),
                      IntegerMultiset(list(range(m)), m))
        assert fast.freq.dtype == slow.freq.dtype
        assert not fast.freq.flags.writeable
        assert fast.freq.strides == (0,)  # one count, not m of them
        assert np.array_equal(fast.freq, slow.freq)
        assert (fast.m, fast.cardinality, repr(fast)) == \
            (slow.m, slow.cardinality, repr(slow))
        assert fast.element_blocks == slow.element_blocks
        assert fast.digest() == slow.digest()
        assert disc(fast) == disc(slow)
        assert fast == slow
        assert fast._elements is None  # no element tuple made so far
        for a, b in ((fast.duplicate(3), slow.duplicate(3)), (fast, slow)):
            assert a == b and a.elements == b.elements
        assert fast.residues() == slow.residues()
    with pytest.raises(ValueError):
        IntegerMultiset.residue_system(1)
