import itertools
import json
import math

import numpy as np
import pytest

from lowdisc import construction
from lowdisc.construction import (CardinalityMismatch, ConstructionReport,
                                  IterationInput,
                                  PreconditionViolated, build_low_disc_set,
                                  claim_bounds, iterate, iteration_constants,
                                  paper_parameters, size_budget)
from lowdisc.discrepancy import IntegerMultiset, disc, disc_highprec
from lowdisc.numeric_core import (distinct_prime_divisors, prime_sieve,
                                  primes_in_halfopen)


def test_iterate_hand_example():
    inp = IterationInput(m=19, R=1, P=3, sets={2: {1}, 3: {1}})
    out = iterate(inp)
    assert sorted(out.elements) == [11, 14]


def test_iterate_size_and_distinctness_grid():
    cases = 0
    for m in (401, 701, 997, 1201):
        for P in (5, 7, 11):
            for R in (1, 2, 3):
                if m < P * P * (R + 1):
                    continue
                primes = [p for p in primes_in_halfopen(P / 2, P) if m % p]
                if not primes:
                    continue
                size = min(p - 1 for p in primes)
                size = min(size, 3)
                sets = {p: set(range(1, size + 1)) for p in primes}
                out = iterate(IterationInput(m=m, R=R, P=P, sets=sets))
                assert out.cardinality == R * sum(len(s) for s in sets.values())
                els = list(out.elements)
                assert len(set(els)) == len(els)
                assert 0 not in els
                cases += 1
    assert cases >= 30


def test_iterate_rejects_bad_inputs():
    with pytest.raises(PreconditionViolated):
        iterate(IterationInput(m=10, R=1, P=3, sets={2: {1}, 3: {1}}))
    with pytest.raises(CardinalityMismatch):
        iterate(IterationInput(m=97, R=1, P=5, sets={3: {1}, 5: {1, 2}}))
    # m = 19 < P^2 (R + 1) = 27
    with pytest.raises(PreconditionViolated):
        iterate(IterationInput(m=19, R=2, P=3, sets={2: {1}, 3: {1}}))


def test_claim_bounds_hold_on_iterated_sets():
    for m in (997, 2003):
        primes = [p for p in primes_in_halfopen(5.5, 11) if m % p]
        sets = {p: {1, 2} for p in primes}
        inp = IterationInput(m=m, R=2, P=11, sets=sets)
        out = iterate(inp)
        max_disc_sp = max(disc(IntegerMultiset(sorted(S), p)).value
                          for p, S in sets.items())
        n = out.cardinality
        for k in range(1, m):
            acc = sum(complex(math.cos(2 * math.pi * k * z / m),
                              math.sin(2 * math.pi * k * z / m))
                      for z in out.elements)
            val = abs(acc) / n
            b1, b2 = claim_bounds(k, inp, max_disc_sp)
            assert val <= min(b1, b2) + 1e-6


def _max_ratio(ratio, xs, ks):
    """max_i ratio(xs[i], ks[i], log2) in scalar floats: the entries within
    1e-12 of the np.log2 maximum are recomputed with math.log2, so vector
    log2 rounding cannot reach the result."""
    vec = ratio(xs, ks, np.log2)
    near = np.flatnonzero(vec >= vec.max() * (1 - 1e-12)).tolist()
    return max(ratio(xs[i].item(), ks[i].item(), math.log2) for i in near)


def sieve_iteration_constants(N=100_000, M=1_000_000):
    """(c, C) with c = 4 C^2, C the smallest constant (>= 1) such that

      pi(P) - pi(P/2) >= P / (C log2 P)   for all real P with C <= P <= N,
      max_{k <= m} nu(k) <= C log2 m / log2 log2 m   for 4 <= m <= M.

    The first condition is checked at the right endpoints of the intervals
    on which (pi(P), pi(P/2)) is constant; the second at primorial
    boundaries (the ratio is decreasing in m between them), both from one
    prime sieve."""
    sieve = prime_sieve(N)
    primes = np.flatnonzero(sieve)
    # Breakpoints where pi(P) or pi(P/2) jumps, unsorted and with repeats
    # (a maximum needs neither); pi(x) = pi[floor(x)].
    breaks = np.concatenate((primes, 2 * primes[2 * primes <= N], [N]))
    Ps = np.where(breaks == N, float(N), breaks - 1e-9)
    pi = np.cumsum(sieve)
    counts = pi[Ps.astype(np.int64)] - pi[(Ps / 2).astype(np.int64)]
    # P < C needs no check, and P < 2.5 or no prime in (P/2, P] is below C.
    keep = (Ps >= 2.5) & (counts > 0)
    c_pi = _max_ratio(lambda P, k, log2: P / (k * log2(P)),
                      Ps[keep], counts[keep])

    # nu side: max_{k <= m} nu(k) at the primorials q <= M (from m = q and
    # m = M) and at every m < 2048, with nu by sieve.
    q = np.cumprod(primes[:8])
    j = np.arange(1, np.count_nonzero(q <= M) + 1)
    nu = np.zeros(2048, dtype=np.int64)
    for p in primes[primes < 2048].tolist():
        nu[p::p] += 1
    ms = np.concatenate((np.maximum(q[:len(j)], 4), np.full(len(j), M),
                         np.arange(4, 2048)))
    ks = np.concatenate((j, j, np.maximum.accumulate(nu[4:])))
    c_nu = _max_ratio(lambda m, k, log2: k * log2(log2(m)) / log2(m),
                      ms, ks)

    C = max(1.0, c_pi, c_nu)
    return 4 * C * C, C


def loop_iteration_constants(P_max=100_000, M_max=1_000_000):
    """(c, C) as sieve_iteration_constants computes them, with Python loops
    over the prime-count breakpoints and trial division for nu(m)."""
    primes = primes_in_halfopen(1, P_max)
    breaks = sorted(set(primes) | {2 * p for p in primes if 2 * p <= P_max}
                    | {P_max})
    Ps = np.array([b - 1e-9 if b != P_max else float(b) for b in breaks])
    pi_table = np.cumsum(np.bincount(primes, minlength=P_max + 1))
    counts = (pi_table[Ps.astype(np.int64)]
              - pi_table[(Ps / 2).astype(np.int64)])
    c_pi = 1.0
    for P, count in zip(Ps.tolist(), counts.tolist()):
        if P < 2.5 or count == 0:
            continue
        c_pi = max(c_pi, P / (count * math.log2(P)))
    primorials, prod = [], 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        prod *= p
        if prod > M_max:
            break
        primorials.append(prod)
    c_nu = 1.0
    for j, q in enumerate(primorials, start=1):
        for m in {max(q, 4), M_max}:
            l2 = math.log2(m)
            ll2 = math.log2(l2)
            if ll2 > 0:
                c_nu = max(c_nu, j * ll2 / l2)
    nu_max = 0
    for m in range(4, 2048):
        nu_max = max(nu_max, distinct_prime_divisors(m))
        ll2 = math.log2(math.log2(m))
        if ll2 > 0:
            c_nu = max(c_nu, nu_max * ll2 / math.log2(m))
    C = max(1.0, c_pi, c_nu)
    return 4 * C * C, C


def test_constants_relation():
    # bit for bit: the module constants, the sieve and the loops
    c, C = iteration_constants()
    assert (c, C) == construction.ITERATION_CONSTANTS == \
        sieve_iteration_constants() == loop_iteration_constants() == \
        (40.44230132178164, 3.179713089328251)
    assert c == 4 * C * C and C > 1


def test_paper_mode_is_total_and_trivial_at_desk_scale():
    rep = build_low_disc_set(101, 0.5, "paper")
    assert rep.branch == "trivial"
    assert rep.final_certificate.value <= 1e-9
    assert any(not ok for _, ok in rep.guards)


def test_practical_mode_certifies():
    rep = build_low_disc_set(10007, 0.3, "practical", seed=7)
    assert rep.final_certificate.value <= 0.3
    assert rep.final_set.cardinality <= size_budget(10007)
    # the certificate is recomputable from the elements alone
    Z = IntegerMultiset(rep.final_set.elements, 10007)
    assert abs(disc(Z).value - rep.final_certificate.value) < 1e-12


def test_practical_mode_is_deterministic_per_seed():
    a = build_low_disc_set(997, 0.4, "practical", seed=3)
    b = build_low_disc_set(997, 0.4, "practical", seed=3)
    assert a.final_set.elements == b.final_set.elements
    c = build_low_disc_set(997, 0.4, "practical", seed=4)
    assert a.final_set.elements != c.final_set.elements


def test_seed_required_when_sampling():
    with pytest.raises(ValueError):
        build_low_disc_set(997, 0.4, "practical")
    with pytest.raises(ValueError):
        build_low_disc_set(997, 0.4, "random")


def test_paper_parameters_shape():
    params = paper_parameters(10 ** 6, 0.3)
    assert params["delta"] > 0
    assert params["R"] >= 1 and params["P1"] > 2


def test_report_writer_matches_indented_json_dumps():
    def report(elements, m, stages=(), notes=()):
        Z = IntegerMultiset(elements, m)
        return ConstructionReport(
            mode="practical", m=m, eps=0.25, seed=None, branch="pipeline",
            stages=list(stages), guards=[["m >= 2", True]], final_set=Z,
            final_certificate=disc(Z), constants={"c": 0.5}, notes=list(notes))

    tricky = ['  "elements": []', "quote \" and\nnewline", "caf\u00e9"]
    reports = [
        report([], 7),
        report([3], 7),
        report([-5, -1, 0, 2 ** 63, 2 ** 64 + 9, -(2 ** 70)], 11),
        report(range(50), 50,
               stages=[{"stage": 1, "elements": [], "note": tricky[0]},
                       {"stage": 2, "elements": ["1", "2"]}],
               notes=tricky),
    ]
    trivial = IntegerMultiset.residue_system(1009)
    reports.append(ConstructionReport(
        mode="paper", m=1009, eps=0.3, seed=None, branch="trivial",
        stages=[], guards=[], final_set=trivial,
        final_certificate=disc(trivial), constants={}))
    for r in reports:
        assert b"".join(r.json_chunks()) == (json.dumps(
            r.to_json_dict(), indent=2, sort_keys=True) + "\n").encode()


def test_stage1_choice_does_not_follow_rounding():
    # The first subset in enumeration order within 1e-12 of the least
    # disc: the same subset from 50-digit values (80 of the 120 3-subsets
    # mod 11 tie at the minimum).
    for p in (7, 11, 13):
        combs = list(itertools.combinations(range(1, p), 3))
        exact = [disc_highprec(IntegerMultiset(c, p)) for c in combs]
        least = min(exact)
        want = next(c for c, v in zip(combs, exact) if v <= least + 1e-12)
        S, val = construction._best_subset_exhaustive(p, 3)
        assert S == set(want), p
        assert abs(val - float(least)) < 1e-12
    assert construction._best_subset_exhaustive(11, 3)[0] == {1, 2, 4}


def test_practical_pipeline_checks_stage_3_first(monkeypatch):
    # Below m = 578^2 * 2 = 668168 no stage runs, and the note is the one
    # stage 3 gave after both stages had run.
    assert not construction.practical_pipeline_runs(668167)
    assert construction.practical_pipeline_runs(668168)

    def no_stage(*args):
        raise AssertionError("a pipeline stage ran below stage 3's bound")

    monkeypatch.setattr(construction, "_stage1_set", no_stage)
    monkeypatch.setattr(construction, "iterate", no_stage)
    rep = build_low_disc_set(10007, 0.3, "practical", seed=3)
    assert rep.stages == [] and rep.branch == "random_search"
    assert rep.notes == ["pipeline infeasible at this m: m = 10007 < "
                         "P^2 (R+1) = 668168"]
