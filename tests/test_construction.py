import json
import math

import pytest

from lowdisc.construction import (CardinalityMismatch, ConstructionReport,
                                  IterationInput,
                                  PreconditionViolated, build_low_disc_set,
                                  claim_bounds, iterate, iteration_constants,
                                  paper_parameters, size_budget)
from lowdisc.discrepancy import IntegerMultiset, disc
from lowdisc.numeric_core import primes_in_halfopen


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
    # the size guard is skippable, the distinctness checks are not
    inp = IterationInput(m=19, R=2, P=3, sets={2: {1}, 3: {1}})
    with pytest.raises(PreconditionViolated):
        iterate(inp)
    out = iterate(inp, check_size=False)
    assert out.cardinality == 4


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


def test_constants_relation():
    c, C = iteration_constants()
    assert abs(c - 4 * C * C) < 1e-9
    assert C > 1


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
    for r in reports:
        assert r.to_json() == json.dumps(r.to_json_dict(), indent=2,
                                         sort_keys=True)
