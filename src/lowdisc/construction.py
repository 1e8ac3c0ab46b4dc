"""Derandomized construction of sparse low-discrepancy sets.

Two layers:

* `iterate` lifts per-prime sets S_p (p in (P/2, P], p coprime to m) to a
  set mod m via elements (r + s * (p^{-1})_m) mod m, r = 1..R.
* `build_low_disc_set` runs the three-stage pipeline. In "paper" mode the
  guard inequalities are evaluated with the faithful constants; they fail
  for every desk-scale m, so the output is the trivial set {0,...,m-1}
  (that is the prescribed behavior, recorded in the report). "practical"
  mode retries the pipeline with down-scaled parameters and accepts only
  on a passing certificate, falling back to seeded random search and then
  to the trivial set. "random" delegates to random search.

Every output is verified by disc() before return; nothing is assumed.
"""

import itertools
import json
import math

from .discrepancy import (BudgetExhausted, IntegerMultiset, _disc_value,
                          _splice_chunks, disc, random_search)
from .numeric_core import (distinct_prime_divisors, mod_inverse,
                           primes_in_halfopen)


class PreconditionViolated(ValueError):
    pass


class CardinalityMismatch(ValueError):
    pass


class IterationInput:
    """Input to the iteration step.

    sets maps each prime p in (P/2, P] with p coprime to m to a subset of
    {1,...,p-1}. All subsets must have the same cardinality and
    m >= P^2 (R+1) must hold.
    """

    def __init__(self, m, R, P, sets):
        self.m = m
        self.R = R
        self.P = P
        self.sets = sets

    def validate(self):
        if self.m < 2 or self.R < 1 or self.P < 2:
            raise PreconditionViolated("need m >= 2, R >= 1, P >= 2")
        if self.m < self.P * self.P * (self.R + 1):
            raise PreconditionViolated(
                f"m = {self.m} < P^2 (R+1) = {self.P * self.P * (self.R + 1)}")
        if not self.sets:
            raise PreconditionViolated("no per-prime sets given")
        sizes = set()
        for p, S in self.sets.items():
            if not (self.P / 2 < p <= self.P):
                raise PreconditionViolated(f"prime {p} not in ({self.P/2}, {self.P}]")
            if self.m % p == 0:
                raise PreconditionViolated(f"prime {p} divides m = {self.m}")
            if not S or not all(1 <= s <= p - 1 for s in S):
                raise PreconditionViolated(f"S_{p} not a nonempty subset of 1..{p-1}")
            if len(set(S)) != len(S):
                raise PreconditionViolated(f"S_{p} has repeats")
            sizes.add(len(S))
        if len(sizes) != 1:
            raise CardinalityMismatch(f"unequal cardinalities {sorted(sizes)}")


def iterate(inp):
    """The iteration step: S = {(r + s (p^{-1})_m) mod m}.

    Returns an IntegerMultiset of size R * sum |S_p| whose elements are
    pairwise distinct and nonzero mod m (checked, not assumed).
    """
    inp.validate()
    out = []
    for p in sorted(inp.sets):
        inv = mod_inverse(p, inp.m)
        for s in sorted(inp.sets[p]):
            for r in range(1, inp.R + 1):
                out.append((r + s * inv) % inp.m)
    expected = inp.R * sum(len(S) for S in inp.sets.values())
    if len(out) != expected:
        raise AssertionError("size bookkeeping broken")
    if len(set(out)) != len(out) or 0 in out:
        raise AssertionError("iteration produced repeated or zero elements")
    return IntegerMultiset(sorted(out), inp.m)


def claim_bounds(k, inp, max_disc_sp):
    """The two correlation bounds for frequency k of an iterated set:

    claim 1: 2 pi min(k, m-k)/m + max_p disc(S_p, p) + (nu(k)+nu(m-k))/|P|
    claim 2: m / (2 R min(k, m-k))
    """
    m = inp.m
    km = min(k % m, (m - k) % m)
    n_primes = len(inp.sets)
    b1 = (2 * math.pi * km / m + max_disc_sp
          + (distinct_prime_divisors(k) + distinct_prime_divisors(m - k)) / n_primes)
    b2 = m / (2 * inp.R * km) if km else math.inf
    return b1, b2


# --- module constants ------------------------------------------------------

# (c, C) with c = 4 C^2. C is the smallest constant (>= 1) such that, with
# logarithms base 2,
#
#   pi(P) - pi(P/2) >= P / (C log2 P)   for all real P with C <= P <= 1e5,
#   max_{k <= m} nu(k) <= C log2 m / log2 log2 m   for 4 <= m <= 1e6.
#
# The binding constraint is P just below 11. The worked value for P = 100
# alone is C >= 100/(10 log2 100) ~= 1.505. tests/test_construction.py
# recomputes both floats bit for bit, by a sieve and by Python loops.
ITERATION_CONSTANTS = (40.44230132178164, 3.179713089328251)


def iteration_constants():
    """(c, C) of the iteration lemma: ITERATION_CONSTANTS."""
    return ITERATION_CONSTANTS


# --- three-stage pipeline --------------------------------------------------

class ConstructionReport:
    def __init__(self, mode, m, eps, seed, branch, stages, guards,
                 final_set, final_certificate, constants, notes=None):
        self.mode = mode
        self.m = m
        self.eps = eps
        self.seed = seed
        self.branch = branch  # trivial | pipeline | random_search
        self.stages = stages
        self.guards = guards
        self.final_set = final_set  # IntegerMultiset
        self.final_certificate = final_certificate  # DiscrepancyCertificate
        self.constants = constants
        self.notes = [] if notes is None else notes

    def _fields(self):
        """Every field but the element list."""
        return {
            "schema": "lowdisc.construction_report/5",
            "mode": self.mode,
            "m": str(self.m),
            "eps": self.eps,
            "seed": str(self.seed) if self.seed is not None else None,
            "branch": self.branch,
            "stages": self.stages,
            "guards": self.guards,
            "certificate": self.final_certificate.to_json_dict(),
            "constants": self.constants,
            "notes": self.notes,
        }

    def to_json_dict(self):
        return {**self._fields(),
                "elements": [str(e) for e in self.final_set.elements]}

    def json_chunks(self):
        """json.dumps(to_json_dict(), indent=2, sort_keys=True) + "\n" as
        UTF-8 chunks, the element list quoted block by block from
        element_blocks."""
        text = (json.dumps({**self._fields(), "elements": []}, indent=2,
                           sort_keys=True) + "\n").encode()
        if not self.final_set.cardinality:
            return [text]
        items = (block.replace(b",", b'",\n    "')
                 for block in self.final_set.element_blocks)
        return _splice_chunks(text, 1, "elements",
                              itertools.chain([b'"'], items, [b'"']))


def _best_subset_exhaustive(p, size):
    """The first subset of {1..p-1} of the given size, in enumeration
    order, whose disc is within 1e-12 of the least, and its disc: exact
    ties (80 of the 120 3-subsets mod 11) are not broken by the kernel's
    rounding. Only sane for p <= 31."""
    combs = list(itertools.combinations(range(1, p), size))
    vals = [_disc_value(IntegerMultiset(comb, p))[0] for comb in combs]
    least = min(vals)
    i = next(i for i, val in enumerate(vals) if val <= least + 1e-12)
    return set(combs[i]), vals[i]


def _stage1_set(p, size, delta, seed):
    """Low-disc subset of {1..p-1}: exhaustive for p <= 31, else seeded
    random search with post-hoc verification (same guarantee: the output
    is certified either way)."""
    size = min(size, p - 1)
    if p <= 31:
        S, val = _best_subset_exhaustive(p, size)
        return S, val
    try:
        Z = random_search(p, size, max(delta, 1e-9), seed, budget=500)
        return set(Z.residues()), _disc_value(Z)[0]
    except BudgetExhausted as e:
        return set(e.best.residues()), e.best_value


def paper_parameters(m, eps):
    """The faithful parameters: delta = eps/(11c), P' and P'' per the
    construction, stage-1 set size, and R."""
    c, C = iteration_constants()
    delta = eps / (11 * c)
    lnm = math.log(m)
    P1 = (1 / delta) * math.log((1 / delta) * lnm)
    P2 = (1 / delta) * lnm
    s1 = math.ceil(8 * math.log(8 * P1) / delta ** 2) if P1 > 0 else 0
    R = math.ceil(1 / delta ** 2)
    return {"c": c, "C": C, "delta": delta, "P1": P1, "P2": P2,
            "stage1_size": s1, "R": R}


def evaluate_guards(m, params):
    """The guard inequalities of the construction. Returns a list of
    (name, ok) pairs; the construction proceeds only if all hold."""
    delta, P1, P2, s1, R = (params["delta"], params["P1"], params["P2"],
                            params["stage1_size"], params["R"])
    guards = [
        ("P1 >= 1/delta^2", P1 >= 1 / delta ** 2),
        ("P1 > 4 s1^2", P1 > 4 * s1 ** 2),
        ("P2 >= 2 P1^2 (R+1)", P2 >= 2 * P1 ** 2 * (R + 1)),
        ("m >= P2^2 (R+1)", m >= P2 ** 2 * (R + 1)),
    ]
    # Prime-count guards are only worth evaluating when the arithmetic
    # guards hold (P1, P2 can be astronomically large otherwise).
    if all(ok for _, ok in guards):
        n1 = len(primes_in_halfopen(P1 / 2, P1))
        n2 = len(primes_in_halfopen(P2 / 2, P2))
        guards.append(("pi(P1) - pi(P1/2) >= 1", n1 >= 1))
        guards.append(("pi(P2) - pi(P2/2) > nu(m)",
                       n2 > distinct_prime_divisors(m)))
    else:
        guards.append(("prime-count guards", False))
    return guards


def _stage_2_bound(P1, R):
    """P'' of stage 2, 2 ceil(P1^2 (R + 1)) + 2; stage 3 needs
    m >= P''^2 (R + 1)."""
    return 2 * math.ceil(P1 * P1 * (R + 1)) + 2


# Practical mode's down-scaled pipeline: P1 = 12, singleton R, stage-1
# sets of size 3.
_PRACTICAL_P1, _PRACTICAL_R, _PRACTICAL_S1 = 12.0, 1, 3


def practical_pipeline_runs(m):
    """Whether a practical build at m runs the pipeline's stages: only at
    stage 3's m >= P''^2 (R + 1) = 578^2 * 2 = 668,168; below it the
    build logs no stage."""
    P2 = _stage_2_bound(_PRACTICAL_P1, _PRACTICAL_R)
    return m >= P2 * P2 * (_PRACTICAL_R + 1)


def _run_pipeline(m, delta, R, P1, s1, seed, stage_log):
    """Stages 1-3 with the given parameters. Returns the final multiset or
    raises PreconditionViolated when the iteration inputs are invalid;
    below stage 3's m >= P''^2 (R + 1) it raises before stage 1, with
    the message stage 3 would give, and logs no stage."""
    P2 = _stage_2_bound(P1, R)
    if m < (least := P2 * P2 * (R + 1)):
        raise PreconditionViolated(f"m = {m} < P^2 (R+1) = {least}")
    primes1 = list(primes_in_halfopen(P1 / 2, P1))
    if not primes1:
        raise PreconditionViolated("no stage-1 primes")
    sets1, discs1 = {}, {}
    for i, p in enumerate(primes1):
        S, val = _stage1_set(p, s1, delta, seed + 1000 + i if seed is not None else None)
        sets1[p], discs1[p] = S, val
    size1 = min(len(S) for S in sets1.values())
    sets1 = {p: set(sorted(S)[:size1]) for p, S in sets1.items()}
    stage_log.append({"stage": 1, "P": P1, "primes": list(map(str, primes1)),
                      "set_size": size1,
                      "disc": {str(p): discs1[p] for p in primes1}})

    # Stage 2: a low-disc set mod every prime p'' in (P2/2, P2].
    primes2 = list(primes_in_halfopen(P2 / 2, P2))
    if not primes2:
        raise PreconditionViolated("no stage-2 primes")
    sets2, discs2 = {}, {}
    for q in primes2:
        usable = {p: S for p, S in sets1.items() if q % p != 0}
        if len(usable) != len(sets1):
            raise PreconditionViolated(f"stage-1 prime divides {q}")
        S2 = iterate(IterationInput(m=q, R=R, P=P1, sets=usable))
        sets2[q] = set(S2.residues())
        discs2[q] = _disc_value(S2)[0]
    size2 = min(len(S) for S in sets2.values())
    sets2 = {q: set(sorted(S)[:size2]) for q, S in sets2.items()}
    stage_log.append({"stage": 2, "P": P2, "primes": list(map(str, primes2)),
                      "set_size": size2,
                      "disc": {str(q): discs2[q] for q in primes2}})

    # Stage 3: combine mod m.
    usable = {q: S for q, S in sets2.items() if m % q != 0}
    if not usable:
        raise PreconditionViolated("all stage-2 primes divide m")
    final = iterate(IterationInput(m=m, R=R, P=P2, sets=usable))
    stage_log.append({"stage": 3, "P": P2, "R": R, "set_size": final.cardinality})
    return final


def size_budget(m):
    """Measured practical size budget C_eps * log2 m with C_eps = 40."""
    return max(1, min(m - 1, math.floor(40 * math.log2(m))))


def report_constants(m, eps, mode, size):
    """A report's `constants`: (c, C) of iteration_constants, the size
    budget constant, the mode's delta (paper: eps / (11 c); practical:
    eps / 3; none in random mode) and size / log2 m."""
    c, C = iteration_constants()
    constants = {"c": c, "C": C, "C_eps_budget": 40,
                 "size_over_log2_m": size / math.log2(m)}
    if mode == "paper":
        constants["delta"] = paper_parameters(m, eps)["delta"]
    elif mode == "practical":
        constants["delta"] = eps / 3
    return constants


def random_search_size(m, eps):
    """The size of the set a random search looks for:
    min(size budget, max(8, 3 ln(4m) / eps^2))."""
    return min(size_budget(m),
               max(8, math.ceil(3 * math.log(4 * m) / eps ** 2)))


def _random_or_trivial(m, eps, seed, notes):
    """(set, branch): a seeded random search for random_search_size(m, eps)
    residues, or the trivial set {0..m-1} when its 200 trials fail, noted
    in `notes`."""
    try:
        return (random_search(m, random_search_size(m, eps), eps, seed,
                              budget=200), "random_search")
    except BudgetExhausted as e:
        notes.append(f"random search failed: {e}")
        return IntegerMultiset.residue_system(m), "trivial"


def build_low_disc_set(m, eps, mode, seed=None):
    """Build a low-discrepancy set mod m; total function, returns a
    ConstructionReport whose certificate is always recomputed by disc()."""
    if m < 2 or not (0 < eps <= 1):
        raise ValueError("need m >= 2 and 0 < eps <= 1")
    if mode not in ("paper", "practical", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    stages, notes = [], []

    if mode == "paper":
        params = paper_parameters(m, eps)
        if all(ok for _, ok in evaluate_guards(m, params)):
            # Unreachable at desk scale, but the pipeline is the same code
            # practical mode runs.
            final = _run_pipeline(m, params["delta"], params["R"],
                                  params["P1"], params["stage1_size"],
                                  seed, stages)
            branch = "pipeline"
        else:
            final = IntegerMultiset.residue_system(m)
            branch = "trivial"
            notes.append("guard failure: trivial set {0..m-1} returned, "
                         "as the construction prescribes")
    elif mode == "practical":
        if seed is None:
            raise ValueError("seed is required in practical mode")
        delta = eps / 3
        final = None
        # Down-scaled pipeline attempt, certified post-hoc; accepted only
        # if <= eps.
        try:
            cand = _run_pipeline(m, delta, R=_PRACTICAL_R, P1=_PRACTICAL_P1,
                                 s1=_PRACTICAL_S1, seed=seed, stage_log=stages)
            if cand.cardinality <= size_budget(m):
                value = _disc_value(cand)[0]
                if value <= eps:
                    final, branch = cand, "pipeline"
                else:
                    notes.append(f"pipeline disc {value:.4f} > eps, rejected")
            else:
                notes.append("pipeline output exceeds size budget, rejected")
        except PreconditionViolated as e:
            notes.append(f"pipeline infeasible at this m: {e}")
        if final is None:
            final, branch = _random_or_trivial(m, eps, seed, notes)
    else:  # random
        if seed is None:
            raise ValueError("seed is required in random mode")
        final, branch = _random_or_trivial(m, eps, seed, notes)

    return assemble_report(mode, m, eps, seed, branch, stages, notes, final)


def assemble_report(mode, m, eps, seed, branch, stages, notes, final_set):
    """The ConstructionReport of a build that returned final_set on
    `branch`: the guards evaluated in paper mode (none otherwise), the
    certificate recomputed by disc() and report_constants. Both
    build_low_disc_set and the verifier of a stored report assemble it
    here."""
    return ConstructionReport(
        mode=mode, m=m, eps=eps, seed=seed, branch=branch, stages=stages,
        guards=(evaluate_guards(m, paper_parameters(m, eps))
                if mode == "paper" else []),
        final_set=final_set,
        final_certificate=disc(final_set),  # reuses a ranked candidate's kernel
        constants=report_constants(m, eps, mode, final_set.cardinality),
        notes=notes)
