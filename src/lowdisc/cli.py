"""Command-line surface: builds certificates as JSON files and verifies
them by recomputation.

Subcommands: lowdisc, halfspace, expander, dist, approx, lift, verify.
All outputs are written atomically (temp + rename) with a RunManifest
alongside; `verify` on a manifest re-runs the pipeline and checks the
outputs are byte-identical. Exit codes: 0 success, 1 verification
failure, 2 argument errors. A process enters at `run`, which keeps
the process's freed heap for reuse, then exits with `main`'s code
without tearing the interpreter down. Importing this module or calling
`main` leaves the host's allocator as it is.
"""

import argparse
import atexit
import ctypes
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

# One BLAS thread, whatever the caller set, before numpy loads its BLAS:
# the last bits of minimax_exchange's solves and products depend on the
# thread count, and so, on a degenerate optimum, can the optimal reference
# it ends on; an artifact's bytes must not depend on the core count.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np

from . import __version__
from .construction import assemble_report, build_low_disc_set, \
    practical_pipeline_runs, random_search_size
from .discrepancy import IntegerMultiset, _is_decimal, _joined_blocks, \
    _splice_chunks, disc, disc_at
from .distribution import _check_dp_cap, uniformity_report
from .approximation import builtin_table, BooleanFunctionTable, \
    minimax_poly, threshold_degree, approx_problem
from .halfspace import HalfspaceSpec, build_hardest_halfspace, lift_to_nof, \
    two_party_matrix, build_master_halfspace, hardest_construction, \
    hardest_from_set, paper_c_prime
from .expander import build_expander, expander_from_construction, \
    spectral_gap


def _write_temp(path, data, staged):
    """The sha256 hex digest of `data` (bytes or byte chunks), written to
    a temp file beside `path` and hashed chunk by chunk as it is written.
    (temp file, path) is added to `staged` before the first write."""
    sha = hashlib.sha256()
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    staged.append((tmp, path))
    with os.fdopen(fd, "wb") as fh:
        for chunk in [data] if isinstance(data, bytes) else data:
            sha.update(chunk)
            fh.write(chunk)
    return sha.hexdigest()


def _dump(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _write_outputs(args, outputs, started):
    """Write outputs ({path: bytes or byte chunks}) plus a RunManifest
    (<out>.manifest.json), renaming none into place before all are written.

    The manifest records the subcommand, parameters, seed, version, wall
    time, and sha256 digests; re-running the manifest must reproduce the
    primary outputs byte-identically.
    """
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out", "subcommand")
              and v is not None}
    for key in ("z_file", "halfspace_file", "fn"):
        if key in params and os.path.exists(params[key]):
            params[key] = os.path.abspath(params[key])
    params["out"] = os.path.basename(args.out)
    staged, digests = [], {}
    try:
        for path, data in outputs.items():
            digests[os.path.basename(path)] = _write_temp(path, data, staged)
        manifest = {
            "schema": "lowdisc.run_manifest/1",
            "subcommand": args.subcommand,
            "params": params,
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "wall_time_s": time.monotonic() - started,
            "outputs": digests,
        }
        _write_temp(args.out + ".manifest.json", _dump(manifest), staged)
    except BaseException:
        for tmp, _path in staged:
            os.unlink(tmp)
        raise
    for tmp, path in staged:
        os.replace(tmp, path)


def _own_path(args, path):
    """`path`, an auxiliary output, unless it resolves to --out or its
    manifest, which it would overwrite: then ValueError (exit 2)."""
    if os.path.realpath(path) in {os.path.realpath(p) for p in (
            args.out, args.out + ".manifest.json")}:
        raise ValueError(f"{path} would overwrite --out or its manifest")
    return path


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_multiset(elements, m):
    """(Z, whole): the multiset of `elements` (decimal strings or ints)
    mod m, and whether they are exactly 0, ..., m-1. They are parsed as
    one int64 array, or as exact Python ints when one falls outside int64;
    the list 0, ..., m-1 becomes IntegerMultiset.residue_system(m), which
    holds no element tuple. Anything but a list of ints and strings (a
    float, a bool, a list) raises ValueError, as does a string that is
    not a decimal integer (a sign other than one leading "-", a space, a
    leading zero, an underscore, a non-ASCII digit)."""
    if not (isinstance(elements, list) and all(map(_is_decimal, elements))):
        raise ValueError("elements must be a list of integers or decimal "
                         "strings")
    try:
        arr = np.array(elements, dtype=np.int64)
    except OverflowError:
        return IntegerMultiset([int(e) for e in elements], m), False
    if len(arr) == m and np.array_equal(arr, np.arange(m)):
        return IntegerMultiset.residue_system(m), True
    return IntegerMultiset(arr.tolist(), m), False


def _load_multiset(path, m_override=None):
    """Accept a construction-report JSON, a dist-report JSON, or a bare
    {"m": ..., "elements": [...]} file."""
    d = _load_json(path)
    if not isinstance(d, dict) or "elements" not in d:
        raise ValueError(f"{path}: no 'elements' field")
    m = m_override if m_override is not None else d["m"]
    if not _is_decimal(m):
        raise ValueError(f"{path}: m must be an integer or a decimal string")
    if type(d["elements"]) is list:  # dist's cap, before building Z
        _check_dp_cap(len(d["elements"]), int(m))
    return _parse_multiset(d["elements"], int(m))[0]


# ---------------------------------------------------------------- builders

def _cmd_lowdisc(args, started):
    report = build_low_disc_set(args.m, args.eps, args.mode, seed=args.seed)
    _write_outputs(args, {args.out: report.json_chunks()}, started)
    print(f"m={args.m} branch={report.branch} "
          f"disc={report.final_certificate.value:.6f} "
          f"n={report.final_set.cardinality}")
    return 0


def _cmd_halfspace(args, started):
    h = build_hardest_halfspace(args.n, c_prime=args.c_prime, mode=args.mode,
                                seed=args.seed)
    _write_outputs(args, {args.out: _dump(h.to_json_dict())}, started)
    print(f"n={h.n} weights={len(h.weights)} "
          f"branch={h.provenance.get('construction_branch', 'fallback')}")
    return 0


def _cmd_expander(args, started):
    edges = args.n <= args.edge_list_limit
    if edges:
        edge_path = _own_path(args, args.edge_list or (
            os.path.splitext(args.out)[0] + ".edges"))
    g = build_expander(args.n, args.eps, mode=args.mode, seed=args.seed)
    outputs = {args.out: _dump(g.to_json_dict())}
    if edges:
        outputs[edge_path] = g.edge_list_blocks()
    else:
        print(f"order {args.n} > --edge-list-limit, edge list skipped",
              file=sys.stderr)
    _write_outputs(args, outputs, started)
    print(f"n={g.order} d={g.degree} lambda={g.lam:.6f} "
          f"branch={g.provenance.get('branch')}")
    return 0


def _dist_report(Z, delta):
    """(out, table, error): the uniformity report of Z as `dist` writes it,
    with the table's probabilities left empty, the table that fills them,
    and the error of its fourier_bound."""
    rep = uniformity_report(Z, delta=delta)
    table, error = rep.pop("table"), rep.pop("fourier_error")
    out = {
        "schema": "lowdisc.uniformity_report/5",
        "m": str(Z.m),
        "elements": [str(e) for e in Z.elements],
        "table": {**table.json_header(), "probs": []},
        **{k: v for k, v in rep.items() if k not in ("m", "n")},
        "n": str(rep["n"]),
        "admissible_m": str(rep["admissible_m"]),
    }
    return out, table, error


def _cmd_dist(args, started):
    Z = _load_multiset(args.z_file, args.m)
    out, table, _error = _dist_report(Z, args.delta)
    cells = (f'{{\n        "den": "{den}",\n        "num": "{num}"\n      }}'
             for num, den in table.lowest_terms())
    sep = ",\n      "  # the m cells are joined and encoded 4096 at a time
    probs = ((sep * bool(i) + sep.join(itertools.islice(cells, 4096))).encode()
             for i in range(0, Z.m, 4096))
    _write_outputs(args, {args.out: _splice_chunks(_dump(out), 2, "probs",
                                                   probs)}, started)
    print(f"observed={out['observed_deviation']:.3e} "
          f"fourier={out['fourier_bound']:.3e} "
          f"disc_bound={out['disc_bound']:.3e}")
    return 0


def _threshold_degree_ok(f, degree):
    """The threshold kind finds its degree and records --degree unused:
    it may be any of 0..n, or the default 1 on a 0-variable table."""
    return 0 <= degree <= max(f.n, 1)


def _approx_report(f, kind, degree, res):
    """The approx report of result `res` as `approx` writes it."""
    return {
        "schema": "lowdisc.approx_report/8",
        "fn": {"n": f.n, "values": [int(v) for v in f.values]},
        "kind": kind,
        "degree": degree,
        "result": res.to_json_dict(),
    }


def _cmd_approx(args, started):
    if os.path.exists(args.fn):
        with open(args.fn, encoding="utf-8") as fh:
            f = BooleanFunctionTable.from_text(fh.read())
    else:
        f = builtin_table(args.fn)
    if args.kind == "threshold" and not _threshold_degree_ok(f, args.degree):
        raise ValueError(f"--degree {args.degree} outside 0..{max(f.n, 1)}")
    res = (minimax_poly(f, args.degree) if args.kind == "poly"
           else threshold_degree(f))
    out = _approx_report(f, args.kind, args.degree, res)
    _write_outputs(args, {args.out: _dump(out)}, started)
    print(f"fn={args.fn} kind={args.kind} d0={res.d0} error={res.error:.6f}")
    return 0


def _cmd_lift(args, started):
    if args.emit_matrix:
        _own_path(args, args.emit_matrix)
    h = HalfspaceSpec.from_json_dict(_load_json(args.halfspace_file))
    F = lift_to_nof(h, args.k, args.m_blk)
    outputs = {args.out: _dump(F.to_json_dict())}
    if args.emit_matrix:
        M, _R, _pts = two_party_matrix(F)
        cell = {1: "1", -1: "-1"}.__getitem__
        outputs[args.emit_matrix] = "".join(
            ",".join(map(cell, row.tolist())) + "\n" for row in M).encode()
    _write_outputs(args, outputs, started)
    print(f"k={F.k} n={F.n} m_blk={F.m_blk} "
          f"monomials={F.monomial_count} upp<={F.upp_upper_bound()}")
    return 0


# ------------------------------------------------------------------ verify
#
# One rule: the stored JSON must equal its writer's rendering of the
# recomputed artifact (_matches); docs/formats.md lists the few fields
# rendered as stored. Checks the rendering does not imply follow it.

def _fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return False


def _render_argmax(want, stored, key, Z, cert):
    """Render the stored argmax k = stored[key] into want when it attains
    cert's value: it is cert's argmax, or lies in 1..m-1 and attains the
    value within 1e-9, evaluated directly at k. Any such k is accepted: k
    and m - k tie exactly, and another numpy build's rounding among tied k
    could pick any of them."""
    k = int(stored[key])
    if k == cert.argmax_k or (
            1 <= k < Z.m and abs(disc_at(Z, k) - cert.value) <= 1e-9):
        want[key] = type(want[key])(k)


def _differences(stored, want, near=(), path=""):
    """The paths ("a.b") at which the JSON value `stored` differs from its
    rendering `want`, compared object by object. At a path in `near` a
    number, or each number of a list, may differ by near[path]: the floats
    a transform recomputes, whose last bits move between numpy builds.
    Anything else must have the same JSON text, so 1, 1.0 and true
    differ."""
    if isinstance(stored, dict) and isinstance(want, dict):
        out = []
        for key in sorted(stored.keys() | want.keys()):
            sub = f"{path}.{key}" if path else key
            out += (_differences(stored[key], want[key], near, sub)
                    if key in stored and key in want else [sub])
        return out
    if path in near:
        lists = type(stored) is type(want) is list and len(stored) == len(want)
        tol = near[path]
        close = all(type(s) in (int, float) and abs(s - w) <= tol for s, w in
                    (zip(stored, want) if lists else [(stored, want)]))
        return [] if close else [path]
    if stored == want and _strings(want):
        return []  # the fast path: == is exact on strings
    same = json.dumps(stored, sort_keys=True) == json.dumps(want, sort_keys=True)
    return [] if same else [path]


def _strings(v):
    """Whether the JSON value v is a string or holds only strings. A level
    of objects is opened at once, as for a table's probabilities."""
    while isinstance(v, (dict, list)):
        items = list(v.values()) if isinstance(v, dict) else v
        kinds = set(map(type, items))
        if kinds == {dict}:
            v = list(itertools.chain.from_iterable(map(dict.values, items)))
        else:
            return kinds <= {str} or kinds <= {str, dict, list} and all(
                map(_strings, items))
    return isinstance(v, str)


def _matches(stored, want, near=()):
    """Whether `stored` equals its rendering `want` (_differences) but for
    the schema string, reporting every field that does not."""
    want["schema"] = stored["schema"]
    diffs = _differences(stored, want, near)
    for path in diffs:
        _fail(f"{path} differs from its re-rendering")
    return not diffs


def _same_blocks(strings, Z):
    """Whether the list `strings` is Z's element text, compared against
    Z.element_blocks one block at a time; an item that is not a str
    raises TypeError."""
    return all(a == b for a, b in itertools.zip_longest(
        _joined_blocks(strings), Z.element_blocks))


# The branches build_low_disc_set returns in each mode.
_BRANCHES = {"paper": ("trivial", "pipeline"),
             "practical": ("pipeline", "random_search", "trivial"),
             "random": ("random_search", "trivial")}


def _verify_construction_report(d):
    m, eps, mode, branch = int(d["m"]), float(d["eps"]), d["mode"], d["branch"]
    # The elements against the blocks json_chunks writes them from, block
    # by block: 0, ..., m-1 is recognised without parsing.
    full = len(d["elements"]) == m
    Z = IntegerMultiset.residue_system(m) if full else None
    same = full and _same_blocks(d["elements"], Z)
    if not same:
        Z, full = _parse_multiset(d["elements"], m)
        same = _same_blocks(d["elements"], Z)
    # A practical build logs the pipeline's stages only at stage 3's
    # m >= 668168 (the stages it then runs).
    logged = mode == "practical" and practical_pipeline_runs(m)
    report = assemble_report(
        mode, m, eps, d["seed"], branch,
        d["stages"] if logged or branch == "pipeline" else [], d["notes"], Z)
    cert = report.final_certificate
    want = {**report._fields(), "elements": True}
    _render_argmax(want["certificate"], d["certificate"], "argmax_k", Z, cert)
    ok = _matches({**d, "elements": same}, want,
                  near={"certificate.value": 1e-9})
    if not 0 < eps <= 1 or branch not in _BRANCHES.get(mode, ()):
        ok = _fail(f"no build at eps {eps} in mode {mode!r} returns "
                   f"branch {branch!r}")
    elif branch == "random_search" and Z.cardinality != (
            size := random_search_size(m, eps)):
        ok = _fail(f"a random search at eps {eps} returns {size} elements")
    if (branch == "trivial") != full:
        ok = _fail("branch is trivial exactly when the elements are 0..m-1")
    if logged and not d["stages"]:
        ok = _fail("a practical build at m >= 668168 logs its stages")
    # Every nontrivial branch returns its set only at disc <= eps.
    if branch != "trivial" and cert.value > eps + 1e-9:
        ok = _fail(f"disc {cert.value} > eps {eps} on branch {branch!r}")
    if mode == "paper" and (branch == "trivial") == all(
            good for _, good in report.guards):
        ok = _fail("paper branch is trivial exactly when a guard fails")
    return ok


def _verify_graph(d):
    prov = d["provenance"]
    n = int(d["order"])
    construction, ok = None, True
    if "z_elements" in prov:
        Z = IntegerMultiset([int(z) for z in prov["z_elements"]], n)
        construction = (prov["construction_branch"], Z, disc(Z))
        ok = _built_branch(build_low_disc_set(n, prov["eps"], prov["mode"],
                                              seed=prov.get("seed")), prov)
    g = expander_from_construction(n, prov["eps"], prov["mode"],
                                   prov.get("seed"), construction)
    want = g.to_json_dict()
    if construction:
        _render_argmax(want["provenance"], prov, "disc_argmax_k",
                       *construction[1:])
    ok = _matches(d, want, near=dict.fromkeys(
        ("lambda", "spectrum", "provenance.disc_value",
         "provenance.spectrum_imag_residue"), 1e-9)) and ok
    lam, cert = spectral_gap(g)  # dense eigensolve up to order 256
    if g.provenance["branch"] == "low_disc":
        if lam > cert["disc_bound"] + 1e-6:
            ok = _fail("lambda exceeds the 2|Z| disc bound")
        if prov["construction_branch"] == "trivial":
            ok = _fail("low_disc graph from a trivial construction")
    return ok


def _built_branch(report, prov):
    """Whether the construction rebuilt at the recorded parameters took the
    recorded construction_branch."""
    if report.branch != prov["construction_branch"]:
        return _fail(f"the construction at these parameters takes branch "
                     f"{report.branch!r}, not {prov['construction_branch']!r}")
    return True


def _hardest_failures(h, prov):
    """The failed checks of a hardest halfspace built from a set: its
    mode is paper or demo, c' is the paper's in paper mode, and
    m = 2^floor(c' n) for an n whose size window [n/4, n/2] holds |Z|
    (2|Z| <= n <= 4|Z|, or n <= 4)."""
    cp, z = Fraction(prov["c_prime"]), len(prov["z_elements"])
    failed = []
    if prov["mode"] not in ("paper", "demo"):
        failed.append(f"unknown mode {prov['mode']!r}")
    if prov["mode"] == "paper" and cp != paper_c_prime():
        failed.append("c_prime != the paper's min(1/200, 1/(2 C_1/10))")
    if int(prov["m"]) not in {2 ** math.floor(cp * n) for n in
                              range(1 if z == 1 else 2 * z, 4 * z + 1)}:
        failed.append("m is not 2^floor(c' n) for any n with "
                      "2|Z| <= n <= 4|Z|")
    return failed


def _verify_halfspace(d):
    h = HalfspaceSpec.from_json_dict(d)  # re-validates the never-zero form
    prov = d.get("provenance", {})
    hardest = prov.get("kind") == "hardest"
    if hardest and prov["fallback"]:
        # The paper fallback sign(1/2 - x_1), built only at floor(c' n) < 1.
        if math.floor(paper_c_prime() * h.n) >= 1:
            return _fail("a paper fallback at floor(c' n) >= 1")
        want = build_hardest_halfspace(h.n, mode="paper")
    elif "z_elements" in prov:
        # A master (or non-fallback hardest) halfspace: rebuilt from Z.
        Z = IntegerMultiset([int(z) for z in prov["z_elements"]],
                            int(prov["m"]))
        want = (hardest_from_set(Z, prov["mode"], Fraction(prov["c_prime"]),
                                 prov["construction_branch"], prov["seed"])
                if hardest else build_master_halfspace(Z))
    else:
        return True  # a spec with no set to rebuild it from
    want = want.to_json_dict()
    wprov = want["provenance"]
    if isinstance(prov.get("m"), str):  # as hand-written master inputs
        wprov["m"] = str(wprov["m"])
    if d["schema"] == "lowdisc.halfspace_spec/1":
        # /1 stored a method repr in place of the digest, or none.
        wprov.pop("z_digest")
        if "z_digest" in prov:
            wprov["z_digest"] = prov["z_digest"]
    ok = _matches(d, want, near={"provenance.disc": 1e-9})
    if hardest and not prov["fallback"]:
        for msg in _hardest_failures(h, prov):
            ok = _fail(msg)
        seed = None if prov["seed"] is None else int(prov["seed"])
        ok = _built_branch(hardest_construction(int(prov["m"]), prov["mode"],
                                                seed), prov) and ok
    return ok


def _verify_uniformity(d):
    """The report as `dist` writes it. observed_deviation, the float of an
    exact Fraction, must match exactly; fourier_bound within its stated
    error; disc_bound within a relative 1e-9 and disc within 1e-9. The
    table's probabilities are compared cell by cell, as text in lowest
    terms. dist's cap is checked before the multiset is built."""
    _check_dp_cap(len(d["elements"]), int(d["m"]))
    Z, _whole = _parse_multiset(d["elements"], int(d["m"]))
    want, table, error = _dist_report(Z, float(d["delta"]))
    stored = d["table"]
    ok = _matches({**d, "table": {**stored, "probs": []}}, want,
                  near={"fourier_bound": error,
                        "disc_bound": 1e-9 * want["disc_bound"],
                        "disc": 1e-9})
    probs = stored.get("probs")
    if not isinstance(probs, list) or len(probs) != table.m:
        return _fail(f"table.probs is not a list of {table.m} cells")
    for s, (p, (num, den)) in enumerate(zip(probs, table.lowest_terms())):
        if p != {"num": num, "den": den}:
            return _fail(f"table.probs[{s}] differs from its re-rendering")
    return ok


def _verify_lifted(d):
    """The problem lifted again from its recorded source halfspace, at
    the recorded k and m_blk."""
    F = lift_to_nof(HalfspaceSpec.from_json_dict(d), int(d["k"]),
                    int(d["m_blk"]))
    return _matches(d, F.to_json_dict())


# The subcommands that write a run manifest, and their positional
# parameters.
_MANIFEST_POSITIONALS = {"lowdisc": [], "halfspace": [], "expander": [],
                         "dist": ["z_file"], "approx": [],
                         "lift": ["halfspace_file"]}


def _verify_manifest(d, manifest_path):
    """Re-run the recorded subcommand into a scratch directory and demand
    byte-identical primary outputs. The manifest must name a subcommand
    that writes one, and its params and outputs must be objects, outputs
    of sha256 hex digests. The writer names --out and each output by a
    plain file name, so any other name fails, and writes nothing."""
    subcommand, params, outs = (d.get(key) for key in
                                ("subcommand", "params", "outputs"))
    if not (isinstance(subcommand, str)
            and subcommand in _MANIFEST_POSITIONALS):
        return _fail(f"unknown subcommand {subcommand!r}")
    if not (isinstance(params, dict) and isinstance(outs, dict)):
        return _fail("params and outputs must be objects")
    if not all(isinstance(name, str) and name not in ("", ".", "..")
               and name == os.path.basename(name)
               for name in [params.get("out"), *outs]):
        return _fail("out and outputs must be plain file names")
    if not all(isinstance(digest, str) and len(digest) == 64
               and digest.strip("0123456789abcdef") == ""
               for digest in outs.values()):
        return _fail("outputs must be sha256 hex digests")
    params, argv = dict(params), [subcommand]
    with tempfile.TemporaryDirectory() as scratch:
        for name in _MANIFEST_POSITIONALS[subcommand]:
            if name in params:  # else argparse rejects the re-run
                argv.append(str(params.pop(name)))
        for key, val in params.items():
            if key == "out":
                val = os.path.join(scratch, val)
            elif key in ("edge_list", "emit_matrix") and val:
                val = os.path.join(scratch, os.path.basename(str(val)))
            argv += [f"--{key.replace('_', '-')}", str(val)]
        try:
            code = main(argv)
        except SystemExit:  # argparse's usage error
            return _fail("re-run rejected its arguments")
        if code != 0:
            return _fail(f"re-run exited {code}")
        ok = True
        for base, digest in outs.items():
            path = os.path.join(scratch, base)
            if not os.path.exists(path):
                ok = _fail(f"re-run did not produce {base}")
                continue
            sha = hashlib.sha256()
            with open(path, "rb") as fh:  # 1 MiB at a time
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(chunk)
            if sha.hexdigest() != digest:
                ok = _fail(f"{base} differs from the recorded digest")
        return ok


def _verify_approx(d):
    """Checks an approx report's exact block, with no re-solve: on f's
    orbit design, Design reads it, renders it and checks exactly that the
    coefficients attain error = E(f, d0) and that the dual proves it."""
    f = BooleanFunctionTable(int(d["fn"]["n"]),
                             [int(v) for v in d["fn"]["values"]])
    claimed = d["result"]
    threshold = d["kind"] == "threshold"
    d0 = int(claimed["d0"])
    if not 0 <= d0 <= f.n or (not threshold and d0 != int(d["degree"])):
        return _fail("degree mismatch")
    if threshold and not _threshold_degree_ok(f, int(d["degree"])):
        return _fail(f"recorded degree {d['degree']} outside "
                     f"0..{max(f.n, 1)}")
    if claimed["dual_certificate"] is None:
        return _fail("no dual certificate: rebuild it from its manifest")
    p = approx_problem(f, d0)
    solution = p.read(claimed)
    res, failed = p.result(*solution)
    if threshold:
        meta, below = claimed["meta"], None
        if d0 and meta.get("certificate") is not None:
            q = approx_problem(f, d0 - 1)
            below = (q, *q.read_dual(meta["certificate"]))
        failed += p.threshold(res, solution[1], below)
    ok = _matches(d, _approx_report(f, "threshold" if threshold else "poly",
                                    int(d["degree"]), res))
    for msg in failed:
        _fail(msg)
    return ok and not failed


# Each output schema is verified at the version its writer writes today.
# A halfspace spec is also a hand-written `lift` input, read at every
# version.
_VERIFIERS = {
    "lowdisc.approx_report/8": _verify_approx,
    "lowdisc.construction_report/5": _verify_construction_report,
    "lowdisc.circulant_graph/4": _verify_graph,
    "lowdisc.uniformity_report/5": _verify_uniformity,
    "lowdisc.lifted_problem/2": _verify_lifted,
    **{f"lowdisc.halfspace_spec/{v}": _verify_halfspace for v in (1, 2, 3)}}


def _cmd_verify(args, _started):
    code = 0
    for path in args.files:
        d = _load_json(path)
        schema = d.get("schema") if isinstance(d, dict) else None
        if schema == "lowdisc.run_manifest/1":
            ok = _verify_manifest(d, path)
        elif schema in _VERIFIERS:
            try:
                ok = _VERIFIERS[schema](d)
            except Exception as e:  # recomputation itself rejected the data
                ok = _fail(f"{path}: {e}")
        else:
            print(f"error: {path}: unknown schema {schema!r}", file=sys.stderr)
            return 2
        print(f"{path}: {'ok' if ok else 'FAILED'}")
        if not ok:
            code = 1
    return code


# ------------------------------------------------------------------- main

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="lowdisc",
        description="Low-discrepancy sets, hard halfspaces, sign "
                    "approximation, lifting, and circulant expanders.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lowdisc", help="build a low-discrepancy set mod m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=("paper", "practical", "random"),
                   default="practical")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lowdisc)

    p = sub.add_parser("halfspace", help="build the hard-instance halfspace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c-prime", type=float)
    p.add_argument("--mode", choices=("paper", "demo"), default="paper")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_halfspace)

    p = sub.add_parser("expander", help="build a circulant expander")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=("paper", "practical"),
                   default="practical")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--edge-list", help="edge list path (default: <out>.edges)")
    p.add_argument("--edge-list-limit", type=int, default=100000,
                   help="skip the edge list above this order")
    p.set_defaults(func=_cmd_expander)

    p = sub.add_parser("dist", help="exact distribution + uniformity report")
    p.add_argument("z_file", help="JSON with elements (construction report ok)")
    p.add_argument("--m", type=int, help="override modulus")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("approx", help="minimax approximation of a Boolean "
                                      "function table")
    p.add_argument("--fn", required=True,
                   help="table file, or builtin like MAJ_3 / PARITY_4 / OMB_4")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--kind", choices=("poly", "threshold"), default="poly")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("lift", help="lift a halfspace to a k-party problem")
    p.add_argument("halfspace_file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-blk", type=int, required=True)
    p.add_argument("--emit-matrix", help="write the +-1 matrix CSV "
                                         "(k = 2, n*m_blk <= 12)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("verify", help="recompute every claimed number in "
                                      "certificate files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None):
    started = time.monotonic()
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args, started)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap():
    """Have glibc's malloc keep freed blocks below 32 MiB in the heap and
    trim nothing below 1 GiB. Each 2^20-point rfft or irfft of a large
    transform (the m = 1000003 disc) otherwise maps and unmaps about 16 MB
    of numpy's scratch, and faults every page of it in again: about 4,000
    minor faults per call. Where libc has no mallopt, nothing changes."""
    # CDLL(None) raises OSError without a loadable libc and TypeError on
    # Windows; a libc without mallopt raises AttributeError.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # its largest on 64-bit
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def run():
    """The process entry point (`python -m lowdisc.cli` and the `lowdisc`
    script): exits with main's code. Before main runs, it keeps the
    process's freed heap for reuse (_keep_freed_heap); the library never
    does, since a host that imports it keeps its own allocator. Every
    output is closed and renamed when main returns, so once the atexit
    handlers have run and stdout and stderr are flushed, the process
    leaves through os._exit and skips the interpreter's teardown of its
    modules and heap. An exception out of main, or a flush that fails,
    takes the interpreter's own exit, which reports it. main itself never
    exits, since tests and verify call it in-process."""
    _keep_freed_heap()
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError, AttributeError):  # failed, closed, None
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
