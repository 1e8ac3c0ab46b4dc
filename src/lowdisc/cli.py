"""Command-line surface: builds certificates as JSON files and verifies
them by recomputation.

Subcommands: lowdisc, halfspace, expander, dist, approx, lift, verify.
All outputs are written atomically (temp + rename) with a RunManifest
alongside; `verify` on a manifest re-runs the pipeline and checks the
outputs are byte-identical. Exit codes: 0 success, 1 verification
failure, 2 argument errors.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .construction import build_low_disc_set, evaluate_guards, \
    iteration_constants, paper_parameters, report_constants
from .discrepancy import IntegerMultiset, _numeric_error, \
    _splice_chunks, disc, disc_at
from .distribution import uniformity_report
from .approximation import builtin_table, BooleanFunctionTable, minimax_poly, \
    threshold_degree, approx_problem, dual_failures, symmetric_profile, \
    reference_weights, symmetric_result
from .halfspace import HalfspaceSpec, build_hardest_halfspace, lift_to_nof, \
    LiftedProblemSpec, two_party_matrix, build_master_halfspace, paper_c_prime
from .expander import build_expander, spectral_gap, CirculantGraph, \
    connection_from_set, find_delta, DEGREE_BUDGET_FACTOR
from .polynomials import monomials_upto_deg


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


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_multiset(elements, m):
    """(Z, whole): the multiset of `elements` (decimal strings or ints)
    mod m, and whether they are exactly 0, ..., m-1. They are parsed as
    one int64 array, or as exact Python ints when one falls outside int64;
    the list 0, ..., m-1 becomes IntegerMultiset.residue_system(m), which
    holds no element tuple."""
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
    if "elements" not in d:
        raise ValueError(f"{path}: no 'elements' field")
    m = int(m_override if m_override is not None else d["m"])
    return _parse_multiset(d["elements"], m)[0]


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
    g = build_expander(args.n, args.eps, mode=args.mode, seed=args.seed)
    outputs = {args.out: _dump(g.to_json_dict())}
    edge_path = args.edge_list or (os.path.splitext(args.out)[0] + ".edges")
    if args.n <= args.edge_list_limit:
        outputs[edge_path] = g.edge_list_blocks()
    else:
        print(f"order {args.n} > --edge-list-limit, edge list skipped",
              file=sys.stderr)
    _write_outputs(args, outputs, started)
    print(f"n={g.order} d={g.degree} lambda={g.lam:.6f} "
          f"branch={g.provenance.get('branch')}")
    return 0


def _cmd_dist(args, started):
    Z = _load_multiset(args.z_file, args.m)
    rep = uniformity_report(Z, delta=args.delta)
    table = rep.pop("table")
    out = {
        "schema": "lowdisc.uniformity_report/3",
        "m": str(Z.m),
        "elements": [str(e) for e in Z.elements],
        "table": {**table.json_header(), "probs": []},
        **{k: v for k, v in rep.items() if k not in ("m", "n")},
        "n": str(rep["n"]),
    }
    out["admissible_m"] = str(out["admissible_m"])
    cells = (f'{{\n        "den": "{den}",\n        "num": "{num}"\n      }}'
             for num, den in table.lowest_terms())
    sep = ",\n      "  # the m cells are joined and encoded 4096 at a time
    probs = ((sep * bool(i) + sep.join(itertools.islice(cells, 4096))).encode()
             for i in range(0, Z.m, 4096))
    _write_outputs(args, {args.out: _splice_chunks(_dump(out), 2, "probs",
                                                   probs)}, started)
    print(f"observed={rep['observed_deviation']:.3e} "
          f"fourier={rep['fourier_bound']:.3e} "
          f"disc_bound={rep['disc_bound']:.3e}")
    return 0


def _threshold_degree_ok(f, degree):
    """The threshold kind finds its degree and records --degree unused:
    it may be any of 0..n, or the default 1 on a 0-variable table."""
    return 0 <= degree <= max(f.n, 1)


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
    out = {
        "schema": "lowdisc.approx_report/4",
        "fn": {"n": f.n, "values": [int(v) for v in f.values]},
        "kind": args.kind,
        "degree": args.degree,
        "result": res.to_json_dict(),
    }
    _write_outputs(args, {args.out: _dump(out)}, started)
    print(f"fn={args.fn} kind={args.kind} d0={res.d0} error={res.error:.6f}")
    return 0


def _cmd_lift(args, started):
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

def _fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return False


def _fraction(q):
    return Fraction(int(q["num"]), int(q["den"]))


def _attains(Z, k, cert):
    """Whether a claimed argmax k attains the recomputed certificate's
    value: it is cert's own argmax, or it lies in 1..m-1 and attains the
    value within 1e-9, evaluated directly at k. Any such k is accepted:
    k and m - k tie exactly, and earlier kernels' rounding could pick
    either."""
    return k == cert.argmax_k or (
        1 <= k < Z.m and abs(disc_at(Z, k) - cert.value) <= 1e-9)


def _verify_construction_report(d):
    m, eps, mode = int(d["m"]), float(d["eps"]), d["mode"]
    Z, full = _parse_multiset(d["elements"], m)
    cert = disc(Z)
    want = cert.to_json_dict()
    # Report /v embeds certificate /v.
    version = d["schema"].rsplit("/", 1)[1]
    want["schema"] = f"lowdisc.discrepancy_certificate/{version}"
    if version == "1":
        # /1 always took the transform, so its error bound counts the
        # whole support, also for {0, ..., m-1}.
        want["numeric_error"] = _numeric_error(np.count_nonzero(Z.freq), m)
    claimed = d["certificate"]
    ok = True
    if (d["branch"] == "trivial") != full:
        ok = _fail("branch is trivial exactly when the elements are 0..m-1")
    # Every nontrivial branch returns its set only at disc <= eps.
    if d["branch"] != "trivial" and cert.value > eps + 1e-9:
        ok = _fail(f"disc {cert.value} > eps {eps} on branch {d['branch']!r}")
    if mode == "paper":
        guards = [[name, bool(good)] for name, good in
                  evaluate_guards(m, paper_parameters(m, eps))]
        if d["guards"] != guards:
            ok = _fail("guards differ from the paper parameters of (m, eps)")
        if (d["branch"] == "trivial") == all(good for _, good in guards):
            ok = _fail("paper branch is trivial exactly when a guard fails")
    if mode != "practical" and d["branch"] != "pipeline" and d["stages"]:
        ok = _fail("stages recorded, but no pipeline ran")
    if d["constants"] != report_constants(m, eps, mode, Z.cardinality):
        ok = _fail("constants differ from those re-derived from (m, eps, "
                   "mode) and the elements")
    if abs(cert.value - float(claimed["value"])) > 1e-9:
        ok = _fail(f"disc {cert.value} != claimed {claimed['value']}")
    if not _attains(Z, int(claimed["argmax_k"]), cert):
        ok = _fail("argmax_k does not attain the discrepancy")
    for key in sorted(want.keys() - {"value", "argmax_k"}):
        if claimed.get(key) != want[key]:
            ok = _fail(f"certificate {key} mismatch")
    return ok


def _verify_graph(d):
    g = CirculantGraph.from_json_dict(d)  # recomputes the spectrum
    ok = True
    if abs(g.lam - float(d["lambda"])) > 1e-9:
        ok = _fail(f"lambda {g.lam} != claimed {d['lambda']}")
    if g.degree != int(d["degree"]):
        ok = _fail("degree mismatch")
    lam, cert = spectral_gap(g)
    if abs(lam - g.lam) > 1e-9:
        ok = _fail("spectral_gap disagrees with assembly")
    prov = d.get("provenance", {})
    branch = prov.get("branch")
    eps = float(prov["eps"])
    if prov["degree_budget"] != DEGREE_BUDGET_FACTOR * math.log2(g.order):
        ok = _fail("degree_budget != DEGREE_BUDGET_FACTOR * log2 n")
    if (prov["mode"] == "paper" or "C_eps" in prov) and (
            prov["mode"] != "paper"
            or prov.get("C_eps") != iteration_constants()[0] / eps ** 2):
        ok = _fail("C_eps is recorded exactly in paper mode, as c / eps^2")
    if branch == "complete":
        if g.connection != tuple(range(1, g.order)):
            ok = _fail("complete branch but connection != {1, ..., n-1}")
    elif branch != "low_disc":
        ok = _fail(f"unknown branch {branch!r}")
    has_source = (bool(prov.get("z_elements"))
                  and prov.get("disc_value") is not None)
    if branch == "low_disc" and not has_source:
        ok = _fail("low_disc branch without its source set and discrepancy")
    if has_source:
        Z = IntegerMultiset([int(z) for z in prov["z_elements"]], g.order)
        zcert = disc(Z)
        dv = zcert.value
        if abs(dv - float(prov["disc_value"])) > 1e-9:
            ok = _fail("provenance disc mismatch")
        if not _attains(Z, prov.get("disc_argmax_k"), zcert):
            ok = _fail("provenance disc_argmax_k does not attain disc_value")
        if str(prov.get("z_digest")) != str(zcert.elements_digest):
            ok = _fail("provenance z_digest mismatch")
        residues = sorted(set(Z.residues()))
        if "collision_count" in prov:
            if find_delta(g.order, residues) != (int(prov["delta"]),
                                                 int(prov["collision_count"])):
                ok = _fail("delta or collision_count differs from the "
                           "delta search")
        if branch == "low_disc":
            # A complete fallback is not built from Z, so only here.
            if lam > 2 * Z.cardinality * dv + 1e-6:
                ok = _fail("lambda exceeds the 2|Z| disc bound")
            if lam > max(eps, 1 / (g.order - 1)) * g.degree + 1e-9:
                ok = _fail("lambda exceeds max(eps, 1/(n-1)) * degree")
            if dv > eps:
                ok = _fail(f"disc_value {dv} > eps {eps}")
            if prov.get("construction_branch") == "trivial":
                ok = _fail("low_disc graph from a trivial construction")
            conn = connection_from_set(g.order, residues, int(prov["delta"]))
            if tuple(sorted(conn)) != g.connection:
                ok = _fail("connection != ((Z + delta) u (-Z - delta)) mod n")
            c_eps = len(residues) / math.log2(g.order)
            if abs(float(prov["C_eps_measured"]) - c_eps) > 1e-9:
                ok = _fail("C_eps_measured != |Z| / log2 n")
    return ok


def _hardest_failures(h, prov):
    """The failed checks of a hardest halfspace's provenance: a fallback
    is build_hardest_halfspace's at n, where floor(c' n) < 1 for the
    paper's c'; otherwise c' is the paper's in paper mode, z_size = |Z|,
    disc_target_met = (disc <= 1/10) and m = 2^floor(c' n) for an n whose
    size window [n/4, n/2] holds |Z| (2|Z| <= n <= 4|Z|, or n <= 4)."""
    if prov["fallback"]:
        want = (math.floor(paper_c_prime() * h.n) < 1
                and build_hardest_halfspace(h.n, mode="paper"))
        if want and (h.weights, h.threshold, prov) == (
                want.weights, want.threshold, want.provenance):
            return []
        return ["not the paper fallback sign(1/2 - x_1) at floor(c' n) < 1"]
    cp, z = Fraction(prov["c_prime"]), len(prov["z_elements"])
    failed = []
    if prov["mode"] == "paper" and cp != paper_c_prime():
        failed.append("c_prime != the paper's min(1/200, 1/(2 C_1/10))")
    if prov["z_size"] != z:
        failed.append("z_size != |z_elements|")
    if prov["disc_target_met"] != (float(prov["disc"]) <= 0.1):
        failed.append("disc_target_met != (disc <= 0.1)")
    if int(prov["m"]) not in {2 ** math.floor(cp * n) for n in
                              range(1 if z == 1 else 2 * z, 4 * z + 1)}:
        failed.append("m is not 2^floor(c' n) for any n with "
                      "2|Z| <= n <= 4|Z|")
    return failed


def _verify_halfspace(d):
    h = HalfspaceSpec.from_json_dict(d)  # re-validates the never-zero form
    prov = d.get("provenance", {})
    ok = True
    if "z_elements" in prov:
        # A master (or non-fallback hardest) halfspace: rebuild it from Z.
        Z = IntegerMultiset([int(z) for z in prov["z_elements"]],
                            int(prov["m"]))
        # /1 stored a method repr in place of the digest.
        if (d["schema"] != "lowdisc.halfspace_spec/1"
                and prov.get("z_digest") != str(Z.digest())):
            ok = _fail("z_digest != digest of z_elements")
        master = build_master_halfspace(Z)
        if h.n != master.n:
            ok = _fail("n != 2|Z| for the provenance set Z")
        if h.weights != master.weights:
            ok = _fail("weights differ from (z mod m, ..., -m, ...) of Z")
        if h.threshold != master.threshold:
            ok = _fail("threshold != -1/2")
        if (prov.get("disc") is not None
                and abs(disc(Z).value - float(prov["disc"])) > 1e-9):
            ok = _fail("provenance disc mismatch")
    if prov.get("kind") == "hardest":
        for msg in _hardest_failures(h, prov):
            ok = _fail(msg)
    return ok


def _verify_uniformity(d):
    Z, _whole = _parse_multiset(d["elements"], int(d["m"]))
    rep = uniformity_report(Z, delta=float(d["delta"]))
    table = rep.pop("table")
    ok = True
    if int(d["n"]) != Z.cardinality:
        ok = _fail("n != |Z|")
    # Compared whole and as text: probabilities in lowest terms.
    want, stored = table.to_json_dict(), d["table"]
    for key in sorted(want.keys() | stored.keys()):
        if stored.get(key) != want.get(key):
            ok = _fail(f"table {key!r} differs (exact comparison)")
    for key in ("observed_deviation", "fourier_bound", "disc_bound", "disc"):
        if abs(rep[key] - float(d[key])) > 1e-9:
            ok = _fail(f"{key} mismatch")
    if str(rep["admissible_m"]) != str(d["admissible_m"]):
        ok = _fail("admissible_m mismatch")
    return ok


def _verify_lifted(d):
    F = LiftedProblemSpec.from_json_dict(d)
    ok = True
    if F.monomial_count != F.n * F.m_blk + 1:
        ok = _fail("monomial count inconsistent")
    if F.upp_upper_bound() != math.ceil(math.log2(F.monomial_count)) + 2:
        ok = _fail("upp bound inconsistent")
    return ok


def _verify_manifest(d, manifest_path):
    """Re-run the recorded subcommand into a scratch directory and demand
    byte-identical primary outputs."""
    params = dict(d["params"])
    argv = [d["subcommand"]]
    outs = d["outputs"]
    with tempfile.TemporaryDirectory() as scratch:
        positional = {"dist": ["z_file"], "lift": ["halfspace_file"]}
        for name in positional.get(d["subcommand"], []):
            argv.append(params.pop(name))
        for key, val in params.items():
            if key == "out":
                val = os.path.join(scratch, val)
            elif key in ("edge_list", "emit_matrix") and val:
                val = os.path.join(scratch, os.path.basename(val))
            argv += [f"--{key.replace('_', '-')}", str(val)]
        code = main(argv)
        if code != 0:
            return _fail(f"re-run exited {code}")
        ok = True
        for base, digest in outs.items():
            path = os.path.join(scratch, base)
            if not os.path.exists(path):
                ok = _fail(f"re-run did not produce {base}")
                continue
            with open(path, "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != digest:
                    ok = _fail(f"{base} differs from the recorded digest")
        return ok


def _stored_dual(n, g, cert):
    """A stored dual in the arithmetic of approx_problem: with g, exact
    weights on the reference points of t = 0..n; else one float per table
    index."""
    if g is None:
        return np.array(cert["psi"], dtype=float)
    return reference_weights(n, [int(t) for t in cert["reference"]],
                             [_fraction(p) for p in cert["psi"]])


def _stored(f, g, d0, claimed):
    """(A, f, error, c, psi): approx_problem(f, d0, g) and the stored
    error, coefficients and dual in its arithmetic. With g, f's symmetric
    profile, they are read from the `exact` block, and the float fields
    must be its rendering; else from the float fields, where a monomial of
    degree > d0 raises ValueError."""
    A, fv = approx_problem(f, d0, g)
    if g is not None:
        exact = claimed["meta"].get("exact")
        if exact is None:
            raise ValueError("symmetric table without an exact certificate")
        error, coeffs = (_fraction(exact["error"]),
                         [_fraction(c) for c in exact["coeffs"]])
        ref, psi = ([int(t) for t in exact["reference"]],
                    [_fraction(p) for p in exact["psi"]])
        want = symmetric_result(f.n, d0, error, coeffs, ref, psi)
        if ({**want.to_json_dict(), "meta": claimed["meta"]} != claimed
                or claimed["meta"].get("dual_verified") is not True):
            raise ValueError("float fields are not the floats of the exact "
                             "certificate")
        return A, fv, error, coeffs, reference_weights(f.n, ref, psi)
    column = {m: j for j, m in enumerate(monomials_upto_deg(f.n, d0))}
    coeffs = np.zeros(len(column))
    for key, c in claimed["num_coeffs"].items():
        mono = tuple(int(i) for i in key.split(",")) if key else ()
        if mono not in column:
            raise ValueError(f"monomial {key!r} is not of degree <= d0 in "
                             f"{f.n} variables")
        coeffs[column[mono]] = float(c)
    return (A, fv, float(claimed["error"]), coeffs,
            _stored_dual(f.n, g, {"psi": claimed["dual_certificate"]}))


def _sign_degree_failures(f, g, d0, meta, margin, tol):
    """The failed checks of deg+-(f) = d0, given the margin min f p of the
    stored polynomial p of degree d0: it is positive and the stored one
    (within tol, relative above 1), and the stored certificate, a dual
    with value 1 at degree d0 - 1, proves that no polynomial of degree
    d0 - 1 sign-represents f."""
    claimed = float(meta["margin"])
    close = abs(margin - claimed) <= tol * max(1.0, abs(claimed))
    failed = [] if margin > 0 and close else [
        f"witness margin {margin} != claimed {claimed} or not positive"]
    cert = meta.get("certificate")
    if d0 == 0:
        return failed + ([] if cert is None
                         else ["certificate below degree 0"])
    if cert is None or cert["degree"] != d0 - 1:
        return failed + [f"no certificate for degree {d0 - 1}"]
    A, fv = approx_problem(f, d0 - 1, g)
    return failed + [f"degree {d0 - 1} certificate: {msg}" for msg in
                     dual_failures(_stored_dual(f.n, g, cert), A, fv, 1)]


def _verify_approx(d):
    """Checks an approx report from its own fields and certificates; no
    path solves an optimization problem. error = E(f, d0): the stored
    coefficients attain it and the dual proves that no polynomial of
    degree <= d0 does better, exactly for a symmetric table (from /3),
    else within 1e-9 and 1e-6."""
    f = BooleanFunctionTable(int(d["fn"]["n"]),
                             [int(v) for v in d["fn"]["values"]])
    claimed = d["result"]
    version = int(d["schema"].rsplit("/", 1)[1])
    threshold = d["kind"] == "threshold"
    if threshold and version < 4:
        return _fail(f"{d['schema']} threshold report has no certificate "
                     f"below its degree: rebuild it from its manifest")
    d0 = int(claimed["d0"])
    if not 0 <= d0 <= f.n or (not threshold and d0 != int(d["degree"])):
        return _fail("degree mismatch")
    if threshold and not _threshold_degree_ok(f, int(d["degree"])):
        return _fail(f"recorded degree {d['degree']} outside "
                     f"0..{max(f.n, 1)}")
    if claimed["dual_certificate"] is None:
        return _fail("no dual certificate: rebuild it from its manifest")
    g = None  # before /3 no table has an exact block: float checks
    if version >= 3:
        g = symmetric_profile(f)
        if g is None and "exact" in claimed["meta"]:
            return _fail("exact certificate on a table that is not "
                         "symmetric")
    A, fv, error, c, psi = _stored(f, g, d0, claimed)
    tol = 1e-9 if g is None else 0
    failed = dual_failures(psi, A, fv, error)
    if not abs(np.max(np.abs(A @ c - fv)) - error) <= tol:
        failed.append("stored coefficients do not reproduce the error")
    if threshold:
        failed += _sign_degree_failures(f, g, d0, claimed["meta"],
                                        float(np.min(fv * (A @ c))), tol)
    for msg in failed:
        _fail(msg)
    return not failed


# Each schema is verified at versions 1 up to its current one.
_VERIFIERS = {f"lowdisc.{name}/{v}": check for name, check, current in (
    ("approx_report", _verify_approx, 4),
    ("construction_report", _verify_construction_report, 3),
    ("circulant_graph", _verify_graph, 3),
    ("halfspace_spec", _verify_halfspace, 2),
    ("uniformity_report", _verify_uniformity, 3),
    ("lifted_problem", _verify_lifted, 1)) for v in range(1, current + 1)}


def _cmd_verify(args, _started):
    code = 0
    for path in args.files:
        d = _load_json(path)
        schema = d.get("schema")
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


if __name__ == "__main__":
    sys.exit(main())
