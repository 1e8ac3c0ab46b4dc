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
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .construction import build_low_disc_set
from .discrepancy import IntegerMultiset, disc
from .distribution import uniformity_report
from .approximation import builtin_table, BooleanFunctionTable, minimax_poly, \
    threshold_degree, ApproxResult
from .halfspace import HalfspaceSpec, build_hardest_halfspace, lift_to_nof, \
    LiftedProblemSpec, two_party_matrix, build_master_halfspace
from .expander import build_expander, spectral_gap, CirculantGraph, \
    connection_from_set


def _atomic_write(path, data):
    """Write bytes (or str as UTF-8) via temp file + rename."""
    if isinstance(data, str):
        data = data.encode()
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_outputs(args, outputs, started):
    """Write primary outputs atomically plus a RunManifest (<out>.manifest.json).

    outputs: {path: str-or-bytes}. The manifest records the subcommand,
    parameters, seed, version, wall time, and sha256 digests; re-running
    the manifest must reproduce the primary outputs byte-identically.
    """
    digests = {}
    for path, data in outputs.items():
        _atomic_write(path, data)
        digests[os.path.basename(path)] = _digest(data)
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out", "subcommand")
              and v is not None}
    for key in ("z_file", "halfspace_file", "fn"):
        if key in params and os.path.exists(params[key]):
            params[key] = os.path.abspath(params[key])
    params["out"] = os.path.basename(args.out)
    manifest = {
        "schema": "lowdisc.run_manifest/1",
        "subcommand": args.subcommand,
        "params": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
        "outputs": digests,
    }
    _atomic_write(args.out + ".manifest.json", _dump(manifest))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_multiset(path, m_override=None):
    """Accept a construction-report JSON, a dist-report JSON, or a bare
    {"m": ..., "elements": [...]} file."""
    d = _load_json(path)
    if "elements" not in d:
        raise ValueError(f"{path}: no 'elements' field")
    m = int(m_override if m_override is not None else d["m"])
    return IntegerMultiset([int(e) for e in d["elements"]], m)


# ---------------------------------------------------------------- builders

def _cmd_lowdisc(args, started):
    report = build_low_disc_set(args.m, args.eps, args.mode, seed=args.seed)
    _write_outputs(args, {args.out: report.to_json() + "\n"}, started)
    print(f"m={args.m} branch={report.branch} "
          f"disc={report.final_certificate.value:.6f} "
          f"n={report.final_set.cardinality}")
    return 0


def _cmd_halfspace(args, started):
    h = build_hardest_halfspace(args.n, c_prime=args.c_prime, mode=args.mode,
                                seed=args.seed)
    _write_outputs(args, {args.out: h.to_json() + "\n"}, started)
    print(f"n={h.n} weights={len(h.weights)} "
          f"branch={h.provenance.get('construction_branch', 'fallback')}")
    return 0


def _cmd_expander(args, started):
    g = build_expander(args.n, args.eps, mode=args.mode, seed=args.seed)
    outputs = {args.out: _dump(g.to_json_dict())}
    edge_path = args.edge_list or (os.path.splitext(args.out)[0] + ".edges")
    if args.n <= args.edge_list_limit:
        outputs[edge_path] = g.edge_list_bytes()
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
        "schema": "lowdisc.uniformity_report/1",
        "m": str(Z.m),
        "elements": [str(e) for e in Z.elements],
        "table": table.to_json_dict(),
        **{k: v for k, v in rep.items() if k not in ("m", "n")},
        "n": str(rep["n"]) if "n" in rep else str(Z.cardinality),
    }
    out["admissible_m"] = str(out["admissible_m"])
    _write_outputs(args, {args.out: _dump(out)}, started)
    print(f"observed={rep['observed_deviation']:.3e} "
          f"fourier={rep['fourier_bound']:.3e} "
          f"disc_bound={rep['disc_bound']:.3e}")
    return 0


def _run_approx(f, kind, degree):
    if kind == "poly":
        return minimax_poly(f, degree)
    rep = threshold_degree(f)  # kind == "threshold"; degree is found, not given
    return ApproxResult(
        d0=rep.degree, d1=0, error=0.0,
        num_coeffs={tuple(sorted(k)): v for k, v in rep.poly.terms.items()},
        meta={"kind": "threshold_degree", "margin": rep.margin})


def _cmd_approx(args, started):
    if os.path.exists(args.fn):
        with open(args.fn, encoding="utf-8") as fh:
            f = BooleanFunctionTable.from_text(fh.read())
    else:
        f = builtin_table(args.fn)
    res = _run_approx(f, args.kind, args.degree)
    out = {
        "schema": "lowdisc.approx_report/1",
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
    outputs = {args.out: F.to_json() + "\n"}
    if args.emit_matrix:
        M, _R, _pts = two_party_matrix(F)
        cell = {1: "1", -1: "-1"}.__getitem__
        outputs[args.emit_matrix] = "".join(
            ",".join(map(cell, row.tolist())) + "\n" for row in M)
    _write_outputs(args, outputs, started)
    print(f"k={F.k} n={F.n} m_blk={F.m_blk} "
          f"monomials={F.monomial_count} upp<={F.upp_upper_bound()}")
    return 0


# ------------------------------------------------------------------ verify

def _fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return False


def _verify_construction_report(d):
    Z = IntegerMultiset([int(e) for e in d["elements"]], int(d["m"]))
    cert = disc(Z)
    claimed = d["certificate"]
    ok = True
    if abs(cert.value - float(claimed["value"])) > 1e-9:
        ok = _fail(f"disc {cert.value} != claimed {claimed['value']}")
    if cert.argmax_k != int(claimed["argmax_k"]):
        ok = _fail("argmax_k mismatch")
    if str(cert.elements_digest) != claimed["elements_digest"]:
        ok = _fail("elements digest mismatch")
    if int(claimed["n"]) != Z.cardinality:
        ok = _fail("cardinality mismatch")
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
    if prov.get("z_elements") and prov.get("disc_value") is not None:
        Z = IntegerMultiset([int(z) for z in prov["z_elements"]], g.order)
        zcert = disc(Z)
        dv = zcert.value
        if abs(dv - float(prov["disc_value"])) > 1e-9:
            ok = _fail("provenance disc mismatch")
        if str(prov.get("z_digest")) != str(zcert.elements_digest):
            ok = _fail("provenance z_digest mismatch")
        if lam > 2 * Z.cardinality * dv + 1e-6:
            ok = _fail("lambda exceeds the 2|Z| disc bound")
        if prov.get("branch") == "low_disc":
            conn = connection_from_set(g.order, Z.residues(),
                                       int(prov["delta"]))
            if tuple(sorted(conn)) != g.connection:
                ok = _fail("connection != ((Z + delta) u (-Z - delta)) mod n")
    return ok


def _verify_halfspace(d):
    h = HalfspaceSpec.from_json_dict(d)  # re-validates the never-zero form
    prov = d.get("provenance", {})
    ok = True
    if prov.get("z_elements") and prov.get("m"):
        # A master (or non-fallback hardest) halfspace: rebuild it from Z.
        Z = IntegerMultiset([int(z) for z in prov["z_elements"]],
                            int(prov["m"]))
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
    return ok


def _verify_uniformity(d):
    Z = IntegerMultiset([int(e) for e in d["elements"]], int(d["m"]))
    rep = uniformity_report(Z, delta=float(d["delta"]))
    table = rep.pop("table")
    ok = True
    if int(d["n"]) != Z.cardinality:
        ok = _fail("n != |Z|")
    claimed_probs = [Fraction(int(p["num"]), int(p["den"]))
                     for p in d["table"]["probs"]]
    if list(table.probs) != claimed_probs:
        ok = _fail("distribution table differs (exact comparison)")
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
                if _digest(fh.read()) != digest:
                    ok = _fail(f"{base} differs from the recorded digest")
        return ok


def _verify_approx(d):
    f = BooleanFunctionTable(int(d["fn"]["n"]),
                             [int(v) for v in d["fn"]["values"]])
    res = _run_approx(f, d["kind"], int(d["degree"]))
    claimed = d["result"]
    ok = True
    if res.d0 != int(claimed["d0"]):
        ok = _fail("degree mismatch")
    if abs(res.error - float(claimed["error"])) > 1e-9:
        ok = _fail(f"error {res.error} != claimed {claimed['error']}")
    return ok


_VERIFIERS = {
    "lowdisc.approx_report/1": _verify_approx,
    "lowdisc.construction_report/1": _verify_construction_report,
    "lowdisc.circulant_graph/1": _verify_graph,
    "lowdisc.halfspace_spec/1": _verify_halfspace,
    "lowdisc.uniformity_report/1": _verify_uniformity,
    "lowdisc.lifted_problem/1": _verify_lifted,
}


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
