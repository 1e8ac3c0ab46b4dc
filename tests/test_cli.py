import json
import os
import subprocess
import sys

import pytest

import lowdisc
from lowdisc import cli


def run(argv):
    return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify_tampered(tmp_path, genuine, edit):
    """Exit code of `verify` on a copy of `genuine` changed by `edit`."""
    d = json.loads(json.dumps(genuine))
    edit(d)
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(d))
    return run(["verify", out])


def test_lowdisc_build_and_verify(tmp_path):
    out = tmp_path / "z.json"
    assert run(["lowdisc", "--m", 997, "--eps", "0.4", "--mode", "practical",
                "--seed", 1, "--out", out]) == 0
    rep = read_json(out)
    assert rep["schema"] == "lowdisc.construction_report/1"
    assert run(["verify", out]) == 0


def test_lowdisc_tamper_detected(tmp_path):
    out = tmp_path / "z.json"
    run(["lowdisc", "--m", 997, "--eps", "0.4", "--mode", "practical",
         "--seed", 1, "--out", out])
    rep = read_json(out)
    rep["certificate"]["value"] = 0.0
    out.write_text(json.dumps(rep))
    assert run(["verify", out]) == 1


def test_manifest_rerun_byte_identical(tmp_path):
    out = tmp_path / "z.json"
    run(["lowdisc", "--m", 503, "--eps", "0.45", "--mode", "practical",
         "--seed", 2, "--out", out])
    manifest = tmp_path / "z.json.manifest.json"
    assert manifest.exists()
    m = read_json(manifest)
    assert m["schema"] == "lowdisc.run_manifest/1"
    assert run(["verify", manifest]) == 0


def test_dist_roundtrip(tmp_path):
    zf = tmp_path / "z.json"
    zf.write_text(json.dumps({"m": 4, "elements": ["1", "1", "1", "1",
                                                   "1", "1", "1", "1",
                                                   "1", "1", "1", "1"]}))
    out = tmp_path / "dist.json"
    assert run(["dist", zf, "--out", out]) == 0
    rep = read_json(out)
    assert rep["schema"] == "lowdisc.uniformity_report/1"
    assert run(["verify", out]) == 0


def test_expander_build_and_verify(tmp_path):
    out = tmp_path / "g.json"
    assert run(["expander", "--n", 1009, "--eps", "0.5", "--seed", 7,
                "--out", out]) == 0
    rep = read_json(out)
    assert rep["schema"] == "lowdisc.circulant_graph/1"
    edges = tmp_path / "g.edges"
    assert edges.exists()
    assert run(["verify", out]) == 0


def test_edge_list_limit_compares_the_order(tmp_path):
    for n, written in ((50, True), (51, False)):
        out = tmp_path / f"g{n}.json"
        assert run(["expander", "--n", n, "--eps", "0.5", "--seed", 1,
                    "--edge-list-limit", 50, "--out", out]) == 0
        edges = tmp_path / f"g{n}.edges"
        assert edges.exists() == written
        if written:
            assert len(edges.read_text().splitlines()) == n * (n - 1) // 2


def test_approx_build_and_verify(tmp_path):
    out = tmp_path / "a.json"
    assert run(["approx", "--fn", "MAJ_3", "--degree", 1,
                "--out", out]) == 0
    rep = read_json(out)
    assert rep["schema"] == "lowdisc.approx_report/1"
    assert run(["verify", out]) == 0


def test_halfspace_lift_chain(tmp_path):
    hout = tmp_path / "h.json"
    assert run(["halfspace", "--n", 24, "--mode", "demo", "--c-prime", "0.05",
                "--seed", 5, "--out", hout]) == 0
    lout = tmp_path / "lift.json"
    assert run(["lift", hout, "--k", 2, "--m-blk", 1, "--out", lout]) == 0
    assert run(["verify", hout, lout]) == 0


def test_halfspace_tamper_detected(tmp_path):
    hout = tmp_path / "h.json"
    assert run(["halfspace", "--n", 24, "--mode", "demo", "--c-prime", "0.05",
                "--seed", 5, "--out", hout]) == 0
    assert run(["verify", hout]) == 0
    genuine = read_json(hout)
    assert genuine["provenance"]["z_elements"]

    def bump_weight(d):
        d["weights"][0] = str(int(d["weights"][0]) + 2)

    def bump_threshold(d):
        d["threshold"]["num"] = "-3"

    def drop_pair(d):
        d["n"] -= 2

    def string_modulus(d):  # as in the benchmark's master inputs
        d["provenance"]["m"] = str(d["provenance"]["m"])

    assert verify_tampered(tmp_path, genuine, bump_weight) == 1
    assert verify_tampered(tmp_path, genuine, bump_threshold) == 1
    assert verify_tampered(tmp_path, genuine, drop_pair) == 1
    assert verify_tampered(tmp_path, genuine, string_modulus) == 0


def test_graph_tamper_detected(tmp_path):
    out = tmp_path / "g.json"
    assert run(["expander", "--n", 1009, "--eps", "0.5", "--seed", 7,
                "--out", out]) == 0
    genuine = read_json(out)
    assert genuine["provenance"]["branch"] == "low_disc"
    assert run(["verify", out]) == 0

    def zero_digest(d):
        d["provenance"]["z_digest"] = 0

    def shift_delta(d):
        d["provenance"]["delta"] += 1

    assert verify_tampered(tmp_path, genuine, zero_digest) == 1
    assert verify_tampered(tmp_path, genuine, shift_delta) == 1


def test_uniformity_tamper_detected(tmp_path):
    zf = tmp_path / "z.json"
    zf.write_text(json.dumps({"m": 5, "elements": ["1", "2", "3", "4", "6"]}))
    out = tmp_path / "dist.json"
    assert run(["dist", zf, "--out", out]) == 0
    genuine = read_json(out)
    assert run(["verify", out]) == 0

    def bump_n(d):
        d["n"] = str(int(d["n"]) + 1)

    assert verify_tampered(tmp_path, genuine, bump_n) == 1


def test_bad_args_exit_2(tmp_path):
    out = tmp_path / "z.json"
    assert run(["lowdisc", "--m", 997, "--eps", "2.0", "--mode", "practical",
                "--seed", 1, "--out", out]) == 2
    assert run(["verify", tmp_path / "missing.json"]) == 2


def test_output_is_atomic_and_stable(tmp_path):
    out = tmp_path / "z.json"
    run(["lowdisc", "--m", 211, "--eps", "0.4", "--mode", "practical",
         "--seed", 3, "--out", out])
    first = out.read_bytes()
    run(["lowdisc", "--m", 211, "--eps", "0.4", "--mode", "practical",
         "--seed", 3, "--out", out])
    assert out.read_bytes() == first


def fresh_python(code):
    """Exit code of `code` run in a new interpreter that imports this
    lowdisc, killed (TimeoutExpired) after 60 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lowdisc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = ("import sys, lowdisc.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    assert fresh_python(code) == 0


def test_table_cap_exits_2_before_enumerating(tmp_path):
    # Enumerating the 2^40 inputs before the cap check would not return,
    # hence the separate interpreter and its timeout.
    out = str(tmp_path / "a.json")
    code = ("import sys, time; from lowdisc import cli; "
            "t = time.perf_counter(); "
            f"code = cli.main(['approx', '--fn', 'MAJ_40', '--out', {out!r}]); "
            "sys.exit(code if time.perf_counter() - t < 2 else 99)")
    assert fresh_python(code) == 2
