import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import lowdisc
from lowdisc import (approximation, cli, discrepancy, expander, halfspace,
                     numeric_core)
from test_distribution import scalar_fourier_bound


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
    assert rep["schema"] == "lowdisc.construction_report/5"
    assert run(["verify", out]) == 0


def test_lowdisc_tamper_detected(tmp_path):
    out = tmp_path / "z.json"
    run(["lowdisc", "--m", 997, "--eps", "0.4", "--mode", "practical",
         "--seed", 1, "--out", out])
    rep = read_json(out)
    rep["certificate"]["value"] = 0.0
    out.write_text(json.dumps(rep))
    assert run(["verify", out]) == 1


def test_construction_branch_and_eps_tamper_detected(tmp_path):
    practical, paper = tmp_path / "z.json", tmp_path / "paper.json"
    assert run(["lowdisc", "--m", 10007, "--eps", "0.3", "--mode",
                "practical", "--seed", 3, "--out", practical]) == 0
    assert run(["lowdisc", "--m", 1009, "--eps", "0.3", "--mode", "paper",
                "--out", paper]) == 0
    assert run(["verify", practical, paper]) == 0
    genuine, trivial = read_json(practical), read_json(paper)
    assert genuine["branch"] != "trivial" and trivial["branch"] == "trivial"

    def branch_trivial(d):
        d["branch"] = "trivial"

    def eps_0_01(d):
        d["eps"] = 0.01

    def branch_pipeline(d):
        d["branch"] = "pipeline"

    def guards_pass(d):
        d["guards"] = [[name, True] for name, _ok in d["guards"]]

    for edit in (branch_trivial, eps_0_01):
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__
    for edit in (branch_pipeline, guards_pass):
        assert verify_tampered(tmp_path, trivial, edit) == 1, edit.__name__


def test_random_search_eps_is_rederived_from_the_set_size(tmp_path):
    # A random search at eps 0.4 looks for 156 residues mod 1009, and at
    # 0.6 for 70; the disc of the 156 is below both.
    out = tmp_path / "z.json"
    assert run(["lowdisc", "--m", 1009, "--eps", "0.4", "--mode", "random",
                "--seed", 2, "--out", out]) == 0
    genuine = read_json(out)
    assert genuine["branch"] == "random_search"
    assert len(genuine["elements"]) == 156
    assert genuine["certificate"]["value"] <= 0.4
    assert run(["verify", out]) == 0

    def eps_0_6(d):
        d["eps"] = 0.6

    assert verify_tampered(tmp_path, genuine, eps_0_6) == 1


def test_construction_constants_and_certificate_tamper_detected(tmp_path):
    out = tmp_path / "z.json"
    assert run(["lowdisc", "--m", 10007, "--eps", "0.3", "--mode",
                "practical", "--seed", 3, "--out", out]) == 0
    genuine = read_json(out)

    def c_1(d):
        d["constants"]["c"] = 1.0

    def size_over_log2_m_1(d):
        d["constants"]["size_over_log2_m"] = 1.0

    def delta_half(d):
        d["constants"]["delta"] = 0.5

    def numeric_error_0(d):
        d["certificate"]["numeric_error"] = 0

    def certificate_m(d):
        d["certificate"]["m"] = "10009"

    for edit in (c_1, size_over_log2_m_1, delta_half, numeric_error_0,
                 certificate_m):
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__


def test_argmax_k_is_any_k_attaining_the_maximum(tmp_path):
    # /2 took the exact-length FFT, whose rounding could pick m - k of a
    # tied pair: the graph's source set below recorded 2350 = 4001 - 1651.
    # Both verify; a k in range that does not attain the maximum does not.
    z, g = tmp_path / "z.json", tmp_path / "g.json"
    assert run(["lowdisc", "--m", 10007, "--eps", "0.3", "--mode",
                "practical", "--seed", 3, "--out", z]) == 0
    assert run(["expander", "--n", 4001, "--eps", "0.5", "--seed", 7,
                "--out", g]) == 0
    report, graph = read_json(z), read_json(g)
    k = int(report["certificate"]["argmax_k"])
    assert graph["provenance"]["disc_argmax_k"] == 1651
    Z = discrepancy.IntegerMultiset(map(int, report["elements"]), 10007)
    assert discrepancy.disc_at(Z, k + 1) < discrepancy.disc(Z).value - 1e-3

    def report_as_schema_2(d):  # the recorded /2 value, and m - k
        d["schema"] = "lowdisc.construction_report/2"
        d["certificate"].update(
            schema="lowdisc.discrepancy_certificate/2",
            value=0.15976033588479174, argmax_k=str(10007 - k))

    def graph_as_schema_2(d):  # the recorded /2 fields
        d["schema"] = "lowdisc.circulant_graph/2"
        d["lambda"] = 57.7992868817113
        d["provenance"].update(disc_argmax_k=2350,
                               spectrum_imag_residue=2.375877272697835e-14)

    def report_k_plus_1(d):
        d["certificate"]["argmax_k"] = str(k + 1)

    def graph_k_plus_1(d):
        d["provenance"]["disc_argmax_k"] = 1652

    assert verify_tampered(tmp_path, report, report_as_schema_2) == 0
    assert verify_tampered(tmp_path, graph, graph_as_schema_2) == 0
    assert verify_tampered(tmp_path, report, report_k_plus_1) == 1
    assert verify_tampered(tmp_path, graph, graph_k_plus_1) == 1


def test_schema_1_trivial_report_still_verifies(tmp_path):
    out = tmp_path / "paper.json"
    assert run(["lowdisc", "--m", 1009, "--eps", "0.3", "--mode", "paper",
                "--out", out]) == 0
    genuine = read_json(out)
    cert = genuine["certificate"]
    assert (cert["value"], cert["argmax_k"], cert["numeric_error"]) == \
        (0.0, "1", 0.0)
    # The /1 writer took the exact-length FFT and kept its rounding noise,
    # recorded here: value, argmax_k and numeric_error over all 1009
    # residues.

    def as_schema_1(d):
        d["schema"] = "lowdisc.construction_report/1"
        d["certificate"].update(
            schema="lowdisc.discrepancy_certificate/1",
            value=9.128375978134805e-17, argmax_k="199",
            numeric_error=9.042375737067232e-10)

    assert verify_tampered(tmp_path, genuine, as_schema_1) == 0

    def argmax_k_m(d):  # 1..m-1 all attain the value 0, m does not
        d["certificate"]["argmax_k"] = "1009"

    def stages_added(d):
        d["stages"] = [{"stage": 1}]

    def numeric_error_0(d):
        as_schema_1(d)
        d["certificate"]["numeric_error"] = 0.0

    def certificate_schema_1(d):  # a /1 certificate in a /2 report
        d["certificate"]["schema"] = "lowdisc.discrepancy_certificate/1"

    for edit in (argmax_k_m, stages_added, numeric_error_0,
                 certificate_schema_1):
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__


def test_trivial_element_list_is_recognised_from_its_text(tmp_path,
                                                         monkeypatch):
    out = tmp_path / "paper.json"
    assert run(["lowdisc", "--m", 1009, "--eps", "0.3", "--mode", "paper",
                "--out", out]) == 0
    genuine = read_json(out)

    def leading_zero(d):  # parses to 0, ..., m-1 but is another text
        d["elements"][5] = "05"

    def swapped(d):
        d["elements"][1:3] = d["elements"][2:0:-1]

    def as_number(d):
        d["elements"][7] = 7

    for edit in (leading_zero, swapped, as_number):
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__

    def no_parse(*args):
        raise AssertionError("the elements were parsed")

    monkeypatch.setattr(cli, "_parse_multiset", no_parse)
    assert run(["verify", out]) == 0


def test_paper_trivial_set_runs_no_transform(tmp_path, monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("numpy.fft called")

    for name in dir(np.fft):
        if not name.startswith("_") and callable(getattr(np.fft, name)):
            monkeypatch.setattr(np.fft, name, no_transform)
    out = tmp_path / "paper.json"
    assert run(["lowdisc", "--m", 1000003, "--eps", "0.3", "--mode",
                "paper", "--out", out]) == 0
    assert run(["verify", out]) == 0
    cert = read_json(out)["certificate"]
    assert (cert["value"], cert["argmax_k"], cert["numeric_error"]) == \
        (0.0, "1", 0.0)
    # the digest recorded from the per-byte loop
    assert cert["elements_digest"] == "10104088331438473643"


def test_paper_trivial_set_renders_its_digits_once(tmp_path, monkeypatch):
    # one digit table serves both the digest and the element list
    calls = []
    kernel = discrepancy._decimal_fields

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(discrepancy, "_decimal_fields", counted)
    out = tmp_path / "paper.json"
    assert run(["lowdisc", "--m", 70001, "--eps", "0.3", "--mode", "paper",
                "--out", out]) == 0
    assert calls == [70001]
    assert read_json(out)["elements"] == [str(i) for i in range(70001)]


def test_failed_chunk_stream_leaves_nothing(tmp_path, monkeypatch):
    # the edge list fails after its first block, with the JSON complete
    def failing_blocks(g):
        yield b"0 1\n"
        raise RuntimeError("edge list failed")

    monkeypatch.setattr(expander.CirculantGraph, "edge_list_blocks",
                        failing_blocks)
    with pytest.raises(RuntimeError, match="edge list failed"):
        run(["expander", "--n", 1009, "--eps", "0.5", "--seed", 7,
             "--out", tmp_path / "g.json"])
    assert os.listdir(tmp_path) == []


def test_eps_1_searches_in_both_modes(tmp_path):
    # Every multiset has disc <= 1, so the first random set is accepted.
    out = tmp_path / "z.json"
    for mode in ("random", "practical"):
        assert run(["lowdisc", "--m", 10007, "--eps", 1, "--mode", mode,
                    "--seed", 1, "--out", out]) == 0
        assert read_json(out)["branch"] == "random_search", mode
        assert run(["verify", out]) == 0


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
    assert rep["schema"] == "lowdisc.uniformity_report/5"
    assert run(["verify", out]) == 0


def test_threshold_degree_on_a_0_variable_table(tmp_path):
    # --degree is recorded unused: the default 1 stays valid at n = 0
    table = tmp_path / "t0.txt"
    table.write_text("-1\n")
    for degree, code in ((None, 0), (0, 0), (1, 0), (2, 2), (-1, 2)):
        out = tmp_path / f"a{degree}.json"
        argv = ["approx", "--fn", table, "--kind", "threshold", "--out", out]
        if degree is not None:
            argv += ["--degree", degree]
        assert run(argv) == code
        assert out.exists() == (code == 0)
        if code == 0:
            assert read_json(out)["degree"] == (1 if degree is None
                                                else degree)
            assert run(["verify", out]) == 0


def test_dist_writer_matches_indented_json_dumps(tmp_path):
    # The spliced probability list is laid out as the indenting encoder
    # would write it, for counts of one to four 32-bit limbs.
    for m, elements in ((2, []), (3, [1]), (7, [-3, 9, 14] * 11),
                        (101, list(range(-40, 60)))):
        zf = tmp_path / "z.json"
        zf.write_text(json.dumps({"m": m, "elements": elements}))
        out = tmp_path / "dist.json"
        assert run(["dist", zf, "--out", out]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


def test_expander_build_and_verify(tmp_path):
    out = tmp_path / "g.json"
    assert run(["expander", "--n", 1009, "--eps", "0.5", "--seed", 7,
                "--out", out]) == 0
    rep = read_json(out)
    assert rep["schema"] == "lowdisc.circulant_graph/4"
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
    assert rep["schema"] == "lowdisc.approx_report/6"
    assert run(["verify", out]) == 0


def test_approx_exact_tamper_detected(tmp_path, monkeypatch):
    out = tmp_path / "maj6.json"
    assert run(["approx", "--fn", "MAJ_6", "--degree", 2, "--out", out]) == 0
    genuine = read_json(out)
    exact = genuine["result"]["meta"]["exact"]
    assert exact["error"] == {"num": "7", "den": "10"}
    assert len(exact["reference"]) == len(exact["psi"]) == 4

    lp_calls = []

    def counting_linprog(*args, **kwargs):
        lp_calls.append(len(kwargs["A_ub"]))
        return solve(*args, **kwargs)

    solve = approximation.linprog
    monkeypatch.setattr(approximation, "linprog", counting_linprog)
    assert run(["verify", out]) == 0

    def error_num_plus_1(d):
        e = d["result"]["meta"]["exact"]["error"]
        e["num"] = str(int(e["num"]) + 1)

    def move_reference_point(d):  # the float dual moved along with it
        exact = d["result"]["meta"]["exact"]
        exact["reference"][0] += 1
        fraction = lambda q: Fraction(int(q["num"]), int(q["den"]))
        d["result"]["dual_certificate"] = approximation.symmetric_result(
            6, 2, fraction(exact["error"]), list(map(fraction, exact["coeffs"])),
            exact["reference"], list(map(fraction, exact["psi"]))
        ).dual_certificate.tolist()

    def change_psi_weight(d):
        d["result"]["meta"]["exact"]["psi"][0]["den"] = "21"

    def delete_exact(d):
        del d["result"]["meta"]["exact"]

    def nudge_float_coeff(d):
        d["result"]["num_coeffs"]["0,1"] = math.nextafter(
            d["result"]["num_coeffs"]["0,1"], 0.0)

    for edit in (error_num_plus_1, move_reference_point, change_psi_weight,
                 delete_exact, nudge_float_coeff):
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__
    assert lp_calls == []  # no LP and no re-solve, genuine or tampered


def test_approx_certificate_tamper_detected(tmp_path):
    poly, threshold = tmp_path / "poly.json", tmp_path / "threshold.json"
    assert run(["approx", "--fn", "MAJ_6", "--degree", 2, "--out", poly]) == 0
    assert run(["approx", "--fn", "OMB_5", "--kind", "threshold",
                "--out", threshold]) == 0
    genuine_poly, genuine_threshold = read_json(poly), read_json(threshold)
    assert genuine_poly["result"]["dual_certificate"] is not None
    assert run(["verify", poly, threshold]) == 0

    def zero_coeffs(d):
        coeffs = d["result"]["num_coeffs"]
        d["result"]["num_coeffs"] = {k: 0.0 for k in coeffs}

    def zero_dual(d):
        d["result"]["dual_certificate"] = [0.0] * 64

    def drop_dual(d):
        d["result"]["dual_certificate"] = None

    def higher_degree_witness(d):
        d["result"]["num_coeffs"]["0,1,2"] = 0.0

    def margin_99(d):
        d["result"]["meta"]["margin"] = 99

    def schema_1(d):  # a /1 artifact is checked the same way
        d["schema"] = "lowdisc.approx_report/1"

    for edit in (zero_coeffs, zero_dual, drop_dual):
        assert verify_tampered(tmp_path, genuine_poly, edit) == 1
    for edit in (zero_coeffs, higher_degree_witness, margin_99):
        assert verify_tampered(tmp_path, genuine_threshold, edit) == 1
    assert verify_tampered(tmp_path, genuine_poly, schema_1) == 0


def test_threshold_certificate_tamper_detected(tmp_path):
    # A table that is not symmetric (float certificate on the full design
    # matrix) and MAJ_5 (exact certificate on t = 0..n).
    table = tmp_path / "t5.txt"
    table.write_text("".join(f"{1 if (i * 7 + (i >> 1)) % 3 else -1}\n"
                             for i in range(32)))
    genuine = []
    for fn in (table, "MAJ_5"):
        out = tmp_path / f"{os.path.basename(str(fn))}.json"
        assert run(["approx", "--fn", fn, "--kind", "threshold",
                    "--out", out]) == 0
        assert run(["verify", out]) == 0
        genuine.append(read_json(out))
    assert "reference" not in genuine[0]["result"]["meta"]["certificate"]
    assert genuine[1]["result"]["meta"]["certificate"]["reference"]

    def zero_certificate(d):
        psi = d["result"]["meta"]["certificate"]["psi"]
        d["result"]["meta"]["certificate"]["psi"] = [
            {"num": "0", "den": "1"} if isinstance(p, dict) else 0.0
            for p in psi]

    def change_one_weight(d):
        psi = d["result"]["meta"]["certificate"]["psi"]
        i = next(i for i, p in enumerate(psi) if p)
        if isinstance(psi[i], dict):
            psi[i] = {"num": psi[i]["num"], "den": str(2 * int(psi[i]["den"]))}
        else:
            psi[i] /= 2

    def delete_certificate(d):
        del d["result"]["meta"]["certificate"]

    def lower_d0(d):  # the certificate then proves too much
        d["result"]["d0"] -= 1

    def drop_dual(d):  # the degree-d0 dual at /4
        d["result"]["dual_certificate"] = None

    def negative_degree(d):  # recorded, not used, but never below 0
        d["degree"] = -7

    def as_schema_3(d):  # as /3 wrote it: error 0.0, witness and margin
        d["schema"] = "lowdisc.approx_report/3"
        d["result"].update(error=0.0, dual_certificate=None)
        d["result"]["meta"] = {"kind": "threshold_degree",
                               "margin": d["result"]["meta"]["margin"]}

    for artifact in genuine:
        assert artifact["result"]["d0"] >= 1
        for edit in (zero_certificate, change_one_weight, delete_certificate,
                     lower_d0, drop_dual, negative_degree):
            assert verify_tampered(tmp_path, artifact, edit) == 1, \
                edit.__name__
        # /3 kept no certificate below d0, and verify does not solve again
        assert verify_tampered(tmp_path, artifact, as_schema_3) == 1


def test_verify_never_solves(tmp_path, monkeypatch, capsys):
    # Genuine and tampered poly and threshold reports, on a symmetric and a
    # non-symmetric table, at schemas /1, /3 and /4: every solver refuses.
    table = tmp_path / "t5.txt"
    table.write_text("".join(f"{1 if (i * 7 + (i >> 1)) % 3 else -1}\n"
                             for i in range(32)))
    genuine = {}
    for kind, fn, extra in (("poly", table, ["--degree", 2]),
                            ("poly", "MAJ_6", ["--degree", 2]),
                            ("threshold", table, ["--kind", "threshold"]),
                            ("threshold", "MAJ_5", ["--kind", "threshold"])):
        out = tmp_path / "genuine.json"
        assert run(["approx", "--fn", fn, *extra, "--out", out]) == 0
        genuine[kind, os.path.basename(str(fn))] = read_json(out)

    calls = []

    def refusing(name):
        def solver(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"verify called {name}")
        return solver

    for name in ("minimax_exchange", "exact_finish", "solve_exact",
                 "minimax_poly", "threshold_degree", "linprog"):
        for module in (approximation, numeric_core, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refusing(name))

    def schema(version):
        def edit(d):
            d["schema"] = f"lowdisc.approx_report/{version}"
        return edit

    def drop_dual(d):
        d["result"]["dual_certificate"] = None

    def zero_coeffs(d):
        coeffs = d["result"]["num_coeffs"]
        d["result"]["num_coeffs"] = {k: 0.0 for k in coeffs}

    def margin_99(d):
        d["result"]["meta"]["margin"] = 99

    def nan_coeff(d):  # NaN compares false with every tolerance
        coeffs = d["result"]["num_coeffs"]
        coeffs[min(coeffs)] = math.nan

    for (kind, fn), artifact in genuine.items():
        superseded = 0 if kind == "poly" else 1  # a threshold before /4
        for version in (1, 3, 4, 5, 6):
            want = superseded if version < 4 else 0
            got = verify_tampered(tmp_path, artifact, schema(version))
            assert got == want, (kind, fn, version)
        for edit in (drop_dual, zero_coeffs, nan_coeff) + (margin_99,) * (
                kind == "threshold"):
            assert verify_tampered(tmp_path, artifact, edit) == 1, \
                (kind, fn, edit.__name__)
    assert calls == []

    for edit in (drop_dual, schema(3)):
        capsys.readouterr()
        assert verify_tampered(tmp_path, genuine["threshold", "t5.txt"],
                               edit) == 1
        assert capsys.readouterr().err.rstrip().endswith(
            "rebuild it from its manifest"), edit.__name__


def test_halfspace_lift_chain(tmp_path):
    hout = tmp_path / "h.json"
    assert run(["halfspace", "--n", 24, "--mode", "demo", "--c-prime", "0.05",
                "--seed", 5, "--out", hout]) == 0
    lout = tmp_path / "lift.json"
    assert run(["lift", hout, "--k", 2, "--m-blk", 1, "--out", lout]) == 0
    assert run(["verify", hout, lout]) == 0
    lifted = read_json(lout)

    def w0_plus_1(d):
        d["w0_scaled"] = str(int(d["w0_scaled"]) + 1)

    def as_schema_1(d):  # /1 recorded no source halfspace
        d["schema"] = "lowdisc.lifted_problem/1"
        del d["weights"], d["threshold"]

    # /2 lifts its source halfspace again; /1 still verifies as stated.
    assert verify_tampered(tmp_path, lifted, w0_plus_1) == 1
    assert verify_tampered(tmp_path, lifted, as_schema_1) == 0


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


def test_hardest_halfspace_provenance_tamper_detected(tmp_path):
    # Paper mode falls back to sign(1/2 - x_1) at n = 24 and builds from
    # m = 2 at n = 8100; demo mode at n = 24 duplicates {0, 1} mod 2.
    genuine = {}
    for name, extra in (("fallback", ["--n", 24, "--mode", "paper"]),
                        ("paper", ["--n", 8100, "--mode", "paper"]),
                        ("demo", ["--n", 24, "--mode", "demo", "--c-prime",
                                  "0.05", "--seed", 3])):
        out = tmp_path / f"{name}.json"
        assert run(["halfspace", *extra, "--out", out]) == 0
        assert run(["verify", out]) == 0
        genuine[name] = read_json(out)
    assert genuine["fallback"]["provenance"]["fallback"]
    assert genuine["paper"]["provenance"]["m"] == 2

    def second_weight_1(d):
        d["weights"][1] = "1"

    def c_prime_half(d):
        d["provenance"]["c_prime"] = "1/2"

    def flip_target_met(d):
        d["provenance"]["disc_target_met"] ^= True

    def z_size_999(d):
        d["provenance"]["z_size"] = 999

    def rebuilt_at_m_4(d):  # a consistent master form of the same Z mod 4
        Z = discrepancy.IntegerMultiset(
            [int(z) for z in d["provenance"]["z_elements"]], 4)
        master = halfspace.build_master_halfspace(Z)
        d["weights"] = [str(w) for w in master.weights]
        d["provenance"].update(
            m=4, z_digest=master.provenance["z_digest"],
            disc=discrepancy.disc(Z).value,
            disc_target_met=discrepancy.disc(Z).value <= 0.1)

    def pipeline_at_seed_999(d):  # the rebuild at m = 2 is trivial
        d["provenance"].update(construction_branch="pipeline", seed="999")

    def paper_pipeline(d):
        d["provenance"]["construction_branch"] = "pipeline"

    for name, edits in (("fallback", (second_weight_1, c_prime_half)),
                        ("paper", (c_prime_half, flip_target_met,
                                   paper_pipeline)),
                        ("demo", (flip_target_met, z_size_999,
                                  rebuilt_at_m_4, pipeline_at_seed_999))):
        for edit in edits:
            assert verify_tampered(tmp_path, genuine[name], edit) == 1, \
                (name, edit.__name__)


def test_halfspace_z_digest_is_checked_from_schema_2(tmp_path):
    hout = tmp_path / "h.json"
    assert run(["halfspace", "--n", 24, "--mode", "demo", "--c-prime", "0.05",
                "--seed", 78, "--out", hout]) == 0
    genuine = read_json(hout)
    prov = genuine["provenance"]
    Z = discrepancy.IntegerMultiset(map(int, prov["z_elements"]), prov["m"])
    assert prov["z_digest"] == str(Z.digest()) and prov["disc"] == 0.0
    assert run(["verify", hout]) == 0

    def z_digest_0(d):
        d["provenance"]["z_digest"] = "0"

    def as_schema_1(d):  # as /1 wrote it, with the method repr
        d["schema"] = "lowdisc.halfspace_spec/1"
        d["provenance"]["z_digest"] = str(Z.digest)

    assert verify_tampered(tmp_path, genuine, z_digest_0) == 1
    assert verify_tampered(tmp_path, genuine, as_schema_1) == 0
    lout = tmp_path / "lift.json"
    assert run(["lift", tmp_path / "tampered.json", "--k", 2, "--m-blk", 1,
                "--out", lout]) == 0


def test_halfspace_weight_count_must_be_n(tmp_path):
    # Missing weights would act as 0 in evaluation but not in the
    # never-zero check.
    spec = tmp_path / "h.json"
    spec.write_text(json.dumps({
        "schema": "lowdisc.halfspace_spec/2", "n": 3, "weights": ["2"],
        "threshold": {"num": "-1", "den": "2"}, "provenance": {}}))
    assert run(["verify", spec]) == 1
    assert run(["lift", spec, "--k", 2, "--m-blk", 1,
                "--out", tmp_path / "lift.json"]) == 2
    with pytest.raises(halfspace.BadParams):
        halfspace.HalfspaceSpec(2, (1, 2, 3), Fraction(-1, 2))


def test_symmetric_approx_beyond_the_design_cap(tmp_path):
    # 2^14 x 470 and 2^16 x 697 design entries exceed DESIGN_CAP; the
    # exact route needs none.
    for fn in ("MAJ_14", "MAJ_16"):
        out = tmp_path / f"{fn}.json"
        assert run(["approx", "--fn", fn, "--degree", 3, "--out", out]) == 0
        assert run(["verify", out]) == 0
        result = read_json(out)["result"]
        assert result["meta"]["dual_verified"] and result["meta"]["exact"]


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

    def complete_branch(d):
        d["provenance"]["branch"] = "complete"

    def bump_collisions(d):
        d["provenance"]["collision_count"] += 1

    def double_c_eps(d):
        d["provenance"]["C_eps_measured"] *= 2

    def drop_disc_value(d):  # would skip every check on the source set
        del d["provenance"]["disc_value"]

    def eps_0_01(d):  # lambda then exceeds max(eps, 1/(n-1)) d
        d["provenance"]["eps"] = 0.01

    def degree_budget_1(d):
        d["provenance"]["degree_budget"] = 1

    def trivial_construction(d):
        d["provenance"]["construction_branch"] = "trivial"

    def shift_argmax_k(d):
        d["provenance"]["disc_argmax_k"] += 1

    def pipeline_construction(d):  # the rebuild at seed 7 takes random_search
        d["provenance"]["construction_branch"] = "pipeline"

    for edit in (zero_digest, shift_delta, complete_branch, bump_collisions,
                 double_c_eps, drop_disc_value, eps_0_01, degree_budget_1,
                 trivial_construction, shift_argmax_k, pipeline_construction):
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__

    # The complete branch is checked against the connection {1, ..., n-1}.
    k11 = tmp_path / "k11.json"
    assert run(["expander", "--n", 11, "--eps", "0.5", "--out", k11]) == 0
    complete = read_json(k11)
    assert complete["provenance"]["branch"] == "complete"
    assert run(["verify", k11]) == 0

    def low_disc_branch(d):
        d["provenance"]["branch"] = "low_disc"

    assert verify_tampered(tmp_path, complete, low_disc_branch) == 1

    # Paper mode records C_eps = c / eps^2.
    paper = tmp_path / "paper.json"
    assert run(["expander", "--n", 101, "--eps", "0.5", "--mode", "paper",
                "--out", paper]) == 0
    assert run(["verify", paper]) == 0

    def double_paper_c_eps(d):
        d["provenance"]["C_eps"] *= 2

    assert verify_tampered(tmp_path, read_json(paper), double_paper_c_eps) == 1


def test_complete_fallback_from_the_trivial_set(tmp_path):
    # Random search misses eps = 0.05 at n = 2003, so the construction
    # returns {0, ..., n-1} and the graph falls back to K_n.
    out = tmp_path / "g.json"
    assert run(["expander", "--n", 2003, "--eps", "0.05", "--seed", 1,
                "--out", out]) == 0
    genuine = read_json(out)
    prov = genuine["provenance"]
    assert (prov["branch"], prov["construction_branch"]) == \
        ("complete", "trivial")
    assert (prov["disc_value"], prov["disc_argmax_k"]) == (0.0, 1)
    assert run(["verify", out]) == 0

    def as_schema_1(d):  # /1 recorded the transform's rounding noise
        d["schema"] = "lowdisc.circulant_graph/1"
        d["provenance"].update(disc_value=1.2e-16, disc_argmax_k=1234)

    def argmax_k_n(d):
        d["provenance"]["disc_argmax_k"] = 2003

    assert verify_tampered(tmp_path, genuine, as_schema_1) == 0
    assert verify_tampered(tmp_path, genuine, argmax_k_n) == 1


def test_uniformity_tamper_detected(tmp_path):
    zf = tmp_path / "z.json"
    zf.write_text(json.dumps({"m": 5, "elements": ["1", "2", "3", "4", "6"]}))
    out = tmp_path / "dist.json"
    assert run(["dist", zf, "--out", out]) == 0
    genuine = read_json(out)
    assert run(["verify", out]) == 0

    def bump_n(d):
        d["n"] = str(int(d["n"]) + 1)

    # The stored table is compared whole, probabilities in lowest terms.
    def table_m(d):
        d["table"]["m"] = "7"

    def table_n(d):
        d["table"]["n"] = "9"

    def table_schema(d):
        d["table"]["schema"] = "bogus"

    def not_lowest_terms(d):
        assert d["table"]["probs"][0] == {"num": "7", "den": "32"}
        d["table"]["probs"][0] = {"num": "14", "den": "64"}

    # The cells are compared one by one with the table's lowest terms.
    def cell_dropped(d):
        d["table"]["probs"].pop()

    def cell_added(d):
        d["table"]["probs"].append({"num": "0", "den": "1"})

    def cell_as_number(d):
        d["table"]["probs"][2]["num"] = int(d["table"]["probs"][2]["num"])

    def cell_extra_key(d):
        d["table"]["probs"][4]["note"] = ""

    def probs_missing(d):
        del d["table"]["probs"]

    for edit in (bump_n, table_m, table_n, table_schema, not_lowest_terms,
                 cell_dropped, cell_added, cell_as_number, cell_extra_key,
                 probs_missing):
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__

    # The bounds far below 1e-9, each compared at its own scale.
    m = 1009
    zf.write_text(json.dumps({"m": m, "elements": [
        (j * j * 37 + 11 * j) % (2 * m) - 7 for j in range(300)]}))
    assert run(["dist", zf, "--out", out]) == 0
    genuine = read_json(out)
    assert genuine["fourier_bound"] < 1e-60
    assert run(["verify", out]) == 0

    def scaled_up(d):
        d["fourier_bound"] *= 1e30
        d["observed_deviation"] = d["disc_bound"] = 0.0

    def fourier_up(d):
        d["fourier_bound"] *= 1 + 1e-6

    def fourier_down(d):
        d["fourier_bound"] *= 1 - 1e-6

    def observed_next_float(d):
        d["observed_deviation"] = math.nextafter(d["observed_deviation"], 1)

    def disc_bound_up(d):
        d["disc_bound"] *= 1 + 1e-8

    for edit in (scaled_up, fourier_up, fourier_down, observed_next_float,
                 disc_bound_up):
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__

    # A /4 report stored the product loop's value, which still verifies.
    loop = scalar_fourier_bound(cli._parse_multiset(genuine["elements"],
                                                    m)[0])
    assert loop != genuine["fourier_bound"]

    def as_schema_4(d):
        d["schema"] = "lowdisc.uniformity_report/4"
        d["fourier_bound"] = loop

    def as_schema_4_fourier_up(d):
        as_schema_4(d)
        fourier_up(d)

    assert verify_tampered(tmp_path, genuine, as_schema_4) == 0
    assert verify_tampered(tmp_path, genuine, as_schema_4_fourier_up) == 1


def test_fields_verify_once_skipped_are_rendered(tmp_path):
    # Each artifact is compared whole with its writer's rendering: a
    # graph's spectrum and imaginary residue, practical guards, and the
    # fixed fields of a float approx result.
    graph, lowdisc, approx = (tmp_path / name for name in
                              ("g.json", "z.json", "a.json"))
    table = tmp_path / "t6.txt"
    table.write_text("".join(f"{1 if (i * 13 + (i >> 2)) % 5 < 3 else -1}\n"
                             for i in range(64)))
    assert run(["expander", "--n", 101, "--eps", "0.5", "--seed", 3,
                "--out", graph]) == 0
    assert run(["lowdisc", "--m", 10007, "--eps", "0.3", "--mode",
                "practical", "--seed", 3, "--out", lowdisc]) == 0
    assert run(["approx", "--fn", table, "--degree", 3, "--out", approx]) == 0
    assert run(["verify", graph, lowdisc, approx]) == 0

    def spectrum_probe(d):
        d["spectrum"][3] += 5.0
        d["provenance"]["spectrum_imag_residue"] = 0.5

    def imag_residue(d):
        d["provenance"]["spectrum_imag_residue"] = 0.5

    def fabricated_guards(d):
        d["guards"] = [["P1 >= 1/delta^2", True]]

    def result_field(key, value):
        def edit(d):
            d["result"][key] = value
        return edit

    def meta_field(key, value):
        def edit(d):
            d["result"]["meta"][key] = value
        return edit

    for genuine, edits in (
            (graph, (spectrum_probe, imag_residue)),
            (lowdisc, (fabricated_guards,)),
            (approx, (result_field("d1", 2), result_field("den_coeffs", [1.0]),
                      result_field("converged", False),
                      meta_field("kind", "threshold_degree"),
                      meta_field("dual_verified", False)))):
        for edit in edits:
            assert verify_tampered(tmp_path, read_json(genuine), edit) == 1


def test_verify_non_object_json_is_an_unknown_schema(tmp_path, capsys):
    path = tmp_path / "x.json"
    for text in ("[]", "3", '"lowdisc.approx_report/4"', "null"):
        path.write_text(text)
        assert run(["verify", path]) == 2, text
        assert "unknown schema None" in capsys.readouterr().err


def test_bad_args_exit_2(tmp_path):
    out = tmp_path / "z.json"
    assert run(["lowdisc", "--m", 997, "--eps", "2.0", "--mode", "practical",
                "--seed", 1, "--out", out]) == 2
    assert run(["verify", tmp_path / "missing.json"]) == 2
    table = tmp_path / "t3.txt"  # not symmetric
    table.write_text("1\n-1\n-1\n-1\n1\n1\n-1\n1\n")
    for fn in ("MAJ_3", table):
        for kind in ("poly", "threshold"):
            for degree in (-1, -7, 4):
                assert run(["approx", "--fn", fn, "--kind", kind,
                            "--degree", degree, "--out", out]) == 2
                assert not out.exists()


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


def test_dist_and_its_verify_leave_scipy_optimize_and_mpmath_unloaded(
        tmp_path):
    zf = tmp_path / "z.json"
    zf.write_text(json.dumps({"m": 1009, "elements": list(range(1, 200, 3))}))
    out = str(tmp_path / "dist.json")
    code = ("import sys; from lowdisc import cli; "
            f"code = cli.main(['dist', {str(zf)!r}, '--out', {out!r}]) "
            f"or cli.main(['verify', {out!r}]); "
            "sys.exit(code or 10 * any(name in sys.modules for name in "
            "('scipy.optimize', 'mpmath')))")
    assert fresh_python(code) == 0
    assert read_json(out)["schema"] == "lowdisc.uniformity_report/5"


def test_symmetric_approx_leaves_scipy_optimize_unloaded(tmp_path):
    # Symmetric, non-symmetric and threshold runs, each verified: no LP.
    table = tmp_path / "t7.txt"
    table.write_text("".join(f"{1 if (i * 13 + (i >> 2)) % 5 < 3 else -1}\n"
                             for i in range(128)))
    runs = [["--fn", "MAJ_12", "--degree", "3"],
            ["--fn", str(table), "--degree", "3"],
            ["--fn", str(table), "--kind", "threshold"],
            ["--fn", "OMB_5", "--degree", "2"]]
    outs = [str(tmp_path / f"a{i}.json") for i in range(len(runs))]
    calls = " or ".join(
        f"cli.main(['approx', *{argv!r}, '--out', {out!r}]) "
        f"or cli.main(['verify', {out!r}])" for argv, out in zip(runs, outs))
    code = ("import sys; from lowdisc import cli; "
            f"code = {calls}; "
            "sys.exit(code or 10 * ('scipy.optimize' in sys.modules))")
    assert fresh_python(code) == 0
    exact = read_json(outs[0])["result"]["meta"]["exact"]
    assert exact["error"] == {"num": "27", "den": "40"}
    assert read_json(outs[2])["result"]["meta"]["certificate"]


def test_table_cap_exits_2_before_enumerating(tmp_path):
    # Enumerating the 2^40 inputs before the cap check would not return,
    # hence the separate interpreter and its timeout.
    out = str(tmp_path / "a.json")
    code = ("import sys, time; from lowdisc import cli; "
            "t = time.perf_counter(); "
            f"code = cli.main(['approx', '--fn', 'MAJ_40', '--out', {out!r}]); "
            "sys.exit(code if time.perf_counter() - t < 2 else 99)")
    assert fresh_python(code) == 2


def test_design_matrix_cap_exits_2_before_building(tmp_path):
    # OMB_14 at degree 14 would need a 16384 x 16384 float matrix (2 GB).
    # (A symmetric table such as MAJ_14 builds no design matrix.)
    out = str(tmp_path / "a.json")
    code = ("import sys, time; from lowdisc import cli; "
            "t = time.perf_counter(); "
            "code = cli.main(['approx', '--fn', 'OMB_14', '--degree', '14', "
            f"'--out', {out!r}]); "
            "sys.exit(code if time.perf_counter() - t < 2 else 99)")
    assert fresh_python(code) == 2
