import json
import math
import os
import pathlib
import runpy
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import lowdisc
from lowdisc import (approximation, cli, construction, discrepancy, expander,
                     halfspace, numeric_core)


def run(argv):
    return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify_tampered(tmp_path, genuine, edit, *more):
    """Exit code of `verify` on a copy of `genuine` changed by `edit`, and
    then on the files `more`."""
    d = json.loads(json.dumps(genuine))
    edit(d)
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(d))
    return run(["verify", out, *more])


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


def test_build_and_verify_assemble_one_report(tmp_path, monkeypatch):
    # build_low_disc_set and the verifier of a construction report both
    # assemble its guards, certificate and constants in assemble_report.
    calls, assemble = [], construction.assemble_report

    def spy(mode, m, eps, seed, branch, *rest):
        calls.append((mode, m, eps, branch))
        return assemble(mode, m, eps, seed, branch, *rest)

    monkeypatch.setattr(construction, "assemble_report", spy)
    monkeypatch.setattr(cli, "assemble_report", spy)
    out = tmp_path / "z.json"
    for mode, seed in (("practical", ["--seed", 3]), ("paper", [])):
        calls.clear()
        assert run(["lowdisc", "--m", 211, "--eps", 0.4, "--mode", mode,
                    *seed, "--out", out]) == 0
        assert run(["verify", out]) == 0
        assert calls == [(mode, 211, 0.4, read_json(out)["branch"])] * 2


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
    # Another numpy build's rounding could pick m - k of a tied pair, as
    # the exact-length FFT once recorded 2350 = 4001 - 1651 for the graph's
    # source set below, with its last bits of value and lambda. Both
    # verify; a k in range that does not attain the maximum does not.
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

    def report_m_minus_k(d):  # that FFT's value, and m - k
        d["certificate"].update(value=0.15976033588479174,
                                argmax_k=str(10007 - k))

    def graph_m_minus_k(d):  # that FFT's fields
        d["lambda"] = 57.7992868817113
        d["provenance"].update(disc_argmax_k=2350,
                               spectrum_imag_residue=2.375877272697835e-14)

    def report_k_plus_1(d):
        d["certificate"]["argmax_k"] = str(k + 1)

    def graph_k_plus_1(d):
        d["provenance"]["disc_argmax_k"] = 1652

    assert verify_tampered(tmp_path, report, report_m_minus_k) == 0
    assert verify_tampered(tmp_path, graph, graph_m_minus_k) == 0
    assert verify_tampered(tmp_path, report, report_k_plus_1) == 1
    assert verify_tampered(tmp_path, graph, graph_k_plus_1) == 1


def test_trivial_report_certificate_tamper_detected(tmp_path):
    out = tmp_path / "paper.json"
    assert run(["lowdisc", "--m", 1009, "--eps", "0.3", "--mode", "paper",
                "--out", out]) == 0
    genuine = read_json(out)
    cert = genuine["certificate"]
    assert (cert["value"], cert["argmax_k"], cert["numeric_error"]) == \
        (0.0, "1", 0.0)

    def argmax_k_199(d):  # 1..m-1 all attain the value 0
        d["certificate"]["argmax_k"] = "199"

    def argmax_k_m(d):  # m does not
        d["certificate"]["argmax_k"] = "1009"

    def stages_added(d):
        d["stages"] = [{"stage": 1}]

    def certificate_schema_1(d):  # a retired certificate in a /5 report
        d["certificate"]["schema"] = "lowdisc.discrepancy_certificate/1"

    assert verify_tampered(tmp_path, genuine, argmax_k_199) == 0
    for edit in (argmax_k_m, stages_added, certificate_schema_1):
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
    # every residue is rendered exactly once, in blocks of at most
    # _TEXT_BLOCK: the same blocks serve the digest and the element list
    calls = []
    kernel = discrepancy._decimal_fields

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(discrepancy, "_decimal_fields", counted)
    out = tmp_path / "paper.json"
    assert run(["lowdisc", "--m", 70001, "--eps", "0.3", "--mode", "paper",
                "--out", out]) == 0
    assert sum(calls) == 70001
    assert max(calls) <= discrepancy._TEXT_BLOCK < 70001
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


def test_manifest_outputs_are_hashed_in_chunks(tmp_path, monkeypatch):
    # verify reads a re-run's outputs 1 MiB at a time, never whole: its
    # peak memory stays that of the build (a 30 MB edge list at
    # n = 20011).
    out = tmp_path / "g.json"
    assert run(["expander", "--n", 1009, "--eps", 0.5, "--seed", 7,
                "--out", out]) == 0
    sizes = []

    class Reads:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size=-1):
            sizes.append(size)
            return self.fh.read(size)

    def spied_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return Reads(fh) if "b" in mode else fh

    monkeypatch.setattr(cli, "open", spied_open, raising=False)
    assert run(["verify", tmp_path / "g.json.manifest.json"]) == 0
    assert sizes and all(0 < size <= 1 << 20 for size in sizes)


def test_manifest_names_only_plain_files(tmp_path, capsys):
    # The writer stores --out and each output as a bare file name; a
    # manifest naming a path instead fails, and writes nothing there.
    out = tmp_path / "a.json"
    assert run(["approx", "--fn", "MAJ_3", "--out", out]) == 0
    genuine = read_json(tmp_path / "a.json.manifest.json")
    escaped = tmp_path / "elsewhere" / "escaped.json"
    escaped.parent.mkdir()

    def out_path(m):
        m["params"]["out"] = str(escaped)

    def output_path(m):
        m["outputs"] = {str(escaped): m["outputs"]["a.json"]}

    def parent_dir(m):
        m["params"]["out"] = ".."

    for edit in (out_path, output_path, parent_dir):
        capsys.readouterr()
        assert verify_tampered(tmp_path, genuine, edit) == 1, edit.__name__
        assert capsys.readouterr().err == (
            "FAIL: out and outputs must be plain file names\n"), edit.__name__
        assert os.listdir(escaped.parent) == [], edit.__name__


def test_manifest_whose_arguments_argparse_rejects_fails(tmp_path, capsys):
    # The re-run's usage error fails that manifest alone (exit 1), and
    # verify goes on to the next file.
    out = tmp_path / "a.json"
    assert run(["approx", "--fn", "MAJ_3", "--out", out]) == 0
    genuine = read_json(tmp_path / "a.json.manifest.json")

    def bogus_param(m):
        m["params"]["bogus"] = "1"

    capsys.readouterr()
    assert verify_tampered(tmp_path, genuine, bogus_param, out) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith("FAIL: re-run rejected its arguments\n")
    assert captured.out.splitlines()[-2:] == [
        f"{tmp_path / 'tampered.json'}: FAILED", f"{out}: ok"]


def test_manifest_with_wrongly_typed_fields_fails_and_verify_goes_on(
        tmp_path, capsys):
    # Each fails that manifest alone (exit 1), not main with a traceback,
    # and the genuine file after it still verifies.
    out = tmp_path / "a.json"
    assert run(["approx", "--fn", "MAJ_3", "--out", out]) == 0
    genuine = read_json(tmp_path / "a.json.manifest.json")

    def outputs_list(m):
        m["outputs"] = list(m["outputs"])

    def params_list(m):
        m["params"] = list(m["params"].items())

    def params_string(m):
        m["params"] = "--fn MAJ_3"

    def unknown_subcommand(m):
        m["subcommand"] = "rm"

    def verify_subcommand(m):
        m["subcommand"] = "verify"

    def subcommand_list(m):
        m["subcommand"] = ["approx"]

    def no_outputs(m):
        del m["outputs"]

    def digest_not_hex(m):
        m["outputs"]["a.json"] = m["outputs"]["a.json"].upper()

    def digest_number(m):
        m["outputs"]["a.json"] = 1

    for edit, err in ((outputs_list, "params and outputs must be objects"),
                      (params_list, "params and outputs must be objects"),
                      (params_string, "params and outputs must be objects"),
                      (unknown_subcommand, "unknown subcommand 'rm'"),
                      (verify_subcommand, "unknown subcommand 'verify'"),
                      (subcommand_list, "unknown subcommand ['approx']"),
                      (no_outputs, "params and outputs must be objects"),
                      (digest_not_hex, "outputs must be sha256 hex digests"),
                      (digest_number, "outputs must be sha256 hex digests")):
        capsys.readouterr()
        assert verify_tampered(tmp_path, genuine, edit, out) == 1, \
            edit.__name__
        captured = capsys.readouterr()
        assert captured.err.startswith(f"FAIL: {err}"), edit.__name__
        assert captured.out.splitlines() == [
            f"{tmp_path / 'tampered.json'}: FAILED", f"{out}: ok"], \
            edit.__name__


def test_dist_manifest_without_its_input_fails(tmp_path, capsys):
    zf, out = tmp_path / "z.json", tmp_path / "d.json"
    zf.write_text(json.dumps({"m": 7, "elements": [1, 2, 3]}))
    assert run(["dist", zf, "--out", out]) == 0
    genuine = read_json(tmp_path / "d.json.manifest.json")

    def no_z_file(m):
        del m["params"]["z_file"]

    capsys.readouterr()
    assert verify_tampered(tmp_path, genuine, no_z_file, out) == 1
    captured = capsys.readouterr()
    assert "FAIL: re-run rejected its arguments" in captured.err
    assert captured.out.splitlines()[-1] == f"{out}: ok"


def test_uniformity_report_beyond_the_dp_cap_fails_before_allocating(
        tmp_path, capsys, monkeypatch):
    # A report's m is checked against dist's cap before its multiset, with
    # its m-long frequency vector (72.8 TiB here), is built.
    zf, out = tmp_path / "z.json", tmp_path / "d.json"
    zf.write_text(json.dumps({"m": 7, "elements": [1, 2, 3]}))
    assert run(["dist", zf, "--out", out]) == 0
    genuine = read_json(out)

    def built(*args):
        raise AssertionError("IntegerMultiset built")

    monkeypatch.setattr(cli, "IntegerMultiset", built)

    def huge_m(d):
        d["m"] = 10 ** 13

    capsys.readouterr()
    assert verify_tampered(tmp_path, genuine, huge_m) == 1
    assert "n*m exceeds dp cap 1e8" in capsys.readouterr().err


def test_dist_m_beyond_the_dp_cap_exits_2_before_allocating(tmp_path,
                                                           capsys):
    # n * m <= 10^8 is checked from the element count and m before the
    # multiset's m-long frequency vector is allocated (72.8 TiB here).
    zf, out = tmp_path / "z.json", tmp_path / "d.json"
    zf.write_text(json.dumps({"m": 7, "elements": [1, 2, 3]}))
    capsys.readouterr()
    assert run(["dist", zf, "--m", 10 ** 13, "--out", out]) == 2
    assert capsys.readouterr().err == "error: n*m exceeds dp cap 1e8\n"
    assert not out.exists()
    zf.write_text(json.dumps({"m": 10 ** 13, "elements": [1, 2, 3]}))
    assert run(["dist", zf, "--out", out]) == 2
    assert not out.exists()


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


def never_built(*args, **kwargs):
    raise AssertionError("built before its output paths were checked")


def test_edge_list_may_not_overwrite_the_report(tmp_path, monkeypatch):
    # the list, named or by default, at --out or its manifest: exit 2
    # before building, and no file written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_expander", never_built)
    for out, edge_list in (("same.json", ["--edge-list", "same.json"]),
                           ("same.json", ["--edge-list", "./same.json"]),
                           ("g.json", ["--edge-list", "g.json.manifest.json"]),
                           ("g.edges", [])):
        assert run(["expander", "--n", 101, "--eps", "0.5", "--seed", 1,
                    "--out", out, *edge_list]) == 2, (out, edge_list)
        assert os.listdir(tmp_path) == []
    # above the limit no list is written, so its path is free
    monkeypatch.undo()
    out = tmp_path / "g.edges"
    assert run(["expander", "--n", 101, "--eps", "0.5", "--seed", 1,
                "--edge-list-limit", 100, "--out", out]) == 0
    assert run(["verify", out]) == 0


def test_emitted_matrix_may_not_overwrite_the_report(tmp_path, monkeypatch):
    hout = tmp_path / "h.json"
    assert run(["halfspace", "--n", 24, "--mode", "demo", "--c-prime", "0.05",
                "--seed", 5, "--out", hout]) == 0
    built = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(cli, "lift_to_nof", never_built)
    lout = tmp_path / "l.json"
    for matrix in (lout, f"{lout}.manifest.json"):
        assert run(["lift", hout, "--k", 2, "--m-blk", 1,
                    "--emit-matrix", matrix, "--out", lout]) == 2
        assert sorted(os.listdir(tmp_path)) == built


def test_approx_build_and_verify(tmp_path):
    out = tmp_path / "a.json"
    assert run(["approx", "--fn", "MAJ_3", "--degree", 1,
                "--out", out]) == 0
    rep = read_json(out)
    assert rep["schema"] == "lowdisc.approx_report/8"
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
        p = approximation.approx_problem(approximation.MAJ(6), 2)
        ref, psi = p.read_dual(exact)
        w = np.zeros(len(p.first))
        w[ref] = [float(v / int(p.sizes[o])) for o, v in zip(ref, psi)]
        d["result"]["dual_certificate"] = w[p.orbit].tolist()

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

    for edit in (zero_coeffs, zero_dual, drop_dual):
        assert verify_tampered(tmp_path, genuine_poly, edit) == 1
    for edit in (zero_coeffs, higher_degree_witness, margin_99):
        assert verify_tampered(tmp_path, genuine_threshold, edit) == 1


def test_threshold_certificate_tamper_detected(tmp_path):
    # A table that is not symmetric (a certificate on its cube design) and
    # MAJ_5 (a certificate on t = 0..n), both exact.
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
    assert all(d["result"]["meta"]["certificate"]["reference"]
               for d in genuine)

    def zero_certificate(d):
        psi = d["result"]["meta"]["certificate"]["psi"]
        d["result"]["meta"]["certificate"]["psi"] = [
            {"num": "0", "den": "1"} for _ in psi]

    def change_one_weight(d):
        psi = d["result"]["meta"]["certificate"]["psi"]
        i = next(i for i, p in enumerate(psi) if p["num"] != "0")
        psi[i] = {"num": psi[i]["num"], "den": str(2 * int(psi[i]["den"]))}

    def exact_margin_plus_1(d):
        margin = d["result"]["meta"]["exact"]["margin"]
        margin["num"] = str(int(margin["num"]) + int(margin["den"]))

    def delete_certificate(d):
        del d["result"]["meta"]["certificate"]

    def lower_d0(d):  # the certificate then proves too much
        d["result"]["d0"] -= 1

    def drop_dual(d):  # the degree-d0 dual at /4
        d["result"]["dual_certificate"] = None

    def negative_degree(d):  # recorded, not used, but never below 0
        d["degree"] = -7

    for artifact in genuine:
        assert artifact["result"]["d0"] >= 1
        for edit in (zero_certificate, change_one_weight, delete_certificate,
                     lower_d0, drop_dual, negative_degree,
                     exact_margin_plus_1):
            assert verify_tampered(tmp_path, artifact, edit) == 1, \
                edit.__name__


def test_verify_never_solves(tmp_path, monkeypatch, capsys):
    # Genuine and tampered poly and threshold reports, on a symmetric and a
    # non-symmetric table: every solver refuses.
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

    for name in ("minimax_exchange", "exact_finish", "_lift",
                 "minimax_poly", "threshold_degree", "linprog"):
        for module in (approximation, numeric_core, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refusing(name))

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
        assert verify_tampered(tmp_path, artifact, lambda d: None) == 0, \
            (kind, fn)
        for edit in (drop_dual, zero_coeffs, nan_coeff) + (margin_99,) * (
                kind == "threshold"):
            assert verify_tampered(tmp_path, artifact, edit) == 1, \
                (kind, fn, edit.__name__)
    assert calls == []

    capsys.readouterr()
    assert verify_tampered(tmp_path, genuine["threshold", "t5.txt"],
                           drop_dual) == 1
    assert capsys.readouterr().err.rstrip().endswith(
        "rebuild it from its manifest")


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

    def block_weight_plus_1(d):
        d["block_weights_scaled"][0] = str(
            int(d["block_weights_scaled"][0]) + 1)

    def n_plus_1(d):
        d["n"] += 1

    def k_as_text(d):
        d["k"] = str(d["k"])

    def source_dropped(d):
        del d["weights"], d["threshold"]

    # The source halfspace is lifted again at the recorded k and m_blk.
    for edit in (w0_plus_1, block_weight_plus_1, n_plus_1, k_as_text,
                 source_dropped):
        assert verify_tampered(tmp_path, lifted, edit) == 1, edit.__name__


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
    # On the cube, 2^14 x 470 and 2^16 x 697 design entries exceed
    # DESIGN_CAP; one weight class needs 15 x 4 and 17 x 4.
    for fn in ("MAJ_14", "MAJ_16"):
        out = tmp_path / f"{fn}.json"
        assert run(["approx", "--fn", fn, "--degree", 3, "--out", out]) == 0
        assert run(["verify", out]) == 0
        result = read_json(out)["result"]
        assert result["meta"]["dual_verified"] and result["meta"]["exact"]


def test_partially_symmetric_approx_beyond_the_cube_cap(tmp_path):
    # The master halfspace of 8 residues mod 1009 has 16 variables: 8
    # singleton classes and the y block of 8. At degree 3 its orbit design
    # is 2304 x 140, where the cube's 65536 x 697 exceeds DESIGN_CAP.
    Z = discrepancy.IntegerMultiset([65, 121, 138, 262, 583, 783, 822, 868],
                                    1009)
    f = halfspace.build_master_halfspace(Z).to_table()
    assert [len(b) for b in approximation.weight_classes(f)] == [1] * 8 + [8]
    assert approximation.approx_problem(f, 3).A.shape == (2304, 140)
    table, out = tmp_path / "master16.txt", tmp_path / "master16.json"
    table.write_text("".join(f"{v}\n" for v in f.values))
    assert run(["approx", "--fn", table, "--degree", 3, "--out", out]) == 0
    assert run(["verify", out]) == 0
    result = read_json(out)["result"]
    assert result["meta"]["dual_verified"] and result["meta"]["exact"]
    assert len(result["num_coeffs"]) == 697


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

    def argmax_k_1234(d):  # every k in 1..n-1 attains the value 0
        d["provenance"]["disc_argmax_k"] = 1234

    def argmax_k_n(d):
        d["provenance"]["disc_argmax_k"] = 2003

    assert verify_tampered(tmp_path, genuine, argmax_k_1234) == 0
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


def test_fields_verify_once_skipped_are_rendered(tmp_path):
    # Each artifact is compared whole with its writer's rendering: a
    # graph's spectrum and imaginary residue, practical guards, and the
    # fixed fields of an approx result.
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


# The versions of each output schema that no writer writes any more.
RETIRED = {"approx_report": range(1, 8), "construction_report": range(1, 5),
           "circulant_graph": range(1, 4), "uniformity_report": range(1, 5),
           "lifted_problem": (1,)}


def test_verify_reads_the_version_each_writer_writes(tmp_path, capsys):
    # One artifact of each output schema, as the CLI writes it: verify
    # reads that version of it and no other, and a retired version is a
    # foreign file (exit 2). A halfspace spec is also a hand-written lift
    # input, such as the benchmark's /1 master spec, and is read at /1-/3.
    inputs = pathlib.Path(__file__).parent.parent / "perfbench" / "inputs.py"
    master = tmp_path / "master.json"
    master.write_text(runpy.run_path(str(inputs))["generate"](1)[
        "master_4.json"])
    assert read_json(master)["schema"] == "lowdisc.halfspace_spec/1"
    z = tmp_path / "z.json"
    runs = {z: ["lowdisc", "--m", 1009, "--eps", "0.5", "--seed", 1],
            "g.json": ["expander", "--n", 101, "--eps", "0.5", "--seed", 3],
            "dist.json": ["dist", z],
            "approx.json": ["approx", "--fn", "MAJ_3"],
            "h.json": ["halfspace", "--n", 10],
            "lift.json": ["lift", master, "--k", 2, "--m-blk", 1]}
    written = {}
    for out, argv in runs.items():
        out = tmp_path / out
        assert run([*argv, "--out", out]) == 0, argv
        written[out] = read_json(out)
    assert run(["verify", master, *written]) == 0
    schemas = {d["schema"] for d in written.values()}
    assert set(cli._VERIFIERS) == schemas | {
        f"lowdisc.halfspace_spec/{v}" for v in (1, 2, 3)}
    assert len(cli._VERIFIERS) == 8
    of_kind = {d["schema"][len("lowdisc."):].rsplit("/", 1)[0]: d
               for d in written.values()}
    for kind, versions in RETIRED.items():
        for v in versions:
            def relabel(d):
                d["schema"] = f"lowdisc.{kind}/{v}"

            capsys.readouterr()
            assert verify_tampered(tmp_path, of_kind[kind], relabel) == 2, \
                (kind, v)
            assert "unknown schema" in capsys.readouterr().err


def test_bad_args_exit_2(tmp_path, capsys):
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
    for lines in ("", "1\n-1\n1\n"):  # 0 and 3 lines: not 2^n
        table.write_text(lines)
        capsys.readouterr()
        assert run(["approx", "--fn", table, "--out", out]) == 2
        assert capsys.readouterr().err == "error: table length must be 2^n\n"
        assert not out.exists()


HALFSPACE = {"schema": "lowdisc.halfspace_spec/3", "n": 2,
             "weights": ["1", "2"], "threshold": {"num": "1", "den": "2"},
             "provenance": {}}

# Specs whose n, weights or den int() reads as 2, (5, 9), (5, 9) and 2:
# strings no writer writes.
NOT_DECIMAL = [{**HALFSPACE, "weights": ["+5", " 9"]},
               {**HALFSPACE, "weights": ["05", "\u0669"]},
               {**HALFSPACE, "threshold": {"num": "1", "den": "0_2"}},
               {**HALFSPACE, "n": "+2"}]


@pytest.mark.parametrize("subcommand, data, code", [
    ("dist", {"m": 7, "elements": [1, "3"]}, 0),
    ("dist", {"m": 7, "elements": 5}, 2),
    ("dist", {"m": 7, "elements": "13"}, 2),
    ("dist", {"m": None, "elements": [1]}, 2),
    ("dist", {"m": 7, "elements": [[1]]}, 2),
    ("dist", {"m": 7, "elements": [1.5]}, 2),
    ("dist", {"m": 7, "elements": [True]}, 2),
    ("dist", {"m": 7, "elements": ["1.5"]}, 2),
    ("dist", [1], 2),
    ("lift", HALFSPACE, 0),
    ("lift", {**HALFSPACE, "weights": 5}, 2),
    ("lift", {**HALFSPACE, "weights": [1.5, 2]}, 2),
    ("lift", {**HALFSPACE, "threshold": 3}, 2),
    ("lift", {**HALFSPACE, "threshold": {"num": "1", "den": "0"}}, 2),
    ("lift", [HALFSPACE], 2),
    *(("lift", spec, 2) for spec in NOT_DECIMAL),
    ("lift", {**HALFSPACE, "n": "2", "weights": [5, 9],
              "threshold": {"num": 1, "den": 2}}, 0),
    ("dist", {"m": "+101", "elements": [1]}, 2),
    ("dist", {"m": "1_01", "elements": [1]}, 2),
    ("dist", {"m": "101", "elements": [1]}, 0),
])
def test_input_shapes(tmp_path, capsys, subcommand, data, code):
    # Elements, m, n, weights and threshold parts are JSON integers or
    # decimal strings, -?(0|[1-9][0-9]*); any other shape exits 2, never
    # truncated or raised.
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(data))
    extra = ["--k", 2, "--m-blk", 1] if subcommand == "lift" else []
    assert run([subcommand, path, *extra, "--out", out]) == code
    if code:
        assert capsys.readouterr().err.startswith("error: ")
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("element", [" 7", "+3", "05", "1_0", "\u0661"])
def test_dist_rejects_element_strings_numpy_would_read(tmp_path, capsys,
                                                       element):
    # numpy's int parser reads these as 7, 3, 5, 10 and 1; an element string
    # is an ASCII decimal integer, -?(0|[1-9][0-9]*), and nothing else.
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps({"m": 11, "elements": ["2", element]}))
    assert run(["dist", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    path.write_text(json.dumps({"m": 11, "elements": ["2", "-0", "10"]}))
    assert run(["dist", path, "--out", out]) == 0


def test_verify_fails_a_spec_with_non_decimal_integers(tmp_path):
    # Also without provenance, where verify renders nothing.
    path = tmp_path / "h.json"
    for spec in NOT_DECIMAL:
        path.write_text(json.dumps(spec))
        assert run(["verify", path]) == 1


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
    # OMB has no symmetric pair, so its design is the cube's. OMB_14 at
    # degree 14 would need a 16384 x 16384 float matrix (2 GB), and OMB_12
    # at degree 5 is 4096 x 1586, over the cap too.
    out = str(tmp_path / "a.json")
    for fn, degree in (("OMB_14", "14"), ("OMB_12", "5")):
        code = ("import sys, time; from lowdisc import cli; "
                "t = time.perf_counter(); "
                f"code = cli.main(['approx', '--fn', {fn!r}, '--degree', "
                f"{degree!r}, '--out', {out!r}]); "
                "sys.exit(code if time.perf_counter() - t < 2 else 99)")
        assert fresh_python(code) == 2
