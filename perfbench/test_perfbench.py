"""Tests of the benchmark itself (not of lowdisc).

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(name, parent, start, end, attrs=None):
    return [name, parent, start, end, True, attrs]


def test_self_time_on_synthetic_tree():
    # cli.main [0, 10]
    #   construction.build [1, 7]
    #     discrepancy.random_search [2, 6]
    #       discrepancy.disc [3, 4]   (same layer as its parent)
    #     numeric_core.primes [6.5, 7]
    #   discrepancy.disc [8, 9]
    tree = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("construction.build", 0, 1.0, 7.0),
        _span("discrepancy.random_search", 1, 2.0, 6.0),
        _span("discrepancy.disc", 2, 3.0, 4.0, {"support": 3}),
        _span("numeric_core.primes", 1, 6.5, 7.0),
        _span("discrepancy.disc", 0, 8.0, 9.0, {"support": 4}),
    ]
    functions, self_s = spans.summarize(tree)
    assert self_s == pytest.approx({
        "cli": 10 - 6 - 1,
        "construction": 6 - 4 - 0.5,
        "discrepancy": 4 + 1,   # random_search's span with disc nested
        "numeric_core": 0.5,
    })
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert functions["discrepancy.disc"]["calls"] == 2
    assert functions["discrepancy.disc"]["s"] == pytest.approx(2.0)
    assert functions["discrepancy.disc"]["attrs"] == {"support": 7}
    assert spans.count_children(tree, "discrepancy.random_search",
                                "discrepancy.disc") == 1


def test_recursive_span_counted_once():
    tree = [
        _span("cli.main", -1, 0.0, 5.0),
        _span("cli.main", 0, 1.0, 4.0),
        _span("discrepancy.disc", 1, 2.0, 3.0),
    ]
    functions, self_s = spans.summarize(tree)
    assert functions["cli.main"] == {"calls": 2, "s": 5.0, "ok": 2,
                                     "attrs": {}}
    assert self_s == pytest.approx({"cli": 4.0, "discrepancy": 1.0})
    assert spans.count_nested(tree, "cli.main") == 1


def test_generator_repeats_per_seed_and_varies_across_seeds():
    assert inputs.generate(5) == inputs.generate(5)
    a, b = inputs.generate(5), inputs.generate(6)
    assert a.keys() == b.keys()
    assert all(a[k] != b[k] for k in a)


def test_master_halfspace_passes_the_spec_check():
    from lowdisc.halfspace import HalfspaceSpec

    spec = json.loads(inputs.generate(3)["master_8.json"])
    h = HalfspaceSpec.from_json_dict(spec)
    m = int(spec["provenance"]["m"])
    assert h.n == 8 and h.weights[4:] == (-m,) * 4


@pytest.fixture
def traced():
    import lowdisc.cli  # noqa: F401  (loads every lowdisc module)

    tracer = spans.Tracer()
    uninstall = spans.install(tracer, spans.lowdisc_modules())
    try:
        yield tracer
    finally:
        uninstall()


def _ancestors(tree, i):
    out = []
    p = tree[i][spans.PARENT]
    while p >= 0:
        out.append(tree[p][spans.NAME])
        p = tree[p][spans.PARENT]
    return out


def test_disc_is_traced_through_construction(traced):
    import lowdisc.construction

    lowdisc.construction.build_low_disc_set(101, 0.5, "random", seed=1)
    tree = traced.finish()
    discs = [i for i, s in enumerate(tree) if s[0] == "discrepancy.disc"]
    assert discs
    assert all("construction.build_low_disc_set" in _ancestors(tree, i)
               for i in discs)
    assert all(tree[i][spans.ATTRS]["modulus"] == 101 for i in discs)


def test_disc_is_traced_through_cli(traced, tmp_path):
    import lowdisc.cli

    z = tmp_path / "z.json"
    z.write_text(json.dumps({"m": 101, "elements": [1, 5, 9]}))
    assert lowdisc.cli.main(["dist", str(z), "--out",
                             str(tmp_path / "d.json")]) == 0
    tree = traced.finish()
    names = [s[0] for s in tree]
    assert names[0] == "cli.main"
    assert "distribution.uniformity_report" in names
    discs = [i for i, n in enumerate(names) if n == "discrepancy.disc"]
    assert discs and all("cli.main" in _ancestors(tree, i) for i in discs)


def test_uninstall_restores_every_binding():
    import lowdisc.cli
    import lowdisc.construction
    import lowdisc.discrepancy

    before = lowdisc.cli.disc, lowdisc.construction.disc
    init = lowdisc.discrepancy.IntegerMultiset.__init__
    uninstall = spans.install(spans.Tracer(), spans.lowdisc_modules())
    assert lowdisc.cli.disc is not before[0]
    assert lowdisc.construction.disc is lowdisc.cli.disc
    uninstall()
    assert (lowdisc.cli.disc, lowdisc.construction.disc) == before
    assert lowdisc.discrepancy.IntegerMultiset.__init__ is init


def test_lift_matrix_check_agrees_with_lowdisc(tmp_path):
    from lowdisc.halfspace import HalfspaceSpec, lift_to_nof, two_party_matrix

    files = inputs.generate(2)
    (tmp_path / "inputs").mkdir()
    (tmp_path / "run").mkdir()
    (tmp_path / "inputs" / "master_4.json").write_text(files["master_4.json"])
    op = run._lift(4, 2)
    h = HalfspaceSpec.from_json_dict(json.loads(files["master_4.json"]))
    M, _R, _pts = two_party_matrix(lift_to_nof(h, 2, 2))
    csv = tmp_path / "run" / op.outputs[1]
    csv.write_text("".join(",".join(str(int(v)) for v in row) + "\n"
                           for row in M))
    assert run.check_lift_matrix(tmp_path / "run", op, tmp_path / "inputs")
    M[0, 0] = -M[0, 0]
    csv.write_text("".join(",".join(str(int(v)) for v in row) + "\n"
                           for row in M))
    assert not run.check_lift_matrix(tmp_path / "run", op,
                                     tmp_path / "inputs")


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    child = run.Child(0, 1.0, 10.0, b"")
    batch = run.Batch(1.0, [child], [{}])
    ops = (run._verify("x.json"),)
    probes = {"import": [0.1], "deps": [0.08]}
    e2e, raw = run.end_to_end(ops, 0.5, probes, [batch])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"]
    layer = run.per_layer(str(tmp_path), ops, batch, 1.0, str(tmp_path))
    layer.update(raw)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert run.layer_units(m["name"]) == m["unit"]


def test_end_to_end_medians_and_ratios():
    """wall_s sums each invocation's median (a partial last batch counts
    for the invocations it ran); the *_rel metrics divide by the
    dependency-import probe run right after, then take medians."""
    ops = (run._verify("a.json"), run._verify("b.json"))

    def batch(*seconds):
        children = [run.Child(0, t, 10.0, b"") for t in seconds]
        return run.Batch(sum(seconds), children, [{}] * len(seconds))

    batches = [batch(1.0, 4.0), batch(3.0, 2.0), batch(2.0)]
    # pair k follows the k-th timed invocation; the sixth is a fill pair
    probes = {"import": [1.0, 1.2, 3.0, 2.0, 1.0, 9.0],
              "deps": [0.5, 1.0, 1.0, 2.0, 1.0, 1.0]}
    e2e, raw = run.end_to_end(ops, 0.5, probes, batches)
    assert raw["wall_s"] == 2.0 + 3.0
    assert raw["verify_s"] == raw["wall_s"]
    assert raw["import_s"] == 1.6 and raw["deps_s"] == 1.0
    # a.json: 1/0.5, 3/1, 2/1 -> 2; b.json: 4/1, 2/2 -> 2.5
    assert e2e["wall_rel"] == (4.5, "deps")
    assert e2e["import_rel"] == (1.6, "deps")  # of 2, 1.2, 3, 1, 1, 9
    assert e2e["setup_s"] == (0.5, "s")
