"""Tamper sweep: every leaf of one small genuine artifact per schema and
branch is changed in turn, and `verify` must reject each change (exit 1)
unless the field is on NOT_REDERIVED: the fields a writer records that
`verify` does not recompute, each with its reason. docs/formats.md
carries the same list.

A leaf is changed as follows: a number and an integer string +1, a bool
flipped, another string altered, null set to 0, an empty list or object
filled. A list is sampled at its first, middle and last entries. The
top-level schema string, once altered, names no schema: exit 2.
"""

import fnmatch
import json

from lowdisc import approximation, discrepancy, halfspace
from test_cli import read_json, run, verify_tampered

# "<artifact>:<dotted path>" patterns (list indices are path components).
NOT_REDERIVED = {
    "lowdisc-*:seed": "the seed of the build; re-deriving the set from it "
                      "re-runs the seeded search",
    "lowdisc-*:notes*": "build diagnostics; re-deriving them re-runs the "
                        "build",
    "lowdisc-paper:certificate.argmax_k": "every k in 1..m-1 attains the "
                                          "value 0 of the trivial set, and "
                                          "any k that attains it is accepted",
    "expander-*:provenance.seed": "the seed of the build; the graph is "
                                  "re-derived from the recorded set, and "
                                  "the construction rebuilt at this seed "
                                  "must take the recorded branch, so a "
                                  "seed whose build takes the same branch "
                                  "(and set) passes",
    "halfspace-demo:provenance.seed": "as for a graph: the halfspace is "
                                      "re-derived from its set, and only "
                                      "the rebuilt branch is compared",
    "approx-threshold-symmetric:result.meta.certificate.reference.*":
        "a certificate is checked as a proof, not re-derived (that solves "
        "again): MAJ_5's degree-0 certificate sits on t = 1, 3, and MAJ_5 "
        "takes the same value at t = 1, 2 and at t = 3, 4, so either moved "
        "reference point gives another valid certificate",
    "approx-threshold-*:degree": "the --degree the threshold kind records "
                                 "unused; only its range 0..max(n, 1) is "
                                 "checked",
    "lift:k": "the --k the lift was run with: the problem is lifted again "
              "from its recorded source halfspace at the recorded k, and "
              "every k >= 1 gives a lifted problem",
    "lift:m_blk": "as k, for --m-blk",
}

# A 5-variable table that is not symmetric (threshold degree 3).
TABLE_5 = "".join(f"{1 if (i * 13 + (i >> 2)) % 5 < 3 else -1}\n"
                  for i in range(32))

# A 5-variable table symmetric in x2..x5 (weight classes {x1}, {x2..x5}):
# its float report's middle dual entry, index 16, is not the first index
# of its orbit, so the sweep also tampers with a spread weight.
TABLE_CLASSES = "".join(f"{1 if (i * 7 + (i >> 1)) % 3 else -1}\n"
                        for i in range(32))


def genuine_artifacts(tmp_path):
    """{name: artifact} for the small genuine artifacts of the sweep."""
    table = tmp_path / "t5.txt"
    table.write_text(TABLE_5)
    classes = tmp_path / "classes.txt"
    classes.write_text(TABLE_CLASSES)
    z = tmp_path / "z_input.json"
    z.write_text(json.dumps({"m": 13, "elements": ["1", "3", "9", "27"]}))
    master = halfspace.build_master_halfspace(
        discrepancy.IntegerMultiset([3, 17, 58, 101], 1009))
    (tmp_path / "halfspace-master.json").write_text(
        json.dumps(master.to_json_dict()))
    builds = {
        "lowdisc-practical": ["lowdisc", "--m", 1009, "--eps", "0.4",
                              "--mode", "practical", "--seed", 1],
        "lowdisc-random": ["lowdisc", "--m", 1009, "--eps", "0.4",
                           "--mode", "random", "--seed", 2],
        "lowdisc-paper": ["lowdisc", "--m", 101, "--eps", "0.3",
                          "--mode", "paper"],
        "expander-low_disc": ["expander", "--n", 1009, "--eps", "0.5",
                              "--seed", 7],
        "expander-complete": ["expander", "--n", 101, "--eps", "0.5",
                              "--seed", 3],
        "expander-paper": ["expander", "--n", 37, "--eps", "0.5",
                           "--mode", "paper"],
        "halfspace-demo": ["halfspace", "--n", 24, "--mode", "demo",
                           "--c-prime", "0.05", "--seed", 5],
        "dist": ["dist", z],
        "approx-poly-symmetric": ["approx", "--fn", "MAJ_5", "--degree", 2],
        "approx-poly-table": ["approx", "--fn", table, "--degree", 2],
        "approx-poly-classes": ["approx", "--fn", classes, "--degree", 2],
        "approx-threshold-symmetric": ["approx", "--fn", "MAJ_5",
                                       "--kind", "threshold"],
        "approx-threshold-table": ["approx", "--fn", table,
                                   "--kind", "threshold"],
        "lift": ["lift", tmp_path / "halfspace-demo.json", "--k", 2,
                 "--m-blk", 1],
    }
    out = {}
    for name, argv in builds.items():
        path = tmp_path / f"{name}.json"
        assert run([*argv, "--out", path]) == 0, name
        out[name] = read_json(path)
    out["halfspace-master"] = read_json(tmp_path / "halfspace-master.json")
    return out


def leaves(node, path=()):
    """(path, value) of every leaf; a list is entered at its first,
    middle and last entries, and an empty list or object is a leaf."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i in sorted({0, len(node) // 2, len(node) - 1}):
            yield from leaves(node[i], path + (i,))
    else:
        yield path, node


def changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        try:
            return str(int(value) + 1)
        except ValueError:
            return value + "x"
    if value is None:
        return 0
    return [0] if isinstance(value, list) else {"x": 0}


def setter(path, value):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return edit


def test_every_rederived_leaf_is_checked(tmp_path):
    artifacts = genuine_artifacts(tmp_path)
    assert run(["verify", *(tmp_path / f"{name}.json"
                            for name in artifacts)]) == 0
    graphs = {name: artifacts[name]["provenance"]["branch"]
              for name in artifacts if name.startswith("expander-")}
    assert graphs == {"expander-low_disc": "low_disc",
                      "expander-complete": "complete",
                      "expander-paper": "complete"}
    assert artifacts["lowdisc-paper"]["branch"] == "trivial"
    assert "exact" in artifacts["approx-threshold-symmetric"]["result"]["meta"]
    f = approximation.BooleanFunctionTable.from_text(TABLE_CLASSES)
    assert approximation.weight_classes(f) == [(0,), (1, 2, 3, 4)]
    assert 16 not in approximation.approx_problem(f, 2).first
    missed, exempt_used = [], set()
    for name, genuine in artifacts.items():
        for path, value in leaves(genuine):
            where = f"{name}:{'.'.join(map(str, path))}"
            exempt = [p for p in NOT_REDERIVED if fnmatch.fnmatchcase(where, p)]
            code = verify_tampered(tmp_path, genuine,
                                   setter(path, changed(value)))
            if path == ("schema",):
                assert code == 2, where
            elif exempt:
                exempt_used.update(exempt)
            elif code != 1:
                missed.append(where)
    assert missed == []
    assert exempt_used == set(NOT_REDERIVED)
