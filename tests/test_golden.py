"""Golden bytes: sha256 digests of small CLI artifacts.

Analyze side: dist, approx poly and threshold, lift with its two-party
matrix CSV. Construct side: lowdisc in its three branches (the paper-mode
trivial set at an m above one element-digest chunk, practical random
search, practical pipeline), expander with its edge list, and a demo
halfspace.

The digests were recorded with the per-scalar kernels that the vectorized
ones replaced (numpy 2.4.6, scipy 1.17.1 with HiGHS): the analyze ones
before the distribution/approximation/lifting kernels were vectorized, the
construct ones before the residue multiset, digest, disc and edge-list
kernels were. The approx digests follow from HiGHS's floating-point
solutions, so a different scipy can move them; the others depend only on
numpy's FFT and libm-backed exp and on exact integer arithmetic.

Schema lowdisc.approx_report/3 solves symmetric tables exactly on
t = 0..n (Chebyshev exchange in Fraction arithmetic) and stores the exact
certificate. The MAJ_6 digest was recorded with that exchange; the other
two approx digests are also checked, with the schema string of /1 put
back, against their /1 recordings.
"""

import hashlib
import json

from lowdisc import cli

# Residues mod 1009 with elements >= m and negative ones mixed in.
DIST_INPUT = {"m": 1009, "elements": [
    3, 17, 58, 101, 144, 200, 263, 318, 377, 402, 455, 512, 571, 630, 698,
    733, 790, 845, 902, 977, 1013, 1500, 2100, 3033, -1, -3, -250, -1017,
    29, 88, 160, 241, 333, 419, 507, 611, 707, 811, 919, 1008]}

# sign(1/2 + 5 x1 + 9 x2 - 11 y1 - 11 y2): the master form of {5, 9} mod 11.
LIFT_INPUT = {
    "schema": "lowdisc.halfspace_spec/1", "n": 4,
    "weights": ["5", "9", "-11", "-11"],
    "threshold": {"num": "-1", "den": "2"},
    "provenance": {"kind": "master", "m": "11", "z_elements": ["5", "9"]},
}

# A fixed +-1 table on 6 variables in the --fn text format.
TABLE_6 = "".join(f"{1 if (i * 13 + (i >> 2)) % 5 < 3 else -1}\n"
                  for i in range(64))

GOLDEN = {
    "dist.json":
        "232198cf96d1c5b36d1342212752fe19a8d9e50c103fa940a86d43c55e3ee376",
    "approx_poly.json":
        "f26a5ee9edf34e9c30b02ea6a5e11cbbac43fa463cec41fecb1b61de065e6b3a",
    "approx_threshold.json":
        "e25ce3165268a29ba6b06ae19f50b5f8a1bcc834419485ae492054903c218b23",
    "approx_maj6.json":
        "4aec784c0cfbbd35ecb503f41e3d4b8b9b5e99b5b48cddb55994632dba7dae7a",
    "lift.json":
        "8d2d08ff17511c48924b6136e6147685bf7ab5fe7fa4637f7a004b570776a064",
    "lift.csv":
        "3f7013929a6de0f62032d01ae9b0c2b4605bbff82e8d0e1a8a72385ac4868393",
}

# The approx digests recorded at schema lowdisc.approx_report/1. TABLE_6 is
# not symmetric and the threshold route writes no minimax output, so /2 and
# /3 changed nothing in these two artifacts but the schema string.
SCHEMA_1_GOLDEN = {
    "approx_poly.json":
        "f8137e8cfbba4de6c9d87a891596e963c13875e7d6d19c7f63dc84ebd6cbb68c",
    "approx_threshold.json":
        "134dd95e04614babdd994e0fed91a6d2b74051191578c3ece29016789a42af73",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_artifact_bytes(tmp_path):
    z = tmp_path / "z.json"
    z.write_text(json.dumps(DIST_INPUT))
    h = tmp_path / "h.json"
    h.write_text(json.dumps(LIFT_INPUT))
    table = tmp_path / "t6.txt"
    table.write_text(TABLE_6)
    runs = [
        ["dist", z, "--out", tmp_path / "dist.json"],
        ["approx", "--fn", table, "--degree", 3,
         "--out", tmp_path / "approx_poly.json"],
        ["approx", "--fn", "MAJ_5", "--kind", "threshold",
         "--out", tmp_path / "approx_threshold.json"],
        ["approx", "--fn", "MAJ_6", "--degree", 2,
         "--out", tmp_path / "approx_maj6.json"],
        ["lift", h, "--k", 2, "--m-blk", 2, "--emit-matrix",
         tmp_path / "lift.csv", "--out", tmp_path / "lift.json"],
    ]
    for argv in runs:
        assert cli.main([str(a) for a in argv]) == 0
    got = {name: _digest(tmp_path / name) for name in GOLDEN}
    assert got == GOLDEN
    for name, digest in SCHEMA_1_GOLDEN.items():
        as_1 = (tmp_path / name).read_bytes().replace(
            b"lowdisc.approx_report/3", b"lowdisc.approx_report/1")
        assert hashlib.sha256(as_1).hexdigest() == digest


CONSTRUCT_GOLDEN = {
    "paper.json":
        "cbe9570398c115dc39ae1ed06b390e82f01337ffbabf8ebec48f0a43f6c48c7f",
    "random.json":
        "54049847495e6da78b826a786722aab1271ac88fc91a19ff0d4f92e2f9da2015",
    "pipeline.json":
        "df65d6d3e6a10c094115d74f3972ae1d2fc58353f0da5d08f7c1a22bd3d331fd",
    "g.json":
        "0047418d7928f351c57e2a0fc7eb59e88e1b4c3a0872c8a68420e0453d8a227c",
    "g.edges":
        "b0f57fe008c8da7be76b766e17b3fec8f702faf623622263f6e408c45cd25551",
    "h.json":
        "7fb2a7bb3978fbfd75271d4d26fa608312968fe18f8eae6bbfd84f45be2d03a5",
}


def test_golden_construct_artifact_bytes(tmp_path):
    runs = [
        ["lowdisc", "--m", 70001, "--eps", "0.3", "--mode", "paper",
         "--out", tmp_path / "paper.json"],
        ["lowdisc", "--m", 10007, "--eps", "0.3", "--mode", "practical",
         "--seed", 3, "--out", tmp_path / "random.json"],
        ["lowdisc", "--m", 700001, "--eps", "0.3", "--mode", "practical",
         "--seed", 3, "--out", tmp_path / "pipeline.json"],
        ["expander", "--n", 4001, "--eps", "0.5", "--seed", 7,
         "--out", tmp_path / "g.json"],
        ["halfspace", "--n", 24, "--mode", "demo", "--c-prime", "0.05",
         "--seed", 5, "--out", tmp_path / "h.json"],
    ]
    for argv in runs:
        assert cli.main([str(a) for a in argv]) == 0
    got = {name: _digest(tmp_path / name) for name in CONSTRUCT_GOLDEN}
    assert got == CONSTRUCT_GOLDEN
