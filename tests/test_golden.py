"""Golden bytes: sha256 digests of small CLI artifacts (dist, approx poly
and threshold, lift with its two-party matrix CSV).

The digests were recorded with the per-scalar kernels that the vectorized
ones replaced (numpy 2.4.6, scipy 1.17.1 with HiGHS). The approx digests
follow from HiGHS's floating-point solutions, so a different scipy can
move them; the dist and lift digests depend only on numpy's libm-backed
exp and on exact integer arithmetic.
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
        "f8137e8cfbba4de6c9d87a891596e963c13875e7d6d19c7f63dc84ebd6cbb68c",
    "approx_threshold.json":
        "134dd95e04614babdd994e0fed91a6d2b74051191578c3ece29016789a42af73",
    "lift.json":
        "8d2d08ff17511c48924b6136e6147685bf7ab5fe7fa4637f7a004b570776a064",
    "lift.csv":
        "3f7013929a6de0f62032d01ae9b0c2b4605bbff82e8d0e1a8a72385ac4868393",
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
        ["lift", h, "--k", 2, "--m-blk", 2, "--emit-matrix",
         tmp_path / "lift.csv", "--out", tmp_path / "lift.json"],
    ]
    for argv in runs:
        assert cli.main([str(a) for a in argv]) == 0
    got = {name: _digest(tmp_path / name) for name in GOLDEN}
    assert got == GOLDEN
