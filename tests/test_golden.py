"""Golden bytes: sha256 digests of small CLI artifacts, as the writers
write them today.

Analyze side: dist (at n = 40, and at n = 230 where the counts span
eight 32-bit limbs), approx poly and threshold, lift with its two-party
matrix CSV. Construct side: lowdisc in its three branches (the paper-mode
trivial set at an m above one element-digest chunk, practical random
search, practical pipeline), expander with its edge list, and a demo
halfspace. `verify` accepts every JSON artifact, and refuses a practical
report whose stage log breaks the m >= 668168 rule.

The digests were taken with numpy 2.4.6 and scipy 1.17.1. They depend
only on numpy (its FFT, its BLAS/LAPACK-backed products and solves),
libm-backed exp and exact integer arithmetic.
"""

import hashlib
import json

from lowdisc import cli

# Residues mod 1009 with elements >= m and negative ones mixed in.
DIST_INPUT = {"m": 1009, "elements": [
    3, 17, 58, 101, 144, 200, 263, 318, 377, 402, 455, 512, 571, 630, 698,
    733, 790, 845, 902, 977, 1013, 1500, 2100, 3033, -1, -3, -250, -1017,
    29, 88, 160, 241, 333, 419, 507, 611, 707, 811, 919, 1008]}

# n = 230 elements from a fixed formula: counts span 8 limbs of 32 bits.
# They fall in [-m, 3m), with repeats and two multiples of m. The digest
# was recorded with the object-array recurrence the limb kernel replaced.
DIST_LIMBS_M = 1031
DIST_LIMBS_INPUT = {"m": DIST_LIMBS_M, "elements": [
    (j * j * 97 + 31 * j) % (4 * DIST_LIMBS_M) - DIST_LIMBS_M
    for j in range(230)]}

# sign(1/2 + 5 x1 + 9 x2 - 11 y1 - 11 y2): the master form of {5, 9} mod 11.
LIFT_INPUT = {
    "schema": "lowdisc.halfspace_spec/1", "n": 4,
    "weights": ["5", "9", "-11", "-11"],
    "threshold": {"num": "-1", "den": "2"},
    "provenance": {"kind": "master", "m": "11", "z_elements": ["5", "9"]},
}

# A fixed +-1 table on 6 variables in the --fn text format, and the same
# formula on 5 variables (not symmetric; threshold degree 3).
TABLE_6 = "".join(f"{1 if (i * 13 + (i >> 2)) % 5 < 3 else -1}\n"
                  for i in range(64))
TABLE_5 = "".join(f"{1 if (i * 13 + (i >> 2)) % 5 < 3 else -1}\n"
                  for i in range(32))

GOLDEN = {
    "dist.json":
        "ff7b24f1cdb01cea8582f8855814ef73c63dc51e6283c9fc41f292b0b4cfa0ae",
    "dist_limbs.json":
        "cd27173209894c36df8e6b73534977cd6bbcc43d7fbd599bd5a4b36806d46690",
    "approx_poly.json":
        "b3851dd6e4e234fe4a9c26a713d6db1af27984dae1fa4a35efaddb12cc4ef185",
    "approx_threshold.json":
        "5808d3a3ffbc6bbdd6ce7c87383389f1c9a50f33caa0fa20d26868ad34316dbf",
    "approx_maj6.json":
        "a1b498497466818cfdf888aaedff22c02c60ceda0ecb3ca1e4c55b93fce052bd",
    "approx_parity4_threshold.json":
        "13505cef06873410a6d8b9c7cb2c5ca1d729d2b81c5a909fb7001b02db72ed5c",
    "approx_t5_threshold.json":
        "02d91c5314fb6df574bee9b25d6b3d4cfacb48189f39ae064ec5f612836dd656",
    "lift.json":
        "eeb4d7c0b1e8027a646b2e8fa887e3a41f49fe6dcaec42ecdea7bd9c2eb7ba85",
    "lift.csv":
        "3f7013929a6de0f62032d01ae9b0c2b4605bbff82e8d0e1a8a72385ac4868393",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_artifact_bytes(tmp_path):
    z = tmp_path / "z.json"
    z.write_text(json.dumps(DIST_INPUT))
    zl = tmp_path / "zl.json"
    zl.write_text(json.dumps(DIST_LIMBS_INPUT))
    h = tmp_path / "h.json"
    h.write_text(json.dumps(LIFT_INPUT))
    table = tmp_path / "t6.txt"
    table.write_text(TABLE_6)
    table_5 = tmp_path / "t5.txt"
    table_5.write_text(TABLE_5)
    runs = [
        ["dist", z, "--out", tmp_path / "dist.json"],
        ["dist", zl, "--out", tmp_path / "dist_limbs.json"],
        ["approx", "--fn", table, "--degree", 3,
         "--out", tmp_path / "approx_poly.json"],
        ["approx", "--fn", "MAJ_5", "--kind", "threshold",
         "--out", tmp_path / "approx_threshold.json"],
        ["approx", "--fn", "MAJ_6", "--degree", 2,
         "--out", tmp_path / "approx_maj6.json"],
        ["approx", "--fn", "PARITY_4", "--kind", "threshold",
         "--out", tmp_path / "approx_parity4_threshold.json"],
        ["approx", "--fn", table_5, "--kind", "threshold",
         "--out", tmp_path / "approx_t5_threshold.json"],
        ["lift", h, "--k", 2, "--m-blk", 2, "--emit-matrix",
         tmp_path / "lift.csv", "--out", tmp_path / "lift.json"],
    ]
    for argv in runs:
        assert cli.main([str(a) for a in argv]) == 0
    got = {name: _digest(tmp_path / name) for name in GOLDEN}
    assert got == GOLDEN
    assert cli.main(["verify", *(str(tmp_path / name) for name in GOLDEN
                                 if name.endswith(".json"))]) == 0


CONSTRUCT_GOLDEN = {
    "paper.json":
        "88c25276d05e94c1883412b3a04839179ca55108adfd6ea257dcbffa35352348",
    "random.json":
        "b0a8de932b824cf8fe5cff5ab8bfba9343e62ae9b1cef4ea9125ad5e655f09e9",
    "pipeline.json":
        "32608c815f5827f72c3572ff40359876097d78c34a90814b4ea8f15922db9fb1",
    "g.json":
        "8b500029c0023d0a568333ea7beb41d6426a78704330fd83dd6968dd9566b1da",
    "g.edges":
        "b0f57fe008c8da7be76b766e17b3fec8f702faf623622263f6e408c45cd25551",
    "h.json":
        "2b7e3273f3de80667df98ae2a07a4aef924357e37e81919e6d67a699fa08efe4",
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
    random, pipeline = (json.loads((tmp_path / name).read_text())
                        for name in ("random.json", "pipeline.json"))
    assert random["stages"] == [] and len(pipeline["stages"]) == 3
    assert cli.main(["verify", *(str(tmp_path / name)
                                 for name in CONSTRUCT_GOLDEN
                                 if name.endswith(".json"))]) == 0
    # The stage log is [] exactly below m = 668168.
    for name, edit in (("random.json", {"stages": pipeline["stages"][:2]}),
                       ("pipeline.json", {"stages": []})):
        tampered = tmp_path / f"tampered_{name}"
        tampered.write_text(json.dumps({**json.loads(
            (tmp_path / name).read_text()), **edit}))
        assert cli.main(["verify", str(tampered)]) == 1, name
