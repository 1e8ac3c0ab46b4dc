"""Golden bytes: sha256 digests of small CLI artifacts.

Analyze side: dist (at n = 40, and at n = 230 where the counts span
eight 32-bit limbs), approx poly and threshold, lift with its two-party
matrix CSV. Construct side: lowdisc in its three branches (the paper-mode
trivial set at an m above one element-digest chunk, practical random
search, practical pipeline), expander with its edge list, and a demo
halfspace.

The digests were recorded with the per-scalar kernels that the vectorized
ones replaced (numpy 2.4.6, scipy 1.17.1): the analyze ones before the
distribution/approximation/lifting kernels were vectorized, the construct
ones before the residue multiset, digest, disc and edge-list kernels were.
They depend only on numpy (its FFT, its BLAS/LAPACK-backed products and
solves), libm-backed exp and exact integer arithmetic.

Schema lowdisc.approx_report/3 solves symmetric tables exactly on
t = 0..n (Chebyshev exchange in Fraction arithmetic) and stores the exact
certificate. Schema /4 solves every other table with the float64
single-point exchange (minimax_exchange) instead of HiGHS, and the
threshold kind as the least d with E(f, d) < 1, storing E(f, d0), the
dual at d0 and the degree d0 - 1 certificate. So the TABLE_6 poly digest
and the MAJ_5 threshold digest were recorded at /4; the MAJ_6 artifact
changed only in its schema string, which `MAJ6_AT_SCHEMA_3` proves by
putting /3 back. The PARITY_4 threshold digest (d0 = n: the
interpolation branch, whose dual is empty) and the 5-variable threshold
digest (below the table size at which BLAS results depend on the thread
count) were recorded at /4, before the exact and float routes shared one
(A, f) form.

Schemas construction_report/2, discrepancy_certificate/2,
uniformity_report/2, halfspace_spec/2 and circulant_graph/2 give c copies
of {0, ..., m-1} the closed-form discrepancy 0 (argmax_k 1,
numeric_error 0), and halfspace_spec/2 stores z_digest as the digest
value, where /1 stored the repr of the bound method. Every other artifact changed only in its schema
strings.

Schemas construction_report/3, discrepancy_certificate/3,
uniformity_report/3 and circulant_graph/3 take the DFT of a dense
frequency vector at an odd prime modulus by two real correlations of
half length (numeric_core.real_dft_prime) instead of the exact-length
FFT: argmax_k is the smallest k of its tied pair {k, m - k}, a circulant
spectrum at prime order is exactly real, and the last bits of disc,
lambda and the spectrum move.

Schemas construction_report/4, discrepancy_certificate/4,
uniformity_report/4, circulant_graph/4 and halfspace_spec/3 take every
DFT through numeric_core.real_dft: no direct sum below 64 residues, and
numpy's real FFT (rfft) instead of the complex one at composite moduli.
The stage-1 pipeline set is the first subset in enumeration order within
1e-12 of the least disc, not the one the kernel's rounding ranked first.
So the last bits of disc move, and the practical pipeline's stage log
and, at m = 700001, its set.

Schemas approx_report/5, construction_report/5 and
discrepancy_certificate/5: the float exchange starts from a crash
reference (least squares, then threshold partial pivoting) and solves
its final reference in row order, so a non-symmetric table can end on
another optimal reference. TABLE_6 at degree 3 keeps its error and
coefficients to 5e-15, and its dual moves to another optimal dual; the
5-variable threshold table keeps its result at d0 to the last bits, and
its degree-2 certificate moves to another valid one. A practical build
below stage 3's m >= 668168 logs no stage: the stage-1 and stage-2
entries it logged before are the ones every practical pipeline logs,
independent of m (they are restored from pipeline.json's).

Schemas approx_report/6 and lifted_problem/2: the float exchange
solves symmetric tables too, and its final reference is solved once
more in exact arithmetic. The error and coefficients cannot move, but
the reference can move to another optimal one: MAJ_5's degree-0
certificate does. Every other approx artifact changed only in its schema
string. A lifted problem records its source halfspace's weights and
threshold, which /1 did not write.

Schema uniformity_report/5 computes the Fourier bound as one real_dft of
the table's deviations, rounded up by an a priori error bound, in place
of the product loop over every k: only the last bits of fourier_bound
move, by about 1e-10 relative on the two dist inputs.

Schema approx_report/7 solves every table on the orbits of its weight
classes, the maximal blocks of coordinates in which it is symmetric.
Tables of one class (MAJ_5, MAJ_6, PARITY_4) and tables with no
symmetric pair change only in their schema string. TABLE_6 and TABLE_5 are
partially symmetric, so their polynomial, dual and threshold certificate
move to another optimal one (an error within 1e-12, the same margin),
which GOLDEN_SCHEMA_7_FIELDS holds at /6.

`_digest_at_schema` proves each step against the digests recorded at the
older step: it puts that step's schema strings back, and the old values
of the fields that changed since. GOLDEN_SCHEMA_3_FIELDS holds the long
ones of step 3 (the /3 pipeline set and stage discs),
GOLDEN_SCHEMA_4_FIELDS those of step 4 (the /4 approx floats), and
GOLDEN_SCHEMA_7_FIELDS those of step 7 (the /6 approx floats).
"""

import copy
import hashlib
import json
import pathlib

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
        "4a83680e8ece5ac876f8a470418607721abd2f55e7c6fe0630df0b04492e75d2",
    "approx_threshold.json":
        "878168cff8d7aac50ffd801d8b347451053c8db17fd1b8ed4feb4eb73313fc94",
    "approx_maj6.json":
        "1fff6f762f66ed6d403b177f4982e9c6daa030d0b321da09a67c2246f542c65c",
    "approx_parity4_threshold.json":
        "f593d5e0b90355920193ab0587958645eeee22d7fb924d635478fa86f65369c2",
    "approx_t5_threshold.json":
        "a7afb36b66b65097180ad8ccf06b0221aaf9a8f7e709a11a3c45870a7e9f7fee",
    "lift.json":
        "eeb4d7c0b1e8027a646b2e8fa887e3a41f49fe6dcaec42ecdea7bd9c2eb7ba85",
    "lift.csv":
        "3f7013929a6de0f62032d01ae9b0c2b4605bbff82e8d0e1a8a72385ac4868393",
}

# A field that an older step did not write.
ABSENT = object()

GOLDEN_SCHEMA_7_FIELDS = json.loads(
    (pathlib.Path(__file__).parent / "golden_schema_7_fields.json")
    .read_text())

# The approx digests recorded at approx_report/6. TABLE_6 and TABLE_5 are
# partially symmetric (weight classes of sizes 2, 2, 1, 1 and 2, 2, 1),
# and /6 solved them on the cube: each with its /6 floats where the orbit
# design ends on another optimal polynomial and dual.
SCHEMA_7_GOLDEN = {
    "approx_poly.json": (
        "bdc875a5fa7ba61273a8380ab32e8ae3d7088a87ff08ce4a7957a6759d28797e",
        GOLDEN_SCHEMA_7_FIELDS["approx_poly.json"]),
    "approx_threshold.json": (
        "b610cb18e1da8832a29d98f0d42abf6a2e323df3522049e0ce78e972689dcf6d",
        {}),
    "approx_maj6.json": (
        "432c4b338eb6da06b2b3cbce8363e78db39a241a1e98ae0cdf6d74e47dfc8a6e",
        {}),
    "approx_parity4_threshold.json": (
        "134420743fd5770b14b1537be68e4ef11c3ac2f813d0f22bffba09b9b72fb9b0",
        {}),
    "approx_t5_threshold.json": (
        "8acbce6354712c9c8c8447ccb5515afc21d2639695918f0d55d4954872683787",
        GOLDEN_SCHEMA_7_FIELDS["approx_t5_threshold.json"]),
}

# The dist digests recorded at uniformity_report/4, with the bound the
# product loop computed: /5 takes one real_dft of the table's deviations
# and rounds the sum up by its error bound.
SCHEMA_6_GOLDEN = {
    "dist.json": (
        "d25c75f8ae9975c1efa43586c1a249dfd65aa5f4e43a888d92294a8108a9733e",
        {"fourier_bound": 4.114213869626298e-09}),
    "dist_limbs.json": (
        "87450d0b3e01c9384bda3b3d6115c0baa7de24d389c8626e2c440981e144eda4",
        {"fourier_bound": 4.483372625275139e-50}),
}

# The digests recorded at approx_report/5 and lifted_problem/1, each with
# the old values of the fields that moved: MAJ_5's degree-0 certificate
# sat on t = 0, 5, where the exchange now ends on t = 1, 3 (psi is
# (1/2, -1/2) on both), and /1 recorded no source halfspace.
SCHEMA_5_GOLDEN = {
    "approx_poly.json": (
        "69d2d31fcac3deaf381e512c99a8f851796805c146235f6b743d0cd56c344eb5",
        {}),
    "approx_threshold.json": (
        "4f9301ab9e9f024583c650b6f9b4ea5734b392de60662303bc77821fa1561c76",
        {"result.meta.certificate.reference": [0, 5]}),
    "approx_maj6.json": (
        "dd039c5175e44426711db55b54d68802dc95be4524a36008cda0bad0347eff54",
        {}),
    "approx_parity4_threshold.json": (
        "20b1c28d941001fe0ed37ac86b300d63466ab88082c437c08adf05a2db0d40c6",
        {}),
    "approx_t5_threshold.json": (
        "6419affdb84beec95af66236fc0b282947a2536a5f88392742973727acbb9b01",
        {}),
    "lift.json": (
        "8d2d08ff17511c48924b6136e6147685bf7ab5fe7fa4637f7a004b570776a064",
        {"weights": ABSENT, "threshold": ABSENT}),
}

GOLDEN_SCHEMA_4_FIELDS = json.loads(
    (pathlib.Path(__file__).parent / "golden_schema_4_fields.json")
    .read_text())

# The approx digests recorded at approx_report/4, each with its /4 floats
# where the exchange now ends on another optimal reference.
SCHEMA_4_GOLDEN = {
    "approx_poly.json": (
        "fcbca0e5854ac5d283106042001fc3fe9950b256329bc0ed62dcb18c6f4c2dff",
        GOLDEN_SCHEMA_4_FIELDS["approx_poly.json"]),
    "approx_threshold.json": (
        "c31b30303985b9e444c1ddde2a79783d403c033624c2f7d7b06362c7809493ce",
        {}),
    "approx_maj6.json": (
        "dc9720b2c35ea4113cfe7214bf707c38b9c008421967dfbd87f379947518dfc7",
        {}),
    "approx_parity4_threshold.json": (
        "5d3829a1a14126be278c80174c771f023fdd92cb5cdf9e75059f203ffe07213a",
        {}),
    "approx_t5_threshold.json": (
        "1fa0566d76642bfd02eedac2b95703e2dcf247512d9d84ba51429fa6d702b7c9",
        GOLDEN_SCHEMA_4_FIELDS["approx_t5_threshold.json"]),
}

# Digests recorded at schema /3, each with the old values of the fields
# that changed beyond the schema strings: DIST_INPUT's 40 residues took
# the direct sum. DIST_LIMBS_INPUT's modulus is prime and its support
# dense, so it took the same transform.
SCHEMA_3_GOLDEN = {
    "dist.json": (
        "fcaca8f99bc05e69609f1d4a655d2d98ec3bc7716ab8a2ac7811dbf9f2642165",
        {"disc": 0.3488894294792906}),
    "dist_limbs.json": (
        "785f7d08445edd1785a66455e4ac7801ff3811e0d9d4648c168717259d183f4e",
        {}),
}

# The same at schema /2. DIST_INPUT's disc did not change.
SCHEMA_2_GOLDEN = {
    "dist.json": (
        "9c0eec9b886feffc90d37c4205dde7ac031d5e59d032489d4e138e27eba1c5a2",
        {}),
    "dist_limbs.json": (
        "e70fa078fa77ef9f28ad3e4c373ef03924684f585a8ac5f29229c9c333ff097b",
        {"disc": 0.1785837730243416}),
}

# The same at schema /1; DIST_INPUT is not uniform.
SCHEMA_1_GOLDEN = {
    "dist.json": (
        "232198cf96d1c5b36d1342212752fe19a8d9e50c103fa940a86d43c55e3ee376",
        {}),
}

# The MAJ_6 digest recorded at approx_report/3.
MAJ6_AT_SCHEMA_3 = (
    "4aec784c0cfbbd35ecb503f41e3d4b8b9b5e99b5b48cddb55994632dba7dae7a")

# The version of every schema that was bumped at steps 1 to 8 (the
# current one); halfspace_spec kept /2 at step 3, circulant_graph,
# halfspace_spec and uniformity_report kept theirs at step 5, only
# approx_report and lifted_problem moved at step 6, only
# uniformity_report at step 7, and only approx_report at step 8. None:
# no approx digest is recorded at that step.
_VERSIONS = {b"lowdisc.approx_report": (None, None, None, 4, 5, 6, 6, 7),
             b"lowdisc.circulant_graph": (1, 2, 3, 4, 4, 4, 4, 4),
             b"lowdisc.construction_report": (1, 2, 3, 4, 5, 5, 5, 5),
             b"lowdisc.discrepancy_certificate": (1, 2, 3, 4, 5, 5, 5, 5),
             b"lowdisc.halfspace_spec": (1, 2, 2, 3, 3, 3, 3, 3),
             b"lowdisc.lifted_problem": (1, 1, 1, 1, 1, 2, 2, 2),
             b"lowdisc.uniformity_report": (1, 2, 3, 4, 4, 4, 5, 5)}

GOLDEN_SCHEMA_3_FIELDS = json.loads(
    (pathlib.Path(__file__).parent / "golden_schema_3_fields.json")
    .read_text())


def _max_error(fn, coeffs):
    """max |f(x) - p(x)| over the table fn, for p given by its num_coeffs."""
    return max(abs(v - sum(c for key, c in coeffs.items()
                           if all(x >> int(i) & 1 for i in key.split(",")
                                  if i)))
               for x, v in enumerate(fn["values"]))


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _at_schema(path, old_fields, step):
    """The artifact's bytes with `old_fields` ({"key.subkey": value}; a
    list index is a number; ABSENT removes the key) set back, re-dumped
    in the writers' layout, and every bumped schema string put back to
    its form at `step`."""
    data = path.read_bytes()
    if old_fields:
        d = json.loads(data)
        for dotted, value in old_fields.items():
            *parents, key = dotted.split(".")
            node = d
            for name in parents:
                node = node[int(name) if isinstance(node, list) else name]
            if value is ABSENT:
                del node[key]
            else:
                node[int(key) if isinstance(node, list) else key] = \
                    copy.deepcopy(value)
        data = (json.dumps(d, indent=2, sort_keys=True) + "\n").encode()
    for name, versions in _VERSIONS.items():
        if versions[step - 1] is not None:
            data = data.replace(b"%s/%d" % (name, versions[-1]),
                                b"%s/%d" % (name, versions[step - 1]))
    return data


def _digest_at_schema(path, old_fields, step):
    """sha256 of _at_schema: equal to the digest recorded at `step` exactly
    when the artifact changed in nothing else."""
    return hashlib.sha256(_at_schema(path, old_fields, step)).hexdigest()


def _steps(history):
    """(name, step, digest, fields) for every digest recorded in history:
    [(step, {name: (digest, old_fields)})], newest step first. A field
    changed since an older step is changed since every step before it, so
    the old fields accumulate down the list."""
    for name in {name for _step, recorded in history for name in recorded}:
        fields = {}
        for step, recorded in history:
            digest, old_fields = recorded.get(name, (None, {}))
            fields.update(old_fields)
            if digest is not None:
                yield name, step, digest, dict(fields)


def _check_schemas(tmp_path, history, verified=()):
    """Each recorded digest is _digest_at_schema of today's artifact, and
    `verify` accepts the artifacts as written at the steps in `verified`
    (the bytes the digests prove)."""
    for name, step, digest, fields in _steps(history):
        assert _digest_at_schema(tmp_path / name, fields, step) == digest, \
            (name, step)
        if step in verified:
            old = tmp_path / f"at_{step}_{name}"
            old.write_bytes(_at_schema(tmp_path / name, fields, step))
            assert cli.main(["verify", str(old)]) == 0, (name, step)


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
    _check_schemas(tmp_path, [(7, SCHEMA_7_GOLDEN), (6, SCHEMA_6_GOLDEN),
                              (5, SCHEMA_5_GOLDEN), (4, SCHEMA_4_GOLDEN),
                              (3, SCHEMA_3_GOLDEN), (2, SCHEMA_2_GOLDEN),
                              (1, SCHEMA_1_GOLDEN)],
                   verified=(3, 4, 5, 6, 7))
    maj6 = (tmp_path / "approx_maj6.json").read_bytes()
    assert hashlib.sha256(maj6.replace(
        b"lowdisc.approx_report/7", b"lowdisc.approx_report/3")
    ).hexdigest() == MAJ6_AT_SCHEMA_3
    # The moved approx fields: the same optimum. Error and margin are
    # within 1e-12 of the old ones, the old coefficients (the optimum is
    # not unique off one weight class) attain today's error within 1e-12,
    # and where the dual moved, another one verifies (above).
    for name, (_recorded, old_fields) in [*SCHEMA_4_GOLDEN.items(),
                                          *SCHEMA_7_GOLDEN.items()]:
        report = json.loads((tmp_path / name).read_text())
        for dotted, old in old_fields.items():
            new = report
            for key in dotted.split("."):
                new = new[key]
            if dotted in ("result.error", "result.meta.margin"):
                assert abs(new - old) <= 1e-12, (name, dotted)
            elif dotted == "result.num_coeffs":
                assert abs(_max_error(report["fn"], old)
                           - report["result"]["error"]) <= 1e-12, name
    assert cli.main(["verify", *(str(tmp_path / name)
                                 for name in SCHEMA_4_GOLDEN)]) == 0


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

# At /3 the stage-1 set mod 11 was (3, 8, 10), the kernel's pick among 80
# tied 3-subsets, where the rule picks (1, 2, 4); every stage-2 set
# follows from it, and at m = 700001 the final set. The disc of those
# sets moved in their last bits. random.json's search and the graph's
# source set did not move (both take the random search at a prime m).
_STAGE_DISC_3 = {"stages.0.disc": GOLDEN_SCHEMA_3_FIELDS["stage_1_disc"],
                 "stages.1.disc": GOLDEN_SCHEMA_3_FIELDS["stage_2_disc"]}
CONSTRUCT_SCHEMA_3_GOLDEN = {
    "paper.json": (
        "21cff3211ca01b545a732f103ed3e8bd7d37cc64b817d03d688c54d3067b4b80",
        {}),
    "random.json": (
        "45f99bf4cc8e62319da1a15ed2c434a3b8be300e415c38b6827398c7636a4f1c",
        _STAGE_DISC_3),
    "pipeline.json": (
        "53c9dcd78a8a5a7d1173009a37c046c5acbb8ca3e4c7ee27e513fd9e8577a1ee",
        {**_STAGE_DISC_3,
         "elements": GOLDEN_SCHEMA_3_FIELDS["pipeline_elements"],
         "certificate.value": 0.22305580188284269,
         "certificate.argmax_k": "1642",
         "certificate.elements_digest": "11330443018403421968"}),
    "g.json": (
        "bd03ef30f1b9e58322ce32b712fa561226e18d8a399bfd2e69b8f45ba0232388",
        {}),
    "h.json": (
        "f700a40d87d53e4483123a1504c945062a9cd9d346e796e97fd085e87bdb3378",
        {}),
}

# At /2 the moduli 10007, 700001 and 4001 are prime and the sets dense,
# so the values moved in their last bits. The graph's source set has
# argmax_k 1651 and 4001 - 1651 = 2350, of which the exact-length FFT's
# rounding picked the larger; its spectrum's imaginary part is now exactly
# 0. paper.json's closed form and the halfspace's m = 2^4 did not move.
CONSTRUCT_SCHEMA_2_GOLDEN = {
    "paper.json": (
        "18dd4cb0ed9809680c7d2ebef4ec1eaf1d1ce9cb0421f8312d4b59fd55dc0eb5",
        {}),
    "random.json": (
        "dae83313f8dc6e51b60d98ac7851473ea7c8a53f6b4b463a379b01b92dd48290",
        {"certificate.value": 0.15976033588479174}),
    "pipeline.json": (
        "1a7bc6d7d141b9577376571b0d42db34d2f29b3978f56dd6e318f1d3a0eaec0b",
        {"certificate.value": 0.22305580188284252}),
    "g.json": (
        "009c656520cccbf97f108da2118a1f163a07e81b50734f649821d7415a9bc6e0",
        {"lambda": 57.7992868817113, "provenance.disc_argmax_k": 2350,
         "provenance.spectrum_imag_residue": 2.375877272697835e-14}),
}

# paper.json is the trivial set {0, ..., 70000}; /1 recorded the FFT's
# rounding noise. h.json's set is {0, 1} three times over, mod 2.
CONSTRUCT_SCHEMA_1_GOLDEN = {
    "paper.json": (
        "cbe9570398c115dc39ae1ed06b390e82f01337ffbabf8ebec48f0a43f6c48c7f",
        {"certificate.value": 1.1539222855618906e-16,
         "certificate.argmax_k": "13751",
         "certificate.numeric_error": 4.35219860239755e-06}),
    "random.json": (
        "54049847495e6da78b826a786722aab1271ac88fc91a19ff0d4f92e2f9da2015",
        {}),
    "pipeline.json": (
        "df65d6d3e6a10c094115d74f3972ae1d2fc58353f0da5d08f7c1a22bd3d331fd",
        {}),
    "g.json": (
        "0047418d7928f351c57e2a0fc7eb59e88e1b4c3a0872c8a68420e0453d8a227c",
        {}),
    "h.json": (
        "7fb2a7bb3978fbfd75271d4d26fa608312968fe18f8eae6bbfd84f45be2d03a5",
        {"provenance.disc": 6.123233995736766e-17,
         "provenance.z_digest": "<bound method IntegerMultiset.digest of "
                                "IntegerMultiset(n=6, m=2)>"}),
}


# The digests recorded at construction_report/4. random.json (m = 10007)
# then logged stages 1 and 2 of the practical pipeline, which do not
# depend on m: the first two entries of pipeline.json's stage log.
CONSTRUCT_SCHEMA_4_DIGESTS = {
    "paper.json":
        "a3c8f57eb79dfd45694a5380e83b17aff483dc18f26e836998cc5f38ead1b810",
    "random.json":
        "c5978965091238a9910ce575e1ad08193b321ddb1be72d409650672af00472ba",
    "pipeline.json":
        "6f36e3832861037dc5ac623183cd3ae7a5e3e2dfd1eb7cb338eaa96d1ceaa459",
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
    stages = {"stages": pipeline["stages"][:2]}
    schema_4 = {name: (digest, stages if name == "random.json" else {})
                for name, digest in CONSTRUCT_SCHEMA_4_DIGESTS.items()}
    _check_schemas(tmp_path, [(4, schema_4), (3, CONSTRUCT_SCHEMA_3_GOLDEN),
                              (2, CONSTRUCT_SCHEMA_2_GOLDEN),
                              (1, CONSTRUCT_SCHEMA_1_GOLDEN)],
                   verified=(3, 4))
    # From /5 the stage log is [] exactly below m = 668168.
    for name, edit in (("random.json", stages),
                       ("pipeline.json", {"stages": []})):
        tampered = tmp_path / f"tampered_{name}"
        tampered.write_text(json.dumps({**json.loads(
            (tmp_path / name).read_text()), **edit}))
        assert cli.main(["verify", str(tampered)]) == 1, name
