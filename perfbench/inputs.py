"""Seeded input files for the benchmark workloads.

Everything here is a pure function of the seed: the same seed writes the
same bytes, so artifact digests can be compared across runs of one seed.
The program under test only ever sees these files and CLI flags.
"""

import json
import os
import random


def residue_set(rng, m, size):
    """Bare {"m", "elements"} file body: `size` distinct nonzero residues."""
    return {"m": m, "elements": sorted(rng.sample(range(1, m), size))}


def sign_table(rng, n):
    """A +-1 table on n variables in the `--fn` text format of
    docs/formats.md: one value per line, little-endian input index."""
    return "".join(f"{rng.choice((1, -1))}\n" for _ in range(2 ** n))


def master_halfspace(rng, m, size):
    """`lowdisc.halfspace_spec/1` for sign(1/2 + sum (z_j mod m) x_j
    - m sum y_j) on 2*size variables: weights z mod m, then -m, and
    threshold -1/2. The odd numerator over an even denominator passes the
    spec's never-zero parity check."""
    zs = sorted(rng.sample(range(1, m), size))
    return {
        "schema": "lowdisc.halfspace_spec/1",
        "n": 2 * size,
        "weights": [str(z % m) for z in zs] + [str(-m)] * size,
        "threshold": {"num": "-1", "den": "2"},
        "provenance": {"kind": "master", "m": str(m),
                       "z_elements": [str(z) for z in zs]},
    }


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def generate(seed):
    """{file name: text} for every input file any workload reads."""
    rng = random.Random(seed)
    return {
        "z_10007.json": _dump(residue_set(rng, 10007, 360)),
        "z_4099.json": _dump(residue_set(rng, 4099, 360)),
        "table_9.txt": sign_table(rng, 9),
        "table_7.txt": sign_table(rng, 7),
        "master_8.json": _dump(master_halfspace(rng, 1009, 4)),
        "master_4.json": _dump(master_halfspace(rng, 1009, 2)),
    }


def write(seed, directory):
    for name, text in generate(seed).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
