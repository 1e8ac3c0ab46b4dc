import cmath
import json
import math

import numpy as np
import pytest

from lowdisc import expander
from lowdisc.expander import (
    BadGraph,
    CirculantGraph,
    build_expander,
    complete_graph,
    graph_from_connection,
    graph_from_set,
    spectral_gap,
)


def _edges(g):
    """The oracle for edge_list_blocks: each undirected edge once, as
    (u, v) with u < v, by u ascending, then in connection order."""
    n = g.order
    for u in range(n):
        for s in g.connection:
            v = (u + s) % n
            if u < v:
                yield (u, v)


def test_cycle_signed_second_eigenvalue():
    # C_n eigenvalues are 2cos(2*pi*k/n); the largest non-principal one in
    # absolute value is |2cos(pi*floor(n/2)*2/n)|, near 2 for odd n. The
    # signed second-largest is 2cos(2*pi/n).
    for n in (5, 8, 12):
        g = graph_from_connection(n, (1, n - 1))
        assert g.degree == 2
        second = max(v for v in g.spectrum[1:])
        assert abs(second - 2 * math.cos(2 * math.pi / n)) < 1e-9
        assert abs(g.lam - max(abs(v) for v in g.spectrum[1:])) < 1e-12


def test_complete_graph_gap():
    for n in (3, 7, 20):
        g = complete_graph(n)
        assert g.degree == n - 1
        assert abs(g.lam - 1.0) < 1e-9
        assert abs(g.spectrum[0] - (n - 1)) < 1e-9


def test_k3_spectrum():
    g = graph_from_connection(3, (1, 2))
    assert sorted(round(e, 9) for e in g.spectrum) == [-1.0, -1.0, 2.0]


def test_spectrum_matches_eigenvalue_formula():
    # eigenvalue k of a circulant graph is sum_{s in S} omega^{ks}
    for n, conn in ((4, (2,)), (4, (1, 2, 3)), (11, (1, 3, 8, 10))):
        spec, imag = expander._spectrum_of_connection(n, conn)
        assert imag < 1e-12
        for k in range(n):
            want = sum(cmath.exp(2j * cmath.pi * k * s / n) for s in conn)
            assert abs(spec[k] - want) < 1e-12


def test_prime_order_spectrum_is_exactly_real():
    # Seeded random negation-closed sets at prime n: the spectrum matches
    # the FFT's real part, and the dense eigensolver up to n = 256.
    rng = np.random.default_rng(29)
    for n in (3, 5, 7, 11, 67, 101, 211, 251, 1009, 10007):
        half = rng.choice(np.arange(1, n // 2 + 1),
                          size=max(1, min(n // 2, int(rng.integers(1, 40)))),
                          replace=False)
        conn = sorted({int(s) for s in half} | {n - int(s) for s in half})
        spec, imag = expander._spectrum_of_connection(n, conn)
        assert imag == 0.0
        ch = np.zeros(n)
        ch[conn] = 1.0
        assert np.max(np.abs(spec - np.fft.fft(ch).real)) < 1e-12 * len(conn)
        assert spec[0] == len(conn)
        if n <= 256:
            assert spectral_gap(graph_from_connection(n, conn))[1][
                "dense_checked"]
        # one element without its negative is rejected
        for lone in [s for s in range(1, n) if s not in conn][:1]:
            with pytest.raises(BadGraph):
                graph_from_connection(n, conn + [lone])


def test_composite_order_spectrum_matches_dense_eigvalsh():
    # Seeded random negation-closed sets at composite n (powers of two and
    # of an odd prime, even and odd squarefree): eigenvalues k and n - k
    # are one value, and the spectrum matches the FFT's real part and (in
    # spectral_gap) the dense eigensolver.
    rng = np.random.default_rng(37)
    for n in (4, 6, 8, 9, 15, 64, 128, 210, 243, 255, 256):
        half = rng.choice(np.arange(1, n // 2 + 1),
                          size=max(1, min(n // 2, int(rng.integers(1, 40)))),
                          replace=False)
        conn = sorted({int(s) for s in half} | {n - int(s) for s in half})
        spec, imag = expander._spectrum_of_connection(n, conn)
        assert imag < 1e-12
        assert np.array_equal(spec[1:], spec[1:][::-1])
        ch = np.zeros(n)
        ch[conn] = 1.0
        assert np.max(np.abs(spec - np.fft.fft(ch).real)) < 1e-12 * len(conn)
        assert spectral_gap(graph_from_connection(n, conn))[1][
            "dense_checked"]


def test_connection_must_be_negation_closed():
    with pytest.raises(ValueError):
        CirculantGraph(order=7, connection=(1,), degree=1,
                       spectrum=(1.0,) * 7, lam=1.0, provenance={})


def test_graph_from_set_rejects_self_loop():
    with pytest.raises(BadGraph):
        graph_from_set(10, [1, 3], delta=9)  # 1 + 9 = 0 mod 10


def test_edges_are_simple_and_symmetric():
    g = graph_from_connection(11, (1, 3, 8, 10))
    es = [tuple(map(int, line.split()))
          for line in b"".join(g.edge_list_blocks()).splitlines()]
    assert all(u < v for u, v in es)
    assert len(set(es)) == len(es) == g.order * g.degree // 2
    neighbors = [sorted((u + s) % g.order for s in g.connection)
                 for u in range(g.order)]
    for u, nb in enumerate(neighbors):
        assert len(nb) == g.degree
        assert all(u in neighbors[v] for v in nb)


def test_edge_list_bytes_match_edges_oracle(monkeypatch):
    # every connection set holds n - 1: u + s < n keeps exactly the u < v
    # lines of the % n loop
    graphs = [
        graph_from_connection(7, (1, 6)),           # odd order
        graph_from_connection(12, (1, 6, 11)),      # even order, s = n/2
        complete_graph(9),
        graph_from_connection(10, (1, 3, 7, 9)),    # widths 1 and 2
        graph_from_connection(101, (2, 50, 51, 99)),
        graph_from_connection(1009, (1, 400, 609, 1008)),
        graph_from_connection(10007, (1, 8, 9999, 10006)),  # widths 1-5
    ]
    for g in graphs:
        oracle = "".join(f"{u} {v}\n" for u, v in _edges(g)).encode()
        assert b"".join(g.edge_list_blocks()) == oracle
        for lines in (1, 3, 20):  # many block seams
            with monkeypatch.context() as mp:
                mp.setattr(expander, "_EDGE_LINES", lines)
                assert b"".join(g.edge_list_blocks()) == oracle


def test_edge_list_blocks_at_their_seams(monkeypatch):
    # degree 4 at the budget's 2^15 lines: 8192-vertex blocks, which do
    # not divide n = 10007, with 9999 -> 10000 inside the last block
    g = graph_from_connection(10007, (1, 2, 10005, 10006))
    oracle = "".join(f"{u} {v}\n" for u, v in _edges(g)).encode()
    blocks = list(g.edge_list_blocks())
    step = expander._EDGE_LINES // g.degree
    assert len(blocks) == -(-g.order // step) > 1 and g.order % step
    assert b"".join(blocks) == oracle
    assert max(b.count(b"\n") for b in blocks) <= expander._EDGE_LINES
    # a degree above the budget: one vertex per block, the last one empty
    monkeypatch.setattr(expander, "_EDGE_LINES", g.degree - 1)
    blocks = list(g.edge_list_blocks())
    assert len(blocks) == g.order and blocks[-1] == b""
    assert b"".join(blocks) == oracle


def test_json_round_trip():
    g = graph_from_connection(13, (2, 5, 8, 11), provenance={"note": "test"})
    d = g.to_json_dict()
    assert d["schema"] == "lowdisc.circulant_graph/4"
    blob = json.dumps(d)
    d2 = json.loads(blob)
    g2 = graph_from_connection(int(d2["order"]), map(int, d2["connection"]))
    assert g2.order == g.order
    assert g2.connection == g.connection
    assert abs(g2.lam - g.lam) < 1e-12


def test_build_small_is_complete():
    g = build_expander(50, 0.5, mode="practical", seed=1)
    assert g.provenance["branch"] == "complete"
    assert g.degree == 49


def test_build_large_practical():
    n = 1009
    g = build_expander(n, 0.5, mode="practical", seed=7)
    assert g.order == n
    assert g.lam <= max(0.5, 1.0 / (n - 1)) * g.degree + 1e-9
    if g.provenance.get("branch") == "low_disc":
        assert g.degree <= 80 * math.log2(n)
    # deterministic under a fixed seed
    g2 = build_expander(n, 0.5, mode="practical", seed=7)
    assert g2.connection == g.connection


def test_build_paper_mode_total():
    g = build_expander(1009, 0.5, mode="paper", seed=3)
    assert g.lam <= max(0.5, 1.0 / (g.order - 1)) * g.degree + 1e-9


def test_build_rejects_bad_params():
    with pytest.raises(ValueError):
        build_expander(1, 0.5)
    with pytest.raises(ValueError):
        build_expander(100, 0.0)
    with pytest.raises(ValueError):
        build_expander(100, 0.5, mode="mystery")


def test_spectral_gap_dense_cross_check():
    g = graph_from_connection(40, (1, 5, 35, 39))
    lam, cert = spectral_gap(g)
    assert abs(lam - g.lam) < 1e-9
    assert cert["dense_checked"]
    assert g.provenance["spectrum_imag_residue"] < 1e-8
    # independent dense confirmation
    adj = np.zeros((40, 40))
    for u, v in _edges(g):
        adj[u, v] = adj[v, u] = 1.0
    eigs = np.linalg.eigvalsh(adj)
    dense_lam = max(abs(eigs[0]), abs(eigs[-2]))
    assert abs(lam - dense_lam) < 1e-8


def test_spectral_gap_refuses_an_asymmetric_adjacency():
    # The constructor checks the connection set; one altered afterwards
    # (no longer closed under negation) is refused by the dense cross-check
    # as BadGraph, also under python -O.
    g = graph_from_connection(40, (1, 5, 35, 39))
    g.connection = (1, 5, 35)
    with pytest.raises(BadGraph, match="not symmetric"):
        spectral_gap(g)


def test_spectral_gap_reads_the_built_spectrum(monkeypatch):
    # graph_from_connection computes a graph's spectrum once; spectral_gap
    # returns its lambda and checks it against the dense eigensolve.
    graphs = [graph_from_connection(40, (1, 5, 35, 39)),
              build_expander(10007, 0.5, mode="practical", seed=7)]

    def again(*args):
        raise AssertionError("spectrum computed a second time")

    monkeypatch.setattr(expander, "_spectrum_of_connection", again)
    for g, dense in zip(graphs, (True, False)):
        lam, cert = spectral_gap(g)
        assert lam == g.lam
        assert cert == {"dense_checked": dense,
                        "disc_bound": cert["disc_bound"]}
    assert graphs[1].provenance["branch"] == "low_disc"
    assert cert["disc_bound"] == 2 * len(graphs[1].provenance["z_elements"]) \
        * graphs[1].provenance["disc_value"]


def test_spectral_gap_discrepancy_bound():
    g = build_expander(10007, 0.5, mode="practical", seed=7)
    lam, cert = spectral_gap(g)
    if g.provenance.get("branch") == "low_disc":
        assert cert["disc_bound"] is not None
        assert lam <= cert["disc_bound"] + 1e-9


def _find_delta_counter(n, residues):
    """The collision-count search over Counters, as find_delta once ran."""
    from collections import Counter
    zs = list(residues)
    cnt_pair = Counter((-(z + zp)) % n for z in zs for zp in zs)
    cnt_zero = Counter((-z) % n for z in zs)
    best, best_v = 0, None
    for delta in range(min(2 * len(zs) ** 2 + 1, n)):
        v = cnt_pair[(2 * delta) % n] + cnt_zero[delta % n]
        if best_v is None or v < best_v:
            best, best_v = delta, v
            if v == 0:
                break
    return best, best_v


def test_find_delta_matches_the_counter_search():
    rng = np.random.default_rng(11)
    cases = [(101, range(1, 101)), (4001, []), (7, [0, 3])]
    for n, size in ((23, 9), (101, 30), (1009, 40), (4096, 90), (20011, 200)):
        for _ in range(4):
            cases.append((n, sorted(rng.choice(n, size, replace=False)
                                    .tolist())))
    fewest = set()
    for n, residues in cases:
        got = expander.find_delta(n, residues)
        assert got == _find_delta_counter(n, residues), (n, residues)
        assert all(type(v) is int for v in got)
        fewest.add(got[1] > 0)
    assert fewest == {True, False}  # sets that do collide, and sets that don't
