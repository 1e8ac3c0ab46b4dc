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


def test_connection_must_be_negation_closed():
    with pytest.raises(ValueError):
        CirculantGraph(order=7, connection=(1,), degree=1,
                       spectrum=(1.0,) * 7, lam=1.0, provenance={})


def test_graph_from_set_rejects_self_loop():
    with pytest.raises(BadGraph):
        graph_from_set(10, [1, 3], delta=9)  # 1 + 9 = 0 mod 10


def test_edges_are_simple_and_symmetric():
    g = graph_from_connection(11, (1, 3, 8, 10))
    es = list(g.edges())
    assert all(u < v for u, v in es)
    assert len(es) == g.order * g.degree // 2
    for u in range(g.order):
        nb = g.neighbors(u)
        assert len(nb) == g.degree
        assert all(u in g.neighbors(v) for v in nb)


def test_edge_list_bytes_match_edges_oracle(monkeypatch):
    graphs = [
        graph_from_connection(7, (1, 6)),           # odd order
        graph_from_connection(12, (1, 6, 11)),      # even order, s = n/2
        complete_graph(9),
        graph_from_connection(10, (1, 3, 7, 9)),    # widths 1 and 2
        graph_from_connection(101, (2, 50, 51, 99)),
        graph_from_connection(1009, (1, 400, 609, 1008)),
    ]
    for g in graphs:
        oracle = "".join(f"{u} {v}\n" for u, v in g.edges()).encode()
        assert g.edge_list_bytes() == oracle
        with monkeypatch.context() as mp:  # many block seams
            mp.setattr(expander, "_EDGE_BLOCK", 3)
            assert g.edge_list_bytes() == oracle


def test_json_round_trip():
    g = graph_from_connection(13, (2, 5, 8, 11), provenance={"note": "test"})
    d = g.to_json_dict()
    assert d["schema"] == "lowdisc.circulant_graph/1"
    blob = json.dumps(d)
    g2 = CirculantGraph.from_json_dict(json.loads(blob))
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
    assert cert["numeric_error"] < 1e-8
    # independent dense confirmation
    adj = np.zeros((40, 40))
    for u, v in g.edges():
        adj[u, v] = adj[v, u] = 1.0
    eigs = np.linalg.eigvalsh(adj)
    dense_lam = max(abs(eigs[0]), abs(eigs[-2]))
    assert abs(lam - dense_lam) < 1e-8


def test_spectral_gap_discrepancy_bound():
    g = build_expander(10007, 0.5, mode="practical", seed=7)
    lam, cert = spectral_gap(g)
    if g.provenance.get("branch") == "low_disc":
        assert cert["disc_bound"] is not None
        assert lam <= cert["disc_bound"] + 1e-9
