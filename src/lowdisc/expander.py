"""Circulant expander graphs built from low-discrepancy connection sets.

A circulant graph on n vertices is determined by a connection set
S subset {1, ..., n-1} closed under negation mod n: vertex u is adjacent
to u + s (mod n) for every s in S. Its eigenvalues are the discrete
Fourier transform of the characteristic vector of S, so the spectral gap
is certified by a closed-form evaluation instead of a dense eigensolver.
"""

import math

import numpy as np

from .construction import build_low_disc_set, iteration_constants
from .discrepancy import _decimal_fields
from .numeric_core import real_dft

# Same degree budget (in units of log2 n) as the low-discrepancy set
# construction allows for |Z|; the nontrivial branch emits degree 2|Z|.
DEGREE_BUDGET_FACTOR = 80

# Lines per step of the edge-list writer, at most (its vertex block is
# this over the degree): a block's working arrays stay in cache.
_EDGE_LINES = 1 << 15


class BadGraph(ValueError):
    """Raised when a connection set violates the circulant invariants."""


def _spectrum_of_connection(n, connection):
    """Eigenvalues of the circulant adjacency matrix, via the DFT of the
    connection set's characteristic vector (the closed-form circulant
    eigenvalue formula), and the largest |imaginary part|. real_dft
    gives eigenvalues k and n - k one value; at an odd prime n the
    imaginary part of a negation-closed set is exactly 0."""
    ch = np.zeros(n)
    ch[list(connection)] = 1.0
    ks, re, im = real_dft(ch)
    eig = np.empty(n)
    eig[0] = ch.sum()
    eig[ks] = eig[n - ks] = re
    imag = float(np.max(np.abs(im))) if len(im) else 0.0
    if imag > 1e-9:
        raise BadGraph(f"spectrum not real (imag residue {imag:.2e}); "
                       "connection set is not symmetric")
    return eig, imag


class CirculantGraph:
    def __init__(self, order, connection, degree, spectrum, lam,
                 provenance=None):
        self.order = order
        self.connection = connection  # sorted residues in {1, ..., n-1}
        self.degree = degree
        self.spectrum = spectrum  # read-only float64
        self.lam = lam
        self.provenance = {} if provenance is None else provenance
        n = order
        if n < 2:
            raise BadGraph("order must be >= 2")
        conn = set(connection)
        if 0 in conn:
            raise BadGraph("0 in connection set (self-loop)")
        if not all(0 < s < n for s in conn):
            raise BadGraph("connection set must lie in {1, ..., n-1}")
        if any((n - s) % n not in conn for s in conn):
            raise BadGraph("connection set not closed under negation mod n")
        if self.degree != len(conn):
            raise BadGraph("degree != |connection set|")
        if abs(self.spectrum[0] - self.degree) > 1e-9:
            raise BadGraph("top eigenvalue != degree")

    def edges(self):
        """Yield each undirected edge once, as (u, v) with u < v."""
        n = self.order
        for u in range(n):
            for s in self.connection:
                v = (u + s) % n
                if u < v:
                    yield (u, v)

    def edge_list_blocks(self):
        """The edges of edges(), in its order, as ASCII lines "u v\n": one
        bytes object per block of _EDGE_LINES // degree vertices u (at
        least one), so a block holds at most _EDGE_LINES lines.

        Edge (u, u + s) is listed exactly when u + s < n. The decimal
        fields of u (ended by a space) and of v (ended by a newline) are
        NUL-padded to whole 64-bit words, so a line is gathered word by
        word; deleting the NULs leaves the plain decimal text.
        """
        n = self.order
        conn = np.asarray(self.connection, dtype=np.int64)
        k = (len(str(n - 1)) + 8) // 8  # words per field
        ufield, vfield = (np.ascontiguousarray(_decimal_fields(
            np.arange(n), end, 8 * k - 1)).view(np.uint64) for end in b" \n")
        step = max(1, _EDGE_LINES // max(1, len(conn)))
        for lo in range(0, n, step):
            u = np.arange(lo, min(lo + step, n))
            v = u[:, None] + conn
            keep = v < n
            lines = np.empty((np.count_nonzero(keep), 2 * k), dtype=np.uint64)
            lines[:, :k] = np.repeat(ufield[lo:lo + step],
                                     np.count_nonzero(keep, axis=1), axis=0)
            lines[:, k:] = vfield[v[keep]]
            yield lines.tobytes().translate(None, b"\0")

    def to_json_dict(self):
        d = {
            "schema": "lowdisc.circulant_graph/4",
            "order": str(self.order),
            "connection": [str(s) for s in self.connection],
            "degree": self.degree,
            "lambda": self.lam,
            "provenance": self.provenance,
        }
        if self.order <= 512:
            d["spectrum"] = self.spectrum.tolist()
        return d


def graph_from_connection(n, connection, provenance=None):
    """Assemble a CirculantGraph from an explicit connection set, computing
    and verifying its spectrum."""
    conn = tuple(sorted(set(int(s) % n for s in connection)))
    spec, imag = _spectrum_of_connection(n, conn)
    spec.flags.writeable = False
    lam = float(np.max(np.abs(spec[1:]))) if n > 1 else 0.0
    prov = dict(provenance or {})
    prov.setdefault("spectrum_imag_residue", imag)
    return CirculantGraph(order=n, connection=conn, degree=len(conn),
                          spectrum=spec, lam=lam,
                          provenance=prov)


def complete_graph(n, provenance=None):
    """K_n as a circulant graph: connection set {1, ..., n-1}."""
    prov = dict(provenance or {})
    prov["branch"] = "complete"
    return graph_from_connection(n, range(1, n), provenance=prov)


def graph_from_set(n, residues, delta):
    """The graph on the connection set ((Z + delta) union (-Z - delta)) mod n
    of distinct residues Z; raises BadGraph on a self-loop (0 in the set)."""
    conn = {(z + delta) % n for z in residues}
    conn |= {(-z - delta) % n for z in residues}
    if 0 in conn:
        raise BadGraph(f"delta = {delta} puts 0 in the connection set")
    return graph_from_connection(n, conn)


def find_delta(n, residues):
    """Smallest delta in {0, ..., min(2|Z|^2, n-1)} minimizing the number of
    collision congruences z + delta = -(z' + delta) and z + delta = 0
    (mod n); a zero-count delta keeps the degree at exactly 2|Z|."""
    zs = np.asarray(list(residues), dtype=np.int64) % n
    cnt_pair = np.bincount((-(zs[:, None] + zs)).ravel() % n, minlength=n)
    cnt_zero = np.bincount(-zs % n, minlength=n)
    deltas = np.arange(min(2 * len(zs) ** 2 + 1, n))
    v = cnt_pair[2 * deltas % n] + cnt_zero[deltas]
    best = int(np.argmin(v))  # the first delta of the fewest collisions
    return best, int(v[best])


def _complete_up_front(n, eps, mode, seed):
    """(complete, provenance): whether build_expander returns K_n before
    building a set, and the provenance its graph starts from."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0 < eps < 1):
        raise ValueError("need 0 < eps < 1")
    if mode not in ("paper", "practical"):
        raise ValueError(f"unknown mode {mode!r}")
    log2n = math.log2(n)
    prov = {"mode": mode, "eps": eps, "seed": seed, "notes": []}
    if mode == "paper":
        # With the proven constant the complete branch covers every n for
        # which the set construction's guards could fail.
        c_eps = iteration_constants()[0] / eps ** 2
        complete = 2 * (c_eps * log2n) ** 2 >= n
        prov["C_eps"] = c_eps
    else:
        # Complete branch exactly when K_n already fits the degree budget;
        # beyond that the nontrivial branch must produce a sparse graph.
        complete = n - 1 <= DEGREE_BUDGET_FACTOR * log2n
    prov["degree_budget"] = DEGREE_BUDGET_FACTOR * log2n
    return complete, prov


def build_expander(n, eps, mode="practical", seed=None):
    """d-regular circulant graph on n vertices with lambda <= max(eps,
    1/(n-1)) * d, certified by its computed spectrum: K_n for small n,
    else the graph of a low-discrepancy set (expander_from_construction).
    Total: always returns a graph."""
    construction = None
    if not _complete_up_front(n, eps, mode, seed)[0]:
        report = build_low_disc_set(n, eps, mode, seed=seed)
        construction = (report.branch, report.final_set,
                        report.final_certificate)
    return expander_from_construction(n, eps, mode, seed, construction)


def expander_from_construction(n, eps, mode, seed, construction):
    """The graph build_expander(n, eps, mode, seed) returns, given the
    branch, set Z and certificate of build_low_disc_set(n, eps, mode, seed)
    as `construction` (None where K_n is chosen up front): the connection
    set ((Z + delta) union (-Z - delta)) mod n, delta chosen by exhaustive
    search to avoid collisions, or K_n (recorded in provenance) when the
    set or the spectral certificate of that graph misses the target."""
    complete, prov = _complete_up_front(n, eps, mode, seed)
    if complete:
        return complete_graph(n, provenance=prov)
    if construction is None:
        raise ValueError(f"order {n} needs a set construction")
    branch, Z, cert = construction
    prov.update({
        "construction_branch": branch,
        "disc_value": cert.value,
        "disc_argmax_k": cert.argmax_k,
        "z_digest": str(cert.elements_digest),
        "z_elements": [str(z) for z in Z.elements],
    })
    if cert.value > eps or Z.cardinality > n // 2:
        prov["notes"].append(
            f"set construction missed the target (disc {cert.value:.4f}, "
            f"size {Z.cardinality}); complete fallback")
        return complete_graph(n, provenance=prov)

    residues = sorted(set(z % n for z in Z.elements))
    delta, collisions = find_delta(n, residues)
    prov["delta"] = delta
    prov["collision_count"] = collisions
    if collisions:
        prov["notes"].append(
            f"no collision-free delta in range; best delta {delta} "
            f"merges {collisions} congruences")

    try:
        g = graph_from_set(n, residues, delta)
    except BadGraph:
        prov["notes"].append("delta search left 0 in the connection set; "
                             "complete fallback")
        return complete_graph(n, provenance=prov)

    target = max(eps, 1.0 / (n - 1)) * g.degree
    if g.lam > target + 1e-9:
        prov["notes"].append(
            f"spectral certificate failed (lambda {g.lam:.4f} > "
            f"{target:.4f}); complete fallback")
        return complete_graph(n, provenance=prov)

    prov["branch"] = "low_disc"
    prov["C_eps_measured"] = len(residues) / math.log2(n)
    prov["spectrum_imag_residue"] = g.provenance.get("spectrum_imag_residue")
    g.provenance.update(prov)
    return g


def spectral_gap(g):
    """(lambda, certificate): the graph's lambda, from the spectrum
    graph_from_connection computed from its connection set (the only
    builder of a CirculantGraph, whose constructor checks the top
    eigenvalue). For order <= 256 a dense eigensolve of the assembled
    adjacency matrix cross-checks that spectrum (dense_checked). On a
    graph built from a set Z of discrepancy disc_value, disc_bound is
    2 |Z| disc_value, else None."""
    n = g.order
    dense_checked = False
    if n <= 256:
        idx = np.arange(n)
        adj = np.isin((idx[None, :] - idx[:, None]) % n,
                      list(g.connection)).astype(float)
        assert np.array_equal(adj, adj.T)
        dense = np.sort(np.linalg.eigvalsh(adj))
        if np.max(np.abs(dense - np.sort(g.spectrum))) > 1e-8:
            raise BadGraph("closed-form spectrum disagrees with dense "
                           "eigendecomposition")
        dense_checked = True
    prov = g.provenance
    disc_bound = None
    if prov.get("z_elements") is not None and prov.get("disc_value") is not None:
        disc_bound = 2 * len(prov["z_elements"]) * float(prov["disc_value"])
    return g.lam, {"dense_checked": dense_checked, "disc_bound": disc_bound}
