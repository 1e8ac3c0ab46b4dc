"""Circulant expander graphs built from low-discrepancy connection sets.

A circulant graph on n vertices is determined by a connection set
S subset {1, ..., n-1} closed under negation mod n: vertex u is adjacent
to u + s (mod n) for every s in S. Its eigenvalues are the discrete
Fourier transform of the characteristic vector of S, so the spectral gap
is certified by a closed-form evaluation instead of a dense eigensolver.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .construction import build_low_disc_set, iteration_constants

# Same degree budget (in units of log2 n) as the low-discrepancy set
# construction allows for |Z|; the nontrivial branch emits degree 2|Z|.
DEGREE_BUDGET_FACTOR = 80

# Vertices per step of the edge-list writer: bounds its working arrays to
# a few MB at the degrees the construction emits.
_EDGE_BLOCK = 2048


class BadGraph(ValueError):
    """Raised when a connection set violates the circulant invariants."""


def _spectrum_of_connection(n, connection):
    """Eigenvalues of the circulant adjacency matrix, via the DFT of the
    connection set's characteristic vector (the closed-form circulant
    eigenvalue formula, evaluated by an exact-length FFT)."""
    ch = np.zeros(n)
    ch[list(connection)] = 1.0
    eig = np.fft.fft(ch)
    imag = float(np.max(np.abs(eig.imag))) if n else 0.0
    if imag > 1e-9:
        raise BadGraph(f"spectrum not real (imag residue {imag:.2e}); "
                       "connection set is not symmetric")
    return eig.real, imag


@dataclass
class CirculantGraph:
    order: int
    connection: tuple  # sorted residues in {1, ..., n-1}
    degree: int
    spectrum: tuple
    lam: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.order
        if n < 2:
            raise BadGraph("order must be >= 2")
        conn = set(self.connection)
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

    def neighbors(self, u):
        return sorted((u + s) % self.order for s in self.connection)

    def edges(self):
        """Yield each undirected edge once, as (u, v) with u < v."""
        n = self.order
        for u in range(n):
            for s in self.connection:
                v = (u + s) % n
                if u < v:
                    yield (u, v)

    def edge_list_bytes(self):
        """The edges of edges(), in its order, as ASCII lines "u v\n".

        Each line is gathered from a table of right-aligned decimal digits
        (NUL-padded on the left), for _EDGE_BLOCK vertices at a time; deleting
        the NULs leaves the plain decimal text.
        """
        n = self.order
        conn = np.asarray(self.connection, dtype=np.int64)
        width = len(str(n - 1))
        x = np.arange(n, dtype=np.int64)[:, None]
        powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        digits = (x // powers % 10 + ord("0")).astype(np.uint8)
        digits[:, :-1][x < powers[:-1]] = 0
        digits = digits.view(f"V{width}")[:, 0]  # one field per vertex
        line = np.dtype([("u", f"V{width}"), ("space", "u1"),
                         ("v", f"V{width}"), ("newline", "u1")])
        parts = []
        for lo in range(0, n, _EDGE_BLOCK):
            u = x[lo:lo + _EDGE_BLOCK]
            v = (u + conn) % n
            keep = u < v
            lines = np.empty(int(keep.sum()), dtype=line)
            lines["u"] = digits[np.broadcast_to(u, v.shape)[keep]]
            lines["space"] = ord(" ")
            lines["v"] = digits[v[keep]]
            lines["newline"] = ord("\n")
            parts.append(lines.tobytes().translate(None, b"\0"))
        return b"".join(parts)

    def to_json_dict(self):
        d = {
            "schema": "lowdisc.circulant_graph/1",
            "order": str(self.order),
            "connection": [str(s) for s in self.connection],
            "degree": self.degree,
            "lambda": self.lam,
            "provenance": self.provenance,
        }
        if self.order <= 512:
            d["spectrum"] = [float(x) for x in self.spectrum]
        return d

    @classmethod
    def from_json_dict(cls, d):
        if d.get("schema") != "lowdisc.circulant_graph/1":
            raise ValueError("unknown schema")
        n = int(d["order"])
        conn = tuple(sorted(int(s) for s in d["connection"]))
        return graph_from_connection(n, conn, provenance=d.get("provenance", {}))


def graph_from_connection(n, connection, provenance=None):
    """Assemble a CirculantGraph from an explicit connection set, computing
    and verifying its spectrum."""
    conn = tuple(sorted(set(int(s) % n for s in connection)))
    spec, imag = _spectrum_of_connection(n, conn)
    lam = float(np.max(np.abs(spec[1:]))) if n > 1 else 0.0
    prov = dict(provenance or {})
    prov.setdefault("spectrum_imag_residue", imag)
    return CirculantGraph(order=n, connection=conn, degree=len(conn),
                          spectrum=tuple(float(x) for x in spec), lam=lam,
                          provenance=prov)


def complete_graph(n, provenance=None):
    """K_n as a circulant graph: connection set {1, ..., n-1}."""
    prov = dict(provenance or {})
    prov["branch"] = "complete"
    return graph_from_connection(n, range(1, n), provenance=prov)


def connection_from_set(n, residues, delta):
    """The set ((Z + delta) union (-Z - delta)) mod n of residues Z."""
    conn = set((z + delta) % n for z in residues)
    conn |= set((-z - delta) % n for z in residues)
    return conn


def graph_from_set(n, residues, delta):
    """The graph on the connection set ((Z + delta) union (-Z - delta)) mod n
    of distinct residues Z; raises BadGraph on a self-loop (0 in the set)."""
    conn = connection_from_set(n, residues, delta)
    if 0 in conn:
        raise BadGraph(f"delta = {delta} puts 0 in the connection set")
    return graph_from_connection(n, conn)


def _find_delta(n, residues):
    """Smallest delta in {0, ..., min(2|Z|^2, n-1)} minimizing the number of
    collision congruences z + delta = -(z' + delta) and z + delta = 0
    (mod n); a zero-count delta keeps the degree at exactly 2|Z|."""
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


def build_expander(n, eps, mode="practical", seed=None):
    """d-regular circulant graph on n vertices with lambda <= max(eps,
    1/(n-1)) * d, certified by its computed spectrum.

    Small n (complete branch): K_n, with lambda = 1 = d/(n-1). Otherwise a
    low-discrepancy set Z mod n supplies the connection set
    ((Z + delta) union (-Z - delta)) mod n, with delta chosen by exhaustive
    search to avoid collisions; the spectral target is verified on the
    emitted graph, falling back to K_n (recorded in provenance) if the
    certificate fails. Total: always returns a graph.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0 < eps < 1):
        raise ValueError("need 0 < eps < 1")
    if mode not in ("paper", "practical"):
        raise ValueError(f"unknown mode {mode!r}")

    c, _C = iteration_constants()
    log2n = math.log2(n)
    prov = {"mode": mode, "eps": eps, "seed": seed, "notes": []}

    if mode == "paper":
        # With the proven constant the complete branch covers every n for
        # which the set construction's guards could fail.
        c_eps = c / eps ** 2
        trivial = 2 * (c_eps * log2n) ** 2 >= n
        prov["C_eps"] = c_eps
    else:
        # Complete branch exactly when K_n already fits the degree budget;
        # beyond that the nontrivial branch must produce a sparse graph.
        trivial = n - 1 <= DEGREE_BUDGET_FACTOR * log2n
    prov["degree_budget"] = DEGREE_BUDGET_FACTOR * log2n

    if trivial:
        return complete_graph(n, provenance=prov)

    report = build_low_disc_set(n, eps, mode, seed=seed)
    cert = report.final_certificate
    prov.update({
        "construction_branch": report.branch,
        "disc_value": cert.value,
        "disc_argmax_k": cert.argmax_k,
        "z_digest": str(cert.elements_digest),
        "z_elements": [str(z) for z in report.final_set.elements],
    })
    if cert.value > eps or report.final_set.cardinality > n // 2:
        prov["notes"].append(
            f"set construction missed the target (disc {cert.value:.4f}, "
            f"size {report.final_set.cardinality}); complete fallback")
        return complete_graph(n, provenance=prov)

    residues = sorted(set(z % n for z in report.final_set.elements))
    delta, collisions = _find_delta(n, residues)
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
    prov["C_eps_measured"] = len(residues) / log2n
    prov["spectrum_imag_residue"] = g.provenance.get("spectrum_imag_residue")
    g.provenance.update(prov)
    return g


def spectral_gap(g):
    """(lambda, certificate) with lambda recomputed from the connection
    set's characteristic vector; never trusts the stored spectrum. For
    order <= 256 a dense eigensolve of the assembled adjacency matrix
    cross-checks the closed form."""
    n = g.order
    spec, imag = _spectrum_of_connection(n, g.connection)
    if abs(spec[0] - g.degree) > 1e-9:
        raise BadGraph("top eigenvalue != degree")
    others = np.abs(spec[1:])
    k = 1 + int(np.argmax(others)) if n > 1 else 0
    lam = float(others[k - 1]) if n > 1 else 0.0

    dense_checked = False
    if n <= 256:
        idx = np.arange(n)
        adj = np.isin((idx[None, :] - idx[:, None]) % n,
                      list(g.connection)).astype(float)
        assert np.array_equal(adj, adj.T)
        dense = np.sort(np.linalg.eigvalsh(adj))
        if np.max(np.abs(dense - np.sort(spec))) > 1e-8:
            raise BadGraph("closed-form spectrum disagrees with dense "
                           "eigendecomposition")
        dense_checked = True

    cert = {
        "order": n,
        "degree": g.degree,
        "lambda": lam,
        "argmax_k": k,
        "numeric_error": imag,
        "dense_checked": dense_checked,
        "disc_bound": None,
    }
    prov = g.provenance or {}
    if prov.get("z_elements") is not None and prov.get("disc_value") is not None:
        zn = len(prov["z_elements"])
        cert["disc_bound"] = 2 * zn * float(prov["disc_value"])
    return lam, cert
