"""Small polynomial toolbox: multilinear multivariate polynomials on the
Boolean cube (dict-of-monomials) and univariate helpers, falling
factorials among them.
"""

import itertools


class MultiPoly:
    """Multilinear polynomial over {0,1}^n variables, stored as
    {frozenset(var indices): coefficient}. Products are reduced
    multilinearly (x_i^2 = x_i), which is exact on the Boolean cube."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c != 0:
                    self.terms[frozenset(mono)] = self.terms.get(frozenset(mono), 0) + c

    @classmethod
    def constant(cls, c):
        return cls({frozenset(): c})

    @classmethod
    def linear(cls, weights, const=0):
        """const + sum_i weights[i] * x_i (zero weights dropped)."""
        terms = {frozenset(): const}
        for i, w in enumerate(weights):
            if w:
                terms[frozenset([i])] = w
        return cls(terms)

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return MultiPoly({m: c for m, c in out.items() if c != 0})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return MultiPoly({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 | m2  # multilinear reduction
                out[m] = out.get(m, 0) + c1 * c2
        return MultiPoly({m: c for m, c in out.items() if c != 0})

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def evaluate(self, x):
        """x: indexable of 0/1 (or numbers; monomials multiply values)."""
        total = 0
        for mono, c in self.terms.items():
            v = c
            for i in mono:
                v = v * x[i]
                if v == 0:
                    break
            total += v
        return total

    def shift_vars(self, offset):
        return MultiPoly({frozenset(i + offset for i in m): c
                          for m, c in self.terms.items()})

    def __repr__(self):
        return f"MultiPoly({len(self.terms)} terms, deg {self.degree()})"


# --- univariate helpers (coefficient lists, ascending) ----------------------

def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def falling_factorial_coeffs(j):
    """Coefficients (ascending, exact ints) of t(t-1)...(t-j+1)."""
    coeffs = [1]
    for i in range(j):
        coeffs = poly_add([0] + coeffs, [-i * c for c in coeffs])
    return coeffs


def all_points(n):
    """All of {0,1}^n, little-endian bit j = x_j."""
    return [tuple((i >> j) & 1 for j in range(n)) for i in range(2 ** n)]


def monomials_upto_deg(n, d):
    """Multilinear monomials of degree 0..d, graded-lex."""
    out = [()]
    for deg in range(1, d + 1):
        out.extend(itertools.combinations(range(n), deg))
    return out
