"""Graded pieces of the polynomial ring GF(p)[Z_1..Z_g].

Coefficient vectors are indexed by a fixed monomial order shared by every
consumer (serialization included): graded reverse lexicographic with
Z_1 > Z_2 > ... > Z_g.  Within one degree, exponent vector a precedes b
iff the last nonzero entry of a - b is negative; equivalently the basis
is sorted by reversed exponent tuple.  For g = 3, degree 2 this gives

    Z1^2, Z1*Z2, Z2^2, Z1*Z3, Z2*Z3, Z3^2.

All product bookkeeping goes through cached index tables, so repeated
multiplications are fancy-indexed numpy scatters rather than dict walks.
The tables depend on the number of variables alone, not on p: they are
built once per (g, degree) and shared, read-only, by every GradedRing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatchError, UnsupportedDegreeError
from .linalg import DEFAULT_PRIME, Subspace, check_prime


@functools.cache
def _monomials(g: int, degree: int) -> tuple[np.ndarray, dict[tuple[int, ...], int]]:
    """Read-only (dim, g) exponent array in the fixed order, and its index."""
    exps = []
    for combo in itertools.combinations_with_replacement(range(g), degree):
        e = [0] * g
        for v in combo:
            e[v] += 1
        exps.append(tuple(e))
    exps.sort(key=lambda e: e[::-1])
    arr = np.array(exps, dtype=np.int64).reshape(len(exps), g)
    arr.setflags(write=False)
    return arr, {e: i for i, e in enumerate(exps)}


@functools.cache
def _product_table(g: int, d1: int, d2: int) -> np.ndarray:
    idx = _monomials(g, d1 + d2)[1]
    e1, e2 = _monomials(g, d1)[0], _monomials(g, d2)[0]
    table = np.empty((len(e1), len(e2)), dtype=np.int64)
    for i, a in enumerate(e1):
        for j, b in enumerate(e2):
            table[i, j] = idx[tuple(int(x) for x in a + b)]
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class GradedVector:
    """Homogeneous polynomial as a dense coefficient vector."""

    degree: int
    coeffs: np.ndarray


class GradedRing:
    """Monomial indexing and multiplication for one fixed (g, p)."""

    def __init__(self, num_vars: int, prime: int = DEFAULT_PRIME):
        if num_vars < 1:
            raise ValueError(f"need at least one variable, got {num_vars}")
        self.num_vars = int(num_vars)
        self.prime = check_prime(prime)

    # -- monomial bookkeeping -------------------------------------------------

    def dim(self, degree: int) -> int:
        """Dimension of the degree-d piece, C(g+d-1, d)."""
        if degree < 0:
            raise UnsupportedDegreeError(f"negative degree {degree}")
        return comb(self.num_vars + degree - 1, degree)

    def exponents(self, degree: int) -> np.ndarray:
        """(dim, g) array of exponent vectors in the fixed order."""
        return _monomials(self.num_vars, degree)[0]

    def index_of(self, exponent) -> int:
        e = tuple(int(x) for x in exponent)
        return _monomials(self.num_vars, sum(e))[1][e]

    def vector(self, degree: int, coeffs) -> GradedVector:
        arr = np.asarray(coeffs, dtype=np.int64) % self.prime
        if arr.shape != (self.dim(degree),):
            raise DimensionMismatchError(
                f"degree-{degree} piece has dimension {self.dim(degree)}, "
                f"got shape {arr.shape}"
            )
        return GradedVector(degree, arr)

    def product_table(self, d1: int, d2: int) -> np.ndarray:
        """table[i, j] = index of (monomial_i(d1) * monomial_j(d2)) in degree d1+d2."""
        return _product_table(self.num_vars, d1, d2)

    # -- arithmetic -----------------------------------------------------------

    def multiply(self, f: GradedVector, h: GradedVector) -> GradedVector:
        p = self.prime
        table = self.product_table(f.degree, h.degree)
        out = np.zeros(self.dim(f.degree + h.degree), dtype=np.int64)
        for i in np.nonzero(f.coeffs)[0]:
            cols = table[i]
            out[cols] = (out[cols] + int(f.coeffs[i]) * h.coeffs) % p
        return GradedVector(f.degree + h.degree, out)

    def evaluate_monomials(self, degree: int, points) -> np.ndarray:
        """(npoints, dim) matrix of monomial values at the given points."""
        p = self.prime
        pts = np.asarray(points, dtype=np.int64) % p
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.num_vars:
            raise DimensionMismatchError(
                f"points have {pts.shape[1]} coordinates, expected {self.num_vars}"
            )
        # powers[e][:, v] = (v-th coordinate) ** e
        powers = [np.ones_like(pts)]
        for _ in range(degree):
            powers.append(powers[-1] * pts % p)
        exps = self.exponents(degree)
        out = np.empty((pts.shape[0], len(exps)), dtype=np.int64)
        for m, e in enumerate(exps):
            acc = np.ones(pts.shape[0], dtype=np.int64)
            for v in np.nonzero(e)[0]:
                acc = acc * powers[int(e[v])][:, v] % p
            out[:, m] = acc
        return out

    # -- ideal pieces ---------------------------------------------------------

    def multiplication_matrix(self, quadrics: Subspace) -> np.ndarray:
        """Matrix of V (x) I_2 -> S^3, rows in variable-major order.

        Row v*m + j holds the coefficient vector of Z_{v+1} * Q_j where
        Q_0..Q_{m-1} is the canonical basis of ``quadrics``.
        """
        self._check_quadrics(quadrics)
        return self._multiples(quadrics, 3)

    def ideal_piece(self, quadrics: Subspace, degree: int) -> Subspace:
        """Degree-d piece of the ideal generated by the given quadrics (2 <= d <= 4)."""
        self._check_quadrics(quadrics)
        if degree == 2:
            return quadrics
        if degree not in (3, 4):
            raise UnsupportedDegreeError(
                f"ideal pieces are materialized for degrees 2..4 only, got {degree}"
            )
        return Subspace.from_rows(self._multiples(quadrics, degree), self.dim(degree), self.prime)

    def _multiples(self, quadrics: Subspace, degree: int) -> np.ndarray:
        """Rows monomial_i(degree - 2) * Q_j in the degree-d piece, row i*m + j."""
        m = quadrics.dim
        table = self.product_table(degree - 2, 2)
        rows = np.zeros((len(table) * m, self.dim(degree)), dtype=np.int64)
        for i, cols in enumerate(table):
            rows[i * m : (i + 1) * m, cols] = quadrics.basis
        return rows

    def _check_quadrics(self, quadrics: Subspace) -> None:
        if quadrics.prime != self.prime or quadrics.ambient_dim != self.dim(2):
            raise DimensionMismatchError(
                f"expected quadrics in GF({self.prime})^{self.dim(2)}, got "
                f"GF({quadrics.prime})^{quadrics.ambient_dim}"
            )
