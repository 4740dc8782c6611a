"""Exact dense linear algebra over a prime field GF(p).

Entries are canonical residues in [0, p); the prime is always passed
explicitly.  With p < 2**25 a residue fits int32 and a product of two plus
a residue fits int64, so storage is int32 and arithmetic int64.  The one
elimination holds its working matrix in int32, built from any input
without a full-size int64 temporary, and works in int64 only on the
pivot row and on the update of the rows each step gathers.  Bases and
kernels keep int64 rows; every other operation reduces mod p after at
most one product or one dot product of length < 2**13, so nothing ever
exceeds 2**63.

Row reduction is deterministic: pivots are chosen in the leftmost nonzero
column, ties broken by smallest row index, so identical input bytes give
identical output bytes on every platform.  ``rref`` and ``rank`` share one
loop; each step updates only the columns from the pivot on, and ``rank``
clears below pivots only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

import numpy as np

from .errors import DimensionMismatchError

DEFAULT_PRIME = 1000003

# Exclusive upper bound for the modulus: residues fit int32, products int64.
PRIME_BOUND = 2**25


@cache
def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to sqrt(n); refuses
    n >= PRIME_BOUND, so it never tries more than 2,896 divisors.  Each
    answer is kept, so every ring and constructor may check its prime."""
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} must be below {PRIME_BOUND} (int32 residues)")
    if n < 4 or n % 2 == 0:
        return n in (2, 3)
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


def check_prime(p: int) -> int:
    """Validate a field modulus: an odd prime below PRIME_BOUND, the bound
    checked first; returns p for chaining."""
    if not isinstance(p, (int, np.integer)):
        raise TypeError(f"prime must be an integer, got {type(p).__name__}")
    p = int(p)
    if p == 2 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    return p


def inverse_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    return pow(a, -1, p)


def _residues(mat, p: int) -> np.ndarray:
    """A fresh int32 matrix of mat mod p; a 1-D input is one row.

    The remainder is taken in int64 and cast chunk by chunk into the int32
    result, so no full-size int64 temporary is made.
    """
    a = np.asarray(mat)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    out = np.empty(a.shape, dtype=np.int32)
    return np.remainder(a, p, out=out, dtype=np.int64, casting="unsafe")


def _echelon(mat, p: int, reduced: bool) -> tuple[int, np.ndarray, list[int]]:
    """Rows r.. are zero left of column c, so each step touches columns c: only."""
    a = _residues(mat, p)  # the input is never written
    nrows, ncols = a.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        pivot = a[r, c:].astype(np.int64)
        if pivot[0] != 1:
            pivot = pivot * inverse_mod(int(pivot[0]), p) % p
            a[r, c:] = pivot
        rows = r + nz[1:]  # the nonzeros below the pivot, after the swap
        if reduced:
            rows = np.concatenate([np.flatnonzero(a[:r, c]), rows])
        if rows.size:
            # rank-1 update of the gathered rows, formed in int64 since the
            # pivot row is: x - a * b lies in (-(p-1)**2, p), inside int64
            update = np.outer(a[rows, c], pivot)
            np.subtract(a[rows, c:], update, out=update)
            update %= p
            a[rows, c:] = update
        pivot_cols.append(c)
        r += 1
    return r, a, pivot_cols


def rref(mat, p: int) -> tuple[int, np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (rank, reduced, pivot_cols).  ``reduced`` is a fresh int32
    array with unit pivots and zeros above and below; rows below ``rank``
    are zero.  Deterministic pivoting: leftmost column first, smallest row
    index on ties.  The input is never written.
    """
    return _echelon(mat, p, reduced=True)


def rank(mat, p: int) -> int:
    return _echelon(mat, p, reduced=False)[0]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of GF(p)^n in canonical form.

    ``basis`` is the unique reduced-echelon basis (one row per dimension),
    so two Subspace objects represent the same space iff their arrays are
    bit-identical; ``__eq__`` checks exactly that.
    """

    ambient_dim: int
    prime: int
    basis: np.ndarray
    pivot_cols: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows, ambient_dim: int, prime: int) -> "Subspace":
        """Span of the given row vectors (any iterable of length-n rows)."""
        arr = np.asarray(rows, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, ambient_dim)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.shape[1] != ambient_dim:
            raise DimensionMismatchError(
                f"rows have length {arr.shape[1]}, ambient dimension is {ambient_dim}"
            )
        rk, red, piv = rref(arr, prime)
        basis = red[:rk].astype(np.int64)
        basis.setflags(write=False)
        return cls(ambient_dim, prime, basis, tuple(piv))

    @classmethod
    def zero(cls, ambient_dim: int, prime: int) -> "Subspace":
        basis = np.zeros((0, ambient_dim), dtype=np.int64)
        basis.setflags(write=False)
        return cls(ambient_dim, prime, basis, ())

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim or self.prime != other.prime:
            raise DimensionMismatchError(
                f"subspaces live in GF({self.prime})^{self.ambient_dim} vs "
                f"GF({other.prime})^{other.ambient_dim}"
            )

    def reduce(self, vec) -> np.ndarray:
        """Normal form of vec modulo this subspace (zero iff contained)."""
        v = np.asarray(vec, dtype=np.int64) % self.prime
        if v.shape[-1] != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector length {v.shape[-1]} != ambient {self.ambient_dim}"
            )
        if self.dim == 0:
            return v
        coeffs = v[..., list(self.pivot_cols)]
        return (v - coeffs @ self.basis) % self.prime

    def contains(self, vec) -> bool:
        return not self.reduce(vec).any()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        rows = np.vstack([self.basis, other.basis])
        return Subspace.from_rows(rows, self.ambient_dim, self.prime)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.prime == other.prime
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.prime, self.basis.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, "
            f"p={self.prime})"
        )


def kernel_basis(mat, p: int) -> Subspace:
    """Right kernel {v : mat @ v == 0} as a canonical Subspace.

    One elimination, of the column-reversed matrix: there the kernel vector
    of free column f is nonzero only at f and at pivot columns left of f,
    so reversed back and sorted these vectors already are the echelon basis.
    """
    rk, red, piv = rref(np.atleast_2d(mat)[:, ::-1], p)
    ncols = red.shape[1]
    is_free = np.ones(ncols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    vecs = np.zeros((len(free), ncols), dtype=np.int64)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, piv] = (-red[:rk, free].T) % p
    basis = np.ascontiguousarray(vecs[::-1, ::-1])
    basis.setflags(write=False)
    pivots = tuple(int(ncols - 1 - f) for f in free[::-1])
    return Subspace(ncols, p, basis, pivots)
