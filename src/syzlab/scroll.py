"""Three-dimensional rational normal scrolls and 4-gonal canonical curves.

A frame (k1, k2, k3) with 0 <= k1 <= k2 <= k3 and k1+k2+k3 = g-3 describes
the scroll X swept out by the planes spanned by three rational normal
curves; parametrically

    Z_{var(i, a)} = x_i * s^a * t^(k_i - a),      0 <= a <= k_i,

where (s:t) is the base coordinate and (x1:x2:x3) the fibre coordinate.
Ambient variables are grouped block by block, each block listing its
s-powers in descending order, so block i occupies the k_i + 1 consecutive
variables starting at offset_i and the two rows of the determinantal
matrix are simply (block shifted by 0) over (block shifted by 1).

A section of 2H - lambda*F is one flat coordinate vector: pair by pair in
PAIRS order, the coefficients of x_i x_j s^alpha t^(k_i+k_j-lambda-alpha),
alpha ascending.  Multiplication by s^i t^(lambda-i) (shift_index) and the
restriction of a quadric to the scroll (restriction_targets) are index maps
on it.  The scroll is projectively normal, so restriction maps the quadrics
onto the twist-0 sections with kernel the scroll's ideal piece I_2(X); a
curve's quadrics are the preimage of its sections' multiples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .errors import DegenerateScrollError, DimensionMismatchError, EmptyLinearSystemError
from .linalg import DEFAULT_PRIME, Subspace, check_prime, kernel_basis
from .models import FOURGONAL, CurveModel, check_genus, redraw
from .ring import GradedRing

# fixed enumeration of unordered ruling pairs (i <= j)
PAIRS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@dataclass(frozen=True)
class ScrollFrame:
    """Splitting type of the scroll; validates on construction."""

    k: tuple[int, int, int]

    def __post_init__(self) -> None:
        k = tuple(int(x) for x in self.k)
        object.__setattr__(self, "k", k)
        if len(k) != 3 or any(x < 0 for x in k):
            raise ValueError(f"frame must be three non-negative integers, got {k}")
        if not (k[0] <= k[1] <= k[2]):
            raise ValueError(f"frame must be sorted ascending, got {k}")
        if k[1] == 0:
            raise DegenerateScrollError(
                f"frame {k} has fewer than two nonzero blocks; no 2-row matrix exists"
            )

    @classmethod
    def balanced(cls, genus: int) -> "ScrollFrame":
        """The most balanced frame for the given genus."""
        q, r = divmod(check_genus(FOURGONAL, genus) - 3, 3)
        ks = sorted(q + (1 if i < r else 0) for i in range(3))
        return cls(tuple(ks))

    @classmethod
    def hosting(cls, genus: int, twist: int) -> "ScrollFrame":
        """Most balanced frame still carrying sections of 2H - twist*F.

        Such sections need a block pair with k_i + k_j >= twist, so degree
        is shifted from the smallest block to the largest until the two top
        blocks clear the bound.
        """
        k1, k2, k3 = cls.balanced(genus).k
        while k2 + k3 < twist and k1 > 0:
            k1, k2, k3 = sorted((k1 - 1, k2, k3 + 1))
        if k2 + k3 < twist:
            raise EmptyLinearSystemError(
                f"no genus-{genus} frame hosts sections of 2H - {twist}F"
            )
        return cls((k1, k2, k3))

    @classmethod
    def of_genus(cls, k, genus: int) -> "ScrollFrame":
        """The frame k, refused unless its scroll has the given genus."""
        frame = cls(tuple(k))
        if frame.genus != genus:
            raise ValueError(f"frame {frame.k} is a genus-{frame.genus} scroll, not genus {genus}")
        return frame

    @property
    def genus(self) -> int:
        return sum(self.k) + 3

    @property
    def offsets(self) -> tuple[int, int, int]:
        k1, k2, _ = self.k
        return (0, k1 + 1, k1 + k2 + 2)

    def ruling_of(self, var: int) -> tuple[int, int]:
        """(ruling, s_power) of an ambient variable: block i lists the
        s-powers k_i, ..., 0 from offset i on."""
        offs = self.offsets
        for i in (2, 1, 0):
            if var >= offs[i]:
                return i, self.k[i] - (var - offs[i])
        raise ValueError(f"variable index {var} out of range")


# -- sections of 2H - lambda*F ------------------------------------------------


def block_length(frame: ScrollFrame, i: int, j: int, twist: int) -> int:
    return max(0, frame.k[i] + frame.k[j] - twist + 1)


def section_dims(frame: ScrollFrame, twist: int) -> list[int]:
    return [block_length(frame, i, j, twist) for i, j in PAIRS]


def section_dim(frame: ScrollFrame, twist: int) -> int:
    """h^0 of 2H - twist*F; equals 4g-6 at twist 0."""
    if twist < 0:
        raise ValueError(f"twist must be non-negative, got {twist}")
    return sum(section_dims(frame, twist))


def _block_offsets(frame: ScrollFrame, twist: int) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(section_dims(frame, twist))[:-1]])


def shift_index(frame: ScrollFrame, twist: int, s_power: int) -> np.ndarray:
    """Twist-0 coordinate of s^s_power t^(twist - s_power) times each
    twist-`twist` coordinate: within a block, s-degree alpha moves to
    alpha + s_power."""
    return np.concatenate(
        [off + s_power + np.arange(n, dtype=np.int64)
         for off, n in zip(_block_offsets(frame, 0), section_dims(frame, twist))]
    )


# -- restriction to the scroll ------------------------------------------------


def restriction_targets(frame: ScrollFrame, ring: GradedRing) -> np.ndarray:
    """For each quadric monomial, its coordinate in the twist-0 section space."""
    if ring.num_vars != frame.genus:
        raise DimensionMismatchError(
            f"frame needs {frame.genus} variables, ring has {ring.num_vars}"
        )
    offsets = _block_offsets(frame, 0)
    exps = ring.exponents(2)
    targets = np.empty(len(exps), dtype=np.int64)
    for m, e in enumerate(exps):
        u, v = (int(x) for x in np.repeat(np.arange(len(e)), e))  # Z_u * Z_v, u <= v
        i, sa = frame.ruling_of(u)
        j, sb = frame.ruling_of(v)
        if i > j:
            i, j = j, i
        targets[m] = offsets[PAIRS.index((i, j))] + sa + sb
    return targets


# -- the 4-gonal curve constructor -------------------------------------------


def check_twists(frame: ScrollFrame, a: int, b: int) -> None:
    """Refuse twists that cut no canonical curve, a split one included."""
    g = frame.genus
    if a < 0 or b < 0 or a + b != g - 5:
        raise ValueError(f"need a, b >= 0 with a + b = g - 5 = {g - 5}, got ({a}, {b})")
    if frame.k[2] > (g - 1) // 2:
        raise ValueError(
            f"frame {frame.k} cannot host a curve: k3 > floor((g-1)/2) = {(g - 1) // 2}"
        )
    for twist in (a, b):
        # the generic fibre conic of a twist-lambda section is nonsingular iff
        # a permutation pairs every ruling with one sharing a nonempty block
        if not any(
            all(block_length(frame, i, j, twist) for i, j in enumerate(perm))
            for perm in itertools.permutations(range(3))
        ):
            raise EmptyLinearSystemError(
                f"frame {frame.k} has no sections of 2H - {twist}F with a "
                f"nonsingular fibre conic; the curve would be reducible"
            )

def fourgonal_curve(
    frame: ScrollFrame, a: int, b: int, seed: int, prime: int = DEFAULT_PRIME
) -> CurveModel:
    """Canonical 4-gonal curve cut on the scroll by sections of twists a, b.

    The quadric ideal piece is the preimage under restriction of the span
    of the two sections' binary-form multiples: the kernel of S^2 -> the
    twist-0 sections modulo that span.  Its dimension C(g-2, 2) is
    certified by rank, redrawing the sections on failure.
    """
    g = check_genus(FOURGONAL, frame.genus)
    p = check_prime(prime)
    check_twists(frame, a, b)
    ring = GradedRing(g, p)
    targets = restriction_targets(frame, ring)

    def multiples(section: np.ndarray, twist: int) -> np.ndarray:
        rows = np.zeros((twist + 1, section_dim(frame, 0)), dtype=np.int64)
        for i in range(twist + 1):
            rows[i, shift_index(frame, twist, i)] = section
        return rows

    def preimage(rows: np.ndarray) -> Subspace:
        # a quadric restricts into span(rows) iff its restriction is
        # orthogonal to every vector that annihilates them
        return kernel_basis(kernel_basis(rows, p).basis[:, targets], p)

    rng = np.random.default_rng(seed)

    def draw() -> Optional[tuple[np.ndarray, np.ndarray, Subspace]]:
        q1 = rng.integers(0, p, size=section_dim(frame, a), dtype=np.int64)
        q2 = rng.integers(0, p, size=section_dim(frame, b), dtype=np.int64)
        if not (q1.any() and q2.any()):
            return None
        quadrics = preimage(np.vstack([multiples(q1, a), multiples(q2, b)]))
        return (q1, q2, quadrics) if quadrics.dim == comb(g - 2, 2) else None

    q1, q2, quadrics = redraw(draw, f"no generic section pair (frame {frame.k}, a={a}, b={b})")
    surface = None
    if min(a, b) == 0:
        # the curve is a quadric section of the degree-(g-1) surface cut by
        # the positive-twist section; store that surface's quadrics
        surface = preimage(multiples(q1, a) if a >= b else multiples(q2, b))

    def blocks(section: np.ndarray, twist: int) -> list[list[int]]:
        return [blk.tolist() for blk in np.split(section, _block_offsets(frame, twist)[1:])]

    return CurveModel(
        family=FOURGONAL,
        genus=g,
        prime=p,
        seed=int(seed),
        quadrics=quadrics,
        surface_quadrics=surface,
        params={
            "frame": list(frame.k),
            "a": int(a),
            "b": int(b),
            "q1_blocks": blocks(q1, a),
            "q2_blocks": blocks(q2, b),
        },
    )
