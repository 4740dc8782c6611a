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

Sections of 2H - lambda*F are stored per variable pair (i, j), i <= j, as
dense binary-form coefficient arrays indexed by ascending s-degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    DegenerateScrollError,
    DimensionMismatchError,
    EmptyLinearSystemError,
    GenericityExhaustedError,
    ModelInconsistencyError,
)
from .linalg import (
    DEFAULT_PRIME,
    Subspace,
    check_prime,
    rank,
)
from .models import FOURGONAL, CurveModel
from .ring import GradedRing, GradedVector

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
        if genus < 6:
            raise ValueError(f"scroll frames need genus >= 6, got {genus}")
        q, r = divmod(genus - 3, 3)
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

    @property
    def genus(self) -> int:
        return sum(self.k) + 3

    @property
    def num_vars(self) -> int:
        return self.genus

    @property
    def offsets(self) -> tuple[int, int, int]:
        k1, k2, _ = self.k
        return (0, k1 + 1, k1 + k2 + 2)

    def var_index(self, ruling: int, s_power: int) -> int:
        """0-based ambient index of x_ruling * s^s_power * t^(k-s_power)."""
        k = self.k[ruling]
        if not 0 <= s_power <= k:
            raise ValueError(f"s-power {s_power} outside [0, {k}] for ruling {ruling}")
        return self.offsets[ruling] + (k - s_power)

    def ruling_of(self, var: int) -> tuple[int, int]:
        """Inverse of var_index: (ruling, s_power) for an ambient variable."""
        offs = self.offsets
        for i in (2, 1, 0):
            if var >= offs[i]:
                return i, self.k[i] - (var - offs[i])
        raise ValueError(f"variable index {var} out of range")

    def columns(self) -> list[tuple[int, int]]:
        """(top, bottom) ambient index pairs of the determinantal matrix."""
        return [(off + c, off + c + 1) for off, k in zip(self.offsets, self.k) for c in range(k)]


def scroll_minors(frame: ScrollFrame, ring: GradedRing) -> Subspace:
    """Span of the 2x2 minors Y_j W_k - Y_k W_j; dimension C(g-3, 2)."""
    _check_ring(frame, ring)
    rows = [_minor(ring, c1, c2) for c1, c2 in itertools.combinations(frame.columns(), 2)]
    if not rows:
        return Subspace.zero(ring.dim(2), ring.prime)
    return Subspace.from_rows(np.array(rows), ring.dim(2), ring.prime)


def _minor(ring: GradedRing, col1: tuple[int, int], col2: tuple[int, int]) -> np.ndarray:
    """Coefficient vector of the 2x2 minor Y_1 W_2 - Y_2 W_1 of two columns."""
    (y1, w1), (y2, w2) = col1, col2
    vec = np.zeros(ring.dim(2), dtype=np.int64)
    vec[ring.index_of(_pair_exponent(ring.num_vars, y1, w2))] += 1
    vec[ring.index_of(_pair_exponent(ring.num_vars, y2, w1))] -= 1
    return vec % ring.prime


def _pair_exponent(g: int, u: int, v: int) -> list[int]:
    e = [0] * g
    e[u] += 1
    e[v] += 1
    return e


def _check_ring(frame: ScrollFrame, ring: GradedRing) -> None:
    if ring.num_vars != frame.num_vars:
        raise DimensionMismatchError(
            f"frame needs {frame.num_vars} variables, ring has {ring.num_vars}"
        )


# -- sections of 2H - lambda*F ------------------------------------------------


@dataclass(frozen=True)
class Section2H:
    """Section of 2H - twist*F: one binary form per ruling pair.

    blocks[n] collects the coefficients of x_i x_j s^alpha t^(deg-alpha)
    for (i, j) = PAIRS[n], indexed by ascending s-degree alpha; the block
    is empty when k_i + k_j < twist.
    """

    frame: ScrollFrame
    twist: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(PAIRS):
            raise ValueError("a section needs one block per ruling pair")
        for pair, block, want in zip(PAIRS, self.blocks, section_dims(self.frame, self.twist)):
            if len(block) != want:
                raise DimensionMismatchError(
                    f"block {pair} must hold {want} coefficients, got {len(block)}"
                )

    def is_zero(self) -> bool:
        return not any(b.any() for b in self.blocks)


def block_length(frame: ScrollFrame, i: int, j: int, twist: int) -> int:
    return max(0, frame.k[i] + frame.k[j] - twist + 1)


def section_dims(frame: ScrollFrame, twist: int) -> list[int]:
    return [block_length(frame, i, j, twist) for i, j in PAIRS]


def section_dim(frame: ScrollFrame, twist: int) -> int:
    """h^0 of 2H - twist*F; equals 4g-6 at twist 0."""
    if twist < 0:
        raise ValueError(f"twist must be non-negative, got {twist}")
    return sum(section_dims(frame, twist))


def section_from_coords(frame: ScrollFrame, twist: int, coords) -> Section2H:
    dims = section_dims(frame, twist)
    vec = np.asarray(coords, dtype=np.int64)
    if vec.shape != (sum(dims),):
        raise DimensionMismatchError(
            f"expected {sum(dims)} coordinates for twist {twist}, got {vec.shape}"
        )
    return Section2H(frame, twist, tuple(np.split(vec.copy(), np.cumsum(dims)[:-1])))


def random_section(
    frame: ScrollFrame, twist: int, prime: int, rng: np.random.Generator
) -> Section2H:
    """Uniformly random section; raises if the linear system is empty."""
    total = section_dim(frame, twist)
    if total == 0:
        raise EmptyLinearSystemError(
            f"no sections of 2H - {twist}F on frame {frame.k}"
        )
    coords = rng.integers(0, prime, size=total, dtype=np.int64)
    return section_from_coords(frame, twist, coords)


def binary_monomial(s_degree: int, degree: int) -> np.ndarray:
    """Coefficients of s^s_degree * t^(degree - s_degree)."""
    if not 0 <= s_degree <= degree:
        raise ValueError(f"s-degree {s_degree} outside [0, {degree}]")
    out = np.zeros(degree + 1, dtype=np.int64)
    out[s_degree] = 1
    return out


def twist_down(sec: Section2H, form, prime: int) -> Section2H:
    """Multiply by a binary form in (s, t), lowering the twist by its degree."""
    form = np.asarray(form, dtype=np.int64) % prime
    mu = len(form) - 1
    if mu < 0:
        raise ValueError("binary form must have at least one coefficient")
    if sec.twist - mu < 0:
        raise ValueError(f"cannot lower twist {sec.twist} by degree {mu}")
    new_blocks = []
    for n, (i, j) in enumerate(PAIRS):
        new_len = block_length(sec.frame, i, j, sec.twist - mu)
        if len(sec.blocks[n]) == 0:
            new_blocks.append(np.zeros(new_len, dtype=np.int64))
            continue
        conv = np.convolve(sec.blocks[n], form) % prime
        out = np.zeros(new_len, dtype=np.int64)
        out[: len(conv)] = conv
        new_blocks.append(out)
    return Section2H(sec.frame, sec.twist - mu, tuple(new_blocks))


def lift_section(ring: GradedRing, sec: Section2H) -> GradedVector:
    """Quadric in the ambient space restricting to a twist-0 section.

    Each bidegree monomial x_i x_j s^alpha t^(...) is realized as a product
    of two ambient variables by the deterministic split a = min(alpha, k_i)
    of the total s-degree; different splits differ by scroll minors.
    """
    frame = sec.frame
    _check_ring(frame, ring)
    if sec.twist != 0:
        raise ValueError(f"only twist-0 sections lift; got twist {sec.twist}")
    g = ring.num_vars
    out = np.zeros(ring.dim(2), dtype=np.int64)
    for n, (i, j) in enumerate(PAIRS):
        for alpha, c in enumerate(sec.blocks[n]):
            if not c:
                continue
            a = min(alpha, frame.k[i])
            u = frame.var_index(i, a)
            v = frame.var_index(j, alpha - a)
            out[ring.index_of(_pair_exponent(g, u, v))] += int(c)
    return GradedVector(2, out % ring.prime)


# -- restriction to the scroll ------------------------------------------------


def restriction_targets(frame: ScrollFrame, ring: GradedRing) -> np.ndarray:
    """For each quadric monomial, its coordinate in the twist-0 section space."""
    _check_ring(frame, ring)
    dims = section_dims(frame, 0)
    offsets = np.concatenate([[0], np.cumsum(dims)[:-1]])
    pair_pos = {pair: n for n, pair in enumerate(PAIRS)}
    exps = ring.exponents(2)
    targets = np.empty(len(exps), dtype=np.int64)
    for m, e in enumerate(exps):
        u, v = (int(x) for x in np.repeat(np.arange(len(e)), e))  # Z_u * Z_v, u <= v
        i, sa = frame.ruling_of(u)
        j, sb = frame.ruling_of(v)
        if i > j:
            i, j = j, i
        targets[m] = offsets[pair_pos[(i, j)]] + sa + sb
    return targets


def restrict_quadrics(frame: ScrollFrame, ring: GradedRing, rows) -> np.ndarray:
    """Images of ambient quadrics in the twist-0 section coordinates."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % ring.prime
    targets = restriction_targets(frame, ring)
    out = np.zeros((section_dim(frame, 0), rows.shape[0]), dtype=np.int64)
    np.add.at(out, targets, rows.T)
    return out.T % ring.prime


def restriction_image(frame: ScrollFrame, ring: GradedRing, quadrics: Subspace) -> Subspace:
    img = restrict_quadrics(frame, ring, quadrics.basis)
    return Subspace.from_rows(img, section_dim(frame, 0), ring.prime)


def _twist_multiplication(frame: ScrollFrame, twist: int, s_power: int) -> np.ndarray:
    """Matrix of multiplication by s^s_power t^(twist - s_power).

    Maps twist-`twist` section coordinates into twist-0 ones; within each
    block the ascending-s coefficients just shift up by s_power.
    """
    src_dims = section_dims(frame, twist)
    dst_dims = section_dims(frame, 0)
    src_off = np.concatenate([[0], np.cumsum(src_dims)[:-1]])
    dst_off = np.concatenate([[0], np.cumsum(dst_dims)[:-1]])
    mat = np.zeros((int(np.sum(dst_dims)), int(np.sum(src_dims))), dtype=np.int64)
    for n in range(len(PAIRS)):
        for alpha in range(src_dims[n]):
            mat[int(dst_off[n]) + alpha + s_power, int(src_off[n]) + alpha] = 1
    return mat


def scrollar_bidegrees(frame: ScrollFrame, restricted: Subspace) -> tuple[int, int]:
    """Recover (lambda0, lambda1) from the restricted quadrics of a curve.

    lambda0 is the largest twist j admitting a nonzero section v of 2H - jF
    all of whose binary-monomial multiples s^i t^(j-i) v land in the given
    (g-3)-dimensional space; by construction that space is spanned by the
    monomial multiples of two sections of twists lambda0 and
    lambda1 = g - 5 - lambda0.
    """
    g = frame.genus
    p = restricted.prime
    if restricted.ambient_dim != section_dim(frame, 0):
        raise DimensionMismatchError(
            f"expected vectors in the twist-0 section space of dim {section_dim(frame, 0)}"
        )
    if restricted.dim != g - 3:
        raise ModelInconsistencyError(
            f"restricted quadrics span dim {restricted.dim}, expected g-3 = {g - 3}"
        )
    annihilator = restricted.complement().basis
    lam0 = 0
    for j in range(1, frame.k[1] + frame.k[2] + 1):
        if section_dim(frame, j) == 0:
            break
        conditions = np.vstack(
            [
                annihilator @ _twist_multiplication(frame, j, i) % p
                for i in range(j + 1)
            ]
        )
        # divisibility is monotone (s*v divides whenever v does), so the
        # first empty twist ends the search
        if section_dim(frame, j) - rank(conditions, p) == 0:
            break
        lam0 = j
    if lam0 > g - 5:
        raise ModelInconsistencyError(
            f"recovered lambda0 = {lam0} exceeds the bound g-5 = {g - 5}"
        )
    return lam0, g - 5 - lam0


# -- the 4-gonal curve constructor -------------------------------------------


MAX_REDRAWS = 8


def fourgonal_curve(
    frame: ScrollFrame, a: int, b: int, seed: int, prime: int = DEFAULT_PRIME
) -> CurveModel:
    """Canonical 4-gonal curve cut on the scroll by sections of twists a, b.

    The quadric ideal piece is the scroll minors plus ambient lifts of the
    binary-form multiples of the two sections; its dimension C(g-2, 2) is
    certified by rank, redrawing the sections on failure.  Twists whose
    sections all have singular fibre conics are refused: the curve they cut
    splits, so it is no canonical curve.
    """
    g = frame.genus
    p = check_prime(prime)
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
    ring = GradedRing(g, p)
    minors = scroll_minors(frame, ring)
    target = comb(g - 2, 2)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REDRAWS):
        q1 = random_section(frame, a, p, rng)
        q2 = random_section(frame, b, p, rng)
        if q1.is_zero() or q2.is_zero():
            continue
        side_a = [twist_down(q1, binary_monomial(i, a), p) for i in range(a + 1)]
        side_b = [twist_down(q2, binary_monomial(i, b), p) for i in range(b + 1)]
        lifts = [lift_section(ring, sec).coeffs for sec in side_a + side_b]
        quadrics = Subspace.from_rows(
            np.vstack([minors.basis, np.array(lifts)]), ring.dim(2), p
        )
        if quadrics.dim == target:
            break
    else:
        raise GenericityExhaustedError(
            f"no generic section pair after {MAX_REDRAWS} draws (frame {frame.k}, a={a}, b={b})"
        )
    surface = None
    if min(a, b) == 0:
        # the curve is a quadric section of the degree-(g-1) surface cut by
        # the positive-twist section; store that surface's quadrics
        big = side_a if a >= b else side_b
        surf_rows = np.vstack([minors.basis, np.array([lift_section(ring, s).coeffs for s in big])])
        surface = Subspace.from_rows(surf_rows, ring.dim(2), p)
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
            "q1_blocks": [[int(c) for c in blk] for blk in q1.blocks],
            "q2_blocks": [[int(c) for c in blk] for blk in q2.blocks],
        },
    )
