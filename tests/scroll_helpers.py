"""Scroll constructions that only the tests need, written against the
public ring and scroll API, with the linear solve and the section rebuild
they use.  Sections are flat coordinate vectors in the layout of
`section_dims`.

The closed form of the 4-gonal quadrics lives here as the reference the
package's kernel-of-restriction route is checked against: the 2x2 minors
of the determinantal matrix (`scroll_minors`) and the lift of a twist-0
section to a quadric by the split a = min(alpha, k_i) (`lift_index`).
Neither reads `restriction_targets`; they share only the frame layout and
`shift_index` with the package.  The constructor's second route reads its
twists back from the quadrics alone (`recovered_bidegrees`).  Polynomial
products (`GradedVector`, `vector`, `multiply`) are the reference for the
package's table gathers.

Rolling factors: with Y/W the top and bottom entries of `columns(frame)`,
A_j linear forms and alpha_j scalars, put q1 = sum_j A_j Y_j,
q2 = sum_j A_j W_j, h_top = sum_k alpha_k Y_k and h_bot = sum_k alpha_k W_k.
Then

    h_bot * q1 - h_top * q2 = sum_{j<k} Delta_jk * M_jk,

with Delta_jk = alpha_k A_j - alpha_j A_k and M_jk = Y_j W_k - Y_k W_j.
Only this orientation closes: pairing h_top with q1 would leave
uncancelled Y_j Y_k terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from syzlab.errors import DimensionMismatchError, ModelInconsistencyError
from syzlab.linalg import DEFAULT_PRIME, Subspace, kernel_basis, rank, rref
from syzlab.models import FOURGONAL, CurveModel
from syzlab.ring import GradedRing
from syzlab.scroll import (
    PAIRS,
    ScrollFrame,
    block_length,
    restriction_targets,
    section_dim,
    section_dims,
    shift_index,
)


@dataclass(frozen=True)
class GradedVector:
    """Homogeneous polynomial as a dense coefficient vector."""

    degree: int
    coeffs: np.ndarray


def vector(ring: GradedRing, degree: int, coeffs) -> GradedVector:
    arr = np.asarray(coeffs, dtype=np.int64) % ring.prime
    assert arr.shape == (ring.dim(degree),), (degree, arr.shape)
    return GradedVector(degree, arr)


def multiply(ring: GradedRing, f: GradedVector, h: GradedVector) -> GradedVector:
    """f * h, one row of the product table per nonzero term of f."""
    p = ring.prime
    table = ring.product_table(f.degree, h.degree)
    out = np.zeros(ring.dim(f.degree + h.degree), dtype=np.int64)
    for i in np.nonzero(f.coeffs)[0]:
        cols = table[i]
        out[cols] = (out[cols] + int(f.coeffs[i]) * h.coeffs) % p
    return GradedVector(f.degree + h.degree, out)


def variable(ring: GradedRing, v: int) -> GradedVector:
    """The linear form Z_{v+1}."""
    return vector(ring, 1, np.eye(ring.num_vars, dtype=np.int64)[v])


# -- the closed form of the scroll's quadrics ----------------------------------


def var_index(frame: ScrollFrame, ruling: int, s_power: int) -> int:
    """0-based ambient index of x_ruling * s^s_power * t^(k-s_power)."""
    k = frame.k[ruling]
    assert 0 <= s_power <= k, (ruling, s_power)
    return frame.offsets[ruling] + (k - s_power)


def columns(frame: ScrollFrame) -> list[tuple[int, int]]:
    """(top, bottom) ambient index pairs of the determinantal matrix."""
    return [(off + c, off + c + 1) for off, k in zip(frame.offsets, frame.k) for c in range(k)]


def _pair_index(ring: GradedRing, u: int, v: int) -> int:
    """Index of the quadric monomial Z_u * Z_v."""
    e = [0] * ring.num_vars
    e[u] += 1
    e[v] += 1
    return ring.index_of(e)


def minors(ring: GradedRing, cols: list[tuple[int, int]]) -> Subspace:
    """Span of the 2x2 minors Y_j W_k - Y_k W_j of the 2-row matrix whose
    columns are the given (top, bottom) variable pairs."""
    rows = np.zeros((comb(len(cols), 2), ring.dim(2)), dtype=np.int64)
    for row, ((y1, w1), (y2, w2)) in zip(rows, combinations(cols, 2)):
        row[_pair_index(ring, y1, w2)] += 1
        row[_pair_index(ring, y2, w1)] -= 1
    return Subspace.from_rows(rows % ring.prime, ring.dim(2), ring.prime)


def scroll_minors(frame: ScrollFrame, ring: GradedRing) -> Subspace:
    """The threefold scroll's quadrics; dimension C(g-3, 2)."""
    return minors(ring, columns(frame))


def surface_scroll_minors(ring: GradedRing) -> Subspace:
    """Quadrics of the balanced rational normal surface scroll in P^(g-1),
    two blocks of consecutive variables; dimension C(g-2, 2), that of a
    canonical curve's quadrics."""
    a = (ring.num_vars - 2) // 2  # S(a, g-2-a): blocks Z_0..Z_a and Z_(a+1)..Z_(g-1)
    cols = [(v, v + 1) for v in range(ring.num_vars - 1) if v != a]
    return minors(ring, cols)


def lift_index(frame: ScrollFrame, ring: GradedRing) -> np.ndarray:
    """Quadric monomial of each twist-0 coordinate.

    x_i x_j s^alpha t^(...) is realized as a product of two ambient
    variables by the deterministic split a = min(alpha, k_i) of the total
    s-degree; different splits differ by scroll minors.
    """
    return np.array(
        [_pair_index(ring, var_index(frame, i, a), var_index(frame, j, alpha - a))
         for i, j in PAIRS
         for alpha in range(block_length(frame, i, j, 0))
         for a in [min(alpha, frame.k[i])]],
        dtype=np.int64,
    )


def closed_form_quadrics(frame: ScrollFrame, ring: GradedRing, *sides) -> Subspace:
    """Span of the minors and the lifts of every binary-form multiple of
    each (section coordinates, twist) side."""
    rows = [scroll_minors(frame, ring).basis]
    rows += [lifted_multiple(frame, ring, coords, twist, i)
             for coords, twist in sides for i in range(twist + 1)]
    return Subspace.from_rows(np.vstack(rows), ring.dim(2), ring.prime)


def solve(mat, rhs, p: int) -> np.ndarray | None:
    """One solution of mat @ x = rhs over GF(p), or None if inconsistent."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    rk, red, piv = rref(np.column_stack([mat, rhs]), p)
    ncols = mat.shape[1]
    if ncols in piv:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    x[piv] = red[:rk, ncols]
    return x


def fourgonal_sections(model: CurveModel) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate vectors of the two defining sections stored in a
    4-gonal model's params."""
    assert model.family == FOURGONAL, model.family
    q1, q2 = (
        np.array([c for block in model.params[key] for c in block], dtype=np.int64)
        for key in ("q1_blocks", "q2_blocks")
    )
    return q1, q2


def section_blocks(frame: ScrollFrame, twist: int, coords) -> list[np.ndarray]:
    """A twist-`twist` coordinate vector cut into its ruling-pair blocks."""
    return np.split(np.asarray(coords), np.cumsum(section_dims(frame, twist))[:-1])


def lifted_multiple(frame: ScrollFrame, ring: GradedRing, coords, twist: int, s_power: int):
    """Quadric coefficients of the lift of s^s_power t^(twist - s_power)
    times the twist-`twist` section with the given coordinates."""
    quad = np.zeros(ring.dim(2), dtype=np.int64)
    quad[lift_index(frame, ring)[shift_index(frame, twist, s_power)]] = coords
    return quad % ring.prime


def scroll_points(frame: ScrollFrame, n: int, seed, prime: int = DEFAULT_PRIME) -> np.ndarray:
    """n random points Z_v = x_i s^a t^(k_i - a) of the scroll, one row each."""
    rng = np.random.default_rng(seed)
    rulings = [frame.ruling_of(v) for v in range(frame.genus)]
    rows = []
    while len(rows) < n:
        x = rng.integers(0, prime, size=3, dtype=np.int64)
        s, t = int(rng.integers(0, prime)), int(rng.integers(0, prime))
        if x.any() and (s or t):
            rows.append(
                [int(x[i]) * pow(s, a, prime) * pow(t, frame.k[i] - a, prime) % prime
                 for i, a in rulings]
            )
    return np.array(rows, dtype=np.int64).reshape(n, frame.genus)


def scroll_ring_syzygies(frame: ScrollFrame, ring: GradedRing, lifts) -> Subspace:
    """Linear syzygies sum_{v,r} c_{v,r} Z_v * lifts[r] = 0 in the scroll's
    coordinate ring, indexed variable-major (v * len(lifts) + r).

    The scroll is projectively normal, so its cubics are the degree-3 piece
    of the ideal of its minors.
    """
    cubics = ring.ideal_piece(scroll_minors(frame, ring), 3)
    quads = [vector(ring, 2, q) for q in lifts]
    rows = [multiply(ring, variable(ring, v), q).coeffs
            for v in range(ring.num_vars) for q in quads]
    return kernel_basis(cubics.reduce(np.array(rows)).T, ring.prime)


def pad_syzygies(sub: Subspace, g: int, width: int, offset: int) -> Subspace:
    """Syzygies on a run of sections, re-indexed into a list of `width`
    sections where the run starts at `offset`."""
    n = sub.ambient_dim // g
    rows = np.zeros((sub.dim, g, width), dtype=np.int64)
    rows[:, :, offset : offset + n] = sub.basis.reshape(sub.dim, g, n)
    return Subspace.from_rows(rows.reshape(sub.dim, g * width), g * width, sub.prime)


def _times(ring: GradedRing, f, var: int) -> np.ndarray:
    """Coefficients of f * Z_var."""
    return multiply(ring, f, variable(ring, var)).coeffs


def rolling_syzygy(frame: ScrollFrame, ring: GradedRing, a_forms, alpha):
    """(q1, q2, gamma) for the rows A_j of a_forms, where row v of the
    (g, dim S^2) array gamma is h_bot[v] q1 - h_top[v] q2 - sum Delta_jk[v] M_jk,
    the quadric multiplying Z_v in the identity."""
    p = ring.prime
    tops, bottoms = zip(*columns(frame))
    q1, q2 = (
        sum(_times(ring, vector(ring, 1, a), z) for a, z in zip(a_forms, row)) % p
        for row in (tops, bottoms)
    )
    h_top, h_bot = np.zeros((2, ring.num_vars), dtype=np.int64)
    np.add.at(h_top, list(tops), alpha)
    np.add.at(h_bot, list(bottoms), alpha)
    gamma = np.outer(h_bot, q1) - np.outer(h_top, q2)
    for j, k in combinations(range(len(tops)), 2):
        delta = (alpha[k] * a_forms[j] - alpha[j] * a_forms[k]) % p
        minor = (_times(ring, variable(ring, tops[j]), bottoms[k])
                 - _times(ring, variable(ring, tops[k]), bottoms[j]))
        gamma = gamma - np.outer(delta, minor)
    return q1, q2, gamma % p


def rolling_residual(frame: ScrollFrame, ring: GradedRing, a_forms, alpha) -> np.ndarray:
    """sum_v Z_v gamma_v = h_bot*q1 - h_top*q2 - sum Delta_jk M_jk, as cubic
    coefficients; zero iff the identity holds."""
    _, _, gamma = rolling_syzygy(frame, ring, a_forms, alpha)
    return sum(_times(ring, vector(ring, 2, row), v) for v, row in enumerate(gamma)) % ring.prime


def top_row_forms(frame: ScrollFrame, ring: GradedRing, quad) -> np.ndarray | None:
    """Linear forms A_j with quad = sum_j A_j Y_j, as a (g-3, g) array, found
    by solving against the products Y_j * Z_v; None if quad has no such form."""
    tops = [y for y, _ in columns(frame)]
    g = ring.num_vars
    products = [_times(ring, variable(ring, y), v) for y in tops for v in range(g)]
    found = solve(np.array(products).T, quad, ring.prime)
    return None if found is None else found.reshape(len(tops), g)


# -- the twists read back from the quadrics ------------------------------------


def complement(space: Subspace) -> Subspace:
    """Annihilator under the standard dot product."""
    return kernel_basis(space.basis, space.prime)


def restriction_image(frame: ScrollFrame, ring: GradedRing, quadrics: Subspace) -> Subspace:
    """Span of the quadrics' images in the twist-0 section coordinates."""
    out = np.zeros((section_dim(frame, 0), quadrics.dim), dtype=np.int64)
    np.add.at(out, restriction_targets(frame, ring), quadrics.basis.T)
    return Subspace.from_rows(out.T % ring.prime, section_dim(frame, 0), ring.prime)


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
    annihilator = complement(restricted).basis
    lam0 = 0
    for j in range(1, frame.k[1] + frame.k[2] + 1):
        if section_dim(frame, j) == 0:
            break
        conditions = np.vstack([annihilator[:, shift_index(frame, j, i)] for i in range(j + 1)])
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


def recovered_bidegrees(model: CurveModel) -> tuple[int, int]:
    """Re-derive (a, b) of a stored 4-gonal model from its quadrics alone."""
    assert model.family == FOURGONAL, model.family
    frame = ScrollFrame(tuple(model.params["frame"]))
    ring = GradedRing(model.genus, model.prime)
    return scrollar_bidegrees(frame, restriction_image(frame, ring, model.quadrics))
