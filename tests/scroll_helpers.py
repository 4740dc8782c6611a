"""Scroll constructions that only the tests need, written against the
public ring and scroll API, with the linear solve and the section rebuild
they use.  Sections are flat coordinate vectors in the layout of
`section_dims`.

Rolling factors: with Y/W the top and bottom entries of
`ScrollFrame.columns()`, A_j linear forms and alpha_j scalars, put
q1 = sum_j A_j Y_j, q2 = sum_j A_j W_j, h_top = sum_k alpha_k Y_k and
h_bot = sum_k alpha_k W_k.  Then

    h_bot * q1 - h_top * q2 = sum_{j<k} Delta_jk * M_jk,

with Delta_jk = alpha_k A_j - alpha_j A_k and M_jk = Y_j W_k - Y_k W_j.
Only this orientation closes: pairing h_top with q1 would leave
uncancelled Y_j Y_k terms.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from syzlab.linalg import DEFAULT_PRIME, Subspace, kernel_basis, rref
from syzlab.models import FOURGONAL, CurveModel
from syzlab.ring import GradedRing, GradedVector
from syzlab.scroll import (
    ScrollFrame,
    lift_index,
    scroll_minors,
    section_dims,
    shift_index,
)


def variable(ring: GradedRing, v: int) -> GradedVector:
    """The linear form Z_{v+1}."""
    return ring.vector(1, np.eye(ring.num_vars, dtype=np.int64)[v])


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
    quads = [ring.vector(2, q) for q in lifts]
    rows = [ring.multiply(variable(ring, v), q).coeffs for v in range(ring.num_vars) for q in quads]
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
    return ring.multiply(f, variable(ring, var)).coeffs


def rolling_syzygy(frame: ScrollFrame, ring: GradedRing, a_forms, alpha):
    """(q1, q2, gamma) for the rows A_j of a_forms, where row v of the
    (g, dim S^2) array gamma is h_bot[v] q1 - h_top[v] q2 - sum Delta_jk[v] M_jk,
    the quadric multiplying Z_v in the identity."""
    p = ring.prime
    tops, bottoms = zip(*frame.columns())
    q1, q2 = (
        sum(_times(ring, ring.vector(1, a), z) for a, z in zip(a_forms, row)) % p
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
    return sum(_times(ring, ring.vector(2, row), v) for v, row in enumerate(gamma)) % ring.prime


def top_row_forms(frame: ScrollFrame, ring: GradedRing, quad) -> np.ndarray | None:
    """Linear forms A_j with quad = sum_j A_j Y_j, as a (g-3, g) array, found
    by solving against the products Y_j * Z_v; None if quad has no such form."""
    tops = [y for y, _ in frame.columns()]
    g = ring.num_vars
    products = [_times(ring, variable(ring, y), v) for y in tops for v in range(g)]
    found = solve(np.array(products).T, quad, ring.prime)
    return None if found is None else found.reshape(len(tops), g)
