"""Canonical curves cut by one quadric on a degree-(g-1) surface, and genus 5.

Three surfaces host them: cones over elliptic normal curves (bielliptic
curves), Del Pezzo surfaces from plane cubics through 10-g base points,
and the cubic Veronese at g = 10.  A surface enters a model only through
its quadrics, stored as ``CurveModel.surface_quadrics``: the exact kernel
I_2 = ker(Sym^2 H^0(L) -> H^0(L^2)) of multiplying the coordinate
functions pairwise, which is all of I_2 because these embeddings are
projectively normal.  No construction samples points of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np

from .errors import GenericityExhaustedError, ModelInconsistencyError
from .linalg import (
    DEFAULT_PRIME,
    Subspace,
    check_prime,
    kernel_basis,
)
from .models import BIELLIPTIC, DELPEZZO, GENUS5, VERONESE, CurveModel
from .ring import GradedRing

MAX_REDRAWS = 8


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a4*x + a6 over GF(p); must be nonsingular."""

    a4: int
    a6: int
    prime: int

    def __post_init__(self) -> None:
        p = check_prime(self.prime)
        object.__setattr__(self, "a4", int(self.a4) % p)
        object.__setattr__(self, "a6", int(self.a6) % p)
        if self.discriminant == 0:
            raise ValueError(
                f"singular cubic: 4*a4^3 + 27*a6^2 = 0 mod {p} for (a4, a6) = "
                f"({self.a4}, {self.a6})"
            )

    @property
    def discriminant(self) -> int:
        p = self.prime
        return (4 * pow(self.a4, 3, p) + 27 * self.a6 * self.a6) % p

    @classmethod
    def random(cls, prime: int, rng: np.random.Generator) -> "WeierstrassCurve":
        p = check_prime(prime)
        for _ in range(MAX_REDRAWS):
            a4 = int(rng.integers(0, p))
            a6 = int(rng.integers(0, p))
            if (4 * pow(a4, 3, p) + 27 * a6 * a6) % p != 0:
                return cls(a4, a6, p)
        raise GenericityExhaustedError("could not draw a nonsingular cubic")


def pole_order_basis(n: int) -> list[tuple[int, int]]:
    """Exponents (i, j) of the functions x^i y^j with pole order 2i+3j <= n.

    Sorted by pole order, giving the classical ladder 1, x, y, x^2, xy, ...
    For n >= 3 there are exactly n of them.
    """
    if n < 3:
        raise ValueError(f"need pole order >= 3, got {n}")
    basis = [(i, 0) for i in range(n // 2 + 1)]
    basis += [(j, 1) for j in range((n - 3) // 2 + 1)]
    basis.sort(key=lambda e: 2 * e[0] + 3 * e[1])
    return basis


def _quadric_kernel(
    ring: GradedRing, product: Callable[[int, int], np.ndarray]
) -> Subspace:
    """Quadrics sum c_m Z_u Z_v with sum c_m f_u f_v = 0, for Z_u -> f_u.

    ``product(u, v)`` gives f_u * f_v in a fixed basis of the target space;
    the kernel of Sym^2 H^0(L) -> H^0(L^2) is the exact quadric ideal.
    """
    variables = np.arange(ring.num_vars)
    rows = [product(*np.repeat(variables, e)) for e in ring.exponents(2)]
    return kernel_basis(np.array(rows, dtype=np.int64).T, ring.prime)


# -- elliptic normal curves and cones ----------------------------------------


def elliptic_normal_ideal(n: int, curve: WeierstrassCurve) -> Subspace:
    """Quadrics through the degree-n elliptic normal curve in P^{n-1}.

    There are n(n-3)/2 of them, none for the plane cubic n = 3.
    """
    if n < 3:
        raise ValueError(f"degree must be >= 3, got {n}")
    basis = pole_order_basis(n)
    target = {e: k for k, e in enumerate(pole_order_basis(2 * n))}

    def product(u: int, v: int) -> np.ndarray:
        i = basis[u][0] + basis[v][0]
        j = basis[u][1] + basis[v][1]
        row = np.zeros(len(target), dtype=np.int64)
        if j < 2:
            row[target[(i, j)]] = 1
        else:  # x^i y^2 = x^(i+3) + a4 x^(i+1) + a6 x^i
            row[[target[(i + 3, 0)], target[(i + 1, 0)], target[(i, 0)]]] = (
                1,
                curve.a4,
                curve.a6,
            )
        return row

    quadrics = _quadric_kernel(GradedRing(n, curve.prime), product)
    expected = n * (n - 3) // 2
    if quadrics.dim != expected:
        raise ModelInconsistencyError(
            f"degree-{n} elliptic embedding gave {quadrics.dim} quadrics, expected {expected}"
        )
    return quadrics


def _cone_quadrics(genus: int, curve: WeierstrassCurve) -> Subspace:
    """Quadrics of the cone in P^{g-1} with vertex (1:0:...:0) over the
    degree-(g-1) elliptic normal curve: its quadrics in Z_1..Z_{g-1} become
    quadrics in Z_2..Z_g.  There are (g-1)(g-4)/2 = C(g-2, 2) - 1."""
    if genus < 6:
        raise ValueError(f"cone surfaces need genus >= 6, got {genus}")
    small, big = GradedRing(genus - 1, curve.prime), GradedRing(genus, curve.prime)
    col_map = [big.index_of([0] + [int(x) for x in e]) for e in small.exponents(2)]
    base = elliptic_normal_ideal(genus - 1, curve)
    rows = np.zeros((base.dim, big.dim(2)), dtype=np.int64)
    rows[:, col_map] = base.basis
    return Subspace.from_rows(rows, big.dim(2), big.prime)


def bielliptic_curve(genus: int, seed: int, prime: int = DEFAULT_PRIME) -> CurveModel:
    """Bielliptic canonical curve: quadric section of an elliptic cone.

    The extra quadric is drawn with nonzero vertex value, so the curve
    misses the vertex and the double cover onto the elliptic curve is the
    cone's ruling.
    """
    p = check_prime(prime)
    rng = np.random.default_rng(seed)
    curve = WeierstrassCurve.random(p, rng)
    surface = _cone_quadrics(genus, curve)
    ring = GradedRing(genus, p)
    vertex_sq = ring.index_of([2] + [0] * (genus - 1))
    for _ in range(MAX_REDRAWS):
        quad = rng.integers(0, p, size=ring.dim(2), dtype=np.int64)
        if quad[vertex_sq] != 0:
            break
    else:
        raise GenericityExhaustedError(
            "every drawn quadric vanished at the cone vertex"
        )
    quadrics = surface.sum(Subspace.from_rows(quad, ring.dim(2), p))
    if quadrics.dim != comb(genus - 2, 2):
        raise ModelInconsistencyError(
            f"bielliptic ideal has dim {quadrics.dim}, expected {comb(genus - 2, 2)}"
        )
    return CurveModel(
        family=BIELLIPTIC,
        genus=genus,
        prime=p,
        seed=int(seed),
        quadrics=quadrics,
        surface_quadrics=surface,
        params={"a4": curve.a4, "a6": curve.a6},
    )


# -- Del Pezzo and Veronese surfaces ------------------------------------------


def _plane_cubic_basis(
    base_points: np.ndarray, ring3: GradedRing
) -> Optional[Subspace]:
    """Cubics through the base points, or None unless each point imposes
    one condition (general position: kernel dimension 10 - #points)."""
    cubics = kernel_basis(ring3.evaluate_monomials(3, base_points), ring3.prime)
    return cubics if cubics.dim == ring3.dim(3) - len(base_points) else None


def _delpezzo_surface_rng(
    genus: int, prime: int, rng: np.random.Generator
) -> tuple[Subspace, np.ndarray]:
    """(quadrics, base points) of the image of the plane under the cubics
    through 10-g general base points.

    Degree g-1 in P^{g-1}: an honest Del Pezzo for g in 6..9 and the cubic
    Veronese embedding of the whole plane at g = 10.  The cubic basis is the
    surface's coordinate functions.
    """
    if not 6 <= genus <= 10:
        raise ValueError(f"plane-cubic surfaces exist for genus 6..10, got {genus}")
    ring3 = GradedRing(3, prime)
    n_base = 10 - genus
    cubics: Optional[Subspace] = None
    base = np.zeros((0, 3), dtype=np.int64)
    for _ in range(MAX_REDRAWS):
        base = np.hstack(
            [
                rng.integers(0, prime, size=(n_base, 2), dtype=np.int64),
                np.ones((n_base, 1), dtype=np.int64),
            ]
        )
        cubics = _plane_cubic_basis(base, ring3)
        if cubics is not None:
            break
    if cubics is None:
        raise GenericityExhaustedError(
            f"no general position after {MAX_REDRAWS} draws of {n_base} plane points"
        )
    assert cubics.dim == genus

    table = ring3.product_table(3, 3)

    def product(u: int, v: int) -> np.ndarray:
        sextic = np.zeros(ring3.dim(6), dtype=np.int64)
        # at most 100 products per coefficient, each below p^2 < 2^50:
        # the sums stay far inside int64
        np.add.at(sextic, table, np.outer(cubics.basis[u], cubics.basis[v]))
        return sextic % prime

    quadrics = _quadric_kernel(GradedRing(genus, prime), product)
    if quadrics.dim != comb(genus - 2, 2) - 1:
        raise ModelInconsistencyError(
            f"surface ideal has dim {quadrics.dim}, expected {comb(genus - 2, 2) - 1}"
        )
    return quadrics, base


def delpezzo_curve(genus: int, seed: int, prime: int = DEFAULT_PRIME) -> CurveModel:
    """Canonical curve cut on a plane-cubic surface by one extra quadric."""
    p = check_prime(prime)
    rng = np.random.default_rng(seed)
    surface, base = _delpezzo_surface_rng(genus, p, rng)
    ring_g = GradedRing(genus, p)
    for _ in range(MAX_REDRAWS):
        quad = rng.integers(0, p, size=ring_g.dim(2), dtype=np.int64)
        if not surface.contains(quad):
            break
    else:
        raise GenericityExhaustedError("drawn quadrics all contained the surface ideal")
    quadrics = surface.sum(Subspace.from_rows(quad, ring_g.dim(2), p))
    if quadrics.dim != comb(genus - 2, 2):
        raise ModelInconsistencyError(
            f"curve ideal has dim {quadrics.dim}, expected {comb(genus - 2, 2)}"
        )
    family = VERONESE if genus == 10 else DELPEZZO
    return CurveModel(
        family=family,
        genus=genus,
        prime=p,
        seed=int(seed),
        quadrics=quadrics,
        surface_quadrics=surface,
        params={"base_points": [[int(c) for c in row] for row in base]},
    )


# -- genus 5 ------------------------------------------------------------------


def genus5_intersection(seed: int, prime: int = DEFAULT_PRIME) -> CurveModel:
    """General genus-5 canonical curve: three random quadrics in P^4."""
    p = check_prime(prime)
    rng = np.random.default_rng(seed)
    ring = GradedRing(5, p)
    for _ in range(MAX_REDRAWS):
        rows = rng.integers(0, p, size=(3, ring.dim(2)), dtype=np.int64)
        quadrics = Subspace.from_rows(rows, ring.dim(2), p)
        if quadrics.dim == 3:
            return CurveModel(
                family=GENUS5,
                genus=5,
                prime=p,
                seed=int(seed),
                quadrics=quadrics,
                surface_quadrics=None,
                params={},
            )
    raise GenericityExhaustedError("three random quadrics were dependent repeatedly")
