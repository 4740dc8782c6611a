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
from typing import Any, Callable, Optional

import numpy as np

from .errors import ModelInconsistencyError
from .linalg import (
    DEFAULT_PRIME,
    Subspace,
    check_prime,
    kernel_basis,
)
from .models import BIELLIPTIC, DELPEZZO, GENUS5, VERONESE, CurveModel, redraw
from .ring import GradedRing


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

        def draw() -> Optional[WeierstrassCurve]:
            a4 = int(rng.integers(0, p))
            a6 = int(rng.integers(0, p))
            return cls(a4, a6, p) if (4 * pow(a4, 3, p) + 27 * a6 * a6) % p else None

        return redraw(draw, "no nonsingular cubic")


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


def _quadric_section(
    family: str,
    genus: int,
    seed: int,
    rng: np.random.Generator,
    surface: Subspace,
    params: dict[str, Any],
    hits: Callable[[np.ndarray], bool],
) -> CurveModel:
    """The curve cut on the surface by one drawn quadric, redrawn until
    hits(quadric) holds."""
    p, n = surface.prime, surface.ambient_dim

    def draw() -> Optional[np.ndarray]:
        quad = rng.integers(0, p, size=n, dtype=np.int64)
        return quad if hits(quad) else None

    quad = redraw(draw, f"no drawn quadric cut a {family} curve from its surface")
    quadrics = surface.sum(Subspace.from_rows(quad, n, p))
    return CurveModel(family, genus, p, int(seed), quadrics, surface, params)


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
    vertex_sq = GradedRing(genus, p).index_of([2] + [0] * (genus - 1))
    return _quadric_section(BIELLIPTIC, genus, seed, rng, surface,
                            {"a4": curve.a4, "a6": curve.a6}, lambda quad: quad[vertex_sq] != 0)


# -- Del Pezzo and Veronese surfaces ------------------------------------------


def _delpezzo_surface_rng(
    genus: int, prime: int, rng: np.random.Generator
) -> tuple[Subspace, np.ndarray]:
    """(quadrics, base points) of the image of the plane under the cubics
    through 10-g general base points.

    Degree g-1 in P^{g-1}: an honest Del Pezzo for g in 6..9 and the cubic
    Veronese embedding of the whole plane at g = 10.  The cubic basis is the
    surface's coordinate functions; the points are in general position iff
    exactly g cubics pass through them.
    """
    if not 6 <= genus <= 10:
        raise ValueError(f"plane-cubic surfaces exist for genus 6..10, got {genus}")
    ring3 = GradedRing(3, prime)
    n_base = 10 - genus

    def draw() -> Optional[tuple[Subspace, np.ndarray]]:
        base = np.hstack(
            [
                rng.integers(0, prime, size=(n_base, 2), dtype=np.int64),
                np.ones((n_base, 1), dtype=np.int64),
            ]
        )
        cubics = kernel_basis(ring3.evaluate_monomials(3, base), prime)
        return (cubics, base) if cubics.dim == genus else None

    cubics, base = redraw(draw, f"no {n_base} plane points in general position")
    table = ring3.product_table(3, 3)

    def product(u: int, v: int) -> np.ndarray:
        sextic = np.zeros(ring3.dim(6), dtype=np.int64)
        # at most 100 products per coefficient, each below p^2 < 2^50:
        # the sums stay far inside int64
        np.add.at(sextic, table, np.outer(cubics.basis[u], cubics.basis[v]))
        return sextic % prime

    return _quadric_kernel(GradedRing(genus, prime), product), base


def delpezzo_curve(genus: int, seed: int, prime: int = DEFAULT_PRIME) -> CurveModel:
    """Canonical curve cut on a plane-cubic surface by one extra quadric."""
    p = check_prime(prime)
    rng = np.random.default_rng(seed)
    surface, base = _delpezzo_surface_rng(genus, p, rng)
    return _quadric_section(VERONESE if genus == 10 else DELPEZZO, genus, seed, rng, surface,
                            {"base_points": [[int(c) for c in row] for row in base]},
                            lambda quad: not surface.contains(quad))


# -- genus 5 ------------------------------------------------------------------


def genus5_intersection(seed: int, prime: int = DEFAULT_PRIME) -> CurveModel:
    """General genus-5 canonical curve: three random quadrics in P^4."""
    p = check_prime(prime)
    rng = np.random.default_rng(seed)
    n = GradedRing(5, p).dim(2)

    def draw() -> Optional[Subspace]:
        quadrics = Subspace.from_rows(rng.integers(0, p, size=(3, n), dtype=np.int64), n, p)
        return quadrics if quadrics.dim == 3 else None

    quadrics = redraw(draw, "no three independent quadrics")
    return CurveModel(GENUS5, 5, p, int(seed), quadrics)
