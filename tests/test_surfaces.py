from __future__ import annotations

import re
from math import comb

import numpy as np
import pytest

from oracles import (
    contains_space,
    oracle_cone_points,
    oracle_elliptic_points,
    oracle_ladder_embedding,
    oracle_plane_images,
    oracle_solve_membership,
    oracle_weierstrass_points,
    oracle_zeros,
)
from scroll_helpers import multiply, vector

from syzlab.harness import construct_model
from syzlab.koszul import classify_theorem
from syzlab.linalg import DEFAULT_PRIME, kernel_basis
from syzlab.models import DELPEZZO, VERONESE
from syzlab.ring import GradedRing
from syzlab.scroll import ScrollFrame, fourgonal_curve
from syzlab.surfaces import (
    WeierstrassCurve,
    _quadric_kernel,
    bielliptic_curve,
    delpezzo_curve,
    elliptic_normal_ideal,
    genus5_intersection,
    pole_order_basis,
)

P = DEFAULT_PRIME
SMALL_PRIMES = (7, 11, 13)


def _extra_quadric(model) -> list[int]:
    """A curve quadric outside the surface ideal: on the surface it cuts
    out the curve."""
    surface = [[int(c) for c in row] for row in model.surface_quadrics.basis]
    rows = ([int(c) for c in row] for row in model.quadrics.basis)
    return next(row for row in rows if not oracle_solve_membership(surface, row, model.prime))


def _check_brute_force_points(model, candidates) -> None:
    """Every surface quadric vanishes at every candidate point of the
    surface; some candidates lie on the extra quadric, and every stored
    quadric vanishes at each of those."""
    p = model.prime
    exps = GradedRing(model.genus, p).exponents(2)
    assert oracle_zeros(model.surface_quadrics.basis, exps, candidates, p) == candidates
    pts = oracle_zeros([_extra_quadric(model)], exps, candidates, p)
    assert pts, f"no GF({p})-point on {model.family} g={model.genus} seed={model.seed}"
    assert oracle_zeros(model.quadrics.basis, exps, pts, p) == pts


def test_weierstrass_rejects_singular_cubics():
    # 4*a4^3 + 27*a6^2 = 0 picks out the cuspidal/nodal cases
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, P)
    with pytest.raises(ValueError):
        WeierstrassCurve(-3, 2, P)  # discriminant 4*(-27) + 27*4 = 0
    curve = WeierstrassCurve(1, 1, P)
    assert curve.discriminant == 31


def test_weierstrass_points_satisfy_the_equation():
    # every affine point, found by trying every x: each satisfies the
    # equation, with the point at infinity they obey the Hasse bound
    # |#E - (p + 1)| <= 2 sqrt(p), and they contain the random sampler's
    rng = np.random.default_rng(50)
    for p in (7, 11, 13, 101):
        curve = WeierstrassCurve.random(p, rng)
        pts = oracle_elliptic_points(curve.a4, curve.a6, p)
        assert len(set(pts)) == len(pts)
        assert all((y * y - x**3 - curve.a4 * x - curve.a6) % p == 0 for x, y in pts)
        assert (len(pts) + 1 - (p + 1)) ** 2 <= 4 * p
        if p % 4 == 3:
            assert set(oracle_weierstrass_points(curve.a4, curve.a6, p, 6, seed=p)) <= set(pts)


def test_pole_order_basis_counts():
    # Riemann-Roch: n independent functions with pole order <= n at infinity
    assert pole_order_basis(3) == [(0, 0), (1, 0), (0, 1)]
    for n in range(3, 13):
        basis = pole_order_basis(n)
        assert len(basis) == n
        assert all(2 * i + 3 * j <= n for i, j in basis)


def test_embed_points_monomial_consistency():
    # the ladder 1, x, y, x^2, xy, x^3 embeds E in P^5, where the Weierstrass
    # equation Z3^2 = Z1 Z6 + a4 Z1 Z2 + a6 Z1^2 is one of its quadrics
    curve = WeierstrassCurve.random(P, np.random.default_rng(51))
    ladder = pole_order_basis(6)
    assert ladder == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]
    affine = oracle_weierstrass_points(curve.a4, curve.a6, P, 5, seed=51)
    emb = oracle_ladder_embedding(affine, ladder, P)
    assert [row[:3] for row in emb] == [[1, x, y] for x, y in affine]
    ring = GradedRing(6, P)
    weierstrass = np.zeros(ring.dim(2), dtype=np.int64)
    for exps, c in [
        ((0, 0, 2, 0, 0, 0), 1),
        ((1, 0, 0, 0, 0, 1), -1),
        ((1, 1, 0, 0, 0, 0), -curve.a4),
        ((2, 0, 0, 0, 0, 0), -curve.a6),
    ]:
        weierstrass[ring.index_of(exps)] = c % P
    assert oracle_zeros([weierstrass], ring.exponents(2), emb, P) == emb
    assert elliptic_normal_ideal(6, curve).contains(weierstrass)


def test_elliptic_normal_ideal_dimensions():
    rng = np.random.default_rng(53)
    curve = WeierstrassCurve.random(P, rng)
    for n in (4, 5, 6, 8):
        quadrics = elliptic_normal_ideal(n, curve)
        assert quadrics.dim == n * (n - 3) // 2
        affine = oracle_weierstrass_points(curve.a4, curve.a6, P, 24, seed=53 + n)
        pts = oracle_ladder_embedding(affine, pole_order_basis(n), P)
        ring = GradedRing(n, P)
        vals = ring.evaluate_monomials(2, pts) @ quadrics.basis.T % P
        assert not vals.any()
    with pytest.raises(ValueError):
        elliptic_normal_ideal(2, curve)


def test_elliptic_cone_shape():
    for g in (7, 9, 11):
        model = bielliptic_curve(g, seed=54)
        cone = model.surface_quadrics
        assert cone.dim == comb(g - 2, 2) - 1
        assert cone.ambient_dim == comb(g + 1, 2)
        ring = GradedRing(g, P)
        # the vertex (1:0:...:0) lies on the cone, so no cone quadric involves
        # Z1 at all: they are the elliptic normal curve's quadrics in Z2..Zg
        assert not cone.basis[:, ring.exponents(2)[:, 0] > 0].any()
        curve = WeierstrassCurve(model.params["a4"], model.params["a6"], P)
        affine = oracle_weierstrass_points(curve.a4, curve.a6, P, 8, seed=54 + g)
        base = np.array(oracle_ladder_embedding(affine, pole_order_basis(g - 1), P))
        # ruling closure: points on the lines joining the vertex to E
        lam = np.arange(1, len(base) + 1, dtype=np.int64)[:, None]
        ruled = np.hstack([lam, base])
        vals = ring.evaluate_monomials(2, ruled) @ cone.basis.T % P
        assert not vals.any()


def test_bielliptic_curve_shape():
    for g in (7, 10):
        model = bielliptic_curve(g, seed=55)
        assert model.family == "bielliptic"
        assert model.quadrics.dim == comb(g - 2, 2)
        assert model.surface_quadrics is not None
        assert contains_space(model.quadrics, model.surface_quadrics)
        ring = GradedRing(g, P)
        # the branch quadric is nonzero at the vertex: the curve misses it
        vertex_sq = ring.index_of([2] + [0] * (g - 1))
        assert model.quadrics.basis[:, vertex_sq].any()
    # the cone over every affine point of E, at every small prime and seed
    for p in SMALL_PRIMES:
        for seed in range(3):
            model = bielliptic_curve(7, seed=seed, prime=p)
            ladder = pole_order_basis(6)
            cone = oracle_cone_points(model.params["a4"], model.params["a6"], ladder, p)
            _check_brute_force_points(model, cone)


DELPEZZO_QUADRIC_DIMS = {6: 5, 7: 9, 8: 14, 9: 20, 10: 27}


def _plane_images(base_points, count: int, seed) -> np.ndarray:
    """Images of random affine plane points under the cubics through the
    base points, in the canonical basis order of those cubics."""
    ring3 = GradedRing(3, P)
    base = np.array(base_points, dtype=np.int64).reshape(-1, 3)
    cubics = kernel_basis(ring3.evaluate_monomials(3, base), P)
    rng = np.random.default_rng(seed)
    plane = np.hstack([rng.integers(0, P, size=(count, 2)), np.ones((count, 1), dtype=np.int64)])
    return ring3.evaluate_monomials(3, plane) @ cubics.basis.T % P


def test_delpezzo_surface_dimensions_and_kind():
    for g, want in DELPEZZO_QUADRIC_DIMS.items():
        model = delpezzo_curve(g, seed=57)
        surface = model.surface_quadrics
        assert surface.dim == want == comb(g - 2, 2) - 1
        assert model.family == (VERONESE if g == 10 else DELPEZZO)
        assert len(model.params["base_points"]) == 10 - g
        images = _plane_images(model.params["base_points"], 2 * g, seed=57 + g)
        vals = GradedRing(g, P).evaluate_monomials(2, images) @ surface.basis.T % P
        assert not vals.any()
    with pytest.raises(ValueError):
        delpezzo_curve(11, seed=57)


@pytest.mark.parametrize("build, message", [
    (lambda: bielliptic_curve(5, 0), "bielliptic models have genus 6.., got 5"),
    (lambda: delpezzo_curve(11, 0), "delpezzo models have genus 6..9, got 11"),
    (lambda: delpezzo_curve(5, 0), "delpezzo models have genus 6..9, got 5"),
    (lambda: fourgonal_curve(ScrollFrame((0, 1, 1)), 0, 0, 0),
     "fourgonal models have genus 6.., got 5"),
], ids=["bielliptic-5", "delpezzo-11", "delpezzo-5", "fourgonal-5"])
def test_constructors_refuse_genera_outside_their_family(build, message):
    # each family's genera are written once, in models.GENERA
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("prime", [7, 101, 33554393])
def test_plane_cubic_surface_is_the_kernel_of_cubic_products(prime):
    # the constructor's product-table gather against the term-by-term
    # product, up to the largest allowed prime
    ring3 = GradedRing(3, prime)
    for g in range(6, 11):
        model = delpezzo_curve(g, seed=g, prime=prime)
        base = np.array(model.params["base_points"], dtype=np.int64).reshape(-1, 3)
        cubics = kernel_basis(ring3.evaluate_monomials(3, base), prime).basis
        cubic = [vector(ring3, 3, row) for row in cubics]
        want = _quadric_kernel(
            GradedRing(g, prime), lambda u, v: multiply(ring3, cubic[u], cubic[v]).coeffs
        )
        assert model.surface_quadrics == want


def test_delpezzo_curve_shape():
    for g in (6, 8, 10):
        model = delpezzo_curve(g, seed=58)
        assert model.family == (VERONESE if g == 10 else "delpezzo")
        assert model.quadrics.dim == comb(g - 2, 2)
        assert model.surface_quadrics is not None
        assert model.surface_quadrics.dim == comb(g - 2, 2) - 1
        assert contains_space(model.quadrics, model.surface_quadrics)
    # every plane point off the base points, mapped by the cubics through them
    for g in (7, 10):
        for p in SMALL_PRIMES:
            for seed in range(3):
                model = delpezzo_curve(g, seed=seed, prime=p)
                cubics = GradedRing(3, p).exponents(3)
                images = oracle_plane_images(model.params["base_points"], cubics, p)
                _check_brute_force_points(model, images)


def test_delpezzo_curve_and_surface_share_the_surface():
    # the stored base points pin the surface: the quadrics through enough of
    # its points are exactly the stored surface quadrics
    model = delpezzo_curve(8, seed=59)
    ring = GradedRing(8, P)
    images = _plane_images(model.params["base_points"], 3 * ring.dim(2), seed=59)
    assert kernel_basis(ring.evaluate_monomials(2, images), P) == model.surface_quadrics
    assert delpezzo_curve(8, seed=59).params == model.params


def test_genus5_intersection_shape():
    model = genus5_intersection(seed=60)
    assert model.family == "genus5"
    assert model.genus == 5
    assert model.quadrics.dim == 3
    assert model.quadrics.ambient_dim == comb(6, 2)
    # a generic complete intersection carries no preferred surface
    assert model.surface_quadrics is None


def test_constructions_are_seed_deterministic():
    assert bielliptic_curve(7, seed=61).quadrics == bielliptic_curve(7, seed=61).quadrics
    assert delpezzo_curve(7, seed=61).quadrics == delpezzo_curve(7, seed=61).quadrics
    assert genus5_intersection(seed=61).quadrics == genus5_intersection(seed=61).quadrics
    assert not (bielliptic_curve(7, seed=61).quadrics == bielliptic_curve(7, seed=62).quadrics)


@pytest.mark.parametrize("prime", [3, 5, 7, 11, 13, 31, 101])
@pytest.mark.parametrize(
    "family, genus",
    [("bielliptic", 7), ("bielliptic", 9), ("delpezzo", 6), ("delpezzo", 8), ("veronese", 10)],
)
def test_surface_families_over_small_primes(family, genus, prime):
    # few GF(p)-points exist here; the exact ideals do not depend on them
    model = construct_model(family, genus=genus, prime=prime, seed=0)
    assert classify_theorem(model)["passed"]
