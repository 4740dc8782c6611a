from __future__ import annotations

from math import comb

import numpy as np
import pytest

from oracles import oracle_eval_quadric, oracle_projective_classes, oracle_weierstrass_points

from syzlab.gfpoly import legendre
from syzlab.harness import construct_model
from syzlab.koszul import classify_theorem
from syzlab.linalg import DEFAULT_PRIME, kernel_basis
from syzlab.models import DELPEZZO, VERONESE
from syzlab.ring import GradedRing
from syzlab.surfaces import (
    WeierstrassCurve,
    _points_over,
    bielliptic_curve,
    delpezzo_curve,
    elliptic_normal_ideal,
    embed_points,
    genus5_intersection,
    pole_order_basis,
)

P = DEFAULT_PRIME


def test_weierstrass_rejects_singular_cubics():
    # 4*a4^3 + 27*a6^2 = 0 picks out the cuspidal/nodal cases
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, P)
    with pytest.raises(ValueError):
        WeierstrassCurve(-3, 2, P)  # discriminant 4*(-27) + 27*4 = 0
    curve = WeierstrassCurve(1, 1, P)
    assert curve.discriminant == 31


def test_weierstrass_points_satisfy_the_equation():
    # the points over x that bielliptic witnesses rule through: two when
    # x^3 + a4*x + a6 is a nonzero square, one when it is zero, else none
    rng = np.random.default_rng(50)
    for p in (7, 101, P):
        curve = WeierstrassCurve.random(p, rng)
        for x in [int(v) for v in rng.integers(0, p, size=40)] + list(range(min(p, 20))):
            rhs = (x**3 + curve.a4 * x + curve.a6) % p
            pts = _points_over(curve, x)
            assert len(pts) == {0: 1, 1: 2}.get(legendre(rhs, p), 0)
            assert len(set(pts)) == len(pts)
            assert all(px == x and y * y % p == rhs for px, y in pts)


def test_pole_order_basis_counts():
    # Riemann-Roch: n independent functions with pole order <= n at infinity
    assert pole_order_basis(3) == [(0, 0), (1, 0), (0, 1)]
    for n in range(3, 13):
        basis = pole_order_basis(n)
        assert len(basis) == n
        assert all(2 * i + 3 * j <= n for i, j in basis)


def test_embed_points_monomial_consistency():
    curve = WeierstrassCurve.random(P, np.random.default_rng(51))
    affine = oracle_weierstrass_points(curve.a4, curve.a6, P, 5, seed=51)
    emb = embed_points(curve, 6, np.array(affine, dtype=np.int64))
    basis = pole_order_basis(6)
    for row, (x, y) in zip(emb, affine):
        for col, (i, j) in enumerate(basis):
            assert int(row[col]) == pow(x, i, P) * pow(y, j, P) % P


def test_elliptic_normal_ideal_dimensions():
    rng = np.random.default_rng(53)
    curve = WeierstrassCurve.random(P, rng)
    for n in (4, 5, 6, 8):
        quadrics = elliptic_normal_ideal(n, curve)
        assert quadrics.dim == n * (n - 3) // 2
        affine = oracle_weierstrass_points(curve.a4, curve.a6, P, 24, seed=53 + n)
        pts = embed_points(curve, n, np.array(affine, dtype=np.int64))
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
        base = embed_points(curve, g - 1, np.array(affine, dtype=np.int64))
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
        assert model.quadrics.contains_space(model.surface_quadrics)
        ring = GradedRing(g, P)
        # the branch quadric is nonzero at the vertex: the curve misses it
        vertex_sq = ring.index_of([2] + [0] * (g - 1))
        assert model.quadrics.basis[:, vertex_sq].any()
        # rulings through fresh points of E give 24 projectively distinct witnesses
        pts = model.sample_points
        assert pts is not None and len(oracle_projective_classes(pts, P)) == len(pts) == 24
        vals = ring.evaluate_monomials(2, model.sample_points) @ model.quadrics.basis.T % P
        assert not vals.any()
        # spot-check one vanishing statement against the hand-rolled oracle
        for pt in model.sample_points[:3]:
            assert oracle_eval_quadric(
                [int(c) for c in model.quadrics.basis[0]],
                ring.exponents(2),
                [int(x) for x in pt],
                P,
            ) == 0


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


def test_delpezzo_curve_shape():
    for g in (6, 8, 10):
        model = delpezzo_curve(g, seed=58)
        assert model.family == (VERONESE if g == 10 else "delpezzo")
        assert model.quadrics.dim == comb(g - 2, 2)
        assert model.surface_quadrics is not None
        assert model.surface_quadrics.dim == comb(g - 2, 2) - 1
        assert model.quadrics.contains_space(model.surface_quadrics)
        ring = GradedRing(g, P)
        assert model.sample_points is not None and len(model.sample_points) > 0
        vals = ring.evaluate_monomials(2, model.sample_points) @ model.quadrics.basis.T % P
        assert not vals.any()


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
    # a generic complete intersection carries no preferred surface and the
    # classification needs no witness points, so none are stored
    assert model.surface_quadrics is None
    assert model.sample_points is None


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
    # few GF(p)-points exist here; the ideals must not depend on them and
    # whatever witnesses were found must still lie on the curve, each once
    model = construct_model(family, genus=genus, prime=prime, seed=0)
    assert classify_theorem(model).passed
    if model.sample_points is not None:
        ring = GradedRing(genus, prime)
        vals = ring.evaluate_monomials(2, model.sample_points) @ model.quadrics.basis.T
        assert not (vals % prime).any()
        pts = model.sample_points
        assert len(oracle_projective_classes(pts, prime)) == len(pts)
