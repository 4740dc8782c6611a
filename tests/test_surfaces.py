from __future__ import annotations

from math import comb

import numpy as np
import pytest

from oracles import oracle_eval_quadric, oracle_projective_classes

from syzlab.harness import construct_model
from syzlab.koszul import classify_theorem
from syzlab.linalg import DEFAULT_PRIME
from syzlab.models import VERONESE
from syzlab.ring import GradedRing
from syzlab.surfaces import (
    KIND_DELPEZZO,
    KIND_ELLIPTIC_CONE,
    KIND_VERONESE,
    WeierstrassCurve,
    bielliptic_curve,
    delpezzo_curve,
    delpezzo_surface,
    elliptic_cone,
    elliptic_normal_ideal,
    embed_points,
    genus5_intersection,
    pole_order_basis,
    weierstrass_points,
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
    rng = np.random.default_rng(50)
    curve = WeierstrassCurve.random(P, rng)
    pts = weierstrass_points(curve, 40, rng)
    assert pts.shape == (40, 2)
    assert len({tuple(q) for q in pts.tolist()}) == 40
    x, y = pts[:, 0], pts[:, 1]
    lhs = y * y % P
    rhs = (pow(x, 3) + curve.a4 * x + curve.a6) % P
    assert np.array_equal(lhs % P, rhs)


def test_pole_order_basis_counts():
    # Riemann-Roch: n independent functions with pole order <= n at infinity
    assert pole_order_basis(3) == [(0, 0), (1, 0), (0, 1)]
    for n in range(3, 13):
        basis = pole_order_basis(n)
        assert len(basis) == n
        assert all(2 * i + 3 * j <= n for i, j in basis)


def test_embed_points_monomial_consistency():
    rng = np.random.default_rng(51)
    curve = WeierstrassCurve.random(P, rng)
    affine = weierstrass_points(curve, 5, rng)
    emb = embed_points(curve, 6, affine)
    basis = pole_order_basis(6)
    for row, (x, y) in zip(emb, affine.tolist()):
        for col, (i, j) in enumerate(basis):
            assert int(row[col]) == pow(x, i, P) * pow(y, j, P) % P


def test_elliptic_normal_ideal_dimensions():
    rng = np.random.default_rng(53)
    curve = WeierstrassCurve.random(P, rng)
    for n in (4, 5, 6, 8):
        quadrics, pts = elliptic_normal_ideal(n, curve, seed=53 + n)
        assert quadrics.dim == n * (n - 3) // 2
        ring = GradedRing(n, P)
        vals = ring.evaluate_monomials(2, pts) @ quadrics.basis.T % P
        assert not vals.any()
    with pytest.raises(ValueError):
        elliptic_normal_ideal(2, curve, seed=0)


def test_elliptic_cone_shape():
    for g in (7, 9, 11):
        surface = elliptic_cone(g, seed=54)
        assert surface.kind == KIND_ELLIPTIC_CONE
        assert surface.quadrics.dim == comb(g - 2, 2) - 1
        assert surface.quadrics.ambient_dim == comb(g + 1, 2)
        ring = GradedRing(g, P)
        # the vertex (1:0:...:0) lies on the cone, so no quadric sees Z1^2
        vertex_sq = ring.index_of([2] + [0] * (g - 1))
        assert not surface.quadrics.basis[:, vertex_sq].any()
        vertex = np.zeros(g, dtype=np.int64)
        vertex[0] = 1
        vals = ring.evaluate_monomials(2, vertex[None, :]) @ surface.quadrics.basis.T % P
        assert not vals.any()
        # ruling closure: points on the lines joining vertex to the base curve
        assert surface.sample_points is not None
        vals = ring.evaluate_monomials(2, surface.sample_points) @ surface.quadrics.basis.T % P
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


def test_bielliptic_accepts_explicit_curve():
    curve = WeierstrassCurve(1, 1, P)
    model = bielliptic_curve(8, seed=56, curve=curve)
    assert model.params["a4"] == 1 and model.params["a6"] == 1
    assert model.quadrics.dim == comb(6, 2)


DELPEZZO_QUADRIC_DIMS = {6: 5, 7: 9, 8: 14, 9: 20, 10: 27}


def test_delpezzo_surface_dimensions_and_kind():
    for g, want in DELPEZZO_QUADRIC_DIMS.items():
        surface = delpezzo_surface(g, seed=57)
        assert surface.quadrics.dim == want == comb(g - 2, 2) - 1
        assert surface.kind == (KIND_VERONESE if g == 10 else KIND_DELPEZZO)
        ring = GradedRing(g, P)
        vals = ring.evaluate_monomials(2, surface.sample_points) @ surface.quadrics.basis.T % P
        assert not vals.any()
    with pytest.raises(ValueError):
        delpezzo_surface(11, seed=57)


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
    # same seed => same base points => identical surface quadrics
    model = delpezzo_curve(8, seed=59)
    surface = delpezzo_surface(8, seed=59)
    assert model.surface_quadrics == surface.quadrics
    assert model.params["base_points"] == surface.params["base_points"]


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
