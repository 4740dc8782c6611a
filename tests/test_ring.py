from __future__ import annotations

from math import comb

import numpy as np
import pytest

from syzlab.errors import UnsupportedDegreeError
from syzlab.linalg import Subspace
from syzlab.ring import GradedRing
from oracles import oracle_eval_quadric
from scroll_helpers import multiply, variable, vector

P = 10007


def test_monomial_order_three_vars_degree_two():
    # leading variable first: Z1^2, Z1Z2, Z2^2, Z1Z3, Z2Z3, Z3^2
    ring = GradedRing(3, P)
    expected = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert [tuple(int(x) for x in e) for e in ring.exponents(2)] == expected


def test_dimensions_match_binomials():
    ring = GradedRing(6, P)
    for d in range(5):
        assert ring.dim(d) == comb(6 + d - 1, d)
        assert len(ring.exponents(d)) == ring.dim(d)


def test_index_of_round_trip():
    ring = GradedRing(5, P)
    for idx, e in enumerate(ring.exponents(3)):
        assert ring.index_of(e) == idx


def test_multiply_simple_identity():
    # (Z1 + Z2)(Z1 - Z2) = Z1^2 - Z2^2
    ring = GradedRing(4, P)
    f = variable(ring, 0)
    h = variable(ring, 1)
    plus = vector(ring, 1, (f.coeffs + h.coeffs) % P)
    minus = vector(ring, 1, (f.coeffs - h.coeffs) % P)
    prod = multiply(ring, plus, minus)
    want = np.zeros(ring.dim(2), dtype=np.int64)
    want[ring.index_of((2, 0, 0, 0))] = 1
    want[ring.index_of((0, 2, 0, 0))] = P - 1
    assert np.array_equal(prod.coeffs, want)


def test_multiply_is_evaluation_homomorphism():
    rng = np.random.default_rng(10)
    ring = GradedRing(5, P)
    pts = rng.integers(0, P, size=(8, 5))
    for _ in range(10):
        f = vector(ring, 1, rng.integers(0, P, size=ring.dim(1)))
        h = vector(ring, 2, rng.integers(0, P, size=ring.dim(2)))
        fh = multiply(ring, f, h)
        lhs = ring.evaluate_monomials(3, pts) @ fh.coeffs % P
        rhs = (ring.evaluate_monomials(1, pts) @ f.coeffs % P) * (
            ring.evaluate_monomials(2, pts) @ h.coeffs % P
        ) % P
        assert np.array_equal(lhs, rhs)


def test_evaluate_matches_naive_oracle():
    rng = np.random.default_rng(11)
    ring = GradedRing(4, P)
    coeffs = rng.integers(0, P, size=ring.dim(2))
    pts = rng.integers(0, P, size=(6, 4))
    vals = ring.evaluate_monomials(2, pts) @ coeffs % P
    for row, want in zip(pts, vals):
        assert oracle_eval_quadric(coeffs, ring.exponents(2), row, P) == int(want)


def test_product_table_agrees_with_index_of():
    ring = GradedRing(4, P)
    table = ring.product_table(1, 2)
    for v in range(4):
        for j, e in enumerate(ring.exponents(2)):
            target = list(int(x) for x in e)
            target[v] += 1
            assert int(table[v, j]) == ring.index_of(target)


def test_tables_are_shared_across_primes_and_read_only():
    a, b = GradedRing(5, 7), GradedRing(5, P)
    assert a.product_table(1, 2) is b.product_table(1, 2)
    assert a.exponents(3) is b.exponents(3)
    with pytest.raises(ValueError):
        a.product_table(1, 2)[0, 0] = 0


def test_multiplication_matrix_encodes_syzygies():
    # c . mat = 0 exactly when sum_v Z_v q_v = 0 for the encoded rows
    rng = np.random.default_rng(12)
    ring = GradedRing(4, P)
    rows = rng.integers(0, P, size=(2, ring.dim(2)))
    quadrics = Subspace.from_rows(rows, ring.dim(2), P)
    mat = ring.multiplication_matrix(quadrics)
    assert mat.shape == (4 * quadrics.dim, ring.dim(3))
    gamma = rng.integers(0, P, size=4 * quadrics.dim)
    direct = np.zeros(ring.dim(3), dtype=np.int64)
    for v in range(4):
        for r in range(quadrics.dim):
            scaled = gamma[v * quadrics.dim + r] * quadrics.basis[r] % P
            product = multiply(ring, variable(ring, v), vector(ring, 2, scaled))
            direct = (direct + product.coeffs) % P
    assert np.array_equal(gamma @ mat % P, direct)


def test_ideal_piece_degrees_and_limits():
    rng = np.random.default_rng(13)
    ring = GradedRing(5, P)
    rows = rng.integers(0, P, size=(3, ring.dim(2)))
    quadrics = Subspace.from_rows(rows, ring.dim(2), P)
    assert ring.ideal_piece(quadrics, 2) == quadrics
    d3 = ring.ideal_piece(quadrics, 3)
    # generic quadrics: the 5*3 products are independent in degree 3
    assert d3.dim == 15
    with pytest.raises(UnsupportedDegreeError):
        ring.ideal_piece(quadrics, 5)
    with pytest.raises(UnsupportedDegreeError):
        ring.ideal_piece(quadrics, 1)


def test_ideal_piece_contains_products():
    rng = np.random.default_rng(14)
    ring = GradedRing(4, P)
    rows = rng.integers(0, P, size=(2, ring.dim(2)))
    quadrics = Subspace.from_rows(rows, ring.dim(2), P)
    cubic = multiply(ring, variable(ring, 2), vector(ring, 2, quadrics.basis[0]))
    assert ring.ideal_piece(quadrics, 3).contains(cubic.coeffs)
    quartic = multiply(ring, vector(ring, 2, quadrics.basis[1]), vector(ring, 2, quadrics.basis[0]))
    assert ring.ideal_piece(quadrics, 4).contains(quartic.coeffs)


def test_empty_quadric_space_gives_empty_ideal():
    ring = GradedRing(4, P)
    zero = Subspace.zero(ring.dim(2), P)
    assert ring.ideal_piece(zero, 3).dim == 0
    assert ring.multiplication_matrix(zero).shape == (0, ring.dim(3))
