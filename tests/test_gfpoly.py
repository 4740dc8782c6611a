from __future__ import annotations

import numpy as np

import pytest

from syzlab.gfpoly import (
    WITNESS_DRAWS,
    _collect_points,
    _quadric_points,
    _restrict_quadric,
    legendre,
    pdivmod,
    pgcd,
    ppow_mod,
    roots,
    sqrt_mod,
)
from oracles import oracle_pmul, oracle_ppow_mod

P = 1000003


def test_sqrt_mod_round_trip_on_squares():
    rng = np.random.default_rng(20)
    for _ in range(40):
        x = int(rng.integers(1, P))
        r = sqrt_mod(x * x % P, P)
        assert r is not None and (r == x or r == P - x)
    assert sqrt_mod(0, P) == 0


def test_sqrt_mod_rejects_non_residues():
    rng = np.random.default_rng(21)
    seen_none = 0
    for _ in range(40):
        x = int(rng.integers(2, P))
        if legendre(x, P) == P - 1:
            assert sqrt_mod(x, P) is None
            seen_none += 1
    assert seen_none > 0  # about half the draws


def test_pmul_pdivmod_consistency():
    rng = np.random.default_rng(22)
    for _ in range(20):
        f = [int(c) for c in rng.integers(0, P, size=6)]
        g = [int(c) for c in rng.integers(0, P, size=4)]
        if g[-1] == 0:
            g[-1] = 1
        q, r = pdivmod(f, g, P)
        back = [x % P for x in np.polynomial.polynomial.polyadd(oracle_pmul(q, g, P), r) % P]
        want = f[:]
        while want and want[-1] == 0:
            want.pop()
        got = back[:]
        while got and got[-1] == 0:
            got.pop()
        assert got == want


def test_roots_recovers_linear_factors():
    rng = np.random.default_rng(23)
    for _ in range(15):
        rts = sorted({int(r) for r in rng.integers(0, P, size=4)})
        poly = [1]
        for r in rts:
            poly = oracle_pmul(poly, [(-r) % P, 1], P)
        got = sorted(roots(poly, P, rng))
        assert got == rts


def test_roots_with_multiplicity_and_irreducible_part():
    rng = np.random.default_rng(24)
    # (x - 5)^2 * (x^2 + 1); p = 3 mod 4 makes x^2 + 1 irreducible
    p = 1000003
    assert p % 4 == 3
    poly = oracle_pmul(oracle_pmul([(-5) % p, 1], [(-5) % p, 1], p), [1, 0, 1], p)
    assert roots(poly, p, rng) == [5]
    assert roots([1, 0, 1], p, rng) == []


def test_gcd_of_shared_factor():
    rng = np.random.default_rng(25)
    shared = [(-7) % P, 1]
    f = oracle_pmul(shared, [3, 1], P)
    g = oracle_pmul(shared, [11, 0, 1], P)
    assert pgcd(f, g, P) == shared  # pgcd returns the monic gcd


def _value(f, u, p):
    return sum(int(c) * pow(u, k, p) for k, c in enumerate(f)) % p


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_roots_match_a_brute_force_scan(p):
    rng = np.random.default_rng(26 + p)
    polys = [[(-5) % p, 1], oracle_pmul([(-5) % p, 1], [(-5) % p, 1], p), [0, 0, 1]]
    for degree in range(7):
        for _ in range(25):
            f = [int(c) for c in rng.integers(0, p, size=degree + 1)]
            f[-1] = f[-1] or 1
            polys.append(f)
    for f in polys:
        want = [u for u in range(p) if _value(f, u, p) == 0]
        assert roots(f, p, rng) == want, f


def test_lone_double_root_is_reported_once():
    rng = np.random.default_rng(27)
    for p in (7, 101):
        assert roots(oracle_pmul([(-5) % p, 1], [(-5) % p, 1], p), p, rng) == [5 % p]


@pytest.mark.parametrize("p", [3, 7, 101, 1000003, 33554393])
def test_ppow_mod_matches_list_square_and_multiply(p):
    rng = np.random.default_rng(30)
    for d in range(1, 7):
        for monic in (True, False):
            mod = [int(c) for c in rng.integers(0, p, size=d + 1)]
            mod[-1] = 1 if monic else int(rng.integers(2, p))
            for base_degree in range(3):
                base = [int(c) for c in rng.integers(0, p, size=base_degree + 1)]
                for e in (0, 1, 2, p, (p - 1) // 2):
                    assert ppow_mod(base, e, mod, p) == oracle_ppow_mod(base, e, mod, p)


def test_roots_at_the_largest_prime():
    p = 33554393
    rng = np.random.default_rng(31)
    non_residue = next(x for x in range(2, p) if legendre(x, p) == p - 1)
    for count in range(1, 6):
        rts = sorted({int(r) for r in rng.integers(0, p, size=count)})
        poly = [p - non_residue, 0, 1]  # X^2 - n has no root mod p
        for r in rts:
            poly = oracle_pmul(poly, [(-r) % p, 1], p)
        assert roots(poly, p, rng) == rts


@pytest.mark.parametrize("p", [7, 101, 1000003])
def test_restricted_quadric_is_the_quadric_along_the_curve(p):
    rng = np.random.default_rng(28)
    for n, d in ((3, 1), (3, 2), (5, 3), (7, 1)):
        form = np.triu(rng.integers(0, p, size=(n, n)))
        coords = rng.integers(0, p, size=(n, d + 1))
        poly = _restrict_quadric(form, coords, p)
        assert len(poly) == 2 * d + 1
        for u in (int(x) for x in rng.integers(0, p, size=5)):
            x = [_value(row, u, p) for row in coords]
            direct = sum(
                int(form[i, j]) * x[i] * x[j] for i in range(n) for j in range(i, n)
            ) % p
            assert _value(poly, u, p) == direct
        for pt in _quadric_points(form, coords, p, rng):
            assert int(pt @ (form @ pt % p) % p) == 0


def test_quadric_points_on_a_curve_inside_the_quadric():
    p = 101
    form = np.zeros((3, 3), dtype=np.int64)
    form[0, 1] = 1  # Z1 * Z2 contains the line Z1 = 0
    line = np.array([[0, 0], [3, 1], [4, 5]])
    assert _quadric_points(form, line, p, np.random.default_rng(29)).tolist() == [[0, 3, 4]]


def _draws(*batches):
    """A draw() that hands out the given (k, n) batches in order, then empties."""
    it = iter(batches)
    return lambda: np.array(next(it, np.zeros((0, 3))), dtype=np.int64).reshape(-1, 3)


def test_collector_keys_on_the_normal_form_and_keeps_the_first_representative():
    p = 7
    # (2, 4, 6) ~ (1, 2, 3) ~ (3, 6, 2); (0, 3, 1) ~ (0, 1, 5)
    draw = _draws([[2, 4, 6], [0, 3, 1]], [[1, 2, 3], [0, 1, 5], [3, 6, 2]], [[5, 1, 1]])
    pts = _collect_points(draw, 5, p)
    assert pts.tolist() == [[2, 4, 6], [0, 3, 1], [5, 1, 1]]


def test_collector_drops_zero_rows_and_caps_the_count():
    p = 101
    draw = _draws([[0, 0, 0], [1, 0, 0]], [[0, 0, 0]], [[0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert _collect_points(draw, 2, p).tolist() == [[1, 0, 0], [0, 1, 0]]
    # a repeat early in a draw does not crowd out a new point behind it
    draw = _draws([[1, 0, 0]], [[2, 0, 0], [0, 1, 0]])
    assert _collect_points(draw, 2, p).tolist() == [[1, 0, 0], [0, 1, 0]]


def test_collector_budget_and_empty_result():
    calls = []

    def draw():
        calls.append(1)
        return np.zeros((1, 4), dtype=np.int64)

    pts = _collect_points(draw, 3, 101)
    assert pts.shape == (0, 4)
    assert len(calls) == WITNESS_DRAWS * 3
