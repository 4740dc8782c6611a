"""Univariate helpers over GF(p): modular square roots and root finding.

Polynomials are plain Python lists of canonical residues in ascending
degree order with no trailing zeros.  Degrees stay tiny (<= 6 in every
caller).  Root finding's one costly step, base^e modulo f with e ~ p, is
a power of the d x d matrix of multiplication by base (d = deg f), taken
by square-and-multiply on int64 arrays with % p after each product; this
is exact because d * p^2 < 2^63 for every p < linalg.PRIME_BOUND = 2^25.

Witness points of every model come from one recipe: parametrise a rational
curve x(u) on the surface, restrict the extra quadric Q to it and keep the
points at the GF(p)-roots of Q(x(u)).  One collector gathers them: it keeps
projectively distinct points only, at most 24 per model, and stops after
one shared budget of WITNESS_DRAWS draws per requested point.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .linalg import inverse_mod

WITNESS_DRAWS = 12  # draw() calls allowed per requested witness point


def legendre(a: int, p: int) -> int:
    """0 for a = 0, 1 for quadratic residues, p - 1 for non-residues."""
    return pow(a % p, (p - 1) // 2, p)


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p, or None if a is a non-residue (p odd prime)."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def pdivmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    f, g = trim(list(f)), trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(len(f) - len(g) + 1, 0)
    inv = inverse_mod(g[-1], p)
    r = f[:]
    while len(r) >= len(g):
        c = r[-1] * inv % p
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] = (r[i + d] - c * b) % p
        r = trim(r)
    return trim(q), r


def pgcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic greatest common divisor."""
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, pdivmod(f, g, p)[1]
    if f:
        inv = inverse_mod(f[-1], p)
        f = [c * inv % p for c in f]
    return f


def ppow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base**e modulo the polynomial ``mod`` of degree d >= 1.

    M = base(C), C the companion matrix of ``mod``, multiplies residues
    (coefficients of 1, X, .., X^(d-1)) by base; the answer is M^e applied
    to the residue 1.  Each product sums d terms below p^2: d * p^2 < 2^63.
    """
    mod = trim([c % p for c in mod])
    d = len(mod) - 1
    eye = np.eye(d, dtype=np.int64)
    companion = np.eye(d, k=-1, dtype=np.int64)
    inv = inverse_mod(mod[-1], p)
    companion[:, -1] = [(-c) * inv % p for c in mod[:-1]]
    acc = 0 * eye
    for c in reversed(trim([c % p for c in base])):
        acc = (acc @ companion + c * eye) % p
    vec = eye[0]
    while e:
        if e & 1:
            vec = acc @ vec % p
        acc = acc @ acc % p
        e >>= 1
    return trim(vec.tolist())


def roots(f, p: int, rng: np.random.Generator) -> list[int]:
    """Distinct roots of f in GF(p), sorted ascending; none for a constant f.

    Degree <= 2 is solved in closed form.  Above that, gcd(f, X^p - X)
    splits off the product of distinct linear factors, which is factored
    by equal-degree splitting; the rng only affects the internal splitting
    choices, never the result.
    """
    f = trim([int(c) % p for c in f])
    if len(f) > 3:
        xp_minus_x = ppow_mod([0, 1], p, f, p) + [0, 0]
        xp_minus_x[1] = (xp_minus_x[1] - 1) % p
        f = pgcd(f, xp_minus_x, p)
    out: list[int] = []
    _split_linear(f, p, rng, out)
    return sorted(out)


def _split_linear(g: list[int], p: int, rng: np.random.Generator, out: list[int]) -> None:
    """Append the distinct roots of g, which splits into distinct linear
    factors unless its degree is <= 2."""
    g = trim(g)
    if len(g) <= 1:
        return
    if len(g) == 2:
        out.append((-g[0]) * inverse_mod(g[1], p) % p)
        return
    if len(g) == 3:
        c, b, a = g
        s = sqrt_mod(b * b - 4 * a * c, p)
        if s is not None:
            inv2a = inverse_mod(2 * a, p)
            out.extend({(-b + s) * inv2a % p, (-b - s) * inv2a % p})
        return
    for _ in range(80):
        delta = int(rng.integers(0, p))
        h = ppow_mod([delta, 1], (p - 1) // 2, g, p)
        h = trim([(c - 1) % p if i == 0 else c for i, c in enumerate(h)] or [p - 1])
        d = pgcd(g, h, p)
        if 0 < len(d) - 1 < len(g) - 1:
            _split_linear(d, p, rng, out)
            _split_linear(pdivmod(g, d, p)[0], p, rng, out)
            return
    raise RuntimeError("equal-degree splitting failed to converge")


def _restrict_quadric(form: np.ndarray, coords: np.ndarray, p: int) -> list[int]:
    """Coefficients of Q(x(u)), ascending in u, not trimmed.

    ``form`` is the upper-triangular matrix of Q ([i, j] holds the
    coefficient of Z_i Z_j, i <= j), so Q(x) = x^T form x needs no inverse
    of 2.  ``coords`` is the (n, d+1) coefficient array of x(u), entries in
    [0, p); u^k collects the anti-diagonal a + b = k of coords^T form coords.
    """
    gram = (coords.T @ (form @ coords % p) % p).tolist()
    poly = [0] * (2 * len(gram) - 1)
    for a, row in enumerate(gram):
        for b, entry in enumerate(row):
            poly[a + b] += entry
    return [c % p for c in poly]


def _quadric_points(
    form: np.ndarray, coords: np.ndarray, p: int, rng: np.random.Generator
) -> np.ndarray:
    """The points x(u) at the distinct GF(p)-roots u of Q(x(u)), ascending in u.

    Arguments as in _restrict_quadric; returns a (k, n) array.  When Q
    vanishes on the whole curve, every u qualifies and only x(0) is returned.
    """
    poly = _restrict_quadric(form, coords, p)
    if not any(poly):
        return coords[:, :1].T
    us = roots(poly, p, rng)
    if not us:
        return coords[:, :0].T
    powers = np.array([[pow(u, k, p) for k in range(coords.shape[1])] for u in us], dtype=np.int64)
    return powers @ coords.T % p


def _collect_points(draw: Callable[[], np.ndarray], count: int, p: int) -> np.ndarray:
    """Up to count projectively distinct points from repeated draw() calls.

    Each call returns a (k, n) array of candidates.  Zero rows are dropped,
    points are keyed on their normal form (first nonzero entry scaled to 1)
    and the first-drawn representative of each key is kept as is.  Stops at
    count points or after WITNESS_DRAWS * count calls, so the (k, n) result
    may hold fewer points, or none.
    """
    kept: dict[tuple[int, ...], np.ndarray] = {}
    rows = np.zeros((0, 0), dtype=np.int64)
    for _ in range(WITNESS_DRAWS * count):
        if len(kept) >= count:
            break
        rows = draw()
        for pt in rows[rows.any(axis=1)]:
            key = tuple((pt * inverse_mod(int(pt[np.flatnonzero(pt)[0]]), p) % p).tolist())
            if len(kept) < count:
                kept.setdefault(key, pt)
    return np.array(list(kept.values()), dtype=np.int64).reshape(len(kept), rows.shape[1])
