"""Univariate helpers over GF(p): modular square roots and root finding.

Polynomials are plain Python lists of canonical residues in ascending
degree order with no trailing zeros.  Degrees stay tiny (<= 4 in every
caller), so clarity beats asymptotics here.
"""

from __future__ import annotations

import numpy as np

from .linalg import inverse_mod


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


def peval(f: list[int], u: int, p: int) -> int:
    """f(u) mod p by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = (acc * u + c) % p
    return acc


def pmul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


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
    """base**e modulo the polynomial ``mod``."""
    result = [1]
    acc = pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = pdivmod(pmul(result, acc, p), mod, p)[1]
        acc = pdivmod(pmul(acc, acc, p), mod, p)[1]
        e >>= 1
    return result


def roots(f, p: int, rng: np.random.Generator) -> list[int]:
    """Distinct roots of f in GF(p), sorted ascending.

    Splits off the product of distinct linear factors with gcd(f, X^p - X),
    then factors it by equal-degree splitting; the rng only affects the
    internal splitting choices, never the result.
    """
    f = trim([int(c) % p for c in f])
    if len(f) <= 1:
        # zero or constant: no well-defined finite root set worth reporting
        return []
    xp = ppow_mod([0, 1], p, f, p)
    xp_minus_x = [(a - b) % p for a, b in zip_pad(xp, [0, 1])]
    lin = pgcd(f, xp_minus_x, p)
    out: list[int] = []
    _split_linear(lin, p, rng, out)
    return sorted(out)


def zip_pad(a: list[int], b: list[int]) -> list[tuple[int, int]]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)]


def _split_linear(g: list[int], p: int, rng: np.random.Generator, out: list[int]) -> None:
    g = trim(g)
    if len(g) <= 1:
        return
    if len(g) == 2:
        out.append((-g[0]) * inverse_mod(g[1], p) % p)
        return
    if len(g) == 3:
        a, b, c = g[2], g[1], g[0]
        disc = (b * b - 4 * a * c) % p
        s = sqrt_mod(disc, p)
        if s is None:
            return
        inv2a = inverse_mod(2 * a, p)
        out.append((-b + s) * inv2a % p)
        out.append((-b - s) * inv2a % p)
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
