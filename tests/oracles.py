"""Independent reference implementations used only by the test suite.

Deliberately naive and numpy-free so a bug in the vectorized library path
cannot hide in shared code: plain list-of-list Gaussian elimination over
GF(p), a brute-force polynomial evaluator, a sampler of elliptic-curve
points and a parser of the exported ideal text.
"""

from __future__ import annotations

import random


def oracle_rref(rows: list[list[int]], p: int) -> tuple[int, list[list[int]], list[int]]:
    """(rank, reduced rows, pivot columns) by textbook elimination."""
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return 0, [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][col] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % p != 0:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return r, mat[:r], pivots


def oracle_rank(rows: list[list[int]], p: int) -> int:
    return oracle_rref(rows, p)[0]


def oracle_kernel_dim(rows: list[list[int]], p: int) -> int:
    if not rows:
        return 0
    return len(rows[0]) - oracle_rank(rows, p)


def oracle_solve_membership(basis: list[list[int]], vec: list[int], p: int) -> bool:
    """Is vec in the row span of basis?  Decided by a rank comparison."""
    return oracle_rank(basis, p) == oracle_rank(basis + [vec], p)


def oracle_eval_quadric(coeffs, exponents, point, p: int) -> int:
    """Value of a quadric given parallel (coefficient, exponent-tuple) lists."""
    total = 0
    for c, expo in zip(coeffs, exponents):
        term = int(c) % p
        for var, e in enumerate(expo):
            for _ in range(int(e)):
                term = term * (int(point[var]) % p) % p
        total = (total + term) % p
    return total


def oracle_projective_classes(points, p: int) -> set[tuple[int, ...]]:
    """Distinct points of P^n among the nonzero rows: each row scaled so
    that its first nonzero entry is 1."""
    classes = set()
    for row in points:
        row = [int(x) % p for x in row]
        lead = next((x for x in row if x), 0)
        if lead:
            inv = pow(lead, p - 2, p)
            classes.add(tuple(x * inv % p for x in row))
    return classes


def oracle_pmul(f: list[int], g: list[int], p: int) -> list[int]:
    """Product of two ascending coefficient lists, trailing zeros trimmed."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_pmod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f modulo g (g with a nonzero leading coefficient)."""
    r = [c % p for c in f]
    inv = pow(g[-1], p - 2, p)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            return r
        c, shift = r[-1] * inv % p, len(r) - len(g)
        for i, b in enumerate(g):
            r[i + shift] = (r[i + shift] - c * b) % p


def oracle_ppow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base**e modulo mod by square-and-multiply on coefficient lists."""
    result = [1]
    acc = oracle_pmod(base, mod, p)
    while e:
        if e & 1:
            result = oracle_pmod(oracle_pmul(result, acc, p), mod, p)
        acc = oracle_pmod(oracle_pmul(acc, acc, p), mod, p)
        e >>= 1
    return result


def oracle_syzygy_span(kernel_rows, quadric_rows, p: int) -> list[list[int]]:
    """Reduced rows of the span W by the stacked route: every slot of every
    kernel syzygy (g * m coordinates, variable-major) is mapped through the
    m quadric rows into S^2 and the whole stack is eliminated."""
    m, n = len(quadric_rows), len(quadric_rows[0])
    stacked = []
    for syz in kernel_rows:
        for v in range(0, len(syz), m):
            slot = syz[v : v + m]
            stacked.append(
                [sum(c * q[k] for c, q in zip(slot, quadric_rows)) % p for k in range(n)]
            )
    return oracle_rref(stacked, p)[1]


def oracle_weierstrass_points(a4: int, a6: int, p: int, count: int, seed) -> list[tuple[int, int]]:
    """Up to count distinct affine points (x, y) of y^2 = x^3 + a4*x + a6
    over GF(p), p = 3 mod 4, from random x; fewer only when the attempt
    budget runs out first."""
    assert p % 4 == 3, "square roots here are rhs^((p+1)/4)"
    rng = random.Random(seed)
    found: dict[tuple[int, int], None] = {}
    for _ in range(64 * count + 256):
        if len(found) >= count:
            break
        x = rng.randrange(p)
        rhs = (x * x * x + a4 * x + a6) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            for pt in ((x, y), (x, -y % p)):
                if len(found) < count:
                    found.setdefault(pt)
    return list(found)


def oracle_parse_ideal_text(text: str):
    """Inverse of syzlab.io.export_ideal_text: (prime, nvars, polynomials,
    points).  Each polynomial is a dict from exponent tuples to nonzero
    coefficients mod prime; points is a list of integer rows, or None when
    the text holds none.  Raises ValueError on text the exporter never
    writes: missing headers or an unknown variable."""
    prime = nvars = None
    points: list[list[int]] = []
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("#"):
            if line:
                lines.append(line)
            continue
        key, *values = line[1:].split()
        if key == "prime":
            prime = int(values[0])
        elif key == "nvars":
            nvars = int(values[0])
        elif key == "point":
            points.append([int(x) for x in values])
    if prime is None or nvars is None:
        raise ValueError("missing '# prime' or '# nvars' header")
    polys = []
    for line in lines:
        poly: dict[tuple[int, ...], int] = {}
        for term in [] if line == "0" else line.split(" + "):
            coeff, exps = _oracle_term(term, nvars)
            poly[exps] = (poly.get(exps, 0) + coeff) % prime
        polys.append({e: c for e, c in poly.items() if c})
    return prime, nvars, polys, points or None


def _oracle_term(term: str, nvars: int) -> tuple[int, tuple[int, ...]]:
    """(coefficient, exponents) of one exported term such as 5*Z1^2*Z3."""
    factors = term.split("*")
    coeff = int(factors.pop(0)) if factors[0].isdigit() else 1  # unit coefficients are omitted
    exps = [0] * nvars
    for factor in factors:
        name, _, power = factor.partition("^")
        var = int(name[1:]) if name[:1] == "Z" and name[1:].isdigit() else 0
        if not 1 <= var <= nvars:
            raise ValueError(f"unrecognized variable in {factor!r}")
        exps[var - 1] += int(power or 1)
    return coeff, tuple(exps)
