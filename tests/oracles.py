"""Independent reference implementations used only by the test suite.

Deliberately naive and numpy-free so a bug in the vectorized library path
cannot hide in shared code: plain list-of-list Gaussian elimination over
GF(p) and a containment test of subspaces by rank, a brute-force
polynomial evaluator, a sampler of elliptic-curve points, brute-force
enumerations of the GF(p)-points of every curve family, a parser of the
exported ideal text and a sieve of Eratosthenes.
"""

from __future__ import annotations

import math
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


def oracle_primes_below(n: int) -> set[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    composite = [False] * n
    for d in range(2, math.isqrt(n) + 1):
        for multiple in range(d * d, n, d):
            composite[multiple] = True
    return {k for k in range(2, n) if not composite[k]}


def oracle_rank(rows: list[list[int]], p: int) -> int:
    return oracle_rref(rows, p)[0]


def oracle_kernel_dim(rows: list[list[int]], p: int) -> int:
    if not rows:
        return 0
    return len(rows[0]) - oracle_rank(rows, p)


def oracle_solve_membership(basis: list[list[int]], vec: list[int], p: int) -> bool:
    """Is vec in the row span of basis?  Decided by a rank comparison."""
    return oracle_rank(basis, p) == oracle_rank(basis + [vec], p)


def contains_space(big, small) -> bool:
    """Does the Subspace big contain the Subspace small?  Decided by a rank
    comparison on their basis rows, as plain integer lists."""
    if (big.ambient_dim, big.prime) != (small.ambient_dim, small.prime):
        raise ValueError(
            f"subspaces live in GF({big.prime})^{big.ambient_dim} vs "
            f"GF({small.prime})^{small.ambient_dim}"
        )
    rows = big.basis.tolist()
    return oracle_rank(rows, big.prime) == oracle_rank(rows + small.basis.tolist(), big.prime)


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


def oracle_zeros(rows, exponents, points, p: int) -> list:
    """The points at which every form (coefficient rows over the exponent
    tuples) vanishes, in the order given."""
    terms = [[(v, int(e)) for v, e in enumerate(expo) if e] for expo in exponents]
    rows = [[int(c) % p for c in row] for row in rows]
    out = []
    for pt in points:
        values = [math.prod(pow(int(pt[v]), e, p) for v, e in term) % p for term in terms]
        if all(sum(c * x for c, x in zip(row, values)) % p == 0 for row in rows):
            out.append(pt)
    return out


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
    """Inverse of syzlab.io.export_ideal_text: (prime, nvars, polynomials).
    Each polynomial is a dict from exponent tuples to nonzero coefficients
    mod prime.  Raises ValueError on text the exporter never writes: a
    missing or unknown header, or an unknown variable."""
    prime = nvars = None
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
        else:
            raise ValueError(f"unknown header {line!r}")
    if prime is None or nvars is None:
        raise ValueError("missing '# prime' or '# nvars' header")
    polys = []
    for line in lines:
        poly: dict[tuple[int, ...], int] = {}
        for term in [] if line == "0" else line.split(" + "):
            coeff, exps = _oracle_term(term, nvars)
            poly[exps] = (poly.get(exps, 0) + coeff) % prime
        polys.append({e: c for e, c in poly.items() if c})
    return prime, nvars, polys


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


# -- brute-force points of the curve families ---------------------------------
#
# Each enumeration runs over every GF(p)-point of a parameter space, so it
# is meant for small primes: the 4-gonal one tries (p+1)(p^2+p+1) points.


def _projective_points(n: int, p: int) -> list[tuple[int, ...]]:
    """One representative of every point of P^(n-1) over GF(p), the last
    nonzero coordinate scaled to 1."""
    out: list[tuple[int, ...]] = []
    for last in range(n):
        head = [()]
        for _ in range(last):
            head = [h + (c,) for h in head for c in range(p)]
        out += [h + (1,) + (0,) * (n - 1 - last) for h in head]
    return out


def oracle_fibre_conic(blocks, s: int, t: int, p: int) -> list[list[int]]:
    """Upper-triangular 3x3 matrix of a section's fibre conic at (s:t).

    blocks hold one binary form per ruling pair (i, j), i <= j, in the
    order 00, 01, 02, 11, 12, 22, ascending in s-degree; entry (i, j) is
    that form at (s:t), sum_a B[a] s^a t^(deg - a)."""
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    mat = [[0] * 3 for _ in range(3)]
    for (i, j), block in zip(pairs, blocks):
        deg = len(block) - 1
        mat[i][j] = sum(int(c) * pow(s, a, p) * pow(t, deg - a, p) for a, c in enumerate(block)) % p
    return mat


def oracle_scroll_curve_points(k, q1_blocks, q2_blocks, p: int) -> list[list[int]]:
    """Points of the 4-gonal curve: every (s:t) in P^1 and x in P^2 where
    both fibre conics vanish, embedded by Z_{var(i, a)} = x_i s^a t^(k_i - a).
    Block i of the variables lists its s-powers in descending order and
    starts at k_1 + .. + k_(i-1) + (i - 1)."""
    offsets = [0, k[0] + 1, k[0] + k[1] + 2]
    found = []
    for s, t in _projective_points(2, p):
        conics = [oracle_fibre_conic(blocks, s, t, p) for blocks in (q1_blocks, q2_blocks)]
        for x in _projective_points(3, p):
            if any(
                sum(m[i][j] * x[i] * x[j] for i in range(3) for j in range(3)) % p
                for m in conics
            ):
                continue
            pt = [0] * (sum(k) + 3)
            for i in range(3):
                for a in range(k[i] + 1):
                    pt[offsets[i] + k[i] - a] = x[i] * pow(s, a, p) * pow(t, k[i] - a, p) % p
            found.append(pt)
    return found


def oracle_elliptic_points(a4: int, a6: int, p: int) -> list[tuple[int, int]]:
    """Every affine point (x, y) of y^2 = x^3 + a4*x + a6 over GF(p),
    trying every x against a table of squares."""
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return [(x, y) for x in range(p) for y in roots.get((x**3 + a4 * x + a6) % p, [])]


def oracle_ladder_embedding(points, ladder, p: int) -> list[list[int]]:
    """Rows (x^i y^j for (i, j) in ladder) of the affine points (x, y)."""
    return [[pow(x, i, p) * pow(y, j, p) % p for i, j in ladder] for x, y in points]


def oracle_cone_points(a4: int, a6: int, ladder, p: int) -> list[list[int]]:
    """Every point (u, e) with u in GF(p) on the cone with vertex
    (1:0:..:0) over E, e the image of an affine point of E under ladder."""
    images = oracle_ladder_embedding(oracle_elliptic_points(a4, a6, p), ladder, p)
    return [[u] + e for e in images for u in range(p)]


def oracle_plane_images(base_points, cubic_exponents, p: int) -> list[list[int]]:
    """Images of every point of P^2 that is no base point under the reduced
    echelon basis of the cubics through the base points (monomials in the
    order of cubic_exponents); points mapped to 0 are dropped."""
    exps = [[int(k) for k in e] for e in cubic_exponents]

    def monomials(pt) -> list[int]:
        return [pow(pt[0], e[0], p) * pow(pt[1], e[1], p) * pow(pt[2], e[2], p) % p for e in exps]

    base = {tuple(int(c) % p for c in pt) for pt in base_points}
    evals = [monomials(pt) for pt in base]
    n = len(exps)
    _, red, piv = oracle_rref(evals, p)
    free = [c for c in range(n) if c not in piv]
    kernel = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for r, c in enumerate(piv):
            vec[c] = -red[r][f] % p
        kernel.append(vec)
    cubics = oracle_rref(kernel, p)[1]
    images = []
    for pt in _projective_points(3, p):
        if pt in base:
            continue
        values = monomials(pt)
        image = [sum(c * v for c, v in zip(cubic, values)) % p for cubic in cubics]
        if any(image):
            images.append(image)
    return images
