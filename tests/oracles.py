"""Independent reference implementations used only by the test suite.

Deliberately naive and numpy-free so a bug in the vectorized library path
cannot hide in shared code: plain list-of-list Gaussian elimination over
GF(p), plus a brute-force polynomial evaluator.
"""

from __future__ import annotations


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
