from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from syzlab.linalg import (
    DEFAULT_PRIME,
    PRIME_BOUND,
    Subspace,
    check_prime,
    inverse_mod,
    is_prime,
    kernel_basis,
    rank,
    rref,
)
from oracles import contains_space, oracle_kernel_dim, oracle_primes_below, oracle_rref
from scroll_helpers import complement, solve

P = 10007


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 10007, 1000003}
    composites = {1, 0, 4, 9, 1000001, 10005}
    assert all(is_prime(n) for n in primes)
    assert not any(is_prime(n) for n in composites)


def test_check_prime_rejects_composites_and_large_moduli():
    with pytest.raises(ValueError):
        check_prime(1000001)  # 101 * 9901
    with pytest.raises(ValueError):
        check_prime(PRIME_BOUND + 7)  # even if prime, beyond int64 safety
    assert check_prime(DEFAULT_PRIME) == DEFAULT_PRIME


def test_is_prime_matches_a_sieve():
    primes = oracle_primes_below(2**16)
    assert {n for n in range(-3, 2**16) if is_prime(n)} == primes


def test_check_prime_refuses_a_large_prime_before_testing_it():
    # trial division of 2**61 - 1 would take 2**29 steps; the bound comes first
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"must be below {PRIME_BOUND}"):
        check_prime(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0


def test_inverse_mod_agrees_with_fermat():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = int(rng.integers(1, P))
        assert a * inverse_mod(a, P) % P == 1
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, P)


ORACLE_PRIMES = [3, 7, 1000003, 33554393]


def _rows(mat):
    return [list(map(int, row)) for row in mat]


def _assert_matches_oracle(mat, p):
    """rref and rank agree with the oracle and leave their input as it was."""
    before = mat.copy()
    r, red, piv = rref(mat, p)
    orank, ored, opiv = oracle_rref(_rows(np.atleast_2d(mat)), p)
    assert r == orank == rank(mat, p)
    assert piv == opiv
    assert _rows(red[:r]) == ored and not red[r:].any()
    assert np.array_equal(mat, before)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_rref_matches_oracle_on_random_matrices(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        _assert_matches_oracle(rng.integers(0, p, size=(n, m)), p)
    for _ in range(6):
        # sparse, 1-5% nonzero: many empty columns and few rows per update
        n, m = int(rng.integers(20, 41)), int(rng.integers(30, 61))
        mask = rng.random((n, m)) < rng.uniform(0.01, 0.05)
        _assert_matches_oracle(rng.integers(1, p, size=(n, m)) * mask, p)
    # 1-D input is one row
    _assert_matches_oracle(rng.integers(0, p, size=9), p)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_rref_low_rank_structured(p):
    rng = np.random.default_rng(p + 2)
    for n, k, m in [(6, 3, 8), (40, 12, 60), (35, 20, 25), (40, 0, 60)]:
        mat = rng.integers(0, p, size=(n, k)) @ rng.integers(0, p, size=(k, m)) % p
        _assert_matches_oracle(mat, p)
        assert rank(mat, p) <= k
        # a sparse rank-deficient shape: zero rows, repeated rows, zero columns
        sparse = mat * (rng.random((n, m)) < 0.05)
        sparse[::3] = 0
        sparse[1::3] = sparse[2]
        sparse[:, ::4] = 0
        _assert_matches_oracle(sparse, p)


def test_rank_and_rref_peak_memory():
    """tracemalloc peak of rank and rref relative to the int64 input's bytes.

    Measured at p = 1000003 on 400x500 matrices with 3% nonzeros.  A random
    one fills in, so the first, widest updates set the peak: with an int32
    working matrix and one int64 update block it is 1.65x (rank) and 1.99x
    (rref), against 2.15x and 2.51x for an int64 working matrix and 3.09x
    for updates of whole rows, hence the bound 2.1.  A banded one stays
    sparse, so the working matrix sets the peak: 0.54x (rank) and 1.10x
    (rref), against 1.01x and 1.60x for an int64 working matrix, hence the
    bound 1.25.  (test_koszul bounds the real g = 7 differential d_{4,3}.)
    """
    rng = np.random.default_rng(41)
    p, n, m = 1000003, 400, 500
    scattered = rng.integers(1, p, size=(n, m)) * (rng.random((n, m)) < 0.03)
    banded = np.zeros((n, m), dtype=np.int64)
    band = (np.arange(n) * (m - 15) // n)[:, None] + np.arange(15)
    banded[np.arange(n)[:, None], band] = rng.integers(1, p, size=band.shape)
    for mat, bound in ((scattered, 2.1), (banded, 1.25)):
        for fn in (rank, rref):
            tracemalloc.start()
            try:
                fn(mat, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / mat.nbytes < bound, (fn.__name__, peak / mat.nbytes)


def test_prime_bound_keeps_residues_in_int32_and_updates_in_int64():
    # the elimination stores residues in int32 and forms r - a * b in int64
    assert PRIME_BOUND - 1 <= np.iinfo(np.int32).max
    assert (PRIME_BOUND - 1) ** 2 + PRIME_BOUND < 2**63
    assert check_prime(ORACLE_PRIMES[-1]) == ORACLE_PRIMES[-1] == 33554393


def test_rref_matches_oracle_where_every_product_overflows_int32():
    # entries in [p - 3, p): each product of two exceeds 2**31, so an update
    # multiplied in the storage width would wrap
    p = ORACLE_PRIMES[-1]
    assert (p - 3) ** 2 > np.iinfo(np.int32).max
    rng = np.random.default_rng(12)
    for n, m in [(1, 6), (5, 8), (12, 12), (9, 4), (24, 30)]:
        mat = rng.integers(p - 3, p, size=(n, m))
        _assert_matches_oracle(mat, p)
        _assert_matches_oracle(mat.astype(np.int32), p)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_elimination_leaves_its_input_alone_and_takes_lists_and_rows(dtype):
    p = 1000003
    rng = np.random.default_rng(13)
    mat = rng.integers(-p, 2 * p, size=(5, 8)).astype(dtype)  # not yet reduced
    mat[3] = 2 * mat[1] - mat[0] + p  # rank 4 once reduced
    before = mat.copy()
    r, red, piv = rref(mat, p)
    ker = kernel_basis(mat, p)
    assert r == rank(mat, p) == 4 and ker.dim == 4
    assert np.array_equal(mat, before) and mat.dtype == dtype
    assert not (mat.astype(np.int64) @ ker.basis.T % p).any()
    listed = mat.tolist()
    assert rank(listed, p) == r and kernel_basis(listed, p) == ker
    assert np.array_equal(rref(listed, p)[1], red) and rref(listed, p)[2] == piv
    row = mat[2]
    assert rank(row, p) == rank(row.tolist(), p) == 1
    assert np.array_equal(rref(row, p)[1], rref(mat[2:3], p)[1])
    assert kernel_basis(row, p) == kernel_basis(row.tolist(), p) == kernel_basis(mat[2:3], p)
    assert np.array_equal(mat, before)


def test_rref_is_idempotent():
    rng = np.random.default_rng(3)
    mat = rng.integers(0, P, size=(5, 7))
    r, red, piv = rref(mat, P)
    r2, red2, piv2 = rref(red, P)
    assert (r, piv) == (r2, piv2)
    assert np.array_equal(red, red2)


def test_kernel_basis_annihilates_and_has_oracle_dimension():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        mat = rng.integers(0, P, size=(n, m))
        ker = kernel_basis(mat, P)
        assert ker.dim == oracle_kernel_dim([list(map(int, r)) for r in mat], P)
        if ker.dim:
            assert not (mat @ ker.basis.T % P).any()


@pytest.mark.parametrize("p", [3, 5, 101, 1000003])
def test_kernel_basis_is_the_canonical_basis_of_the_kernel(p):
    rng = np.random.default_rng(p)
    shapes = [(3, 0), (0, 4), (0, 0), (4, 4), (5, 3), (3, 5)]
    shapes += [tuple(int(x) for x in rng.integers(1, 9, size=2)) for _ in range(30)]
    for n, m in shapes:
        k = int(rng.integers(0, min(n, m) + 1))
        mat = rng.integers(0, p, size=(n, k)) @ rng.integers(0, p, size=(k, m)) % p
        if (n, m) == (4, 4):
            mat = np.zeros((4, 4), dtype=np.int64)  # rank 0
        elif (n, m) == (3, 5):
            mat = np.eye(3, 5, dtype=np.int64)  # full rank
        rk, red, piv = oracle_rref([list(map(int, r)) for r in mat], p)
        free = [c for c in range(m) if c not in piv]
        vecs = np.zeros((len(free), m), dtype=np.int64)
        for row, c in enumerate(free):
            vecs[row, c] = 1
            for i, col in enumerate(piv):
                vecs[row, col] = -red[i][c] % p
        ker = kernel_basis(mat, p)
        want = Subspace.from_rows(vecs, m, p)
        assert ker == want and ker.pivot_cols == want.pivot_cols
        assert not ker.basis.flags.writeable


def test_solve_consistent_and_inconsistent():
    rng = np.random.default_rng(5)
    mat = rng.integers(0, P, size=(4, 6))
    x = rng.integers(0, P, size=6)
    rhs = mat @ x % P
    got = solve(mat, rhs, P)
    assert got is not None
    assert np.array_equal(mat @ got % P, rhs)
    # a rhs outside the column span: pad the matrix with a zero row
    mat2 = np.vstack([mat, np.zeros(6, dtype=np.int64)])
    rhs2 = np.concatenate([rhs, [1]])
    assert solve(mat2, rhs2, P) is None


def test_subspace_membership_and_reduction():
    rng = np.random.default_rng(6)
    rows = rng.integers(0, P, size=(3, 7))
    sp = Subspace.from_rows(rows, 7, P)
    combo = rng.integers(0, P, size=3) @ rows % P
    assert sp.contains(combo)
    assert not sp.contains(combo + np.eye(7, dtype=np.int64)[6] * 3)
    assert not sp.reduce(combo).any()


def test_subspace_sum_intersect_complement_dimensions():
    rng = np.random.default_rng(7)
    amb = 9
    a = Subspace.from_rows(rng.integers(0, P, size=(4, amb)), amb, P)
    b = Subspace.from_rows(rng.integers(0, P, size=(3, amb)), amb, P)
    s = a.sum(b)
    # the intersection is the annihilator of the sum of the annihilators
    i = complement(complement(a).sum(complement(b)))
    assert s.dim + i.dim == a.dim + b.dim
    assert contains_space(s, a) and contains_space(s, b)
    assert contains_space(a, i) and contains_space(b, i)
    c = complement(a)
    assert c.dim == amb - a.dim
    assert complement(c) == a


def test_subspace_equality_is_basis_independent():
    rng = np.random.default_rng(8)
    rows = rng.integers(0, P, size=(3, 6))
    sp1 = Subspace.from_rows(rows, 6, P)
    mix = rng.integers(0, P, size=(5, 3)) @ rows % P
    sp2 = Subspace.from_rows(mix, 6, P)
    if sp2.dim == 3:  # generic mixing keeps the span
        assert sp1 == sp2
        assert hash(sp1) == hash(sp2)
    shifted = Subspace.from_rows((rows + 1) % P, 6, P)
    assert sp1 != shifted or sp1.dim != shifted.dim


def test_zero_and_full_subspaces():
    z = Subspace.zero(5, P)
    f = Subspace.from_rows(np.eye(5, dtype=np.int64), 5, P)
    assert z.dim == 0 and f.dim == 5
    assert contains_space(f, z)
    assert complement(z) == f
    v = np.arange(5)
    assert f.contains(v) and not z.contains(v % P + 1)


def test_rref_determinism_bit_identical():
    rng = np.random.default_rng(9)
    mat = rng.integers(0, P, size=(10, 12))
    out1 = rref(mat.copy(), P)
    out2 = rref(mat.copy(), P)
    assert np.array_equal(out1[1], out2[1]) and out1[2] == out2[2]
