"""Property tests of the Subspace algebra against the list-based oracle.

Shapes stay within 12 x 12 and every prime runs a fixed, derandomized
number of examples, so the suite is deterministic and quick.  Dependent
rows are mixed in on purpose: at p = 33554393 random rows are almost never
dependent, so rank drops would otherwise go untested there.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import contains_space, oracle_rank, oracle_rref, oracle_solve_membership
from scroll_helpers import complement

from syzlab.linalg import Subspace, kernel_basis

PRIMES = [3, 7, 33554393]  # the last one is the largest prime below PRIME_BOUND
MAX_DIM = 12

# derandomize: the same examples on every run; database=None: no example database
DERANDOMIZED = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _rows(data, p: int, ncols: int, max_rows: int = MAX_DIM) -> list[list[int]]:
    """Up to max_rows rows: drawn rows, then combinations of two of them."""
    entry = st.integers(0, p - 1)
    drawn = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows))
    mixes = data.draw(
        st.lists(st.tuples(st.integers(0, MAX_DIM), st.integers(0, MAX_DIM), entry, entry),
                 max_size=max_rows - len(drawn))
    )
    rows = list(drawn)
    for i, j, a, b in mixes if drawn else []:
        x, y = drawn[i % len(drawn)], drawn[j % len(drawn)]
        rows.append([(a * u + b * v) % p for u, v in zip(x, y)])
    return rows


def _space(rows: list[list[int]], ncols: int, p: int) -> Subspace:
    return Subspace.from_rows(np.array(rows, dtype=np.int64).reshape(len(rows), ncols), ncols, p)


def _ncols(data) -> int:
    return data.draw(st.integers(1, MAX_DIM))


@pytest.mark.parametrize("p", PRIMES)
@DERANDOMIZED
@given(data=st.data())
def test_from_rows_is_the_oracle_echelon_form(p, data):
    n = _ncols(data)
    rows = _rows(data, p, n)
    space = _space(rows, n, p)
    rank, reduced, pivots = oracle_rref(rows, p)
    assert space.dim == rank == oracle_rank(rows, p)
    assert space.basis.tolist() == reduced
    assert list(space.pivot_cols) == pivots


@pytest.mark.parametrize("p", PRIMES)
@DERANDOMIZED
@given(data=st.data())
def test_sum_and_contains_space(p, data):
    n = _ncols(data)
    rows_a, rows_b = _rows(data, p, n), _rows(data, p, n)
    a, b = _space(rows_a, n, p), _space(rows_b, n, p)
    total = a.sum(b)
    assert total.dim == oracle_rank(rows_a + rows_b, p)
    assert contains_space(total, a) and contains_space(total, b)
    assert total == b.sum(a)
    # reduction of a whole basis, the library's containment test
    assert (not a.reduce(b.basis).any()) == (oracle_rank(rows_a + rows_b, p) == a.dim)


@pytest.mark.parametrize("p", PRIMES)
@DERANDOMIZED
@given(data=st.data())
def test_reduce_and_contains(p, data):
    n = _ncols(data)
    rows = _rows(data, p, n)
    space = _space(rows, n, p)
    vec = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    remainder = space.reduce(vec)
    # the normal form is zero on the pivots and differs from vec by a member
    assert not remainder[list(space.pivot_cols)].any()
    assert space.contains((np.array(vec) - remainder) % p)
    assert space.contains(vec) == oracle_solve_membership(rows, vec, p) == (not remainder.any())
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(n)]
    assert space.contains(combo)


@pytest.mark.parametrize("p", PRIMES)
@DERANDOMIZED
@given(data=st.data())
def test_complement(p, data):
    n = _ncols(data)
    space = _space(_rows(data, p, n), n, p)
    comp = complement(space)
    assert space.dim + comp.dim == n
    assert complement(comp) == space
    assert not (space.basis @ comp.basis.T % p).any()


@pytest.mark.parametrize("p", PRIMES)
@DERANDOMIZED
@given(data=st.data())
def test_kernel_basis(p, data):
    n = _ncols(data)
    rows = _rows(data, p, n)
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    kernel = kernel_basis(mat, p)
    assert kernel.ambient_dim == n
    assert kernel.dim == n - oracle_rank(rows, p)
    assert not (mat @ kernel.basis.T % p).any()
    assert kernel == Subspace.from_rows(kernel.basis, n, p)
