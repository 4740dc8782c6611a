from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    contains_space,
    oracle_fibre_conic,
    oracle_scroll_curve_points,
    oracle_zeros,
)
from scroll_helpers import (
    closed_form_quadrics,
    columns,
    fourgonal_sections,
    lift_index,
    lifted_multiple,
    restriction_image,
    rolling_syzygy,
    scroll_minors,
    scroll_points,
    scrollar_bidegrees,
    section_blocks,
    top_row_forms,
    var_index,
)

from syzlab.errors import (
    DegenerateScrollError,
    EmptyLinearSystemError,
    ModelInconsistencyError,
)
from syzlab.harness import construct_model
from syzlab.linalg import DEFAULT_PRIME, Subspace, kernel_basis
from syzlab.ring import GradedRing
from syzlab.scroll import (
    PAIRS,
    ScrollFrame,
    check_twists,
    fourgonal_curve,
    restriction_targets,
    section_dim,
    section_dims,
    shift_index,
)

P = DEFAULT_PRIME


def test_frame_validation():
    with pytest.raises(ValueError):
        ScrollFrame((2, 1, 3))  # not sorted
    with pytest.raises(DegenerateScrollError):
        ScrollFrame((0, 0, 3))  # one block cannot make a 2-row matrix
    assert ScrollFrame((0, 1, 2)).genus == 6  # cone frames are fine
    assert ScrollFrame.balanced(9).k == (2, 2, 2)
    assert ScrollFrame.balanced(12).k == (3, 3, 3)
    assert ScrollFrame.hosting(12, 7).k == (2, 3, 4)
    assert ScrollFrame.hosting(9, 4).k == (2, 2, 2)


def test_var_index_layout():
    # blocks list descending s-powers: Z1 = x1 s, Z2 = x1 t, ...
    frame = ScrollFrame((1, 1, 1))
    assert [var_index(frame, i, a) for i in range(3) for a in (1, 0)] == list(range(6))
    frame2 = ScrollFrame((2, 3, 3))
    assert var_index(frame2, 0, 2) == 0
    assert var_index(frame2, 0, 0) == 2
    assert var_index(frame2, 1, 3) == 3
    assert var_index(frame2, 2, 0) == 10
    for v in range(frame2.genus):
        i, a = frame2.ruling_of(v)
        assert var_index(frame2, i, a) == v


def test_minor_count_across_genus_range():
    for g in range(6, 16):
        frame = ScrollFrame.balanced(g)
        ring = GradedRing(g, P)
        assert scroll_minors(frame, ring).dim == comb(g - 3, 2)


def test_scroll_points_annihilate_minors():
    frame = ScrollFrame((2, 2, 2))
    ring = GradedRing(9, P)
    pts = scroll_points(frame, 60, seed=31)
    minors = scroll_minors(frame, ring)
    vals = ring.evaluate_monomials(2, pts) @ minors.basis.T % P
    assert not vals.any()
    assert len(scroll_points(frame, 0, seed=31)) == 0


def test_point_interpolation_recovers_exactly_the_minors():
    # 500 points: the kernel of the evaluation matrix is the minor space
    frame = ScrollFrame((2, 2, 2))
    ring = GradedRing(9, P)
    pts = scroll_points(frame, 500, seed=32)
    ker = kernel_basis(ring.evaluate_monomials(2, pts), P)
    assert ker.dim == comb(6, 2)
    assert ker == scroll_minors(frame, ring)


def test_section_dimension_lower_bound():
    # h^0(2H - lam*F) >= 4g - 6(lam+1) in the stated twist range
    for k in [(1, 1, 1), (2, 2, 2), (1, 2, 4), (0, 2, 3), (3, 3, 3)]:
        frame = ScrollFrame(k)
        g = frame.genus
        for lam in range(0, (2 * g - 4) // 3 + 1):
            assert section_dim(frame, lam) >= 4 * g - 6 * (lam + 1)


def test_lift_of_a_pure_monomial_section():
    # x1^2 s^2 at twist 0 on frame (1,1,1) lifts to Z1^2
    frame = ScrollFrame((1, 1, 1))
    ring = GradedRing(6, P)
    dims = [frame.k[i] + frame.k[j] + 1 for i, j in PAIRS]
    assert section_dims(frame, 0) == dims
    coords = np.zeros(sum(dims), dtype=np.int64)
    coords[2] = 1  # block (x1,x1), alpha = 2
    want = np.zeros(ring.dim(2), dtype=np.int64)
    want[ring.index_of((2, 0, 0, 0, 0, 0))] = 1
    assert np.array_equal(lifted_multiple(frame, ring, coords, 0, 0), want)


def test_lift_then_restrict_is_identity():
    rng = np.random.default_rng(33)
    for k in [(1, 1, 1), (2, 2, 2), (1, 2, 3)]:
        frame = ScrollFrame(k)
        ring = GradedRing(frame.genus, P)
        for _ in range(5):
            coords = rng.integers(0, P, size=section_dim(frame, 0), dtype=np.int64)
            quad = lifted_multiple(frame, ring, coords, 0, 0)
            back = np.zeros(section_dim(frame, 0), dtype=np.int64)
            np.add.at(back, restriction_targets(frame, ring), quad)
            assert np.array_equal(back % P, coords)
            image = restriction_image(frame, ring, Subspace.from_rows(quad, ring.dim(2), P))
            assert image == Subspace.from_rows(coords, section_dim(frame, 0), P)


# sorted frames with a 2-row scroll matrix (k2 >= 1) up to genus 12
FRAMES = (
    st.lists(st.integers(0, 9), min_size=3, max_size=3)
    .map(sorted)
    .filter(lambda k: k[1] >= 1 and sum(k) <= 9)
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=FRAMES)
def test_index_maps_respect_the_section_layout(k):
    frame = ScrollFrame(tuple(k))
    g = frame.genus
    ring = GradedRing(g, P)
    # restricting a lift gives back the section
    targets = restriction_targets(frame, ring)
    assert np.array_equal(targets[lift_index(frame, ring)], np.arange(4 * g - 6))
    starts = np.cumsum([0] + section_dims(frame, 0))
    twist = 0
    while section_dim(frame, twist):
        pair_of = np.repeat(np.arange(len(PAIRS)), section_dims(frame, twist))
        for i in range(twist + 1):
            shifted = shift_index(frame, twist, i)
            assert len(np.unique(shifted)) == len(shifted) == section_dim(frame, twist)
            # every coordinate stays inside its pair's twist-0 block
            assert np.array_equal(np.searchsorted(starts, shifted, side="right") - 1, pair_of)
        twist += 1


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(k=FRAMES)
def test_kernel_of_restriction_is_the_closed_form(k):
    # the constructor's preimage under restriction against the closed form,
    # minors plus the lifts of the stored sections' multiples, at every
    # admissible twist split; a one-sided surface from its positive side
    frame = ScrollFrame(tuple(k))
    g = frame.genus
    ring = GradedRing(g, P)
    restriction = np.zeros((section_dim(frame, 0), ring.dim(2)), dtype=np.int64)
    restriction[restriction_targets(frame, ring), np.arange(ring.dim(2))] = 1
    assert kernel_basis(restriction, P) == scroll_minors(frame, ring)
    for a in range(g - 4):
        b = g - 5 - a
        try:
            check_twists(frame, a, b)
        except (ValueError, EmptyLinearSystemError):
            continue
        model = fourgonal_curve(frame, a, b, seed=g + a)
        q1, q2 = fourgonal_sections(model)
        assert model.quadrics == closed_form_quadrics(frame, ring, (q1, a), (q2, b))
        if min(a, b) == 0:
            side = (q1, a) if a >= b else (q2, b)
            assert model.surface_quadrics == closed_form_quadrics(frame, ring, side)
        else:
            assert model.surface_quadrics is None


def test_alternative_split_lift_differs_by_a_minor():
    # realizing x1 x2 s^2 t^2 on frame (2,2,2) as Z1*Z5 or Z2*Z4 differ by
    # exactly the minor Z1 Z5 - Z2 Z4 of the scroll matrix
    frame = ScrollFrame((2, 2, 2))
    ring = GradedRing(9, P)
    minors = scroll_minors(frame, ring)
    greedy = np.zeros(ring.dim(2), dtype=np.int64)
    u, v = var_index(frame, 0, 2), var_index(frame, 1, 0)
    e = [0] * 9
    e[u] += 1
    e[v] += 1
    greedy[ring.index_of(e)] = 1
    other = np.zeros(ring.dim(2), dtype=np.int64)
    u2, v2 = var_index(frame, 0, 1), var_index(frame, 1, 1)
    e2 = [0] * 9
    e2[u2] += 1
    e2[v2] += 1
    other[ring.index_of(e2)] = 1
    assert minors.contains((greedy - other) % P)
    assert not minors.contains(greedy)


def test_lift_evaluates_like_the_section_on_scroll_points():
    # the lift of s^i t^(lam-i) * v, for v of every twist lam, evaluates at
    # scroll points as s^i t^(lam-i) times v's fibre conic
    frame = ScrollFrame((1, 2, 3))
    g = frame.genus
    ring = GradedRing(g, P)
    rng = np.random.default_rng(35)
    twist = 0
    while section_dim(frame, twist):
        coords = rng.integers(0, P, size=section_dim(frame, twist), dtype=np.int64)
        blocks = section_blocks(frame, twist, coords)
        for i in range(twist + 1):
            quad = lifted_multiple(frame, ring, coords, twist, i)
            for _ in range(5):
                s, t = int(rng.integers(0, P)), int(rng.integers(1, P))
                x = [int(c) for c in rng.integers(0, P, size=3)]
                pt = np.array(
                    [x[r] * pow(s, a, P) * pow(t, frame.k[r] - a, P) % P
                     for v in range(g) for r, a in [frame.ruling_of(v)]],
                    dtype=np.int64,
                )
                conic = np.array(oracle_fibre_conic(blocks, s, t, P))
                on_fibre = np.array(x) @ conic % P @ x % P
                want = pow(s, i, P) * pow(t, twist - i, P) * on_fibre % P
                assert int(ring.evaluate_monomials(2, pt)[0] @ quad % P) == want
        twist += 1


# -- rolling factors ----------------------------------------------------------


def test_rolling_syzygy_is_a_syzygy_involving_both_quadrics():
    from syzlab.koszul import is_syzygy, quadrics_involved

    frame = ScrollFrame((2, 2, 2))
    g = frame.genus
    ring = GradedRing(g, P)
    rng = np.random.default_rng(37)
    model = fourgonal_curve(frame, 2, 2, seed=37)
    quadrics = model.quadrics
    sec = rng.integers(0, P, size=section_dim(frame, 1), dtype=np.int64)
    quad = lifted_multiple(frame, ring, sec, 1, 1)
    a_forms = top_row_forms(frame, ring, quad)  # s * sec lies in the top row
    assert a_forms is not None
    alpha = rng.integers(0, P, size=g - 3)
    q1, q2, gamma_rows = rolling_syzygy(frame, ring, a_forms, alpha)
    assert np.array_equal(q1, quad)
    full = scroll_minors(frame, ring).sum(
        Subspace.from_rows(np.vstack([q1, q2]), ring.dim(2), P)
    )
    # every row lies in full, so its pivot entries are its coordinates
    coords = gamma_rows[:, list(full.pivot_cols)]
    assert np.array_equal(coords @ full.basis % P, gamma_rows)
    assert is_syzygy(ring, full, coords)
    span = quadrics_involved(ring, full, coords)
    assert span.dim >= 2
    assert span.contains(q1) and span.contains(q2)


# -- 4-gonal models -----------------------------------------------------------


def _check_brute_force_points(model) -> None:
    """The curve has GF(p)-points where both fibre conics of its stored
    sections vanish, found by trying every fibre point; every stored
    quadric and surface quadric vanishes at each of them."""
    p, params = model.prime, model.params
    pts = oracle_scroll_curve_points(params["frame"], params["q1_blocks"], params["q2_blocks"], p)
    assert pts, f"no GF({p})-point on {model.family} g={model.genus} seed={model.seed}"
    rows = model.quadrics.basis
    if model.surface_quadrics is not None:
        rows = np.vstack([rows, model.surface_quadrics.basis])
    assert oracle_zeros(rows, GradedRing(model.genus, p).exponents(2), pts, p) == pts


def test_fourgonal_dimension_and_vanishing():
    frame = ScrollFrame((2, 2, 2))
    g = frame.genus
    ring = GradedRing(g, P)
    model = fourgonal_curve(frame, 2, 2, seed=40)
    assert model.quadrics.dim == comb(g - 2, 2)
    assert contains_space(model.quadrics, scroll_minors(frame, ring))
    _check_brute_force_points(fourgonal_curve(frame, 2, 2, seed=40, prime=13))


def test_fourgonal_requires_matching_twists():
    with pytest.raises(ValueError):
        fourgonal_curve(ScrollFrame((2, 2, 2)), 3, 3, seed=0)  # 3+3 != 4


def test_fourgonal_point_sample_lies_on_the_curve():
    # the default split and the one-sided (2, 0) model, whose surface
    # quadrics are stored too, at every small prime and seed; then every
    # genus at p = 7
    for p in (7, 11, 13):
        for seed in range(3):
            _check_brute_force_points(construct_model("fourgonal", genus=7, prime=p, seed=seed))
            _check_brute_force_points(
                construct_model("fourgonal", genus=7, prime=p, seed=seed, a=2, b=0)
            )
    for g in range(6, 14):
        _check_brute_force_points(construct_model("fourgonal", genus=g, prime=7, seed=g))


def test_bidegree_recovery_matches_construction():
    for g, k, a, b in [
        (9, (2, 2, 2), 2, 2),
        (9, (2, 2, 2), 4, 0),
        (8, (1, 2, 2), 1, 2),
        (12, (3, 3, 3), 4, 3),
    ]:
        frame = ScrollFrame(k)
        ring = GradedRing(g, P)
        model = fourgonal_curve(frame, a, b, seed=43)
        restricted = restriction_image(frame, ring, model.quadrics)
        assert scrollar_bidegrees(frame, restricted) == (max(a, b), min(a, b))
    with pytest.raises(EmptyLinearSystemError):
        fourgonal_curve(ScrollFrame((2, 3, 3)), 6, 0, seed=43)  # a reducible curve


def test_bidegrees_of_divisible_span_bound_below():
    # a space spanned by multiples of a twist-lam section recovers >= lam,
    # here exactly (2, 2) since the pencil construction uses two of them
    frame = ScrollFrame((2, 2, 2))
    ring = GradedRing(9, P)
    model = fourgonal_curve(frame, 2, 2, seed=44)
    restricted = restriction_image(frame, ring, model.quadrics)
    lam0, lam1 = scrollar_bidegrees(frame, restricted)
    assert lam0 >= 2 and lam0 + lam1 == 9 - 5


def test_bidegrees_reject_wrong_dimension():
    frame = ScrollFrame((2, 2, 2))
    with pytest.raises(ModelInconsistencyError):
        scrollar_bidegrees(frame, Subspace.zero(section_dim(frame, 0), P))


def test_scroll_matrix_entries_parametrize_consistently():
    frame = ScrollFrame((1, 2, 3))
    cols = columns(frame)
    assert len(cols) == frame.genus - 3
    for top, bottom in cols:
        (ti, ta), (bi, ba) = frame.ruling_of(top), frame.ruling_of(bottom)
        assert ti == bi and ta == ba + 1  # same ruling, s-power drops by one


def _det3(m) -> int:
    m = [[int(x) for x in row] for row in m]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@pytest.mark.parametrize("g", [10, 11, 12, 13])
def test_extremal_models_past_genus_9_are_refused(g):
    # every section of 2H - (g-5)F on the hosting frame has a singular
    # fibre conic, so the curve it cuts splits
    frame = ScrollFrame.hosting(g, g - 5)
    with pytest.raises(EmptyLinearSystemError) as refused:
        fourgonal_curve(frame, g - 5, 0, seed=46)
    assert str(frame.k) in str(refused.value) and f"2H - {g - 5}F" in str(refused.value)
    rng = np.random.default_rng(46 + g)
    sec = rng.integers(0, P, size=section_dim(frame, g - 5), dtype=np.int64)
    for _ in range(20):
        st_point = (int(rng.integers(0, P)), int(rng.integers(0, P)))
        upper = np.array(oracle_fibre_conic(section_blocks(frame, g - 5, sec), *st_point, P))
        assert _det3(upper + upper.T) % P == 0
