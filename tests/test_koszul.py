from __future__ import annotations

import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest

from syzlab import koszul, linalg
from syzlab.errors import (
    InvalidSyzygyError,
    ModelInconsistencyError,
    UnsupportedDegreeError,
)
from syzlab.harness import construct_model
from syzlab.koszul import (
    VERDICT_CURVE,
    VERDICT_SURFACE,
    VERDICT_WHOLE,
    betti_table,
    classify_theorem,
    expected_verdict,
    is_syzygy,
    linear_syzygies,
    quadrics_involved,
    syz2_span,
    syzygy_kernel,
)
from syzlab.linalg import DEFAULT_PRIME, rank
from syzlab.ring import GradedRing
from syzlab.scroll import ScrollFrame, fourgonal_curve
from syzlab.surfaces import bielliptic_curve, delpezzo_curve, genus5_intersection
from oracles import contains_space, oracle_syzygy_span
from scroll_helpers import multiply, variable, vector

P = DEFAULT_PRIME


def _kappa21(genus: int) -> int:
    """kappa_2,1 of a smooth canonical curve of Clifford index 2: (g-1)(g-3)(g-5)/3."""
    return (genus - 1) * (genus - 3) * (genus - 5) // 3


def _genus6_model():
    return delpezzo_curve(6, seed=70)


def test_kappa21_two_routes_agree_at_genus6():
    # route 1: count a kernel basis of the multiplication map
    # route 2: middle cohomology of the three-term complex
    model = _genus6_model()
    ring = GradedRing(6, P)
    syzygies = linear_syzygies(ring, model.quadrics)
    assert len(syzygies) == _kappa21(6) == 5
    assert betti_table(ring, model.quadrics, p_max=2).entries[1, 2] == 5


def test_every_reported_syzygy_multiplies_to_zero():
    model = _genus6_model()
    ring = GradedRing(6, P)
    for gamma in linear_syzygies(ring, model.quadrics):
        assert is_syzygy(ring, model.quadrics, gamma)
        # re-multiply by hand: sum_v Z_v * (gamma[v] . basis) in degree 3
        acc = np.zeros(ring.dim(3), dtype=np.int64)
        for v in range(6):
            quad = vector(ring, 2, gamma[v] @ model.quadrics.basis % P)
            acc = (acc + multiply(ring, variable(ring, v), quad).coeffs) % P
        assert not acc.any()


def test_koszul_corner_values_at_genus6():
    model = _genus6_model()
    table = betti_table(GradedRing(6, P), model.quadrics)
    assert table.entries[0, 0] == 1
    assert table.entries[2, 1] == 0
    # duality partner of the top-left 1 for a genus-6 canonical curve
    assert table.entries[3, 4] == 1


def test_syzygy_kernel_ambient_layout():
    model = _genus6_model()
    ring = GradedRing(6, P)
    ker = syzygy_kernel(ring, model.quadrics)
    assert ker.ambient_dim == 6 * model.quadrics.dim
    assert ker.dim == 5


def test_quadrics_involved_rejects_non_syzygies():
    model = _genus6_model()
    ring = GradedRing(6, P)
    bogus = np.zeros((6, model.quadrics.dim), dtype=np.int64)
    bogus[0, 0] = 1  # Z1 * Q1 alone is not a syzygy
    with pytest.raises(InvalidSyzygyError):
        quadrics_involved(ring, model.quadrics, bogus)


def test_span_is_inside_the_ideal_piece():
    for model in (
        fourgonal_curve(ScrollFrame((1, 2, 2)), 2, 1, seed=71),
        bielliptic_curve(8, seed=71),
    ):
        ring = GradedRing(model.genus, P)
        report = syz2_span(ring, model.quadrics, model.surface_quadrics)
        assert contains_space(model.quadrics, report.span)
        assert report.kappa21 == _kappa21(model.genus)


def test_verdicts_per_family():
    frame = ScrollFrame((1, 2, 2))
    ring = GradedRing(8, P)
    general = fourgonal_curve(frame, 2, 1, seed=72)
    rep = syz2_span(ring, general.quadrics)
    assert rep.verdict == VERDICT_CURVE
    assert rep.dim_span == comb(6, 2)

    extremal = fourgonal_curve(frame, 3, 0, seed=72)
    rep = syz2_span(ring, extremal.quadrics)
    assert rep.verdict == VERDICT_SURFACE
    assert rep.dim_span == comb(6, 2) - 1

    biell = bielliptic_curve(8, seed=72)
    rep = syz2_span(ring, biell.quadrics, biell.surface_quadrics)
    assert rep.verdict == VERDICT_SURFACE
    assert rep.surface_match is True
    assert rep.span == biell.surface_quadrics

    g5 = genus5_intersection(seed=72)
    rep = syz2_span(GradedRing(5, P), g5.quadrics)
    assert rep.verdict == VERDICT_WHOLE
    assert rep.kappa21 == 0


@pytest.mark.parametrize("family", ["fourgonal", "bielliptic", "delpezzo"])
def test_span_matches_the_stacked_route(family):
    for genus in range(6, 10):
        model = construct_model(family, genus=genus, seed=genus)
        ring = GradedRing(genus, P)
        kernel = syzygy_kernel(ring, model.quadrics)
        want = oracle_syzygy_span(kernel.basis.tolist(), model.quadrics.basis.tolist(), P)
        assert syz2_span(ring, model.quadrics).span.basis.tolist() == want


def test_unsupported_degrees_raise():
    model = _genus6_model()
    ring = GradedRing(6, P)
    with pytest.raises(UnsupportedDegreeError, match="-1"):
        betti_table(ring, model.quadrics, p_max=-1)
    with pytest.raises(UnsupportedDegreeError, match="7"):
        betti_table(ring, model.quadrics, p_max=7)  # columns past g = 6 are zero


def test_size_budget_is_enforced():
    model = _genus6_model()
    ring = GradedRing(6, P)
    # kappa_0,0 needs no matrix; kappa_2,1 needs two above 10 entries
    table = betti_table(ring, model.quadrics, p_max=2, max_entries=10)
    assert table.truncated
    assert table.entries[0, 0] == 1 and table.entries[1, 2] == -1


def test_betti_table_genus6():
    model = _genus6_model()
    ring = GradedRing(6, P)
    table = betti_table(ring, model.quadrics, expected_genus=6)
    assert not table.truncated
    assert table.entries[0, 0] == 1
    assert table.entries[1, 1] == 6
    assert table.entries[1, 2] == 5
    assert table.entries[2, 1] == 0
    assert table.entries[2, 2] == 5
    assert table.entries[2, 3] == 6
    assert table.entries[3, 3] == 0
    assert table.entries[3, 4] == 1


def test_betti_table_ranks_each_differential_once(monkeypatch):
    seen = []

    def recording_rank(mat, p):
        seen.append(hashlib.sha256(repr(mat.shape).encode() + mat.tobytes()).hexdigest())
        return linalg.rank(mat, p)

    monkeypatch.setattr(koszul, "rank", recording_rank)
    model = _genus6_model()
    table = betti_table(GradedRing(6, P), model.quadrics, expected_genus=6)
    assert not table.truncated
    assert seen and len(seen) == len(set(seen))


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_model("fourgonal", genus=6, seed=76),
        lambda: bielliptic_curve(6, seed=76),
        lambda: delpezzo_curve(6, seed=76),
        lambda: genus5_intersection(seed=76),
        lambda: construct_model("fourgonal", genus=7, seed=76),
    ],
    ids=["fourgonal", "bielliptic", "delpezzo", "genus5", "fourgonal-g7"],
)
def test_complete_grids_satisfy_duality_and_euler_characteristic(build):
    model = build()
    g = model.genus
    table = betti_table(GradedRing(g, P), model.quadrics, expected_genus=g)
    assert not table.truncated and table.entries.shape == (4, g - 1)

    def kappa(p_idx, q_idx):
        # columns p >= g - 1 are dual to p < 0, hence zero
        return table.entries[q_idx, p_idx] if p_idx <= g - 2 else 0

    def h(d):
        return 1 if d == 0 else g if d == 1 else (2 * d - 1) * (g - 1)

    for q_idx in range(4):
        for p_idx in range(g - 1):
            assert kappa(p_idx, q_idx) == kappa(g - 2 - p_idx, 3 - q_idx)
    for k in range(g + 4):
        lhs = sum((-1) ** p * kappa(p, k - p) for p in range(max(0, k - 3), min(k, g) + 1))
        rhs = sum((-1) ** p * comb(g, p) * h(k - p) for p in range(min(k, g) + 1))
        assert lhs == rhs, k


def test_betti_table_checks_duality_and_euler_characteristic(monkeypatch):
    model = _genus6_model()
    ring = GradedRing(6, P)
    # a dual pair both one too large keeps duality and breaks their diagonals
    entries = betti_table(ring, model.quadrics, expected_genus=6).entries.copy()
    entries[1, 1] += 1
    entries[2, 3] += 1
    with pytest.raises(ModelInconsistencyError, match="diagonal 2:"):
        koszul._check_identities(entries, 6)

    # one rank too small on d_{2,1}: wedge^2 V (x) B_1 -> V (x) B_2 raises
    # kappa_{2,1} and kappa_{1,2} by one; the diagonal sums cancel, duality breaks
    def rank_one_short(mat, p):
        return linalg.rank(mat, p) - (mat.shape == (15 * 6, 6 * 15))

    monkeypatch.setattr(koszul, "rank", rank_one_short)
    with pytest.raises(ModelInconsistencyError, match=r"kappa_2,1 = .* dual kappa_2,2"):
        betti_table(ring, model.quadrics, expected_genus=6)
    # without a genus to check against, the grid comes back as computed
    assert betti_table(ring, model.quadrics).entries[1, 2] == _kappa21(6) + 1


@pytest.mark.parametrize("q_idx", [0, 1, 2])
def test_betti_table_requires_zero_columns_past_g_minus_2(monkeypatch, q_idx):
    # one rank too small on d_{6,q}: wedge^6 V (x) B_q -> wedge^5 V (x) B_{q+1}
    # raises kappa_{6,q} and kappa_{5,q+1}; both are dual to negative columns
    model = _genus6_model()
    build = koszul._KoszulComplex._differential
    built = []

    def recording_differential(self, p_idx, q):
        built.append((p_idx, q))
        return build(self, p_idx, q)

    def rank_one_short(mat, p):
        return linalg.rank(mat, p) - (built[-1] == (6, q_idx))

    monkeypatch.setattr(koszul._KoszulComplex, "_differential", recording_differential)
    monkeypatch.setattr(koszul, "rank", rank_one_short)
    with pytest.raises(ModelInconsistencyError, match=f"kappa_6,{q_idx} = 1 "):
        betti_table(GradedRing(6, P), model.quadrics, p_max=6, expected_genus=6)
    assert built.count((6, q_idx)) == 1


def test_differential_and_its_rank_fit_in_one_and_a_half_int64_copies():
    """The largest g = 7 differential, d_{4,3}: 1050 x 1470.

    Its bytes plus the tracemalloc peak of ranking it, relative to one
    int64 copy: 1.19x with int32 storage, 2.20x when both the differential
    and rank's working matrix are int64.
    """
    model = construct_model("fourgonal", genus=7, seed=0)
    complex_ = koszul._KoszulComplex(GradedRing(7, P), model.quadrics, 10**7)
    mat = complex_._differential(4, 3)
    assert mat.shape == (1050, 1470)
    tracemalloc.start()
    try:
        rank(mat, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (mat.nbytes + peak) / (8 * mat.size) < 1.5


def test_betti_table_rejects_wrong_hilbert_function():
    # three quadrics in five variables do not cut a canonical genus-5 curve's
    # Hilbert function when we claim a different genus
    model = genus5_intersection(seed=73)
    ring = GradedRing(5, P)
    with pytest.raises(ModelInconsistencyError):
        betti_table(ring, model.quadrics, expected_genus=6)


def test_betti_table_truncates_under_budget():
    model = _genus6_model()
    ring = GradedRing(6, P)
    table = betti_table(ring, model.quadrics, p_max=4, max_entries=2_000)
    assert table.truncated
    flat = np.asarray(table.entries)
    assert (flat == -1).any()


def test_expected_verdicts():
    assert expected_verdict(genus5_intersection(seed=74)) == VERDICT_WHOLE
    assert expected_verdict(bielliptic_curve(7, seed=74)) == VERDICT_SURFACE
    assert expected_verdict(delpezzo_curve(7, seed=74)) == VERDICT_SURFACE
    frame = ScrollFrame((1, 1, 2))
    assert expected_verdict(fourgonal_curve(frame, 1, 1, seed=74)) == VERDICT_CURVE
    assert expected_verdict(fourgonal_curve(frame, 2, 0, seed=74)) == VERDICT_SURFACE


def test_classify_theorem_records():
    rec = classify_theorem(bielliptic_curve(9, seed=75))
    assert rec["passed"]
    assert rec["verdict"] == rec["expected_verdict"] == VERDICT_SURFACE
    assert rec["surface_match"] is True
    assert rec["kappa21"] == _kappa21(9)
    assert rec["dim_W"] == comb(7, 2) - 1

    rec = classify_theorem(fourgonal_curve(ScrollFrame((1, 1, 1)), 1, 0, seed=75))
    assert rec["passed"] and rec["verdict"] == VERDICT_SURFACE

    rec = classify_theorem(genus5_intersection(seed=75))
    assert rec["passed"] and rec["verdict"] == VERDICT_WHOLE and rec["kappa21"] == 0
