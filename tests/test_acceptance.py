"""End-to-end acceptance checks.

Each test covers one numbered claim about the package as a whole and prints
exactly one PASS/FAIL line; run with -rP (the default here) or -s to see the
lines.  Timing bounds are generous ceilings, not benchmarks.
"""

from __future__ import annotations

import time
from math import comb

import numpy as np

from oracles import (
    oracle_kernel_dim,
    oracle_ladder_embedding,
    oracle_rank,
    oracle_weierstrass_points,
)
from scroll_helpers import (
    fourgonal_sections,
    lifted_multiple,
    pad_syzygies,
    rolling_residual,
    scroll_minors,
    scroll_points,
    scroll_ring_syzygies,
)

from syzlab.harness import construct_model, default_split
from syzlab.koszul import (
    VERDICT_CURVE,
    VERDICT_SURFACE,
    VERDICT_WHOLE,
    betti_table,
    linear_syzygies,
    syz2_span,
)
from syzlab.linalg import DEFAULT_PRIME, kernel_basis, rank
from syzlab.ring import GradedRing
from syzlab.scroll import ScrollFrame, fourgonal_curve
from syzlab.surfaces import (
    WeierstrassCurve,
    bielliptic_curve,
    delpezzo_curve,
    elliptic_normal_ideal,
    genus5_intersection,
    pole_order_basis,
)

P = DEFAULT_PRIME


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_kappa21_formula_all_families():
    counts_ok = True
    slowest = 0.0
    n_models = 0
    for g in range(6, 13):
        models = [
            construct_model("fourgonal", genus=g, seed=100 + g),
            bielliptic_curve(g, seed=110 + g),
        ]
        if g <= 10:
            models.append(delpezzo_curve(g, seed=120 + g))
        ring = GradedRing(g, P)
        for model in models:
            n_models += 1
            t0 = time.perf_counter()
            found = len(linear_syzygies(ring, model.quadrics))
            dt = time.perf_counter() - t0
            slowest = max(slowest, dt)
            counts_ok &= found == (g - 1) * (g - 3) * (g - 5) // 3
    ok = counts_ok and slowest < 10.0
    _report(
        1,
        ok,
        f"kappa_2,1 = (g-1)(g-3)(g-5)/3 for {n_models} models over g=6..12, "
        f"slowest model {slowest:.2f} s (limit 10 s)",
    )


def test_criterion_2_genus6_betti_grids():
    t0 = time.perf_counter()
    model = delpezzo_curve(6, seed=200)
    ring = GradedRing(6, P)
    curve_grid = betti_table(ring, model.quadrics, expected_genus=6).entries
    surface_grid = betti_table(ring, model.surface_quadrics).entries
    want_curve = np.array(
        [[1, 0, 0, 0, 0], [0, 6, 5, 0, 0], [0, 0, 5, 6, 0], [0, 0, 0, 0, 1]]
    )
    want_surface = np.array(
        [[1, 0, 0, 0, 0], [0, 5, 5, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0]]
    )
    dt = time.perf_counter() - t0
    ok = (
        np.array_equal(curve_grid, want_curve)
        and np.array_equal(surface_grid, want_surface)
        and dt < 30.0
    )
    _report(
        2,
        ok,
        f"genus-6 grids: curve (1; 6,5; 5,6; 1), surface (1; 5,5; 1) in {dt:.2f} s "
        f"(limit 30 s)",
    )


def test_criterion_3_genus10_plane_sextic_counts():
    t0 = time.perf_counter()
    model = delpezzo_curve(10, seed=300)
    ring = GradedRing(10, P)
    surface = model.surface_quadrics
    # the budget skips the costly cells of rows q >= 2, which are not read
    curve_grid = betti_table(ring, model.quadrics, p_max=2, max_entries=200_000)
    surface_grid = betti_table(ring, surface, p_max=2, max_entries=200_000)
    k11_curve, k21_curve = curve_grid.entries[1, 1], curve_grid.entries[1, 2]
    k11_surface, k21_surface = surface_grid.entries[1, 1], surface_grid.entries[1, 2]
    cubics_surface = ring.ideal_piece(surface, 3).dim
    rep = syz2_span(ring, model.quadrics)
    dt = time.perf_counter() - t0
    ok = (
        k11_curve == 28
        and k11_surface == 27
        and cubics_surface == 165
        and k21_surface == k21_curve == 105
        and rep.span == surface
        and dt < 60.0
    )
    _report(
        3,
        ok,
        f"genus 10: kappa_1,1 C/S = {k11_curve}/{k11_surface}, dim I_S,3 = "
        f"{cubics_surface}, kappa_2,1 = {k21_curve}, W = surface quadrics, "
        f"{dt:.2f} s (limit 60 s)",
    )


def test_criterion_4_classification_sweep():
    t0 = time.perf_counter()
    failures: list[str] = []
    checked = 0
    for g in (11, 12):
        ring = GradedRing(g, P)
        for trial in range(3):
            checked += 2
            four = construct_model("fourgonal", genus=g, seed=400 + 10 * g + trial)
            rep = syz2_span(ring, four.quadrics)
            if rep.verdict != VERDICT_CURVE:
                failures.append(f"fourgonal g={g} t={trial}: {rep.verdict}")
            biell = bielliptic_curve(g, seed=440 + 10 * g + trial)
            rep = syz2_span(ring, biell.quadrics)
            if not (
                rep.verdict == VERDICT_SURFACE
                and rep.span == biell.surface_quadrics
                and rep.dim_span == comb(g - 2, 2) - 1
            ):
                failures.append(f"bielliptic g={g} t={trial}: {rep.verdict}")
    for g in range(6, 11):
        ring = GradedRing(g, P)
        for trial in range(3):
            checked += 1
            model = delpezzo_curve(g, seed=480 + 10 * g + trial)
            rep = syz2_span(ring, model.quadrics)
            if not (rep.verdict == VERDICT_SURFACE and rep.span == model.surface_quadrics):
                failures.append(f"delpezzo g={g} t={trial}: {rep.verdict}")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 300.0
    _report(
        4,
        ok,
        f"{checked} models, 3 seeds each: 4-gonal a,b>=1 -> curve, bielliptic -> "
        f"elliptic-cone span, plane-model curves -> surface span; "
        f"{len(failures)} failures, {dt:.1f} s (limit 300 s)",
    )


def test_criterion_5_one_sided_pencils_sweep_a_surface():
    results_ok = True
    # past genus 9 no twist-(g-5) section cuts an irreducible curve
    for g in range(7, 10):
        frame = ScrollFrame.hosting(g, g - 5)
        model = fourgonal_curve(frame, g - 5, 0, seed=500 + g)
        rep = syz2_span(GradedRing(g, P), model.quadrics)
        results_ok &= rep.verdict == VERDICT_SURFACE
        results_ok &= rep.dim_span == comb(g - 2, 2) - 1
    _report(
        5,
        results_ok,
        "4-gonal (a,b) = (g-5,0) for g=7..9: proper surface of quadric "
        "dimension C(g-2,2)-1",
    )


def test_criterion_6_rolling_factors_identity():
    trials_per_frame = 100
    all_zero = True
    for k in [(1, 1, 1), (2, 2, 2), (2, 3, 3)]:
        frame = ScrollFrame(k)
        g = frame.genus
        ring = GradedRing(g, P)
        rng = np.random.default_rng(600 + g)
        for _ in range(trials_per_frame):
            a_forms = rng.integers(0, P, size=(g - 3, g))
            alpha = rng.integers(0, P, size=g - 3)
            all_zero &= not rolling_residual(frame, ring, a_forms, alpha).any()
    _report(
        6,
        all_zero,
        f"h_bot*q1 - h_top*q2 = sum Delta_jk M_jk coefficient-exact on "
        f"{trials_per_frame} random instances per frame (1,1,1), (2,2,2), (2,3,3)",
    )


def test_criterion_7_scroll_quotient_syzygy_dimensions():
    ok = True
    for g in range(8, 13):
        a, b = default_split(g)
        frame = ScrollFrame.balanced(g)
        ring = GradedRing(g, P)
        model = fourgonal_curve(frame, a, b, seed=700 + g)
        q1, q2 = fourgonal_sections(model)
        side1 = [lifted_multiple(frame, ring, q1, a, i) for i in range(a + 1)]
        side2 = [lifted_multiple(frame, ring, q2, b, i) for i in range(b + 1)]
        full = scroll_ring_syzygies(frame, ring, side1 + side2)
        s1 = scroll_ring_syzygies(frame, ring, side1)
        s2 = scroll_ring_syzygies(frame, ring, side2)
        ok &= full.dim == (g - 5) * (g - 3)
        ok &= s1.dim == a * (g - 3) and s2.dim == b * (g - 3)
        e1 = pad_syzygies(s1, g, g - 3, 0)
        e2 = pad_syzygies(s2, g, g - 3, a + 1)
        ok &= e1.sum(e2) == full and e1.sum(e2).dim == e1.dim + e2.dim
    _report(
        7,
        ok,
        "scroll-quotient linear syzygies have dim (g-5)(g-3) and split "
        "a(g-3) (+) b(g-3) for g=8..12",
    )


def test_criterion_8_oracle_equivalence_and_sampling_stability():
    rng = np.random.default_rng(800)
    prime_cycle = (97, 10007, P)
    matrices_ok = True
    for i in range(200):
        p = prime_cycle[i % 3]
        r, c = int(rng.integers(1, 11)), int(rng.integers(1, 10))
        if i % 5 == 0:
            u = rng.integers(0, p, size=(r, 2))
            v = rng.integers(0, p, size=(2, c))
            mat = np.asarray(u @ v % p, dtype=np.int64)
        else:
            mat = rng.integers(0, p, size=(r, c), dtype=np.int64)
        listed = [[int(x) for x in row] for row in mat]
        matrices_ok &= rank(mat, p) == oracle_rank(listed, p)
        matrices_ok &= kernel_basis(mat, p).dim == oracle_kernel_dim(listed, p)

    doubling_ok = True
    # determinantal: quadrics through scroll points, sample doubled
    frame = ScrollFrame((2, 2, 2))
    ring9 = GradedRing(9, P)
    n0 = 3 * ring9.dim(2)
    k_half = kernel_basis(
        ring9.evaluate_monomials(2, scroll_points(frame, n0, seed=801)), P
    )
    k_full = kernel_basis(
        ring9.evaluate_monomials(2, scroll_points(frame, 2 * n0, seed=802)), P
    )
    doubling_ok &= k_half == k_full == scroll_minors(frame, ring9)

    # elliptic normal curves: the exact ideal against the kernel of monomial
    # evaluations at an independent sample and at that sample doubled
    curve = WeierstrassCurve(2, 3, P)

    def embedded_sample(n: int, count: int, seed: int) -> np.ndarray:
        affine = oracle_weierstrass_points(curve.a4, curve.a6, P, count, seed)
        return np.array(oracle_ladder_embedding(affine, pole_order_basis(n), P), dtype=np.int64)

    for n in (6, 8):
        quadrics = elliptic_normal_ideal(n, curve)
        ring_n = GradedRing(n, P)
        first = embedded_sample(n, 3 * ring_n.dim(2), seed=805 + n)
        fresh = embedded_sample(n, len(first), seed=815 + n)
        k1 = kernel_basis(ring_n.evaluate_monomials(2, first), P)
        k2 = kernel_basis(ring_n.evaluate_monomials(2, np.vstack([first, fresh])), P)
        doubling_ok &= k1 == k2 == quadrics

    # plane-cubic images: regenerate the map from a curve's stored base points
    # and compare the same way with its surface quadrics
    ring3 = GradedRing(3, P)
    for g in range(6, 11):
        model = delpezzo_curve(g, seed=806 + g)
        base = np.array(model.params["base_points"], dtype=np.int64).reshape(-1, 3)
        cubics = kernel_basis(ring3.evaluate_monomials(3, base), P)
        gen_rng = np.random.default_rng(812 + g)
        ring_g = GradedRing(g, P)

        def fresh_image(count: int) -> np.ndarray:
            out: list[np.ndarray] = []
            while len(out) < count:
                q = np.array(
                    [int(gen_rng.integers(0, P)), int(gen_rng.integers(0, P)), 1],
                    dtype=np.int64,
                )
                vals = ring3.evaluate_monomials(3, q)[0] @ cubics.basis.T % P
                if vals.any():
                    out.append(vals)
            return np.array(out, dtype=np.int64)

        first = fresh_image(3 * ring_g.dim(2))
        k1 = kernel_basis(ring_g.evaluate_monomials(2, first), P)
        doubled = np.vstack([first, fresh_image(len(first))])
        k2 = kernel_basis(ring_g.evaluate_monomials(2, doubled), P)
        doubling_ok &= k1 == k2 == model.surface_quadrics

    ok = matrices_ok and doubling_ok
    _report(
        8,
        ok,
        "elimination matches the dense oracle on 200 matrices (rank + kernel "
        "dim); scroll, elliptic and plane-cubic ideals equal the kernels of "
        "monomial evaluations at independent and doubled point samples",
    )


def test_criterion_9_genus5_whole_space():
    t0 = time.perf_counter()
    model = genus5_intersection(seed=900)
    rep = syz2_span(GradedRing(5, P), model.quadrics)
    dt = time.perf_counter() - t0
    ok = rep.kappa21 == 0 and rep.verdict == VERDICT_WHOLE and dt < 1.0
    _report(
        9,
        ok,
        f"genus 5: kappa_2,1 = 0 and verdict {rep.verdict} in {dt:.3f} s (limit 1 s)",
    )
