"""High-level pipelines: build a model, analyze it, sweep the main result.

Every entry point is deterministic in (family, genus, params, prime, seed);
reports carry the model digest so reruns can be compared byte-for-byte
after stripping timings.
"""

from __future__ import annotations

import time
import warnings
from typing import Optional

from .errors import ModelInconsistencyError
from .io import model_digest
from .koszul import betti_table, classify_theorem
from .linalg import DEFAULT_PRIME, check_prime
from .models import (
    BIELLIPTIC,
    CURVE_FAMILIES,
    DELPEZZO,
    FOURGONAL,
    GENERA,
    GENUS5,
    VERONESE,
    CurveModel,
    check_genus,
)
from .ring import GradedRing
from .scroll import (
    ScrollFrame,
    fourgonal_curve,
    restriction_image,
    scrollar_bidegrees,
)
from .surfaces import bielliptic_curve, delpezzo_curve, genus5_intersection


def default_split(genus: int) -> tuple[int, int]:
    """Near-even (a, b) with a + b = g - 5 and a >= b."""
    total = genus - 5
    return (total + 1) // 2, total // 2


def construct_model(
    family: str,
    genus: Optional[int] = None,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    frame: Optional[tuple[int, int, int]] = None,
    a: Optional[int] = None,
    b: Optional[int] = None,
) -> CurveModel:
    """Build a curve model of the named family with sensible defaults."""
    p = check_prime(prime)
    if family not in CURVE_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose one of {sorted(CURVE_FAMILIES)}"
        )
    given = [name for name, v in (("frame", frame), ("a", a), ("b", b)) if v is not None]
    if family != FOURGONAL and given:
        raise ValueError(
            f"only the fourgonal family takes a frame or twists; {family} got {', '.join(given)}"
        )
    lowest, highest = GENERA[family]
    if genus is None and lowest != highest:
        raise ValueError(f"family {family!r} requires --genus")
    genus = check_genus(family, lowest if genus is None else genus)
    if family == GENUS5:
        return genus5_intersection(seed, prime=p)
    if family in (DELPEZZO, VERONESE):
        return delpezzo_curve(genus, seed, prime=p)
    if family == BIELLIPTIC:
        return bielliptic_curve(genus, seed, prime=p)
    # fourgonal
    sf = ScrollFrame.balanced(genus) if frame is None else ScrollFrame.of_genus(frame, genus)
    if a is None and b is None:
        a, b = default_split(genus)
    elif a is None or b is None:
        raise ValueError("give both twists a and b, or neither")
    return fourgonal_curve(sf, int(a), int(b), seed, prime=p)


def recovered_bidegrees(model: CurveModel) -> tuple[int, int]:
    """Re-derive (a, b) of a stored 4-gonal model from its quadrics alone."""
    if model.family != FOURGONAL:
        raise ModelInconsistencyError("bidegree recovery applies to 4-gonal models")
    frame = ScrollFrame(tuple(model.params["frame"]))
    ring = GradedRing(model.genus, model.prime)
    restricted = restriction_image(frame, ring, model.quadrics)
    return scrollar_bidegrees(frame, restricted)


def analyze_model(
    model: CurveModel,
    betti_max_p: Optional[int] = None,
) -> dict:
    """Full per-model report: syzygy counts, span verdict, optional kappa grid.

    For 4-gonal models the stored twists are cross-checked against the
    bidegrees recovered from the ideal; disagreement is a warning, not an
    error, since it indicates a mislabeled model rather than a wrong span.
    """
    ring = GradedRing(model.genus, model.prime)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    record = classify_theorem(model)
    timings["syzygies_s"] = round(time.perf_counter() - t0, 6)
    report: dict = {
        "format_version": 1,
        "digest": model_digest(model),
        "family": model.family,
        "genus": model.genus,
        "prime": model.prime,
        "seed": model.seed,
        "kappa11": record.kappa11,
        "kappa21": record.kappa21,
        "dim_W": record.dim_span,
        "verdict": record.verdict,
        "expected_verdict": record.expected_verdict,
        "surface_match": record.surface_match,
        "passed": record.passed,
        "betti": None,
        "bidegrees": None,
    }
    if model.family == FOURGONAL:
        lam = recovered_bidegrees(model)
        report["bidegrees"] = list(lam)
        stored = (int(model.params["a"]), int(model.params["b"]))
        if (max(stored), min(stored)) != lam:
            warnings.warn(
                f"stored twists {stored} disagree with recovered bidegrees {lam}",
                stacklevel=2,
            )
    if betti_max_p is not None:
        t0 = time.perf_counter()
        table = betti_table(
            ring, model.quadrics, p_max=betti_max_p, expected_genus=model.genus
        )
        timings["betti_s"] = round(time.perf_counter() - t0, 6)
        report["betti"] = {
            "entries": [[int(x) for x in row] for row in table.entries],
            "truncated": table.truncated,
        }
        if table.truncated:
            warnings.warn("kappa grid truncated by the matrix size budget", stacklevel=2)
    report["timings"] = timings
    return report


def render_betti(table: dict) -> str:
    """Text grid of a report's betti entry: '--' for zeros, '?' for skips."""
    entries = table["entries"]
    width = max(2, *(len(str(v)) for row in entries for v in row))

    def cell(v: int) -> str:
        text = "--" if v == 0 else ("?" if v < 0 else str(v))
        return text.rjust(width)

    lines = ["  ".join(cell(v) for v in row) for row in entries]
    if table["truncated"]:
        lines.append("(table truncated by size budget)")
    return "\n".join(lines)


def _sweep_models(genus: int, prime: int, seed: int, trial: int):
    """The models one sweep cell exercises, as (label, model) pairs."""
    out = []
    base = seed + 1009 * genus + 101 * trial
    if genus == 5:
        out.append((GENUS5, genus5_intersection(base, prime=prime)))
        return out
    a, b = default_split(genus)
    if min(a, b) >= 1:
        out.append(
            (
                "fourgonal-split",
                fourgonal_curve(ScrollFrame.balanced(genus), a, b, base, prime=prime),
            )
        )
    if genus <= 9:
        # past genus 9 every twist-(g-5) section has singular fibre conics
        out.append(
            (
                "fourgonal-extremal",
                fourgonal_curve(
                    ScrollFrame.hosting(genus, genus - 5), genus - 5, 0, base + 1,
                    prime=prime,
                ),
            )
        )
    out.append((BIELLIPTIC, bielliptic_curve(genus, base + 2, prime=prime)))
    if genus <= 10:
        # the plane-cubic model is a veronese one at genus 10
        model = delpezzo_curve(genus, base + 3, prime=prime)
        out.append((model.family, model))
    return out


def theorem_sweep(
    genus_lo: int = 5,
    genus_hi: int = 12,
    trials: int = 1,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
) -> tuple[list[dict], bool]:
    """Check the classification on every family at every genus in range.

    Returns (records, all_passed); each record carries the verdict, the
    expected branch, and PASS/FAIL.  Models are seeded deterministically
    from (seed, genus, trial).
    """
    if not 5 <= genus_lo <= genus_hi <= 13:
        raise ValueError(
            f"genus range must lie within [5, 13], got {genus_lo}..{genus_hi}"
        )
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    p = check_prime(prime)
    records: list[dict] = []
    for genus in range(genus_lo, genus_hi + 1):
        for trial in range(trials):
            for label, model in _sweep_models(genus, p, seed, trial):
                t0 = time.perf_counter()
                rec = classify_theorem(model)
                records.append(
                    {
                        "genus": genus,
                        "family": label,
                        "trial": trial,
                        "seed": model.seed,
                        "kappa21": rec.kappa21,
                        "dim_W": rec.dim_span,
                        "verdict": rec.verdict,
                        "expected_verdict": rec.expected_verdict,
                        "surface_match": rec.surface_match,
                        "passed": rec.passed,
                        "timings": {
                            "classify_s": round(time.perf_counter() - t0, 6)
                        },
                    }
                )
    records.sort(key=lambda r: (r["genus"], r["family"], r["trial"]))
    return records, all(r["passed"] for r in records)


def sweep_summary(records: list[dict]) -> str:
    lines = []
    for r in records:
        status = "PASS" if r["passed"] else "FAIL"
        extra = ""
        if r["surface_match"] is not None:
            extra = f" surface_match={r['surface_match']}"
        lines.append(
            f"{status} g={r['genus']:2d} trial={r['trial']} {r['family']:<18} "
            f"verdict={r['verdict']:<13} expected={r['expected_verdict']:<13} "
            f"kappa21={r['kappa21']:4d} dim_W={r['dim_W']:3d}{extra}"
        )
    n_pass = sum(r["passed"] for r in records)
    lines.append(f"{n_pass}/{len(records)} checks passed")
    return "\n".join(lines)
