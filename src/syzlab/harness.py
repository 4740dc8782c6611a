"""High-level pipelines: build or load a model, analyze it, sweep the main result.

Every entry point is deterministic in (family, genus, params, prime, seed);
reports carry the model digest so reruns can be compared byte-for-byte
after stripping timings.  A model file loads only as its own rebuild: the
loader constructs the model its family, genus, prime and seed name and
accepts the file only if it holds exactly the bytes saving that model
writes.
"""

from __future__ import annotations

import json
import time
import warnings
from math import comb
from pathlib import Path
from typing import Optional

from .errors import ModelInconsistencyError, SyzlabError
from .io import FORMAT_VERSION, PathLike, canonical_json, model_digest, model_to_dict
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


def _is_int_matrix(value, nrows: int, ncols: int) -> bool:
    """Is value a list of nrows lists of ncols JSON integers (bool excluded)?"""
    return (
        isinstance(value, list)
        and len(value) == nrows
        and all(
            isinstance(row, list) and len(row) == ncols and all(type(x) is int for x in row)
            for row in value
        )
    )


def model_from_dict(data: dict) -> CurveModel:
    """The model a model file holds: rebuilt from its family, genus, prime
    and seed (and a 4-gonal file's frame and twists), and returned only if
    every field of the file is what saving the rebuild writes.  Anything
    else raises a one-line ModelInconsistencyError naming the first field
    that differs."""
    if not isinstance(data, dict):
        raise ModelInconsistencyError(f"model file holds a JSON {type(data).__name__}")
    if data.get("format_version") != FORMAT_VERSION:
        raise ModelInconsistencyError(
            f"unsupported format_version {data.get('format_version')!r}"
        )
    if data.get("type") != "curve":
        raise ModelInconsistencyError(f"model type {data.get('type')!r} is not 'curve'")
    for key in ("genus", "prime", "seed"):
        if type(data.get(key)) is not int:  # bool is an int subclass
            raise ModelInconsistencyError(f"{key} must be an integer, got {data.get(key)!r}")
    family, genus, params = data.get("family"), data["genus"], data.get("params")
    # sized before any rebuild, so a file never makes the loader build more
    # than it holds
    quadrics = data.get("quadrics")
    rows = quadrics.get("rows") if isinstance(quadrics, dict) else None
    if genus < 2 or not _is_int_matrix(rows, comb(genus - 2, 2), comb(genus + 1, 2)):
        raise ModelInconsistencyError(
            f"quadrics must be C(g-2, 2) rows of C(g+1, 2) integers, genus {genus}"
        )
    scroll = {}
    if family == FOURGONAL and isinstance(params, dict):
        scroll = {key: params.get(key) for key in ("frame", "a", "b")}
    try:
        model = construct_model(
            family, genus=genus, prime=data["prime"], seed=data["seed"], **scroll
        )
    except (TypeError, ValueError, SyzlabError) as exc:
        # a file's family and frame and twists may be any JSON value
        raise ModelInconsistencyError(f"model file: {exc}") from None
    expected = model_to_dict(model)
    added = sorted(map(repr, set(data) - set(expected)))
    if added:
        raise ModelInconsistencyError(f"model file has unknown key(s) {', '.join(added)}")
    for key, value in expected.items():
        if key not in data or canonical_json(data[key]) != canonical_json(value):
            raise ModelInconsistencyError(
                f"model file field {key!r} is not what construct writes for its "
                f"family, genus, prime and seed"
            )
    return model


def load_model(path: PathLike) -> CurveModel:
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ModelInconsistencyError("model file nests its JSON too deeply to parse") from None
    return model_from_dict(data)


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
    bidegrees recovered from the ideal; disagreement fails the record, since
    the expected verdict was read off twists the quadrics do not have.
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
        "kappa11": model.quadrics.dim,
        **record,
        "betti": None,
        "bidegrees": None,
    }
    if model.family == FOURGONAL:
        lam = recovered_bidegrees(model)
        report["bidegrees"] = list(lam)
        stored = (int(model.params["a"]), int(model.params["b"]))
        if (max(stored), min(stored)) != lam:
            report["passed"] = False
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
                record = classify_theorem(model)
                records.append(
                    {
                        "genus": genus,
                        "family": label,
                        "trial": trial,
                        "seed": model.seed,
                        **record,
                        "timings": {"classify_s": round(time.perf_counter() - t0, 6)},
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
