"""Curve model files and reports (JSON), and plain-text ideal export.

Files are deterministic: the same model serializes to the same bytes, and
the model digest is a sha256 over the canonical JSON encoding.  Timings
never enter digests so reruns of identical analyses stay comparable.
This module holds the write side only; ``harness.load_model`` reads a
file back by rebuilding its model and comparing the bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .linalg import Subspace
from .models import CurveModel
from .ring import GradedRing

FORMAT_VERSION = 1

PathLike = Union[str, Path]


def _subspace_payload(space: Optional[Subspace]) -> Optional[dict]:
    if space is None:
        return None
    return {
        "ambient_dim": space.ambient_dim,
        "rows": [[int(x) for x in row] for row in space.basis],
    }


def model_to_dict(model: CurveModel) -> dict:
    # files sort their keys; this order is the one harness.load_model
    # compares in, params before the quadrics they determine
    return {
        "format_version": FORMAT_VERSION,
        "type": "curve",
        "family": model.family,
        "genus": model.genus,
        "prime": model.prime,
        "seed": model.seed,
        "params": model.params,
        "quadrics": _subspace_payload(model.quadrics),
        "surface_quadrics": _subspace_payload(model.surface_quadrics),
    }


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def model_digest(model: CurveModel) -> str:
    return hashlib.sha256(canonical_json(model_to_dict(model)).encode()).hexdigest()


def save_model(model: CurveModel, path: PathLike) -> None:
    Path(path).write_text(canonical_json(model_to_dict(model)) + "\n")


def save_report(report: dict, path: PathLike) -> None:
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")


def strip_timings(report: dict) -> dict:
    """Copy of a report without its runtime measurements (for comparisons)."""
    return {k: v for k, v in report.items() if k != "timings"}


# -- plain-text polynomial export ---------------------------------------------


def _term_string(coeff: int, exponents, names: list[str]) -> str:
    factors = []
    for var, e in enumerate(exponents):
        if e == 1:
            factors.append(names[var])
        elif e > 1:
            factors.append(f"{names[var]}^{int(e)}")
    if not factors:
        return str(int(coeff))
    if int(coeff) == 1:
        return "*".join(factors)
    return "*".join([str(int(coeff))] + factors)


def polynomial_string(ring: GradedRing, degree: int, coeffs: np.ndarray) -> str:
    names = [f"Z{v + 1}" for v in range(ring.num_vars)]
    terms = [
        _term_string(c, e, names)
        for e, c in zip(ring.exponents(degree), coeffs)
        if c
    ]
    return " + ".join(terms) if terms else "0"


def export_ideal_text(model: CurveModel) -> str:
    """Generators of I_2 as one polynomial per line, after comment headers
    with the prime and the variable count."""
    ring = GradedRing(model.genus, model.prime)
    lines = [f"# prime {model.prime}", f"# nvars {model.genus}"]
    for row in model.quadrics.basis:
        lines.append(polynomial_string(ring, 2, row))
    return "\n".join(lines) + "\n"
