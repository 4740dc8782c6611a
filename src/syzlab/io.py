"""Curve model files and reports (JSON), and plain-text ideal export.

Files are deterministic: the same model serializes to the same bytes, and
the model digest is a sha256 over the canonical JSON encoding.  Timings
never enter digests so reruns of identical analyses stay comparable.
Model files hold curves only (``"type": "curve"``); loading checks every
field, and raises ModelInconsistencyError on any key that saving never
writes and on any genus or params that the family's constructor refuses.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ModelInconsistencyError, SyzlabError
from .linalg import Subspace, check_prime
from .models import BIELLIPTIC, CURVE_FAMILIES, DELPEZZO, FOURGONAL, GENUS5, VERONESE, CurveModel
from .models import check_genus
from .ring import GradedRing
from .scroll import ScrollFrame, check_twists
from .surfaces import WeierstrassCurve

FORMAT_VERSION = 1

# the top-level keys model_to_dict writes; a model file holds no others
_FILE_KEYS = frozenset(
    ("format_version", "type", "family", "genus", "prime", "seed", "quadrics", "params",
     "surface_quadrics")
)

PathLike = Union[str, Path]


def _subspace_payload(space: Optional[Subspace]) -> Optional[dict]:
    if space is None:
        return None
    return {
        "ambient_dim": space.ambient_dim,
        "rows": [[int(x) for x in row] for row in space.basis],
    }


def _subspace_from_payload(
    payload: Optional[dict], prime: int, ambient_dim: int
) -> Optional[Subspace]:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ModelInconsistencyError(f"quadric payload is a JSON {type(payload).__name__}")
    _require(payload, ("ambient_dim", "rows"), "quadric payload")
    if payload["ambient_dim"] != ambient_dim:
        raise ModelInconsistencyError(
            f"quadrics live in dimension {payload['ambient_dim']}, the genus "
            f"needs C(g+1, 2) = {ambient_dim}"
        )
    rows = _int64_array(payload["rows"], "quadric rows", ambient_dim)
    return Subspace.from_rows(rows, ambient_dim, prime)


def _int_tree(value, shape: tuple) -> bool:
    """Is value nested lists of JSON integers (bool excluded) of the given
    shape, None standing for any length?"""
    if not shape:
        return type(value) is int
    return (
        isinstance(value, list)
        and shape[0] in (None, len(value))
        and all(_int_tree(v, shape[1:]) for v in value)
    )


def _int64_array(values, what: str, width: int) -> np.ndarray:
    """A list of rows of width JSON integers as an int64 array; nothing
    else is accepted."""
    if not _int_tree(values, (None, width)):
        raise ModelInconsistencyError(f"{what} must be lists of {width} integers")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ModelInconsistencyError(
            f"{what} hold an entry outside the int64 range"
        ) from None


def _require(data: dict, keys, what: str) -> None:
    missing = [k for k in keys if k not in data]
    if missing:
        raise ModelInconsistencyError(f"{what} lacks {', '.join(missing)}")


def _refuse_unknown(data: dict, known, what: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ModelInconsistencyError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}")


def model_to_dict(model: CurveModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "type": "curve",
        "family": model.family,
        "genus": model.genus,
        "prime": model.prime,
        "seed": model.seed,
        "quadrics": _subspace_payload(model.quadrics),
        "params": model.params,
        "surface_quadrics": _subspace_payload(model.surface_quadrics),
    }


# the params a model file of the family carries (its constructor stores
# them), each with its _int_tree shape
_FAMILY_PARAMS = {
    FOURGONAL: {
        "frame": (3,), "a": (), "b": (), "q1_blocks": (None, None), "q2_blocks": (None, None)
    },
    BIELLIPTIC: {"a4": (), "a6": ()},
    DELPEZZO: {"base_points": (None, 3)},
    VERONESE: {"base_points": (None, 3)},
    GENUS5: {},
}


def _check_family(family: str, genus: int, prime: int, params: dict) -> None:
    """Refuse a prime, genus or params the family's constructor would refuse."""
    try:
        check_prime(prime)
        check_genus(family, genus)
        if family == FOURGONAL:
            check_twists(ScrollFrame.of_genus(params["frame"], genus), params["a"], params["b"])
        elif family == BIELLIPTIC:
            WeierstrassCurve(params["a4"], params["a6"], prime)
        elif family != GENUS5 and len(params["base_points"]) != 10 - genus:
            raise ValueError(f"base_points must hold 10 - g = {10 - genus} points at genus {genus}")
    except (ValueError, SyzlabError) as exc:
        raise ModelInconsistencyError(f"model file: {exc}") from None


def model_from_dict(data: dict) -> CurveModel:
    """Rebuild a curve model, raising ModelInconsistencyError on a malformed file."""
    if not isinstance(data, dict):
        raise ModelInconsistencyError(f"model file holds a JSON {type(data).__name__}")
    if data.get("format_version") != FORMAT_VERSION:
        raise ModelInconsistencyError(
            f"unsupported format_version {data.get('format_version')!r}"
        )
    if data.get("type") != "curve":
        raise ModelInconsistencyError(f"model type {data.get('type')!r} is not 'curve'")
    _refuse_unknown(data, _FILE_KEYS, "model file")
    _require(data, ("genus", "prime", "seed", "quadrics", "family"), "model file")
    family = data["family"]
    if family not in CURVE_FAMILIES:
        raise ModelInconsistencyError(
            f"unknown family {family!r}, expected one of {sorted(CURVE_FAMILIES)}"
        )
    for key in ("genus", "prime", "seed"):
        if type(data[key]) is not int:  # bool is an int subclass
            raise ModelInconsistencyError(f"{key} must be an integer, got {data[key]!r}")
    genus, prime = data["genus"], data["prime"]
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ModelInconsistencyError(f"params must be a JSON object, got {type(params).__name__}")
    shapes = _FAMILY_PARAMS[family]
    _refuse_unknown(params, shapes, f"{family} model params")
    _require(params, shapes, f"{family} model params")
    bad = [key for key, shape in shapes.items() if not _int_tree(params[key], shape)]
    if bad:
        raise ModelInconsistencyError(f"{family} model params {', '.join(bad)} are malformed")
    _check_family(family, genus, prime, params)
    ambient_dim = comb(genus + 1, 2)
    quadrics = _subspace_from_payload(data["quadrics"], prime, ambient_dim)
    if quadrics is None:
        raise ModelInconsistencyError("model file has no quadric space")
    if quadrics.dim != comb(genus - 2, 2):
        raise ModelInconsistencyError(
            f"curve quadrics span dimension {quadrics.dim}, a canonical "
            f"genus-{genus} curve needs C(g-2, 2) = {comb(genus - 2, 2)}"
        )
    surface = _subspace_from_payload(data.get("surface_quadrics"), prime, ambient_dim)
    if surface is not None and not quadrics.contains_space(surface):
        raise ModelInconsistencyError(
            "surface quadrics are not contained in the curve quadrics"
        )
    return CurveModel(
        family=family,
        genus=genus,
        prime=prime,
        seed=data["seed"],
        quadrics=quadrics,
        surface_quadrics=surface,
        params=params,
    )


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def model_digest(model: CurveModel) -> str:
    return hashlib.sha256(canonical_json(model_to_dict(model)).encode()).hexdigest()


def save_model(model: CurveModel, path: PathLike) -> None:
    Path(path).write_text(canonical_json(model_to_dict(model)) + "\n")


def load_model(path: PathLike) -> CurveModel:
    return model_from_dict(json.loads(Path(path).read_text()))


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
