"""The one model type: a canonical curve given by its quadrics.

A model stores exactly what analysis needs: the quadric ideal piece of the
curve, optionally the quadrics of the surface it is expected to sweep out,
and best-effort witness points (possibly None; at most 24 projectively
distinct ones found under one draw budget) for cheap vanishing
spot-checks; loading a model file checks that they vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .linalg import Subspace

FOURGONAL = "fourgonal"
BIELLIPTIC = "bielliptic"
DELPEZZO = "delpezzo"
VERONESE = "veronese"
GENUS5 = "genus5"

CURVE_FAMILIES = (FOURGONAL, BIELLIPTIC, DELPEZZO, VERONESE, GENUS5)


@dataclass
class CurveModel:
    """A canonically embedded curve given by its quadric ideal piece.

    ``surface_quadrics`` is present for families that come with a preferred
    surface (cone over an elliptic curve, Del Pezzo, Veronese) and holds
    that surface's quadrics in the same coordinates.
    """

    family: str
    genus: int
    prime: int
    seed: int
    quadrics: Subspace
    surface_quadrics: Optional[Subspace] = None
    sample_points: Optional[np.ndarray] = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in CURVE_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {CURVE_FAMILIES}"
            )
