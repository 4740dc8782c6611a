"""The one model type, a canonical curve, and each family's genera and verdict.

A model stores exactly what analysis needs: the quadric ideal piece of the
curve, optionally the quadrics of the surface it is expected to sweep out,
and the construction parameters.  It holds no points: every verdict, kappa
value and span is a statement about quadrics.  Every constructor draws its
random data through ``redraw``, the one rule for redrawing a seeded draw
that misses a genericity condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Any, Callable, Optional

from .errors import GenericityExhaustedError, ModelInconsistencyError
from .linalg import Subspace

FOURGONAL = "fourgonal"
BIELLIPTIC = "bielliptic"
DELPEZZO = "delpezzo"
VERONESE = "veronese"
GENUS5 = "genus5"

CURVE_FAMILIES = (FOURGONAL, BIELLIPTIC, DELPEZZO, VERONESE, GENUS5)

# lowest and highest genus of each family's models (None: no bound)
GENERA = {FOURGONAL: (6, None), BIELLIPTIC: (6, None), DELPEZZO: (6, 9), VERONESE: (10, 10),
          GENUS5: (5, 5)}


def has_genus(family: str, genus: int) -> bool:
    lowest, highest = GENERA[family]
    return lowest <= genus <= (highest or genus)


def check_genus(family: str, genus: int) -> int:
    """The genus, refused unless the family has models of that genus."""
    if not has_genus(family, genus):
        lowest, highest = GENERA[family]
        raise ValueError(f"{family} models have genus {lowest}..{highest or ''}, got {genus}")
    return genus


VERDICT_CURVE = "EqualsCurve"
VERDICT_SURFACE = "ProperSurface"
VERDICT_WHOLE = "WholeSpace"


def expected_verdict(model: CurveModel) -> str:
    """The verdict the construction predicts for the syzygy-quadric span W:
    no syzygies at genus 5, W = I_2 for a 4-gonal curve with both twists
    positive, else W = the quadrics of the degree-(g-1) surface it lies on."""
    if model.family == GENUS5:
        return VERDICT_WHOLE
    if model.family == FOURGONAL and min(int(model.params["a"]), int(model.params["b"])) >= 1:
        return VERDICT_CURVE
    return VERDICT_SURFACE


MAX_REDRAWS = 8


def redraw(draw: Callable[[], Any], failure: str) -> Any:
    """The first result of draw() that is not None; draw() returns None to
    ask for a redraw, and after MAX_REDRAWS of them the search gives up."""
    for _ in range(MAX_REDRAWS):
        result = draw()
        if result is not None:
            return result
    raise GenericityExhaustedError(f"{failure} after {MAX_REDRAWS} draws")


@dataclass
class CurveModel:
    """A canonically embedded curve given by its quadric ideal piece.

    ``surface_quadrics`` is present for families that come with a preferred
    surface (cone over an elliptic curve, Del Pezzo, Veronese) and holds
    that surface's quadrics in the same coordinates.  A model certifies its
    dimensions: C(g-2, 2) quadrics, and one fewer for the surface.
    """

    family: str
    genus: int
    prime: int
    seed: int
    quadrics: Subspace
    surface_quadrics: Optional[Subspace] = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in CURVE_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {CURVE_FAMILIES}"
            )
        want = comb(self.genus - 2, 2)
        for name, space, dim in (("quadrics", self.quadrics, want),
                                 ("surface_quadrics", self.surface_quadrics, want - 1)):
            if space is not None and space.dim != dim:
                raise ModelInconsistencyError(
                    f"genus-{self.genus} {self.family} {name} span dim {space.dim}, expected {dim}"
                )
