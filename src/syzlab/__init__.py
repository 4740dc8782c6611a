"""Exact syzygy analysis of canonical curves over prime fields.

Builds curve models (4-gonal on scrolls, bielliptic on elliptic cones,
Del Pezzo/Veronese sections, genus-5 complete intersections), computes
their linear syzygies, and compares the span of syzygy-involved quadrics
with the curve ideal or a hosting surface ideal.
"""

from .errors import (
    DegenerateScrollError,
    DimensionMismatchError,
    EmptyLinearSystemError,
    GenericityExhaustedError,
    InvalidSyzygyError,
    ModelInconsistencyError,
    SizeLimitError,
    SyzlabError,
    UnsupportedDegreeError,
)
from .harness import (
    analyze_model,
    construct_model,
    load_model,
    recovered_bidegrees,
    render_betti,
    theorem_sweep,
)
from .io import export_ideal_text, model_digest, save_model
from .koszul import (
    BettiTable,
    Syz2Report,
    betti_table,
    classify_theorem,
    is_syzygy,
    linear_syzygies,
    quadrics_involved,
    syz2_span,
)
from .linalg import DEFAULT_PRIME, Subspace, kernel_basis, rank, rref
from .models import CurveModel
from .ring import GradedRing
from .scroll import (
    ScrollFrame,
    fourgonal_curve,
    scrollar_bidegrees,
)
from .surfaces import (
    WeierstrassCurve,
    bielliptic_curve,
    delpezzo_curve,
    elliptic_normal_ideal,
    genus5_intersection,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "CurveModel",
    "DEFAULT_PRIME",
    "DegenerateScrollError",
    "DimensionMismatchError",
    "EmptyLinearSystemError",
    "GenericityExhaustedError",
    "GradedRing",
    "InvalidSyzygyError",
    "ModelInconsistencyError",
    "ScrollFrame",
    "SizeLimitError",
    "Subspace",
    "Syz2Report",
    "SyzlabError",
    "UnsupportedDegreeError",
    "WeierstrassCurve",
    "analyze_model",
    "betti_table",
    "bielliptic_curve",
    "classify_theorem",
    "construct_model",
    "delpezzo_curve",
    "elliptic_normal_ideal",
    "export_ideal_text",
    "fourgonal_curve",
    "genus5_intersection",
    "is_syzygy",
    "kernel_basis",
    "linear_syzygies",
    "load_model",
    "model_digest",
    "quadrics_involved",
    "rank",
    "recovered_bidegrees",
    "render_betti",
    "rref",
    "save_model",
    "scrollar_bidegrees",
    "syz2_span",
    "theorem_sweep",
]
