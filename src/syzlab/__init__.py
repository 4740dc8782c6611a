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
    recovered_bidegrees,
    render_betti,
    theorem_sweep,
)
from .io import (
    export_ideal_text,
    load_model,
    model_digest,
    parse_ideal_text,
    save_model,
)
from .koszul import (
    BettiTable,
    ClassificationRecord,
    Syz2Report,
    betti_table,
    classify_theorem,
    is_syzygy,
    kappa21_expected,
    koszul_dimension,
    linear_syzygies,
    quadrics_involved,
    syz2_span,
    syzygy_coordinates,
)
from .linalg import DEFAULT_PRIME, Subspace, kernel_basis, rank, rref
from .models import CurveModel, SurfaceModel
from .ring import GradedRing, GradedVector
from .scroll import (
    ScrollFrame,
    Section2H,
    fourgonal_curve,
    scroll_minors,
    scrollar_bidegrees,
)
from .surfaces import (
    WeierstrassCurve,
    bielliptic_curve,
    delpezzo_curve,
    delpezzo_surface,
    elliptic_cone,
    elliptic_normal_ideal,
    genus5_intersection,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "ClassificationRecord",
    "CurveModel",
    "DEFAULT_PRIME",
    "DegenerateScrollError",
    "DimensionMismatchError",
    "EmptyLinearSystemError",
    "GenericityExhaustedError",
    "GradedRing",
    "GradedVector",
    "InvalidSyzygyError",
    "ModelInconsistencyError",
    "ScrollFrame",
    "Section2H",
    "SizeLimitError",
    "Subspace",
    "SurfaceModel",
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
    "delpezzo_surface",
    "elliptic_cone",
    "elliptic_normal_ideal",
    "export_ideal_text",
    "fourgonal_curve",
    "genus5_intersection",
    "is_syzygy",
    "kappa21_expected",
    "kernel_basis",
    "koszul_dimension",
    "linear_syzygies",
    "load_model",
    "model_digest",
    "parse_ideal_text",
    "quadrics_involved",
    "rank",
    "recovered_bidegrees",
    "render_betti",
    "rref",
    "save_model",
    "scroll_minors",
    "scrollar_bidegrees",
    "syz2_span",
    "syzygy_coordinates",
    "theorem_sweep",
]
