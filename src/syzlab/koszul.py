"""Linear syzygies, syzygy-quadric spans, and Koszul cohomology dimensions.

A linear syzygy of a quadric space I_2 is a g-tuple of quadrics
(q_1, ..., q_g) from I_2 with sum Z_v * q_v = 0 in degree 3.  The span of
all quadrics occurring in all syzygies is the space W studied here; the
verdict compares W with I_2 and with a stored surface ideal.

General kappa_{p,q} values come from the usual three-term complex

    wedge^{p+1} V (x) B_{q-1}  ->  wedge^p V (x) B_q  ->  wedge^{p-1} V (x) B_{q+1}

with B_d the degree-d part of the coordinate ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidSyzygyError,
    ModelInconsistencyError,
    SizeLimitError,
    UnsupportedDegreeError,
)
from .linalg import Subspace, kernel_basis, rank
from .models import (
    BIELLIPTIC,
    DELPEZZO,
    FOURGONAL,
    GENUS5,
    VERONESE,
    CurveModel,
)
from .ring import GradedRing

VERDICT_CURVE = "EqualsCurve"
VERDICT_SURFACE = "ProperSurface"
VERDICT_WHOLE = "WholeSpace"

MAX_MATRIX_ENTRIES = 8_000_000


def syzygy_kernel(ring: GradedRing, quadrics: Subspace) -> Subspace:
    """All linear syzygies, flattened to vectors of length g * dim(I_2).

    Coordinates are variable-major: entry v*m + r is the coefficient of
    basis quadric r in the v-th slot.
    """
    mat = ring.multiplication_matrix(quadrics)
    return kernel_basis(mat.T, ring.prime)


def linear_syzygies(ring: GradedRing, quadrics: Subspace) -> list[np.ndarray]:
    """Canonical basis of syzygies, each reshaped to (g, dim I_2)."""
    ker = syzygy_kernel(ring, quadrics)
    m = quadrics.dim
    return [row.reshape(ring.num_vars, m) for row in ker.basis]


def is_syzygy(ring: GradedRing, quadrics: Subspace, gamma) -> bool:
    """Does sum Z_v * (gamma[v] . basis) vanish identically in degree 3?"""
    arr = _check_gamma(ring, quadrics, gamma)
    mat = ring.multiplication_matrix(quadrics)
    return not (arr.reshape(-1) @ mat % ring.prime).any()


def _check_gamma(ring: GradedRing, quadrics: Subspace, gamma) -> np.ndarray:
    arr = np.asarray(gamma, dtype=np.int64) % ring.prime
    if arr.shape != (ring.num_vars, quadrics.dim):
        raise DimensionMismatchError(
            f"syzygy has shape {arr.shape}, expected "
            f"({ring.num_vars}, {quadrics.dim})"
        )
    return arr


def quadrics_involved(ring: GradedRing, quadrics: Subspace, gamma) -> Subspace:
    """Span of the g quadrics appearing in one syzygy."""
    arr = _check_gamma(ring, quadrics, gamma)
    if not is_syzygy(ring, quadrics, arr):
        raise InvalidSyzygyError("coefficient array is not a linear syzygy")
    rows = arr @ quadrics.basis % ring.prime
    return Subspace.from_rows(rows, quadrics.ambient_dim, ring.prime)


@dataclass(frozen=True)
class Syz2Report:
    """Outcome of intersecting all quadrics involved in linear syzygies."""

    kappa21: int
    span: Subspace
    verdict: str
    surface_match: Optional[bool] = None

    @property
    def dim_span(self) -> int:
        return self.span.dim


def syz2_span(
    ring: GradedRing,
    quadrics: Subspace,
    surface: Optional[Subspace] = None,
) -> Syz2Report:
    """Span W of quadrics involved in every linear syzygy, with verdict.

    Running over a kernel basis suffices: quadrics_involved is linear in
    the syzygy slot-by-slot, so any combination's quadrics already lie in
    the span contributed by the basis elements.  The span is reduced in
    the coordinates of the basis of I_2 (m columns, not dim S^2), and only
    its at most m rows are mapped back; a full-rank span is I_2 itself.
    """
    ker = syzygy_kernel(ring, quadrics)
    g, m = ring.num_vars, quadrics.dim
    if ker.dim == 0:
        span = Subspace.zero(quadrics.ambient_dim, ring.prime)
        verdict = VERDICT_WHOLE
    else:
        coords = Subspace.from_rows(ker.basis.reshape(ker.dim * g, m), m, ring.prime)
        if coords.dim == m:
            span = quadrics
        else:
            rows = coords.basis @ quadrics.basis % ring.prime
            span = Subspace.from_rows(rows, quadrics.ambient_dim, ring.prime)
        verdict = VERDICT_CURVE if span == quadrics else VERDICT_SURFACE
    match = None
    if surface is not None:
        match = span == surface
    return Syz2Report(kappa21=ker.dim, span=span, verdict=verdict, surface_match=match)


# -- general Koszul cohomology -------------------------------------------------


class _QuotientPiece(NamedTuple):
    """Degree-d part of S/I with coordinates on the non-pivot monomials."""

    ideal: Subspace
    free: np.ndarray


class _KoszulComplex:
    """The complex wedge^p V (x) B_q of one quadric space, built on demand.

    Pieces B_d (d <= 4) and action matrices B_d -> B_{d+1} are built once per
    degree; each d_{p,q}: wedge^p V (x) B_q -> wedge^{p-1} V (x) B_{q+1} is
    ranked once, and only its rank is kept.
    """

    def __init__(self, ring: GradedRing, quadrics: Subspace, max_entries: int):
        self.ring = ring
        self.quadrics = quadrics
        self.max_entries = max_entries
        self._pieces: dict[int, _QuotientPiece] = {}
        self._actions: dict[int, np.ndarray] = {}
        self._ranks: dict[tuple[int, int], int] = {}

    def piece(self, degree: int) -> _QuotientPiece:
        if degree not in self._pieces:
            amb = self.ring.dim(degree)
            if degree >= 2:
                ideal = self.ring.ideal_piece(self.quadrics, degree)
            else:
                ideal = Subspace.zero(amb, self.ring.prime)
            free = np.delete(np.arange(amb), list(ideal.pivot_cols))
            self._pieces[degree] = _QuotientPiece(ideal, free)
        return self._pieces[degree]

    def size(self, p_idx: int, q_idx: int) -> int:
        """dim wedge^p V (x) B_q; zero outside 0 <= p <= g, q >= 0."""
        if not 0 <= p_idx <= self.ring.num_vars or q_idx < 0:
            return 0
        return comb(self.ring.num_vars, p_idx) * len(self.piece(q_idx).free)

    def actions(self, degree: int) -> np.ndarray:
        """(g, dim B_d, dim B_{d+1}) array: slice v is the matrix of f -> Z_v f."""
        if degree not in self._actions:
            lower, upper = self.piece(degree), self.piece(degree + 1)
            # row k: normal form of the k-th degree-(d+1) monomial in B_{d+1}
            normal = upper.ideal.reduce(np.eye(self.ring.dim(degree + 1), dtype=np.int64))
            table = self.ring.product_table(1, degree)
            self._actions[degree] = normal[:, upper.free][table[:, lower.free]]
        return self._actions[degree]

    def rank_of(self, p_idx: int, q_idx: int) -> int:
        """Rank of d_{p,q}; zero when either side is zero."""
        key = (p_idx, q_idx)
        if key not in self._ranks:
            empty = not (self.size(p_idx, q_idx) and self.size(p_idx - 1, q_idx + 1))
            self._ranks[key] = (
                0 if empty else rank(self._differential(p_idx, q_idx), self.ring.prime)
            )
        return self._ranks[key]

    def kappa(self, p_idx: int, q_idx: int) -> int:
        """dim ker d_{p,q} / im d_{p+1,q-1}; checks both maps' sizes first."""
        dom = self.size(p_idx, q_idx)
        if dom == 0:
            return 0
        for p_, q_ in ((p_idx + 1, q_idx - 1), (p_idx, q_idx)):
            entries = self.size(p_, q_) * self.size(p_ - 1, q_ + 1)
            if entries > self.max_entries:
                raise SizeLimitError(
                    f"koszul matrix would have {entries} entries "
                    f"(limit {self.max_entries})"
                )
        return dom - self.rank_of(p_idx, q_idx) - self.rank_of(p_idx + 1, q_idx - 1)

    def _differential(self, p_idx: int, q_idx: int) -> np.ndarray:
        """Matrix of d_{p,q}, rows = domain, as int32 residues (p < 2**25)."""
        g, prime = self.ring.num_vars, self.ring.prime
        acts = self.actions(q_idx)
        _, m, n = acts.shape
        dom_sets = list(combinations(range(g), p_idx))
        cod_sets = {T: i for i, T in enumerate(combinations(range(g), p_idx - 1))}
        mat = np.zeros((len(dom_sets) * m, len(cod_sets) * n), dtype=np.int32)
        for i, T in enumerate(dom_sets):
            for s, v in enumerate(T):
                # each (T, T minus one index) block is written exactly once
                j = cod_sets[T[:s] + T[s + 1 :]]
                block = acts[v] if s % 2 == 0 else (-acts[v]) % prime
                mat[i * m : (i + 1) * m, j * n : (j + 1) * n] = block
        return mat


@dataclass
class BettiTable:
    """kappa_{p,q} grid; entries[q][p], with -1 marking skipped cells."""

    genus: int
    entries: np.ndarray
    truncated: bool = False


def betti_table(
    ring: GradedRing,
    quadrics: Subspace,
    p_max: Optional[int] = None,
    expected_genus: Optional[int] = None,
    max_entries: int = MAX_MATRIX_ENTRIES,
) -> BettiTable:
    """Grid of kappa_{p,q} for q = 0..3 and p = 0..p_max.

    When expected_genus is given, the quotient-ring dimensions are first
    checked against the canonical-curve values dim B_q = (2q-1)(g-1), and an
    untruncated grid is then checked against Green duality and the Euler
    characteristic of each diagonal; a mismatch means the quadrics do not
    cut a canonical curve and raises ModelInconsistencyError.
    """
    g = ring.num_vars
    if p_max is None:
        p_max = g - 2
    if not 0 <= p_max <= g:
        # columns past g are zero: the exterior powers vanish there
        raise UnsupportedDegreeError(f"p_max must lie in 0..{g}, got {p_max}")
    complex_ = _KoszulComplex(ring, quadrics, max_entries)
    if expected_genus is not None:
        for d in (2, 3, 4):
            got = len(complex_.piece(d).free)
            want = (2 * d - 1) * (expected_genus - 1)
            if got != want:
                raise ModelInconsistencyError(
                    f"degree-{d} quotient has dimension {got}, canonical "
                    f"genus-{expected_genus} needs {want}"
                )
    entries = np.full((4, p_max + 1), -1, dtype=np.int64)
    truncated = False
    for q_idx in range(4):
        for p_idx in range(p_max + 1):
            try:
                entries[q_idx, p_idx] = complex_.kappa(p_idx, q_idx)
            except SizeLimitError:
                truncated = True
    if expected_genus is not None and not truncated:
        _check_identities(entries, g)
    return BettiTable(genus=g, entries=entries, truncated=truncated)


def _check_identities(entries: np.ndarray, g: int) -> None:
    """Green duality kappa_{p,q} = kappa_{g-2-p,3-q} on every pair inside the
    grid, and sum_p (-1)^p kappa_{p,k-p} = sum_p (-1)^p C(g,p) h(k-p) on every
    diagonal k inside it, h the canonical Hilbert function.

    A cell in a column p >= g - 1 is dual to a column p < 0, so it must be
    zero.  For odd g, a rank error in d_{(g-1)/2,1} moves the self-dual pair
    kappa_{(g-1)/2,1}, kappa_{(g-3)/2,2} together: duality still holds and
    their diagonal sums cancel, so no identity here sees it.
    """
    p_max = entries.shape[1] - 1

    def kappa(p_idx: int, q_idx: int) -> Optional[int]:
        if 0 <= p_idx <= p_max:
            return int(entries[q_idx, p_idx])
        # columns p < 0 are empty, and columns p >= g - 1 are dual to them
        return 0 if p_idx < 0 or p_idx >= g - 1 else None

    for (q_idx, p_idx), value in np.ndenumerate(entries):
        dual = kappa(g - 2 - p_idx, 3 - q_idx)
        if dual is not None and dual != value:
            raise ModelInconsistencyError(
                f"kappa_{p_idx},{q_idx} = {value} but its dual "
                f"kappa_{g - 2 - p_idx},{3 - q_idx} = {dual}"
            )
    h = [1, g] + [(2 * d - 1) * (g - 1) for d in range(2, g + 4)]
    for k in range(g + 4):
        cells = {p: kappa(p, k - p) for p in range(max(0, k - 3), min(k, g) + 1)}
        if None in cells.values():
            continue
        lhs = sum((-1) ** p * c for p, c in cells.items())
        rhs = sum((-1) ** p * comb(g, p) * h[k - p] for p in range(min(k, g) + 1))
        if lhs != rhs:
            raise ModelInconsistencyError(
                f"Euler characteristic on diagonal {k}: the grid gives {lhs}, "
                f"a canonical genus-{g} curve needs {rhs}"
            )


# -- theorem-level classification ---------------------------------------------

_SURFACE_FAMILIES = (BIELLIPTIC, DELPEZZO, VERONESE)


def expected_verdict(model: CurveModel) -> str:
    if model.family == GENUS5:
        return VERDICT_WHOLE
    if model.family in _SURFACE_FAMILIES:
        return VERDICT_SURFACE
    if model.family == FOURGONAL:
        a, b = int(model.params["a"]), int(model.params["b"])
        return VERDICT_CURVE if min(a, b) >= 1 else VERDICT_SURFACE
    raise ModelInconsistencyError(f"unknown family {model.family!r}")


def classify_theorem(model: CurveModel) -> dict:
    """Compute the syzygy span of a stored curve and compare with the
    verdict its construction predicts: the record that analyze reports
    and verify-theorem sweeps print.

    For surface-type verdicts the span must also coincide with the stored
    surface ideal and have the dimension of a degree-(g-1) surface ideal,
    binom(g-2, 2) - 1.
    """
    ring = GradedRing(model.genus, model.prime)
    report = syz2_span(ring, model.quadrics, surface=model.surface_quadrics)
    want = expected_verdict(model)
    ok = report.verdict == want
    if want == VERDICT_SURFACE and ok:
        ok = report.dim_span == comb(model.genus - 2, 2) - 1
        if model.surface_quadrics is not None:
            ok = ok and bool(report.surface_match)
    return {
        "kappa21": report.kappa21,
        "dim_W": report.dim_span,
        "verdict": report.verdict,
        "expected_verdict": want,
        "surface_match": report.surface_match,
        "passed": ok,
    }
