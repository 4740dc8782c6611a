"""Exception types raised by the library.

Everything derives from SyzlabError, which the command line and the model
loader catch as one.  The subclasses name what went wrong; only
SizeLimitError drives control flow, marking a kappa-grid cell skipped.
"""


class SyzlabError(Exception):
    pass


class DimensionMismatchError(SyzlabError):
    """Operands live in different ambient spaces or over different primes."""


class UnsupportedDegreeError(SyzlabError):
    """Requested graded piece outside the supported degree range."""


class DegenerateScrollError(SyzlabError):
    """Scroll frame with fewer than two nonzero blocks has no 2-row matrix."""


class EmptyLinearSystemError(SyzlabError):
    """A scroll linear system has no nonzero sections, or none cutting an irreducible curve."""


class GenericityExhaustedError(SyzlabError):
    """Random draws kept violating a genericity requirement; gave up."""


class ModelInconsistencyError(SyzlabError):
    """Stored model data contradicts an invariant it is supposed to satisfy."""


class InvalidSyzygyError(SyzlabError):
    """Vector fails the defining relation sum_i Z_i * q_i = 0."""


class SizeLimitError(SyzlabError):
    """Computation would exceed the configured matrix-size budget."""
