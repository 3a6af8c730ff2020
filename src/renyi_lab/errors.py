"""Exception types shared across the package."""


class LabError(Exception):
    """Base class for numerical-contract failures."""


class GridTooNarrowError(LabError):
    """Mass deficit before renormalization exceeded the allowed budget."""


class AliasingError(LabError):
    """Density has not decayed at the grid boundary; widen the grid."""


class ChainTooLongError(LabError):
    """A convolution chain would exceed the array-length cap; refused
    before any transform runs, or, when a declined halving leaves an
    array longer than planned, before the transform that would."""


class TailDominanceError(LabError):
    """Integrand is still significant at the grid boundary.  `edge` names
    the failing boundary ("left", "right" or "both") where the raiser
    knows it, None otherwise."""

    def __init__(self, message: str, edge: str | None = None):
        super().__init__(message)
        self.edge = edge


class SeriesError(LabError):
    """A series did not pass its convergence / stabilization gate."""


class OscillationError(LabError):
    """Finite-difference derivative estimates disagree; data too rough."""


class ConstraintError(LabError):
    """Model parameters violate a structural constraint."""
