"""Exception types shared across the package."""


class ErgodicHJBError(Exception):
    """Base class for all package errors."""


class ParameterError(ErgodicHJBError):
    """A user-supplied parameter is outside its admissible range."""


class CoefficientError(ErgodicHJBError):
    """A coefficient field violates its validity requirements (e.g. non-SPD metric)."""


class SolverError(ErgodicHJBError):
    """A linear solve failed or did not reach the requested accuracy."""


class ConvergenceError(ErgodicHJBError):
    """Policy iteration or a schedule was exhausted before reaching tolerance.

    Carries the diagnostic ``history`` (list of per-step records) so callers
    can inspect or extrapolate.
    """

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class MonotonicityError(ErgodicHJBError):
    """The eigenvalue sequence over nested domains increased beyond tolerance.

    Usually a sign that the spatial resolution is too coarse for the
    requested domain schedule.
    """

    def __init__(self, message: str, sequence=None):
        super().__init__(message)
        self.sequence = sequence if sequence is not None else []


class LPError(ErgodicHJBError):
    """The occupation-measure linear program could not be solved or certified."""
