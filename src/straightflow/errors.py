"""Exception types shared across the package."""

from __future__ import annotations


class StraightflowError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(StraightflowError, ValueError):
    """An argument violates an operation precondition."""


class InvalidCouplingError(StraightflowError, ValueError):
    """A coupling specification is internally inconsistent."""


class DegenerateMarginalError(StraightflowError):
    """The marginal covariance at the requested time is numerically singular."""


class DegenerateDataError(StraightflowError):
    """A data slice has no usable spread (e.g. zero variance)."""


class NonFiniteDataError(StraightflowError):
    """Input arrays contain NaN or infinite entries where finite values are required."""


class LowDensityError(StraightflowError):
    """Too little effective sample mass near the query point.

    For a batched query it carries the indices ``rows`` of the refused query
    points (``None`` when the whole query is refused).
    """

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows


class InconsistentMomentsError(StraightflowError):
    """Second-moment matrix minus outer product of the mean is not PSD beyond noise tolerance."""


class InvalidGridError(StraightflowError, ValueError):
    """A spatial grid violates its contract (too few nodes, non-uniform spacing...)."""


class NoAdmissibleNodesError(InvalidGridError):
    """No grid node is left for a norm once non-finite nodes are dropped."""


class TrajectoryLeftSupportError(StraightflowError):
    """ODE integration left the region where the velocity oracle is defined."""


class CapabilityError(StraightflowError):
    """The requested computation needs structure the inputs do not have
    (e.g. an analytic oracle for a non-Gaussian coupling)."""


class ConfigError(StraightflowError, ValueError):
    """A CLI configuration file failed validation. ``field`` names the offending entry."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field
