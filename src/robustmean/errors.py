"""Exception hierarchy shared across the library."""


class RobustMeanError(Exception):
    """Base class for all library errors."""


class ConfigurationError(RobustMeanError):
    """A spec, config, or parameter value is invalid."""


class EstimatorError(RobustMeanError):
    """An estimator could not produce an estimate on the given data."""


class FilterExhaustedError(EstimatorError):
    """Filtering removed too many points before the stop condition held."""


class DegenerateScoresError(EstimatorError):
    """The removal scores cannot weight a pick: all are zero while the stop
    condition is unmet, or they or the covariance overflow to non-finite
    values."""


class EmptySelectionError(EstimatorError):
    """A pruning rule (oracle ball / interval) left no points to average."""


class ConvergenceError(EstimatorError):
    """An iterative solver hit its iteration cap before converging."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate
