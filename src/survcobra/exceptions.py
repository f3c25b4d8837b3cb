"""Exception types shared across the package."""

from __future__ import annotations


class ConvergenceError(RuntimeError):
    """An iterative optimizer failed to converge.

    Carries the objective trace so callers can inspect what happened, and
    the kind of the learner whose fit failed once `learners.fit` knows it.
    """

    def __init__(self, message: str, trace: tuple[float, ...] = (), learner: str | None = None):
        super().__init__(message)
        self.trace = trace
        self.learner = learner

    def __reduce__(self):  # keep trace and learner across process pools
        return type(self), (str(self), self.trace, self.learner)


class ConfigError(ValueError):
    """A user-supplied configuration file or flag is invalid."""


class TuningError(RuntimeError):
    """Every hyperparameter trial failed; carries the trial trace."""

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)
