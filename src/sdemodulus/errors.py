"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CatalogError",
    "EvaluationError",
    "DivergenceError",
    "GridMismatchError",
    "EstimatorError",
]


class CatalogError(ValueError):
    """Requested model name is not in the catalog: a bad argument, so a ValueError."""


class EvaluationError(RuntimeError):
    """A model function returned a non-finite value.  Carries the offending point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class DivergenceError(RuntimeError):
    """The Euler iteration produced a non-finite state.  Carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class GridMismatchError(ValueError):
    """Two objects that must share a time grid do not."""


class EstimatorError(RuntimeError):
    """A Monte Carlo estimator could not produce a trustworthy value."""
