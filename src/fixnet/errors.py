"""Exception types shared across the package, and the one way it warns."""

import sys
import warnings


class FixnetError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FixnetError):
    """A closed-form construction was asked to run outside its stated
    parameter regime (e.g. the scale R below its admissible threshold)."""


class FeatureCountError(FixnetError):
    """The requested feature grid would exceed the supported size."""


class SolverError(FixnetError):
    """The linear solve failed even after the pivoted fallback."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class EstimatorError(FixnetError):
    """Fitting could not produce a usable estimator (e.g. every random
    direction trial failed)."""


def warn(message):
    """Issue message as a RuntimeWarning at the first frame outside the
    fixnet package, so it names the caller's line however deep in the
    package it arose.  Frames are told apart by module, not by file: a
    dataclass's generated __init__ is in the file "<string>" but runs
    with its class's module globals."""
    frame, level = sys._getframe(1), 2
    while (frame is not None
           and frame.f_globals.get("__name__", "").partition(".")[0] == "fixnet"):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)
