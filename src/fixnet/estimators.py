"""Regression estimators built on fixed-weight feature networks.

Two estimators are provided.  The smooth estimator places local Taylor
features on an anchor grid over the full cube, so its feature count grows
geometrically with the input dimension.  The projection estimator samples
random directions, builds features along each projected axis, repeats the
draw over many trials, and keeps the trial whose ridge fit has the lowest
selection objective.  Both learn only the output layer.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
# Not used here: kept because perfbench/tracer.py wraps this module attribute.
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import features as feat, netblocks, ridge, rng
from .data import Dataset
from .errors import EstimatorError, ParameterError, SolverError

_SELECTION_MODES = ("penalized", "risk")


def _default_beta(scale, n):
    """Truncation level scale * log n, floored so tiny samples keep range."""
    return scale * max(1.0, math.log(n))


@dataclass(frozen=True)
class SmoothConfig:
    """Parameters of the anchor-grid estimator.

    beta is the prediction truncation level; None defers to 10 log n at
    fit time.
    """

    N: int
    M: int
    R: float
    a: float = 1.0
    penalty: float = 1.0
    beta: Optional[float] = None

    def __post_init__(self):
        if self.N < 0:
            raise ParameterError("degree cap N must be >= 0")
        if self.M < 0:
            raise ParameterError("grid count M must be >= 0")
        if not self.a > 0:
            raise ParameterError("cube half width a must be positive")
        if not self.penalty > 0:
            raise ParameterError("penalty must be positive")
        if not self.R > 0:
            raise ParameterError("scale R must be positive")
        object.__setattr__(self, "R", netblocks.clamp_scale(self.R))

    @classmethod
    def from_sample_size(cls, n, d, smoothness, N=None, penalty=1.0,
                         grid_scale=1.0, truncation_scale=10.0):
        """Resolve the theory-driven parameter choices from (n, d, p).

        smoothness is p = q + s with q = floor(p); the feature degree cap
        should satisfy N >= q, which is warned about rather than enforced.
        """
        if n < 2:
            raise ParameterError("need at least two observations")
        if not smoothness > 0:
            raise ParameterError("smoothness must be positive")
        q = int(math.floor(smoothness))
        if N is None:
            N = q
        if N < q:
            warnings.warn(
                "degree cap below the integer part of the smoothness; "
                "the approximation guarantee needs N >= floor(p)",
                RuntimeWarning,
                stacklevel=2,
            )
        M = int(math.ceil(grid_scale * n ** (1.0 / (2.0 * smoothness + d))))
        R = netblocks.clamp_scale(float(n) ** (d + 4))
        a = math.log(n) ** (1.0 / (6.0 * (N + d)))
        return cls(N=N, M=M, R=R, a=a, penalty=penalty,
                   beta=_default_beta(truncation_scale, n))


@dataclass(frozen=True)
class PPConfig:
    """Parameters of the projection estimator.

    trials is the number of random direction draws; selection picks the
    winner by the penalized objective or by the bare empirical risk.
    """

    r: int
    N: int
    M: int
    R: float
    A: float = 1.0
    penalty: float = 1.0
    beta: Optional[float] = None
    trials: int = 50
    seed: int = 0
    selection: str = "penalized"

    def __post_init__(self):
        if self.r < 1:
            raise ParameterError("need at least one direction")
        if self.N < 0:
            raise ParameterError("degree cap N must be >= 0")
        if self.M < 0:
            raise ParameterError("grid count M must be >= 0")
        if not self.A > 0:
            raise ParameterError("domain half width A must be positive")
        if not self.penalty > 0:
            raise ParameterError("penalty must be positive")
        if not self.R > 0:
            raise ParameterError("scale R must be positive")
        if self.trials < 1:
            raise ParameterError("need at least one trial")
        if self.selection not in _SELECTION_MODES:
            raise ParameterError(f"selection must be one of {_SELECTION_MODES}")
        object.__setattr__(self, "R", netblocks.clamp_scale(self.R))

    @classmethod
    def from_sample_size(cls, n, d, r, smoothness, N=None, penalty=1.0,
                         trial_scale=1.0, grid_scale=1.0,
                         truncation_scale=10.0, seed=0):
        """Resolve the theory-driven parameter choices from (n, d, r, p)."""
        if n < 2:
            raise ParameterError("need at least two observations")
        if not smoothness > 0:
            raise ParameterError("smoothness must be positive")
        q = int(math.floor(smoothness))
        if N is None:
            N = q
        if N < q:
            warnings.warn(
                "degree cap below the integer part of the smoothness; "
                "the approximation guarantee needs N >= floor(p)",
                RuntimeWarning,
                stacklevel=2,
            )
        trials = int(math.ceil(
            trial_scale * math.log(n) ** 2 * n ** (r * d / (2.0 * smoothness + 1.0))
        ))
        M = int(math.ceil(grid_scale * n ** (1.0 / (2.0 * smoothness + 1.0))))
        R = netblocks.clamp_scale(float(n) ** 3)
        A = math.log(n) ** (1.0 / (6.0 * (N + d)))
        return cls(r=r, N=N, M=M, R=R, A=A, penalty=penalty,
                   beta=_default_beta(truncation_scale, n),
                   trials=trials, seed=seed)


@dataclass(frozen=True)
class FittedEstimator:
    """A trained estimator: fixed features plus learned output weights."""

    kind: str
    d: int
    N: int
    M: int
    R: float
    domain_half: float
    penalty: float
    beta: float
    features: feat.FeatureSet
    coefficients: np.ndarray
    training_objective: float
    directions: Optional[tuple] = None
    selection_trace: Optional[tuple] = None
    seed: Optional[int] = None
    selection: Optional[str] = None

    @property
    def width(self):
        return len(self.features)

    def __call__(self, x):
        return predict(self, x)


def _clamped_inputs(data, half, label):
    x = data.x
    if np.any(np.abs(x) > half):
        warnings.warn(
            f"{label}: training inputs outside [-{half:g}, {half:g}]^d were "
            "clamped for feature evaluation",
            RuntimeWarning,
            stacklevel=3,
        )
        x = np.clip(x, -half, half)
    return x


def fit_smooth(data, config):
    """Fit the anchor-grid estimator; only the output layer is learned."""
    if not isinstance(data, Dataset):
        data = Dataset(np.asarray(data[0]), np.asarray(data[1]))
    xc = _clamped_inputs(data, config.a, "fit_smooth")
    feats = feat.enumerate_features_cube(data.d, config.N, config.M,
                                         config.a, config.R)
    design = ridge.build_design_matrix(feats, xc, warn_out_of_domain=False)
    solution = ridge.ridge_solve(design, data.y, config.penalty)
    if not ridge.coefficient_bound_audit(solution, data.y):
        raise EstimatorError("coefficient bound audit failed after fit")
    beta = config.beta if config.beta is not None else _default_beta(10.0, data.n)
    return FittedEstimator(
        kind="smooth",
        d=data.d,
        N=config.N,
        M=config.M,
        R=config.R,
        domain_half=config.a,
        penalty=config.penalty,
        beta=float(beta),
        features=feats,
        coefficients=solution.coefficients,
        training_objective=solution.objective,
    )


def sample_directions(stream, r, d):
    """Draw r direction vectors with independent uniform [-1, 1] entries.

    Directions are used unnormalized; the feature half width sqrt(d) * A
    already covers the longest possible projection of the domain.
    """
    return stream.uniform_matrix(r, d, low=-1.0, high=1.0)


def _pp_trial_design(xc, d, config, trial):
    stream = rng.Stream(config.seed).child(trial)
    directions = sample_directions(stream, config.r, d)
    feats = feat.enumerate_features_pp(d, config.N, config.M, config.A,
                                       config.R, directions)
    return directions, ridge.build_design_matrix(feats, xc,
                                                 warn_out_of_domain=False)


def fit_pp(data, config):
    """Fit the projection estimator over repeated random direction draws.

    Trial t derives its own random stream as child t of the config seed,
    so each trial's directions depend only on t.  Trials are built,
    solved and compared in one process in trial order, which keeps the
    fit bit-for-bit reproducible.  Trials whose solve fails are recorded
    as infinite in the selection trace and skipped.
    """
    if not isinstance(data, Dataset):
        data = Dataset(np.asarray(data[0]), np.asarray(data[1]))
    xc = _clamped_inputs(data, config.A, "fit_pp")

    trace = []
    best = None
    for trial in range(config.trials):
        directions, design = _pp_trial_design(xc, data.d, config, trial)
        try:
            solution = ridge.ridge_solve(design, data.y, config.penalty)
        except SolverError:
            trace.append(math.inf)
            continue
        if config.selection == "penalized":
            score = solution.objective
        else:
            score = ridge.objective_value(design, data.y,
                                          solution.coefficients, 0.0)
        trace.append(score)
        if best is None or score < best[0]:
            best = (score, trial, directions, design.feature_order, solution)

    if best is None:
        raise EstimatorError(
            f"all {config.trials} direction trials failed to solve"
        )
    _, _, directions, feats, solution = best
    if not ridge.coefficient_bound_audit(solution, data.y):
        raise EstimatorError("coefficient bound audit failed after fit")
    beta = config.beta if config.beta is not None else _default_beta(10.0, data.n)
    return FittedEstimator(
        kind="projection",
        d=data.d,
        N=config.N,
        M=config.M,
        R=config.R,
        domain_half=config.A,
        penalty=config.penalty,
        beta=float(beta),
        features=feats,
        coefficients=solution.coefficients,
        training_objective=solution.objective,
        directions=tuple(tuple(row) for row in directions),
        selection_trace=tuple(trace),
        seed=config.seed,
        selection=config.selection,
    )


# Cap on design-matrix entries held at once while predicting; larger
# batches are processed in row chunks of this many entries.
_PREDICT_ENTRY_BUDGET = 2**24


def predict(estimator, x):
    """Evaluate the estimator, truncating predictions to [-beta, beta].

    Inputs outside the training cube are evaluated as-is; every feature is
    total, so predictions stay finite everywhere.  Large batches are
    evaluated in row chunks to bound memory; predictions are row-wise, so
    chunking does not change them.  A (0, d) batch gives an empty array.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    batch = np.atleast_2d(arr)
    step = max(1, _PREDICT_ENTRY_BUDGET // max(estimator.width, 1))
    raw = np.empty(batch.shape[0])
    for i in range(0, batch.shape[0], step):
        # No name holds the design, so each chunk's matrix is freed before
        # the next one is built.
        raw[i : i + step] = (ridge.build_design_matrix(
            estimator.features, batch[i : i + step],
            warn_out_of_domain=False).values @ estimator.coefficients)
    out = np.clip(raw, -estimator.beta, estimator.beta)
    return float(out[0]) if single else out


def empirical_l2_risk(estimator, data):
    """Mean squared prediction error on a dataset."""
    if not isinstance(data, Dataset):
        data = Dataset(np.asarray(data[0]), np.asarray(data[1]))
    resid = data.y - predict(estimator, data.x)
    return float(resid @ resid / data.n)


def _float_repr(v):
    return f"{float(v):.17g}"


def to_json_dict(estimator):
    """Serialize to a plain dict; floats that drive prediction are written
    as 17-significant-digit strings, which round-trip IEEE doubles exactly."""
    doc = {
        "schema": 1,
        "model": "fixnet-estimator",
        "kind": estimator.kind,
        "d": estimator.d,
        "N": estimator.N,
        "M": estimator.M,
        "R": _float_repr(estimator.R),
        "domain_half": _float_repr(estimator.domain_half),
        "penalty": _float_repr(estimator.penalty),
        "beta": _float_repr(estimator.beta),
        "coefficients": [_float_repr(c) for c in estimator.coefficients],
        "training_objective": estimator.training_objective,
        "seed": estimator.seed,
        "selection": estimator.selection,
        "selection_trace": None,
        "directions": None,
    }
    if estimator.selection_trace is not None:
        doc["selection_trace"] = list(estimator.selection_trace)
    if estimator.directions is not None:
        doc["directions"] = [[_float_repr(v) for v in row]
                             for row in estimator.directions]
    return doc


def _document_int(doc, key, low):
    value = operator.index(doc[key])
    if value < low:
        raise ParameterError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _document_positive(doc, key):
    value = float(doc[key])
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{key} must be positive and finite, got {doc[key]!r}")
    return value


def from_json_dict(doc):
    """Rebuild a fitted estimator from its serialized form.

    Features are reconstructed by re-running the deterministic enumeration,
    so the document only stores the enumeration parameters and directions.
    The document is checked before anything is built: d >= 1, N >= 0 and
    M >= 0 are integers; R, domain_half, penalty and beta are positive
    and finite; every coefficient is finite; and the coefficient count
    equals the feature count.  A document that fails raises
    ParameterError (FeatureCountError for an oversized feature grid).
    """
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise ParameterError("unsupported estimator document schema")
    if doc.get("model") != "fixnet-estimator":
        raise ParameterError("not an estimator document")
    kind = doc.get("kind")
    if kind not in ("smooth", "projection"):
        raise ParameterError(f"unknown estimator kind {kind!r}")
    try:
        d = _document_int(doc, "d", 1)
        n_deg = _document_int(doc, "N", 0)
        m_grid = _document_int(doc, "M", 0)
        r_scale, half, penalty, beta = (
            _document_positive(doc, key)
            for key in ("R", "domain_half", "penalty", "beta"))
        coef = np.array([float(c) for c in doc["coefficients"]])
        training_objective = float(doc["training_objective"])
        directions = None
        if kind == "projection":
            if not doc.get("directions"):
                raise ParameterError(
                    "projection estimator document lacks directions")
            directions = np.array([[float(v) for v in row]
                                   for row in doc["directions"]])
        count = (feat._checked_count("cube", d, n_deg, m_grid)
                 if directions is None else
                 feat._checked_count("line", d, n_deg, m_grid, len(directions)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed estimator document: {exc!r}") from exc
    if not np.all(np.isfinite(coef)):
        raise ParameterError("coefficients must be finite")
    if len(coef) != count:
        raise ParameterError(
            f"coefficient count {len(coef)} does not match "
            f"feature count {count}"
        )
    if directions is None:
        feats = feat.enumerate_features_cube(d, n_deg, m_grid, half, r_scale)
    else:
        feats = feat.enumerate_features_pp(d, n_deg, m_grid, half, r_scale,
                                           directions)
        directions = tuple(tuple(row) for row in directions)
    trace = doc.get("selection_trace")
    return FittedEstimator(
        kind=kind,
        d=d,
        N=n_deg,
        M=m_grid,
        R=r_scale,
        domain_half=half,
        penalty=penalty,
        beta=beta,
        features=feats,
        coefficients=coef,
        training_objective=training_objective,
        directions=directions,
        selection_trace=tuple(trace) if trace is not None else None,
        seed=doc.get("seed"),
        selection=doc.get("selection"),
    )


def save_estimator(estimator, path):
    """Write the estimator to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(estimator), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_estimator(path):
    """Read an estimator from a JSON file written by save_estimator."""
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
