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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import features as feat, netblocks, ridge, rng
from .data import as_dataset
from .errors import EstimatorError, ParameterError, SolverError

_SELECTION_MODES = ("penalized", "risk")
_MODEL_KINDS = {"cube": "smooth", "line": "projection"}


def __getattr__(name):
    # No fit runs a process pool.  perfbench/tracer.py reads this name
    # to subclass it and then rebinds it, so it resolves on that first
    # read, and fit and predict processes never load concurrent.futures
    # or multiprocessing.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _default_beta(scale, n):
    """Truncation level scale * log n, floored so tiny samples keep range."""
    return scale * max(1.0, math.log(n))


def _check_positive_finite(key, value):
    """The one rule for beta and the model document's scales."""
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{key} must be positive and finite, got {value!r}")
    return value


def _theory_degree_cap(n, smoothness, N):
    """Check n and p; N defaults to floor(p), and a smaller N warns."""
    if n < 2:
        raise ParameterError("need at least two observations")
    if not smoothness > 0:
        raise ParameterError("smoothness must be positive")
    q = int(math.floor(smoothness))
    if N is None:
        return q
    if N < q:
        warnings.warn(
            "degree cap below the integer part of the smoothness; "
            "the approximation guarantee needs N >= floor(p)",
            RuntimeWarning,
            stacklevel=3,
        )
    return N


@dataclass(frozen=True)
class SmoothConfig:
    """Parameters of the anchor-grid estimator.

    beta is the prediction truncation level; None defers to 10 log n at
    fit time.  The defaults are those of ``fixnet fit``.
    """

    N: int = 2
    M: int = 8
    R: float = 1e6
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
        if self.beta is not None:
            _check_positive_finite("beta", self.beta)
        object.__setattr__(self, "R", netblocks.clamp_scale(self.R))

    @classmethod
    def from_sample_size(cls, n, d, smoothness, N=None, penalty=1.0,
                         grid_scale=1.0, truncation_scale=10.0):
        """Resolve the theory-driven parameter choices from (n, d, p).

        smoothness is p = q + s with q = floor(p); the feature degree cap
        should satisfy N >= q, which is warned about rather than enforced.
        """
        N = _theory_degree_cap(n, smoothness, N)
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
    The defaults are those of ``fixnet fit``.
    """

    r: int = 4
    N: int = 2
    M: int = 8
    R: float = 1e6
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
        if self.beta is not None:
            _check_positive_finite("beta", self.beta)
        object.__setattr__(self, "R", netblocks.clamp_scale(self.R))

    @classmethod
    def from_sample_size(cls, n, d, r, smoothness, N=None, penalty=1.0,
                         trial_scale=1.0, grid_scale=1.0,
                         truncation_scale=10.0, seed=0):
        """Resolve the theory-driven parameter choices from (n, d, r, p)."""
        N = _theory_degree_cap(n, smoothness, N)
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
    """A trained estimator: fixed features plus learned output weights.

    It holds only what a fit produces.  The enumeration parameters are
    read from the FeatureSet: kind ("smooth" for a cube set, "projection"
    for a line set), d, N, M, R, domain_half (the cube half width a, or
    the projection amplitude A), directions (a tuple of r rows, None for
    a cube set) and width, the feature count.  selection_trace, seed and
    selection are set by projection fits only.
    """

    features: feat.FeatureSet
    coefficients: np.ndarray
    penalty: float
    beta: float
    training_objective: float
    selection_trace: Optional[tuple] = None
    seed: Optional[int] = None
    selection: Optional[str] = None

    d = property(operator.attrgetter("features.d"))
    N = property(operator.attrgetter("features.degree_cap"))
    M = property(operator.attrgetter("features.M"))
    R = property(operator.attrgetter("features.R"))

    @property
    def kind(self):
        return _MODEL_KINDS[self.features.kind]

    @property
    def domain_half(self):
        fs = self.features
        return fs.half_width if fs.kind == "cube" else fs.amplitude

    @property
    def directions(self):
        rows = self.features.directions
        return None if rows is None else tuple(map(tuple, rows.tolist()))

    @property
    def width(self):
        return len(self.features)

    def __call__(self, x):
        return predict(self, x)


def _clamped_inputs(x, half, label, inputs="training inputs"):
    """x clipped to the model's cube [-half, half]^d, with a warning if
    any coordinate lies outside; the features are built for that cube."""
    if np.any(np.abs(x) > half):
        warnings.warn(
            f"{label}: {inputs} outside [-{half:g}, {half:g}]^d were "
            "clamped for feature evaluation",
            RuntimeWarning,
            stacklevel=3,
        )
        x = np.clip(x, -half, half)
    return x


def _fitted(data, config, feats, solution, **selection):
    """The last step of both fits: audit the solution, resolve beta."""
    if not ridge.coefficient_bound_audit(solution, data.y):
        raise EstimatorError("coefficient bound audit failed after fit")
    beta = config.beta if config.beta is not None else _default_beta(10.0, data.n)
    return FittedEstimator(
        features=feats,
        coefficients=solution.coefficients,
        penalty=config.penalty,
        beta=float(beta),
        training_objective=solution.objective,
        **selection,
    )


def fit_smooth(data, config):
    """Fit the anchor-grid estimator; only the output layer is learned."""
    data = as_dataset(data)
    xc = _clamped_inputs(data.x, config.a, "fit_smooth")
    feats = feat.enumerate_features_cube(data.d, config.N, config.M,
                                         config.a, config.R)
    design = ridge.build_design_matrix(feats, xc)
    solution = ridge.ridge_solve(design, data.y, config.penalty)
    return _fitted(data, config, feats, solution)


def sample_directions(stream, r, d):
    """Draw r direction vectors with independent uniform [-1, 1] entries.

    Directions are used unnormalized; the feature half width sqrt(d) * A
    already covers the longest possible projection of the domain.
    """
    return stream.uniform_matrix(r, d, low=-1.0, high=1.0)


def _pp_trial_design(xc, d, config, trial):
    """The design of trial t; its feature_order holds the directions."""
    stream = rng.Stream(config.seed).child(trial)
    directions = sample_directions(stream, config.r, d)
    feats = feat.enumerate_features_pp(d, config.N, config.M, config.A,
                                       config.R, directions)
    return ridge.build_design_matrix(feats, xc)


def fit_pp(data, config):
    """Fit the projection estimator over repeated random direction draws.

    Trial t derives its own random stream as child t of the config seed,
    so each trial's directions depend only on t.  Trials are built,
    solved and compared in one process in trial order, which keeps the
    fit bit-for-bit reproducible.  Trials whose solve fails are recorded
    as infinite in the selection trace and skipped.
    """
    data = as_dataset(data)
    xc = _clamped_inputs(data.x, config.A, "fit_pp")
    # The count check of enumerate_features_pp, made before any r x d
    # direction draw, so an absurd r fails without allocating.
    feat._checked_count("line", data.d, config.N, config.M, config.r)

    trace = []
    best = None
    for trial in range(config.trials):
        design = _pp_trial_design(xc, data.d, config, trial)
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
            best = (score, design.feature_order, solution)

    if best is None:
        raise EstimatorError(
            f"all {config.trials} direction trials failed to solve"
        )
    _, feats, solution = best
    return _fitted(data, config, feats, solution, selection_trace=tuple(trace),
                   seed=config.seed, selection=config.selection)


# Cap on design-matrix entries held at once while predicting; larger
# batches are processed in row chunks of this many entries.  Chunking can
# move the last bits of a prediction (see predict).
_PREDICT_ENTRY_BUDGET = 2**24


def predict(estimator, x):
    """Evaluate the estimator, truncating predictions to [-beta, beta].

    Queries are clamped to the model's cube [-h, h]^d, h = domain_half,
    as fit clamps its training inputs, with a RuntimeWarning when any
    coordinate lies outside; a non-finite query raises ParameterError
    first.  So a query far outside the cube (1e10 for a unit-cube fit)
    and a tiny h (1e-300) give finite predictions.  A huge h can still
    overflow a feature into NaN inside the cube (a fit with A = 1e300
    predicts NaN at (-1e300, 1e300)), and the clip to [-beta, beta]
    keeps it.  Large batches are evaluated in row chunks to bound
    memory.  Chunking can change the last bits of a prediction: a row's
    value from one BLAS matrix-vector call depends on the row's place in
    the call (on a random 20,000 x 1,904 design, 8,811-row chunks moved
    8 rows by up to 4e-14), so the chunking test allows 1e-12.  A (0, d)
    batch gives an empty array.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    batch = np.atleast_2d(arr)
    if not np.all(np.isfinite(batch)):  # the clamp would make inf finite
        raise ParameterError("input batch contains non-finite values")
    batch = _clamped_inputs(batch, estimator.domain_half, "predict", "queries")
    step = max(1, _PREDICT_ENTRY_BUDGET // max(estimator.width, 1))
    raw = np.empty(batch.shape[0])
    for i in range(0, batch.shape[0], step):
        # No name holds the design, so each chunk's matrix is freed before
        # the next one is built.
        raw[i : i + step] = (ridge.build_design_matrix(
            estimator.features, batch[i : i + step]).values
            @ estimator.coefficients)
    out = np.clip(raw, -estimator.beta, estimator.beta)
    return float(out[0]) if single else out


def empirical_l2_risk(estimator, data):
    """Mean squared prediction error on a dataset."""
    data = as_dataset(data)
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
    """An integer field; true and false are not integers here."""
    value = doc[key]
    if isinstance(value, bool) or operator.index(value) < low:
        raise ParameterError(f"{key} must be an integer >= {low}, got {value!r}")
    return operator.index(value)


def _is_number(value, kinds=(int, float)):
    """A JSON number of the given Python types; true and false are not."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _document_positive(doc, key):
    return _check_positive_finite(key, float(doc[key]))


def from_json_dict(doc):
    """Rebuild a fitted estimator from its serialized form.

    Features are reconstructed by re-running the deterministic enumeration,
    so the document only stores the enumeration parameters and directions.
    The document is checked before anything is built: d >= 1, N >= 0 and
    M >= 0 are integers, not booleans; R, domain_half, penalty and beta
    are positive and finite; every coefficient is finite; the coefficient
    count equals the feature count; selection_trace is null or a list of
    numbers; and seed is null or an integer.  A document that fails raises
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
        trace = doc.get("selection_trace")
        if trace is not None:
            # A failed trial is written as Infinity, a float too.
            if not (isinstance(trace, list) and all(map(_is_number, trace))):
                raise ParameterError(f"selection_trace must be null or a list "
                                     f"of numbers, got {trace!r}")
            trace = tuple(trace)
        seed = doc.get("seed")
        if not (seed is None or _is_number(seed, int)):
            raise ParameterError(f"seed must be null or an integer, got {seed!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed estimator document: {exc!r}") from exc
    if not np.all(np.isfinite(coef)):
        raise ParameterError("coefficients must be finite")
    if len(coef) != count:
        raise ParameterError(
            f"coefficient count {len(coef)} does not match "
            f"feature count {count}"
        )
    feats = (feat.enumerate_features_cube(d, n_deg, m_grid, half, r_scale)
             if directions is None else
             feat.enumerate_features_pp(d, n_deg, m_grid, half, r_scale,
                                        directions))
    return FittedEstimator(
        features=feats,
        coefficients=coef,
        penalty=penalty,
        beta=beta,
        training_objective=training_objective,
        selection_trace=trace,
        seed=seed,
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
