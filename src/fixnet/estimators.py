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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import features as feat, ridge, rng
from .data import as_batch, as_dataset
from .errors import EstimatorError, ParameterError, SolverError, warn

_SELECTION_MODES = ("penalized", "risk")
_MODEL_KINDS = {"cube": "smooth", "line": "projection"}
# Design entries of one predict block (16 MiB), an eighth of the size
# rule's budget; see predict.  The block size moves no bit.  On a 2-vCPU
# Xeon (2 MiB L2 per core) with numpy 2.4, predict of a J = 1,904
# projection model on 20,000 queries took 1.30, 1.17, 1.15, 1.27 and
# 1.30 s at 2^19, 2^20, 2^21, 2^22 and 2^24 entries, in medians of 11
# interleaved runs in one process, and the `fixnet predict` process
# peaked at 42.2, 46.2, 54.5, 70.3 and 166.3 MB.  Smaller blocks pay the
# feature build's per-call cost more often.
_PREDICT_ENTRIES = feat.ENTRY_BUDGET // 8


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
        warn("degree cap below the integer part of the smoothness; "
             "the approximation guarantee needs N >= floor(p)")
    return N


def _check_config(config, half_name):
    """The checks SmoothConfig and PPConfig share: the penalty is
    positive, beta, if given, positive and finite, and N, M, the half
    width (the field half_name) and R pass the grid rules of the
    enumerations, features._checked_grid, which also clamps R."""
    if not config.penalty > 0:
        raise ParameterError("penalty must be positive")
    if config.beta is not None:
        _check_positive_finite("beta", config.beta)
    object.__setattr__(config, "R", feat._checked_grid(
        config.N, config.M, half_name, getattr(config, half_name), config.R))


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
        _check_config(self, "a")

    @classmethod
    def from_sample_size(cls, n, d, smoothness, N=None, penalty=1.0,
                         grid_scale=1.0, truncation_scale=10.0):
        """Resolve the theory-driven parameter choices from (n, d, p).

        smoothness is p = q + s with q = floor(p); the feature degree cap
        should satisfy N >= q, which is warned about rather than enforced.
        """
        N = _theory_degree_cap(n, smoothness, N)
        M = int(math.ceil(grid_scale * n ** (1.0 / (2.0 * smoothness + d))))
        try:
            R = float(n) ** (d + 4)
        except OverflowError:
            raise ParameterError(f"scale R = n^(d+4) overflows a float at "
                                 f"n={n}, d={d}") from None
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
        if self.trials < 1:
            raise ParameterError("need at least one trial")
        if self.selection not in _SELECTION_MODES:
            raise ParameterError(f"selection must be one of {_SELECTION_MODES}")
        _check_config(self, "A")

    @classmethod
    def from_sample_size(cls, n, d, r, smoothness, N=None, penalty=1.0,
                         trial_scale=1.0, grid_scale=1.0,
                         truncation_scale=10.0, seed=0):
        """Resolve the theory-driven parameter choices from (n, d, r, p)."""
        N = _theory_degree_cap(n, smoothness, N)
        try:
            trials = int(math.ceil(trial_scale * math.log(n) ** 2
                                   * n ** (r * d / (2.0 * smoothness + 1.0))))
        except OverflowError:
            raise ParameterError(f"trial count log(n)^2 * n^(r*d/(2p+1)) "
                                 f"overflows at n={n}, r={r}, d={d}, "
                                 f"p={smoothness}") from None
        M = int(math.ceil(grid_scale * n ** (1.0 / (2.0 * smoothness + 1.0))))
        R = float(n) ** 3
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
    any coordinate lies outside; the features are built for that cube.
    A non-finite x raises ParameterError first: the clamp would make inf
    finite."""
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{label}: {inputs} contain non-finite values")
    if np.any(np.abs(x) > half):
        warn(f"{label}: {inputs} outside [-{half:g}, {half:g}]^d were "
             "clamped for feature evaluation")
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
    """Fit the anchor-grid estimator; only the output layer is learned.

    An n x J design above features.ENTRY_BUDGET is refused first."""
    data = as_dataset(data)
    feat._checked_count("cube", data.d, config.N, config.M, rows=data.n)
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
    as infinite in the selection trace and skipped.  features._checked_count
    refuses an n x J design or design work above its budgets before any
    direction is drawn, so an absurd r or trials allocates nothing.
    """
    data = as_dataset(data)
    xc = _clamped_inputs(data.x, config.A, "fit_pp")
    feat._checked_count("line", data.d, config.N, config.M, config.r,
                        rows=data.n, trials=config.trials)

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


def predict(estimator, x):
    """Evaluate the estimator, truncating predictions to [-beta, beta].

    Queries are clamped to the model's cube [-h, h]^d, h = domain_half,
    as fit clamps its training inputs, with a RuntimeWarning when any
    coordinate lies outside; a non-finite query raises ParameterError
    first.  So a query far outside the cube (1e10 for a unit-cube fit)
    and a tiny h (1e-300) give finite predictions.  Inside the cube, the
    features stay finite because the enumeration refuses (2h)^N > R for
    N >= 1, at fit and at model load alike.  A (0, d) batch gives an
    empty array.

    The queries are evaluated in row blocks, each its own design and one
    BLAS matrix-vector product with the coefficients.  A block is the
    largest multiple of 64 rows within _PREDICT_ENTRIES = 2^21 design
    entries (1,088 rows for J = 1,904), and at least 64 rows; a model
    whose 64 rows would exceed features.ENTRY_BUDGET takes blocks of
    ENTRY_BUDGET // J rows.  The blocks keep every row's bits.
    OpenBLAS splits a product's rows between its threads into two halves
    when it uses two, and each thread sums its rows in 4-row kernel
    groups; the rows left over at the end of a thread's range take
    another kernel, with other last bits.  A block of a multiple of 8
    rows splits into halves of a multiple of 4, so each of its rows gets
    the bits of a one-thread product over the whole batch, whatever the
    block size and the thread count.  Only the rows of a last block whose
    row count is not a multiple of 8 can depend on the thread count.
    """
    batch, single = as_batch(x, estimator.d)
    batch = _clamped_inputs(batch, estimator.domain_half, "predict", "queries")
    width = estimator.width
    if 64 * width > feat.ENTRY_BUDGET:
        step = feat.ENTRY_BUDGET // width
    else:
        step = max(64, _PREDICT_ENTRIES // width // 64 * 64)
    raw = np.empty(batch.shape[0])
    for i in range(0, batch.shape[0], step):
        # No name holds the design, so each block's matrix is freed before
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
