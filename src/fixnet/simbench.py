"""Monte Carlo regression benchmark and rate-of-convergence experiment.

Four synthetic regression targets on [-1, 1]^d (d = 2, 4, 5, 6) are fit by
the projection estimator and classical baselines.  Performance per cell is
the median and interquartile range, over repetitions, of the scaled error:
a method's mean squared evaluation error divided by a reference level, the
median evaluation error of the constant-average predictor over independent
realizations.  Everything derives from one master seed, so reports are
reproducible byte for byte.

Two of the targets are not defined on the whole cube as printed (logs of
nonpositive arguments, tangent blowups).  They are totalized by a flagged
convention: every log argument u becomes max(|u|, 1e-12) and every tangent
output is clamped to [-1e6, 1e6].  Isolated removable or essential
singularities of measure zero remain; random samples avoid them almost
surely.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baselines
from .data import Dataset, as_batch, comment_header
from .errors import FixnetError, ParameterError
from .estimators import PPConfig, SmoothConfig, fit_pp, fit_smooth
from .features import (ENTRY_BUDGET, _checked_loops, _fit_price,
                       count_features_cube)
from .rng import Stream

# The targets' guards.  SAFE_EVAL_NOTE states them in literal text, which
# the reports pin: f"{_TAN_CLAMP:g}" would read 1e+06.
_LOG_FLOOR = 1e-12
_TAN_CLAMP = 1e6
SAFE_EVAL_NOTE = ("log arguments replaced by max(|u|, 1e-12); "
                  "tan outputs clamped to [-1e6, 1e6]")

#: Rows kept in the report layout but produced by other software in the
#: source tables; they are marked not implemented rather than reproduced.
UNIMPLEMENTED_METHODS = ("fc-neural-1", "fc-neural-3", "fc-neural-6", "mars")


def _safe_log(u):
    return np.log(np.maximum(np.abs(u), _LOG_FLOOR))


def _safe_tan(u):
    return np.clip(np.tan(u), -_TAN_CLAMP, _TAN_CLAMP)


def _m1(x):
    x1, x2 = x[:, 0], x[:, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = _safe_log(0.2 * x1 + 0.9 * x2)
        t2 = np.cos(np.pi / _safe_log(0.5 * x1 + 0.3 * x2))
        t3 = np.exp((0.7 * x1 + 0.7 * x2) / 50.0)
        u = 0.1 * x1 + 0.3 * x2
        quartic = _safe_tan(np.pi * u**4)
        # tan(pi u^4) / u^2 -> 0 as u -> 0; evaluate the removable limit.
        t4 = np.where(u == 0.0, 0.0, quartic / np.where(u == 0.0, 1.0, u) ** 2)
    return t1 + t2 + t3 + t4


def _m2(x):
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    t1 = _safe_tan(np.sin(np.pi * (0.2 * x1 + 0.5 * x2 - 0.6 * x3 + 0.2 * x4)))
    t2 = (0.5 * (x1 + x2 + x3 + x4)) ** 3
    t3 = 1.0 / ((0.5 * x1 + 0.3 * x2 - 0.3 * x3 + 0.25 * x4) ** 2 + 4.0)
    return t1 + t2 + t3


def _m3(x):
    x1, x2, x3, x4, x5 = (x[:, i] for i in range(5))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = _safe_log(0.5 * (x1 + 0.3 * x2 + 0.6 * x3 + x4 - x5) ** 2)
        t2 = np.sin(np.pi * (0.7 * x1 + x2 - 0.3 * x3 - 0.4 * x4 - 0.8 * x5))
        t3 = np.cos(np.pi / (1.0 + np.sin(0.5 * (x2 + 0.9 * x3 - x5))))
    return t1 + t2 + t3


def _m4(x):
    x1, x2, x3, x4, x5, x6 = (x[:, i] for i in range(6))
    t1 = np.exp(0.2 * (x1 + x2 + x3 + x4 + x5 + x6))
    t2 = np.sin((np.pi / 2.0) * (x1 - x2 - x3 + x4 - x5 - x6))
    t3 = 1.0 / ((0.3 * x1 - 0.2 * x2 + 0.8 * x3 - 0.5 * x4 + 0.6 * x5
                 - 0.2 * x6) ** 2 + 6.0)
    t4 = 0.5 * (x1 + x3 - x5) ** 3
    return t1 + t2 + t3 + t4


@dataclass(frozen=True)
class TargetSpec:
    """A benchmark regression target with its noise scale."""

    name: str
    d: int
    noise_scale: float
    fn: Callable

    def __post_init__(self):
        if not self.noise_scale > 0:
            raise ParameterError("noise scale must be positive")


TARGETS = {
    "m1": TargetSpec("m1", 2, 5.04, _m1),
    "m2": TargetSpec("m2", 4, 5.57, _m2),
    "m3": TargetSpec("m3", 5, 6.8, _m3),
    "m4": TargetSpec("m4", 6, 3.71, _m4),
}

#: Noise fractions the scale constants were calibrated for.
STANDARD_NOISES = (0.0, 0.05, 0.10)


def _same_noise(a, b):
    return math.isclose(a, b, abs_tol=1e-12)


def _check_noise(key, noise):
    if not any(_same_noise(noise, s) for s in STANDARD_NOISES):
        raise ParameterError(
            f"{key}: {noise!r} is not a calibrated noise fraction; "
            f"use {', '.join(map(str, STANDARD_NOISES))}")


def eval_target(target, x):
    """Evaluate a target on a point (d,) or batch (n, d)."""
    batch, single = as_batch(x, target.d)
    out = target.fn(batch)
    return float(out[0]) if single else out


def generate(target, n, noise, stream):
    """Draw a training set: X uniform on the cube, Y = m(X) + noise*scale*e.

    noise is the fraction of the target's scale constant, one of
    STANDARD_NOISES; e is standard normal via the documented inverse-CDF
    sampler.  X is drawn before the noise, so the inputs for a given stream
    do not depend on noise level.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    _check_noise("noise", noise)
    x = stream.uniform_matrix(n, target.d, low=-1.0, high=1.0)
    eps = stream.normals(n)
    y = eval_target(target, x) + noise * target.noise_scale * eps
    return Dataset(x, y)


def _mse(predicted, truth):
    """Mean of (predicted - truth)^2: a predictor's evaluation error
    against the noiseless target."""
    return float(np.mean((np.asarray(predicted) - truth) ** 2))


def reference_error(target, noise, stream, n=100, eval_n=10_000,
                    realizations=50):
    """Median evaluation error of the constant-average predictor.

    Each realization draws a fresh training set and evaluation sample from
    children of the given stream and scores the training-response average
    against the noiseless target.
    """
    errors = np.empty(realizations)
    for k in range(realizations):
        sub = stream.child_label(f"realization-{k}")
        data = generate(target, n, noise, sub)
        x_eval = sub.uniform_matrix(eval_n, target.d, low=-1.0, high=1.0)
        avg = float(np.mean(data.y))
        errors[k] = _mse(avg, eval_target(target, x_eval))
    return float(np.median(errors))


def _check_sample_rows(d, **rows):
    """Refuse, before any draw, a sample of rows x d inputs above
    ENTRY_BUDGET, the one size rule's budget; the message names the key."""
    for key, n in rows.items():
        if n * d > ENTRY_BUDGET:
            raise ParameterError(
                f"sample of {key}={n} rows x d={d} exceeds the supported "
                f"maximum {ENTRY_BUDGET} entries; lower {key}")


def _check_distance_rows(methods, n, eval_n):
    """Refuse, before any draw, a distance baseline whose distances pass
    ENTRY_BUDGET entries: the kernel, neighbor and rbf baselines hold the
    distances of the n - n_learn held-out rows and of the eval_n
    evaluation rows to their n_learn learning rows, and the rbf baseline
    n_learn x n_learn of them for its system.  The message names the key
    to lower."""
    distance = [m for m in ("rbf", "kernel", "neighbor") if m in methods]
    if not distance:
        return
    n_learn = baselines._learn_count(n)
    # The rbf system's n_learn rows outnumber the held-out ones.
    queries = n_learn if distance[0] == "rbf" else n - n_learn
    for rows, key in ((queries, "n"), (eval_n, "eval_n")):
        if rows * n_learn > ENTRY_BUDGET:
            raise ParameterError(
                f"the {distance[0]} baseline's distances of {rows} rows x "
                f"{n_learn} learning rows exceed the supported maximum "
                f"{ENTRY_BUDGET} entries; lower {key}")


@dataclass(frozen=True)
class CellResult:
    """One (target, noise, method) cell of the benchmark grid."""

    target: str
    noise: float
    method: str
    status: str
    median: float
    iqr: float
    scaled_values: tuple
    failures: int
    reference: float


def scaled_errors(fit_method, target, noise, data_stream, method_stream,
                  reference, n=100, eval_n=10_000, reps=50):
    """Scaled evaluation errors of one method over shared repetitions.

    fit_method(data, stream) must return a predictor.  Data streams are
    derived from data_stream by repetition index only, so every method
    scored with the same data_stream sees identical training and
    evaluation samples.  Repetitions whose fit raises a library error are
    counted as failures and skipped.
    """
    if reps < 1:
        raise ParameterError("need reps >= 1")
    if not reference > 0:
        raise ParameterError("reference error must be positive")
    values = []
    failures = 0
    for i in range(reps):
        data = generate(target, n, noise,
                        data_stream.child_label(f"rep-{i}-train"))
        x_eval = data_stream.child_label(f"rep-{i}-eval").uniform_matrix(
            eval_n, target.d, low=-1.0, high=1.0
        )
        try:
            pred = fit_method(data, method_stream.child_label(f"rep-{i}"))
            mse = _mse(pred(x_eval), eval_target(target, x_eval))
        except FixnetError:
            failures += 1
            continue
        values.append(mse / reference)
    return values, failures


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark configuration; defaults follow the full protocol.

    trials is the per-fit direction-search budget; trial_overrides lowers
    it for named (target, noise) cells whose full budget is disproportionate
    to their runtime.  quick() switches to the reduced smoke-test protocol.
    """

    targets: tuple = ("m1", "m2", "m3", "m4")
    noises: tuple = (0.05, 0.10)
    methods: tuple = ("constant", "kernel", "neighbor", "rbf",
                      "proj-neural", "smooth-neural")
    n: int = 100
    eval_n: int = 10_000
    reps: int = 50
    trials: int = 400
    trial_overrides: tuple = ((("m1", 0.05), 50),)
    ref_realizations: int = 50
    seed: int = 0
    direction_count: int = 4
    degree_cap: int = 2
    domain_half: float = 1.0
    scale: float = 1e6
    penalty: float = 1.0
    proj_m_grid: tuple = (2, 4, 8, 16)
    smooth_m_grid: tuple = (1, 2, 4)
    smooth_feature_cap: int = 4000

    @classmethod
    def quick(cls, **overrides):
        """Reduced protocol: two targets, one noise level, 10 reps, 50 trials."""
        base = dict(targets=("m2", "m4"), noises=(0.05,), reps=10,
                    trials=50, trial_overrides=())
        base.update(overrides)
        return cls(**base)

    def __post_init__(self):
        for t in self.targets:
            if t not in TARGETS:
                raise ParameterError(f"unknown target {t!r}")
        known = set(self.methods) - set(_METHOD_FITTERS)
        if known:
            raise ParameterError(f"unknown methods: {sorted(known)}")
        for nz in self.noises:
            _check_noise("noises", nz)
        for (t, nz), _ in self.trial_overrides:
            if t not in TARGETS:
                raise ParameterError(
                    f"trial_overrides: unknown target {t!r}")
            _check_noise("trial_overrides", nz)
        for key in ("eval_n", "reps", "ref_realizations"):
            if getattr(self, key) < 1:
                raise ParameterError(
                    f"{key} must be at least 1, got {getattr(self, key)!r}")
        d = max((TARGETS[t].d for t in self.targets), default=0)
        _check_sample_rows(d, n=self.n, eval_n=self.eval_n)
        _check_distance_rows(self.methods, self.n, self.eval_n)
        self._check_loops()

    def _check_loops(self):
        """Check the estimator fields and price the run (_checked_loops):
        per cell, each repetition draws a sample and runs the neural
        methods' fits on the learning part, and each reference realization
        draws a sample."""
        n_learn = baselines._learn_count(self.n)
        if "smooth-neural" in self.methods:
            for m in self.smooth_m_grid:
                _smooth_config(self, m)
        work = 0
        for t in self.targets:
            d = TARGETS[t].d
            sample = (self.n + self.eval_n) * d
            for nz in self.noises:
                fits = 0
                if "proj-neural" in self.methods:
                    fits += _pp_grid_work(self, self.proj_m_grid, d, n_learn,
                                          self.trials_for(t, nz))
                if "smooth-neural" in self.methods:
                    fits += sum(_fit_price("cube", d, self.degree_cap, m,
                                           rows=n_learn)
                                for m in _smooth_grid(self, d))
                work += (self.reps * (sample + fits)
                         + self.ref_realizations * sample)
        _checked_loops(work, "reps, trials, ref_realizations or a grid")

    def trials_for(self, target_name, noise):
        for (cell_target, cell_noise), reduced in self.trial_overrides:
            if cell_target == target_name and _same_noise(cell_noise, noise):
                return reduced
        return self.trials

    def to_dict(self):
        doc = {k: getattr(self, k) for k in self.__dataclass_fields__}
        doc["trial_overrides"] = [
            {"target": t, "noise": nz, "trials": tr}
            for (t, nz), tr in self.trial_overrides
        ]
        return doc


def _selected_baseline(name):
    """The bench fitter of the baseline baselines.<name>, seeded by the
    stream's child "select".  The name is looked up at each call, so a
    rebound module attribute is the one that runs."""
    def fit(data, stream, config, trials):
        pred, _ = getattr(baselines, name)(data,
                                           stream.child_label("select").seed)
        return pred

    return fit


def _pp_config(config, m_value, trials, seed=0):
    """The PPConfig of a bench or rate config's projection fits at grid
    count M; building it checks the estimator fields."""
    return PPConfig(r=config.direction_count, N=config.degree_cap, M=m_value,
                    R=config.scale, A=config.domain_half,
                    penalty=config.penalty, trials=trials, seed=seed)


def _smooth_config(config, m_value):
    """The SmoothConfig of a bench config's smooth fits at grid count M."""
    return SmoothConfig(N=config.degree_cap, M=m_value, R=config.scale,
                        a=config.domain_half, penalty=config.penalty)


def _smooth_grid(config, d):
    """The smooth-grid values M of a bench config whose feature count at
    dimension d is at most smooth_feature_cap."""
    return tuple(m for m in config.smooth_m_grid
                 if count_features_cube(d, config.degree_cap, m)
                 <= config.smooth_feature_cap)


def _pp_grid_work(config, grid, d, n_learn, trials):
    """The summed features._fit_price of one projection fit per grid value
    on n_learn rows.  Building each value's PPConfig first refuses bad
    estimator fields before any draw."""
    work = 0
    for m in grid:
        _pp_config(config, m, trials)
        work += _fit_price("line", d, config.degree_cap, m,
                           config.direction_count, n_learn, trials)
    return work


def _pp_candidate_fitter(config, trials, stream, label):
    """The fit_candidate of select_by_split for the projection estimator of
    a bench or rate config: grid count M, seeded by the stream's child
    labelled f"{label}-M{M}"."""
    def fit_candidate(learn, m_value):
        seed = stream.child_label(f"{label}-M{m_value}").seed
        return fit_pp(learn, _pp_config(config, m_value, trials, seed))

    return fit_candidate


def _fit_proj_neural(data, stream, config, trials):
    sel = baselines.select_by_split(
        data, _pp_candidate_fitter(config, trials, stream, "proj"),
        config.proj_m_grid, stream.child_label("select").seed)
    return sel.predictor


def _fit_smooth_neural(data, stream, config, trials):
    grid = _smooth_grid(config, data.d)
    if not grid:
        raise ParameterError(
            "no smooth-grid candidate fits under the feature cap at this "
            "dimension"
        )

    def fit_candidate(learn, m_value):
        return fit_smooth(learn, _smooth_config(config, m_value))

    sel = baselines.select_by_split(data, fit_candidate, grid,
                                    stream.child_label("select").seed)
    return sel.predictor


_METHOD_FITTERS = {
    "constant": lambda data, stream, config, trials:
        baselines.constant_avg(data),
    "kernel": _selected_baseline("fit_kernel_selected"),
    "neighbor": _selected_baseline("fit_neighbor_selected"),
    "rbf": _selected_baseline("fit_rbf_selected"),
    "proj-neural": _fit_proj_neural,
    "smooth-neural": _fit_smooth_neural,
}


@dataclass(frozen=True)
class BenchmarkReport:
    """Benchmark results with everything needed to reproduce them."""

    config: dict
    seed: int
    references: dict
    cells: tuple

    def cell(self, target, noise, method):
        for c in self.cells:
            if (c.target == target and c.method == method
                    and _same_noise(c.noise, noise)):
                return c
        raise KeyError((target, noise, method))

    def to_csv_text(self):
        lines = comment_header("benchmark report", self.seed, self.config,
                               f"safe-eval: {SAFE_EVAL_NOTE}")
        lines.append(
            "target,noise,method,status,median,iqr,reps,failures,reference")
        for c in self.cells:
            median = "" if math.isnan(c.median) else f"{c.median:.17g}"
            iqr = "" if math.isnan(c.iqr) else f"{c.iqr:.17g}"
            lines.append(
                f"{c.target},{c.noise:.17g},{c.method},{c.status},"
                f"{median},{iqr},{len(c.scaled_values)},{c.failures},"
                f"{c.reference:.17g}"
            )
        return "\n".join(lines) + "\n"

    def to_markdown_text(self):
        columns = []
        for t in self.config["targets"]:
            for nz in self.config["noises"]:
                columns.append((t, nz))
        header = "| method | " + " | ".join(
            f"{t} sigma={nz:g}" for t, nz in columns) + " |"
        rule = "|" + "---|" * (len(columns) + 1)
        lines = [
            "# Benchmark report",
            "",
            f"Scaled errors, median (IQR); seed {self.seed}.",
            f"Safe-eval convention: {SAFE_EVAL_NOTE}.",
            "",
            header,
            rule,
        ]
        ref_row = ["reference error"]
        for t, nz in columns:
            ref_row.append(f"{self.references[(t, nz)]:.4g}")
        lines.append("| " + " | ".join(ref_row) + " |")
        for m in self.config["methods"]:
            row = [m]
            for t, nz in columns:
                c = self.cell(t, nz, m)
                if c.status != "ok":
                    row.append(c.status)
                else:
                    row.append(f"{c.median:.4f} ({c.iqr:.4f})")
            lines.append("| " + " | ".join(row) + " |")
        for m in UNIMPLEMENTED_METHODS:
            row = [m] + ["not implemented"] * len(columns)
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"


def run_benchmark(config):
    """Run the full (target, noise, method) grid of the benchmark.

    Every stream is derived from the master seed by fixed labels, so the
    report is deterministic; training and evaluation data per repetition
    are shared across methods within a cell row.  A cell whose repetitions
    all fail is marked failed; the run continues.
    """
    master = Stream(config.seed)
    references = {}
    cells = []
    for t in config.targets:
        target = TARGETS[t]
        for nz in config.noises:
            reference = references[(t, nz)] = reference_error(
                target, nz, master.child_label(f"{t}/{nz:.17g}/reference"),
                n=config.n, eval_n=config.eval_n,
                realizations=config.ref_realizations,
            )
            data_stream = master.child_label(f"{t}/{nz:.17g}/data")
            for m in config.methods:
                method_stream = master.child_label(f"{t}/{nz:.17g}/method/{m}")
                fit = functools.partial(_METHOD_FITTERS[m], config=config,
                                        trials=config.trials_for(t, nz))
                try:
                    values, failures = scaled_errors(
                        fit, target, nz, data_stream, method_stream,
                        reference, n=config.n,
                        eval_n=config.eval_n, reps=config.reps,
                    )
                except ParameterError:
                    values, failures = [], config.reps
                if values:
                    status = "ok"
                    median = float(np.median(values))
                    iqr = float(np.percentile(values, 75)
                                - np.percentile(values, 25))
                else:
                    status = "failed"
                    median = math.nan
                    iqr = math.nan
                cells.append(CellResult(
                    target=t, noise=nz, method=m, status=status,
                    median=median, iqr=iqr, scaled_values=tuple(values),
                    failures=failures, reference=reference,
                ))
    return BenchmarkReport(
        config=config.to_dict(),
        seed=config.seed,
        references=references,
        cells=tuple(cells),
    )


@dataclass(frozen=True)
class RateConfig:
    """Configuration of the convergence-rate experiment.

    The target is sin(pi * direction . x) on [-1, 1]^len(direction) with
    additive Gaussian noise of standard deviation noise_sd; direction has
    at least one component, and noise_sd is finite and at least 0.
    """

    sample_sizes: tuple = (50, 100, 200, 400, 800)
    seeds: int = 5
    noise_sd: float = 0.05
    direction: tuple = (0.8, 0.6)
    trials: int = 100
    m_grid: tuple = (2, 4, 8, 16)
    direction_count: int = 1
    degree_cap: int = 2
    domain_half: float = 1.0
    scale: float = 1e6
    penalty: float = 1.0
    eval_n: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not self.direction:
            raise ParameterError(
                "direction must have at least one component, got []")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ParameterError(f"noise_sd must be finite and at least 0, "
                                 f"got {self.noise_sd!r}")
        sizes = self.sample_sizes
        if len(sizes) < 4 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ParameterError(
                "sample sizes must be strictly increasing with >= 4 points"
            )
        if self.seeds < 1:
            raise ParameterError("need at least one seed")
        if self.eval_n < 1:
            raise ParameterError(
                f"eval_n must be at least 1, got {self.eval_n!r}")
        d = len(self.direction)
        _check_sample_rows(d, sample_sizes=max(sizes), eval_n=self.eval_n)
        # Priced as BenchConfig._check_loops prices a cell: each seed at
        # each size draws a sample and runs one projection fit per M.
        work = sum(
            self.seeds * ((n + self.eval_n) * d + _pp_grid_work(
                self, self.m_grid, d, baselines._learn_count(n), self.trials))
            for n in sizes)
        _checked_loops(work, "seeds, trials, sample_sizes or m_grid")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class RateResult:
    """Fitted log-log convergence slope with the underlying errors."""

    sample_sizes: tuple
    mean_errors: tuple
    per_seed_errors: tuple
    slope: float
    intercept: float
    degenerate: bool

    def to_csv_text(self, config):
        lines = comment_header("rate experiment", config.seed,
                               config.to_dict())
        lines += [f"# slope: {self.slope:.17g}",
                  f"# degenerate: {self.degenerate}", "n,mean_error"]
        for n, e in zip(self.sample_sizes, self.mean_errors):
            lines.append(f"{n},{e:.17g}")
        return "\n".join(lines) + "\n"


def rate_experiment(config):
    """Measure how fast the projection estimator's error falls with n.

    For each sample size, several seeds each draw a training set, fit the
    projection estimator with its grid parameter selected on a holdout
    split, and score the mean squared error against the noiseless target
    on a fresh evaluation sample.  The result is the least-squares slope
    of log mean error against log n; errors at the noise-free resolution
    floor flag the slope as degenerate instead.
    """
    direction = np.asarray(config.direction, dtype=float)
    d = direction.shape[0]

    def truth(x):
        return np.sin(np.pi * (np.atleast_2d(x) @ direction))

    master = Stream(config.seed)
    per_seed = []
    means = []
    for n in config.sample_sizes:
        errs = []
        for s in range(config.seeds):
            stream = master.child_label(f"rate/n{n}/seed{s}")
            x = stream.uniform_matrix(n, d, low=-1.0, high=1.0)
            y = truth(x) + config.noise_sd * stream.normals(n)
            x_eval = stream.child_label("eval").uniform_matrix(
                config.eval_n, d, low=-1.0, high=1.0)
            sel = baselines.select_by_split(
                Dataset(x, y),
                _pp_candidate_fitter(config, config.trials, stream, "fit"),
                config.m_grid, stream.child_label("select").seed,
            )
            errs.append(_mse(sel.predictor(x_eval), truth(x_eval)))
        per_seed.append(tuple(errs))
        means.append(float(np.mean(errs)))

    degenerate = any(e <= 1e-14 for e in means)
    if degenerate:
        slope, intercept = math.nan, math.nan
    else:
        slope, intercept = np.polyfit(np.log(config.sample_sizes),
                                      np.log(means), 1)
    return RateResult(
        sample_sizes=tuple(config.sample_sizes),
        mean_errors=tuple(means),
        per_seed_errors=tuple(per_seed),
        slope=float(slope),
        intercept=float(intercept),
        degenerate=degenerate,
    )
