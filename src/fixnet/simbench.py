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

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baselines
from .data import Dataset
from .errors import FixnetError, ParameterError
from .estimators import PPConfig, SmoothConfig, fit_pp, fit_smooth
from .features import count_features_cube
from .rng import Stream

SAFE_EVAL_NOTE = ("log arguments replaced by max(|u|, 1e-12); "
                  "tan outputs clamped to [-1e6, 1e6]")

#: Rows kept in the report layout but produced by other software in the
#: source tables; they are marked not implemented rather than reproduced.
UNIMPLEMENTED_METHODS = ("fc-neural-1", "fc-neural-3", "fc-neural-6", "mars")


def _safe_log(u, floor):
    return np.log(np.maximum(np.abs(u), floor))


def _safe_tan(u, clamp):
    return np.clip(np.tan(u), -clamp, clamp)


def _m1(x, floor, clamp):
    x1, x2 = x[:, 0], x[:, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = _safe_log(0.2 * x1 + 0.9 * x2, floor)
        t2 = np.cos(np.pi / _safe_log(0.5 * x1 + 0.3 * x2, floor))
        t3 = np.exp((0.7 * x1 + 0.7 * x2) / 50.0)
        u = 0.1 * x1 + 0.3 * x2
        quartic = _safe_tan(np.pi * u**4, clamp)
        # tan(pi u^4) / u^2 -> 0 as u -> 0; evaluate the removable limit.
        t4 = np.where(u == 0.0, 0.0, quartic / np.where(u == 0.0, 1.0, u) ** 2)
    return t1 + t2 + t3 + t4


def _m2(x, floor, clamp):
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    t1 = _safe_tan(np.sin(np.pi * (0.2 * x1 + 0.5 * x2 - 0.6 * x3 + 0.2 * x4)),
                   clamp)
    t2 = (0.5 * (x1 + x2 + x3 + x4)) ** 3
    t3 = 1.0 / ((0.5 * x1 + 0.3 * x2 - 0.3 * x3 + 0.25 * x4) ** 2 + 4.0)
    return t1 + t2 + t3


def _m3(x, floor, clamp):
    x1, x2, x3, x4, x5 = (x[:, i] for i in range(5))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = _safe_log(0.5 * (x1 + 0.3 * x2 + 0.6 * x3 + x4 - x5) ** 2, floor)
        t2 = np.sin(np.pi * (0.7 * x1 + x2 - 0.3 * x3 - 0.4 * x4 - 0.8 * x5))
        t3 = np.cos(np.pi / (1.0 + np.sin(0.5 * (x2 + 0.9 * x3 - x5))))
    return t1 + t2 + t3


def _m4(x, floor, clamp):
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
    log_floor: float = 1e-12
    tan_clamp: float = 1e6

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


def eval_target(target, x):
    """Evaluate a target on a point (d,) or batch (n, d)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    batch = np.atleast_2d(arr)
    if batch.shape[1] != target.d:
        raise ParameterError(f"{target.name} expects dimension {target.d}")
    out = target.fn(batch, target.log_floor, target.tan_clamp)
    return float(out[0]) if single else out


def generate(target, n, noise, stream, allow_any_noise=False):
    """Draw a training set: X uniform on the cube, Y = m(X) + noise*scale*e.

    noise is the fraction of the target's scale constant; e is standard
    normal via the documented inverse-CDF sampler.  X is drawn before the
    noise, so the inputs for a given stream do not depend on noise level.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    if not allow_any_noise and not any(
        math.isclose(noise, s, abs_tol=1e-12) for s in STANDARD_NOISES
    ):
        raise ParameterError(
            f"noise fraction {noise} is nonstandard; pass allow_any_noise=True"
        )
    x = stream.uniform_matrix(n, target.d, low=-1.0, high=1.0)
    eps = stream.normals(n)
    y = eval_target(target, x) + noise * target.noise_scale * eps
    return Dataset(x, y)


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
        errors[k] = float(np.mean((avg - eval_target(target, x_eval)) ** 2))
    return float(np.median(errors))


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
            mse = float(np.mean((np.asarray(pred(x_eval))
                                 - eval_target(target, x_eval)) ** 2))
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
    def quick(cls, seed=0, **overrides):
        """Reduced protocol: two targets, one noise level, 10 reps, 50 trials."""
        base = dict(targets=("m2", "m4"), noises=(0.05,), reps=10,
                    trials=50, trial_overrides=(), seed=seed)
        base.update(overrides)
        return cls(**base)

    def __post_init__(self):
        for t in self.targets:
            if t not in TARGETS:
                raise ParameterError(f"unknown target {t!r}")
        known = set(self.methods) - set(_METHOD_FITTERS)
        if known:
            raise ParameterError(f"unknown methods: {sorted(known)}")

    def trials_for(self, target_name, noise):
        for (cell_target, cell_noise), reduced in self.trial_overrides:
            if cell_target == target_name and math.isclose(cell_noise, noise):
                return reduced
        return self.trials

    def to_dict(self):
        doc = {k: getattr(self, k) for k in self.__dataclass_fields__}
        doc["trial_overrides"] = [
            {"target": t, "noise": nz, "trials": tr}
            for (t, nz), tr in self.trial_overrides
        ]
        return doc


def _fit_constant(data, stream, config, trials):
    return baselines.constant_avg(data)


def _fit_kernel(data, stream, config, trials):
    pred, _ = baselines.fit_kernel_selected(data,
                                            stream.child_label("select").seed)
    return pred


def _fit_neighbor(data, stream, config, trials):
    pred, _ = baselines.fit_neighbor_selected(
        data, stream.child_label("select").seed)
    return pred


def _fit_rbf(data, stream, config, trials):
    pred, _ = baselines.fit_rbf_selected(data,
                                         stream.child_label("select").seed)
    return pred


def _fit_proj_neural(data, stream, config, trials):
    def fit_candidate(learn, m_value):
        conf = PPConfig(
            r=config.direction_count,
            N=config.degree_cap,
            M=m_value,
            R=config.scale,
            A=config.domain_half,
            penalty=config.penalty,
            trials=trials,
            seed=stream.child_label(f"proj-M{m_value}").seed,
        )
        return fit_pp(learn, conf)

    sel = baselines.select_by_split(data, fit_candidate, config.proj_m_grid,
                                    stream.child_label("select").seed)
    return sel.predictor


def _fit_smooth_neural(data, stream, config, trials):
    grid = tuple(
        m for m in config.smooth_m_grid
        if count_features_cube(data.d, config.degree_cap, m)
        <= config.smooth_feature_cap
    )
    if not grid:
        raise ParameterError(
            "no smooth-grid candidate fits under the feature cap at this "
            "dimension"
        )

    def fit_candidate(learn, m_value):
        conf = SmoothConfig(
            N=config.degree_cap,
            M=m_value,
            R=config.scale,
            a=config.domain_half,
            penalty=config.penalty,
        )
        return fit_smooth(learn, conf)

    sel = baselines.select_by_split(data, fit_candidate, grid,
                                    stream.child_label("select").seed)
    return sel.predictor


_METHOD_FITTERS = {
    "constant": _fit_constant,
    "kernel": _fit_kernel,
    "neighbor": _fit_neighbor,
    "rbf": _fit_rbf,
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
    safe_eval_note: str = SAFE_EVAL_NOTE

    def cell(self, target, noise, method):
        for c in self.cells:
            if (c.target == target and c.method == method
                    and math.isclose(c.noise, noise)):
                return c
        raise KeyError((target, noise, method))

    def to_csv_text(self):
        lines = [
            "# fixnet benchmark report",
            f"# seed: {self.seed}",
            f"# safe-eval: {self.safe_eval_note}",
            f"# config: {json.dumps(self.config, sort_keys=True)}",
            "target,noise,method,status,median,iqr,reps,failures,reference",
        ]
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
            f"Safe-eval convention: {self.safe_eval_note}.",
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
    for t in config.targets:
        target = TARGETS[t]
        for nz in config.noises:
            ref_stream = master.child_label(f"{t}/{nz:.17g}/reference")
            references[(t, nz)] = reference_error(
                target, nz, ref_stream, n=config.n, eval_n=config.eval_n,
                realizations=config.ref_realizations,
            )

    cells = []
    for t in config.targets:
        target = TARGETS[t]
        for nz in config.noises:
            data_stream = master.child_label(f"{t}/{nz:.17g}/data")
            for m in config.methods:
                method_stream = master.child_label(f"{t}/{nz:.17g}/method/{m}")
                fitter = _METHOD_FITTERS[m]
                trials = config.trials_for(t, nz)

                def fit(data, stream, _f=fitter, _trials=trials):
                    return _f(data, stream, config, _trials)

                try:
                    values, failures = scaled_errors(
                        fit, target, nz, data_stream, method_stream,
                        references[(t, nz)], n=config.n,
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
                    failures=failures, reference=references[(t, nz)],
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
    additive Gaussian noise of standard deviation noise_sd.
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
        sizes = self.sample_sizes
        if len(sizes) < 4 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ParameterError(
                "sample sizes must be strictly increasing with >= 4 points"
            )
        if self.seeds < 1:
            raise ParameterError("need at least one seed")

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
        lines = [
            "# fixnet rate experiment",
            f"# seed: {config.seed}",
            f"# config: {json.dumps(config.to_dict(), sort_keys=True)}",
            f"# slope: {self.slope:.17g}",
            f"# degenerate: {self.degenerate}",
            "n,mean_error",
        ]
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

            def fit_candidate(learn, m_value):
                conf = PPConfig(
                    r=config.direction_count,
                    N=config.degree_cap,
                    M=m_value,
                    R=config.scale,
                    A=config.domain_half,
                    penalty=config.penalty,
                    trials=config.trials,
                    seed=stream.child_label(f"fit-M{m_value}").seed,
                )
                return fit_pp(learn, conf)

            sel = baselines.select_by_split(
                Dataset(x, y), fit_candidate, config.m_grid,
                stream.child_label("select").seed,
            )
            errs.append(float(np.mean(
                (np.asarray(sel.predictor(x_eval)) - truth(x_eval)) ** 2
            )))
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
