"""Command-line interface: fit, predict, bench, rate, approx-check.

Configuration can come from a JSON file (schema 1) with command-line
flags taking precedence.  Each command takes only the flags it reads
(--workers is kept for compatibility and has no effect):

    fit           --config --input --model --output --seed --workers
    predict       --config --input --model --output
    bench         --config --output --seed --quick --workers
    rate          --config --output --seed
    approx-check  --config --output --quick

The keys of fit, bench and rate are the field names of the command's
config class (PPConfig or SmoothConfig, BenchConfig, RateConfig).  An
int field takes a JSON integer or an integral float, a float field any
JSON number (a boolean is none), a str field a string, a tuple field a
JSON list of those, and beta (default None) a number or null; a value
that does not convert exits 2.

Every output file starts with comment lines echoing the resolved
configuration and master seed, so a report can be reproduced from the
file alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import features as feat, netblocks, ridge
from .netblocks import BlockParams
from .data import comment_header, load_x_csv, load_xy_csv
from .errors import FixnetError
from .estimators import (PPConfig, SmoothConfig, fit_pp, fit_smooth,
                         load_estimator, predict, save_estimator)

#: Fixed directions used by the decay check's projection network.
_DECAY_DIRECTIONS = ((0.8, 0.6), (-0.35, 0.9))


# ---------------------------------------------------------------------------
# approximation-check suites
# ---------------------------------------------------------------------------

def block_check_rows(scales=(1e3, 1e4, 1e5), a=1.0, M=4, step=2e-3):
    """Measure max grid errors of the five basic blocks against their
    stated error bounds; one row per (block, scale)."""
    xs = np.arange(-a, a + step / 2.0, step)
    rows = []
    for R in scales:
        params = BlockParams(R=R, a=a)
        hat_params = BlockParams(R=R, a=a, M=M)
        gx, gy = np.meshgrid(xs, xs)
        gx, gy = gx.ravel(), gy.ravel()
        checks = (
            ("identity",
             float(np.max(np.abs(netblocks.f_id(xs, params) - xs))),
             netblocks.bound_id(params)),
            ("square",
             float(np.max(np.abs(netblocks.f_sq(xs, params) - xs**2))),
             netblocks.bound_sq(params)),
            ("product",
             float(np.max(np.abs(netblocks.f_mult(gx, gy, params) - gx * gy))),
             netblocks.bound_mult(params)),
            ("positive-part",
             float(np.max(np.abs(netblocks.f_relu(xs, params)
                                 - np.maximum(xs, 0.0)))),
             netblocks.bound_relu(params)),
            ("tent",
             float(np.max(np.abs(netblocks.f_hat(xs, 0.0, hat_params)
                                 - netblocks.exact_hat(xs, 0.0, M, a)))),
             netblocks.bound_hat(hat_params)),
        )
        for name, measured, bound in checks:
            rows.append({
                "check": name,
                "scale": R,
                "measured": measured,
                "bound": float(bound),
                "ok": measured <= bound,
            })
    return rows


def _network_max_error(features, grid):
    # features is a FeatureSet: the design matrix is built from its
    # arrays, and the exact target takes its descriptors one by one.
    design = ridge.build_design_matrix(features, grid)
    return max(float(np.max(np.abs(design.values[:, j]
                                   - feat.eval_exact_target(grid, f))))
               for j, f in enumerate(features))


def decay_check_rows(scale=1e5, window=(1.0 / 12.0, 1.0 / 8.0)):
    """Check that whole-network errors decay like 1/R.

    Measures the max grid error of every feature network at R and 10 R on
    a fixed 21 x 21 grid and requires the error ratio to sit inside the
    given window around 1/10.
    """
    side = np.linspace(-1.0, 1.0, 21)
    gx, gy = np.meshgrid(side, side)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    lo, hi = window
    rows = []
    for name, maker in (
        ("grid network",
         lambda r_val: feat.enumerate_features_cube(2, 2, 2, 1.0, r_val)),
        ("projection network",
         lambda r_val: feat.enumerate_features_pp(
             2, 2, 4, 1.0, r_val, np.asarray(_DECAY_DIRECTIONS))),
    ):
        err_lo = _network_max_error(maker(scale), grid)
        err_hi = _network_max_error(maker(10.0 * scale), grid)
        ratio = err_hi / err_lo if err_lo > 0 else math.inf
        rows.append({
            "check": f"{name} 1/R decay",
            "scale": scale,
            "measured": ratio,
            "bound": hi,
            "lower": lo,
            "ok": lo <= ratio <= hi,
        })
    return rows


def run_approx_check(full=True, scales=(1e3, 1e4, 1e5)):
    """Run the block-bound suite and (in full mode) the decay suite."""
    rows = block_check_rows(scales=scales)
    if full:
        rows.extend(decay_check_rows())
    return rows, all(r["ok"] for r in rows)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FixnetError(f"{path}: config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        raise FixnetError(
            f"{path}: config must be a JSON object with \"schema\": 1"
        )
    return doc


def _resolve(file_cfg, args, key, default=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return file_cfg.get(key, default)


def _converted(default, value):
    """value in the kind of a config field's default (module docstring)."""
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(_converted(default[0], v) for v in value)
    if isinstance(default, str) and isinstance(value, str):
        return value
    if default is None and value is None:
        return None
    if (isinstance(default, (str, tuple)) or isinstance(value, bool)
            or not isinstance(value, (int, float))):
        raise TypeError(value)
    if isinstance(default, int) and int(value) != value:
        raise ValueError(value)
    return float(value) if default is None else type(default)(value)


def _config_values(cls, file_cfg, args):
    """Keyword arguments of the config class cls, one per field given."""
    values = {}
    for field in dataclasses.fields(cls):
        key = field.name
        if getattr(args, key, None) is None and key not in file_cfg:
            continue
        value = _resolve(file_cfg, args, key)
        try:
            if key != "trial_overrides":
                values[key] = _converted(field.default, value)
            elif not isinstance(value, list):
                raise TypeError(value)
            else:  # [{"target": ..., "noise": ..., "trials": ...}, ...]
                values[key] = tuple(
                    ((_converted("", item["target"]),
                      _converted(0.0, item["noise"])),
                     _converted(0, item["trials"])) for item in value)
        except (TypeError, ValueError, OverflowError, KeyError):
            raise FixnetError(
                f"config key {key!r} has an unusable value {value!r}"
            ) from None
    return values


def _write_text(path, text):
    """Write one output file of a command, UTF-8 text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _quick(file_cfg, args):
    quick = file_cfg.get("quick", False)
    if not isinstance(quick, bool):
        raise FixnetError(f"config key 'quick' has an unusable value {quick!r}")
    return args.quick or quick


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(args):
    file_cfg = _load_config_file(args.config)
    estimator = _resolve(file_cfg, args, "estimator", "projection")
    if estimator == "projection":
        config_cls, fit = PPConfig, fit_pp
    elif estimator == "smooth":
        config_cls, fit = SmoothConfig, fit_smooth
    else:
        raise FixnetError(f"unknown estimator {estimator!r}; "
                          "use \"projection\" or \"smooth\"")
    config = config_cls(**_config_values(config_cls, file_cfg, args))
    input_path = _resolve(file_cfg, args, "input")
    if input_path is None:
        raise FixnetError("fit requires --input (or \"input\" in the config)")
    output_path = _resolve(file_cfg, args, "output")
    model_path = _resolve(file_cfg, args, "model")
    if (output_path is not None and model_path is not None
            and os.path.abspath(output_path) != os.path.abspath(model_path)):
        raise FixnetError(
            f"fit got two different model paths, output {output_path!r} "
            f"and model {model_path!r}; give one"
        )
    output_path = output_path or model_path or "model.json"

    data = load_xy_csv(input_path)
    start = time.perf_counter()
    est = fit(data, config)
    wall = time.perf_counter() - start

    save_estimator(est, output_path)
    print(f"fitted {est.kind} estimator on {data.n} rows (d={data.d})")
    print(f"features: {est.width}")
    print(f"training objective: {est.training_objective:.17g}")
    # fit_pp and fit_smooth raise EstimatorError when the audit fails.
    print("coefficient bound audit: pass")
    print(f"wall time: {wall:.2f} s")
    print(f"model written to {output_path}")
    return 0


def cmd_predict(args):
    file_cfg = _load_config_file(args.config)
    model_path = _resolve(file_cfg, args, "model")
    input_path = _resolve(file_cfg, args, "input")
    output_path = _resolve(file_cfg, args, "output", "predictions.csv")
    if model_path is None or input_path is None:
        raise FixnetError("predict requires --model and --input")

    est = load_estimator(model_path)
    x = load_x_csv(input_path)
    if x.shape[1] != est.d:
        raise FixnetError(
            f"model expects d={est.d} but {input_path} has d={x.shape[1]}"
        )
    run_cfg = {"model": model_path, "input": input_path,
               "estimator_kind": est.kind, "d": est.d}
    lines = comment_header("predictions", est.seed, run_cfg)
    lines.append("prediction")
    # Python floats format as np.float64 does, in about 3/4 the time.
    lines.extend(f"{v:.17g}" for v in predict(est, x).tolist())
    _write_text(output_path, "\n".join(lines) + "\n")
    print(f"{x.shape[0]} predictions written to {output_path}")
    return 0


def cmd_bench(args):
    from . import simbench

    file_cfg = _load_config_file(args.config)
    out_dir = _resolve(file_cfg, args, "output", ".")
    cls = simbench.BenchConfig
    make = cls.quick if _quick(file_cfg, args) else cls
    config = make(**_config_values(cls, file_cfg, args))

    report = simbench.run_benchmark(config)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "bench_report.csv")
    md_path = os.path.join(out_dir, "bench_report.md")
    _write_text(csv_path, report.to_csv_text())
    _write_text(md_path, report.to_markdown_text())

    failed = [c for c in report.cells if c.status != "ok"]
    for c in report.cells:
        shown = "failed" if c.status != "ok" else (
            f"median {c.median:.4f} iqr {c.iqr:.4f}")
        print(f"{c.target} noise={c.noise:g} {c.method}: {shown}")
    print(f"report written to {csv_path} and {md_path}")
    if failed:
        print(f"{len(failed)} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_rate(args):
    from . import simbench

    file_cfg = _load_config_file(args.config)
    out_dir = _resolve(file_cfg, args, "output", ".")
    config = simbench.RateConfig(**_config_values(simbench.RateConfig,
                                                  file_cfg, args))
    result = simbench.rate_experiment(config)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "rate_report.csv")
    _write_text(csv_path, result.to_csv_text(config))
    for n, e in zip(result.sample_sizes, result.mean_errors):
        print(f"n={n}: mean error {e:.6g}")
    if result.degenerate:
        print("slope: degenerate (errors at resolution floor)")
    else:
        print(f"slope: {result.slope:.4f}")
    print(f"report written to {csv_path}")
    return 0


def cmd_approx_check(args):
    file_cfg = _load_config_file(args.config)
    out_path = _resolve(file_cfg, args, "output")
    quick = _quick(file_cfg, args)
    rows, ok = run_approx_check(full=not quick)

    width = max(len(r["check"]) for r in rows)
    print(f"{'check':<{width}}  {'scale':>8}  {'measured':>13}  "
          f"{'bound':>13}  result")
    for r in rows:
        print(f"{r['check']:<{width}}  {r['scale']:>8.0e}  "
              f"{r['measured']:>13.6e}  {r['bound']:>13.6e}  "
              f"{'pass' if r['ok'] else 'FAIL'}")
    if out_path:
        lines = comment_header("approximation check", "n/a", {"quick": quick})
        lines.append("check,scale,measured,bound,ok")
        for r in rows:
            lines.append(f"{r['check']},{r['scale']:.17g},"
                         f"{r['measured']:.17g},{r['bound']:.17g},{r['ok']}")
        _write_text(out_path, "\n".join(lines) + "\n")
        print(f"table written to {out_path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_FLAGS = {
    "config": {"help": "JSON config file (schema 1)"},
    "input": {"help": "input CSV path"},
    "model": {"help": "model JSON path"},
    "output": {"help": "output path (file or directory)"},
    "seed": {"type": int, "help": "master seed (default 0)"},
    "workers": {"type": int, "help": "kept for compatibility; no effect"},
    "quick": {"action": "store_true", "help": "reduced protocol"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fixnet",
        description=("Regression with fixed-weight sigmoid feature networks: "
                     "fit and predict on CSV data, run the simulation "
                     "benchmark, the rate experiment, and the approximation "
                     "bound checks."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("fit", cmd_fit, "fit an estimator to a training CSV",
         ("config", "input", "model", "output", "seed", "workers")),
        ("predict", cmd_predict, "predict with a saved model",
         ("config", "input", "model", "output")),
        ("bench", cmd_bench, "run the simulation benchmark",
         ("config", "output", "seed", "quick", "workers")),
        ("rate", cmd_rate, "run the convergence-rate experiment",
         ("config", "output", "seed")),
        ("approx-check", cmd_approx_check,
         "verify the approximation error bounds",
         ("config", "output", "quick")),
    )
    for name, fn, help_text, flags in specs:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(handler=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FixnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
