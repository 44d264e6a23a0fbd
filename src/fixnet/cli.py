"""Command-line interface: fit, predict, bench, rate, approx-check.

Configuration can come from a JSON file (schema 1, field names matching
the documented config keys) with command-line flags taking precedence.
Every output file starts with comment lines echoing the resolved
configuration and master seed, so a report can be reproduced from the
file alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import features as feat, netblocks, ridge, simbench
from .netblocks import BlockParams
from .data import load_x_csv, load_xy_csv
from .errors import FixnetError
from .estimators import (PPConfig, SmoothConfig, fit_pp, fit_smooth,
                         load_estimator, predict, save_estimator)

_FIT_DEFAULTS = {
    "estimator": "projection",
    "r": 4,
    "N": 2,
    "M": 8,
    "R": 1e6,
    "A": 1.0,
    "a": 1.0,
    "penalty": 1.0,
    "beta": None,
    "trials": 50,
    "selection": "penalized",
}

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


def _network_max_error(features, grid, exact_fn):
    # features is a FeatureSet: the design matrix is built from its
    # arrays, and the exact targets take its descriptors one by one.
    design = ridge.build_design_matrix(features, grid,
                                       warn_out_of_domain=False)
    worst = 0.0
    for j, f in enumerate(features):
        err = float(np.max(np.abs(design.values[:, j] - exact_fn(grid, f))))
        worst = max(worst, err)
    return worst


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

    def cube_feats(r_val):
        return feat.enumerate_features_cube(2, 2, 2, 1.0, r_val)

    def line_feats(r_val):
        return feat.enumerate_features_pp(2, 2, 4, 1.0, r_val,
                                          np.asarray(_DECAY_DIRECTIONS))

    for name, maker, exact in (
        ("grid network", cube_feats, feat.eval_exact_target_cube),
        ("projection network", line_feats, feat.eval_exact_target_pp),
    ):
        err_lo = _network_max_error(maker(scale), grid, exact)
        err_hi = _network_max_error(maker(10.0 * scale), grid, exact)
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
        doc = json.load(fh)
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


def _resolved_run_config(file_cfg, args, keys_defaults):
    return {k: _resolve(file_cfg, args, k, v) for k, v in keys_defaults.items()}


def _reproducibility_header(title, config, seed):
    return [
        f"# fixnet {title}",
        f"# seed: {seed}",
        f"# config: {json.dumps(config, sort_keys=True)}",
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(args):
    file_cfg = _load_config_file(args.config)
    cfg = _resolved_run_config(file_cfg, args, dict(_FIT_DEFAULTS))
    cfg["seed"] = int(_resolve(file_cfg, args, "seed", 0))
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
    if cfg["estimator"] == "projection":
        conf = PPConfig(r=int(cfg["r"]), N=int(cfg["N"]), M=int(cfg["M"]),
                        R=float(cfg["R"]), A=float(cfg["A"]),
                        penalty=float(cfg["penalty"]),
                        beta=None if cfg["beta"] is None else float(cfg["beta"]),
                        trials=int(cfg["trials"]), seed=cfg["seed"],
                        selection=cfg["selection"])
        est = fit_pp(data, conf)
    elif cfg["estimator"] == "smooth":
        conf = SmoothConfig(N=int(cfg["N"]), M=int(cfg["M"]),
                            R=float(cfg["R"]), a=float(cfg["a"]),
                            penalty=float(cfg["penalty"]),
                            beta=None if cfg["beta"] is None
                            else float(cfg["beta"]))
        est = fit_smooth(data, conf)
    else:
        raise FixnetError(
            f"unknown estimator {cfg['estimator']!r}; "
            "use \"projection\" or \"smooth\""
        )
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
    lines = _reproducibility_header("predictions", run_cfg, est.seed)
    lines.append("prediction")
    lines.extend(f"{v:.17g}" for v in predict(est, x))
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{x.shape[0]} predictions written to {output_path}")
    return 0


_BENCH_KEYS = ("targets", "noises", "methods", "n", "eval_n", "reps",
               "trials", "ref_realizations", "direction_count", "degree_cap",
               "domain_half", "scale", "penalty", "proj_m_grid",
               "smooth_m_grid", "smooth_feature_cap")


def cmd_bench(args):
    file_cfg = _load_config_file(args.config)
    seed = int(_resolve(file_cfg, args, "seed", 0))
    quick = bool(args.quick or file_cfg.get("quick", False))
    out_dir = _resolve(file_cfg, args, "output", ".")

    overrides = {}
    for key in _BENCH_KEYS:
        if key in file_cfg:
            value = file_cfg[key]
            overrides[key] = tuple(value) if isinstance(value, list) else value
    if "trial_overrides" in file_cfg:
        overrides["trial_overrides"] = tuple(
            ((item["target"], float(item["noise"])), int(item["trials"]))
            for item in file_cfg["trial_overrides"]
        )
    if quick:
        config = simbench.BenchConfig.quick(seed=seed, **overrides)
    else:
        config = simbench.BenchConfig(seed=seed, **overrides)

    report = simbench.run_benchmark(config)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "bench_report.csv")
    md_path = os.path.join(out_dir, "bench_report.md")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv_text())
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_markdown_text())

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


_RATE_KEYS = ("sample_sizes", "seeds", "noise_sd", "direction", "trials",
              "m_grid", "direction_count", "degree_cap", "domain_half",
              "scale", "penalty", "eval_n")


def cmd_rate(args):
    file_cfg = _load_config_file(args.config)
    seed = int(_resolve(file_cfg, args, "seed", 0))
    out_dir = _resolve(file_cfg, args, "output", ".")

    overrides = {}
    for key in _RATE_KEYS:
        if key in file_cfg:
            value = file_cfg[key]
            overrides[key] = tuple(value) if isinstance(value, list) else value
    config = simbench.RateConfig(seed=seed, **overrides)
    result = simbench.rate_experiment(config)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "rate_report.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(result.to_csv_text(config))
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
    quick = bool(args.quick or file_cfg.get("quick", False))
    rows, ok = run_approx_check(full=not quick)

    width = max(len(r["check"]) for r in rows)
    print(f"{'check':<{width}}  {'scale':>8}  {'measured':>13}  "
          f"{'bound':>13}  result")
    for r in rows:
        print(f"{r['check']:<{width}}  {r['scale']:>8.0e}  "
              f"{r['measured']:>13.6e}  {r['bound']:>13.6e}  "
              f"{'pass' if r['ok'] else 'FAIL'}")
    if out_path:
        lines = _reproducibility_header(
            "approximation check", {"quick": quick}, "n/a")
        lines.append("check,scale,measured,bound,ok")
        for r in rows:
            lines.append(f"{r['check']},{r['scale']:.17g},"
                         f"{r['measured']:.17g},{r['bound']:.17g},{r['ok']}")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"table written to {out_path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (schema 1)")
    sub.add_argument("--input", help="input CSV path")
    sub.add_argument("--model", help="model JSON path")
    sub.add_argument("--output", help="output path (file or directory)")
    sub.add_argument("--seed", type=int, help="master seed (default 0)")
    sub.add_argument("--workers", type=int,
                     help="accepted for compatibility; has no effect")
    sub.add_argument("--quick", action="store_true",
                     help="reduced protocol where the command supports one")


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
        ("fit", cmd_fit, "fit an estimator to a training CSV"),
        ("predict", cmd_predict, "predict with a saved model"),
        ("bench", cmd_bench, "run the simulation benchmark"),
        ("rate", cmd_rate, "run the convergence-rate experiment"),
        ("approx-check", cmd_approx_check,
         "verify the approximation error bounds"),
    )
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FixnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
