"""fixnet benchmark: four workloads of the `fixnet` command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout.  Every operation is one fresh
`python -m fixnet.cli ...` process against the checkout's `src/`, run as a
closed loop with one client: the next operation starts when the previous
one has ended, for `--seconds` seconds.  Operations run with the
environment a user gets: any OPENBLAS_*, OMP_* or MALLOC_* variables of the
caller are removed (and recorded).

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics.  With `--trace 1` the run makes one untraced and
one traced operation (see tracer.py) and reports the per-layer metrics and
the tracing overhead instead.  Every run also writes its full record
(environment, operations, checks, metrics) to
`.perfbench/results/<workload>-seed<seed>-trace<t>.json`; the traced run
keeps its span files under `.perfbench/work/`.

Workload reasons and metric directions are in BENCHMARK.json; NOTES.md in
this directory explains the choices that the numbers depend on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Environment prefixes that tune BLAS, OpenMP or the allocator.
TUNING_PREFIXES = ("OPENBLAS_", "OMP_", "MALLOC_")

NOISE = 0.05
#: Independent input sets per run.  Ops cycle over them and scaled_error is
#: their mean, because one 100-row training set alone moves the pp model's
#: scaled error by about 20% from seed to seed.
COPIES = 3
EVAL_N = 10_000
#: Rows per predict call when scoring a model.  Predictions are row-wise,
#: so this changes no value; it halves the scoring time, which is spent
#: mostly in page faults on the temporaries of one large batch.
EVAL_CHUNK = 2_000
QUERY_N = 20_000
ORACLE_ROWS = 16
ORACLE_RTOL = 1e-9
OP_TIMEOUT_S = 150.0
IMPORT_PROBES = 3
#: Set-up is repeated in rounds over the copies until this much time is
#: spent (at most SETUP_ROUNDS rounds); setup_s is the median.
SETUP_MIN_S = 0.5
SETUP_ROUNDS = 20
#: fixnet's own master seed for bench_m2, which ignores --seed (NOTES.md).
BENCH_SEED = 0

PP_CONFIG = {"schema": 1, "estimator": "projection", "r": 4, "N": 2, "M": 16,
             "trials": 50}
SMOOTH_CONFIG = {"schema": 1, "estimator": "smooth", "N": 2, "M": 2}
BENCH_CONFIG = {"schema": 1, "targets": ["m2"], "noises": [NOISE], "reps": 2}

# Purposes of the random streams drawn from one seed.
TRAIN, EVAL, QUERIES, ORACLE = range(4)


@dataclass(frozen=True)
class Workload:
    kind: str  # "fit", "predict" or "bench"
    target: str = ""
    rows: int = 0
    config: dict = field(default_factory=dict)
    workers: int = 1


WORKLOADS = {
    "pp_fit": Workload("fit", "m4", 100, PP_CONFIG, workers=1),
    "pp_predict": Workload("predict", "m4", 100, PP_CONFIG),
    "smooth_fit": Workload("fit", "m2", 4000, SMOOTH_CONFIG),
    "bench_m2": Workload("bench", config=BENCH_CONFIG, workers=2),
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


#: What reading a wrong or missing output can raise.
OUTPUT_ERRORS = (CheckFailed, OSError, ValueError, KeyError)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def op_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(TUNING_PREFIXES)}
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Proc:
    argv: list
    returncode: int
    wall_s: float
    cpu_s: float
    sys_s: float
    maxrss_mb: float
    minflt: int
    stdout: str
    stderr: str


def run_proc(argv, cwd, log_prefix):
    """Run argv to completion; wall time and rusage of it and its children."""
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=op_env(), stdout=out,
                                 stderr=err, start_new_session=True)
        finished = False
        try:
            pidfd = os.pidfd_open(child.pid)
            try:
                finished = bool(select.select([pidfd], [], [], OP_TIMEOUT_S)[0])
            finally:
                os.close(pidfd)
        finally:
            if not finished:  # timed out, or this benchmark is being stopped
                os.killpg(child.pid, signal.SIGKILL)
            _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Proc(argv=list(argv), returncode=child.returncode, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime, sys_s=usage.ru_stime,
                maxrss_mb=usage.ru_maxrss / 1024.0, minflt=usage.ru_minflt,
                stdout=stdout, stderr=stderr)


def fixnet_argv(args):
    return [sys.executable, "-m", "fixnet.cli", *args]


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(work):
    probe = run_proc([sys.executable, os.path.join(HERE, "envprobe.py")],
                     work, os.path.join(work, "envprobe"))
    libs = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": libs.get("python"),
        "numpy": libs.get("numpy"),
        "scipy": libs.get("scipy"),
        "openblas": libs.get("openblas", []),
        "git_commit": _git_commit(),
        "caller_tuning_env": {k: v for k, v in sorted(os.environ.items())
                              if k.startswith(TUNING_PREFIXES)},
    }


def load_pins(env):
    """Pinned output hashes, or None with the reason they do not apply."""
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    have = [[lib["config"], lib["threads"]] for lib in env["openblas"]]
    if have != pins["openblas"]:
        return None, f"pins hold for OpenBLAS {pins['openblas']}, this run has {have}"
    return pins, None


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

class Inputs:
    """Generates a workload's inputs and check samples from the seed."""

    def __init__(self, np, simbench, workload, seed):
        self.np = np
        self.simbench = simbench
        self.workload = workload
        self.seed = seed
        if workload.target:
            self.target = simbench.TARGETS[workload.target]

    def rng(self, copy, purpose):
        # Keyed by target, not workload, so pp_predict fits exactly the
        # training sets that pp_fit fits.
        tag = int(self.workload.target[1:]) if self.workload.target else 0
        return self.np.random.default_rng([self.seed, tag, copy, purpose])

    def points(self, copy, purpose, n):
        return self.rng(copy, purpose).uniform(-1.0, 1.0, (n, self.target.d))

    def write_training(self, copy, path):
        rng = self.rng(copy, TRAIN)
        x = rng.uniform(-1.0, 1.0, (self.workload.rows, self.target.d))
        eps = rng.standard_normal(self.workload.rows)
        y = (self.simbench.eval_target(self.target, x)
             + NOISE * self.target.noise_scale * eps)
        self._write_csv(path, self.np.column_stack([x, y]), with_y=True)

    def write_queries(self, copy, path):
        self._write_csv(path, self.points(copy, QUERIES, QUERY_N), with_y=False)

    def _write_csv(self, path, table, with_y):
        names = [f"x{i + 1}" for i in range(self.target.d)]
        header = ",".join(names + (["y"] if with_y else []))
        self.np.savetxt(path, table, fmt="%.17g", delimiter=",",
                        header=header, comments="")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, name, seed, trace):
        import numpy as np
        from fixnet import estimators, features, simbench
        from fixnet.rng import Stream

        self.np, self.estimators, self.features = np, estimators, features
        self.simbench, self.Stream = simbench, Stream
        self.name, self.seed, self.trace = name, seed, trace
        self.workload = WORKLOADS[name]
        self.inputs = Inputs(np, simbench, self.workload, seed)
        self.work = os.path.join(OUT, "work", f"{name}-seed{seed}-trace{trace}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = environment(self.work)
        self.pins, self.pins_skipped = load_pins(self.env)
        self.copies = []  # per copy: paths of its inputs
        self.models = {}  # copy -> model path used for scaled_error
        self.ops = []
        self.problems = []

    # -- setup -------------------------------------------------------------

    def setup(self, copy):
        wl = self.workload
        cdir = os.path.join(self.work, f"copy{copy}")
        os.makedirs(cdir, exist_ok=True)
        paths = {"dir": cdir, "config": os.path.join(cdir, "config.json")}
        write_json(paths["config"], wl.config)
        if wl.kind in ("fit", "predict"):
            paths["train"] = os.path.join(cdir, "train.csv")
            self.inputs.write_training(copy, paths["train"])
        if wl.kind == "predict":
            paths["model"] = os.path.join(cdir, "model.json")
            fit = run_proc(fixnet_argv(["fit", "--config", paths["config"],
                                        "--input", paths["train"],
                                        "--output", paths["model"],
                                        "--workers", "1"]),
                           cdir, os.path.join(cdir, "setup-fit"))
            try:
                if fit.returncode != 0:
                    raise CheckFailed(f"exit code {fit.returncode}: "
                                      f"{fit.stderr.strip()[-500:]}")
                self.check_model(paths["model"], copy, "pp_fit")
                self.models[copy] = paths["model"]
            except OUTPUT_ERRORS as exc:
                self.problems.append(f"set-up fit of copy {copy}: {exc!r}")
            paths["queries"] = os.path.join(cdir, "queries.csv")
            self.inputs.write_queries(copy, paths["queries"])
        return paths

    # -- operations --------------------------------------------------------

    def op_args(self, index, copy):
        wl, paths = self.workload, self.copies[copy]
        out = os.path.join(paths["dir"], f"op{index}")
        if wl.kind == "fit":
            return out + ".json", ["fit", "--config", paths["config"],
                                   "--input", paths["train"], "--output",
                                   out + ".json", "--workers", str(wl.workers)]
        if wl.kind == "predict":
            return out + ".csv", ["predict", "--model", paths["model"],
                                  "--input", paths["queries"],
                                  "--output", out + ".csv"]
        return out, ["bench", "--quick", "--config", paths["config"],
                     "--workers", str(wl.workers), "--seed", str(BENCH_SEED),
                     "--output", out]

    def run_op(self, index, traced=False):
        copy = index % len(self.copies)
        output, args = self.op_args(index, copy)
        if traced:
            trace_dir = os.path.join(self.work, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    trace_dir, "--", *args]
        else:
            argv = fixnet_argv(args)
        proc = run_proc(argv, self.work, output)
        record = {"index": index, "copy": copy, "traced": traced,
                  "argv": proc.argv[1:], "returncode": proc.returncode,
                  "wall_s": proc.wall_s, "cpu_s": proc.cpu_s,
                  "sys_s": proc.sys_s, "maxrss_mb": proc.maxrss_mb,
                  "minflt": proc.minflt, "error": None}
        try:
            if proc.returncode != 0:
                raise CheckFailed(f"exit code {proc.returncode}: "
                                  f"{proc.stderr.strip()[-500:]}")
            self.check_op(proc, output, copy)
        except OUTPUT_ERRORS as exc:
            record["error"] = repr(exc)
        self.ops.append(record)
        return record

    # -- checks ------------------------------------------------------------

    def check_op(self, proc, output, copy):
        kind = self.workload.kind
        if kind == "fit":
            if "coefficient bound audit: pass" not in proc.stdout:
                raise CheckFailed("fit did not report a passing coefficient audit")
            if not os.path.isfile(output):
                raise CheckFailed(f"model not written to the --output path {output}")
            self.check_model(output, copy, self.name)
            self.models.setdefault(copy, output)
        elif kind == "predict":
            self.check_predictions(output, copy)
            os.remove(output)
        else:
            self.check_bench(output)

    def check_model(self, path, copy, pin_key):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("model") != "fixnet-estimator":
            raise CheckFailed(f"{path} is not a fixnet model")
        if self.pins and self.seed == self.pins["seed"]:
            want = self.pins[pin_key][copy]
            got = sha256(path)
            if got != want:
                raise CheckFailed(f"model sha256 {got} differs from the pinned {want}")

    def check_predictions(self, path, copy):
        np = self.np
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        if not lines or lines[0].strip() != "prediction":
            raise CheckFailed("predictions file lacks its header")
        values = np.array([float(v) for v in lines[1:]])
        if values.shape != (QUERY_N,):
            raise CheckFailed(f"{values.size} predictions for {QUERY_N} rows")
        est = self.estimators.load_estimator(self.copies[copy]["model"])
        if not np.all(np.isfinite(values)):
            raise CheckFailed("non-finite predictions")
        if np.any(np.abs(values) > est.beta):
            raise CheckFailed(f"prediction outside [-beta, beta], beta={est.beta}")
        rows = self.inputs.rng(copy, ORACLE).choice(QUERY_N, ORACLE_ROWS,
                                                    replace=False)
        x = self.inputs.points(copy, QUERIES, QUERY_N)[rows]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cols = [self.features.eval_feature(x, f) for f in est.features]
        oracle = np.clip(np.column_stack(cols) @ est.coefficients,
                         -est.beta, est.beta)
        err = np.abs(values[rows] - oracle)
        if np.any(err > ORACLE_RTOL * (1.0 + np.abs(oracle))):
            raise CheckFailed(f"predictions differ from the eval_feature oracle "
                              f"by up to {float(err.max()):.3g}")

    def check_bench(self, out_dir):
        paths = {name: os.path.join(out_dir, name)
                 for name in ("bench_report.csv", "bench_report.md")}
        for name, path in paths.items():
            if not os.path.isfile(path):
                raise CheckFailed(f"{name} not written")
            if self.pins:  # bench_m2 always runs fixnet's seed BENCH_SEED
                want = self.pins["bench_m2"][name]
                if sha256(path) != want:
                    raise CheckFailed(f"{name} differs from the pinned sha256 {want}")
        self.bench_cell(paths["bench_report.csv"])

    def bench_cell(self, csv_path):
        """Median scaled error of the proj-neural cell of a bench report."""
        with open(csv_path, encoding="utf-8") as fh:
            rows = [ln.strip().split(",") for ln in fh if not ln.startswith("#")]
        header = rows[0]
        for row in rows[1:]:
            cell = dict(zip(header, row))
            if cell["method"] == "proj-neural":
                if cell["status"] != "ok":
                    raise CheckFailed("proj-neural cell failed")
                return float(cell["median"])
        raise CheckFailed("bench report has no proj-neural cell")

    # -- accuracy (outside the timed region) -------------------------------

    def scaled_error(self):
        """Mean over copies of the model's MSE against the noiseless target
        on a 10k evaluation sample, divided by simbench.reference_error.
        For bench_m2, the proj-neural cell median of its report.

        Returns (value or None, per-copy values, problems)."""
        np, sb = self.np, self.simbench
        if self.workload.kind == "bench":
            good = [op for op in self.ops if op["error"] is None]
            if not good:
                return None, [], ["no successful bench operation to score"]
            out, _ = self.op_args(good[0]["index"], good[0]["copy"])
            return self.bench_cell(os.path.join(out, "bench_report.csv")), [], []
        missing = [copy for copy in range(COPIES) if copy not in self.models]
        if missing:
            return None, [], [f"no checked model for input copies {missing}"]
        target = self.inputs.target
        reference = sb.reference_error(
            target, NOISE, self.Stream(self.seed).child_label("perfbench/reference"))
        values = []
        for copy in range(COPIES):
            x = self.inputs.points(copy, EVAL, EVAL_N)
            est = self.estimators.load_estimator(self.models[copy])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pred = np.concatenate([self.estimators.predict(est, x[i:i + EVAL_CHUNK])
                                       for i in range(0, EVAL_N, EVAL_CHUNK)])
            mse = float(np.mean((pred - sb.eval_target(target, x)) ** 2))
            values.append(mse / reference)
        problems = [f"scaled error {v:.4g} >= 1 on input copy {copy}"
                    for copy, v in enumerate(values) if v >= 1.0]
        return float(np.mean(values)), values, problems

    # -- the two kinds of run ----------------------------------------------

    def setup_all(self, count, min_s=0.0):
        """Set up copies 0..count-1, then again in rounds until min_s is spent."""
        times = []
        for round_ in range(SETUP_ROUNDS):
            for copy in range(count):
                start = time.perf_counter()
                paths = self.setup(copy)
                times.append(time.perf_counter() - start)
                if round_ == 0:
                    self.copies.append(paths)
            if sum(times) >= min_s or self.problems:
                break
        return times

    def end_to_end(self, seconds):
        setup_times = self.setup_all(COPIES, SETUP_MIN_S)
        # Closed loop: the next op starts only if an op of median length
        # still ends inside the window, so a run measures about `seconds`.
        # Fits need one op per copy to have a model to score for each.
        min_ops = COPIES if self.workload.kind == "fit" else 1
        start = time.perf_counter()
        while len(self.ops) < min_ops or (
                time.perf_counter() - start
                + statistics.median(op["wall_s"] for op in self.ops) <= seconds):
            self.run_op(len(self.ops))
        scaled, per_copy, problems = self.scaled_error()
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s": (statistics.median(op["wall_s"] for op in self.ops), "s"),
            "cpu_s": (statistics.median(op["cpu_s"] for op in self.ops), "s"),
            "peak_rss_mb": (max(op["maxrss_mb"] for op in self.ops), "MB"),
            "scaled_error": (scaled, "ratio"),
        }
        extra = {"setups": len(setup_times), "scaled_error_per_copy": per_copy}
        return metrics, problems, extra

    def traced(self):
        """One traced op between two untraced ones, plus import probes."""
        self.setup_all(1)
        before = self.run_op(0)
        traced = self.run_op(1, traced=True)
        after = self.run_op(2)
        probes = [run_proc([sys.executable, "-c",
                            "import time; t = time.perf_counter(); "
                            "import fixnet.cli; print(time.perf_counter() - t)"],
                           self.work, os.path.join(self.work, f"import{i}"))
                  for i in range(IMPORT_PROBES)]
        problems = [f"import probe failed: {p.stderr.strip()[-300:]}"
                    for p in probes if p.returncode != 0]
        import tracer
        layers, span_files = tracer.summarize(os.path.join(self.work, "trace"))
        metrics = {name: (value, metric_unit(name)) for name, value in layers.items()}
        plain = (before, after)
        metrics["proc.import_s"] = (None if problems else statistics.median(
            float(p.stdout) for p in probes), "s")
        metrics["proc.sys_s"] = (statistics.mean(op["sys_s"] for op in plain), "s")
        metrics["proc.minflt"] = (statistics.mean(op["minflt"] for op in plain), "count")
        metrics["trace.overhead_s"] = (
            traced["wall_s"] - statistics.mean(op["wall_s"] for op in plain), "s")
        extra = {"span_files": span_files,
                 "trace_dir": os.path.relpath(os.path.join(self.work, "trace"), ROOT),
                 "zero_metrics": sorted(
                     name for name, (value, _) in metrics.items() if value == 0)}
        return metrics, problems, extra


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_reuse")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so run_proc kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "fixnet", "cli.py")):
        print(f"error: no fixnet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run = Run(args.workload, args.seed, args.trace)
    if args.trace:
        metrics, problems, extra = run.traced()
    else:
        metrics, problems, extra = run.end_to_end(args.seconds)
    failed = sum(op["error"] is not None for op in run.ops)
    problems += run.problems
    problems += [f"op {op['index']}: {op['error']}" for op in run.ops if op["error"]]
    if run.pins_skipped:
        extra["pins_skipped"] = run.pins_skipped
    result = {
        "correct": not problems,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": run.env, "ops": run.ops,
              "problems": problems, "error_rate": failed / len(run.ops),
              **extra, **result}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record_path = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    write_json(record_path, record)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(run.ops)} ops, {failed} failed, error_rate "
          f"{failed / len(run.ops):g}")
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown} {unit}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  environment: {json.dumps(run.env, sort_keys=True)}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
