"""Run the benchmark over workloads and seeds, and summarize every metric.

    python3 perfbench/report.py [--workloads pp_fit,bench_m2] [--seeds 0,1,2]
                                [--seconds 20] [--trace 0]

Each (workload, seed) is one `perfbench/run.py` process.  The summary gives,
per workload and metric, the median over seeds, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json; and the
error rate, failed over attempted operations of all runs.  Exits 1 if any
run is not correct or fails to report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values, units = {}, {}
        attempted = failed = 0
        for seed in (int(s) for s in args.seeds.split(",")):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(f"{workload} seed {seed}: no result (exit {proc.returncode})\n"
                      f"{proc.stderr[-2000:]}")
                ok = False
                continue
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            shown = []
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
                shown.append(f"{name}={metric['value']:.6g}"
                             if metric["value"] is not None else f"{name}=n/a")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"ops={result['attempted']} failed={result['failed']} "
                  f"run={wall:.1f}s " + " ".join(shown), flush=True)
        print(f"{workload}: error_rate {failed / attempted if attempted else 1:g} "
              f"({failed} of {attempted} ops)")
        for name, series in values.items():
            series = [v for v in series if v is not None]
            if not series:
                continue
            median = statistics.median(series)
            line = f"  {name:28s} median {median:.6g} {units[name]}"
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
                line += f"  q1 {q1:.6g}  q3 {q3:.6g}"
                if median:
                    line += f"  spread {(q3 - q1) / median:.4f}"
            if name in bounds:
                line += f"  bound {bounds[name]}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
