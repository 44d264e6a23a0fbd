"""Span tracer for one fixnet CLI operation, installed from outside the package.

Run as a script, it wraps the fixnet functions listed in ``install`` and
then calls ``fixnet.cli.main`` with the remaining arguments, in this
process:

    python3 perfbench/tracer.py TRACE_DIR -- fit --input train.csv ...

Each wrapper records one span (name, start, end, parent span) per call plus
counts taken from the call's arguments and result.  Wrappers are installed
on the module attributes that callers look up at call time; a name that a
module bound with ``from ... import`` is patched in that module as well.
Spans stay in memory and are written to ``TRACE_DIR/spans-<pid>-<n>.npz``
when the process ends.  Pool workers forked by ``fixnet.estimators`` start
with an empty recorder and write their own file when they exit.

``summarize(TRACE_DIR)`` turns all span files of one operation into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import glob
import math
import multiprocessing
import multiprocessing.util
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Recorder:
    """Spans and counts of one process, kept in flat arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.ids = array("i")
        self.parents = array("i")
        self.stack = [-1]
        self.counts = Counter()
        self._dumps = 0

    def reset(self):
        """Drop everything recorded so far (used in a freshly forked worker)."""
        for arr in (self.starts, self.ends, self.ids, self.parents):
            del arr[:]
        del self.stack[1:]
        self.counts.clear()

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span called name.

        after(counts, args, result, exc) runs once the call returns or
        raises, so counts can be taken from the arguments and the result.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        starts, ends, ids, parents = self.starts, self.ends, self.ids, self.parents
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            ids.append(nid)
            ends.append(math.nan)
            stack.append(idx)
            result = exc = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                counts["raised:" + name] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if after is not None:
                    after(counts, args, result, exc)

        return traced

    def dump(self, trace_dir):
        """Write this process's spans and counts to trace_dir."""
        self._dumps += 1
        path = os.path.join(trace_dir, f"spans-{os.getpid()}-{self._dumps}.npz")
        keys = sorted(self.counts)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            name=np.frombuffer(self.ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            count_keys=np.array(keys, dtype=str),
            count_values=np.array([float(self.counts[k]) for k in keys]),
        )

    def start_worker(self, trace_dir):
        """Pool-worker initializer: forget the parent's spans, dump at exit."""
        self.reset()
        multiprocessing.util.Finalize(None, self.dump, args=(trace_dir,),
                                      exitpriority=10)


# ---------------------------------------------------------------------------
# count hooks: after(counts, args, result, exc)
# ---------------------------------------------------------------------------

def _count_len(key):
    def after(counts, args, result, exc):
        if exc is None:
            counts[key] += len(result)
    return after


def _count_size(key):
    def after(counts, args, result, exc):
        if exc is None:
            counts[key] += np.size(result)
    return after


def _after_design(counts, args, result, exc):
    if exc is None:
        counts["ridge.design_entries"] += result.values.size


def _after_solve(counts, args, result, exc):
    if exc is None:
        design = args[0]
        n, width = np.shape(getattr(design, "values", design))
        counts["ridge.solve_dual"] += width > n


def _after_fit(counts, args, result, exc):
    trials = getattr(args[1], "trials", None)
    if trials is None:  # fit_smooth: one design, no direction trials
        return
    counts["estimators.trials"] += trials
    if exc is not None:
        counts["estimators.trials_failed"] += trials
    else:
        counts["estimators.trials_failed"] += sum(
            1 for s in result.selection_trace if math.isinf(s))


def _after_scaled_errors(counts, args, result, exc):
    if exc is None:
        counts["simbench.rep_failures"] += result[1]


def _after_load_rows(counts, args, result, exc):
    if exc is None:  # a Dataset from load_xy_csv, an array from load_x_csv
        counts["data.rows"] += np.shape(getattr(result, "x", result))[0]


def _after_draw(counts, args, result, exc):
    counts["rng.draws"] += int(args[1])


def install(rec, trace_dir):
    """Wrap the fixnet layer boundaries in spans recorded by rec."""
    from fixnet import (baselines, cli, data, estimators, features, netblocks,
                        ridge, rng, simbench)

    def patch(owners, attr, name, after=None):
        for owner in owners:
            setattr(owner, attr, rec.wrap(name, getattr(owner, attr), after))

    count_descriptors = _count_len("features.descriptors")
    patch([features], "enumerate_features_pp", "features.enumerate", count_descriptors)
    patch([features], "enumerate_features_cube", "features.enumerate", count_descriptors)
    patch([features], "leaf_specs", "features.leaf_specs", _count_len("features.leaf_refs"))
    patch([features], "eval_leaf", "features.eval_leaf", _count_size("features.leaf_elems"))
    patch([features], "fold_product_tree", "features.fold")
    patch([features], "_fold_product_tree", "features.fold")
    patch([netblocks], "f_mult", "netblocks.f_mult", _count_size("netblocks.f_mult_elems"))
    patch([netblocks], "f_id", "netblocks.f_id")
    patch([ridge], "build_design_matrix", "ridge.design", _after_design)
    patch([ridge], "ridge_solve", "ridge.solve", _after_solve)
    patch([estimators, cli, simbench], "fit_pp", "estimators.fit", _after_fit)
    patch([estimators, cli, simbench], "fit_smooth", "estimators.fit", _after_fit)
    patch([estimators, cli], "predict", "estimators.predict")
    patch([estimators, cli], "load_estimator", "estimators.load")
    patch([estimators, cli], "save_estimator", "estimators.save")
    for fitter in ("constant_avg", "fit_kernel_selected", "fit_neighbor_selected",
                   "fit_rbf_selected"):
        patch([baselines], fitter, "baselines.fit")
    patch([baselines], "select_by_split", "baselines.select")
    patch([baselines.ConstantPredictor, baselines.KernelPredictor,
           baselines.NeighborPredictor, baselines.RbfPredictor],
          "__call__", "baselines.predict")
    patch([simbench], "reference_error", "simbench.reference")
    patch([simbench], "generate", "simbench.generate")
    patch([simbench], "eval_target", "simbench.eval_target")
    patch([simbench], "scaled_errors", "simbench.scaled_errors", _after_scaled_errors)
    patch([simbench.BenchmarkReport], "to_csv_text", "simbench.report")
    patch([simbench.BenchmarkReport], "to_markdown_text", "simbench.report")
    patch([rng.Stream], "_raw", "rng.draw", _after_draw)
    patch([data, cli], "load_xy_csv", "data.load", _after_load_rows)
    patch([data, cli], "load_x_csv", "data.load", _after_load_rows)

    # Worker spans are collected only where workers are forked from this
    # process, so that they inherit the wrappers installed above.
    forked = multiprocessing.get_start_method() == "fork"
    base_pool = estimators.ProcessPoolExecutor

    class TracedPool(base_pool):
        def __init__(self, *args, **kwargs):
            rec.counts["estimators.pool_starts"] += 1
            if forked and "initializer" not in kwargs:
                kwargs["initializer"] = rec.start_worker
                kwargs["initargs"] = (trace_dir,)
            super().__init__(*args, **kwargs)

    estimators.ProcessPoolExecutor = TracedPool
    return cli


# ---------------------------------------------------------------------------
# per-layer metrics from span files
# ---------------------------------------------------------------------------

def _load(path):
    with np.load(path) as doc:
        names = [str(s) for s in doc["names"]]
        ids = doc["name"].astype(np.int64)
        parent = doc["parent"].astype(np.int64)
        dur = doc["end"] - doc["start"]
        counts = {str(k): float(v) for k, v in
                  zip(doc["count_keys"], doc["count_values"])}
    return names, ids, parent, dur, counts


def summarize(trace_dir):
    """Aggregate every span file in trace_dir into per-layer totals.

    Returns (layer metrics, processes seen).  Self time of a span is its
    duration minus the durations of its direct child spans.  No wrapped
    name is ever nested inside itself, so summing durations per name
    gives inclusive time without double counting.
    """
    total, self_time, calls = Counter(), Counter(), Counter()
    counts = Counter()
    design_in_predict = 0
    files = sorted(glob.glob(os.path.join(trace_dir, "spans-*.npz")))
    for path in files:
        names, ids, parent, dur, file_counts = _load(path)
        counts.update(file_counts)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        for nid, name in enumerate(names):
            mask = ids == nid
            calls[name] += int(mask.sum())
            total[name] += float(dur[mask].sum())
            self_time[name] += float(own[mask].sum())
        if "estimators.predict" in names and "ridge.design" in names:
            pred_id = names.index("estimators.predict")
            design = ids == names.index("ridge.design")
            design_in_predict += int(np.sum(
                design & has_parent & (ids[np.maximum(parent, 0)] == pred_id)))

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "features.enumerate_s": total["features.enumerate"],
        "features.descriptors": counts["features.descriptors"],
        "features.leaf_specs_s": total["features.leaf_specs"],
        "features.leaf_specs_calls": calls["features.leaf_specs"],
        "features.eval_leaf_s": total["features.eval_leaf"],
        "features.eval_leaf_calls": calls["features.eval_leaf"],
        "features.leaf_elems": counts["features.leaf_elems"],
        "features.leaf_reuse": ratio(counts["features.leaf_refs"],
                                     calls["features.eval_leaf"]),
        "features.fold_s": total["features.fold"],
        "features.fold_calls": calls["features.fold"],
        "netblocks.f_mult_s": total["netblocks.f_mult"],
        "netblocks.f_mult_calls": calls["netblocks.f_mult"],
        "netblocks.f_mult_elems": counts["netblocks.f_mult_elems"],
        "netblocks.f_id_calls": calls["netblocks.f_id"],
        "ridge.design_self_s": self_time["ridge.design"],
        "ridge.design_calls": calls["ridge.design"],
        "ridge.design_entries": counts["ridge.design_entries"],
        "ridge.solve_s": total["ridge.solve"],
        "ridge.solve_calls": calls["ridge.solve"],
        "ridge.solve_dual_share": ratio(counts["ridge.solve_dual"],
                                        calls["ridge.solve"]),
        "ridge.solve_failures": counts["raised:ridge.solve"],
        "estimators.fit_self_s": self_time["estimators.fit"],
        "estimators.trials": counts["estimators.trials"],
        "estimators.trials_failed": counts["estimators.trials_failed"],
        "estimators.predict_self_s": self_time["estimators.predict"],
        "estimators.predict_chunks": design_in_predict,
        "estimators.load_s": total["estimators.load"],
        "estimators.save_s": total["estimators.save"],
        "estimators.pool_starts": counts["estimators.pool_starts"],
        "baselines.fit_s": total["baselines.fit"],
        "baselines.predict_s": total["baselines.predict"],
        "baselines.select_calls": calls["baselines.select"],
        "simbench.reference_s": total["simbench.reference"],
        "simbench.generate_s": total["simbench.generate"],
        "simbench.eval_target_s": total["simbench.eval_target"],
        "simbench.rep_failures": counts["simbench.rep_failures"],
        "simbench.report_s": total["simbench.report"],
        "rng.draws": counts["rng.draws"],
        "rng.draw_s": total["rng.draw"],
        "data.load_s": total["data.load"],
        "data.rows": counts["data.rows"],
        "cli.self_s": self_time["cli.main"],
    }
    return metrics, len(files)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_DIR -- <fixnet cli arguments>",
              file=sys.stderr)
        return 2
    trace_dir, cli_args = argv[0], argv[2:]
    rec = Recorder()
    cli = install(rec, trace_dir)
    try:
        return rec.wrap("cli.main", cli.main)(cli_args)
    finally:
        rec.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
