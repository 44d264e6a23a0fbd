"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import dataclasses
import functools
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixnet import _kernel, cli, ridge
from fixnet.data import Dataset
from fixnet.estimators import (PPConfig, fit_pp, load_estimator, predict,
                               save_estimator)
from fixnet.features import count_features_pp, eval_feature
from fixnet.cli import block_check_rows, build_parser, main, run_approx_check
from fixnet.rng import Stream
from fixnet.simbench import BenchConfig, RateConfig


def _write_training_csv(path, n=16, seed=0):
    stream = Stream(seed)
    x = stream.uniform_matrix(n, 2, low=-1.0, high=1.0)
    y = x[:, 0] + 0.5 * x[:, 1] + 0.02 * stream.normals(n)
    lines = ["x1,x2,y"]
    lines.extend(f"{a:.17g},{b:.17g},{c:.17g}" for (a, b), c in zip(x, y))
    path.write_text("\n".join(lines) + "\n")
    return x, y


def _write_query_csv(path, rows):
    lines = [",".join(f"x{j + 1}" for j in range(len(rows[0])))]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_config(path, doc):
    doc = {"schema": 1, **doc}
    path.write_text(json.dumps(doc))
    return str(path)


FAST_FIT = {"r": 1, "N": 1, "M": 2, "R": 1e5, "trials": 3}


def test_fit_then_predict_round_trip(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    model = tmp_path / "model.json"
    config = _write_config(tmp_path / "fit.json", FAST_FIT)

    code = main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model), "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coefficient bound audit: pass" in out
    assert "features: 9" in out
    assert model.exists()

    queries = [(0.1, -0.2), (0.1, -0.2), (0.5, 0.5)]
    query_csv = tmp_path / "query.csv"
    _write_query_csv(query_csv, queries)
    pred_csv = tmp_path / "pred.csv"
    code = main(["predict", "--model", str(model), "--input", str(query_csv),
                 "--output", str(pred_csv)])
    assert code == 0
    lines = pred_csv.read_text().strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert any("# seed: 1" == ln for ln in header)
    assert body[0] == "prediction"
    values = [float(v) for v in body[1:]]
    assert len(values) == 3
    # Identical input rows give byte-identical predictions.
    assert body[1] == body[2]
    # Fitted on a near-linear target, the model must track it roughly.
    assert values[0] == pytest.approx(0.1 - 0.1, abs=0.35)


@pytest.mark.parametrize("flags, written", [
    (["--model", "m.json"], "m.json"),
    (["--output", "o.json", "--model", "o.json"], "o.json"),
    ([], "model.json"),
])
def test_fit_writes_the_model_where_asked(tmp_path, monkeypatch, capsys,
                                          flags, written):
    _write_training_csv(tmp_path / "train.csv")
    config = _write_config(tmp_path / "fit.json", FAST_FIT)
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "--config", config, "--input", "train.csv",
                 *flags]) == 0
    assert f"model written to {written}" in capsys.readouterr().out
    assert [p.name for p in tmp_path.glob("*.json")
            if p.name != "fit.json"] == [written]


def test_fit_rejects_conflicting_model_paths(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    out, model = tmp_path / "o.json", tmp_path / "m.json"
    code = main(["fit", "--input", str(train), "--output", str(out),
                 "--model", str(model)])
    assert code == 2
    assert "two different model paths" in capsys.readouterr().err
    assert not out.exists() and not model.exists()


def test_fit_exits_2_when_the_coefficient_audit_fails(tmp_path, monkeypatch,
                                                      capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    model = tmp_path / "model.json"
    config = _write_config(tmp_path / "fit.json", FAST_FIT)
    monkeypatch.setattr(ridge, "coefficient_bound_audit", lambda s, y: False)
    code = main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)])
    assert code == 2
    assert "coefficient bound audit failed" in capsys.readouterr().err
    assert not model.exists()


def test_predict_empty_input(tmp_path, capsys):
    # A (0, d) batch gives no predictions, through the library call (whose
    # design matrix is (0, J)) and through the command, which has no
    # special case for it.
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    model = tmp_path / "model.json"
    config = _write_config(tmp_path / "fit.json", FAST_FIT)
    assert main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)]) == 0
    capsys.readouterr()
    est = load_estimator(str(model))
    none = np.empty((0, 2))
    design = ridge.build_design_matrix(est.features, none)
    got = predict(est, none)
    assert design.values.shape == (0, est.width)
    assert isinstance(got, np.ndarray) and got.shape == (0,)

    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2\n")
    out_csv = tmp_path / "out.csv"
    assert main(["predict", "--model", str(model), "--input", str(empty),
                 "--output", str(out_csv)]) == 0
    assert "0 predictions" in capsys.readouterr().out
    body = [ln for ln in out_csv.read_text().strip().split("\n")
            if not ln.startswith("#")]
    assert body == ["prediction"]


def test_predict_dimension_mismatch(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    model = tmp_path / "model.json"
    config = _write_config(tmp_path / "fit.json", FAST_FIT)
    assert main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.csv"
    bad.write_text("x1\n0.5\n")
    code = main(["predict", "--model", str(model), "--input", str(bad),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert "expects d=2" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    ({"beta": "-3"}, "beta must be positive"),
    ({"beta": "nan"}, "beta must be positive"),
    ({"coefficients": ["nan"]}, "coefficients must be finite"),
    ({"M": 2000, "coefficients": ["1"]}, "does not match feature count"),
    ({"selection_trace": 5}, "selection_trace must be null or a list"),
    ({"seed": "x"}, "seed must be null or an integer"),
])
def test_predict_rejects_invalid_model_documents(tmp_path, capsys, edit, message):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    model = tmp_path / "model.json"
    config = _write_config(tmp_path / "fit.json", FAST_FIT)
    assert main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)]) == 0
    doc = json.loads(model.read_text())
    if edit.get("coefficients") == ["nan"]:
        edit = {"coefficients": ["nan"] + doc["coefficients"][1:]}
    model.write_text(json.dumps({**doc, **edit}))
    query = tmp_path / "query.csv"
    _write_query_csv(query, [(0.1, -0.2)])
    out_csv = tmp_path / "out.csv"
    capsys.readouterr()
    code = main(["predict", "--model", str(model), "--input", str(query),
                 "--output", str(out_csv)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_csv.exists()


def _fit_and_predict(tmp_path, config, rows, edit=None):
    """Fit on tmp_path/train.csv, apply edit to the model document and
    predict rows; returns the loaded model and the command's predictions."""
    model = tmp_path / "model.json"
    code, err = _run_main(["fit", "--config",
                           _write_config(tmp_path / "fit.json", config),
                           "--input", str(tmp_path / "train.csv"),
                           "--output", str(model)])
    assert code == 0, err
    if edit:
        model.write_text(json.dumps({**json.loads(model.read_text()), **edit}))
    query = tmp_path / "query.csv"
    d = len(rows[0])
    query.write_text(",".join(f"x{i + 1}" for i in range(d)) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows))
    out = tmp_path / "pred.csv"
    code, err = _run_main(["predict", "--model", str(model), "--input",
                           str(query), "--output", str(out)])
    assert code == 0, err
    return load_estimator(str(model)), _prediction_values(out)


def _prediction_values(path):
    """The values of a predictions CSV, below its comments and header."""
    body = [ln for ln in path.read_text().split("\n")[:-1]
            if not ln.startswith("#")]
    return np.array([float(v) for v in body[1:]])


# Each of the next three models predicted NaN with exit 0 when predict
# evaluated queries as they are: netblocks.f_mult's expm1 overflowed, and
# the clip to [-beta, beta] kept the NaN.

def test_predict_clamps_a_far_query_to_the_model_cube(tmp_path):
    _write_training_csv(tmp_path / "train.csv", n=40)
    est, values = _fit_and_predict(
        tmp_path, {"r": 1, "N": 1, "M": 2, "trials": 2},
        [(1e10, 0.0), (-1e10, 0.0), (0.1, -0.2)])
    assert np.all(np.isfinite(values)), values
    assert np.all(np.abs(values) <= est.beta)
    # A far query is predicted at its clamped point, with a warning that
    # names queries; a query inside the cube is evaluated as it is.
    with pytest.warns(RuntimeWarning, match=r"predict: queries outside "
                      r"\[-1, 1\]\^d were clamped"):
        far = predict(est, np.array([1e10, 0.0]))
    assert far == predict(est, np.array([1.0, 0.0]))
    inside = np.array([[0.1, -0.2], [1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = predict(est, inside)
    raw = ridge.build_design_matrix(est.features, inside).values @ est.coefficients
    assert np.array_equal(got, np.clip(raw, -est.beta, est.beta))


def test_predict_of_a_one_row_fit_with_a_tiny_amplitude_is_finite(tmp_path):
    (tmp_path / "train.csv").write_text("x1,y\n-1.0,-1.0\n")
    _, values = _fit_and_predict(tmp_path, {"A": 1e-300}, [(-0.2,)])
    assert np.all(np.isfinite(values)), values


def test_predict_with_a_tiny_domain_half_is_finite(tmp_path):
    _write_training_csv(tmp_path / "train.csv")
    side = np.linspace(-1.0, 1.0, 9).tolist()
    _, values = _fit_and_predict(tmp_path, FAST_FIT, list(zip(side, side)),
                                 edit={"domain_half": "1e-300"})
    assert values.shape == (9,) and np.all(np.isfinite(values)), values


def test_predictions_are_written_with_the_bytes_of_numpy_floats(
        tmp_path, monkeypatch):
    # predict formats the Python floats of its predictions, which give
    # the bytes np.float64 gives, on signed zeros, subnormals and the
    # ends of the float range among them.
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      -2.225073858507201e-308, 1e308, -1e308,
                      1.7976931348623157e308, 0.1, -1.0 / 3.0, 123456789.0])
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    model = tmp_path / "model.json"
    assert main(["fit", "--config", _write_config(tmp_path / "fit.json",
                                                  FAST_FIT),
                 "--input", str(train), "--output", str(model)]) == 0
    query = tmp_path / "query.csv"
    _write_query_csv(query, [(0.1, -0.2)] * len(edges))
    monkeypatch.setattr(cli, "predict", lambda est, x: edges.copy())
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model), "--input", str(query),
                 "--output", str(out)]) == 0
    body = [ln for ln in out.read_text().split("\n")[:-1]
            if not ln.startswith("#")]
    assert body[1:] == [format(np.float64(v), ".17g") for v in edges]
    assert body[2] == "-0" and body[3] == "4.9406564584124654e-324"


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_predict_refuses_non_finite_queries(tmp_path, capsys, cell):
    # The clamp would turn an infinite coordinate into a finite one, so
    # predict checks finiteness before it.
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    model = tmp_path / "model.json"
    config = _write_config(tmp_path / "fit.json", FAST_FIT)
    assert main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)]) == 0
    query = tmp_path / "query.csv"
    query.write_text(f"x1,x2\n0.1,-0.2\n{cell},0.5\n")
    out_csv = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--input", str(query),
                 "--output", str(out_csv)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("doc", [
    {"estimator": "projection", "r": 1, "N": 1, "M": 2, "trials": 2},
    {"estimator": "smooth", "N": 1, "M": 1},
], ids=["projection", "smooth"])
def test_fit_refuses_non_finite_inputs(tmp_path, capsys, doc, cell):
    # As in predict, the clamp would turn inf into the cube's edge.
    train = tmp_path / "train.csv"
    train.write_text("x1,x2,y\n0.1,-0.2,1\n0.3,0.4,2\n"
                     f"{cell},0.5,3\n-0.6,0.7,4\n")
    model = tmp_path / "model.json"
    config = _write_config(tmp_path / "fit.json", doc)
    assert main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)]) == 2
    assert "non-finite values" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("kind, key, h", [("projection", "A", 3e4),
                                         ("smooth", "a", 1e4)])
def test_a_half_width_beyond_the_scale_is_refused(tmp_path, kind, key, h):
    # Monomial partial products reach about (2h)^N, and beyond R a product
    # block's expm1 overflows: with N = 2 and R = 1e6, a model of either
    # half width would predict NaN at its cube's corners.  fit refuses
    # (2h)^N > R; at 0.99 of that bound the corners are finite.
    _write_training_csv(tmp_path / "train.csv")
    config = {"estimator": kind, "r": 1, "N": 2, "M": 2, "R": 1e6,
              "trials": 2}
    model = tmp_path / "model.json"
    code, err = _run_main(["fit", "--config",
                           _write_config(tmp_path / "fit.json",
                                         {**config, key: h}),
                           "--input", str(tmp_path / "train.csv"),
                           "--output", str(model)])
    assert code == 2 and not model.exists(), err
    assert f"half width {key}={h:g}" in err
    assert "N=2" in err and "R=1e+06" in err
    h = 0.99 * math.sqrt(1e6) / 2.0
    est, values = _fit_and_predict(tmp_path, {**config, key: h},
                                   [(-h, -h), (-h, h), (h, -h), (h, h)])
    assert np.all(np.isfinite(values)) and np.all(np.abs(values) <= est.beta)


def _python_env(**env_edit):
    """The environment of a fresh python with src/ on its path; env_edit
    sets environment variables, and a None value unsets one."""
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    for key, value in env_edit.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _run_python(code, *args, **env_edit):
    """python -c code in a fresh process (see _python_env)."""
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=_python_env(**env_edit), capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("imports, given, seen", [
    ("fixnet", None, "4"),
    ("fixnet", "12", "12"),
    ("numpy, fixnet", None, "None"),
], ids=["set", "caller-wins", "numpy-first"])
def test_importing_fixnet_lets_idle_openblas_workers_sleep(imports, given,
                                                           seen):
    # OpenBLAS reads the variable when numpy loads it, so only a process
    # that imports fixnet first gets it, and a caller's value stays.
    proc = _run_python(f"import os, {imports}; "
                       "print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))",
                       OPENBLAS_THREAD_TIMEOUT=given)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == seen


def test_the_idle_timeout_moves_no_bit_of_a_threaded_fit(tmp_path):
    # 100 rows and J = 108 features take the dual path, whose 100 x 100
    # Gram OpenBLAS's dsyrk splits between threads on a multi-core host.
    # Whether idle workers sleep or spin (28, OpenBLAS's default) between
    # calls does not change the split, so the model bytes stay the same.
    _write_training_csv(tmp_path / "train.csv", n=100)
    config = _write_config(tmp_path / "fit.json",
                           {"r": 2, "N": 2, "M": 8, "trials": 3})
    models = []
    for timeout in (None, "28"):
        model = tmp_path / f"model-{timeout}.json"
        proc = _run_python("import sys; from fixnet.cli import main; "
                           "sys.exit(main(sys.argv[1:]))",
                           "fit", "--config", config,
                           "--input", str(tmp_path / "train.csv"),
                           "--output", str(model),
                           OPENBLAS_THREAD_TIMEOUT=timeout)
        assert proc.returncode == 0, proc.stderr
        assert "features: 108" in proc.stdout
        models.append(model.read_bytes())
    assert models[0] == models[1]


# cli.main in a process limited to 1 GiB of address space, so a fit that
# tries to allocate a design of several GiB fails with MemoryError
# instead of taking the machine's memory.
_MAIN_UNDER_1_GIB = ("import resource, sys; "
                     "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                     "from fixnet.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("config, n, J", [
    # A 40 x 8,654,406 design is 2.58 GiB.
    ({"estimator": "smooth", "N": 2, "M": 1200}, 40, 1201**2 * 6),
    # The trials budget admits one trial of a 100 x 2,400,000 design,
    # 1.79 GiB.
    ({"r": 4, "N": 2, "M": 99_999, "trials": 1}, 100, 4 * 100_000 * 6),
], ids=["smooth", "projection"])
def test_a_fit_whose_design_exceeds_the_budget_exits_2(tmp_path, config, n, J):
    # n * J > 2^24 entries is refused before any feature is built.
    _write_training_csv(tmp_path / "train.csv", n=n)
    model = tmp_path / "model.json"
    proc = _run_python(_MAIN_UNDER_1_GIB, "fit", "--config",
                       _write_config(tmp_path / "fit.json", config),
                       "--input", str(tmp_path / "train.csv"),
                       "--output", str(model))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and not model.exists()
    assert (f"design of n={n} rows x J={J} features exceeds the supported "
            f"maximum 16777216 entries") in proc.stderr


@pytest.mark.parametrize("key", ["eval_n", "n"])
def test_a_bench_sample_above_the_budget_exits_2(tmp_path, key):
    # The first sample drawn, 1e9 rows of m2's d = 4 inputs, alone would
    # be 29.8 GiB; the config is refused before any draw.
    out = tmp_path / "out"
    proc = _run_python(_MAIN_UNDER_1_GIB, "bench", "--quick", "--config",
                       _write_config(tmp_path / "c.json", {key: 1e9}),
                       "--output", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()
    assert proc.stderr == (f"error: sample of {key}=1000000000 rows x d=6 "
                           "exceeds the supported maximum 16777216 entries; "
                           f"lower {key}\n")


def test_a_bench_whose_rbf_distances_exceed_the_budget_exits_2(tmp_path):
    # 100,000 rows of m2 pass the sample rule, but the rbf baseline's
    # 80,000 x 80,000 distances alone would be 47.7 GiB; the config is
    # refused before any draw.
    out = tmp_path / "out"
    config = {"targets": ["m2"], "noises": [0.05], "methods": ["rbf"],
              "n": 100_000, "eval_n": 10, "reps": 1, "ref_realizations": 1}
    proc = _run_python(_MAIN_UNDER_1_GIB, "bench", "--config",
                       _write_config(tmp_path / "c.json", config),
                       "--output", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()
    assert proc.stderr == ("error: the rbf baseline's distances of 80000 rows "
                           "x 80000 learning rows exceed the supported "
                           "maximum 16777216 entries; lower n\n")


# cli.main's growth in resident memory past its imports: VmHWM at exit
# minus VmRSS after importing fixnet.cli.  Both are the process's own
# (ru_maxrss of a child would count its parent's size before exec).
_MAIN_RSS_GROWTH = """
import sys
def status(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024
from fixnet.cli import main
base = status("VmRSS")
code = main(sys.argv[1:])
print(code, status("VmHWM") - base)
"""


def _main_rss_growth(*argv):
    """cli.main(argv)'s resident growth in a fresh process, in bytes,
    after checking that the command succeeded."""
    proc = _run_python(_MAIN_RSS_GROWTH, *argv)
    assert proc.returncode == 0, proc.stderr
    code, growth = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    return growth


_READS_PROC_STATUS = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="reads VmRSS and VmHWM from /proc/self/status")


@_READS_PROC_STATUS
def test_a_smooth_fit_holds_its_design_and_one_system(tmp_path):
    # perfbench's smooth_fit shape: 4,000 rows of d = 4 inputs, a cube
    # design of J = 1,215 features (38.9 MB) and a 1,215^2 system
    # (11.8 MB), solved in place.  A second copy of the system breaks
    # the bound, which leaves 8 MiB for imports, buffers and the model.
    n, J = 4000, 1215
    x = Stream(24).uniform_matrix(n, 4, low=-1.0, high=1.0)
    y = np.sin(x).sum(axis=1)
    train = tmp_path / "train.csv"
    train.write_text("x1,x2,x3,x4,y\n" + "".join(
        ",".join(f"{v:.17g}" for v in (*row, target)) + "\n"
        for row, target in zip(x, y)))
    growth = _main_rss_growth(
        "fit", "--config", _write_config(tmp_path / "fit.json",
                                         {"estimator": "smooth", "N": 2,
                                          "M": 2}),
        "--input", str(train), "--output", str(tmp_path / "model.json"))
    assert growth < n * J * 8 + 1.5 * J * J * 8 + 2**23, growth


@_READS_PROC_STATUS
def test_predict_holds_one_design_block(tmp_path):
    # perfbench's pp_predict shape: 20,000 queries of a J = 1,904
    # projection model (d = 6, r = 4, N = 2, M = 16).  predict builds its
    # design in blocks of 1,088 rows (15.8 MiB).  The bound is one 16 MiB
    # block and 16 MiB for the parsed queries, the output lines and the
    # feature build's buffers, which take about 9 MiB; a second block
    # held at once breaks it, as does a design of 2^24 entries (128 MiB).
    d, J = 6, 1904
    stream = Stream(25)
    x = stream.uniform_matrix(100, d, low=-1.0, high=1.0)
    est = fit_pp(Dataset(x, np.sin(x).sum(axis=1)),
                 PPConfig(r=4, N=2, M=16, trials=1))
    assert est.width == J
    model = tmp_path / "model.json"
    save_estimator(est, model)
    queries = tmp_path / "queries.csv"
    _write_query_csv(queries, stream.uniform_matrix(20_000, d, low=-1.0,
                                                    high=1.0))
    growth = _main_rss_growth("predict", "--model", str(model), "--input",
                              str(queries), "--output",
                              str(tmp_path / "pred.csv"))
    assert growth < 2**21 * 8 + 2**24, growth


def test_importing_the_cli_does_not_load_scipy():
    proc = _run_python("import sys, fixnet.cli; "
                       "sys.exit(1 if 'scipy' in sys.modules else 0)")
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


def _fit_runs(tmp_path):
    """argv lists of a projection fit (a primal solve: 9 features, 16
    rows) and a smooth fit (a dual one: 27 features) on one CSV."""
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    runs = []
    for name, doc in (("pp", FAST_FIT),
                      ("smooth", {"estimator": "smooth", "N": 1, "M": 2})):
        config = _write_config(tmp_path / f"{name}.json", doc)
        runs.append(["fit", "--config", config, "--input", str(train),
                     "--output", str(tmp_path / f"{name}-model.json")])
    return runs


def _tiny_bench_run(tmp_path, **overrides):
    """argv of a bench run that fits the RBF baseline over its radius
    grid and the projection estimator, with the config keys overrides
    changes; _assert_tiny_bench_report checks it."""
    bench = _write_config(tmp_path / "bench.json", {
        "targets": ["m2"], "noises": [0.05], "methods": ["rbf", "proj-neural"],
        "n": 25, "eval_n": 50, "reps": 1, "trials": 2, "ref_realizations": 1,
        "proj_m_grid": [2], **overrides})
    return ["bench", "--config", bench, "--output", str(tmp_path / "bench")]


def _assert_tiny_bench_report(tmp_path):
    report = (tmp_path / "bench" / "bench_report.csv").read_text()
    assert ",rbf," in report and ",proj-neural," in report


def test_fits_and_bench_do_not_load_scipy(tmp_path):
    # The ridge solve and the RBF baseline take their LAPACK from numpy's
    # own library.
    runs = _fit_runs(tmp_path) + [_tiny_bench_run(tmp_path)]
    proc = _run_python(
        "import json, sys; from fixnet import cli; "
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
        "sys.exit(3 if 'scipy' in sys.modules else max(codes))",
        json.dumps(runs))
    assert proc.returncode == 0, proc.stderr or "scipy was imported"
    assert (tmp_path / "smooth-model.json").exists()
    _assert_tiny_bench_report(tmp_path)


def test_fit_and_predict_load_only_what_they_run(tmp_path):
    # Only bench and rate run the benchmark and the baselines and draw
    # labelled streams (hashlib, so OpenSSL), and no command starts a
    # process pool.  A bench in the same process then loads the modules
    # it needs on first use.  The compiled kernel is built in an empty
    # cache, so building it must load none of them either.
    runs = _fit_runs(tmp_path)
    cache = tmp_path / "cache"
    query = tmp_path / "query.csv"
    _write_query_csv(query, [(0.1, -0.2), (0.5, 0.5)])
    runs.append(["predict", "--model", str(tmp_path / "pp-model.json"),
                 "--input", str(query), "--output", str(tmp_path / "pred.csv")])
    unloaded = ["fixnet.simbench", "fixnet.baselines", "concurrent.futures",
                "multiprocessing", "hashlib", "scipy"]
    proc = _run_python(
        "import json, sys; from fixnet import _kernel, cli; "
        "_kernel.CACHE_DIR = sys.argv[4]; "
        "runs, names = json.loads(sys.argv[1]), json.loads(sys.argv[2]); "
        "codes = [cli.main(argv) for argv in runs]; "
        "loaded = [m for m in names if m in sys.modules]; "
        "codes.append(cli.main(json.loads(sys.argv[3]))); "
        "print(json.dumps([codes, loaded]))",
        json.dumps(runs), json.dumps(unloaded),
        json.dumps(_tiny_bench_run(tmp_path)), str(cache))
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    assert len(list(cache.glob("*.so"))) == (shutil.which("cc") is not None)
    assert _prediction_values(tmp_path / "pred.csv").shape == (2,)
    _assert_tiny_bench_report(tmp_path)


def test_fits_write_the_same_models_without_the_compiled_kernel(
        tmp_path, monkeypatch):
    # f_mult's numpy path gives the kernel's bits, whether the loader
    # returns None or a fresh process finds no compiler (PATH emptied,
    # an empty cache).
    runs = _fit_runs(tmp_path)

    def models():
        return [Path(argv[-1]).read_bytes() for argv in runs]

    assert [main(argv) for argv in runs] == [0, 0]
    want = models()
    with monkeypatch.context() as patch:
        patch.setattr(_kernel, "library", lambda: None)
        assert [main(argv) for argv in runs] == [0, 0]
    assert models() == want
    cache = tmp_path / "cache"
    proc = _run_python(
        "import json, sys; from fixnet import _kernel, cli; "
        "_kernel.CACHE_DIR = sys.argv[1]; "
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]; "
        "sys.exit(3 if _kernel.library() is not None else max(codes))",
        str(cache), json.dumps(runs), PATH="")
    assert proc.returncode == 0, proc.stderr or "the kernel was built"
    assert models() == want
    assert list(cache.iterdir()) == []


def test_kernel_status_names_the_engine_that_runs(tmp_path):
    # With PATH emptied no compiler runs, and status() gives the reason.
    # Where the cache directory cannot be written (its parent is a
    # regular file, which stops root too), the kernel is compiled in a
    # temporary directory of the process's own, removed once loaded, and
    # the fits write the models of a normal run.
    code = ("import sys; from fixnet import _kernel; "
            "_kernel.CACHE_DIR = sys.argv[1]; "
            "print(_kernel.library() is None, _kernel.status())")
    proc = _run_python(code, str(tmp_path / "cache"), PATH="")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("True no C compiler: "), proc.stdout
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    assert _kernel.status() == "compiled"
    runs = _fit_runs(tmp_path)

    def models():
        return [Path(argv[-1]).read_bytes() for argv in runs]

    assert [main(argv) for argv in runs] == [0, 0]
    want = models()
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    private = tmp_path / "tmp"
    private.mkdir()
    proc = _run_python(
        "import json, sys; from fixnet import _kernel, cli; "
        "_kernel.CACHE_DIR = sys.argv[1]; "
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]; "
        "print(_kernel.status()); sys.exit(max(codes))",
        str(blocked / "cache"), json.dumps(runs), TMPDIR=str(private))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "compiled"
    assert models() == want
    assert list(private.iterdir()) == []


def test_concurrent_first_uses_leave_one_library(tmp_path):
    # Two cold processes compile into one empty cache at once: each
    # renames a whole library into place, and no temporary is left.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    cache = tmp_path / "cache"
    code = ("import sys; from fixnet import _kernel; "
            "_kernel.CACHE_DIR = sys.argv[1]; "
            "sys.exit(_kernel.library() is None)")
    procs = [subprocess.Popen([sys.executable, "-c", code, str(cache)],
                              env=_python_env()) for _ in range(2)]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    files = [path.name for path in cache.iterdir()]
    assert len(files) == 1 and files[0].endswith(".so"), files


def test_lazy_package_names_resolve():
    # In a fresh process, so the names are resolved on first use.
    proc = _run_python("""
import concurrent.futures, sys
import fixnet, fixnet.estimators
assert "fixnet.simbench" not in sys.modules
assert fixnet.run_benchmark is sys.modules["fixnet.simbench"].run_benchmark
assert fixnet.simbench is sys.modules["fixnet.simbench"]
assert fixnet.baselines is sys.modules["fixnet.baselines"]
names = {}
exec("from fixnet import *", names)
assert [n for n in fixnet.__all__ if n not in names] == []
assert (fixnet.estimators.ProcessPoolExecutor
        is concurrent.futures.ProcessPoolExecutor)
for module in (fixnet, fixnet.estimators):
    try:
        module.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(module)
""")
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    import fixnet

    missing = [name for name in fixnet.__all__ if not hasattr(fixnet, name)]
    assert not missing


def test_fit_reports_csv_header_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n0.1,0.2\n")
    code = main(["fit", "--input", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "y" in err


def test_fit_refuses_oversized_feature_grids(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    config = _write_config(tmp_path / "big.json", {"r": 1, "N": 1, "M": 10_000_000})
    code = main(["fit", "--config", config, "--input", str(train),
                 "--output", str(tmp_path / "m.json")])
    assert code == 2
    assert "exceeds the supported maximum" in capsys.readouterr().err


def test_fit_rejects_unknown_estimator(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    config = _write_config(tmp_path / "bad.json", {"estimator": "forest"})
    assert main(["fit", "--config", config, "--input", str(train)]) == 2
    assert "unknown estimator" in capsys.readouterr().err


def test_config_schema_is_validated(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"schema": 2}))
    assert main(["fit", "--config", str(bad), "--input", "x.csv"]) == 2
    assert "schema" in capsys.readouterr().err


def test_config_that_is_not_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text("{not json")
    assert main(["fit", "--config", str(bad), "--input", "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "not valid JSON" in err


@pytest.mark.parametrize("edit, key", [
    ({"r": "abc"}, "'r'"),
    ({"seed": "x"}, "'seed'"),
    ({"M": None}, "'M'"),
    ({"beta": [1.0]}, "'beta'"),
    ({"trials": 1e400}, "'trials'"),
    ({"estimator": "smooth", "a": "wide"}, "'a'"),
    ({"trials": 2.7}, "'trials'"),
    ({"trials": True}, "'trials'"),
    ({"N": "2"}, "'N'"),
])
def test_fit_config_values_that_do_not_convert_exit_2(tmp_path, capsys, edit, key):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    config = _write_config(tmp_path / "fit.json", {**FAST_FIT, **edit})
    model = tmp_path / "model.json"
    assert main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"config key {key}" in err
    assert not model.exists()


@pytest.mark.parametrize("edit, expected, message", [
    ({"beta": -1}, 2, "beta must be positive and finite"),
    ({"beta": 0}, 2, "beta must be positive and finite"),
    # No finite R meets the worst-case bound (scale_lower_bound is inf),
    # yet the fit runs: with N = 0 no monomial limits A.
    ({"A": 1e300, "N": 0}, 0, None),
    # The cube design is not finite.
    ({"estimator": "smooth", "N": 1, "M": 2, "a": 1e300}, 2, "error:"),
    # (2A)^N exceeds R: the features overflow inside the cube.
    ({"A": 1e300}, 2, "half width A=1e+300"),
    # A fit over the design-work budget would run for days.
    ({"trials": 1e9}, 2, "trials must be at most"),
])
def test_fit_configs_out_of_range(tmp_path, capsys, edit, expected, message):
    # A negative beta once gave a model that predict refused, and a huge
    # A or a once overflowed the worst-case scale bound with a traceback.
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    config = _write_config(tmp_path / "fit.json", {**FAST_FIT, **edit})
    model = tmp_path / "model.json"
    code = main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)])
    err = capsys.readouterr().err
    assert code == expected and "Traceback" not in err
    if code == 2:
        assert message in err and not model.exists()
        return
    query = tmp_path / "query.csv"
    _write_query_csv(query, [(0.1, -0.2)])
    assert main(["predict", "--model", str(model), "--input", str(query),
                 "--output", str(tmp_path / "out.csv")]) == 0


def test_integral_floats_are_accepted_for_integer_keys(tmp_path, capsys):
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    config = _write_config(tmp_path / "fit.json",
                           {**FAST_FIT, "M": 2.0, "trials": 2.0})
    model = tmp_path / "model.json"
    assert main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)]) == 0
    est = load_estimator(str(model))
    assert est.M == 2 and len(est.selection_trace) == 2


def test_smooth_fit_reads_only_its_own_keys(tmp_path, capsys):
    # Projection-only keys are not fields of SmoothConfig, so a smooth fit
    # ignores them, as bench and rate ignore keys they do not read.
    train = tmp_path / "train.csv"
    _write_training_csv(train)
    config = _write_config(tmp_path / "fit.json", {
        "estimator": "smooth", "N": 1, "M": 2, "r": "x", "trials": None,
        "selection": 5})
    model = tmp_path / "model.json"
    assert main(["fit", "--config", config, "--input", str(train),
                 "--output", str(model)]) == 0
    assert load_estimator(str(model)).kind == "smooth"


MINI_CONFIGS = {
    "bench": {"targets": ["m2"], "noises": [0.05], "methods": ["constant"],
              "n": 25, "eval_n": 100, "reps": 2, "ref_realizations": 2},
    "rate": {"sample_sizes": [20, 30, 40, 50], "seeds": 1, "trials": 2,
             "m_grid": [2], "eval_n": 50},
    "approx-check": {},
}


@pytest.mark.parametrize("command, edit, key", [
    ("bench", {"reps": "x"}, "reps"),
    ("rate", {"seeds": "x"}, "seeds"),
    ("bench", {"trial_overrides": [5]}, "trial_overrides"),
    ("bench", {"trial_overrides": [{"target": "m1"}]}, "trial_overrides"),
    ("bench", {"seed": "x"}, "seed"),
    ("bench", {"targets": "m2"}, "targets"),
    ("bench", {"quick": "false"}, "quick"),
    ("approx-check", {"quick": "false"}, "quick"),
    ("bench", {"reps": 2.5}, "reps"),
    ("rate", {"seeds": True}, "seeds"),
])
def test_command_config_values_that_do_not_convert_exit_2(
        tmp_path, capsys, command, edit, key):
    config = _write_config(tmp_path / "c.json",
                           {**MINI_CONFIGS[command], **edit})
    out = tmp_path / "out"
    assert main([command, "--config", config, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"config key '{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc, power", [
    # 1e9 reference realizations asked np.empty for 7.45 GiB; 1e9
    # repetitions or rate seeds ran until killed.
    ("bench", {"ref_realizations": 1e9}, "46.5"),
    ("bench", {"reps": 1e9}, "54.8"),
    ("rate", {"seeds": 1e9}, "55.7"),
], ids=["ref_realizations", "reps", "seeds"])
def test_a_run_whose_loops_exceed_the_budget_exits_2(tmp_path, command, doc,
                                                      power):
    out = tmp_path / "out"
    quick = ["--quick"] if command == "bench" else []
    proc = _run_python(_MAIN_UNDER_1_GIB, command, *quick, "--config",
                       _write_config(tmp_path / "c.json", doc),
                       "--output", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()
    assert proc.stderr.startswith(
        f"error: the run's loops come to about 2^{power} entries, above the "
        "supported maximum 2^40; lower ")


@pytest.mark.parametrize("command, doc", [
    ("bench", {"penalty": -1, "targets": ["m2"]}),
    ("rate", {"penalty": -1}),
    ("bench", {"methods": ["smooth-neural"], "degree_cap": -1}),
    ("bench", {"trial_overrides": [{"target": "m2", "noise": 0.05,
                                    "trials": 0}]}),
    # An empty direction died in the tent network with a traceback, and
    # a negative noise_sd ran to exit 0.
    ("rate", {"direction": []}),
    ("rate", {"noise_sd": -1}),
    # (2h)^N > R: a bench ran every repetition, then failed both neural
    # cells and exited 1.
    ("bench", {"domain_half": 1e300, "targets": ["m2"]}),
    ("rate", {"domain_half": 1e300}),
])
def test_bad_estimator_fields_exit_2_before_any_draw(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     doc):
    # A bench used to run every repetition of the baselines first, then
    # mark the neural cells failed and exit 1.
    def no_draw(*args):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(Stream, "_raw", no_draw)
    out = tmp_path / "out"
    quick = ["--quick"] if command == "bench" else []
    assert main([command, *quick, "--config",
                 _write_config(tmp_path / "c.json", doc),
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_a_failed_cell_is_reported_and_exits_1(tmp_path, capsys,
                                               monkeypatch):
    # The bench looks the baselines up when it runs them, so a rebound
    # module attribute is the one that runs.
    from fixnet import baselines
    from fixnet.errors import SolverError

    def singular(data, seed):
        raise SolverError("radial-basis system could not be solved")

    monkeypatch.setattr(baselines, "fit_rbf_selected", singular)
    assert main(_tiny_bench_run(tmp_path)) == 1
    assert "1 cell(s) failed" in capsys.readouterr().err
    rows = {line.split(",")[2]: line.split(",") for line in
            (tmp_path / "bench" / "bench_report.csv").read_text().splitlines()
            if not line.startswith("#")}
    # target,noise,method,status,median,iqr,reps,failures,reference
    assert rows["rbf"][3:8] == ["failed", "", "", "0", "1"]
    assert rows["proj-neural"][3] == "ok"
    md = (tmp_path / "bench" / "bench_report.md").read_text().splitlines()
    assert "| rbf | failed |" in md
    assert next(line for line in md if line.startswith("| proj-neural |")
                ).endswith(") |")


def test_a_bench_whose_smooth_grid_is_empty_fails_the_cell(tmp_path,
                                                          capsys):
    # No smooth_m_grid value has at most smooth_feature_cap features at
    # m2's d = 4, so every repetition of the smooth-neural cell raises.
    assert main(_tiny_bench_run(tmp_path, methods=["smooth-neural"],
                                smooth_feature_cap=1, reps=2)) == 1
    assert "1 cell(s) failed" in capsys.readouterr().err
    rows = [line.split(",") for line in
            (tmp_path / "bench" / "bench_report.csv").read_text().splitlines()
            if not line.startswith("#")]
    # target,noise,method,status,median,iqr,reps,failures,reference
    assert rows[1][2:8] == ["smooth-neural", "failed", "", "", "0", "2"]


@pytest.mark.parametrize("edit, key", [
    ({"eval_n": 0}, "eval_n"),
    ({"eval_n": -5}, "eval_n"),
    ({"reps": 0}, "reps"),
    ({"ref_realizations": 0}, "ref_realizations"),
])
def test_bench_counts_below_one_exit_2(tmp_path, capsys, edit, key):
    config = _write_config(tmp_path / "c.json", edit)
    out = tmp_path / "out"
    assert main(["bench", "--quick", "--config", config,
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be at least 1")
    assert not out.exists()


def test_bench_refuses_an_uncalibrated_noise_by_its_key(tmp_path, capsys):
    config = _write_config(tmp_path / "c.json", {"noises": [0.05, 0.07]})
    out = tmp_path / "out"
    assert main(["bench", "--quick", "--config", config,
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: noises: 0.07 is not")
    assert "0.0, 0.05, 0.1" in err
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ({"target": "m2", "noise": 0.07, "trials": 5},
     "error: trial_overrides: 0.07 is not a calibrated noise fraction"),
    ({"target": "m9", "noise": 0.05, "trials": 5},
     "error: trial_overrides: unknown target 'm9'"),
])
def test_bench_refuses_an_override_that_never_applies(tmp_path, capsys,
                                                      override, message):
    config = _write_config(tmp_path / "c.json", {"trial_overrides": [override]})
    out = tmp_path / "out"
    assert main(["bench", "--quick", "--config", config,
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--seed", "1"],
    ["rate", "--quick"],
    ["approx-check", "--model", "m.json"],
])
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _backticked(text):
    return re.findall(r"`([^`]+)`", text)


def test_readme_docstring_and_parser_agree_on_flags_and_keys():
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    table = {row[0]: row[1:] for row in map(_backticked, re.findall(
        r"^\| `[a-z-]+` \|.*\|$", readme, flags=re.M))}
    docstring = {name: flags.split() for name, flags in re.findall(
        r"^    ([a-z-]+) +(--.*)$", cli.__doc__, flags=re.M)}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parser = {name: [flag for a in sub._actions for flag in a.option_strings
                     if flag not in ("-h", "--help")]
              for name, sub in subparsers.choices.items()}
    assert table == docstring == parser
    assert list(parser) == ["fit", "predict", "bench", "rate", "approx-check"]

    prose = " ".join(readme.split())
    bench_keys = _backticked(re.search(r"Config keys: (.*?)\. ", prose)[1])
    rate_keys = _backticked(
        re.search(r"`rate_report\.csv`.*?; keys: (.*?)\. ", prose)[1])
    assert sorted(bench_keys) == sorted(
        ["quick"] + [f.name for f in dataclasses.fields(BenchConfig)])
    assert sorted(rate_keys) == sorted(
        f.name for f in dataclasses.fields(RateConfig))


@pytest.mark.parametrize("command, workers", [("fit", 2), ("bench", 3)])
def test_fit_and_bench_still_accept_workers(command, workers):
    args = build_parser().parse_args([command, "--workers", str(workers)])
    assert args.workers == workers


def test_missing_input_is_reported(tmp_path, capsys):
    assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, message", [
    (["fit"], None, 'fit requires --input (or "input" in the config)'),
    (["predict", "--input", "q.csv"], None,
     "predict requires --model and --input"),
    (["predict", "--model", "m.json"], None,
     "predict requires --model and --input"),
    (["bench", "--quick"], {"trial_overrides": 5},
     "config key 'trial_overrides' has an unusable value 5"),
], ids=["fit-input", "predict-model", "predict-input", "overrides-not-list"])
def test_a_command_without_what_it_needs_exits_2(tmp_path, monkeypatch,
                                                 capsys, argv, doc, message):
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        argv = [*argv, "--config", _write_config(tmp_path / "c.json", doc)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"] * (doc is not None)


def test_bench_command_mini_run_is_reproducible(tmp_path, capsys):
    config = _write_config(tmp_path / "bench.json", {
        "targets": ["m2"],
        "noises": [0.05],
        "methods": ["constant", "kernel"],
        "n": 25,
        "eval_n": 100,
        "reps": 2,
        "ref_realizations": 2,
    })
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["bench", "--config", config, "--output", str(out_a)]) == 0
    assert main(["bench", "--config", config, "--output", str(out_b)]) == 0
    stdout = capsys.readouterr().out
    assert "m2 noise=0.05 constant:" in stdout
    csv_a = (out_a / "bench_report.csv").read_bytes()
    csv_b = (out_b / "bench_report.csv").read_bytes()
    assert csv_a == csv_b
    assert (out_a / "bench_report.md").exists()
    assert b"# seed: 0" in csv_a


def test_rate_command_mini_run(tmp_path, capsys):
    config = _write_config(tmp_path / "rate.json", {
        "sample_sizes": [20, 30, 40, 50],
        "seeds": 1,
        "trials": 2,
        "m_grid": [2],
        "eval_n": 50,
    })
    out_dir = tmp_path / "rate_out"
    assert main(["rate", "--config", config, "--output", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "slope:" in stdout
    report = (out_dir / "rate_report.csv").read_text()
    assert report.startswith("# fixnet rate experiment")
    assert "n,mean_error" in report


def test_approx_check_quick_passes(tmp_path, capsys):
    table = tmp_path / "table.csv"
    code = main(["approx-check", "--quick", "--output", str(table)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in stdout
    verdicts = [ln for ln in stdout.split("\n") if ln.endswith("pass")]
    assert len(verdicts) == 15
    text = table.read_text()
    assert "check,scale,measured,bound,ok" in text


def test_block_check_rows_cover_all_blocks_and_scales():
    rows = block_check_rows(scales=(1e3,))
    assert [r["check"] for r in rows] == [
        "identity", "square", "product", "positive-part", "tent",
    ]
    assert all(r["ok"] for r in rows)
    assert all(r["measured"] <= r["bound"] for r in rows)


def test_run_approx_check_full_includes_decay():
    rows, ok = run_approx_check(full=True, scales=(1e3,))
    assert ok
    assert len(rows) == 7


def test_perfbench_tracer_wraps_existing_names(tmp_path):
    # The benchmark's tracer patches fixnet attributes by name and fails
    # before running anything when one of them has been removed.  It
    # counts descriptors as len() of what enumerate_features_* return,
    # and the benchmark checks predictions by iterating a model's
    # features through eval_feature.
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    tracer = [sys.executable, str(repo / "perfbench" / "tracer.py")]
    proc = subprocess.run(
        tracer + [str(tmp_path), "--", "approx-check", "--quick"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("spans-*.npz"))

    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    x, _ = _write_training_csv(fit_dir / "train.csv")
    config = _write_config(fit_dir / "fit.json", {**FAST_FIT, "trials": 2})
    model = fit_dir / "model.json"
    proc = subprocess.run(
        tracer + [str(fit_dir), "--", "fit", "--config", config,
                  "--input", str(fit_dir / "train.csv"),
                  "--output", str(model)],
        cwd=fit_dir, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", repo / "perfbench" / "tracer.py")
    perfbench_tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench_tracer)
    metrics, _ = perfbench_tracer.summarize(str(fit_dir))
    fit_metrics = metrics
    est = load_estimator(str(model))
    J = count_features_pp(2, FAST_FIT["N"], FAST_FIT["M"], FAST_FIT["r"])
    assert est.width == J
    assert metrics["features.descriptors"] == 2 * J
    assert metrics["estimators.trials"] == 2
    # The tracer counts failed trials from the record's selection_trace,
    # and the benchmark bounds predictions by the loaded model's beta.
    assert metrics["estimators.trials_failed"] == 0
    assert math.isfinite(est.beta)
    # The product entries this fit computes.  A rearranged plan computes
    # the same products, so the count holds; it reads less if the plan
    # stops calling through netblocks.f_mult, which is what the
    # benchmark's product metrics count.
    assert metrics["netblocks.f_mult_elems"] == 576
    design = ridge.build_design_matrix(est.features, x)
    for j, f in enumerate(est.features):
        assert np.array_equal(design.values[:, j], eval_feature(x, f)), j

    # cmd_bench imports simbench when it runs, and the package resolves
    # simbench, baselines and estimators.ProcessPoolExecutor on first
    # use.  Each must be the object the tracer patched, or these spans
    # read zero.  The bench runs all six methods, two repetitions each.
    predict_dir = tmp_path / "predict"
    predict_dir.mkdir()
    query = predict_dir / "query.csv"
    _write_query_csv(query, [(0.1, -0.2), (0.5, 0.5)])
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for run_dir, argv in (
            (predict_dir, ["predict", "--model", str(model), "--input",
                           str(query), "--output", str(predict_dir / "p.csv")]),
            (bench_dir, _tiny_bench_run(
                bench_dir, methods=list(BenchConfig.methods),
                smooth_m_grid=[1], reps=2))):
        proc = subprocess.run(tracer + [str(run_dir), "--"] + argv,
                              cwd=run_dir, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    metrics, _ = perfbench_tracer.summarize(str(predict_dir))
    predict_metrics = metrics
    assert metrics["estimators.predict_chunks"] >= 1
    metrics, _ = perfbench_tracer.summarize(str(bench_dir))
    _assert_tiny_bench_report(bench_dir)
    assert metrics["baselines.select_calls"] > 0
    assert metrics["simbench.reference_s"] > 0
    assert metrics["estimators.pool_starts"] == 0
    # A refactor that stops calling a wrapped name zeroes its metrics.
    # Only these read zero in all three runs: the oracle's leaf and fold
    # spans, which no command calls, the pool that no command starts and
    # the failure counts.
    zeros = {key for key in metrics
             if not any(m[key] for m in (fit_metrics, predict_metrics,
                                         metrics))}
    assert zeros == {
        "features.leaf_specs_s", "features.leaf_specs_calls",
        "features.eval_leaf_s", "features.eval_leaf_calls",
        "features.leaf_elems", "features.leaf_reuse", "features.fold_s",
        "features.fold_calls", "estimators.pool_starts",
        "ridge.solve_failures", "estimators.trials_failed",
        "simbench.rep_failures"}
    # One baselines.fit span per baseline method and repetition.
    spans = 0
    for path in bench_dir.glob("spans-*.npz"):
        names, ids, _, _, _ = perfbench_tracer._load(str(path))
        if "baselines.fit" in names:
            spans += int(np.sum(ids == names.index("baselines.fit")))
    assert spans == 4 * 2

    smooth_dir = tmp_path / "smooth"
    smooth_dir.mkdir()
    _write_training_csv(smooth_dir / "train.csv")
    config = _write_config(smooth_dir / "fit.json",
                           {"estimator": "smooth", "N": 2, "M": 2})
    proc = subprocess.run(
        tracer + [str(smooth_dir), "--", "fit", "--config", config,
                  "--input", str(smooth_dir / "train.csv"),
                  "--output", str(smooth_dir / "model.json")],
        cwd=smooth_dir, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics, _ = perfbench_tracer.summarize(str(smooth_dir))
    # 16 rows of d=2, N=2, M=2 cube features: per row, 18 tent products
    # (3 relu blocks on 2 x 3 leaves) and 40 + 54 tree products, each node
    # evaluated once per distinct anchor sub-tuple.  A plan that evaluates
    # every per-group node once per group reads 2,176 (64 + 54 tree
    # products per row).
    assert metrics["netblocks.f_mult_elems"] == 16 * (18 + 40 + 54)


# ---------------------------------------------------------------------------
# fuzzed exit-code contract of fit and predict
# ---------------------------------------------------------------------------

# JSON values that no config key or model field should turn into a crash:
# numbers at the extremes (json writes and reads NaN and Infinity), and
# values of the wrong type.
_ODD_NUMBERS = (0, -1, 1.5, 5e-324, 1e-300, 1e300, -1e308,
                1.7976931348623157e308, 2**63, 10**400, math.inf, -math.inf,
                math.nan)
_ODD_VALUES = _ODD_NUMBERS + ("", "2", "nan", True, False, None, [], [1],
                              {"a": 1})
# Usable values are small, so every fit that runs stays cheap.  The
# counts r, N, M and trials get the odd numbers too, which the
# feature-count check and the trials budget must refuse before anything
# is allocated.
_SMALL_VALUES = {
    "r": (1, 2), "N": (0, 1, 2), "M": (0, 1, 3), "trials": (1, 2),
    "R": (1e3, 1e6), "A": (0.5, 1.0), "a": (0.5, 1.0),
    "penalty": (1e-6, 1.0, 1e3), "beta": (None, 0.5, 10.0),
    "seed": (0, 2**64 + 5), "selection": ("penalized", "risk"),
}
_PROJECTION_KEYS = ("r", "N", "M", "R", "A", "penalty", "beta", "trials",
                    "seed", "selection")
_SMOOTH_KEYS = ("N", "M", "R", "a", "penalty", "beta")


@st.composite
def _fit_configs(draw):
    # Usable values for a few keys and odd ones for one or two, so that
    # most configs get past conversion and an odd value meets the fit.
    kind = draw(st.sampled_from(("projection",) * 4 + ("smooth",) * 4
                                + ("other",)))
    keys = _SMOOTH_KEYS if kind == "smooth" else _PROJECTION_KEYS
    doc = {key: draw(st.sampled_from(_SMALL_VALUES[key]))
           for key in draw(st.lists(st.sampled_from(keys), unique=True))}
    odd_count = draw(st.sampled_from((0, 1, 1, 2)))
    for key in draw(st.lists(st.sampled_from(keys), min_size=odd_count,
                             max_size=odd_count, unique=True)):
        doc[key] = draw(st.sampled_from(_ODD_VALUES))
    if kind == "smooth":
        doc["estimator"] = "smooth"
    elif kind == "other":
        doc["estimator"] = draw(st.sampled_from(_ODD_VALUES))
    return doc


@st.composite
def _training_csvs(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 6))
    cell = st.sampled_from((-1.0, -0.5, 0.0, 0.25, 1.0, 3.0))
    rows = draw(st.lists(st.lists(cell, min_size=d + 1, max_size=d + 1),
                         min_size=n, max_size=n))
    if draw(st.booleans()):  # a constant column
        col = draw(st.integers(0, d))
        for row in rows:
            row[col] = rows[0][col]
    header = ",".join([f"x{i + 1}" for i in range(d)] + ["y"])
    return d, "\n".join([header] + [",".join(map(repr, row)) for row in rows])


def _run_main(argv):
    """cli.main's exit code and stderr; any exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(argv)
    return code, err.getvalue()


def _assert_predict_contract(model, d, tmp, accepted):
    # The second query lies far outside any cube that fit uses here.  An
    # accepted model is also queried at the all-h and all-(-h) corners of
    # its cube [-h, h]^d, and at a row of +-1e300 that the clamp maps to
    # a corner.
    rows = [[0.1] * (d - 1) + [-0.2], [1e10] + [0.1] * (d - 1)]
    if accepted:
        est = load_estimator(str(model))
        h = est.domain_half
        rows += [[h] * d, [-h] * d, [(-1) ** i * 1e300 for i in range(d)]]
    query = tmp / "query.csv"
    query.write_text(",".join(f"x{i + 1}" for i in range(d)) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows))
    out = tmp / "pred.csv"
    code, err = _run_main(["predict", "--model", str(model), "--input",
                           str(query), "--output", str(out)])
    assert "Traceback" not in err
    assert (code == 0) if accepted else (code in (0, 2)), err
    assert out.exists() == (code == 0)
    if accepted:  # finite, and truncated to the model's [-beta, beta]
        values = _prediction_values(out)
        assert values.shape == (len(rows),), values
        assert np.all(np.abs(values) <= est.beta), values


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(doc=_fit_configs(), csv=_training_csvs())
def test_fuzzed_fit_configs_exit_0_or_2(doc, csv):
    d, text = csv
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "train.csv").write_text(text + "\n")
        config = _write_config(tmp / "fit.json", doc)
        model = tmp / "model.json"
        code, err = _run_main(["fit", "--config", config, "--input",
                               str(tmp / "train.csv"), "--output", str(model)])
        assert "Traceback" not in err
        assert code in (0, 2), err
        assert model.exists() == (code == 0)
        trials = doc.get("trials")
        if isinstance(trials, (int, float)) and trials > 1e3:
            assert code == 2, err  # over the trials budget, or unusable
        if code == 0:  # predict accepts every model fit writes
            _assert_predict_contract(model, d, tmp, accepted=True)


@functools.cache
def _fitted_documents():
    from fixnet.data import Dataset
    from fixnet.estimators import (PPConfig, SmoothConfig, fit_pp, fit_smooth,
                                   to_json_dict)

    x = Stream(5).uniform_matrix(12, 2, low=-1.0, high=1.0)
    data = Dataset(x, x[:, 0] - x[:, 1] ** 2)
    return (to_json_dict(fit_pp(data, PPConfig(r=2, N=1, M=2, trials=2))),
            to_json_dict(fit_smooth(data, SmoothConfig(N=1, M=2))))


# The keys that say what the document is are mutated less often, so
# most documents reach the checks of the numbers and the feature build.
_MODEL_KEYS = ("schema", "model", "kind") + 3 * (
    "d", "N", "M", "R", "domain_half", "penalty", "beta", "coefficients",
    "training_objective", "seed", "selection", "selection_trace",
    "directions")


@st.composite
def _model_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_fitted_documents()))))
    for _ in range(draw(st.sampled_from((1, 1, 2)))):
        key = draw(st.sampled_from(_MODEL_KEYS))
        how = draw(st.sampled_from(("set", "delete", "item")))
        if how == "delete":
            doc.pop(key, None)
        elif how == "item" and isinstance(doc.get(key), list) and doc[key]:
            items = doc[key]
            items[draw(st.integers(0, len(items) - 1))] = draw(
                st.sampled_from(_ODD_VALUES + ("1e400", [[0.5, 0.5]])))
        else:
            doc[key] = draw(st.sampled_from(
                _ODD_VALUES + ("projection", "smooth", 1, 2, 3, [[1.0, 0.0]])))
    return doc


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(doc=_model_documents())
def test_fuzzed_model_documents_exit_0_or_2(doc):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        model = tmp / "model.json"
        model.write_text(json.dumps(doc))
        _assert_predict_contract(model, 2, tmp, accepted=False)
