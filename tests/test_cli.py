"""End-to-end tests of the command-line interface."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fixnet import ridge
from fixnet.estimators import load_estimator, predict
from fixnet.features import count_features_pp, eval_feature
from fixnet.cli import block_check_rows, decay_check_rows, main, run_approx_check
from fixnet.rng import Stream


def _write_training_csv(path, n=16, seed=0):
    stream = Stream(seed)
    x = stream.uniform_matrix(n, 2, low=-1.0, high=1.0)
    y = x[:, 0] + 0.5 * x[:, 1] + 0.02 * stream.normals(n)
    lines = ["x1,x2,y"]
    lines.extend(f"{a:.17g},{b:.17g},{c:.17g}" for (a, b), c in zip(x, y))
    path.write_text("\n".join(lines) + "\n")
    return x, y


def _write_query_csv(path, rows):
    lines = ["x1,x2"]
    lines.extend(f"{a:.17g},{b:.17g}" for a, b in rows)
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
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="scale R is below",
                                category=RuntimeWarning)
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


def test_importing_the_cli_does_not_load_scipy():
    # Only the ridge solve and the radial-basis fit need scipy; predict
    # and approx-check processes should not pay for importing it.
    repo = Path(__file__).resolve().parents[1]
    code = ("import sys, fixnet.cli; "
            "sys.exit(1 if 'scipy' in sys.modules else 0)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


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


def test_missing_input_is_reported(tmp_path, capsys):
    assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_decay_check_rows_sit_in_window():
    rows = decay_check_rows()
    assert len(rows) == 2
    for r in rows:
        assert r["lower"] <= r["measured"] <= r["bound"]
        assert r["ok"]


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
    est = load_estimator(str(model))
    J = count_features_pp(2, FAST_FIT["N"], FAST_FIT["M"], FAST_FIT["r"])
    assert est.width == J
    assert metrics["features.descriptors"] == 2 * J
    assert metrics["estimators.trials"] == 2
    # The product entries this fit computes.  A rearranged plan computes
    # the same products, so the count holds; it reads less if the plan
    # stops calling through netblocks.f_mult, which is what the
    # benchmark's product metrics count.
    assert metrics["netblocks.f_mult_elems"] == 576
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="scale R is below",
                                category=RuntimeWarning)
        design = ridge.build_design_matrix(est.features, x,
                                           warn_out_of_domain=False)
        for j, f in enumerate(est.features):
            assert np.array_equal(design.values[:, j], eval_feature(x, f)), j
