"""Tests for the two estimators: configuration, fitting, prediction,
selection bookkeeping, and serialization."""

import contextlib
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from fixnet import estimators
from fixnet.data import Dataset
from fixnet.errors import EstimatorError, FixnetError, ParameterError, SolverError
from fixnet.estimators import (
    PPConfig,
    SmoothConfig,
    empirical_l2_risk,
    fit_pp,
    fit_smooth,
    from_json_dict,
    load_estimator,
    predict,
    sample_directions,
    save_estimator,
    to_json_dict,
)
from fixnet.rng import Stream


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="scale R is below", category=RuntimeWarning
        )
        yield


def _toy_data(n=50, seed=0, noise=0.02):
    stream = Stream(seed)
    x = stream.uniform_matrix(n, 2, low=-1.0, high=1.0)
    y = np.sin(np.pi * (0.8 * x[:, 0] + 0.6 * x[:, 1])) + noise * stream.normals(n)
    return Dataset(x, y)


PP_SMALL = PPConfig(r=2, N=1, M=2, R=1e5, A=1.0, trials=6, seed=3)


def test_smooth_config_validation():
    with pytest.raises(ParameterError):
        SmoothConfig(N=-1, M=2, R=1e5)
    with pytest.raises(ParameterError):
        SmoothConfig(N=1, M=2, R=1e5, a=0.0)
    with pytest.raises(ParameterError):
        SmoothConfig(N=1, M=2, R=1e5, penalty=0.0)
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert SmoothConfig(N=1, M=2, R=1e10).R == 1e8


def test_smooth_config_from_sample_size():
    cfg = SmoothConfig.from_sample_size(10, 2, 2.0)
    assert cfg.N == 2
    assert cfg.M == math.ceil(10 ** (1.0 / 6.0))
    assert cfg.R == 10.0**6
    assert cfg.a == pytest.approx(math.log(10) ** (1.0 / 24.0), rel=1e-12)
    assert cfg.beta == pytest.approx(10.0 * math.log(10), rel=1e-12)
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert SmoothConfig.from_sample_size(100, 2, 2.0).R == 1e8
    with pytest.warns(RuntimeWarning, match="degree cap below"):
        SmoothConfig.from_sample_size(10, 2, 2.5, N=1)


def test_pp_config_from_sample_size():
    cfg = PPConfig.from_sample_size(50, 2, 1, 2.0)
    log_n = math.log(50)
    assert cfg.trials == math.ceil(log_n**2 * 50 ** (2.0 / 5.0))
    assert cfg.M == math.ceil(50 ** (1.0 / 5.0))
    assert cfg.R == 50.0**3
    assert cfg.A == pytest.approx(log_n ** (1.0 / 24.0), rel=1e-12)
    assert cfg.r == 1


def test_pp_config_validation():
    with pytest.raises(ParameterError):
        PPConfig(r=0, N=1, M=2, R=1e5)
    with pytest.raises(ParameterError):
        PPConfig(r=1, N=1, M=2, R=1e5, trials=0)
    with pytest.raises(ParameterError):
        PPConfig(r=1, N=1, M=2, R=1e5, selection="best")


def test_sample_directions_shape_and_range():
    dirs = sample_directions(Stream(0), 5, 3)
    assert dirs.shape == (5, 3)
    assert np.all(np.abs(dirs) <= 1.0)
    assert np.array_equal(dirs, sample_directions(Stream(0), 5, 3))


def test_fit_smooth_learns_a_smooth_target():
    data = _toy_data(80, seed=1)
    with _quiet():
        est = fit_smooth(data, SmoothConfig(N=2, M=2, R=1e6))
        risk = empirical_l2_risk(est, data)
    # The fit must explain most of the response variance.
    assert risk < 0.25 * float(np.var(data.y))
    assert est.kind == "smooth"
    assert est.width == len(est.features)
    assert est.training_objective > 0.0


def test_fit_pp_fits_and_records_selection():
    data = _toy_data(60, seed=2)
    with _quiet():
        est = fit_pp(data, PP_SMALL)
    assert est.kind == "projection"
    assert len(est.selection_trace) == PP_SMALL.trials
    finite = [v for v in est.selection_trace if math.isfinite(v)]
    assert finite
    assert min(finite) == est.training_objective
    assert len(est.directions) == PP_SMALL.r
    assert est.seed == PP_SMALL.seed and est.selection == "penalized"


def test_fit_pp_risk_selection_scores_without_penalty():
    data = _toy_data(40, seed=4)
    risk_cfg = PPConfig(r=1, N=1, M=2, R=1e5, trials=4, seed=5, selection="risk")
    pen_cfg = PPConfig(r=1, N=1, M=2, R=1e5, trials=4, seed=5)
    with _quiet():
        by_risk = fit_pp(data, risk_cfg)
        by_pen = fit_pp(data, pen_cfg)
    # Unpenalized scores are never above penalized scores of the same trial.
    for r_score, p_score in zip(by_risk.selection_trace, by_pen.selection_trace):
        assert r_score <= p_score + 1e-15


def test_fit_pp_trial_streams_depend_only_on_the_trial_index():
    data = _toy_data(50, seed=6)
    with _quiet():
        short = fit_pp(data, dataclasses.replace(PP_SMALL, trials=2))
        longer = fit_pp(data, dataclasses.replace(PP_SMALL, trials=4))
        again = fit_pp(data, dataclasses.replace(PP_SMALL, trials=4))
    assert short.selection_trace == longer.selection_trace[:2]
    assert np.array_equal(again.coefficients, longer.coefficients)
    assert again.directions == longer.directions


def test_fit_pp_raises_when_every_trial_fails(monkeypatch):
    data = _toy_data(30, seed=7)

    def always_fail(design, y, penalty):
        raise SolverError("forced failure")

    monkeypatch.setattr(estimators.ridge, "ridge_solve", always_fail)
    with _quiet():
        with pytest.raises(EstimatorError, match="direction trials failed"):
            fit_pp(data, PP_SMALL)


def test_fit_warns_and_clamps_outside_inputs():
    data = _toy_data(40, seed=8)
    shifted = Dataset(data.x * 1.5, data.y)
    with _quiet():
        with pytest.warns(RuntimeWarning, match="clamped"):
            fit_smooth(shifted, SmoothConfig(N=1, M=2, R=1e6))


def test_predict_truncates_to_beta():
    data = _toy_data(40, seed=9)
    cfg = PPConfig(r=1, N=1, M=2, R=1e5, trials=3, seed=1, beta=0.01)
    with _quiet():
        est = fit_pp(data, cfg)
        out = predict(est, data.x)
    assert np.max(np.abs(out)) <= 0.01
    assert est.beta == 0.01


def test_predict_handles_points_and_batches():
    data = _toy_data(40, seed=10)
    with _quiet():
        est = fit_pp(data, PP_SMALL)
        single = predict(est, data.x[0])
        batch = predict(est, data.x[:5])
        via_call = est(data.x[:5])
    assert isinstance(single, float)
    assert batch.shape == (5,)
    # Different batch shapes may take different vectorized code paths, so
    # agreement is to rounding, not bitwise.
    assert single == pytest.approx(batch[0], abs=1e-12)
    assert np.array_equal(batch, via_call)


def test_predict_chunking_does_not_change_values(monkeypatch):
    data = _toy_data(40, seed=11)
    with _quiet():
        est = fit_pp(data, PP_SMALL)
        queries = Stream(12).uniform_matrix(64, 2, low=-1.0, high=1.0)
        whole = predict(est, queries)
        monkeypatch.setattr(estimators, "_PREDICT_ENTRY_BUDGET", est.width * 7)
        chunked = predict(est, queries)
    assert np.max(np.abs(whole - chunked)) <= 1e-12


def test_empirical_l2_risk_matches_manual_mean():
    data = _toy_data(30, seed=13)
    with _quiet():
        est = fit_pp(data, PP_SMALL)
        resid = data.y - predict(est, data.x)
    assert empirical_l2_risk(est, data) == pytest.approx(
        float(np.mean(resid**2)), rel=1e-12
    )


def test_serialization_round_trip(tmp_path):
    data = _toy_data(40, seed=14)
    with _quiet():
        est = fit_pp(data, PP_SMALL)
    path = tmp_path / "model.json"
    save_estimator(est, path)
    loaded = load_estimator(path)
    assert np.array_equal(loaded.coefficients, est.coefficients)
    assert loaded.directions == est.directions
    assert loaded.beta == est.beta and loaded.R == est.R
    queries = Stream(15).uniform_matrix(20, 2, low=-1.0, high=1.0)
    with _quiet():
        assert np.array_equal(predict(loaded, queries), predict(est, queries))

    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert doc["model"] == "fixnet-estimator"
    assert len(doc["coefficients"]) == est.width


def test_smooth_serialization_round_trip(tmp_path):
    data = _toy_data(40, seed=16)
    with _quiet():
        est = fit_smooth(data, SmoothConfig(N=1, M=2, R=1e6))
    path = tmp_path / "smooth.json"
    save_estimator(est, path)
    loaded = load_estimator(path)
    assert loaded.kind == "smooth"
    assert np.array_equal(loaded.coefficients, est.coefficients)
    with _quiet():
        assert predict(loaded, data.x[0]) == predict(est, data.x[0])


def test_deserialization_rejects_malformed_documents(tmp_path):
    data = _toy_data(30, seed=17)
    with _quiet():
        est = fit_pp(data, PP_SMALL)
    doc = to_json_dict(est)
    with pytest.raises(ParameterError, match="schema"):
        from_json_dict({**doc, "schema": 2})
    with pytest.raises(ParameterError, match="estimator document"):
        from_json_dict({**doc, "model": "something-else"})
    with pytest.raises(ParameterError, match="directions"):
        from_json_dict({**doc, "directions": None})
    with pytest.raises(ParameterError, match="coefficient count"):
        from_json_dict({**doc, "coefficients": doc["coefficients"][:-1]})
    with pytest.raises(ParameterError, match="unknown estimator kind"):
        from_json_dict({**doc, "kind": "mystery"})


@pytest.mark.parametrize("field, value, match", [
    ("beta", "-3", "beta must be positive"),
    ("beta", "nan", "beta must be positive"),
    ("beta", "0", "beta must be positive"),
    ("R", "inf", "R must be positive"),
    ("penalty", "-1", "penalty must be positive"),
    ("domain_half", "0", "domain_half must be positive"),
    ("d", 0, "d must be an integer >= 1"),
    ("M", -1, "M must be an integer >= 0"),
    ("N", 1.5, "malformed"),
    ("beta", None, "malformed"),
    ("directions", [["x", "0"]], "malformed"),
    ("directions", [["nan", "0"]], "must lie in"),
])
def test_deserialization_rejects_out_of_range_fields(field, value, match):
    data = _toy_data(30, seed=17)
    with _quiet():
        doc = to_json_dict(fit_pp(data, PP_SMALL))
    if field == "directions":  # keep the count check satisfied
        value = value + doc["directions"][1:]
    with pytest.raises(ParameterError, match=match):
        from_json_dict({**doc, field: value})


def test_deserialization_rejects_non_finite_coefficients():
    data = _toy_data(30, seed=17)
    with _quiet():
        doc = to_json_dict(fit_pp(data, PP_SMALL))
    for bad in ("nan", "inf", "-inf"):
        coefs = [bad] + doc["coefficients"][1:]
        with pytest.raises(ParameterError, match="coefficients must be finite"):
            from_json_dict({**doc, "coefficients": coefs})
    assert np.array_equal(from_json_dict(doc).coefficients,
                          [float(c) for c in doc["coefficients"]])


def test_deserialization_checks_the_count_before_enumerating(monkeypatch):
    data = _toy_data(30, seed=17)
    with _quiet():
        doc = to_json_dict(fit_smooth(data, SmoothConfig(N=1, M=2, R=1e6)))

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the count check")

    monkeypatch.setattr(estimators.feat, "enumerate_features_cube", refuse)
    monkeypatch.setattr(estimators.feat, "enumerate_features_pp", refuse)
    for grid in ({"M": 2000}, {"M": 10**9, "d": 10**9}):
        with pytest.raises(FixnetError, match="feature count"):
            from_json_dict({**doc, **grid, "coefficients": ["1"]})
