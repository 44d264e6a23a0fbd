"""Tests for the two estimators: configuration, fitting, prediction,
selection bookkeeping, and serialization."""

import ctypes
import dataclasses
import json
import math

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
from fixnet.features import enumerate_features_cube
from fixnet.netblocks import BlockParams
from fixnet.rng import Stream


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
    # The grid rules of the enumerations, applied when the config is built.
    for edit, message in (({"a": math.inf}, "^invalid grid parameters "
                                            "N=1, M=2, a=inf$"),
                          ({"R": math.nan}, "^scale R must be positive"),
                          ({"a": 1e5}, "^half width a=100000 is too large")):
        with pytest.raises(ParameterError, match=message):
            SmoothConfig(**{"N": 1, "M": 2, "R": 1e5, **edit})


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
    for n in (1, 0):
        with pytest.raises(ParameterError,
                           match="^need at least two observations$"):
            SmoothConfig.from_sample_size(n, 2, 2.0)
    for smoothness in (0.0, -1.0, float("nan")):
        with pytest.raises(ParameterError,
                           match="^smoothness must be positive$"):
            SmoothConfig.from_sample_size(10, 2, smoothness)


def test_pp_config_from_sample_size():
    cfg = PPConfig.from_sample_size(50, 2, 1, 2.0)
    log_n = math.log(50)
    assert cfg.trials == math.ceil(log_n**2 * 50 ** (2.0 / 5.0))
    assert cfg.M == math.ceil(50 ** (1.0 / 5.0))
    assert cfg.R == 50.0**3
    assert cfg.A == pytest.approx(log_n ** (1.0 / 24.0), rel=1e-12)
    assert cfg.r == 1


def test_configs_default_to_the_documented_fit_defaults():
    pp, smooth = PPConfig(), SmoothConfig()
    assert (pp.r, pp.N, pp.M, pp.R, pp.A, pp.penalty, pp.beta, pp.trials,
            pp.seed, pp.selection) == (4, 2, 8, 1e6, 1.0, 1.0, None, 50, 0,
                                       "penalized")
    assert (smooth.N, smooth.M, smooth.R, smooth.a, smooth.penalty,
            smooth.beta) == (2, 8, 1e6, 1.0, 1.0, None)


def test_degree_cap_warning_points_at_the_caller():
    # Every fixnet warning names the line outside the package that called
    # into it, a dataclass's generated __init__ included.
    data = _toy_data(20)
    est = fit_smooth(data, SmoothConfig(N=1, M=2, R=1e5))
    outside = Dataset(1.5 * data.x, data.y)
    for make, match in (
            (lambda: SmoothConfig.from_sample_size(10, 2, 2.5, N=1),
             "degree cap below"),
            (lambda: PPConfig.from_sample_size(10, 2, 1, 2.5, N=1),
             "degree cap below"),
            (lambda: PPConfig(R=1e9), "clamped to"),
            (lambda: BlockParams(R=1e9), "clamped to"),
            (lambda: enumerate_features_cube(2, 1, 2, 1.0, 1e9), "clamped to"),
            (lambda: fit_smooth(outside, SmoothConfig(N=1, M=2, R=1e5)),
             "training inputs outside"),
            (lambda: est(outside.x), "queries outside")):
        with pytest.warns(RuntimeWarning, match=match) as record:
            make()
        assert [w.filename for w in record] == [__file__]


def test_pp_config_validation():
    with pytest.raises(ParameterError):
        PPConfig(r=0, N=1, M=2, R=1e5)
    with pytest.raises(ParameterError):
        PPConfig(r=1, N=1, M=2, R=1e5, trials=0)
    with pytest.raises(ParameterError):
        PPConfig(r=1, N=1, M=2, R=1e5, selection="best")
    for edit, message in (({"A": math.inf}, "^invalid grid parameters "
                                            "N=1, M=2, A=inf$"),
                          ({"R": math.nan}, "^scale R must be positive"),
                          ({"A": 1e5}, "^half width A=100000 is too large")):
        with pytest.raises(ParameterError, match=message):
            PPConfig(**{"r": 1, "N": 1, "M": 2, "R": 1e5, **edit})


def test_sample_directions_shape_and_range():
    dirs = sample_directions(Stream(0), 5, 3)
    assert dirs.shape == (5, 3)
    assert np.all(np.abs(dirs) <= 1.0)
    assert np.array_equal(dirs, sample_directions(Stream(0), 5, 3))


def test_fit_smooth_learns_a_smooth_target():
    data = _toy_data(80, seed=1)
    est = fit_smooth(data, SmoothConfig(N=2, M=2, R=1e6))
    risk = empirical_l2_risk(est, data)
    # The fit must explain most of the response variance.
    assert risk < 0.25 * float(np.var(data.y))
    assert est.kind == "smooth"
    assert est.width == len(est.features)
    assert est.training_objective > 0.0


def test_fit_pp_fits_and_records_selection():
    data = _toy_data(60, seed=2)
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
    by_risk = fit_pp(data, risk_cfg)
    by_pen = fit_pp(data, pen_cfg)
    # Unpenalized scores are never above penalized scores of the same trial.
    for r_score, p_score in zip(by_risk.selection_trace, by_pen.selection_trace):
        assert r_score <= p_score + 1e-15


def test_fit_pp_trial_streams_depend_only_on_the_trial_index():
    data = _toy_data(50, seed=6)
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
    with pytest.raises(EstimatorError, match="direction trials failed"):
        fit_pp(data, PP_SMALL)


def test_fit_warns_and_clamps_outside_inputs():
    data = _toy_data(40, seed=8)
    shifted = Dataset(data.x * 1.5, data.y)
    with pytest.warns(RuntimeWarning, match="clamped"):
        fit_smooth(shifted, SmoothConfig(N=1, M=2, R=1e6))


@pytest.mark.parametrize("cell", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("fit, config", [
    (fit_pp, PPConfig(r=1, N=1, M=2, R=1e5, trials=2)),
    (fit_smooth, SmoothConfig(N=1, M=1, R=1e6)),
], ids=["projection", "smooth"])
def test_fits_refuse_non_finite_inputs_before_the_clamp(fit, config, cell):
    # The clamp would turn an infinite coordinate into the cube's edge.
    data = _toy_data(4, seed=11)
    x = data.x.copy()
    x[2, 0] = cell
    with pytest.raises(ParameterError, match="non-finite values"):
        fit(Dataset(x, data.y), config)


def test_predict_truncates_to_beta():
    data = _toy_data(40, seed=9)
    cfg = PPConfig(r=1, N=1, M=2, R=1e5, trials=3, seed=1, beta=0.01)
    est = fit_pp(data, cfg)
    out = predict(est, data.x)
    assert np.max(np.abs(out)) <= 0.01
    assert est.beta == 0.01


def test_predict_handles_points_and_batches():
    data = _toy_data(40, seed=10)
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


@pytest.mark.parametrize("entries, budget, rows", [
    (200, None, 192),  # the largest multiple of 64 rows within the entries
    (10, None, 64),    # at least 64 rows
    (None, 50, 50),    # 64 rows above ENTRY_BUDGET: ENTRY_BUDGET // J rows
])
def test_predict_is_its_blocks_designs_times_the_coefficients(
        monkeypatch, entries, budget, rows):
    # The documented blocks, bit for bit: each block's design times the
    # coefficients, truncated, with entries and budget given in units of J.
    data = _toy_data(40, seed=11)
    est = fit_pp(data, PP_SMALL)
    J = est.width
    if entries is not None:
        monkeypatch.setattr(estimators, "_PREDICT_ENTRIES", entries * J)
    if budget is not None:
        monkeypatch.setattr(estimators.feat, "ENTRY_BUDGET", budget * J)
    queries = Stream(12).uniform_matrix(1000, 2, low=-1.0, high=1.0)
    build_design_matrix = estimators.ridge.build_design_matrix
    built = []

    def build(features, x):
        built.append(len(x))
        return build_design_matrix(features, x)

    monkeypatch.setattr(estimators.ridge, "build_design_matrix", build)
    got = predict(est, queries)
    starts = range(0, len(queries), rows)
    assert built == [len(queries[i:i + rows]) for i in starts]
    want = np.concatenate([
        build_design_matrix(est.features, queries[i:i + rows]).values
        @ est.coefficients for i in starts])
    assert np.array_equal(got, np.clip(want, -est.beta, est.beta))


def test_predict_bits_do_not_depend_on_a_64_row_block_size(monkeypatch):
    # J = 408.  OpenBLAS splits a matrix-vector product between its
    # threads only above some size (460,800 entries in numpy 2.4's
    # OpenBLAS 0.3.31), so the blocks of 1,280 rows and more are
    # two-thread calls where it has two; every block of a multiple of 64
    # rows keeps every row's bits.
    data = _toy_data(40, seed=11)
    est = fit_pp(data, PPConfig(r=4, N=2, M=16, R=1e5, trials=1, seed=3))
    assert est.width == 408
    queries = Stream(12).uniform_matrix(4096, 2, low=-1.0, high=1.0)
    got = {}
    for rows in (64, 192, 1280, 1344, 2048, 4096):
        monkeypatch.setattr(estimators, "_PREDICT_ENTRIES", rows * est.width)
        got[rows] = predict(est, queries)
    for rows, values in got.items():
        assert np.array_equal(values, got[4096]), rows


@pytest.fixture
def blas_threads():
    """Sets the thread count of numpy's OpenBLAS, restored afterwards."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    try:
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except AttributeError:
        pytest.skip("numpy's OpenBLAS does not export "
                    "scipy_openblas_set_num_threads64_")
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    get_threads.restype = ctypes.c_int
    before = get_threads()

    def use(count):
        set_threads(count)
        if get_threads() != count:
            pytest.skip(f"OpenBLAS does not run {count} threads here")

    yield use
    set_threads(before)


def _ragged_rows(lengths):
    """The rows outside whole 4-row groups when consecutive ranges of the
    given lengths are summed each in 4-row groups from its start."""
    rows, start = set(), 0
    for length in lengths:
        rows.update(range(start + length - length % 4, start + length))
        start += length
    return rows


@pytest.mark.parametrize("n, J", [(8811, 1904), (10_000, 1020), (9362, 1792)])
def test_64_row_blocks_give_one_thread_bits_on_two_threads(blas_threads, n, J):
    # predict's argument for its blocks, on its block rule: OpenBLAS halves
    # a product's rows between two threads, and each thread's leftover
    # rows past its 4-row groups take another kernel.  A block of a
    # multiple of 8 rows thus has the one-thread bits of the whole batch,
    # be it predict's block or a smaller one, while one two-thread call
    # over the batch may differ at its ragged rows only: those of its two
    # halves and of the one-thread call.
    a = np.random.default_rng(0).standard_normal((n, J))
    c = np.random.default_rng(1).standard_normal(J)
    blas_threads(1)
    one = a @ c
    blas_threads(2)
    for rows in (estimators._PREDICT_ENTRIES // J // 64 * 64, 256, 264, 272):
        blocks = np.concatenate([a[i:i + rows] @ c
                                 for i in range(0, n, rows)])
        assert np.array_equal(blocks, one), rows
    moved = set(np.flatnonzero(a @ c != one).tolist())
    assert moved <= _ragged_rows([(n + 1) // 2, n // 2]) | _ragged_rows([n])


def test_empirical_l2_risk_matches_manual_mean():
    data = _toy_data(30, seed=13)
    est = fit_pp(data, PP_SMALL)
    resid = data.y - predict(est, data.x)
    assert empirical_l2_risk(est, data) == pytest.approx(
        float(np.mean(resid**2)), rel=1e-12
    )


_MODEL_PARAMETERS = ("kind", "d", "N", "M", "R", "domain_half", "directions")


def _assert_resaves_identically(est, path, tmp_path):
    # The writer reads the model parameters from the loaded FeatureSet, so
    # a second save must give the bytes the fit wrote, and the loaded
    # record must report the fitted parameters.
    loaded = load_estimator(path)
    again = tmp_path / "again.json"
    save_estimator(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    for name in _MODEL_PARAMETERS:
        assert getattr(loaded, name) == getattr(est, name), name


def test_serialization_round_trip(tmp_path):
    data = _toy_data(40, seed=14)
    est = fit_pp(data, PP_SMALL)
    path = tmp_path / "model.json"
    save_estimator(est, path)
    loaded = load_estimator(path)
    assert np.array_equal(loaded.coefficients, est.coefficients)
    assert loaded.directions == est.directions
    assert loaded.beta == est.beta and loaded.R == est.R
    queries = Stream(15).uniform_matrix(20, 2, low=-1.0, high=1.0)
    assert np.array_equal(predict(loaded, queries), predict(est, queries))

    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert doc["model"] == "fixnet-estimator"
    assert len(doc["coefficients"]) == est.width
    _assert_resaves_identically(est, path, tmp_path)


def test_smooth_serialization_round_trip(tmp_path):
    data = _toy_data(40, seed=16)
    est = fit_smooth(data, SmoothConfig(N=1, M=2, R=1e6))
    path = tmp_path / "smooth.json"
    save_estimator(est, path)
    loaded = load_estimator(path)
    assert loaded.kind == "smooth"
    assert np.array_equal(loaded.coefficients, est.coefficients)
    assert predict(loaded, data.x[0]) == predict(est, data.x[0])
    _assert_resaves_identically(est, path, tmp_path)


def test_deserialization_rejects_malformed_documents(tmp_path):
    data = _toy_data(30, seed=17)
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
    ("selection_trace", 5, "selection_trace must be null or a list"),
    ("selection_trace", "0.5", "selection_trace must be null or a list"),
    ("selection_trace", [0.5, "x"], "selection_trace must be null or a list"),
    ("selection_trace", [True], "selection_trace must be null or a list"),
    ("seed", "x", "seed must be null or an integer"),
    ("seed", 1.5, "seed must be null or an integer"),
    # JSON true is not the integer 1.
    ("d", True, "d must be an integer >= 1"),
    ("N", True, "N must be an integer >= 0"),
    ("M", True, "M must be an integer >= 0"),
])
def test_deserialization_rejects_out_of_range_fields(field, value, match):
    data = _toy_data(30, seed=17)
    doc = to_json_dict(fit_pp(data, PP_SMALL))
    if field == "directions":  # keep the count check satisfied
        value = value + doc["directions"][1:]
    with pytest.raises(ParameterError, match=match):
        from_json_dict({**doc, field: value})


def test_deserialization_keeps_infinite_trial_scores():
    # A failed trial is saved with score Infinity, which must load back.
    data = _toy_data(30, seed=17)
    doc = to_json_dict(fit_pp(data, PP_SMALL))
    text = json.dumps({**doc, "selection_trace": [0.5, math.inf, 2], "seed": None})
    loaded = from_json_dict(json.loads(text))
    assert loaded.selection_trace == (0.5, math.inf, 2)
    assert loaded.seed is None


def test_deserialization_rejects_non_finite_coefficients():
    data = _toy_data(30, seed=17)
    doc = to_json_dict(fit_pp(data, PP_SMALL))
    for bad in ("nan", "inf", "-inf"):
        coefs = [bad] + doc["coefficients"][1:]
        with pytest.raises(ParameterError, match="coefficients must be finite"):
            from_json_dict({**doc, "coefficients": coefs})
    assert np.array_equal(from_json_dict(doc).coefficients,
                          [float(c) for c in doc["coefficients"]])


def test_deserialization_checks_the_count_before_enumerating(monkeypatch):
    data = _toy_data(30, seed=17)
    doc = to_json_dict(fit_smooth(data, SmoothConfig(N=1, M=2, R=1e6)))

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the count check")

    monkeypatch.setattr(estimators.feat, "enumerate_features_cube", refuse)
    monkeypatch.setattr(estimators.feat, "enumerate_features_pp", refuse)
    for grid in ({"M": 2000}, {"M": 10**9, "d": 10**9}):
        with pytest.raises(FixnetError, match="feature count"):
            from_json_dict({**doc, **grid, "coefficients": ["1"]})
