"""Tests for the benchmark targets, data generation, the report grid, and
the convergence-rate experiment."""

import math

import numpy as np
import pytest

from fixnet import baselines, simbench
from fixnet.data import Dataset
from fixnet.errors import ParameterError
from fixnet.features import ENTRY_BUDGET
from fixnet.rng import Stream
from fixnet.simbench import (
    STANDARD_NOISES,
    TARGETS,
    UNIMPLEMENTED_METHODS,
    BenchConfig,
    RateConfig,
    eval_target,
    generate,
    rate_experiment,
    reference_error,
    run_benchmark,
    scaled_errors,
)

MINI_BENCH = dict(
    targets=("m2",),
    noises=(0.05,),
    methods=("constant", "kernel"),
    n=25,
    eval_n=200,
    reps=2,
    trials=2,
    trial_overrides=(),
    ref_realizations=2,
    seed=0,
)


def _transcribe_m2(x):
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    t1 = np.tan(np.sin(np.pi * (0.2 * x1 + 0.5 * x2 - 0.6 * x3 + 0.2 * x4)))
    t2 = (0.5 * (x1 + x2 + x3 + x4)) ** 3
    t3 = 1.0 / ((0.5 * x1 + 0.3 * x2 - 0.3 * x3 + 0.25 * x4) ** 2 + 4.0)
    return t1 + t2 + t3


def _transcribe_m4(x):
    x1, x2, x3, x4, x5, x6 = (x[:, i] for i in range(6))
    t1 = np.exp(0.2 * (x1 + x2 + x3 + x4 + x5 + x6))
    t2 = np.sin((np.pi / 2.0) * (x1 - x2 - x3 + x4 - x5 - x6))
    t3 = 1.0 / ((0.3 * x1 - 0.2 * x2 + 0.8 * x3 - 0.5 * x4 + 0.6 * x5 - 0.2 * x6) ** 2 + 6.0)
    t4 = 0.5 * (x1 + x3 - x5) ** 3
    return t1 + t2 + t3 + t4


def test_target_registry():
    assert set(TARGETS) == {"m1", "m2", "m3", "m4"}
    dims = {name: spec.d for name, spec in TARGETS.items()}
    assert dims == {"m1": 2, "m2": 4, "m3": 5, "m4": 6}
    scales = {name: spec.noise_scale for name, spec in TARGETS.items()}
    assert scales == {"m1": 5.04, "m2": 5.57, "m3": 6.8, "m4": 3.71}
    assert STANDARD_NOISES == (0.0, 0.05, 0.10)


def test_total_targets_match_independent_transcription():
    # m2 and m4 are compositions of total functions, so a direct
    # transcription of their published formulas is an exact oracle.
    x2 = Stream(1).uniform_matrix(500, 4, low=-1.0, high=1.0)
    assert np.allclose(eval_target(TARGETS["m2"], x2), _transcribe_m2(x2), rtol=1e-13, atol=0)
    x4 = Stream(2).uniform_matrix(500, 6, low=-1.0, high=1.0)
    assert np.allclose(eval_target(TARGETS["m4"], x4), _transcribe_m4(x4), rtol=1e-13, atol=0)


def test_guarded_targets_are_total_on_the_cube():
    for name in ("m1", "m3"):
        spec = TARGETS[name]
        x = Stream(3).uniform_matrix(2000, spec.d, low=-1.0, high=1.0)
        vals = eval_target(spec, x)
        assert np.all(np.isfinite(vals))


def test_m1_removable_singularity_and_log_floor():
    spec = TARGETS["m1"]
    # 0.1*x1 + 0.3*x2 = 0 makes the tan/quartic ratio a removable 0/0;
    # the convention evaluates the limit 0.
    point = np.array([[0.6, -0.2]])
    val = float(eval_target(spec, point)[0])
    x1, x2 = 0.6, -0.2
    t1 = math.log(abs(0.2 * x1 + 0.9 * x2))
    t2 = math.cos(math.pi / math.log(abs(0.5 * x1 + 0.3 * x2)))
    t3 = math.exp((0.7 * x1 + 0.7 * x2) / 50.0)
    assert val == pytest.approx(t1 + t2 + t3, rel=1e-12)
    # 0.2*x1 + 0.9*x2 = 0 sends the log argument to the 1e-12 floor.
    floored = np.array([[0.9, -0.2]])
    out = float(eval_target(spec, floored)[0])
    assert np.isfinite(out)
    assert out < math.log(1e-11) + 10.0


def test_eval_target_single_point_returns_float():
    # A (d,) point gives a Python float; a (1, d) batch gives a (1,) array
    # whose only element is that same value.
    spec = TARGETS["m1"]
    val = eval_target(spec, np.array([0.6, -0.2]))
    batch = eval_target(spec, np.array([[0.6, -0.2]]))
    assert type(val) is float
    assert batch.shape == (1,)
    assert val == batch[0]


def test_eval_target_checks_dimension():
    with pytest.raises(ParameterError):
        eval_target(TARGETS["m2"], np.zeros((3, 3)))


def test_generate_shares_inputs_across_noise_levels():
    spec = TARGETS["m2"]
    quiet = generate(spec, 30, 0.0, Stream(9))
    noisy = generate(spec, 30, 0.05, Stream(9))
    assert np.array_equal(quiet.x, noisy.x)
    assert not np.array_equal(quiet.y, noisy.y)
    assert np.array_equal(quiet.y, eval_target(spec, quiet.x))


def test_generate_noise_magnitude():
    spec = TARGETS["m2"]
    data = generate(spec, 4000, 0.05, Stream(10))
    resid = data.y - eval_target(spec, data.x)
    assert float(np.std(resid)) == pytest.approx(0.05 * 5.57, rel=0.05)


def test_generate_rejects_nonstandard_noise():
    spec = TARGETS["m2"]
    with pytest.raises(ParameterError,
                       match="^noise: 0.042 is not a calibrated noise fraction; "
                             "use 0.0, 0.05, 0.1$"):
        generate(spec, 10, 0.042, Stream(0))
    with pytest.raises(ParameterError):
        generate(spec, 0, 0.05, Stream(0))


def test_reference_error_is_deterministic_and_positive():
    spec = TARGETS["m2"]
    a = reference_error(spec, 0.05, Stream(5), n=20, eval_n=100, realizations=3)
    b = reference_error(spec, 0.05, Stream(5), n=20, eval_n=100, realizations=3)
    assert a == b and a > 0.0


def test_scaled_errors_counts_failures():
    spec = TARGETS["m2"]
    reps = 4
    state = {"calls": 0}

    def flaky_fit(data, stream):
        state["calls"] += 1
        if state["calls"] == 2:
            raise ParameterError("forced failure")
        mean = float(np.mean(data.y))
        return lambda q: np.full(np.atleast_2d(q).shape[0], mean)

    values, failures = scaled_errors(
        flaky_fit, spec, 0.05, Stream(6), Stream(7), reference=1.0,
        n=15, eval_n=50, reps=reps,
    )
    assert failures == 1
    assert len(values) == reps - 1
    assert all(v >= 0.0 for v in values)


def test_scaled_errors_validates_inputs():
    spec = TARGETS["m2"]
    with pytest.raises(ParameterError):
        scaled_errors(lambda d, s: None, spec, 0.05, Stream(0), Stream(1), 1.0, reps=0)
    with pytest.raises(ParameterError):
        scaled_errors(lambda d, s: None, spec, 0.05, Stream(0), Stream(1), 0.0, reps=1)


def test_bench_config_quick_and_overrides():
    quick = BenchConfig.quick(seed=3)
    assert quick.targets == ("m2", "m4")
    assert quick.noises == (0.05,)
    assert quick.reps == 10
    assert quick.trials == 50
    assert quick.trial_overrides == ()
    assert quick.seed == 3

    full = BenchConfig()
    assert full.trials == 400
    assert full.trials_for("m1", 0.05) == 50
    assert full.trials_for("m1", 0.10) == 400
    assert full.trials_for("m2", 0.05) == 400
    # Noises match under the abs_tol=1e-12 rule the noise check uses.
    zero = BenchConfig.quick(noises=(1e-13,),
                             trial_overrides=((("m2", 0.0), 5),))
    assert zero.trials_for("m2", 1e-13) == 5
    assert zero.trials_for("m4", 1e-13) == 50


def test_bench_config_validation_and_echo():
    with pytest.raises(ParameterError):
        BenchConfig(targets=("m9",))
    with pytest.raises(ParameterError):
        BenchConfig(methods=("constant", "mystery"))
    with pytest.raises(ParameterError, match="noises: 0.07 is not"):
        BenchConfig(noises=(0.05, 0.07))
    # The tolerance generate() accepts.
    BenchConfig(noises=(0.0, 0.05 + 1e-13, 0.1))
    # An override trials_for could never match is refused; one for a
    # calibrated cell outside the grid (the full default's m1) is not.
    with pytest.raises(ParameterError,
                       match="^trial_overrides: 0.07 is not a calibrated"):
        BenchConfig.quick(trial_overrides=((("m2", 0.07), 5),))
    with pytest.raises(ParameterError,
                       match="^trial_overrides: unknown target 'm9'$"):
        BenchConfig.quick(trial_overrides=((("m9", 0.05), 5),))
    BenchConfig(targets=("m2",), noises=(0.1,))
    doc = BenchConfig().to_dict()
    assert "workers" not in doc
    assert doc["trial_overrides"] == [{"target": "m1", "noise": 0.05, "trials": 50}]


def test_sample_sizes_are_bounded_by_the_entry_budget():
    # n * d and eval_n * d (d the widest target's, 6 for m4) at most 2^24
    # entries; max(sample_sizes) * d and eval_n * d for rate.  The full and
    # quick protocols, rate's defaults and perfbench's bench_m2 config
    # are admitted.
    BenchConfig()
    BenchConfig.quick()
    BenchConfig.quick(targets=("m2",), noises=(0.05,), reps=2)
    RateConfig()
    BenchConfig.quick(targets=("m2",), n=2**22, eval_n=2**22,
                      methods=("constant", "proj-neural", "smooth-neural"))
    for key in ("n", "eval_n"):
        with pytest.raises(ParameterError,
                           match=f"^sample of {key}=4194305 rows x d=4 "):
            BenchConfig.quick(targets=("m2",), **{key: 2**22 + 1})
    RateConfig(sample_sizes=(1, 2, 3, 2**23), eval_n=2**23)
    with pytest.raises(ParameterError, match="^sample of sample_sizes="):
        RateConfig(sample_sizes=(1, 2, 3, 2**23 + 1))
    with pytest.raises(ParameterError, match="^sample of eval_n="):
        RateConfig(eval_n=2**23 + 1)


def test_distance_baselines_are_bounded_by_the_entry_budget():
    # The kernel, neighbor and rbf baselines hold the distances of the
    # held-out and of the eval_n rows to the n_learn learning rows, and
    # the rbf baseline n_learn^2 of them; at most 2^24 each.  The full
    # and quick protocols and perfbench's bench_m2 config are admitted
    # (test_sample_sizes_are_bounded_by_the_entry_budget).
    n_learn = baselines._learn_count(100)
    edge = ENTRY_BUDGET // n_learn
    for method in ("kernel", "neighbor", "rbf"):
        BenchConfig.quick(methods=(method,), eval_n=edge)
        with pytest.raises(ParameterError, match=(
                f"^the {method} baseline's distances of {edge + 1} rows x "
                f"{n_learn} learning rows exceed the supported maximum "
                f"{ENTRY_BUDGET} entries; lower eval_n$")):
            BenchConfig.quick(methods=("constant", method), eval_n=edge + 1)
    BenchConfig.quick(methods=("constant", "proj-neural"), eval_n=edge + 1)
    # The rbf system: n_learn = 4,096 is admitted, 4,097 is not.
    assert baselines._learn_count(5121) == 4096
    assert baselines._learn_count(5122) == 4097
    BenchConfig.quick(methods=("rbf",), n=5121, eval_n=10)
    with pytest.raises(ParameterError, match="^the rbf baseline's distances "
                       "of 4097 rows x 4097 learning rows .*; lower n$"):
        BenchConfig.quick(methods=("rbf",), n=5122, eval_n=10)
    BenchConfig.quick(methods=("kernel", "neighbor"), n=5122, eval_n=10)
    # The held-out rows of the kernel and neighbor baselines.
    big = 12_000
    assert (big - baselines._learn_count(big)) * baselines._learn_count(big) \
        > ENTRY_BUDGET
    with pytest.raises(ParameterError, match="^the kernel baseline's .*; "
                       "lower n$"):
        BenchConfig.quick(methods=("kernel", "neighbor"), n=big, eval_n=10)


def test_the_loop_budget_admits_every_protocol(monkeypatch):
    # A run may price at most 2^40 entries (features._checked_loops): the
    # full protocol, the quick one, rate's defaults and perfbench's
    # bench_m2 config, in that order, are admitted.
    prices = []
    check = simbench._checked_loops
    monkeypatch.setattr(simbench, "_checked_loops",
                        lambda work, keys: check(prices.append(work) or work,
                                                 keys))
    BenchConfig()
    BenchConfig.quick()
    RateConfig()
    BenchConfig.quick(targets=("m2",), noises=(0.05,), reps=2)
    assert [round(math.log2(w), 1) for w in prices] == [35.2, 28.2, 28.1, 24.6]
    # 29 times the full protocol's repetitions pass the budget.
    with pytest.raises(ParameterError, match="lower reps, trials, "):
        BenchConfig(reps=29 * 50)
    BenchConfig(reps=28 * 50)


def test_run_benchmark_mini_grid():
    config = BenchConfig(**MINI_BENCH)
    report = run_benchmark(config)
    assert len(report.cells) == 2
    cell = report.cell("m2", 0.05, "constant")
    assert cell.status == "ok"
    assert cell.failures == 0
    assert len(cell.scaled_values) == 2
    assert cell.reference > 0.0
    with pytest.raises(KeyError):
        report.cell("m2", 0.05, "rbf")

    # Determinism: a fresh run renders byte-identical text.
    again = run_benchmark(BenchConfig(**MINI_BENCH))
    assert again.to_csv_text() == report.to_csv_text()

    csv_text = report.to_csv_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "# fixnet benchmark report"
    assert lines[1] == "# seed: 0"
    assert lines[2].startswith("# safe-eval:")
    assert lines[3].startswith("# config:")
    assert lines[4] == "target,noise,method,status,median,iqr,reps,failures,reference"
    assert len(lines) == 5 + 2
    assert "workers" not in lines[3]

    md = report.to_markdown_text()
    for m in UNIMPLEMENTED_METHODS:
        assert f"| {m} | not implemented" in md
    assert "| constant |" in md and "| kernel |" in md


def test_report_cell_matches_noises_by_the_noise_rule():
    # A 1e-13 noise is admitted as the calibrated 0.0, so the cell it
    # made is found under 0.0 too, as trials_for finds its override.
    config = BenchConfig(**dict(MINI_BENCH, noises=(1e-13,),
                                methods=("constant",)))
    report = run_benchmark(config)
    cell = report.cell("m2", 0.0, "constant")
    assert cell is report.cell("m2", 1e-13, "constant")
    assert cell.noise == 1e-13 and cell.status == "ok"
    with pytest.raises(KeyError):
        report.cell("m2", 0.05, "constant")


def test_rate_config_validation():
    with pytest.raises(ParameterError):
        RateConfig(sample_sizes=(10, 20, 30))
    with pytest.raises(ParameterError):
        RateConfig(sample_sizes=(10, 20, 20, 30))
    with pytest.raises(ParameterError):
        RateConfig(seeds=0)
    # An empty evaluation sample made every mean error NaN, with exit 0.
    for eval_n in (0, -3):
        with pytest.raises(ParameterError,
                           match=f"^eval_n must be at least 1, got {eval_n}$"):
            RateConfig(eval_n=eval_n)
    with pytest.raises(ParameterError, match="^direction must have at least "):
        RateConfig(direction=())
    for noise_sd in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="^noise_sd must be finite "):
            RateConfig(noise_sd=noise_sd)
    assert "workers" not in RateConfig().to_dict()


def test_rate_experiment_flags_degenerate_noiseless_constant():
    config = RateConfig(
        sample_sizes=(10, 12, 14, 16),
        seeds=1,
        noise_sd=0.0,
        direction=(0.0, 0.0),
        trials=2,
        m_grid=(2,),
        eval_n=50,
    )
    result = rate_experiment(config)
    assert result.degenerate
    assert math.isnan(result.slope)
    assert all(e <= 1e-14 for e in result.mean_errors)
    assert "# degenerate: True" in result.to_csv_text(config)


def test_rate_experiment_smoke_run():
    config = RateConfig(
        sample_sizes=(20, 30, 40, 50),
        seeds=1,
        noise_sd=0.05,
        direction=(0.8, 0.6),
        trials=3,
        m_grid=(2,),
        eval_n=100,
    )
    result = rate_experiment(config)
    assert not result.degenerate
    assert math.isfinite(result.slope)
    assert len(result.mean_errors) == 4
    assert all(e > 0.0 for e in result.mean_errors)
    assert len(result.per_seed_errors[0]) == 1
    text = result.to_csv_text(config)
    assert "# slope:" in text
    assert text.count("\n") == 6 + 4
