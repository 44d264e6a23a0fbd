"""Tests for the logistic squasher, its derivatives, and the derived
admissibility constants."""

import math

import numpy as np
import pytest

from fixnet.activation import ActivationProfile, admissibility_constants, sigma, sigma_derivative
from fixnet.errors import ParameterError

# Independently derived extrema of the logistic derivatives: the global
# maximum of |sigma''| is sqrt(3)/18 (attained where sigma = (3 - sqrt 3)/6)
# and the global maximum of |sigma'''| is 1/8 (attained at the origin).
SUP_D2_EXACT = math.sqrt(3.0) / 18.0
SUP_D3_EXACT = 0.125


def test_sigma_basic_values():
    assert sigma(0.0) == 0.5
    assert sigma(1e4) == 1.0
    assert sigma(-1e4) == 0.0
    xs = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    expected = 1.0 / (1.0 + np.exp(-xs))
    assert np.allclose(sigma(xs), expected, rtol=1e-15, atol=0.0)


def test_sigma_no_overflow_in_tails():
    with np.errstate(over="raise", invalid="raise"):
        vals = sigma(np.array([-750.0, -1e8, 750.0, 1e8]))
    assert np.all(np.isfinite(vals))
    assert vals[0] >= 0.0 and vals[-1] <= 1.0


def _masked_sigma(x):
    """The two-branch form, gathering each branch through a boolean mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigma_is_bitwise_the_masked_two_branch_form():
    gen = np.random.default_rng(4)
    specials = np.array([0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 800.0,
                         -800.0, np.inf, -np.inf])
    for x in (gen.standard_normal(2**15), 30.0 * gen.standard_normal(2**15),
              gen.uniform(-800.0, 800.0, 2**15), specials):
        got = sigma(x)
        assert np.array_equal(got.view(np.int64), _masked_sigma(x).view(np.int64))
    assert [sigma(v) for v in specials[:2]] == [0.5, 0.5]
    assert [sigma(v) for v in specials[-2:]] == [1.0, 0.0]
    # NaN in, NaN out (the sign bit of a NaN is not pinned).
    out = sigma(np.array([np.nan, 1.0, -np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[2]) and out[1] == sigma(1.0)
    assert math.isnan(sigma(math.nan))


def test_sigma_monotone_and_symmetric():
    xs = np.linspace(-30.0, 30.0, 4001)
    vals = sigma(xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.max(np.abs(vals + sigma(-xs) - 1.0)) <= 1e-15


def test_sigma_derivative_closed_forms_at_anchors():
    assert sigma_derivative(0.0, 1) == 0.25
    # sigma''(1) = (e^-2 - e^-1) / (1 + e^-1)^3, computed independently.
    e1, e2 = math.exp(-1.0), math.exp(-2.0)
    expected = (e2 - e1) / (1.0 + e1) ** 3
    assert sigma_derivative(1.0, 2) == pytest.approx(expected, rel=1e-14)
    assert expected < 0.0


@pytest.mark.parametrize("order,h,tol", [(1, 1e-6, 1e-9), (2, 1e-4, 1e-7), (3, 1e-3, 1e-5)])
def test_sigma_derivative_matches_finite_differences(order, h, tol):
    xs = np.array([-2.0, -0.7, 0.0, 0.4, 1.0, 2.5])
    if order == 1:
        approx = (sigma(xs + h) - sigma(xs - h)) / (2.0 * h)
    elif order == 2:
        approx = (sigma(xs + h) - 2.0 * sigma(xs) + sigma(xs - h)) / h**2
    else:
        approx = (
            sigma(xs + 2 * h) - 2.0 * sigma(xs + h) + 2.0 * sigma(xs - h) - sigma(xs - 2 * h)
        ) / (2.0 * h**3)
    assert np.max(np.abs(sigma_derivative(xs, order) - approx)) <= tol


def test_sigma_derivative_rejects_bad_order():
    for order in (0, 4, -1, 1.5):
        with pytest.raises(ParameterError):
            sigma_derivative(0.0, order)


def test_profile_anchor_values():
    prof = admissibility_constants()
    assert prof.t_sigma_id == 0.0
    assert prof.t_sigma == 1.0
    assert prof.d1_at_id == 0.25
    assert prof.d2_at_sq == pytest.approx(sigma_derivative(1.0, 2), rel=1e-15)


def test_profile_sup_norms_bracket_true_extrema():
    prof = admissibility_constants()
    # The measured sups must dominate the true extrema (else a bound using
    # them could be invalid) while staying within 0.1% of them.
    assert SUP_D2_EXACT <= prof.sup_d2 <= SUP_D2_EXACT * 1.001
    assert SUP_D3_EXACT <= prof.sup_d3 <= SUP_D3_EXACT * 1.001


def test_profile_composite_constants():
    prof = admissibility_constants()
    top = max(prof.sup_d2, prof.sup_d3, 1.0)
    bot = min(2.0 * prof.d1_at_id, abs(prof.d2_at_sq), 1.0)
    assert top == 1.0
    assert bot == abs(prof.d2_at_sq)
    assert prof.relu_constant == pytest.approx(56.0 / abs(prof.d2_at_sq), rel=1e-15)
    assert prof.hat_constant == pytest.approx(1792.0 / abs(prof.d2_at_sq), rel=1e-15)
    assert 616.0 < prof.relu_constant < 617.0
    assert 19722.0 < prof.hat_constant < 19724.0


def test_profile_is_cached_and_frozen():
    prof = admissibility_constants()
    assert admissibility_constants() is prof
    assert isinstance(prof, ActivationProfile)
    with pytest.raises(Exception):
        prof.sup_d2 = 0.0
