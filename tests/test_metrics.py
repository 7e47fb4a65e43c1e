"""Metric primitives: dispersion, ratios, consistency, z statistic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtscore.metrics import (
    MetricContext,
    downside_deviation,
    generalization_ratio,
    mean_and_std,
    r_squared_consistency,
    sharpe,
    sortino,
    z_score,
)


def test_mean_and_std_population():
    mu, sigma = mean_and_std(np.array([1.0, 2.0, 3.0, 4.0]))
    assert mu == 2.5
    assert sigma == pytest.approx(math.sqrt(1.25))  # divide by n, not n-1


def test_mean_and_std_single_observation():
    mu, sigma = mean_and_std(np.array([0.07]))
    assert (mu, sigma) == (0.07, 0.0)


def test_downside_deviation_hand_value():
    # shortfalls below 0: only -0.1 -> sqrt(0.01 / 2)
    r = np.array([0.1, -0.1])
    assert downside_deviation(r) == pytest.approx(math.sqrt(0.005))
    assert downside_deviation(np.array([0.1, 0.2])) == 0.0


def test_downside_deviation_mar_shift():
    r = np.array([0.1, 0.0])
    # against mar = 0.1 the 0.0 return is a -0.1 shortfall
    assert downside_deviation(r, mar=0.1) == pytest.approx(math.sqrt(0.005))


def test_sharpe_sortino_values():
    assert sharpe(0.02, 0.04, 1e-6) == pytest.approx(0.02 / 0.040001)
    assert sortino(0.02, 0.01, 1e-6) == pytest.approx(0.02 / 0.010001)


def test_r_squared_perfect_line():
    assert r_squared_consistency(np.array([0.0, 1.0, 2.0, 3.0])) == 1.0


def test_r_squared_flat_curve_is_zero():
    assert r_squared_consistency(np.array([0.5, 0.5, 0.5])) == 0.0


def test_r_squared_matches_polyfit_oracle():
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(50):
        n = int(rng.integers(3, 60))
        y = rng.standard_normal(n).cumsum()
        x = np.arange(n, dtype=float)
        slope, intercept = np.polyfit(x, y, 1)
        ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        want = 1.0 - ss_res / ss_tot
        assert r_squared_consistency(y) == pytest.approx(want, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(0.01, 100.0),
    shift=st.floats(-50.0, 50.0),
    seed=st.integers(0, 10_000),
)
def test_r_squared_affine_invariance(scale, shift, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    y = rng.standard_normal(20).cumsum()
    base = r_squared_consistency(y)
    assert r_squared_consistency(scale * y + shift) == pytest.approx(
        base, abs=1e-8)


def test_z_score_hand_value():
    # (0.02 - 0.01) / (0.05 / sqrt(25) + eps)
    z = z_score(0.02, 0.01, 0.05, 25, 1e-6)
    assert z == pytest.approx(0.01 / 0.010001)


def test_z_score_antisymmetric_in_means():
    z1 = z_score(0.03, 0.01, 0.04, 30, 1e-6)
    z2 = z_score(0.01, 0.03, 0.04, 30, 1e-6)
    assert z1 == pytest.approx(-z2)


def test_z_score_zero_sigma_finite():
    z = z_score(0.02, 0.0, 0.0, 10, 1e-6)
    assert z == pytest.approx(0.02 / 1e-6)


@settings(max_examples=50, deadline=None)
@given(
    mu=st.floats(-0.1, 0.1), mu_m=st.floats(-0.1, 0.1),
    sigma=st.floats(0.0, 0.5), n=st.integers(1, 500),
)
def test_z_score_sign_property(mu, mu_m, sigma, n):
    z = z_score(mu, mu_m, sigma, n, 1e-6)
    if mu > mu_m:
        assert z > 0
    elif mu < mu_m:
        assert z < 0
    else:
        assert z == 0


def test_generalization_ratio():
    assert generalization_ratio(0.1, 0.4) == pytest.approx(0.25)
    assert math.isnan(generalization_ratio(0.1, 0.0))
    assert math.isnan(generalization_ratio(0.1, -0.2))


def test_metric_context_invariants():
    ok = dict(mu=0.01, sigma=0.02, mu_m=0.0, n=50, sigma_d=0.01, r2=0.5,
              z=1.0)
    MetricContext(**ok)
