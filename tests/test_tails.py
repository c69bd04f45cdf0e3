"""Tests for the moment/tail toolbox."""

import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from aclaw.tails import (
    fit_log_survival_slope,
    quad_tail_check,
    survival_points,
    theta_root,
    whittle_check,
)


def test_theta_matches_gamma_expression():
    for s in (2.0, 3.5, 10.0, 40.0):
        direct = 2 ** (s / 2) / math.sqrt(math.pi) * gamma_fn((s + 1) / 2)
        assert theta_root(s) == pytest.approx(direct ** (1 / s), rel=1e-12)


def test_theta_root_bound_dense():
    for s in np.linspace(2.0, 64.0, 200):
        assert theta_root(s) <= math.sqrt(s)


def test_theta_root_is_gaussian_p_norm():
    rng = np.random.Generator(np.random.Philox(key=1))
    xs = rng.standard_normal(400000)
    for p in (2.0, 4.0):
        emp = np.mean(np.abs(xs) ** p) ** (1 / p)
        assert emp == pytest.approx(theta_root(p), rel=0.02)


def test_gamma_recursion():
    for s in np.linspace(1.0, 30.0, 59):
        assert s * gamma_fn(s) == pytest.approx(gamma_fn(s + 1), rel=1e-12)


def test_whittle_single_coordinate():
    # v = e_1: LHS = |Y_1|_p <= 2 Theta(p)^(1/p) |Y_1|_p with slack >= 2
    rep = whittle_check("rademacher", n=1, p=4.0, trials=4000, mode="linear", seed=3)
    assert rep.holds
    assert rep.rhs_bound / max(rep.lhs_estimate, 1e-12) >= 2.0


def test_whittle_rademacher_product_exact():
    # B = e1 e2^T: the form is Y1 Y2, so |Y1 Y2|_p = 1 exactly for
    # rademacher entries, far below the bound 8 Theta(p)^(1/p) Theta(2p)^(1/2p)
    lhs = 1.0
    rhs = 8.0 * theta_root(4.0) * theta_root(8.0)
    assert lhs <= rhs
    rep = whittle_check("rademacher", n=2, p=4.0, trials=2000, mode="quadratic",
                        seed=8)
    assert rep.holds


def test_whittle_linear_sweep():
    for dist in ("rademacher", "gaussian", "uniform"):
        rep = whittle_check(dist, n=32, p=4.0, trials=20000, mode="linear", seed=5)
        assert rep.holds, (dist, rep)


def test_whittle_quadratic_gaussian():
    for seed in range(3):
        rep = whittle_check("gaussian", n=32, p=4.0, trials=20000,
                            mode="quadratic", seed=seed)
        assert rep.holds, rep


def test_whittle_validation():
    with pytest.raises(ValueError):
        whittle_check("gaussian", n=4, p=32.0)
    with pytest.raises(ValueError):
        whittle_check("cauchy", n=4, p=4.0, trials=10)


def test_quad_tail_identity_matrix():
    rep = quad_tail_check(seed=4)
    assert rep.slope < 0
    assert rep.decays
    assert rep.center_abs <= rep.center_tol


def test_survival_and_slope_helpers():
    rng = np.random.Generator(np.random.Philox(key=9))
    vals = rng.exponential(size=20000)
    ts, surv = survival_points(vals)
    assert np.all(np.diff(surv) <= 1e-12)  # non-increasing
    slope, se, _ = fit_log_survival_slope(ts, surv)
    # exponential has log-survival slope exactly -1
    assert slope == pytest.approx(-1.0, abs=0.1)
    assert slope + 2 * se < 0
