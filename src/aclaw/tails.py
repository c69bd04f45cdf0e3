"""p-norm inequalities for linear and quadratic forms in independent
mean-zero variables.

The central object is Theta(s) = 2^(s/2) Gamma((s+1)/2) / sqrt(pi), the
p-th absolute moment of a standard gaussian scaled so that
Theta(s)^(1/s) <= sqrt(s) for s >= 2.  The p-norm of sum v(i) Y_i (resp. of
the centered quadratic form) is bounded by 2 Theta(p)^(1/p) times the l2
size of the coefficients (resp. with an extra 8 Theta(2p)^(1/2p)).

Monte Carlo checks assert the bounds only up to bootstrap confidence on the
estimated norms, and tail-decay claims are fitted-shape-only: the underlying
constants are existential and never asserted numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wigner import _draw_offdiag, _rng

__all__ = [
    "theta_root",
    "WhittleReport",
    "whittle_check",
    "QuadTailReport",
    "quad_tail_check",
    "survival_points",
    "fit_log_survival_slope",
]

_DISTS = ("rademacher", "gaussian", "uniform")
#: each test distribution is the entry law of a Wigner ensemble at N = 1
_ENSEMBLE_OF = dict(zip(_DISTS, ("rademacher", "real-gaussian", "uniform-bounded")))


def _log_theta(s: float) -> float:
    from scipy.special import gammaln

    return (0.5 * s * math.log(2.0) + gammaln((s + 1.0) / 2.0)
            - 0.5 * math.log(math.pi))


def theta_root(s: float) -> float:
    """Theta(s)^(1/s), the gaussian p-norm; at most sqrt(s) for s >= 2."""
    if s <= 0:
        raise ValueError("s must be positive")
    return math.exp(_log_theta(s) / s)


def _draw(dist: str, rng, size) -> np.ndarray:
    """Real mean-zero unit-variance samples."""
    if dist not in _ENSEMBLE_OF:
        raise ValueError(f"unknown distribution {dist!r}; pick from {_DISTS}")
    return _draw_offdiag(rng, _ENSEMBLE_OF[dist], size, 1)


def _exact_p_norm(dist: str, p: float) -> float:
    """Closed-form |Y|_p for the unit-variance test distributions."""
    if dist == "rademacher":
        return 1.0
    if dist == "gaussian":
        return theta_root(p)
    if dist == "uniform":
        # E|Y|^p for uniform on [-sqrt(3), sqrt(3)] is 3^(p/2)/(p+1)
        return math.sqrt(3.0) / (p + 1.0) ** (1.0 / p)
    raise ValueError(dist)


def _bootstrap_ucb(samples_p: np.ndarray, p: float, rng) -> float:
    """Upper 99% confidence bound for (E|S|^p)^(1/p) from 200 resamplings
    of the trials."""
    n = len(samples_p)
    idx = rng.integers(0, n, size=(200, n))
    means = samples_p[idx].mean(axis=1)
    return float(np.quantile(means, 0.99) ** (1.0 / p))


@dataclass
class WhittleReport:
    """One Monte Carlo verdict for the linear or quadratic p-norm bound."""

    lhs_estimate: float
    lhs_ucb99: float
    rhs_bound: float

    @property
    def holds(self) -> bool:
        return self.lhs_ucb99 <= self.rhs_bound


def whittle_check(dist: str, n: int, p: float, trials: int = 20000,
                  mode: str = "linear", seed: int = 0) -> WhittleReport:
    """Monte Carlo check of the p-norm bound for a random coefficient vector
    (linear mode) or zero-diagonal coefficient matrix (quadratic mode).

    The left side is estimated from ``trials`` draws with a bootstrap 99%
    upper confidence bound; the right side uses the closed-form p-norms of
    the entry distribution.  Real mean-zero distributions only.
    """
    if not 2 <= p <= 16:
        raise ValueError("p must lie in [2, 16]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = _rng(seed, 1)
    ynorm = _exact_p_norm(dist, p)
    if mode == "linear":
        v = rng.standard_normal(n)
        ys = _draw(dist, rng, (trials, n))
        s = ys @ v
        rhs = 2.0 * theta_root(p) * math.sqrt(float(np.sum(v**2))) * ynorm
    elif mode == "quadratic":
        b = rng.standard_normal((n, n))
        np.fill_diagonal(b, 0.0)
        ys = _draw(dist, rng, (trials, n))
        # centered quadratic form; E[Y_i Y_j] = 0 off the diagonal
        s = np.einsum("ti,ij,tj->t", ys, b, ys, optimize=True)
        y2p = _exact_p_norm(dist, 2.0 * p)
        rhs = (8.0 * theta_root(p) * theta_root(2.0 * p)
               * math.sqrt(float(np.sum(b**2))) * y2p**2)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    abs_p = np.abs(s) ** p
    lhs = float(abs_p.mean() ** (1.0 / p))
    ucb = _bootstrap_ucb(abs_p, p, rng)
    return WhittleReport(lhs_estimate=lhs, lhs_ucb99=ucb, rhs_bound=rhs)


def survival_points(values: np.ndarray):
    """(t, empirical survival) pairs at the 15 quantile levels
    0.5, 0.535, ..., 0.99."""
    values = np.sort(np.asarray(values, dtype=float))
    ts = np.quantile(values, np.linspace(0.5, 0.99, 15))
    surv = np.array([(values > t).mean() for t in ts])
    return ts, surv


def fit_log_survival_slope(ts: np.ndarray, surv: np.ndarray):
    """Least-squares fit of log survival against t, restricted to levels in
    (0, 1); returns (slope, stderr, intercept)."""
    mask = (surv > 0) & (surv < 1)
    t, y = ts[mask], np.log(surv[mask])
    if len(t) < 3:
        raise ValueError("not enough nondegenerate survival points to fit")
    a = np.vstack([t, np.ones_like(t)]).T
    coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    dof = max(len(t) - 2, 1)
    sigma2 = (res[0] / dof) if res.size else 0.0
    cov = sigma2 * np.linalg.inv(a.T @ a)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0))), float(coef[1])


@dataclass
class QuadTailReport:
    """Empirical survival of the normalized quadratic-form deviation and the
    fitted log-linear decay slope (shape-only: the rate constants are
    existential)."""

    ts: np.ndarray
    survival: np.ndarray
    slope: float
    slope_stderr: float
    intercept: float
    center_abs: float
    center_tol: float

    @property
    def decays(self) -> bool:
        """Whether the fitted slope is negative by two standard errors.
        Descriptive only, and no verdict gates on it: a least-squares slope
        of a non-increasing survival curve against increasing levels is
        <= 0 by Chebyshev's sum inequality, so the flag shows how clearly
        the tail decays, not whether it does.  ``aclaw tails`` and criterion
        11 gate on ``center_abs <= center_tol``, the check that can fail."""
        return self.slope + 2.0 * self.slope_stderr < 0.0

    def fitted(self, t: float) -> float:
        """The fitted log-linear survival bound exp(intercept + slope t)."""
        return math.exp(self.intercept + self.slope * t)

    def csv_rows(self):
        """(header, rows) of (t, empirical survival, fitted bound)."""
        header = ["t", "survival", "fitted_bound"]
        rows = [[float(t), float(s), self.fitted(float(t))]
                for t, s in zip(self.ts, self.survival)]
        return header, rows


def quad_tail_check(seed: int = 0) -> QuadTailReport:
    """Monte Carlo tail study, over 1000 trials, of |Y B Y* - Y0 - E(Y B Y*)|
    normalized by (gamma1/sqrt(N)) max(1, |B|_F/sqrt(N)), for k x k blocks
    Y_i and Y0 with real gaussian entries of scale sqrt(gamma1/N)/k, at
    k = 1, N = 64, gamma0 = 1/2, gamma1 = 1 and B = I_64.  There Y is a row
    of N entries of scale 1/sqrt(N), Y B Y* = Y Y*, its expectation is 1 and
    the normalization is 1/sqrt(N).

    The form is coupled (its second family is the first, Yhat_i = Y_i),
    which makes the centering term nonzero; the expectation is computed in
    closed form from the entry variance.  ``center_abs``, the absolute
    sample mean of the centered form, tests that centering against
    ``center_tol``; the fitted slope of log survival describes the decay
    shape of the tail.
    """
    n, trials = 64, 1000
    rng = _rng(seed, 7)
    entry_sd = 1.0 / math.sqrt(n)
    expect = entry_sd**2 * n
    vals = np.empty(trials)
    mean = 0.0
    for t in range(trials):
        y = _draw("gaussian", rng, (1, n)) * entry_sd
        y0 = _draw("gaussian", rng, 1)[0] * entry_sd
        form = (y @ y.T)[0, 0]
        vals[t] = abs(form - y0 - expect) / entry_sd
        mean += (form - expect) / trials
    # statistic in normalized t-coordinates: Pr(. > t^(2 gamma0 + 1)) = Pr(. > t^2)
    ts, surv = survival_points(vals ** 0.5)
    slope, stderr, intercept = fit_log_survival_slope(ts, surv)
    # 6 var |B|_F / sqrt(trials)
    center_tol = 6.0 * entry_sd**2 * math.sqrt(n) / math.sqrt(trials)
    return QuadTailReport(ts=ts, survival=surv, slope=slope, slope_stderr=stderr,
                          intercept=intercept, center_abs=float(abs(mean)),
                          center_tol=float(center_tol))
