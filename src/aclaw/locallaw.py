"""End-to-end verification harnesses for the local law.

The deterministic statement under test: with K the supremum of the
fluctuation statistic over the rectangle |Re z| <= 8, 1/N <= Im z <= tau,
and for constants theta, c, every z in the admissible set

    X = { z in rectangle : 4 c^2 theta^2 K^2 / N <= h^2 Im z }

satisfies max_i |G_i - M| <= theta K / sqrt(N h Im z).  At desk scale the
constants theta and c of the underlying theorem are existential (and
astronomical), so every report additionally carries the empirical star
constant theta* = the smallest theta making the bound hold on the admissible
grid, keeping runs informative even when the literal constants would make X
empty.  A scalar variant of the same machinery covers the semicircle law
(edges at +-2 instead of +-zeta), and the eigenvector delocalization bound
max_i |v(i)| <= sqrt(2 sigma) is checked with sigma solving h^2 sigma = rho
at z = lambda + i sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AclawError
from .freelaw import edge_distance, law_constants, m_ac
from .grids import rect_grid, uniform_net
from .linearize import (AnticommutatorSpectrum, _check_upper_half_plane,
                        _fluct_from, build_linearization, fluctuation_sup,
                        grid_corner_blocks, identity_spot_check)
from .sdcore import sd_semicircle, sd_solution_ac
from .wigner import EnsembleSpec, WignerPair, norm_at_most, sample_pair

__all__ = [
    "NormHypothesisError",
    "RhoPreconditionError",
    "GridRow",
    "LocalLawReport",
    "DelocalizationRow",
    "DelocalizationReport",
    "SemicircleStats",
    "SemicircleReport",
    "ScalingReport",
    "default_grid",
    "verify_local_law",
    "construct_k",
    "empirical_k",
    "sigma_solve",
    "delocalization_check",
    "figure1_data",
    "sc_edge_distance",
    "semicircle_stats",
    "semicircle_locallaw",
    "scaling_law_study",
]


class NormHypothesisError(AclawError):
    """The pair violates max(|U|, |V|) <= 4, required by the theorems."""


class RhoPreconditionError(AclawError):
    """rho = 4 c^2 K^2 / N is not below 1 (delocalization assumption)."""


def default_grid(n: int, tau: float = 8.0, n_re: int = 13,
                 n_im: int = 10) -> np.ndarray:
    """Verification grid: linear in Re z, logarithmic in Im z from 1/N."""
    return rect_grid(-8.0, 8.0, n_re, 1.0 / n, tau, n_im)


@dataclass
class GridRow:
    """One verified grid point: every row records both sides of the bound and
    whether the point is in the admissible set."""

    z: complex
    h: float
    lhs: float
    rhs: float
    admissible: bool
    holds: bool


@dataclass
class LocalLawReport:
    """Outcome of a local-law verification run."""

    n: int
    ensemble: str
    seed: int
    tau: float
    theta: float
    c_config: float
    spacing: float
    k_stat: float
    rho: float
    x_set_empty: bool
    rows: list
    theta_star: float
    theta_star_self: float = math.nan
    degenerate: bool = False

    @property
    def admissible_rows(self) -> list:
        return [r for r in self.rows if r.admissible]


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_c_config(c_config: float) -> None:
    # c enters only as c^2: a negative c would run as |c|, and c = 0 would
    # admit every point
    if not (math.isfinite(c_config) and c_config > 0):
        raise ValueError(f"c_config must be positive and finite, got {c_config}")


def _in_rectangle(z: complex, n: int, tau: float, re_max: float) -> bool:
    return (abs(z.real) <= re_max + 1e-12
            and 1.0 / n - 1e-12 <= z.imag <= tau + 1e-12)


def _smallest_valid(scaled: np.ndarray, gate: np.ndarray, factor: float, n: int,
                    unit: float, floor: float) -> float:
    """Smallest c among ``floor`` and the larger scaled / unit such that every
    ``scaled`` value with ``gate`` >= factor c^2 unit^2 / n is <= c unit
    (validity is monotone in c); max(floor, max scaled / unit) if none is."""
    cands = scaled / unit
    for c in sorted({floor, *cands[cands > floor]}):
        thresh = factor * c**2 * unit**2 / n
        if np.all(scaled[gate >= thresh] <= c * unit):
            return float(c)
    return float(max(floor, scaled.max() / unit))


def self_consistent_theta_star(rows, k_stat: float, n: int, factor: float) -> float:
    """Smallest theta whose bound holds on its own admissible set, the gate
    factor * theta^2 * K^2 / N <= h^2 Im z (NaN for no rows)."""
    scaled = np.array([r.lhs * math.sqrt(n * r.h * r.z.imag) for r in rows])
    gate = np.array([r.h**2 * r.z.imag for r in rows])
    return _smallest_valid(scaled, gate, factor, n, k_stat, 0.0) if rows else math.nan


def _grid_rows(points, n: int, tau: float, re_max: float, theta: float,
               k_stat: float, rho: float, factor: float):
    """(rows, theta_star, theta_star_self) of the bound theta K /
    sqrt(N h Im z) at each (z, h, lhs) of ``points``; a row is admissible in
    |Re z| <= re_max, 1/N <= Im z <= tau when rho <= h^2 Im z."""
    rows = []
    for z, h, lhs in points:
        rhs = theta * k_stat / math.sqrt(n * h * z.imag)
        admissible = _in_rectangle(z, n, tau, re_max) and rho <= h * h * z.imag
        rows.append(GridRow(z=z, h=h, lhs=lhs, rhs=rhs, admissible=admissible,
                            holds=lhs <= rhs))
    adm = [r for r in rows if r.admissible]
    theta_star = (max(r.lhs * math.sqrt(n * r.h * r.z.imag) / k_stat for r in adm)
                  if adm else math.nan)
    return rows, theta_star, self_consistent_theta_star(rows, k_stat, n, factor)


def verify_local_law(pair: WignerPair, z_grid=None, tau: float = 8.0,
                     theta: float = 1.0, c_config: float = 1.0,
                     spacing: float = 1.0) -> LocalLawReport:
    """Verify the deterministic local-law implication on a grid.

    Computes K = twice the netted supremum of the fluctuation statistic over
    the rectangle, then evaluates max_i |G_i - M| against
    theta K / sqrt(N h Im z) at every grid point, flagging admissible-set
    membership, and reports the empirical star constant.

    Only the net computes the fluctuation statistic.  ``fluctuation_sup``
    screens the whole net in the eigenbasis of {UV} and runs the Schur
    route ``resolvent_stats`` only near the screened maximum (one point
    per pair in practice), so K keeps the route's digits.  A grid row needs
    only the corner blocks G_i, 9N of the resolvent's 9N^2 entries, and
    ``grid_corner_blocks`` forms just those for the whole grid: per row the
    N x N inverse g = ({UV} - z)^-1, C g (2 N^3) and diagonal tiles of two
    products, with the bits of ``resolvent_stats``' ``g_i``.  No W and no
    3N x 3N resolvent is built for a row.  The conditioning refusal runs at
    every net and grid point, and so does the N <= 64 direct-inversion
    cross-check, which at a grid point compares the 9N corner entries with
    those of the direct inverse (1e-8 relative), since the others are not
    formed.  Reading the grid rows from the net's eigenbasis
    waits for the fix of the ``theta_star_self`` rounding defect: until
    then any last-digit change to a row's lhs can move ``theta_star_self``
    past the reference tolerance, which is why the rows keep the
    definitional product's digits.  (``semicircle_locallaw`` deliberately
    keeps the full ``semicircle_stats`` at its grid rows: their row-sum
    residuals go into the reported ``max_row_sum_residual``.)

    Refuses pairs with max(|U|, |V|) > 4 (the theorem hypothesis),
    non-finite tau or theta (a NaN constant would admit no row and pass
    vacuously) and a non-finite or non-positive c_config.
    """
    _require_finite(tau=tau, theta=theta)
    _require_c_config(c_config)
    if tau < 8.0:
        raise ValueError("tau must be >= 8")
    if theta < 1.0:
        raise ValueError("theta must be >= 1")
    lin = build_linearization(pair)
    if not lin.norms_ok:
        raise NormHypothesisError(
            f"max(|U|, |V|) = {max(lin.norm_u, lin.norm_v):.3f} exceeds 4")
    n = pair.n
    if z_grid is None:
        z_grid = default_grid(n, tau)
    net = fluctuation_sup(lin, (-8.0, 8.0, 1.0 / n, tau), spacing)
    k_stat = net.k2
    rho = 4.0 * c_config**2 * theta**2 * k_stat**2 / n
    zs = [complex(z) for z in z_grid]
    points = []
    for z, g_i in zip(zs, grid_corner_blocks(lin, zs)):
        m_mat = sd_solution_ac(z).m_mat
        lhs = float(np.linalg.norm(g_i - m_mat[None, :, :], 2,
                                   axis=(1, 2)).max())
        points.append((z, edge_distance(z), lhs))
    rows, theta_star, theta_star_self = _grid_rows(
        points, n, tau, 8.0, theta, k_stat, rho, 4.0 * c_config**2)
    return LocalLawReport(
        n=n, ensemble=pair.spec.ensemble, seed=pair.spec.seed, tau=tau,
        theta=theta, c_config=c_config, spacing=spacing, k_stat=k_stat,
        rho=rho, x_set_empty=rho > tau, rows=rows, theta_star=theta_star,
        theta_star_self=theta_star_self,
        degenerate=max(lin.norm_u, lin.norm_v) == 0.0)


def construct_k(pair: WignerPair, theta: float = 1.0, spacing: float = 1.0) -> float:
    """The netted random constant: theta times twice the maximum of the
    fluctuation statistic over a uniform net of the rectangle |Re z| <= 8,
    1/N <= Im z <= 8.  Always at least 2 theta."""
    lin = build_linearization(pair)
    net = fluctuation_sup(lin, (-8.0, 8.0, 1.0 / pair.n, 8.0), spacing)
    return theta * net.k2


def _scaled_deviations(spectrum: AnticommutatorSpectrum, zs: np.ndarray,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """At every z of ``zs``: the scaled deviation
    max_i |({UV} - z)^-1 (i,i) - m(z)| sqrt(N h Im z) and the gate h^2 Im z."""
    law = [m_ac(complex(z)) for z in zs]
    m = np.array([pt.m for pt in law], dtype=complex)
    h = np.array([pt.h for pt in law], dtype=float)
    lhs = np.abs(spectrum.resolvent_diags(zs) - m).max(axis=0)
    return lhs * np.sqrt(n * h * zs.imag), h * h * zs.imag


def empirical_k(pair: WignerPair, c_config: float = 1.0,
                spectrum: AnticommutatorSpectrum | None = None) -> float:
    """Smallest K (>= 2) satisfying the main-law property on a net:
    max_i |({UV} - z)^-1 (i,i) - m| <= K / sqrt(N h Im z) at every net point
    with 4 c^2 K^2 / N <= h^2 Im z.  The net is the 17 x 12 grid of
    |Re z| <= 8, 1/N <= Im z <= 8.

    This is the desk-scale surrogate for the theorem's random constant: the
    netted fluctuation supremum times 2 dominates it but is typically
    far too large for the delocalization corollary's rho < 1 assumption at
    moderate N.  The acceptance condition is monotone in K, so the minimum
    is found by scanning the candidate values.  ``spectrum`` is the pair's
    eigendecomposition when the caller already holds it.  Refuses a
    non-finite or non-positive c_config.
    """
    _require_c_config(c_config)
    n = pair.n
    if spectrum is None:
        spectrum = AnticommutatorSpectrum.from_pair(pair)
    scaled, gate = _scaled_deviations(
        spectrum, rect_grid(-8.0, 8.0, 17, 1.0 / n, 8.0, 12), n)
    return _smallest_valid(scaled, gate, 4.0 * c_config**2, n, 1.0, 2.0)


def sigma_solve(lam, rho: float):
    """The unique sigma in (0, 1] with h(lam + i sigma)^2 sigma = rho, by
    100 bisection steps on [1e-12, 1] (the map is strictly increasing in
    sigma).

    ``lam`` may be an array: all its entries are bisected at once and an
    array of sigmas is returned, each equal to the scalar call's."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    lam = np.asarray(lam, dtype=float)
    zeta = law_constants().zeta
    lo = np.full(lam.shape, 1e-12)
    hi = np.ones(lam.shape)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        # edge_distance(lam + i mid), elementwise
        h = np.minimum(np.minimum(np.hypot(lam - zeta, mid),
                                  np.hypot(lam + zeta, mid)), 1.0)
        # squared by libm pow, as the float h ** 2 of a scalar evaluation;
        # numpy's h * h differs from it in the last bit on about one input
        # in a thousand, which can move the bisection's final digits
        h2 = np.array([d ** 2 for d in h.ravel().tolist()]).reshape(h.shape)
        below = h2 * mid - rho <= 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    sigma = 0.5 * (lo + hi)
    return float(sigma) if sigma.ndim == 0 else sigma


@dataclass
class DelocalizationRow:
    lam: float
    sigma: float
    max_component: float
    bound: float
    holds: bool


@dataclass
class DelocalizationReport:
    n: int
    k_stat: float
    c_config: float
    rho: float
    rows: list

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.rows)


def delocalization_check(pair: WignerPair, k_stat: float,
                         c_config: float = 1.0,
                         spectrum: AnticommutatorSpectrum | None = None
                         ) -> DelocalizationReport:
    """Check max_i |v(i)| <= sqrt(2 sigma) for every unit eigenvector of
    {UV} with |eigenvalue| <= 8, where sigma solves h^2 sigma = rho at
    z = lambda + i sigma and rho = 4 c^2 K^2 / N.

    Refuses a non-finite or non-positive k_stat or c_config (each enters
    only squared), and refuses when max(|U|, |V|) > 4 or rho >= 1 (the simplifying assumption
    of the underlying bound).  ``spectrum`` is the pair's eigendecomposition
    when the caller already holds it.
    """
    if not (math.isfinite(k_stat) and k_stat > 0):
        raise ValueError(f"k_stat must be positive and finite, got {k_stat}")
    _require_c_config(c_config)
    if not (norm_at_most(pair.u, 4.0) and norm_at_most(pair.v, 4.0)):
        raise NormHypothesisError("pair violates max(|U|, |V|) <= 4")
    n = pair.n
    rho = 4.0 * c_config**2 * k_stat**2 / n
    if rho >= 1.0:
        raise RhoPreconditionError(f"rho = {rho:.4f} >= 1; K too large at this N")
    if spectrum is None:
        spectrum = AnticommutatorSpectrum.from_pair(pair)
    keep = np.abs(spectrum.evals) <= 8.0
    lams = spectrum.evals[keep]
    sigmas = sigma_solve(lams, rho)
    maxima = np.abs(spectrum.evecs).max(axis=0)[keep]
    rows = []
    for lam, sigma, mx in zip(lams.tolist(), sigmas.tolist(), maxima.tolist()):
        bound = math.sqrt(2.0 * sigma)
        rows.append(DelocalizationRow(lam=lam, sigma=sigma, max_component=mx,
                                      bound=bound, holds=mx <= bound))
    return DelocalizationReport(n=n, k_stat=k_stat, c_config=c_config, rho=rho,
                                rows=rows)


def figure1_data(rho_list, lam_min: float = -8.0, lam_max: float = 8.0,
                 lam_step: float = 1e-2):
    """Closest-approach curves sigma(lambda) for each rho: rows
    (rho, lambda, sigma) with sigma solving h^2 sigma = rho.  Refuses an
    empty ``rho_list``."""
    if len(rho_list) == 0:
        raise ValueError("rho_list must hold at least one rho")
    if not (math.isfinite(lam_step) and lam_step > 0):
        raise ValueError(f"lam_step must be positive and finite, got {lam_step}")
    rows = []
    for rho in rho_list:
        if not 0.0 < rho < 1.0:
            raise ValueError("each rho must lie in (0, 1)")
        count = int(round((lam_max - lam_min) / lam_step)) + 1
        lams = lam_min + np.arange(count) * lam_step
        rows += [(float(rho), lam, sigma) for lam, sigma
                 in zip(lams.tolist(), sigma_solve(lams, rho).tolist())]
    return rows


# ---------------------------------------------------------------------------
# scalar (semicircle) mode: same machinery with edges at +-2


def sc_edge_distance(z: complex) -> float:
    """min(|z - 2|, |z + 2|, 1) for the semicircle edges."""
    return min(abs(z - 2.0), abs(z + 2.0), 1.0)


@dataclass
class SemicircleStats:
    """Scalar per-index statistics of (X - z)^-1 at one z, with the residual
    of the minors' row-sum identity |R_i|_2^2 / N = Im Ghat_i / Im z.  At the
    three spot points ``semicircle_locallaw`` checks the inversion identity
    -Q_i = G_i^-1 + z + Ghat_i against these Q_i; the minors are solved
    there, not inverted, so its row-sum evidence at those points is the
    Ward identity Im z |s|^2 = Im(y_i* s) of each solved vector."""

    z: complex
    g_i: np.ndarray
    ghat_i: np.ndarray
    q_i: np.ndarray
    r_i_frob: np.ndarray
    fluct_i: np.ndarray
    fluct: float
    row_sum_residual: float


def _semicircle_result(z, g_i, ghat_i, q_i, r_frob):
    n = g_i.size
    # row-sum identity |R_i|_2^2 / N = Im Ghat_i / Im z, both sides computed
    # independently of one another
    row_sum_res = float(np.max(np.abs(r_frob**2 / n - ghat_i.imag / z.imag)
                               / np.maximum(np.abs(ghat_i.imag / z.imag), 1e-300)))
    fluct_i = _fluct_from(np.abs(q_i), r_frob, n)
    return SemicircleStats(z=z, g_i=g_i, ghat_i=ghat_i, q_i=q_i, r_i_frob=r_frob,
                           fluct_i=fluct_i, fluct=float(fluct_i.max()),
                           row_sum_residual=row_sum_res)


def semicircle_stats(x: np.ndarray, z: complex) -> SemicircleStats:
    """Scalar statistics: G_i = R(i,i), Ghat_i = tr(R_i)/N, the fluctuation
    scalars Q_i, and |R_i|_2, with R_i the resolvent of X minus row/column i,
    each index removed from the full resolvent R by the rank-one correction
    R - R[:,i] R[i,:] / R_ii."""
    z = complex(z)
    _check_upper_half_plane(z)
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    r = np.linalg.inv(x - z * np.eye(n))
    g_i = np.diag(r).copy()
    f = r.conj().T @ r
    norm_r2 = np.vdot(r, r).real
    rf_diag = np.einsum("ik,ki->i", r, f)
    col_norm2 = (np.abs(r) ** 2).sum(axis=0)
    row_norm2 = (np.abs(r) ** 2).sum(axis=1)
    corr = rf_diag / g_i
    r_frob2 = norm_r2 - 2.0 * corr.real + col_norm2 * row_norm2 / np.abs(g_i) ** 2
    r_frob = np.sqrt(np.maximum(r_frob2, 0.0))
    # trace of the padded minor: tr R - sum_j R_ji R_ij / R_ii
    quad = np.einsum("ji,ij->i", r, r)
    ghat_i = (np.trace(r) - quad / g_i) / n
    q_i = -(1.0 / g_i + z + ghat_i)
    return _semicircle_result(z, g_i, ghat_i, q_i, r_frob)


@dataclass
class SemicircleReport:
    """Semicircle local-law run: the literal theta = 2^100 makes the
    admissible set empty at desk scale (reported, vacuous truth), while the user theta
    gives an informative empirical run."""

    n: int
    tau: float
    theta_user: float
    k_stat: float
    rho_literal: float
    x_empty_literal: bool
    rho_user: float
    rows: list
    theta_star: float
    theta_star_self: float
    max_identity_residual: float
    max_row_sum_residual: float

    @property
    def admissible_rows(self) -> list:
        return [r for r in self.rows if r.admissible]

    def admissible_rows_at(self, theta: float) -> list:
        """Rows in the admissible set evaluated at a different theta (the
        gate is 2^8 theta^2 K^2 / N <= h^2 Im z)."""
        thresh = 2.0**8 * theta**2 * self.k_stat**2 / self.n
        return [r for r in self.rows if r.h**2 * r.z.imag >= thresh]


def semicircle_locallaw(x: np.ndarray, tau: float = 20.0, theta_user: float = 1.0,
                        spacing: float = 2.0) -> SemicircleReport:
    """Scalar local-law verification for a Hermitian matrix against the
    semicircle Stieltjes transform, reporting both the literal theorem-scale
    constants (theta = 2^100, admissible set expected empty) and a user theta.
    The grid is 9 x 8 points of |Re z| <= 4, 1/N <= Im z <= tau.

    The statistics run ``semicircle_stats``.  At 3 net points, spread
    evenly over the net, ``identity_spot_check`` holds their Q_i against
    the inversion identity by solving each of the N minors once; its
    identity residuals give ``max_identity_residual``, and its Ward
    residuals join the row-sum residuals of every net and grid point in
    ``max_row_sum_residual``.
    Refuses non-finite tau or theta_user, tau < 1/N (an empty rectangle) and
    theta_user <= 0; theta_user in (0, 1) is allowed, since at desk scale it
    is what makes grid rows admissible.
    """
    _require_finite(tau=tau, theta_user=theta_user)
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    if tau < 1.0 / n:
        raise ValueError(f"tau = {tau} < 1/N leaves the rectangle empty")
    if theta_user <= 0:
        raise ValueError(f"theta_user must be positive, got {theta_user}")
    theta_literal = 2.0**100
    net = uniform_net(-4.0, 4.0, 1.0 / n, tau, spacing)
    picks = set(np.linspace(0, len(net) - 1, min(3, len(net))).astype(int).tolist())
    max_row_sum = 0.0
    max_ident = 0.0
    fluct_max = 0.0
    for j, z in enumerate(net):
        st = semicircle_stats(x, complex(z))
        fluct_max = max(fluct_max, st.fluct)
        max_row_sum = max(max_row_sum, st.row_sum_residual)
        if j in picks:
            # the k = 1 case: Lambda = z and Phi the identity
            _, ident, ward = identity_spot_check(x, np.array([st.z]), st.ghat_i,
                                                 st.q_i, lambda g: g)
            max_ident = max(max_ident, ident)
            max_row_sum = max(max_row_sum, ward)
    k_stat = 2.0 * fluct_max
    rho_literal = 2.0**8 * theta_literal**2 * k_stat**2 / n
    rho_user = 2.0**8 * theta_user**2 * k_stat**2 / n
    points = []
    for z in rect_grid(-4.0, 4.0, 9, 1.0 / n, tau, 8):
        z = complex(z)
        st = semicircle_stats(x, z)
        max_row_sum = max(max_row_sum, st.row_sum_residual)
        m = sd_semicircle(z).m
        lhs = float(np.abs(st.g_i - m).max())
        points.append((z, sc_edge_distance(z), lhs))
    rows, theta_star, theta_star_self = _grid_rows(
        points, n, tau, 4.0, theta_user, k_stat, rho_user, 2.0**8)
    return SemicircleReport(
        n=n, tau=tau, theta_user=theta_user,
        k_stat=k_stat, rho_literal=rho_literal, x_empty_literal=rho_literal > tau,
        rho_user=rho_user, rows=rows, theta_star=theta_star,
        theta_star_self=theta_star_self,
        max_identity_residual=max_ident, max_row_sum_residual=max_row_sum)


# ---------------------------------------------------------------------------
# the scaling study across N (the artifact's main statistical check)


@dataclass
class ScalingReport:
    """Medians of the scaled deviation max_i |({UV}-z)^-1(i,i) - m| *
    sqrt(N h Im z) across sizes, with the fitted log-log slope (flat slope =
    the N-independence the local law asserts) and per-run star constants.

    The admissible set uses the unit-constant threshold h^2 Im z >= 4/N:
    the literal theorem constants are existential and would empty the set.
    """

    n_list: list
    medians: dict
    median_means: dict
    k_by_run: dict
    theta_star_by_run: dict
    slope: float

    @property
    def slope_is_flat(self) -> bool:
        return abs(self.slope) <= 0.15


def scaling_law_study(n_list=(64, 128, 256), seeds=range(10),
                      k_spacing: float = 4.0, n_re: int = 13,
                      n_im: int = 10) -> ScalingReport:
    """For each (N, seed): sample a complex-gaussian pair, compute the scaled
    deviation on a grid (|Re z| <= 6 linear, 1/N <= Im z <= 4 log), take the
    median over the admissible points, and record the netted K (theta = 1)
    and the scalar star constant.  The log-log slope of the mean median
    against N is the headline number."""
    seeds = list(seeds)
    medians = {int(n): [] for n in n_list}
    k_by_run = {}
    theta_star_by_run = {}
    for n in n_list:
        n = int(n)
        for seed in seeds:
            pair = sample_pair(EnsembleSpec(n=n, ensemble="complex-gaussian",
                                            seed=seed))
            spectrum = AnticommutatorSpectrum.from_pair(pair)
            k_stat = construct_k(pair, spacing=k_spacing)
            grid = rect_grid(-6.0, 6.0, n_re, 1.0 / n, 4.0, n_im)
            h = np.array([edge_distance(complex(z)) for z in grid])
            scaled, _ = _scaled_deviations(
                spectrum, grid[h * h * grid.imag >= 4.0 / n], n)
            medians[n].append(float(np.median(scaled)))
            k_by_run[(n, seed)] = k_stat
            theta_star_by_run[(n, seed)] = float((scaled / k_stat).max(initial=0.0))
    median_means = {n: float(np.mean(v)) for n, v in medians.items()}
    xs = np.log(np.array(sorted(median_means)))
    ys = np.log(np.array([median_means[n] for n in sorted(median_means)]))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) > 1 else 0.0
    return ScalingReport(n_list=[int(n) for n in n_list], medians=medians,
                         median_means=median_means, k_by_run=k_by_run,
                         theta_star_by_run=theta_star_by_run, slope=slope)
