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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AclawError
from .freelaw import edge_distance, law_constants, m_ac
from .grids import rect_grid, uniform_net
from .linearize import (AnticommutatorSpectrum, Linearization, ResolventStats,
                        _check_upper_half_plane, _fluct_from, _schur_statistics, _weighted,
                        build_linearization, fluctuation_sup, grid_corner_blocks,
                        identity_spot_check, route_near_max)
from .sdcore import sd_semicircle, sd_solution_ac
from .wigner import EnsembleSpec, WignerPair, norm_at_most, sample_pair

__all__ = [
    "NormHypothesisError",
    "RhoPreconditionError",
    "GridRow",
    "LocalLawReport",
    "DelocalizationRow",
    "DelocalizationReport",
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
    "semicircle_screen",
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
    """Outcome of a local-law verification run (its configuration is the
    caller's arguments)."""

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


#: the largest float whose square is finite: the constants enter the bounds
#: squared, and Python's ``x**2`` raises OverflowError beyond it
_SQUARE_MAX = math.sqrt(sys.float_info.max)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not abs(value) <= _SQUARE_MAX:  # NaN fails too
            raise ValueError(f"{name} must be finite with a finite square, got {value}")


def _require_positive(**values: float) -> None:
    # c and K enter only squared: a negative value would run as its
    # magnitude, and 0 would admit every point
    for name, value in values.items():
        if not 0.0 < value <= _SQUARE_MAX:
            raise ValueError(f"{name} must be positive and finite with a finite square, "
                             f"got {value}")


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


def verify_local_law(pair: WignerPair, z_grid, tau: float = 8.0,
                     theta: float = 1.0, c_config: float = 1.0,
                     spacing: float = 1.0) -> LocalLawReport:
    """Verify the deterministic local-law implication at every point of
    ``z_grid`` (the command's ``default_grid``).

    Computes K = twice the netted supremum of the fluctuation statistic over
    the rectangle, then evaluates max_i |G_i - M| against
    theta K / sqrt(N h Im z) at every grid point, flagging admissible-set
    membership, and reports the empirical star constant.

    The constants are checked and the net (``uniform_net`` of the
    rectangle, which refuses a non-finite or non-positive spacing) is built
    before any work on the pair, so a usage error costs no
    eigendecomposition.  Only the net computes the fluctuation statistic.
    ``fluctuation_sup`` screens the whole net in the eigenbasis of {UV} and
    runs the Schur route ``resolvent_stats``, which must confirm the
    screen, only at the screened top set (one point per pair in practice).  A grid row needs
    only the corner blocks G_i, 9N of the resolvent's 9N^2 entries, and
    ``grid_corner_blocks`` forms just those for the whole grid: per row the
    N x N inverse g = ({UV} - z)^-1, C g (2 N^3) and diagonal tiles of two
    products, with the bits of ``resolvent_stats``' ``g_i``.  No W and no
    3N x 3N resolvent is built for a row.  The conditioning refusal runs at
    every net and grid point; the net's eigenbasis is certified once per
    pair (``fluctuation_sup``), and no point is inverted densely to check
    it.  Reading the grid rows from the net's eigenbasis
    waits for the fix of the ``theta_star_self`` rounding defect: until
    then any last-digit change to a row's lhs can move ``theta_star_self``
    past the reference tolerance, which is why the rows keep the
    definitional product's digits.  (``semicircle_locallaw``'s rows read
    their eigenbasis: on the six N = 256 benchmark inputs that moved a row's
    lhs by at most 5e-14 and ``theta_star_self`` by at most 2e-15, both
    relative, within the reference tolerance.)

    Refuses non-finite tau or theta (a NaN constant would admit no row and
    pass vacuously), a non-finite or non-positive c_config, any of the three
    whose square overflows and, after the net, pairs with
    max(|U|, |V|) > 4 (the theorem hypothesis).
    """
    _require_finite(tau=tau, theta=theta)
    _require_positive(c_config=c_config)
    if tau < 8.0:
        raise ValueError("tau must be >= 8")
    if theta < 1.0:
        raise ValueError("theta must be >= 1")
    n = pair.n
    net = uniform_net(-8.0, 8.0, 1.0 / n, tau, spacing)
    lin = build_linearization(pair)
    if not lin.norms_ok:
        raise NormHypothesisError(
            f"max(|U|, |V|) = {max(lin.norm_u, lin.norm_v):.3f} exceeds 4")
    # not held here, so that the spectrum is freed before the route runs
    k_stat = fluctuation_sup(
        lin, net, AnticommutatorSpectrum.from_hermitian(lin.anticommutator))
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
        k_stat=k_stat, rho=rho, x_set_empty=rho > tau, rows=rows, theta_star=theta_star,
        theta_star_self=theta_star_self,
        degenerate=max(lin.norm_u, lin.norm_v) == 0.0)


def construct_k(lin: Linearization, spectrum: AnticommutatorSpectrum,
                spacing: float = 1.0) -> float:
    """The netted random constant: twice the maximum of the fluctuation
    statistic over a uniform net of the rectangle |Re z| <= 8,
    1/N <= Im z <= 8, screened in ``spectrum``, the pair's
    ``AnticommutatorSpectrum.from_hermitian`` of {UV}.  Always at least 2."""
    return fluctuation_sup(lin, uniform_net(-8.0, 8.0, 1.0 / lin.n, 8.0, spacing),
                           spectrum)


def _law_at(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m(z) and h(z) of the anticommutator law at every z of ``zs``."""
    law = [m_ac(complex(z)) for z in zs]
    return (np.array([pt.m for pt in law], dtype=complex),
            np.array([pt.h for pt in law], dtype=float))


def _scaled_deviations(spectrum: AnticommutatorSpectrum, zs: np.ndarray,
                       law: tuple[np.ndarray, np.ndarray],
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """At every z of ``zs``, with ``law`` = (m, h) there (``_law_at``): the
    scaled deviation max_i |({UV} - z)^-1 (i,i) - m(z)| sqrt(N h Im z) and
    the gate h^2 Im z."""
    m, h = law
    lhs = np.abs(spectrum.resolvent_diags(zs) - m).max(axis=0)
    return lhs * np.sqrt(n * h * zs.imag), h * h * zs.imag


def empirical_k(spectrum: AnticommutatorSpectrum, c_config: float) -> float:
    """Smallest K (>= 2) satisfying the main-law property on a net:
    max_i |({UV} - z)^-1 (i,i) - m| <= K / sqrt(N h Im z) at every net point
    with 4 c^2 K^2 / N <= h^2 Im z, read from ``spectrum``, the pair's
    eigendecomposition, with N its number of eigenvalues.  The net is the
    17 x 12 grid of |Re z| <= 8, 1/N <= Im z <= 8.

    This is the desk-scale surrogate for the theorem's random constant: the
    netted fluctuation supremum times 2 dominates it but is typically
    far too large for the delocalization corollary's rho < 1 assumption at
    moderate N.  The acceptance condition is monotone in K, so the minimum
    is found by scanning the candidate values.  ``delocalization_check``
    refuses a bad c_config before it builds the spectrum.
    """
    n = spectrum.evals.size
    zs = rect_grid(-8.0, 8.0, 17, 1.0 / n, 8.0, 12)
    scaled, gate = _scaled_deviations(spectrum, zs, _law_at(zs), n)
    return _smallest_valid(scaled, gate, 4.0 * c_config**2, n, 1.0, 2.0)


def sigma_solve(lam, rho: float):
    """The unique sigma in (0, 1] with h(lam + i sigma)^2 sigma = rho at
    every entry of the array ``lam``, by 100 bisection steps on [1e-12, 1]
    (the map is strictly increasing in sigma), all entries at once."""
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
    return 0.5 * (lo + hi)


@dataclass
class DelocalizationRow:
    lam: float
    sigma: float
    max_component: float
    bound: float
    holds: bool


@dataclass
class DelocalizationReport:
    k_stat: float
    rho: float
    rows: list

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.rows)


def delocalization_check(pair: WignerPair, c_config: float,
                         k_stat: float | None = None) -> DelocalizationReport:
    """Check max_i |v(i)| <= sqrt(2 sigma) for every unit eigenvector of
    {UV} with |eigenvalue| <= 8, where sigma solves h^2 sigma = rho at
    z = lambda + i sigma and rho = 4 c^2 K^2 / N: the whole ``deloc``
    command.

    Refuses a non-finite or non-positive c_config or given k_stat, or one
    whose square overflows (each enters only squared), before any work, and
    then a pair with max(|U|, |V|) > 4 (the theorem hypothesis).  Then it
    diagonalizes {UV} once (``AnticommutatorSpectrum.from_pair``), takes
    K = ``empirical_k`` from that spectrum unless k_stat is given, and
    refuses rho >= 1 (the simplifying assumption of the underlying bound).
    """
    if k_stat is not None:
        _require_positive(k_stat=k_stat)
    _require_positive(c_config=c_config)
    if not (norm_at_most(pair.u, 4.0) and norm_at_most(pair.v, 4.0)):
        raise NormHypothesisError("pair violates max(|U|, |V|) <= 4")
    spectrum = AnticommutatorSpectrum.from_pair(pair)
    if k_stat is None:
        k_stat = empirical_k(spectrum, c_config)
    n = pair.n
    rho = 4.0 * c_config**2 * k_stat**2 / n
    if rho >= 1.0:
        raise RhoPreconditionError(f"rho = {rho:.4f} >= 1; K too large at this N")
    keep = np.abs(spectrum.evals) <= 8.0
    lams = spectrum.evals[keep]
    sigmas = sigma_solve(lams, rho)
    maxima = np.abs(spectrum.evecs).max(axis=0)[keep]
    rows = []
    for lam, sigma, mx in zip(lams.tolist(), sigmas.tolist(), maxima.tolist()):
        bound = math.sqrt(2.0 * sigma)
        rows.append(DelocalizationRow(lam=lam, sigma=sigma, max_component=mx,
                                      bound=bound, holds=mx <= bound))
    return DelocalizationReport(k_stat=k_stat, rho=rho, rows=rows)


def figure1_data(rho_list, lam_step: float = 1e-2):
    """Closest-approach curves sigma(lambda) for each rho: rows
    (rho, lambda, sigma) for lambda from -8 to 8 in steps of ``lam_step``,
    with sigma solving h^2 sigma = rho.  Refuses an empty ``rho_list``."""
    if len(rho_list) == 0:
        raise ValueError("rho_list must hold at least one rho")
    if not (math.isfinite(lam_step) and lam_step > 0):
        raise ValueError(f"lam_step must be positive and finite, got {lam_step}")
    rows = []
    for rho in rho_list:
        if not 0.0 < rho < 1.0:
            raise ValueError("each rho must lie in (0, 1)")
        count = int(round(16.0 / lam_step)) + 1
        lams = -8.0 + np.arange(count) * lam_step
        rows += [(float(rho), lam, sigma) for lam, sigma
                 in zip(lams.tolist(), sigma_solve(lams, rho).tolist())]
    return rows


# ---------------------------------------------------------------------------
# scalar (semicircle) mode: same machinery with edges at +-2


def sc_edge_distance(z: complex) -> float:
    """min(|z - 2|, |z + 2|, 1) for the semicircle edges."""
    return min(abs(z - 2.0), abs(z + 2.0), 1.0)


def _row_sum_residual(stats: ResolventStats) -> np.ndarray:
    """The largest relative residual over i of the minors' row-sum identity
    |R_i|_2^2 / N = Im Ghat_i / Im z at k = 1, at each point of ``stats.z``.
    On ``semicircle_screen`` both sides come from the one ``eigh``, so this
    is a rounding check of the screen; on the route both come from one
    N x N inverse.  The independent row-sum evidence is the spot checks'
    Ward identity Im z |s|^2 = Im(y_i* s) of each minor's solution
    s = R^(i) y_i, read from the Gram their elimination carries."""
    n = stats.r_i_frob.shape[-1]
    rhs = stats.ghat_i[..., 0, 0].imag / np.asarray(stats.z).imag[..., None]
    return np.max(np.abs(stats.r_i_frob**2 / n - rhs) / np.maximum(np.abs(rhs), 1e-300),
                  axis=-1)


def semicircle_stats(x: np.ndarray, z: complex) -> ResolventStats:
    """Scalar statistics of R = (X - z)^-1: G_i = R(i,i), Ghat_i = tr(R_i)/N,
    the fluctuation scalars Q_i and |R_i|_2, with R_i the resolvent of X
    minus row and column i, as 1 x 1 blocks: ``_schur_statistics`` at k = 1,
    Lambda = z and Phi the identity, on one N x N inverse.  Run only where
    ``route_near_max`` confirms the screen at K's point."""
    z = complex(z)
    _check_upper_half_plane(z)
    x = np.asarray(x, dtype=complex)
    r = np.linalg.inv(x - z * np.eye(x.shape[0]))
    return _schur_statistics(r, z, np.array([z]), lambda g: g)


#: points per pass of ``semicircle_screen``: its temporaries are N x 16
#: arrays, and only the statistics it returns grow with the number of points
_SCREEN_CHUNK = 16


def semicircle_screen(spectrum: AnticommutatorSpectrum, zs) -> ResolventStats:
    """``semicircle_stats`` at every z of ``zs`` from X's ``spectrum``
    X = Q diag(lam) Q*, through its weights W = |Q|^2, with one row per
    point in every field.  With d = 1/(lam - z), R = Q diag(d) Q* is normal,
    and every quantity the Schur route reads is one product of W with d,
    d^2, d |d|^2 or |d|^2: G_i = (W d)_i, (R^2)_ii = (W d^2)_i,
    (R R*R)_ii = (W d |d|^2)_i, R's i-th row and column norms are both
    (W |d|^2)_i, and tr R and |R|_F^2 are sums of d and |d|^2.  O(N^2) per
    z after the N^3 ``eigh``, and, unlike the k = 3 screen, no kernel per
    Im level."""
    zs = np.asarray(zs, dtype=complex)
    for z in zs.tolist():
        _check_upper_half_plane(z)
    lam, w = spectrum.evals, spectrum.weights
    n = lam.size
    g, ghat, q_i = np.empty((3, zs.size, n), dtype=complex)
    r_frob = np.empty((zs.size, n))
    for lo in range(0, zs.size, _SCREEN_CHUNK):
        part = slice(lo, lo + _SCREEN_CHUNK)
        zc = zs[part]
        d = 1.0 / (lam[:, None] - zc)
        d_abs2 = d.real**2 + d.imag**2
        gc = _weighted(w, d)
        # |R_i|_F^2 = |R|_F^2 - 2 Re (R R*R)_ii / G_i + ((R*R)_ii / |G_i|)^2
        r_frob2 = (d_abs2.sum(axis=0) - 2.0 * (_weighted(w, d * d_abs2) / gc).real
                   + (w @ d_abs2) ** 2 / (gc.real**2 + gc.imag**2))
        # N Ghat_i = tr R - (R^2)_ii / G_i
        ghat_c = (d.sum(axis=0) - _weighted(w, d * d) / gc) / n
        g[part], ghat[part] = gc.T, ghat_c.T
        q_i[part] = -(1.0 / gc + zc + ghat_c).T
        r_frob[part] = np.sqrt(np.maximum(r_frob2, 0.0)).T
    return ResolventStats(z=zs, g_i=g[..., None, None], ghat_i=ghat[..., None, None],
                          q_i=q_i[..., None, None], r_i_frob=r_frob,
                          fluct=_fluct_from(np.abs(q_i), r_frob, n).max(axis=-1))


@dataclass
class SemicircleReport:
    """Semicircle local-law run: the literal theta = 2^100 makes the
    admissible set empty at desk scale (reported, vacuous truth), while the user theta
    gives an informative empirical run."""

    n: int
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

    X is diagonalized once (``AnticommutatorSpectrum.from_hermitian``), and
    its eigenbasis is certified once at Im z = 1/N (``certify``, unscaled),
    the lowest Im z of both the net and the grid, so one bound covers every
    point read from it.  A grid row's lhs reads G_i = (W d)_i from it
    (``resolvent_diags``), one real product of the weights W = |Q|^2 with
    every row's d = 1/(lam - z), and ``semicircle_screen`` screens every
    net point from it.  The rows are reduced to their lhs before the screen
    runs, and the spectrum is freed before the route runs.  K is twice the
    net's maximum fluctuation statistic, by ``route_near_max``: the Schur route
    ``semicircle_stats`` runs where the screened value lies within
    ``SCREEN_MARGIN`` of the screened maximum (one point in practice) and
    gives K's digits, and a route value that disagrees with its screen
    refuses the matrix.

    ``identity_spot_check`` holds Q_i against the inversion identity
    -Q_i = G_i^-1 + z + Ghat_i at every index, by one nested block
    elimination of X - z (2(N - 1) solves, none of a minor), with the
    screen's Ghat_i in Q_i's definition, at two net points.  At the point K
    comes from, Q_i is the route's, so a screened Ghat_i that disagrees with
    the route's fails the check even where the route's values replace the
    screen's; at the bulk point of the lowest level, Im z = 1/N with Re z
    nearest 0, Q_i is the screen's.  Its identity residuals give
    ``max_identity_residual``.  A spot point is refused where the minors'
    condition bound (|X|_F + |z|) / Im z exceeds the ceiling.
    ``max_row_sum_residual``
    is the largest of the screen's row-sum residuals at every net point (a
    rounding check of one spectrum), the route's at its points, and the
    spot checks' Ward residuals, which read each minor's quadratic form from
    the elimination, independently of the spectrum.  ``aclaw semicircle``
    fails a run whose ``max_identity_residual`` exceeds 1e-8 or whose
    ``max_row_sum_residual`` exceeds 1e-10.
    Refuses non-finite tau or theta_user, or one whose square overflows,
    tau < 1/N (an empty rectangle) and theta_user <= 0; theta_user in
    (0, 1) is allowed, since at desk scale it is what makes grid rows
    admissible.
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
    grid = rect_grid(-4.0, 4.0, 9, 1.0 / n, tau, 8)
    spectrum = AnticommutatorSpectrum.from_hermitian(x)
    spectrum.certify(x, 1.0 / n, 1.0)
    g = spectrum.resolvent_diags(grid)              # column j: G_i at grid[j]
    points = [(z, sc_edge_distance(z), float(np.abs(g_z - sd_semicircle(z)).max()))
              for z, g_z in zip(grid.tolist(), g.T)]
    del g
    screened = semicircle_screen(spectrum, net)
    del spectrum
    max_row_sum = float(_row_sum_residual(screened).max())
    # Ghat_i and Q_i, for the spot checks; the rest is freed first, so that
    # the route's dense inverse can reuse it
    screen_fluct, ghat_i, q_i = screened.fluct, screened.ghat_i, screened.q_i
    del screened
    routed = {}

    def route(j):
        routed[j] = semicircle_stats(x, complex(net[j]))
        return routed[j].fluct

    fluct = route_near_max(screen_fluct, route)
    k_stat = 2.0 * float(fluct.max())
    max_row_sum = max(max_row_sum, *(_row_sum_residual(st) for st in routed.values()))
    top = int(np.argmax(fluct))                     # the route ran there
    lowest = np.flatnonzero(net.imag == net.imag.min())
    bulk = int(lowest[np.argmin(np.abs(net.real[lowest]))])
    max_ident = 0.0
    for j in sorted({top, bulk}):
        # the k = 1 case: Lambda = z and Phi the identity; |X|_F bounds |X|
        _, ident, ward = identity_spot_check(
            x, np.array([complex(net[j])]), ghat_i[j],
            routed[j].q_i if j == top else q_i[j], lambda g: g, np.linalg.norm(x))
        max_ident = max(max_ident, ident)
        max_row_sum = max(max_row_sum, ward)
    rho_literal = 2.0**8 * theta_literal**2 * k_stat**2 / n
    rho_user = 2.0**8 * theta_user**2 * k_stat**2 / n
    rows, theta_star, theta_star_self = _grid_rows(
        points, n, tau, 4.0, theta_user, k_stat, rho_user, 2.0**8)
    return SemicircleReport(
        n=n, k_stat=k_stat, rho_literal=rho_literal, x_empty_literal=rho_literal > tau,
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
    median_means: dict
    k_by_run: dict
    theta_star_by_run: dict
    slope: float

    @property
    def slope_is_flat(self) -> bool:
        return abs(self.slope) <= 0.15


def scaling_law_study(n_list=(64, 128, 256), seeds=range(10),
                      k_spacing: float = 4.0) -> ScalingReport:
    """For each (N, seed): sample a complex-gaussian pair, compute the scaled
    deviation on a 13 x 10 grid (|Re z| <= 6 linear, 1/N <= Im z <= 4 log), take the
    median over the admissible points, and record the netted K (theta = 1)
    and the scalar star constant.  The log-log slope of the mean median
    against N is the headline number.

    Each pair is diagonalized once: ``AnticommutatorSpectrum
    .from_hermitian`` of its {UV} serves both K's net screen
    (through ``construct_k``) and the scaled deviations' resolvent
    diagonals, so the study never imports ``scipy.linalg``.  The grid, its
    admissible points and the law there depend on N alone and are computed
    once per N."""
    seeds = list(seeds)
    medians = {int(n): [] for n in n_list}
    k_by_run = {}
    theta_star_by_run = {}
    for n in n_list:
        n = int(n)
        grid = rect_grid(-6.0, 6.0, 13, 1.0 / n, 4.0, 10)
        h = np.array([edge_distance(complex(z)) for z in grid])
        zs = grid[h * h * grid.imag >= 4.0 / n]
        law = _law_at(zs)
        for seed in seeds:
            lin = build_linearization(sample_pair(
                EnsembleSpec(n=n, ensemble="complex-gaussian", seed=seed)))
            spectrum = AnticommutatorSpectrum.from_hermitian(lin.anticommutator)
            k_stat = construct_k(lin, spectrum, spacing=k_spacing)
            scaled, _ = _scaled_deviations(spectrum, zs, law, n)
            medians[n].append(float(np.median(scaled)))
            k_by_run[(n, seed)] = k_stat
            theta_star_by_run[(n, seed)] = float((scaled / k_stat).max(initial=0.0))
    median_means = {n: float(np.mean(v)) for n, v in medians.items()}
    xs = np.log(np.array(sorted(median_means)))
    ys = np.log(np.array([median_means[n] for n in sorted(median_means)]))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) > 1 else 0.0
    return ScalingReport(n_list=[int(n) for n in n_list], median_means=median_means,
                         k_by_run=k_by_run, theta_star_by_run=theta_star_by_run,
                         slope=slope)
