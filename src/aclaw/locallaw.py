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
empty.  Harnesses for the semicircle law (edges at +-2 instead of +-zeta)
and for eigenvector delocalization, max_i |v(i)| <= sqrt(2 sigma) with
h^2 sigma = rho at z = lambda + i sigma, live here too; the resolvent
statistics they all read, at both block sizes, are ``linearize``'s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AclawError
from .freelaw import edge_distance, law_constants, m_ac
from .grids import rect_grid, uniform_net
from .linearize import (AnticommutatorSpectrum, Linearization, anticommutator,
                        build_linearization, fluctuation_sup, grid_corner_blocks,
                        identity_spot_check, route_near_max, row_sum_residual,
                        semicircle_screen, semicircle_stats)
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
    "semicircle_locallaw",
    "scaling_law_study",
]


class NormHypothesisError(AclawError):
    """The pair violates max(|U|, |V|) <= 4, required by the theorems."""


class RhoPreconditionError(AclawError):
    """rho = 4 c^2 K^2 / N is not in (0, 1) (delocalization assumption)."""


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


#: the floats whose squares are normal lie between these: the constants enter
#: the bounds squared, and Python's ``x**2`` raises OverflowError above the top
_SQUARE_MIN, _SQUARE_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not abs(value) <= _SQUARE_MAX:  # NaN fails too
            raise ValueError(f"{name} must be finite with a finite square, got {value}")


def _require_positive(**values: float) -> None:
    # the constants enter only squared: a negative value would run as its
    # magnitude, and 0, or a square that rounds to 0, would admit every point
    for name, value in values.items():
        if not _SQUARE_MIN <= value <= _SQUARE_MAX:
            raise ValueError(f"{name} must be positive with a normal, finite square, "
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
    eigendecomposition, and the pair is dropped once a, b and {UV} are
    formed.  Only the net computes the fluctuation statistic:
    ``fluctuation_sup`` screens it in the eigenbasis of {UV} and runs the
    Schur route ``resolvent_stats``, which must confirm the screen, only at
    the screened top set (one point per pair in practice).  A grid row
    needs only the corner blocks G_i, which ``grid_corner_blocks`` forms
    for the whole grid with the bits of ``resolvent_stats``' ``g_i``: per
    row the N x N inverse g = ({UV} - z)^-1, C g (2 N^3) and diagonal tiles
    of two products, with no W and no 3N x 3N resolvent.  The conditioning
    refusal runs at every net and grid point; the net's eigenbasis is
    certified once per pair (``fluctuation_sup``).  The rows keep the
    definitional product's digits, not the net eigenbasis's, until the
    ``theta_star_self`` rounding defect is fixed: a last-digit change to a
    row's lhs can move ``theta_star_self`` past the reference tolerance.

    Refuses non-finite tau or theta (a NaN constant would admit no row and
    pass vacuously), a c_config whose square is not a positive normal float
    (c^2 = 0 admits every row), any of the three whose square overflows and,
    after the net, pairs with max(|U|, |V|) > 4 (the theorem hypothesis).
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
    del pair                  # U and V: a, b and {UV} are all that is read
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


def _deloc_rho(c_config: float, k_stat: float, n: int) -> float:
    """rho = 4 c^2 K^2 / N, refused outside (0, 1)."""
    rho = 4.0 * c_config**2 * k_stat**2 / n
    if not 0.0 < rho < 1.0:
        raise RhoPreconditionError(f"rho = 4 c^2 K^2 / N = {rho:.4g} must lie in (0, 1)")
    return rho


def delocalization_check(pair: WignerPair, c_config: float,
                         k_stat: float | None = None) -> DelocalizationReport:
    """Check max_i |v(i)| <= sqrt(2 sigma) for every unit eigenvector of
    {UV} with |eigenvalue| <= 8, where sigma solves h^2 sigma = rho at
    z = lambda + i sigma and rho = 4 c^2 K^2 / N: the whole ``deloc``
    command.

    Refuses, before any work, a c_config or given k_stat whose square is
    not a positive normal float (each enters only squared) and, for a given
    k_stat, rho outside (0, 1) (the simplifying assumption of the bound);
    then a pair with max(|U|, |V|) > 4 (the theorem hypothesis).  Then it
    forms UV and drops the pair, so that U and V are freed before {UV}
    (``anticommutator``, in UV's buffer) is formed and diagonalized once
    (``AnticommutatorSpectrum.from_pair``); it takes K = ``empirical_k``
    from that spectrum unless k_stat is given, and refuses rho >= 1.
    """
    n = pair.n
    _require_positive(c_config=c_config)
    if k_stat is not None:
        _require_positive(k_stat=k_stat)
        rho = _deloc_rho(c_config, k_stat, n)
    if not (norm_at_most(pair.u, 4.0) and norm_at_most(pair.v, 4.0)):
        raise NormHypothesisError("pair violates max(|U|, |V|) <= 4")
    uv = pair.u @ pair.v
    del pair                  # U and V: {UV} and its eigh read only UV
    spectrum = AnticommutatorSpectrum.from_pair(anticommutator(uv))
    del uv                    # now {UV}: nothing after the eigh reads it
    if k_stat is None:
        k_stat = empirical_k(spectrum, c_config)
        rho = _deloc_rho(c_config, k_stat, n)
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
    ``max_row_sum_residual`` is the largest of the screen's row-sum
    residuals at every net point (a rounding check of one spectrum), the
    route's at its points, and the spot checks' Ward residuals, which read
    each minor's quadratic form from the elimination, independently of the
    spectrum.  ``aclaw semicircle`` fails a run whose
    ``max_identity_residual`` exceeds 1e-8 or whose ``max_row_sum_residual``
    exceeds 1e-10.
    Refuses non-finite tau, or one whose square overflows, tau < 1/N (an
    empty rectangle) and a theta_user whose square is not a positive normal
    float (rho_user = 0 would admit every row); theta_user in (0, 1) is
    allowed, since at desk scale it is what makes grid rows admissible.
    """
    _require_finite(tau=tau)
    _require_positive(theta_user=theta_user)
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    if tau < 1.0 / n:
        raise ValueError(f"tau = {tau} < 1/N leaves the rectangle empty")
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
    max_row_sum = float(row_sum_residual(screened).max())
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
    max_row_sum = max(max_row_sum, *(row_sum_residual(st) for st in routed.values()))
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
