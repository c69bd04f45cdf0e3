"""Limiting spectral law of the anticommutator of free semicircular variables.

The Stieltjes transform m(z) of the limiting law is the unique upper-half-plane
root of the cubic

    z*m^3 - m^2 - z*m - 1 = 0,

equivalently z = (m^2 + 1)/(m^3 - m).  The support of the law is [-zeta, zeta]
with zeta^4 - 11*zeta^2 - 1 = 0, and the values m(z) fill the lens-shaped
region bounded above by v = sqrt(sqrt(1 - 4u^2) - u^2), |u| <= omega, where
omega^4 + 4*omega^2 - 1 = 0.  This module computes m, the density, the edge
distance h, the four branch points of the cubic, and the algebraic identities
relating omega, zeta and the auxiliary constant (omega^3 + 5*omega)/2; the
last two are stated by acceptance criterion 01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AclawError

__all__ = [
    "DegenerateRootError",
    "LadderConvergenceError",
    "LawConstants",
    "LawPoint",
    "law_constants",
    "edge_distance",
    "m_ac",
    "density_ac",
    "critical_points",
    "in_stieltjes_region",
    "quadrant_map",
    "boundary_curve_re",
    "boundary_curve_im",
    "algebraic_identities",
]

#: below this Im z the cubic root separation degrades and m_ac refuses
MIN_IM_Z = 1e-8

#: a root counts as upper-half-plane when Im m exceeds this
ROOT_IM_TOL = 1e-14


class DegenerateRootError(AclawError):
    """The cubic did not have exactly one clear upper-half-plane root."""


class LadderConvergenceError(AclawError):
    """Density values along the regularization ladder did not stabilize."""


@dataclass(frozen=True)
class LawConstants:
    """Algebraic constants of the law: the support endpoint ``zeta``, the
    real extent ``omega`` of the Stieltjes-value region, and the auxiliary
    constant ``rho_aux`` = (omega^3 + 5*omega)/2 entering the edge identity."""

    omega: float
    zeta: float
    rho_aux: float


@dataclass(frozen=True)
class LawPoint:
    """Value of the limiting Stieltjes transform at one spectral parameter.

    ``h`` is the edge distance min(|z - zeta|, |z + zeta|, 1).
    """

    m: complex
    h: float


def law_constants() -> LawConstants:
    """Support and region constants to full double precision.

    omega = sqrt(sqrt(5) - 2) is the unique positive root of
    m^4 + 4m^2 - 1; zeta = sqrt((11 + 5*sqrt(5))/2) the unique positive root
    of z^4 - 11z^2 - 1.
    """
    s5 = math.sqrt(5.0)
    omega = math.sqrt(s5 - 2.0)
    zeta = math.sqrt((11.0 + 5.0 * s5) / 2.0)
    rho_aux = (omega**3 + 5.0 * omega) / 2.0
    return LawConstants(omega=omega, zeta=zeta, rho_aux=rho_aux)


_CONST = law_constants()


def edge_distance(z: complex) -> float:
    """min(|z - zeta|, |z + zeta|, 1), the distance to the spectral edges
    capped at one."""
    return min(abs(z - _CONST.zeta), abs(z + _CONST.zeta), 1.0)


def _cubic_residual(z: complex, m: complex) -> float:
    return abs(z * m**3 - m**2 - z * m - 1.0)


def m_ac(z: complex) -> LawPoint:
    """Stieltjes transform of the limiting anticommutator law.

    Solves z*m^3 - m^2 - z*m - 1 = 0 by the companion-matrix eigenvalue route
    and keeps the unique root in the upper half-plane, with one Newton polish
    accepted only when it reduces the residual.

    Raises
    ------
    ValueError
        If Im z <= 0.
    DegenerateRootError
        If Im z < 1e-8, or the upper-half-plane root is not unique at
        tolerance 1e-14 (numerical failure near the real axis).
    """
    z = complex(z)
    if z.imag <= 0.0:
        raise ValueError(f"z must lie in the upper half-plane, got {z}")
    if z.imag < MIN_IM_Z:
        raise DegenerateRootError(
            f"Im z = {z.imag:.3e} below the {MIN_IM_Z:.0e} floor; raise Im z")
    roots = np.roots([z, -1.0, -z, -1.0])
    upper = roots[roots.imag > ROOT_IM_TOL]
    if upper.size != 1:
        raise DegenerateRootError(
            f"expected one upper-half-plane root at z={z}, found {upper.size}")
    m = complex(upper[0])
    # Newton polish; keep only if it helps (derivative may vanish near the
    # four branch points).
    dp = 3.0 * z * m * m - 2.0 * m - z
    if dp != 0.0:
        m2 = m - (z * m**3 - m**2 - z * m - 1.0) / dp
        if m2.imag > 0.0 and _cubic_residual(z, m2) < _cubic_residual(z, m):
            m = m2
    scale = (1.0 + abs(z)) * max(1.0, abs(m)) ** 3
    if _cubic_residual(z, m) > 1e-10 * scale:
        raise DegenerateRootError(f"cubic residual too large at z={z}")
    return LawPoint(m=m, h=edge_distance(z))


#: the regularizations eps of ``density_ac``, strictly decreasing
_EPS_LADDER = (1e-3, 1e-4, 1e-5)


def density_ac(t: float) -> float:
    """Density of the limiting law at a real point.

    Evaluates Im m(t + i*eps)/pi down the ladder ``_EPS_LADDER`` of
    regularizations and returns the value at the smallest eps, requiring the
    last two ladder values to agree within 1e-3 (the z -> t limit exists
    since the law has a bounded density).  Returns 0 outside [-zeta, zeta].
    """
    if abs(t) > _CONST.zeta:
        return 0.0
    vals = [m_ac(t + 1j * e).m.imag / math.pi for e in _EPS_LADDER]
    if abs(vals[-1] - vals[-2]) > 1e-3:
        raise LadderConvergenceError(
            f"density ladder at t={t} moved by {abs(vals[-1] - vals[-2]):.3e}")
    return max(vals[-1], 0.0)


def critical_points() -> list[tuple[complex, complex]]:
    """The four (z, m) points where the cubic and its m-derivative vanish
    simultaneously, i.e. where no analytic branch m(z) exists."""
    w, zt = _CONST.omega, _CONST.zeta
    return [
        (complex(-zt), complex(w)),
        (complex(zt), complex(-w)),
        (-1j / zt, 1j / w),
        (1j / zt, -1j / w),
    ]


def in_stieltjes_region(m: complex) -> bool:
    """Whether m lies in the closed region of attained Stieltjes values:
    |Re m| <= omega and 0 <= Im m <= sqrt(sqrt(1 - 4u^2) - u^2)."""
    u, v = m.real, m.imag
    w = _CONST.omega
    if abs(u) > w or v < 0.0:
        return False
    # closed region; the 1e-12 slack absorbs rounding at the corners u = +-omega
    return v * v <= math.sqrt(1.0 - 4.0 * u * u) - u * u + 1e-12


def _inverse_map(m: complex) -> complex:
    return (m * m + 1.0) / (m**3 - m)


def quadrant_map(re_range=(-2.2, 2.2), im_range=(-2.2, 2.2),
                 n_re: int = 221, n_im: int = 221,
                 exclusion_radius: float = 1e-3):
    """Quadrant table of w = (m^2+1)/(m^3-m) over a grid in the m-plane.

    Returns a list of (m, code) with code 1..4 the quadrant of w, 0 when w
    lies on a coordinate axis within 1e-12, and -1 for grid points
    within ``exclusion_radius`` of a pole of the map ({-1, 0, 1}).  Refuses
    an empty grid, non-finite ranges and a non-finite or negative radius,
    which would let a pole through to the division.
    """
    if n_re < 1 or n_im < 1:
        raise ValueError(f"grid needs n_re >= 1 and n_im >= 1, got {n_re}, {n_im}")
    if not np.all(np.isfinite([*re_range, *im_range])):
        raise ValueError("grid ranges must be finite")
    if not (math.isfinite(exclusion_radius) and exclusion_radius >= 0):
        raise ValueError("exclusion radius must be finite and non-negative")
    rows = []
    for v in np.linspace(im_range[0], im_range[1], n_im):
        for u in np.linspace(re_range[0], re_range[1], n_re):
            m = complex(u, v)
            if min(abs(m), abs(m - 1.0), abs(m + 1.0)) <= exclusion_radius:
                rows.append((m, -1))
                continue
            w = _inverse_map(m)
            if abs(w.real) <= 1e-12 or abs(w.imag) <= 1e-12:
                rows.append((m, 0))
            elif w.real > 0:
                rows.append((m, 1 if w.imag > 0 else 4))
            else:
                rows.append((m, 2 if w.imag > 0 else 3))
    return rows


def boundary_curve_re(t: float) -> complex:
    """Point of the curve Re (m^2+1)/(m^3-m) = 0 parametrized by Im m = t,
    |t| <= 1/omega (right branch; the left branch is its negative)."""
    if abs(t) > 1.0 / _CONST.omega:
        raise ValueError("parameter out of range")
    # the radicand vanishes at the endpoints; clamp away rounding noise
    return complex(math.sqrt(max(math.sqrt(1.0 + 4.0 * t * t) - t * t, 0.0)), t)


def boundary_curve_im(t: float) -> complex:
    """Point of the curve Im (m^2+1)/(m^3-m) = 0 parametrized by Re m = t,
    |t| <= omega (upper branch; the lower branch is its negative)."""
    if abs(t) > _CONST.omega:
        raise ValueError("parameter out of range")
    return complex(t, math.sqrt(max(math.sqrt(1.0 - 4.0 * t * t) - t * t, 0.0)))


def algebraic_identities() -> dict[str, float]:
    """Residuals of the polynomial identities tying omega, zeta and rho_aux.

    All residuals are relative and should sit at rounding level.  The checked
    identities, with a = omega and rho = rho_aux:

    * zeta = (3a^3 + 13a)/2 and zeta * (a^3 + a)/2 = 1;
    * t^4 - 11t^2 - 1 vanishes at t = (3a^3 + 13a)/2;
    * (t^3 - t) +/- ((a^3+a)/2)(t^2+1) = (t +/- (a^3+5a)/2)(t -/+ a)^2
      for all t (checked at 29 points of [-3, 3]);
    * 1/|m^2 - a^2| = |m^2 - rho^2|^(1/2)/|m^2 - 1| * 1/|m| *
      zeta/|z^2 - zeta^2|^(1/2) at (z, m(z)) for five sample z.
    """
    w, zt, rho = _CONST.omega, _CONST.zeta, _CONST.rho_aux
    out: dict[str, float] = {}
    out["zeta_from_omega"] = abs(zt - (3 * w**3 + 13 * w) / 2) / zt
    out["zeta_reciprocal"] = abs(zt * (w**3 + w) / 2 - 1.0)
    tt = (3 * w**3 + 13 * w) / 2
    out["quartic_at_image"] = abs(tt**4 - 11 * tt**2 - 1.0) / tt**4
    res3 = 0.0
    half = (w**3 + w) / 2
    for t in np.linspace(-3.0, 3.0, 29):
        for s in (+1.0, -1.0):
            lhs = (t**3 - t) + s * half * (t * t + 1.0)
            rhs = (t + s * rho) * (t - s * w) ** 2
            res3 = max(res3, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out["square_factorization"] = res3
    res5 = 0.0
    for z in (1.0 + 1.0j, -2.0 + 0.5j, 0.3 + 2.0j, 3.0 + 0.05j, 0.5j):
        m = m_ac(z).m
        lhs = 1.0 / abs(m * m - w * w)
        rhs = (math.sqrt(abs(m * m - rho * rho)) / abs(m * m - 1.0)
               / abs(m) * zt / math.sqrt(abs(z * z - zt * zt)))
        res5 = max(res5, abs(lhs - rhs) / rhs)
    out["edge_identity"] = res5
    return out


def law_csv_rows(z_grid):
    """(header, rows) for the law table: one row per grid point with the
    spectral parameter, Stieltjes value and edge distance."""
    header = ["re_z", "im_z", "re_m", "im_m", "h"]
    rows = []
    for z in z_grid:
        p = m_ac(z)
        rows.append([z.real, z.imag, p.m.real, p.m.imag, p.h])
    return header, rows


def quadrant_csv_rows(table):
    """(header, rows) for a quadrant_map table."""
    header = ["re_m", "im_m", "quadrant"]
    rows = [[m.real, m.imag, code] for m, code in table]
    return header, rows
