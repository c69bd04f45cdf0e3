"""Schwinger-Dyson machinery over finite-dimensional algebras.

A triple (Lambda, M, Phi) with Lambda, M in an algebra S and Phi a linear map
on S solves the Schwinger-Dyson equation when 1 + (Lambda + Phi(M))M = 0; it
is nondegenerate when x -> M^-1 x - Phi(x) M is invertible, with inverse
kappa.  The quantity 1/(8 max(1,|kappa|) max(1,|Phi|)) is the stability
radius: approximate solutions within it are pinned to the exact one.

Two instances are built here: the 3x3 anticommutator solution with
Lambda = diag(z, -1, 1), M = diag(m, -1/(m-1), -1/(m+1)) and the sandwich map
Phi(A) = (e12+e21)A(e12+e21) + (e13+e31)A(e13+e31); and the scalar
semicircle solution, of which only m is computed (``sd_semicircle``).

kappa is a 9x9 array over the row-major coordinates of Mat3
(``x.reshape(9)``), applied as ``(kappa @ x.reshape(9)).reshape(3, 3)``.  It
is taken from the explicit inverse of the map's block decomposition
(``_kappa_inverse``); ``kappa_blocks`` gives those blocks' determinants.
Operator norms of linear maps on Mat3 (with the spectral norm) are not
available in closed form, so every bound that must be *valid* (radii,
implication right-hand sides) uses the one certified upper bound
sqrt(3) * (largest singular value of the 9x9 matrix); for Phi that is the
constant sqrt(3) sqrt(2).  The tests hold kappa against the generic
inversion of the map's 9x9 matrix and the bounds against a Monte Carlo
lower estimate (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AclawError
from .freelaw import law_constants, m_ac

__all__ = [
    "SingularMapError",
    "PoleProximityError",
    "DeformationPreconditionError",
    "DeformationConvergenceError",
    "SingularStatisticsError",
    "SDQuadruple",
    "KappaBlocks",
    "ImplicationVerdict",
    "DeformationSolution",
    "phi_ac",
    "op_norm_upper_spectral",
    "sd_solution_ac",
    "sd_residual",
    "kappa_blocks",
    "deformation_solve",
    "stability_check",
    "error_gauge",
    "gauge_implication_check",
    "sd_semicircle",
]

#: condition-number ceiling for the statistics matrices G_i of the gauge
COND_LIMIT = 1e12

#: guarded distance to the poles of the explicit kappa blocks
POLE_RADIUS = 1e-8

#: the deformation iteration stops at a step this small, or fails after
#: this many iterations
DEFORMATION_TOL = 1e-12
DEFORMATION_MAX_ITER = 200


class SingularMapError(AclawError):
    """The Schwinger-Dyson residual of a constructed solution is too large."""


class PoleProximityError(AclawError):
    """m is too close to a pole of the explicit block formulas."""


class DeformationPreconditionError(AclawError):
    """The requested perturbation exceeds the contraction precondition."""


class DeformationConvergenceError(AclawError):
    """The fixed-point iteration did not converge."""


class SingularStatisticsError(AclawError):
    """A statistics matrix G_i is numerically singular."""


# The map x -> M^-1 x - Phi(x) M is block diagonal over these row-major
# coordinates of Mat3: the diagonal entries, then the (1,2)/(2,1),
# (1,3)/(3,1) and (2,3)/(3,2) pairs.
_BLOCK_COORDS = ((0, 4, 8), (1, 3), (2, 6), (5, 7))


def phi_ac(a: np.ndarray) -> np.ndarray:
    """Sandwich map (e12+e21) A (e12+e21) + (e13+e31) A (e13+e31), applied
    to one 3x3 matrix or to each matrix of a (..., 3, 3) stack.

    The two permutation sandwiches only move entries, so the map is written
    as indexing; its one sum, a11 + a22 in the (0, 0) entry, is the same
    floating-point addition the matrix products perform."""
    a = np.asarray(a, dtype=complex)
    out = np.zeros_like(a)
    out[..., 0, 0] = a[..., 1, 1] + a[..., 2, 2]
    out[..., 0, 1:] = a[..., 1:, 0]
    out[..., 1:, 0] = a[..., 0, 1:]
    out[..., 1, 1] = a[..., 0, 0]
    out[..., 2, 2] = a[..., 0, 0]
    return out


def op_norm_upper_spectral(t: np.ndarray) -> float:
    """Certified upper bound sqrt(3) * (largest singular value of the 9x9
    matrix ``t``).  Valid because |T(A)| <= |T(A)|_F <= smax |A|_F <= smax
    sqrt(3) |A| for 3x3 A."""
    return float(np.sqrt(3.0) * np.linalg.norm(t, 2))


#: ``op_norm_upper_spectral`` of Phi.  Its 9x9 matrix has largest singular
#: value sqrt(2): Phi(e00) = e11 + e22 and Phi(e11) = Phi(e22) = e00 are the
#: only coupled columns, and the six off-diagonal units are permuted.
PHI_NORM_UPPER = math.sqrt(3.0) * math.sqrt(2.0)


@dataclass
class SDQuadruple:
    """Nondegenerate Schwinger-Dyson solution over Mat3 at one z, with
    certified norm bounds and the derived stability radius.  Treat as
    immutable after construction."""

    z: complex
    m: complex
    lambda_mat: np.ndarray
    m_mat: np.ndarray
    kappa: np.ndarray
    op_norm_kappa_upper: float
    stability_radius: float


def sd_residual(quad: SDQuadruple) -> float:
    """Spectral norm of 1 + (Lambda + Phi(M)) M."""
    r = np.eye(3) + (quad.lambda_mat + phi_ac(quad.m_mat)) @ quad.m_mat
    return float(np.linalg.norm(r, 2))


def _bound_factors(base: SDQuadruple) -> tuple[float, float, float]:
    """The implication bounds' k* = max(1, |kappa|*), p* = max(1, |Phi|*)
    (``PHI_NORM_UPPER``, above 1) and |M0|."""
    return (max(1.0, base.op_norm_kappa_upper), PHI_NORM_UPPER,
            float(np.linalg.norm(base.m_mat, 2)))


_W = law_constants().omega
#: the zeros of m^2 - 1, 4 m^2 - 1 and m^4 + 4 m^2 - 1, where kappa's
#: explicit inverse blocks have their poles
_KAPPA_POLES = (1.0, -1.0, 0.5, -0.5, _W, -_W, 1j / _W, -1j / _W)


def _kappa_inverse(m: complex) -> np.ndarray:
    """kappa at the Stieltjes value m, assembled from the explicit inverses
    of the four blocks of x -> M^-1 x - Phi(x) M.

    Raises PoleProximityError within ``POLE_RADIUS`` of a pole of kappa:
    +-1, +-1/2, +-omega or +-i/omega.
    """
    if min(abs(m - p) for p in _KAPPA_POLES) < POLE_RADIUS:
        raise PoleProximityError(f"m={m} too close to a pole of kappa")
    q = m**4 + 4.0 * m**2 - 1.0
    inv0 = np.array([
        [-((m**2 - 1.0) ** 2) * m, m**2 * (m**2 - 1.0) * (m + 1.0), m**2 * (m**2 - 1.0) * (m - 1.0)],
        [-((m + 1.0) ** 2) * m, (2.0 * m + 1.0) * (m - 1.0), m**2 * (m + 1.0)],
        [-((m - 1.0) ** 2) * m, m**2 * (m - 1.0), -(2.0 * m - 1.0) * (m + 1.0)],
    ], dtype=complex) / q
    inv1 = np.array([[-((m - 1.0) ** 2) * m, -m], [m**2 * (m - 1.0), m - 1.0]],
                    dtype=complex) / (2.0 * m - 1.0)
    inv2 = np.array([[((m + 1.0) ** 2) * m, m], [-(m**2) * (m + 1.0), -(m + 1.0)]],
                    dtype=complex) / (2.0 * m + 1.0)
    inv3 = np.array([[-1.0 / (m - 1.0), 0.0], [0.0, -1.0 / (m + 1.0)]], dtype=complex)
    k9 = np.zeros((9, 9), dtype=complex)
    for coords, inv in zip(_BLOCK_COORDS, (inv0, inv1, inv2, inv3)):
        k9[np.ix_(coords, coords)] = inv
    return k9


def sd_solution_ac(z: complex) -> SDQuadruple:
    """The anticommutator solution at z: Lambda = diag(z, -1, 1) and
    M = diag(m, -1/(m-1), -1/(m+1)) with m the upper-half-plane root of the
    defining cubic; kappa, the inverse of x -> M^-1 x - Phi(x) M, is
    assembled from the explicit inverses of that map's blocks.

    Raises SingularMapError when the Schwinger-Dyson residual exceeds 1e-10,
    PoleProximityError when m comes within ``POLE_RADIUS`` of a pole of
    kappa, and propagates the root-solver errors of m_ac.
    """
    m = m_ac(z).m
    lam = np.diag([z, -1.0 + 0j, 1.0 + 0j])
    m_mat = np.diag([m, -1.0 / (m - 1.0), -1.0 / (m + 1.0)])
    kappa = _kappa_inverse(m)
    k_up = op_norm_upper_spectral(kappa)
    quad = SDQuadruple(
        z=complex(z), m=m, lambda_mat=lam, m_mat=m_mat, kappa=kappa,
        op_norm_kappa_upper=k_up,
        stability_radius=1.0 / (8.0 * max(1.0, k_up) * PHI_NORM_UPPER),
    )
    if sd_residual(quad) > 1e-10:
        raise SingularMapError(f"Schwinger-Dyson residual too large at z={z}")
    return quad


@dataclass
class KappaBlocks:
    """Determinants of the blocks of x -> M^-1 x - Phi(x) M over
    ``_BLOCK_COORDS`` (a 3x3 block on the diagonal entries and three 2x2
    blocks on the off-diagonal pairs), numerically and in closed form."""

    dets: list
    det_formulas: list


def kappa_blocks(m: complex) -> KappaBlocks:
    """The blocks' determinants of the linear map at a given Stieltjes value
    m, numerically and in closed form.

    Raises PoleProximityError within 1e-8 of m in {0, +-1, +-1/2, +-omega,
    +-i/omega}, where a block or its determinant degenerates; 0 is a pole of
    M^-1 and of the blocks, not of kappa.
    """
    m = complex(m)
    if min(abs(m - p) for p in (0.0, *_KAPPA_POLES)) < POLE_RADIUS:
        raise PoleProximityError(f"m={m} too close to a pole of the blocks")
    b0 = np.array([
        [1.0 / m, -m, -m],
        [1.0 / (m - 1.0), -(m - 1.0), 0.0],
        [1.0 / (m + 1.0), 0.0, -(m + 1.0)],
    ], dtype=complex)
    b1 = np.array([[1.0 / m, 1.0 / (m - 1.0)], [-m, -(m - 1.0)]], dtype=complex)
    b2 = np.array([[1.0 / m, 1.0 / (m + 1.0)], [-m, -(m + 1.0)]], dtype=complex)
    b3 = np.array([[-(m - 1.0), 0.0], [0.0, -(m + 1.0)]], dtype=complex)
    dets = [complex(np.linalg.det(b)) for b in (b0, b1, b2, b3)]
    q = m**4 + 4.0 * m**2 - 1.0
    det_formulas = [
        -q / (m * (m - 1.0) * (m + 1.0)),
        (2.0 * m - 1.0) / (m * (m - 1.0)),
        -(2.0 * m + 1.0) / (m * (m + 1.0)),
        (m - 1.0) * (m + 1.0),
    ]
    return KappaBlocks(dets=dets, det_formulas=det_formulas)


@dataclass
class DeformationSolution:
    """Output of the deformation fixed-point solve: the deformed M together
    with its largest observed contraction ratio."""

    m_new: np.ndarray
    max_contraction: float


def deformation_solve(base: SDQuadruple, lambda_new: np.ndarray) -> DeformationSolution:
    """Solve the Schwinger-Dyson equation at a nearby Lambda by iterating
    the quadratic map x -> kappa(Theta M0 + Theta x + Phi(x) x) from zero,
    where Theta = lambda_new - Lambda0, until a step is at most
    ``DEFORMATION_TOL`` (within ``DEFORMATION_MAX_ITER`` iterations).

    The certified preconditions eps <= 1/(4 k* p*) and |Theta| <= eps/(4 k* m*)
    (k*, p* the kappa/Phi upper bounds, m* = max(1, |M0|)) guarantee the map
    contracts with factor <= 3/4 on the eps-ball; the observed per-iteration
    ratios are recorded and enforced.
    """
    lambda_new = np.asarray(lambda_new, dtype=complex)
    theta = lambda_new - base.lambda_mat
    k_up, p_up, m_norm = _bound_factors(base)
    eps = 1.0 / (4.0 * k_up * p_up)
    delta = eps / (4.0 * k_up * max(1.0, m_norm))
    t_norm = float(np.linalg.norm(theta, 2))
    if t_norm > delta:
        raise DeformationPreconditionError(
            f"|Theta| = {t_norm:.3e} exceeds the allowed {delta:.3e}")
    x = np.zeros((3, 3), dtype=complex)
    prev_step = None
    max_ratio = 0.0
    for it in range(1, DEFORMATION_MAX_ITER + 1):
        rhs = theta @ base.m_mat + theta @ x + phi_ac(x) @ x
        x_next = (base.kappa @ rhs.reshape(9)).reshape(3, 3)
        step = float(np.linalg.norm(x_next - x, 2))
        if prev_step is not None and prev_step > 0.0:
            ratio = step / prev_step
            max_ratio = max(max_ratio, ratio)
            if ratio > 0.75 + 1e-6:
                raise DeformationConvergenceError(
                    f"contraction ratio {ratio:.4f} above 3/4 at iteration {it}")
        x = x_next
        if step <= DEFORMATION_TOL:
            break
        prev_step = step
    else:
        raise DeformationConvergenceError(
            f"no convergence in {DEFORMATION_MAX_ITER} iterations")
    m_new = base.m_mat + x
    resid = np.eye(3) + (lambda_new + phi_ac(m_new)) @ m_new
    resid_norm = float(np.linalg.norm(resid, 2))
    if resid_norm > 1e-10:
        raise DeformationConvergenceError(f"deformed residual {resid_norm:.3e}")
    return DeformationSolution(m_new=m_new, max_contraction=max_ratio)


@dataclass
class ImplicationVerdict:
    """Evaluation of a stability-style implication: if lhs <= threshold then
    lhs <= rhs.  ``holds`` is vacuously true when the hypothesis is not met."""

    lhs: float
    rhs: float
    hypothesis_met: bool
    holds: bool


def stability_check(base: SDQuadruple, g0: np.ndarray) -> ImplicationVerdict:
    """Check the stability implication at an arbitrary G0: with
    E0 = 1 + (Lambda0 + Phi(G0)) G0,

        |G0 - M0| <= radius  =>  |G0 - M0| <= 20 k* p* m*^2 |E0|,

    with certified upper bounds on the right-hand side."""
    g0 = np.asarray(g0, dtype=complex)
    e0 = np.eye(3) + (base.lambda_mat + phi_ac(g0)) @ g0
    lhs = float(np.linalg.norm(g0 - base.m_mat, 2))
    k_up, p_up, m_norm = _bound_factors(base)
    rhs = 20.0 * k_up * p_up * max(1.0, m_norm)**2 * float(np.linalg.norm(e0, 2))
    hyp = lhs <= base.stability_radius
    return ImplicationVerdict(lhs=lhs, rhs=rhs, hypothesis_met=hyp,
                              holds=(not hyp) or lhs <= rhs)


def error_gauge(g_list, ghat_list, base: SDQuadruple) -> float:
    """The self-consistency error gauge of a family {G_i, Ghat_i}: the max
    over i of |G_i^-1 + Lambda0 + Phi(Ghat_i)| / max(1,|Ghat_i|)^(1/2) and of
    sqrt(|Ghat_i - avg G| / (max(1,|G_i|) |G_i^-1|)).  Raises
    SingularStatisticsError when some G_i has condition number beyond 1e12."""
    g = np.asarray(g_list, dtype=complex)
    ghat = np.asarray(ghat_list, dtype=complex)
    if g.shape != ghat.shape or g.ndim != 3 or g.shape[1:] != (3, 3):
        raise ValueError("expected matching lists of 3x3 matrices")
    conds = np.linalg.cond(g)
    if np.any(~np.isfinite(conds)) or np.any(conds > COND_LIMIT):
        raise SingularStatisticsError("some G_i is numerically singular")
    g_inv = np.linalg.inv(g)

    def norms(stack):
        return np.linalg.norm(stack, 2, axis=(1, 2))

    r_eq = (norms(g_inv + base.lambda_mat + phi_ac(ghat))
            / np.sqrt(np.maximum(1.0, norms(ghat))))
    r_av = np.sqrt(norms(ghat - g.mean(axis=0))
                   / (np.maximum(1.0, norms(g)) * norms(g_inv)))
    return float(max(r_eq.max(), r_av.max()))


def gauge_implication_check(g_list, ghat_list, base: SDQuadruple) -> ImplicationVerdict:
    """Check the self-consistent implication: if max_i |G_i - M0| <= radius
    then max_i |G_i - M0| <= 2^14 (1+|M0|)^7 max(p*, l*)^4 k* * gauge, with
    certified upper bounds on the right."""
    gauge = error_gauge(g_list, ghat_list, base)
    g = np.asarray(g_list, dtype=complex)
    lhs = float(max(np.linalg.norm(gi - base.m_mat, 2) for gi in g))
    k_up, p_up, m_norm = _bound_factors(base)
    l_up = max(1.0, float(np.linalg.norm(base.lambda_mat, 2)))
    rhs = 2.0**14 * (1.0 + m_norm) ** 7 * max(p_up, l_up) ** 4 * k_up * gauge
    hyp = lhs <= base.stability_radius
    return ImplicationVerdict(lhs=lhs, rhs=rhs, hypothesis_met=hyp,
                              holds=(not hyp) or lhs <= rhs)


def sd_semicircle(z: complex) -> complex:
    """Semicircle Schwinger-Dyson solution m: the root of m^2 + z m + 1 = 0
    with Im m > 0.  Its Phi is the identity and its kappa (1/m - m)^-1."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError(f"z must lie in the upper half-plane, got {z}")
    s = np.sqrt(complex(z * z - 4.0))
    m = (-z + s) / 2.0
    if m.imag <= 0:
        m = (-z - s) / 2.0
    return complex(m)
