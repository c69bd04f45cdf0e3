"""Self-adjoint linearization of the anticommutator and its resolvent data.

From a Hermitian pair (U, V) build, with a = (U-V)/sqrt(2), b = (-U-V)/sqrt(2),

    X = [[0, a, b],       W = [[I,  0, 0],
         [a, 0, 0],            [-a, I, 0],
         [b, 0, 0]],           [ b, 0, I]],

which satisfy W* (X - Lambda kron I) W = blockdiag({UV} - z, I, -I) with
Lambda = diag(z, -1, 1).  The generalized resolvent R = (X - Lambda kron I)^-1
therefore carries the anticommutator resolvent as its upper-left N x N block,
and per-index statistics of R (3x3 corner blocks G_i, minor averages Ghat_i,
fluctuation blocks Q_i and their normalized sizes) drive the local-law
verification.

Two computation routes are provided for the per-index statistics: the
definitional one, inverting the 3(N-1) minor for every index (quartic cost,
fine at small N), and a Schur-identity route that derives everything from the
full resolvent in roughly matrix-multiplication time.  The harnesses run the
Schur route; the minor route is its test oracle.  ``fluctuation_sup`` screens
its net with a cheaper form of the Schur route (the resolvent assembled block
by block from ({UV} - z)^-1, a and b) and runs the route only near the
screened maximum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AclawError
from .sdcore import phi_ac
from .wigner import WignerPair, spectral_norm

__all__ = [
    "IllConditionedError",
    "Linearization",
    "ResolventStats",
    "FluctuationNet",
    "AnticommutatorSpectrum",
    "build_linearization",
    "lambda_kron",
    "generalized_resolvent",
    "blockwise_resolvent",
    "bordered_resolvent",
    "corner_blocks",
    "resolvent_stats",
    "fluctuation_sup",
    "resolvent_row_sum_check",
    "block_inversion_check",
]

#: condition ceiling on resolvent solves
COND_LIMIT = 1e14

#: minor-route inversions are quartic in N; refuse beyond this
MINOR_ROUTE_MAX_N = 256

#: resolvents up to this N are cross-checked against direct inversion
CROSS_CHECK_MAX_N = 64

#: ``fluctuation_sup`` runs its route at the net points whose screened
#: statistic lies within this relative distance of the screened maximum
SCREEN_MARGIN = 1e-6

#: a route value further than this (relative) from its screen sends
#: ``fluctuation_sup`` back to the route at every net point
SCREEN_AGREEMENT = 2.5e-7


class IllConditionedError(AclawError):
    """A resolvent solve exceeded the condition ceiling."""


@dataclass
class Linearization:
    """The 3N x 3N matrices X (Hermitian) and W (unit block lower triangular)
    of a pair, its blocks a and b, the pair's spectral norms and the
    norm-hypothesis flag max(|U|, |V|) <= 4.  X is built on first use: only
    the direct-inversion cross-check (N <= 64) and the minor route read it."""

    pair: WignerPair
    w: np.ndarray
    anticommutator: np.ndarray
    norm_u: float
    norm_v: float
    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def norms_ok(self) -> bool:
        return max(self.norm_u, self.norm_v) <= 4.0

    @functools.cached_property
    def x(self) -> np.ndarray:
        a, b = self.a, self.b
        zero = np.zeros((self.n, self.n), dtype=complex)
        return np.block([[zero, a, b], [a, zero, zero], [b, zero, zero]])

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """C*C = I + a^2 + b^2 for C = [I; -a; b], the block column of W."""
        return np.eye(self.n) + self.a @ self.a + self.b @ self.b

    @functools.cached_property
    def w_h(self) -> np.ndarray:
        """W*, conjugated once per pair and shared by every resolvent."""
        return self.w.conj().T


def build_linearization(pair: WignerPair) -> Linearization:
    """Assemble W and {UV} from a pair (X follows lazily).

    The norms come from ``spectral_norm``, not from the cheaper
    ``wigner.norm_at_most`` certificate, because their values are needed:
    the resolvent condition bound uses |U| |V|, and ``verify_local_law``
    reports a pair with max(|U|, |V|) = 0 as degenerate."""
    u, v = pair.u, pair.v
    n = pair.n
    a, b = (u - v) / math.sqrt(2.0), (-u - v) / math.sqrt(2.0)
    zero = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    w = np.block([[eye, zero, zero], [-a, eye, zero], [b, zero, eye]])
    return Linearization(pair=pair, w=w, anticommutator=u @ v + v @ u,
                         norm_u=spectral_norm(u), norm_v=spectral_norm(v),
                         a=a, b=b)


def lambda_kron(z: complex, n: int) -> np.ndarray:
    """diag(z, -1, 1) kron I_N."""
    out = np.zeros((3 * n, 3 * n), dtype=complex)
    idx = np.arange(n)
    out[idx, idx] = z
    out[n + idx, n + idx] = -1.0
    out[2 * n + idx, 2 * n + idx] = 1.0
    return out


def _ac_inverse(lin: Linearization, z: complex) -> np.ndarray:
    """({UV} - z)^-1, refused beyond the condition ceiling."""
    # {UV} is Hermitian, so the solve's condition is (|{UV}| + |z|)/Im z
    bound = (2.0 * lin.norm_u * lin.norm_v + abs(z)) / z.imag
    if bound > COND_LIMIT:
        raise IllConditionedError(
            f"anticommutator resolvent condition bound {bound:.3e} at z={z}")
    return np.linalg.inv(lin.anticommutator - z * np.eye(lin.n))


def _check_upper_half_plane(z: complex) -> None:
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")


def _cross_check(lin: Linearization, z: complex, r: np.ndarray) -> None:
    """Refuse unless r agrees with direct inversion of X - Lambda kron I
    within 1e-8 relative."""
    direct = np.linalg.inv(lin.x - lambda_kron(z, lin.n))
    rel = np.linalg.norm(r - direct) / np.linalg.norm(direct)
    if rel > 1e-8:
        raise IllConditionedError(
            f"factorized and direct resolvents disagree ({rel:.3e}) at z={z}")


def generalized_resolvent(lin: Linearization, z: complex) -> np.ndarray:
    """R = (X - Lambda kron I)^-1 via the factorized route
    W blockdiag(({UV} - z)^-1, I, -I) W*.

    For N up to ``CROSS_CHECK_MAX_N`` the result is verified against direct
    inversion of X - Lambda kron I within 1e-8 relative.
    """
    z = complex(z)
    _check_upper_half_plane(z)
    n = lin.n
    g = _ac_inverse(lin, z)
    mid = np.zeros((3 * n, 3 * n), dtype=complex)
    mid[:n, :n] = g
    mid[n:2 * n, n:2 * n] = np.eye(n)
    mid[2 * n:, 2 * n:] = -np.eye(n)
    r = lin.w @ mid @ lin.w_h
    if n <= CROSS_CHECK_MAX_N:
        _cross_check(lin, z, r)
    return r


def blockwise_resolvent(lin: Linearization, z: complex) -> np.ndarray:
    """R = (X - Lambda kron I)^-1 assembled block by block from
    g = ({UV} - z)^-1 and the pair's a, b:

        R = [[ g,   -g a,       g b     ],
             [-a g,  a g a + I, -a g b  ],
             [ b g, -b g a,      b g b - I]],

    eight N x N products instead of the two 3N x 3N ones of W mid W*.  It
    agrees with ``generalized_resolvent`` to rounding, not bit for bit, and
    makes the same refusals, the N <= ``CROSS_CHECK_MAX_N`` direct-inversion
    cross-check included.
    """
    z = complex(z)
    _check_upper_half_plane(z)
    n = lin.n
    g = _ac_inverse(lin, z)
    a, b = lin.a, lin.b
    ga, gb = g @ a, g @ b
    r = np.empty((3 * n, 3 * n), dtype=complex)
    r4 = r.reshape(3, n, 3, n)
    r4[0, :, 0] = g
    np.negative(ga, out=r4[0, :, 1])
    r4[0, :, 2] = gb
    np.negative(a @ g, out=r4[1, :, 0])
    r4[1, :, 1] = a @ ga
    np.negative(a @ gb, out=r4[1, :, 2])
    r4[2, :, 0] = b @ g
    np.negative(b @ ga, out=r4[2, :, 1])
    r4[2, :, 2] = b @ gb
    idx = np.arange(n)
    r[n + idx, n + idx] += 1.0
    r[2 * n + idx, 2 * n + idx] -= 1.0
    if n <= CROSS_CHECK_MAX_N:
        _cross_check(lin, z, r)
    return r


def bordered_resolvent(lin: Linearization, z: complex) -> np.ndarray:
    """({UV} - z)^-1 bordered by zeros to 3N x 3N (the matrix r with
    R + diag(0,-1,1) kron I = W r W*)."""
    n = lin.n
    g = _ac_inverse(lin, z)
    out = np.zeros((3 * n, 3 * n), dtype=complex)
    out[:n, :n] = g
    return out


def _triple(i: int, n: int) -> list[int]:
    return [i, n + i, 2 * n + i]


def corner_blocks(r: np.ndarray) -> np.ndarray:
    """The 3x3 corner blocks G_i = r[(i, N+i, 2N+i), (i, N+i, 2N+i)] of a
    3N x 3N matrix, as an (N, 3, 3) stack."""
    n = r.shape[0] // 3
    idx = np.arange(n)
    return r.reshape(3, n, 3, n)[:, idx, :, idx]


@dataclass
class ResolventStats:
    """Per-index statistics of the generalized resolvent at one z.

    ``fluct_i`` is the normalized size of the fluctuation block,
    max(1, |Q_i| / (N^-1/2 max(1, |R_i|_2 / sqrt(N)))), and ``fluct`` its max
    over i.  ``key_identity_residual`` is the relative residual of
    -Q_i = G_i^-1 + Lambda + Phi(Ghat_i) when Q_i was computed from its
    definition (minor route); on the Schur route Q_i is obtained from that
    identity and the field is None.
    """

    z: complex
    g_i: np.ndarray
    g_avg: np.ndarray
    ghat_i: np.ndarray
    q_i: np.ndarray
    r_i_frob: np.ndarray
    fluct_i: np.ndarray
    fluct: float
    route: str
    key_identity_residual: float | None


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _fluct_from(qnorm: np.ndarray, r_frob: np.ndarray, n: int) -> np.ndarray:
    denom = (1.0 / math.sqrt(n)) * np.maximum(1.0, r_frob / math.sqrt(n))
    return np.maximum(1.0, qnorm / denom)


def _stats_minor(lin: Linearization, z: complex) -> ResolventStats:
    n = lin.n
    if n > MINOR_ROUTE_MAX_N:
        raise ValueError(f"minor route limited to N <= {MINOR_ROUTE_MAX_N}")
    full = lin.x - lambda_kron(z, n)
    r = generalized_resolvent(lin, z)
    lam3 = np.diag([z, -1.0 + 0j, 1.0 + 0j])
    g_i = corner_blocks(r)
    ghat_i = np.empty((n, 3, 3), dtype=complex)
    q_i = np.empty((n, 3, 3), dtype=complex)
    r_frob = np.empty(n)
    key_res = 0.0
    all_idx = np.arange(3 * n)
    for i in range(n):
        rows = _triple(i, n)
        keep = np.delete(all_idx, rows)
        r_minor = np.linalg.inv(full[np.ix_(keep, keep)])
        if n <= 64 and np.linalg.cond(r_minor) > COND_LIMIT:
            raise IllConditionedError(f"minor resolvent ill-conditioned at i={i}")
        # Ghat_i: average of the 3x3 corner blocks of the padded minor
        ghat_i[i] = corner_blocks(r_minor).sum(axis=0) / n
        y = full[np.ix_(rows, keep)] + 0.0
        # X and X - Lambda kron I agree off the removed triple's diagonal
        q_i[i] = (y @ r_minor @ y.conj().T
                  - lin.x[np.ix_(rows, rows)] - phi_ac(ghat_i[i]))
        r_frob[i] = np.linalg.norm(r_minor)
        lhs = -q_i[i]
        rhs = np.linalg.inv(g_i[i]) + lam3 + phi_ac(ghat_i[i])
        key_res = max(key_res, np.linalg.norm(lhs - rhs)
                      / max(np.linalg.norm(rhs), 1e-300))
    qnorm = _spectral_norms(q_i)
    fluct_i = _fluct_from(qnorm, r_frob, n)
    return ResolventStats(z=complex(z), g_i=g_i, g_avg=g_i.mean(axis=0),
                          ghat_i=ghat_i, q_i=q_i, r_i_frob=r_frob,
                          fluct_i=fluct_i, fluct=float(fluct_i.max()),
                          route="minor", key_identity_residual=float(key_res))


def _schur_statistics(r: np.ndarray, z: complex, h3: np.ndarray | None = None):
    """(g_i, g_avg, ghat_i, q_i, r_frob, fluct_i) of the resolvent r at z
    by the Schur identities.  Unless the corner blocks ``h3`` of R (R*R) are
    given, F = R*R and R F are formed by 3N x 3N products and sliced, as the
    'schur' route does; with ``h3`` given, F's corner blocks are contracted
    directly, which rounds differently."""
    n = r.shape[0] // 3
    lam3 = np.diag([z, -1.0 + 0j, 1.0 + 0j])
    r4 = r.reshape(3, n, 3, n)
    g_i = corner_blocks(r)                         # (N, 3, 3)
    g_inv = np.linalg.inv(g_i)
    g_avg = g_i.mean(axis=0)
    # Schur identity: the padded minor is R - (R e_i*) G_i^-1 (e_i R), so the
    # corner-block average and |R_i|_2 follow from R alone.
    corr = np.einsum("ajbi,ibc,cidj->iad", r4, g_inv, r4, optimize=True)
    ghat_i = g_avg[None, :, :] - corr / n
    q_i = -(g_inv + lam3[None, :, :] + phi_ac(ghat_i))
    r_conj = r.conj()
    r3 = r.reshape(3, n, 3 * n)
    vv = np.einsum("aik,bik->iab", r3, r_conj.reshape(3, n, 3 * n), optimize=True)
    if h3 is None:
        f = r_conj.T @ r
        del r_conj  # freed before R F: one 3N x 3N array less at the peak
        uu = corner_blocks(f)                      # F[cols_i, cols_i]
        h3 = corner_blocks(r @ f)                  # (R F)[rows_i, cols_i]
    else:                                          # column triple i of R
        uu = np.einsum("kai,kbi->iab", r_conj.reshape(3 * n, 3, n),
                       r.reshape(3 * n, 3, n))
    norm_r2 = np.vdot(r, r).real
    t1 = np.einsum("iab,iba->i", h3, g_inv)
    t2 = np.einsum("iba,ibc,icd,ida->i", g_inv.conj(), uu, g_inv, vv, optimize=True)
    r_frob2 = norm_r2 - 2.0 * t1.real + t2.real
    r_frob = np.sqrt(np.maximum(r_frob2, 0.0))
    qnorm = _spectral_norms(q_i)
    return g_i, g_avg, ghat_i, q_i, r_frob, _fluct_from(qnorm, r_frob, n)


def _stats_schur(lin: Linearization, z: complex) -> ResolventStats:
    r = generalized_resolvent(lin, z)
    g_i, g_avg, ghat_i, q_i, r_frob, fluct_i = _schur_statistics(r, z)
    return ResolventStats(z=complex(z), g_i=g_i, g_avg=g_avg, ghat_i=ghat_i,
                          q_i=q_i, r_i_frob=r_frob, fluct_i=fluct_i,
                          fluct=float(fluct_i.max()), route="schur",
                          key_identity_residual=None)


def _rf_corner_blocks(lin: Linearization, z: complex, g: np.ndarray) -> np.ndarray:
    """The corner blocks (R R*R)[rows_i, cols_i], as an (N, 3, 3) stack, from
    g = ({UV} - z)^-1 in ten N x N products instead of two 3N x 3N ones.

    R = C g C* + D with C = [I; -a; b] and D = diag(0, I, -I).  Expanding
    R R*R with S = C*C (``Linearization.gram``) and a^2 - b^2 = -{UV}, so
    that g (a^2 - b^2) g = -(g + z g^2), gives

        R R*R = C Y1 C* + C Y2 T* + C g Z* + T Y4 C* + T g* T* + Z g C* + D,

    T = [0; -a; -b], Z = [0; -a; b], Y1 = g S g* S g - g - z g^2,
    Y2 = g S g*, Y4 = g* S g.  Block (p, q) of a term X Y W* has the diagonal
    diag(X_p Y W_q) (W_q is Hermitian), and the terms sharing W_q are summed
    before the product with X_p.
    """
    a, b = lin.a, lin.b
    g_h = g.conj().T
    gs = g @ lin.gram
    y4 = g_h @ (lin.gram @ g)
    y2 = gs @ g_h
    y1 = gs @ y4 - g - z * (g @ g)
    g2 = 2.0 * g

    def diag(x, y):                                # diag(x y) in O(N^2)
        return np.einsum("ik,ki->i", x, y)

    plus, minus = y1 + y2, y1 - y2
    h3 = np.empty((lin.n, 3, 3), dtype=complex)
    h3[:, 0, 0] = np.diagonal(y1)
    h3[:, 1, 0] = -diag(a, y1 + y4 + g)
    h3[:, 2, 0] = diag(b, y1 - y4 + g)
    h3[:, 0, 1] = -diag(plus + g, a)
    h3[:, 1, 1] = diag(a @ (plus + y4 + g_h + g2), a) + 1.0
    h3[:, 2, 1] = -diag(b @ (plus - y4 - g_h + g2), a)
    h3[:, 0, 2] = diag(minus + g, b)
    h3[:, 1, 2] = -diag(a @ (minus + y4 - g_h + g2), b)
    h3[:, 2, 2] = diag(b @ (minus - y4 + g_h + g2), b) - 1.0
    return h3


def _screen_fluct(lin: Linearization, z: complex) -> float:
    """The fluctuation statistic at z by the 'schur' route's formulas on the
    blockwise resolvent, with R (R*R)'s corner blocks from
    ``_rf_corner_blocks`` and F's by contraction: no 3N x 3N product, about
    a third of the cost of a route evaluation at N = 256, and within about
    1e-14 relative of both routes.  The resolvent's refusals apply."""
    z = complex(z)
    r = blockwise_resolvent(lin, z)
    h3 = _rf_corner_blocks(lin, z, r[:lin.n, :lin.n])
    return float(_schur_statistics(r, z, h3)[-1].max())


def resolvent_stats(lin: Linearization, z: complex, route: str = "minor") -> ResolventStats:
    """Per-index resolvent statistics at z.

    route='minor' inverts every 3(N-1) minor (definitional; N <= 256).
    route='schur' derives the same quantities from the full resolvent via the
    Schur identity at matrix-multiplication cost.
    """
    z = complex(z)
    _check_upper_half_plane(z)
    if route == "minor":
        return _stats_minor(lin, z)
    if route == "schur":
        return _stats_schur(lin, z)
    raise ValueError(f"unknown route {route!r}")


@dataclass
class FluctuationNet:
    """Supremum of the fluctuation statistic over a net: ``k2`` is twice the
    observed maximum (the safety factor for net approximation), and
    ``lipschitz_budget`` = N^(7/2) * spacing records how much the statistic
    could move between net points.  ``per_point`` holds the Schur route's
    value at the points where it ran and the screened value elsewhere (see
    ``fluctuation_sup``)."""

    k2: float
    max_fluct: float
    net: np.ndarray
    per_point: np.ndarray
    spacing: float
    lipschitz_budget: float


def fluctuation_sup(lin: Linearization, rect: tuple[float, float, float, float],
                    spacing: float, tau: float = 8.0) -> FluctuationNet:
    """Evaluate the fluctuation statistic on a uniform net of the rectangle
    (re_min, re_max, im_min, im_max) and return twice the maximum.

    Every net point is screened with ``_screen_fluct``, which makes the
    resolvent's conditioning refusal and, for N <= 64, its direct-inversion
    cross-check.  The Schur route then runs only at the points whose screened
    value lies within ``SCREEN_MARGIN`` (relative) of the screened maximum,
    and the maximum is taken over its values there, so it is the route's
    maximum over the whole net, digit for digit, as long as the screen is
    accurate to well within that margin.  ``per_point`` holds the route's
    value at those points and the screened value elsewhere.  If a route
    value differs from its screen by more than ``SCREEN_AGREEMENT``
    (relative), the screen is not trusted: the route runs at every point and
    ``per_point`` holds its values throughout.

    The rectangle must lie within |Re z| <= 8, 1/N <= Im z <= tau.
    """
    from .grids import uniform_net

    re_min, re_max, im_min, im_max = rect
    n = lin.n
    if not (-8.0 <= re_min <= re_max <= 8.0):
        raise ValueError("rectangle must satisfy |Re z| <= 8")
    if im_min < 1.0 / n - 1e-12 or im_max > tau + 1e-12:
        raise ValueError(f"rectangle must satisfy 1/N <= Im z <= tau={tau}")
    net = uniform_net(re_min, re_max, im_min, im_max, spacing)
    screen = np.array([_screen_fluct(lin, z) for z in net])
    top = np.flatnonzero(screen >= screen.max() * (1.0 - SCREEN_MARGIN))
    vals = screen.copy()
    vals[top] = [resolvent_stats(lin, net[j], route="schur").fluct for j in top]
    if (not len(top) or np.any(np.abs(vals[top] - screen[top])
                               > SCREEN_AGREEMENT * np.abs(vals[top]))):
        vals = np.array([resolvent_stats(lin, z, route="schur").fluct for z in net])
    # points off ``top`` screen below the route's values on it
    mx = float(vals.max())
    return FluctuationNet(k2=2.0 * mx, max_fluct=mx, net=net, per_point=vals,
                          spacing=spacing,
                          lipschitz_budget=n**3.5 * spacing)


@dataclass
class AnticommutatorSpectrum:
    """Eigendecomposition {UV} = Q diag(evals) Q* of one pair, with the
    weights |Q|^2 computed once, for cheap resolvent diagonals on grids.
    Build it once per pair and share it between the consumers of that pair.

    ``from_pair`` forms {UV} as UV + (UV)* (VU = (UV)* for Hermitian U, V:
    one matrix product instead of two, and the sum is exactly Hermitian),
    frees UV before the solve, and diagonalizes with LAPACK's MRRR driver
    (``scipy.linalg.eigh(driver="evr")``), which at N = 1024 on one BLAS
    thread takes about half the time of numpy's divide-and-conquer ``heevd``
    and needs a smaller workspace; its eigenvectors are orthogonal to about
    1e-12 at N = 256 (``heevd``: 5e-15), far below what the law and
    delocalization checks resolve.  Held per pair: Q (16 N^2 bytes) and the
    weights (8 N^2 bytes).  scipy.linalg is imported on first use, which
    keeps it out of the start-up of commands that never diagonalize.
    """

    evals: np.ndarray
    evecs: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.weights = np.abs(self.evecs) ** 2

    @classmethod
    def from_pair(cls, pair: WignerPair) -> "AnticommutatorSpectrum":
        import scipy.linalg

        uv = pair.u @ pair.v
        ac = uv + uv.conj().T
        del uv
        evals, evecs = scipy.linalg.eigh(ac, driver="evr", check_finite=False)
        return cls(evals=evals, evecs=evecs)

    def resolvent_diag(self, z: complex) -> np.ndarray:
        """Diagonal of ({UV} - z)^-1."""
        return self.weights @ (1.0 / (self.evals - z))

    def resolvent_diags(self, zs) -> np.ndarray:
        """Diagonals of ({UV} - z)^-1 for every z in ``zs``, as the columns
        of an (N, len(zs)) array.  The real weights multiply the real and
        imaginary parts of 1/(evals - z) in one real matrix product (viewing
        the complex (N, Z) array as a real (N, 2Z) one), with no complex copy
        of the weights."""
        zs = np.asarray(zs, dtype=complex)
        inv = 1.0 / (self.evals[:, None] - zs[None, :])
        return (self.weights @ inv.view(np.float64)).view(complex)


def resolvent_row_sum_check(h: np.ndarray, z: complex) -> float:
    """Largest relative residual, over rows i, of the identities

        Im (h - z)^-1 (i,i) / Im z = sum_j |(h - z)^-1 (i,j)|^2
                                   = sum_j |(h - z)^-1 (j,i)|^2

    for a Hermitian h."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")
    h = np.asarray(h, dtype=complex)
    r = np.linalg.inv(h - z * np.eye(h.shape[0]))
    lhs = np.diag(r).imag / z.imag
    rows = (np.abs(r) ** 2).sum(axis=1)
    cols = (np.abs(r) ** 2).sum(axis=0)
    scale = np.maximum(np.abs(lhs), 1e-300)
    return float(max(np.max(np.abs(lhs - rows) / scale),
                     np.max(np.abs(lhs - cols) / scale)))


def block_inversion_check(mat: np.ndarray, split: int) -> dict[str, float]:
    """Relative residuals of the two 2x2-block inversion identities for
    ``mat`` split as [[a, b], [c, d]] with a of size ``split``.

    The first writes the inverse through the Schur complement a - b d^-1 c;
    the second reassembles it from its own corner blocks.
    """
    mat = np.asarray(mat, dtype=complex)
    k = split
    a, b = mat[:k, :k], mat[:k, k:]
    c, d = mat[k:, :k], mat[k:, k:]
    d_inv = np.linalg.inv(d)
    full_inv = np.linalg.inv(mat)
    schur = a - b @ d_inv @ c
    schur_inv = np.linalg.inv(schur)
    pad = np.zeros_like(mat)
    pad[k:, k:] = d_inv
    left = np.vstack([np.eye(k), -d_inv @ c])
    right = np.hstack([np.eye(k), -b @ d_inv])
    first = pad + left @ schur_inv @ right
    p, q = full_inv[:k, :k], full_inv[:k, k:]
    r_blk = full_inv[k:, :k]
    second = pad + np.vstack([p, r_blk]) @ np.linalg.inv(p) @ np.hstack([p, q])
    scale = np.linalg.norm(full_inv)
    return {
        "schur_form": float(np.linalg.norm(first - full_inv) / scale),
        "corner_form": float(np.linalg.norm(second - full_inv) / scale),
    }
