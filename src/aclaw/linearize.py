"""Self-adjoint linearization of the anticommutator and its resolvent data.

From a Hermitian pair (U, V) build, with a = (U-V)/sqrt(2), b = (-U-V)/sqrt(2),

    X = [[0, a, b],       W = [[I,  0, 0],
         [a, 0, 0],            [-a, I, 0],
         [b, 0, 0]],           [ b, 0, I]],

which satisfy W* (X - Lambda kron I) W = blockdiag({UV} - z, I, -I) with
Lambda = diag(z, -1, 1).  The generalized resolvent R = (X - Lambda kron I)^-1
= W blockdiag(g, I, -I) W*, g = ({UV} - z)^-1, therefore carries the
anticommutator resolvent as its upper-left N x N block, and every other block
of R is g multiplied by a or b: ``generalized_resolvent`` assembles R from
those blocks and never reads W, which is built (lazily, like X) only for
``aclaw linearize-check`` and the tests.  Per-index statistics of R (3x3
corner blocks G_i, minor averages Ghat_i, fluctuation blocks Q_i and their
normalized sizes) drive the local-law verification.  Its grid rows read only
the G_i, 9N of R's 9N^2 entries: ``grid_corner_blocks`` forms just those,
with the bits of the full R, at 2 N^3 complex multiply-adds plus the N x N
inverse per z instead of 16 N^3.

``resolvent_stats`` derives the per-index statistics from the full resolvent
by the Schur identities, in roughly matrix-multiplication time (the tests
hold it against an oracle that inverts every minor).  ``identity_spot_check``
checks a route's Q_i against the key identity -Q_i = G_i^-1 + Lambda +
Phi(Ghat_i) by solving each minor once, for the k = 3 linearization and
the k = 1 semicircle mode alike.  ``fluctuation_sup``
screens its whole net with the Schur route's formulas in the eigenbasis of
{UV}, where R = P diag(1/(lam - z)) P* + D is affine in the anticommutator
resolvent: one ``eigh`` per pair, kernels built once per Im level of the net
and O(N^2) work per net point.  It runs the route only near the screened
maximum.  With {UV} = Q diag(lam) Q* and P = [Q, -aQ, bQ] the screen uses
three exact identities of the linearization: Q*Q = I; every Gram block
P_e* P_a that ghat's correction reads is Hermitian; and P_2* P_2 - P_1* P_1 =
Q* (b^2 - a^2) Q = diag(lam), since a^2 - b^2 = -{UV}.  Equal eigenvalues
(k = l) enter as weights on d_k^2, so only genuine ties are multiplied
directly.
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
    "grid_corner_blocks",
    "bordered_resolvent",
    "corner_blocks",
    "resolvent_stats",
    "identity_spot_check",
    "fluctuation_sup",
]

#: condition ceiling on resolvent solves
COND_LIMIT = 1e14

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
    """A pair with its blocks a and b, {UV}, its spectral norms and the
    norm-hypothesis flag max(|U|, |V|) <= 4.  The 3N x 3N matrices X
    (Hermitian) and W (unit block lower triangular) are built on first use:
    ``generalized_resolvent`` and ``grid_corner_blocks`` read only a and b,
    X is read by the direct-inversion cross-check (N <= 64) and ``aclaw
    linearize-check``'s key-identity spot check, and W only by
    ``linearize-check`` and the tests."""

    pair: WignerPair
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
    def w(self) -> np.ndarray:
        a, b = self.a, self.b
        zero = np.zeros((self.n, self.n), dtype=complex)
        eye = np.eye(self.n, dtype=complex)
        return np.block([[eye, zero, zero], [-a, eye, zero], [b, zero, eye]])


def build_linearization(pair: WignerPair) -> Linearization:
    """Form a, b and {UV} from a pair (X and W follow lazily).

    The norms come from ``spectral_norm``, not from the cheaper
    ``wigner.norm_at_most`` certificate, because their values are needed:
    the resolvent condition bound uses |U| |V|, and ``verify_local_law``
    reports a pair with max(|U|, |V|) = 0 as degenerate."""
    u, v = pair.u, pair.v
    a, b = (u - v) / math.sqrt(2.0), (-u - v) / math.sqrt(2.0)
    return Linearization(pair=pair, anticommutator=u @ v + v @ u,
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


def _check_conditioning(lin: Linearization, z: complex) -> None:
    """Refuse z when ({UV} - z)^-1 would exceed the condition ceiling."""
    # {UV} is Hermitian, so the solve's condition is (|{UV}| + |z|)/Im z
    bound = (2.0 * lin.norm_u * lin.norm_v + abs(z)) / z.imag
    if bound > COND_LIMIT:
        raise IllConditionedError(
            f"anticommutator resolvent condition bound {bound:.3e} at z={z}")


def _ac_inverse(lin: Linearization, z: complex) -> np.ndarray:
    """({UV} - z)^-1, refused beyond the condition ceiling."""
    _check_conditioning(lin, z)
    return np.linalg.inv(lin.anticommutator - z * np.eye(lin.n))


def _check_upper_half_plane(z: complex) -> None:
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")


def _cross_check(lin: Linearization, z: complex, r: np.ndarray) -> None:
    """Refuse unless r agrees with direct inversion of X - Lambda kron I
    within 1e-8 relative (Frobenius).  An (N, 3, 3) stack r of corner
    blocks is held against the direct inverse's corner blocks alone."""
    direct = np.linalg.inv(lin.x - lambda_kron(z, lin.n))
    if r.ndim == 3:
        direct = corner_blocks(direct, 3)
    rel = np.linalg.norm(r - direct) / np.linalg.norm(direct)
    if rel > 1e-8:
        raise IllConditionedError(
            f"factorized and direct resolvents disagree ({rel:.3e}) at z={z}")


def generalized_resolvent(lin: Linearization, z: complex) -> np.ndarray:
    """R = (X - Lambda kron I)^-1 = W blockdiag(g, I, -I) W*, with
    g = ({UV} - z)^-1, assembled from its nonzero blocks.  W is unit block
    lower triangular with blocks -a and b, so with B = [-a, b] (the first
    block row of W* past its I) and C = [-a; b] (the first block column of
    W below its I) every block of R is g times a or b:

        R = [[g,   g B                        ],
             [C g, [C g, diag(I, -I)] [B; I]  ]].

    The lower-right product keeps the definitional product's summation over
    all 3N columns, so the +-I terms enter the BLAS sum as they do in
    W blockdiag(g, I, -I) W*: R has that product's bits at most sizes N and
    differs in the last bit at the others (CHANGES.md lists both); an N-term
    sum there moved last bits at N = 8, 16, 64 and 100 as well.  16 N^3
    complex multiply-adds instead of the definitional 54 N^3, and W is
    never read.

    For N up to ``CROSS_CHECK_MAX_N`` the result is verified against direct
    inversion of X - Lambda kron I within 1e-8 relative.  Production forms
    R only where the Schur route runs (``resolvent_stats``, near the net's
    screened maximum); the grid rows use ``grid_corner_blocks``.
    """
    z = complex(z)
    _check_upper_half_plane(z)
    n = lin.n
    g = _ac_inverse(lin, z)
    b_row = np.hstack([-lin.a, lin.b])
    r = np.empty((3 * n, 3 * n), dtype=complex)
    r[:n, :n] = g
    np.matmul(g, b_row, out=r[:n, n:])
    left = np.zeros((2 * n, 3 * n), dtype=complex)   # [C g, diag(I, -I)]
    np.matmul(np.vstack([-lin.a, lin.b]), g, out=left[:, :n])
    idx = np.arange(n)
    left[idx, n + idx] = 1.0
    left[n + idx, 2 * n + idx] = -1.0
    r[n:, :n] = left[:, :n]
    np.matmul(left, np.vstack([b_row, np.eye(2 * n)]), out=r[n:, n:])
    if n <= CROSS_CHECK_MAX_N:
        _cross_check(lin, z, r)
    return r


#: rows (and columns) per diagonal tile in ``grid_corner_blocks``
_TILE = 16


def grid_corner_blocks(lin: Linearization, zs) -> np.ndarray:
    """The corner blocks G_i of ``generalized_resolvent`` at every z of
    ``zs``, as a (len(zs), N, 3, 3) stack, without forming the rest of R.

    G_i reads R[i + N a, i + N b]: the diagonals of g, of C g and of the
    products g B and [C g, diag(I, -I)] [B; I] (the notation of
    ``generalized_resolvent``).  Both products are formed on their diagonal
    tiles only: rows lo:hi and N+lo:N+hi against the same columns, with
    ``_TILE`` rows per tile and the remainder joined to the last tile, so no
    tile has one row (numpy would hand a one-row product to gemv, which sums
    in another order).  Each entry is still one BLAS sum over the same N or
    3N terms, the +-I terms included; on OpenBLAS 0.3.31 (one thread) the
    result had the bits of ``corner_blocks(generalized_resolvent(lin, z),
    3)`` at every N tried from 2 to 300.  The operands [B; I] are built once per call, tile by tile, and a
    tile's rows of [C g, diag(I, -I)] are copied into one buffer.  Per z:
    the N x N inverse, C g (2 N^3 complex multiply-adds) and O(N^2 _TILE)
    for the tiles, against 16 N^3 for all of R.

    Every z gets the conditioning refusal and, for N up to
    ``CROSS_CHECK_MAX_N``, the direct-inversion cross-check at 1e-8
    relative, on the 9N corner entries of (X - Lambda kron I)^-1 (the other
    entries of R are not formed).
    """
    n = lin.n
    zs = [complex(z) for z in zs]
    for z in zs:
        _check_upper_half_plane(z)
    b_row = np.hstack([-lin.a, lin.b])                    # B
    c_col = np.vstack([-lin.a, lin.b])                    # C
    starts = list(range(0, n - _TILE + 1, _TILE)) or [0]
    tiles = list(zip(starts, starts[1:] + [n]))
    rights = []                                           # columns of [B; I]
    for lo, hi in tiles:
        cols = np.r_[lo:hi, n + lo:n + hi]
        right = np.zeros((3 * n, cols.size), dtype=complex)
        right[:n] = b_row[:, cols]
        right[n + cols, np.arange(cols.size)] = 1.0
        rights.append(right)
    del b_row
    left = np.zeros((2 * (tiles[-1][1] - tiles[-1][0]), 3 * n), dtype=complex)
    idx = np.arange(n)
    out = np.empty((len(zs), n, 3, 3), dtype=complex)
    for g_i, z in zip(out, zs):
        g = _ac_inverse(lin, z)
        cg = c_col @ g
        g_i[:, 0, 0] = g[idx, idx]
        g_i[:, 1, 0] = cg[idx, idx]
        g_i[:, 2, 0] = cg[n + idx, idx]
        for (lo, hi), right in zip(tiles, rights):
            t = hi - lo
            j = np.arange(t)
            gb = g[lo:hi] @ right[:n]
            g_i[lo:hi, 0, 1], g_i[lo:hi, 0, 2] = gb[j, j], gb[j, t + j]
            rows = left[:2 * t]                           # [C g, diag(I, -I)]
            rows[:t, :n], rows[t:, :n] = cg[lo:hi], cg[n + lo:n + hi]
            ones = (np.r_[j, t + j], np.r_[n + lo + j, 2 * n + lo + j])
            rows[ones] = np.repeat([1.0, -1.0], t)
            lr = rows @ right
            rows[ones] = 0.0
            g_i[lo:hi, 1:, 1:] = lr.reshape(2, t, 2, t)[:, j, :, j]
        if n <= CROSS_CHECK_MAX_N:
            _cross_check(lin, z, g_i)
    return out


def _eigenbasis(lin: Linearization) -> tuple[np.ndarray, np.ndarray]:
    """(lam, P): {UV} = Q diag(lam) Q* and P = [Q, -aQ, bQ], so that
    R = P diag(1/(lam - z)) P* + diag(0, I, -I).  numpy's ``heevd`` keeps Q
    orthogonal to about 5e-15 (MRRR, as in ``AnticommutatorSpectrum``: 1e-12).
    Not cached on the pair: held through the route, P would raise the peak."""
    lam, q = np.linalg.eigh(lin.anticommutator)
    return lam, np.stack([q, -(lin.a @ q), lin.b @ q])


def _spectral_resolvent(basis, z: complex) -> np.ndarray:
    """R = P diag(1/(lam - z)) P* + D from ``basis`` = (lam, P) of
    ``_eigenbasis``; it agrees with ``generalized_resolvent`` to rounding.
    The net screen cross-checks it against direct inversion."""
    z = complex(z)
    _check_upper_half_plane(z)
    lam, p = basis
    n = lam.size
    pf = p.reshape(3 * n, n)
    r = (pf / (lam - z)) @ pf.conj().T
    idx = np.arange(n)
    r[n + idx, n + idx] += 1.0
    r[2 * n + idx, 2 * n + idx] -= 1.0
    return r


def bordered_resolvent(lin: Linearization, z: complex) -> np.ndarray:
    """({UV} - z)^-1 bordered by zeros to 3N x 3N (the matrix r with
    R + diag(0,-1,1) kron I = W r W*)."""
    n = lin.n
    g = _ac_inverse(lin, z)
    out = np.zeros((3 * n, 3 * n), dtype=complex)
    out[:n, :n] = g
    return out


def corner_blocks(r: np.ndarray, k: int) -> np.ndarray:
    """The k x k corner blocks G_i = r[i + N arange(k), i + N arange(k)] of a
    kN x kN matrix, as an (N, k, k) stack."""
    n = r.shape[0] // k
    idx = np.arange(n)
    return r.reshape(k, n, k, n)[:, idx, :, idx]


@dataclass
class ResolventStats:
    """Per-index statistics of the generalized resolvent at one z.

    ``fluct_i`` is the normalized size of the fluctuation block,
    max(1, |Q_i| / (N^-1/2 max(1, |R_i|_2 / sqrt(N)))), and ``fluct`` its max
    over i.  ``resolvent_stats`` obtains Q_i from the key identity
    -Q_i = G_i^-1 + Lambda + Phi(Ghat_i); ``identity_spot_check`` holds it
    against Q_i's definition.
    """

    z: complex
    g_i: np.ndarray
    g_avg: np.ndarray
    ghat_i: np.ndarray
    q_i: np.ndarray
    r_i_frob: np.ndarray
    fluct_i: np.ndarray
    fluct: float


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _fluct_from(qnorm: np.ndarray, r_frob: np.ndarray, n: int) -> np.ndarray:
    denom = (1.0 / math.sqrt(n)) * np.maximum(1.0, r_frob / math.sqrt(n))
    return np.maximum(1.0, qnorm / denom)


def _schur_statistics(r: np.ndarray, z: complex):
    """(g_i, g_avg, ghat_i, q_i, r_frob, fluct_i) of the resolvent r at z
    by the Schur identities, with F = R*R and R F formed by 3N x 3N
    products and sliced."""
    n = r.shape[0] // 3
    lam3 = np.diag([z, -1.0 + 0j, 1.0 + 0j])
    r4 = r.reshape(3, n, 3, n)
    g_i = corner_blocks(r, 3)                      # (N, 3, 3)
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
    f = r_conj.T @ r
    del r_conj  # freed before R F: one 3N x 3N array less at the peak
    uu = corner_blocks(f, 3)                       # F[cols_i, cols_i]
    h3 = corner_blocks(r @ f, 3)                   # (R F)[rows_i, cols_i]
    norm_r2 = np.vdot(r, r).real
    t1 = np.einsum("iab,iba->i", h3, g_inv)
    t2 = np.einsum("iba,ibc,icd,ida->i", g_inv.conj(), uu, g_inv, vv, optimize=True)
    r_frob2 = norm_r2 - 2.0 * t1.real + t2.real
    r_frob = np.sqrt(np.maximum(r_frob2, 0.0))
    qnorm = _spectral_norms(q_i)
    return g_i, g_avg, ghat_i, q_i, r_frob, _fluct_from(qnorm, r_frob, n)


#: the signs s_a of D = diag(0, I, -I), block by block
_SIGNS = np.array([0.0, 1.0, -1.0])

#: the entries (a, e) of ghat that ``phi_ac`` reads, one of each transposed
#: pair: it never reads ghat[1, 2] or ghat[2, 1]
_PHI_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2))

#: eigenvalue pairs of {UV} closer than this are multiplied directly in the
#: net screen rather than through a divided difference
_NEAR_GAP = 1e-3


def _pair_diagonals(left, right, f, out):
    """Add diag(L_a diag(f[:, z]) R_b*) to out[z, :, a, b] for every column
    z of f and every block pair (a, b) of the (3, N, N) stacks L and R: one
    (N, N) x (N, Z) product per pair, O(N^2) per column."""
    for b in range(3):
        right_b = right[b].conj()
        for a in range(3):
            out[:, :, a, b] += ((left[a] * right_b) @ f).T
    return out


def _net_corr(p, lam, e0, near, d, g_inv):
    """ghat's Schur correction corr[z, i, x, w] = sum_bc G_i^-1[b, c]
    (R_cw R_xb)[i, i] at the points d = 1/(lam - z) (columns), for the
    entries ``phi_ac`` reads.  As G_i^-1 G_i = I, the terms with a D block
    sum to s_x (2 delta_xw - s_w G_i^-1[x, w]).  The rest, sum_kl P_c[i, k]
    M[k, l] P_b[i, l]^* d_k d_l with M = P_w* P_x, is split by the divided
    difference d_k d_l = (d_l - d_k) e0[k, l] into products of d with the
    z-free kernels P (M o e0), except at the near pairs (e0 = 0): the k = l
    pairs enter as the weights M_kk on d^2, and the off-diagonal ties are
    multiplied directly.

    Three identities of the linearization leave three kernels of 3 N x N
    products each: every Gram block read here is Hermitian (Q* a Q, Q* b Q,
    Q* a^2 Q), and e0 is antisymmetric, so the transposed entries (x, w) and
    (w, x) share one kernel and one sum; M = Q*Q = I for (0, 0), which has
    no kernel; and P_2* P_2 - P_1* P_1 = Q* (b^2 - a^2) Q = diag(lam), as
    a^2 - b^2 = -{UV}, so (2, 2) is the (1, 1) sum plus the weights lam."""
    kk, ll = near
    dd = d[kk] * d[ll]
    corr = np.zeros_like(g_inv)
    # M_kk of each entry's Gram block; (2, 2) holds only its excess over (1, 1)
    weights = {(0, 0): np.ones_like(lam), (2, 2): lam}
    for a, e in ((1, 1), (0, 1), (0, 2)):
        m = p[e].conj().T @ p[a]
        weights[a, e] = m.diagonal().copy()
        y = p @ (m * e0)
        m_near = m[kk, ll]
        del m
        acc = corr[:, :, a, e]
        for b in range(3):
            p_b, y_b = p[b].conj(), y[b].conj()
            near_b = p_b[:, ll]
            for c in range(3):
                f = (y[c] * p_b + p[c] * y_b) @ d
                f += (p[c][:, kk] * m_near * near_b) @ dd
                acc += g_inv[:, :, b, c] * f.T
        del y  # before the next pair's kernel is built
    # the diagonal weights of every entry, as one product per (b, c)
    n, nz = d.shape
    wd2 = np.array(list(weights.values())).T[:, :, None] * (d * d)[:, None, :]
    wd2 = wd2.reshape(n, -1)  # wd2[k, (j, z)] = weight j at k times d_k(z)^2
    for b in range(3):
        p_b = p[b].conj()
        for c in range(3):
            f = ((p[c] * p_b) @ wd2).reshape(n, len(weights), nz)
            for j, (x, w) in enumerate(weights):
                corr[:, :, x, w] += g_inv[:, :, b, c] * f[:, j].T
    corr[:, :, 2, 2] += corr[:, :, 1, 1]
    corr[:, :, 1, 0], corr[:, :, 2, 0] = corr[:, :, 0, 1], corr[:, :, 0, 2]
    for x, w in _PHI_PAIRS + ((1, 0), (2, 0)):
        corr[:, :, x, w] += _SIGNS[x] * (2.0 * (x == w) - _SIGNS[w] * g_inv[:, :, x, w])
    return corr


def _level_r_frob(lam, p, s1, gap, e0, near, d, g_inv, eta):
    """The minor norms ``r_frob``, |R|_F^2 - 2 Re t1 + Re t2 as on the Schur
    route, at the points d = 1/(lam - z) (columns) of one Im level eta.  The
    corner blocks vv of R R*, uu of R*R and h3 of R R*R hold products
    d_k conj(d_l) (with S' = P*P between them), which the partial fractions
    d_k conj(d_l) = (conj(d_l) - d_k) e[k, l], e = 1/(lam_k - lam_l - 2i eta),
    turn into products with d and conj d through kernels built once per
    level; no denominator is below 2 eta.  R D R = -P diag(lam d^2) P*, as
    a^2 - b^2 = -{UV}, and h3's one same-z product with T = (S' o e) S' is
    split as in ``_net_corr``: the k = l pairs join lam as the weights
    -T_kk on d^2, and only the off-diagonal ties are multiplied directly.
    Each of vv and uu is a Hermitian sum F + F* of one block stack, and the
    blocks of P diag(conj d) P* are the conjugate transposes of gt's."""
    kk, ll = near
    gt = _pair_diagonals(p, p, d, np.zeros_like(g_inv))     # G_i - D
    wc = gt.conj().swapaxes(2, 3)                            # the same at conj d
    e = 1.0 / (gap - 2j * eta)
    k = s1 * e
    t = k @ s1
    h3 = _pair_diagonals(p, p, -(lam + t.diagonal())[:, None] * d * d,
                         np.zeros_like(g_inv))
    tn = -t[kk, ll]
    t *= e0
    _pair_diagonals(p @ -t, p, d, _pair_diagonals(p, p @ t.conj().T, d, h3))
    del t
    _pair_diagonals(p[:, :, kk] * tn, p[:, :, ll], d[kk] * d[ll], h3)
    y = p @ k
    vv = _pair_diagonals(p, y, d, np.zeros_like(g_inv))
    vv += vv.conj().swapaxes(2, 3)
    k = s1 * e.conj()
    del e
    _pair_diagonals(y @ k, p, d, h3)
    yp = p @ k
    del k
    uu = _pair_diagonals(yp, p, d, np.zeros_like(g_inv))
    uu += uu.conj().swapaxes(2, 3)
    _pair_diagonals(y, yp, d.conj(), h3)
    del y, yp
    s_a, s_b = _SIGNS[:, None], _SIGNS[None, :]
    vv += s_a * wc + s_b * gt + np.diag(_SIGNS**2)
    uu += s_a * gt + s_b * wc + np.diag(_SIGNS**2)
    h3 += s_b * vv + s_a * uu - s_a * s_b * wc - np.diag(_SIGNS)
    norm_r2 = np.einsum("ziaa->z", vv).real
    t1 = np.einsum("ziab,ziba->zi", h3, g_inv)
    t2 = np.einsum("ziba,zibc,zicd,zida->zi", g_inv.conj(), uu, g_inv, vv,
                   optimize=True)
    return np.sqrt(np.maximum(norm_r2[:, None] - 2.0 * t1.real + t2.real, 0.0))


def _screen_net(lin: Linearization, net: np.ndarray) -> np.ndarray:
    """The fluctuation statistic at every point of ``net`` by the Schur
    route's formulas in the eigenbasis of {UV}, R = P diag(d) P* + D with
    d = 1/(lam - z): kernels built once per chunk of Im levels (at most about
    N/2 points, which keeps the peak allocation below one route evaluation's)
    or once per level, then O(N^2) per point.  Every point gets the
    conditioning refusal and, for N <= ``CROSS_CHECK_MAX_N``, the direct
    cross-check of the assembled R.  Eigenvalue pairs closer than
    ``_NEAR_GAP`` are multiplied directly, so ties stay exact; more than 8N
    such pairs screen as NaN, which leaves every point to the route."""
    n = lin.n
    zs = np.asarray(net, dtype=complex)
    for z in zs.tolist():
        _check_upper_half_plane(z)
        _check_conditioning(lin, z)
    lam, p = basis = _eigenbasis(lin)
    if n <= CROSS_CHECK_MAX_N:
        for z in zs.tolist():
            _cross_check(lin, z, _spectral_resolvent(basis, z))
    gap = lam[:, None] - lam[None, :]
    is_near = np.abs(gap) < _NEAR_GAP
    if np.count_nonzero(is_near) > 8 * n:
        return np.full(zs.size, np.nan)
    e0 = np.divide(1.0, gap, out=np.zeros_like(gap), where=~is_near)
    np.fill_diagonal(is_near, False)
    near = np.nonzero(is_near)  # the off-diagonal ties
    s1 = sum(pb.conj().T @ pb for pb in p)
    levels, level_of = np.unique(zs.imag, return_inverse=True)
    step = max(1, n // 2 // np.bincount(level_of).max())
    out = np.empty(zs.size)
    for lo in range(0, levels.size, step):
        idx = np.flatnonzero((level_of >= lo) & (level_of < lo + step))
        zc = zs[idx]
        d = 1.0 / (lam[:, None] - zc)
        g = np.zeros((zc.size, n, 3, 3), dtype=complex) + np.diag(_SIGNS)
        _pair_diagonals(p, p, d, g)
        g_inv, g_avg = np.linalg.inv(g), g.mean(axis=1)
        del g
        ghat = g_avg[:, None] - _net_corr(p, lam, e0, near, d, g_inv) / n
        lam3 = np.zeros((zc.size, 1, 3, 3), dtype=complex) - np.diag(_SIGNS)
        lam3[:, 0, 0, 0] = zc
        qnorm = _spectral_norms(-(g_inv + lam3 + phi_ac(ghat)))
        del ghat
        r_frob = np.empty((zc.size, n))
        for lev in range(lo, min(lo + step, levels.size)):
            sel = np.flatnonzero(level_of[idx] == lev)
            r_frob[sel] = _level_r_frob(lam, p, s1, gap, e0, near, d[:, sel],
                                        g_inv[sel], levels[lev])
        out[idx] = _fluct_from(qnorm, r_frob, n).max(axis=1)
    return out


def resolvent_stats(lin: Linearization, z: complex) -> ResolventStats:
    """Per-index resolvent statistics at z by the Schur identities, from the
    full resolvent at matrix-multiplication cost (``_schur_statistics``)."""
    z = complex(z)
    r = generalized_resolvent(lin, z)
    g_i, g_avg, ghat_i, q_i, r_frob, fluct_i = _schur_statistics(r, z)
    return ResolventStats(z=z, g_i=g_i, g_avg=g_avg, ghat_i=ghat_i, q_i=q_i,
                          r_i_frob=r_frob, fluct_i=fluct_i,
                          fluct=float(fluct_i.max()))


def identity_spot_check(x: np.ndarray, lam: np.ndarray, ghat_i: np.ndarray,
                        q_i: np.ndarray, phi):
    """(q_def, identity residual, Ward residual) of the key identity
    -Q_i = G_i^-1 + Lambda + Phi(Ghat_i) at block size k = ``lam.size``, by
    one solve per minor, for a route's ``ghat_i`` and ``q_i`` (N blocks of
    k x k, or N scalars at k = 1).

    ``x`` is the Hermitian kN x kN matrix X, ``lam`` the diagonal of Lambda
    and ``phi`` maps a stack of k x k blocks.  For each i, with Y_i the rows
    i + N arange(k) of X without those columns, S solves
    (X - Lambda kron I)^(i) S = Y_i* and Q_i^def = Y_i S - X_ii - Phi(Ghat_i).
    Ghat_i is the route's: it sits on both sides of the identity and
    cancels, so the residual max_i |Q_i^def - Q_i| / |Q_i| (Frobenius)
    against the route's Q_i tests the quadratic form Y_i R^(i) Y_i* alone,
    and no minor's inverse is formed.  The Ward residual is the largest
    relative residual of (Y_i S - (Y_i S)*)/2i = S* (Im Lambda kron I)^(i) S.
    For N <= ``CROSS_CHECK_MAX_N`` refuses a minor whose 2-norm condition
    number exceeds ``COND_LIMIT``."""
    k = lam.size
    n = x.shape[0] // k
    diag = np.repeat(lam, n)              # the diagonal of Lambda kron I
    full = x - np.diag(diag)
    ghat_i, q_i = np.reshape(ghat_i, (n, k, k)), np.reshape(q_i, (n, k, k))
    phi_ghat = phi(ghat_i)
    q_def = np.empty_like(q_i)
    ward = 0.0
    all_idx = np.arange(k * n)
    for i in range(n):
        rows = i + n * np.arange(k)
        keep = np.delete(all_idx, rows)
        minor = full[np.ix_(keep, keep)]
        if n <= CROSS_CHECK_MAX_N and np.linalg.cond(minor) > COND_LIMIT:
            raise IllConditionedError(f"minor resolvent ill-conditioned at i={i}")
        y = x[np.ix_(rows, keep)]
        s = np.linalg.solve(minor, y.conj().T)
        quad = y @ s
        q_def[i] = quad - x[np.ix_(rows, rows)] - phi_ghat[i]
        im_quad = (quad - quad.conj().T) / 2j
        im_form = s.conj().T @ (diag[keep].imag[:, None] * s)
        ward = max(ward, np.linalg.norm(im_quad - im_form)
                   / max(np.linalg.norm(im_quad), 1e-300))
    ident = (np.linalg.norm(q_def - q_i, axis=(1, 2))
             / np.maximum(np.linalg.norm(q_i, axis=(1, 2)), 1e-300))
    return q_def, float(ident.max()), float(ward)


@dataclass
class FluctuationNet:
    """Supremum of the fluctuation statistic over a net: ``k2`` is twice the
    observed maximum (the safety factor for net approximation).
    ``per_point`` holds the Schur route's
    value at the points where it ran and the eigenbasis screen's value
    (``_screen_net``) elsewhere (see ``fluctuation_sup``)."""

    k2: float
    max_fluct: float
    net: np.ndarray
    per_point: np.ndarray


def fluctuation_sup(lin: Linearization, rect: tuple[float, float, float, float],
                    spacing: float) -> FluctuationNet:
    """Evaluate the fluctuation statistic on a uniform net of the rectangle
    (re_min, re_max, im_min, im_max) and return twice the maximum.

    The whole net is screened at once by ``_screen_net``, which makes the
    resolvent's conditioning refusal and, for N <= 64, its direct-inversion
    cross-check at every point.  The Schur route then runs only at the points
    whose screened value lies within ``SCREEN_MARGIN`` (relative) of the
    screened maximum, and the maximum is taken over its values there, so it
    is the route's maximum over the whole net, digit for digit, as long as
    the screen is accurate to well within that margin.  ``per_point`` holds the route's
    value at those points and the screened value elsewhere.  If the screen
    is NaN or a route value differs from its screen by more than
    ``SCREEN_AGREEMENT`` (relative), the screen is not trusted: the route
    runs at every point and ``per_point`` holds its values throughout.

    The rectangle must lie within |Re z| <= 8, Im z >= 1/N.
    """
    from .grids import uniform_net

    re_min, re_max, im_min, im_max = rect
    n = lin.n
    if not (-8.0 <= re_min <= re_max <= 8.0):
        raise ValueError("rectangle must satisfy |Re z| <= 8")
    if im_min < 1.0 / n - 1e-12:
        raise ValueError("rectangle must satisfy Im z >= 1/N")
    net = uniform_net(re_min, re_max, im_min, im_max, spacing)
    screen = _screen_net(lin, net)
    top = np.flatnonzero(screen >= screen.max() * (1.0 - SCREEN_MARGIN))
    vals = screen.copy()
    vals[top] = [resolvent_stats(lin, net[j]).fluct for j in top]
    if (not len(top) or np.any(np.abs(vals[top] - screen[top])
                               > SCREEN_AGREEMENT * np.abs(vals[top]))):
        vals = np.array([resolvent_stats(lin, z).fluct for z in net])
    # points off ``top`` screen below the route's values on it
    mx = float(vals.max())
    return FluctuationNet(k2=2.0 * mx, max_fluct=mx, net=net, per_point=vals)


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
