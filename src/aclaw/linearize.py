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

``_schur_statistics`` derives the per-index statistics from a full resolvent
by the Schur identities, in roughly matrix-multiplication time, at any block
size k (the tests hold it against an oracle that inverts every minor):
``resolvent_stats`` runs it at k = 3 on R, and ``semicircle_stats`` at
k = 1 on (X - z)^-1, whose net ``semicircle_screen`` reads from X's
eigenbasis.  The route holds R and no other kN x kN array, at most
250 N^2 bytes at k = 3 (R is 144): ``generalized_resolvent`` assembles R in
blocks, and ``_schur_statistics`` reads R*R and R R*R on diagonal tiles,
each entry with the bits of the whole product.  ``identity_spot_check``
checks a route's Q_i against the key identity -Q_i = G_i^-1 + Lambda +
Phi(Ghat_i) for every index, with one nested block elimination of
X - Lambda kron I that yields every minor's quadratic form (2(N - 1)
solves, cubic in N), for the k = 3 linearization and the k = 1 semicircle
mode alike.  ``fluctuation_sup`` screens its whole net with the Schur
route's formulas in the eigenbasis of {UV}, where R = P diag(1/(lam - z))
P* + D is affine in the anticommutator resolvent: one ``eigh`` per pair,
kernels built once per Im level of the net and O(N^2) work per net point.
A Ward lower bound on every minor's |R^(i)|_F, read from Ghat_i, bounds
each point's statistic from above, so the minor-norm kernels are built only
on levels that can hold the maximum.  It runs the route only near the
screened maximum.  With {UV} = Q diag(lam) Q* and P = [Q, -aQ, bQ] the
screen uses three exact identities of the linearization: Q*Q = I; every
Gram block P_e* P_a that ghat's correction reads is Hermitian; and
P_2* P_2 - P_1* P_1 = Q* (b^2 - a^2) Q = diag(lam), since a^2 - b^2 =
-{UV}.  Equal eigenvalues (k = l) enter as weights on d_k^2, so only
genuine ties are multiplied directly.  One certificate per pair bounds the
eigenbasis's error in R.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AclawError
from .sdcore import phi_ac
from .wigner import WignerPair, spectral_norm

__all__ = [
    "IllConditionedError",
    "Linearization",
    "ResolventStats",
    "AnticommutatorSpectrum",
    "build_linearization",
    "lambda_kron",
    "generalized_resolvent",
    "grid_corner_blocks",
    "corner_blocks",
    "resolvent_stats",
    "semicircle_stats",
    "semicircle_screen",
    "row_sum_residual",
    "identity_spot_check",
    "route_near_max",
    "fluctuation_sup",
]

#: condition ceiling on resolvent solves
COND_LIMIT = 1e14

#: ``route_near_max`` runs its route at the net points whose screened
#: statistic lies within this relative distance of the screened maximum
SCREEN_MARGIN = 1e-6

#: a route value further than this (relative) from its screen refuses the
#: pair in ``route_near_max``
SCREEN_AGREEMENT = 2.5e-7


class IllConditionedError(AclawError):
    """A resolvent solve exceeded the condition ceiling, an eigenbasis its
    error bound, or a net screen its confirmation (``_screen_net``, ``route_near_max``)."""


@dataclass
class Linearization:
    """A pair's blocks a and b, {UV}, the spectral norms of U and V and the
    norm-hypothesis flag max(|U|, |V|) <= 4; U and V are not held.  The
    3N x 3N matrices X (Hermitian) and W (unit block lower triangular) are
    built on first use: ``generalized_resolvent`` and ``grid_corner_blocks``
    read only a and b, and X and W only ``aclaw linearize-check`` and the tests."""

    anticommutator: np.ndarray
    norm_u: float
    norm_v: float
    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def norms_ok(self) -> bool:
        return max(self.norm_u, self.norm_v) <= 4.0

    @property
    def minor_norms(self) -> tuple[float, float]:
        """Upper bounds on |X| = |U^2 + V^2|^(1/2) and on |a| + |b|."""
        return (math.hypot(self.norm_u, self.norm_v),
                math.sqrt(2.0) * (self.norm_u + self.norm_v))

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
    return Linearization(anticommutator=u @ v + v @ u,
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


def _tiles(n: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi) tiles of range(n), ``size`` wide, the remainder joined to
    the last tile, so that no tile is thinner than ``size`` (or n): BLAS
    sums thin products (one row goes to gemv) in another order than the
    whole product's."""
    starts = list(range(0, n - size + 1, size)) or [0]
    return list(zip(starts, starts[1:] + [n]))


#: rows (and columns) per block of R's lower-right assembly, or from
#: N = 512 on its largest multiple up to N/4: blocks stay 64-aligned, their
#: two buffers at most 24 N^2 bytes, and BLAS repacks each operand about
#: 8 times rather than N/32
_BLOCK = 64

#: indices per diagonal tile in ``grid_corner_blocks``
_TILE = 16

#: rows (and columns) of R per diagonal tile in ``_schur_statistics``: 16
#: indices at k = 3, 48 at k = 1, where 16-row products of R F summed
#: differently from the whole product on two BLAS threads for N > 128
_SCHUR_TILE = 48


def generalized_resolvent(lin: Linearization, z: complex) -> np.ndarray:
    """R = (X - Lambda kron I)^-1 = W blockdiag(g, I, -I) W*, with
    g = ({UV} - z)^-1, assembled from its nonzero blocks.  W is unit block
    lower triangular with blocks -a and b, so with B = [-a, b] (the first
    block row of W* past its I) and C = [-a; b] (the first block column of
    W below its I) every block of R is g times a or b:

        R = [[g,   g B                        ],
             [C g, [C g, diag(I, -I)] [B; I]  ]].

    g B is one product, with -a and b written into one buffer.  C g and
    the lower-right product are formed in
    ``_BLOCK``-aligned blocks (``_tiles``): C g row block by row block, and
    the lower-right product from one row block of [C g, diag(I, -I)]
    against one column block of [B; I] at a time, so that R is the only
    3N x 3N array held and no operand of R's size is built.  Each entry
    of the lower-right block keeps the definitional product's summation
    over all 3N columns, so the +-I terms enter the BLAS sum as they do in
    W blockdiag(g, I, -I) W*: R has that product's bits at most sizes N and
    differs in the last bit at the others (CHANGES.md lists both); an N-term
    sum there moved last bits at N = 8, 16, 64 and 100 as well.  Blocking
    keeps every entry's sum, and R keeps the bits of the whole products
    (``tests/oracles.py::whole_product_resolvent``).  16 N^3 complex
    multiply-adds instead of the definitional 54 N^3, and W is never read.

    Production forms R only where the Schur route runs (``resolvent_stats``,
    near the net's screened maximum); the grid rows use
    ``grid_corner_blocks``.  Direct inversion of X - Lambda kron I is a test
    oracle only; ``aclaw linearize-check``'s ``bordered_identity`` holds R
    against W[:, :N] g W[:, :N]* = W blockdiag(g, 0, 0) W* at every N.
    """
    z = complex(z)
    _check_upper_half_plane(z)
    n = lin.n
    a, b = lin.a, lin.b
    g = _ac_inverse(lin, z)
    r = np.empty((3 * n, 3 * n), dtype=complex)
    r[:n, :n] = g
    b_row = np.empty((n, 2 * n), dtype=complex)         # B
    np.negative(a, out=b_row[:, :n])
    b_row[:, n:] = b
    np.matmul(g, b_row, out=r[:n, n:])
    del b_row
    sign = np.repeat([1.0, -1.0], n)                     # diag(I, -I)
    blocks = _tiles(2 * n, _BLOCK * max(1, n // (4 * _BLOCK)))
    right = np.zeros((3 * n, blocks[-1][1] - blocks[-1][0]), dtype=complex)
    for lo, hi in blocks:                                 # rows of [C g, diag(I, -I)]
        j = np.arange(hi - lo)
        left = np.zeros((hi - lo, 3 * n), dtype=complex)
        np.matmul(np.vstack([-a[lo:hi], b[max(lo - n, 0):max(hi - n, 0)]]), g,
                  out=left[:, :n])
        r[n + lo:n + hi, :n] = left[:, :n]
        left[j, n + lo + j] = sign[lo:hi]
        for c_lo, c_hi in blocks:                         # columns of [B; I]
            cols = right[:, :c_hi - c_lo]
            cols[:n] = np.hstack([-a[:, c_lo:c_hi],
                                  b[:, max(c_lo - n, 0):max(c_hi - n, 0)]])
            ones = (n + np.arange(c_lo, c_hi), np.arange(c_hi - c_lo))
            cols[ones] = 1.0
            np.matmul(left, cols, out=r[n + lo:n + hi, n + c_lo:n + c_hi])
            cols[ones] = 0.0
        del left                                          # before the next block's
    return r


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
    3)`` at every N tried from 2 to 300.  [B; I] and the z-free indices are
    built once per call, tile by tile, and the tile's rows of
    [C g, diag(I, -I)] are copied into one buffer.  Per z: the N x N
    inverse, C g (2 N^3 complex multiply-adds) and O(N^2 _TILE) for the
    tiles, against 16 N^3 for all of R.  Every z gets the conditioning refusal.
    """
    n = lin.n
    zs = [complex(z) for z in zs]
    for z in zs:
        _check_upper_half_plane(z)
    b_row = np.hstack([-lin.a, lin.b])                    # B
    c_col = np.vstack([-lin.a, lin.b])                    # C
    tiles = _tiles(n, _TILE)
    rights = []          # per tile: columns of [B; I] and z-free indices
    for lo, hi in tiles:
        cols = np.r_[lo:hi, n + lo:n + hi]
        right = np.zeros((3 * n, cols.size), dtype=complex)
        right[:n] = b_row[:, cols]
        right[n + cols, np.arange(cols.size)] = 1.0
        ones = (np.arange(cols.size), n + cols)   # the +-I of [C g, diag(I, -I)]
        rights.append((lo, hi, np.arange(hi - lo), right, ones,
                       np.repeat([1.0, -1.0], hi - lo)))
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
        for lo, hi, j, right, ones, signs in rights:
            t = hi - lo
            gb = g[lo:hi] @ right[:n]
            g_i[lo:hi, 0, 1], g_i[lo:hi, 0, 2] = gb[j, j], gb[j, t + j]
            rows = left[:2 * t]                           # [C g, diag(I, -I)]
            rows[:t, :n], rows[t:, :n] = cg[lo:hi], cg[n + lo:n + hi]
            rows[ones] = signs
            lr = rows @ right
            rows[ones] = 0.0
            g_i[lo:hi, 1:, 1:] = lr.reshape(2, t, 2, t)[:, j, :, j]
    return out


def corner_blocks(r: np.ndarray, k: int) -> np.ndarray:
    """The k x k corner blocks G_i = r[i + N arange(k), i + N arange(k)] of a
    kN x kN matrix, as an (N, k, k) stack."""
    n = r.shape[0] // k
    idx = np.arange(n)
    return r.reshape(k, n, k, n)[:, idx, :, idx]


@dataclass
class ResolventStats:
    """Per-index statistics of a resolvent R = (X - Lambda kron I)^-1 at
    block size k: the k x k corner blocks ``g_i``, the minors' corner-block
    averages ``ghat_i`` and the fluctuation blocks ``q_i`` (each an
    (N, k, k) stack), and |R_i|_2, the Frobenius norm of each minor's
    resolvent, as ``r_i_frob``.  k = 3 is the anticommutator's linearization
    (``resolvent_stats``), k = 1 the semicircle mode's (X - z)^-1
    (``semicircle_stats``).

    ``fluct`` is the largest over i of the normalized size of the
    fluctuation block, max(1, |Q_i| / (N^-1/2 max(1, |R_i|_2 / sqrt(N)))).
    The Schur route (``_schur_statistics``) obtains Q_i from the key
    identity -Q_i = G_i^-1 + Lambda + Phi(Ghat_i); ``identity_spot_check``
    holds it against Q_i's definition.  ``semicircle_screen``
    returns one of these for a whole net: ``z`` is then its array of points,
    and every field has one row per point.
    """

    z: complex
    g_i: np.ndarray
    ghat_i: np.ndarray
    q_i: np.ndarray
    r_i_frob: np.ndarray
    fluct: float


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _fluct_from(qnorm: np.ndarray, r_frob: np.ndarray, n: int) -> np.ndarray:
    denom = (1.0 / math.sqrt(n)) * np.maximum(1.0, r_frob / math.sqrt(n))
    return np.maximum(1.0, qnorm / denom)


def _schur_statistics(r: np.ndarray, z: complex, lam: np.ndarray, phi) -> ResolventStats:
    """The per-index statistics of the kN x kN resolvent r at z, with block
    size k = ``lam.size``, Lambda = diag(lam) and ``phi`` mapping a stack of
    k x k blocks, by the Schur identities: the padded minor is
    R - (R e_i*) G_i^-1 (e_i R), so Ghat_i and |R_i|_2 follow from R alone.
    |R_i|_2^2 = |R|_F^2 - 2 Re tr(G_i^-1 (R R*R)_i) + tr(G_i^-* (R*R)_i
    G_i^-1 (R R*)_i).

    Everything is read on diagonal tiles of ``_SCHUR_TILE`` rows
    (``_tiles``): R's rows and columns i + N arange(k) for the tile's i.
    Ghat_i's Schur correction and (R R*)_i are sums over those rows and
    columns; the tile's columns of F = R*R are conj(R^T conj(R[:, cols])),
    which give (R*R)_i, and (R F)_i is the tile's rows of R times those
    columns.  So neither R* nor R R*R is formed, R is the only kN x kN
    array held, and each entry keeps the BLAS sum of the whole products
    (``tests/oracles.py::whole_product_statistics``): one product of R's
    size, (kN)^3, and O(k N^2 _SCHUR_TILE) besides."""
    k = lam.size
    n = r.shape[0] // k
    rk = r.reshape(k, n, k, n)
    g_i = corner_blocks(r, k)                      # (N, k, k)
    g_inv = np.linalg.inv(g_i)
    corr, vv, uu, h3 = (np.empty_like(g_i) for _ in range(4))
    for lo, hi in _tiles(n, _SCHUR_TILE // k):
        tile = slice(lo, hi)
        corr[tile] = np.einsum("ajbi,ibc,cidj->iad", rk[..., tile], g_inv[tile],
                               rk[:, tile], optimize=True)
        cols = (n * np.arange(k)[:, None] + np.arange(lo, hi)).ravel()
        rows = r[cols]
        vv[tile] = np.einsum("aik,bik->iab", rows.reshape(k, hi - lo, k * n),
                             rows.conj().reshape(k, hi - lo, k * n), optimize=True)
        f = (r.T @ r[:, cols].conj()).conj()      # F[:, cols]
        uu[tile] = corner_blocks(f[cols], k)
        h3[tile] = corner_blocks(rows @ f, k)      # (R F)[cols, cols]
    ghat_i = g_i.mean(axis=0)[None, :, :] - corr / n
    q_i = -(g_inv + np.diag(lam)[None, :, :] + phi(ghat_i))
    norm_r2 = np.vdot(r, r).real
    t1 = np.einsum("iab,iba->i", h3, g_inv)
    t2 = np.einsum("iba,ibc,icd,ida->i", g_inv.conj(), uu, g_inv, vv, optimize=True)
    r_frob2 = norm_r2 - 2.0 * t1.real + t2.real
    r_frob = np.sqrt(np.maximum(r_frob2, 0.0))
    fluct = float(_fluct_from(_spectral_norms(q_i), r_frob, n).max())
    return ResolventStats(z=z, g_i=g_i, ghat_i=ghat_i, q_i=q_i, r_i_frob=r_frob,
                          fluct=fluct)


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
    z of f and every block pair (a, b) of the (3, N, N) stack R and the
    three N x N blocks L_a of ``left``, a stack or any iterable of them, so
    that a kernel product can be formed one block at a time: one
    (N, N) x (N, Z) product per pair, O(N^2) per column."""
    for a, left_a in enumerate(left):
        for b in range(3):
            # named: numpy's temporary elision would form the product in
            # an unnamed conjugate's buffer (N >= 128), which rounds
            # differently
            right_b = right[b].conj()
            out[:, :, a, b] += ((left_a * right_b) @ f).T
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
    blocks of P diag(conj d) P* are the conjugate transposes of gt's.

    h3's two terms with right factor P at d, from -T o e0 and from
    Y k conj = P k k conj, share one kernel P (k k conj - T o e0): 14 N^3
    complex multiply-adds of kernels per level and 8 ``_pair_diagonals``
    passes.  Each kernel is freed as soon as it has been read, and the one
    that stands left of ``_pair_diagonals`` is formed one N x N block at a
    time, so no more than two 3N x N kernels are held at once."""
    kk, ll = near
    gt = _pair_diagonals(p, p, d, np.zeros_like(g_inv))     # G_i - D
    e = 1.0 / (gap - 2j * eta)
    k, k_conj = s1 * e, s1 * e.conj()
    del e
    t = k @ s1
    h3 = _pair_diagonals(p, p, -(lam + t.diagonal())[:, None] * d * d,
                         np.zeros_like(g_inv))
    tn = -t[kk, ll]
    t *= e0
    _pair_diagonals(p, p @ t.conj().T, d, h3)
    kernel = k @ k_conj
    kernel -= t
    del t
    _pair_diagonals((p_a @ kernel for p_a in p), p, d, h3)
    del kernel
    _pair_diagonals(p[:, :, kk] * tn, p[:, :, ll], d[kk] * d[ll], h3)
    y = p @ k
    del k
    vv = _pair_diagonals(p, y, d, np.zeros_like(g_inv))
    vv += vv.conj().swapaxes(2, 3)
    yp = p @ k_conj
    del k_conj
    uu = _pair_diagonals(yp, p, d, np.zeros_like(g_inv))
    uu += uu.conj().swapaxes(2, 3)
    _pair_diagonals(y, yp, d.conj(), h3)
    del y, yp
    wc = gt.conj().swapaxes(2, 3)                            # G_i - D at conj d
    s_a, s_b = _SIGNS[:, None], _SIGNS[None, :]
    vv += s_a * wc + s_b * gt + np.diag(_SIGNS**2)
    uu += s_a * gt + s_b * wc + np.diag(_SIGNS**2)
    h3 += s_b * vv + s_a * uu - s_a * s_b * wc - np.diag(_SIGNS)
    norm_r2 = np.einsum("ziaa->z", vv).real
    t1 = np.einsum("ziab,ziba->zi", h3, g_inv)
    t2 = np.einsum("ziba,zibc,zicd,zida->zi", g_inv.conj(), uu, g_inv, vv,
                   optimize=True)
    return np.sqrt(np.maximum(norm_r2[:, None] - 2.0 * t1.real + t2.real, 0.0))


def _r_frob_lower_bound(ghat: np.ndarray, eta, n: int) -> np.ndarray:
    """A lower bound on every minor's |R^(i)|_F from its average Ghat_i
    (an (..., N, 3, 3) stack) at Im z = ``eta``, by the Ward identity: only
    block 0 of Lambda carries z, so R^(i) - R^(i)* = 2i eta R^(i) E_0
    R^(i)*, and |R^(i) E_0|_F^2 = Im tr R^(i) / eta = N Im tr Ghat_i / eta
    exactly.  The block-1 and block-2 columns hold, among others, the N - 1
    diagonal entries of blocks (1, 1), (2, 2), (0, 1) and (0, 2), which sum
    to N Ghat_i[a, b]; Cauchy-Schwarz bounds their squares from below by
    N^2 / (N - 1) |Ghat_i[a, b]|^2.  It reads only entries that ``_net_corr``
    forms as minor averages, not (1, 2) or (2, 1)."""
    ward = n * np.einsum("...aa->...", ghat).imag / eta
    cols = sum(np.abs(ghat[..., a, b])**2
               for a, b in ((1, 1), (2, 2), (0, 1), (0, 2)))
    return np.sqrt(ward + n * n / (n - 1) * cols)


def _screen_net(lin: Linearization, net: np.ndarray,
                spectrum: AnticommutatorSpectrum) -> np.ndarray:
    """The fluctuation statistic, or an upper bound on it, at every point
    of ``net`` by the Schur route's formulas in the pair's ``spectrum``
    {UV} = Q diag(lam) Q*: with P = [Q, -aQ, bQ], R = P diag(d) P* + D,
    d = 1/(lam - z).  Kernels are built once per chunk of Im levels (at
    most about N/2 points) or once per level, then O(N^2) per point.

    Ghat_i, and with it |Q_i|, is formed at every point.  The minor norms
    |R^(i)|_F cost 14 N^3 of kernels per level (``_level_r_frob``), so the
    levels are walked from the lowest Im z up, and a level is evaluated
    only when its largest upper bound, the statistic with the minor norms
    replaced by ``_r_frob_lower_bound`` (O(N) per point), reaches the
    largest value evaluated so far times 1 - ``SCREEN_MARGIN``.  A skipped
    level's points keep their upper bounds, which lie below the net's
    final maximum times 1 - ``SCREEN_MARGIN``, so they never enter
    ``route_near_max``'s top set; a NaN bound never skips.  The screen's
    traced peak stays within 420 N^2 bytes on the spacing-1 net at N = 128
    and 260 on the scaling study's net at N = 256
    (``test_screen_peak_within_budget``).
    Every point gets the conditioning refusal.  The net is refused when the
    spectrum's certificate at its lowest Im z exceeds 1e-8:
    P diag(d) P* + D = C gt C* + D with C = [I; -a; b] and
    gt = Q diag(d) Q*, so with |C|^2 <= 1 + |U|^2 + |V|^2 and |R| >= |g| the
    scale 1 + |U|^2 + |V|^2 turns the bound on |gt - g| / |g| into one on
    |Rt - R| / |R|; the screen's arithmetic past P stays unbounded.
    Eigenvalue pairs closer than ``_NEAR_GAP`` are multiplied directly, so
    ties stay exact; more than 8N such pairs (the zero pair, doubled
    spectra) refuse the net before P is formed."""
    n = lin.n
    zs = np.asarray(net, dtype=complex)
    for z in zs.tolist():
        _check_upper_half_plane(z)
        _check_conditioning(lin, z)
    spectrum.certify(lin.anticommutator, float(zs.imag.min()),
                     1.0 + lin.norm_u**2 + lin.norm_v**2)
    lam = spectrum.evals
    gap = lam[:, None] - lam[None, :]
    is_near = np.abs(gap) < _NEAR_GAP
    if (pairs := np.count_nonzero(is_near)) > 8 * n:
        raise IllConditionedError(f"{pairs} eigenvalue pairs of {{UV}} closer than "
                                  f"{_NEAR_GAP} exceed the screen's 8N = {8 * n}")
    q = spectrum.evecs
    p = np.stack([q, -(lin.a @ q), lin.b @ q])
    e0 = np.divide(1.0, gap, out=np.zeros_like(gap), where=~is_near)
    np.fill_diagonal(is_near, False)
    near = np.nonzero(is_near)  # the off-diagonal ties
    s1 = sum(pb.conj().T @ pb for pb in p)
    levels, level_of = np.unique(zs.imag, return_inverse=True)
    step = max(1, n // 2 // np.bincount(level_of).max())
    out = np.empty(zs.size)
    best = -math.inf                  # the largest value evaluated so far
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
        bound = _fluct_from(qnorm, _r_frob_lower_bound(ghat, zc.imag[:, None], n), n)
        del ghat
        for lev in range(lo, min(lo + step, levels.size)):
            sel = np.flatnonzero(level_of[idx] == lev)
            vals = bound[sel].max(axis=1)
            if not vals.max() < best * (1.0 - SCREEN_MARGIN):   # a NaN never skips
                r_frob = _level_r_frob(lam, p, s1, gap, e0, near, d[:, sel],
                                       g_inv[sel], levels[lev])
                vals = _fluct_from(qnorm[sel], r_frob, n).max(axis=1)
                best = max(best, vals.max())
            out[idx[sel]] = vals
    return out


def resolvent_stats(lin: Linearization, z: complex) -> ResolventStats:
    """Per-index resolvent statistics at z by the Schur identities, from the
    full resolvent at matrix-multiplication cost: ``_schur_statistics`` at
    k = 3, with Lambda = diag(z, -1, 1) and Phi = ``phi_ac``."""
    z = complex(z)
    return _schur_statistics(generalized_resolvent(lin, z), z,
                             np.array([z, -1.0 + 0j, 1.0 + 0j]), phi_ac)


def row_sum_residual(stats: ResolventStats) -> np.ndarray:
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


def _eliminate(s: np.ndarray, t: np.ndarray, keep: slice, drop: slice):
    """Eliminate the ``drop`` rows and columns of the Schur complement ``s``
    with one solve, G = -s[drop, drop]^-1 s[drop, keep]: the Schur
    complement onto ``keep``, s[keep, keep] + s[keep, drop] G, and the Gram
    [I; G]* t [I; G] of the eliminated solution, summed as
    t11 + t12 G + G* (t21 + t22 G): adding G* t21 and its conjugate
    transpose t12 G apart from G* t22 G lost two digits of the Ward residual
    at Im z = 1/N (N = 256)."""
    g = -np.linalg.solve(s[drop, drop], s[drop, keep])
    tg = t[:, drop] @ g
    return (s[keep, keep] + s[keep, drop] @ g,
            t[keep, keep] + tg[keep] + g.conj().T @ (t[drop, keep] + tg[drop]))


def _leaf_schur(s: np.ndarray, t: np.ndarray, k: int, out_s: np.ndarray,
                out_t: np.ndarray) -> None:
    """Write the k x k Schur complement of ``s`` onto each of its blocks of
    k adjacent indices, and the Gram of that block's eliminated solution,
    into ``out_s`` and ``out_t``, by halving the blocks recursively: each
    half's Schur complement eliminates the other half (``_eliminate``)."""
    m = s.shape[0] // k
    if m == 1:
        out_s[0], out_t[0] = s, t
        return
    h = (m + 1) // 2
    lo, hi = slice(0, h * k), slice(h * k, None)
    _leaf_schur(*_eliminate(s, t, lo, hi), k, out_s[:h], out_t[:h])
    _leaf_schur(*_eliminate(s, t, hi, lo), k, out_s[h:], out_t[h:])


def _minor_cond_bound(lam: np.ndarray, x_norm: float, ab_norm: float) -> float:
    """A bound on every minor's condition number, given bounds on |X| and
    |a| + |b|: (|X| + |z|) / Im z at k = 1.  At k = 3 the minor pair's
    linearization factors as the full one's, W^(i)* (X^(i) - Lambda kron I)
    W^(i) = blockdiag(b^(i)^2 - a^(i)^2 - z, I, -I) with |W^(i)| <=
    1 + |a| + |b|: (|X| + max(|z|, 1)) (1 + |a| + |b|)^2 max(1/Im z, 1)."""
    inv_norm = 1.0 / lam[0].imag
    if lam.size > 1:
        inv_norm = max(inv_norm, 1.0)       # the +-I blocks
    return (x_norm + float(np.abs(lam).max())) * (1.0 + ab_norm) ** 2 * inv_norm


def identity_spot_check(x: np.ndarray, lam: np.ndarray, ghat_i: np.ndarray,
                        q_i: np.ndarray, phi, x_norm: float, ab_norm: float = 0.0):
    """(q_def, identity residual, Ward residual) of the key identity
    -Q_i = G_i^-1 + Lambda + Phi(Ghat_i) at block size k = ``lam.size``, by
    one nested block elimination of X - Lambda kron I, for a route's
    ``ghat_i`` and ``q_i`` (N blocks of k x k, or N scalars at k = 1).

    ``x`` is the Hermitian kN x kN matrix X, ``lam`` the diagonal of Lambda
    and ``phi`` maps a stack of k x k blocks.  ``x_norm`` and ``ab_norm``
    bound |X| and |a| + |b| (``Linearization.minor_norms``); the call is
    refused when ``_minor_cond_bound`` exceeds ``COND_LIMIT``, wherever a
    minor's own condition number would be.  Q_i's definition reads X
    through Y_i, the rows i + N arange(k) of X without those columns, and
    Y_i*, so the elimination reads X's upper triangle and mirrors it: for a
    Hermitian X that is X itself, and a pair that is not Hermitian still
    fails the identity.  Reordered so that each index's k rows and columns
    are adjacent, the matrix is halved recursively (``_leaf_schur``): a node
    holds the Schur complement onto its indices, and each half's Schur
    complement eliminates the other half with one solve.  A leaf holds the
    Schur complement onto index i, S_i = X_ii - Lambda - Y_i R^(i) Y_i*, so
    Q_i^def = -Lambda - S_i - Phi(Ghat_i), with no minor, no minor's inverse
    and no R formed.  Ghat_i is the route's: it sits on both sides of the
    identity and cancels, so the residual against the route's Q_i tests the
    quadratic form alone.  It is max_i |Q_i^def - Q_i| over the size of the
    identity's terms, |G_i^-1| + |Lambda| + |Phi(Ghat_i)| (Frobenius), with
    G_i^-1 = -(Q_i + Lambda + Phi(Ghat_i)) from the route: those terms are
    what the route sums, and where they cancel to a small Q_i a scale of
    |Q_i| would measure their rounding, not the identity.

    The elimination carries T, the (Im Lambda kron I)-weighted Gram of its
    solution: diag(Im Lambda kron I) at the root, [I; G]* T [I; G] past the
    elimination G of each half.  At a leaf T_i - Im Lambda = S* (Im Lambda
    kron I)^(i) S with S = R^(i) Y_i*, and the Ward residual is the largest
    relative residual of (Y_i S - (Y_i S)*)/2i against it, with the
    rounding unit of T_i as the floor of the scale.

    2(N - 1) solves, none larger than ceil(N/2) k square: about 2 (kN)^3
    complex multiply-adds, against N (2/3) (kN - k)^3 for one solve per
    minor."""
    k = lam.size
    n = x.shape[0] // k
    cond = _minor_cond_bound(lam, x_norm, ab_norm)
    if cond > COND_LIMIT:
        raise IllConditionedError(f"minor condition bound {cond:.3e} at z={lam[0]}")
    diag = np.repeat(lam, n)              # the diagonal of Lambda kron I
    order = (np.arange(n)[:, None] + n * np.arange(k)).ravel()
    s = (np.triu(x) + np.triu(x, 1).conj().T)[np.ix_(order, order)]
    idx = np.arange(n)
    x_ii = s.reshape(n, k, n, k)[idx, :, idx, :]
    s[np.diag_indices(k * n)] -= diag[order]
    s_i = np.empty((n, k, k), dtype=complex)
    t_i = np.empty((n, k, k), dtype=complex)
    _leaf_schur(s, np.diag(diag[order].imag), k, s_i, t_i)
    ghat_i, q_i = np.reshape(ghat_i, (n, k, k)), np.reshape(q_i, (n, k, k))
    lam_k = np.diag(lam)
    phi_ghat = phi(ghat_i)
    q_def = -(lam_k + s_i + phi_ghat)
    quad = x_ii - lam_k - s_i             # Y_i R^(i) Y_i*
    im_quad = (quad - quad.conj().swapaxes(1, 2)) / 2j
    im_form = t_i - np.diag(lam.imag)
    # relative to Im quad, floored at the rounding unit of T_i (whose
    # diagonal is at least Im Lambda): where Y_i is at rounding level both
    # forms are rounding noise of T_i, and Im quad alone can vanish
    ward = (np.linalg.norm(im_quad - im_form, axis=(1, 2))
            / np.maximum(np.linalg.norm(im_quad, axis=(1, 2)),
                         np.finfo(float).eps * np.linalg.norm(t_i, axis=(1, 2))))
    g_inv = -(q_i + lam_k + phi_ghat)
    scale = (np.linalg.norm(g_inv, axis=(1, 2)) + np.linalg.norm(lam_k)
             + np.linalg.norm(phi_ghat, axis=(1, 2)))
    ident = np.linalg.norm(q_def - q_i, axis=(1, 2)) / scale
    return q_def, float(ident.max()), float(ward.max())


def route_near_max(screen: np.ndarray, route) -> np.ndarray:
    """A statistic at every point of a net from its screened values
    ``screen`` and ``route(j)``, the statistic by a dense route at point j.

    The route runs only at the top set, the screened maximum first and then
    every point within ``SCREEN_MARGIN`` (relative) of it, and gives those
    points their values, so the maximum is the route's, digit for digit.  A
    route value further than ``SCREEN_AGREEMENT`` (relative) from its
    screen, or a NaN, refuses the net with ``IllConditionedError``.  K
    comes from it at k = 3 (``fluctuation_sup``) and k = 1
    (``semicircle_locallaw``).  A screen may hold upper bounds at points
    below the top set (``_screen_net``'s skipped levels): they keep them,
    and the maximum is still the route's."""
    first = int(np.argmax(screen))          # the first NaN, if there is one
    top = np.flatnonzero(screen >= screen[first] * (1.0 - SCREEN_MARGIN))
    vals = screen.copy()
    for j in [first, *top[top != first]]:
        vals[j] = route(j)
        if not abs(vals[j] - screen[j]) <= SCREEN_AGREEMENT * abs(vals[j]):
            raise IllConditionedError(
                f"route value {vals[j]:.6e} at net point {j} differs from its "
                f"screen {screen[j]:.6e} by more than {SCREEN_AGREEMENT:g} (relative)")
    return vals


def fluctuation_sup(lin: Linearization, net: np.ndarray,
                    spectrum: AnticommutatorSpectrum) -> float:
    """Twice the maximum of the fluctuation statistic over ``net`` (the
    safety factor for net approximation): the constant K.

    The whole net is screened at once by ``_screen_net``, which makes the
    resolvent's conditioning refusal at every point, certifies the
    eigenbasis once, and evaluates only the Im levels whose upper bound can
    reach the maximum.  ``route_near_max`` then runs the Schur route
    ``resolvent_stats`` at the screened top set only, and refuses the pair
    where the route does not confirm the screen.
    ``net`` is a ``uniform_net`` of a rectangle within |Re z| <= 8,
    Im z >= 1/N, which the caller builds before any eigendecomposition, so
    that a bad spacing is refused first.  ``spectrum`` is the pair's
    ``AnticommutatorSpectrum.from_hermitian`` of {UV}.  This function drops its
    reference to it once the net is screened, so a caller that passes the
    spectrum without keeping it (``verify_local_law``) frees it before the
    route runs.
    """
    screened = _screen_net(lin, net, spectrum)
    del spectrum
    vals = route_near_max(screened,
                          lambda j: resolvent_stats(lin, net[j]).fluct)
    return 2.0 * float(vals.max())


def _weighted(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """W f for real weights W and a complex (N, Z) array f: W times f's real
    and imaginary parts in one real product, with f viewed as a real (N, 2Z)
    array and no complex copy of W."""
    return (w @ f.view(np.float64)).view(complex)


@dataclass
class AnticommutatorSpectrum:
    """One Hermitian eigendecomposition M = Q diag(evals) Q*, the one
    eigenbasis type of every path: {UV} of a pair at k = 3 and the matrix X
    of the semicircle mode at k = 1.  Build it once per pair and share it
    between that pair's consumers.  It holds Q (16 N^2 bytes); the weights
    |Q|^2 (8 N^2 bytes) are formed on first use, so a consumer that never
    reads a diagonal never holds them.

    Three consumers read it:

    - the k = 3 net screen (``_screen_net``, for ``verify``, ``construct_k``
      and the scaling study) reads Q and forms P = [Q, -aQ, bQ] from it;
    - the k = 1 net screen (``semicircle_screen``) and the 72 grid rows of
      ``semicircle_locallaw`` (``resolvent_diags``) read the weights;
    - the scaling study's scaled deviations and ``deloc``'s ``empirical_k``
      read diagonals (``resolvent_diags``), and ``deloc`` the components of
      Q.

    Two constructors, one per eigen driver, each where it is measured to pay:

    - ``from_hermitian`` runs numpy's divide-and-conquer ``heevd`` on a
      Hermitian matrix (its lower triangle); its eigenvectors are orthogonal
      to about 5e-15.  ``verify``, the scaling study and ``semicircle`` use
      it; none of them imports ``scipy.linalg``.
    - ``from_pair`` forms {UV} as UV + (UV)* (VU = (UV)* for Hermitian U, V:
      one matrix product instead of two, and the sum is exactly Hermitian)
      in UV's own buffer, and diagonalizes with LAPACK's MRRR driver
      (``scipy.linalg.eigh(driver="evr")``), which at N = 1024 on one BLAS
      thread takes about half the time of ``heevd`` and needs a smaller
      workspace; its eigenvectors are orthogonal to about 1e-12 at N = 256,
      far below what the law and delocalization checks resolve.
      ``delocalization_check``, the whole ``deloc`` command, builds it once,
      after its argument checks, and reads both ``empirical_k``'s K and the
      eigenvectors from it.  scipy.linalg is imported on first use, which
      keeps it out of every other command.

    ``certify`` bounds the eigenbasis's error in the resolvent and refuses
    it above 1e-8.  The k = 3 screen certifies once per net at its lowest
    Im z, scaled by 1 + |U|^2 + |V|^2; ``semicircle_locallaw`` certifies X
    once at Im z = 1/N, unscaled.  ``deloc`` does not certify: at N = 1024
    on one BLAS thread the certificate would add about 0.3 s to an
    operation of about 1.7 s.
    """

    evals: np.ndarray
    evecs: np.ndarray

    @classmethod
    def from_hermitian(cls, matrix: np.ndarray) -> "AnticommutatorSpectrum":
        evals, evecs = np.linalg.eigh(matrix)
        return cls(evals=evals, evecs=evecs)

    @classmethod
    def from_pair(cls, pair: WignerPair) -> "AnticommutatorSpectrum":
        import scipy.linalg

        ac = pair.u @ pair.v
        ac += ac.conj().T
        evals, evecs = scipy.linalg.eigh(ac, driver="evr", check_finite=False)
        return cls(evals=evals, evecs=evecs)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """|Q|^2, entrywise."""
        return self.evecs.real**2 + self.evecs.imag**2

    def certify(self, matrix: np.ndarray, eta: float, scale: float) -> float:
        """``scale`` (|F| + |E| sqrt(1 + |F|) / eta), Frobenius norms, with
        E = matrix Q - Q diag(evals) and F = Q*Q - I as computed, for the
        decomposed ``matrix``; refused (``IllConditionedError``) above 1e-8
        or NaN.  With gt = Q diag(d) Q*, d = 1/(evals - z),
        (matrix - z) gt = I + (QQ* - I) + E diag(d) Q*, so at scale 1 this
        bounds |gt - g| / |g| for any square Q at every z with Im z >= eta,
        g = (matrix - z)^-1.  Two N x N products (0.3 s at N = 1024, one
        BLAS thread)."""
        q = self.evecs
        f = q.conj().T @ q
        f[np.diag_indices(self.evals.size)] -= 1.0
        f = float(np.linalg.norm(f))
        e = float(np.linalg.norm(matrix @ q - q * self.evals))
        bound = scale * (f + e * math.sqrt(1.0 + f) / eta)
        if not bound <= 1e-8:
            raise IllConditionedError(
                f"eigenbasis error bound {bound:.3e} exceeds 1e-8 at Im z = {eta}")
        return bound

    def resolvent_diag(self, z: complex) -> np.ndarray:
        """Diagonal of (M - z)^-1."""
        return self.weights @ (1.0 / (self.evals - z))

    def resolvent_diags(self, zs) -> np.ndarray:
        """Diagonals of (M - z)^-1 for every z in ``zs``, as the columns of
        an (N, len(zs)) array, in one real product (``_weighted``)."""
        zs = np.asarray(zs, dtype=complex)
        return _weighted(self.weights, 1.0 / (self.evals[:, None] - zs[None, :]))
