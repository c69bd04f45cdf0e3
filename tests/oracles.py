"""Oracles that the unit tests hold the library against.

None of these is a production path.  Most estimate, by sampling, a quantity
that ``src/aclaw`` either certifies (``op_norm_estimate`` against
``op_norm_upper_spectral``), assumes (the ensembles' moment-growth constants,
the linearization's entry second moments, the ``|U|, |V| <= 4`` norm event)
or writes (``load_pair`` reads the dump ``aclaw sample`` writes).  Five
compute by definition what the library takes from a closed form or a
shortcut: ``spectral_resolvent`` assembles the resolvent P diag(d) P* + D
whose error the net screen's eigenbasis certificate bounds;
``bordered_resolvent`` inverts {UV} - z for the definitional product
W blockdiag(g, 0, 0) W* that ``generalized_resolvent`` assembles without W;
``kappa_by_inversion`` inverts the 9x9 matrix of
x -> M^-1 x - Phi(x) M, built from the map's action, where ``sd_solution_ac``
assembles kappa from explicit block inverses; ``minor_stats`` (block size 3)
and ``semicircle_minor_stats`` (block size 1) invert every minor for the
statistics that ``resolvent_stats`` and ``semicircle_stats`` take from the
Schur identities, and for the key identity's residual, which
``identity_spot_check`` obtains from one nested block elimination of
X - Lambda kron I, without a minor.  Direct inversion of X - Lambda kron I
is a test oracle only; ``src/aclaw`` never inverts it.
``whole_product_resolvent`` and ``whole_product_statistics`` are the Schur
route with every product formed whole, whose bits the blocked and tiled
production route keeps (``route_bit_mismatches``).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from aclaw.freelaw import edge_distance
from aclaw.linearize import (COND_LIMIT, IllConditionedError, Linearization,
                             ResolventStats, _ac_inverse, _check_upper_half_plane,
                             _fluct_from, _spectral_norms, build_linearization,
                             corner_blocks, generalized_resolvent, lambda_kron,
                             resolvent_stats)
from aclaw.locallaw import semicircle_stats
from aclaw.sdcore import phi_ac, sd_solution_ac
from aclaw.wigner import (ENSEMBLES, EnsembleSpec, WignerPair, _draw_offdiag, _rng,
                          norm_at_most, sample_pair)


def op_norm_estimate(t: np.ndarray, samples: int = 2000, seed: int = 0) -> float:
    """Monte Carlo lower estimate of the operator norm of the map on Mat3
    whose 9x9 matrix over row-major coordinates is ``t``, induced by the
    spectral norm.

    Draws random unit-spectral-norm inputs, then refines the best one by
    hill climbing.  Always below the certified bounds.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))

    def ratio(x):
        return np.linalg.norm((t @ x.reshape(9)).reshape(3, 3), 2)

    # structured candidates first (identity and elementary matrices often
    # realize the norm for maps with sparse coefficient structure)
    candidates = [np.eye(3, dtype=complex)] + [e.reshape(3, 3) for e in np.eye(9)]
    best_val, best_x = 0.0, None
    for x in candidates:
        v = ratio(x)
        if v > best_val:
            best_val, best_x = v, x
    for _ in range(samples):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x /= np.linalg.norm(x, 2)
        v = ratio(x)
        if v > best_val:
            best_val, best_x = v, x
    step = 0.5
    while step > 1e-7 and best_x is not None:
        improved = False
        for _ in range(60):
            y = best_x + step * (rng.standard_normal((3, 3))
                                 + 1j * rng.standard_normal((3, 3)))
            y /= np.linalg.norm(y, 2)
            v = ratio(y)
            if v > best_val:
                best_val, best_x = v, y
                improved = True
        if not improved:
            step /= 4.0
    return float(best_val)


def linmap_from_action(fn) -> np.ndarray:
    """The 9x9 matrix of the linear map ``fn`` on Mat3 over row-major
    coordinates, column by column from its action on the unit matrices."""
    return np.array([fn(e.reshape(3, 3)).reshape(9) for e in np.eye(9)]).T


#: condition-number ceiling of the generic 9x9 inversion
INVERSION_COND_LIMIT = 1e12


def kappa_by_inversion(m: complex) -> np.ndarray:
    """kappa by definition at the Stieltjes value m: the inverse of the 9x9
    matrix of x -> M^-1 x - Phi(x) M, M = diag(m, -1/(m-1), -1/(m+1)).

    Raises LinAlgError when that matrix's condition number exceeds
    ``INVERSION_COND_LIMIT``."""
    m_mat = np.diag([m, -1.0 / (m - 1.0), -1.0 / (m + 1.0)])
    m_inv = np.diag([1.0 / m, -(m - 1.0), -(m + 1.0)])
    kinv = linmap_from_action(lambda x: m_inv @ x - phi_ac(x) @ m_mat)
    cond = np.linalg.cond(kinv)
    if not np.isfinite(cond) or cond > INVERSION_COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"9x9 map condition {cond:.3e} exceeds {INVERSION_COND_LIMIT:.0e}")
    return np.linalg.inv(kinv)


def stability_constant_estimate(z_grid) -> float:
    """Empirical estimate of the absolute constant c with stability radius
    >= sqrt(h)/c: the supremum of sqrt(h)/radius over the grid."""
    best = 0.0
    for z in z_grid:
        quad = sd_solution_ac(z)
        best = max(best, np.sqrt(edge_distance(z)) / quad.stability_radius)
    return float(best)


def entry_samples(spec: EnsembleSpec, count: int) -> np.ndarray:
    """iid copies of a single off-diagonal entry, drawn from stream 100 of
    the spec's seed, apart from the pair's streams 0, 1."""
    return _draw_offdiag(_rng(spec.seed, 100), spec.ensemble, count, spec.n)


@dataclass
class MomentReport:
    """Per-p verdicts for the moment-growth hypothesis
    p^(-alpha0) |entry|_p <= sqrt(alpha1 / N)."""

    p_grid: np.ndarray
    norm_est: np.ndarray
    norm_se: np.ndarray
    bound: float
    holds: np.ndarray

    @property
    def all_hold(self) -> bool:
        return bool(self.holds.all())


def check_moment_condition(spec: EnsembleSpec, p_grid=(2, 4, 8, 16),
                           samples: int = 20000, alphas=None) -> MomentReport:
    """Monte Carlo check of the moment-growth hypothesis on a grid of p, with
    ``alphas`` = (alpha0, alpha1) in place of the spec's ensemble's own.

    The sampling error on |entry|_p is propagated from the CLT error of the
    p-th absolute moment; the verdict allows the estimate to exceed the
    bound by two standard errors.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    xs = np.abs(entry_samples(spec, samples))
    alpha0, alpha1 = alphas if alphas is not None else (spec.alpha0, spec.alpha1)
    bound = math.sqrt(alpha1 / spec.n)
    est = np.empty(len(p_grid))
    se = np.empty(len(p_grid))
    for k, p in enumerate(p_grid):
        mom = xs**p
        mean = mom.mean()
        sd = mom.std(ddof=1) / math.sqrt(samples)
        est[k] = mean ** (1.0 / p)
        # delta method for the 1/p power
        se[k] = sd / (p * mean ** (1.0 - 1.0 / p)) if mean > 0 else 0.0
    scaled = p_grid ** (-alpha0) * est
    scaled_se = p_grid ** (-alpha0) * se
    holds = scaled <= bound + 2.0 * scaled_se
    return MomentReport(p_grid=p_grid, norm_est=est, norm_se=se, bound=bound,
                        holds=holds)


@dataclass
class XStructureReport:
    """Monte Carlo verdicts for the second-moment structure of the
    linearization blocks built from a pair."""

    quad_form_error: float
    quad_form_tol: float
    offblock_error: float
    offblock_tol: float
    gram_matrix: np.ndarray
    mean_abs: float
    mean_tol: float

    @property
    def all_hold(self) -> bool:
        return (self.quad_form_error <= self.quad_form_tol
                and self.offblock_error <= self.offblock_tol
                and np.abs(self.gram_matrix - np.eye(2)).max() <= self.offblock_tol
                and self.mean_abs <= self.mean_tol)


def _block(u, v, i, j):
    """3x3 block of the linearization X at block position (i, j), built from
    a = (U-V)/sqrt(2) and b = (-U-V)/sqrt(2)."""
    a = (u[i, j] - v[i, j]) / math.sqrt(2)
    b = (-u[i, j] - v[i, j]) / math.sqrt(2)
    out = np.zeros((3, 3), dtype=complex)
    out[0, 1] = a
    out[1, 0] = a
    out[0, 2] = b
    out[2, 0] = b
    return out


def check_X_structure(spec: EnsembleSpec,
                      a_matrix: np.ndarray | None = None) -> XStructureReport:
    """Verify, over 4000 fresh pairs, that the linearization blocks average
    to the sandwich map: E[X_ij A X_ji] = Phi(A)/N for block rows i != j, that
    E[X_ij A X_ki] = 0 for j != k, that the scaled entries
    sqrt(N)(U-V)(i,j)/sqrt(2) and sqrt(N)(-U-V)(i,j)/sqrt(2) form an
    orthonormal system in second moments, and that E X = 0 within CLT bars."""
    samples = 4000
    n = max(spec.n, 4)
    spec4 = replace(spec, n=n)
    if a_matrix is None:
        rng = _rng(spec.seed, 999)
        a_matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    i, j, k = 0, 1, 2
    acc_jj = np.zeros((3, 3), dtype=complex)
    acc_jk = np.zeros((3, 3), dtype=complex)
    acc_mean = np.zeros((3, 3), dtype=complex)
    gram = np.zeros((2, 2), dtype=complex)
    for t in range(samples):
        pair = sample_pair(replace(spec4, seed=spec.seed * 1000003 + t))
        xij = _block(pair.u, pair.v, i, j)
        xji = _block(pair.u, pair.v, j, i)
        xki = _block(pair.u, pair.v, k, i)
        acc_jj += xij @ a_matrix @ xji
        acc_jk += xij @ a_matrix @ xki
        acc_mean += xij
        a = (pair.u[i, j] - pair.v[i, j]) / math.sqrt(2)
        b = (-pair.u[i, j] - pair.v[i, j]) / math.sqrt(2)
        gram += np.array([[a * a.conjugate(), a * b.conjugate()],
                          [b * a.conjugate(), b * b.conjugate()]])
    scale = 1.0 / n  # entry second moment
    tol = 5.0 * scale / math.sqrt(samples) * max(1.0, float(np.abs(a_matrix).max())) * 3
    quad_err = float(np.abs(acc_jj / samples - scale * phi_ac(a_matrix)).max())
    off_err = float(np.abs(acc_jk / samples).max())
    gram_scaled = gram / samples * n
    mean_abs = float(np.abs(acc_mean / samples).max())
    return XStructureReport(
        quad_form_error=quad_err,
        quad_form_tol=tol,
        offblock_error=off_err,
        offblock_tol=tol,
        gram_matrix=gram_scaled,
        mean_abs=mean_abs,
        mean_tol=5.0 / math.sqrt(samples * n),
    )


def norm_event_rate(spec: EnsembleSpec, samples: int, threshold: float = 4.0) -> float:
    """Fraction of sampled pairs with max(|U|, |V|) above the threshold."""
    hits = 0
    for t in range(samples):
        pair = sample_pair(replace(spec, seed=spec.seed * 1000003 + t))
        if not (norm_at_most(pair.u, threshold) and norm_at_most(pair.v, threshold)):
            hits += 1
    return hits / samples


def load_pair(path) -> WignerPair:
    """Read the pair dump ``wigner.format_pair`` forms: a '#' header line with
    N, ensemble, seed, alpha0 and alpha1 (the ensemble's, so not read back),
    then one 're,im' line per entry, row-major, U first then V."""
    with open(path, "r", encoding="ascii") as f:
        header = f.readline()
        if not header.startswith("#"):
            raise ValueError("missing pair-dump header")
        fields = dict(tok.split("=", 1) for tok in header[1:].split())
        n = int(fields["N"])
        spec = EnsembleSpec(n=n, ensemble=fields["ensemble"], seed=int(fields["seed"]))
        vals = np.array([complex(*map(float, line.split(","))) for line in f])
    if vals.size != 2 * n * n:
        raise ValueError("pair dump has wrong entry count")
    u = vals[: n * n].reshape(n, n)
    v = vals[n * n:].reshape(n, n)
    return WignerPair(u=u, v=v, spec=spec)


#: the minor loop's inversions are quartic in N; ``minor_stats`` refuses
#: beyond this
MINOR_ROUTE_MAX_N = 256


def _minor_statistics(full: np.ndarray, x_blocks: np.ndarray, g_i: np.ndarray,
                      lam: np.ndarray, phi):
    """(ghat_i, q_i, r_frob, identity residual) by definition, with k the
    size of ``lam``: for each i, invert ``full`` = X - Lambda kron I without
    rows and columns i + N arange(k), average the minor's corner blocks, form
    Q_i from the removed row block, and take the largest relative residual
    of -Q_i = G_i^-1 + Lambda + Phi(Ghat_i).  ``x_blocks`` are X's corner
    blocks.  Refuses a minor whose 2-norm condition number exceeds
    ``COND_LIMIT``; ``identity_spot_check`` refuses wherever this does, by a
    bound on every minor's condition number."""
    k = lam.shape[0]
    n = full.shape[0] // k
    ghat_i = np.empty((n, k, k), dtype=complex)
    q_i = np.empty((n, k, k), dtype=complex)
    r_frob = np.empty(n)
    key_res = 0.0
    all_idx = np.arange(k * n)
    for i in range(n):
        rows = i + n * np.arange(k)
        keep = np.delete(all_idx, rows)
        minor = full[np.ix_(keep, keep)]
        if np.linalg.cond(minor) > COND_LIMIT:
            raise IllConditionedError(f"minor resolvent ill-conditioned at i={i}")
        r_minor = np.linalg.inv(minor)
        # Ghat_i: average of the k x k corner blocks of the padded minor
        ghat_i[i] = corner_blocks(r_minor, k).sum(axis=0) / n
        y = full[np.ix_(rows, keep)] + 0.0
        # X and X - Lambda kron I agree off the removed block's diagonal
        q_i[i] = y @ r_minor @ y.conj().T - x_blocks[i] - phi(ghat_i[i])
        r_frob[i] = np.linalg.norm(r_minor)
        lhs = -q_i[i]
        rhs = np.linalg.inv(g_i[i]) + lam + phi(ghat_i[i])
        key_res = max(key_res, np.linalg.norm(lhs - rhs)
                      / max(np.linalg.norm(rhs), 1e-300))
    return ghat_i, q_i, r_frob, float(key_res)


def spectral_resolvent(lin: Linearization, spectrum, z: complex) -> np.ndarray:
    """R = P diag(1/(lam - z)) P* + D with P = [Q; -aQ; bQ] from the pair's
    ``spectrum`` {UV} = Q diag(lam) Q* (an ``AnticommutatorSpectrum``), the
    resolvent the net screen reads from a pair's eigenbasis; it agrees with
    ``generalized_resolvent`` to rounding."""
    z = complex(z)
    _check_upper_half_plane(z)
    lam, q = spectrum.evals, spectrum.evecs
    n = lam.size
    pf = np.vstack([q, -(lin.a @ q), lin.b @ q])
    r = (pf / (lam - z)) @ pf.conj().T
    idx = np.arange(n)
    r[n + idx, n + idx] += 1.0
    r[2 * n + idx, 2 * n + idx] -= 1.0
    return r


def bordered_resolvent(lin: Linearization, z: complex) -> np.ndarray:
    """({UV} - z)^-1 by direct inversion, bordered by zeros to 3N x 3N: the
    matrix r with R + diag(0, -1, 1) kron I = W r W*."""
    n = lin.n
    out = np.zeros((3 * n, 3 * n), dtype=complex)
    out[:n, :n] = np.linalg.inv(lin.anticommutator - complex(z) * np.eye(n))
    return out


def spot_check_residual(stats, lam: np.ndarray, phi) -> float:
    """The key identity's residual at ``stats`` (an oracle's, k the size of
    ``lam``) as ``identity_spot_check`` scales it: the largest
    |Q_i + G_i^-1 + Lambda + Phi(Ghat_i)| over the size of its terms
    |G_i^-1| + |Lambda| + |Phi(Ghat_i)| (Frobenius), not over |Q_i| as
    ``minor_stats`` reports it."""
    k = lam.shape[0]
    n = len(stats.q_i)
    g_inv = np.linalg.inv(np.reshape(stats.g_i, (n, k, k)))
    phi_ghat = phi(np.reshape(stats.ghat_i, (n, k, k)))
    lam_k = np.diag(lam)
    res = np.linalg.norm(np.reshape(stats.q_i, (n, k, k)) + g_inv + lam_k + phi_ghat,
                         axis=(1, 2))
    scale = (np.linalg.norm(g_inv, axis=(1, 2)) + np.linalg.norm(lam_k)
             + np.linalg.norm(phi_ghat, axis=(1, 2)))
    return float((res / scale).max())


def _oracle_stats(z: complex, g_i, ghat_i, q_i, r_frob) -> ResolventStats:
    """The statistics at z, with ``_minor_statistics``' Ghat_i, Q_i and
    |R_i|_2."""
    fluct = float(_fluct_from(_spectral_norms(q_i), r_frob, len(g_i)).max())
    return ResolventStats(z=z, g_i=g_i, ghat_i=ghat_i, q_i=q_i, r_i_frob=r_frob,
                          fluct=fluct)


def minor_stats(lin: Linearization, z: complex) -> tuple[ResolventStats, float]:
    """The oracle of ``resolvent_stats``, and the key identity's residual:
    the same statistics by definition (Lambda = diag(z, -1, 1),
    Phi = ``phi_ac``; N <= ``MINOR_ROUTE_MAX_N``), inverting every minor."""
    z = complex(z)
    n = lin.n
    if n > MINOR_ROUTE_MAX_N:
        raise ValueError(f"minor route limited to N <= {MINOR_ROUTE_MAX_N}")
    g_i = corner_blocks(generalized_resolvent(lin, z), 3)
    *stats, key_res = _minor_statistics(
        lin.x - lambda_kron(z, n), corner_blocks(lin.x, 3), g_i,
        np.diag([z, -1.0 + 0j, 1.0 + 0j]), phi_ac)
    return _oracle_stats(z, g_i, *stats), key_res


def semicircle_minor_stats(x: np.ndarray, z: complex) -> tuple[ResolventStats, float]:
    """The oracle of ``semicircle_stats``, and its identity residual: the
    minor route at block size 1, with Lambda = z and Phi the identity, which
    inverts every minor for Ghat_i, |R_i|_2 and Q_i (1 x 1 blocks)."""
    z = complex(z)
    _check_upper_half_plane(z)
    x = np.asarray(x, dtype=complex)
    full = x - z * np.eye(x.shape[0])
    g_i = np.diag(np.linalg.inv(full)).copy()[:, None, None]
    *stats, ident = _minor_statistics(full, corner_blocks(x, 1), g_i, np.array([[z]]),
                                      lambda m: m)
    return _oracle_stats(z, g_i, *stats), ident


def whole_product_resolvent(lin: Linearization, z: complex) -> np.ndarray:
    """``generalized_resolvent`` by whole products: C g and
    [C g, diag(I, -I)] [B; I] each in one product, with both factors of the
    second built whole.  The blocked assembly keeps these bits."""
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
    return r


def whole_product_statistics(r: np.ndarray, z: complex, lam: np.ndarray,
                             phi) -> ResolventStats:
    """``linearize._schur_statistics`` by whole products: R* = conj(R),
    F = R*R and R F formed whole and sliced, and Ghat_i's correction and
    (R R*)_i as one einsum each over all of R.  The tiled route keeps these
    bits."""
    k = lam.size
    n = r.shape[0] // k
    rk = r.reshape(k, n, k, n)
    g_i = corner_blocks(r, k)
    g_inv = np.linalg.inv(g_i)
    corr = np.einsum("ajbi,ibc,cidj->iad", rk, g_inv, rk, optimize=True)
    ghat_i = g_i.mean(axis=0)[None, :, :] - corr / n
    q_i = -(g_inv + np.diag(lam)[None, :, :] + phi(ghat_i))
    r_conj = r.conj()
    vv = np.einsum("aik,bik->iab", r.reshape(k, n, k * n),
                   r_conj.reshape(k, n, k * n), optimize=True)
    f = r_conj.T @ r
    uu = corner_blocks(f, k)
    h3 = corner_blocks(r @ f, k)
    norm_r2 = np.vdot(r, r).real
    t1 = np.einsum("iab,iba->i", h3, g_inv)
    t2 = np.einsum("iba,ibc,icd,ida->i", g_inv.conj(), uu, g_inv, vv, optimize=True)
    r_frob = np.sqrt(np.maximum(norm_r2 - 2.0 * t1.real + t2.real, 0.0))
    fluct = float(_fluct_from(_spectral_norms(q_i), r_frob, n).max())
    return ResolventStats(z=z, g_i=g_i, ghat_i=ghat_i, q_i=q_i, r_i_frob=r_frob,
                          fluct=fluct)


#: sizes at which ``route_bit_mismatches`` holds the route to its reference
ROUTE_BIT_SIZES = (2, 3, 4, 5, 8, 16, 17, 20, 33, 64, 65, 100, 128, 130)


def route_bit_mismatches(sizes=ROUTE_BIT_SIZES) -> list[str]:
    """Every array in which the route differs in any bit from its
    whole-product reference, as "N ensemble z k name" strings: R and every
    ``ResolventStats`` field of ``resolvent_stats`` (k = 3) and of
    ``locallaw.semicircle_stats`` on U (k = 1), for every ensemble at each
    N of ``sizes`` and at two z, in the bulk at Im z = 1/N and away from
    the spectrum."""
    out = []
    for n in sizes:
        for ensemble in sorted(ENSEMBLES):
            lin = build_linearization(sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=n)))
            u = lin.pair.u
            for z in (0.3 + 1j / n, -2.0 + 0.5j):
                r = whole_product_resolvent(lin, z)
                got = {"R": (generalized_resolvent(lin, z), r)}
                for k, stats, expect in (
                        (3, resolvent_stats(lin, z), whole_product_statistics(
                            r, z, np.array([z, -1.0 + 0j, 1.0 + 0j]), phi_ac)),
                        (1, semicircle_stats(u, z), whole_product_statistics(
                            np.linalg.inv(u - z * np.eye(n)), z, np.array([z]),
                            lambda g: g))):
                    got.update({f"k={k} {name}": (getattr(stats, name), value)
                                for name, value in vars(expect).items()})
                out += [f"{n} {ensemble} {z} {key}" for key, (a, b) in got.items()
                        if not np.array_equal(a, b)]
    return out
