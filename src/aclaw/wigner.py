"""Wigner-pair ensembles with reproducible counter-based seeding.

A pair (U, V) of N x N Hermitian matrices with independent, mean-zero
upper-triangular entries; off-diagonal entries have second moment exactly
1/N.  The diagonal law is not pinned by the hypotheses beyond its moment
growth; the default here is the same family as the off-diagonals with
variance 1/N, recorded in the spec so experiments stay auditable.

Sampling streams: matrix ``U`` of a pair uses Philox key (seed, 0) and ``V``
uses (seed, 1), so pairs are reproducible and independent pairs are obtained
by varying the seed (order-independent across parallel workers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ENSEMBLES",
    "EnsembleSpec",
    "WignerPair",
    "MomentReport",
    "XStructureReport",
    "sample_pair",
    "entry_samples",
    "entry_p_norm",
    "check_moment_condition",
    "check_X_structure",
    "norm_event_rate",
    "norm_at_most",
    "spectral_norm",
    "save_pair",
    "load_pair",
    "spec_to_text",
    "spec_from_text",
]

#: supported entry distributions and default moment-growth parameters
#: (alpha0, alpha1): rademacher entries are bounded so any alpha0 works with
#: alpha1 = 1; gaussian p-norms grow like sqrt(p) so alpha0 = 1/2 with a
#: modest alpha1
ENSEMBLES = {
    "complex-gaussian": (0.5, 4.0),
    "real-gaussian": (0.5, 4.0),
    "rademacher": (1.0, 1.0),
    "uniform-bounded": (1.0, 3.0),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw, at what size, with which seed."""

    n: int
    ensemble: str = "complex-gaussian"
    alpha0: float | None = None
    alpha1: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.ensemble == "gaussian":
            object.__setattr__(self, "ensemble", "complex-gaussian")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        a0, a1 = ENSEMBLES[self.ensemble]
        if self.alpha0 is None:
            object.__setattr__(self, "alpha0", a0)
        if self.alpha1 is None:
            object.__setattr__(self, "alpha1", a1)
        if self.alpha0 <= 0 or self.alpha1 < 1:
            raise ValueError("need alpha0 > 0 and alpha1 >= 1")


@dataclass(frozen=True)
class WignerPair:
    """Two Hermitian samples plus their generating spec."""

    u: np.ndarray
    v: np.ndarray
    spec: EnsembleSpec

    @property
    def n(self) -> int:
        return self.spec.n


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed % 2**64, stream]))


def _draw_offdiag(rng, ensemble, size, n):
    """Entries with E = 0 and E|.|^2 = 1/N exactly in distribution."""
    if ensemble == "complex-gaussian":
        return ((rng.standard_normal(size) + 1j * rng.standard_normal(size))
                / math.sqrt(2 * n))
    if ensemble == "real-gaussian":
        return rng.standard_normal(size) / math.sqrt(n)
    if ensemble == "rademacher":
        return rng.choice([-1.0, 1.0], size=size) / math.sqrt(n)
    if ensemble == "uniform-bounded":
        return rng.uniform(-math.sqrt(3.0 / n), math.sqrt(3.0 / n), size=size)
    raise ValueError(ensemble)


def _sample_hermitian(spec: EnsembleSpec, stream: int) -> np.ndarray:
    rng = _rng(spec.seed, stream)
    n = spec.n
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    h = np.zeros((n, n), dtype=complex)
    vals = _draw_offdiag(rng, spec.ensemble, n * (n - 1) // 2, n)
    h[upper] = vals
    h.T[upper] = vals.conj()
    # diagonal entries are real (hermiticity); variance 1/N, same family
    diag_law = "real-gaussian" if spec.ensemble == "complex-gaussian" else spec.ensemble
    h[np.diag_indices(n)] = _draw_offdiag(rng, diag_law, n, n)
    return h


def sample_pair(spec: EnsembleSpec) -> WignerPair:
    """Draw the (U, V) pair for the given spec; deterministic in the seed,
    Hermitian by construction, all upper-triangle entries independent."""
    return WignerPair(u=_sample_hermitian(spec, 0), v=_sample_hermitian(spec, 1),
                      spec=spec)


def entry_samples(spec: EnsembleSpec, count: int) -> np.ndarray:
    """iid copies of a single off-diagonal entry (for moment studies), drawn
    from stream 100 of the spec's seed, apart from the pair's streams 0, 1."""
    rng = _rng(spec.seed, 100)
    return _draw_offdiag(rng, spec.ensemble, count, spec.n)


def entry_p_norm(samples: np.ndarray, p: float) -> float:
    return float(np.mean(np.abs(samples) ** p) ** (1.0 / p))


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
                           samples: int = 20000) -> MomentReport:
    """Monte Carlo check of the moment-growth hypothesis on a grid of p.

    The sampling error on |entry|_p is propagated from the CLT error of the
    p-th absolute moment; the verdict allows the estimate to exceed the
    bound by two standard errors.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.min() < 2 or p_grid.max() > 16:
        raise ValueError("p_grid must lie in [2, 16]")
    xs = np.abs(entry_samples(spec, samples))
    bound = math.sqrt(spec.alpha1 / spec.n)
    est = np.empty(len(p_grid))
    se = np.empty(len(p_grid))
    for k, p in enumerate(p_grid):
        mom = xs**p
        mean = mom.mean()
        sd = mom.std(ddof=1) / math.sqrt(samples)
        est[k] = mean ** (1.0 / p)
        # delta method for the 1/p power
        se[k] = sd / (p * mean ** (1.0 - 1.0 / p)) if mean > 0 else 0.0
    scaled = p_grid ** (-spec.alpha0) * est
    scaled_se = p_grid ** (-spec.alpha0) * se
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
    from .sdcore import phi_ac

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


def spectral_norm(h: np.ndarray) -> float:
    """Largest |eigenvalue| of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(h)).max())


#: relative margin of the Cholesky certificate in ``norm_at_most``; far above
#: the factorization's backward error (a small multiple of N eps |h|)
_CERTIFICATE_MARGIN = 1e-10


def norm_at_most(h: np.ndarray, bound: float) -> bool:
    """Whether the Hermitian matrix h has spectral norm at most ``bound``;
    always the same decision as ``spectral_norm(h) <= bound``.

    Certificate first: with b' = bound (1 - 1e-10), Cholesky factorizations
    of b' I - h and b' I + h both succeed only when every eigenvalue of h
    lies within b' of zero, up to rounding far below the margin.  When
    either fails the norm is computed (a full ``eigvalsh``).  Both
    factorizations run in place in one reused N x N buffer: LAPACK ``potrf``
    gets the buffer's Fortran-ordered transpose, which for a Hermitian matrix
    is its conjugate and has the same spectrum.
    """
    from scipy.linalg import get_lapack_funcs

    h = np.asarray(h)
    n = h.shape[0]
    shifted = bound * (1.0 - _CERTIFICATE_MARGIN)
    buf = np.empty((n, n), dtype=np.result_type(h.dtype, float))
    diag = buf.reshape(-1)[:: n + 1]
    potrf, = get_lapack_funcs(("potrf",), (buf,))
    for sign in (-1.0, 1.0):
        np.multiply(h, sign, out=buf)
        diag += shifted
        _, info = potrf(buf.T, lower=False, overwrite_a=True, clean=False)
        if info != 0:
            return bool(spectral_norm(h) <= bound)
    return True


def norm_event_rate(spec: EnsembleSpec, samples: int, threshold: float = 4.0) -> float:
    """Fraction of sampled pairs with max(|U|, |V|) above the threshold."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    hits = 0
    for t in range(samples):
        pair = sample_pair(replace(spec, seed=spec.seed * 1000003 + t))
        if not (norm_at_most(pair.u, threshold) and norm_at_most(pair.v, threshold)):
            hits += 1
    return hits / samples


# Pair dump format: a '#' header line with N, ensemble and seed, then one
# 're,im' line per entry, row-major, U first then V.

def save_pair(pair: WignerPair, path) -> None:
    n = pair.n
    with open(path, "w", encoding="ascii") as f:
        f.write(f"# N={n} ensemble={pair.spec.ensemble} seed={pair.spec.seed} "
                f"alpha0={pair.spec.alpha0:.17g} alpha1={pair.spec.alpha1:.17g}\n")
        for mat in (pair.u, pair.v):
            for val in mat.ravel():
                f.write(f"{val.real:.17g},{val.imag:.17g}\n")


def load_pair(path) -> WignerPair:
    with open(path, "r", encoding="ascii") as f:
        header = f.readline()
        if not header.startswith("#"):
            raise ValueError("missing pair-dump header")
        fields = dict(tok.split("=", 1) for tok in header[1:].split())
        n = int(fields["N"])
        spec = EnsembleSpec(n=n, ensemble=fields["ensemble"],
                            alpha0=float(fields["alpha0"]),
                            alpha1=float(fields["alpha1"]),
                            seed=int(fields["seed"]))
        vals = np.array([complex(*map(float, line.split(","))) for line in f])
    if vals.size != 2 * n * n:
        raise ValueError("pair dump has wrong entry count")
    u = vals[: n * n].reshape(n, n)
    v = vals[n * n:].reshape(n, n)
    return WignerPair(u=u, v=v, spec=spec)


def spec_to_text(spec: EnsembleSpec) -> str:
    return (f"n={spec.n} ensemble={spec.ensemble} alpha0={spec.alpha0:.17g} "
            f"alpha1={spec.alpha1:.17g} seed={spec.seed}")


def spec_from_text(text: str) -> EnsembleSpec:
    fields = dict(tok.split("=", 1) for tok in text.split())
    return EnsembleSpec(n=int(fields["n"]), ensemble=fields["ensemble"],
                        alpha0=float(fields["alpha0"]),
                        alpha1=float(fields["alpha1"]), seed=int(fields["seed"]))
