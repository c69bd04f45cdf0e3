"""Wigner-pair ensembles with reproducible counter-based seeding.

A pair (U, V) of N x N Hermitian matrices with independent, mean-zero
upper-triangular entries; off-diagonal entries have second moment exactly
1/N.  The diagonal law is not pinned by the hypotheses beyond its moment
growth; the default here is the same family as the off-diagonals with
variance 1/N, recorded in the spec so experiments stay auditable.

Sampling streams: matrix ``U`` of a pair uses Philox key (seed, 0) and ``V``
uses (seed, 1), so pairs are reproducible and independent pairs are obtained
by varying the seed (order-independent across parallel workers).  Seeds lie
in (-2**64, 2**64); a negative seed's key is marked in its stream word, so
distinct seeds draw distinct pairs.  Every other seeded draw of the package
(``aclaw sd``'s perturbations, stream 11, and the ``tails`` checks, streams
1 and 7) takes its generator from ``_rng`` too.

The Monte Carlo checks of the ensembles' moment-growth constants, of the
linearization blocks' second moments and of the norm event |U|, |V| > 4, and
the reader of the pair dump, are test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ENSEMBLES",
    "EnsembleSpec",
    "WignerPair",
    "sample_pair",
    "norm_at_most",
    "spectral_norm",
    "save_pair",
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
        _check_seed(self.seed)
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


def _check_seed(seed: int) -> None:
    if not -2**64 < seed < 2**64:
        raise ValueError(f"seed must lie in (-2**64, 2**64), got {seed}")


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one stream of a seed; refuses a seed outside
    (-2**64, 2**64), whose key would repeat another's."""
    _check_seed(seed)
    # Philox's key is two 64-bit words: the seed modulo 2**64, then the
    # stream with bit 32 set for a negative seed, so that every seed in
    # (-2**64, 2**64) has a key of its own.  The key is an explicit uint64
    # array: numpy casts a list holding a word >= 2**63 through float64,
    # which once mapped every negative seed to one key.
    key = np.array([seed % 2**64, stream + 2**32 * (seed < 0)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


# Pair dump format: a '#' header line with N, ensemble, seed, alpha0 and
# alpha1, then one 're,im' line per entry, row-major, U first then V.

def save_pair(pair: WignerPair, path) -> None:
    n = pair.n
    with open(path, "w", encoding="ascii") as f:
        f.write(f"# N={n} ensemble={pair.spec.ensemble} seed={pair.spec.seed} "
                f"alpha0={pair.spec.alpha0:.17g} alpha1={pair.spec.alpha1:.17g}\n")
        for mat in (pair.u, pair.v):
            for val in mat.ravel():
                f.write(f"{val.real:.17g},{val.imag:.17g}\n")
