"""Tests for Wigner-pair sampling and hypothesis checks."""

import math

import numpy as np
import pytest

from aclaw import wigner
from aclaw.wigner import (
    ENSEMBLES,
    EnsembleSpec,
    format_pair,
    norm_at_most,
    sample_pair,
    spectral_norm,
)
from oracles import (
    check_moment_condition,
    check_X_structure,
    entry_samples,
    load_pair,
    norm_event_rate,
)


@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
def test_hermitian_and_deterministic(ensemble):
    spec = EnsembleSpec(n=8, ensemble=ensemble, seed=11)
    p1 = sample_pair(spec)
    p2 = sample_pair(spec)
    np.testing.assert_array_equal(p1.u, p2.u)
    np.testing.assert_array_equal(p1.v, p2.v)
    np.testing.assert_array_equal(p1.u, p1.u.conj().T)
    np.testing.assert_array_equal(p1.v, p1.v.conj().T)


def triu_indices_sample(spec, stream):
    """The sampler written with index arrays and a conjugate sum: the strict
    upper triangle in row-major order, then the real diagonal."""
    rng = wigner._rng(spec.seed, stream)
    n = spec.n
    iu = np.triu_indices(n, k=1)
    h = np.zeros((n, n), dtype=complex)
    h[iu] = wigner._draw_offdiag(rng, spec.ensemble, len(iu[0]), n)
    h = h + h.conj().T
    law = "real-gaussian" if spec.ensemble == "complex-gaussian" else spec.ensemble
    h[np.diag_indices(n)] = wigner._draw_offdiag(rng, law, n, n)
    return h


@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
@pytest.mark.parametrize("n", [2, 3, 64, 129])
@pytest.mark.parametrize("seed", [0, 7])
def test_sampler_matches_index_construction(ensemble, n, seed):
    # same draw order and every bit, signed zeros included
    spec = EnsembleSpec(n=n, ensemble=ensemble, seed=seed)
    for stream in (0, 1):
        got = wigner.sample_hermitian(spec, stream)
        assert got.tobytes() == triu_indices_sample(spec, stream).tobytes()


def test_rademacher_small_determinism():
    spec = EnsembleSpec(n=2, ensemble="rademacher", seed=3)
    a = sample_pair(spec)
    b = sample_pair(spec)
    np.testing.assert_array_equal(a.u, b.u)
    assert set(np.abs(a.u[np.triu_indices(2, 1)]) * math.sqrt(2)) <= {1.0}


def test_u_and_v_independent_streams():
    spec = EnsembleSpec(n=16, seed=5)
    pair = sample_pair(spec)
    assert not np.allclose(pair.u, pair.v)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 2**62 + 7])
def test_uint64_key_draws_the_list_keyed_pair(monkeypatch, seed):
    # keying Philox with a uint64 array moves no pair a report was made from:
    # below 2**63 numpy reads the list key [seed, stream] as int64 words
    spec = EnsembleSpec(n=6, seed=seed)
    pair = sample_pair(spec)
    monkeypatch.setattr(wigner, "_rng", lambda s, stream: np.random.Generator(
        np.random.Philox(key=[s, stream])))
    listed = sample_pair(spec)
    np.testing.assert_array_equal(pair.u, listed.u)
    np.testing.assert_array_equal(pair.v, listed.v)


@pytest.mark.filterwarnings("error")
def test_negative_and_large_seeds_draw_distinct_pairs():
    # the list key [seed % 2**64, stream] cast -1, -2, -1000 and 2**64 - 1
    # through float64 to one key, with a RuntimeWarning
    seeds = [-1, -2, -1000, 2**64 - 1, 2**63, 0]
    draws = [sample_pair(EnsembleSpec(n=4, seed=s)).u for s in seeds]
    for i in range(len(seeds)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j]), (seeds[i], seeds[j])


def test_entry_mean_and_second_moment():
    n, samples = 8, 10000
    for ensemble in sorted(ENSEMBLES):
        xs = entry_samples(EnsembleSpec(n=n, ensemble=ensemble, seed=1), samples)
        # CLT-scale bound on the empirical mean
        assert abs(xs.mean()) <= 4.0 / math.sqrt(samples * n)
        second = np.mean(np.abs(xs) ** 2)
        assert second == pytest.approx(1.0 / n, rel=0.05)


def test_pair_offdiag_second_moment():
    # variance of an actual matrix entry across seeds
    n = 8
    vals = []
    for seed in range(10000):
        pair = sample_pair(EnsembleSpec(n=n, ensemble="complex-gaussian", seed=seed))
        vals.append(pair.u[0, 1])
    second = np.mean(np.abs(vals) ** 2)
    assert second == pytest.approx(1.0 / n, rel=0.05)


def test_moment_condition_rademacher_exact():
    spec = EnsembleSpec(n=16, ensemble="rademacher", seed=2)
    rep = check_moment_condition(spec, p_grid=(2, 4, 8, 16), samples=4000)
    # |entry|_p = 1/sqrt(N) for every p: condition holds with alpha1 = 1
    np.testing.assert_allclose(rep.norm_est, 1 / math.sqrt(16), rtol=1e-12)
    assert rep.all_hold


def test_moment_condition_gaussian():
    spec = EnsembleSpec(n=16, ensemble="real-gaussian", seed=2)
    rep = check_moment_condition(spec, samples=40000)
    assert rep.all_hold
    # oracle: gaussian p-norms via the Gamma function,
    # |g|_p = sqrt(2) (Gamma((p+1)/2)/sqrt(pi))^(1/p) / sqrt(N)
    from scipy.special import gammaln
    for p, est in zip(rep.p_grid, rep.norm_est):
        exact = (math.sqrt(2.0)
                 * math.exp((gammaln((p + 1) / 2) - 0.5 * math.log(math.pi)) / p)
                 / math.sqrt(16))
        assert est == pytest.approx(exact, rel=0.05)


def test_moment_condition_negative_control():
    # heavy-tailed stand-in: alpha1 too small for the gaussian growth
    spec = EnsembleSpec(n=16, ensemble="real-gaussian", seed=4)
    rep = check_moment_condition(spec, p_grid=(16,), samples=40000, alphas=(0.1, 1.0))
    assert not rep.all_hold


def test_x_structure():
    spec = EnsembleSpec(n=4, ensemble="complex-gaussian", seed=9)
    rep = check_X_structure(spec)
    assert rep.all_hold
    np.testing.assert_allclose(rep.gram_matrix, np.eye(2), atol=0.1)


def test_x_structure_identity_input():
    from aclaw.sdcore import phi_ac
    spec = EnsembleSpec(n=4, ensemble="rademacher", seed=10)
    rep = check_X_structure(spec, a_matrix=np.eye(3, dtype=complex))
    assert rep.quad_form_error <= rep.quad_form_tol
    np.testing.assert_allclose(phi_ac(np.eye(3)), np.diag([2.0, 1.0, 1.0]))


def test_norm_event_rate_zero_at_desk_scale():
    spec = EnsembleSpec(n=64, ensemble="complex-gaussian", seed=1)
    assert norm_event_rate(spec, samples=20) == 0.0


def test_norm_event_rate_negative_control():
    # N=2 with threshold far below typical norms must trigger
    spec = EnsembleSpec(n=2, ensemble="complex-gaussian", seed=1)
    assert norm_event_rate(spec, samples=50, threshold=0.1) > 0


def test_norm_event_rate_zero_at_n16_and_n64():
    # the norms concentrate near 2, so at desk scale no pair of 25 exceeds
    # 4; a sampler whose norms grew with N would fail this
    rates = [norm_event_rate(EnsembleSpec(n=n, ensemble="complex-gaussian",
                                          seed=2), samples=25)
             for n in (16, 64)]
    assert rates == [0.0, 0.0]


def test_spectral_radius_concentrates_near_two():
    norms = []
    for seed in range(20):
        pair = sample_pair(EnsembleSpec(n=256, ensemble="complex-gaussian", seed=seed))
        norms.append(spectral_norm(pair.u))
    assert 1.9 <= np.mean(norms) <= 2.2


def test_pair_dump_roundtrip(tmp_path):
    spec = EnsembleSpec(n=6, ensemble="complex-gaussian", seed=42)
    pair = sample_pair(spec)
    path = tmp_path / "pair.csv"
    path.write_text(format_pair(pair), encoding="ascii")
    back = load_pair(path)
    np.testing.assert_array_equal(back.u, pair.u)
    np.testing.assert_array_equal(back.v, pair.v)
    assert back.spec == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n=1)
    with pytest.raises(ValueError):
        EnsembleSpec(n=4, ensemble="cauchy")
    # beyond (-2**64, 2**64) the Philox key would repeat
    for seed in (2**64, -2**64):
        with pytest.raises(ValueError):
            EnsembleSpec(n=4, seed=seed)
    # plain "gaussian" is accepted as an alias
    assert EnsembleSpec(n=4, ensemble="gaussian").ensemble == "complex-gaussian"


def scaled_to_norm(h, target):
    return h * (target / spectral_norm(h))


def count_fallbacks(monkeypatch):
    import aclaw.wigner as wigner

    calls = []

    def counting(h):
        calls.append(h.shape[0])
        return spectral_norm(h)

    monkeypatch.setattr(wigner, "spectral_norm", counting)
    return calls


@pytest.mark.parametrize("ensemble", ["complex-gaussian", "real-gaussian"])
def test_norm_at_most_just_inside_and_just_outside(monkeypatch, ensemble):
    fallbacks = count_fallbacks(monkeypatch)
    u = sample_pair(EnsembleSpec(n=64, ensemble=ensemble, seed=3)).u
    # a relative distance of 1e-6 lies outside the certificate's 1e-10 margin:
    # inside is certified by the two Cholesky factorizations alone
    assert norm_at_most(scaled_to_norm(u, 4.0 * (1 - 1e-6)), 4.0) is True
    assert fallbacks == []
    # outside, a factorization fails and the eigenvalues decide
    assert norm_at_most(scaled_to_norm(u, 4.0 * (1 + 1e-6)), 4.0) is False
    assert fallbacks == [64]


@pytest.mark.parametrize("top", [4.0, -4.0])
def test_norm_at_most_norm_exactly_at_bound(monkeypatch, top):
    fallbacks = count_fallbacks(monkeypatch)
    h = np.diag([top, 1.5, -0.5, 0.0]).astype(complex)
    assert spectral_norm(h) == 4.0
    assert norm_at_most(h, 4.0) is True
    assert fallbacks == [4]
    assert norm_at_most(h, math.nextafter(4.0, 0.0)) is False


def test_norm_at_most_zero_matrix_and_rademacher(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    assert norm_at_most(np.zeros((5, 5), dtype=complex), 4.0) is True
    assert norm_at_most(np.zeros((5, 5)), 0.0) is True
    x = sample_pair(EnsembleSpec(n=48, ensemble="rademacher", seed=1)).u
    for bound in (0.5, 4.0):
        assert norm_at_most(x, bound) == (spectral_norm(x) <= bound)
    assert norm_at_most(x, 4.0)
    assert fallbacks == [5, 48]  # the zero bound and the 0.5 bound


def test_norm_at_most_leaves_its_input_alone():
    u = sample_pair(EnsembleSpec(n=16, seed=2)).u
    before = u.copy()
    norm_at_most(u, 4.0)
    norm_at_most(u, 0.1)
    assert np.array_equal(u, before)


@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
def test_norm_at_most_agrees_with_spectral_norm(ensemble):
    for n in (2, 3, 8, 32):
        for seed in range(4):
            pair = sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=seed))
            for h in (pair.u, pair.v, 1.9 * pair.u):
                for bound in (4.0, 2.0, spectral_norm(h)):
                    assert norm_at_most(h, bound) == (spectral_norm(h) <= bound)
