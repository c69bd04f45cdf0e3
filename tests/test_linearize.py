"""Tests for the self-adjoint linearization and resolvent statistics."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aclaw import linearize
from aclaw.freelaw import m_ac
from aclaw.grids import uniform_net
from aclaw.linearize import (
    AnticommutatorSpectrum,
    IllConditionedError,
    build_linearization,
    corner_blocks,
    fluctuation_sup,
    generalized_resolvent,
    grid_corner_blocks,
    bordered_resolvent,
    lambda_kron,
    resolvent_stats,
    route_near_max,
)
from aclaw.sdcore import sd_solution_ac
from aclaw.wigner import ENSEMBLES, EnsembleSpec, WignerPair, sample_pair
from oracles import minor_stats, spectral_resolvent


def zero_pair(n=4):
    spec = EnsembleSpec(n=n, ensemble="complex-gaussian", seed=0)
    z = np.zeros((n, n), dtype=complex)
    return WignerPair(u=z, v=z.copy(), spec=spec)


def random_pair(n, seed):
    return sample_pair(EnsembleSpec(n=n, ensemble="complex-gaussian", seed=seed))


def lam0_kron(n):
    out = np.zeros((3 * n, 3 * n), dtype=complex)
    idx = np.arange(n)
    out[n + idx, n + idx] = -1.0
    out[2 * n + idx, 2 * n + idx] = 1.0
    return out


def test_zero_pair_gives_trivial_linearization():
    lin = build_linearization(zero_pair(3))
    np.testing.assert_array_equal(lin.x, np.zeros((9, 9)))
    np.testing.assert_array_equal(lin.w, np.eye(9))


def test_identity_zero_pair_explicit_blocks():
    n = 2
    spec = EnsembleSpec(n=n, seed=0)
    pair = WignerPair(u=np.eye(n, dtype=complex), v=np.zeros((n, n), dtype=complex),
                      spec=spec)
    lin = build_linearization(pair)
    s = 1 / math.sqrt(2)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    # hand-assembled 6x6 pattern
    expect = np.block([[zero, s * eye, -s * eye],
                       [s * eye, zero, zero],
                       [-s * eye, zero, zero]])
    np.testing.assert_allclose(lin.x, expect, atol=1e-15)
    np.testing.assert_array_equal(lin.anticommutator, zero)
    z = 1j
    fact = lin.w.conj().T @ (lin.x - lambda_kron(z, n)) @ lin.w
    expect_fact = np.block([[-z * eye, zero, zero],
                            [zero, eye, zero],
                            [zero, zero, -eye]])
    np.testing.assert_allclose(fact, expect_fact, atol=1e-14)


def test_x_hermitian_and_norm_bounds():
    for seed in range(3):
        pair = random_pair(12, seed)
        lin = build_linearization(pair)
        np.testing.assert_allclose(lin.x, lin.x.conj().T, atol=1e-15)
        cap = 8 * max(lin.norm_u, lin.norm_v, 1.0)
        assert np.linalg.norm(lin.x, 2) <= cap + 1e-9
        assert np.linalg.norm(lin.w, 2) <= cap + 1e-9


def test_w_norm_equalities():
    lin = build_linearization(random_pair(10, 7))
    w = lin.w
    nw = np.linalg.norm(w, 2)
    assert nw >= 1.0 - 1e-12
    assert abs(nw - np.linalg.norm(np.linalg.inv(w), 2)) <= 1e-8
    assert abs(nw - np.linalg.norm(w.conj().T, 2)) <= 1e-8


def test_factorization_identity():
    for seed in range(3):
        lin = build_linearization(random_pair(16, seed))
        n = 16
        z = 0.3 + 0.9j
        lhs = lin.w.conj().T @ (lin.x - lambda_kron(z, n)) @ lin.w
        rhs = np.zeros((3 * n, 3 * n), dtype=complex)
        rhs[:n, :n] = lin.anticommutator - z * np.eye(n)
        rhs[n:2 * n, n:2 * n] = np.eye(n)
        rhs[2 * n:, 2 * n:] = -np.eye(n)
        scale = np.linalg.norm(lin.x)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(scale, 1.0)


def test_resolvent_zero_pair_block_diagonal():
    n = 4
    lin = build_linearization(zero_pair(n))
    z = 0.5 + 0.5j
    r = generalized_resolvent(lin, z)
    expect = np.zeros((3 * n, 3 * n), dtype=complex)
    expect[:n, :n] = -np.eye(n) / z
    expect[n:2 * n, n:2 * n] = np.eye(n)
    expect[2 * n:, 2 * n:] = -np.eye(n)
    np.testing.assert_allclose(r, expect, atol=1e-14)


def test_resolvent_identities():
    n = 16
    lin = build_linearization(random_pair(n, 3))
    z = 0.5 + 0.5j
    r = generalized_resolvent(lin, z)
    small = bordered_resolvent(lin, z)
    w = lin.w
    # R + Lambda0 kron I = W r W*
    lhs1 = r + lam0_kron(n)
    rhs1 = w @ small @ w.conj().T
    assert np.linalg.norm(lhs1 - rhs1) / np.linalg.norm(rhs1) <= 1e-10
    # dR/dz = W r^2 W*, checked algebraically via dR/dz = R (e11 kron I) R
    e11 = np.zeros((3 * n, 3 * n), dtype=complex)
    e11[np.arange(n), np.arange(n)] = 1.0
    lhs2 = r @ e11 @ r
    rhs2 = w @ (small @ small) @ w.conj().T
    assert np.linalg.norm(lhs2 - rhs2) / np.linalg.norm(rhs2) <= 1e-10
    # Im R / Im z = W r r* W*
    lhs3 = (r - r.conj().T) / (2j * z.imag)
    rhs3 = w @ (small @ small.conj().T) @ w.conj().T
    assert np.linalg.norm(lhs3 - rhs3) / np.linalg.norm(rhs3) <= 1e-8
    rhs3b = w @ (small.conj().T @ small) @ w.conj().T
    assert np.linalg.norm(lhs3 - rhs3b) / np.linalg.norm(rhs3b) <= 1e-8


def test_resolvent_derivative_finite_difference():
    n = 12
    lin = build_linearization(random_pair(n, 5))
    z = 0.2 + 0.8j
    d = 1e-5
    fd = (generalized_resolvent(lin, z + d) - generalized_resolvent(lin, z - d)) / (2 * d)
    small = bordered_resolvent(lin, z)
    rhs = lin.w @ (small @ small) @ lin.w.conj().T
    assert np.linalg.norm(fd - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_upper_left_block_is_anticommutator_resolvent():
    n = 8
    lin = build_linearization(random_pair(n, 9))
    z = 1.1 + 0.4j
    r = generalized_resolvent(lin, z)
    direct = np.linalg.inv(lin.anticommutator - z * np.eye(n))
    np.testing.assert_allclose(r[:n, :n], direct, atol=1e-11)


def test_stats_zero_pair_decoupled():
    n = 4
    lin = build_linearization(zero_pair(n))
    z = 0.5 + 0.5j
    st_, key_res = minor_stats(lin, z)
    expect = np.diag([-1.0 / z, 1.0, -1.0])
    for i in range(n):
        np.testing.assert_allclose(st_.g_i[i], expect, atol=1e-13)
    # Q_i consistent with the decoupled identity
    assert key_res <= 1e-10


def test_schur_identity_explicit():
    n = 16
    lin = build_linearization(random_pair(n, 1))
    z = 0.7 + 0.6j
    full = lin.x - lambda_kron(z, n)
    r = generalized_resolvent(lin, z)
    i = 5
    rows = [i, n + i, 2 * n + i]
    keep = np.delete(np.arange(3 * n), rows)
    r_minor = np.linalg.inv(full[np.ix_(keep, keep)])
    padded = np.zeros_like(r)
    padded[np.ix_(keep, keep)] = r_minor
    g_i = r[np.ix_(rows, rows)]
    correction = r[:, rows] @ np.linalg.inv(g_i) @ r[rows, :]
    rel = np.linalg.norm(r - (padded + correction)) / np.linalg.norm(r)
    assert rel <= 1e-8


def test_minor_and_schur_routes_agree():
    n = 16
    lin = build_linearization(random_pair(n, 2))
    for z in (1j, 0.5 + 0.2j, -2.0 + 1.0j):
        a, _ = minor_stats(lin, z)
        b = resolvent_stats(lin, z)
        assert np.abs(a.g_i - b.g_i).max() <= 1e-9
        assert np.abs(a.ghat_i - b.ghat_i).max() <= 1e-9
        assert np.abs(a.q_i - b.q_i).max() <= 1e-8
        np.testing.assert_allclose(a.r_i_frob, b.r_i_frob, rtol=1e-8)
        np.testing.assert_allclose(a.fluct_i, b.fluct_i, rtol=1e-7)


@pytest.mark.parametrize("n", [16, 33, 64, 80, 128])
def test_grid_blocks_bit_identical_to_stats(n):
    # verify_local_law's grid rows read G_i from grid_corner_blocks; the
    # report stays byte-identical only if that is exactly the full
    # resolvent's, the route's and the oracle's g_i
    lin = build_linearization(random_pair(n, 5))
    zs = (0.3 + 1.0 / n * 1j, -2.5 + 0.7j)
    rows = grid_corner_blocks(lin, zs)
    assert rows.shape == (len(zs), n, 3, 3)
    for z, g_i in zip(zs, rows):
        assert np.array_equal(g_i, corner_blocks(generalized_resolvent(lin, z), 3))
        assert np.array_equal(g_i, resolvent_stats(lin, z).g_i)
        if n <= 80:  # the oracle inverts N minors of size 3N - 3
            assert np.array_equal(g_i, minor_stats(lin, z)[0].g_i)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000),
       st.floats(-8.0, 8.0), st.floats(0.0, 1.0))
@example(33, 0, 0.3, 0.5)  # 33 = 2 tiles + 1 row, joined to the last tile
def test_grid_blocks_match_full_resolvent_property(n, seed, re, t):
    lin = build_linearization(random_pair(n, seed))
    z = complex(re, (1.0 / n) * (8.0 * n) ** t)       # Im z from 1/N to 8
    expect = corner_blocks(generalized_resolvent(lin, z), 3)
    got = grid_corner_blocks(lin, [z])[0]
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


# no size inverts a 3N x 3N matrix: direct inversion is a test oracle
@pytest.mark.parametrize("n, checked", [(64, 0), (65, 0)])
def test_grid_blocks_invert_3n_only_to_cross_check(monkeypatch, n, checked):
    lin = build_linearization(random_pair(n, 4))
    inv, shapes = np.linalg.inv, []

    def counting(a):
        shapes.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    grid_corner_blocks(lin, [0.3 + 0.5j, -1.0 + 2.0j])
    assert shapes.count((3 * n, 3 * n)) == checked
    assert shapes.count((n, n)) == 2


def test_grid_blocks_keep_the_refusals(monkeypatch):
    lin = build_linearization(random_pair(16, 1))
    with pytest.raises(ValueError, match="upper half-plane"):
        grid_corner_blocks(lin, [0.5 + 0.5j, 0.5 - 0.5j])
    monkeypatch.setattr(linearize, "COND_LIMIT", 1.0)
    with pytest.raises(IllConditionedError):
        grid_corner_blocks(lin, [0.5 + 0.5j])


def test_key_identity_residual_small():
    lin = build_linearization(random_pair(12, 8))
    _, key_res = minor_stats(lin, 0.4 + 0.7j)
    assert key_res <= 1e-8


def test_average_consistency_bound():
    # N |G - Ghat_i| <= |G_i^-1| |R e_i*|_2 |e_i R|_2
    n = 16
    lin = build_linearization(random_pair(n, 4))
    z = 0.3 + 0.5j
    st_, _ = minor_stats(lin, z)
    r = generalized_resolvent(lin, z)
    for i in (0, 3, 11):
        rows = [i, n + i, 2 * n + i]
        lhs = n * np.linalg.norm(st_.g_avg - st_.ghat_i[i], 2)
        g_inv = np.linalg.inv(st_.g_i[i])
        rhs = (np.linalg.norm(g_inv, 2) * np.linalg.norm(r[:, rows])
               * np.linalg.norm(r[rows, :]))
        assert lhs <= rhs + 1e-9


def test_apriori_deviation_bound():
    # max_i |G_i - M| <= 2^7 max(|U|,|V|,1)^2 / Im z
    n = 24
    lin = build_linearization(random_pair(n, 6))
    for z in (0.1j, 1.0 + 0.5j, -3.0 + 2.0j):
        st_ = resolvent_stats(lin, z)
        m_mat = sd_solution_ac(z).m_mat
        dev = max(np.linalg.norm(st_.g_i[i] - m_mat, 2) for i in range(n))
        cap = 2**7 * max(lin.norm_u, lin.norm_v, 1.0) ** 2 / z.imag
        assert dev <= cap


def test_diag_extraction_dominated_by_block_deviation():
    n = 16
    pair = random_pair(n, 12)
    lin = build_linearization(pair)
    z = 0.8 + 0.3j
    st_ = resolvent_stats(lin, z)
    m = m_ac(z).m
    m_mat = sd_solution_ac(z).m_mat
    diag = AnticommutatorSpectrum.from_pair(pair).resolvent_diag(z)
    lhs = np.abs(diag - m).max()
    rhs = max(np.linalg.norm(st_.g_i[i] - m_mat, 2) for i in range(n))
    assert lhs <= rhs + 1e-10


def test_spectrum_diag_matches_inverse():
    pair = random_pair(10, 3)
    sp = AnticommutatorSpectrum.from_pair(pair)
    z = 0.4 + 0.9j
    direct = np.diag(np.linalg.inv(pair.u @ pair.v + pair.v @ pair.u
                                   - z * np.eye(10)))
    np.testing.assert_allclose(sp.resolvent_diag(z), direct, atol=1e-12)


def test_spectrum_cached_weights_match_definition():
    pair = random_pair(24, 5)
    sp = AnticommutatorSpectrum.from_pair(pair)
    for z in (0.4 + 0.9j, -3.1 + 0.05j, 7.9 + 8.0j, 0.0 + 1e-3j):
        expected = (np.abs(sp.evecs) ** 2) @ (1.0 / (sp.evals - z))
        assert np.array_equal(sp.resolvent_diag(z), expected)


# LAPACK's MRRR driver (heevr) behind from_pair keeps |Q*Q - I|_2 within
# 1.3e-12 over 36 sampled pairs at N = 256 (three ensembles, seeds 0-11);
# divide and conquer (heevd) reaches about 5e-15.  The bound leaves a margin
# of about four over the worst sample.
ORTHOGONALITY_TOL = 5e-12


@pytest.mark.parametrize("ensemble", ["complex-gaussian", "real-gaussian",
                                      "rademacher"])
@pytest.mark.parametrize("seed", [0, 1])
def test_spectrum_reconstructs_anticommutator(ensemble, seed):
    n = 256
    pair = sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=seed))
    sp = AnticommutatorSpectrum.from_pair(pair)
    ac = pair.u @ pair.v + pair.v @ pair.u
    rebuilt = (sp.evecs * sp.evals) @ sp.evecs.conj().T
    assert np.linalg.norm(rebuilt - ac) / np.linalg.norm(ac) <= 1e-12
    gram = sp.evecs.conj().T @ sp.evecs - np.eye(n)
    assert np.linalg.norm(gram, 2) <= ORTHOGONALITY_TOL
    assert np.all(np.diff(sp.evals) >= 0)


def test_resolvent_diags_match_per_z():
    sp = AnticommutatorSpectrum.from_pair(random_pair(96, 4))
    zs = np.array([0.4 + 0.9j, -3.1 + 0.05j, 7.9 + 8.0j, 0.0 + 1e-3j,
                   2.8 + 1.0 / 96j, -8.0 + 1e-8j])
    diags = sp.resolvent_diags(zs)
    assert diags.shape == (96, len(zs))
    for j, z in enumerate(zs):
        one = sp.resolvent_diag(z)
        assert np.abs(diags[:, j] - one).max() <= 1e-13 * max(1.0, np.abs(one).max())
    assert sp.resolvent_diags(zs[:0]).shape == (96, 0)


def test_x_built_only_on_demand():
    pair = random_pair(80, 2)
    lin = build_linearization(pair)
    generalized_resolvent(lin, 0.3 + 0.5j)
    assert "x" not in vars(lin) and "w" not in vars(lin)
    a = (pair.u - pair.v) / math.sqrt(2.0)
    b = (-pair.u - pair.v) / math.sqrt(2.0)
    zero, eye = np.zeros((80, 80)), np.eye(80)
    expect = np.block([[zero, a, b], [a, zero, zero], [b, zero, zero]])
    assert np.array_equal(lin.x, expect)
    assert lin.x is lin.x
    expect = np.block([[eye, zero, zero], [-a, eye, zero], [b, zero, eye]])
    assert np.array_equal(lin.w, expect)
    assert lin.w is lin.w


def pair_of_size(n, seed, ensemble="complex-gaussian"):
    """A sampled pair of size n; at n = 1, which ``EnsembleSpec`` refuses,
    the upper-left entries of an N = 2 pair."""
    if n >= 2:
        return sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=seed))
    two = sample_pair(EnsembleSpec(n=2, ensemble=ensemble, seed=seed))
    return SimpleNamespace(n=1, u=two.u[:1, :1], v=two.v[:1, :1])


@pytest.mark.parametrize("pair", [
    *(pytest.param(pair_of_size(n, 3), id=f"n{n}")
      for n in (1, 2, 5, 16, 33, 64, 128, 160)),
    pytest.param(pair_of_size(24, 1, "rademacher"), id="rademacher-n24"),
    pytest.param(zero_pair(6), id="zero-n6"),
])
def test_block_route_matches_definitional_product(pair):
    lin = build_linearization(pair)
    n = lin.n
    for z in (0.5 + 0.5j, -2.5 + 1j / n, 6.0 + 8.0j):
        mid = np.zeros((3 * n, 3 * n), dtype=complex)
        mid[:n, :n] = np.linalg.inv(lin.anticommutator - z * np.eye(n))
        idx = np.arange(n)
        mid[n + idx, n + idx] = 1.0
        mid[2 * n + idx, 2 * n + idx] = -1.0
        expect = lin.w @ mid @ lin.w.conj().T
        r = generalized_resolvent(lin, z)
        assert np.linalg.norm(r - expect) <= 1e-13 * np.linalg.norm(expect)


# no size inverts a 3N x 3N matrix: direct inversion is a test oracle
@pytest.mark.parametrize("n, direct", [(64, 0), (65, 0)])
def test_block_route_inverts_3n_only_to_cross_check(monkeypatch, n, direct):
    lin = build_linearization(random_pair(n, 4))
    inv, shapes = np.linalg.inv, []

    def counting(a):
        shapes.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    for z in (0.3 + 0.5j, -1.0 + 2.0j):
        shapes.clear()
        generalized_resolvent(lin, z)
        assert shapes.count((3 * n, 3 * n)) == direct
        assert shapes.count((n, n)) == 1


def test_fluctuation_sup_monotone_in_refinement():
    lin = build_linearization(random_pair(32, 5))
    rect = (-2.0, 2.0, 1.0 / 32, 2.0)
    coarse = fluctuation_sup(lin, rect, spacing=1.0)
    fine = fluctuation_sup(lin, rect, spacing=0.5)
    assert fine.max_fluct >= coarse.max_fluct - 1e-12
    assert coarse.k2 >= 2.0
    assert math.isfinite(coarse.k2)
    assert len(fine.net) > len(coarse.net)


def test_fluctuation_lipschitz_budget():
    # empirical difference quotients over the net stay within the
    # N^(7/2) * spacing budget between neighbouring net points
    n = 16
    budget = 16**3.5 * 0.5
    lin = build_linearization(random_pair(n, 9))
    net = fluctuation_sup(lin, (-2.0, 2.0, 0.5, 2.0), spacing=0.5)
    pts, vals = net.net, net.per_point
    worst = 0.0
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            gap = abs(pts[a] - pts[b])
            if 0 < gap <= 0.5 + 1e-12:
                worst = max(worst, abs(vals[a] - vals[b]) / gap)
    assert worst <= budget / 0.5  # quotient vs the per-unit-length budget


@pytest.mark.parametrize("n", [16, 80])
def test_spectral_resolvent_matches_factorized(n):
    # P diag(1/(lam - z)) P* + D, the screen's assembly of R
    lin = build_linearization(random_pair(n, 3))
    basis = linearize._eigenbasis(
        lin, AnticommutatorSpectrum.from_linearization(lin))
    for z in (0.3 + 1.0 / n * 1j, -2.5 + 0.7j, 6.0 + 8.0j):
        r = generalized_resolvent(lin, z)
        spectral = spectral_resolvent(basis, z)
        assert np.abs(spectral - r).max() <= 1e-13 * np.abs(r).max()
    with pytest.raises(ValueError):
        spectral_resolvent(basis, 0.5 - 0.1j)


@pytest.mark.parametrize("n", [2, 8, 16, 64])
@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
def test_eigenbasis_bound_dominates_direct_inversion_error(ensemble, n):
    # the certificate bounds |Rt - R| / |R| of the eigenbasis's resolvent at
    # every z above its eta.  Measured against direct inversion, the error
    # also holds both computations' rounding, a few eps, which the bound
    # does not cover; from N = 8 on the bound lies above that floor at every
    # point, so there it is held strictly
    lin = build_linearization(sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=4)))
    spectrum = AnticommutatorSpectrum.from_linearization(lin)
    basis = linearize._eigenbasis(lin, spectrum)
    floor = 16.0 * np.finfo(float).eps
    for z in uniform_net(-8.0, 8.0, 1.0 / n, 8.0, 2.0).tolist():
        direct = np.linalg.inv(lin.x - lambda_kron(z, n))
        err = (np.linalg.norm(spectral_resolvent(basis, z) - direct, 2)
               / np.linalg.norm(direct, 2))
        bound = linearize._eigenbasis_error_bound(lin, spectrum, z.imag)
        assert err <= max(bound, floor)
        assert n < 8 or bound > floor


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("ensemble", [*sorted(ENSEMBLES), "zero"])
def test_eigenbasis_gram_identities(ensemble, n):
    # the identities the net screen builds its kernels on: Q*Q = I, Hermitian
    # Gram blocks P_e* P_a, and P_2* P_2 - P_1* P_1 = Q* {UV} Q = diag(lam)
    pair = (zero_pair(n) if ensemble == "zero"
            else sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=4)))
    lin = build_linearization(pair)
    lam, p = linearize._eigenbasis(
        lin, AnticommutatorSpectrum.from_linearization(lin))

    def norm(x):
        return np.linalg.norm(x, 2)

    assert norm(p[0].conj().T @ p[0] - np.eye(n)) <= 1e-13
    for a, e in linearize._PHI_PAIRS:
        m = p[e].conj().T @ p[a]
        assert norm(m - m.conj().T) <= 1e-13 * norm(m)
    diff = p[2].conj().T @ p[2] - p[1].conj().T @ p[1] - np.diag(lam)
    assert norm(diff) <= 1e-12 * max(1.0, norm(lin.anticommutator))


def screen_net(lin, net):
    """The net screen in the pair's own spectrum, as ``fluctuation_sup``
    builds it."""
    return linearize._screen_net(lin, net, AnticommutatorSpectrum.from_linearization(lin))


def net_case(pair, route):
    """The screened net of the full rectangle, the Schur route's value, the
    screen's value and ``route``'s value (the oracle) at every net point."""
    lin = build_linearization(pair)
    fs = fluctuation_sup(lin, (-8.0, 8.0, 1.0 / pair.n, 8.0), spacing=4.0)

    def values(name):
        stats = {"schur": resolvent_stats,
                 "minor": lambda lin, z: minor_stats(lin, z)[0]}[name]
        return np.array([stats(lin, z).fluct for z in fs.net])

    schur = values("schur")
    screen = screen_net(lin, fs.net)
    return fs, schur, screen, schur if route == "schur" else values(route)


SCREEN_CASES = (
    [pytest.param(ens, n, "schur", id=f"{ens}-{n}-schur")
     for ens in ENSEMBLES for n in (2, 8, 32, 64, 128)]
    + [pytest.param(ens, n, "minor", id=f"{ens}-{n}-minor")
       for ens in ENSEMBLES for n in (2, 8, 16)])


@pytest.mark.parametrize("ensemble,n,route", SCREEN_CASES)
def test_screened_net_gives_route_maximum(ensemble, n, route):
    # K is the Schur route's maximum; the screen matches both routes
    pair = sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=1))
    fs, schur, screen, oracle = net_case(pair, route)
    assert fs.k2 == 2.0 * schur.max()
    np.testing.assert_allclose(screen, oracle, rtol=1e-12, atol=0.0)
    ran = fs.per_point == schur
    assert ran.any() and np.array_equal(fs.per_point[~ran], screen[~ran])


@pytest.mark.parametrize("route", ["schur", "minor"])
def test_screened_net_zero_pair(route):
    fs, schur, screen, oracle = net_case(zero_pair(8), route)
    assert fs.k2 == 2.0 * schur.max()
    assert np.array_equal(screen, oracle)


def assert_screen_matches_route(pair):
    fs, schur, screen, _ = net_case(pair, "schur")
    assert fs.k2 == 2.0 * schur.max()
    np.testing.assert_allclose(screen, schur, rtol=1e-12, atol=0.0)


def doubled_pair(n, eps):
    """(U, U + eps W) with U = Q diag(mu, -mu) Q*: at eps = 0, {UV} = 2 U^2
    has exact double eigenvalues 2 mu^2, and W = I + a small Hermitian part
    splits each by about 4 eps mu (mu >= 0.1)."""
    rng = np.random.Generator(np.random.Philox(key=7))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mu = np.linspace(0.1, 1.1, n // 2)
    u = (q * np.concatenate([mu, -mu])) @ q.conj().T
    u = (u + u.conj().T) / 2.0
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = np.eye(n) + (h + h.conj().T) / (10.0 * math.sqrt(n))
    return WignerPair(u=u, v=u + eps * w, spec=EnsembleSpec(n=n, seed=0))


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-6, 2e-3, 5e-3])
def test_screen_on_degenerate_spectra(eps):
    # the screen's divided differences multiply eigenvalue pairs closer than
    # _NEAR_GAP directly: the smallest gap lies below it at eps = 2e-3 and
    # above it at eps = 5e-3
    pair = doubled_pair(16, eps)
    gap = np.diff(np.linalg.eigvalsh(build_linearization(pair).anticommutator)).min()
    if eps == 2e-3:
        assert gap < linearize._NEAR_GAP
    if eps == 5e-3:
        assert gap > linearize._NEAR_GAP
    assert_screen_matches_route(pair)


def test_screen_on_rademacher_tie():
    pair = sample_pair(EnsembleSpec(n=2, ensemble="rademacher", seed=2))
    lam = np.linalg.eigvalsh(build_linearization(pair).anticommutator)
    assert lam[0] == lam[1]
    assert_screen_matches_route(pair)


#: a draw where the screen and the route differ by 1.23e-12 relative at
#: z = -5 + i/12, each within 1e-12 of the inverting oracle (4.5e-13 and
#: 7.8e-13): the gap is the route's rounding as much as the screen's
SCREEN_ROUTE_SPLIT = (12, "real-gaussian", 200, 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.sampled_from(sorted(ENSEMBLES)),
       st.integers(min_value=0, max_value=1000), st.sampled_from([1.0, 2.0, 4.0]))
@example(*SCREEN_ROUTE_SPLIT)
def test_screen_matches_route_property(n, ensemble, seed, spacing):
    lin = build_linearization(sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=seed)))
    net = uniform_net(-8.0, 8.0, 1.0 / n, 8.0, spacing)
    screen = screen_net(lin, net)
    route = [resolvent_stats(lin, z).fluct for z in net]
    if (n, ensemble, seed, spacing) == SCREEN_ROUTE_SPLIT:
        oracle = [minor_stats(lin, z)[0].fluct for z in net]
        np.testing.assert_allclose(screen, oracle, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(route, oracle, rtol=1e-12, atol=0.0)
    else:
        np.testing.assert_allclose(screen, route, rtol=1e-12, atol=0.0)


def test_screen_matches_route_at_scaling_size():
    # the scaling study screens N = 256; spacing 8 keeps the route to 6 points
    lin = build_linearization(random_pair(256, 1))
    fs = fluctuation_sup(lin, (-8.0, 8.0, 1.0 / 256, 8.0), spacing=8.0)
    assert len(fs.net) == 6
    route = np.array([resolvent_stats(lin, z).fluct for z in fs.net])
    assert fs.k2 == 2.0 * route.max()
    np.testing.assert_allclose(screen_net(lin, fs.net), route,
                               rtol=1e-12, atol=0.0)


def test_screen_refuses_clustered_spectrum(monkeypatch):
    # more than 8N near eigenvalue pairs (all 16^2 of the zero pair) refuse
    # the net before the eigenbasis is built and before any route runs; at
    # N = 8 the zero pair's 64 pairs still screen (test_screened_net_zero_pair)
    lin = build_linearization(zero_pair(16))
    stats = count_calls(monkeypatch, "resolvent_stats")
    monkeypatch.setattr(linearize, "_eigenbasis",
                        lambda *args: pytest.fail("P built for a refused net"))
    with pytest.raises(IllConditionedError, match="256 eigenvalue pairs"):
        fluctuation_sup(lin, (-8.0, 8.0, 1.0 / 16, 8.0), spacing=4.0)
    assert stats == []


def screen_and_route_peaks(n, spacing, points):
    """tracemalloc peaks of screening the full rectangle's net and of one
    route evaluation, on the same pair."""
    pair = random_pair(n, 0)
    net = uniform_net(-8.0, 8.0, 1.0 / n, 8.0, spacing)
    assert len(net) == points

    def peak(run):
        lin = build_linearization(pair)
        tracemalloc.start()
        try:
            run(lin)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return (peak(lambda lin: screen_net(lin, net)),
            peak(lambda lin: resolvent_stats(lin, net[0])))


def test_screen_allocates_less_than_one_route_evaluation():
    # the process's peak memory is set inside fluctuation_sup, which runs
    # the route after the screen: screening the whole spacing-1 net must not
    # allocate more at its peak than one route evaluation does
    screen, route = screen_and_route_peaks(128, 1.0, 153)
    assert screen <= route


def test_scaling_screen_allocates_less_than_one_route_evaluation():
    # the same bound on the net the scaling study screens at N = 256
    screen, route = screen_and_route_peaks(256, 4.0, 15)
    assert screen <= route


def count_calls(monkeypatch, name):
    """Count the calls of ``linearize.<name>``, recording their z."""
    seen = []
    original = getattr(linearize, name)

    def counting(lin, z, *args, **kwargs):
        seen.append(complex(z))
        return original(lin, z, *args, **kwargs)

    monkeypatch.setattr(linearize, name, counting)
    return seen


def test_screen_error_at_maximum_refuses(monkeypatch):
    lin = build_linearization(random_pair(32, 3))
    rect = (-8.0, 8.0, 1.0 / 32, 8.0)
    exact = fluctuation_sup(lin, rect, spacing=2.0)
    top = exact.net[np.argmax(exact.per_point)]
    screen = linearize._screen_net
    monkeypatch.setattr(linearize, "_screen_net", lambda lin_, net, spectrum: (
        screen(lin_, net, spectrum) * (1.0 + 1e-3 * (net == top))))
    stats = count_calls(monkeypatch, "resolvent_stats")
    with pytest.raises(IllConditionedError, match="differs from its screen"):
        fluctuation_sup(lin, rect, spacing=2.0)
    # one evaluation at the (inflated) screened maximum, and no other
    assert stats == [top]


def test_route_near_max_runs_the_route_at_the_top_set_only():
    # the route confirms the maximum and a point within SCREEN_MARGIN of it
    screen = np.array([1.0, 3.0, 2.0, 3.0 * (1.0 - 1e-7)])
    ran = []

    def route(j):
        ran.append(j)
        return screen[j] * (1.0 + 1e-8)

    vals = route_near_max(screen, route)
    assert ran == [1, 3]
    np.testing.assert_array_equal(vals, [1.0, 3.0 * (1.0 + 1e-8), 2.0,
                                         screen[3] * (1.0 + 1e-8)])


@pytest.mark.parametrize("screen, route_value", [
    ([1.0, math.nan, 2.0], 2.0),   # a NaN screen heads the top set
    ([1.0, 3.0, 2.0], math.nan),   # a NaN route value
])
def test_route_near_max_refuses_a_nan(screen, route_value):
    ran = []

    def route(j):
        ran.append(j)
        return route_value

    with pytest.raises(IllConditionedError):
        route_near_max(np.array(screen), route)
    assert ran == [1]


def count_certificates(monkeypatch):
    """Record the eta of every ``_eigenbasis_error_bound`` call."""
    etas = []
    original = linearize._eigenbasis_error_bound

    def counting(lin, spectrum, eta):
        etas.append(eta)
        return original(lin, spectrum, eta)

    monkeypatch.setattr(linearize, "_eigenbasis_error_bound", counting)
    return etas


@pytest.mark.parametrize("n", [16, 64, 80])
def test_screen_certifies_each_pair_once(monkeypatch, n):
    # one certificate per net, at its lowest Im z, on either side of the
    # old N = 64 boundary; no net point is inverted densely
    lin = build_linearization(random_pair(n, 2))
    etas = count_certificates(monkeypatch)
    inv, shapes = np.linalg.inv, []

    def counting(a):
        shapes.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    fs = fluctuation_sup(lin, (-8.0, 8.0, 1.0 / n, 8.0), spacing=4.0)
    assert etas == [fs.net.imag.min()] == [1.0 / n]
    assert (3 * n, 3 * n) not in shapes


def scaled_eigenvector_spectrum(lin, factor=1.0 + 1e-6):
    """The pair's ``from_linearization`` spectrum with its first
    eigenvector scaled by ``factor``."""
    spectrum = AnticommutatorSpectrum.from_linearization(lin)
    evecs = spectrum.evecs.copy()
    evecs[:, 0] *= factor
    return AnticommutatorSpectrum(evals=spectrum.evals, evecs=evecs)


def test_screen_refuses_an_uncertified_eigenbasis(monkeypatch):
    # |Q*Q - I| = 2e-6 puts the bound far above 1e-8: the screen refuses
    # before any route runs, and the unscaled spectrum passes
    lin = build_linearization(random_pair(16, 1))
    rect = (-8.0, 8.0, 1.0 / 16, 8.0)
    stats = count_calls(monkeypatch, "resolvent_stats")
    with pytest.raises(IllConditionedError, match="eigenbasis error bound"):
        fluctuation_sup(lin, rect, 4.0, scaled_eigenvector_spectrum(lin))
    assert stats == []
    fluctuation_sup(lin, rect, 4.0, scaled_eigenvector_spectrum(lin, 1.0))


def test_screen_keeps_conditioning_refusal(monkeypatch):
    lin = build_linearization(random_pair(16, 1))
    monkeypatch.setattr(linearize, "COND_LIMIT", 1.0)
    stats = count_calls(monkeypatch, "resolvent_stats")
    with pytest.raises(IllConditionedError):
        fluctuation_sup(lin, (-8.0, 8.0, 1.0 / 16, 8.0), spacing=4.0)
    assert stats == []  # refused by the screen, before any route ran


def test_fluctuation_sup_rect_validation():
    lin = build_linearization(random_pair(8, 1))
    with pytest.raises(ValueError):
        fluctuation_sup(lin, (-9.0, 0.0, 0.5, 1.0), spacing=0.5)
    with pytest.raises(ValueError):
        fluctuation_sup(lin, (-1.0, 1.0, 0.01, 1.0), spacing=0.5)


def test_gauge_bound_from_statistics():
    # the gauge of the linearization statistics is controlled by
    # 4 * fluct * |W| * sqrt(max(1, Im z) / (N Im z))
    from aclaw.sdcore import error_gauge
    n = 64
    lin = build_linearization(random_pair(n, 11))
    z = 1j
    st_ = resolvent_stats(lin, z)
    base = sd_solution_ac(z)
    rep = error_gauge(st_.g_i, st_.ghat_i, base)
    w_norm = np.linalg.norm(lin.w, 2)
    cap = 4 * st_.fluct * w_norm * math.sqrt(max(1.0, z.imag) / (n * z.imag))
    assert rep.value <= cap + 1e-9


def test_gauge_implication_from_statistics():
    from aclaw.sdcore import gauge_implication_check
    n = 64
    lin = build_linearization(random_pair(n, 13))
    z = 1j
    st_ = resolvent_stats(lin, z)
    v = gauge_implication_check(st_.g_i, st_.ghat_i, sd_solution_ac(z))
    assert v.holds


def test_shared_spectrum_screens_with_the_same_bits():
    # fluctuation_sup's own diagonalization and a caller's from_linearization
    # are one call on one matrix, so the screen and K keep their bits
    lin = build_linearization(random_pair(48, 6))
    spectrum = AnticommutatorSpectrum.from_linearization(lin)
    rect = (-8.0, 8.0, 1.0 / 48, 8.0)
    shared, own = fluctuation_sup(lin, rect, 2.0, spectrum), fluctuation_sup(lin, rect, 2.0)
    assert np.array_equal(shared.per_point, own.per_point)
    assert shared.k2 == own.k2

