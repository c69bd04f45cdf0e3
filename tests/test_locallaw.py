"""Tests for the local-law verification harnesses."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aclaw import linearize, locallaw
from aclaw.freelaw import edge_distance, law_constants
from aclaw.grids import rect_grid, uniform_net
from aclaw.linearize import (AnticommutatorSpectrum, IllConditionedError,
                             build_linearization, identity_spot_check, resolvent_stats)
from aclaw.locallaw import (
    GridRow,
    NormHypothesisError,
    RhoPreconditionError,
    construct_k,
    default_grid,
    delocalization_check,
    empirical_k,
    figure1_data,
    sc_edge_distance,
    scaling_law_study,
    self_consistent_theta_star,
    semicircle_locallaw,
    semicircle_screen,
    semicircle_stats,
    sigma_solve,
    verify_local_law,
)
from aclaw.sdcore import phi_ac, sd_semicircle
from aclaw.wigner import ENSEMBLES, EnsembleSpec, WignerPair, sample_pair, spectral_norm
from oracles import minor_stats, semicircle_minor_stats, spot_check_residual

ZETA = law_constants().zeta


def gue_matrix(n, seed):
    return sample_pair(EnsembleSpec(n=n, ensemble="complex-gaussian", seed=seed)).u


def certified(x, eta):
    """X's spectrum, certified at Im z = eta as ``semicircle_locallaw``
    certifies it."""
    spectrum = AnticommutatorSpectrum.from_hermitian(x)
    spectrum.certify(x, eta, 1.0)
    return spectrum


def screen(x, zs):
    """``semicircle_screen`` at ``zs`` from X's certified eigenbasis."""
    return semicircle_screen(certified(x, min(np.imag(zs))), zs)


def test_default_grid_shape():
    grid = default_grid(32)
    assert len(grid) == 13 * 10
    assert grid.imag.min() == pytest.approx(1 / 32)
    assert grid.imag.max() == pytest.approx(8.0)


def test_verify_local_law_report_invariants():
    pair = sample_pair(EnsembleSpec(n=32, ensemble="complex-gaussian", seed=3))
    rep = verify_local_law(pair, default_grid(32), tau=8.0, theta=1.0, c_config=1.0,
                           spacing=2.0)
    assert rep.k_stat >= 2.0
    assert rep.rho == pytest.approx(4 * rep.k_stat**2 / 32)
    for row in rep.rows:
        assert row.holds == (row.lhs <= row.rhs)
        in_rect = abs(row.z.real) <= 8 + 1e-12 and 1 / 32 - 1e-12 <= row.z.imag <= 8 + 1e-12
        assert row.admissible == (in_rect and rep.rho <= row.h**2 * row.z.imag)
        assert row.h == pytest.approx(edge_distance(row.z))
    # star-constant consistency: bound with theta* holds on all admissible rows
    if rep.admissible_rows:
        assert math.isfinite(rep.theta_star)
        for row in rep.admissible_rows:
            assert row.lhs <= rep.theta_star * rep.k_stat / math.sqrt(
                32 * row.h * row.z.imag) * (1 + 1e-12)
    assert not rep.degenerate


def test_verify_refuses_large_norms():
    spec = EnsembleSpec(n=16, ensemble="complex-gaussian", seed=1)
    base = sample_pair(spec)
    pair = WignerPair(u=10.0 * base.u, v=base.v, spec=spec)
    with pytest.raises(NormHypothesisError):
        verify_local_law(pair, default_grid(16))


def test_verify_flags_degenerate_pair():
    spec = EnsembleSpec(n=8, ensemble="complex-gaussian", seed=0)
    z = np.zeros((8, 8), dtype=complex)
    rep = verify_local_law(WignerPair(u=z, v=z.copy(), spec=spec), default_grid(8),
                           spacing=4.0)
    assert rep.degenerate


def test_verify_parameter_validation():
    pair = sample_pair(EnsembleSpec(n=8, seed=0))
    with pytest.raises(ValueError):
        verify_local_law(pair, default_grid(8), tau=4.0)
    with pytest.raises(ValueError):
        verify_local_law(pair, default_grid(8), theta=0.5)


def test_construct_k_properties():
    lin = build_linearization(sample_pair(EnsembleSpec(n=32, ensemble="complex-gaussian",
                                                       seed=5)))
    spectrum = AnticommutatorSpectrum.from_hermitian(lin.anticommutator)
    k_coarse = construct_k(lin, spectrum, spacing=2.0)
    k_fine = construct_k(lin, spectrum, spacing=1.0)
    # the finer net is a superset, so the max never decreases
    assert k_fine >= k_coarse - 1e-12
    assert k_coarse >= 2.0


def test_empirical_k_self_consistent():
    pair = sample_pair(EnsembleSpec(n=64, ensemble="complex-gaussian", seed=2))
    spectrum = AnticommutatorSpectrum.from_pair(pair)
    k = empirical_k(spectrum, 1.0)
    assert k >= 2.0
    # re-verify the defining property on the same net
    from aclaw.freelaw import m_ac
    thresh = 4.0 * k**2 / 64
    for z in rect_grid(-8, 8, 17, 1 / 64, 8.0, 12):
        z = complex(z)
        h = edge_distance(z)
        if h * h * z.imag < thresh:
            continue
        lhs = np.abs(spectrum.resolvent_diag(z) - m_ac(z).m).max()
        assert lhs * math.sqrt(64 * h * z.imag) <= k + 1e-9


def test_sigma_solver_residual_and_range():
    lams = [-5.0, 0.0, 1.7, ZETA, 6.0]
    for rho in (0.2, 0.02, 0.002):
        for lam, sig in zip(lams, sigma_solve(np.array(lams), rho).tolist()):
            resid = edge_distance(complex(lam, sig)) ** 2 * sig - rho
            assert abs(resid) <= 1e-10
            assert rho - 1e-12 <= sig <= rho ** (1 / 3) + 1e-12
    with pytest.raises(ValueError):
        sigma_solve(np.zeros(3), 1.0)


def test_sigma_endpoints_exact():
    for rho in (0.2, 0.0002):
        at_0, at_zeta, at_minus_zeta = sigma_solve(np.array([0.0, ZETA, -ZETA]), rho)
        assert abs(at_0 - rho) <= 1e-9
        assert abs(at_zeta - rho ** (1 / 3)) <= 1e-9
        assert abs(at_minus_zeta - rho ** (1 / 3)) <= 1e-9


def sigma_bisect_scalar(lam, rho, iters=100):
    """The one-lambda bisection that sigma_solve's array form replaced, kept
    as its oracle."""
    def f(sig):
        return edge_distance(complex(lam, sig)) ** 2 * sig - rho

    lo, hi = 1e-12, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


LAM_EDGES = (ZETA, -ZETA, 0.0, 8.0, -8.0)


@settings(max_examples=80, deadline=None)
@given(lams=st.lists(st.one_of(st.sampled_from(LAM_EDGES),
                               st.floats(-8.0, 8.0)), min_size=1, max_size=6),
       rho=st.one_of(st.floats(0.0, 1e-6, exclude_min=True),
                     st.floats(0.999, 1.0, exclude_max=True),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_sigma_solve_array_equals_scalar_bisection(lams, rho):
    sigmas = sigma_solve(np.array(lams), rho)
    assert sigmas.shape == (len(lams),)
    for lam, sig in zip(lams, sigmas.tolist()):
        assert sig == sigma_bisect_scalar(lam, rho)


def test_sigma_solve_array_equals_scalar_on_a_dense_line():
    # dense enough that squaring by h * h instead of the scalar h ** 2 would
    # move some final digits
    lams = np.linspace(-8.0, 8.0, 1201)
    for rho in (0.2, 0.0002):
        expect = [sigma_bisect_scalar(lam, rho) for lam in lams.tolist()]
        assert sigma_solve(lams, rho).tolist() == expect



def test_figure1_rows():
    rows = figure1_data([0.2, 0.02], lam_step=0.5)
    # lambda runs from -8 to 8
    assert len(rows) == 2 * 33
    assert (rows[0][1], rows[32][1]) == (-8.0, 8.0)
    by_rho = {}
    for rho, lam, sig in rows:
        by_rho.setdefault(rho, {})[lam] = sig
    # smaller rho lies pointwise below larger rho
    for lam in by_rho[0.2]:
        assert by_rho[0.02][lam] <= by_rho[0.2][lam] + 1e-15
    # deep bulk: sigma = rho exactly
    assert by_rho[0.2][0.0] == pytest.approx(0.2, abs=1e-9)


def test_figure1_validates_rho():
    with pytest.raises(ValueError):
        figure1_data([1.5])


def test_delocalization_small_run():
    pair = sample_pair(EnsembleSpec(n=64, ensemble="complex-gaussian", seed=7))
    rep = delocalization_check(pair, 0.5)
    assert rep.k_stat == empirical_k(AnticommutatorSpectrum.from_pair(pair), 0.5)
    assert rep.rho < 1
    assert len(rep.rows) > 0
    assert rep.all_hold
    for row in rep.rows:
        assert abs(row.lam) <= 8.0
        assert rep.rho - 1e-12 <= row.sigma <= rep.rho ** (1 / 3) + 1e-12
        assert row.bound == pytest.approx(math.sqrt(2 * row.sigma))


@pytest.mark.xfail(strict=True, reason=(
    "self_consistent_theta_star accepts the candidate s/K only if "
    "s <= fl(s/K) * K, which rounding breaks here, so it reports the next "
    "candidate.  The fix changes theta_star_self in the verify-n128 "
    "benchmark references (pool seeds 1 and 3), so it ships with the "
    "benchmark change that re-records them."))
def test_theta_star_self_takes_smallest_valid_candidate():
    s1 = 0.8483872189531076
    k = 12.215193331172093
    # scaled deviations s1 and 1.95, gates h^2 Im z = 4 and 0.25: with
    # factor 1 and N = 1 only the first row is gated in at theta = s1/K,
    # and it holds there
    rows = [GridRow(z=4j, h=1.0, lhs=s1 / 2, rhs=math.inf, admissible=True,
                    holds=True),
            GridRow(z=0.25j, h=1.0, lhs=2 * 1.95, rhs=math.inf,
                    admissible=True, holds=True)]
    assert self_consistent_theta_star(rows, k, 1, 1.0) == s1 / k


def parent_empirical_scan(scaled, gate, c_config, n, floor):
    """``empirical_k``'s scan as it stood before ``_smallest_valid``."""
    def valid(k):
        thresh = 4.0 * c_config**2 * k**2 / n
        return bool(np.all(scaled[gate >= thresh] <= k))

    for cand in sorted({floor, *scaled[scaled > floor]}):
        if valid(cand):
            return float(cand)
    return float(max(floor, scaled.max()))


def parent_theta_scan(scaled, gate, k_stat, n, factor):
    """``self_consistent_theta_star``'s scan as it stood before
    ``_smallest_valid``."""
    def valid(theta):
        thresh = factor * theta**2 * k_stat**2 / n
        return bool(np.all(scaled[gate >= thresh] <= theta * k_stat))

    for cand in sorted(scaled / k_stat):
        if cand > 0 and valid(cand):
            return float(cand)
    return float(scaled.max() / k_stat) if len(scaled) else math.nan


# a small pool makes ties, zeros and values equal to the floor 2 frequent
SCAN_VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25, 7.0]),
                        st.floats(min_value=0.0, max_value=20.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(SCAN_VALUES, SCAN_VALUES), min_size=1, max_size=12),
       st.integers(min_value=1, max_value=512),
       st.sampled_from([0.25, 0.5, 1.0, 3.0]),
       st.one_of(st.just(12.215193331172093),
                 st.floats(min_value=0.1, max_value=50.0)),
       st.booleans())
def test_smallest_valid_equals_both_parent_scans(pairs, n, c_config, k_stat, zero):
    scaled = np.array([0.0 if zero else s for s, _ in pairs])
    gate = np.array([g for _, g in pairs])
    factor = 4.0 * c_config**2
    assert (locallaw._smallest_valid(scaled, gate, factor, n, 1.0, 2.0)
            == parent_empirical_scan(scaled, gate, c_config, n, 2.0))
    assert (locallaw._smallest_valid(scaled, gate, factor, n, k_stat, 0.0)
            == parent_theta_scan(scaled, gate, k_stat, n, factor))


def test_theta_star_self_of_no_rows_is_nan():
    assert math.isnan(self_consistent_theta_star([], 3.0, 16, 4.0))


def parent_scalar_minor_loop(x, z):
    """(g_i, ghat_i, q_i, r_frob) by the scalar mode's own minor loop, as it
    stood before the k-block oracle."""
    n = x.shape[0]
    g_i = np.diag(np.linalg.inv(x - z * np.eye(n))).copy()
    ghat_i = np.empty(n, dtype=complex)
    q_i = np.empty(n, dtype=complex)
    r_frob = np.empty(n)
    for i in range(n):
        keep = np.delete(np.arange(n), i)
        r_minor = np.linalg.inv(x[np.ix_(keep, keep)] - z * np.eye(n - 1))
        ghat_i[i] = np.trace(r_minor) / n
        row = x[i, keep]
        q_i[i] = row @ r_minor @ row.conj() - x[i, i] - ghat_i[i]
        r_frob[i] = np.linalg.norm(r_minor)
    return g_i, ghat_i, q_i, r_frob


SCALAR_ORACLE_CASES = (
    [pytest.param(sample_pair(EnsembleSpec(n=n, ensemble=ens, seed=4)).u,
                  id=f"{ens}-{n}")
     for ens in ("complex-gaussian", "rademacher") for n in (2, 3, 16)]
    + [pytest.param(np.zeros((5, 5), dtype=complex), id="zero-5")])


@pytest.mark.parametrize("x", SCALAR_ORACLE_CASES)
def test_scalar_minor_oracle_matches_parent_loop(x):
    for z in (0.5 + 0.3j, 1j, -1.5 + 0.05j):
        st_, ident = semicircle_minor_stats(x, z)
        g_i, ghat_i, q_i, r_frob = parent_scalar_minor_loop(x, z)
        assert np.array_equal(st_.g_i.ravel(), g_i)
        np.testing.assert_allclose(st_.ghat_i.ravel(), ghat_i, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(st_.q_i.ravel(), q_i, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(st_.r_i_frob, r_frob, rtol=1e-12, atol=0.0)
        assert ident <= 1e-10


def zero_pair(n):
    zero = np.zeros((n, n), dtype=complex)
    return WignerPair(u=zero, v=zero.copy(), spec=EnsembleSpec(n=n, seed=0))


# the k = 3 cases: pairs, checked on the linearization against the Schur route
BLOCK_ORACLE_CASES = (
    [pytest.param(sample_pair(EnsembleSpec(n=n, ensemble=ens, seed=4)),
                  id=f"pair-{ens}-{n}")
     for ens in ("complex-gaussian", "rademacher") for n in (2, 3, 16)]
    + [pytest.param(zero_pair(5), id="pair-zero-5")])


def spot_check_calls(x, z):
    """Two calls at z: ``identity_spot_check`` on the production route's
    statistics, and the inverting oracle's statistics with its identity
    residual on the spot check's scale, for a matrix x (k = 1: Lambda = z,
    Phi the identity) or a pair x (k = 3 on its linearization:
    Lambda = diag(z, -1, 1), Phi = ``phi_ac``).  The route's statistics are
    computed here, so a refusal in either call is that call's own.  The
    spot check gets the norms its production callers pass: the pair's
    ``minor_norms``, or at k = 1 the Frobenius norm of x."""
    if isinstance(x, WignerPair):
        lin = build_linearization(x)
        st_ = resolvent_stats(lin, z)
        lam, phi = np.array([z, -1.0, 1.0]), phi_ac
        return (lambda: identity_spot_check(lin.x, lam, st_.ghat_i, st_.q_i, phi,
                                            *lin.minor_norms),
                lambda: at_spot_check_scale(minor_stats(lin, z)[0], lam, phi))
    st_ = semicircle_stats(x, z)
    lam, phi = np.array([z]), (lambda g: g)
    return (lambda: identity_spot_check(x, lam, st_.ghat_i, st_.q_i, phi,
                                        np.linalg.norm(x)),
            lambda: at_spot_check_scale(semicircle_minor_stats(x, z)[0], lam, phi))


def at_spot_check_scale(stats, lam, phi):
    return stats, spot_check_residual(stats, lam, phi)


#: the points the spot check is held against the inverting oracle at
SPOT_ZS = (0.5 + 0.3j, 1j, -1.5 + 0.05j)


def assert_spot_check_matches_oracle(x, z):
    spot, oracle = spot_check_calls(x, z)
    q_def, ident, ward = spot()
    oracle_stats, oracle_ident = oracle()
    oracle_q = np.reshape(oracle_stats.q_i, q_def.shape)
    assert np.all(np.linalg.norm(q_def - oracle_q, axis=(1, 2))
                  <= 1e-10 * np.linalg.norm(oracle_q, axis=(1, 2)))
    assert abs(ident - oracle_ident) <= 1e-12
    assert ward <= 1e-10


@pytest.mark.parametrize("x", SCALAR_ORACLE_CASES + BLOCK_ORACLE_CASES)
def test_spot_check_matches_inverting_oracle(x):
    for z in SPOT_ZS:
        assert_spot_check_matches_oracle(x, z)


def tied_matrix(n, seed):
    """A Hermitian N x N matrix whose eigenvalues take only the values -1, 0
    and 1, in GUE eigenvectors."""
    q = np.linalg.eigh(gue_matrix(n, seed))[1]
    vals = np.random.default_rng(seed).integers(-1, 2, n)
    x = (q * vals) @ q.conj().T
    return (x + x.conj().T) / 2.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(0, 2**16),
       st.sampled_from(["gue", "ties", *ENSEMBLES, "zero-pair"]),
       st.sampled_from(SPOT_ZS))
# X = I up to rounding: every Y_i and both sides of the Ward identity are
# rounding noise (about 1e-48), and Im quad is exactly 0
@example(n=3, seed=369, case="ties", z=0.5 + 0.3j)
def test_spot_check_matches_inverting_oracle_at_any_n(n, seed, case, z):
    # odd N split their blocks unevenly at every level of the elimination
    if case == "gue":
        x = gue_matrix(n, seed)
    elif case == "ties":
        x = tied_matrix(n, seed)
    elif case == "zero-pair":
        x = zero_pair(n)
    else:
        x = sample_pair(EnsembleSpec(n=n, ensemble=case, seed=seed))
    assert_spot_check_matches_oracle(x, z)


def test_verify_local_law_never_builds_w(monkeypatch):
    # the grid rows and the net read a and b; W is for linearize-check only
    built = []

    def capturing(pair):
        built.append(build_linearization(pair))
        return built[-1]

    monkeypatch.setattr(locallaw, "build_linearization", capturing)
    pair = sample_pair(EnsembleSpec(n=16, ensemble="complex-gaussian", seed=1))
    verify_local_law(pair, default_grid(16, 8.0, n_re=5, n_im=4), spacing=4.0)
    assert len(built) == 1
    assert "w" not in built[0].__dict__


def test_verify_local_law_forms_r_only_where_the_route_runs(monkeypatch):
    # the grid rows read their G_i from grid_corner_blocks: the only 3N x 3N
    # resolvents of a run are the route's evaluations near the screened
    # maximum (one on a generic pair), so a dense resolvent per grid row
    # cannot come back unnoticed
    calls = {"generalized_resolvent": 0, "resolvent_stats": 0}
    for name in calls:
        original = getattr(linearize, name)

        def counting(*a, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*a, **kw)

        monkeypatch.setattr(linearize, name, counting)
    pair = sample_pair(EnsembleSpec(n=24, ensemble="complex-gaussian", seed=3))
    rep = verify_local_law(pair, default_grid(24), spacing=2.0)
    assert len(rep.rows) == 130
    assert calls == {"generalized_resolvent": 1, "resolvent_stats": 1}


def gue_at_minor_eigenvalue(eta):
    """GUE N = 16 at z = (an eigenvalue of the minor without row 0) + i eta."""
    x = gue_matrix(16, 2)
    return x, np.linalg.eigvalsh(x[1:, 1:])[7] + 1j * eta


def small_pair_at_minor_eigenvalue(eta):
    """A GUE pair N = 16 scaled by 1/100 at z = (an eigenvalue of the
    anticommutator of its minors without row 0) + i eta.  The small norms
    keep the resolvent's own condition bound, (2 |U| |V| + |z|) / eta, below
    the ceiling at eta = 1e-16, so that the minor refusal is what is tested."""
    pair = sample_pair(EnsembleSpec(n=16, seed=2))
    u, v = pair.u / 100.0, pair.v / 100.0
    ac = u[1:, 1:] @ v[1:, 1:] + v[1:, 1:] @ u[1:, 1:]
    return (WignerPair(u=u, v=v, spec=pair.spec),
            np.linalg.eigvalsh(ac)[7] + 1j * eta)


DIAG5 = np.diag(np.arange(5.0)).astype(complex)


#: the cases that the spot check's minor condition bound refuses and the
#: inverting oracle does not: the bound, 1.15 / eta for the small pair, lies
#: above the largest minor's condition number (9.94e13 at eta = 1e-14)
REFUSED_BY_BOUND_ONLY = {"pair-small16-eta-1e-14"}


# (x, z, whether the inverting oracle refuses); the minors of diag(0..N-1)
# that keep the zero eigenvalue have condition number about (N - 1) / eta,
# and the linearized minors of the zero pair 1 / eta
@pytest.mark.parametrize("x, z, refused", [
    pytest.param(DIAG5, 1e-16j, True, id="diag5-eta-1e-16"),
    pytest.param(DIAG5, 1e-3j, False, id="diag5-eta-1e-3"),
    pytest.param(np.diag(np.arange(65.0)).astype(complex), 1e-16j, True,
                 id="diag65-above-refusal-n"),
    pytest.param(*gue_at_minor_eigenvalue(1e-16), True, id="gue16-eta-1e-16"),
    pytest.param(*gue_at_minor_eigenvalue(1e-12), False, id="gue16-eta-1e-12"),
    pytest.param(zero_pair(4), 1e-16j, True, id="pair-zero-4-eta-1e-16"),
    pytest.param(zero_pair(4), 1e-3j, False, id="pair-zero-4-eta-1e-3"),
    pytest.param(zero_pair(65), 1e-16j, True, id="pair-zero-65-above-refusal-n"),
    pytest.param(*small_pair_at_minor_eigenvalue(1e-16), True,
                 id="pair-small16-eta-1e-16"),
    # cond(minor) is 9.94e13 here, just below the ceiling
    pytest.param(*small_pair_at_minor_eigenvalue(1e-14), False,
                 id="pair-small16-eta-1e-14"),
    pytest.param(*small_pair_at_minor_eigenvalue(1e-12), False,
                 id="pair-small16-eta-1e-12"),
])
def test_spot_check_refuses_where_the_oracle_refuses(request, x, z, refused):
    # the bound is never below a minor's condition number, so an oracle
    # refusal implies a spot-check refusal, at every N
    spot, oracle = spot_check_calls(x, z)
    if refused:
        with pytest.raises(IllConditionedError):
            oracle()
    else:
        oracle()
    if refused or request.node.callspec.id in REFUSED_BY_BOUND_ONLY:
        with pytest.raises(IllConditionedError, match="minor condition bound"):
            spot()
    else:
        spot()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(0, 2**16),
       st.sampled_from(["gue", *ENSEMBLES]), st.floats(-3.0, 3.0), st.floats(-4.0, 1.0))
def test_minor_cond_bound_dominates_every_minor(n, seed, case, re, log_eta):
    # at k = 1 (a GUE matrix) and k = 3 (a pair's linearization), with the
    # exact norms: the production callers pass upper bounds of them, which
    # only raise the bound
    z = complex(re, 10.0**log_eta)
    if case == "gue":
        x, lam, ab_norm = gue_matrix(n, seed), np.array([z]), 0.0
        assert np.linalg.norm(x) >= spectral_norm(x)
    else:
        lin = build_linearization(sample_pair(EnsembleSpec(n=n, ensemble=case, seed=seed)))
        x, lam = lin.x, np.array([z, -1.0, 1.0])
        ab_norm = spectral_norm(lin.a) + spectral_norm(lin.b)
        assert lin.minor_norms[0] >= spectral_norm(x) * (1.0 - 1e-12)
        assert lin.minor_norms[1] >= ab_norm * (1.0 - 1e-12)
    bound = linearize._minor_cond_bound(lam, spectral_norm(x), ab_norm)
    k = lam.size
    full = x - np.diag(np.repeat(lam, n))
    for i in range(n):
        keep = np.delete(np.arange(k * n), i + n * np.arange(k))
        assert np.linalg.cond(full[np.ix_(keep, keep)]) <= bound


def test_semicircle_locallaw_inverts_no_minor(monkeypatch):
    n, tau, spacing = 33, 20.0, 2.0
    x = gue_matrix(n, 6)
    shapes = {"inv": [], "solve": [], "eigh": []}
    stats = []

    def recorded(name, fn):
        def wrapper(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    def counted(*args, **kwargs):
        stats.append(args[1])
        return semicircle_stats(*args, **kwargs)

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    monkeypatch.setattr(locallaw, "semicircle_stats", counted)
    semicircle_locallaw(x, tau=tau, theta_user=1.0, spacing=spacing)
    net = uniform_net(-4.0, 4.0, 1.0 / n, tau, spacing)
    # one eigendecomposition of X serves the net screen and every grid row
    assert shapes["eigh"] == [(n, n)]
    screened = screen(x, net).fluct
    # the route runs only at the screened maximum (one point on a generic
    # matrix), here -4 + i/N, so the spot checks run there and at i/N
    assert stats == [complex(net[np.argmax(screened)])] == [-4.0 + 1j / n]
    # the only N x N inverse is the route's resolvent, one per route point
    # and none per grid row; every other inverse is the route's stack of
    # 1 x 1 corner blocks G_i^-1.  The two spot checks are one nested block
    # elimination each: 2(N - 1) solves, none larger than ceil(N/2) square,
    # no (N - 1) minor
    assert [s for s in shapes["inv"] if s == (n, n)] == [(n, n)] * len(stats)
    assert [s for s in shapes["inv"] if s != (n, n)] == [(n, 1, 1)] * len(stats)
    assert len(shapes["solve"]) == 2 * 2 * (n - 1)
    assert max(shape[0] for shape in shapes["solve"]) == math.ceil(n / 2)


@pytest.mark.parametrize("n", [2, 8, 32, 64])
@pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
def test_semicircle_rows_match_dense_inverse(ensemble, n):
    # the grid rows' G_i = (W d)_i from the certified eigenbasis against the
    # diagonal of (X - z)^-1 by dense inversion, at every grid point,
    # relative to the largest |G_i| as in the screen-vs-route test; each
    # row's lhs then moves by no more than that
    x = sample_pair(EnsembleSpec(n=n, ensemble=ensemble, seed=4)).u
    grid = rect_grid(-4.0, 4.0, 9, 1.0 / n, 20.0, 8)
    rows = certified(x, 1.0 / n).resolvent_diags(grid)
    rep = semicircle_locallaw(x)
    assert len(rep.rows) == grid.size == 72
    for z, got, row in zip(grid.tolist(), rows.T, rep.rows):
        want = np.diag(np.linalg.inv(x - z * np.eye(n)))
        tol = 1e-12 * np.abs(want).max()
        assert np.abs(got - want).max() <= tol
        assert row.z == z
        assert abs(row.lhs - np.abs(want - sd_semicircle(z)).max()) <= tol


def test_semicircle_refuses_an_uncertified_eigenbasis(monkeypatch):
    # one eigenvector scaled by 1 + 1e-6 leaves Q*Q - I at 2e-6, far above
    # 1e-8 for the k = 1 bound at Im z = 1/N: the run refuses before any
    # route runs, and the exact eigenbasis passes
    x = gue_matrix(16, 1)
    stats = []
    monkeypatch.setattr(locallaw, "semicircle_stats",
                        lambda *args: stats.append(args) or semicircle_stats(*args))
    exact = np.linalg.eigh

    def scaled(a):
        evals, evecs = exact(a)
        evecs = evecs.copy()
        evecs[:, 0] *= 1.0 + 1e-6
        return evals, evecs

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", scaled)
        with pytest.raises(IllConditionedError,
                           match=r"eigenbasis error bound .* exceeds 1e-8 at Im z = 0\.0625"):
            semicircle_locallaw(x, spacing=4.0)
    assert stats == []
    semicircle_locallaw(x, spacing=4.0)
    assert len(stats) == 1


SCREEN_SCALAR_CASES = [
    pytest.param(make(n), id=f"{name}-{n}")
    for n in (2, 3, 16, 33)
    for name, make in (("gue", lambda n: gue_matrix(n, 4)),
                       ("ties", lambda n: tied_matrix(n, 4)),
                       ("zero", lambda n: np.zeros((n, n), dtype=complex)))]


@pytest.mark.parametrize("x", SCREEN_SCALAR_CASES)
def test_semicircle_screen_matches_route(x):
    # relative to each statistic's largest entry: a Q_i near zero carries
    # the rounding of G_i^-1 + z + Ghat_i, which nearly cancel
    n = x.shape[0]
    zs = [*SPOT_ZS, 0.3 + 1j / n, 4.0 + 1j / n, 4.0 + 20j]
    screened = screen(x, zs)
    assert screened.z.tolist() == zs
    row_sum = locallaw._row_sum_residual(screened)
    for j, z in enumerate(zs):
        route = semicircle_stats(x, z)
        for name in ("g_i", "ghat_i", "q_i", "r_i_frob"):
            got, want = getattr(screened, name)[j], getattr(route, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        assert screened.fluct[j] == pytest.approx(route.fluct, rel=1e-12, abs=0.0)
        assert row_sum[j] <= 1e-12


def test_semicircle_screen_refuses_lower_half_plane():
    with pytest.raises(ValueError):
        semicircle_screen(certified(gue_matrix(4, 0), 0.1), [1j, 0.5 - 0.1j])


def test_semicircle_refuses_where_the_route_disagrees_with_its_screen(monkeypatch):
    x = gue_matrix(32, 0)
    net = uniform_net(-4.0, 4.0, 1.0 / 32, 20.0, 2.0)
    routed = []

    def counted(*args, **kwargs):
        routed.append(args[1])
        return semicircle_stats(*args, **kwargs)

    monkeypatch.setattr(locallaw, "semicircle_stats", counted)
    # no route value can agree with its screen
    monkeypatch.setattr(linearize, "SCREEN_AGREEMENT", -1.0)
    with pytest.raises(IllConditionedError, match="differs from its screen"):
        semicircle_locallaw(x)
    # the screened maximum, and no other point
    assert routed == [complex(net[np.argmax(screen(x, net).fluct)])]


def test_semicircle_screens_only_its_net(monkeypatch):
    # the grid rows read only G_i from the eigenbasis, so only the net is
    # screened
    n, tau, spacing = 16, 20.0, 2.0
    x = gue_matrix(n, 2)
    seen = []

    def recorded(spectrum, zs):
        seen.append(np.asarray(zs))
        return semicircle_screen(spectrum, zs)

    monkeypatch.setattr(locallaw, "semicircle_screen", recorded)
    semicircle_locallaw(x, tau=tau, spacing=spacing)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], uniform_net(-4.0, 4.0, 1.0 / n, tau, spacing))


def test_delocalization_rho_refusal():
    pair = sample_pair(EnsembleSpec(n=16, ensemble="complex-gaussian", seed=7))
    with pytest.raises(RhoPreconditionError):
        delocalization_check(pair, 1.0, k_stat=100.0)


def test_delocalization_refuses_large_norms_before_its_eigh(monkeypatch):
    # as verify refuses them before its eigh: the norm hypothesis is checked
    # before the MRRR spectrum is built
    spec = EnsembleSpec(n=16, ensemble="complex-gaussian", seed=1)
    base = sample_pair(spec)
    pair = WignerPair(u=5.0 / spectral_norm(base.u) * base.u, v=base.v, spec=spec)

    def refused_first(cls, pair):
        pytest.fail("from_pair ran before the norm refusal")

    monkeypatch.setattr(AnticommutatorSpectrum, "from_pair", classmethod(refused_first))
    with pytest.raises(NormHypothesisError):
        delocalization_check(pair, 0.5)


def test_construct_k_concentrates_across_seeds():
    lins = [build_linearization(sample_pair(
                EnsembleSpec(n=32, ensemble="complex-gaussian", seed=s)))
            for s in range(10)]
    ks = [construct_k(lin, AnticommutatorSpectrum.from_hermitian(lin.anticommutator),
                      spacing=4.0)
          for lin in lins]
    assert np.std(ks) < np.mean(ks)


@pytest.mark.parametrize("x", SCALAR_ORACLE_CASES)
def test_semicircle_stats_routes_agree(x):
    # the k = 1 Schur route through the k-generic einsums against the
    # inverting oracle, at the edge sizes N = 2 and 3 and on X = 0
    for z in (0.5 + 0.3j, 1j, -1.5 + 0.05j):
        a, ident = semicircle_minor_stats(x, z)
        b = semicircle_stats(x, z)
        np.testing.assert_allclose(a.ghat_i, b.ghat_i, rtol=1e-8)
        np.testing.assert_allclose(a.q_i, b.q_i, rtol=1e-7, atol=1e-12)
        np.testing.assert_allclose(a.r_i_frob, b.r_i_frob, rtol=1e-8)
        assert ident <= 1e-8
        assert locallaw._row_sum_residual(a) <= 1e-10
        assert locallaw._row_sum_residual(b) <= 1e-10


def test_semicircle_report_literal_theta_vacuous():
    x = gue_matrix(48, 5)
    rep = semicircle_locallaw(x, tau=20.0, theta_user=1.0, spacing=4.0)
    assert rep.x_empty_literal
    assert rep.rho_literal > 20.0
    assert rep.max_identity_residual <= 1e-8
    assert rep.max_row_sum_residual <= 1e-10
    assert rep.k_stat >= 2.0
    for row in rep.rows:
        assert row.holds == (row.lhs <= row.rhs)
        assert row.h == pytest.approx(sc_edge_distance(row.z))
    if rep.admissible_rows:
        assert math.isfinite(rep.theta_star)
        for row in rep.admissible_rows:
            assert row.lhs * math.sqrt(48 * row.h * row.z.imag) <= (
                rep.theta_star * rep.k_stat * (1 + 1e-12))


def test_scaling_study_smoke():
    rep = scaling_law_study(n_list=(16, 32), seeds=range(2), k_spacing=4.0)
    assert set(rep.median_means) == {16, 32}
    assert math.isfinite(rep.slope)
    assert all(math.isfinite(v) for v in rep.theta_star_by_run.values())


@pytest.mark.parametrize("n, seed, z", [(256, 0, 4 + 1j / 256), (32, 4, -4 + 1j / 32)])
def test_identity_residual_is_rounding_where_q_nearly_vanishes(n, seed, z):
    # outside the spectrum near the real axis some Q_i nearly vanish: there
    # G_i^-1 + z + Ghat_i cancel, and a residual relative to |Q_i| read
    # 8.8e-11 and 2.5e-12 at these two points.  Relative to the identity's
    # terms it stays at rounding level, as it does in the bulk
    x = gue_matrix(n, seed)
    st_ = semicircle_stats(x, z)
    assert np.abs(st_.q_i).min() < 1e-3 * np.abs(st_.q_i).max()
    _, ident, _ = identity_spot_check(x, np.array([z]), st_.ghat_i, st_.q_i,
                                      lambda g: g, np.linalg.norm(x))
    assert ident <= 100 * np.finfo(float).eps


def mrrr_scaling_oracle(n_list, seeds, k_by_run):
    """The scaling study's medians and star constants on its 13 x 10 grid
    from scipy's MRRR spectrum of each pair
    (``AnticommutatorSpectrum.from_pair``), one z at a time, with the
    study's K."""
    from aclaw.freelaw import m_ac

    medians, stars = {}, {}
    for n in n_list:
        grid = rect_grid(-6.0, 6.0, 13, 1.0 / n, 4.0, 10)
        zs = [z for z in grid.tolist() if edge_distance(z) ** 2 * z.imag >= 4.0 / n]
        for seed in seeds:
            spectrum = AnticommutatorSpectrum.from_pair(
                sample_pair(EnsembleSpec(n=n, ensemble="complex-gaussian", seed=seed)))
            scaled = []
            for z in zs:
                law = m_ac(z)
                dev = np.abs(spectrum.resolvent_diag(z) - law.m).max()
                scaled.append(dev * math.sqrt(n * law.h * z.imag))
            medians.setdefault(n, []).append(float(np.median(scaled)))
            stars[n, seed] = max(scaled) / k_by_run[n, seed]
    return medians, stars


def test_scaling_study_diagonalizes_each_pair_once(monkeypatch):

    n_list, seeds = (16, 32), (0, 1)
    eigh, from_pair = np.linalg.eigh, AnticommutatorSpectrum.from_pair.__func__
    calls = {"eigh": 0, "from_pair": 0}

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counting_from_pair(cls, pair):
        calls["from_pair"] += 1
        return from_pair(cls, pair)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(AnticommutatorSpectrum, "from_pair",
                        classmethod(counting_from_pair))
    rep = scaling_law_study(n_list=n_list, seeds=seeds, k_spacing=4.0)
    assert calls == {"eigh": len(n_list) * len(seeds), "from_pair": 0}
    monkeypatch.undo()
    # K has the bits of construct_k's own diagonalization
    for (n, seed), k_stat in rep.k_by_run.items():
        pair = sample_pair(EnsembleSpec(n=n, ensemble="complex-gaussian", seed=seed))
        lin = build_linearization(pair)
        spectrum = AnticommutatorSpectrum.from_hermitian(lin.anticommutator)
        assert k_stat == construct_k(lin, spectrum, spacing=4.0)
    medians, stars = mrrr_scaling_oracle(n_list, seeds, rep.k_by_run)
    for n in n_list:
        assert rep.median_means[n] == pytest.approx(np.mean(medians[n]), rel=1e-10, abs=0.0)
    for key, star in stars.items():
        assert rep.theta_star_by_run[key] == pytest.approx(star, rel=1e-10, abs=0.0)
