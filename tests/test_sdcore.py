"""Tests for the Schwinger-Dyson machinery over Mat3 and scalars."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aclaw.freelaw import edge_distance, law_constants, m_ac
from aclaw import sdcore
from aclaw.grids import rect_grid
from aclaw.sdcore import (
    DeformationPreconditionError,
    PHI_NORM_UPPER,
    PoleProximityError,
    deformation_solve,
    error_gauge,
    gauge_implication_check,
    kappa_blocks,
    op_norm_upper_spectral,
    phi_ac,
    sd_residual,
    sd_semicircle,
    sd_solution_ac,
    stability_check,
)

from oracles import (kappa_by_inversion, linmap_from_action, op_norm_estimate,
                     stability_constant_estimate)

RNG = np.random.Generator(np.random.Philox(key=20260809))


def rand3():
    return RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))


def apply(t, a):
    """The map on Mat3 whose 9x9 matrix over row-major coordinates is t, at a."""
    return (t @ a.reshape(9)).reshape(3, 3)


def phi_permutation_form(a):
    """Entry-shuffling form of the sandwich map, written out by hand."""
    return np.array([
        [a[1, 1] + a[2, 2], a[1, 0], a[2, 0]],
        [a[0, 1], a[0, 0], 0.0],
        [a[0, 2], 0.0, a[0, 0]],
    ], dtype=complex)


def test_phi_on_identity():
    np.testing.assert_allclose(phi_ac(np.eye(3)), np.diag([2.0, 1.0, 1.0]))


def test_phi_on_e12():
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    e21 = np.zeros((3, 3))
    e21[1, 0] = 1.0
    np.testing.assert_allclose(phi_ac(e12), e21)


def test_phi_matches_permutation_form():
    for _ in range(20):
        a = rand3()
        np.testing.assert_array_equal(phi_ac(a), phi_permutation_form(a))


_P12 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
_P13 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)


def phi_matmul_form(a):
    """The sandwich map's definition as two permutation matrix products."""
    return _P12 @ a @ _P12 + _P13 @ a @ _P13


@pytest.mark.parametrize("n", [16, 80])
def test_phi_stack_bit_identical_to_matmul_form(n):
    # entries over many magnitudes, so the (0, 0) sum rounds
    scale = 10.0 ** RNG.uniform(-8, 8, size=(n, 3, 3))
    stack = scale * (RNG.standard_normal((n, 3, 3))
                     + 1j * RNG.standard_normal((n, 3, 3)))
    out = phi_ac(stack)
    assert out.shape == (n, 3, 3)
    assert np.array_equal(out, np.stack([phi_matmul_form(a) for a in stack]))
    for a in stack[:4]:
        assert np.array_equal(phi_ac(a), phi_matmul_form(a))


def test_linmap_matrix_agrees_with_action():
    # stored 9x9 matrix must reproduce the defining action on random inputs
    m = 0.3 + 0.4j
    m_mat = np.diag([m, -1 / (m - 1), -1 / (m + 1)])
    m_inv = np.diag([1 / m, -(m - 1), -(m + 1)])

    def action(x):
        return m_inv @ x - phi_ac(x) @ m_mat

    t = linmap_from_action(action)
    for _ in range(20):
        a = rand3()
        rel = np.linalg.norm(apply(t, a) - action(a)) / np.linalg.norm(action(a))
        assert rel <= 1e-12


def test_sd_solution_residual_and_bounds():
    for z in (0.7 + 0.3j, 1j, -3.0 + 0.05j, 5.0 + 2.0j):
        quad = sd_solution_ac(z)
        assert sd_residual(quad) <= 1e-10
        assert np.linalg.norm(quad.lambda_mat, 2) <= 1 + abs(z) + 1e-12
        assert np.linalg.norm(quad.m_mat, 2) <= 2 + 1e-12
        lam0 = np.diag([0.0, -1.0, 1.0])
        assert np.linalg.norm(quad.m_mat + lam0, 2) <= min(2.0, 8.0 / z.imag) + 1e-12


def test_sd_solution_large_z_limit():
    quad = sd_solution_ac(10j)
    lam0 = np.diag([0.0, -1.0, 1.0])
    # M approaches diag(0, 1, -1) = -Lambda0 as z grows
    assert np.linalg.norm(quad.m_mat + lam0, 2) <= 3 * abs(quad.m)


def test_kappa_inverts_defining_map():
    quad = sd_solution_ac(0.7 + 0.3j)
    m = quad.m
    m_mat, m_inv = quad.m_mat, np.diag([1 / m, -(m - 1), -(m + 1)])
    for _ in range(20):
        a = rand3()
        back = apply(quad.kappa, m_inv @ a - phi_ac(a) @ m_mat)
        assert np.linalg.norm(back - a) / np.linalg.norm(a) <= 1e-8


def test_sd_residual_grid():
    for z in rect_grid(-8, 8, 25, 1e-2, 8, 25):
        assert sd_residual(sd_solution_ac(z)) <= 1e-10


def test_kappa_block_determinants_closed_form():
    m = 0.3j
    kb = kappa_blocks(m)
    expected0 = -(m**4 + 4 * m**2 - 1) / (m * (m - 1) * (m + 1))
    assert abs(kb.dets[0] - expected0) / abs(expected0) <= 1e-10
    expected3 = (m - 1) * (m + 1)
    assert abs(kb.dets[3] - expected3) / abs(expected3) <= 1e-10
    for det, formula in zip(kb.dets, kb.det_formulas):
        assert abs(det - formula) / abs(formula) <= 1e-10


def test_kappa_block_inverses_invert_blocks():
    # the explicit block inverses, assembled into kappa, against the inverse
    # of the map's 9x9 matrix at an m that is no value of m_ac
    m = 0.21 + 0.33j
    np.testing.assert_allclose(sdcore._kappa_inverse(m), kappa_by_inversion(m),
                               rtol=0, atol=1e-10)


def test_block_assembly_matches_generic_inverse():
    quad = sd_solution_ac(1.0 + 1.0j)
    oracle = kappa_by_inversion(quad.m)
    rel = np.linalg.norm(quad.kappa - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-8
    for _ in range(10):
        a = rand3()
        err = np.linalg.norm(apply(quad.kappa, a) - apply(oracle, a))
        assert err / np.linalg.norm(apply(oracle, a)) <= 1e-8


def test_kappa_at_closest_admitted_pole_approach():
    # the support edge -zeta maps to the kappa pole m = omega; 1e-8 above it
    # is as close as m_ac lets m come
    c = law_constants()
    z = complex(-c.zeta, 1e-8)
    m = m_ac(z).m
    assert abs(m - c.omega) <= 1e-4
    quad = sd_solution_ac(z)
    oracle = kappa_by_inversion(quad.m)
    rel = np.linalg.norm(quad.kappa - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-8


def test_kappa_at_huge_z_where_the_generic_inversion_refuses():
    # m ~ -1/z, so the 9x9 matrix's 1/m entry makes it ill-conditioned, while
    # kappa itself tends to a map of norm bound sqrt(3)
    quad = sd_solution_ac(1e13j)
    assert abs(quad.op_norm_kappa_upper - math.sqrt(3)) <= 1e-12
    with pytest.raises(np.linalg.LinAlgError):
        kappa_by_inversion(quad.m)


def test_kappa_blocks_pole_guard():
    with pytest.raises(PoleProximityError):
        kappa_blocks(0.5 + 1e-10j)
    with pytest.raises(PoleProximityError):
        kappa_blocks(1e-10j)


def test_op_norm_upper_examples():
    ident = np.eye(9)
    assert abs(op_norm_upper_spectral(ident) - math.sqrt(3)) <= 1e-12
    zero = np.zeros((9, 9))
    assert op_norm_upper_spectral(zero) == 0.0
    assert op_norm_estimate(zero, samples=10) == 0.0


def test_op_norm_estimate_identity_and_scalar():
    ident = np.eye(9)
    assert abs(op_norm_estimate(ident, samples=50) - 1.0) <= 1e-6
    c = -2.5
    scaled = c * np.eye(9)
    assert abs(op_norm_estimate(scaled, samples=50) - abs(c)) <= 1e-6


def test_phi_norm_bounds():
    phi = linmap_from_action(phi_ac)
    assert abs(PHI_NORM_UPPER - op_norm_upper_spectral(phi)) <= math.ulp(PHI_NORM_UPPER)
    est = op_norm_estimate(phi, samples=4000, seed=3)
    assert 1.0 <= est <= 8.0
    assert est <= PHI_NORM_UPPER + 1e-8
    # Phi(I) = diag(2,1,1) shows the true norm is at least 2
    assert est >= 2.0 - 1e-6


def test_certified_upper_dominates_estimate_for_kappa():
    quad = sd_solution_ac(0.4 + 0.8j)
    est = op_norm_estimate(quad.kappa, samples=2000, seed=5)
    assert est <= quad.op_norm_kappa_upper + 1e-8


def test_deformation_identity_perturbation():
    base = sd_solution_ac(1j)
    sol = deformation_solve(base, base.lambda_mat)
    np.testing.assert_array_equal(sol.m_new, base.m_mat)


def test_deformation_matches_shifted_solution():
    for z in (1j, 0.5 + 0.8j, -1.2 + 1.5j):
        base = sd_solution_ac(z)
        dz = 1e-4
        lam_new = np.diag([z + dz, -1.0 + 0j, 1.0 + 0j])
        sol = deformation_solve(base, lam_new)
        target = sd_solution_ac(z + dz).m_mat
        assert np.linalg.norm(sol.m_new - target, 2) <= 1e-6
        assert sol.max_contraction <= 0.75 + 1e-6


def test_deformation_precondition_violation():
    base = sd_solution_ac(1j)
    lam_far = base.lambda_mat + np.diag([0.5, 0.0, 0.0])
    with pytest.raises(DeformationPreconditionError):
        deformation_solve(base, lam_far)


def test_stability_exact_solution():
    base = sd_solution_ac(0.3 + 0.7j)
    v = stability_check(base, base.m_mat)
    assert v.hypothesis_met and v.holds
    assert v.lhs == 0.0 and v.rhs <= 1e-9


def test_stability_small_perturbation():
    base = sd_solution_ac(0.3 + 0.7j)
    pert = rand3()
    pert /= np.linalg.norm(pert, 2)
    v = stability_check(base, base.m_mat + 1e-3 * pert)
    assert v.hypothesis_met
    assert v.holds
    # direct evaluation of both sides
    g0 = base.m_mat + 1e-3 * pert
    e0 = np.eye(3) + (base.lambda_mat + phi_ac(g0)) @ g0
    assert abs(v.lhs - np.linalg.norm(g0 - base.m_mat, 2)) <= 1e-14
    k = max(1.0, base.op_norm_kappa_upper)
    p = PHI_NORM_UPPER
    mm = max(1.0, np.linalg.norm(base.m_mat, 2))
    assert abs(v.rhs - 20 * k * p * mm**2 * np.linalg.norm(e0, 2)) <= 1e-12


def test_stability_vacuous_case():
    base = sd_solution_ac(0.3 + 0.7j)
    v = stability_check(base, base.m_mat + 10.0 * np.eye(3))
    assert not v.hypothesis_met
    assert v.holds


def test_gauge_zero_for_exact_solution():
    base = sd_solution_ac(1.2 + 0.6j)
    lists = np.array([base.m_mat] * 5)
    assert error_gauge(lists, lists, base) <= 1e-12


def test_gauge_sqrt_scaling_in_perturbation():
    base = sd_solution_ac(1.2 + 0.6j)
    e = np.zeros((3, 3), complex)
    e[0, 0] = 1.0
    vals = {}
    for t in (1e-2, 1e-6):
        ghat = np.array([base.m_mat] * 5)
        ghat[2] = base.m_mat + t * e
        gauge = error_gauge(np.array([base.m_mat] * 5), ghat, base)
        # oracle: recompute the two defining ratios directly
        m_inv = np.linalg.inv(base.m_mat)
        r1 = (np.linalg.norm(m_inv + base.lambda_mat + phi_ac(ghat[2]), 2)
              / math.sqrt(max(1.0, np.linalg.norm(ghat[2], 2))))
        r2 = math.sqrt(np.linalg.norm(t * e, 2)
                       / (max(1.0, np.linalg.norm(base.m_mat, 2))
                          * np.linalg.norm(m_inv, 2)))
        assert abs(gauge - max(r1, r2)) <= 1e-12
        vals[t] = gauge
    # sqrt scaling: gauge ~ sqrt(t) for small t
    assert vals[1e-2] / vals[1e-6] == pytest.approx(math.sqrt(1e4), rel=0.2)


def test_gauge_implication_exact_and_perturbed():
    base = sd_solution_ac(1j)
    lists = np.array([base.m_mat] * 8)
    v = gauge_implication_check(lists, lists, base)
    assert v.hypothesis_met and v.holds and v.lhs <= 1e-12
    g = lists.copy()
    g[0] = base.m_mat + 1e-4 * np.eye(3)
    v2 = gauge_implication_check(g, lists, base)
    assert v2.holds


def test_semicircle_at_i():
    m = sd_semicircle(1j)
    assert type(m) is complex
    v = (math.sqrt(5) - 1) / 2
    assert abs(m - 1j * v) <= 1e-12
    # oracle: the Im > 0 root of m^2 + z m + 1
    assert abs(m**2 + 1j * m + 1) <= 1e-12


def test_semicircle_stieltjes_bound():
    for z in (1j, 0.5 + 0.2j, -1.9 + 0.05j, 3.0 + 1.0j):
        m = sd_semicircle(z)
        assert m.imag > 0
        assert abs(m) <= min(1.0, 1.0 / z.imag) + 1e-12


def semicircle_radius(m):
    """The scalar solution's stability radius 1/(8 max(1, |kappa|)) with
    kappa = (1/m - m)^-1 and Phi the identity."""
    return min(1.0, abs(1.0 / m - m)) / 8.0


def test_semicircle_edge_radius():
    z = 2.0 + 1e-3j
    radius = semicircle_radius(sd_semicircle(z))
    # direct formula: radius = (1 ^ sqrt|z^2-4|)/8
    direct = min(1.0, abs(np.sqrt(complex(z * z - 4)))) / 8.0
    assert radius == pytest.approx(direct, rel=1e-9)
    # near-edge scaling sqrt(|z-2| * |z+2|)/8 ~ sqrt(4e-3)/8
    assert radius == pytest.approx(math.sqrt(4e-3) / 8.0, rel=0.2)
    assert radius >= math.sqrt(min(1.0, abs(z - 2), abs(z + 2))) / 8 - 1e-15


#: z within 1e-3 of one of the semicircle's edges +-2
NEAR_EDGE = st.tuples(st.sampled_from((-2.0, 2.0)), st.floats(-1e-3, 1e-3),
                      st.floats(1e-12, 1e-3)).map(lambda t: (t[0] + t[1], t[2]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(st.floats(-50.0, 50.0), st.floats(1e-9, 50.0)), NEAR_EDGE))
@example((2.0, 1e-12))
@example((-2.0, 1e-12))
@example((0.0, 1e-9))
def test_semicircle_radius_dominates_edge_floor(point):
    # radius = min(1, sqrt(|z-2| |z+2|))/8 >= sqrt(1 ^ |z-2| ^ |z+2|)/8,
    # since |z-2| + |z+2| >= 4
    z = complex(*point)
    radius = semicircle_radius(sd_semicircle(z))
    assert radius >= math.sqrt(min(1.0, abs(z - 2), abs(z + 2))) / 8 - 1e-12


def test_stability_radius_edge_scaling():
    # estimate c on a grid reaching below the test grid in Im z (the ratio
    # sqrt(h)/radius increases toward the real axis), then check the radius
    # lower bound sqrt(h)/c on a different, coarser grid
    c_est = stability_constant_estimate(rect_grid(-8, 8, 33, 5e-3, 8, 30))
    assert math.isfinite(c_est) and c_est >= 1.0
    for z in rect_grid(-7.7, 7.7, 41, 1e-2, 7.5, 17):
        radius = sd_solution_ac(z).stability_radius
        assert radius >= math.sqrt(edge_distance(z)) / (1.1 * c_est)


def test_corollary_specialization():
    # with G = M + delta*unit, delta <= sqrt(h)/c, conclusion <= 10 c |E|/sqrt(h)
    zs = list(rect_grid(-6, 6, 7, 0.05, 6, 5))
    c_est = stability_constant_estimate(zs)
    for k, z in enumerate(zs):
        quad = sd_solution_ac(z)
        h = edge_distance(z)
        delta = math.sqrt(h) / c_est
        pert = rand3()
        pert /= np.linalg.norm(pert, 2)
        g = quad.m_mat + delta * pert
        e = np.eye(3) + (quad.lambda_mat + phi_ac(g)) @ g
        lhs = np.linalg.norm(g - quad.m_mat, 2)
        assert lhs <= 10 * c_est * np.linalg.norm(e, 2) / math.sqrt(h) + 1e-12
