"""Tests for the limiting anticommutator law."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from aclaw import freelaw
from aclaw.freelaw import (
    DegenerateRootError,
    algebraic_identities,
    boundary_curve_im,
    critical_points,
    density_ac,
    in_stieltjes_region,
    law_constants,
    m_ac,
    quadrant_map,
)
from aclaw.grids import rect_grid
from aclaw.sdcore import sd_residual, sd_solution_ac

C = law_constants()


def cardano_roots(a, b, c, d):
    """All three roots of a*m^3 + b*m^2 + c*m + d by the closed-form route
    (independent oracle for the companion-matrix solver)."""
    b, c, d = b / a, c / a, d / a
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    u3 = -q / 2.0 + cmath.sqrt(disc)
    if abs(u3) < 1e-30:
        u3 = -q / 2.0 - cmath.sqrt(disc)
    u = u3 ** (1.0 / 3.0)
    omega3 = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        uk = u * omega3**k
        roots.append(uk - p / (3.0 * uk) - b / 3.0)
    return roots


def test_constants_match_quartics():
    assert abs(C.omega**4 + 4 * C.omega**2 - 1) <= 1e-12
    assert abs(C.zeta**4 - 11 * C.zeta**2 - 1) <= 1e-10
    assert abs(C.zeta * (C.omega**3 + C.omega) / 2 - 1) <= 1e-12
    assert C.omega > 0 and C.zeta > 0


def test_constants_printed_digits():
    # reference decimals are truncated prints; allow one ulp at the 9th place
    assert abs(C.zeta - 3.330190676) <= 1e-9
    assert abs(C.omega - 0.4858682712) <= 1e-9
    assert abs(C.rho_aux - 1.272019648) <= 2e-9
    # rho_aux^2 is the golden ratio
    assert abs(C.rho_aux**2 - (1 + math.sqrt(5)) / 2) <= 1e-12


def test_m_on_imaginary_axis_is_purely_imaginary():
    # z = iy maps to m = iv with y v^3 + v^2 + y v - 1 = 0, v in (0, 1)
    for y in (0.3, 1.0, 4.0):
        m = m_ac(1j * y).m
        assert abs(m.real) <= 1e-12
        v = m.imag
        assert 0 < v < 1
        assert abs(y * v**3 + v**2 + y * v - 1) <= 1e-12


def test_large_z_resolvent_asymptotics():
    m = m_ac(10j).m
    assert abs(m + 1.0 / 10j) <= 0.05


def test_against_cardano_oracle():
    for z in (0.5 + 0.5j, -1.7 + 0.2j, 3.3 + 0.01j, 2j, -0.1 + 5j):
        roots = cardano_roots(z, -1.0, -z, -1.0)
        upper = [r for r in roots if r.imag > 1e-14]
        assert len(upper) == 1
        assert abs(m_ac(z).m - upper[0]) <= 1e-9


def test_refuses_near_real_axis_and_lower_half_plane():
    with pytest.raises(ValueError):
        m_ac(1.0 - 1j)
    with pytest.raises(DegenerateRootError):
        m_ac(1.0 + 1e-9j)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=1e-2, max_value=8.0),
)
def test_law_point_invariants(re, im):
    assert_law_point_invariants(complex(re, im))


def assert_law_point_invariants(z):
    p = m_ac(z)
    assert p.m.imag > 0
    assert abs(p.m) <= min(1.0, 4.0 / z.imag) + 1e-12
    assert in_stieltjes_region(p.m)
    assert 0 < p.h <= 1
    assert abs(p.h - min(abs(z - C.zeta), abs(z + C.zeta), 1.0)) == 0
    # half-plane reflection symmetry
    q = m_ac(complex(-z.real, z.imag))
    assert abs(q.m - (-p.m.conjugate())) <= 1e-10


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([C.zeta, -C.zeta, 1j / C.zeta]),
       st.floats(min_value=-1e-2, max_value=1e-2),
       st.floats(min_value=1e-8, max_value=1e-2),
       st.booleans())
def test_law_point_invariants_at_branch_points(point, dre, dim, below):
    # within 1e-2 of the branch points +-zeta (at 1e-8 <= Im z <= 1e-2) and
    # i/zeta (on either side) of the cubic
    if below and point.imag > 0:
        dim = -dim
    z = point + complex(dre, dim)
    assert_law_point_invariants(z)
    assert sd_residual(sd_solution_ac(z)) <= 1e-10


def test_density_outside_support_is_zero():
    assert density_ac(C.zeta + 0.5) == 0.0
    assert density_ac(-(C.zeta + 0.5)) == 0.0


def test_density_at_zero_matches_direct_limit():
    # at t = 0 the cubic at z = 0 reduces to m^2 = -1, so the density is 1/pi
    rho0 = density_ac(0.0)
    assert abs(rho0 - 1.0 / math.pi) <= 1e-4


def test_density_matches_real_axis_cubic_root():
    # oracle: solve the cubic at real z = t and take the Im > 0 root
    for t in (0.5, 1.5, 2.5, 3.0, -2.0):
        roots = np.roots([t, -1.0, -t, -1.0])
        upper = roots[roots.imag > 1e-12]
        assert upper.size == 1
        assert abs(density_ac(t) - upper[0].imag / math.pi) <= 1e-4


def test_density_normalizes_to_one():
    val, _ = quad(density_ac, -C.zeta, C.zeta, limit=200)
    assert abs(val - 1.0) <= 1e-3


def test_density_even():
    for t in (0.2, 1.1, 2.7, 3.2):
        assert abs(density_ac(t) - density_ac(-t)) <= 1e-6


def test_critical_points_kill_cubic_and_derivative():
    pts = critical_points()
    assert pts[0] == (complex(-C.zeta), complex(C.omega))
    assert len(pts) == 4
    for z, m in pts:
        assert abs(z * m**3 - m**2 - z * m - 1) <= 1e-8
        # derivative computed by hand: 3 z m^2 - 2 m - z
        assert abs(3 * z * m**2 - 2 * m - z) <= 1e-8


def test_region_membership_basics():
    assert in_stieltjes_region(0)
    assert in_stieltjes_region(complex(C.omega, 0.0))
    assert not in_stieltjes_region(complex(C.omega + 0.01, 0.0))
    assert not in_stieltjes_region(0.1 - 0.01j)


def test_region_sweep():
    grid = rect_grid(-8, 8, 100, 1e-2, 8, 100)
    for z in grid:
        assert in_stieltjes_region(m_ac(z).m)


def test_quadrant_map_interior_point():
    table = quadrant_map(re_range=(0.2, 0.2), im_range=(0.2, 0.2), n_re=1, n_im=1)
    (m, code), = table
    w = (m * m + 1) / (m**3 - m)
    assert w.imag > 0
    assert code in (1, 2)


def test_quadrant_antipodal_symmetry():
    table = dict(quadrant_map(re_range=(-1.8, 1.8), im_range=(-1.8, 1.8),
                              n_re=25, n_im=25))
    for m, code in table.items():
        if code <= 0:
            continue
        mirror = table.get(-m)
        if mirror is not None and mirror > 0:
            # 180-degree rotation: quadrant k <-> k+2 (mod 4)
            assert (mirror - code) % 4 == 2


def test_boundary_curve_annihilates_imag_part():
    for t in np.linspace(-C.omega + 1e-6, C.omega - 1e-6, 41):
        m = boundary_curve_im(t)
        w = (m * m + 1) / (m**3 - m)
        assert abs(w.imag) <= 1e-8


def test_boundary_curve_annihilates_real_part():
    # the curve passes through the pole m = 1 at t = 0; keep clear of it
    for t in np.linspace(-1 / C.omega + 1e-6, 1 / C.omega - 1e-6, 40):
        m = freelaw.boundary_curve_re(t)
        if abs(m - 1.0) < 1e-3:
            continue
        w = (m * m + 1) / (m**3 - m)
        assert abs(w.real) <= 1e-8


def test_pole_marking():
    table = quadrant_map(re_range=(1.0, 1.0), im_range=(0.0, 0.0), n_re=1, n_im=1)
    assert table[0][1] == -1


def test_algebraic_identities_residuals():
    res = algebraic_identities()
    assert res["zeta_from_omega"] <= 1e-10
    assert res["zeta_reciprocal"] <= 1e-12
    assert res["quartic_at_image"] <= 1e-10
    assert res["square_factorization"] <= 1e-10
    assert res["edge_identity"] <= 1e-8


def test_square_factorization_at_two():
    # direct polynomial evaluation at t = 2, both signs
    w, rho = C.omega, C.rho_aux
    half = (w**3 + w) / 2
    for s in (+1, -1):
        lhs = (2**3 - 2) + s * half * (2**2 + 1)
        rhs = (2 + s * rho) * (2 - s * w) ** 2
        assert abs(lhs - rhs) <= 1e-10
