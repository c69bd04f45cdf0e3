"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
The randomized criteria use fixed seeds, so the suite is deterministic.
"""

import math

import numpy as np
from scipy.integrate import quad

from aclaw.freelaw import (
    algebraic_identities,
    critical_points,
    density_ac,
    edge_distance,
    in_stieltjes_region,
    law_constants,
    m_ac,
)
from aclaw.grids import rect_grid
from aclaw.linearize import (
    build_linearization,
    generalized_resolvent,
    lambda_kron,
)
from aclaw.locallaw import (
    delocalization_check,
    scaling_law_study,
    semicircle_locallaw,
    sigma_solve,
)
from aclaw.sdcore import (
    deformation_solve,
    gauge_implication_check,
    kappa_blocks,
    sd_residual,
    sd_solution_ac,
    stability_check,
)
from aclaw.tails import quad_tail_check, theta_root, whittle_check
from aclaw.wigner import EnsembleSpec, sample_pair

from oracles import bordered_resolvent, kappa_by_inversion, minor_stats

C = law_constants()


def report(num, name, ok, detail=""):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d} {name} failed: {detail}"


def test_criterion_01_constants():
    # the four branch points of the cubic, where it and its m-derivative
    # 3 z m^2 - 2 m - z vanish together; the first is the support edge -zeta
    pts = critical_points()
    branch = max(max(abs(z * m**3 - m**2 - z * m - 1), abs(3 * z * m**2 - 2 * m - z))
                 for z, m in pts)
    ids = algebraic_identities()
    ok = (abs(C.zeta - 3.330190676) <= 1e-9
          and abs(C.omega - 0.4858682712) <= 1e-9
          and abs(C.omega**4 + 4 * C.omega**2 - 1) <= 1e-10
          and abs(C.zeta**4 - 11 * C.zeta**2 - 1) <= 1e-10
          and len(pts) == 4 and pts[0] == (complex(-C.zeta), complex(C.omega))
          and branch <= 1e-8
          and ids["zeta_from_omega"] <= 1e-10
          and ids["zeta_reciprocal"] <= 1e-12
          and ids["quartic_at_image"] <= 1e-10
          and ids["square_factorization"] <= 1e-10
          and ids["edge_identity"] <= 1e-8)
    report(1, "constants", ok,
           f"zeta={C.zeta:.12f} omega={C.omega:.12f} branch={branch:.2e} "
           f"identities={max(ids.values()):.2e}")


def test_criterion_02_law_grid():
    grid = rect_grid(-8, 8, 50, 1e-2, 8, 50)
    worst = 0.0
    ok = True
    for z in grid:
        p = m_ac(z)
        m = p.m
        resid = abs(z * m**3 - m**2 - z * m - 1)
        worst = max(worst, resid)
        ok &= resid <= 1e-10
        ok &= m.imag > 0
        ok &= abs(m) <= min(1.0, 4.0 / z.imag) + 1e-12
        ok &= in_stieltjes_region(m) and abs(m.real) < C.omega
    report(2, "law on 50x50 grid", bool(ok), f"max residual {worst:.2e}")


def test_criterion_03_density():
    mass, _ = quad(density_ac, -C.zeta, C.zeta, limit=200)
    even_err = max(abs(density_ac(t) - density_ac(-t))
                   for t in np.linspace(0.05, C.zeta - 1e-3, 40))
    ok = abs(mass - 1.0) <= 1e-3 and even_err <= 1e-6
    report(3, "density normalization", ok,
           f"mass={mass:.6f} even_err={even_err:.2e}")


def test_criterion_04_schwinger_dyson():
    grid = rect_grid(-8, 8, 50, 1e-2, 8, 50)
    worst_sd = worst_block = worst_det = 0.0
    for z in grid:
        quad_ = sd_solution_ac(z)
        worst_sd = max(worst_sd, sd_residual(quad_))
        kb = kappa_blocks(quad_.m)
        oracle = kappa_by_inversion(quad_.m)
        rel = np.linalg.norm(quad_.kappa - oracle) / np.linalg.norm(oracle)
        worst_block = max(worst_block, rel)
        for det, formula in zip(kb.dets, kb.det_formulas):
            worst_det = max(worst_det, abs(det - formula) / abs(formula))
    ok = worst_sd <= 1e-10 and worst_block <= 1e-8 and worst_det <= 1e-10
    report(4, "schwinger-dyson grid", ok,
           f"sd={worst_sd:.2e} block={worst_block:.2e} det={worst_det:.2e}")


def test_criterion_05_stability_machinery():
    rng = np.random.Generator(np.random.Philox(key=505))
    # deformation against the independent cubic solve
    worst_match = worst_contraction = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.3, 4.0))
        base = sd_solution_ac(z)
        dz = 1e-4 * np.exp(1j * rng.uniform(0, 2 * math.pi))
        lam_new = np.diag([z + dz, -1.0 + 0j, 1.0 + 0j])
        sol = deformation_solve(base, lam_new)
        target = sd_solution_ac(z + dz).m_mat
        worst_match = max(worst_match, float(np.linalg.norm(sol.m_new - target, 2)))
        worst_contraction = max(worst_contraction, sol.max_contraction)
    # stability and self-consistency implications, randomized
    stab_failures = gauge_failures = 0
    for _ in range(1000):
        z = complex(rng.uniform(-6.0, 6.0), rng.uniform(0.05, 6.0))
        base = sd_solution_ac(z)
        pert = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pert /= np.linalg.norm(pert, 2)
        g0 = base.m_mat + rng.uniform(0, 1) * base.stability_radius * pert
        if not stability_check(base, g0).holds:
            stab_failures += 1
        gs, ghats = [], []
        for _ in range(4):
            p1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            p1 /= np.linalg.norm(p1, 2)
            p2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            p2 /= np.linalg.norm(p2, 2)
            scale = rng.uniform(0, 1) * base.stability_radius
            gs.append(base.m_mat + scale * p1)
            ghats.append(base.m_mat + scale * p2)
        if not gauge_implication_check(np.array(gs), np.array(ghats), base).holds:
            gauge_failures += 1
    ok = (worst_match <= 1e-6 and worst_contraction <= 0.75 + 1e-6
          and stab_failures == 0 and gauge_failures == 0)
    report(5, "stability machinery", ok,
           f"match={worst_match:.2e} contraction={worst_contraction:.2e} "
           f"failures={stab_failures}+{gauge_failures}")


def test_criterion_06_linearization_identities():
    worst = {"fact": 0.0, "rid": 0.0, "deriv": 0.0, "imxw": 0.0,
             "key": 0.0, "schur": 0.0}
    for n in (8, 16, 64):
        for seed in range(20):
            pair = sample_pair(EnsembleSpec(n=n, ensemble="complex-gaussian",
                                            seed=1000 + seed))
            lin = build_linearization(pair)
            z = complex(0.6 + 0.05 * seed, 0.4 + 0.02 * seed)
            full = lin.x - lambda_kron(z, n)
            fact = lin.w.conj().T @ full @ lin.w
            target = np.zeros_like(fact)
            target[:n, :n] = lin.anticommutator - z * np.eye(n)
            target[n:2 * n, n:2 * n] = np.eye(n)
            target[2 * n:, 2 * n:] = -np.eye(n)
            scale = max(np.linalg.norm(lin.x), 1.0)
            worst["fact"] = max(worst["fact"],
                                np.linalg.norm(fact - target) / scale)
            r = generalized_resolvent(lin, z)
            small = bordered_resolvent(lin, z)
            w = lin.w
            lam0 = lambda_kron(0.0, n)
            rid = np.linalg.norm(r + lam0 - w @ small @ w.conj().T)
            worst["rid"] = max(worst["rid"], rid / np.linalg.norm(r))
            e11 = np.zeros_like(r)
            e11[np.arange(n), np.arange(n)] = 1.0
            deriv = np.linalg.norm(r @ e11 @ r - w @ (small @ small) @ w.conj().T)
            worst["deriv"] = max(worst["deriv"],
                                 deriv / np.linalg.norm(w @ small @ small @ w.conj().T))
            imr = (r - r.conj().T) / (2j * z.imag)
            rr = w @ (small @ small.conj().T) @ w.conj().T
            worst["imxw"] = max(worst["imxw"],
                                np.linalg.norm(imr - rr) / np.linalg.norm(rr))
            stats, key_res = minor_stats(lin, z)
            worst["key"] = max(worst["key"], key_res)
            for i in (0, n // 2):
                rows = [i, n + i, 2 * n + i]
                keep = np.delete(np.arange(3 * n), rows)
                r_minor = np.linalg.inv(full[np.ix_(keep, keep)])
                padded = np.zeros_like(r)
                padded[np.ix_(keep, keep)] = r_minor
                corr = r[:, rows] @ np.linalg.inv(stats.g_i[i]) @ r[rows, :]
                rel = np.linalg.norm(r - (padded + corr)) / np.linalg.norm(r)
                worst["schur"] = max(worst["schur"], rel)
    ok = (worst["fact"] <= 1e-12 and worst["rid"] <= 1e-10
          and worst["deriv"] <= 1e-10 and worst["imxw"] <= 1e-10
          and worst["key"] <= 1e-8 and worst["schur"] <= 1e-8)
    report(6, "linearization identities", ok,
           " ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_07_spectral_support():
    lo, hi = 0.0, 0.0
    ok = True
    for seed in range(20):
        pair = sample_pair(EnsembleSpec(n=256, ensemble="complex-gaussian",
                                        seed=7000 + seed))
        evals = np.linalg.eigvalsh(pair.u @ pair.v + pair.v @ pair.u)
        lo = min(lo, evals.min())
        hi = max(hi, evals.max())
        ok &= evals.min() >= -C.zeta - 0.3 and evals.max() <= C.zeta + 0.3
    report(7, "spectral support", bool(ok),
           f"range [{lo:.4f}, {hi:.4f}] vs +-{C.zeta + 0.3:.4f}")


def test_criterion_08_local_law_scaling():
    rep = scaling_law_study(n_list=(64, 128, 256), seeds=range(10), k_spacing=4.0)
    stars = list(rep.theta_star_by_run.values())
    ok = (abs(rep.slope) <= 0.15
          and all(math.isfinite(s) for s in stars))
    report(8, "local-law scaling", ok,
           f"slope={rep.slope:+.4f} medians={rep.median_means} "
           f"theta_star range [{min(stars):.3f}, {max(stars):.3f}]")


def test_criterion_09_delocalization():
    worst_sigma_resid = 0.0
    bulk_total = bulk_held = 0
    ok = True
    for seed in range(10):
        pair = sample_pair(EnsembleSpec(n=128, ensemble="complex-gaussian",
                                        seed=9000 + seed))
        rep = delocalization_check(pair, c_config=1.0)
        ok &= rep.rho < 1
        for row in rep.rows:
            resid = abs(edge_distance(complex(row.lam, row.sigma)) ** 2
                        * row.sigma - rep.rho)
            worst_sigma_resid = max(worst_sigma_resid, resid)
            if edge_distance(complex(row.lam, row.sigma)) == 1.0:
                bulk_total += 1
                bulk_held += row.holds
    ok &= bulk_total > 0 and bulk_held == bulk_total
    ok &= worst_sigma_resid <= 1e-10
    # Figure 1 endpoint exactness
    for rho in (0.2, 0.02, 0.002, 0.0002):
        ok &= abs(sigma_solve(0.0, rho) - rho) <= 1e-9
        ok &= abs(sigma_solve(C.zeta, rho) - rho ** (1 / 3)) <= 1e-9
        ok &= abs(sigma_solve(-C.zeta, rho) - rho ** (1 / 3)) <= 1e-9
    report(9, "delocalization", bool(ok),
           f"bulk {bulk_held}/{bulk_total} sigma_resid={worst_sigma_resid:.2e}")


def test_criterion_10_semicircle_appendix():
    x = sample_pair(EnsembleSpec(n=256, ensemble="complex-gaussian", seed=10)).u
    rep = semicircle_locallaw(x, tau=20.0, theta_user=1.0, spacing=2.0)
    # the empirical star constant defines its own admissible set (theta
    # enters the gate); the bound with theta* must hold on 100% of it
    star = rep.theta_star_self
    adm = rep.admissible_rows_at(star)
    star_ok = bool(adm) and all(
        row.lhs * math.sqrt(256 * row.h * row.z.imag)
        <= star * rep.k_stat * (1 + 1e-12)
        for row in adm)
    ok = (rep.max_identity_residual <= 1e-8
          and rep.max_row_sum_residual <= 1e-10
          and rep.x_empty_literal
          and math.isfinite(star) and star_ok)
    report(10, "semicircle appendix", ok,
           f"identity={rep.max_identity_residual:.2e} "
           f"row_sum={rep.max_row_sum_residual:.2e} "
           f"x_empty_literal={rep.x_empty_literal} theta_star={star:.4f} "
           f"admissible_at_star={len(adm)}/{len(rep.rows)}")


def test_criterion_11_tails_toolbox():
    theta_ok = all(theta_root(s) <= math.sqrt(s)
                   for s in np.linspace(2.0, 64.0, 400))
    configs = []
    for mode in ("linear", "quadratic"):
        for dist in ("rademacher", "gaussian", "uniform"):
            for p in (2.0, 4.0, 8.0):
                configs.append((mode, dist, p, 32))
    configs.append(("linear", "gaussian", 4.0, 128))
    configs.append(("quadratic", "rademacher", 4.0, 64))
    assert len(configs) == 20
    whittle_fails = []
    for k, (mode, dist, p, n) in enumerate(configs):
        rep = whittle_check(dist, n=n, p=p, trials=20000, mode=mode, seed=110 + k)
        if not rep.holds:
            whittle_fails.append((mode, dist, p, n))
    qrep = quad_tail_check(seed=11)
    ok = theta_ok and not whittle_fails and qrep.center_abs <= qrep.center_tol
    report(11, "tails toolbox", ok,
           f"whittle_fails={whittle_fails} quad_center={qrep.center_abs:.4f}"
           f"/{qrep.center_tol:.4f} quad_slope={qrep.slope:+.3f}")


def test_criterion_12_determinism(tmp_path):
    from aclaw.cli import main

    outputs = []
    for tag in ("a", "b"):
        files = {
            "law": tmp_path / f"law_{tag}.csv",
            "verify": tmp_path / f"verify_{tag}.json",
            "deloc": tmp_path / f"deloc_{tag}.json",
            "sample": tmp_path / f"pair_{tag}.csv",
        }
        assert main(["law", "--n-re", "6", "--n-im", "6",
                     "--out", str(files["law"])]) == 0
        assert main(["verify", "--N", "16", "--seed", "5", "--spacing", "4.0",
                     "--n-re", "5", "--n-im", "4",
                     "--out", str(files["verify"])]) == 0
        main(["deloc", "--N", "64", "--seed", "5", "--c-config", "0.75",
              "--out", str(files["deloc"])])
        assert main(["sample", "--N", "8", "--seed", "5",
                     "--out", str(files["sample"])]) == 0
        outputs.append({k: p.read_text() for k, p in files.items()})
    ok = outputs[0] == outputs[1]
    report(12, "determinism", ok, "byte-identical reruns")
