"""Command-line front end.

Subcommands map one-to-one onto the library's verification operations; all
outputs are written atomically (temp file + rename) and floats are emitted
with 17 significant digits, so a rerun with the same seed at the same BLAS
thread count is byte-identical.
Exit codes: 0 success, 1 verification failure (some non-vacuous check has
holds = false), 2 usage error, typed precondition refusal (an AclawError
such as rho >= 1 or a degenerate cubic root), a run whose arrays do not
fit in memory (a MemoryError, such as a verify net of spacing 1e-4), a
constant too large for floating point (an OverflowError, such as
``figure2 --m-max 1e300``; the local-law constants whose square would
overflow are refused before any eigendecomposition) or an output that
cannot be written (an OSError), reported as one stderr line with no
traceback.  An output path (``--out``, ``--density-out``,
``--curves``, ``--tail-csv``) that is empty, names a directory or lies in
a directory that does not exist is refused before any work.

Set ACLAW_THREADS to pin the BLAS thread count: ``main`` copies it into
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS (those already set
are kept) before any command imports numpy.  It cannot act when the calling
process loaded numpy before ``main`` ran.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import AclawError

__all__ = ["main", "build_parser"]

_USAGE_ERROR = 2
_VERIFY_FAILURE = 1

#: ``linearize-check`` forms several dense 3N x 3N matrices (X, W, their
#: products and R); it refuses beyond this size
_LINEARIZE_CHECK_MAX_N = 256


def _fmt_float(x: float) -> str:
    if x != x:  # NaN has no JSON encoding
        return "null"
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats; complex values become
    {"re": ..., "im": ...} objects."""
    import json as _json

    import numpy as np

    pad = " " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  {_json.dumps(str(k))}: {dump_json(v, indent + 2).lstrip()}'
                 for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        items = [dump_json(v, indent + 2) for v in seq]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]" if seq else pad + "[]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return (pad + '{"re": ' + _fmt_float(c.real)
                + ', "im": ' + _fmt_float(c.imag) + "}")
    if obj is None:
        return pad + "null"
    return pad + _json.dumps(str(obj))


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory and rename into place, so
    failures never leave partial output: a failed write or rename removes
    the temp file and re-raises."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


def _check_output(option: str, path) -> None:
    """Refuse (an OSError) an output path that is empty, names a directory
    or lies in a directory that does not exist; None is an option not
    given."""
    if path is None:
        return
    if not path:
        raise FileNotFoundError(f"{option}: empty output path")
    if os.path.isdir(path):
        raise IsADirectoryError(f"{option}: {path} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{option}: no directory {directory}")


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(format(v, ".17g"))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    atomic_write(path, "\n".join(lines) + "\n")


def _base_config(args, keys):
    from . import __version__

    cfg = {"version": __version__}
    for k in keys:
        cfg[k] = getattr(args, k.replace("-", "_"))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    """The ``aclaw`` parser.  Each subcommand's namespace carries its
    ``handler`` and its parser's ``format_usage``."""
    parser = argparse.ArgumentParser(
        prog="aclaw",
        description="Verify the local spectral law of Wigner anticommutators")
    actions = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, **kw):
        p = actions.add_parser(name, **kw)
        p.set_defaults(handler=handler, format_usage=p.format_usage)
        return p

    def add_grid(p, n_re=50, n_im=50):
        p.add_argument("--re-min", type=float, default=-8.0)
        p.add_argument("--re-max", type=float, default=8.0)
        p.add_argument("--n-re", type=int, default=n_re)
        p.add_argument("--im-min", type=float, default=1e-2)
        p.add_argument("--im-max", type=float, default=8.0)
        p.add_argument("--n-im", type=int, default=n_im)

    def add_pair(p, n_default=64):
        p.add_argument("--N", dest="n", type=int, default=n_default)
        p.add_argument("--ensemble", default="complex-gaussian")
        p.add_argument("--seed", type=int, default=0)

    p = add_command("law", _cmd_law, help="limiting Stieltjes transform on a grid")
    add_grid(p)
    p.add_argument("--density-out", default=None,
                   help="also write (t, density) pairs to this CSV")
    p.add_argument("--density-points", type=int, default=401)
    p.add_argument("--out", required=True)

    p = add_command("figure2", _cmd_figure2, help="quadrant table of the inverse map")
    p.add_argument("--m-max", type=float, default=2.2)
    p.add_argument("--resolution", type=int, default=221)
    p.add_argument("--exclusion-radius", type=float, default=1e-3)
    p.add_argument("--curves", default=None,
                   help="also write the boundary curves to this CSV")
    p.add_argument("--out", required=True)

    p = add_command("sd", _cmd_sd, help="Schwinger-Dyson residuals and stability")
    add_grid(p, n_re=15, n_im=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta-frac", type=float, default=0.5,
                   help="perturbation size as a fraction of the radius")
    p.add_argument("--out", required=True)

    p = add_command("linearize-check", _cmd_linearize_check,
                    help="linearization identity residuals")
    add_pair(p, n_default=16)
    p.add_argument("--z", type=complex, default=0.5 + 0.5j)
    p.add_argument("--out", required=True)

    p = add_command("verify", _cmd_verify, help="local-law verification report")
    add_pair(p, n_default=64)
    p.add_argument("--tau", type=float, default=8.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--c-config", type=float, default=1.0)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--n-re", type=int, default=13)
    p.add_argument("--n-im", type=int, default=10)
    p.add_argument("--out", required=True)

    p = add_command("semicircle", _cmd_semicircle, help="scalar local law for one matrix")
    add_pair(p, n_default=128)
    p.add_argument("--tau", type=float, default=20.0)
    p.add_argument("--theta-user", type=float, default=1.0)
    p.add_argument("--spacing", type=float, default=2.0)
    p.add_argument("--out", required=True)

    p = add_command("deloc", _cmd_deloc, help="eigenvector delocalization report")
    add_pair(p, n_default=128)
    p.add_argument("--c-config", type=float, default=1.0)
    p.add_argument("--k-stat", type=float, default=None,
                   help="override the empirical law constant")
    p.add_argument("--out", required=True)

    p = add_command("figure1", _cmd_figure1, help="closest-approach curves sigma(lambda)")
    p.add_argument("--rho", default="0.2,0.02,0.002,0.0002")
    p.add_argument("--lam-step", type=float, default=1e-2)
    p.add_argument("--out", required=True)

    p = add_command("tails", _cmd_tails, help="moment/tail toolbox verification")
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail-csv", default=None,
                   help="also write (t, survival, fitted bound) to this CSV")
    p.add_argument("--out", required=True)

    p = add_command("sample", _cmd_sample, help="draw and dump a Wigner pair")
    add_pair(p)
    p.add_argument("--out", required=True)
    return parser


def _pair(args):
    from .wigner import EnsembleSpec, sample_pair

    return sample_pair(EnsembleSpec(n=args.n, ensemble=args.ensemble,
                                    seed=args.seed))


def _cmd_law(args) -> int:
    import numpy as np

    from .freelaw import density_ac, law_constants, law_csv_rows
    from .grids import rect_grid

    if args.density_out and args.density_points < 1:
        raise ValueError(f"density_points must be >= 1, got {args.density_points}")
    grid = rect_grid(args.re_min, args.re_max, args.n_re,
                     args.im_min, args.im_max, args.n_im)
    header, rows = law_csv_rows(grid)
    write_csv(args.out, header, rows)
    if args.density_out:
        zeta = law_constants().zeta
        ts = np.linspace(-zeta - 0.5, zeta + 0.5, args.density_points)
        write_csv(args.density_out, ["t", "density"],
                  [[float(t), density_ac(float(t))] for t in ts])
    return 0


def _cmd_figure2(args) -> int:
    import numpy as np

    from .freelaw import (boundary_curve_im, boundary_curve_re, law_constants,
                          quadrant_csv_rows, quadrant_map)

    table = quadrant_map(re_range=(-args.m_max, args.m_max),
                         im_range=(-args.m_max, args.m_max),
                         n_re=args.resolution, n_im=args.resolution,
                         exclusion_radius=args.exclusion_radius)
    header, rows = quadrant_csv_rows(table)
    write_csv(args.out, header, rows)
    if args.curves:
        c = law_constants()
        crows = []
        for t in np.linspace(-c.omega, c.omega, 801):
            m = boundary_curve_im(t)
            crows.append(["im_zero", m.real, m.imag])
            crows.append(["im_zero", -m.real, -m.imag])
        for t in np.linspace(-1 / c.omega, 1 / c.omega, 801):
            m = boundary_curve_re(t)
            crows.append(["re_zero", m.real, m.imag])
            crows.append(["re_zero", -m.real, -m.imag])
        write_csv(args.curves, ["curve", "re_m", "im_m"], crows)
    return 0


def _cmd_sd(args) -> int:
    # from 1 up (1 itself by rounding) G0 leaves the stability radius and no
    # implication is checked; 0 does not perturb M0 at all
    if not 0.0 < args.delta_frac < 1.0:
        raise ValueError(f"delta_frac must lie in (0, 1), got {args.delta_frac}")
    import numpy as np

    from .grids import rect_grid
    from .sdcore import sd_residual, sd_solution_ac, stability_check
    from .wigner import _rng

    rng = _rng(args.seed, 11)
    grid = rect_grid(args.re_min, args.re_max, args.n_re,
                     args.im_min, args.im_max, args.n_im)
    rows = []
    failures = 0
    for z in grid:
        quad = sd_solution_ac(complex(z))
        pert = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pert /= np.linalg.norm(pert, 2)
        g0 = quad.m_mat + args.delta_frac * quad.stability_radius * pert
        v = stability_check(quad, g0)
        ok = v.holds
        if v.hypothesis_met and not v.holds:
            failures += 1
        rows.append({"z": quad.z, "sd_residual": sd_residual(quad),
                     "radius": quad.stability_radius, "lhs": v.lhs,
                     "rhs": v.rhs, "hypothesis_met": v.hypothesis_met,
                     "holds": ok})
    out = {"config": _base_config(args, ["seed", "delta_frac"]),
           "rows": rows, "failures": failures}
    atomic_write(args.out, dump_json(out) + "\n")
    return _VERIFY_FAILURE if failures else 0


def _cmd_linearize_check(args) -> int:
    import cmath

    if args.n > _LINEARIZE_CHECK_MAX_N:
        raise ValueError(f"linearize-check limited to N <= {_LINEARIZE_CHECK_MAX_N}")
    if not cmath.isfinite(args.z):
        raise ValueError(f"z must be finite, got {args.z}")
    if args.z.imag <= 0:
        raise ValueError("z must lie in the upper half-plane")

    import numpy as np

    from .linearize import (build_linearization, generalized_resolvent,
                            identity_spot_check, lambda_kron, resolvent_stats)
    from .sdcore import phi_ac

    lin = build_linearization(_pair(args))
    n, z = args.n, complex(args.z)
    w = lin.w
    w_h = w.conj().T
    # W* (X - Lambda kron I) W = blockdiag({UV} - z, I, -I) is the block
    # elimination of X - Lambda kron I at split N: its upper-left block is
    # the Schur complement b^2 - a^2 - z, so blocks with b^2 - a^2 != {UV}
    # or a pair that is not Hermitian move it
    full = lin.x - lambda_kron(z, n)
    fact = w_h @ full @ w
    target = -lambda_kron(z, n)
    target[:n, :n] += lin.anticommutator
    scale = max(np.linalg.norm(lin.x), 1.0)
    # generalized_resolvent assembles R from g, a and b without W; this
    # holds it against the definitional product R + Lambda(0) kron I =
    # W blockdiag(g, 0, 0) W* = W[:, :N] g W[:, :N]* with g = R[:N, :N],
    # the only check of R's assembly at any N
    r = generalized_resolvent(lin, z)
    w_n = w[:, :n]
    rid = (np.linalg.norm(r + lambda_kron(0.0, n) - w_n @ r[:n, :n] @ w_n.conj().T)
           / np.linalg.norm(r))
    st = resolvent_stats(lin, z)
    _, key_res, _ = identity_spot_check(lin.x, np.array([z, -1.0, 1.0]),
                                        st.ghat_i, st.q_i, phi_ac, *lin.minor_norms)
    checks = {
        "factorization": float(np.linalg.norm(fact - target) / scale),
        "bordered_identity": float(rid),
        "key_identity": key_res,
    }
    tol = {"factorization": 1e-12, "bordered_identity": 1e-10,
           "key_identity": 1e-8}
    verdicts = {k: checks[k] <= tol[k] for k in checks}
    out = {"config": _base_config(args, ["n", "ensemble", "seed"]),
           "z": z, "residuals": checks, "tolerances": tol, "verdicts": verdicts}
    atomic_write(args.out, dump_json(out) + "\n")
    return 0 if all(verdicts.values()) else _VERIFY_FAILURE


def _locallaw_rows(rows):
    return [{"z": r.z, "h": r.h, "lhs": r.lhs, "rhs": r.rhs,
             "admissible": r.admissible, "holds": r.holds} for r in rows]


def _cmd_verify(args) -> int:
    from .locallaw import default_grid, verify_local_law

    grid = default_grid(args.n, args.tau, n_re=args.n_re, n_im=args.n_im)
    rep = verify_local_law(_pair(args), grid, tau=args.tau, theta=args.theta,
                           c_config=args.c_config, spacing=args.spacing)
    out = {
        "config": _base_config(args, ["n", "ensemble", "seed", "tau", "theta",
                                      "c_config", "spacing", "n_re", "n_im"]),
        "k_stat": rep.k_stat, "rho": rep.rho, "x_set_empty": rep.x_set_empty,
        "theta_star": rep.theta_star, "theta_star_self": rep.theta_star_self,
        "degenerate": rep.degenerate,
        "rows": _locallaw_rows(rep.rows),
    }
    atomic_write(args.out, dump_json(out) + "\n")
    bad = [r for r in rep.admissible_rows if not r.holds]
    return _VERIFY_FAILURE if bad else 0


def _cmd_semicircle(args) -> int:
    from .locallaw import semicircle_locallaw

    rep = semicircle_locallaw(_pair(args).u, tau=args.tau, theta_user=args.theta_user,
                              spacing=args.spacing)
    out = {
        "config": _base_config(args, ["n", "ensemble", "seed", "tau",
                                      "theta_user", "spacing"]),
        "k_stat": rep.k_stat, "rho_literal": rep.rho_literal,
        "x_empty_literal": rep.x_empty_literal, "rho_user": rep.rho_user,
        "theta_star": rep.theta_star, "theta_star_self": rep.theta_star_self,
        "max_identity_residual": rep.max_identity_residual,
        "max_row_sum_residual": rep.max_row_sum_residual,
        "rows": _locallaw_rows(rep.rows),
    }
    atomic_write(args.out, dump_json(out) + "\n")
    bad = [r for r in rep.admissible_rows if not r.holds]
    # the spot check's gates; written as "<=" so that NaN fails them
    residuals_ok = (rep.max_identity_residual <= 1e-8
                    and rep.max_row_sum_residual <= 1e-10)
    return _VERIFY_FAILURE if bad or not residuals_ok else 0


def _cmd_deloc(args) -> int:
    from .locallaw import delocalization_check

    rep = delocalization_check(_pair(args), args.c_config, k_stat=args.k_stat)
    out = {
        "config": _base_config(args, ["n", "ensemble", "seed", "c_config"]),
        "k_stat": rep.k_stat, "rho": rep.rho,
        "rows": [{"lam": r.lam, "sigma": r.sigma,
                  "max_component": r.max_component, "bound": r.bound,
                  "holds": r.holds} for r in rep.rows],
    }
    atomic_write(args.out, dump_json(out) + "\n")
    return 0 if rep.all_hold else _VERIFY_FAILURE


def _cmd_figure1(args) -> int:
    from .locallaw import figure1_data

    rhos = [float(tok) for tok in args.rho.split(",") if tok]
    rows = figure1_data(rhos, lam_step=args.lam_step)
    write_csv(args.out, ["rho", "lambda", "sigma"], rows)
    return 0


def _cmd_tails(args) -> int:
    import math

    import numpy as np

    from .tails import quad_tail_check, theta_root, whittle_check

    theta_ok = all(theta_root(s) <= math.sqrt(s)
                   for s in np.linspace(2.0, 64.0, 200))
    whittle_rows = []
    failures = 0 if theta_ok else 1
    for mode in ("linear", "quadratic"):
        for dist in ("rademacher", "gaussian", "uniform"):
            for p in (2.0, 4.0):
                rep = whittle_check(dist, n=32, p=p, trials=args.trials,
                                    mode=mode, seed=args.seed)
                whittle_rows.append({
                    "mode": mode, "dist": dist, "p": p,
                    "lhs": rep.lhs_estimate, "lhs_ucb99": rep.lhs_ucb99,
                    "rhs": rep.rhs_bound, "holds": rep.holds})
                failures += 0 if rep.holds else 1
    qrep = quad_tail_check(seed=args.seed)
    out = {
        "config": _base_config(args, ["trials", "seed"]),
        "theta_bound_holds": theta_ok,
        "whittle": whittle_rows,
        "quad_tail": {"slope": qrep.slope, "slope_stderr": qrep.slope_stderr,
                      "decays": qrep.decays, "center_abs": qrep.center_abs,
                      "center_tol": qrep.center_tol,
                      "survival": [[float(t), float(s)]
                                   for t, s in zip(qrep.ts, qrep.survival)]},
    }
    # the centering gates; ``decays`` is descriptive (its slope cannot be
    # positive)
    failures += 0 if qrep.center_abs <= qrep.center_tol else 1
    atomic_write(args.out, dump_json(out) + "\n")
    if args.tail_csv:
        header, rows = qrep.csv_rows()
        write_csv(args.tail_csv, header, rows)
    return _VERIFY_FAILURE if failures else 0


def _cmd_sample(args) -> int:
    from .wigner import format_pair

    atomic_write(args.out, format_pair(_pair(args)))
    return 0


def main(argv=None) -> int:
    threads = os.environ.get("ACLAW_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)
    args = build_parser().parse_args(argv)
    try:
        for dest in ("out", "density_out", "curves", "tail_csv"):
            _check_output("--" + dest.replace("_", "-"), getattr(args, dest, None))
        # every command that samples a pair takes --N; refused before any
        # work (the default grid divides by N)
        if getattr(args, "n", 2) < 2:
            raise ValueError(f"N must be >= 2, got {args.n}")
        return args.handler(args)
    except (AclawError, MemoryError, OverflowError, OSError) as exc:
        print(f"aclaw {args.command}: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (ValueError, KeyError) as exc:
        print(f"aclaw {args.command}: {exc}", file=sys.stderr)
        print(args.format_usage(), end="", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
