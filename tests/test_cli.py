"""Tests for the command-line front end."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import aclaw
from aclaw.cli import atomic_write, dump_json, main


def run_cli(args):
    return main(args)


def read(path):
    with open(path) as f:
        return f.read()


def test_dump_json_roundtrips():
    obj = {"a": 1, "b": 0.1, "c": [1.5, 2], "z": 0.5 + 0.25j,
           "flag": True, "none": None, "nan": float("nan")}
    text = dump_json(obj)
    parsed = json.loads(text)
    assert parsed["a"] == 1
    assert parsed["b"] == 0.1
    assert parsed["z"] == {"re": 0.5, "im": 0.25}
    assert parsed["flag"] is True
    assert parsed["nan"] is None
    assert parsed["none"] is None


def test_dump_json_seventeen_digits():
    text = dump_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_atomic_write_no_partial(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(str(path), "hello\n")
    assert read(path) == "hello\n"
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.txt"]
    assert leftovers == []


def test_law_csv(tmp_path):
    out = tmp_path / "law.csv"
    code = run_cli(["law", "--n-re", "5", "--n-im", "4", "--out", str(out)])
    assert code == 0
    lines = read(out).strip().split("\n")
    assert lines[0] == "re_z,im_z,re_m,im_m,h"
    assert len(lines) == 1 + 5 * 4
    for line in lines[1:]:
        re_z, im_z, re_m, im_m, h = map(float, line.split(","))
        assert im_m > 0 and 0 < h <= 1


def test_law_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(["law", "--n-re", "4", "--n-im", "4", "--out", str(out)]) == 0
    assert read(a) == read(b)


def test_figure1_matches_parameter_list(tmp_path):
    out = tmp_path / "fig1.csv"
    code = run_cli(["figure1", "--rho", "0.2,0.02,0.002,0.0002",
                    "--lam-step", "0.5", "--out", str(out)])
    assert code == 0
    lines = read(out).strip().split("\n")
    assert lines[0] == "rho,lambda,sigma"
    rhos = {float(line.split(",")[0]) for line in lines[1:]}
    assert rhos == {0.2, 0.02, 0.002, 0.0002}


def test_figure2_with_curves(tmp_path):
    out = tmp_path / "fig2.csv"
    curves = tmp_path / "curves.csv"
    code = run_cli(["figure2", "--resolution", "21", "--out", str(out),
                    "--curves", str(curves)])
    assert code == 0
    assert read(out).startswith("re_m,im_m,quadrant")
    assert read(curves).startswith("curve,re_m,im_m")


def test_sample_and_reload(tmp_path):
    out = tmp_path / "pair.csv"
    code = run_cli(["sample", "--N", "6", "--seed", "3", "--out", str(out)])
    assert code == 0
    from aclaw.wigner import EnsembleSpec, sample_pair
    from oracles import load_pair
    pair = load_pair(out)
    direct = sample_pair(EnsembleSpec(n=6, ensemble="complex-gaussian", seed=3))
    np.testing.assert_array_equal(pair.u, direct.u)


def test_sd_report(tmp_path):
    out = tmp_path / "sd.json"
    code = run_cli(["sd", "--n-re", "4", "--n-im", "4", "--out", str(out)])
    assert code == 0
    rep = json.loads(read(out))
    assert rep["failures"] == 0
    row = rep["rows"][0]
    assert set(row) == {"z", "sd_residual", "radius", "lhs", "rhs",
                        "hypothesis_met", "holds"}
    assert all(r["sd_residual"] <= 1e-10 for r in rep["rows"])


def sd_perturbations(tmp_path, seed):
    """The G0 that ``aclaw sd --seed SEED`` hands its stability checks."""
    from aclaw import sdcore

    drawn = []
    original = sdcore.stability_check

    def recording(quad, g0):
        drawn.append(g0)
        return original(quad, g0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdcore, "stability_check", recording)
        out = tmp_path / "sd.json"
        assert run_cli(["sd", "--n-re", "2", "--n-im", "2", "--seed", str(seed),
                        "--out", str(out)]) == 0
    return np.array(drawn)


@pytest.mark.filterwarnings("error")
def test_sd_seeds_draw_distinct_perturbations(tmp_path, monkeypatch):
    # the list key [seed, 11] cast 2**63 and 2**63 + 1 through float64 to one
    # key (and 2**64 - 1 with a RuntimeWarning); wigner._rng keys every seed
    # apart
    from aclaw import wigner

    seeds = [-1, 2**63, 2**63 + 1, 0]
    draws = [sd_perturbations(tmp_path, s) for s in seeds]
    for i in range(len(seeds)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j]), (seeds[i], seeds[j])
    # below 2**63 the key is the list key's, so no recorded report moves
    monkeypatch.setattr(wigner, "_rng", lambda s, stream: np.random.Generator(
        np.random.Philox(key=[s, stream])))
    np.testing.assert_array_equal(sd_perturbations(tmp_path, 0), draws[-1])


def test_linearize_check(tmp_path):
    out = tmp_path / "lin.json"
    code = run_cli(["linearize-check", "--N", "8", "--seed", "2", "--out", str(out)])
    assert code == 0
    rep = json.loads(read(out))
    assert all(rep["verdicts"].values())


def test_linearize_check_inverts_no_minor(tmp_path, monkeypatch):
    # the key identity is checked by one nested block elimination: 2(N - 1)
    # solves, none larger than ceil(N/2) 3 square, and no (3N - 3)-square
    # minor is solved or inverted
    n = 9
    shapes = {"inv": [], "solve": []}

    def recorded(name, fn):
        def wrapper(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "inv", recorded("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "solve", recorded("solve", np.linalg.solve))
    out = tmp_path / "lin.json"
    assert run_cli(["linearize-check", "--N", str(n), "--seed", "1",
                    "--out", str(out)]) == 0
    minor = (3 * n - 3, 3 * n - 3)
    assert minor not in shapes["inv"] + shapes["solve"]
    assert len(shapes["solve"]) == 2 * (n - 1)
    assert max(shape[0] for shape in shapes["solve"]) == 3 * math.ceil(n / 2)


@pytest.mark.filterwarnings("error")
def test_linearize_check_refuses_beyond_its_size_limit(tmp_path, capsys, monkeypatch):
    from aclaw import linearize

    def refused(*args, **kwargs):
        raise AssertionError("3N work before the size refusal")

    monkeypatch.setattr(linearize, "build_linearization", refused)
    out = tmp_path / "lin.json"
    code = run_cli(["linearize-check", "--N", "257", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("aclaw linearize-check: linearize-check limited to N <= 256")
    assert list(tmp_path.iterdir()) == []


def test_verify_report_and_determinism(tmp_path):
    a, b = tmp_path / "v1.json", tmp_path / "v2.json"
    args = ["verify", "--N", "16", "--seed", "7", "--tau", "8", "--theta", "1",
            "--spacing", "4.0", "--n-re", "5", "--n-im", "4"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    rep = json.loads(read(a))
    assert rep["config"]["n"] == 16
    assert "version" in rep["config"]
    assert rep["k_stat"] >= 2.0


def test_semicircle_cli(tmp_path):
    out = tmp_path / "sc.json"
    code = run_cli(["semicircle", "--N", "32", "--seed", "1", "--spacing", "4.0",
                    "--out", str(out)])
    assert code == 0
    rep = json.loads(read(out))
    assert rep["x_empty_literal"] is True
    assert rep["max_identity_residual"] <= 1e-8


def test_deloc_cli(tmp_path):
    out = tmp_path / "deloc.json"
    code = run_cli(["deloc", "--N", "64", "--seed", "3", "--c-config", "0.75",
                    "--out", str(out)])
    assert code == 0
    rep = json.loads(read(out))
    assert rep["rho"] < 1
    assert all(r["holds"] for r in rep["rows"])


def test_deloc_determinism(tmp_path):
    # at this small N the bound itself may fail (exit 1); determinism is
    # about byte-identical reports and equal exit codes
    a, b = tmp_path / "d1.json", tmp_path / "d2.json"
    args = ["deloc", "--N", "32", "--seed", "3", "--c-config", "0.25"]
    code_a = run_cli(args + ["--out", str(a)])
    code_b = run_cli(args + ["--out", str(b)])
    assert code_a == code_b
    assert read(a) == read(b)


def test_deloc_eigendecomposes_once(tmp_path, monkeypatch):
    from aclaw.linearize import AnticommutatorSpectrum

    original = AnticommutatorSpectrum.from_pair.__func__
    calls = []

    def counting(cls, pair):
        calls.append(pair.n)
        return original(cls, pair)

    monkeypatch.setattr(AnticommutatorSpectrum, "from_pair",
                        classmethod(counting))
    out = tmp_path / "deloc.json"
    code = run_cli(["deloc", "--N", "128", "--seed", "0", "--out", str(out)])
    assert code == 0
    assert calls == [128]


def test_verify_grid_skips_fluctuation_statistics(tmp_path, monkeypatch):
    # the net is screened in one call and the route runs only near the
    # screened maximum (one point on this input); the grid rows read their
    # G_i from one grid_corner_blocks call, not from 3N x 3N resolvents
    from aclaw import linearize, locallaw

    calls = {"resolvent_stats": 0, "generalized_resolvent": 0,
             "_screen_net": 0, "grid_corner_blocks": 0}
    for name in calls:
        original = getattr(linearize, name)

        def counting(*a, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*a, **kw)

        monkeypatch.setattr(linearize, name, counting)
        if hasattr(locallaw, name):
            monkeypatch.setattr(locallaw, name, counting)
    n, tau, spacing, n_re, n_im = 16, 8.0, 4.0, 5, 4
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--N", str(n), "--seed", "2", "--tau", str(tau),
                    "--spacing", str(spacing), "--n-re", str(n_re),
                    "--n-im", str(n_im), "--out", str(out)])
    assert code == 0
    assert calls == {"resolvent_stats": 1, "generalized_resolvent": 1,
                     "_screen_net": 1, "grid_corner_blocks": 1}


@pytest.mark.parametrize("args", [
    ["deloc", "--N", "16", "--seed", "1"],  # RhoPreconditionError
    ["law", "--im-min", "1e-12"],           # DegenerateRootError
])
@pytest.mark.filterwarnings("error")
def test_typed_refusal_exits_two(tmp_path, capsys, args):
    out = tmp_path / "out"
    code = run_cli(args + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aclaw {args[0]}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_verify_refuses_an_uncertified_eigenbasis(tmp_path, capsys, monkeypatch):
    # one eigenvector scaled by 1 + 1e-6 leaves Q*Q - I at 2e-6: the net
    # screen's eigenbasis certificate refuses the pair (exit 2) at N = 16
    from aclaw.linearize import AnticommutatorSpectrum

    exact = AnticommutatorSpectrum.from_hermitian

    def scaled(matrix):
        spectrum = exact(matrix)
        evecs = spectrum.evecs.copy()
        evecs[:, 0] *= 1.0 + 1e-6
        return AnticommutatorSpectrum(evals=spectrum.evals, evecs=evecs)

    monkeypatch.setattr(AnticommutatorSpectrum, "from_hermitian", scaled)
    out = tmp_path / "verify.json"
    code = run_cli(["verify", "--N", "16", "--seed", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("aclaw verify: eigenbasis error bound ")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_semicircle_refuses_an_uncertified_eigenbasis(tmp_path, capsys, monkeypatch):
    # one eigenvector scaled by 1 + 1e-6 leaves Q*Q - I at 2e-6: the k = 1
    # eigenbasis certificate refuses the matrix (exit 2) at N = 16
    exact = np.linalg.eigh

    def scaled(a):
        evals, evecs = exact(a)
        evecs = evecs.copy()
        evecs[:, 0] *= 1.0 + 1e-6
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", scaled)
    out = tmp_path / "semicircle.json"
    code = run_cli(["semicircle", "--N", "16", "--seed", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("aclaw semicircle: eigenbasis error bound ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_typed_refusals_share_one_base():
    from aclaw.errors import AclawError
    from aclaw.freelaw import DegenerateRootError
    from aclaw.locallaw import NormHypothesisError, RhoPreconditionError

    for exc in (DegenerateRootError, NormHypothesisError, RhoPreconditionError):
        assert issubclass(exc, AclawError)
        assert issubclass(exc, RuntimeError)


def test_tails_cli(tmp_path):
    out = tmp_path / "tails.json"
    csv = tmp_path / "tail.csv"
    code = run_cli(["tails", "--trials", "4000", "--out", str(out),
                    "--tail-csv", str(csv)])
    assert code == 0
    rep = json.loads(read(out))
    assert rep["theta_bound_holds"] is True
    assert all(r["holds"] for r in rep["whittle"])
    assert rep["quad_tail"]["decays"] is True
    assert rep["quad_tail"]["center_abs"] <= rep["quad_tail"]["center_tol"]
    assert read(csv).startswith("t,survival,fitted_bound")


def test_law_density_csv(tmp_path):
    out = tmp_path / "law.csv"
    dens = tmp_path / "density.csv"
    code = run_cli(["law", "--n-re", "3", "--n-im", "3", "--out", str(out),
                    "--density-out", str(dens), "--density-points", "41"])
    assert code == 0
    lines = read(dens).strip().split("\n")
    assert lines[0] == "t,density"
    vals = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert all(d >= 0 for _, d in vals)
    assert vals[0][1] == 0.0 and vals[-1][1] == 0.0  # outside the support


#: usage errors that the library function refuses, after the command has
#: drawn its pair but before any eigendecomposition; every other case is
#: refused before any pair is sampled
REFUSED_AFTER_SAMPLING = {
    "verify-theta-nan", "verify-c-nan", "verify-spacing-inf",
    "verify-c-config-negative", "verify-c-config-zero",
    "semicircle-theta-nan", "semicircle-tau-inf", "semicircle-empty-rectangle",
    "semicircle-theta-negative", "deloc-k-negative", "deloc-c-config-zero",
    "verify-theta-huge", "verify-c-config-huge", "semicircle-theta-huge",
    "deloc-c-config-huge", "verify-c-config-tiny", "semicircle-theta-tiny",
    "deloc-k-stat-tiny", "deloc-c-config-tiny", "deloc-rho-above-one",
}


@pytest.mark.parametrize("args", [
    pytest.param(["figure1", "--rho", "2.5"], id="figure1-rho"),
    # a NaN constant admits no row, so the run would pass vacuously
    pytest.param(["verify", "--N", "8", "--theta", "nan"], id="verify-theta-nan"),
    pytest.param(["verify", "--N", "8", "--c-config", "nan"], id="verify-c-nan"),
    pytest.param(["semicircle", "--N", "8", "--theta-user", "nan"],
                 id="semicircle-theta-nan"),
    pytest.param(["verify", "--N", "8", "--n-re", "0"], id="verify-empty-grid"),
    # these used to escape as tracebacks with exit 1
    pytest.param(["verify", "--N", "8", "--tau", "inf"], id="verify-tau-inf"),
    pytest.param(["semicircle", "--N", "8", "--tau", "inf"], id="semicircle-tau-inf"),
    pytest.param(["figure1", "--lam-step", "0"], id="figure1-lam-step-0"),
    pytest.param(["verify", "--N", "8", "--spacing", "inf"], id="verify-spacing-inf"),
    # used to warn "Mean of empty slice", write a report and exit 1
    pytest.param(["tails", "--trials", "0"], id="tails-trials-0"),
    # used to exit 0 having checked nothing: tau < 1/N empties the rectangle,
    # and a negative theta makes every bound negative
    pytest.param(["semicircle", "--N", "16", "--tau", "0.01"],
                 id="semicircle-empty-rectangle"),
    pytest.param(["semicircle", "--N", "16", "--theta-user", "-1"],
                 id="semicircle-theta-negative"),
    # K enters only as K^2; a negative K used to fail verification (exit 1)
    pytest.param(["deloc", "--N", "16", "--k-stat", "-0.5"], id="deloc-k-negative"),
    # c enters only as c^2: c = -1 used to pass as +1 (exit 0), c = 0 to
    # admit every row and fail verification (exit 1)
    pytest.param(["verify", "--N", "8", "--c-config", "-1"],
                 id="verify-c-config-negative"),
    pytest.param(["verify", "--N", "8", "--c-config", "0"], id="verify-c-config-zero"),
    pytest.param(["deloc", "--N", "16", "--c-config", "0"], id="deloc-c-config-zero"),
    # each used to end in an OverflowError traceback (exit 1): Python's x**2
    # and complex **3 raise where the result overflows
    pytest.param(["verify", "--N", "8", "--theta", "1e300"], id="verify-theta-huge"),
    pytest.param(["verify", "--N", "8", "--c-config", "1e200"], id="verify-c-config-huge"),
    pytest.param(["semicircle", "--N", "8", "--theta-user", "1e300"],
                 id="semicircle-theta-huge"),
    pytest.param(["deloc", "--N", "64", "--c-config", "1e300"], id="deloc-c-config-huge"),
    pytest.param(["figure2", "--m-max", "1e300", "--resolution", "3"],
                 id="figure2-m-max-huge"),
    # a constant whose square rounds to 0 used to pass the positivity check:
    # rho = 0 admitted every row (exit 1), and deloc refused only after its
    # eigh, as it did a given K with rho >= 1
    pytest.param(["verify", "--N", "8", "--c-config", "1e-200"], id="verify-c-config-tiny"),
    pytest.param(["semicircle", "--N", "8", "--theta-user", "1e-200"],
                 id="semicircle-theta-tiny"),
    pytest.param(["deloc", "--N", "1024", "--k-stat", "1e-300"], id="deloc-k-stat-tiny"),
    pytest.param(["deloc", "--N", "1024", "--c-config", "1e-200"], id="deloc-c-config-tiny"),
    pytest.param(["deloc", "--N", "1024", "--k-stat", "100"], id="deloc-rho-above-one"),
    # each used to write a header-only table and exit 0
    pytest.param(["figure2", "--resolution", "0"], id="figure2-resolution-0"),
    # a NaN or negative radius let the pole at m = 0 through to a
    # ZeroDivisionError (exit 1); a NaN or inf range wrote rows of nan (exit 0)
    pytest.param(["figure2", "--exclusion-radius", "nan", "--resolution", "3"],
                 id="figure2-exclusion-radius-nan"),
    pytest.param(["figure2", "--exclusion-radius", "-1", "--resolution", "3"],
                 id="figure2-exclusion-radius-negative"),
    pytest.param(["figure2", "--m-max", "nan", "--resolution", "3"],
                 id="figure2-m-max-nan"),
    pytest.param(["figure2", "--m-max", "inf", "--resolution", "3"],
                 id="figure2-m-max-inf"),
    pytest.param(["figure1", "--rho", ","], id="figure1-rho-empty"),
    pytest.param(["law", "--n-re", "2", "--n-im", "2", "--density-out", "d.csv",
                  "--density-points", "0"], id="law-density-points-0"),
    # delta_frac 5 used to meet none of the stability hypotheses and 1 only
    # some (exit 0 either way); nan and inf failed inside the SVD
    *[pytest.param(["sd", "--n-re", "3", "--n-im", "3", "--delta-frac", frac],
                   id=f"sd-delta-frac-{frac}")
      for frac in ("nan", "inf", "0", "1", "5")],
    # N = 0 used to die in default_grid with a ZeroDivisionError traceback
    # (exit 1); every command that samples a pair refuses N < 2 before any work
    *[pytest.param([cmd, "--N", "0"], id=f"{cmd}-n-zero")
      for cmd in ("verify", "semicircle", "deloc", "linearize-check", "sample")],
    pytest.param(["verify", "--N", "-3"], id="verify-n-negative"),
    # beyond (-2**64, 2**64) the Philox key would repeat; sd and tails used to
    # cast such a seed through float64 (a RuntimeWarning) and run
    pytest.param(["sample", "--N", "4", "--seed", str(2**64)], id="sample-seed-2-64"),
    pytest.param(["sd", "--n-re", "2", "--n-im", "2", "--seed", str(2**64)],
                 id="sd-seed-2-64"),
    pytest.param(["tails", "--trials", "10", "--seed", str(2**64)], id="tails-seed-2-64"),
    # a non-finite z used to form W, X and their products (a RuntimeWarning
    # on stderr) before the resolvent's conditioning refusal
    pytest.param(["linearize-check", "--N", "4", "--z", "inf+1j"], id="linearize-check-z-inf"),
    pytest.param(["linearize-check", "--N", "4", "--z=-inf+1j"],
                 id="linearize-check-z-minus-inf"),
    pytest.param(["linearize-check", "--N", "4", "--z", "nan+1j"], id="linearize-check-z-nan"),
    # z off the upper half-plane used to sample the pair and form X, W and
    # W* (X - Lambda kron I) W before the resolvent refused it
    pytest.param(["linearize-check", "--N", "4", "--z=0.5-0.5j"],
                 id="linearize-check-z-lower"),
    pytest.param(["linearize-check", "--N", "4", "--z", "0.5+0j"],
                 id="linearize-check-z-real"),
    # an unwritable output path used to fail at the write, after the work,
    # with a FileNotFoundError or IsADirectoryError traceback (exit 1); the
    # directory case also left a temp file beside it
    pytest.param(["verify", "--N", "8", "--out", "missing/x.json"],
                 id="verify-out-missing-directory"),
    pytest.param(["sample", "--N", "4", "--out", "."], id="sample-out-directory"),
    pytest.param(["deloc", "--N", "16", "--out", ""], id="deloc-out-empty"),
    pytest.param(["law", "--n-re", "2", "--n-im", "2", "--density-out", "missing/d.csv"],
                 id="law-density-out-missing-directory"),
    pytest.param(["figure2", "--resolution", "3", "--curves", "."],
                 id="figure2-curves-directory"),
    pytest.param(["tails", "--trials", "10", "--tail-csv", ""], id="tails-tail-csv-empty"),
])
@pytest.mark.filterwarnings("error")
def test_usage_error_exit_code(tmp_path, capsys, monkeypatch, request, args):
    import aclaw.wigner
    from aclaw.linearize import AnticommutatorSpectrum

    monkeypatch.chdir(tmp_path)  # relative side outputs land here too
    sample_pair, sampled = aclaw.wigner.sample_pair, []
    monkeypatch.setattr(aclaw.wigner, "sample_pair",
                        lambda spec: sampled.append(spec) or sample_pair(spec))
    # no refusal pays for an eigendecomposition, of {UV} or of a norm
    decomposed = []

    def refused_first(name):
        def decompose(*_, **__):
            decomposed.append(name)
            pytest.fail(f"{name} ran before the refusal")
        return decompose

    monkeypatch.setattr(np.linalg, "eigh", refused_first("eigh"))
    monkeypatch.setattr(np.linalg, "eigvalsh", refused_first("eigvalsh"))
    for constructor in ("from_hermitian", "from_pair"):
        monkeypatch.setattr(AnticommutatorSpectrum, constructor,
                            classmethod(refused_first(constructor)))
    out = tmp_path / "x.out"
    code = run_cli(args if "--out" in args else args + ["--out", str(out)])
    assert decomposed == []
    assert code == 2
    assert len(sampled) == (request.node.callspec.id in REFUSED_AFTER_SAMPLING)
    err = capsys.readouterr().err
    assert err.startswith(f"aclaw {args[0]}: ")
    assert "Traceback" not in err and "Warning" not in err
    assert list(tmp_path.iterdir()) == []  # no partial output


def test_failed_write_is_a_refusal(tmp_path, capsys, monkeypatch):
    # a rename that fails (a full disk, a read-only directory) is exit 2 with
    # one stderr line, not a traceback, and leaves neither the output nor
    # the temp file behind; sample used to write its dump in place (exit 0)
    from test_golden import CASES

    def refuse(src, dst):
        raise PermissionError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    for name, argv in CASES.items():
        code = run_cli(argv + ["--out", str(tmp_path / f"{name}.out")])
        err = capsys.readouterr().err
        assert code == 2, name
        assert err.startswith(f"aclaw {argv[0]}: ") and err.count("\n") == 1, (name, err)
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [], name


def test_memory_error_is_refused(tmp_path, capsys, monkeypatch):
    # verify --N 8 --spacing 1e-4 asks numpy for a 188 GiB net, (78751,
    # 160001) complex; the allocation's MemoryError is a refusal (exit 2),
    # not a failed verification (exit 1) with a traceback.  The net builder
    # raises it here, at the default spacing, so nothing large is allocated
    from aclaw import locallaw

    def too_large(*_):
        raise MemoryError("Unable to allocate 188. GiB for an array with shape "
                          "(78751, 160001) and data type complex128")

    monkeypatch.setattr(locallaw, "uniform_net", too_large)
    code = run_cli(["verify", "--N", "8", "--out", str(tmp_path / "v.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("aclaw verify: Unable to allocate 188. GiB for an array with "
                   "shape (78751, 160001) and data type complex128\n")
    assert list(tmp_path.iterdir()) == []


def test_value_error_prints_the_subcommand_usage(tmp_path, capsys):
    code = run_cli(["figure1", "--rho", "2.5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "aclaw figure1: each rho must lie in (0, 1)"
    assert lines[1].startswith("usage: aclaw figure1 ")


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_fresh_python(code, **env_extra):
    """Run ``code`` in a fresh interpreter that imports this aclaw, with no
    BLAS thread variable set; returns its standard output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aclaw.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_VARS and k != "ACLAW_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
    env.update(env_extra)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_numpy():
    out = run_fresh_python(
        "import sys, aclaw.cli; aclaw.cli.build_parser(); "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    assert out.strip() == "[]"


def test_scaling_verify_and_semicircle_never_import_scipy_linalg(tmp_path):
    # scipy.linalg alone adds about 25 MB of resident memory; only deloc's
    # MRRR spectrum and its norm certificate need it
    out = run_fresh_python(f"""
import json, sys
from aclaw.cli import main
from aclaw.locallaw import scaling_law_study

loaded = {{}}
scaling_law_study(n_list=(16, 32), seeds=range(2), k_spacing=4.0)
loaded["scaling"] = "scipy.linalg" in sys.modules
for cmd in ("verify", "semicircle"):
    main([cmd, "--N", "16", "--seed", "1", "--out", {str(tmp_path)!r} + "/" + cmd])
    loaded[cmd] = "scipy.linalg" in sys.modules
print(json.dumps(loaded))
""")
    assert json.loads(out) == {"scaling": False, "verify": False, "semicircle": False}


def test_aclaw_threads_set_before_numpy_loads(tmp_path):
    out = run_fresh_python(f"""
import json, os, sys

seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({{v: os.environ.get(v) for v in {BLAS_VARS!r}}})
        return None

sys.meta_path.insert(0, Probe())
from aclaw.cli import main
code = main(["law", "--n-re", "2", "--n-im", "2",
             "--out", {str(tmp_path / "law.csv")!r}])
print(json.dumps([code, seen]))
""", ACLAW_THREADS="1")
    code, seen = json.loads(out)
    assert code == 0
    assert seen == [{v: "1" for v in BLAS_VARS}]


def test_package_attributes_load_lazily():
    out = run_fresh_python(
        "import sys, aclaw; before = 'aclaw.freelaw' in sys.modules; "
        "f = aclaw.freelaw; print(before, f.__name__, 'freelaw' in dir(aclaw))")
    assert out.split() == ["False", "aclaw.freelaw", "True"]
