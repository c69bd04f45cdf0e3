"""Mutation table: every check that ``aclaw linearize-check``, ``aclaw
tails`` and ``aclaw semicircle`` gate on fails for some defect of aclaw.

Each row plants one defect: one function of the package is recompiled from
its source with one fragment replaced, and every aclaw module that binds the
function gets the copy.  The row then runs one command and names what must
flip: the checks whose verdicts fail (exit 1), or the typed refusal (exit 2)
by which the defect shows instead.  Rows for ``verify`` and ``sd`` record
defects that none of those three commands can see.

A wrong a or a wrong block of R is an assembly defect, not a numerical
one: no resolvent is checked against direct inversion, and the net screen's
eigenbasis certificate bounds only the numerics of {UV}'s eigenbasis.
``linearize-check``'s ``factorization`` and ``bordered_identity`` catch
those defects at every N, so their rows fail verdicts (exit 1).

The control rows run each command unplanted and find no failing check; the
symmetry row plants b -> -b, which must flip nothing.
"""

import __future__
import importlib
import inspect
import json
import sys
import textwrap

import numpy as np
import pytest

from aclaw.cli import main

LC8 = ["linearize-check", "--N", "8", "--seed", "1"]
TAILS = ["tails", "--trials", "500", "--seed", "0"]
# c = 0.1 admits 109 of the 130 grid rows at N = 16 (c = 1 admits none)
VERIFY = ["verify", "--N", "16", "--seed", "0", "--c-config", "0.1"]
SD = ["sd", "--n-re", "3", "--n-im", "3"]
# admits no grid row, so only the spot check's two residual gates can fail
SEMICIRCLE = ["semicircle", "--N", "16", "--seed", "0", "--spacing", "4.0"]

ROWS = [
    # (module, function, fragment, defect, command, failing checks or the
    # refusal's message)
    pytest.param("wigner", "_sample_hermitian", "h.T[upper] = vals.conj()",
                 "h.T[upper] = vals", LC8,
                 {"factorization", "bordered_identity", "key_identity"},
                 id="pair-symmetric-not-hermitian"),
    # b^2 - a^2 = 0, not {UV}
    pytest.param("linearize", "build_linearization", "(u - v) / math.sqrt(2.0),",
                 "(u + v) / math.sqrt(2.0),", LC8, {"factorization", "key_identity"},
                 id="a-is-(U+V)/sqrt2-n8"),
    # the -I of diag(I, -I) in the rows of [C g, diag(I, -I)]
    pytest.param("linearize", "generalized_resolvent", "np.repeat([1.0, -1.0], n)",
                 "np.repeat([1.0, 1.0], n)", LC8, {"bordered_identity", "key_identity"},
                 id="R-block-+I-for--I-n8"),
    # every minor's Y_i R^(i) Y_i* from a conjugated Schur update
    pytest.param("linearize", "_eliminate", "s[keep, keep] + s[keep, drop] @ g,",
                 "s[keep, keep] + s[keep, drop] @ g.conj(),", LC8, {"key_identity"},
                 id="quadratic-form-corrupted"),
    pytest.param("linearize", "identity_spot_check",
                 "q_def = -(lam_k + s_i + phi_ghat)",
                 "q_def = -(lam_k + s_i.conj() + phi_ghat)", SEMICIRCLE, {"identity"},
                 id="leaf-schur-complement-conjugated"),
    # [I; G]* T [I; G] without T12 G
    pytest.param("linearize", "_eliminate", "tg[keep] + g.conj().T", "g.conj().T",
                 SEMICIRCLE, {"row_sum"}, id="ward-gram-cross-term-dropped"),
    # Ghat_i's Schur correction in the k = 1 screen moves the screened
    # statistic, so the route at the screened maximum does not confirm it
    pytest.param("locallaw", "semicircle_screen", "(w, d * d) / gc)", "(w, d * d) / gc.conj())",
                 SEMICIRCLE, "differs from its screen", id="semicircle-screen-ghat-corrupted"),
    # Ghat_i's Schur correction on the k = 3 route: no reported check reads
    # Ghat_i independently, but the route at the screened maximum no longer
    # confirms the screen (a 5.6e-3 gap)
    pytest.param("linearize", "_schur_statistics", "corr / n", "corr / (n - 1)", VERIFY,
                 "differs from its screen", id="route-schur-correction-perturbed"),
    # the k = 1 route shares that correction: the route at the screened
    # maximum reads 1.596539 against its screen's 1.591206
    pytest.param("linearize", "_schur_statistics", "corr / n", "corr / (n - 1)",
                 SEMICIRCLE, "differs from its screen",
                 id="semicircle-route-schur-correction-perturbed"),
    pytest.param("linearize", "resolvent_stats", "np.array([z, -1.0 + 0j, 1.0 + 0j])",
                 "np.array([z, 1.0 + 0j, -1.0 + 0j])", LC8, {"key_identity"},
                 id="route-Lambda-signs-swapped"),
    pytest.param("tails", "theta_root", "math.exp(_log_theta(s) / s)",
                 "math.exp(_log_theta(s))", TAILS, {"theta_bound"}, id="theta-root-not-rooted"),
    pytest.param("tails", "whittle_check", "rhs = 2.0 * theta_root(p)",
                 "rhs = theta_root(p)", TAILS, {"whittle"}, id="whittle-factor-2-dropped"),
    pytest.param("tails", "quad_tail_check",
                 "expect = entry_sd**2 * n", "expect = 0.0",
                 TAILS, {"centering"}, id="centering-term-dropped"),
    # Phi cancels from both sides of linearize-check's key identity
    pytest.param("sdcore", "phi_ac", "a[..., 1, 1] + a[..., 2, 2]", "a[..., 1, 1]", SD,
                 "Schwinger-Dyson residual too large", id="phi-term-dropped"),
    pytest.param("freelaw", "m_ac", "roots[roots.imag > ROOT_IM_TOL]",
                 "roots[[np.argmin(roots.imag)]]", VERIFY, {"rows"}, id="m_ac-lower-root"),
]


def plant(monkeypatch, module, function, fragment, defect):
    """Rebind ``aclaw.<module>.<function>``, in every aclaw module that binds
    it, to a copy compiled from its source with ``fragment`` (which must
    occur once) replaced by ``defect``; returns the copy."""
    mod = importlib.import_module(f"aclaw.{module}")
    original = getattr(mod, function)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(fragment) == 1, (function, fragment)
    code = compile(source.replace(fragment, defect), mod.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope = {}
    exec(code, vars(mod), scope)
    for name, other in list(sys.modules.items()):
        if name.split(".")[0] == "aclaw" and getattr(other, function, None) is original:
            monkeypatch.setattr(other, function, scope[function])
    return scope[function]


def run(tmp_path, argv):
    """(exit code, report or None) of one CLI run."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def failed_checks(command, rep):
    """The gated checks that fail in a report of ``command``."""
    if command == "linearize-check":
        verdicts = rep["verdicts"]
    elif command == "tails":
        quad = rep["quad_tail"]
        verdicts = {"theta_bound": rep["theta_bound_holds"],
                    "whittle": all(r["holds"] for r in rep["whittle"]),
                    "centering": quad["center_abs"] <= quad["center_tol"]}
    elif command == "semicircle":
        verdicts = {"identity": rep["max_identity_residual"] <= 1e-8,
                    "row_sum": rep["max_row_sum_residual"] <= 1e-10,
                    "rows": all(r["holds"] for r in rep["rows"] if r["admissible"])}
    elif command == "verify":
        verdicts = {"rows": all(r["holds"] for r in rep["rows"] if r["admissible"])}
    else:
        verdicts = {"stability": rep["failures"] == 0}
    return {k for k, ok in verdicts.items() if not ok}


@pytest.mark.parametrize("argv", [LC8, TAILS, VERIFY, SD, SEMICIRCLE],
                         ids=["linearize-check-n8", "tails", "verify", "sd", "semicircle"])
def test_unplanted_command_fails_no_check(tmp_path, argv):
    code, rep = run(tmp_path, argv)
    assert code == 0
    assert failed_checks(argv[0], rep) == set()


@pytest.mark.parametrize("module, function, fragment, defect, argv, expected", ROWS)
def test_planted_defect_flips_its_check(tmp_path, monkeypatch, capsys, module,
                                        function, fragment, defect, argv, expected):
    plant(monkeypatch, module, function, fragment, defect)
    code, rep = run(tmp_path, argv)
    if isinstance(expected, str):
        assert (code, rep) == (2, None)
        err = capsys.readouterr().err
        assert expected in err and err.count("\n") == 1
    else:
        assert code == 1
        assert failed_checks(argv[0], rep) == expected


def test_sign_of_b_flips_nothing(tmp_path, monkeypatch):
    # S = diag(I, I, -I) conjugates X and commutes with Lambda, so b -> -b
    # maps R to S R S; {UV} = b^2 - a^2 and the diagonal M do not change
    from aclaw.linearize import build_linearization
    from aclaw.wigner import EnsembleSpec, sample_pair

    _, ref = run(tmp_path, LC8)
    flipped = plant(monkeypatch, "linearize", "build_linearization", "(-u - v)", "(u + v)")
    pair = sample_pair(EnsembleSpec(n=8, seed=1))
    np.testing.assert_array_equal(flipped(pair).b, -build_linearization(pair).b)
    code, rep = run(tmp_path, LC8)
    assert code == 0
    assert rep["verdicts"] == ref["verdicts"]
    for key, value in ref["residuals"].items():
        assert rep["residuals"][key] == pytest.approx(value, rel=1e-12, abs=0.0)
