"""Self-test of the benchmark at small N (outside the repository's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload's operation path runs once untraced and once traced on tiny
inputs, against references recorded into a temporary directory.  The test
checks that every metric declared in BENCHMARK.json is emitted with a valid
name, that the traced reports equal the untraced ones byte for byte, and that
the tracer sees calls made through import-time bindings.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import compare, make_workloads, write_ref  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as _f:
    SPEC = json.load(_f)

run.load_package()
WORKLOADS = make_workloads(small=True)


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    refs_dir = str(tmp_path_factory.mktemp("refs"))
    out_dir = str(tmp_path_factory.mktemp("out"))
    for wl in WORKLOADS.values():
        for key in wl.pool:
            code, report = wl.run(key, out_dir)
            write_ref(refs_dir, wl.name, key, code, report)
    return refs_dir


def test_declared_names_are_valid():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    declared += [w["name"] for w in SPEC["workloads"]]
    assert len(declared) == len(set(declared))
    for name in declared:
        assert NAME.match(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_declared_metrics(name, trace, refs, tmp_path):
    rec = run.run_workload(WORKLOADS[name], seed=3, seconds=0.0, trace=trace,
                           refs_dir=refs, state_dir=str(tmp_path))
    result = rec["result"]
    assert result["correct"], rec["notes"]
    assert result["attempted"] == (2 if trace else 1)
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for m in declared:
        assert m["name"] in result["metrics"], m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for key in result["metrics"]:
        assert NAME.match(key), key
    if trace:
        # at full size the spans cover >= 95%; tiny N leaves argparse visible
        assert 0.0 < result["metrics"]["trace_coverage"]["value"] <= 1.0


def test_digests_compare_only_runs_of_the_same_sources(refs, tmp_path):
    """A digest stored by other package sources is ignored; one stored by
    these sources must match the report bytes."""
    wl = WORKLOADS["deloc-n1024"]
    state = str(tmp_path)
    here = run.digest_dir(state, wl.name)
    other = os.path.join(os.path.dirname(os.path.dirname(here)), "0" * 16, wl.name)
    for path in (here, other):
        os.makedirs(path)
    for key in wl.pool:
        with open(os.path.join(other, f"{key}.sha256"), "w") as f:
            f.write("0" * 64 + "\n")
    rec = run.run_workload(wl, seed=3, seconds=0.0, trace=False,
                           refs_dir=refs, state_dir=state)
    assert rec["result"]["correct"], rec["notes"]
    assert rec["nondeterministic_ops"] == 0

    for key in wl.pool:
        with open(os.path.join(here, f"{key}.sha256"), "w") as f:
            f.write("0" * 64 + "\n")
    rec = run.run_workload(wl, seed=3, seconds=0.0, trace=False,
                           refs_dir=refs, state_dir=state)
    assert not rec["result"]["correct"]
    assert rec["nondeterministic_ops"] == 1


def test_source_hash_follows_edits(tmp_path):
    pkg = tmp_path / "aclaw"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("x = 1\n")
    first = run.source_hash(str(tmp_path))
    (pkg / "__init__.py").write_text("x = 2\n")
    assert run.source_hash(str(tmp_path)) != first


def test_compare_tolerance_and_exact_fields():
    ref = {"config": {"version": "0.1.0", "n": 4}, "x": 1.0, "ok": True,
           "rows": [{"lhs": 0.5, "admissible": False}]}
    same = json.loads(json.dumps(ref))
    same["x"] = 1.0 + 1e-12
    same["config"]["version"] = "0.2.0"
    assert compare(ref, same) == []
    flipped = json.loads(json.dumps(ref))
    flipped["rows"][0]["admissible"] = True
    assert compare(ref, flipped) == ["$.rows[0].admissible"]
    moved = json.loads(json.dumps(ref))
    moved["x"] = 1.001
    assert compare(ref, moved) == ["$.x"]


def test_tracer_sees_import_time_bindings():
    """Calls made through names bound at import (locallaw.m_ac) and through
    class methods are counted, and the originals are restored."""
    import aclaw.freelaw
    import aclaw.locallaw
    from aclaw.wigner import EnsembleSpec, sample_pair

    from tracer import Tracer

    original = aclaw.locallaw.m_ac
    pair = sample_pair(EnsembleSpec(n=16, seed=0))
    tracer = Tracer()
    tracer.trace(0, aclaw.locallaw.empirical_k, pair, n_re=3, n_im=2)
    row = tracer.per_op()[0]
    assert row["freelaw.m_ac.calls"] == 6
    assert row["linearize.resolvent_diag.calls"] == 6
    assert row["linearize.spectrum_eigh.calls"] == 1
    assert aclaw.locallaw.m_ac is original is aclaw.freelaw.m_ac
