#!/usr/bin/env python3
"""Benchmark for aclaw: four verifier workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-n128 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --record-refs           # rewrite perfbench/refs/

One run is a closed loop in one process: operations run back to back, on
inputs drawn from the workload's reference pool in a seed-determined order,
until ``--seconds`` of operation time has been spent (at least one operation).
BLAS is pinned to one thread and no worker threads are started.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (median seconds per
operation), ``setup_s`` (median, over fresh interpreters before and after the
operations, of importing ``aclaw.cli`` and building its parser) and
``peak_rss_mb``.  ``--trace 1``
runs each input untraced and then traced (see ``tracer.py``), requires the
two reports to be byte-identical, and reports the per-layer call counts and
self times per operation, the import chain behind ``setup_s``, the tracing
overhead and the share of the traced time the spans cover.

Every operation is checked: it fails if it raises or its exit code differs
from the reference; its report is compared with the reference output
(``workloads.compare``); and its bytes must equal those of every earlier
run of the same input on the same package sources (digests kept under
``_runs/digests/<source hash>/``, so a change to ``src/aclaw`` starts afresh).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from workloads import REFS, compare, make_workloads, read_ref, write_ref  # noqa: E402

SETUP_SAMPLES = 15
IMPORT_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 60
SETUP_CODE = "import aclaw.cli; aclaw.cli.build_parser()"
SETUP_PROBE = ("import time; t = time.perf_counter(); " + SETUP_CODE
               + "; print(repr(time.perf_counter() - t))")
IMPORT_GROUPS = ("aclaw", "numpy", "scipy")


class SetupError(RuntimeError):
    """The checkout does not hold a loadable aclaw source tree."""


def load_package() -> None:
    init = os.path.join(SRC, "aclaw", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no aclaw sources at {os.path.relpath(init, ROOT)}")
    sys.path.insert(0, SRC)
    import aclaw.cli

    if not os.path.abspath(aclaw.cli.__file__).startswith(SRC + os.sep):
        raise SetupError("imported aclaw does not come from this checkout")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT_S)


def measure_setup(count: int) -> list[float]:
    return [float(run_child(["-c", SETUP_PROBE]).stdout.strip())
            for _ in range(count)]


def import_chain() -> dict[str, float]:
    """Median over fresh interpreters of the summed ``-X importtime`` self
    times of each top-level package imported by the set-up."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        err = run_child(["-X", "importtime", "-c", SETUP_CODE]).stderr
        sums = {g: 0.0 for g in (*IMPORT_GROUPS, "other")}
        for line in err.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, name = (part.strip() for part in
                                line[len("import time:"):].split("|"))
            top = name.split(".")[0]
            sums[top if top in IMPORT_GROUPS else "other"] += int(self_us) * 1e-6
        samples.append(sums)
    return {f"import.{g}.self_s": statistics.median(s[g] for s in samples)
            for g in samples[0]}


def source_hash(src: str = SRC) -> str:
    """sha256 over the paths and bytes of every ``.py`` file of the package,
    so that it names the code a run loaded, uncommitted edits included."""
    pkg = os.path.join(src, "aclaw")
    files = sorted(os.path.relpath(os.path.join(d, f), pkg)
                   for d, _, names in os.walk(pkg) for f in names
                   if f.endswith(".py"))
    h = hashlib.sha256()
    for rel in files:
        with open(os.path.join(pkg, rel), "rb") as f:
            body = f.read()
        h.update(f"{rel}\0{len(body)}\0".encode())
        h.update(body)
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"source_sha256": source_hash(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "workload_seed": seed}


def digest_dir(state_dir: str, workload: str) -> str:
    return os.path.join(state_dir, "digests", source_hash()[:16], workload)


class Checker:
    """Correctness bookkeeping for one run: failures, reference
    mismatches, and byte digests compared across operations and across
    runs of the same package sources."""

    def __init__(self, workload: str, refs_dir: str, state_dir: str):
        self.workload = workload
        self.refs_dir = refs_dir
        self.digest_dir = digest_dir(state_dir, workload)
        os.makedirs(self.digest_dir, exist_ok=True)
        self.digests: dict[int, str] = {}
        self.attempted = self.failed = self.ref_mismatches = self.nondeterministic = 0
        self.notes: list[str] = []

    def check(self, key: int, result) -> None:
        self.attempted += 1
        if isinstance(result, BaseException):
            self.failed += 1
            self.notes.append(f"input {key}: raised {result!r}")
            return
        code, report = result
        ref = read_ref(self.refs_dir, self.workload, key)
        if code != ref["exit_code"]:
            self.failed += 1
            self.notes.append(f"input {key}: exit code {code}, reference {ref['exit_code']}")
        bad = compare(ref["report"], json.loads(report))
        if bad:
            self.ref_mismatches += 1
            self.notes.append(f"input {key}: {len(bad)} values differ from the "
                              f"reference, first at {bad[0]}")
        self._check_digest(key, hashlib.sha256(report).hexdigest())

    def _check_digest(self, key: int, digest: str) -> None:
        known = self.digests.get(key)
        path = os.path.join(self.digest_dir, f"{key}.sha256")
        if known is None and os.path.isfile(path):
            with open(path, encoding="ascii") as f:
                known = f.read().strip()
        if known is None:
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="ascii") as f:
                f.write(digest + "\n")
            os.replace(tmp, path)
            known = digest
        self.digests[key] = known
        if digest != known:
            self.nondeterministic += 1
            self.notes.append(f"input {key}: report bytes differ from an earlier "
                              "run of the same input on the same sources")

    @property
    def correct(self) -> bool:
        return not (self.failed or self.ref_mismatches or self.nondeterministic)


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # an operation failure is counted, not fatal
        result = exc
    return time.perf_counter() - t0, result


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 refs_dir: str = REFS, state_dir: str = RUNS) -> dict:
    """One benchmark run; returns the result record (see ``main``)."""
    out_dir = os.path.join(state_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    checker = Checker(workload.name, refs_dir, state_dir)
    env = environment(seed)
    metrics: dict[str, tuple[float, str]] = {}
    detail: dict = {}
    # set-up is sampled before and after the operations, so that its median
    # spans the run rather than one moment of it
    setup = [] if trace else measure_setup(SETUP_SAMPLES // 2)

    keys = workload.inputs(seed, 10_000)
    times: list[float] = []
    traced_times: list[float] = []
    tracer = Tracer()
    while not times or sum(times) + sum(traced_times) < seconds:
        key = keys[len(times)]
        dt, result = timed(workload.run, key, out_dir)
        times.append(dt)
        checker.check(key, result)
        if trace:
            op = len(traced_times)
            dt, result = timed(tracer.trace, op, workload.run, key, out_dir)
            traced_times.append(dt)
            checker.check(key, result)

    if trace:
        per_op = tracer.per_op()
        rows = [per_op.get(op, {}) for op in range(len(traced_times))]
        names = sorted({k for row in rows for k in row if k != "covered_s"})
        for name in names:
            unit = ("count" if name.endswith(".calls") else
                    "B" if name.endswith("_bytes") else "s")
            metrics[name] = (statistics.median(row.get(name, 0) for row in rows), unit)
        metrics["trace_overhead_s"] = (statistics.median(traced_times)
                                       - statistics.median(times), "s")
        metrics["trace_coverage"] = (statistics.median(
            row.get("covered_s", 0.0) / t for row, t in zip(rows, traced_times)),
            "ratio")
        metrics.update({k: (v, "s") for k, v in import_chain().items()})
        trace_dir = os.path.join(state_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{workload.name}-seed{seed}.tsv"))
    else:
        setup += measure_setup(SETUP_SAMPLES - len(setup))
        metrics["setup_s"] = (statistics.median(setup), "s")
        detail["setup_s_samples"] = setup
        metrics["wall_s"] = (statistics.median(times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    attempted = checker.attempted
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "environment": env,
        "inputs": keys[:len(times)], "op_seconds": times,
        "traced_op_seconds": traced_times, "detail": detail,
        "fail_ratio": checker.failed / attempted,
        "ref_mismatches": checker.ref_mismatches,
        "nondeterministic_ops": checker.nondeterministic,
        "notes": checker.notes,
        "result": {
            "correct": checker.correct, "attempted": attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_report(rec: dict) -> None:
    print(f"environment: {json.dumps(rec['environment'])}")
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{rec['result']['attempted']} operations on inputs {rec['inputs']}")
    for note in rec["notes"]:
        print(f"  check: {note}")
    times = rec["op_seconds"]
    for name, m in rec["result"]["metrics"].items():
        extra = ""
        if name == "wall_s":
            extra = f"  (median of {len(times)} operations"
            if len(times) >= 4:
                q1, _, q3 = statistics.quantiles(times, n=4)
                extra += f"; q1 {q1:.4f}, q3 {q3:.4f}"
            extra += ")"
        if name == "setup_s":
            extra = f"  (median of {SETUP_SAMPLES} fresh interpreters)"
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_ratio':42s} {rec['fail_ratio']:.6g} ratio")
    print(f"  {'ref_mismatches':42s} {rec['ref_mismatches']} count")
    print(f"  {'nondeterministic_ops':42s} {rec['nondeterministic_ops']} count")


def save_record(rec: dict, state_dir: str = RUNS) -> None:
    path = os.path.join(state_dir, "results",
                        f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as f:
        json.dump(rec, f, indent=1)
        f.write("\n")


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak memory does not mix."""
    last = {}
    for name in make_workloads():
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(last))
    return 0


def record_refs(names: list[str]) -> int:
    workloads = make_workloads()
    out_dir = os.path.join(RUNS, "out")
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        wl = workloads[name]
        for key in wl.pool:
            t0 = time.perf_counter()
            code, report = wl.run(key, out_dir)
            write_ref(REFS, name, key, code, report)
            print(f"{name} input {key}: exit {code}, {len(report)} bytes, "
                  f"{time.perf_counter() - t0:.2f} s", flush=True)
    return 0


def main(argv=None) -> int:
    names = list(make_workloads())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help="rerun every pool input and rewrite refs/")
    args = parser.parse_args(argv)
    try:
        load_package()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.record_refs:
        return record_refs(names if args.workload == "all" else [args.workload])
    if args.workload == "all":
        return run_all(args)
    rec = run_workload(make_workloads()[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    save_record(rec)
    print_report(rec)
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
