"""The benchmark's workloads and its reference-output check.

Each workload is one complete user operation, run on one input drawn from a
fixed pool of pair seeds.  The workload seed only chooses the order in which
the pool is visited, so every operation of every run has a reference output
recorded in ``refs/`` at the commit that defined the benchmark.

Reference comparison (``compare``): floats agree when
``|out - ref| <= FLOAT_ATOL + FLOAT_RTOL * |ref|``; booleans (verdict and
``admissible`` flags), integers, strings, nulls and the shape of the report
must match exactly, and so must the exit code.  The package version string
in ``config.version`` is not compared.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

FLOAT_RTOL = 1e-8
FLOAT_ATOL = 1e-10
IGNORED = frozenset({"$.config.version"})

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")


@dataclass(frozen=True)
class Workload:
    """``run(key, out_dir)`` performs one operation on pool input ``key``
    and returns its exit code and the exact bytes of its report."""

    name: str
    pool: tuple[int, ...]
    run: Callable[[int, str], tuple[int, bytes]]

    def inputs(self, seed: int, count: int) -> list[int]:
        """The pool keys of a run's first ``count`` operations: a seeded
        shuffle of the pool, cycled."""
        order = random.Random(seed).sample(self.pool, len(self.pool))
        return [order[i % len(order)] for i in range(count)]


def _cli_op(command: str, n: int) -> Callable[[int, str], tuple[int, bytes]]:
    def run(key: int, out_dir: str) -> tuple[int, bytes]:
        from aclaw.cli import main

        path = os.path.join(out_dir, f"{command}-n{n}-{key}.json")
        code = main([command, "--N", str(n), "--seed", str(key), "--out", path])
        with open(path, "rb") as f:
            return code, f.read()

    return run


def _scaling_op(n_list: tuple[int, ...], seeds_per_op: int):
    def run(key: int, out_dir: str) -> tuple[int, bytes]:
        from aclaw.cli import dump_json
        from aclaw.locallaw import scaling_law_study

        seeds = [seeds_per_op * key + j for j in range(seeds_per_op)]
        rep = scaling_law_study(n_list=n_list, seeds=seeds, k_spacing=4.0)
        out = {"n_list": rep.n_list, "seeds": seeds, "slope": rep.slope,
               "slope_is_flat": rep.slope_is_flat,
               "median_means": rep.median_means, "k_by_run": rep.k_by_run,
               "theta_star_by_run": rep.theta_star_by_run}
        return 0, (dump_json(out) + "\n").encode("ascii")

    return run


def make_workloads(small: bool = False) -> dict[str, Workload]:
    """The four benchmark workloads.  ``small`` keeps every operation path
    but shrinks N and the pool, for the benchmark's self-test."""
    if small:
        pool = (0, 1)
        ops = {
            "verify-n128": _cli_op("verify", 16),
            "scaling-n64-256": _scaling_op((16, 32), 2),
            "deloc-n1024": _cli_op("deloc", 32),
            "semicircle-n256": _cli_op("semicircle", 32),
        }
    else:
        pool = tuple(range(6))
        ops = {
            "verify-n128": _cli_op("verify", 128),
            "scaling-n64-256": _scaling_op((64, 128, 256), 2),
            "deloc-n1024": _cli_op("deloc", 1024),
            "semicircle-n256": _cli_op("semicircle", 256),
        }
    return {name: Workload(name, pool, run) for name, run in ops.items()}


# ---------------------------------------------------------------------------
# reference outputs


def ref_path(refs_dir: str, workload: str, key: int) -> str:
    return os.path.join(refs_dir, workload, f"{key}.json.gz")


def write_ref(refs_dir: str, workload: str, key: int, code: int, report: bytes) -> None:
    path = ref_path(refs_dir, workload, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    body = json.dumps({"exit_code": code, "report": json.loads(report)},
                      indent=1) + "\n"
    with open(path, "wb") as f:
        f.write(gzip.compress(body.encode("ascii"), mtime=0))


def read_ref(refs_dir: str, workload: str, key: int) -> dict:
    with open(ref_path(refs_dir, workload, key), "rb") as f:
        return json.loads(gzip.decompress(f.read()))


def compare(ref, out, path: str = "$") -> list[str]:
    """Paths at which ``out`` disagrees with ``ref`` (empty when they
    agree within the float tolerance)."""
    if path in IGNORED:
        return []
    if isinstance(ref, bool) or isinstance(out, bool):
        return [] if ref is out else [path]
    if isinstance(ref, float) or isinstance(out, float):
        if not (isinstance(ref, (int, float)) and isinstance(out, (int, float))):
            return [path]
        if math.isfinite(ref) and math.isfinite(out):
            ok = abs(out - ref) <= FLOAT_ATOL + FLOAT_RTOL * abs(ref)
        else:
            ok = ref == out
        return [] if ok else [path]
    if isinstance(ref, dict) and isinstance(out, dict):
        if list(ref) != list(out):
            return [path]
        bad = []
        for k in ref:
            bad += compare(ref[k], out[k], f"{path}.{k}")
        return bad
    if isinstance(ref, list) and isinstance(out, list):
        if len(ref) != len(out):
            return [path]
        bad = []
        for i, (r, o) in enumerate(zip(ref, out)):
            bad += compare(r, o, f"{path}[{i}]")
        return bad
    return [] if type(ref) is type(out) and ref == out else [path]
