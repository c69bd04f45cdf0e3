"""Outside-in tracer for the aclaw layers.

The tracer wraps library functions from outside the package: nothing in
``src/aclaw`` knows it is being traced.  Python binds names at import, so a
function defined in ``freelaw`` is also reachable as ``locallaw.m_ac`` and
``sdcore.m_ac``.  ``install`` therefore captures each original function object
first and then replaces it in every loaded ``aclaw`` module namespace that
holds that same object; patching only the defining module would miss every
call made through an import-time binding.  Methods are wrapped on their class.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, OP = range(5)
PACKAGE = "aclaw"


@dataclass(frozen=True)
class Target:
    """One traced function: ``span`` is the reported name,
    ``module``/``attr`` locate the original (``attr`` may be
    ``Class.method``), ``measure`` maps the call arguments to a byte count
    added to ``counter``, and ``outermost_only`` records only the outermost
    of recursive calls."""

    span: str
    module: str
    attr: str
    counter: str | None = None
    measure: Callable | None = None
    outermost_only: bool = False


def _resolvent_bytes(lin, *args, **kwargs) -> int:
    # computed, not measured: one dense complex128 3N x 3N matrix per call
    return 9 * lin.n * lin.n * 16


def _report_bytes(path, text, *args, **kwargs) -> int:
    return len(text.encode("ascii"))


TARGETS = (
    Target("wigner.sample_pair", "wigner", "sample_pair"),
    Target("wigner.spectral_norm", "wigner", "spectral_norm"),
    Target("linearize.build_linearization", "linearize", "build_linearization"),
    Target("linearize.generalized_resolvent", "linearize", "generalized_resolvent",
           counter="linearize.resolvent_bytes", measure=_resolvent_bytes),
    Target("linearize.resolvent_stats", "linearize", "resolvent_stats"),
    Target("linearize.fluctuation_sup", "linearize", "fluctuation_sup"),
    Target("linearize.spectrum_eigh", "linearize", "AnticommutatorSpectrum.from_pair"),
    Target("linearize.resolvent_diag", "linearize", "AnticommutatorSpectrum.resolvent_diag"),
    Target("freelaw.m_ac", "freelaw", "m_ac"),
    Target("freelaw.edge_distance", "freelaw", "edge_distance"),
    Target("sdcore.sd_solution_ac", "sdcore", "sd_solution_ac"),
    Target("sdcore.sd_semicircle", "sdcore", "sd_semicircle"),
    Target("locallaw.sigma_solve", "locallaw", "sigma_solve"),
    Target("locallaw.semicircle_stats", "locallaw", "semicircle_stats"),
    Target("locallaw.verify_local_law", "locallaw", "verify_local_law"),
    Target("locallaw.scaling_law_study", "locallaw", "scaling_law_study"),
    Target("locallaw.construct_k", "locallaw", "construct_k"),
    Target("locallaw.empirical_k", "locallaw", "empirical_k"),
    Target("locallaw.delocalization_check", "locallaw", "delocalization_check"),
    Target("locallaw.semicircle_locallaw", "locallaw", "semicircle_locallaw"),
    Target("cli.dump_json", "cli", "dump_json", outermost_only=True),
    Target("cli.atomic_write", "cli", "atomic_write",
           counter="cli.report_bytes", measure=_report_bytes),
)

COUNTERS = tuple(t.counter for t in TARGETS if t.counter)


class Tracer:
    """Installs span-recording wrappers around ``TARGETS`` and keeps the
    spans and byte counters of every traced operation in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[int, str], int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, counters, open_names = (self.spans, self._stack,
                                              self.counters, self._open)
        name, clock = target.span, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.outermost_only and name in open_names:
                return fn(*args, **kwargs)
            if target.measure is not None:
                key = (self.op, target.counter)
                counters[key] = counters.get(key, 0) + target.measure(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            if target.outermost_only:
                open_names.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if target.outermost_only:
                    open_names.discard(name)

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for target in TARGETS:
            home = sys.modules[f"{PACKAGE}.{target.module}"]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(target, raw.__func__))
                else:
                    new = self._wrap(target, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(home, target.attr)
            wrapped = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def trace(self, op: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` as operation ``op`` with the wrappers installed."""
        self.op = op
        self.install()
        try:
            return fn(*args, **kwargs)
        finally:
            self.uninstall()
            self.op = -1

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per operation: ``<span>.calls`` and ``<span>.self_s`` for every
        target (zero when not called), the byte counters, and
        ``covered_s``, the time spent inside any root span."""
        ops = sorted({s[OP] for s in self.spans} | {op for op, _ in self.counters})
        out = {}
        for op in ops:
            row = {}
            for t in TARGETS:
                row[f"{t.span}.calls"] = 0
                row[f"{t.span}.self_s"] = 0.0
            for c in COUNTERS:
                row[c] = self.counters.get((op, c), 0)
            row["covered_s"] = 0.0
            out[op] = row
        for s, own in zip(self.spans, self.self_times()):
            row = out[s[OP]]
            row[f"{s[NAME]}.calls"] += 1
            row[f"{s[NAME]}.self_s"] += own
            if s[PARENT] < 0:
                row["covered_s"] += s[END] - s[START]
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines:
        name, start, end, parent index, operation."""
        with open(path, "w", encoding="ascii") as f:
            f.write("name\tstart\tend\tparent\top\n")
            for s in self.spans:
                f.write(f"{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t{s[OP]}\n")
