"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` looks each ``Target`` up with ``getattr`` when it is
installed, so renaming or deleting a traced function breaks every traced
benchmark run.  The benchmark's own self-test is not part of this suite;
this test loads the tracer by path and resolves each target.
"""

import importlib
import importlib.util
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up there
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: t.span)
def test_tracer_target_resolves(target):
    obj = importlib.import_module(f"aclaw.{target.module}")
    for part in target.attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
