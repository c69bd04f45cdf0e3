"""Numerics for the limiting spectral law of {UV} = UV + VU for independent
Wigner matrices: the limiting Stieltjes transform and its algebra, the
Schwinger-Dyson machinery over 3x3 matrices, self-adjoint linearizations and
their generalized resolvents, Wigner-pair sampling, and verification harnesses
for the local law, delocalization and the moment/tail toolbox.

Submodules load on first attribute access (PEP 562), so ``import aclaw.cli``
loads neither numpy nor scipy and the CLI can pin the BLAS thread count
before numpy starts."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("freelaw", "sdcore", "wigner", "linearize", "locallaw", "tails")

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_SUBMODULES])
