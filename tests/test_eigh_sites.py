"""One diagonalization per pair, one constructor per eigen driver.

A dense Hermitian eigendecomposition (``numpy.linalg.eigh`` or
``scipy.linalg.eigh``) may run in ``src/aclaw`` only inside the two
constructors of ``linearize.AnticommutatorSpectrum``, so every path reads
its eigenbasis, and certifies it, through that one type.  ``eigvalsh``
(``wigner.spectral_norm``) forms no eigenvectors and stays allowed.

The guard reads the source: any reference to ``eigh`` through a ``linalg``
module (``np.linalg.eigh``, ``scipy.linalg.eigh``, an alias of either
module) or a name imported as ``eigh`` from one counts, called or not.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "aclaw"

CONSTRUCTORS = {"AnticommutatorSpectrum.from_hermitian", "AnticommutatorSpectrum.from_pair"}


def eigh_sites(source: str) -> list:
    """The dotted name of the definition enclosing each ``eigh`` reference
    in ``source`` (``<module>`` at module level), in source order."""
    tree = ast.parse(source)
    modules, names = {"linalg"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names
                        if a.asname and a.name.endswith(".linalg")}
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                if node.module.endswith("linalg") and a.name == "eigh":
                    names.add(a.asname or a.name)
                elif a.name == "linalg":
                    modules.add(a.asname or a.name)

    def is_module(node):
        return ((isinstance(node, ast.Name) and node.id in modules)
                or (isinstance(node, ast.Attribute) and node.attr == "linalg"))

    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if ((isinstance(child, ast.Attribute) and child.attr == "eigh"
                 and is_module(child.value))
                    or (isinstance(child, ast.Name) and child.id in names)):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return sites


def test_eigh_runs_only_in_the_spectrum_constructors():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for site in eigh_sites(path.read_text()):
            found.setdefault(f"{path.stem}.{site}", 0)
            found[f"{path.stem}.{site}"] += 1
    # each constructor runs its one driver, and nothing else runs one
    assert found == {f"linearize.{name}": 1 for name in CONSTRUCTORS}


def test_guard_flags_every_other_eigh_site():
    source = '''
import numpy as np
import numpy.linalg as nla
import scipy.linalg
from numpy.linalg import eigh as dsyevd
from scipy import linalg as sla


def semicircle_eigenbasis(x, eta):
    lam, q = np.linalg.eigh(x)
    return lam, q.real**2 + q.imag**2


class Screen:
    def eigenbasis(self, x):
        return nla.eigh(x), sla.eigh(x), scipy.linalg.eigh(x)


solver = dsyevd


def spectral_norm(x):
    return float(np.abs(np.linalg.eigvalsh(x)).max())
'''
    assert eigh_sites(source) == ["semicircle_eigenbasis", "Screen.eigenbasis",
                                  "Screen.eigenbasis", "Screen.eigenbasis", "<module>"]
