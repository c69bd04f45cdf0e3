"""Guard against library definitions that no command or criterion reaches.

Every top-level ``def`` and ``class`` in ``src/aclaw``, and every method
defined in such a class body, must be reachable from a root: the CLI (every def in ``cli.py``), the benchmark's fixed
interface (``perfbench/workloads.py``, ``run.py`` and ``tracer.py``), the
acceptance criteria (``tests/test_acceptance.py``) or module-level code of
the package other than ``__all__``.  A definition reaches the names it
references.  Names are matched, not resolved: a ``Name``, an attribute, a
dotted identifier string such as a tracer target, or the original name of
an ``import ... as``, reaches every definition of that name in any module.
So the guard can miss an unreached definition but never flag a reached one.
A method is reached by its name alone, like a function: reaching its class
reaches the class's bases, decorators, attributes and dunder methods, not
its other methods.  Dunders (``__init__``, ``__getattr__``, ``__dir__``) are
exempt.  A function or method that only its own unit tests call is either
an oracle, which belongs in ``tests/``, or dead code.

Every field of a dataclass in ``src/aclaw`` must also be read as an
attribute (``obj.field`` in a load) by the same roots: a module of the
package or one of the root files, matched by name in the same way, except
that a read through ``args``, the name the CLI and the benchmark give their
argparse namespaces, does not count: ``args.tau`` reads an option, not a
report's ``tau``.  A field that is only ever written, or read only by unit
tests, is a value computed for nobody.  Because reads are matched by name,
a read of one dataclass's field keeps every same-named field of the others
(``test_field_guard_tells_receivers_apart`` records that blind spot).

    python tests/test_reachability.py    # list the definitions and fields it flags
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "aclaw")
ROOT_FILES = (
    os.path.join(PACKAGE, "cli.py"),
    os.path.join("perfbench", "workloads.py"),
    os.path.join("perfbench", "run.py"),
    os.path.join("perfbench", "tracer.py"),
    os.path.join("tests", "test_acceptance.py"),
)


def _parse(rel):
    path = os.path.join(ROOT, rel)
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def names_in(node):
    """Every name ``node`` references: identifiers, attributes, the parts of
    dotted identifier strings, and the originals of renamed imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias) and sub.asname is not None:
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def _is_all(stmt):
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _class_names(cls):
    """The names a class references outside its non-dunder methods, and
    those methods."""
    own, methods = set(), []
    for part in cls.bases + cls.keywords + cls.decorator_list:
        own |= names_in(part)
    for stmt in cls.body:
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_dunder(stmt.name)):
            methods.append(stmt)
        else:
            own |= names_in(stmt)
    return own, methods


def unreached(modules, roots):
    """``file:line name`` for each top-level def or class, or method of such
    a class, of the (path, tree) pairs ``modules`` that the root trees
    ``roots`` do not reach.  Module-level statements of ``modules`` other than
    defs, classes and ``__all__`` are roots too."""
    defs = {}  # name -> [(path, line, names the definition references)]
    frontier = set()
    for tree in roots:
        frontier |= names_in(tree)
    for rel, tree in modules:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                own, methods = _class_names(stmt)
                defs.setdefault(stmt.name, []).append((rel, stmt.lineno, own))
                for meth in methods:
                    defs.setdefault(meth.name, []).append(
                        (rel, meth.lineno, names_in(meth)))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(stmt.name, []).append(
                    (rel, stmt.lineno, names_in(stmt)))
            elif not _is_all(stmt):
                frontier |= names_in(stmt)
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, _, names in defs.get(name, ()):
            frontier |= names - reached
    flagged = sorted((rel, line, name) for name, sites in defs.items()
                     if name not in reached and not _is_dunder(name)
                     for rel, line, _ in sites)
    return [f"{rel}:{line} {name}" for rel, line, name in flagged]


def _package_modules():
    package = os.path.join(ROOT, PACKAGE)
    return [(os.path.join(PACKAGE, name), _parse(os.path.join(PACKAGE, name)))
            for name in sorted(os.listdir(package)) if name.endswith(".py")]


def _root_trees():
    return [_parse(rel) for rel in ROOT_FILES]


def package_unreached():
    return unreached(_package_modules(), _root_trees())


def _is_dataclass(cls):
    """Decorated ``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    targets = (dec.func if isinstance(dec, ast.Call) else dec
               for dec in cls.decorator_list)
    return any(getattr(t, "attr", getattr(t, "id", None)) == "dataclass"
               for t in targets)


#: the receiver that names an argparse namespace, never a dataclass
NAMESPACE = "args"


def attribute_reads(trees):
    """The names read as attributes (``obj.name`` in a load) in ``trees``,
    other than through ``NAMESPACE``."""
    return {sub.attr for tree in trees for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            and not (isinstance(sub.value, ast.Name) and sub.value.id == NAMESPACE)}


def unread_fields(modules, roots):
    """``file:line Class.field`` for each field of a dataclass in the (path,
    tree) pairs ``modules`` whose name neither ``modules`` nor the root trees
    ``roots`` read as an attribute."""
    reads = attribute_reads([tree for _, tree in modules] + list(roots))
    flagged = []
    for rel, tree in modules:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in reads):
                    flagged.append(f"{rel}:{stmt.lineno} {cls.name}.{stmt.target.id}")
    return flagged


def package_unread_fields():
    return unread_fields(_package_modules(), _root_trees())


def test_every_definition_is_reached_from_a_command_or_criterion():
    flagged = package_unreached()
    assert not flagged, ("definitions that no CLI handler, benchmark workload "
                         "or acceptance criterion reaches:\n" + "\n".join(flagged))


def test_guard_follows_names_strings_and_module_code():
    mod = ast.parse(
        "__all__ = ['dead']\n"
        "LIMIT = helper_const()\n"
        "def helper_const():\n    return 1\n"
        "def used():\n    return _inner()\n"
        "def _inner():\n    return Report()\n"
        "class Report:\n    pass\n"
        "def traced():\n    pass\n"
        "def renamed():\n    pass\n"
        "def dead():\n    return used()\n"
        "def __getattr__(name):\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = _init_helper()\n"
        "    def size(self):\n        return _size_helper()\n"
        "    @classmethod\n"
        "    def unused(cls):\n        return _unused_helper()\n"
        "def _init_helper():\n    pass\n"
        "def _size_helper():\n    pass\n"
        "def _unused_helper():\n    pass\n")
    roots = ast.parse(
        "import mod\n"
        "from mod import renamed as alias\n"
        "mod.used()\n"
        "TARGET = 'mod.traced'\n"
        "mod.Box().size()\n")
    assert unreached([("mod.py", mod)], [roots]) == [
        "mod.py:15 dead", "mod.py:25 unused", "mod.py:31 _unused_helper"]


def test_every_dataclass_field_is_read():
    flagged = package_unread_fields()
    assert not flagged, ("dataclass fields that no CLI handler, benchmark "
                         "workload, acceptance criterion or package module "
                         "reads as an attribute:\n" + "\n".join(flagged))


def test_field_guard_counts_only_attribute_loads():
    mod = ast.parse(
        "from dataclasses import dataclass, field\n"
        "import dataclasses\n"
        "@dataclass\n"
        "class Report:\n"
        "    value: float\n"
        "    written: float\n"
        "    named: float\n"
        "    extra: list = field(default_factory=list)\n"
        "    tau: float\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    kept: int\n"
        "    unread: int\n"
        "class Plain:\n"
        "    ignored: int\n")
    readers = ast.parse(
        "rep = Report(value=1.0, written=2.0, named=3.0, tau=args.tau)\n"
        "rep.written = 4.0\n"
        "named = 'named'\n"
        "print(rep.value, rep.extra, Frozen(1, 2).kept)\n")
    assert unread_fields([("mod.py", mod)], [readers]) == [
        "mod.py:6 Report.written", "mod.py:7 Report.named", "mod.py:9 Report.tau",
        "mod.py:13 Frozen.unread"]


def test_field_guard_reads_from_the_roots_only():
    # a read in a package module or in a root file keeps a field; a read in
    # a unit test, which is no root, does not
    mod = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Report:\n"
        "    in_module: float\n"
        "    in_root: float\n"
        "    in_unit_test: float\n"
        "def total(rep):\n    return rep.in_module\n")
    root = ast.parse("print(mod.Report(1.0, 2.0, 3.0).in_root)\n")
    unit_test = ast.parse("assert mod.Report(1.0, 2.0, 3.0).in_unit_test == 3.0\n")
    assert unread_fields([("mod.py", mod)], [root]) == ["mod.py:6 Report.in_unit_test"]
    assert unread_fields([("mod.py", mod)], [root, unit_test]) == []


@pytest.mark.xfail(strict=True, reason="fields are matched by name, not by receiver")
def test_field_guard_tells_receivers_apart():
    # Point.z is read and Verdict.z is not, but one read of the name keeps both
    mod = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Point:\n"
        "    z: complex\n"
        "@dataclass\n"
        "class Verdict:\n"
        "    z: complex\n")
    root = ast.parse("print(mod.Point(1j).z, mod.Verdict(2j))\n")
    assert unread_fields([("mod.py", mod)], [root]) == ["mod.py:7 Verdict.z"]


if __name__ == "__main__":
    for line in package_unreached() + package_unread_fields():
        print(line)
