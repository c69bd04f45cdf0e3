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

    python tests/test_reachability.py    # list the definitions it flags
"""

import ast
import os

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


def package_unreached():
    package = os.path.join(ROOT, PACKAGE)
    modules = [(os.path.join(PACKAGE, name), _parse(os.path.join(PACKAGE, name)))
               for name in sorted(os.listdir(package)) if name.endswith(".py")]
    return unreached(modules, [_parse(rel) for rel in ROOT_FILES])


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


if __name__ == "__main__":
    print("\n".join(package_unreached()))
