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
package or one of the root files.  A read through ``args``, the name the
CLI and the benchmark give their argparse namespaces, does not count:
``args.tau`` reads an option, not a report's ``tau``.  A read whose receiver
resolves to one dataclass counts for that class alone: a constructor call
``Cls(...)``, a call to a function annotated ``-> Cls``, a name that its
function binds only from such calls, a parameter annotated ``Cls``, or
``self`` in a method of ``Cls``.  Any other receiver matches by name, and
keeps every field of that name, so the guard can miss an unread field, and
flags a read one only through a wrong annotation.  A field that is only ever written, or read only by
unit tests, is a value computed for nobody.

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

#: the nodes that open a scope: a name bound in one is that scope's own
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _type_name(node):
    """The class that an annotation or a callee names (``Cls``, ``mod.Cls``
    or the string ``"Cls"``), or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    return getattr(node, "attr", getattr(node, "id", None))


def _walk_scope(scope):
    """(nodes, scopes): the nodes that run in the scope that ``scope`` (a
    module, function, lambda or class) opens, and the scopes nested in it,
    whose decorators, defaults and bases run in ``scope``."""
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    nodes, scopes, stack = [], [], list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, SCOPES):
            scopes.append(node)
            stack += getattr(node, "decorator_list", []) + getattr(node, "bases", [])
            stack += [kw.value for kw in getattr(node, "keywords", [])]
            if not isinstance(node, ast.ClassDef):
                stack += [d for d in node.args.defaults + node.args.kw_defaults if d]
        else:
            nodes.append(node)
            stack += ast.iter_child_nodes(node)
    return nodes, scopes


def _returns(trees, classes):
    """Function name -> Cls for each name whose every definition in
    ``trees`` is annotated ``-> Cls``, Cls one of ``classes``."""
    seen = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seen.setdefault(node.name, set()).add(_type_name(node.returns))
    return {name: cls for name, (cls, *more) in seen.items()
            if not more and cls in classes}


class _Receivers:
    """Resolves the receiver of an attribute read to one of ``classes``,
    or to None where it cannot tell."""

    def __init__(self, classes, trees):
        self.classes, self.returns = classes, _returns(trees, classes)

    def call_type(self, node):
        """The class of a constructor call ``Cls(...)`` or ``mod.Cls(...)``,
        or of a call to a function annotated ``-> Cls``."""
        if not isinstance(node, ast.Call):
            return None
        name = _type_name(node.func)
        return name if name in self.classes else self.returns.get(name)

    def bindings(self, scope, self_cls):
        """Name -> Cls for each name whose every binding in ``scope``, the
        scopes nested in it included, is an assignment ``name = <call of
        Cls>``, a parameter of ``scope`` annotated Cls, or ``self`` in a
        method of Cls (``self_cls``).  Any other binding, an unpacking, a
        loop variable, an import or a nested scope's parameter, leaves the
        name unresolved."""
        kinds, typed = {}, set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
            for i, arg in enumerate(params):
                typed.add(id(arg))
                cls = self_cls if i == 0 and arg.arg == "self" else None
                kinds.setdefault(arg.arg, set()).add(cls or _type_name(arg.annotation))
        for node in ast.walk(scope):
            name, cls = None, None
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                typed.add(id(node.targets[0]))
                name, cls = node.targets[0].id, self.call_type(node.value)
            elif id(node) in typed:
                continue
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.arg):
                name = node.arg
            elif isinstance(node, ast.alias):
                name = (node.asname or node.name).split(".")[0]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                   ast.ExceptHandler, ast.MatchAs, ast.MatchStar)):
                name = None if node is scope else node.name
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                for bound in node.names:
                    kinds.setdefault(bound, set()).add(None)
            if name is not None:
                kinds.setdefault(name, set()).add(cls)
        return {name: cls for name, (cls, *more) in kinds.items()
                if not more and cls in self.classes}

    def reads(self, scope, out, self_cls=None):
        """Add (Cls or None, name) to ``out`` for every attribute load in
        ``scope`` and the scopes nested in it, other than through
        ``NAMESPACE``."""
        env = self.bindings(scope, self_cls)
        nodes, scopes = _walk_scope(scope)
        for node in nodes:
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            recv = node.value
            if isinstance(recv, ast.Name):
                if recv.id != NAMESPACE:
                    out.add((env.get(recv.id), node.attr))
            else:
                out.add((self.call_type(recv), node.attr))
        owner = scope.name if isinstance(scope, ast.ClassDef) else None
        for sub in scopes:
            self.reads(sub, out, owner if owner in self.classes else None)
        return out


def _dataclasses(modules):
    """The names of the dataclasses in the (path, tree) pairs ``modules``
    that neither subclass nor are subclassed, so that a read through one of
    them reads that class's own field."""
    trees = [tree for _, tree in modules]
    bases = {_type_name(base) for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for base in node.bases}
    return {cls.name for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            and not cls.bases and cls.name not in bases}


def attribute_reads(trees, classes=frozenset()):
    """(Cls, name) for each attribute read (``obj.name`` in a load) in
    ``trees``, other than through ``NAMESPACE``: Cls is the class of
    ``classes`` that the receiver resolves to (``_Receivers``), or None,
    which matches the field of that name in every class."""
    receivers, out = _Receivers(classes, trees), set()
    for tree in trees:
        receivers.reads(tree, out)
    return out


def unread_fields(modules, roots):
    """``file:line Class.field`` for each field of a dataclass in the (path,
    tree) pairs ``modules`` that neither ``modules`` nor the root trees
    ``roots`` read as an attribute, through a receiver of its class or one
    that resolves to no class."""
    classes = _dataclasses(modules)
    reads = attribute_reads([tree for _, tree in modules] + list(roots), classes)
    flagged = []
    for rel, tree in modules:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and not {(None, stmt.target.id), (cls.name, stmt.target.id)} & reads):
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


def test_field_guard_resolves_each_kind_of_receiver():
    fields = ["ctor", "bound", "made", "param", "own", "rebound", "loose"]
    mod = ast.parse("\n".join(
        ["from dataclasses import dataclass",
         "@dataclass", "class A:", *(f"    {f}: int" for f in fields),        # 4-10
         "@dataclass", "class B:", *(f"    {f}: int" for f in fields),        # 13-19
         "    def total(self):", "        return self.own",
         "def make() -> A:", "    return A(*range(7))"]) + "\n")
    root = ast.parse(
        "print(mod.A(*range(7)).ctor)\n"
        "def use(p: A, loose):\n"
        "    q = A(*range(7))\n"
        "    r = mod.make()\n"
        "    s = A(*range(7))\n"
        "    s = loose\n"
        "    print(q.bound, r.made, p.param, s.rebound, loose.loose)\n")
    # each resolved read keeps its own class's field; an unresolved receiver
    # (s is rebound, loose is unannotated) keeps the field in both classes
    assert unread_fields([("mod.py", mod)], [root]) == [
        "mod.py:8 A.own", "mod.py:13 B.ctor", "mod.py:14 B.bound", "mod.py:15 B.made",
        "mod.py:16 B.param"]


if __name__ == "__main__":
    for line in package_unreached() + package_unread_fields():
        print(line)
