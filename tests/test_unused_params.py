"""Guard against options that no caller uses or varies.

Every defaulted parameter of a function in ``src/aclaw`` must be passed, by
keyword or by position, at some call site in ``src/`` or a root file of the
reachability guard (``test_reachability.ROOT_FILES``: the benchmark's
``workloads.py``, ``run.py`` and ``tracer.py``, and
``tests/test_acceptance.py``), and some call in ``src/`` or
``tests/test_acceptance.py`` must pass it as something other than its
default's literal, unless ``perfbench/`` (the benchmark's fixed interface)
passes it.  A parameter whose default is None must also be left at that
default, by omitting it or passing the literal None, by some call in those
files: a None default selects a branch, and a branch that only unit tests
take is a fork to delete.  Calls in the unit tests do not count, and
``perfbench/test_perfbench.py`` is one: a value that only a unit
test varies, like one that no caller varies, belongs in a constant or a
literal, not in a signature.  Call sites are
matched by the callee's name (``f(...)`` or ``obj.f(...)``; ``Cls(...)``
counts for ``Cls.__init__``), so a same-named function elsewhere can only
hide a parameter, never flag one.

    python tests/test_unused_params.py    # list the parameters it flags
"""

import ast
import os

from test_reachability import ROOT_FILES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the files or directories whose calls count: the package and the
#: reachability guard's root files outside it (the benchmark's interface
#: files and the acceptance criteria; not the benchmark's own unit test)
CALLERS = ("src", *(rel for rel in ROOT_FILES if not rel.startswith("src" + os.sep)))
INTERFACE_DIR = "perfbench"

#: a value the guard cannot read: a ``*``/``**`` splat that may pass the
#: parameter, or an expression that is not a literal
_UNKNOWN = object()


def _parsed(top):
    """(path relative to the root, module tree) of every .py file under top,
    or of top itself when it is a file."""
    path = os.path.join(ROOT, top)
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            yield top, ast.parse(f.read(), path)
        return
    for dirpath, _, names in os.walk(path):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, ROOT), ast.parse(f.read(), path)


def _defaulted(tree):
    """(callee name, line, parameter, positional index at a call or None,
    default expression) for every defaulted parameter of every def in the
    module, nested ones included; ``__init__`` is named after its class, and
    a method's index skips its ``self``/``cls``."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            skip = 1 if cls is not None and not static else 0
            name = cls.name if cls is not None and child.name == "__init__" else child.name
            args = child.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out.extend((name, child.lineno, a.arg, i - skip, d)
                       for i, (a, d) in enumerate(zip(positional[first:], args.defaults),
                                                  start=first))
            out.extend((name, child.lineno, a.arg, None, d)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, None)

    visit(tree, None)
    return out


def _call_sites(trees):
    """callee name -> the ``ast.Call`` nodes that call it."""
    sites = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                sites.setdefault(func.id, []).append(node)
            elif isinstance(func, ast.Attribute):
                sites.setdefault(func.attr, []).append(node)
    return sites


def _argument(call, param, index):
    """The expression ``call`` passes for ``param`` (by keyword, or at
    positional ``index``), ``_UNKNOWN`` when a splat may pass it, or None."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if index is not None:
        for i, a in enumerate(call.args):
            if isinstance(a, ast.Starred):
                return _UNKNOWN
            if i == index:
                return a
    return _UNKNOWN if any(k.arg is None for k in call.keywords) else None


def _literal(node):
    """The value of a literal expression, else ``_UNKNOWN``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _UNKNOWN


def _passed(sites, name, param, index):
    """Every expression the calls of ``name`` pass for ``param``."""
    args = (_argument(call, param, index) for call in sites.get(name, ()))
    return [a for a in args if a is not None]


def unused_defaulted(defining, calling):
    """``file:line name(param=)`` for each defaulted parameter defined in the
    (path, tree) pairs ``defining`` that no call in ``calling`` passes."""
    sites = _call_sites(calling)
    return [f"{rel}:{line} {name}({param}=)"
            for rel, tree in defining
            for name, line, param, index, _ in _defaulted(tree)
            if not _passed(sites, name, param, index)]


def default_only(defining, calling, interface):
    """``file:line name(param=)`` for each defaulted parameter that some call
    in ``calling`` passes, every one of them as its default's literal value,
    and that no call in ``interface`` passes."""
    sites, fixed = _call_sites(calling), _call_sites(interface)
    flagged = []
    for rel, tree in defining:
        for name, line, param, index, default in _defaulted(tree):
            value = _literal(default)
            passed = _passed(sites, name, param, index)
            if (value is not _UNKNOWN and passed
                    and all(a is not _UNKNOWN and _literal(a) == value for a in passed)
                    and not _passed(fixed, name, param, index)):
                flagged.append(f"{rel}:{line} {name}({param}=)")
    return flagged


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def none_untaken(defining, calling):
    """``file:line name(param=)`` for each parameter defaulting to None that
    no call in ``calling`` leaves at None: every call passes an expression
    other than the literal None (a splat may leave it, so it counts)."""
    sites = _call_sites(calling)
    flagged = []
    for rel, tree in defining:
        for name, line, param, index, default in _defaulted(tree):
            if not _is_none(default):
                continue
            args = (_argument(call, param, index) for call in sites.get(name, ()))
            if not any(a is None or a is _UNKNOWN or _is_none(a) for a in args):
                flagged.append(f"{rel}:{line} {name}({param}=)")
    return flagged


def counted(files, tops):
    """The trees of the (path, tree) pairs ``files`` that lie in one of the
    files or directories ``tops``."""
    return [tree for rel, tree in files
            if any(rel == top or rel.startswith(top + os.sep) for top in tops)]


def package_guards(files=None, defining=None):
    """(unused, default-only, None-untaken) parameters of ``defining``
    (default the package) for the calls in ``files`` (default every .py
    file of ``CALLERS``): only calls in ``CALLERS`` count, and calls in
    ``INTERFACE_DIR`` exempt a parameter from the default-only rule."""
    if files is None:
        files = [pair for top in CALLERS for pair in _parsed(top)]
    if defining is None:
        defining = list(_parsed(os.path.join("src", "aclaw")))
    varying = [top for top in CALLERS if top != INTERFACE_DIR]
    callers = counted(files, CALLERS)
    return (unused_defaulted(defining, callers),
            default_only(defining, counted(files, varying),
                         counted(files, [INTERFACE_DIR])),
            none_untaken(defining, callers))


def package_unused():
    return package_guards()[0]


def package_default_only():
    return package_guards()[1]


def package_none_untaken():
    return package_guards()[2]


def test_every_defaulted_parameter_is_passed_somewhere():
    unused = package_unused()
    assert not unused, "defaulted parameters that no call passes:\n" + "\n".join(unused)


def test_every_passed_parameter_is_varied_somewhere():
    fixed = package_default_only()
    assert not fixed, ("defaulted parameters that every call passes as the "
                       "default:\n" + "\n".join(fixed))


def test_every_none_default_is_taken_somewhere():
    untaken = package_none_untaken()
    assert not untaken, ("None defaults that no command, benchmark or criterion "
                         "call leaves at None:\n" + "\n".join(untaken))


def test_guard_matches_keyword_position_splat_and_constructor():
    defs = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "class K:\n    def __init__(self, u=5, w=6):\n        pass\n"
        "    def m(self, p=7):\n        pass\n")
    calls = ast.parse("f(0, 1, d=2)\ng(**opts)\nK(1)\nobj.m()\n")
    assert unused_defaulted([("mod.py", defs)], [calls]) == [
        "mod.py:1 f(c=)", "mod.py:1 f(e=)", "mod.py:6 K(w=)", "mod.py:8 m(p=)"]


def test_default_only_guard_reads_literals_splats_and_interface():
    defs = ast.parse(
        "def f(a, b=1, c=2.0, *, d='x', e=None, q=-1):\n    pass\n"
        "def g(x=0, y=(1, 2)):\n    pass\n"
        "def h(w=3):\n    pass\n")
    calls = ast.parse("f(0, 1, c=2, d='y', q=-1)\nf(0, b=1, e=None)\n"
                      "g(x=0, y=(1, 2))\ng(y=k)\nh(*ws)\nh(w=3)\n")
    interface = ast.parse("g(x=0)\n")
    assert default_only([("mod.py", defs)], [calls], [interface]) == [
        "mod.py:1 f(b=)", "mod.py:1 f(c=)", "mod.py:1 f(e=)", "mod.py:1 f(q=)"]


def test_guard_counts_no_unit_test_call():
    # f(b=) and g(x=) are varied only by a unit test, h(y=) by a criterion
    defs = ast.parse("def f(a, b=1):\n    pass\n"
                     "def g(x=0):\n    pass\n"
                     "def h(y=0):\n    pass\n")
    files = [("src/aclaw/cli.py", ast.parse("f(0)\ng(x=0)\n")),
             ("tests/test_unit.py", ast.parse("f(0, b=2)\ng(x=1)\nh(y=0)\n")),
             ("tests/test_acceptance.py", ast.parse("h(y=2)\n"))]
    assert package_guards(files, [("mod.py", defs)]) == (
        ["mod.py:1 f(b=)"], ["mod.py:3 g(x=)"], [])


def test_none_guard_reads_omission_literal_none_and_splats():
    # a None default is taken by omitting it, passing None or a splat;
    # f(b=) and h(w=) are always given a value, k(v=) is never called, and a
    # unit test's call does not count
    defs = ast.parse(
        "def f(a, b=None, c=None, d=None, e=None):\n    pass\n"
        "def g(x=None, *, y=None):\n    pass\n"
        "def h(w=None):\n    pass\n"
        "def k(v=None):\n    pass\n"
        "def m(u=0):\n    pass\n")
    files = [("src/aclaw/cli.py",
              ast.parse("f(0, args.b, c=None)\nf(0, 1, d=k_)\ng(*xs)\ng(y=None)\n"
                        "h(w=args.w)\nm()\n")),
             ("perfbench/run.py", ast.parse("f(0, b=2, e=3, **opts)\n")),
             ("tests/test_unit.py", ast.parse("h()\n"))]
    assert package_guards(files, [("mod.py", defs)])[2] == [
        "mod.py:1 f(b=)", "mod.py:5 h(w=)", "mod.py:7 k(v=)"]


if __name__ == "__main__":
    print("\n".join(sum(package_guards(), [])))
