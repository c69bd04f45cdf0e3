"""Guard against options that no caller uses.

Every defaulted parameter of a function in ``src/aclaw`` must be passed, by
keyword or by position, at some call site in ``src/``, ``tests/`` or
``perfbench/``.  A value that no caller varies belongs in a constant or a
literal, not in a signature.  Call sites are matched by the callee's name
(``f(...)`` or ``obj.f(...)``; ``Cls(...)`` counts for ``Cls.__init__``), so a
same-named function elsewhere can only hide a parameter, never flag one.

    python tests/test_unused_params.py    # list the parameters it flags
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ("src", "tests", "perfbench")


def _parsed(top):
    """(path relative to the root, module tree) of every .py file under top."""
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, ROOT), ast.parse(f.read(), path)


def _defaulted(tree):
    """(callee name, line, parameter, positional index at a call or None)
    for every defaulted parameter of every def in the module, nested ones
    included; ``__init__`` is named after its class, and a method's index
    skips its ``self``/``cls``."""
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
            out.extend((name, child.lineno, a.arg, i - skip)
                       for i, a in enumerate(positional) if i >= first)
            out.extend((name, child.lineno, a.arg, None)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, None)

    visit(tree, None)
    return out


def _call_sites(trees):
    """callee name -> [(positional count, keyword names)]; a * splat counts
    as every position and a ** splat as every keyword (None)."""
    sites = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keys = [k.arg for k in node.keywords]
            sites.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in keys else set(keys)))
    return sites


def unused_defaulted(defining, calling):
    """``file:line name(param=)`` for each defaulted parameter defined in the
    (path, tree) pairs ``defining`` that no call in ``calling`` passes."""
    sites = _call_sites(calling)
    unused = []
    for rel, tree in defining:
        for name, line, param, index in _defaulted(tree):
            if not any(keys is None or param in keys
                       or (index is not None and n_pos > index)
                       for n_pos, keys in sites.get(name, ())):
                unused.append(f"{rel}:{line} {name}({param}=)")
    return unused


def package_unused():
    calling = [tree for top in CALLER_DIRS for _, tree in _parsed(top)]
    return unused_defaulted(_parsed(os.path.join("src", "aclaw")), calling)


def test_every_defaulted_parameter_is_passed_somewhere():
    unused = package_unused()
    assert not unused, "defaulted parameters that no call passes:\n" + "\n".join(unused)


def test_guard_matches_keyword_position_splat_and_constructor():
    defs = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "class K:\n    def __init__(self, u=5, w=6):\n        pass\n"
        "    def m(self, p=7):\n        pass\n")
    calls = ast.parse("f(0, 1, d=2)\ng(**opts)\nK(1)\nobj.m()\n")
    assert unused_defaulted([("mod.py", defs)], [calls]) == [
        "mod.py:1 f(c=)", "mod.py:1 f(e=)", "mod.py:6 K(w=)", "mod.py:8 m(p=)"]


if __name__ == "__main__":
    print("\n".join(package_unused()))
