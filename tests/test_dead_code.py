"""Guard against dead code in the package.

Only the package counts as a caller: a name that only tests reach belongs
in the tests.  A module of src/rbgroups may not import a name it never
uses.  A module-level name X of a module M is live when a top-level
statement of M that defines no name reads it, when a module of the
package refers to it as M.X or imports it from M (so every name
rbgroups/__init__.py re-exports is live), or when the definition of a
live name of M reads it.  A method of a class of the package is live when
the package reads it as an attribute, when it is a dunder, or when it
overrides an attribute of a class in its MRO (argparse.ArgumentParser.error,
say).  An optional parameter of a package function is live when a
package call passes it, by keyword or by position (a call of a class
counts for its __init__), when its function (or class) is re-exported by
__init__, or when its function is cli.main: a default that no caller
overrides is a constant.  A field of a NamedTuple of the package is live
when package code reads an attribute of that name on any object other
than argparse's `args` (the parsed options share names with fields).
All of this is read from the source, except the MRO.
"""

import ast
import importlib
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rbgroups"


def _trees():
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree):
    """Every name read in `tree`: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _defined(stmt):
    """The names a module-level statement defines: functions, classes and
    assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name) and not t.id.startswith("__"):
                yield t.id


def _package_references(trees):
    """(module, name) for every M.X attribute read in the package,
    rbgroups.M.X included, and every name imported from a module M."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.level == 1 or node.module.startswith("rbgroups."):
                    module = node.module.removeprefix("rbgroups.")
                    out |= {(module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute):
                value = node.value
                if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                    if value.value.id == "rbgroups":
                        out.add((value.attr, node.attr))
                elif isinstance(value, ast.Name) and value.id in trees:
                    out.add((value.id, node.attr))
    return out


def test_no_unused_imports():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":  # it imports to re-export
            continue
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{module}.py: {name}")
    assert not unused, unused


def test_every_method_is_referenced():
    trees = _trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    }
    dead = []
    for module, tree in trees.items():
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            bases = getattr(importlib.import_module(f"rbgroups.{module}"), cls.name).__mro__[1:]
            keep = read.union(*map(dir, bases))
            for m in (s for s in cls.body if isinstance(s, ast.FunctionDef)):
                if m.name not in keep and not m.name[:2] == m.name[-2:] == "__":
                    dead.append(f"{module}.py: {cls.name}.{m.name}")
    assert not dead, dead


def test_every_record_field_is_read():
    trees = _trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not isinstance(node.ctx, ast.Store)
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    }
    dead = []
    for module, tree in trees.items():
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            if any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases):
                fields = [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]
                dead += [f"{module}.py: {cls.name}.{f}" for f in fields if f not in read]
    assert not dead, dead


def test_every_module_level_name_is_referenced():
    trees = _trees()
    external = _package_references(trees)
    dead = []
    for module, tree in trees.items():
        uses = {}  # defined name -> names its definition reads
        live = set()
        for stmt in tree.body:
            names = list(_defined(stmt))
            for name in names:
                uses.setdefault(name, set()).update(_loaded_names(stmt))
            if not names:
                live |= _loaded_names(stmt)
        live &= set(uses)
        live |= {x for x in uses if (module, x) in external}
        todo = list(live)
        while todo:
            for x in uses[todo.pop()] & set(uses):
                if x not in live:
                    live.add(x)
                    todo.append(x)
        dead += [f"{module}.py: {x}" for x in uses if x not in live]
    assert not dead, dead


def _optional_parameters(func, method):
    """(position, name) of each parameter of `func` that has a default, a
    keyword-only one at position None.  Positions count the arguments a
    call passes, so a method's self (or a classmethod's cls) is skipped."""
    a = func.args
    positional = a.posonlyargs + a.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i - skip, arg.arg
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passed(trees):
    """Called name or attribute -> [most positional arguments, keyword
    names] over the package's calls.  A call with *args passes every
    position (most = inf), and one with **kwargs every keyword (None)."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                seen = out.setdefault(name, [0, set()])
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                seen[0] = max(seen[0], math.inf if starred else len(node.args))
                seen[1] |= {k.arg for k in node.keywords}
    return out


def test_every_optional_parameter_is_passed():
    trees = _trees()
    exported = {
        alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    passed = _passed(trees)
    dead = []
    for module, tree in trees.items():
        functions = [(None, s) for s in tree.body if isinstance(s, ast.FunctionDef)]
        for cls in (s for s in tree.body if isinstance(s, ast.ClassDef)):
            functions += [(cls.name, s) for s in cls.body if isinstance(s, ast.FunctionDef)]
        for cls, func in functions:
            if (cls or func.name) in exported or (module, func.name) == ("cli", "main"):
                continue
            name = cls if func.name == "__init__" else func.name
            most, keywords = passed.get(name, (0, set()))
            for position, param in _optional_parameters(func, cls is not None):
                by_position = position is not None and position < most
                if not (by_position or param in keywords or None in keywords):
                    dead.append(f"{module}.py: {name}({param})")
    assert not dead, dead
