"""Guard against dead code in the package, by static reading only.

A module of src/rbgroups may not import a name it never uses, and every
module-level name X defined in a module M must be live.  X is live when
a top-level statement of M that defines no name reads it, when another
module or a test refers to it as M.X or imports it from M (so every name
rbgroups/__init__.py re-exports is live), or when the definition of a
live name of M reads it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rbgroups"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


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


def _external_references(modules):
    """(module, name) for every M.X attribute read, rbgroups.M.X included,
    and every name imported from a module M of the package."""
    out = set()
    for _, tree in _trees(ROOT / "src", ROOT / "tests"):
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
                elif isinstance(value, ast.Name) and value.id in modules:
                    out.add((value.id, node.attr))
    return out


def test_no_unused_imports():
    unused = []
    for path, tree in _trees(PACKAGE):
        if path.name == "__init__.py":  # it imports to re-export
            continue
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert not unused, unused


def test_every_module_level_name_is_referenced():
    trees = {path.stem: tree for path, tree in _trees(PACKAGE)}
    external = _external_references(set(trees))
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
