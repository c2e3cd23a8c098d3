"""Guard against dead code in the package, by static reading only.

A module of src/rbgroups may not import a name it never uses, and every
module-level name defined there must be referenced somewhere in src/ or
tests/ other than by its own definition.  Names listed in
rbgroups.__all__ count as used.
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


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(tree):
    """Module-level functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id


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
    referenced = set(_exported())
    for _, tree in _trees(ROOT / "src", ROOT / "tests"):
        referenced |= _loaded_names(tree)
    dead = [
        f"{path.name}: {name}"
        for path, tree in _trees(PACKAGE)
        for name in _defined(tree)
        if name not in referenced
    ]
    assert not dead, dead
