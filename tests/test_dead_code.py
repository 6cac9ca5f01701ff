"""Dead-code gate over `src/piworkbench`, by the standard library's `ast`:
no module imports a name it never uses, and every private top-level
function or class is referenced from somewhere in the package outside its
own definition.  `__init__.py` re-exports, so its imports are exempt."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "piworkbench"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PKG.glob("*.py"))}


def _referenced(node: ast.AST) -> set:
    """Every identifier `node` reads, as a name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_no_unused_imports():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__.py":
            continue
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Import | ast.ImportFrom) and getattr(sub, "module", "") != "__future__":
                for alias in sub.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}:{sub.lineno} {bound}")
    assert not unused, unused


def test_no_unreferenced_private_definitions():
    top = [(module, node) for module, tree in MODULES.items() for node in tree.body]
    refs = [(module, node, _referenced(node)) for module, node in top]
    dead = []
    for module, node in top:
        if not isinstance(node, ast.FunctionDef | ast.ClassDef):
            continue
        name = node.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(name in seen for _, other, seen in refs if other is not node):
            dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, dead
