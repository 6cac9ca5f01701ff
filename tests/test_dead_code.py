"""Dead-code gate over `src/piworkbench`, by the standard library's `ast`:
no module imports a name it never uses, and every top-level function,
class or assigned name is referenced from somewhere in the package outside
its own definition.  `__init__.py` only re-exports, so its imports are
exempt and its references do not count.  A public name also counts as used
when `README.md` mentions it, or when it belongs to the documented API."""

import ast
import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "piworkbench"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PKG.glob("*.py"))}
README_WORDS = set(re.findall(r"\w+", (PKG.parent.parent / "README.md").read_text()))

# public names kept for library users although nothing in the package uses them
DOCUMENTED_API = {"EWB", "WOT", "WAB", "WBB", "AWBB", "WCB",
                  "check_name_invariance", "check_compositionality"}


def _referenced(node: ast.AST) -> set:
    """Every identifier `node` reads, as a name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _defined(node: ast.AST) -> list:
    """The names a top-level statement defines."""
    if isinstance(node, ast.FunctionDef | ast.ClassDef):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def _unreferenced(modules: dict) -> list:
    """(module, line, name) of every top-level name, dunders aside, that no
    other top-level statement outside `__init__.py` references."""
    top = [(module, node) for module, tree in modules.items() if module != "__init__.py"
           for node in tree.body]
    refs = [(node, _referenced(node)) for _, node in top]
    return [
        (module, node.lineno, name)
        for module, node in top
        for name in _defined(node)
        if not name.startswith("__")
        and not any(name in seen for other, seen in refs if other is not node)
    ]


def _unused_public(modules: dict) -> list:
    return [f"{module}:{line} {name}" for module, line, name in _unreferenced(modules)
            if not name.startswith("_") and name not in README_WORDS | DOCUMENTED_API]


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
    dead = [f"{module}:{line} {name}" for module, line, name in _unreferenced(MODULES)
            if name.startswith("_")]
    assert not dead, dead


def test_no_unused_public_definitions():
    unused = _unused_public(MODULES)
    assert not unused, unused


def test_unused_public_gate_catches_a_planted_function():
    planted = dict(MODULES, **{"planted.py": ast.parse("def planted_helper():\n    return 0\n")})
    assert _unused_public(planted) == ["planted.py:1 planted_helper"]
