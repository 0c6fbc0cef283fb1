"""Every module-level name in the package is used somewhere else.

A function, class or assigned name defined at the top of a module under
``src/muspec`` must be read somewhere in ``src/``, ``tests/`` or ``bench/``:
as a name, an attribute, an import, or a string (``__all__`` entries and the
names ``bench/tracer.py`` patches are strings).  A name that nothing reads
is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "muspec"


def _defined(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_module_level_name_is_used():
    used = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _used(ast.parse(path.read_text(encoding="utf-8")))
    dead = [f"{path.stem}.{name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for name in _defined(ast.parse(path.read_text(encoding="utf-8")))
            if name not in used]
    assert dead == []
