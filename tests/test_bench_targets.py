"""The functions the benchmark's tracer patches by name still exist.

``bench/tracer.py`` wraps muspec functions by module attribute; a rename in
the package would leave its counters silently at zero.  The target tables
are read from its source with ``ast``, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTERS", "EXPRESSION")}


def test_every_tracer_target_exists():
    tables = _tables()
    assert set(tables) == {"SPANS", "COUNTERS", "EXPRESSION"}
    targets = [*tables["SPANS"], *tables["COUNTERS"],
               *(("exprparse", name) for name in tables["EXPRESSION"])]
    assert targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"muspec.{module}"), name, None)), \
            f"bench/tracer.py patches muspec.{module}.{name}, which does not exist"
