"""The functions the benchmark tracer wraps by name must exist in the package."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets() -> list[tuple[str, str]]:
    """``TARGETS`` of bench/tracing.py, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_traced_function_exists():
    targets = traced_targets()
    assert len(targets) > 10
    missing = [f"varbounds.{mod}.{name}" for mod, name in targets
               if not callable(getattr(importlib.import_module(f"varbounds.{mod}"), name, None))]
    assert missing == []
