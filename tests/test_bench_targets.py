"""The functions bench/layers.py wraps by name (its TARGETS) exist, and its
hooks find their arguments where they read them. TARGETS is read with ast,
so the benchmark is not imported: a renamed target fails here, not only in a
traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from sqlbench import evaluate, execution, fuzz

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def bench_targets() -> dict:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} sets no TARGETS")


@pytest.mark.parametrize("module, name", [(module, name) for module, names
                                          in bench_targets().items() for name in names])
def test_wrapped_name_is_callable(module, name):
    assert callable(getattr(importlib.import_module(f"sqlbench.{module}"), name, None))


def leading(func, n: int) -> list[str]:
    """The names of func's first n parameters, each one that may be given by position."""
    params = list(inspect.signature(func).parameters.values())[:n]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    return [p.name for p in params]


def test_hooks_read_arguments_where_they_are():
    # the hooks read args[:3] of evaluate and args[:2] of execute_sql
    assert leading(evaluate.evaluate, 3) == ["example", "prediction", "suite"]
    assert leading(execution.execute_sql, 2) == ["db_file", "sql"]
    # bench/probe_suite_scaling.py calls build_test_suite without warn
    warn = inspect.signature(fuzz.build_test_suite).parameters["warn"]
    assert warn.default is not warn.empty
