"""The demos import only names the package still has, and call them with
arguments their signatures accept."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def _shufflemix_imports(tree):
    """(module name, imported name, bound name) of each name imported from
    ``shufflemix``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("shufflemix"):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    for module, name, _ in _shufflemix_imports(tree):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_calls_bind(demo):
    """Each call of an imported function or class binds to its signature:
    the positional count and keyword names, checked without running the demo."""
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = {
        bound: getattr(importlib.import_module(module), name)
        for module, name, bound in _shufflemix_imports(tree)
    }
    calls = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        target = imported.get(node.func.id)
        if not (inspect.isfunction(target) or inspect.isclass(target)):
            continue
        # *args and **kwargs hide their count and names from the AST
        if any(isinstance(a, ast.Starred) for a in node.args):
            continue
        if any(kw.arg is None for kw in node.keywords):
            continue
        args = [None] * len(node.args)
        kwargs = dict.fromkeys(kw.arg for kw in node.keywords)
        try:
            inspect.signature(target).bind(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{demo.name}:{node.lineno}: {node.func.id}: {exc}")
        calls += 1
    assert calls, f"{demo.name} calls no shufflemix function"
