"""The demos call the package as it is.

The demos need the real MNIST files, so the suite never runs them; this test
imports each one and checks, without running it, that every call it makes to
a ``spikefirst`` function or class binds to that callable's signature."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(node, namespace):
    """The object a call's ``func`` names through module globals, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = resolve(node.value, namespace)
        return getattr(owner, node.attr, None) if owner is not None else None
    return None


def package_calls(path: Path):
    """Yield (line, callable, call node) for each call of a spikefirst callable."""
    namespace = vars(load(path))
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        target = resolve(node.func, namespace)
        if callable(target) and getattr(target, "__module__", "").startswith("spikefirst"):
            yield node.lineno, target, node


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_match_signatures(path):
    checked = 0
    for line, target, node in package_calls(path):
        sig = inspect.signature(target)
        try:
            sig.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{line}: {target.__qualname__}{sig}: {exc}")
        checked += 1
    assert checked, f"{path.name} calls no spikefirst function"
