"""Static checks of the package's module boundaries, read from its source.

Only the command line and the checkpoint format write files: every result
file's format lives in ``cli``, and the library modules hand back values.
Every exception the package raises is a ``SpikeFirstError``, apart from the
command line's own ``CliError``.  No package function is named like a test,
since pytest would collect it from any test module that imports it."""

import ast
import importlib
from pathlib import Path

import spikefirst
from spikefirst.cli import CliError
from spikefirst.errors import SpikeFirstError

PACKAGE = Path(spikefirst.__file__).resolve().parent
WRITERS = {"cli", "checkpoint"}


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``write_text``, ``write_bytes``, or an
    ``open`` whose mode is not a constant read-only one."""
    name = _call_name(call)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode) and Path.open(mode)
    args = call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
    modes = args + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and not set(m.value) & set("wax+")) for m in modes)


def test_only_the_cli_and_the_checkpoint_write_files():
    found = sorted(f"{module}.py:{node.lineno}"
                   for module, tree in _modules().items() if module not in WRITERS
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and _writes(node))
    assert found == []


def test_the_writer_check_sees_each_form_of_write():
    def calls(source):
        return [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]

    for source in ('open(p, "w")', 'open(p, mode="ab")', 'p.open("x")', "open(p, mode)",
                   'p.write_text("")', 'p.write_bytes(b"")', 'open(p, "r+")'):
        assert any(_writes(c) for c in calls(source)), source
    for source in ("open(p)", 'open(p, "rb")', 'p.open("r")', "p.read_text()"):
        assert not any(_writes(c) for c in calls(source)), source


def test_no_package_function_is_named_like_a_test():
    found = sorted(f"{module}.{node.name}" for module, tree in _modules().items()
                   for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name.startswith("test"))
    assert found == []


def _raised_class(module: str, exc: ast.expr):
    """What ``raise exc`` in ``module`` names: the object bound to the name
    of the raised class or call, or None for another expression."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return getattr(importlib.import_module(f"spikefirst.{module}"), exc.id, None)
    return None


def test_the_package_raises_only_its_own_errors():
    # bare re-raises pass through; the command line turns CliError into its
    # exit codes
    def allowed(module, raised):
        return isinstance(raised, type) and (issubclass(raised, SpikeFirstError)
                                             or (module == "cli" and raised is CliError))

    found = sorted(f"{module}.py:{node.lineno}"
                   for module, tree in _modules().items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and node.exc is not None
                   and not allowed(module, _raised_class(module, node.exc)))
    assert found == []


def test_no_module_imports_another_modules_private_name():
    # a rule that two modules share has one owner, which names it publicly;
    # dunder names such as __version__ are public
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = sorted(f"{module}.py:{node.lineno}"
                   for module, tree in _modules().items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").startswith("spikefirst"))
                   and any(private(alias.name) for alias in node.names))
    assert found == []
