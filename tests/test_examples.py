"""Examples are part of the public contract: they must at least compile,
import only names the package still has, and the quickstart must run end
to end."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def _repro_imports(path):
    """(module, name) for every ``repro`` import in a source file; name is
    None for a plain ``import repro.x``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Compiling does not resolve imports, so an example importing a
    deleted name would pass the check above and fail for its user."""
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None:
            continue
        assert hasattr(module, name) or importlib.util.find_spec(
            f"{module_name}.{name}"
        ), f"{path.name}: `from {module_name} import {name}` does not resolve"


def test_quickstart_runs():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES[0].parent / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "CR" in result.stdout
