"""The runtime is standard library only: every import in the package is
either a standard-library module or relative to the package.  Start-up
stays lean: no module imports ``dataclasses``, and importing the command
line loads neither it nor ``inspect``, nor the corpus, which only the
``corpus`` subcommand uses."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eulerlink"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path: Path):
    """Yield ``(line, module)`` for every import that is not relative."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_the_package_is_found():
    assert "__init__.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_standard_library_or_relative(path):
    outside = [(line, name) for line, name in absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == [], path.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_dataclasses(path):
    assert [(line, name) for line, name in absolute_imports(path)
            if name.partition(".")[0] == "dataclasses"] == [], path.name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eulerlink.cli;"
            " print(sorted({'dataclasses', 'inspect', 'eulerlink.corpus'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code,
                          str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
