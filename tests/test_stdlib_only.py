"""The runtime is standard library only: every import in the package is
either a standard-library module or relative to the package.  Start-up
stays lean: no module imports ``dataclasses``, and importing the command
line loads neither it nor ``inspect``, nor the corpus, which only the
``corpus`` subcommand uses.  A relative import names the module that
defines the name, not one that imports it from elsewhere.  Every private
module-level helper is named somewhere in the package, and every private
name that the package's docs cite is defined in it.  ``__all__`` lists
exactly the public names that ``__init__`` imports, and each resolves."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eulerlink"
README = PACKAGE.parent.parent / "README.md"
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


def test_all_is_exactly_the_public_names_the_package_imports():
    # A name removed from a submodule cannot linger in ``__all__`` and
    # break ``from eulerlink import *``.
    import eulerlink
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for a in node.names if not a.name.startswith("_")]
    assert sorted(eulerlink.__all__) == sorted(imported)
    namespace = {}
    exec("from eulerlink import *", namespace)
    assert all(namespace[n] is getattr(eulerlink, n) for n in imported)


def top_level_names(path: Path) -> set[str]:
    """The names a module defines at its top level: its functions, classes
    and assigned names, not the names it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return names


def test_relative_imports_name_the_defining_module():
    """``from .m import name`` needs ``name`` defined in ``m`` itself;
    ``from . import name`` needs a submodule ``name`` or a name that
    ``__init__`` defines."""
    defined = {p.stem: top_level_names(p) for p in MODULES}
    wrong = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            module = node.module or "__init__"
            for alias in node.names:
                if node.module is None and alias.name in defined:
                    continue  # a submodule
                if alias.name not in defined[module]:
                    wrong.append((path.name, node.lineno, module, alias.name))
    assert wrong == []


def test_every_private_helper_has_a_caller():
    """Every module-level ``def _x`` or ``class _X`` of the package is
    named (an ``ast.Name`` or ``ast.Attribute``) somewhere in it: a
    private helper that nothing calls is dead code."""
    private, named = set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        private.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef,
                                            ast.ClassDef))
                       and node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert private, "no private helpers found"
    assert sorted(private - named) == []


def defined_names(path: Path) -> set[str]:
    """Every name that a module binds at any depth: its functions, classes
    and methods, and the targets of its assignments, attributes such as
    ``self._index`` and class fields included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                           ast.Store):
            names.add(node.attr)
    return names


# A private name in backticks, single or double: ``_x``, or ``owner._x``
# where the owner is a module or a class.  Dunder names are not private.
CITED = re.compile(r"`+(?:([A-Za-z]\w*)\.)?(_(?!_)\w*)`+")


def test_every_cited_private_name_is_defined():
    """A private name cited in backticks in a module's text (its
    docstrings and comments) or in README.md is defined in the package;
    one cited as ``module._x`` is defined in that module."""
    defined = {p.stem: defined_names(p) for p in MODULES}
    everywhere = set().union(*defined.values())
    stale = []
    for path in [*MODULES, README]:
        for owner, name in CITED.findall(path.read_text(encoding="utf-8")):
            if name not in defined.get(owner, everywhere):
                stale.append((path.name, f"{owner}.{name}" if owner
                              else name))
    assert stale == []
