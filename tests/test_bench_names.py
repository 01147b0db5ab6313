"""Every name of ``eulerlink`` that the benchmark imports, wraps or calls
still resolves.

The benchmark is read, not imported: ``MODULES`` in ``bench/run.py``,
``FUNCTIONS`` in ``bench/tracing.py`` and every ``el.<module>.<name>``
chain in ``bench/workloads.py``, where ``el`` is the namespace of those
modules that ``bench/run.py`` builds.
"""

import ast
import importlib
import os

from eulerlink.complexes import SimplicialComplex
from eulerlink.dyadic import Dyadic

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _tree(name: str) -> ast.Module:
    with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _constant(name: str, file: str):
    """The literal value assigned to the module-level ``name`` of ``file``."""
    [value] = [node.value for node in _tree(file).body
               if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == name
                       for t in node.targets)]
    return ast.literal_eval(value)


def _is_el(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "el"
            or isinstance(node, ast.Attribute) and node.attr == "el")


def _workload_names() -> set[tuple[str, str]]:
    """``(module, name)`` of every ``el.<module>.<name>`` chain."""
    return {(node.value.attr, node.attr)
            for node in ast.walk(_tree("workloads.py"))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and _is_el(node.value.value)}


def test_every_name_the_benchmark_uses_resolves():
    modules = {m: importlib.import_module(f"eulerlink.{m}")
               for m in _constant("MODULES", "run.py")}
    traced = {(m, a) for m, a, _ in _constant("FUNCTIONS", "tracing.py")}
    called = _workload_names()
    assert ("functions", "half_link") in traced and ("cli", "main") in called
    for module, attr in sorted(traced | called):
        assert module in modules, module
        assert callable(getattr(modules[module], attr, None)), (module, attr)
    # The tracer replaces these on the classes themselves.
    for cls, attr in ((SimplicialComplex, "cofaces"),
                      (SimplicialComplex, "facets"), (Dyadic, "__init__")):
        assert callable(vars(cls).get(attr)), (cls.__name__, attr)
