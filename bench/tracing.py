"""Spans and counters around the calls into each ``eulerlink`` layer.

The tracer replaces a public function in every ``eulerlink`` module that
holds a reference to it, because callers look functions up in their own
module's namespace (``invariants`` calls the ``link_operator`` it imported
from ``functions``).  Each call records a span ``(name, start, end,
parent)``; spans stay in memory until the run ends.  ``uninstall`` puts
every original back, so untraced rounds never pass through a wrapper.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import weakref
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Several constructions share one span name;
# a span nested in one of the same name (suspension calls join) is not
# counted twice in that name's time.
FUNCTIONS = (
    ("complexes", "build_complex", "complexes.build"),
    ("complexes", "join", "complexes.build"),
    ("complexes", "suspension", "complexes.build"),
    ("complexes", "barycentric_subdivision", "complexes.build"),
    ("complexes", "geometric_link", "complexes.geometric_link"),
    ("fileio", "read_complex", "fileio.read_complex"),
    ("fileio", "write_complex", "fileio.write_complex"),
    ("functions", "link_operator", "functions.link_operator"),
    ("functions", "half_link", "functions.half_link"),
    ("functions", "p_operator", "functions.p_operator"),
    ("functions", "euler_integral", "functions.euler_integral"),
    ("functions", "dual", "functions.dual"),
    ("functions", "subdivide_function", "functions.subdivide_function"),
    ("invariants", "b_vector", "invariants.b_vector"),
    ("invariants", "dim3_check", "invariants.dim3_check"),
    ("invariants", "sullivan_check", "invariants.sullivan_check"),
    ("search", "closure_search", "search.closure_search"),
    ("reports", "render", "reports.render"),
)

# Per-layer metrics and their units.  README.md says which end-to-end metric
# each should move, and on which workload.
METRICS = {
    "complexes.cofaces_s": "s",
    "complexes.facets_s": "s",
    "complexes.build_s": "s",
    "complexes.geometric_link_s": "s",
    "complexes.links_built": "count",
    "complexes.link_shapes": "count",
    "fileio.read_complex_s": "s",
    "fileio.write_complex_s": "s",
    "functions.link_operator_s": "s",
    "functions.link_operator_calls": "count",
    "functions.half_link_s": "s",
    "functions.p_operator_s": "s",
    "functions.euler_integral_s": "s",
    "functions.euler_integral_calls": "count",
    "functions.dual_s": "s",
    "functions.subdivide_function_s": "s",
    "invariants.b_vector_s": "s",
    "invariants.b_vector_calls": "count",
    "invariants.dim3_check_s": "s",
    "invariants.sullivan_check_s": "s",
    "search.closure_search_s": "s",
    "search.closure_search_calls": "count",
    "search.closure_search_p50_s": "s",
    "search.closure_search_p90_s": "s",
    "search.self_s": "s",
    "search.explored": "count",
    "search.candidates": "count",
    "search.admit_ratio": "ratio",
    "search.guard_hits": "count",
    "search.witnesses": "count",
    "dyadic.objects": "count",
    "reports.render_s": "s",
    "trace.overhead": "ratio",
}


def _shape(k) -> tuple:
    """A link with its vertices renumbered densely in vertex order."""
    ren = {v: i for i, v in enumerate(sorted(k.vertex_ids))}
    return tuple(tuple(ren[v] for v in s) for s in k.simplices)


class Tracer:
    def __init__(self, el):
        self.el = el
        self.spans: list[tuple] = []  # (name, start, end, parent, nested)
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.counts: Counter = Counter()
        self.shapes: set[tuple] = set()
        self._restore: list[tuple] = []
        self._dyadics = None

    # -- spans --------------------------------------------------------

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._active[name] > 0
        self.spans.append(None)
        self._stack.append(idx)
        self._active[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, nested)

    def _wrap(self, name: str, fn, on_result=None):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = span(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- installing the wrappers ---------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mname, mod in list(sys.modules.items()):
            if mname != "eulerlink" and not mname.startswith("eulerlink."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _set_attr(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _on_link(self, link) -> None:
        self.counts["complexes.links_built"] += 1
        self.shapes.add(_shape(link))

    def _on_search(self, res) -> None:
        c = self.counts
        c["search.explored"] += res.explored
        c["search.candidates"] += res.candidates
        c["search.guard_hits"] += res.guard_hits
        c["search.witnesses"] += res.verdict == "witness"

    def install(self) -> None:
        hooks = {"complexes.geometric_link": self._on_link,
                 "search.closure_search": self._on_search}
        for module, attr, name in FUNCTIONS:
            original = getattr(getattr(self.el, module), attr)
            self._replace_everywhere(
                original, self._wrap(name, original, hooks.get(name)))

        cls = self.el.complexes.SimplicialComplex
        span = self.span
        built = weakref.WeakSet()
        cofaces = cls.cofaces

        def first_cofaces(k, i):
            # The first call on a complex builds its whole coface table.
            if k in built:
                return cofaces(k, i)
            built.add(k)
            return span("complexes.cofaces", cofaces, k, i)

        self._set_attr(cls, "cofaces", first_cofaces)
        self._set_attr(cls, "facets",
                       self._wrap("complexes.facets", cls.facets))

        dyadic = self.el.dyadic.Dyadic
        init = dyadic.__init__
        self._dyadics = counter = itertools.count()
        tick = counter.__next__

        def counting_init(obj, *args):
            tick()
            init(obj, *args)

        self._set_attr(dyadic, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self.counts["dyadic.objects"] += next(self._dyadics)

    # -- metrics -------------------------------------------------------

    def metrics(self, overhead: float) -> dict:
        total: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        searches = []
        for name, start, end, parent, nested in self.spans:
            dur = end - start
            calls[name] += 1
            if not nested:
                total[name] += dur
            if parent >= 0:
                child[parent] += dur
            if name == "search.closure_search":
                searches.append(dur)
        search_self = sum(
            (end - start) - child[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name == "search.closure_search")
        # Nine cut points; the last is the 90th percentile.
        deciles = (statistics.quantiles(searches, n=10, method="inclusive")
                   if len(searches) > 1 else [0.0] * 9)
        c = self.counts
        values = {
            "complexes.link_shapes": len(self.shapes),
            "functions.link_operator_calls": calls["functions.link_operator"],
            "functions.euler_integral_calls": calls["functions.euler_integral"],
            "invariants.b_vector_calls": calls["invariants.b_vector"],
            "search.closure_search_calls": calls["search.closure_search"],
            "search.closure_search_p50_s": deciles[4],
            "search.closure_search_p90_s": deciles[8],
            "search.self_s": search_self,
            "search.admit_ratio": (c["search.explored"] / c["search.candidates"]
                                   if c["search.candidates"] else 0.0),
            "trace.overhead": overhead,
        }
        for name in METRICS:
            if name in values:
                continue
            if name.endswith("_s"):
                values[name] = total[name[:-2]]
            else:
                values[name] = c[name]
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS.items()}

    def dump(self) -> dict:
        return {"spans": [list(s[:4]) for s in self.spans],
                "counts": dict(sorted(self.counts.items()))}
