"""Bounded closure search over link expressions: witnesses, budgets, replay."""

import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlink import cli, corpus, search
from eulerlink.complexes import (Simplex, SimplicialComplex, build_complex,
                                 disjoint_union, geometric_link)
from eulerlink.dyadic import Dyadic
from eulerlink.fileio import read_complex, save_complex
from eulerlink.search import (ExpressionWitness, SearchBudget, closure_search,
                              expression_depth, expression_size,
                              replay_witness, witness_text)


def theta_junction(th):
    return next(Simplex((v,)) for v in th.vertex_ids if th.label(v) == "a")


def test_default_budget():
    b = SearchBudget()
    assert b._fields == ("max_depth", "max_functions")
    assert tuple(b) == (6, 20000)


def test_budget_validation():
    with pytest.raises(ValueError, match="got depth -1, max functions 20000"):
        SearchBudget(max_depth=-1)
    with pytest.raises(ValueError, match="got depth 6, max functions 0"):
        SearchBudget(max_functions=0)


def test_a_deep_budget_allocates_only_the_levels_reached():
    k = corpus.corpus_complex("susp_sphere3")
    link = geometric_link(k, k.simplices[0])
    link.coface_table()  # built before tracing
    tracemalloc.start()
    try:
        res = closure_search(link, SearchBudget(max_depth=10 ** 7,
                                                max_functions=50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.explored, res.stop, res.levels) == \
        (50, "max-functions", (1, 2, 5, 19))
    assert peak < 1 << 20


def test_an_empty_level_ends_the_search():
    # The link of an isolated vertex is empty: its closure is one function.
    res = closure_search(SimplicialComplex([]),
                         SearchBudget(max_depth=10 ** 6))
    assert (res.explored, res.stop, res.levels) == (1, "depth-limit", (1,))
    assert res.depth_complete == 10 ** 6
    assert res.completeness() == (
        "depth <= 1000000 exhausted (1 functions); depth 1000000 is"
        " the depth limit; a pass is a bounded necessary-condition check,"
        " not a realizability proof")
    assert res.guard_hits == 0


def test_odd_link_integral_is_a_depth_zero_witness():
    th = corpus.theta()
    link = geometric_link(th, theta_junction(th))
    res = closure_search(link)
    assert res.verdict == "witness"
    w = res.witness
    assert w.kind == "odd Euler integral"
    assert w.location is None
    assert w.value == Dyadic(3)
    assert w.depth == 0 and w.size == 1
    assert witness_text(w.as_dict(link.labels)) == \
        "ONE -> odd Euler integral 3"
    assert replay_witness(w, link) == Dyadic(3)


def test_half_integer_witness_needs_one_operator():
    # two disjoint thetas: the total integral is even, but halving the link
    # of a junction lands on 3/2
    link = disjoint_union(corpus.theta(), corpus.theta())
    res = closure_search(link)
    assert res.verdict == "witness"
    w = res.witness
    assert w.kind == "non-integer value"
    assert w.depth == 1 and w.size == 2
    assert w.value == Dyadic(3, 1)
    assert witness_text(w.as_dict(link.labels)) == \
        "HALFLINK(ONE) -> non-integer value 3/2^1 at (a)"
    assert replay_witness(w, link) == Dyadic(3, 1)
    assert res.stop == "witness"


def test_search_is_deterministic():
    link = geometric_link(corpus.sphere3(), Simplex((0, 1)))
    budget = SearchBudget(max_depth=3, max_functions=500)
    a = closure_search(link, budget)
    b = closure_search(link, budget)
    assert a.verdict == b.verdict == "pass"
    assert (a.explored, a.candidates, a.stop) == \
        (b.explored, b.candidates, b.stop)


def test_budget_exhaustion_is_reported_never_silent():
    s2 = corpus.sphere2()
    res = closure_search(s2, SearchBudget(max_depth=6, max_functions=8))
    assert res.passed
    assert res.stop == "max-functions"
    assert res.explored <= 8
    notes = res.completeness()
    assert "8-function budget" in notes
    assert "within-budget only" in notes

    shallow = closure_search(s2, SearchBudget(max_depth=2, max_functions=40))
    assert shallow.passed and shallow.stop == "depth-limit"
    assert "depth 2" in shallow.completeness()


def test_witness_serialization():
    th = corpus.theta()
    link = geometric_link(th, theta_junction(th))
    d = closure_search(link).witness.as_dict(link.labels)
    assert d == {"expr": "ONE", "kind": "odd Euler integral",
                 "location": "integral", "value": "3", "depth": 0, "size": 1}


def test_search_passes_on_even_dimensional_sphere_link():
    # link of an edge in the 3-sphere boundary complex: a 2-sphere
    link = geometric_link(corpus.sphere3(), Simplex((0, 1)))
    res = closure_search(link, SearchBudget(max_depth=3, max_functions=2000))
    assert res.passed
    assert res.witness is None


def test_dim4_search_over_whole_suspension_stays_clean():
    k = corpus.corpus_complex("susp_sphere3")
    budget = SearchBudget(max_depth=2, max_functions=300)
    for tau in k.simplices[:10]:
        assert closure_search(geometric_link(k, tau), budget).passed


# -- a brute-force oracle of the levels ------------------------------------------


def _brute_force(k, max_depth=3):
    """Evaluate every expression of depth <= max_depth, with no dedupe, on
    Fraction values and a link operator read from the coface definition.

    Returns the levels (level d: the values of depth-d expressions that no
    shallower expression reaches) and the least depth of a violating
    expression, or None; enumeration ends at that depth.  Expressions are
    listed one by one; only an operator applied to operand values it has
    met before is looked up instead of recomputed.
    """
    cells = k.simplices
    above = [[j for j, s in enumerate(cells) if set(t) < set(s)]
             for t in cells]

    def lam(x):
        return tuple((1 - (-1) ** (len(t) - 1)) * x[i]
                     + sum((-1) ** len(cells[j]) * x[j] for j in above[i])
                     for i, t in enumerate(cells))

    def violates(x):
        return (any(v.denominator != 1 for v in x)
                or sum((-1) ** (len(t) - 1) * v for t, v in zip(cells, x)) % 2)

    ops = {"ADD": lambda a, b: tuple(map(Fraction.__add__, a, b)),
           "SUB": lambda a, b: tuple(map(Fraction.__sub__, a, b)),
           "MUL": lambda a, b: tuple(map(Fraction.__mul__, a, b)),
           "HALFLINK": lambda a: tuple(v / 2 for v in lam(a)),
           "POP": lambda a: tuple((v ** 4 - v ** 2) / 2 for v in a)}
    values, ids, evaluated = [], {}, {}

    def value_id(x):
        if x not in ids:
            ids[x] = len(values)
            values.append(x)
        return ids[x]

    def apply(op, *args):
        key = (op, *args)
        if key not in evaluated:
            evaluated[key] = value_id(ops[op](*(values[i] for i in args)))
        return evaluated[key]

    by_depth = [[value_id((Fraction(1),) * len(cells))]]  # per expression
    levels = [{values[0]}]
    if violates(values[0]):
        return [], 0
    for d in range(1, max_depth + 1):
        shallow = [i for ids_ in by_depth[:-1] for i in ids_]
        prev = by_depth[-1]
        pairs = ([(a, b) for a in prev for b in prev + shallow]
                 + [(a, b) for a in shallow for b in prev])
        exprs = [apply(op, a, b) for op in ("ADD", "SUB", "MUL")
                 for a, b in pairs]
        exprs += [apply(op, a) for op in ("HALFLINK", "POP") for a in prev]
        if any(violates(values[i]) for i in set(exprs)):
            return levels, d
        by_depth.append(exprs)
        levels.append({values[i] for i in exprs}.difference(*levels))
    return levels, None


def _search_levels(link, budget):
    """closure_search, with its table of kept values split into levels and
    each value expanded from one per cell to one per link simplex."""
    tables = []
    real = search._candidates

    def spy(q, values, budget):
        tables.append((q.cells, values))
        return real(q, values, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_candidates", spy)
        res = closure_search(link, budget)
    ((cells, table),) = tables
    out, start = [], 0
    for n in res.levels:
        out.append({tuple(v[c] for c in cells)
                    for v in table[start:start + n]})
        start += n
    return res, out


def _assert_levels_match(link):
    budget = SearchBudget(max_depth=3, max_functions=10 ** 6)
    res, levels = _search_levels(link, budget)
    assert res.guard_hits == 0
    expected, violating = _brute_force(link)
    if violating is None:
        assert res.passed and res.stop == "depth-limit"
        assert res.levels == tuple(map(len, expected))
    else:
        # the witness has minimal depth: no shallower expression violates
        assert res.stop == "witness" and res.witness.depth == violating
        assert res.depth_complete == violating - 1
        w = res.witness
        assert replay_witness(w, link) == w.value
    assert levels == expected


ORACLE_LINKS = [
    ("circle", corpus.circle),
    ("sphere2", corpus.sphere2),
    ("sphere3 edge link",
     lambda: geometric_link(corpus.sphere3(), Simplex((0, 1)))),
    ("theta+theta", lambda: disjoint_union(corpus.theta(), corpus.theta())),
    # HALFLINK(ONE) is 1/2 at the end points and 1 elsewhere: its
    # numerators are those of ONE, so a witness that only a dedupe on
    # numerators would drop.
    ("segment+segment",
     lambda: disjoint_union(corpus.segment(), corpus.segment())),
]


@pytest.mark.parametrize("name,make", ORACLE_LINKS,
                         ids=[n for n, _ in ORACLE_LINKS])
def test_levels_match_brute_force(name, make):
    _assert_levels_match(make())


@st.composite
def small_complexes(draw):
    """Random facets, or an even-degree graph (a sum of cycles, plus
    isolated vertices), whose half link of 1 is integral, so that its
    search goes past depth 1."""
    n = draw(st.integers(3, 6))
    vertex = st.integers(0, n - 1)
    if draw(st.booleans()):
        facets = draw(st.lists(st.lists(vertex, min_size=1, max_size=3,
                                        unique=True), min_size=1, max_size=5))
    else:
        edges = set()
        for cycle in draw(st.lists(st.lists(vertex, min_size=3, unique=True),
                                   min_size=1, max_size=3)):
            edges ^= {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
        facets = ([sorted(e) for e in edges]
                  + [[v] for v in draw(st.lists(vertex, max_size=2))])
        if not facets:
            facets = [[0]]
    k = build_complex(facets)
    if len(k.simplices) > 20:
        k = build_complex(facets[:1])
    return k


@settings(max_examples=25, deadline=None)
@given(small_complexes())
def test_levels_match_brute_force_on_drawn_complexes(k):
    _assert_levels_match(k)


def test_depth_three_is_exhausted_on_a_four_sphere_vertex_link():
    # Level by level, every function of depth <= 3 is kept (a search by
    # expression size kept 23 of these 27), and depth 4 adds 289.
    k = corpus.corpus_complex("susp_sphere3")
    link = geometric_link(k, k.simplices[0])
    shallow = closure_search(link, SearchBudget(max_depth=3))
    assert (shallow.explored, shallow.stop) == (27, "depth-limit")
    assert shallow.levels == (1, 2, 5, 19)
    assert "depth <= 3 exhausted (27 functions)" in shallow.completeness()
    deep = closure_search(link, SearchBudget(max_depth=4))
    assert (deep.explored, deep.stop) == (316, "depth-limit")
    cut = closure_search(link, SearchBudget(max_functions=2000))
    assert (cut.explored, cut.stop, cut.depth_complete) == \
        (2000, "max-functions", 4)
    assert cut.completeness() == (
        "depth <= 4 exhausted (316 functions); depth 5 stopped at"
        " the 2000-function budget; a pass is within-budget only")


def test_a_passing_search_builds_no_dyadic(monkeypatch):
    k = corpus.corpus_complex("susp_sphere3")
    link = geometric_link(k, k.simplices[0])
    built = []
    init = Dyadic.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Dyadic, "__init__", counting_init)
    res = closure_search(link, SearchBudget(max_functions=2000))
    assert res.passed and res.explored == 2000
    assert built == []


# -- witnesses in reports replay ----------------------------------------------------


def _parse_expr(text):
    tokens = re.findall(r"[A-Z]+|[(),]", text)
    pos = 0

    def node():
        nonlocal pos
        op = tokens[pos]
        pos += 1
        args = []
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            args.append(node())
            while tokens[pos] == ",":
                pos += 1
                args.append(node())
            assert tokens[pos] == ")"
            pos += 1
        return (op, *args)

    expr = node()
    assert pos == len(tokens)
    return expr


def _replay_report_witnesses(tmp_path, name, args):
    path = tmp_path / f"{name}.cplx"
    save_complex(corpus.corpus_complex(name), str(path))
    cli.main(["check", str(path), "--json", *args,
              "-o", str(tmp_path / "out.json")])
    report = json.loads((tmp_path / "out.json").read_text())
    k = read_complex(str(path))
    by_name = {k.simplex_name(s): s for s in k.simplices}
    replayed = 0
    for row in report["tests"]:
        if row["test"] != "search" or row["verdict"] != "fail":
            continue
        w = row["witness"]
        expr = _parse_expr(w["expr"])
        assert (w["depth"], w["size"]) == \
            (expression_depth(expr), expression_size(expr))
        link = geometric_link(k, by_name[row["simplex"]])
        where = None if w["location"] == "integral" else next(
            s for s in link.simplices if link.simplex_name(s) == w["location"])
        witness = ExpressionWitness(expr=expr, kind=w["kind"], location=where,
                                    value=Dyadic.parse(w["value"]),
                                    depth=w["depth"], size=w["size"])
        assert str(replay_witness(witness, link)) == w["value"]
        replayed += 1
    return replayed


def test_report_witnesses_replay_on_the_four_ball(tmp_path):
    assert _replay_report_witnesses(tmp_path, "cone_sphere3",
                                    ["--max-funcs", "2000"]) == 30


def test_report_witnesses_replay_on_the_small_corpus(tmp_path):
    replayed = 0
    for name in corpus.corpus_names():
        if corpus.corpus_complex(name).dim <= 3:
            replayed += _replay_report_witnesses(
                tmp_path, name, ["--search", "--depth", "3"])
    assert replayed > 0
