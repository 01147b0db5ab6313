"""The closure search on a link's quotient, one value per cell, against a
search on one value per link simplex."""

from collections import Counter
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_shape, small_or_empty_complexes
from eulerlink import corpus, search
from eulerlink.complexes import build_complex, geometric_link
from eulerlink.functions import (ConstructibleFunction, _int_link, _star_sums,
                                 euler_integral)
from eulerlink.search import (KIND_ODD_INTEGRAL, ExpressionWitness,
                              SearchBudget, SearchResult, closure_search,
                              expression_size, halving_witness, replay_witness)


def _full_search(link, budget):
    """The closure search in the order of ``search``'s module docstring, on
    one value per link simplex and with no partition into cells."""
    simplices = link.simplices
    guard = 1 << search.GUARD_BITS
    values, exprs, seen, levels = [], [], set(), []

    def found():
        yield 0, "ONE", (), (1,) * len(simplices), -1
        lo = 0
        for depth in range(1, budget.max_depth + 1):
            hi = len(values)
            if lo == hi:
                return
            for op, f in (("ADD", add), ("SUB", sub), ("MUL", mul)):
                for j in range(lo, hi):
                    for i in range(j + 1):
                        yield depth, op, (i, j), tuple(
                            map(f, values[i], values[j])), -1
                        if f is sub and i != j:
                            yield depth, op, (j, i), tuple(
                                map(sub, values[j], values[i])), -1
            for j in range(lo, hi):
                lam, odd = _int_link(values[j], _star_sums(link, values[j]))
                yield depth, "HALFLINK", (j,), tuple(
                    a if odd >= 0 and a & 1 else a >> 1 for a in lam), odd
            for j in range(lo, hi):
                yield depth, "POP", (j,), tuple(
                    (x ** 4 - x ** 2) // 2 for x in values[j]), -1
            lo = hi

    candidates = guard_hits = 0
    witness = None
    stop, complete = "depth-limit", budget.max_depth
    gen = found()
    for depth, op, args, nums, odd in gen:
        candidates += 1
        if odd < 0 and nums in seen:
            continue
        if any(abs(x) > guard for x in nums):
            guard_hits += 1
            continue
        expr = (op, *(exprs[i] for i in args))
        if odd >= 0:
            witness = halving_witness(expr, simplices[odd], nums[odd])
        elif sum(nums) & 1:
            witness = ExpressionWitness(
                expr=expr, kind=KIND_ODD_INTEGRAL, location=None,
                value=euler_integral(ConstructibleFunction(link, nums)),
                depth=depth, size=expression_size(expr))
        if witness is not None:
            stop, complete = "witness", depth - 1
            break
        seen.add(nums)
        values.append(nums)
        exprs.append(expr)
        if depth == len(levels):
            levels.append(0)
        levels[depth] += 1
        if len(values) >= budget.max_functions:
            after = next(gen, None)
            if after is not None:
                stop, complete = "max-functions", after[0] - 1
            break
    return SearchResult("witness" if witness else "pass", witness, link,
                        explored=len(values), candidates=candidates,
                        guard_hits=guard_hits, stop=stop, budget=budget,
                        levels=tuple(levels[:complete + 1]))


def _corpus_links():
    """One geometric link per dense link shape of the corpus."""
    shapes = {}
    for name in corpus.corpus_names():
        k = corpus.corpus_complex(name)
        for tau in k.simplices:
            link = geometric_link(k, tau)
            shapes.setdefault(dense_shape(link), link)
    return list(shapes.values())


CORPUS_LINKS = _corpus_links()


def _assert_equitable(link, q):
    """Cells have one dimension, each simplex of a cell has as many cofaces
    in every cell as any other, and the quotient's tables are read off its
    first simplices."""
    table = link.coface_table()
    assert len(q.cells) == len(link.simplices)
    assert set(q.cells) == set(range(len(q.sizes)))
    assert q.sizes == tuple(Counter(q.cells)[c] for c in range(len(q.sizes)))
    first = [q.cells.index(c) for c in range(len(q.sizes))]
    assert first == sorted(first)  # cells in the order of their first simplex
    assert q.simplices == tuple(link.simplices[i] for i in first)
    assert q.table == tuple(tuple(q.cells[j] for j in table[i])
                            for i in first)
    for i, s in enumerate(link.simplices):
        c = q.cells[i]
        assert s.dim == q.simplices[c].dim
        assert Counter(q.cells[j] for j in table[i]) == Counter(q.table[c])


def _assert_same_search(link, budget):
    res = closure_search(link, budget)
    assert res == _full_search(link, budget)
    if res.witness is not None:
        assert replay_witness(res.witness, link) == res.witness.value
    return res


def test_corpus_link_partitions_are_equitable():
    assert len(CORPUS_LINKS) > 100
    for link in CORPUS_LINKS:
        _assert_equitable(link, search._quotient(link))


def test_a_four_sphere_vertex_link_has_six_cells():
    k = corpus.corpus_complex("susp_sphere3")
    link = geometric_link(k, k.simplices[0])
    q = search._quotient(link)
    assert len(link.simplices) == 44
    assert q.sizes == (4, 2, 6, 8, 16, 8)


@pytest.mark.parametrize("max_functions", [50, 300])
def test_quotient_search_equals_full_search_on_corpus_links(max_functions):
    budget = SearchBudget(max_functions=max_functions)
    verdicts = Counter(_assert_same_search(link, budget).stop
                       for link in CORPUS_LINKS)
    # Both a witness and a pass at the budget are covered.
    assert verdicts["witness"] and verdicts["max-functions"]


def test_quotient_search_counts_the_same_guard_hits(monkeypatch):
    monkeypatch.setattr(search, "GUARD_BITS", 12)
    k = corpus.corpus_complex("cone_sphere3")
    hits = 0
    for tau in k.simplices[:8]:
        res = _assert_same_search(geometric_link(k, tau),
                                  SearchBudget(max_functions=300))
        hits += res.guard_hits
    assert hits > 0


@st.composite
def drawn_links(draw):
    """The geometric link of a drawn simplex of a small random complex."""
    n = draw(st.integers(2, 7))
    vertex = st.integers(0, n - 1)
    facets = draw(st.lists(st.lists(vertex, min_size=1, max_size=4,
                                    unique=True), min_size=1, max_size=6))
    k = build_complex(facets)
    tau = draw(st.sampled_from(k.simplices))
    return geometric_link(k, tau)


@settings(max_examples=60, deadline=None)
@given(drawn_links(), st.sampled_from([1, 20, 120]))
def test_quotient_search_equals_full_search_on_drawn_links(link, funcs):
    _assert_equitable(link, search._quotient(link))
    _assert_same_search(link, SearchBudget(max_depth=4, max_functions=funcs))


@settings(max_examples=200, deadline=None)
@given(small_or_empty_complexes())
def test_each_cell_sign_is_that_of_its_first_simplex(k):
    q = search._quotient(k)
    assert len(q.signs) == len(q.simplices) == len(q.sizes)
    assert q.signs == tuple((-1) ** len(s) for s in q.simplices)
