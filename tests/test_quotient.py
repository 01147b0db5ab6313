"""The closure search on a link's quotient, one value per cell, against a
search on one value per link simplex; the search on a star's cells against
the search on the link, and the star's operator, weights and location rule
against the geometric link."""

import random
from collections import Counter
from itertools import combinations
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (AKL_TRIANGLES, boundary_sum, cones_and_suspensions,
                      dense_link, dense_shape, link_key, random_complex,
                      small_or_empty_complexes)
from eulerlink import corpus, search
from eulerlink.complexes import (Simplex, _star_link, build_complex, cone,
                                 geometric_link, suspension)
from eulerlink.dyadic import Dyadic
from eulerlink.functions import (ConstructibleFunction, _int_link, _star_sums,
                                 euler_integral, link_operator)
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
    levels = tuple(levels[:complete + 1])
    # Read off the stop and the complete levels, not kept from the loop.
    depth_complete = (budget.max_depth if stop == "depth-limit"
                      else len(levels) - 1)
    return SearchResult("witness" if witness else "pass", witness,
                        explored=len(values), candidates=candidates,
                        guard_hits=guard_hits, stop=stop, budget=budget,
                        levels=levels, depth_complete=depth_complete)


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


def _star_cells(k):
    """The cells of each link key's star, at the key's first simplex, and
    of the key's dense link."""
    firsts = {}
    for i in range(len(k)):
        firsts.setdefault(link_key(k, i), i)
    return ([search._quotient(k, i, key[1]) for key, i in firsts.items()],
            [search._quotient(dense_link(key)) for key in firsts])


@pytest.mark.parametrize("name, star, link", [("susp_sphere3", 28, 43),
                                              ("cone_sphere3", 33, 57)])
def test_a_four_complex_has_fewer_cells_on_stars_than_on_links(name, star,
                                                               link):
    stars, links = _star_cells(corpus.corpus_complex(name))
    assert (sum(len(q.sizes) for q in stars),
            sum(len(q.sizes) for q in links)) == (star, link)


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


# -- the search on a star ---------------------------------------------------


def _fields(res):
    w = res.witness
    return (res.verdict, res.explored, res.candidates, res.guard_hits,
            res.stop, res.levels,
            w and (w.expr, w.kind, w.depth, w.value, w.location))


def _assert_star_search_is_link_search(k, budget) -> list:
    """The search on every link key's star equals ``closure_search`` on the
    key's dense link, field for field; the results, one per key."""
    results = {}
    for i, tau in enumerate(k.simplices):
        key = link_key(k, i)
        if key not in results:
            res = results[key] = search._search(k, i, key[1], budget)
            assert _fields(res) == \
                _fields(closure_search(dense_link(key), budget)), tau
    return [*results.values()]


@pytest.mark.parametrize("max_functions", [50, 300])
@pytest.mark.parametrize("name", ["susp_sphere3", "cone_sphere3"])
def test_star_search_equals_link_search_on_corpus_four_complexes(
        name, max_functions):
    results = _assert_star_search_is_link_search(
        corpus.corpus_complex(name), SearchBudget(max_functions=max_functions))
    stops = Counter(res.stop for res in results)
    assert stops["max-functions"] and (name == "susp_sphere3"
                                       or stops["witness"])


def test_star_search_equals_link_search_on_susp2_akl():
    akl = build_complex([tuple(map(int, t.split()))
                         for t in AKL_TRIANGLES.split(", ")])
    results = _assert_star_search_is_link_search(
        suspension(suspension(akl)), SearchBudget(max_functions=300))
    assert len(results) == 31


def test_star_search_counts_the_same_guard_hits(monkeypatch):
    monkeypatch.setattr(search, "GUARD_BITS", 12)
    results = _assert_star_search_is_link_search(
        corpus.corpus_complex("cone_sphere3"), SearchBudget(max_functions=300))
    assert sum(res.guard_hits for res in results) > 0


@settings(max_examples=40, deadline=None)
@given(cones_and_suspensions(), st.sampled_from([1, 20, 120]))
def test_star_search_equals_link_search_on_drawn_complexes(k, funcs):
    _assert_star_search_is_link_search(
        k, SearchBudget(max_depth=4, max_functions=funcs))


def _check_star_against_link(k, i, rng) -> str:
    """Check the star of simplex ``i`` against its geometric link G, on
    random integer F: Lambda_G of F pulled back is 2F - Lambda_K F pulled
    back, G's first odd simplex and its value follow the location rule, and
    G's Euler integral is the sum of w F, for F on the closed star and, with
    the operator read off the cells (``search._quotient``), for F constant
    on the cells.  Returns where the cells' first odd value is: ``b0`` with
    no odd strict coface, ``b0 | rho >= 2`` before one with two or more
    vertices, ``rho`` or ``even``."""
    simplices = k.simplices
    tau = simplices[i]
    link = geometric_link(k, tau)
    top = k.max_vertex_id()
    b0 = Simplex((top + 1,))
    over = [Simplex({*tau, *(v for v in g if v <= top)})
            for g in link.simplices]
    strict = [simplices[j] for j in k.cofaces(i)]  # canonical order
    rel = strict + [tau] * (len(tau) > 1)

    def weight(s):
        return 1 + (-1) ** len(s) if s == tau else (-1) ** len(s)

    def first_odd(phi):
        lam = link_operator(phi)
        return next(((g, v) for g, v in zip(link.simplices, lam.values)
                     if v.num & 1), None), lam

    closed = {f for s in rel for r in range(1, len(s) + 1)
              for f in map(Simplex, combinations(s, r))}
    f = ConstructibleFunction(k, [rng.randint(-3, 3) if s in closed else 0
                                  for s in simplices])
    x = link_operator(f).scale(-1) + f + f  # 2F - Lambda_K F
    phi = ConstructibleFunction(link, [f[s] for s in over])
    odd, lam = first_odd(phi)
    assert lam == ConstructibleFunction(link, [x[s] for s in over])
    rho = next((s for s in strict if x[s].num & 1), None)
    if len(tau) > 1 and x[tau].num & 1 and (rho is None
                                            or len(rho) - len(tau) > 1):
        assert odd == (b0, x[tau])
    elif rho is not None:
        assert odd == (Simplex(set(rho) - set(tau)), x[rho])
    else:
        assert odd is None
    assert euler_integral(phi) == Dyadic(sum(weight(s) * f[s].num
                                             for s in rel))

    verts, rows = _star_link(simplices, tau, k.cofaces(i))
    q = search._quotient(k, i, rows)
    order = [*dict.fromkeys(over)]  # rel(tau) by G's first simplex over it
    assert sorted(order) == sorted(rel) and len(order) == len(q.cells)
    cell = dict(zip(order, q.cells))
    y = [rng.randint(-3, 3) for _ in q.sizes]
    phi = ConstructibleFunction(link, [y[cell[s]] for s in over])
    lam, at = _int_link(y, search._cell_star_sums(q, y))
    odd, got = first_odd(phi)
    assert got == ConstructibleFunction(link, [lam[cell[s]] for s in over])
    assert euler_integral(phi) == Dyadic(sum(map(mul, q.weights, y)))
    if at < 0:
        assert odd is None
        return "even"
    n = len(verts)
    dense = dict(zip(verts, range(n)))  # the boundary on the next ids
    assert (tuple(dense.get(v, v - top - 1 + n) for v in odd[0]),
            odd[1]) == (q.simplices[at], Dyadic(lam[at]))
    if q.simplices[at] != (n,):
        return "rho"
    later = [c for c in range(at + 1, len(q.sizes)) if lam[c] & 1]
    return "b0 | rho >= 2" if later else "b0"


@settings(max_examples=60, deadline=None)
@given(cones_and_suspensions(), st.randoms(use_true_random=False))
def test_star_operator_weights_and_location_on_drawn_complexes(k, rng):
    for i in range(len(k)):
        _check_star_against_link(k, i, rng)


def test_star_location_rule_cases_all_occur():
    # Cones and suspensions of seeded random complexes, of dimension 4, and
    # three draws of F per simplex: a failed halving is located at b0
    # alone, at b0 before a rho of two or more vertices, and at a rho.
    rng = random.Random(0)
    cases = Counter()
    for _ in range(12):
        k = random_complex(rng, max_vertices=6, max_dim=3)
        while k.dim < 4:
            k = rng.choice([cone, suspension])(k)
        for i in range(len(k)):
            for _ in range(3):
                cases[_check_star_against_link(k, i, rng)] += 1
    assert cases["b0"] and cases["b0 | rho >= 2"] and cases["rho"]


def _boundary_sums():
    """Seeded mod-2 sums of boundaries of 5- and 6-simplices on d + 3
    vertices: cycles of dimension d = 4 and 5, not cones or suspensions."""
    rng = random.Random(0)
    sums = []
    while len(sums) < 12:
        d = 4 + len(sums) % 2
        k = boundary_sum(rng, d, d + 3)
        if k is not None:
            sums.append(k)
    return sums


BOUNDARY_SUMS = _boundary_sums()


def test_star_location_rule_on_boundary_sums():
    # One draw of F per simplex: all three location cases occur.
    rng = random.Random(1)
    cases = Counter(_check_star_against_link(k, i, rng)
                    for k in BOUNDARY_SUMS for i in range(len(k)))
    assert cases["b0"] and cases["b0 | rho >= 2"] and cases["rho"], cases


def test_star_search_equals_link_search_on_boundary_sums():
    budget = SearchBudget(max_functions=50)
    for k in BOUNDARY_SUMS:
        _assert_star_search_is_link_search(k, budget)
