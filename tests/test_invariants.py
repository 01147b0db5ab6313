"""Invariant vectors, the three obstruction checks, certificates, bounds."""

import json
import os

import pytest
from hypothesis import given, settings

from conftest import (dense_link, dense_shape, link_key, ref_geometric_link,
                      ref_simplicial_link, small_complexes, tetrahedron_sums)
from eulerlink import cli, complexes, corpus, invariants, search
from eulerlink.complexes import (Simplex, SimplicialComplex, _star_link,
                                 barycentric_subdivision,
                                 build_complex, cone, disjoint_union,
                                 euler_characteristic, geometric_link, join,
                                 point_complex, simplicial_link, suspension)
from eulerlink.dyadic import Dyadic
from eulerlink.functions import (ConstructibleFunction, indicator_of_subcomplex,
                                 is_euler, link_operator)
from eulerlink.fileio import read_complex
from eulerlink.invariants import (MAX_BOUND_DIMENSION, MAX_BOUND_RANGE,
                                  NECESSARY_ONLY,
                                  BoundQuery, InvariantVector, ZERO_VECTOR,
                                  _ALPHA, _b_text, _search_text,
                                  b_vector,
                                  bonnard_bounds, dim3_check,
                                  divisibility_certificate, merge_reports,
                                  search_check, sullivan_check)
from eulerlink.search import (ONE_EXPR, ExpressionWitness, SearchBudget,
                              SearchResult, closure_search, halving_witness,
                              replay_witness, witness_text)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIM2_CORPUS = ["theta", "segment", "circle", "sphere2", "torus", "klein",
               "rp2", "window"]


# -- invariant vectors -----------------------------------------------------------


def test_vector_arithmetic_is_mod_two():
    a = InvariantVector(1, 0, 1, 0, 1)
    assert a + a == ZERO_VECTOR
    # a 5-bit vector, not a tuple concatenation
    total = a + InvariantVector(0, 1, 1, 0, 0)
    assert type(total) is InvariantVector
    assert total == InvariantVector(1, 1, 0, 0, 1)
    assert str(a) == "(1,0,1,0,1)"
    with pytest.raises(ValueError):
        InvariantVector(2, 0, 0, 0, 0)


def test_keyword_construction_is_validated_too():
    with pytest.raises(ValueError, match="mod-2 bits"):
        InvariantVector(chi2=0, b1=0, b2=3, b3=0, b4=0)
    with pytest.raises(ValueError, match="search budget out of range"):
        SearchBudget(max_depth=-1)
    with pytest.raises(ValueError, match="search budget out of range"):
        SearchBudget(max_functions=0)
    with pytest.raises(ValueError, match="dimension must be positive"):
        BoundQuery(d=0, k=1, delta=0)
    assert SearchBudget(max_functions=50) == SearchBudget(6, 50)


@pytest.mark.parametrize("record", [
    invariants.TestRow("dim3", None, "(a)", "pass", "b = (0,0,0,0,0)"),
    SearchResult("pass", None),
    halving_witness(("HALFLINK", ONE_EXPR), Simplex((0,)), 1),
    SearchBudget(),
    InvariantVector(0, 1, 0, 1, 0),
], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_b_vector_examples():
    assert b_vector(point_complex("p")) == InvariantVector(1, 0, 0, 0, 0)
    assert b_vector(corpus.rp2()) == InvariantVector(1, 0, 0, 0, 0)
    assert b_vector(corpus.sphere2()) == ZERO_VECTOR
    assert b_vector(corpus.torus()) == ZERO_VECTOR
    assert b_vector(corpus.klein()) == ZERO_VECTOR
    assert b_vector(corpus.circle()) == ZERO_VECTOR


def test_b_vector_obstruction_for_non_euler_complexes():
    th = corpus.theta()
    res = b_vector(th)
    assert isinstance(res, ExpressionWitness)
    assert res.value == Dyadic(3, 1)
    assert th.simplex_name(res.location) == "(a)"

    seg = corpus.segment()
    res = b_vector(seg)
    assert isinstance(res, ExpressionWitness)
    assert res.value == Dyadic(1, 1)


def test_b_vector_rejects_high_dimension():
    with pytest.raises(ValueError):
        b_vector(corpus.sphere3())


def test_b_vector_additivity_over_corpus_pairs():
    members = {n: corpus.corpus_complex(n) for n in DIM2_CORPUS}
    vectors = {n: b_vector(k) for n, k in members.items()}
    for nx, x in members.items():
        for ny, y in members.items():
            both = b_vector(disjoint_union(x, y))
            bx, by = vectors[nx], vectors[ny]
            if isinstance(bx, InvariantVector) and \
                    isinstance(by, InvariantVector):
                assert both == bx + by, (nx, ny)
                if nx == ny:
                    assert both == ZERO_VECTOR
            else:
                # a parity witness on either side survives into the union
                assert isinstance(both, ExpressionWitness), (nx, ny)


# -- sullivan ----------------------------------------------------------------------


def test_sullivan_matches_euler_condition_on_corpus():
    for name in corpus.corpus_names():
        k = corpus.corpus_complex(name)
        report = sullivan_check(k)
        ok, _ = is_euler(ConstructibleFunction.one(k))
        assert report.passed == ok, name
        assert NECESSARY_ONLY in report.notes


def test_sullivan_rows_carry_link_chi():
    report = sullivan_check(corpus.theta())
    bad = {r.where: r for r in report.failing()}
    assert set(bad) == {"(a)", "(b)"}
    assert all(r.data["link_chi"] == 3 for r in bad.values())
    assert report.summary["sullivan"] == "fail"


def _sullivan_reference(k) -> list[tuple]:
    """Sullivan's rows built one by one from the Dyadic link operator."""
    chis = map(int, link_operator(ConstructibleFunction.one(k)).values)
    return [("sullivan", s, k.simplex_name(s),
             "fail" if chi % 2 else "pass", f"link chi = {chi}",
             {"link_chi": chi})
            for s, chi in zip(k.simplices, chis)]


def _assert_sullivan_rows(k):
    report = sullivan_check(k)
    want = _sullivan_reference(k)
    assert [tuple(r) for r in report.rows] == want
    assert all(type(r) is invariants.TestRow and type(r.data["link_chi"]) is int
               for r in report.rows)
    assert report.passed == all(r[3] == "pass" for r in want)
    # rows of one link Euler characteristic share their data
    chis = {r.data["link_chi"] for r in report.rows}
    assert len(set(map(id, (r.data for r in report.rows)))) == len(chis)


@pytest.mark.parametrize("name", ["theta", "rp2", "window", "cone_rp2",
                                  "cone_theta", "susp_sphere2"])
def test_sullivan_rows_match_the_per_row_reference(name):
    _assert_sullivan_rows(corpus.corpus_complex(name))


def test_sullivan_notes_realizability_for_low_dimension():
    report = sullivan_check(corpus.circle())
    assert report.passed
    assert any("realizable" in n for n in report.notes)


# -- dim3 --------------------------------------------------------------------------


def test_dim3_check_passes_on_closed_examples():
    assert dim3_check(corpus.sphere3()).passed
    assert dim3_check(corpus.corpus_complex("susp_torus")).passed


def test_dim3_check_fails_at_cone_point_over_rp2():
    report = dim3_check(corpus.corpus_complex("cone_rp2"))
    assert not report.passed
    bad = {r.where for r in report.failing()}
    assert "(apex)" in bad
    apex_row = next(r for r in report.failing() if r.where == "(apex)")
    assert apex_row.data["b"] == [1, 0, 0, 0, 0]
    assert "chi2" in apex_row.value


def test_akl_is_obstructed_beyond_parity(akl):
    assert akl.counts_by_dim() == (8, 22, 18)
    assert tuple(b_vector(akl)) == (0, 1, 1, 0, 1)
    assert sullivan_check(akl).passed
    rep = dim3_check(suspension(akl))
    assert rep.summary == {"dim3": "fail"}
    assert [(r.where, r.value) for r in rep.failing()] == [
        (pole, "b = (0,1,1,0,1), nonzero: b1 b2 b4")
        for pole in ("(north)", "(south)")]


def test_akl_search_finds_the_depth_four_witness(akl):
    res = closure_search(akl)
    assert res.stop == "witness" and res.levels == (1, 3, 15, 218)
    w = res.witness
    assert witness_text(w.as_dict(akl.labels)) == (
        "MUL(HALFLINK(ONE), HALFLINK(MUL(HALFLINK(ONE), HALFLINK(ONE))))"
        " -> odd Euler integral 1")
    assert (w.depth, w.location, w.value) == (4, None, Dyadic(1))
    assert replay_witness(w, akl) == w.value


# Akbulut and King: on an Euler 2-complex, the search passes exactly where
# the b-vector vanishes.  A pass is checked at a budget that completes
# depth 4 on these complexes, a witness at the default budget.
SMALL_BUDGET = SearchBudget(max_depth=4, max_functions=2000)


def _assert_search_agrees_with_b_vector(k):
    b = b_vector(k)
    if isinstance(b, InvariantVector) and b.is_zero:
        assert closure_search(k, SMALL_BUDGET).passed
    else:
        res = closure_search(k)
        assert res.verdict == "witness"
        assert replay_witness(res.witness, k) == res.witness.value


def test_akl_and_its_double_agree_with_the_search(akl):
    # akl's witness is at depth 4, where the small budget fills first.
    assert closure_search(akl, SMALL_BUDGET).passed
    double = disjoint_union(akl, akl)
    assert b_vector(double) == ZERO_VECTOR
    for k in (akl, double):
        assert sullivan_check(k).passed
        _assert_search_agrees_with_b_vector(k)


@settings(max_examples=300, deadline=None)
@given(tetrahedron_sums())
def test_the_search_passes_exactly_where_the_b_vector_vanishes(k):
    _assert_search_agrees_with_b_vector(k)


def test_dim3_check_apex_iff_base_vector_vanishes():
    for name in DIM2_CORPUS:
        y = corpus.corpus_complex(name)
        report = dim3_check(cone(y))
        apex_rows = [r for r in report.rows if r.where == "(apex)"]
        assert len(apex_rows) == 1
        vec = b_vector(y)
        base_ok = isinstance(vec, InvariantVector) and vec.is_zero
        assert (apex_rows[0].verdict == "pass") == base_ok, name


# -- one local test per link key ----------------------------------------------------


def _dim3_reference(k):
    """Yield every simplex of ``k`` with its geometric link and the link's
    ``b_vector``: the per-simplex reference of ``dim3_check``, which reads
    its rows off link operators on ``k`` itself and builds no link."""
    for tau in k.simplices:
        link = geometric_link(k, tau)
        yield tau, link, b_vector(link)


def test_dim3_check_equals_per_simplex_b_vector_on_corpus():
    for name in corpus.corpus_names():
        k = corpus.corpus_complex(name)
        if k.dim > 3:
            continue
        rows = dim3_check(k).rows
        assert [r.simplex for r in rows] == list(k.simplices), name
        for row, (tau, link, res) in zip(rows, _dim3_reference(k)):
            assert row.where == k.simplex_name(tau)
            if isinstance(res, InvariantVector):
                assert (row.verdict == "pass") == res.is_zero
                assert row.value.startswith(f"b = {res}")
                assert row.data == {"b": list(res)}
            else:
                assert row.verdict == "fail"
                d = res.as_dict(link.labels)
                assert row.value == \
                    f"half-link obstruction: {witness_text(d)}"
                assert row.data == {"witness": d}, (name, row.where)


DIM3_CORPUS = [name for name in corpus.corpus_names()
               if corpus.corpus_complex(name).dim <= 3]


def _row_text(res, label):
    """The verdict, value and data of a dim3 row whose link has b-vector
    or half-link witness ``res``, the witness rendered on its own."""
    if isinstance(res, ExpressionWitness):
        d = res.as_dict(label)
        return ("fail", f"half-link obstruction: {witness_text(d)}",
                {"witness": d})
    return _b_text(res)


def _assert_dim3_rows_match_the_link_reference(k):
    # Every field of every row, a witness's location named with the labels
    # of the row's own geometric link.
    assert dim3_check(k).rows == tuple(
        invariants.TestRow("dim3", tau, k.simplex_name(tau),
                           *_row_text(res, link.labels))
        for tau, link, res in _dim3_reference(k))


def _dim3_rows_one_witness_each(k):
    """The rows of ``dim3_check`` with every located row's witness built on
    its own: ``halving_witness`` of the halving value at the row's odd
    simplex, located at that simplex's rho or at b0 on a fresh id."""
    simplices = k.simplices
    lam, _, packed, w = invariants._b_fields(k, -1)
    odd = [i for i, a in enumerate(lam) if a & 1]
    fails = invariants._first_odd_cofaces(k, odd)
    for i in odd:
        if len(simplices[i]) > 1:
            fails.setdefault(i, i)
    codes = [sum(packed[j] for j in k.cofaces(i)) for i in range(len(k))]
    base = k.max_vertex_id() + 1
    names = {**k.labels, base: complexes._boundary_labels(k, 1)[0]}
    for i, (tau, code) in enumerate(zip(simplices, codes)):
        j = fails.get(i)
        if j is None:
            res = invariants._b_of(code, w)
        else:
            at = (base,) if j == i else [v for v in simplices[j]
                                         if v not in tau]
            res = halving_witness(_ALPHA, Simplex(at), lam[j])
        yield invariants.TestRow("dim3", tau, k.simplex_name(tau),
                                 *_row_text(res, names))


@pytest.mark.parametrize("case", [*DIM3_CORPUS, "sd.cone_theta",
                                  "sd.cone_window"])
def test_dim3_rows_match_a_witness_built_per_row(case):
    # Each located row shares the witness of its halving value and names
    # its own location; cone_theta has two halving values, 1/2 and 3/2.
    sd, _, name = case.rpartition(".")
    k = corpus.corpus_complex(name)
    if sd:
        k = barycentric_subdivision(k).complex
    assert dim3_check(k).rows == tuple(_dim3_rows_one_witness_each(k))


@settings(max_examples=200, deadline=None)
@given(small_complexes())
def test_dim3_rows_match_a_witness_built_per_row_on_drawn_complexes(k):
    assert dim3_check(k).rows == tuple(_dim3_rows_one_witness_each(k))


def test_cone_theta_has_two_halving_values():
    rows = dim3_check(corpus.corpus_complex("cone_theta")).rows
    assert {r.data["witness"]["value"] for r in rows
            if "witness" in r.data} == {"1/2^1", "3/2^1"}


@pytest.mark.parametrize("subdivided", [False, True], ids=["K", "sd"])
@pytest.mark.parametrize("name", DIM3_CORPUS)
def test_dim3_rows_match_the_link_reference_on_the_corpus(name, subdivided):
    k = corpus.corpus_complex(name)
    if subdivided:
        k = barycentric_subdivision(k).complex
    _assert_dim3_rows_match_the_link_reference(k)


def test_dim3_rows_match_the_link_reference_on_the_akl_family(akl):
    # akl's cone and suspension have nonzero b-vectors at the new vertices.
    for k in (akl, cone(akl), suspension(akl),
              barycentric_subdivision(akl).complex, disjoint_union(akl, akl)):
        _assert_dim3_rows_match_the_link_reference(k)


@settings(max_examples=200, deadline=None)
@given(small_complexes())
def test_dim3_rows_match_the_link_reference_on_drawn_complexes(k):
    # At most 4 vertices a facet: every drawn complex has dimension <= 3.
    _assert_dim3_rows_match_the_link_reference(k)


@settings(max_examples=100, deadline=None)
@given(tetrahedron_sums())
def test_dim3_rows_match_the_link_reference_on_euler_2_complexes(y):
    for k in (y, cone(y), suspension(y)):
        _assert_dim3_rows_match_the_link_reference(k)


def _search_notes(k, results):
    """The report notes of ``search_check``, built from per-simplex
    searches: the weakest pass row's completeness and the guard hits of
    every row."""
    notes = [NECESSARY_ONLY]
    passes = [(tau, res) for tau, res in zip(k.simplices, results)
              if res.passed]
    if passes:
        low = min(res.depth_complete for _, res in passes)
        tau, res = next(p for p in passes if p[1].depth_complete == low)
        notes.append(f"search, weakest pass row {k.simplex_name(tau)}:"
                     f" {res.completeness()}")
    guard = sum(res.guard_hits for res in results)
    if guard:
        notes.append(f"value-growth guard pruned {guard} branches over all"
                     " rows")
    return tuple(notes)


def _bowtie():
    """Two triangles sharing the vertex v."""
    return build_complex([(0, 1, 2), (0, 3, 4)], name="bowtie",
                         labels=dict(enumerate("vabcd")))


# (complex, the rows whose search witness has a location).  Every corpus
# witness is an odd integral; the bowtie, its suspension and its cone have
# half links that are not integers.
_SEARCH_CASES = {
    "cone_sphere3": (lambda: corpus.corpus_complex("cone_sphere3"), []),
    "susp_sphere3": (lambda: corpus.corpus_complex("susp_sphere3"), []),
    "bowtie": (_bowtie, ["(v)"]),
    "susp_bowtie": (lambda: suspension(_bowtie()),
                    ["(v)", "(v north)", "(v south)"]),
    "cone_bowtie": (lambda: cone(_bowtie()), ["(v apex)"]),
}


@pytest.mark.parametrize("name", _SEARCH_CASES)
def test_search_check_equals_per_simplex_search(name):
    make, located = _SEARCH_CASES[name]
    k = make()
    budget = SearchBudget(max_functions=50)
    expected = []
    results = []
    for tau in k.simplices:
        link = geometric_link(k, tau)
        res = closure_search(link, budget)
        results.append(res)
        w = res.witness
        if w is not None:
            d = w.as_dict(link.labels)
            expected.append((k.simplex_name(tau), "fail", witness_text(d),
                             {"witness": d, "explored": res.explored,
                              "stop": res.stop}))
        else:
            expected.append((k.simplex_name(tau), "pass",
                             f"no witness within budget ({res.explored}"
                             f" functions, stop: {res.stop})",
                             {"explored": res.explored, "stop": res.stop,
                              "guard_hits": res.guard_hits,
                              "depth_complete": res.depth_complete}))
    report = search_check(k, budget)
    assert [(r.where, r.verdict, r.value, r.data)
            for r in report.rows] == expected
    assert report.notes == _search_notes(k, results)
    assert [r.where for r in report.rows if r.verdict == "fail"
            and r.data["witness"]["location"] != "integral"] == located


def test_search_notes_hold_for_every_row(monkeypatch):
    # The sphere's links come first and complete depth 3 at this budget;
    # the suspended figure eight has links with a richer closure that stop
    # inside depth 3.  At 8 guard bits only the sphere's rows hit the guard.
    fig8 = build_complex([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    k = disjoint_union(corpus.sphere2(), suspension(fig8))
    monkeypatch.setattr(search, "GUARD_BITS", 8)
    budget = SearchBudget(max_functions=50)
    results = [closure_search(geometric_link(k, tau), budget)
               for tau in k.simplices]
    report = search_check(k, budget)
    passes = [(r, res) for r, res in zip(report.rows, results) if res.passed]
    depths = [res.depth_complete for _, res in passes]
    assert set(depths) == {2, 3} and depths[0] == 3
    for row, res in passes:
        assert row.data["depth_complete"] == res.depth_complete
    assert 0 < passes[0][1].guard_hits < sum(r.guard_hits for r in results)
    assert report.notes == _search_notes(k, results)
    assert "depth <= 2 exhausted" in report.notes[1]
    assert report.notes[2] == ("value-growth guard pruned 44 branches over"
                               " all rows")


def _is_located(res) -> bool:
    w = res.witness if isinstance(res, SearchResult) else res
    return isinstance(w, ExpressionWitness) and w.location is not None


def _dense_results(k, local):
    """``local`` on the dense link of every simplex's link key, run once
    per key: a witness found there names a simplex of the dense link."""
    memo = {}
    for i, tau in enumerate(k.simplices):
        key = (tau.dim, _star_link(k.simplices, tau, k.cofaces(i))[1])
        if key not in memo:
            memo[key] = local(dense_link(key))
        yield memo[key]


def test_search_runs_once_per_link_key(monkeypatch):
    k = corpus.corpus_complex("susp_sphere3")
    searched, texts = [], []

    def star_search(k, i, rows, budget):
        res = search._search(k, i, rows, budget)
        searched.append((link_key(k, i), res))
        return res

    def text(res, label):
        texts.append(label)
        return _search_text(res, label)

    monkeypatch.setattr(invariants, "_search", star_search)
    monkeypatch.setattr(invariants, "_search_text", text)
    rows = search_check(k, SearchBudget(max_depth=1)).rows
    assert len(rows) == len(k.simplices) == 92
    assert len(searched) == 8
    assert texts == [None] * 8  # every witness is an odd integral
    results = dict(searched)  # link key -> its search
    assert len(results) == 8
    for i, (tau, row) in enumerate(zip(k.simplices, rows)):
        assert row.simplex == tau and row.test == "search"
        assert row[3:] == _search_text(results[link_key(k, i)], None)


def test_located_witness_rows_are_named_as_on_their_own_link(monkeypatch):
    # A located search witness's text is made once per row, named under
    # the row's own link; every other text once per link shape, without
    # labels.  A located dim3 witness is named as on its own link too.
    budget = SearchBudget(max_functions=50)
    texts = []

    def text(res, label):
        texts.append(label)
        return _search_text(res, label)

    monkeypatch.setattr(invariants, "_search_text", text)
    sb = suspension(_bowtie())
    cw = corpus.corpus_complex("cone_window")
    cases = [(sb, search_check(sb, budget),
              lambda link: closure_search(link, budget)),
             (cw, dim3_check(cw), b_vector)]
    located = {}
    for k, report, local in cases:
        located[k] = 0
        for tau, row, res in zip(k.simplices, report.rows,
                                 _dense_results(k, local)):
            if _is_located(res):
                located[k] += 1
                own = geometric_link(k, tau)
                w = res.witness if isinstance(res, SearchResult) else res
                # the dense link's simplex at the same index of own
                at = own.simplices[dense_shape(own).index(tuple(w.location))]
                named = w._replace(location=at).as_dict(own.labels)
                assert row.data["witness"] == named, tau
                assert row.value.endswith(f" at {own.simplex_name(at)}")
    assert located[sb] == 3 and located[cw] > 1
    assert len([x for x in texts if x is not None]) == located[sb]
    assert None in texts


@pytest.mark.parametrize("k", [
    corpus.corpus_complex("susp_sphere3"),
    build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
                  labels={0: "b0", 1: "b1", 2: "x", 3: "y"})],
    ids=["susp_sphere3", "primed_sphere2"])
def test_located_search_witness_on_the_boundary_is_named(k, monkeypatch):
    # No search in the corpus finds a witness on a boundary vertex, so every
    # search here reports one at its dense link's last vertex, which is the
    # last boundary vertex when the simplex is not a vertex.  Each row names
    # it as its own geometric link names its last vertex: on the sphere, b0
    # and b1 are primed past the complex's own labels.
    def star_search(k, i, rows, budget):
        # The dense link has its n link vertices, then the boundary's d + 1.
        n, d = [*map(len, rows)].count(1), k.simplices[i].dim
        last = Simplex((n + d if d else n - 1,))
        return search._search(k, i, rows, budget)._replace(
            witness=halving_witness(("HALFLINK", ONE_EXPR), last, 1))

    monkeypatch.setattr(invariants, "_search", star_search)
    rows = search_check(k, SearchBudget(max_functions=50)).rows
    assert len(rows) == len(k.simplices)
    for tau, row in zip(k.simplices, rows):
        own = geometric_link(k, tau)
        where = f"({own.label(own.vertex_ids[-1])})"
        assert row.data["witness"]["location"] == where, tau
        assert row.value.endswith(f" at {where}"), tau
    assert {row.data["witness"]["location"] for row in rows
            if row.simplex.dim} == (
        {"(b1')", "(b2)"} if k.dim == 2 else {"(b1)", "(b2)", "(b3)", "(b4)"})


def _star_key_cases():
    for name in corpus.corpus_names():
        yield corpus.corpus_complex(name)
    yield barycentric_subdivision(corpus.corpus_complex("susp_rp2")).complex
    yield join(corpus.rp2(), corpus.rp2(), name="rp2*rp2")
    # labels that the boundary's b0, b1, ... must be primed past
    yield build_complex([(0, 1, 2), (2, 3)], name="primed",
                        labels={0: "b0", 1: "b1", 2: "b0'", 3: "b2''"})
    yield build_complex([(3, 40), (7,), (3, 9, 200)], name="sparse")


def _assert_same_complex(got, want, tau):
    assert got.simplices == want.simplices, tau
    assert got.labels == want.labels, tau
    assert got.simplex_names() == want.simplex_names(), tau


def _assert_star_keys_exact(k):
    """Link keys equal the keys read from the whole star; the simplicial
    and the geometric link equal the brute-force references, simplices,
    labels and names; and the dense link built from the key has the
    reference geometric link's dense shape, so simplices with equal keys
    have links of equal shape."""
    for i, tau in enumerate(k.simplices):
        verts, rows = _star_link(k.simplices, tau, k.cofaces(i))
        key = (tau.dim, rows)
        assert key == link_key(k, i), tau
        link = ref_simplicial_link(k, tau)
        _assert_same_complex(simplicial_link(k, tau), link, tau)
        assert tuple(verts) == link.vertex_ids, tau
        ref = ref_geometric_link(k, tau)
        _assert_same_complex(geometric_link(k, tau), ref, tau)
        assert dense_link(key).simplices == dense_shape(ref), tau


@pytest.mark.parametrize("k", _star_key_cases(),
                         ids=lambda k: k.name or "complex")
def test_star_keys_are_exact(k):
    _assert_star_keys_exact(k)


@settings(max_examples=100, deadline=None)
@given(small_complexes())
def test_star_keys_are_exact_on_drawn_complexes(k):
    _assert_star_keys_exact(k)


@settings(max_examples=100, deadline=None)
@given(small_complexes())
def test_sullivan_rows_match_the_per_row_reference_on_drawn_complexes(k):
    _assert_sullivan_rows(k)


def test_search_check_builds_no_link(monkeypatch):
    # The search runs on each link key's star in k: it builds no complex,
    # so no link and no link coface table, and reads k's coface table.
    def unused(*args, **kwargs):
        raise AssertionError("search_check built a link")

    k = corpus.corpus_complex("susp_sphere3")
    monkeypatch.setattr(complexes, "geometric_link", unused)
    monkeypatch.setattr(SimplicialComplex, "__init__", unused)
    searched, tables = [], set()
    star_search, cofaces = search._search, SimplicialComplex.cofaces

    def counting_search(k, i, rows, budget):
        searched.append(i)
        return star_search(k, i, rows, budget)

    def counting_cofaces(k, i):
        tables.add(k)
        return cofaces(k, i)

    monkeypatch.setattr(invariants, "_search", counting_search)
    monkeypatch.setattr(SimplicialComplex, "cofaces", counting_cofaces)
    report = search_check(k, SearchBudget(max_functions=50))
    assert len(report.rows) == 92
    assert tables == {k}
    assert len(searched) == 8  # one per link key


@pytest.mark.parametrize("name, flags, code, located", [
    ("window", [], 2, 32), ("susp_window", [], 2, 98),
    ("susp_sphere3", ["--max-funcs", "50"], 0, 0),
    ("window", ["--search", "--max-funcs", "50"], 2, 32)],
    ids=["window-32", "susp_window-98", "susp_sphere3-search",
         "window-search-32"])
def test_check_reads_each_star_once_only_when_it_searches(name, flags, code,
                                                          located, tmp_path,
                                                          monkeypatch):
    # Only the search reads a star (the link vertices with the link key):
    # once per simplex, in canonical order.  dim3 rows, located ones too,
    # are read off link operators on the complex and read none.  The
    # window and its suspension fail, with half-link witnesses that name a
    # simplex of the link; the 4-sphere and the searched window run the
    # search.
    read = []

    def counting_star_link(simplices, tau, row):
        read.append(tau)
        return _star_link(simplices, tau, row)

    monkeypatch.setattr(invariants, "_star_link", counting_star_link)
    out = tmp_path / "report.json"
    path = os.path.join(ROOT, "corpus", f"{name}.cplx")
    got = cli.main(["check", "--json", "-o", str(out), *flags, path])
    rows = json.loads(out.read_text(encoding="utf-8"))["tests"]
    witnessed = [r for r in rows if "witness" in r
                 and r["witness"]["location"] != "integral"]
    searched = any(r["test"] == "search" for r in rows)
    assert got == code
    assert searched == (name == "susp_sphere3" or "--search" in flags)
    assert read == (list(read_complex(path).simplices) if searched else [])
    assert len(witnessed) == located


@pytest.mark.parametrize("name, code, located", [
    ("window", 2, 32), ("susp_window", 2, 98), ("cone_window", 2, 146),
    ("sphere3", 0, 0), ("torus", 0, 0)],
    ids=["window-32", "susp_window-98", "cone_window-146", "sphere3-0",
         "torus-0"])
def test_dim3_check_builds_no_link(name, code, located, tmp_path,
                                   monkeypatch):
    # dim3_check reads every row off link operators on the complex, rows
    # with a located half-link witness too: it runs no b_vector, builds no
    # link, reads no star or coface table.  sphere3 and the torus pass
    # every test; the window and its cone and suspension fail, with
    # half-link witnesses that name a simplex of the link.
    def unused(*args):
        raise AssertionError("dim3_check read a link")

    for module in (invariants, complexes):
        monkeypatch.setattr(module, "_star_link", unused)
    monkeypatch.setattr(complexes, "geometric_link", unused)
    monkeypatch.setattr(invariants, "b_vector", unused)
    monkeypatch.setattr(SimplicialComplex, "cofaces", unused)
    out = tmp_path / "report.json"
    path = os.path.join(ROOT, "corpus", f"{name}.cplx")
    assert cli.main(["check", "--json", "-o", str(out), path]) == code
    rows = json.loads(out.read_text(encoding="utf-8"))["tests"]
    assert sum("witness" in r and r["witness"]["location"] != "integral"
               for r in rows) == located


@pytest.mark.parametrize("name, flags, once", [
    ("window", [], False), ("susp_window", [], False),
    ("susp_sphere3", ["--max-funcs", "50"], True)],
    ids=["window", "susp_window", "susp_sphere3"])
def test_check_calls_cofaces_once_per_complex(name, flags, once, tmp_path,
                                              monkeypatch):
    # The one call on a complex builds its coface table, whose rows are
    # the stars the search reads its links from.  The check of a complex
    # of dimension <= 3 builds no table at all.
    calls = {}
    cofaces = SimplicialComplex.cofaces

    def counting_cofaces(k, i):
        calls[k] = calls.get(k, 0) + 1
        return cofaces(k, i)

    monkeypatch.setattr(SimplicialComplex, "cofaces", counting_cofaces)
    cli.main(["check", "--json", "-o", str(tmp_path / "report.json"), *flags,
              os.path.join(ROOT, "corpus", f"{name}.cplx")])
    assert (name in {k.name for k in calls}) == once
    assert set(calls.values()) <= {1}


@pytest.mark.parametrize("flags", [[], ["--search", "--max-funcs", "50"]],
                         ids=["", "search"])
@pytest.mark.parametrize("name", ["window", "susp_window"])
def test_check_renders_one_witness_per_halving_value_and_search_key(
        name, flags, tmp_path, monkeypatch):
    # One top-level expression_str per distinct halving value of the dim3
    # rows, one per located search row, and one per link key whose
    # witness has no location; recursive calls are not counted.
    calls, depth = [], [0]
    render = search.expression_str

    def counting_str(expr):
        if not depth[0]:
            calls.append(expr)
        depth[0] += 1
        try:
            return render(expr)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(search, "expression_str", counting_str)
    out = tmp_path / "report.json"
    path = os.path.join(ROOT, "corpus", f"{name}.cplx")
    assert cli.main(["check", "--json", "-o", str(out), path, *flags]) == 2
    rows = json.loads(out.read_text(encoding="utf-8"))["tests"]
    k = read_complex(path)
    index = dict(zip(k.simplex_names(), range(len(k))))
    located = [r for r in rows
               if "witness" in r and r["witness"]["location"] != "integral"]
    values = {r["witness"]["value"] for r in located if r["test"] == "dim3"}
    searched = [r for r in located if r["test"] == "search"]
    keys = {(r["test"], link_key(k, index[r["simplex"]]))
            for r in rows
            if "witness" in r and r["witness"]["location"] == "integral"}
    assert values == {"1/2^1"}
    assert bool(keys) == bool(flags)
    assert len(calls) == len(values) + len(searched) + len(keys) == {
        ("window", False): 1, ("window", True): 6,
        ("susp_window", False): 1, ("susp_window", True): 11}[
            name, bool(flags)]


def test_reused_witnesses_replay_on_their_own_links():
    # search witnesses on the 4-ball are all odd integrals
    ball = corpus.corpus_complex("cone_sphere3")
    budget = SearchBudget(max_functions=50)

    def local(link):
        return closure_search(link, budget)

    searched = [(tau, res.witness) for tau, res
                in zip(ball.simplices, _dense_results(ball, local))
                if res.witness is not None]
    assert len(searched) == 30
    # half-link witnesses of the cone over the window, and of the
    # suspended bowtie's search, sit at a simplex, which moves from link
    # to link
    cw = corpus.corpus_complex("cone_window")
    halved = [(tau, res) for tau, res
              in zip(cw.simplices, _dense_results(cw, b_vector))
              if isinstance(res, ExpressionWitness)]
    assert len({w.location for _, w in halved}) > 1
    sb = suspension(_bowtie())
    located = [(tau, res.witness) for tau, res
               in zip(sb.simplices, _dense_results(sb, local))
               if _is_located(res)]
    assert len(located) == 3
    for k, found, report in ((ball, searched, search_check(ball, budget)),
                             (cw, halved, dim3_check(cw)),
                             (sb, located, search_check(sb, budget))):
        rows = {r.simplex: r for r in report.rows}
        for tau, w in found:
            own = geometric_link(k, tau)
            where = rows[tau].data["witness"]["location"]
            at = None if where == "integral" else next(
                s for s in own.simplices if own.simplex_name(s) == where)
            assert (at is None) == (w.location is None)
            assert replay_witness(w._replace(location=at), own) == w.value



# -- search check and report plumbing ---------------------------------------------


def test_search_check_flags_theta_junctions():
    report = search_check(corpus.theta(), SearchBudget(max_depth=1,
                                                       max_functions=50))
    bad = {r.where for r in report.failing()}
    assert bad == {"(a)", "(b)"}


def test_merge_reports_combines_summaries():
    k = corpus.corpus_complex("cone_rp2")
    merged = merge_reports(sullivan_check(k), dim3_check(k))
    assert set(merged.summary) == {"sullivan", "dim3"}
    # base-vertex links are discs, apex link is the surface: all odd chi
    assert merged.summary["sullivan"] == "fail"
    assert merged.summary["dim3"] == "fail"
    assert not merged.passed
    assert NECESSARY_ONLY in merged.notes

    s3 = corpus.sphere3()
    merged = merge_reports(sullivan_check(s3), dim3_check(s3))
    assert merged.passed
    assert merged.summary == {"sullivan": "pass", "dim3": "pass"}

    with pytest.raises(ValueError):
        merge_reports(sullivan_check(k), sullivan_check(corpus.theta()))


# -- divisibility ------------------------------------------------------------------


def test_divisibility_certificate_on_quadrant_multiples():
    w = corpus.window()
    one_q = indicator_of_subcomplex(w, corpus.quadrant_subcomplex(w))
    assert divisibility_certificate(one_q.scale(Dyadic(4))).certified
    cert = divisibility_certificate(one_q.scale(Dyadic(2)))
    assert not cert.certified
    assert cert.min_valuation == 1 and cert.dimension == 2
    assert divisibility_certificate(ConstructibleFunction.zero(w)).certified
    with pytest.raises(ValueError):
        divisibility_certificate(one_q.scale(Dyadic(1, 1)))


# -- presentation bounds -----------------------------------------------------------


def test_bonnard_bound_triples():
    assert (lambda b: (b.n, b.n_prime))(
        bonnard_bounds(BoundQuery(1, 1, 0))) == (1, 2)
    assert (lambda b: (b.n, b.n_prime))(
        bonnard_bounds(BoundQuery(2, 2, 1))) == (5, 13)
    assert (lambda b: (b.n, b.n_prime))(
        bonnard_bounds(BoundQuery(3, 0, -4))) == (4, 4)


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(0, 1, 0)
    with pytest.raises(ValueError):
        BoundQuery(2, -1, 0)
    BoundQuery(MAX_BOUND_DIMENSION, 1, 0)
    with pytest.raises(ValueError, match="above the supported maximum"):
        BoundQuery(MAX_BOUND_DIMENSION + 1, 1, 0)
    with pytest.raises(ValueError, match="above the supported maximum"):
        BoundQuery(10**12, 1, 0)
    # At every cap at once, N and N' still print as decimals.
    for delta in (MAX_BOUND_RANGE, -MAX_BOUND_RANGE):
        b = bonnard_bounds(BoundQuery(MAX_BOUND_DIMENSION, MAX_BOUND_RANGE,
                                      delta))
        assert len(str(b.n)) < len(str(b.n_prime)) < 2300
    with pytest.raises(ValueError, match="range radius is above"):
        BoundQuery(2, MAX_BOUND_RANGE + 1, 0)
    with pytest.raises(ValueError, match="offset is above"):
        BoundQuery(2, 1, MAX_BOUND_RANGE + 1)
    with pytest.raises(ValueError, match="offset is above"):
        BoundQuery(2, 1, -MAX_BOUND_RANGE - 1)


def test_bounds_monotone_in_range_radius():
    for d in (1, 2, 3, 4):
        prev = None
        for k in range(0, 8):
            b = bonnard_bounds(BoundQuery(d, k, 0))
            assert b.n <= b.n_prime
            if prev is not None:
                assert b.n >= prev.n and b.n_prime >= prev.n_prime
            prev = b


def test_check_runs_four_zeta_passes_on_a_dim3_complex(tmp_path,
                                                        monkeypatch):
    # Sullivan's test and dim3_check read one Lambda_K(1); dim3_check adds
    # the passes on alpha^2, alpha^3 and the packed parities.
    calls = []
    star_sums = invariants._star_sums

    def counting_star_sums(k, xs):
        calls.append(k.name)
        return star_sums(k, xs)

    monkeypatch.setattr(invariants, "_star_sums", counting_star_sums)
    path = os.path.join(ROOT, "corpus", "window.cplx")
    assert cli.main(["check", "--json", "-o", str(tmp_path / "r.json"),
                     path]) == 2
    assert calls == ["window"] * 4
