"""Complex construction, corpus sanity, links, joins, subdivision, maps."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (closure, dense_link, ref_geometric_link,
                      small_complexes, small_or_empty_complexes)
from eulerlink import corpus
from eulerlink.complexes import (Simplex, SimplicialComplex, SimplicialMap,
                                 _boundary_labels, _star_link,
                                 build_complex,
                                 barycentric_subdivision, cone,
                                 disjoint_union, euler_characteristic,
                                 geometric_link, join, point_complex,
                                 simplicial_link, suspension, validate_map,
                                 vertex_link)
from eulerlink.fileio import read_complex, save_complex
from eulerlink.functions import ConstructibleFunction, link_operator
from eulerlink.invariants import sullivan_check

ALL_CORPUS = [corpus.corpus_complex(n) for n in corpus.corpus_names()]

EXPECTED_CHI = {
    "theta": -1, "segment": 1, "circle": 0, "sphere2": 2, "sphere3": 0,
    "torus": 0, "klein": 0, "rp2": 1, "window": 1,
}


# -- constructors and closure --------------------------------------------------


def test_simplex_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        Simplex((0, 1, 0))


def test_build_complex_rejects_empty():
    with pytest.raises(ValueError):
        build_complex([])


@pytest.mark.parametrize("facets, message", [
    ([], "empty complex"),
    ([[0, 1], []], "a simplex needs at least one vertex"),
    ([[0, -1]], "vertex ids must be non-negative ints, got -1"),
    ([[0, 1.0]], "vertex ids must be non-negative ints, got 1.0"),
    ([[0, "1"]], "vertex ids must be non-negative ints, got '1'"),
    ([[0, 1], [2, 1, 2]], r"repeated vertex in simplex \(2, 1, 2\)"),
    ([[1, 2], [True, 2]], "vertex ids must be non-negative ints, got True"),
])
def test_build_complex_validates_every_generator(facets, message):
    with pytest.raises(ValueError, match=message):
        build_complex(facets)


@given(st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=5,
                         unique=True).map(lambda vs: tuple(sorted(vs))),
                max_size=40),
       st.sampled_from(["drawn", "presorted", "reversed", "duplicated",
                        "repeated"]))
@settings(max_examples=300, deadline=None)
def test_canonical_order_sorts_by_size_then_lexicographically(tuples,
                                                              arrangement):
    canonical = tuple(sorted(set(tuples), key=lambda s: (len(s), s)))
    given_order = {
        "drawn": tuples,
        "presorted": canonical,
        "reversed": canonical[::-1],
        "duplicated": [s for s in canonical for _ in range(2)],
        "repeated": canonical + canonical[::2] + canonical,
    }[arrangement]
    assert SimplicialComplex(given_order).simplices == canonical


@st.composite
def generators(draw):
    """Generators on sparse ids, in any vertex order, of mixed sizes, with
    copies and faces of other generators among them."""
    ids = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=7,
                        unique=True))
    simplex = st.lists(st.sampled_from(ids), min_size=1, max_size=5,
                       unique=True)
    gens = draw(st.lists(simplex, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        g = draw(st.sampled_from(gens))
        face = draw(st.lists(st.sampled_from(g), min_size=1, max_size=len(g),
                             unique=True))
        gens.insert(draw(st.integers(0, len(gens))), face)
    return gens


@given(generators())
@settings(max_examples=300, deadline=None)
def test_build_complex_is_the_sorted_closure(gens):
    k = build_complex(gens)
    assert k.simplices == closure(gens)
    assert all(type(s) is Simplex for s in k.simplices)
    assert [*map(k.index, k.simplices)] == [*range(len(k))]


def _counting_simplex_new():
    """Replace ``Simplex.__new__``, the validating constructor, by one that
    counts its calls; returns the call list and a function that restores
    it."""
    original = Simplex.__dict__["__new__"]
    validate = Simplex.__new__
    calls = []

    def counting(cls, vertices):
        calls.append(vertices)
        return validate(cls, vertices)

    Simplex.__new__ = staticmethod(counting)

    def restore():
        Simplex.__new__ = original

    return calls, restore


def _trusted_cases(tmp_path):
    """``(construction, complex it built, validations it needs)``: only the
    generators given to ``build_complex``, and the vertices of the point
    and poles that a cone or a suspension joins on, are validated.  The
    file reader checks its labels and hands sorted distinct ids on."""
    facets = [[0, 1, 2], [1, 2, 3], [3, 4]]
    yield "build_complex", lambda: build_complex(facets), len(facets)
    path = tmp_path / "sample.cplx"
    save_complex(corpus.torus(), str(path))
    yield "read_complex", lambda: read_complex(str(path)), 0
    rp2, theta = corpus.rp2(), corpus.theta()
    yield "join", lambda: join(rp2, theta), 0
    yield "cone", lambda: cone(theta), 1
    yield "suspension", lambda: suspension(rp2), 2
    yield "barycentric_subdivision", \
        lambda: barycentric_subdivision(rp2).complex, 0
    edge = rp2.simplices[rp2.n_vertices]
    yield "simplicial_link", lambda: simplicial_link(rp2, edge), 0
    yield "geometric_link", lambda: geometric_link(rp2, edge), 0


def test_internal_constructions_skip_validation(tmp_path):
    for what, make, expected in _trusted_cases(tmp_path):
        calls, restore = _counting_simplex_new()
        try:
            k = make()
        finally:
            restore()
        assert len(calls) == expected, what
        assert all(type(s) is Simplex for s in k.simplices), what
        _assert_valid_simplices(k)


def test_plain_tuples_are_validated():
    k = SimplicialComplex([(1, 0), Simplex((0,)), (1,), (0, 1)])
    assert k.simplices == ((0,), (1,), (0, 1))
    assert all(type(s) is Simplex for s in k.simplices)
    with pytest.raises(ValueError):
        SimplicialComplex([(0,), (0, 0)])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_construction_sorts_indexes_and_drops_repeats(data):
    # Shuffled simplices, some of them repeated, as Simplex or plain tuples.
    k = data.draw(small_or_empty_complexes())
    repeats = (data.draw(st.lists(st.sampled_from(k.simplices), max_size=8))
               if k.simplices else [])
    given_order = data.draw(st.permutations([*k.simplices, *repeats]))
    if data.draw(st.booleans()):
        given_order = [tuple(s) for s in given_order]
    canonical = tuple(sorted(set(map(tuple, given_order)),
                             key=lambda s: (len(s), s)))
    built = SimplicialComplex(given_order)
    assert built.simplices == canonical
    assert all(type(s) is Simplex for s in built.simplices)
    assert built._index == {s: i for i, s in enumerate(canonical)}


@given(small_or_empty_complexes())
@settings(max_examples=200, deadline=None)
def test_the_block_table_agrees_with_brute_force(k):
    sizes = [len(s) for s in k.simplices]
    dim = max(sizes, default=0) - 1
    assert k.dim == dim
    assert k.n_vertices == sizes.count(1)
    assert k.vertex_ids == tuple(s[0] for s in k.simplices if len(s) == 1)
    assert k.counts_by_dim() == tuple(sizes.count(d + 1)
                                      for d in range(dim + 1))
    assert euler_characteristic(k) == sum((-1) ** (n - 1) for n in sizes)


def test_downward_closure_exhaustive_on_small_complexes():
    for k in [build_complex([Simplex((0, 1, 2, 3))]),
              corpus.theta(), corpus.sphere2()]:
        present = set(k.simplices)
        for s in k.simplices:
            for r in range(1, len(s)):
                for sub in itertools.combinations(s, r):
                    assert Simplex(sub) in present


@pytest.mark.parametrize("call", [
    lambda k: link_operator(ConstructibleFunction.one(k)),
    lambda k: k.facets(),
    lambda k: simplicial_link(k, (0, 1)),
    barycentric_subdivision,
    sullivan_check,
], ids=["link_operator", "facets", "simplicial_link",
        "barycentric_subdivision", "sullivan_check"])
def test_a_complex_that_is_not_downward_closed_is_refused(call):
    k = SimplicialComplex([(0, 1)])
    with pytest.raises(ValueError) as err:
        call(k)
    assert str(err.value) == ("not downward closed: the face (0,) of the"
                              " simplex (0, 1) is not in the complex")


@given(small_complexes(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_incidence_tables_refuse_exactly_a_missing_face(k, data):
    # Closed, both tables build; with one proper face dropped, both name
    # it and the first simplex that has it as a face.
    k.face_pairs()
    faces = [s for s, row in zip(k.simplices, k.coface_table()) if row]
    if not faces:
        return
    tau = data.draw(st.sampled_from(faces))
    rest = [s for s in k.simplices if s != tau]
    first = next(s for s in rest if set(tau) < set(s))
    message = (f"not downward closed: the face {tuple(tau)} of the simplex"
               f" {tuple(first)} is not in the complex")
    for build in (SimplicialComplex.face_pairs,
                  SimplicialComplex.coface_table):
        with pytest.raises(ValueError) as err:
            build(SimplicialComplex(rest))
        assert str(err.value) == message


# -- corpus sanity -------------------------------------------------------------


def test_corpus_euler_characteristics():
    for name, chi in EXPECTED_CHI.items():
        assert euler_characteristic(corpus.corpus_complex(name)) == chi
    for name in EXPECTED_CHI:
        assert euler_characteristic(corpus.corpus_complex(f"cone_{name}")) == 1
        assert euler_characteristic(corpus.corpus_complex(f"susp_{name}")) \
            == 2 - EXPECTED_CHI[name]


def test_corpus_face_counts():
    assert corpus.theta().counts_by_dim() == (5, 6)
    assert corpus.window().counts_by_dim() == (25, 56, 32)
    assert corpus.rp2().counts_by_dim() == (6, 15, 10)
    assert corpus.torus().counts_by_dim() == (7, 21, 14)
    assert corpus.klein().counts_by_dim() == (16, 48, 32)
    assert corpus.sphere3().counts_by_dim() == (5, 10, 10, 5)


def edge_triangle_degrees(k):
    return [len([c for c in k.cofaces(k.index(e)) if len(k.simplices[c]) == 3])
            for e in k.simplices if len(e) == 2]


def link_is_single_cycle(k, v):
    lk = vertex_link(k, v)
    counts = lk.counts_by_dim()
    if len(counts) != 2 or counts[0] != counts[1]:
        return False
    deg = {u: 0 for u in lk.vertex_ids}
    for e in lk.simplices:
        if len(e) == 2:
            for u in e:
                deg[u] += 1
    if any(d != 2 for d in deg.values()):
        return False
    # connected?
    adj = {u: [] for u in lk.vertex_ids}
    for e in lk.simplices:
        if len(e) == 2:
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
    seen, todo = set(), [lk.vertex_ids[0]]
    while todo:
        u = todo.pop()
        if u not in seen:
            seen.add(u)
            todo.extend(adj[u])
    return len(seen) == len(lk.vertex_ids)


def is_orientable_surface(k):
    tris = [s for s in k.simplices if len(s) == 3]
    by_edge = {}
    for t in tris:
        for e in itertools.combinations(t, 2):
            by_edge.setdefault(e, []).append(t)
    orient = {tris[0]: 1}
    todo = [tris[0]]
    while todo:
        t = todo.pop()
        for e in itertools.combinations(t, 2):
            for t2 in by_edge[e]:
                if t2 == t:
                    continue
                # induced directions on the shared edge must disagree
                flip = _edge_sign(t, e) == _edge_sign(t2, e)
                want = -orient[t] if flip else orient[t]
                if t2 in orient:
                    if orient[t2] != want:
                        return False
                else:
                    orient[t2] = want
                    todo.append(t2)
    return True


def _edge_sign(tri, edge):
    # sign of the permutation putting the two edge vertices first
    rest = next(v for v in tri if v not in edge)
    order = (edge[0], edge[1], rest)
    perm = [order.index(v) for v in tri]
    sign = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_closed_surfaces_are_closed_surfaces():
    for name in ["sphere2", "torus", "klein", "rp2"]:
        k = corpus.corpus_complex(name)
        assert all(d == 2 for d in edge_triangle_degrees(k)), name
        assert all(link_is_single_cycle(k, v) for v in k.vertex_ids), name


def test_surface_orientability():
    assert is_orientable_surface(corpus.sphere2())
    assert is_orientable_surface(corpus.torus())
    assert not is_orientable_surface(corpus.klein())
    assert not is_orientable_surface(corpus.rp2())


def test_window_model():
    w = corpus.window()
    o = corpus.origin_vertex(w)
    assert w.simplex_name(o) == "(0,0)"
    assert link_is_single_cycle(w, o[0])      # interior vertex
    q = corpus.quadrant_subcomplex(w)
    assert euler_characteristic(q) == 1
    assert q.counts_by_dim() == (9, 16, 8)
    assert euler_characteristic(corpus.xaxis_subcomplex(w)) == 1


# -- links ---------------------------------------------------------------------


def test_vertex_link_examples():
    tri = build_complex([Simplex((0, 1, 2))])
    lk = vertex_link(tri, 0)
    assert lk.simplices == (Simplex((1,)), Simplex((2,)), Simplex((1, 2)))

    th = corpus.theta()
    junction = next(v for v in th.vertex_ids if th.label(v) == "a")
    lk = vertex_link(th, junction)
    assert lk.counts_by_dim() == (3,)
    assert euler_characteristic(lk) == 3

    s2 = corpus.sphere2()
    lk = vertex_link(s2, s2.vertex_ids[0])
    assert lk.counts_by_dim() == (3, 3)
    assert euler_characteristic(lk) == 0


def test_vertex_link_requires_membership():
    with pytest.raises(ValueError):
        vertex_link(corpus.theta(), 99)


def test_geometric_link_examples():
    s2 = corpus.sphere2()
    v = s2.vertex_ids[0]
    assert geometric_link(s2, Simplex((v,))).simplices == \
        vertex_link(s2, v).simplices

    edge = next(s for s in s2.simplices if len(s) == 2)
    gl = geometric_link(s2, edge)
    assert gl.counts_by_dim() == (4, 4)
    assert euler_characteristic(gl) == 0

    tri = build_complex([Simplex((0, 1, 2))])
    gl = geometric_link(tri, Simplex((0, 1, 2)))
    assert gl.counts_by_dim() == (3, 3)
    assert euler_characteristic(gl) == 0

    with pytest.raises(ValueError):
        geometric_link(tri, Simplex((0, 3)))


def _incidence_cases():
    yield from ALL_CORPUS
    yield join(corpus.rp2(), corpus.rp2(), name="rp2*rp2")
    yield barycentric_subdivision(corpus.corpus_complex("susp_rp2")).complex


@pytest.mark.parametrize("k", _incidence_cases(),
                         ids=lambda k: k.name or "complex")
def test_incidence_matches_the_frozenset_definitions(k):
    sets = [frozenset(s) for s in k.simplices]
    present = set(sets)
    for i, small in enumerate(sets):
        assert list(k.cofaces(i)) == [j for j, big in enumerate(sets)
                                      if small < big]
    assert set(k.facets()) == {s for s, a in zip(k.simplices, sets)
                               if not any(a < b for b in sets)}
    for tau, t in zip(k.simplices, sets):
        want = [s for s, a in zip(k.simplices, sets)
                if t.isdisjoint(a) and a | t in present]
        assert simplicial_link(k, tau).simplices == tuple(want)
    assert k.coface_table() == tuple(k.cofaces(i) for i in range(len(k)))


def _face_pair_cases():
    yield from _incidence_cases()
    yield SimplicialComplex([], name="empty")
    yield build_complex([(3, 40), (7,), (3, 9, 200)], name="sparse")


@pytest.mark.parametrize("k", _face_pair_cases(),
                         ids=lambda k: k.name or "complex")
def test_face_pairs_are_the_codimension_one_incidences(k):
    sets = [frozenset(s) for s in k.simplices]
    where = dict(zip(sets, range(len(sets))))
    want = {(where[big - {v}], j) for j, big in enumerate(sets)
            if len(big) > 1 for v in big}
    got = [pair for faces, cofaces in k.face_pairs()
           for pair in zip(faces, cofaces)]
    assert len(got) == len(want) == sum(len(s) for s in sets if len(s) > 1)
    assert set(got) == want
    assert k.face_pairs() is k.face_pairs()


def test_face_pairs_run_by_phase_then_decreasing_size():
    # A segment is one phase and one size: phase j drops the vertex with j
    # vertices above it.  Phases ascend, and sizes descend within a phase.
    k = corpus.corpus_complex("cone_sphere3")
    order = []
    for faces, cofaces in k.face_pairs():
        keys = set()
        for a, b in zip(faces, cofaces):
            sigma = k.simplices[b]
            (v,) = set(sigma) - set(k.simplices[a])
            keys.add((len(sigma) - 1 - sigma.index(v), -len(sigma)))
        assert len(keys) == 1
        assert list(cofaces) == sorted(cofaces)
        order += keys
    assert order == sorted(set(order))


def _assert_valid_simplices(k):
    for s in k.simplices:
        assert type(s) is Simplex
        assert s and s[0] >= 0 and all(isinstance(v, int) for v in s)
        assert all(a < b for a, b in zip(s, s[1:])), s


@pytest.mark.parametrize("k", _incidence_cases(),
                         ids=lambda k: k.name or "complex")
def test_internal_paths_build_valid_simplices(k):
    # build_complex, join and subdivision skip validation on the simplices
    # they make, and so do simplicial links and geometric links
    _assert_valid_simplices(k)
    for tau in k.simplices:
        _assert_valid_simplices(simplicial_link(k, tau))
        _assert_valid_simplices(geometric_link(k, tau))


def _vertex_cases():
    yield from _incidence_cases()
    yield SimplicialComplex([])
    sw = corpus.corpus_complex("susp_window")
    for tau in sw.simplices[::17]:
        yield geometric_link(sw, tau)  # fresh ids above sw's maximum


@pytest.mark.parametrize("k", _vertex_cases(),
                         ids=lambda k: k.name or "complex")
def test_vertex_queries_match_a_scan(k):
    vertices = tuple(s[0] for s in k.simplices if len(s) == 1)
    assert k.vertex_ids == vertices
    assert k.n_vertices == len(vertices)
    assert k.max_vertex_id() == max(vertices, default=-1)
    assert k.labels == {v: k.label(v) for v in vertices}


# -- names ---------------------------------------------------------------------


def _name_cases():
    yield from ALL_CORPUS
    # labels such as "(a b)"
    yield barycentric_subdivision(corpus.theta()).complex
    # no labels: every vertex is named by its id
    yield build_complex([[0, 1, 2], [2, 3]])


@pytest.mark.parametrize("k", _name_cases(),
                         ids=lambda k: k.name or "complex")
def test_name_table_matches_simplex_name(k):
    assert k.simplex_names() == tuple(k.simplex_name(s) for s in k.simplices)
    assert k.simplex_names() is k.simplex_names()


@pytest.mark.parametrize("name", ["susp_torus", "cone_window"])
def test_link_labels_name_the_dense_link_as_the_geometric_link(name):
    # Vertex j of a link key's dense link is named like vertex j of the
    # simplex's geometric link, built by brute force: the link vertices as
    # named in k, then the boundary's fresh labels.  That is how a report
    # names a witness's location without building the simplex's link.  The
    # boundary's labels are read once per complex and cut to tau's.
    k = corpus.corpus_complex(name)
    boundary = _boundary_labels(k, k.dim)
    for i, tau in enumerate(k.simplices):
        verts, rows = _star_link(k.simplices, tau, k.cofaces(i))
        label = [*map(k.label, verts), *boundary[:tau.dim and len(tau)]]
        ref = ref_geometric_link(k, tau)
        assert len(label) == ref.n_vertices
        assert tuple("(" + " ".join(map(label.__getitem__, s)) + ")"
                     for s in dense_link((tau.dim, rows)).simplices) == \
            ref.simplex_names(), tau


def test_boundary_labels_of_a_dimension_start_every_longer_list():
    # b0, b1, ... are each primed past k's labels alone, so the labels of
    # a d-simplex's boundary are the first d + 1 of any higher dimension's.
    k = build_complex([(0, 1, 2), (2, 3)],
                      labels={0: "b0", 1: "b1", 2: "b0'", 3: "b2''"})
    assert _boundary_labels(k, 0) == []
    assert _boundary_labels(k, 3) == ["b0''", "b1'", "b2", "b3"]
    for d in range(1, 4):
        assert _boundary_labels(k, d) == _boundary_labels(k, 3)[:d + 1]


# -- join, cone, suspension, union ----------------------------------------------


def test_join_small_examples():
    e = join(point_complex("p"), point_complex("q"))
    assert e.counts_by_dim() == (2, 1)
    s0 = build_complex([Simplex((0,)), Simplex((1,))])
    c4 = join(s0, s0)
    assert c4.counts_by_dim() == (4, 4)
    assert euler_characteristic(c4) == 0


def test_join_chi_identity_over_corpus_pairs():
    chis = [euler_characteristic(k) for k in ALL_CORPUS]
    for i in range(len(ALL_CORPUS)):
        for j in range(i, len(ALL_CORPUS)):
            got = euler_characteristic(join(ALL_CORPUS[i], ALL_CORPUS[j]))
            a, b = chis[i], chis[j]
            assert got == a + b - a * b, (ALL_CORPUS[i].name,
                                          ALL_CORPUS[j].name)


def test_disjoint_union_and_cone():
    for k in ALL_CORPUS[:9]:
        chi = euler_characteristic(k)
        assert euler_characteristic(disjoint_union(k, k)) == 2 * chi
        assert euler_characteristic(cone(k)) == 1
        assert euler_characteristic(suspension(k)) == 2 - chi
        assert cone(k).dim == k.dim + 1



# Labels that clash with each other, once primed, and with unlabelled ids.
CLASHING = ["a", "a'", "b", "0", "1"]


@st.composite
def labelled_complexes(draw):
    k = draw(small_or_empty_complexes())
    names = draw(st.lists(st.sampled_from(CLASHING), unique=True,
                          max_size=k.n_vertices))
    return SimplicialComplex(k.simplices,
                             labels=dict(zip(k.vertex_ids, names)))


def ref_beside(k, l):
    """``l``'s simplices with its vertices, in ascending order, moved above
    ``k``'s largest id, and the labels of both, each clashing label of
    ``l`` primed until it is fresh."""
    top = max(k.vertex_ids, default=-1)
    move = {v: top + 1 + i for i, v in enumerate(sorted(l.vertex_ids))}
    labels = dict(k.labels)
    used = set(labels.values())
    for v in sorted(l.vertex_ids):
        name = l.label(v)
        while name in used:
            name += "'"
        used.add(name)
        labels[move[v]] = name
    return [frozenset(map(move.__getitem__, s)) for s in l.simplices], labels


@settings(max_examples=150, deadline=None)
@given(labelled_complexes(), labelled_complexes())
def test_join_and_disjoint_union_match_the_reference(k, l):
    moved, labels = ref_beside(k, l)
    ks = [frozenset(s) for s in k.simplices]
    joined = ks + moved + [a | b for a in ks for b in moved]
    for got, faces in ((join(k, l), joined),
                       (disjoint_union(k, l), ks + moved)):
        assert got.simplices == closure(faces)
        assert got.vertex_ids == tuple(sorted(labels))
        assert got.labels == labels


# -- subdivision ----------------------------------------------------------------


def test_subdivision_counts():
    edge = build_complex([Simplex((0, 1))])
    sd = barycentric_subdivision(edge)
    assert sd.complex.counts_by_dim() == (3, 2)
    tri = build_complex([Simplex((0, 1, 2))])
    sd = barycentric_subdivision(tri)
    assert sd.complex.counts_by_dim() == (7, 12, 6)


def test_subdivision_preserves_chi_and_dim():
    for k in ALL_CORPUS:
        sd = barycentric_subdivision(k)
        assert euler_characteristic(sd.complex) == euler_characteristic(k)
        assert sd.complex.dim == k.dim
        carried = {sd.carrier(s) for s in sd.complex.simplices}
        assert carried == set(k.simplices)   # carrier is onto


def test_carrier_is_the_largest_simplex_of_the_chain():
    chains = 0
    for k in ALL_CORPUS:
        sd = barycentric_subdivision(k)
        for c in sd.complex.simplices:
            assert sd.carrier(c) == max((sd.base.simplices[v] for v in c),
                                        key=len)
        chains += len(sd.complex.simplices)
    assert chains == 45039


def _subdivision_cases():
    yield from ALL_CORPUS
    # sparse ids, custom labels (one with parentheses) and one default label
    yield build_complex([(3, 40), (7,), (3, 9, 200)], name="sparse",
                        labels={3: "x", 9: "(y)", 40: "z w", 200: "v"})


@pytest.mark.parametrize("k", _subdivision_cases(),
                         ids=lambda k: k.name or "complex")
def test_subdivision_vertices_are_named_from_the_base(k):
    # Vertex i of sd(k) is the barycenter of k.simplices[i]: a base vertex
    # keeps its label, any other simplex is named by its simplex name.
    sd = barycentric_subdivision(k).complex
    names = k.simplex_names()
    assert sd.vertex_ids == tuple(range(len(k)))
    for i in sd.vertex_ids:
        if i < k.n_vertices:
            assert sd.label(i) == k.label(k.vertex_ids[i]), i
        else:
            assert sd.label(i) == names[i], i


# -- simplicial maps --------------------------------------------------------------


def cycle(n, offset=0):
    return build_complex([Simplex(((i + offset), ((i + 1) % n + offset)))
                          for i in range(n)])


def test_validate_map_examples():
    th = corpus.theta()
    ident = SimplicialMap(th, th, {v: v for v in th.vertex_ids})
    assert validate_map(ident) == []

    c6, c3 = cycle(6), cycle(3)
    cover = SimplicialMap(c6, c3, {i: i % 3 for i in range(6)})
    assert validate_map(cover) == []

    # 0 and 3 are not adjacent in a hexagon
    bad = SimplicialMap(c6, c6, {i: (0 if i < 3 else 3) for i in range(6)})
    violations = validate_map(bad)
    assert violations and violations[0].kind == "non-simplex-image"
    assert violations[0].simplex in {Simplex((2, 3)), Simplex((5, 0))}
    with pytest.raises(ValueError):
        bad.check()


def test_validate_map_unmapped_and_missing_target():
    seg = build_complex([Simplex((0, 1))])
    pt = point_complex("p")
    partial = SimplicialMap(seg, pt, {0: pt.vertex_ids[0]})
    kinds = {v.kind for v in validate_map(partial)}
    assert kinds == {"unmapped-vertex"}
    stray = SimplicialMap(seg, pt, {0: pt.vertex_ids[0], 1: 999})
    kinds = {v.kind for v in validate_map(stray)}
    assert kinds == {"missing-target"}
