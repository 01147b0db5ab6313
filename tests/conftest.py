"""Shared generators for the randomized suites, and the closure,
dense-shape, dense-link, link-key and link references.

Every generator takes an explicit random.Random so a failing case can be
reproduced from the seed alone.
"""

import random
from itertools import chain, combinations

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from eulerlink.complexes import (Simplex, SimplicialComplex, SimplicialMap,
                                 build_complex, cone, suspension,
                                 validate_map)
from eulerlink.dyadic import Dyadic
from eulerlink.functions import ConstructibleFunction
from eulerlink.invariants import sullivan_check


def random_complex(rng: random.Random, max_vertices: int = 8,
                   max_dim: int = 3) -> SimplicialComplex:
    n = rng.randint(1, max_vertices)
    facets = []
    for _ in range(rng.randint(1, 6)):
        d = rng.randint(0, min(max_dim, n - 1))
        facets.append(Simplex(rng.sample(range(n), d + 1)))
    return build_complex(facets)


def boundary_sum(rng: random.Random, d: int,
                 n: int) -> SimplicialComplex | None:
    """A mod-2 sum of one to five boundaries of (d+1)-simplices on the
    vertices 0..n-1, or None when it is empty."""
    faces = set()
    for _ in range(rng.randint(1, 5)):
        faces ^= set(combinations(sorted(rng.sample(range(n), d + 2)), d + 1))
    return build_complex(sorted(faces)) if faces else None


def random_function(rng: random.Random, k: SimplicialComplex,
                    lo: int = -3, hi: int = 3) -> ConstructibleFunction:
    return ConstructibleFunction(k, [Dyadic(rng.randint(lo, hi))
                                     for _ in k.simplices])


def random_simplicial_map(rng: random.Random, k: SimplicialComplex,
                          l: SimplicialComplex,
                          attempts: int = 80) -> SimplicialMap:
    """A valid map k -> l; falls back to a constant map, which always is."""
    for _ in range(attempts):
        vm = {v: rng.choice(l.vertex_ids) for v in k.vertex_ids}
        f = SimplicialMap(k, l, vm)
        if not validate_map(f):
            return f
    w = l.vertex_ids[0]
    return SimplicialMap(k, l, {v: w for v in k.vertex_ids})


@st.composite
def small_complexes(draw):
    """Complexes of at most 20 simplices on at most 6 vertices."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    facets = draw(st.lists(st.lists(vertex, min_size=1, max_size=4,
                                    unique=True), min_size=1, max_size=4))
    k = build_complex(facets)
    assume(len(k) <= 20)
    return k


@st.composite
def cones_and_suspensions(draw):
    """Complexes of dimension 4 and 5: one or two cones or suspensions of a
    ``small_complexes()`` complex of dimension 2 or 3."""
    k = draw(small_complexes())
    assume(k.dim >= 2)
    for op in draw(st.lists(st.sampled_from([cone, suspension]),
                            min_size=4 - k.dim, max_size=2)):
        k = op(k)
    return k


@st.composite
def tetrahedron_sums(draw):
    """Mod-2 sums of 1 to 5 tetrahedron boundaries on 5 to 9 vertices, the
    generator that found ``akl``, kept where Sullivan's test passes."""
    n = draw(st.integers(5, 9))
    tetrahedra = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=4,
                                        max_size=4, unique=True),
                               min_size=1, max_size=5))
    triangles = set()
    for t in tetrahedra:
        triangles ^= set(combinations(sorted(t), 3))
    assume(triangles)
    k = build_complex(sorted(triangles))
    assume(sullivan_check(k).passed)
    return k


def small_or_empty_complexes():
    """``small_complexes``, and the empty complex."""
    return st.one_of(st.just(SimplicialComplex([])), small_complexes())


def closure(generators) -> tuple[tuple[int, ...], ...]:
    """The downward closure of the generators, each a list of distinct
    non-negative ints: every nonempty subset of every generator, once, by
    size, then lexicographically."""
    faces = {face for g in generators
             for r in range(1, len(g) + 1)
             for face in combinations(sorted(g), r)}
    return tuple(sorted(faces, key=lambda s: (len(s), s)))


def dense_shape(link: SimplicialComplex) -> tuple:
    """The link's simplex tuple with its vertex ids relabelled densely in
    increasing order: what the link-shape memo keys its results by."""
    dense = {v: i for i, v in enumerate(link.vertex_ids)}
    return tuple(tuple(dense[v] for v in s) for s in link.simplices)


def dense_link(key: tuple) -> SimplicialComplex:
    """The geometric link of link key ``key``, a simplex's dimension d and
    its link rows, on dense ids and without labels: the rows on
    ``0 .. n-1``, the boundary of a d-simplex on ``n .. n+d`` (no faces for
    d = 0), and their join.  Its ``simplices`` are the dense shape of the
    geometric link of every simplex with this key."""
    d, rows = key
    n = [*map(len, rows)].count(1)
    bfaces = [c for r in range(1, d + 1)
              for c in combinations(range(n, n + d + 1), r)]
    return SimplicialComplex([Simplex(s) for s in (
        *bfaces, *rows, *(r + b for r in rows for b in bfaces))])


def link_key(k: SimplicialComplex, i: int) -> tuple:
    """The link key of simplex ``i``, read from its whole star: ``dim tau``
    and tau's strict cofaces with tau's vertices dropped, the rest
    renumbered densely in ascending order."""
    simplices = k.simplices
    tau = simplices[i]
    star = list(map(simplices.__getitem__, k.coface_table()[i]))
    verts = sorted(set(chain.from_iterable(star)).difference(tau))
    dense = dict(zip(verts, range(len(verts))))
    get, has = dense.__getitem__, dense.__contains__
    return (len(tau) - 1, tuple([tuple(map(get, filter(has, s)))
                                 for s in star]))


def _ref_complex(faces, labels: dict) -> SimplicialComplex:
    """The complex of ``faces`` (sets of ids), sorted here by size, then
    lexicographically, with ``labels`` for its vertices."""
    rows = sorted((tuple(sorted(f)) for f in faces),
                  key=lambda s: (len(s), s))
    return SimplicialComplex([Simplex(r) for r in rows], labels=labels)


def ref_simplicial_link(k: SimplicialComplex, tau) -> SimplicialComplex:
    """The link of ``tau`` by brute force: every simplex of ``k`` disjoint
    from tau whose union with tau is in ``k``, with ``k``'s ids and
    labels."""
    t = frozenset(tau)
    present = {frozenset(s) for s in k.simplices}
    faces = [a for a in present if t.isdisjoint(a) and a | t in present]
    verts = {v for a in faces for v in a}
    return _ref_complex(faces, {v: k.label(v) for v in verts})


def ref_geometric_link(k: SimplicialComplex, tau) -> SimplicialComplex:
    """The link of ``tau`` joined with the boundary of a ``dim tau``-simplex
    on the ids above ``k``'s largest vertex id, labelled ``b0 .. bd``, each
    primed until no vertex of ``k`` has it (no boundary for a vertex)."""
    link = ref_simplicial_link(k, tau)
    d = len(tau) - 1
    top = max((s[0] for s in k.simplices if len(s) == 1), default=-1)
    bverts = list(range(top + 1, top + 2 + d)) if d else []
    boundary = [frozenset(c) for r in range(1, d + 1)
                for c in combinations(bverts, r)]
    faces = [frozenset(s) for s in link.simplices]
    faces += boundary + [a | b for a in faces for b in boundary]
    used = {k.label(s[0]) for s in k.simplices if len(s) == 1}
    names = []
    for i in range(len(bverts)):
        name = f"b{i}"
        while name in used:
            name += "'"
        names.append(name)
    return _ref_complex(faces, {**link.labels, **dict(zip(bverts, names))})


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0)


# An Euler 2-complex whose b-vector is (0,1,1,0,1): every link is even, so
# Sullivan's test passes, but b1, b2 and b4 do not vanish.  Akbulut and
# King ("Topology of real algebraic sets", MSRI Publ. 25, 1992) show that
# vanishing b-invariants decide realizability in dimension 3, so its cone
# and its suspension are not real algebraic.  It is a test fixture, not a
# corpus file, so the corpus and its pinned reports stay as they are.
AKL_TRIANGLES = ("0 1 5, 0 1 6, 0 2 5, 0 2 6, 0 3 4, 0 3 6, 0 4 5, 0 4 6,"
                 " 0 4 7, 0 5 6, 0 6 7, 1 2 4, 1 2 6, 1 4 5, 2 4 5, 3 4 7,"
                 " 3 6 7, 4 5 6")


@pytest.fixture
def akl() -> SimplicialComplex:
    return build_complex([tuple(map(int, t.split()))
                          for t in AKL_TRIANGLES.split(", ")], name="akl")
