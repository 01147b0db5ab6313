"""Finite simplicial complexes with exact combinatorial operations.

A complex is stored as the full set of its simplices (not just facets) in a
canonical order: sorted by dimension, then lexicographically by vertex ids.
Vertex ids are non-negative integers (not bools) and may be sparse;
optional string labels are carried alongside for I/O and reporting.

The canonical sort keeps presorted runs, so a construction that makes its
simplices in canonical order, or in a few canonical runs, pays about one
comparison per simplex for it.  A subdivision grows its chains a length
at a time in lexicographic order, a join chains the two complexes and
their joined pairs, and ``build_complex`` closes its generators a level
(one simplex size) at a time, each level sorted.  After the sort, the
constructor hashes each simplex once, into the index, and keeps the end of
each size's block (``_ends``, one bisection per size).  The dimension, the
vertex count, the counts by dimension, ``face_pairs`` and the functions
module's signs and Euler integral read whole blocks from that table
instead of testing each simplex.

Constructions keep the first operand's vertex ids stable and move the second
operand (or any freshly invented vertices, e.g. cone apexes and boundary
spheres of geometric links) to ids above the current maximum.  That makes
decompositions such as "boundary part / link part of a join" recoverable
from the ids alone, which the function calculus relies on.

The link of a simplex is read from its star, its row of the coface
table, by one reader, ``_star_link``: the link vertices, ascending, and
the link's rows on dense ids.  Those rows, with the simplex's dimension,
are the link key that decides a geometric link's shape.
``geometric_link`` joins the rows, moved onto ``k``'s ids, with the
boundary of a simplex on fresh ids above ``k``'s, in one construction.

Two incidence tables are built on first use.  The coface table lists every
strict coface of every simplex, and only stars read it: the links above,
the order complex of a subdivision and the closure search's cells.
``face_pairs`` lists the codimension-one incidences alone, which is all
that ``facets`` and the link operator of the functions module need.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import (chain, combinations, compress, product, repeat,
                       starmap)
from operator import add, not_, sub
from typing import NamedTuple

# The most simplices ``build_complex`` will build.  The second subdivision
# of a corpus 3-complex, sd(sd(susp_torus)), has 70,394.
MAX_SIMPLICES = 2 ** 20


class Simplex(tuple):
    """A simplex as a strictly increasing tuple of vertex ids."""

    __slots__ = ()

    def __new__(cls, vertices) -> "Simplex":
        vs = tuple(vertices)
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"vertex ids must be non-negative ints, got {v!r}")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in simplex {vs}")
        if any(a >= b for a, b in zip(vs, vs[1:])):
            vs = tuple(sorted(vs))
        return super().__new__(cls, vs)

    @property
    def dim(self) -> int:
        return len(self) - 1


def _trusted(tuples):
    """Simplices from strictly increasing tuples of non-negative ints,
    unchecked and lazily, one C call each: only for internal paths that
    produce such tuples.  Outside input goes through ``Simplex(...)``, which
    validates."""
    return map(tuple.__new__, repeat(Simplex), tuples)


class SimplicialComplex:
    """A finite simplicial complex, whose simplices must be downward closed
    (the first build of an incidence table checks it).

    The simplices are sorted, by two sorts keyed in C that merge presorted
    runs, and then hashed once, into the index.  The sort puts repeats side
    by side, so an index shorter than the simplices shows them, and only
    then are they dropped.  ``_ends[d]`` ends dimension ``d``'s block."""

    def __init__(self, simplices, labels: dict[int, str] | None = None,
                 name: str | None = None):
        simplices = list(simplices)
        if not {Simplex}.issuperset(map(type, simplices)):
            simplices = [s if type(s) is Simplex else Simplex(s)
                         for s in simplices]
        simplices.sort()
        simplices.sort(key=len)
        index = dict(zip(simplices, range(len(simplices))))
        if len(index) < len(simplices):
            simplices = [*index]  # the first of each run of repeats
            index = dict(zip(simplices, range(len(simplices))))
        self.simplices: tuple[Simplex, ...] = tuple(simplices)
        self.name = name
        self._index = index
        top = len(simplices[-1]) if simplices else 0
        self._ends: tuple[int, ...] = tuple(
            bisect_left(simplices, size, key=len)
            for size in range(2, top + 2))
        self._labels = dict(labels) if labels else {}
        self._cofaces: tuple[tuple[int, ...], ...] | None = None
        self._pairs: tuple[tuple[tuple[int, ...], range], ...] | None = None
        self._lam1 = None  # invariants._lambda_one
        self._names: tuple[str, ...] | None = None

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self):
        return iter(self.simplices)

    def __contains__(self, s) -> bool:
        return (s if isinstance(s, Simplex) else Simplex(s)) in self._index

    def index(self, s: Simplex) -> int:
        return self._index[s]

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex."""
        return len(self._ends) - 1

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.simplices[:self.n_vertices])

    @property
    def n_vertices(self) -> int:
        """The vertices come first in canonical order: the size-1 block."""
        return self._ends[0] if self._ends else 0

    def label(self, v: int) -> str:
        return self._labels.get(v, str(v))

    @property
    def labels(self) -> dict[int, str]:
        return {v: self.label(v) for v in self.vertex_ids}

    def simplex_name(self, s: Simplex) -> str:
        return "(" + " ".join(self.label(v) for v in s) + ")"

    def simplex_names(self) -> tuple[str, ...]:
        """``simplex_name`` of every simplex, indexed like ``simplices``.
        The first call builds the table."""
        if self._names is None:
            lab = self.labels.__getitem__
            self._names = tuple(["(" + " ".join(map(lab, s)) + ")"
                                 for s in self.simplices])
        return self._names

    def max_vertex_id(self) -> int:
        """Id of the last vertex (vertex ids ascend); -1 without vertices."""
        n = self.n_vertices
        return self.simplices[n - 1][0] if n else -1

    def facets(self) -> tuple[Simplex, ...]:
        """Maximal simplices, in canonical order: those that are the face
        of no pair in ``face_pairs()``."""
        faces = set(chain.from_iterable(f for f, _ in self.face_pairs()))
        return tuple(compress(self.simplices, map(
            not_, map(faces.__contains__, range(len(self.simplices))))))

    def counts_by_dim(self) -> tuple[int, ...]:
        """The length of each dimension's block."""
        ends = self._ends
        return tuple(map(sub, ends, (0, *ends)))

    def cofaces(self, i: int) -> tuple[int, ...]:
        """Indices of all simplices strictly containing simplex ``i``, in
        ascending order.

        The first call builds the whole table by enumerating the proper
        faces of every simplex through the index: sum of 2^|s| - 2 lookups.
        """
        if self._cofaces is None:
            index = self._index
            table = [[] for _ in self.simplices]
            try:
                for j, s in enumerate(self.simplices):
                    for r in range(1, len(s)):
                        for face in combinations(s, r):
                            table[index[face]].append(j)
            except KeyError:
                raise ValueError(
                    f"not downward closed: the face {face} of the simplex"
                    f" {s} is not in the complex") from None
            self._cofaces = tuple(tuple(row) for row in table)
        return self._cofaces[i]

    def coface_table(self) -> tuple[tuple[int, ...], ...]:
        """Every row of ``cofaces`` at once, indexed by simplex."""
        if self._cofaces is None and self.simplices:
            self.cofaces(0)  # the first call builds the table
        return self._cofaces or ()

    def face_pairs(self) -> tuple[tuple[tuple[int, ...], range], ...]:
        """The codimension-one incidences: a pair ``(index of sigma - v,
        index of sigma)`` for every simplex sigma of size >= 2 and every
        vertex v of sigma, once each.

        They come as segments ``(faces, cofaces)``, the pairs
        ``zip(faces, cofaces)``, in the order the zeta transform of the
        functions module runs them.  Phase j holds the pairs whose v has j
        vertices of sigma above it; its segments run by decreasing size of
        sigma, one segment per size, with ``cofaces`` ascending.

        The first call builds the table by one ``combinations(sigma,
        |sigma| - 1)`` walk per simplex through the index: the walk's j-th
        face drops the vertex with j vertices above it, so a phase takes
        every |sigma|-th face of each size, from the j-th on.  That is
        sum of |sigma| lookups, against sum of 2^|sigma| - 2 for
        ``coface_table``."""
        if self._pairs is None:
            simplices, index, ends = self.simplices, self._index, self._ends
            top = len(ends)
            blocks = []  # (size, faces, cofaces), by decreasing size
            for size in range(top, 1, -1):
                lo, hi = ends[size - 2], ends[size - 1]
                walks = map(combinations, simplices[lo:hi], repeat(size - 1))
                try:
                    faces = tuple(map(index.__getitem__,
                                      chain.from_iterable(walks)))
                except KeyError:
                    self.coface_table()  # raises, naming a missing face
                blocks.append((size, faces, range(lo, hi)))
            self._pairs = tuple((faces[j::size], cofaces)
                                for j in range(top)
                                for size, faces, cofaces in blocks
                                if j < size)
        return self._pairs

    def __repr__(self) -> str:
        tag = self.name or "complex"
        return f"<{tag}: {self.n_vertices} vertices, dim {self.dim}>"


def build_complex(facets, labels: dict[int, str] | None = None,
                  name: str | None = None) -> SimplicialComplex:
    """Build the downward closure of the given generating simplices.

    Each generator not yet a ``Simplex`` is validated once; its faces are
    then strictly increasing by construction.  The closure is built a level
    at a time, from the largest size down: the simplices of one size are
    that size's generators and the ``combinations(sigma, size - 1)`` of
    every sigma a level up, sorted.  That is sum of |sigma| boundary
    tuples, where every face of every generator is sum of 2^|sigma| - 1,
    and the levels, by increasing size, are in canonical order.

    That sum, plus the size's generators, bounds a level before it is
    built, and a closure that could pass ``MAX_SIMPLICES`` is refused."""
    generators: dict[int, list[Simplex]] = {}
    for f in facets:
        s = f if type(f) is Simplex else Simplex(f)
        generators.setdefault(len(s), []).append(s)
    if not generators:
        raise ValueError("empty complex")
    levels = [()]
    built = 0
    for size in range(max(generators), 0, -1):
        bound = (built + (size + 1) * len(levels[-1])
                 + len(generators.get(size, ())))
        if bound > MAX_SIMPLICES:
            raise ValueError(
                f"complex too large: up to {bound} simplices of {size} or"
                f" more vertices, over the limit of {MAX_SIMPLICES}")
        boundary = map(combinations, levels[-1], repeat(size))
        levels.append(sorted({*chain.from_iterable(boundary),
                              *generators.get(size, ())}))
        built += len(levels[-1])
    return SimplicialComplex(_trusted(chain.from_iterable(reversed(levels))),
                             labels=labels, name=name)


def euler_characteristic(k: SimplicialComplex) -> int:
    """Alternating sum of face counts (0 for the empty complex)."""
    counts = k.counts_by_dim()
    return sum(counts[0::2]) - sum(counts[1::2])


# -- links -----------------------------------------------------------------


def _star_link(simplices, tau, row) -> tuple[list[int], tuple]:
    """The link of ``tau`` read from its star, the coface indices ``row``:
    ``s`` is disjoint from tau with ``s | tau`` in the complex exactly when
    ``s | tau`` is a strict coface of tau.  So the link vertices are the
    star's vertices outside tau, ascending, and the link rows are the star
    with tau's vertices dropped and the rest renumbered densely (vertex j
    is the j-th link vertex), which keeps their canonical order."""
    star = list(map(simplices.__getitem__, row))
    verts = sorted(set(chain.from_iterable(star)).difference(tau))
    dense = dict(zip(verts, range(len(verts))))
    get, has = dense.__getitem__, dense.__contains__
    return verts, tuple([tuple(map(get, filter(has, s))) for s in star])


def _link_rows(k: SimplicialComplex, tau) -> tuple[Simplex, list[int], list]:
    """``tau``, checked to be in ``k``, its link vertices, ascending, and
    its link rows (``_star_link``) moved back onto ``k``'s ids."""
    tau = tau if isinstance(tau, Simplex) else Simplex(tau)
    if tau not in k:
        raise ValueError(f"simplex {tuple(tau)} is not in the complex")
    verts, rows = _star_link(k.simplices, tau, k.cofaces(k.index(tau)))
    # The link vertices ascend, so each row mapped back ascends.
    return tau, verts, [tuple(map(verts.__getitem__, r)) for r in rows]


def simplicial_link(k: SimplicialComplex, tau) -> SimplicialComplex:
    """The classical link: simplices disjoint from ``tau`` whose join with
    it lies in the complex.  Vertex ids are inherited from ``k``."""
    return SimplicialComplex(_trusted(_link_rows(k, tau)[2]),
                             labels=k._labels)


def vertex_link(k: SimplicialComplex, v: int) -> SimplicialComplex:
    return simplicial_link(k, Simplex((v,)))


def _fresh_labels(k: SimplicialComplex, wanted: list[str]) -> list[str]:
    used = set(k.labels.values())
    out = []
    for w in wanted:
        while w in used:
            w += "'"
        used.add(w)
        out.append(w)
    return out


def geometric_link(k: SimplicialComplex, tau) -> SimplicialComplex:
    """Boundary of a small neighborhood sphere around an interior point of
    ``tau``: the join of the boundary of a ``dim tau``-simplex (on fresh
    vertex ids above ``k``'s maximum) with the simplicial link of ``tau``.

    For a vertex this is the ordinary vertex link; for a maximal simplex of
    top dimension d it is the boundary sphere of a d-simplex.  Its
    simplices, ``tau``'s link rows on ``k``'s ids, the boundary's faces
    and their joins, are built in one construction.
    """
    tau, verts, rows = _link_rows(k, tau)
    base = k.max_vertex_id() + 1
    fresh = range(base, base + len(tau))
    labels = dict(zip(verts, map(k.label, verts)))
    labels.update(zip(fresh, _boundary_labels(k, tau.dim)))
    bfaces = [c for r in range(1, len(tau)) for c in combinations(fresh, r)]
    return SimplicialComplex(_trusted(
        [*bfaces, *rows, *starmap(add, product(rows, bfaces))]), labels=labels)


def _boundary_labels(k: SimplicialComplex, d: int) -> list[str]:
    """The labels of the boundary vertices of a ``d``-simplex's geometric
    link in ``k``: ``b0 .. bd``, each primed until it is fresh in ``k``
    (none for a vertex).  No ``bi`` primed is a ``bj``, so each label
    depends on ``k`` alone, and the list for d starts every longer one."""
    return _fresh_labels(k, [f"b{i}" for i in range(d + 1)]) if d else []


# -- joins and friends ------------------------------------------------------


def _beside(k: SimplicialComplex, l: SimplicialComplex):
    """The simplices of ``l`` with its vertices, in ascending order, moved
    onto fresh ids above ``k``'s, and the labels of both, each of ``l``'s
    primed until it is fresh in ``k``."""
    old = l.vertex_ids  # ascending
    base = k.max_vertex_id() + 1
    ren = dict(zip(old, range(base, base + len(old))))
    # The renumbering is increasing, so each moved simplex ascends and the
    # moved simplices keep their canonical order.
    moved = [*_trusted(tuple(map(ren.__getitem__, s)) for s in l.simplices)]
    fresh = _fresh_labels(k, [*map(l.label, old)])
    return moved, {**k._labels, **dict(zip(ren.values(), fresh))}


def join(k: SimplicialComplex, l: SimplicialComplex,
         name: str | None = None) -> SimplicialComplex:
    """Simplicial join.  Keeps ``k``'s ids; ``l`` moves to fresh ids."""
    moved, labels = _beside(k, l)
    # The moved simplices are on ids above k's, so a + b ascends.
    simplices = chain(k.simplices, moved,
                      _trusted(starmap(add, product(k.simplices, moved))))
    return SimplicialComplex(simplices, labels=labels, name=name)


def disjoint_union(k: SimplicialComplex, l: SimplicialComplex,
                   name: str | None = None) -> SimplicialComplex:
    moved, labels = _beside(k, l)
    return SimplicialComplex([*k.simplices, *moved], labels=labels, name=name)


def point_complex(label: str = "pt", name: str | None = None) -> SimplicialComplex:
    return SimplicialComplex([Simplex((0,))], labels={0: label}, name=name)


def cone(k: SimplicialComplex, apex_label: str = "apex",
         name: str | None = None) -> SimplicialComplex:
    return join(k, point_complex(apex_label), name=name)


def suspension(k: SimplicialComplex, name: str | None = None) -> SimplicialComplex:
    poles = SimplicialComplex([Simplex((0,)), Simplex((1,))],
                              labels={0: "north", 1: "south"})
    return join(k, poles, name=name)


def full_subcomplex(k: SimplicialComplex, vertices,
                    name: str | None = None) -> SimplicialComplex:
    """All simplices of ``k`` spanned by the given vertex set (ids kept)."""
    vs = set(vertices)
    simplices = [s for s in k.simplices if set(s) <= vs]
    labels = {v: k.label(v) for v in vs if Simplex((v,)) in k}
    return SimplicialComplex(simplices, labels=labels, name=name)


# -- barycentric subdivision -------------------------------------------------


class Subdivision(NamedTuple):
    """First barycentric subdivision together with its carrier data.

    Vertex ``i`` of the subdivided complex is the barycenter of
    ``base.simplices[i]``; a simplex of the subdivision is a chain of
    base simplices ordered by strict inclusion, and its carrier is the
    largest element of that chain.

    That is the chain's last vertex: a strict face is smaller, so it comes
    before its cofaces in canonical order, and base indices ascend along
    the chain as the simplex's vertex ids do.
    """

    base: SimplicialComplex
    complex: SimplicialComplex

    def carrier(self, chain: Simplex) -> Simplex:
        return self.base.simplices[chain[-1]]


def barycentric_subdivision(k: SimplicialComplex) -> Subdivision:
    """Order complex of the face poset of ``k``.

    The chains are grown a length at a time: each chain of one length
    extends by every coface of its last simplex, whose index is larger."""
    table = k.coface_table()
    level = [(i,) for i in range(len(k.simplices))]
    chains = []
    while level:
        chains += level
        level = [c + (j,) for c in level for j in table[c[-1]]]
    # A vertex is named by its label, any other simplex as simplex_name.
    labels = dict(enumerate(k.simplex_names()))
    labels.update(enumerate(map(k.label, k.vertex_ids)))
    sd = SimplicialComplex(_trusted(chains), labels=labels,
                           name=f"sd({k.name})" if k.name else None)
    return Subdivision(base=k, complex=sd)


# -- simplicial maps ---------------------------------------------------------


class MapViolation(NamedTuple):
    """A reason a vertex assignment fails to be simplicial."""

    kind: str  # "unmapped-vertex" | "missing-target" | "non-simplex-image"
    simplex: Simplex
    detail: str


class SimplicialMap(NamedTuple):
    """A map of complexes given by its action on vertex ids."""

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: dict[int, int]

    def image(self, s: Simplex) -> Simplex:
        return Simplex(sorted({self.vertex_map[v] for v in s}))

    def check(self) -> None:
        bad = validate_map(self)
        if bad:
            raise ValueError(f"not a simplicial map: {bad[0].detail}")


def validate_map(f: SimplicialMap) -> list[MapViolation]:
    """All the ways ``f`` fails to be simplicial (empty list if valid)."""
    out = []
    tverts = set(f.target.vertex_ids)
    for v in f.source.vertex_ids:
        if v not in f.vertex_map:
            out.append(MapViolation("unmapped-vertex", Simplex((v,)),
                                    f"vertex {f.source.label(v)} has no image"))
        elif f.vertex_map[v] not in tverts:
            out.append(MapViolation("missing-target", Simplex((v,)),
                                    f"vertex {f.source.label(v)} maps outside the target"))
    if out:
        return out
    for s in f.source.simplices:
        img = f.image(s)
        if img not in f.target:
            out.append(MapViolation(
                "non-simplex-image", s,
                f"image {f.target.simplex_name(img)} of {f.source.simplex_name(s)}"
                " is not a simplex of the target"))
    return out
