"""Built-in corpus of small named complexes used by tests and the CLI.

Base members: the theta graph, a closed segment, spheres S^1 (3-cycle),
S^2 and S^3 (simplex boundaries), the 7-vertex torus, a 16-vertex Klein
bottle (4x4 grid with one orientation-reversing gluing), the 6-vertex
projective plane, and a triangulated square window [-2,2]^2 whose axes are
subcomplexes and whose origin is an interior vertex.  Derived members:
``cone_<name>`` and ``susp_<name>`` for every base member.
"""

from __future__ import annotations

from .complexes import (SimplicialComplex, Simplex, build_complex, cone,
                        full_subcomplex, suspension)


def segment() -> SimplicialComplex:
    return build_complex([[0, 1]], labels={0: "s0", 1: "s1"}, name="segment")


def circle() -> SimplicialComplex:
    return build_complex([[0, 1], [1, 2], [0, 2]],
                         labels={0: "c0", 1: "c1", 2: "c2"}, name="circle")


def theta() -> SimplicialComplex:
    """Two junction vertices joined by three subdivided arcs."""
    labels = {0: "a", 1: "b", 2: "u", 3: "m", 4: "l"}
    arcs = [[0, 2], [1, 2], [0, 3], [1, 3], [0, 4], [1, 4]]
    return build_complex(arcs, labels=labels, name="theta")


def _simplex_boundary(n_vertices: int, name: str) -> SimplicialComplex:
    full = tuple(range(n_vertices))
    facets = [full[:i] + full[i + 1:] for i in range(n_vertices)]
    return build_complex(facets, name=name)


def sphere2() -> SimplicialComplex:
    return _simplex_boundary(4, "sphere2")


def sphere3() -> SimplicialComplex:
    return _simplex_boundary(5, "sphere3")


def torus() -> SimplicialComplex:
    """Moebius-Kuehnel 7-vertex torus."""
    facets = []
    for i in range(7):
        facets.append([i, (i + 1) % 7, (i + 3) % 7])
        facets.append([i, (i + 2) % 7, (i + 3) % 7])
    return build_complex(facets, labels={i: f"t{i}" for i in range(7)},
                         name="torus")


def rp2() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the projective plane."""
    facets = [[0, 1, 3], [0, 1, 4], [0, 2, 4], [0, 2, 5], [0, 3, 5],
              [1, 2, 3], [1, 2, 5], [1, 4, 5], [2, 3, 4], [3, 4, 5]]
    return build_complex(facets, labels={i: f"r{i}" for i in range(6)},
                         name="rp2")


def klein() -> SimplicialComplex:
    """Klein bottle from a 4x4 grid: periodic in x, flipped regluing in y."""

    def vid(i: int, j: int) -> int:
        if j == 4:
            i, j = (-i) % 4, 0
        return j * 4 + (i % 4)

    facets = []
    for j in range(4):
        for i in range(4):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            facets.append([a, b, d])
            facets.append([a, c, d])
    labels = {j * 4 + i: f"g{i}{j}" for i in range(4) for j in range(4)}
    return build_complex(facets, labels=labels, name="klein")


# -- the square window --------------------------------------------------------

_SIDE = 5  # vertices per row: x, y in {-2,-1,0,1,2}


def _wid(x: int, y: int) -> int:
    return (y + 2) * _SIDE + (x + 2)


def window() -> SimplicialComplex:
    """Triangulated square [-2,2]^2.

    Both coordinate axes are subcomplexes and the origin is an interior
    vertex.  Unit squares are split by the diagonal running away from the
    origin, so the four central diagonals all pass through it.
    """
    facets = []
    for x in range(-2, 2):
        for y in range(-2, 2):
            a, b = _wid(x, y), _wid(x + 1, y)
            c, d = _wid(x, y + 1), _wid(x + 1, y + 1)
            if (x >= 0) == (y >= 0):
                facets.append([a, b, d])
                facets.append([a, c, d])
            else:
                facets.append([a, b, c])
                facets.append([b, c, d])
    labels = {_wid(x, y): f"{x},{y}"
              for x in range(-2, 3) for y in range(-2, 3)}
    return build_complex(facets, labels=labels, name="window")


def window_coordinates(k: SimplicialComplex) -> dict[int, tuple[int, int]]:
    """Recover (x, y) per vertex from the window's coordinate labels."""
    out = {}
    for v in k.vertex_ids:
        x, y = k.label(v).split(",")
        out[v] = (int(x), int(y))
    return out


def origin_vertex(k: SimplicialComplex) -> Simplex:
    coords = window_coordinates(k)
    for v, xy in coords.items():
        if xy == (0, 0):
            return Simplex((v,))
    raise ValueError("no origin vertex")


def quadrant_subcomplex(k: SimplicialComplex) -> SimplicialComplex:
    """The closed first quadrant inside the window (a closed square)."""
    coords = window_coordinates(k)
    return full_subcomplex(k, [v for v, (x, y) in coords.items()
                               if x >= 0 and y >= 0], name="quadrant")


def xaxis_subcomplex(k: SimplicialComplex) -> SimplicialComplex:
    coords = window_coordinates(k)
    return full_subcomplex(k, [v for v, (x, y) in coords.items() if y == 0],
                           name="xaxis")


# -- registry -----------------------------------------------------------------

BASE_BUILDERS = {
    "theta": theta,
    "segment": segment,
    "circle": circle,
    "sphere2": sphere2,
    "sphere3": sphere3,
    "torus": torus,
    "klein": klein,
    "rp2": rp2,
    "window": window,
}


def corpus_names() -> tuple[str, ...]:
    return (*BASE_BUILDERS, *(f"cone_{n}" for n in BASE_BUILDERS),
            *(f"susp_{n}" for n in BASE_BUILDERS))


def corpus_complex(name: str) -> SimplicialComplex:
    if name in BASE_BUILDERS:
        return BASE_BUILDERS[name]()
    for prefix, make in (("cone_", cone), ("susp_", suspension)):
        if name.startswith(prefix) and name[len(prefix):] in BASE_BUILDERS:
            return make(BASE_BUILDERS[name[len(prefix):]](), name=name)
    raise ValueError(f"unknown corpus complex: {name}")
