"""Geometric oracles for the two formula-driven operators.

These two computations are deliberately independent of the closed-form
coefficients used by the library:

* link coefficients -- measured by triangulating the small sphere around a
  face barycenter (the vertex link in the barycentric subdivision) and
  counting its open cells inside each open face of the ambient complex;
* pushforward -- measured by solving the fiber of each affine simplex
  projection exactly (Fraction Gaussian elimination) and counting the open
  fiber cell, over every simplicial vertex map in a small family.

If either oracle disagrees with the library the formula is wrong, not the
oracle, so keep these free of library internals.
"""

import functools
from fractions import Fraction
from itertools import product

from eulerlink.complexes import (Simplex, SimplicialMap, build_complex,
                                 barycentric_subdivision, simplicial_link,
                                 validate_map)
from eulerlink.dyadic import Dyadic
from eulerlink.functions import (ConstructibleFunction, euler_integral,
                                 indicator, link_operator, pushforward)

# -- link coefficients --------------------------------------------------------


def closed_simplex(n):
    return build_complex([Simplex(range(n + 1))])


def measured_link_coefficients(k):
    """c[(tau, sigma)] = chi_c of (small sphere around barycenter of tau,
    intersected with the open face sigma), for every pair with the
    intersection nonempty.

    The small sphere is realized as the vertex link of tau's barycenter in
    the barycentric subdivision; an open cell of that link spanned by the
    chain c sits inside the open face max(c + [tau]) of the original
    complex, and contributes (-1)^dim(cell).
    """
    sd = barycentric_subdivision(k)
    barycenter_of = {v: s for v, s in enumerate(sd.base.simplices)}
    vertex_for = {s: v for v, s in enumerate(sd.base.simplices)}
    coef = {}
    for tau in k.simplices:
        lk = simplicial_link(sd.complex, Simplex((vertex_for[tau],)))
        for chain_cell in lk.simplices:
            faces = [barycenter_of[v] for v in chain_cell]
            top = max(faces, key=len)
            stratum = top if len(top) > len(tau) else tau
            key = (tau, stratum)
            coef[key] = coef.get(key, 0) + (-1) ** (len(chain_cell) - 1)
    return {key: val for key, val in coef.items() if val != 0}


def expected_coefficient(tau, sigma):
    if sigma == tau:
        return 1 - (-1) ** (len(tau) - 1)
    if set(tau) < set(sigma):
        return (-1) ** len(sigma)  # = (-1)^(dim sigma + 1)
    return 0


def test_link_coefficients_on_closed_simplices():
    # cleanest setting: a single closed simplex, every face checked
    for n in range(1, 5):
        k = closed_simplex(n)
        measured = measured_link_coefficients(k)
        for tau in k.simplices:
            for sigma in k.simplices:
                assert measured.get((tau, sigma), 0) == \
                    expected_coefficient(tau, sigma), (n, tau, sigma)


def test_link_coefficients_on_small_family():
    # same cell count, read against the operator itself: the coefficient of
    # phi(sigma) in (link phi)(tau) is exactly the measured chi_c
    for k in [build_complex([Simplex((0, 1)), Simplex((1, 2)),
                             Simplex((0, 2))]),            # circle
              build_complex([Simplex((0, 1, 2)), Simplex((2, 3))]),
              closed_simplex(3)]:
        measured = measured_link_coefficients(k)
        for j, sigma in enumerate(k.simplices):
            values = [Dyadic(0)] * len(k.simplices)
            values[j] = Dyadic(1)
            lphi = link_operator(ConstructibleFunction(k, values))
            for tau in k.simplices:
                assert lphi[tau] == Dyadic(measured.get((tau, sigma), 0))


# -- pushforward fibers -------------------------------------------------------


def exact_rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def fiber_cell_euler(f, source_simplex, target_simplex):
    """chi_c of {x in open source_simplex : f(x) = y}, y interior to the
    target simplex, from the defining linear system."""
    if f.image(source_simplex) != target_simplex:
        return 0
    # constraints: for each target vertex w, the source barycentric weights
    # over f^{-1}(w) sum to y_w; an all-positive solution always exists
    # (spread each y_w equally), so the fiber is a nonempty open polytope
    # whose dimension is (#source vertices) - rank.
    rows = [[1 if f.vertex_map[v] == w else 0 for v in source_simplex]
            for w in target_simplex]
    dim = len(source_simplex) - exact_rank(rows)
    assert dim >= 0
    return (-1) ** dim


def oracle_pushforward(f, phi):
    values = []
    for sigma_t in f.target.simplices:
        total = Dyadic(0)
        for sigma_s in f.source.simplices:
            c = fiber_cell_euler(f, sigma_s, sigma_t)
            if c:
                total = total + phi[sigma_s] * Dyadic(c)
        values.append(total)
    return ConstructibleFunction(f.target, values)


def small_family():
    return [
        build_complex([Simplex((0,))]),                          # point
        build_complex([Simplex((0, 1))]),                        # segment
        build_complex([Simplex((0, 1)), Simplex((1, 2))]),       # path
        build_complex([Simplex((0, 1)), Simplex((1, 2)),
                       Simplex((0, 2))]),                        # circle
        build_complex([Simplex((0, 1, 2))]),                     # 2-simplex
        build_complex([Simplex(f) for f in
                       ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]),
        build_complex([Simplex(e) for e in
                       ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1))]),
    ]


def all_simplicial_maps(k, l):
    for images in product(l.vertex_ids, repeat=len(k.vertex_ids)):
        f = SimplicialMap(k, l, dict(zip(k.vertex_ids, images)))
        if not validate_map(f):
            yield f


@functools.cache
def pushforward_oracle_run() -> int:
    """Check the pushforward against the fiber oracle over every map of the
    small family; the number of functions checked.  The run is exhaustive
    and slow, so it is made once per session, for this test and the
    acceptance criterion both; a failed run raises on every call."""
    family = small_family()
    checked = 0
    for k in family:
        basis = [indicator(k, [s]) for s in k.simplices]
        mixed = sum(basis[1:], basis[0].scale(Dyadic(2))) if len(basis) > 1 \
            else basis[0]
        for l in family:
            for f in all_simplicial_maps(k, l):
                for phi in basis + [mixed]:
                    assert pushforward(f, phi) == oracle_pushforward(f, phi)
                    checked += 1
                assert euler_integral(pushforward(f, mixed)) == \
                    euler_integral(mixed)
    return checked


def test_pushforward_matches_fiber_oracle_on_all_small_maps():
    assert pushforward_oracle_run() > 10000  # the family was exhaustive
