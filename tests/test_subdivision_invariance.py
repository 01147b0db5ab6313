"""The local tests read the geometric link, the link of an interior point,
so they are invariant under subdivision: a simplex rho of ``sd(K)`` lies
in the interior of its carrier sigma, and the geometric links of rho in
``sd(K)`` and of sigma in ``K`` are triangulations of one sphere join.
So rho fails exactly the tests that its carrier fails, and the b-vector,
or the half-link witness, and the search witness are read off the same
space.  Only Sullivan's value, the Euler characteristic of the simplicial
link, is not invariant; its parity is.

A stellar subdivision of one edge uv is a second homeomorphism, whose
combinatorics differ from ``sd``: a new vertex w at the edge's midpoint
replaces every simplex sigma containing uv by w joined with sigma - v,
sigma - u and sigma - uv.  Each new simplex lies in the interior of that
sigma, its carrier; every other simplex is its own carrier.

Another relation: the tests are local, so the failing rows of a disjoint
union are those of its two parts, when both parts run the same tests."""

import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import small_complexes
from eulerlink import corpus
from eulerlink.complexes import (SimplicialComplex, barycentric_subdivision,
                                 disjoint_union)
from eulerlink.fileio import read_complex
from eulerlink.invariants import dim3_check, search_check, sullivan_check
from eulerlink.search import SearchBudget

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The budget of ``check --max-funcs 50``.
BUDGET = SearchBudget(max_functions=50)
WITNESS_KEYS = ("kind", "depth", "expr")


def _corpus_file(name):
    return read_complex(os.path.join(ROOT, "corpus", f"{name}.cplx"),
                        max_dim=4)


def _rows(k):
    """Every row of the tests ``check`` runs on ``k`` by default (the search
    at a 50-function budget), keyed by ``(test, simplex)``."""
    reports = [sullivan_check(k)]
    if k.dim <= 3:
        reports.append(dim3_check(k))
    else:
        reports.append(search_check(k, BUDGET))
    return {(r.test, r.simplex): r for rep in reports for r in rep.rows}


def _failing(rows):
    return {key for key, r in rows.items() if r.verdict != "pass"}


def _invariant(row):
    """What a row's geometric link fixes: the verdict, and the b-vector or
    the witness's kind, depth and expression (Sullivan: the verdict only)."""
    if row.test == "sullivan":
        return row.verdict
    w = row.data.get("witness")
    return (row.verdict, row.data.get("b"),
            w and tuple(w[key] for key in WITNESS_KEYS))


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_a_subdivided_simplex_fails_what_its_carrier_fails(name):
    k = _corpus_file(name)
    sd = barycentric_subdivision(k)
    base, fine = _rows(k), _rows(sd.complex)
    tests = len(base) // len(k.simplices)
    assert len(fine) == tests * len(sd.complex.simplices)
    for (test, rho), row in fine.items():
        carried = base[test, sd.carrier(rho)]
        assert _invariant(row) == _invariant(carried), (
            f"{row.test} {row.where} in sd({name}): {row.value}; carrier"
            f" {carried.where}: {carried.value}")


def stellar_subdivision(k, edge):
    """The stellar subdivision of ``k`` at ``edge``, with the new vertex on
    the id above ``k``'s, and the carrier in ``k`` of each of its
    simplices."""
    u, v = edge
    w = k.max_vertex_id() + 1
    carrier = {}
    for sigma in k.simplices:
        if u in sigma and v in sigma:
            rest = [x for x in sigma if x not in edge]
            for kept in ([u], [v], []):
                carrier[tuple(sorted([*rest, *kept, w]))] = sigma
        else:
            carrier[sigma] = sigma
    return SimplicialComplex(carrier, labels={**k.labels, w: "w"}), carrier


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_stellar_subdivision_fails_what_its_carrier_fails(data):
    k = data.draw(small_complexes())
    edges = [s for s in k.simplices if len(s) == 2]
    assume(edges)
    edge = data.draw(st.sampled_from(edges))
    fine, carrier = stellar_subdivision(k, edge)
    # Each simplex containing the edge gives way to three.
    star = [s for s in k.simplices if set(edge) <= set(s)]
    assert len(fine.simplices) == len(k.simplices) + 2 * len(star)
    base, rows = _rows(k), _rows(fine)
    for (test, rho), row in rows.items():
        carried = base[test, carrier[rho]]
        assert _invariant(row) == _invariant(carried), (
            f"{row.test} {row.where}: {row.value}; carrier {carried.where}:"
            f" {carried.value}")


@pytest.mark.parametrize("a, b", [("theta", "window"), ("torus", "segment"),
                                  ("susp_rp2", "cone_klein"),
                                  ("cone_theta", "cone_theta"),
                                  ("cone_sphere3", "susp_sphere3")])
def test_a_disjoint_union_fails_where_its_parts_fail(a, b):
    k, l = _corpus_file(a), _corpus_file(b)
    u = disjoint_union(k, l)
    # disjoint_union moves l's vertices, ascending, onto ids above k's.
    ren = dict(zip(l.vertex_ids, range(k.max_vertex_id() + 1,
                                       k.max_vertex_id() + 1 + l.n_vertices)))
    moved = {(test, tuple(map(ren.__getitem__, s)))
             for test, s in _failing(_rows(l))}
    assert _failing(_rows(u)) == _failing(_rows(k)) | moved
