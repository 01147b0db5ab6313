"""Calculus operations on simplexwise-constant functions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlink import corpus
from eulerlink.complexes import (Simplex, SimplicialMap, build_complex,
                                 point_complex)
from eulerlink.dyadic import Dyadic
from eulerlink.functions import (ConstructibleFunction, ParityObstruction,
                                 _function, dual, euler_integral, half_link,
                                 indicator, indicator_of_subcomplex, is_euler,
                                 link_operator, p_operator, pullback,
                                 pushforward, restrict_to_link)


def window_setup():
    w = corpus.window()
    q = corpus.quadrant_subcomplex(w)
    return w, indicator_of_subcomplex(w, q)


def simplex_by_name(k, name):
    for s in k.simplices:
        if k.simplex_name(s) == name:
            return s
    raise AssertionError(name)


# -- constructors and arithmetic ------------------------------------------------


def test_indicator_basics():
    k = corpus.circle()
    one = ConstructibleFunction.one(k)
    assert indicator(k, k.simplices) == one
    assert one * one == one
    edge = next(s for s in k.simplices if len(s) == 2)
    assert euler_integral(indicator(k, [edge])) == Dyadic(-1)
    with pytest.raises(ValueError):
        indicator(k, [Simplex((77,))])


def _points(n: int):
    return build_complex([[i] for i in range(n)])


def _fields(values) -> list:
    """What tells Dyadics apart beyond ``==``: the types of the value and
    its numerator, and the text."""
    return [(type(v), type(v.num), v.num, v.exp, str(v)) for v in values]


@given(st.lists(st.one_of(st.integers(-4, 4), st.booleans(), st.integers()),
                min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_int_built_functions_match_per_element_dyadics(xs):
    if bool in map(type, xs):  # rejected, like Dyadic(True)
        with pytest.raises(TypeError):
            ConstructibleFunction(_points(len(xs)), xs)
        return
    phi = ConstructibleFunction(_points(len(xs)), xs)
    assert _fields(phi.values) == _fields(map(Dyadic, xs))
    assert len(set(map(id, phi.values))) == len(set(xs))  # one per int


@pytest.mark.parametrize("xs", [[1, True], [True, 1], [0, False, 1, True],
                                [True, 1.5, 0], [0, 0.5]], ids=repr)
def test_a_bool_or_float_value_is_rejected(xs):
    # A bool or float used to be stored as given: [True, 1.5, 0] on a
    # segment integrated to 2.5 and was written as "True" and "1.5".
    with pytest.raises(TypeError, match="int numerator"):
        ConstructibleFunction(_points(len(xs)), xs)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=30),
       st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_functions_from_scaled_ints_match_per_element_dyadics(xs, e):
    phi = _function(_points(len(xs)), xs, e)
    assert _fields(phi.values) == _fields(Dyadic(x, e) for x in xs)
    assert len(set(map(id, phi.values))) == len(set(xs))


def test_arithmetic_requires_same_complex():
    a = ConstructibleFunction.one(corpus.circle())
    b = ConstructibleFunction.one(corpus.theta())
    with pytest.raises(ValueError):
        a + b


def test_integral_examples():
    for name in ["theta", "circle", "rp2", "sphere3", "window"]:
        k = corpus.corpus_complex(name)
        from eulerlink.complexes import euler_characteristic
        assert euler_integral(ConstructibleFunction.one(k)) == \
            Dyadic(euler_characteristic(k))
    assert euler_integral(ConstructibleFunction.one(corpus.circle())) == Dyadic(0)
    assert euler_integral(ConstructibleFunction.one(corpus.rp2())) == Dyadic(1)


# -- link operator and friends ----------------------------------------------------


def test_link_on_point_and_smooth_complexes():
    pt = point_complex("p")
    assert link_operator(ConstructibleFunction.one(pt)) == \
        ConstructibleFunction.zero(pt)
    s1 = corpus.circle()
    assert link_operator(ConstructibleFunction.one(s1)) == \
        ConstructibleFunction.constant(s1, Dyadic(2))
    s2 = corpus.sphere2()
    assert link_operator(ConstructibleFunction.one(s2)) == \
        ConstructibleFunction.zero(s2)
    s3 = corpus.sphere3()
    assert link_operator(ConstructibleFunction.one(s3)) == \
        ConstructibleFunction.constant(s3, Dyadic(2))


def test_link_of_quadrant_indicator_is_boundary_indicator():
    w, one_q = window_setup()
    lam = link_operator(one_q)
    # on the star of the origin: 1 at O and on the four unit axis edges
    assert lam[simplex_by_name(w, "(0,0)")] == Dyadic(1)
    for e in ["(0,0 1,0)", "(0,0 0,1)"]:
        assert lam[simplex_by_name(w, e)] == Dyadic(1)
    for name in ["(-1,0 0,0)", "(0,-1 0,0)"]:            # outside Q
        assert lam[simplex_by_name(w, name)] == Dyadic(0)
    for name in ["(1,1)", "(0,0 1,0 1,1)", "(1,0 1,1)"]:  # interior of Q
        assert lam[simplex_by_name(w, name)] == Dyadic(0)
    # globally: the boundary square of Q
    support = {s for s in w.simplices if lam[s] != Dyadic(0)}
    assert all(lam[s] == Dyadic(1) for s in support)
    assert len(support) == 16                             # 8 vertices + 8 edges


def test_axis_times_link_is_origin_plus_ray():
    w, one_q = window_setup()
    c = corpus.xaxis_subcomplex(w)
    product = indicator_of_subcomplex(w, c) * link_operator(one_q)
    expected = {simplex_by_name(w, n) for n in
                ["(0,0)", "(1,0)", "(2,0)", "(0,0 1,0)", "(1,0 2,0)"]}
    assert product == indicator(w, expected)


def test_dual_examples():
    pt = point_complex("p")
    one = ConstructibleFunction.one(pt)
    assert dual(one) == one

    tri = build_complex([Simplex((0, 1, 2))])
    d = dual(ConstructibleFunction.one(tri))
    assert d == indicator(tri, [Simplex((0, 1, 2))])


def test_half_link_examples():
    s1 = corpus.circle()
    assert half_link(ConstructibleFunction.one(s1)) == \
        ConstructibleFunction.one(s1)

    w, one_q = window_setup()
    res = half_link(one_q)
    assert isinstance(res, ParityObstruction)
    assert res.simplex == simplex_by_name(w, "(0,0)")
    assert res.value == Dyadic(1)
    assert res.kind == "odd-integer"

    doubled = half_link(one_q.scale(Dyadic(2)))
    assert doubled == link_operator(one_q)


def test_is_euler_examples():
    w, one_q = window_setup()
    ok, obs = is_euler(one_q)
    assert not ok
    witnesses = {o.simplex for o in obs}
    lam = link_operator(one_q)
    assert witnesses == {s for s in w.simplices if lam[s] != Dyadic(0)}
    assert simplex_by_name(w, "(0,0)") in witnesses
    assert simplex_by_name(w, "(0,0 1,0)") in witnesses

    ok, obs = is_euler(one_q.scale(Dyadic(2)))
    assert ok and obs == []

    # the same shape drawn inside the bare axis segment is not Euler either
    c = corpus.xaxis_subcomplex(w)
    coords = corpus.window_coordinates(c)
    right = [v for v, (x, y) in coords.items() if x >= 0]
    from eulerlink.complexes import full_subcomplex
    ray = indicator_of_subcomplex(c, full_subcomplex(c, right))
    ok, obs = is_euler(ray)
    assert not ok

    with pytest.raises(ValueError):
        is_euler(one_q.scale(Dyadic(1, 1)))


def test_p_operator():
    w, one_q = window_setup()
    assert p_operator(one_q) == ConstructibleFunction.zero(w)
    half = ConstructibleFunction.constant(w, Dyadic(1, 1))
    assert p_operator(half) == ConstructibleFunction.constant(w, Dyadic(-3, 5))
    three = ConstructibleFunction.constant(w, Dyadic(3))
    assert p_operator(three) == ConstructibleFunction.constant(w, Dyadic(36))


# -- transport along maps -----------------------------------------------------------


def test_pullback_examples():
    th = corpus.theta()
    ident = SimplicialMap(th, th, {v: v for v in th.vertex_ids})
    phi = indicator(th, [th.simplices[0]])
    assert pullback(ident, phi) == phi

    c6 = build_complex([Simplex((i, (i + 1) % 6)) for i in range(6)])
    c3 = build_complex([Simplex((i, (i + 1) % 3)) for i in range(3)])
    cover = SimplicialMap(c6, c3, {i: i % 3 for i in range(6)})
    assert pullback(cover, ConstructibleFunction.one(c3)) == \
        ConstructibleFunction.one(c6)

    broken = SimplicialMap(c6, c6, {i: (0 if i < 3 else 3) for i in range(6)})
    with pytest.raises(ValueError):
        pullback(broken, ConstructibleFunction.one(c6))


def test_pushforward_examples():
    th = corpus.theta()
    pt = point_complex("p")
    const = SimplicialMap(th, pt, {v: pt.vertex_ids[0] for v in th.vertex_ids})
    phi = ConstructibleFunction.one(th)
    assert pushforward(const, phi) == \
        ConstructibleFunction.constant(pt, euler_integral(phi))

    c6 = build_complex([Simplex((i, (i + 1) % 6)) for i in range(6)])
    c3 = build_complex([Simplex((i, (i + 1) % 3)) for i in range(3)])
    cover = SimplicialMap(c6, c3, {i: i % 3 for i in range(6)})
    assert pushforward(cover, ConstructibleFunction.one(c6)) == \
        ConstructibleFunction.constant(c3, Dyadic(2))

    seg = build_complex([Simplex((0, 1))])
    collapse = SimplicialMap(seg, pt, {0: pt.vertex_ids[0],
                                       1: pt.vertex_ids[0]})
    assert pushforward(collapse, ConstructibleFunction.one(seg)) == \
        ConstructibleFunction.one(pt)


# -- restriction to links --------------------------------------------------------------


def test_restrict_to_link_examples():
    th = corpus.theta()
    one = ConstructibleFunction.one(th)
    for tau in th.simplices:
        r = restrict_to_link(one, tau)
        assert r == ConstructibleFunction.one(r.complex)

    w, one_q = window_setup()
    o = simplex_by_name(w, "(0,0)")
    r = restrict_to_link(one_q, o)
    # closed arc of the 8-cycle: three vertices, two edges, chi 1
    support = [s for s in r.complex.simplices if r[s] != Dyadic(0)]
    assert sorted(len(s) for s in support) == [1, 1, 1, 2, 2]
    assert euler_integral(r) == Dyadic(1)
    assert all(r[s] == Dyadic(1) for s in support)

    with pytest.raises(ValueError):
        restrict_to_link(one_q, Simplex((998, 999)))


def test_restriction_integral_identity_on_every_torus_simplex():
    t = corpus.torus()
    values = [Dyadic((7 * i) % 5 - 2) for i in range(len(t.simplices))]
    phi = ConstructibleFunction(t, values)
    lam = link_operator(phi)
    for tau in t.simplices:
        assert euler_integral(restrict_to_link(phi, tau)) == lam[tau]
