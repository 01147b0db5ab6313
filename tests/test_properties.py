"""Randomized, exact operator identities on small complexes.

Every suite runs at least 100 seeded cases on complexes with at most 8
vertices and dimension at most 3 (4 for the Euler cycles), values drawn
from the integers in [-3, 3]. Failures reproduce from the seed in the
first line of each test.
"""

import random

from eulerlink.complexes import (SimplicialMap, barycentric_subdivision,
                                 euler_characteristic, full_subcomplex,
                                 validate_map)
from eulerlink.dyadic import Dyadic
from eulerlink.functions import (ConstructibleFunction, dual, euler_integral,
                                 half_link, indicator_of_subcomplex,
                                 is_euler, link_operator, pullback,
                                 pushforward, restrict_to_link,
                                 subdivide_function)

from conftest import (boundary_sum, random_complex, random_function,
                      random_simplicial_map)

CASES = 100


def test_integral_of_link_vanishes():
    rng = random.Random(101)
    for _ in range(CASES):
        phi = random_function(rng, random_complex(rng))
        assert euler_integral(link_operator(phi)) == Dyadic(0)


def test_link_is_idempotent_up_to_factor_two():
    rng = random.Random(102)
    for _ in range(CASES):
        phi = random_function(rng, random_complex(rng))
        lam = link_operator(phi)
        assert link_operator(lam) == lam + lam


def euler_cycle(rng: random.Random):
    """A mod-2 sum of boundaries of (d+1)-simplices, d from 1 to 4, on at
    most 8 vertices, or None when it is empty or not Euler: Lambda(1) is
    odd somewhere."""
    d = rng.randint(1, 4)
    k = boundary_sum(rng, d, rng.randint(d + 2, 8))
    if k is None or not is_euler(ConstructibleFunction.one(k))[0]:
        return None
    return k


def test_only_the_halving_of_one_can_fail():
    # b_vector and dim3_check check alpha = L(1) / 2 for parity, but not the
    # halvings of alpha^2 and alpha^3 that give beta and gamma: L o L = 2L,
    # and L mod 2 reads its input mod 2 only, so L(alpha^2) = L(alpha^3) =
    # L(alpha) = L(1) mod 2 wherever alpha exists.  L is Lambda, or a
    # geometric link's operator pulled back, 2x - Lambda x = x + dual(x).
    rng = random.Random(114)
    seen = set()  # values of alpha
    for _ in range(2 * CASES):
        k = None
        while k is None:
            k = euler_cycle(rng)
        one = ConstructibleFunction.one(k)
        for link in (link_operator, lambda phi: phi + dual(phi)):
            alpha = link(one).scale(Dyadic(1, 1))
            seen.update(alpha.values)
            asq = alpha * alpha
            for x in (asq, asq * alpha):
                assert all(v.num % 2 == 0 for v in link(x).values), k
    assert {Dyadic(-1), Dyadic(2)} <= seen  # alpha^2 is not alpha


def test_dual_is_an_involution():
    rng = random.Random(103)
    for _ in range(CASES):
        phi = random_function(rng, random_complex(rng))
        assert dual(dual(phi)) == phi


def test_link_is_linear():
    rng = random.Random(104)
    for _ in range(CASES):
        k = random_complex(rng)
        phi, psi = random_function(rng, k), random_function(rng, k)
        assert link_operator(phi + psi) == \
            link_operator(phi) + link_operator(psi)
        c = Dyadic(rng.randint(-3, 3))
        assert link_operator(phi.scale(c)) == link_operator(phi).scale(c)


def test_link_value_is_integral_over_the_link():
    rng = random.Random(105)
    for _ in range(CASES):
        k = random_complex(rng)
        phi = random_function(rng, k)
        lam = link_operator(phi)
        tau = rng.choice(k.simplices)
        assert euler_integral(restrict_to_link(phi, tau)) == lam[tau]


def test_subdivision_preserves_integral_and_link():
    rng = random.Random(106)
    for _ in range(CASES):
        k = random_complex(rng)
        phi = random_function(rng, k)
        sd = barycentric_subdivision(k)
        moved = subdivide_function(phi, sd)
        assert euler_integral(moved) == euler_integral(phi)
        assert link_operator(moved) == \
            subdivide_function(link_operator(phi), sd)


def test_pushforward_functoriality():
    rng = random.Random(107)
    for _ in range(CASES):
        k, l, m = (random_complex(rng, max_vertices=6) for _ in range(3))
        f = random_simplicial_map(rng, k, l)
        g = random_simplicial_map(rng, l, m)
        comp = SimplicialMap(k, m, {v: g.vertex_map[f.vertex_map[v]]
                                    for v in k.vertex_ids})
        assert not validate_map(comp)
        phi = random_function(rng, k)
        assert pushforward(comp, phi) == pushforward(g, pushforward(f, phi))


def test_link_commutes_with_pushforward():
    rng = random.Random(108)
    for _ in range(CASES):
        k, l = (random_complex(rng, max_vertices=6) for _ in range(2))
        f = random_simplicial_map(rng, k, l)
        phi = random_function(rng, k)
        assert link_operator(pushforward(f, phi)) == \
            pushforward(f, link_operator(phi))


def test_pushforward_preserves_the_integral():
    rng = random.Random(109)
    for _ in range(CASES):
        k, l = (random_complex(rng, max_vertices=6) for _ in range(2))
        f = random_simplicial_map(rng, k, l)
        phi = random_function(rng, k)
        assert euler_integral(pushforward(f, phi)) == euler_integral(phi)


def test_pullback_is_a_ring_homomorphism():
    rng = random.Random(110)
    for _ in range(CASES):
        k, l = (random_complex(rng, max_vertices=6) for _ in range(2))
        f = random_simplicial_map(rng, k, l)
        phi, psi = random_function(rng, l), random_function(rng, l)
        assert pullback(f, phi + psi) == pullback(f, phi) + pullback(f, psi)
        assert pullback(f, phi * psi) == pullback(f, phi) * pullback(f, psi)
        one_l, one_k = (ConstructibleFunction.one(x) for x in (l, k))
        assert pullback(f, one_l) == one_k


def test_half_link_restriction_identity_on_even_functions():
    rng = random.Random(111)
    for _ in range(CASES):
        k = random_complex(rng)
        phi = random_function(rng, k).scale(Dyadic(2))
        hl = half_link(phi)
        assert isinstance(hl, ConstructibleFunction)
        tau = rng.choice(k.simplices)
        restricted = restrict_to_link(phi, tau)
        inner = half_link(restricted)
        assert isinstance(inner, ConstructibleFunction)
        assert restrict_to_link(hl, tau) == restricted - inner


def test_integral_agrees_with_weighted_closed_subcomplex_counts():
    rng = random.Random(112)
    for _ in range(CASES):
        k = random_complex(rng)
        phi = ConstructibleFunction.zero(k)
        expected = Dyadic(0)
        for _ in range(rng.randint(1, 4)):
            chosen = rng.sample(k.vertex_ids,
                                rng.randint(1, len(k.vertex_ids)))
            sub = full_subcomplex(k, chosen)
            if not sub.simplices:
                continue
            m = Dyadic(rng.randint(-3, 3))
            phi = phi + indicator_of_subcomplex(k, sub).scale(m)
            expected = expected + m * Dyadic(euler_characteristic(sub))
        assert euler_integral(phi) == expected
