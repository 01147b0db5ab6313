"""Constructible functions on a simplicial complex and their calculus.

A constructible function is constant on open simplices, so it is stored as
one dyadic value per simplex, aligned with the complex's canonical simplex
order.  All operators here are exact.

The central operator is the combinatorial link ``lam``:

    (lam phi)(tau) = (1 - (-1)^dim tau) * phi(tau)
                     + sum over sigma > tau of (-1)^(dim sigma + 1) * phi(sigma)

which computes, for every simplex, the Euler integral of phi restricted to
a small sphere around that simplex.  The duality operator, half link, and
the parity test for Euler functions are all built from it.

Values are Dyadic at the API boundary and plain ints inside these
operators.  A function's values become one list of ints over a shared
exponent e, the largest exponent among them (value i is xs[i] / 2**e).  The
sign (-1)^(dim sigma + 1) is applied once to the whole list, one size block
of the canonical order at a time (``SimplicialComplex._ends``): each block
of even dimension is negated as one slice, and the Euler integral is the
alternating sum of the block sums.  Lam is sums of those signed ints over
closed stars, and each distinct output value becomes one Dyadic, at the
end, which every simplex with that value shares (a Dyadic is immutable).
A function built from exact ints shares its Dyadics alike.  Halving is the
same ints over 2**(e + 1), and parity is read from their low bits.

On a complex, the closed-star sums S(tau) = sum over sigma >= tau of
f(sigma) are a zeta transform over the codimension-one incidences (Yates's
method; Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets Moebius",
STOC 2007), run in place over ``SimplicialComplex.face_pairs()``: for each
pair (sigma - v, sigma), ``f[sigma - v] += f[sigma]``, each segment of
pairs reading its cofaces' values as one slice of ``f``.  That is sum of
|sigma| additions, where the coface table has sum of 2^|sigma| - 2 entries.
A pair is in phase j when v has j vertices of sigma above it; the phases
run in order, and within a phase the pairs run by decreasing size of sigma.
Why that sums every sigma >= tau into tau exactly once:

* A pair adds into tau what sigma holds when it runs, so f(sigma) reaches
  tau along every path sigma = T_0 > T_1 > ... > T_m = tau that drops one
  vertex a step and whose pairs run in path order, and along no other.
  Every set on a path is a face of sigma, hence in the complex, which is
  downward closed.
* Along a path, the sizes fall, so two steps of one phase run in path
  order.  So a path counts exactly when its phases never decrease.
* Dropping the vertices of sigma - tau from the largest down gives phases
  that never decrease: when u is dropped, the next vertex u' < u has every
  vertex above u still above it, and those between u' and u besides.
* Dropping some u before a larger u'' gives a decrease.  When u is
  dropped, u'' and every vertex above u'' are above u.  When u'' is
  dropped later, only some of those are above it, and u'' itself is not,
  so its phase is lower.  So the path from the largest down is the only
  one that counts, and tau collects f(sigma) exactly once.

The pairs of one phase and one size read sets of that size and write sets
one smaller, so none reads what another writes: updating in place is safe,
and so is reading the segment's coface values in one slice before it
runs.  The phases are those of Yates's transform with one phase per vertex
rank instead of per vertex, which makes them few (the dimension plus one)
and lets ``face_pairs`` build each as a slice.

Lambda on ints is written once, in ``_int_link``: from the values and their
closed-star sums, it returns lam and the index of its first odd value.  A
complex feeds it the zeta sums (``_star_sums``); the closure search's
cells of a star feed it sums along the rows of their cell table, whose
rows are multisets of cells, which the zeta form does not fit.  Every local
test halves through it: the closure search's HALFLINK, ``b_vector`` and
``sullivan_check`` work on int lists alone and never build a Dyadic for a
passing value.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from operator import add, itemgetter, mul, neg, sub
from typing import NamedTuple

from .complexes import (Simplex, SimplicialComplex, SimplicialMap,
                        geometric_link, Subdivision)
from .dyadic import Dyadic, ZERO, ONE


class ParityObstruction(NamedTuple):
    """A simplex where a value fails the parity needed for halving.

    ``kind`` is "non-integer" when the offending value is not an integer at
    all, "odd-integer" when it is an integer but an odd one.
    """

    simplex: Simplex
    value: Dyadic
    kind: str


class ConstructibleFunction:
    """A simplexwise-constant dyadic-valued function."""

    __slots__ = ("complex", "values")

    def __init__(self, complex: SimplicialComplex, values):
        vals = tuple(values)
        types = set(map(type, vals))
        if types == {int}:
            vals = _dyadics(vals)
        elif not {Dyadic}.issuperset(types):
            vals = tuple(v if isinstance(v, Dyadic) else Dyadic(v)
                         for v in vals)
        if len(vals) != len(complex.simplices):
            raise ValueError("one value per simplex required")
        self.complex = complex
        self.values = vals

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, complex: SimplicialComplex, c) -> "ConstructibleFunction":
        c = c if isinstance(c, Dyadic) else Dyadic(c)
        return cls(complex, (c,) * len(complex.simplices))

    @classmethod
    def zero(cls, complex: SimplicialComplex) -> "ConstructibleFunction":
        return cls.constant(complex, ZERO)

    @classmethod
    def one(cls, complex: SimplicialComplex) -> "ConstructibleFunction":
        return cls.constant(complex, ONE)

    @classmethod
    def from_dict(cls, complex: SimplicialComplex, assignments: dict,
                  default=ZERO) -> "ConstructibleFunction":
        table = {Simplex(s): v for s, v in assignments.items()}
        return cls(complex, tuple(table.get(s, default) for s in complex.simplices))

    # -- access -------------------------------------------------------

    def __getitem__(self, s) -> Dyadic:
        s = s if isinstance(s, Simplex) else Simplex(s)
        return self.values[self.complex.index(s)]

    @property
    def is_integer_valued(self) -> bool:
        return all(v.is_integer for v in self.values)

    def as_dict(self) -> dict[Simplex, Dyadic]:
        return {s: v for s, v in zip(self.complex.simplices, self.values) if v}

    # -- pointwise algebra ---------------------------------------------

    def _pointwise(self, other, op):
        """``op`` value by value with another function on the same complex."""
        if not isinstance(other, ConstructibleFunction):
            return NotImplemented
        if (self.complex is not other.complex
                and self.complex.simplices != other.complex.simplices):
            raise ValueError("functions live on different complexes")
        return ConstructibleFunction(
            self.complex, tuple(map(op, self.values, other.values)))

    def __add__(self, other):
        return self._pointwise(other, add)

    def __sub__(self, other):
        return self._pointwise(other, sub)

    def __mul__(self, other):
        if isinstance(other, (int, Dyadic)):
            return self.scale(other)
        return self._pointwise(other, mul)

    def __rmul__(self, other):
        if isinstance(other, (int, Dyadic)):
            return self.scale(other)
        return NotImplemented

    def __neg__(self):
        return ConstructibleFunction(self.complex, tuple(-v for v in self.values))

    def scale(self, c) -> "ConstructibleFunction":
        c = c if isinstance(c, Dyadic) else Dyadic(c)
        return ConstructibleFunction(self.complex, tuple(c * v for v in self.values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstructibleFunction):
            return NotImplemented
        return (self.complex.simplices == other.complex.simplices
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self) -> str:
        parts = [f"{self.complex.simplex_name(s)}={v}" for s, v in self.as_dict().items()]
        return "CF{" + ", ".join(parts) + "}"


def indicator(complex: SimplicialComplex, simplices) -> ConstructibleFunction:
    """Indicator of a set of simplices of the ambient complex."""
    chosen = set()
    for s in simplices:
        s = s if isinstance(s, Simplex) else Simplex(s)
        if s not in complex:
            raise ValueError(f"{tuple(s)} is not a simplex of the complex")
        chosen.add(s)
    return ConstructibleFunction(
        complex, tuple(ONE if s in chosen else ZERO for s in complex.simplices))


def indicator_of_subcomplex(complex: SimplicialComplex,
                            sub: SimplicialComplex) -> ConstructibleFunction:
    return indicator(complex, sub.simplices)


# -- integral and link-based operators ----------------------------------------


def _ints(values) -> tuple[list[int], int]:
    """Values as ints over one shared exponent e: values[i] == xs[i] / 2**e."""
    e = max([v.exp for v in values], default=0)
    if e == 0:
        return [v.num for v in values], 0
    return [v.num << (e - v.exp) for v in values], e


def _signed(k: SimplicialComplex, xs: Sequence[int]) -> list[int]:
    """``(-1)^(dim sigma + 1) * x_sigma`` for every simplex sigma: each
    block of even dimension (``SimplicialComplex._ends``) negated as one
    slice."""
    out = list(xs)
    ends = k._ends
    for lo, hi in zip((0, *ends[1::2]), ends[0::2]):
        out[lo:hi] = map(neg, out[lo:hi])
    return out


def _star_sums(k: SimplicialComplex, xs: Sequence[int]) -> list[int]:
    """Sum over sigma >= tau of ``(-1)^(dim sigma + 1) * x_sigma``, for every
    tau: the zeta transform of the signed values over ``k.face_pairs()``
    (see the module docstring).  Lambda x = x + this, since the term of tau
    itself is ``-x_tau`` on even and ``+x_tau`` on odd dimensions, and
    dual x = x - Lambda x = -this."""
    f = _signed(k, xs)
    for faces, cofaces in k.face_pairs():
        for a, y in zip(faces, f[cofaces.start:cofaces.stop]):
            f[a] += y
    return f


def _int_link(xs: Sequence[int],
              sums: Sequence[int]) -> tuple[list[int], int]:
    """Lambda of the ints ``xs``, given their closed-star sums ``sums``
    (``_star_sums``), and the index of its first odd value (-1 when every
    value is even, i.e. when the link halves to ints)."""
    lam = list(map(add, xs, sums))
    return lam, next((i for i, a in enumerate(lam) if a & 1), -1)


def _dyadics(xs: Sequence[int], e: int = 0) -> tuple[Dyadic, ...]:
    """``Dyadic(x, e)`` for every ``x`` of ``xs``, one Dyadic per distinct
    value.  The table is keyed on the values, so they must be exact ints:
    a ``True`` would take the slot of ``1``."""
    table = {x: Dyadic(x, e) for x in set(xs)}
    return tuple(map(table.__getitem__, xs))


def _function(k: SimplicialComplex, xs, e: int) -> ConstructibleFunction:
    """The function with values ``xs[i] / 2**e``."""
    return ConstructibleFunction(k, _dyadics(xs, e))


def euler_integral(phi: ConstructibleFunction) -> Dyadic:
    """Integral against the Euler characteristic of open cells: the sums
    of the blocks of even dimension less those of odd dimension."""
    xs, e = _ints(phi.values)
    ends = phi.complex._ends
    sums = [sum(xs[lo:hi]) for lo, hi in zip((0, *ends), ends)]
    return Dyadic(sum(sums[0::2]) - sum(sums[1::2]), e)


def link_operator(phi: ConstructibleFunction) -> ConstructibleFunction:
    """Apply the combinatorial link operator (see module docstring)."""
    k = phi.complex
    xs, e = _ints(phi.values)
    return _function(k, _int_link(xs, _star_sums(k, xs))[0], e)


def dual(phi: ConstructibleFunction) -> ConstructibleFunction:
    """Verdier-style duality: phi minus its link."""
    k = phi.complex
    xs, e = _ints(phi.values)
    return _function(k, [-c for c in _star_sums(k, xs)], e)


def _halved(phi: ConstructibleFunction
            ) -> tuple[list[int], int, Iterator[ParityObstruction]]:
    """Half the link operator, with the simplices that forbid halving.

    Returns ``(xs, e, obstructions)``: half of Lambda phi is ``xs[i] / 2**e``,
    and ``obstructions`` lazily yields a ParityObstruction, in canonical
    order, for every link value that is not an even integer.
    """
    k = phi.complex
    xs, e = _ints(phi.values)
    lam, _ = _int_link(xs, _star_sums(k, xs))
    even = (1 << (e + 1)) - 1  # a / 2**e is an even integer iff a & even == 0
    whole = (1 << e) - 1       # a / 2**e is an integer iff a & whole == 0
    value = functools.cache(lambda a: Dyadic(a, e))  # one per distinct a
    obstructions = (
        ParityObstruction(simplex=s, value=value(a),
                          kind="non-integer" if a & whole else "odd-integer")
        for s, a in zip(k.simplices, lam) if a & even)
    return lam, e + 1, obstructions


def half_link(phi: ConstructibleFunction):
    """Half the link operator.

    Defined exactly when the link takes even integer values everywhere;
    otherwise the first offending simplex is returned as a
    ParityObstruction instead of a function.
    """
    xs, e, obstructions = _halved(phi)
    first = next(obstructions, None)
    return first if first is not None else _function(phi.complex, xs, e)


def half_link_total(phi: ConstructibleFunction) -> ConstructibleFunction:
    """Half the link operator as a total map into dyadic functions.

    Unlike ``half_link``, this never refuses: a non-integer value in the
    result is exactly what the closure search is after.
    """
    xs, e, _ = _halved(phi)
    return _function(phi.complex, xs, e)


def is_euler(phi: ConstructibleFunction) -> tuple[bool, list[ParityObstruction]]:
    """Whether every link value of ``phi`` is an even integer.

    Returns the verdict together with every offending simplex (an empty
    list when the function is Euler).  Only integer-valued functions
    qualify for the question at all.
    """
    if not phi.is_integer_valued:
        raise ValueError("parity test needs an integer-valued function")
    bad = list(_halved(phi)[2])
    return (not bad, bad)


def p_operator(phi: ConstructibleFunction) -> ConstructibleFunction:
    """Pointwise (phi^4 - phi^2) / 2, which is integer on integer inputs."""
    # For v = x / 2**e: (v^4 - v^2) / 2 = (x^4 - x^2 * 4**e) / 2**(4e + 1).
    xs, e = _ints(phi.values)
    squares = [x * x for x in xs]
    return _function(phi.complex, [sq * sq - (sq << 2 * e) for sq in squares],
                     4 * e + 1)


# -- functoriality -------------------------------------------------------------


def pullback(f: SimplicialMap, phi: ConstructibleFunction) -> ConstructibleFunction:
    """Compose with the map: the result at a simplex is phi at its image."""
    if phi.complex.simplices != f.target.simplices:
        raise ValueError("function must live on the map's target")
    f.check()
    return ConstructibleFunction(
        f.source, tuple(phi[f.image(s)] for s in f.source.simplices))


def pushforward(f: SimplicialMap, phi: ConstructibleFunction) -> ConstructibleFunction:
    """Fiberwise Euler integral.

    Each open source simplex maps onto an open target simplex; its open
    fiber cell over a generic point contributes (-1)^(dim drop) times the
    value, where the drop is the difference of dimensions: the source
    simplex's ``_signed`` sign times its image's.
    """
    if phi.complex.simplices != f.source.simplices:
        raise ValueError("function must live on the map's source")
    f.check()
    xs, e = _ints(phi.values)
    out = [0] * len(f.target.simplices)
    for sigma, x in zip(f.source.simplices, _signed(f.source, xs)):
        out[f.target.index(f.image(sigma))] += x
    return _function(f.target, _signed(f.target, out), e)


# -- restriction to links and subdivision ---------------------------------------


def restrict_to_link(phi: ConstructibleFunction, tau) -> ConstructibleFunction:
    """Restrict ``phi`` to the geometric link around ``tau``.

    A simplex of the geometric link splits into a boundary part (fresh ids)
    and a link part (original ids); near ``tau`` it sits inside the open
    simplex ``tau + link part``, whose value it inherits.
    """
    tau = tau if isinstance(tau, Simplex) else Simplex(tau)
    k = phi.complex
    sphere = geometric_link(k, tau)
    base = k.max_vertex_id()
    out = []
    for rho in sphere.simplices:
        link_part = tuple(v for v in rho if v <= base)
        out.append(phi[Simplex(tuple(tau) + link_part)])
    return ConstructibleFunction(sphere, tuple(out))


def subdivide_function(phi: ConstructibleFunction,
                       sd: Subdivision) -> ConstructibleFunction:
    """Transport to the barycentric subdivision via carriers.

    The carrier of an sd simplex is the base simplex of its last vertex
    (``Subdivision.carrier``), so the value there is the value at that
    base index."""
    if sd.base.simplices != phi.complex.simplices:
        raise ValueError("subdivision does not refine the function's complex")
    return ConstructibleFunction(
        sd.complex, tuple(map(phi.values.__getitem__,
                              map(itemgetter(-1), sd.complex.simplices))))
