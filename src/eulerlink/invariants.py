"""Local realizability obstructions.

Everything here evaluates necessary conditions for a finite complex to be
homeomorphic to a real algebraic set:

* ``sullivan_check`` — every point's link must have even Euler
  characteristic (evaluated as parity of the link operator on 1).
* ``b_vector`` — the five mod-2 invariants (chi2, b1..b4) of a compact
  complex of dimension at most 2, computed from alpha = half-link of 1,
  beta and gamma as its polynomial corrections.  When alpha's halving
  fails, the witness ``HALFLINK(ONE)`` is returned instead: the failure is
  itself an obstruction, and no other halving can fail.
* ``dim3_check`` — for dimension at most 3, the b-vector of every
  simplex's geometric link must vanish.
* ``search_check`` — the bounded operator-closure search of the search
  module at every simplex.
* ``divisibility_certificate`` / ``bonnard_bounds`` — the sufficiency
  certificate via 2-adic valuation and the closed-form presentation bounds.

``search_check`` runs the closure search once per link key and reuses
the result and its row text on every other simplex with that key.  A
simplex's link key is its dimension and its link rows, read from its
star in the coface table (``complexes._star_link``); the search runs on
that star (the ``search`` module docstring), so one memo level, by link
key, is all there is, and no link is built.  A row whose witness names a
simplex of the link has its text made on its own, with the location
named from the labels of the row's own geometric link: the link vertices
that the same star read gave, then the boundary's.

``dim3_check`` builds no link at all: every geometric link's b-vector is
read off link operators on ``k`` itself.  Let tau have dimension d and
simplicial link L.  Its geometric link is G = boundary(Delta^d) * L, and
every simplex g = b | rho of G (b a proper face of the boundary, possibly
empty, rho in L or empty, not both empty) lies over the simplex
sigma(g) = tau | rho of the closed star of tau.  For phi(g) = F(sigma(g)),

    (Lambda_G phi)(g) = 2 F(sigma) - (Lambda_k F)(sigma),

because the cofaces of g are the b' | rho' with b' >= b and rho' >= rho,
and the sum of (-1)^|b'| over the proper faces b' >= b of the boundary,
with the empty face when b is, is (-1)^d, while the cofaces of sigma in
``k`` are the tau | rho'.  Write Lambda_k x = x + S(x), S being the
signed star sums ``_star_sums``; then G's operator pulled back to ``k`` is
2x - Lambda_k x = x - S(x).  So one routine, ``_b_fields``, makes alpha,
beta and gamma for both tests from the operator L x = x + S(x) or
x - S(x): alpha = L(1) / 2, and beta and gamma are x - L(x) / 2 for
x = alpha^2 and alpha^3, on ``k`` itself for ``b_vector`` and, over sigma,
on every geometric link at once for ``dim3_check``.  The halving of 1
fails on G exactly where L(1) = 2 - Lambda_k(1) is odd on the closed star
of tau, tau itself counting only when d >= 1 (a vertex has no g over it).

That is the only halving checked, because the other two cannot fail.
Lambda o Lambda = 2 Lambda, so wherever alpha = Lambda(1) / 2 exists,
Lambda(alpha) = Lambda(1).  Lambda mod 2 sees only its input mod 2, and
alpha^2 = alpha^3 = alpha mod 2, so Lambda(alpha^2) and Lambda(alpha^3)
are Lambda(1) mod 2: even.  This holds for Lambda_G as for Lambda_k, and
at a simplex it needs alpha on the simplex's star only.  The two other
halvings run as floor shifts, on all of ``k``, and a value that a failed
halving of 1 makes wrong is read only in rows that report that failure.

Over a strict coface sigma lie the 2^(d+1) - 1 simplices b | rho, an odd
number; over tau itself the 2^(d+1) - 2 nonempty proper b, an even number.
So a sum over G mod 2 is the sum over tau's strict cofaces mod 2: chi2 and
b1..b4 are the parities of 1, alpha*beta, alpha*gamma, beta*gamma and
alpha*beta*gamma summed there, which one zeta pass gives for every tau at
once.

A failed halving of 1 is located, as in ``b_vector``, at G's first odd
simplex in canonical order.  The first simplex of G over a strict coface is
its rho, and over tau the boundary vertex b0.  The rho of tau's strict
cofaces are in the order of the cofaces, since the canonical order compares
two sets of one size by the least element of their symmetric difference.
When d >= 1, an odd strict coface adds one vertex to tau, a link vertex,
and those come before the boundary's: in dimension <= 3 a strict coface
that adds two is a tetrahedron over an edge, which is maximal, and Lambda x
is 2x on a maximal simplex of dimension >= 1.  So the location is the rho
of tau's first odd strict coface, and b0 when tau is odd (d >= 1) and has
none.  Each odd sigma writes its index into its faces, the first in
canonical order winning, so no coface table is read.

Sullivan's parities, the b-vector and the dim3 rows are computed on int
lists, with the link operator of the functions module: the zeta sums over
the complex's codimension-one incidences (``_star_sums``), turned into the
link and its first odd value by ``_int_link``, the same halving the closure
search uses; a failed halving becomes the same witness.  Every value they
handle is an integer, so an integral's parity is the parity of the sum of
the values.

A pass is never a realizability proof; reports carry that caveat.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat
from operator import and_, mul, neg, sub
from typing import NamedTuple

from .complexes import (Simplex, SimplicialComplex, _boundary_labels,
                        _star_link)
from .functions import (ConstructibleFunction, _int_link, _signed,
                        _star_sums)
from .search import (DEFAULT_BUDGET, ExpressionWitness, ONE_EXPR,
                     SearchBudget, SearchResult, _search, halving_witness,
                     witness_text)

NECESSARY_ONLY = ("all checks are necessary conditions for homeomorphism to"
                  " a real algebraic set; passing is not a realizability proof")


class _InvariantVector(NamedTuple):
    chi2: int
    b1: int
    b2: int
    b3: int
    b4: int

    @property
    def is_zero(self) -> bool:
        return not any(self)

    def __add__(self, other: "InvariantVector") -> "InvariantVector":
        """Mod-2 addition, not tuple concatenation."""
        return InvariantVector(*[(a + b) % 2 for a, b in zip(self, other)])

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"


class InvariantVector(_InvariantVector):
    """Element of (Z/2)^5: (chi2, b1, b2, b3, b4)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for c in self:
            if c not in (0, 1):
                raise ValueError("invariant components are mod-2 bits")
        return self


ZERO_VECTOR = InvariantVector(0, 0, 0, 0, 0)


# alpha, the one halving of the b-vector that can fail (module docstring).
_ALPHA = ("HALFLINK", ONE_EXPR)


def _b_fields(k: SimplicialComplex,
              sign: int) -> tuple[list[int], int, list[int], int]:
    """alpha, beta and gamma of the b-vector under the link operator
    L x = x + sign * S(x) on ``k``, S being ``_star_sums``: Lambda_k for
    ``sign`` 1, and for -1 the operator of every geometric link pulled
    back to ``k`` (module docstring).  alpha = L(1) / 2, and beta and gamma
    are x - L(x) / 2 for x = alpha^2 and alpha^3.  Only L(1) is checked for
    parity: the other two halvings cannot fail where alpha exists.

    Returns L(1), the index of its first odd value (-1 if none), and the
    parities of 1, alpha*beta, alpha*gamma, beta*gamma and alpha*beta*gamma
    of each simplex, packed in fields of the returned width, which holds
    any sum of them over ``k``."""
    def link(xs):
        sums = _star_sums(k, xs)
        return _int_link(xs, sums if sign > 0 else list(map(neg, sums)))

    lam, odd = link([1] * len(k.simplices))
    alpha = [a >> 1 for a in lam]
    asq = list(map(mul, alpha, alpha))
    beta, gamma = ([(2 * a - b) >> 1 & 1 for a, b in zip(x, link(x)[0])]
                   for x in (asq, list(map(mul, asq, alpha))))
    w = len(lam).bit_length()
    packed = [1 | (a & b) << w | (a & g) << 2 * w | (b & g) << 3 * w
              | (a & b & g) << 4 * w for a, b, g in zip(alpha, beta, gamma)]
    return lam, odd, packed, w


def _b_of(code: int, w: int) -> InvariantVector:
    """The b-vector whose bits are the low bits of the fields of ``code``."""
    return InvariantVector(*[code >> (w * f) & 1 for f in range(5)])


def b_vector(k: SimplicialComplex) -> InvariantVector | ExpressionWitness:
    """The (chi2, b1..b4) invariant vector of a complex of dimension <= 2.

    If alpha's halving hits a parity obstruction, the witness
    ``HALFLINK(ONE)`` at its first odd simplex is returned instead: no
    other halving of the b-vector can fail.
    """
    if k.dim > 2:
        raise ValueError("b-vector requires dimension <= 2")
    lam, odd, packed, w = _b_fields(k, 1)
    if odd >= 0:
        return halving_witness(_ALPHA, k.simplices[odd], lam[odd])
    return _b_of(sum(packed), w)


# -- reports -------------------------------------------------------------------


class TestRow(NamedTuple):
    """One per-simplex verdict inside an obstruction report."""

    test: str  # "sullivan" | "dim3" | "search"
    simplex: Simplex | None
    where: str  # display name of the simplex, e.g. "(a u)"
    verdict: str  # "pass" | "fail"
    value: str
    data: dict | None = None


class ObstructionReport(NamedTuple):
    complex_name: str
    dimension: int
    rows: tuple[TestRow, ...]
    summary: dict
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.rows)

    def failing(self) -> tuple[TestRow, ...]:
        return tuple(r for r in self.rows if r.verdict != "pass")


def _report(k: SimplicialComplex, test: str, rows: tuple[TestRow, ...],
            notes=(NECESSARY_ONLY,),
            passed: bool | None = None) -> ObstructionReport:
    """The report of one test on ``k``: its verdict is ``passed``, or,
    when that is not given, whether every row passed."""
    if passed is None:
        passed = all(r.verdict == "pass" for r in rows)
    return ObstructionReport(
        complex_name=k.name or "complex", dimension=k.dim, rows=rows,
        summary={test: "pass" if passed else "fail"}, notes=tuple(notes))


def sullivan_check(k: SimplicialComplex) -> ObstructionReport:
    """Per-simplex parity of the link's Euler characteristic.

    A row's verdict, value and ``data`` are made once per link Euler
    characteristic, not once per simplex, and the rows of one Euler
    characteristic share them, as the rows of one link key do in
    ``search_check``.  The rows are read from those tables by maps, in C."""
    ones = [1] * len(k.simplices)
    lam, odd = _int_link(ones, _star_sums(k, ones))
    chis = set(lam)
    verdict = {chi: "fail" if chi & 1 else "pass" for chi in chis}
    value = {chi: f"link chi = {chi}" for chi in chis}
    data = {chi: {"link_chi": chi} for chi in chis}
    fields = zip(repeat("sullivan"), k.simplices, k.simplex_names(),
                 map(verdict.__getitem__, lam), map(value.__getitem__, lam),
                 map(data.__getitem__, lam))
    # The fields are in place: skip TestRow's __new__.
    rows = tuple(map(tuple.__new__, repeat(TestRow), fields))
    passed = odd < 0
    notes = [NECESSARY_ONLY]
    if passed and k.dim <= 2:
        notes.append("realizable (dim <= 2 criterion): even link parity is"
                     " sufficient in dimension <= 2")
    return _report(k, "sullivan", rows, notes, passed)


def _b_text(res, label) -> tuple[str, str, dict]:
    """The verdict, value and data of a dim3 row whose link has b-vector
    or half-link witness ``res``."""
    if isinstance(res, ExpressionWitness):
        d = res.as_dict(label)
        return ("fail", f"half-link obstruction: {witness_text(d)}",
                {"witness": d})
    bad = [name for name, c in zip(("chi2", "b1", "b2", "b3", "b4"), res) if c]
    return ("pass" if res.is_zero else "fail",
            f"b = {res}" + (f", nonzero: {' '.join(bad)}" if bad else ""),
            {"b": list(res)})


def _first_odd_cofaces(k: SimplicialComplex, odd: list[int]) -> dict[int, int]:
    """The index of the first strict coface, in canonical order, among the
    simplices ``odd``, for every simplex that has one.  Each simplex of
    ``odd`` writes its index into its proper faces, the last one first, so
    the first one's write is the one that stays."""
    simplices, index = k.simplices, k._index
    first: dict[int, int] = {}
    for j in reversed(odd):
        s = simplices[j]
        faces = chain.from_iterable(map(combinations, repeat(s),
                                        range(1, len(s))))
        first.update(zip(map(index.__getitem__, faces), repeat(j)))
    return first


def dim3_check(k: SimplicialComplex) -> ObstructionReport:
    """Vanishing of the b-vector of every simplex's geometric link.

    Every row is read off link operators on ``k`` itself (see the module
    docstring), with the value or witness of ``b_vector`` on the row's
    geometric link, a witness's location named as ``geometric_link``
    labels it."""
    if k.dim > 3:
        raise ValueError("dim3 check requires dimension <= 3")
    simplices = k.simplices
    lam, _, packed, w = _b_fields(k, -1)
    # Where alpha's halving fails, with lam = 2 - Lambda_k(1): the first
    # odd strict coface of each simplex, or the simplex itself, when odd
    # with no odd coface (a boundary vertex of the geometric link).
    odd = [i for i, a in enumerate(lam) if a & 1]
    fails = _first_odd_cofaces(k, odd)
    for i in odd:
        if len(simplices[i]) > 1:  # a vertex has no boundary vertex b0
            fails.setdefault(i, i)
    # chi2 and b1..b4 of each simplex's geometric link: the fields summed
    # over its strict cofaces by one zeta pass, which applies the signs
    # again, so it sums without them.
    mask = sum(1 << (w * f) for f in range(5))
    codes = map(and_, map(sub, _star_sums(k, _signed(k, packed)), packed),
                repeat(mask))
    texts: dict[int, tuple] = {}  # packed b-vector -> its row's text
    names = None  # vertex labels, and the boundary's first at a fresh id
    base = k.max_vertex_id() + 1
    rows = []
    for i, (tau, where, code) in enumerate(zip(simplices, k.simplex_names(),
                                               codes)):
        j = fails.get(i)
        if j is None:
            row = texts.get(code)
            if row is None:
                row = texts[code] = _b_text(_b_of(code, w), None)
        else:
            if names is None:
                names = k.labels
                # b0, primed until fresh: the same for every dimension
                names[base] = _boundary_labels(k, 1)[0]
            at = (base,) if j == i else [v for v in simplices[j]
                                         if v not in tau]
            row = _b_text(halving_witness(_ALPHA, Simplex(at), lam[j]), names)
        rows.append(TestRow("dim3", tau, where, *row))
    return _report(k, "dim3", tuple(rows))


def _search_text(res: SearchResult, label) -> tuple[str, str, dict]:
    """The verdict, value and data of a search row with result ``res``."""
    if res.witness is not None:
        d = res.witness.as_dict(label)
        return ("fail", witness_text(d),
                {"witness": d, "explored": res.explored, "stop": res.stop})
    return ("pass", f"no witness within budget ({res.explored} functions,"
                    f" stop: {res.stop})",
            {"explored": res.explored, "stop": res.stop,
             "guard_hits": res.guard_hits,
             "depth_complete": res.depth_complete})


def search_check(k: SimplicialComplex,
                 budget: SearchBudget = DEFAULT_BUDGET) -> ObstructionReport:
    """Closure search at every simplex; report assembled in canonical order.

    One memo level, by link key: the search runs once per key, on the star
    of its first simplex (``search._search``), and the key's rows share its
    result and row text, unless its witness is located (module docstring).

    The notes hold for every row: the completeness of the weakest pass row
    (fewest complete levels, first in canonical order on a tie), and the
    guard hits summed over all rows."""
    simplices = k.simplices
    rows, results = [], []
    keys: dict[tuple, tuple] = {}  # link key -> (result, text or None)
    boundary = None  # b0, b1, ..., primed until fresh in k
    for i, (tau, where, cofaces) in enumerate(zip(
            simplices, k.simplex_names(), k.coface_table())):
        verts, link_rows = _star_link(simplices, tau, cofaces)
        key = (tau.dim, link_rows)
        got = keys.get(key)
        if got is None:
            res = _search(k, i, link_rows, budget)
            w = res.witness
            got = keys[key] = (res, None if w and w.location
                               else _search_text(res, None))
        res, text = got
        if text is None:
            if boundary is None:
                boundary = _boundary_labels(k, k.dim)
            # A vertex's geometric link has no boundary: tau.dim is 0.
            text = _search_text(res, [*map(k.label, verts),
                                      *boundary[:tau.dim and len(tau)]])
        rows.append(TestRow("search", tau, where, *text))
        results.append(res)
    notes = [NECESSARY_ONLY]
    weakest = min(((row.where, res) for row, res in zip(rows, results)
                   if res.passed),
                  key=lambda p: p[1].depth_complete, default=None)
    if weakest is not None:
        where, res = weakest
        notes.append(f"search, weakest pass row {where}: {res.completeness()}")
    guard_hits = sum(res.guard_hits for res in results)
    if guard_hits:
        notes.append(f"value-growth guard pruned {guard_hits} branches"
                     " over all rows")
    return _report(k, "search", rows, notes)


def merge_reports(*reports: ObstructionReport) -> ObstructionReport:
    """Concatenate per-test reports on the same complex into one."""
    first = reports[0]
    for rep in reports[1:]:
        if rep.complex_name != first.complex_name \
                or rep.dimension != first.dimension:
            raise ValueError("cannot merge reports for different complexes:"
                             f" {first.complex_name!r} vs {rep.complex_name!r}")
    rows = tuple(r for rep in reports for r in rep.rows)
    summary: dict = {}
    notes: list[str] = []
    for rep in reports:
        summary.update(rep.summary)
        for n in rep.notes:
            if n not in notes:
                notes.append(n)
    return ObstructionReport(
        complex_name=first.complex_name, dimension=first.dimension, rows=rows,
        summary=summary, notes=tuple(notes))


# -- certificates and bounds ---------------------------------------------------


class DivisibilityCertificate(NamedTuple):
    certified: bool
    dimension: int
    min_valuation: int | None  # None when the function is identically zero

    def __str__(self) -> str:
        verdict = "certified" if self.certified else "not-certified"
        mv = "inf" if self.min_valuation is None else str(self.min_valuation)
        return (f"{verdict} (dimension {self.dimension},"
                f" minimum 2-adic valuation {mv})")


def divisibility_certificate(phi: ConstructibleFunction) -> DivisibilityCertificate:
    """Sufficiency certificate: values divisible by 2^dim are always
    realizable as algebraically constructible.  Inconclusive when it fails.
    """
    if not phi.is_integer_valued:
        raise ValueError("divisibility certificate needs an integer-valued function")
    d = phi.complex.dim
    vals = [v.two_adic_valuation() for v in phi.values if v.num != 0]
    if not vals:
        return DivisibilityCertificate(True, d, None)
    mv = min(vals)
    return DivisibilityCertificate(mv >= d, d, mv)


# The bounds grow as 2^(d-1): a cap keeps ``bonnard_bounds`` from building
# an int of d bits for any d given on the command line.  With k and |delta|
# capped too, N' stays below 10^2300, so it prints as a decimal.
MAX_BOUND_DIMENSION = 4096
MAX_BOUND_RANGE = 10 ** 1000


class _BoundQuery(NamedTuple):
    d: int
    k: int
    delta: int


class BoundQuery(_BoundQuery):
    """Range data for the presentation bounds: values lie in [delta-k, delta+k]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.d <= 0:
            raise ValueError("dimension must be positive")
        if self.d > MAX_BOUND_DIMENSION:
            raise ValueError(f"dimension {self.d} is above the supported"
                             f" maximum {MAX_BOUND_DIMENSION}")
        if self.k < 0:
            raise ValueError("range radius must be nonnegative")
        if self.k > MAX_BOUND_RANGE:
            raise ValueError("range radius is above the supported maximum"
                             " 10^1000")
        if abs(self.delta) > MAX_BOUND_RANGE:
            raise ValueError("offset is above the supported maximum 10^1000"
                             " in absolute value")
        return self


class BonnardBounds(NamedTuple):
    n: int  # generic presentation (irreducible domain)
    n_prime: int  # complete presentation
    note: str = ("generic bound N additionally assumes the domain is"
                 " irreducible")


def bonnard_bounds(q: BoundQuery) -> BonnardBounds:
    """Closed-form bounds on the number of polynomial signs needed to
    present a function with values in [delta-k, delta+k] on a set of
    dimension d: N generically, N' completely."""
    half_pow = 1 << (q.d - 1)
    a = abs(q.delta)
    if q.k % 2 == 0:
        n = half_pow * q.k + a
        n_prime = half_pow * 3 * q.k + a
    else:
        n = half_pow * (q.k - 1) + 1 + a
        n_prime = half_pow * 3 * (q.k - 1) + 2 * q.d + a
    return BonnardBounds(n=n, n_prime=n_prime)
