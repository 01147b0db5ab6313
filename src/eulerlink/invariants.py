"""Local realizability obstructions.

Everything here evaluates necessary conditions for a finite complex to be
homeomorphic to a real algebraic set:

* ``sullivan_check`` — every point's link must have even Euler
  characteristic (evaluated as parity of the link operator on 1).
* ``b_vector`` — the five mod-2 invariants (chi2, b1..b4) of a compact
  complex of dimension at most 2, computed from alpha = half-link of 1,
  beta and gamma as its polynomial corrections, or the witness
  ``HALFLINK(ONE)`` where alpha's halving fails.
* ``dim3_check`` — for dimension at most 3, the b-vector of every
  simplex's geometric link must vanish.
* ``search_check`` — the bounded operator-closure search of the search
  module at every simplex.
* ``divisibility_certificate`` / ``bonnard_bounds`` — the sufficiency
  certificate via 2-adic valuation and the closed-form presentation bounds.

``search_check`` runs the closure search once per link key, a simplex's
dimension and link rows (``complexes._star_link``), on the star of its
first simplex (the ``search`` module docstring), and builds no link.  The
key's rows share its result and row text, except that a witness located
on a link simplex is named with the labels of the row's own geometric
link: the star's link vertices, then the boundary's.

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

All of it runs on int lists and the zeta sums ``_star_sums``, and one
pass per complex gives the Lambda_k(1) that Sullivan's test and the
b-vectors share (``_lambda_one``).  A failed halving of 1 has the value
a / 2, a = lam at the odd simplex, so ``dim3_check`` makes the witness and
its row text's head once per a, by ``halving_witness``, and a located row
carries the one witness of its halving value with its own location, b0 or
rho.  The other rows are read from a text per b-vector, as Sullivan's are
from a text per link chi (``_rows``).

A pass is never a realizability proof; reports carry that caveat.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat
from operator import add, and_, mul, sub
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
    L x = x + sign * S(x) on ``k`` (module docstring): Lambda_k for
    ``sign`` 1, every geometric link's pulled back to ``k`` for -1.  L(1)
    is Lambda_k(1) (``_lambda_one``) or 2 - Lambda_k(1), the only halving
    checked, and x - L(x) / 2 = (x - sign * S(x)) / 2.

    Returns L(1), the index of its first odd value (-1 if none), and the
    parities of 1, alpha*beta, alpha*gamma, beta*gamma and alpha*beta*gamma
    of each simplex, packed in fields of the returned width, which holds
    any sum of them over ``k``."""
    lam, odd = _lambda_one(k)
    if sign < 0:
        lam = [2 - a for a in lam]
    alpha = [a >> 1 for a in lam]
    asq = list(map(mul, alpha, alpha))
    beta, gamma = ([y >> 1 & 1 for y in map(sub if sign > 0 else add, x,
                                             _star_sums(k, x))]
                   for x in (asq, list(map(mul, asq, alpha))))
    w = len(lam).bit_length()
    packed = [1 | (a & b) << w | (a & g) << 2 * w | (b & g) << 3 * w
              | (a & b & g) << 4 * w for a, b, g in zip(alpha, beta, gamma)]
    return lam, odd, packed, w


def _lambda_one(k: SimplicialComplex) -> tuple[list[int], int]:
    """Lambda_k(1) and the index of its first odd value (``_int_link``),
    made by one zeta pass on the first call and kept on ``k`` beside its
    ``face_pairs``: Sullivan's test and the b-vectors both read it."""
    if k._lam1 is None:
        ones = [1] * len(k.simplices)
        k._lam1 = _int_link(ones, _star_sums(k, ones))
    return k._lam1


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


def _rows(k: SimplicialComplex, test: str, keys: list,
          texts: dict) -> list[TestRow]:
    """The rows of ``test`` on ``k``: simplex i's verdict, value and data
    are ``texts[keys[i]]``, shared by the rows of one key as in
    ``search_check``, and read by maps, in C, skipping TestRow's __new__."""
    fields = map(add, zip(repeat(test), k.simplices, k.simplex_names()),
                 map(texts.__getitem__, keys))
    return list(map(tuple.__new__, repeat(TestRow), fields))


def sullivan_check(k: SimplicialComplex) -> ObstructionReport:
    """Per-simplex parity of the link's Euler characteristic.

    A row's verdict, value and ``data`` are made once per link Euler
    characteristic, not once per simplex (``_rows``)."""
    lam, odd = _lambda_one(k)
    rows = _rows(k, "sullivan", lam, {
        chi: ("fail" if chi & 1 else "pass", f"link chi = {chi}",
              {"link_chi": chi}) for chi in set(lam)})
    passed = odd < 0
    notes = [NECESSARY_ONLY]
    if passed and k.dim <= 2:
        notes.append("realizable (dim <= 2 criterion): even link parity is"
                     " sufficient in dimension <= 2")
    return _report(k, "sullivan", tuple(rows), notes, passed)


def _b_text(res: InvariantVector) -> tuple[str, str, dict]:
    """The verdict, value and data of a dim3 row whose link has b-vector
    ``res``."""
    bad = [name for name, c in zip(("chi2", "b1", "b2", "b3", "b4"), res) if c]
    return ("pass" if res.is_zero else "fail",
            f"b = {res}" + (f", nonzero: {' '.join(bad)}" if bad else ""),
            {"b": list(res)})


def _first_odd_cofaces(k: SimplicialComplex, odd: list[int]) -> dict[int, int]:
    """The index of the first strict coface, in canonical order, among the
    simplices ``odd``, for every simplex that has one: each writes its
    index into its proper faces, the last first, so the first one's stays."""
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

    Every row is read off link operators on ``k`` itself, with the value
    or witness of ``b_vector`` on the row's geometric link, named as
    ``geometric_link`` labels it; a located row carries the one witness of
    its halving value (module docstring)."""
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
    codes = list(map(and_, map(sub, _star_sums(k, _signed(k, packed)),
                               packed), repeat(mask)))
    rows = _rows(k, "dim3", codes,
                 {code: _b_text(_b_of(code, w)) for code in set(codes)})
    if fails:
        heads = {}  # halving value -> witness dict, its row text's head
        for a in {lam[j] for j in fails.values()}:
            # located nowhere, the witness's text is the head alone
            d = halving_witness(_ALPHA, None, a).as_dict(None)
            heads[a] = d, f"half-link obstruction: {witness_text(d)} at "
        label = k.labels.__getitem__
        b0 = _boundary_labels(k, 1)[:1]  # primed until fresh in k
        for i, j in fails.items():
            tau = simplices[i]  # located at rho = sigma_j - tau, or at b0
            where = "(" + " ".join(b0 if j == i else [
                label(v) for v in simplices[j] if v not in tau]) + ")"
            d, head = heads[lam[j]]
            rows[i] = TestRow("dim3", tau, rows[i].where, "fail",
                              head + where,
                              {"witness": {**d, "location": where}})
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

    The search runs once per link key, on the star of its first simplex
    (``search._search``; module docstring).

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
