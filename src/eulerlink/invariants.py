"""Local realizability obstructions.

Everything here evaluates necessary conditions for a finite complex to be
homeomorphic to a real algebraic set:

* ``sullivan_check`` — every point's link must have even Euler
  characteristic (evaluated as parity of the link operator on 1).
* ``b_vector`` — the five mod-2 invariants (chi2, b1..b4) of a compact
  complex of dimension at most 2, computed from alpha = half-link of 1,
  beta and gamma as its polynomial corrections.  A parity failure while
  halving is returned as a first-class expression witness: the failure is
  itself an obstruction.
* ``dim3_check`` — for dimension at most 3, the b-vector of every
  simplex's geometric link must vanish.
* ``dim4_local_search`` (in the search module) — bounded operator-closure
  search at each simplex, re-exported here for convenience.
* ``divisibility_certificate`` / ``bonnard_bounds`` — the sufficiency
  certificate via 2-adic valuation and the closed-form presentation bounds.

Both link-based checks (``dim3_check`` and ``search_check``) run their local
test once per link shape and reuse the result on every other simplex whose
link has that shape (see ``_per_link_shape``).  A simplex's link key, read
from its star in the coface table (from the length of its coface row alone
when the link is only points), decides its link's shape without building
the link.  A link is built once per link key, straight from the key, on
dense ids and without labels: its simplex tuple is its shape.  A row whose
witness names a simplex of the link gets that link under the labels of its
own geometric link, and no link is built for it; only such a row reads its
link vertices.

Sullivan's parities and the b-vector are computed on int lists, with the
link operator of the functions module: the zeta sums over the complex's
codimension-one incidences (``_star_sums``), turned into the link and its
first odd value by ``_int_link``, the same halving the closure search uses;
a failed halving becomes the same witness.  Every value they handle is an
integer, so an integral's parity is the parity of the sum of the values.

A pass is never a realizability proof; reports carry that caveat.
"""

from __future__ import annotations

from operator import mul, sub
from typing import NamedTuple

from .complexes import (Simplex, SimplicialComplex, _boundary_labels,
                        _dense_link, _link_keys, _link_vertices,
                        _named_link)
from .functions import ConstructibleFunction, _int_link, _star_sums
from .search import (DEFAULT_BUDGET, ExpressionWitness, ONE_EXPR,
                     SearchBudget, SearchResult, closure_search,
                     dim4_local_search, halving_witness)

NECESSARY_ONLY = ("all checks are necessary conditions for homeomorphism to"
                  " a real algebraic set; passing is not a realizability proof")


class _InvariantVector(NamedTuple):
    chi2: int
    b1: int
    b2: int
    b3: int
    b4: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return tuple(self)

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


def _half_link_ints(k: SimplicialComplex, xs: list[int],
                    expr) -> list[int] | ExpressionWitness:
    """Half the link of the ints ``xs``, the value of ``expr``, or the
    witness of its first odd link value."""
    lam, odd = _int_link(xs, _star_sums(k, xs))
    if odd >= 0:
        return halving_witness(("HALFLINK", expr), k.simplices[odd],
                               lam[odd], 0)
    return [a >> 1 for a in lam]


def b_vector(k: SimplicialComplex) -> InvariantVector | ExpressionWitness:
    """The (chi2, b1..b4) invariant vector of a complex of dimension <= 2.

    If a half-link application hits a parity obstruction, that obstruction
    is returned as an ExpressionWitness over the complex instead.
    """
    if k.dim > 2:
        raise ValueError("b-vector requires dimension <= 2")
    alpha = _half_link_ints(k, [1] * len(k.simplices), ONE_EXPR)
    if isinstance(alpha, ExpressionWitness):
        return alpha
    alpha_expr = ("HALFLINK", ONE_EXPR)
    asq_expr = ("MUL", alpha_expr, alpha_expr)
    asq = list(map(mul, alpha, alpha))
    acube = list(map(mul, asq, alpha))
    # beta and gamma: x minus half the link of x, for x = alpha^2, alpha^3
    corrections = []
    for x, expr in ((asq, asq_expr), (acube, ("MUL", asq_expr, alpha_expr))):
        h = _half_link_ints(k, x, expr)
        if isinstance(h, ExpressionWitness):
            return h
        corrections.append(list(map(sub, x, h)))
    beta, gamma = corrections
    ab = list(map(mul, alpha, beta))
    return InvariantVector(
        len(k.simplices) & 1,  # chi mod 2: every simplex adds +-1
        sum(ab) & 1,
        sum(map(mul, alpha, gamma)) & 1,
        sum(map(mul, beta, gamma)) & 1,
        sum(map(mul, ab, gamma)) & 1,
    )


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


def sullivan_check(k: SimplicialComplex) -> ObstructionReport:
    """Per-simplex parity of the link's Euler characteristic.

    A row's verdict and text are worked out once per link Euler
    characteristic, not once per simplex; each row still gets a ``data``
    dict of its own."""
    ones = [1] * len(k.simplices)
    lam, odd = _int_link(ones, _star_sums(k, ones))
    texts = {chi: ("fail" if chi & 1 else "pass", f"link chi = {chi}")
             for chi in set(lam)}
    new = tuple.__new__  # the fields are in place: skip TestRow's __new__
    rows = tuple([new(TestRow, ("sullivan", s, where, *texts[chi],
                                {"link_chi": chi}))
                  for s, where, chi in zip(k.simplices, k.simplex_names(),
                                           lam)])
    passed = odd < 0
    notes = [NECESSARY_ONLY]
    if passed and k.dim <= 2:
        notes.append("realizable (dim <= 2 criterion): even link parity is"
                     " sufficient in dimension <= 2")
    return ObstructionReport(
        complex_name=k.name or "complex", dimension=k.dim, rows=rows,
        summary={"sullivan": "pass" if passed else "fail"}, notes=tuple(notes))


def _located(res) -> bool:
    """Whether a local test's result names a simplex of its link."""
    if isinstance(res, SearchResult):
        res = res.witness
    return isinstance(res, ExpressionWitness) and res.location is not None


def _per_link_shape(k: SimplicialComplex, test):
    """Yield ``(tau, link, test(link))`` for every simplex ``tau`` of ``k``,
    running ``test`` once per link shape.

    A link's shape is its dense shape: its simplex tuple with the vertex
    ids relabelled densely in increasing order.  An increasing relabelling
    keeps the canonical simplex order, so every index-based computation
    (value vectors, first violations, search counts) is the same on all
    links of one shape.

    The memo has two levels.  The link key (``complexes._link_keys``) is
    read from the coface table, and the first simplex of each link key
    builds the key's dense link (``complexes._dense_link``), the geometric
    link on dense ids; its ``simplices`` are its dense shape, which keys
    the results of ``test``.  Two link keys can share a dense shape (a
    vertex link and an edge link, say), so ``test`` still runs once per
    dense shape.

    The yielded link is the dense link ``test`` ran on, which has no
    labels.  Where the result names a link simplex (a witness location), it
    is yielded under the labels of ``tau``'s own geometric link, so the
    location reads as it would there; only such a row reads its link
    vertices (``complexes._link_vertices``), and its boundary labels are
    worked out once per dimension.
    """
    shapes: dict[tuple, tuple[SimplicialComplex, object, bool]] = {}
    keys: dict[tuple, tuple[SimplicialComplex, object, bool]] = {}
    boundary: dict[int, list[str]] = {}
    for i, (tau, key) in enumerate(zip(k.simplices, _link_keys(k))):
        got = keys.get(key)
        if got is None:
            link = _dense_link(key)
            if link.simplices not in shapes:
                res = test(link)
                shapes[link.simplices] = (link, res, _located(res))
            got = keys[key] = shapes[link.simplices]
        link, res, located = got
        if located:
            if tau.dim not in boundary:
                boundary[tau.dim] = _boundary_labels(k, tau.dim)
            link = _named_link(link, k, _link_vertices(k, i),
                               boundary[tau.dim])
        yield tau, link, res


def _b_text(b: InvariantVector) -> tuple[str, str]:
    """The verdict and value of a dim3 row whose link has b-vector ``b``."""
    bad = [name for name, c in zip(("chi2", "b1", "b2", "b3", "b4"), b) if c]
    return ("pass" if b.is_zero else "fail",
            f"b = {b}" + (f", nonzero: {' '.join(bad)}" if bad else ""))


def dim3_check(k: SimplicialComplex) -> ObstructionReport:
    """Vanishing of the b-vector of every simplex's geometric link.

    A row's text is worked out once per b-vector, not once per simplex;
    each row still gets a ``data`` dict of its own.  A half-link witness
    names a simplex of the link, so its row is read under that link's
    labels."""
    if k.dim > 3:
        raise ValueError("dim3 check requires dimension <= 3")
    rows = []
    texts: dict[InvariantVector, tuple[str, str]] = {}
    names = k.simplex_names()
    for i, (tau, link, res) in enumerate(_per_link_shape(k, b_vector)):
        if isinstance(res, InvariantVector):
            if res not in texts:
                texts[res] = _b_text(res)
            verdict, value = texts[res]
            data = {"b": list(res)}
        else:
            verdict = "fail"
            value = f"half-link obstruction: {res.describe(link)}"
            data = {"witness": res.as_dict(link)}
        rows.append(TestRow("dim3", tau, names[i], verdict, value, data))
    passed = all(r.verdict == "pass" for r in rows)
    return ObstructionReport(
        complex_name=k.name or "complex", dimension=k.dim, rows=tuple(rows),
        summary={"dim3": "pass" if passed else "fail"},
        notes=(NECESSARY_ONLY,))


def search_check(k: SimplicialComplex,
                 budget: SearchBudget = DEFAULT_BUDGET) -> ObstructionReport:
    """Closure search at every simplex; report assembled in canonical order.

    The notes hold for every row: the completeness of the weakest pass row
    (fewest complete levels, first in canonical order on a tie), and the
    guard hits summed over all rows."""
    rows = []
    weakest = None
    guard_hits = 0
    names = k.simplex_names()
    for i, (tau, link, res) in enumerate(_per_link_shape(
            k, lambda link: closure_search(link, budget))):
        guard_hits += res.guard_hits
        if res.verdict == "witness":
            w = res.witness
            rows.append(TestRow(
                test="search", simplex=tau, where=names[i],
                verdict="fail",
                value=w.describe(link),
                data={"witness": w.as_dict(link),
                      "explored": res.explored, "stop": res.stop}))
        else:
            rows.append(TestRow(
                test="search", simplex=tau, where=names[i],
                verdict="pass",
                value=f"no witness within budget ({res.explored} functions,"
                      f" stop: {res.stop})",
                data={"explored": res.explored, "stop": res.stop,
                      "guard_hits": res.guard_hits,
                      "depth_complete": res.depth_complete}))
            if weakest is None or res.depth_complete < weakest[1].depth_complete:
                weakest = (rows[-1].where, res)
    notes = [NECESSARY_ONLY]
    if weakest is not None:
        where, res = weakest
        notes.append(f"search, weakest pass row {where}: {res.completeness()}")
    if guard_hits:
        notes.append(f"value-growth guard pruned {guard_hits} branches"
                     " over all rows")
    passed = all(r.verdict == "pass" for r in rows)
    return ObstructionReport(
        complex_name=k.name or "complex", dimension=k.dim, rows=tuple(rows),
        summary={"search": "pass" if passed else "fail"}, notes=tuple(notes))


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
