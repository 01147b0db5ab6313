"""Bounded closure search for local obstruction witnesses.

Starting from the indicator of a link, we close under pointwise ADD, SUB,
MUL, the half link (HALFLINK: half of the link operator, applied without a
parity precondition), and POP (phi -> (phi^4 - phi^2)/2).  Any
expression whose value is not integer-valued, or is integer-valued with an
odd Euler integral, is an obstruction witness: on a space realizable as a
real algebraic set, every function in this closure is an integer-valued
function of even integral.

The search runs level by level.  Level 0 is the constant 1, and level d
holds every value that some expression of depth d reaches and no shallower
one does.  Level d is built from level d-1: ADD and MUL of each unordered
pair with one member in level d-1 and the other in any level <= d-1, SUB of
the same pairs in both orders, then HALFLINK and POP of each member of
level d-1.  The order is fixed: operators ADD, SUB, MUL, HALFLINK, POP; for
a binary operator, the newer operand runs through level d-1 in the order
it was found and the older one through the table from its start up to the
newer one, and SUB takes the older operand first.  A value is kept the
first time it is reached, so every kept value and every witness has
minimal depth, and a pass that stops at the function budget has explored
every level below the one it stopped in.  That level too is complete when
the value that filled the table was its last candidate: ONE at depth 0, or
at depth d >= 1 POP of the last value of level d-1.  The stop needs no
look-ahead; at the depth limit such a stop is a depth-limit stop.  An
empty level has no deeper one, so it ends the search as if at the depth
limit.

The search runs on tau's star in K, one value per cell, and builds no
link.  Let tau have dimension d and geometric link G.  Each simplex of G
lies over one of rel(tau): tau's strict cofaces, and tau when d >= 1.
G's link operator on F pulled back from rel(tau) is L F pulled back, with
L x = 2x - Lambda_K x = x - S(x) (the ``invariants`` module docstring),
and ADD, SUB, MUL and POP act value by value, so every function of the
closure of 1 on G is pulled back from exactly one F on rel(tau).  G's
Euler integral is the sum of w(sigma) F(sigma), w = (-1)^|sigma| on strict
cofaces and 1 + (-1)^|tau| on tau (|sigma| counts vertices).  A link is
searched as the star of a cone apex: d = 0, w = (-1)^dim.

The cells are the coarsest partition of rel(tau), refined from size (tau
is alone in its size), in which every simplex of a cell has as many
strict cofaces in each cell as any other.  Every strict coface is larger
than its face, so one pass in decreasing size finds them: it keys each
simplex by its size and the cells of its strict cofaces, counted with
multiplicity, which the pass has already found.  The keys' partition has
this property, and it is the coarsest: in any partition with it that
refines size, two simplices of one cell have one key, by induction from
the largest size.  L reads a simplex's own value and its cofaces', so every
function of the closure is kept as one value per cell: on cell a, with
``s = (-1)^(|sigma| + 1)``,

    (L y)_a = y_a + sum over sigma >= (first simplex of a)
              of s_(cell of sigma) * y_(cell of sigma).

Two functions are equal exactly when their cell values are, and a value
is reached on G exactly when it is some cell's value, so the levels,
counts, guard hits and stop are those of a search on one value per
simplex of G (the vertex link of ``susp_sphere3``: 44 simplices, 6
cells).  A failed halving names G's first odd simplex.  Over a strict
coface sigma, G starts at rho = sigma - tau, the rho in the order of their
sigma; over tau, at the boundary vertex b0, after the link's vertices and
before every larger rho.  So the cells are numbered in the order of G's
first simplex over them, and the first odd cell names the rho of tau's
first odd strict coface, or b0 when tau is odd and that rho is missing or
has two or more vertices: on the dense ids of the link rows
(``complexes._star_link``), b0 the next.

Every kept value is integer-valued with an even integral, since anything
else is a witness and ends the search.  So values are plain int tuples:
ADD, SUB and MUL map over two tuples, POP is ``(x^4 - x^2) >> 1``, the
integral is the sum of the values weighted by w and the cell sizes, and
HALFLINK halves L's ints (``functions._int_link`` on the sums along the
cell table's rows, the halving ``b_vector`` uses on the zeta sums of one
value per simplex), its first odd value being a non-integer witness.  A
Dyadic is built only for a witness, and so is an expression tree: the
table keeps each value's operator and the indices of its operands.

The value-growth guard drops a candidate with a value whose canonical
numerator exceeds 2**GUARD_BITS in absolute value, and counts it as a guard
hit; such a value is neither kept nor a witness, so levels are complete up
to the guard.  A dropped value is never in the table, so testing for a
duplicate before the guard changes neither outcome nor count: duplicates
are dropped where the candidates are made, and counted there.  A half link
with a non-integer value is never a duplicate, even when its canonical
numerators are those of a kept function.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, rshift, sub
from typing import NamedTuple

from .complexes import Simplex, SimplicialComplex
from .dyadic import Dyadic
from .functions import (ConstructibleFunction, _int_link, euler_integral,
                        half_link_total, p_operator)

Expression = tuple  # ("ONE",) | (op, child...) nested tuples

ONE_EXPR: Expression = ("ONE",)

KIND_NON_INTEGER = "non-integer value"
KIND_ODD_INTEGRAL = "odd Euler integral"


def expression_size(expr: Expression) -> int:
    return 1 + sum(expression_size(c) for c in expr[1:])


def expression_depth(expr: Expression) -> int:
    if len(expr) == 1:
        return 0
    return 1 + max(expression_depth(c) for c in expr[1:])


def expression_str(expr: Expression) -> str:
    if len(expr) == 1:
        return expr[0]
    return expr[0] + "(" + ", ".join(expression_str(c) for c in expr[1:]) + ")"


def evaluate_expression(expr: Expression,
                        base: ConstructibleFunction) -> ConstructibleFunction:
    """Evaluate an expression tree with ONE bound to ``base``."""
    op = expr[0]
    if op == "ONE":
        return base
    if op == "ADD":
        return evaluate_expression(expr[1], base) + evaluate_expression(expr[2], base)
    if op == "SUB":
        return evaluate_expression(expr[1], base) - evaluate_expression(expr[2], base)
    if op == "MUL":
        return evaluate_expression(expr[1], base) * evaluate_expression(expr[2], base)
    if op == "HALFLINK":
        return half_link_total(evaluate_expression(expr[1], base))
    if op == "POP":
        return p_operator(evaluate_expression(expr[1], base))
    raise ValueError(f"unknown operator {op!r}")


class ExpressionWitness(NamedTuple):
    """A violation certificate: an expression over the link indicator whose
    value breaks integrality or integral parity.

    ``label`` names the vertices of the link the witness lives on:
    ``label[v]`` is vertex v's label, from a list on dense ids or a
    complex's ``labels``.  Only a witness with a location reads it."""

    expr: Expression
    kind: str  # KIND_NON_INTEGER | KIND_ODD_INTEGRAL
    location: Simplex | None  # None means the violation is the integral
    value: Dyadic
    depth: int
    size: int

    def as_dict(self, label) -> dict:
        """The witness as a report writes it, its location named as the
        simplex ``(label label ...)``, or ``integral``."""
        where = "integral"
        if self.location is not None:
            where = "(" + " ".join(map(label.__getitem__, self.location)) + ")"
        return {
            "expr": expression_str(self.expr),
            "kind": self.kind,
            "location": where,
            "value": str(self.value),
            "depth": self.depth,
            "size": self.size,
        }


def witness_text(d: dict) -> str:
    """The one-line description of a witness dict (``as_dict``): the
    expression, the kind and value of the violation, and where it is (the
    kind already names the integral)."""
    head = f"{d['expr']} -> {d['kind']} {d['value']}"
    return head if d["location"] == "integral" else f"{head} at {d['location']}"


def halving_witness(expr: Expression, simplex: Simplex | None,
                    a: int) -> ExpressionWitness:
    """The witness of a failed halving: ``expr`` halves a link whose value
    at ``simplex`` (None: named by the caller) is the odd integer ``a``,
    so the half is ``a / 2``."""
    return ExpressionWitness(expr=expr, kind=KIND_NON_INTEGER, location=simplex,
                             value=Dyadic(a, 1),
                             depth=expression_depth(expr),
                             size=expression_size(expr))


def replay_witness(witness: ExpressionWitness, link: SimplicialComplex) -> Dyadic:
    """Re-evaluate a witness expression from 1 on the given link and return
    the value at its recorded location (or the Euler integral)."""
    cf = evaluate_expression(witness.expr, ConstructibleFunction.one(link))
    if witness.location is None:
        return euler_integral(cf)
    return cf[witness.location]


class _SearchBudget(NamedTuple):
    max_depth: int = 6
    max_functions: int = 20000


class SearchBudget(_SearchBudget):
    """The bounds of one closure search, checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_depth < 0 or self.max_functions < 1:
            raise ValueError(
                "search budget out of range: depth must be >= 0 and max"
                f" functions >= 1 (got depth {self.max_depth}, max functions"
                f" {self.max_functions})")
        return self


DEFAULT_BUDGET = SearchBudget()

GUARD_BITS = 128  # the value-growth guard (see the module docstring)


class SearchResult(NamedTuple):
    verdict: str  # "pass" | "witness"
    witness: ExpressionWitness | None
    explored: int = 0  # distinct functions admitted to the table
    candidates: int = 0  # expression evaluations attempted
    guard_hits: int = 0
    stop: str = ""  # "witness" | "max-functions" | "depth-limit"
    budget: SearchBudget = DEFAULT_BUDGET
    # Functions per complete level, depth 0 up.  An empty level ends the
    # closure, so empty levels are left out.
    levels: tuple[int, ...] = ()
    # Every expression of depth <= this was evaluated: the depth limit, or
    # one less than the depth of the witness or of the budget stop.
    depth_complete: int = -1

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def completeness(self) -> str:
        """What a pass explored: the complete levels, and where the search
        stopped."""
        d = self.depth_complete
        head = f"depth <= {d} exhausted ({sum(self.levels)} functions)"
        if self.stop == "max-functions":
            return (f"{head}; depth {d + 1} stopped at the"
                    f" {self.budget.max_functions}-function budget;"
                    " a pass is within-budget only")
        return (f"{head}; depth {d} is the depth limit; a pass is a bounded"
                " necessary-condition check, not a realizability proof")


def _pop(x: int) -> int:
    sq = x * x
    return (sq * sq - sq) >> 1


class _Quotient(NamedTuple):
    """The cells of a star (see the module docstring), numbered in the
    order of G's first simplex over them."""

    cells: tuple[int, ...]  # the cell of each simplex of rel(tau), so ordered
    simplices: tuple[Simplex, ...]  # G's first simplex over each cell
    # The cells of the strict cofaces of each cell's first simplex, repeats
    # kept: the rows that ``_cell_star_sums`` sums along.
    table: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]  # simplices per cell
    signs: tuple[int, ...]  # s = (-1)^(|sigma| + 1) of each cell's simplices
    weights: tuple[int, ...]  # w times the size: each cell's integral weight


def _quotient(k: SimplicialComplex, tau: int = -1, rows=()) -> _Quotient:
    """The cells of rel(tau) in ``k`` for its simplex of index ``tau``, with
    link rows ``rows`` (``complexes._star_link``), or with no ``tau``, of
    the link ``k`` as the star of a cone apex: one pass in decreasing size
    keys each simplex by its size and the cells of its strict cofaces,
    counted with multiplicity, which that pass has already found; the
    cells are then numbered in the order of their first simplex."""
    table = k.coface_table()
    if tau < 0:
        d, members, firsts = 0, range(len(table)), k.simplices
    else:
        d, members, firsts = len(k.simplices[tau]) - 1, table[tau], rows
    lens = [*map(len, firsts)]  # |rho| = |sigma| - d - 1
    if d:  # over tau, G starts at b0, after the link's nv vertices
        nv = lens.count(1)
        members = [*members[:nv], tau, *members[nv:]]
        firsts = [*firsts[:nv], (nv,), *firsts[nv:]]
        lens[nv:nv] = [0]
    pos = dict(zip(members, range(len(members))))
    star = [[*map(pos.__getitem__, table[j])] for j in members]
    found = [0] * len(star)  # each simplex's cell, numbered as found
    cell = found.__getitem__
    ids: dict[tuple, int] = {}
    for i in sorted(range(len(star)), key=lens.__getitem__, reverse=True):
        key = lens[i], tuple(sorted(map(cell, star[i])))
        found[i] = ids.setdefault(key, len(ids))
    first: dict[int, int] = {}  # each cell's first simplex, in G's order
    for i, c in enumerate(found):
        first.setdefault(c, i)
    number = dict(zip(first, range(len(first))))
    cells = [*map(number.__getitem__, found)]
    sizes = [0] * len(first)
    for c in cells:
        sizes[c] += 1
    heads = [*first.values()]
    signs = tuple(-1 if (lens[i] + d) & 1 else 1 for i in heads)
    return _Quotient(
        cells=tuple(cells),
        simplices=tuple(firsts[i] for i in heads),
        table=tuple(tuple(cells[j] for j in star[i]) for i in heads),
        sizes=tuple(sizes),
        signs=signs,
        weights=tuple((lens[i] == 0) - s * z
                      for i, s, z in zip(heads, signs, sizes)))


def _cell_star_sums(q: _Quotient, xs: tuple[int, ...]) -> list[int]:
    """For every cell a, the sum over sigma >= (first simplex of a) of
    ``s_(cell of sigma) * x_(cell of sigma)``: the closed-star sums that
    ``functions._int_link`` turns into the link operator on cell values."""
    signed = list(map(mul, q.signs, xs))
    term = signed.__getitem__
    return [sum(map(term, row), y) for y, row in zip(signed, q.table)]


def _candidates(q: _Quotient, values: list[tuple[int, ...]],
                seen: set[tuple[int, ...]], budget: SearchBudget,
                tally: list[int]):
    """Yield ``(depth, op, args, nums, odd)`` for every candidate expression
    whose value is not in ``seen``, in search order.

    ``args`` indexes the operands in ``values``, the table of kept
    functions, which the caller extends, and ``seen``, their set, which it
    fills, while the level is being built.  ``nums`` are the canonical
    numerators of the value, one per cell of ``q``; ``odd`` is -1, or, for
    a half link with a non-integer value, the first such cell (whose value
    is then ``nums[odd] / 2``); such a half link is yielded even when its
    numerators are in ``seen``.  ``tally[0]`` is the number of candidates
    reached, yielded or dropped, when the generator yields or ends.
    """
    n = tally[0] = 1
    yield 0, "ONE", (), (1,) * len(q.sizes), -1
    lo = 0
    for depth in range(1, budget.max_depth + 1):
        hi = len(values)  # level depth - 1 is values[lo:hi]
        if lo == hi:
            break  # an empty level: the closure is exhausted
        for op, f in (("ADD", add), ("SUB", sub), ("MUL", mul)):
            for j in range(lo, hi):
                b = values[j]
                for i in range(j + 1):
                    a = values[i]
                    n += 1
                    if (nums := tuple(map(f, a, b))) not in seen:
                        tally[0] = n
                        yield depth, op, (i, j), nums, -1
                    if f is sub and i != j:
                        n += 1
                        if (nums := tuple(map(sub, b, a))) not in seen:
                            tally[0] = n
                            yield depth, op, (j, i), nums, -1
        for j in range(lo, hi):
            n += 1
            lam, odd = _int_link(values[j], _cell_star_sums(q, values[j]))
            if odd >= 0:
                tally[0] = n
                yield depth, "HALFLINK", (j,), tuple(
                    a if a & 1 else a >> 1 for a in lam), odd
            elif (nums := tuple(map(rshift, lam, repeat(1)))) not in seen:
                tally[0] = n
                yield depth, "HALFLINK", (j,), nums, -1
        for j in range(lo, hi):
            n += 1
            if (nums := tuple(map(_pop, values[j]))) not in seen:
                tally[0] = n
                yield depth, "POP", (j,), nums, -1
        lo = hi
    tally[0] = n


def _expression(made: list[tuple[str, tuple[int, ...]]], op: str,
                args: tuple[int, ...]) -> Expression:
    """The expression tree of ``op`` on the kept values ``args``, each
    kept value being ``(op, args)`` in ``made``."""
    return (op, *(_expression(made, *made[i]) for i in args))


def _search(k: SimplicialComplex, tau: int, rows,
            budget: SearchBudget) -> SearchResult:
    """The level search on the cells ``_quotient(k, tau, rows)``.  On a
    star, a witness is located on the dense ids of the link rows (b0 the
    next id).  The table keeps each value's operator and operands, and an
    expression is built for a witness alone.  At the budget, the level of
    the value that filled the table is complete when that value was the
    level's last candidate (module docstring)."""
    q = _quotient(k, tau, rows)
    guard = 1 << GUARD_BITS
    values: list[tuple[int, ...]] = []
    made: list[tuple[str, tuple[int, ...]]] = []  # (op, args) of each value
    seen: set[tuple[int, ...]] = set()
    levels: list[int] = []  # functions admitted per depth, grown as reached
    tally = [0]
    guard_hits = 0
    witness = None
    stop, complete = "depth-limit", budget.max_depth
    for depth, op, args, nums, odd in _candidates(q, values, seen, budget,
                                                  tally):
        if max(nums, default=0) > guard or min(nums, default=0) < -guard:
            guard_hits += 1
            continue
        if odd >= 0:
            witness = halving_witness(_expression(made, op, args),
                                      Simplex(q.simplices[odd]), nums[odd])
        elif (integral := sum(map(mul, q.weights, nums))) & 1:
            expr = _expression(made, op, args)
            witness = ExpressionWitness(
                expr=expr, kind=KIND_ODD_INTEGRAL, location=None,
                value=Dyadic(integral), depth=depth,
                size=expression_size(expr))
        if witness is not None:
            stop, complete = "witness", depth - 1
            break
        seen.add(nums)
        values.append(nums)
        made.append((op, args))
        if depth == len(levels):
            levels.append(0)
        levels[depth] += 1
        if len(values) >= budget.max_functions:
            # Level depth-1 ends just before level depth's kept values.
            last = op == "ONE" or (op == "POP" and args[0] ==
                                   len(values) - levels[depth] - 1)
            if not last:
                stop, complete = "max-functions", depth - 1
            elif depth < budget.max_depth:
                stop, complete = "max-functions", depth
            break
    return SearchResult("witness" if witness else "pass", witness,
                        explored=len(values), candidates=tally[0],
                        guard_hits=guard_hits, stop=stop, budget=budget,
                        levels=tuple(levels[:complete + 1]),
                        depth_complete=complete)


def closure_search(link: SimplicialComplex,
                   budget: SearchBudget = DEFAULT_BUDGET) -> SearchResult:
    """Search the operator closure of a built link's indicator for a
    violation: the star search of a cone apex.  A witness is located on
    the link's own simplices."""
    return _search(link, -1, (), budget)
