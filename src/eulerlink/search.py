"""Bounded closure search for local obstruction witnesses.

Starting from the indicator of a link, we close under pointwise ADD, SUB,
MUL, the half link (HALFLINK: half of the link operator, applied without a
parity precondition), and optionally POP (phi -> (phi^4 - phi^2)/2).  Any
expression whose value is not integer-valued, or is integer-valued with an
odd Euler integral, is an obstruction witness: on a space realizable as a
real algebraic set, every function in this closure is an integer-valued
function of even integral.

Enumeration is smallest-size-first (size = expression node count) with the
fixed operator order ONE < ADD < SUB < MUL < HALFLINK < POP, deduplicating
functions by their exact value vector, so results and witnesses are fully
deterministic for a given complex and budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import Simplex, SimplicialComplex, geometric_link
from .dyadic import Dyadic
from .functions import (ConstructibleFunction, euler_integral, half_link_total,
                        p_operator)

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


@dataclass(frozen=True)
class ExpressionWitness:
    """A violation certificate: an expression over the link indicator whose
    value breaks integrality or integral parity."""

    expr: Expression
    kind: str  # KIND_NON_INTEGER | KIND_ODD_INTEGRAL
    location: Simplex | None  # None means the violation is the integral
    value: Dyadic
    depth: int
    size: int

    def describe(self, complex: SimplicialComplex | None = None) -> str:
        head = f"{expression_str(self.expr)} -> {self.kind} {self.value}"
        if self.location is None:
            return head  # the kind already names the integral
        if complex is not None:
            return f"{head} at {complex.simplex_name(self.location)}"
        return f"{head} at {tuple(self.location)}"

    def as_dict(self, complex: SimplicialComplex | None = None) -> dict:
        return {
            "expr": expression_str(self.expr),
            "kind": self.kind,
            "location": ("integral" if self.location is None
                         else (complex.simplex_name(self.location) if complex
                               else " ".join(map(str, self.location)))),
            "value": str(self.value),
            "depth": self.depth,
            "size": self.size,
        }


def violation(cf: ConstructibleFunction) -> tuple[str, Simplex | None, Dyadic] | None:
    """First violation in canonical order, or None if the function is clean."""
    for s, v in zip(cf.complex.simplices, cf.values):
        if not v.is_integer:
            return (KIND_NON_INTEGER, s, v)
    total = euler_integral(cf)
    if total.num % 2 != 0:
        return (KIND_ODD_INTEGRAL, None, total)
    return None


def replay_witness(witness: ExpressionWitness, link: SimplicialComplex) -> Dyadic:
    """Re-evaluate a witness expression from 1 on the given link and return
    the value at its recorded location (or the Euler integral)."""
    cf = evaluate_expression(witness.expr, ConstructibleFunction.one(link))
    if witness.location is None:
        return euler_integral(cf)
    return cf[witness.location]


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 6
    max_functions: int = 20000
    use_p: bool = True
    guard_bits: int = 128

    def validate(self) -> None:
        if self.max_depth < 0 or self.max_functions < 1:
            raise ValueError("budget must be positive")

    def as_dict(self) -> dict:
        return {"max_depth": self.max_depth, "max_functions": self.max_functions,
                "use_p": self.use_p, "guard_bits": self.guard_bits}


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class SearchResult:
    verdict: str  # "pass" | "witness"
    witness: ExpressionWitness | None
    link: SimplicialComplex = field(repr=False)
    explored: int = 0  # distinct functions admitted to the table
    candidates: int = 0  # expression evaluations attempted
    guard_hits: int = 0
    stop: str = ""  # "witness" | "size-limit" | "max-functions"
    budget: SearchBudget = DEFAULT_BUDGET

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def notes(self) -> tuple[str, ...]:
        out = []
        if self.verdict == "pass":
            if self.stop == "max-functions":
                out.append(f"search stopped at the {self.budget.max_functions}"
                           "-function budget; pass is within-budget only")
            else:
                out.append(f"search exhausted depth {self.budget.max_depth}"
                           f" ({self.explored} distinct functions);"
                           " a pass is a bounded necessary-condition check,"
                           " not a realizability proof")
        if self.guard_hits:
            out.append(f"value-growth guard pruned {self.guard_hits} branches")
        return tuple(out)


def closure_search(link: SimplicialComplex,
                   budget: SearchBudget = DEFAULT_BUDGET) -> SearchResult:
    """Search the operator closure of the link's indicator for a violation."""
    budget.validate()
    base = ConstructibleFunction.one(link)
    guard = 1 << budget.guard_bits
    guard_hits = 0
    candidates = 0

    size_cap = (1 << (budget.max_depth + 1)) - 1

    def check(values: tuple[Dyadic, ...], expr, depth, size):
        cf = ConstructibleFunction(link, values)
        bad = violation(cf)
        if bad is None:
            return None
        kind, where, value = bad
        return ExpressionWitness(expr=expr, kind=kind, location=where,
                                 value=value, depth=depth, size=size)

    # rep tables: parallel lists indexed by discovery order
    exprs: list[Expression] = [ONE_EXPR]
    values: list[tuple[Dyadic, ...]] = [base.values]
    depths: list[int] = [0]
    seen: set[tuple[Dyadic, ...]] = {base.values}
    bins: dict[int, list[int]] = {1: [0]}

    candidates = 1
    w = check(base.values, ONE_EXPR, 0, 1)
    if w is not None:
        return SearchResult("witness", w, link, explored=1, candidates=1,
                            guard_hits=0, stop="witness", budget=budget)

    def admit(vals, expr, depth, size):
        """Returns a witness, True (admitted or duplicate), or 'full'."""
        nonlocal guard_hits, candidates
        candidates += 1
        if any(abs(v.num) > guard for v in vals):
            guard_hits += 1
            return True
        if vals in seen:
            return True
        w = check(vals, expr, depth, size)
        if w is not None:
            return w
        seen.add(vals)
        exprs.append(expr)
        values.append(vals)
        depths.append(depth)
        bins.setdefault(size, []).append(len(exprs) - 1)
        if len(exprs) >= budget.max_functions:
            return "full"
        return True

    max_rep_size = 1
    size = 2
    while size <= size_cap and size <= 2 * max_rep_size + 1:
        for op in ("ADD", "SUB", "MUL"):
            for lsize in range(1, size - 1):
                rsize = size - 1 - lsize
                if rsize < 1 or (op != "SUB" and lsize > rsize):
                    continue
                for li in bins.get(lsize, ()):
                    for ri in bins.get(rsize, ()):
                        if op != "SUB" and lsize == rsize and li > ri:
                            continue
                        depth = 1 + max(depths[li], depths[ri])
                        if depth > budget.max_depth:
                            continue
                        a, b = values[li], values[ri]
                        if op == "ADD":
                            vals = tuple(x + y for x, y in zip(a, b))
                        elif op == "SUB":
                            vals = tuple(x - y for x, y in zip(a, b))
                        else:
                            vals = tuple(x * y for x, y in zip(a, b))
                        got = admit(vals, (op, exprs[li], exprs[ri]), depth, size)
                        if isinstance(got, ExpressionWitness):
                            return SearchResult(
                                "witness", got, link, explored=len(exprs),
                                candidates=candidates, guard_hits=guard_hits,
                                stop="witness", budget=budget)
                        if got == "full":
                            return SearchResult(
                                "pass", None, link, explored=len(exprs),
                                candidates=candidates, guard_hits=guard_hits,
                                stop="max-functions", budget=budget)
        unary_ops = ("HALFLINK", "POP") if budget.use_p else ("HALFLINK",)
        for op in unary_ops:
            for i in list(bins.get(size - 1, ())):
                depth = depths[i] + 1
                if depth > budget.max_depth:
                    continue
                cf = ConstructibleFunction(link, values[i])
                out = half_link_total(cf) if op == "HALFLINK" else p_operator(cf)
                got = admit(out.values, (op, exprs[i]), depth, size)
                if isinstance(got, ExpressionWitness):
                    return SearchResult(
                        "witness", got, link, explored=len(exprs),
                        candidates=candidates, guard_hits=guard_hits,
                        stop="witness", budget=budget)
                if got == "full":
                    return SearchResult(
                        "pass", None, link, explored=len(exprs),
                        candidates=candidates, guard_hits=guard_hits,
                        stop="max-functions", budget=budget)
        if bins.get(size):
            max_rep_size = size
        size += 1

    return SearchResult("pass", None, link, explored=len(exprs),
                        candidates=candidates, guard_hits=guard_hits,
                        stop="size-limit", budget=budget)


def dim4_local_search(k: SimplicialComplex, tau,
                      budget: SearchBudget = DEFAULT_BUDGET) -> SearchResult:
    """Run the closure search over the geometric link of ``tau`` in ``k``."""
    tau = tau if isinstance(tau, Simplex) else Simplex(tau)
    if tau not in k:
        raise ValueError(f"simplex {tuple(tau)} is not in the complex")
    return closure_search(geometric_link(k, tau), budget)
