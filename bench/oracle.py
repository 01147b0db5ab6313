"""Brute-force references for the benchmark's correctness checks.

Nothing here calls into ``eulerlink``.  A complex is a set of faces, each a
frozenset of vertex labels (or of vertex ids); links are filtered from that
set directly and Euler characteristics are counted cell by cell, so a check
built on these functions cannot share a fault with ``link_operator``,
``cofaces`` or ``replay_witness``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

_VALUE = re.compile(r"^([+-]?\d+)(?:/2\^(\d+))?$")


def parse_cplx(text: str) -> list[frozenset]:
    """Facets of a ``.cplx`` file as label sets."""
    lines = [l.split() for l in text.splitlines() if l.strip()]
    if not lines or lines[0][0] != "complex":
        raise ValueError("not a .cplx file")
    return [frozenset(l) for l in lines[1:]]


def closure(facets) -> set[frozenset]:
    """Every nonempty face of the given simplices."""
    faces = set()
    for f in facets:
        f = tuple(f)
        for r in range(1, len(f) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(f, r))
    return faces


def euler_characteristic(faces) -> int:
    return sum(-1 if len(s) % 2 == 0 else 1 for s in faces)


def link(faces: set[frozenset], tau: frozenset) -> list[frozenset]:
    """The simplicial link of ``tau``, filtered from the face set."""
    return [s for s in faces if tau.isdisjoint(s) and (s | tau) in faces]


def _proper_faces(tau: frozenset):
    """Cells of the boundary sphere of the simplex ``tau``."""
    vs = tuple(tau)
    for r in range(1, len(vs)):
        for c in itertools.combinations(vs, r):
            yield frozenset(c)


def link_chi(faces: set[frozenset], tau: frozenset) -> int:
    """Euler characteristic of the small sphere around an interior point of
    ``tau``: count the cells of the join of the boundary sphere of ``tau``
    with its link, one by one."""
    lk = link(faces, tau)
    bd = list(_proper_faces(tau))
    chi = 0
    for b in bd:
        chi += (-1) ** (len(b) - 1)
    for l in lk:
        chi += (-1) ** (len(l) - 1)
        for b in bd:
            chi += (-1) ** (len(b) + len(l) - 1)
    return chi


def parse_value(text: str) -> Fraction:
    """A value as the program prints it: ``p`` or ``p/2^k``."""
    m = _VALUE.match(text)
    if m is None:
        raise ValueError(f"not a dyadic value: {text!r}")
    return Fraction(int(m.group(1)), 1 << int(m.group(2) or 0))


def simplex_labels(name: str) -> frozenset:
    """Labels of a simplex as the program names it: ``"(a b c)"``."""
    if not (name.startswith("(") and name.endswith(")")):
        raise ValueError(f"not a simplex name: {name!r}")
    return frozenset(name[1:-1].split())


# -- geometric links and a Fraction evaluator of search expressions ----------


def geometric_link(faces: set[frozenset], tau: frozenset,
                   labels: set[str]) -> set[frozenset]:
    """Join of the boundary of a ``dim tau``-simplex on fresh labels
    ``b0, b1, ...`` (primed until unused, as the program names them) with
    the simplicial link of ``tau``."""
    lk = link(faces, tau)
    if len(tau) == 1:
        return set(lk)
    used = set(labels)
    fresh = []
    for i in range(len(tau)):
        w = f"b{i}"
        while w in used:
            w += "'"
        used.add(w)
        fresh.append(w)
    bd = list(_proper_faces(frozenset(fresh)))
    return set(bd) | set(lk) | {b | l for b in bd for l in lk}


class LinkEvaluator:
    """Exact evaluation of closure-search expressions on one geometric link.

    Functions are dicts from cells to Fractions.  The link operator at a cell
    ``c`` is the Euler integral over the small sphere around ``c``: its cells
    pair a face ``b`` of the boundary of ``c`` (or nothing) with a simplex
    ``l`` of the link of ``c`` (or nothing), lie inside the open cell
    ``c | l``, and count with sign ``(-1)^(dim b + dim l + 1)``.
    """

    def __init__(self, faces: set[frozenset]):
        self.cells = sorted(faces, key=lambda s: (len(s), sorted(s)))
        self.sphere: dict[frozenset, dict[frozenset, int]] = {}
        for c in self.cells:
            coeff: dict[frozenset, int] = {}
            bd = list(_proper_faces(c))
            for b in bd:
                coeff[c] = coeff.get(c, 0) + (-1) ** (len(b) - 1)
            for l in link(faces, c):
                target = c | l
                sign = (-1) ** (len(l) - 1)
                for b in bd:
                    sign += (-1) ** (len(b) + len(l) - 1)
                coeff[target] = coeff.get(target, 0) + sign
            self.sphere[c] = coeff

    def link_operator(self, phi: dict) -> dict:
        return {c: sum((k * phi[t] for t, k in self.sphere[c].items()),
                       Fraction(0)) for c in self.cells}

    def integral(self, phi: dict) -> Fraction:
        return sum((phi[c] if len(c) % 2 else -phi[c] for c in self.cells),
                   Fraction(0))

    def evaluate(self, expr) -> dict:
        op, args = expr[0], [self.evaluate(a) for a in expr[1:]]
        if op == "ONE":
            return {c: Fraction(1) for c in self.cells}
        if op in ("ADD", "SUB", "MUL"):
            a, b = args
            f = {"ADD": lambda x, y: x + y, "SUB": lambda x, y: x - y,
                 "MUL": lambda x, y: x * y}[op]
            return {c: f(a[c], b[c]) for c in self.cells}
        if op == "HALFLINK":
            return {c: v / 2 for c, v in self.link_operator(args[0]).items()}
        if op == "POP":
            return {c: (v ** 4 - v ** 2) / 2 for c, v in args[0].items()}
        raise ValueError(f"unknown operator {op!r}")


def parse_expression(text: str):
    """``"MUL(HALFLINK(ONE), ONE)"`` as nested tuples:
    ``("MUL", ("HALFLINK", ("ONE",)), ("ONE",))``."""
    tokens = re.findall(r"[A-Z]+|[(),]", text)
    pos = 0

    def node():
        nonlocal pos
        op = tokens[pos]
        pos += 1
        args = []
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            args.append(node())
            while tokens[pos] == ",":
                pos += 1
                args.append(node())
            if tokens[pos] != ")":
                raise ValueError(f"bad expression {text!r}")
            pos += 1
        return (op, *args)

    expr = node()
    if pos != len(tokens):
        raise ValueError(f"bad expression {text!r}")
    return expr


def _size(expr) -> int:
    return 1 + sum(_size(a) for a in expr[1:])


def _depth(expr) -> int:
    return 0 if len(expr) == 1 else 1 + max(_depth(a) for a in expr[1:])


def witness_problems(witness: dict, faces: set[frozenset], tau: frozenset,
                     labels: set[str]) -> list[str]:
    """Replay a reported witness on the brute-force geometric link of ``tau``
    and list every way it fails to reproduce its claim."""
    expr = parse_expression(witness["expr"])
    out = []
    if _size(expr) != witness["size"] or _depth(expr) != witness["depth"]:
        out.append("size or depth does not match the expression")
    ev = LinkEvaluator(geometric_link(faces, tau, labels))
    phi = ev.evaluate(expr)
    claimed = parse_value(witness["value"])
    if witness["location"] == "integral":
        got = ev.integral(phi)
        if witness["kind"] != "odd Euler integral" or got != claimed \
                or got.denominator != 1 or got.numerator % 2 == 0:
            out.append(f"integral is {got}, claimed {witness['kind']} {claimed}")
    else:
        cell = simplex_labels(witness["location"])
        got = phi.get(cell)
        if witness["kind"] != "non-integer value" or got != claimed \
                or got.denominator == 1:
            out.append(f"value at {witness['location']} is {got},"
                       f" claimed {witness['kind']} {claimed}")
    return out
