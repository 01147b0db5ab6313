"""Exact dyadic rational numbers n / 2**k.

Every value produced by the operator calculus lives in Z[1/2], so instead
of a general rational type we keep a numerator and a power-of-two exponent.
The representation is canonical: the exponent is zero, or the numerator is
odd.  Arithmetic is exact at arbitrary precision (plain Python ints).
"""

from __future__ import annotations

import functools
import re

# ASCII digits only: ``\d`` alone also matches other scripts' digits.
_PATTERN = re.compile(r"^([+-]?\d+)(?:/2\^(\d+))?$", re.ASCII)

# Largest k accepted in a parsed "p/2^k": arithmetic aligns exponents by
# shifting, so an unbounded k in an input file is an unbounded allocation.
MAX_PARSE_EXP = 4096


@functools.total_ordering
class Dyadic:
    """An exact dyadic rational ``num / 2**exp`` in canonical form."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int = 0, exp: int = 0):
        # Exact ints only: a bool or a float would be stored as given.
        if type(num) is not int or type(exp) is not int:
            raise TypeError("a Dyadic needs an int numerator and exponent,"
                            f" got {num!r} and {exp!r}")
        if exp < 0:
            # Negative exponents are just integer multiplication.
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp:
            # Strip trailing zero bits, at most exp of them, in one shift.
            shift = min(exp, (num & -num).bit_length() - 1)
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse ``"p"`` or ``"p/2^k"`` (the format produced by str)."""
        m = _PATTERN.match(text.strip())
        if m is None:
            raise ValueError(f"not a dyadic rational: {text!r}")
        num = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) else 0
        if exp > MAX_PARSE_EXP:
            raise ValueError(f"exponent {exp} in {text.strip()!r} is above"
                             f" the limit {MAX_PARSE_EXP}")
        return cls(num, exp)

    # -- predicates ---------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.exp == 0

    def two_adic_valuation(self) -> int | None:
        """Exponent of 2 in this value; None for zero (infinite valuation)."""
        if self.num == 0:
            return None
        if self.exp > 0:
            return -self.exp  # canonical form: numerator is odd
        return (self.num & -self.num).bit_length() - 1

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Dyadic | None":
        """``other`` as a Dyadic, an int (a bool too) by its value; None
        for anything else."""
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(int(other))
        return None

    def __add__(self, other) -> "Dyadic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other) -> "Dyadic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Dyadic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Dyadic":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def half(self) -> "Dyadic":
        """Exact division by two."""
        return Dyadic(self.num, self.exp + 1)

    def __pow__(self, n: int) -> "Dyadic":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return Dyadic(self.num ** n, self.exp * n)

    # -- comparison and hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.exp == o.exp

    def __lt__(self, other) -> bool:
        # <=, > and >= come from functools.total_ordering
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exp, o.exp)
        return self.num << (e - self.exp) < o.num << (e - o.exp)

    def __hash__(self) -> int:
        if self.exp == 0:
            return hash(self.num)
        return hash((self.num, self.exp))

    def __bool__(self) -> bool:
        return self.num != 0

    def __int__(self) -> int:
        if self.exp != 0:
            raise ValueError(f"{self} is not an integer")
        return self.num

    # -- formatting -----------------------------------------------------

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})" if self.exp else f"Dyadic({self.num})"


ZERO = Dyadic(0)
ONE = Dyadic(1)
