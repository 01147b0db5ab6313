"""Exact dyadic arithmetic: ring laws, parsing, 2-adic valuation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulerlink.dyadic import MAX_PARSE_EXP, Dyadic


dyadics = st.builds(Dyadic,
                    st.integers(min_value=-10**6, max_value=10**6),
                    st.integers(min_value=0, max_value=40))


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2 ** d.exp)


@given(dyadics, dyadics, dyadics)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Dyadic(0) == a
    assert a * Dyadic(1) == a
    assert a - a == Dyadic(0)


@given(dyadics, dyadics)
def test_agrees_with_fractions(a, b):
    assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)
    assert as_fraction(a - b) == as_fraction(a) - as_fraction(b)
    assert as_fraction(a * b) == as_fraction(a) * as_fraction(b)
    fa, fb = as_fraction(a), as_fraction(b)
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a > b) == (fa > fb)
    assert (a >= b) == (fa >= fb)
    assert (a == b) == (fa == fb)
    assert (a <= a) and (a >= a) and not (a < a) and not (a > a)


@given(dyadics)
def test_canonical_form_makes_hash_work(a):
    assert a.num % 2 == 1 or a.exp == 0
    assert hash(a) == hash(Dyadic(a.num * 4, a.exp + 2))
    assert a.half() + a.half() == a
    assert -(-a) == a
    assert abs(a) >= Dyadic(0)


@given(dyadics)
def test_str_parse_round_trip(a):
    assert Dyadic.parse(str(a)) == a


def test_parse_forms():
    assert Dyadic.parse("5") == Dyadic(5)
    assert Dyadic.parse("-7/2^3") == Dyadic(-7, 3)
    assert Dyadic.parse("+6/2^1") == Dyadic(3)
    assert str(Dyadic(3, 1)) == "3/2^1"
    assert str(Dyadic(-4)) == "-4"
    for bad in ["", "1/3", "x", "1/2^", "2^3", "1.5"]:
        with pytest.raises(ValueError):
            Dyadic.parse(bad)


@pytest.mark.parametrize("bad", ["\u0661", "\u0663", "-\u0663",
                                 "3/2^\u0661", "\uff11", "1\u0660"])
def test_parse_takes_ascii_digits_only(bad):
    # int() reads other scripts' digits (Arabic-Indic, fullwidth); a value
    # file holds ASCII ones only, as the complex header does.
    with pytest.raises(ValueError) as err:
        Dyadic.parse(bad)
    assert str(err.value) == f"not a dyadic rational: {bad!r}"


def test_parse_caps_the_exponent():
    # parse only: the values above the cap are never built
    assert Dyadic.parse(f"1/2^{MAX_PARSE_EXP}") == Dyadic(1, MAX_PARSE_EXP)
    assert Dyadic.parse(f"-8/2^{MAX_PARSE_EXP}").exp == MAX_PARSE_EXP - 3
    for bad in [f"1/2^{MAX_PARSE_EXP + 1}", "1/2^4000000000",
                f"0/2^{MAX_PARSE_EXP + 1}"]:
        with pytest.raises(ValueError, match="limit"):
            Dyadic.parse(bad)


def test_integer_predicates():
    assert Dyadic(4).is_integer and Dyadic(0).is_integer
    assert not Dyadic(3, 1).is_integer
    assert int(Dyadic(-9)) == -9
    with pytest.raises(ValueError):
        int(Dyadic(1, 1))


def test_two_adic_valuation():
    assert Dyadic(0).two_adic_valuation() is None
    assert Dyadic(12).two_adic_valuation() == 2
    assert Dyadic(3).two_adic_valuation() == 0
    assert Dyadic(3, 2).two_adic_valuation() == -2
    assert Dyadic(-8).two_adic_valuation() == 3


@given(dyadics, dyadics)
def test_valuation_is_multiplicative(a, b):
    va, vb, vab = (x.two_adic_valuation() for x in (a, b, a * b))
    if va is None or vb is None:
        assert vab is None
    else:
        assert vab == va + vb


@given(dyadics, st.integers(min_value=0, max_value=6))
def test_powers(a, n):
    assert as_fraction(a ** n) == as_fraction(a) ** n


def halving_loop(num: int, exp: int) -> tuple[int, int]:
    """Canonical form by halving one bit at a time (the reference)."""
    if exp < 0:
        num <<= -exp
        exp = 0
    if num == 0:
        return 0, 0
    while exp > 0 and num % 2 == 0:
        num //= 2
        exp -= 1
    return num, exp


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=0, max_value=MAX_PARSE_EXP + 8),
       st.integers(min_value=-4, max_value=MAX_PARSE_EXP))
def test_normalisation_matches_the_halving_loop(odd, zeros, exp):
    num = odd << zeros
    d = Dyadic(num, exp)
    assert (d.num, d.exp) == halving_loop(num, exp)


def test_normalisation_edge_cases():
    cases = [(0, 0), (0, 7), (0, -3), (0, MAX_PARSE_EXP), (-1, 0), (-6, 1),
             (-6, 2), (12, -2), (-3, -5), (1 << MAX_PARSE_EXP, MAX_PARSE_EXP),
             (-(5 << (MAX_PARSE_EXP + 9)), MAX_PARSE_EXP),
             (-(1 << 100), MAX_PARSE_EXP), (3 << 4000, MAX_PARSE_EXP - 1)]
    for num, exp in cases:
        d = Dyadic(num, exp)
        assert (d.num, d.exp) == halving_loop(num, exp), (num, exp)


@pytest.mark.parametrize("num, exp", [
    (True, 0), (False, 0), (1, True), (1.5, 0), (2.0, 1), (1, 1.0),
    ("1", 0), (None, 0), (Fraction(1), 0)], ids=repr)
def test_the_constructor_takes_exact_ints_only(num, exp):
    with pytest.raises(TypeError, match="int numerator and exponent"):
        Dyadic(num, exp)


def test_a_bool_operand_counts_as_its_int():
    # Arithmetic and comparison coerce a bool by its value, as int does.
    assert Dyadic(1) == True and Dyadic(0) == False  # noqa: E712
    assert Dyadic(1) != False  # noqa: E712
    for total in (Dyadic(1) + True, True + Dyadic(1), Dyadic(3) - True,
                  Dyadic(2) * True):
        assert total == Dyadic(2)
        assert type(total.num) is int and str(total) == "2"
    assert Dyadic(1, 1) < True
    assert hash(Dyadic(1)) == hash(True)


def test_a_float_operand_is_not_coerced():
    assert Dyadic(1) != 1.0
    with pytest.raises(TypeError):
        Dyadic(1) + 0.5
