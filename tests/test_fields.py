from fractions import Fraction
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcat.fields import RATIONALS, GFElement, ScalarField, prime_field


def test_rationals_basics():
    f = RATIONALS
    assert f.is_rationals
    assert str(f) == "Q"
    assert f.zero() == Fraction(0)
    assert f.one() == Fraction(1)
    assert f.from_int(-7) == Fraction(-7)
    assert f.contains(Fraction(1, 3))
    assert not f.contains(0.5)
    assert not f.contains(1)  # plain ints are not canonical scalars


def test_rational_parse_format_roundtrip():
    f = RATIONALS
    for text, want in [("3", Fraction(3)), ("-3", Fraction(-3)),
                       ("+2/4", Fraction(1, 2)), ("0", Fraction(0)),
                       ("10/5", Fraction(2))]:
        x = f.parse(text)
        assert x == want
        assert f.parse(f.format(x)) == x


@pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1 /2", "a", "--3", "1/-2", "0x3"])
def test_rational_parse_rejects(bad):
    with pytest.raises(ValueError):
        RATIONALS.parse(bad)


def test_gf_element_canonicalizes():
    x = GFElement(9, 7)
    assert x.value == 2
    assert GFElement(-1, 7).value == 6
    assert x == GFElement(2, 7)
    assert str(x) == "2"
    assert not GFElement(0, 7)
    assert GFElement(3, 7)


def test_gf_arithmetic():
    p = 7
    a, b = GFElement(3, p), GFElement(5, p)
    assert a + b == GFElement(1, p)
    assert a - b == GFElement(5, p)
    assert a * b == GFElement(1, p)
    assert -a == GFElement(4, p)
    assert a / b == a * b.inverse()
    assert b * b.inverse() == GFElement(1, p)
    with pytest.raises(ZeroDivisionError):
        GFElement(0, p).inverse()


def test_gf_mixed_modulus_rejected():
    with pytest.raises(ValueError):
        GFElement(1, 5) + GFElement(1, 7)


def test_field_validation():
    with pytest.raises(ValueError):
        ScalarField(4)  # composite
    with pytest.raises(ValueError):
        ScalarField(1)
    with pytest.raises(ValueError):
        ScalarField(-3)
    with pytest.raises(ValueError):
        ScalarField(2**31 + 11)  # over the size cap, even if prime
    assert prime_field(2).p == 2
    assert prime_field(2147483647).p == 2147483647  # largest allowed prime


def test_gf_scalars_are_int_residues():
    f = prime_field(7)
    made = [f.zero(), f.one(), f.from_int(-1), f.from_int(15), f.parse("6")]
    assert made == [0, 1, 6, 1, 6]
    assert all(type(x) is int for x in made)
    assert f.contains(0) and f.contains(6)
    for bad in (7, -1, True, Fraction(1), GFElement(1, 7), 1.0):
        assert not f.contains(bad)
    assert f.format(6) == "6"


def test_gf_parse_rejects_noncanonical():
    f = prime_field(7)
    assert f.parse("6") == 6 and type(f.parse("6")) is int
    for bad in ["7", "12", "-1", "1/2", ""]:
        with pytest.raises(ValueError):
            f.parse(bad)


def test_format_rejects_foreign_scalar():
    with pytest.raises(ValueError):
        RATIONALS.format(GFElement(1, 7))
    with pytest.raises(ValueError):
        prime_field(7).format(GFElement(1, 7))  # a standalone scalar, not an entry
    with pytest.raises(ValueError):
        prime_field(7).format(7)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=60)
def test_rational_parse_total_on_canonical(n, d):
    f = RATIONALS
    x = Fraction(n, d)
    assert f.parse(f.format(x)) == x


@given(st.integers(), st.integers())
@settings(max_examples=60)
def test_gf_addition_is_modular(a, b):
    p = 101
    assert GFElement(a, p) + GFElement(b, p) == GFElement((a + b) % p, p)


def test_parse_accepts_ascii_digits_only():
    for bad in ["３/٢", "٣", "-２", "1/٢"]:
        with pytest.raises(ValueError):
            RATIONALS.parse(bad)
    for bad in ["٥", "５"]:
        with pytest.raises(ValueError):
            prime_field(7).parse(bad)


def test_rational_literals_parse_as_fraction_of_the_text():
    for text in ["+3", "-0", "007", "4/6", "-12/35", "+0/5", "-007/014"]:
        got = RATIONALS.parse(text)
        assert type(got) is Fraction and got == Fraction(text), text
    with pytest.raises(ValueError, match=r"^zero denominator: '1/0'$"):
        RATIONALS.parse("1/0")
    with pytest.raises(ValueError, match=r"^zero denominator: '-3/000'$"):
        RATIONALS.parse("-3/000")


def test_over_long_literals_name_their_length_and_the_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts numerals of any length")
    longest = "9" * limit
    assert RATIONALS.parse(longest) == int(longest)
    assert RATIONALS.parse(f"-{longest}/{longest}") == -1
    for field, text, digits in [(RATIONALS, "1" * (limit + 100), limit + 100),
                                (RATIONALS, f"-{longest}0", limit + 1),
                                (RATIONALS, f"2/{longest}00", limit + 2),
                                (prime_field(7), "0" * (limit + 1), limit + 1)]:
        with pytest.raises(ValueError) as info:
            field.parse(text)
        assert str(info.value) == (f"literal has {digits} digits, more than the limit "
                                   f"of {limit} digits")


def test_over_long_result_entries_are_refused_in_plain_words():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts numerals of any length")
    longest = 10**limit - 1
    assert RATIONALS.format(Fraction(-longest, longest - 1)) == f"-{longest}/{longest - 1}"
    for x in (Fraction(10**limit), Fraction(1, 10**limit)):
        with pytest.raises(ValueError) as info:
            RATIONALS.format(x)
        assert str(info.value) == f"a result entry exceeds the limit of {limit} digits"
