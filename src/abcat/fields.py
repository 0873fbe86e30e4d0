"""Exact scalars over the rationals and over prime fields.

Rational scalars are stdlib :class:`fractions.Fraction` values, which are
always stored gcd-reduced with a positive denominator.  Prime-field scalars
are plain ``int`` residues in the canonical range ``[0, p)``; the field, not
the scalar, knows ``p``, so the matrix layer reduces mod ``p`` after each
operation.  :class:`GFElement` is a standalone residue type that carries its
modulus and does that reduction itself; no matrix stores one.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
_RESIDUE_RE = re.compile(r"[0-9]+\Z")

_MAX_PRIME = 2**31

# Fractions are immutable, so every Q matrix may share these two.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; the witness set covers all n < 3.3e24.
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GFElement:
    """A standalone residue mod ``p``, kept in ``[0, p)``; no ``Matrix`` holds one."""

    value: int
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % self.p)

    def _same(self, other: GFElement) -> None:
        if not isinstance(other, GFElement) or other.p != self.p:
            raise ValueError(f"mixed scalars: {self!r} and {other!r}")

    def __add__(self, other: GFElement) -> GFElement:
        self._same(other)
        return GFElement(self.value + other.value, self.p)

    def __sub__(self, other: GFElement) -> GFElement:
        self._same(other)
        return GFElement(self.value - other.value, self.p)

    def __mul__(self, other: GFElement) -> GFElement:
        self._same(other)
        return GFElement(self.value * other.value, self.p)

    def __truediv__(self, other: GFElement) -> GFElement:
        self._same(other)
        return self * other.inverse()

    def __neg__(self) -> GFElement:
        return GFElement(-self.value, self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def inverse(self) -> GFElement:
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return GFElement(pow(self.value, -1, self.p), self.p)

    def __str__(self) -> str:
        return str(self.value)


Scalar = Union[Fraction, int]


@dataclass(frozen=True)
class ScalarField:
    """The rationals when ``p`` is None, otherwise the prime field mod ``p``.

    The field object creates, parses, and formats scalars.  Rationals do
    their own arithmetic; prime-field scalars are ``int`` residues in
    ``[0, p)``, which callers reduce mod ``p`` after arithmetic.
    """

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if not isinstance(self.p, int) or not 2 <= self.p < _MAX_PRIME:
                raise ValueError(f"modulus must be an integer in [2, 2**31): {self.p!r}")
            if not _is_prime(self.p):
                raise ValueError(f"modulus must be prime: {self.p}")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def zero(self) -> Scalar:
        return _Q_ZERO if self.p is None else 0

    def one(self) -> Scalar:
        return _Q_ONE if self.p is None else 1

    def from_int(self, n: int) -> Scalar:
        return Fraction(n) if self.p is None else n % self.p

    def contains(self, x: object) -> bool:
        if self.p is None:
            return isinstance(x, Fraction)
        return type(x) is int and 0 <= x < self.p

    def parse(self, text: str) -> Scalar:
        """Parse one scalar literal.

        Rationals accept an optional sign, ASCII digits, and an optional
        ``/digits`` denominator; the result is reduced.  Prime fields accept
        canonical residues ``0`` through ``p - 1`` only.  A numeral longer
        than ``sys.get_int_max_str_digits()`` is refused.
        """
        if self.p is None:
            match = _RATIONAL_RE.fullmatch(text)
            if not match:
                raise ValueError(f"not a rational literal: {text!r}")
            num, den = match.groups()
            try:
                if den is None:
                    return Fraction(int(num))
                num, den = int(num), int(den)
            except ValueError:
                raise ValueError(too_long(text)) from None
            if not den:
                raise ValueError(f"zero denominator: {text!r}")
            return Fraction(num, den)
        if not _RESIDUE_RE.fullmatch(text):
            raise ValueError(f"not a residue literal: {text!r}")
        try:
            value = int(text)
        except ValueError:
            raise ValueError(too_long(text)) from None
        if value >= self.p:
            raise ValueError(f"residue {value} out of range for GF({self.p})")
        return value

    def format(self, x: Scalar) -> str:
        """The literal of ``x``.  An entry with a numeral over
        ``sys.get_int_max_str_digits()`` digits is refused."""
        if not self.contains(x):
            raise ValueError(f"scalar {x!r} does not belong to {self}")
        try:
            return str(x)
        except ValueError:
            raise ValueError(f"a result entry exceeds the limit of "
                             f"{sys.get_int_max_str_digits()} digits") from None

    def __str__(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"


def too_long(text: str) -> str:
    """The error for a numeral that ``int`` refuses after its pattern
    matched: one over the interpreter's digit limit."""
    digits = max(len(part.lstrip("+-")) for part in text.split("/"))
    return (f"literal has {digits} digits, more than the limit of "
            f"{sys.get_int_max_str_digits()} digits")


RATIONALS = ScalarField()


def prime_field(p: int) -> ScalarField:
    """The field of integers mod ``p`` for a prime ``2 <= p < 2**31``."""
    return ScalarField(p)
