"""Exact arithmetic for the symbolic core.

Rational numbers are plain :class:`fractions.Fraction` values (always stored
reduced, positive denominator, zero as ``0/1``).  On top of them sits
:class:`ExactExponent`, a formal linear combination ``q + p*pi`` with rational
``q`` and ``p``.  This is the exponent domain of the whole engine: equality of
exponents is decidable componentwise because pi is irrational, so two
exponents are equal as real numbers exactly when both components match.

Coercion happens at the boundaries only: the public constructor turns ints
and strings into Fractions (and rejects floats), while arithmetic between
exponents, whose components are already Fractions, builds its results
without coercing them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["ExactExponent", "as_rational"]

RationalLike = Fraction | int | str


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


@dataclass(frozen=True, slots=True)
class ExactExponent:
    """An exact exponent of the form ``rat + pi * π``.

    Immutable and hashable; supports addition, subtraction, negation and
    scaling by a rational (:meth:`scale`).  The canonical text form is
    ``"q"``, ``"p*pi"`` or ``"q+p*pi"`` with the sign of the pi term folded
    into the joining operator, e.g. ``"2-5*pi"``.
    """

    rat: Fraction = Fraction(0)
    pi: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        _set_rat(self, as_rational(self.rat))
        _set_pi(self, as_rational(self.pi))

    # A zero component is added or subtracted without Fraction arithmetic:
    # parsed exponents are mostly purely rational or purely pi, and a
    # Fraction sum costs a gcd where returning the other operand costs none.
    def __add__(self, other: ExactExponent) -> ExactExponent:
        if not isinstance(other, ExactExponent):
            return NotImplemented
        a, b, p, q = self.rat, other.rat, self.pi, other.pi
        return _of(a + b if a and b else a or b, p + q if p and q else p or q)

    def __sub__(self, other: ExactExponent) -> ExactExponent:
        if not isinstance(other, ExactExponent):
            return NotImplemented
        a, b, p, q = self.rat, other.rat, self.pi, other.pi
        return _of((a - b if a else -b) if b else a, (p - q if p else -q) if q else p)

    def __neg__(self) -> ExactExponent:
        return _of(-self.rat, -self.pi)

    def scale(self, c: RationalLike) -> ExactExponent:
        """Multiply both components by the rational ``c``."""
        c = as_rational(c)
        return _of(self.rat * c, self.pi * c)

    def is_zero(self) -> bool:
        return not self.rat and not self.pi

    def is_rational(self) -> bool:
        """True when the pi component vanishes."""
        return not self.pi

    def to_real(self) -> float:
        """Evaluate ``rat + pi*π`` in double precision."""
        if self.pi == 0:
            return float(self.rat)
        return float(self.rat) + float(self.pi) * math.pi

    def __str__(self) -> str:
        if not self.pi:
            return str(self.rat)
        if not self.rat:
            return f"{self.pi}*pi"
        if self.pi < 0:
            return f"{self.rat}-{-self.pi}*pi"
        return f"{self.rat}+{self.pi}*pi"

    def to_json_dict(self) -> dict[str, str]:
        return {"rat": str(self.rat), "pi": str(self.pi)}


_new = object.__new__
_set_rat = ExactExponent.__dict__["rat"].__set__
_set_pi = ExactExponent.__dict__["pi"].__set__


def _of(rat: Fraction, pi: Fraction) -> ExactExponent:
    """The package's constructor for components that are Fractions already.

    Skips the public constructor's coercion; arithmetic on Fractions always
    returns Fractions, so results built here keep the field types.
    """
    e = _new(ExactExponent)
    _set_rat(e, rat)
    _set_pi(e, pi)
    return e


ONE = ExactExponent(1)
PI = ExactExponent(0, 1)
