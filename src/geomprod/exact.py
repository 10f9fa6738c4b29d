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
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["ExactExponent", "as_rational"]

RationalLike = Fraction | int | str

# The one rational text form.  Fraction alone also reads exponent notation
# (so "1e999999999" builds a billion-digit integer), decimals, underscores,
# a leading "+", surrounding spaces and non-ASCII digits.
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction.

    A string is an optional "-", ASCII digits, then optionally "/" and ASCII
    digits, with no spaces; any other string raises :class:`ValueError`, as
    does a digit run longer than ``sys.get_int_max_str_digits()``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL_RE.fullmatch(value) is None:
            raise ValueError(f"cannot interpret {value!r} as a rational number (expected p or p/q)")
        try:
            return Fraction(value)
        except ValueError:  # a digit run longer than the interpreter converts
            found = max(map(len, value.lstrip("-").split("/")))
            raise ValueError(
                f"cannot interpret {found} digits as a rational number "
                f"(expected an integer of at most {sys.get_int_max_str_digits()} digits)"
            ) from None
    raise TypeError(f"cannot interpret {value!r} as a rational number")


@dataclass(frozen=True, slots=True)
class ExactExponent:
    """An exact exponent of the form ``rat + pi * π``.

    Immutable and hashable; supports addition, subtraction, negation and
    scaling by a rational (:meth:`scale`).  The canonical text form is
    ``"q"``, ``"p*pi"`` or ``"q+p*pi"`` with the sign of the pi term folded
    into the joining operator, e.g. ``"2-5*pi"``; :meth:`to_latex` writes
    ``"q"``, ``"p\\pi"`` or ``"q+p\\pi"`` with a unit coefficient of pi
    left out, e.g. ``"-\\pi"``.

    An exponent keeps two texts, its canonical text and its LaTeX text, in
    the private fields ``_text`` and ``_latex``.  Each is written on first
    use and read from then on, so exponents that factors share (the
    parser's, :data:`ONE`) are written once, not once per render.  A text
    longer than 640 characters is returned but not kept:
    ``sys.set_int_max_str_digits`` takes 0 or at least 640, so every kept
    text converts under any limit, and a longer one is written afresh each
    time, where a lowered limit still raises :class:`ValueError`.

    Beside the texts it keeps the integers of its components, ``(rat's
    numerator, rat's denominator, pi's numerator, pi's denominator)``, in
    the private field ``_ints``, built with the exponent.  The package's
    per-factor loops (the signature, the zero test of a product merged
    while scanning, the oracle's float parts) read them there, so a shared
    exponent's Fraction properties run once, not once per factor.  The
    texts and the integers take no part in ``repr``, comparison, hashing or
    pickling.  Two threads may both write a text first; each stores an
    equal value, so either write is harmless.
    """

    rat: Fraction = Fraction(0)
    pi: Fraction = Fraction(0)
    # written by _fill, not by the dataclass's __init__
    _text: str | None = field(init=False, repr=False, compare=False)
    _latex: str | None = field(init=False, repr=False, compare=False)
    _ints: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _fill(self, as_rational(self.rat), as_rational(self.pi))

    # The state is the two components alone: a pickle carries no text and
    # no integers, and a two-component state loads whichever version wrote it.
    def __getstate__(self) -> list[Fraction]:
        return [self.rat, self.pi]

    def __setstate__(self, state: list[Fraction]) -> None:
        rat, pi = state
        _fill(self, rat, pi)

    # A zero component is added without Fraction arithmetic: parsed
    # exponents are mostly purely rational or purely pi, and a Fraction sum
    # costs a gcd where returning the other operand costs none.
    def __add__(self, other: ExactExponent) -> ExactExponent:
        if not isinstance(other, ExactExponent):
            return NotImplemented
        a, b, p, q = self.rat, other.rat, self.pi, other.pi
        return _of(a + b if a and b else a or b, p + q if p and q else p or q)

    def __sub__(self, other: ExactExponent) -> ExactExponent:
        if not isinstance(other, ExactExponent):
            return NotImplemented
        return self + -other

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
        text = self._text
        if text is None:
            rat, pi = self.rat, self.pi
            if not pi:
                text = str(rat)
            elif not rat:
                text = f"{pi}*pi"
            elif pi < 0:
                text = f"{rat}-{-pi}*pi"
            else:
                text = f"{rat}+{pi}*pi"
            if len(text) <= _KEPT_MAX:
                _set_text(self, text)
        return text

    def to_latex(self) -> str:
        """LaTeX math for the exponent, e.g. ``"1/2"`` or ``"2-3\\pi"``."""
        text = self._latex
        if text is None:
            rat, pi = self.rat, self.pi
            if not pi:
                text = str(rat)
            else:
                mag = abs(pi)
                pi_part = "\\pi" if mag == 1 else f"{mag}\\pi"
                if not rat:
                    text = pi_part if pi > 0 else f"-{pi_part}"
                else:
                    text = f"{rat}{'+' if pi > 0 else '-'}{pi_part}"
            if len(text) <= _KEPT_MAX:
                _set_latex(self, text)
        return text

    def to_json_dict(self) -> dict[str, str]:
        return {"rat": str(self.rat), "pi": str(self.pi)}


# The longest text an exponent keeps: the smallest nonzero digit limit.
_KEPT_MAX = 640

_new = object.__new__
_set_rat = ExactExponent.__dict__["rat"].__set__
_set_pi = ExactExponent.__dict__["pi"].__set__
_set_text = ExactExponent.__dict__["_text"].__set__
_set_latex = ExactExponent.__dict__["_latex"].__set__
_set_ints = ExactExponent.__dict__["_ints"].__set__


def _fill(e: ExactExponent, rat: Fraction, pi: Fraction) -> None:
    """Write every slot of ``e``: its components, their integers and no texts yet."""
    _set_rat(e, rat)
    _set_pi(e, pi)
    _set_ints(e, rat.as_integer_ratio() + pi.as_integer_ratio())
    _set_text(e, None)
    _set_latex(e, None)


def _of(rat: Fraction, pi: Fraction) -> ExactExponent:
    """The package's constructor for components that are Fractions already.

    Skips the public constructor's coercion; arithmetic on Fractions always
    returns Fractions, so results built here keep the field types.
    """
    e = _new(ExactExponent)
    _fill(e, rat, pi)
    return e


ONE = ExactExponent(1)
PI = ExactExponent(0, 1)
