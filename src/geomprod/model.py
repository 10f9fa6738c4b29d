"""Core data model: products of geometric-sequence terms and their signature.

A term of a geometric sequence with first term ``a1`` and common ratio ``r``
is ``a_b = a1 * r**(b-1)``.  A product of such terms, each raised to an exact
exponent, is therefore determined by just two numbers:

    total        T = sum of the exponents
    weighted_sum S = sum of exponent * index

because the product collapses to ``a1**T * r**(S-T)``.  The pair ``(T, S)``
is the :class:`Signature`, and two normalized products are equal as functions
of every admissible ``(a1, r)`` exactly when their signatures match.  That
signature comparison is the single equivalence decision the rest of the
package builds on.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exact import ExactExponent, RationalLike, _of, as_rational

__all__ = [
    "InvalidIndexError",
    "IndexRangeError",
    "SequenceSpec",
    "Factor",
    "StringProduct",
    "Signature",
    "normalize",
    "signature",
    "equivalent",
    "product",
    "power",
    "evaluate",
]

ExponentLike = ExactExponent | Fraction | int | str


class InvalidIndexError(ValueError):
    """A term index below 1 was supplied."""


class IndexRangeError(ValueError):
    """A term index exceeds the sequence length available for evaluation."""


def _as_int(name: str, value: object) -> int:
    """``value`` as an int, or a TypeError naming the argument ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _as_real(name: str, value: object) -> float:
    """``value`` as a float, or a TypeError naming the argument ``name``.

    A real number beyond the float range raises a ValueError naming it.
    """
    if type(value) is float:  # the common case skips the slower ABC check
        return value
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float range") from None


def _as_exponent(value: ExponentLike) -> ExactExponent:
    if isinstance(value, ExactExponent):
        return value
    return ExactExponent(as_rational(value))


@dataclass(frozen=True)
class SequenceSpec:
    """Concrete geometric sequence used for numeric evaluation.

    ``a1`` and ``r`` are real numbers stored as ``float``, and ``l``, the
    largest usable index, is an integer stored as ``int`` (:class:`TypeError`
    otherwise, naming the field).  Evaluation additionally needs
    ``a1 > 0`` and ``r > 0`` so that fractional exponents stay real;
    :meth:`admissible` also excludes ``r = 1``, the degenerate ratio at which
    all equal-length products coincide and equivalence testing loses its
    converse direction.
    """

    a1: float
    r: float
    l: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a1", _as_real("a1", self.a1))
        object.__setattr__(self, "r", _as_real("r", self.r))
        object.__setattr__(self, "l", _as_int("l", self.l))
        if self.l < 1:
            raise ValueError(f"sequence length must be >= 1, got {self.l}")

    def admissible(self) -> bool:
        return self.a1 > 0 and self.r > 0 and self.r != 1


@dataclass(frozen=True, slots=True)
class Factor:
    """One term ``a_index`` raised to a nonzero exact exponent.

    The index is coerced as :func:`normalize` coerces it (a bool is stored as
    ``int``, a non-integer raises :class:`TypeError`), and so is the exponent
    (an int, string or Fraction becomes an :class:`ExactExponent`).
    """

    index: int
    exponent: ExactExponent

    def __post_init__(self) -> None:
        index = _as_int("index", self.index)
        if index < 1:
            raise InvalidIndexError(f"term index must be >= 1, got {index}")
        exponent = _as_exponent(self.exponent)
        if exponent.is_zero():
            raise ValueError("factors with zero exponent are not representable")
        _set_index(self, index)
        _set_exponent(self, exponent)


@dataclass(frozen=True, slots=True)
class StringProduct:
    """Normalized product of sequence terms.

    Factors, given as any iterable, are stored as a tuple sorted by strictly
    ascending index with no zero exponents; the empty tuple is the product 1.
    Use :func:`normalize` to build one from arbitrary (index, exponent) pairs.
    """

    factors: tuple[Factor, ...] = ()

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        for f in factors:
            if not isinstance(f, Factor):
                raise TypeError(f"factors must be Factor instances, got {f!r}")
        indices = [f.index for f in factors]
        if any(b >= c for b, c in zip(indices, indices[1:])):
            raise ValueError("factors must be sorted by strictly ascending index")
        _set_factors(self, factors)

    def is_empty(self) -> bool:
        return not self.factors

    def max_index(self) -> int:
        """Largest index present, or 0 for the empty product."""
        return self.factors[-1].index if self.factors else 0

    def to_json_dict(self) -> dict:
        return {
            "factors": [
                {"index": f.index, "exp": f.exponent.to_json_dict()}
                for f in self.factors
            ]
        }


_ZERO = Fraction(0)


@dataclass(frozen=True)
class Signature:
    """The exact invariant (total exponent, index-weighted exponent sum)."""

    total: ExactExponent
    weighted_sum: ExactExponent

    def __add__(self, other: Signature) -> Signature:
        if not isinstance(other, Signature):
            return NotImplemented
        return Signature(self.total + other.total, self.weighted_sum + other.weighted_sum)

    def to_json_dict(self) -> dict[str, str]:
        return {"total": str(self.total), "weighted_sum": str(self.weighted_sum)}


def normalize(raw_factors: Iterable[tuple[int, ExponentLike]]) -> StringProduct:
    """Build a normalized product from (index, exponent) pairs.

    Repeated indices are merged by adding exponents, zero exponents are
    dropped, and factors come out sorted by index.  Raises
    :class:`InvalidIndexError` for indices below 1 and :class:`TypeError`
    for an index that is not an integer; a bool index is stored as ``int``.
    """
    merged: dict[int, ExactExponent] = {}
    for index, exponent in raw_factors:
        if type(index) is not int:
            index = _as_int("index", index)
        if index < 1:
            raise InvalidIndexError(f"term index must be >= 1, got {index}")
        exp = _as_exponent(exponent)
        if index in merged:
            merged[index] = merged[index] + exp
        else:
            merged[index] = exp
    return _merged(merged)


_new = object.__new__
_set_index = Factor.__dict__["index"].__set__
_set_exponent = Factor.__dict__["exponent"].__set__
_set_factors = StringProduct.__dict__["factors"].__set__


def _merged(terms: dict[int, ExactExponent]) -> StringProduct:
    """The product of merged ``{index: exponent}`` terms: zero sums dropped, in index order.

    The package's one builder of products from terms.  Every index is an int
    of at least 1 and every exponent an ExactExponent, so the factors and the
    product skip the public constructors' checks, which would pass.
    """
    factors = []
    for index, e in sorted(terms.items()):
        ints = e._ints
        if ints[0] or ints[2]:
            f = _new(Factor)
            _set_index(f, index)
            _set_exponent(f, e)
            factors.append(f)
    p = _new(StringProduct)
    _set_factors(p, tuple(factors))
    return p


def signature(p: StringProduct) -> Signature:
    """Exact signature of ``p``; (0, 0) for the empty product.

    One pass over the factors sums integer numerators per denominator for
    each of the four components (T and S, rational and pi parts); each
    component becomes a single Fraction at the end.  The integers are those
    each exponent is built with (see :class:`~geomprod.exact.ExactExponent`),
    so the Fraction properties run once per distinct exponent object, not
    once per factor.
    """
    t_rat: dict[int, int] = {}
    s_rat: dict[int, int] = {}
    t_pi: dict[int, int] = {}
    s_pi: dict[int, int] = {}
    for f in p.factors:
        num, den, pi_num, pi_den = f.exponent._ints
        if num:
            t_rat[den] = t_rat.get(den, 0) + num
            s_rat[den] = s_rat.get(den, 0) + num * f.index
        if pi_num:
            t_pi[pi_den] = t_pi.get(pi_den, 0) + pi_num
            s_pi[pi_den] = s_pi.get(pi_den, 0) + pi_num * f.index
    return Signature(
        _of(_sum_over_denominators(t_rat), _sum_over_denominators(t_pi)),
        _of(_sum_over_denominators(s_rat), _sum_over_denominators(s_pi)),
    )


def _sum_over_denominators(numerators: dict[int, int]) -> Fraction:
    """The exact sum of ``num / den`` over the ``{den: num}`` entries."""
    if not numerators:
        return _ZERO
    den = math.lcm(*numerators)
    return Fraction(sum(num * (den // d) for d, num in numerators.items()), den)


def equivalent(p: StringProduct, q: StringProduct) -> bool:
    """True iff ``p`` and ``q`` have equal value for every admissible sequence.

    Decided exactly by componentwise signature equality: same total exponent
    and same weighted index sum.
    """
    return signature(p) == signature(q)


def product(p: StringProduct, q: StringProduct) -> StringProduct:
    """Merge two products and renormalize; signatures add."""
    pairs = [(f.index, f.exponent) for f in p.factors]
    pairs += [(f.index, f.exponent) for f in q.factors]
    return normalize(pairs)


def power(p: StringProduct, c: RationalLike) -> StringProduct:
    """Raise ``p`` to the rational power ``c`` by scaling every exponent."""
    c = as_rational(c)
    return normalize((f.index, f.exponent.scale(c)) for f in p.factors)


_FLOAT_MIN = sys.float_info.min  # the smallest normal float
_FLOAT_MAX = sys.float_info.max


def evaluate(p: StringProduct, seq: SequenceSpec) -> float:
    """Evaluate ``p`` on a concrete sequence via ``a1**T * r**(S-T)``.

    Requires every factor index <= ``seq.l`` (:class:`IndexRangeError`
    otherwise) and positive ``a1``, ``r``.  When either power is not a
    normal float (it overflows, or underflows to zero or to a subnormal that
    has lost precision) or their product is not finite and positive, the
    value is taken as ``exp(T*ln a1 + (S-T)*ln r)`` instead; a result that
    is still not finite and positive raises :class:`OverflowError`.
    """
    for f in p.factors:
        if f.index > seq.l:
            raise IndexRangeError(
                f"index {f.index} exceeds sequence length {seq.l}"
            )
    if not (seq.a1 > 0 and seq.r > 0):
        raise ValueError("evaluation requires a1 > 0 and r > 0")
    sig = signature(p)
    total = sig.total.to_real()
    ratio_power = (sig.weighted_sum - sig.total).to_real()
    try:
        base_power = seq.a1 ** total
        ratio_factor = seq.r ** ratio_power
    except OverflowError:
        base_power = ratio_factor = math.inf
    if (
        _FLOAT_MIN <= base_power <= _FLOAT_MAX
        and _FLOAT_MIN <= ratio_factor <= _FLOAT_MAX
    ):
        value = base_power * ratio_factor
        if 0.0 < value < math.inf:
            return value
    try:
        value = math.exp(total * math.log(seq.a1) + ratio_power * math.log(seq.r))
    except OverflowError:
        raise OverflowError("product overflowed during evaluation") from None
    if not 0.0 < value < math.inf:
        raise OverflowError("product evaluation left the finite positive range")
    return value
