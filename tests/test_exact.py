"""Exact rational and pi-extended exponent arithmetic."""

import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomprod import ExactExponent, as_rational, normalize, parse_product, signature

from .support import TWO_FIELD_PICKLE

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=32)
exponents = st.builds(ExactExponent, rationals, rationals)

_E = ExactExponent(Fraction(1, 2), -3)
# every way an exponent comes to be, each building a fresh one
_BUILDS = {
    "int": lambda: ExactExponent(3),
    "str": lambda: ExactExponent("-3/6", "2"),
    "fraction": lambda: ExactExponent(Fraction(1, 2), Fraction(-3)),
    "add": lambda: _E + ExactExponent(1, Fraction(1, 3)),
    "sub": lambda: _E - ExactExponent(Fraction(1, 2)),
    "neg": lambda: -_E,
    "scale": lambda: _E.scale("2/3"),
    "signature-total": lambda: signature(normalize([(3, _E), (5, 1)])).total,
    "signature-weighted-sum": lambda: signature(normalize([(3, _E), (5, 1)])).weighted_sum,
    "scanner": lambda: parse_product("a3^(5/7-2*pi)").factors[0].exponent,
    "replace": lambda: dataclasses.replace(_E, rat=Fraction(5, 4)),
    "pickle": lambda: pickle.loads(pickle.dumps(_E)),
    "two-field-pickle": lambda: pickle.loads(TWO_FIELD_PICKLE),
    "copy": lambda: copy.copy(_E),
    "deepcopy": lambda: copy.deepcopy(_E),
}


class TestRational:
    def test_reduced_on_construction(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(2, 4).numerator == 1
        assert Fraction(2, 4).denominator == 2

    def test_denominator_always_positive(self):
        q = Fraction(1, -2)
        assert q.numerator == -1
        assert q.denominator == 2

    def test_zero_is_unique(self):
        assert Fraction(0, 7) == Fraction(0)
        assert Fraction(0, 7).denominator == 1

    def test_arithmetic(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert Fraction(3, 2) - 1 == Fraction(1, 2)
        assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)
        assert Fraction(1, 2) / Fraction(1, 4) == 2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_text_form(self):
        assert str(Fraction(1, 2)) == "1/2"
        assert str(Fraction(5)) == "5"
        assert str(Fraction(-1, 2)) == "-1/2"
        assert Fraction("3/2") == Fraction(3, 2)

    @given(rationals, rationals, rationals)
    def test_add_mul_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a

    def test_as_rational_coercions(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational("7/3") == Fraction(7, 3)
        assert as_rational("-0012/8") == Fraction(-3, 2)
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(TypeError):
            as_rational(1.5)

    @pytest.mark.parametrize("text", ["9" * 5000, "-1/" + "3" * 5000])
    def test_as_rational_names_the_digit_limit(self, text):
        # not the interpreter's advice to raise the limit
        with pytest.raises(ValueError) as err:
            as_rational(text)
        assert str(err.value) == (
            "cannot interpret 5000 digits as a rational number "
            f"(expected an integer of at most {sys.get_int_max_str_digits()} digits)"
        )
        with pytest.raises(ValueError, match="an integer of at most"):
            ExactExponent(text)

    @pytest.mark.parametrize("text", ["1e3", "0.5", " 3/2", "3/2 ", "+3", "1_000", "\u0663", "1e5000000"])
    def test_as_rational_reads_only_p_or_p_over_q(self, text):
        # Fraction alone reads each of these, "1e5000000" in seconds
        with pytest.raises(ValueError, match="as a rational number") as err:
            as_rational(text)
        assert repr(text) in str(err.value)
        with pytest.raises(ValueError):
            ExactExponent(text)


class TestExactExponent:
    def test_componentwise_equality(self):
        assert ExactExponent(1, 2) == ExactExponent(Fraction(1), Fraction(2))
        assert ExactExponent(1, 2) != ExactExponent(2, 1)
        assert ExactExponent(0, 0).is_zero()

    def test_pi_identity_sums(self):
        six_pi = ExactExponent(0, 6)
        six = ExactExponent(6, 0)
        assert six_pi + six == ExactExponent(6, 6)
        assert ExactExponent(2, 5) + ExactExponent(4, 1) == ExactExponent(6, 6)

    def test_scale(self):
        assert ExactExponent(1, 0).scale(0) == ExactExponent(0, 0)
        assert ExactExponent(1, 2).scale(Fraction(3, 2)) == ExactExponent(
            Fraction(3, 2), 3
        )

    def test_to_real(self):
        assert ExactExponent(0, 0).to_real() == 0.0
        assert ExactExponent(6, 0).to_real() == 6.0
        assert ExactExponent(0, 1).to_real() == pytest.approx(math.pi, rel=0, abs=0)

    def test_text_forms(self):
        assert str(ExactExponent(0, 0)) == "0"
        assert str(ExactExponent(6, 0)) == "6"
        assert str(ExactExponent(0, 6)) == "6*pi"
        assert str(ExactExponent(2, 5)) == "2+5*pi"
        assert str(ExactExponent(2, -5)) == "2-5*pi"
        assert str(ExactExponent(0, 1)) == "1*pi"
        assert str(ExactExponent(Fraction(-1, 2), 0)) == "-1/2"
        assert str(ExactExponent(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*pi"

    def test_json_round_trip(self):
        e = ExactExponent(Fraction(3, 2), Fraction(-7, 3))
        assert e.to_json_dict() == {"rat": "3/2", "pi": "-7/3"}

    # A component that is zero in either operand is added or subtracted
    # without Fraction arithmetic; each sum and difference must still be the
    # componentwise one, with Fraction fields.
    @pytest.mark.parametrize(
        "a, b",
        [
            (ExactExponent(0, 0), ExactExponent(Fraction(3, 4), Fraction(-5, 2))),
            (ExactExponent(Fraction(3, 4), 0), ExactExponent(0, Fraction(-5, 2))),
            (ExactExponent(Fraction(3, 4), 0), ExactExponent(Fraction(-1, 4), 0)),
            (ExactExponent(0, Fraction(-5, 2)), ExactExponent(0, Fraction(5, 2))),
            (ExactExponent(Fraction(3, 4), Fraction(-5, 2)), ExactExponent(2, 0)),
            (ExactExponent(Fraction(3, 4), Fraction(-5, 2)), ExactExponent(0, -1)),
            (ExactExponent(0, 0), ExactExponent(0, 0)),
        ],
    )
    def test_zero_components(self, a, b):
        for x, y in ((a, b), (b, a)):
            for got, rat, pi in ((x + y, x.rat + y.rat, x.pi + y.pi), (x - y, x.rat - y.rat, x.pi - y.pi)):
                assert (got.rat, got.pi) == (rat, pi)
                assert type(got.rat) is Fraction and type(got.pi) is Fraction
                assert got == ExactExponent(rat, pi) and hash(got) == hash(ExactExponent(rat, pi))

    @given(exponents, exponents)
    def test_abelian_group(self, a, b):
        assert a + b == b + a
        assert a + b - b == a
        assert a + ExactExponent(0, 0) == a
        assert a + (-a) == ExactExponent(0, 0)

    @given(exponents, exponents, exponents)
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(exponents, exponents)
    def test_to_real_additive(self, a, b):
        lhs = (a + b).to_real()
        rhs = a.to_real() + b.to_real()
        scale = max(1.0, abs(a.to_real()), abs(b.to_real()))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @given(exponents, rationals)
    def test_scale_distributes_over_to_real(self, a, c):
        scale = max(1.0, abs(a.to_real()) * max(1.0, abs(float(c))))
        assert abs(a.scale(c).to_real() - a.to_real() * float(c)) <= 1e-12 * scale


class TestExactExponentContract:
    """What callers rely on: coercion at the constructor, Fraction fields."""

    def test_constructor_coerces_int_and_str(self):
        e = ExactExponent(1, "1/2")
        assert e == ExactExponent(Fraction(1), Fraction(1, 2))
        assert type(e.rat) is Fraction and type(e.pi) is Fraction
        assert ExactExponent("-3/6").rat == Fraction(-1, 2)

    def test_constructor_rejects_float(self):
        with pytest.raises(TypeError):
            ExactExponent(1.5)
        with pytest.raises(TypeError):
            ExactExponent(0, 0.5)

    def test_immutable(self):
        e = ExactExponent(1, 2)
        with pytest.raises(AttributeError):
            e.rat = Fraction(3)

    def test_pickle_round_trip(self):
        e = ExactExponent(Fraction(3, 2), Fraction(-7, 3))
        back = pickle.loads(pickle.dumps(e))
        assert back == e
        assert hash(back) == hash(e)

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS)
    def test_every_construction_path_keeps_its_integers(self, build):
        e = build()
        rat, pi = e.rat, e.pi
        assert e._ints == (rat.numerator, rat.denominator, pi.numerator, pi.denominator)

    @given(rationals, rationals)
    def test_equal_values_hash_equal(self, q, p):
        a = ExactExponent(q, p)
        b = ExactExponent(str(q), str(p))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, a + ExactExponent()}) == 1

    @given(exponents, exponents, rationals)
    def test_results_have_fraction_fields(self, a, b, c):
        results = [a + b, a - b, -a, a.scale(c), a.scale(int(c))]
        sig = signature(normalize([(3, a), (5, b)]))
        results += [sig.total, sig.weighted_sum]
        for x in results:
            assert type(x.rat) is Fraction
            assert type(x.pi) is Fraction
