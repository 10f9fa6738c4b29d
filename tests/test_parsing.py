"""Parser and renderer: grammar coverage, errors, round trips."""

import random
import sys
from fractions import Fraction

import pytest

from geomprod import (
    ExactExponent,
    Identity,
    InvalidIndexError,
    ParseError,
    normalize,
    parse_identity,
    parse_product,
    render,
    render_identity,
)

from .support import grammar_identity, grammar_product, random_product


class TestParse:
    def test_simple_identity(self):
        ident = parse_identity("a4*a3 = a6*a1")
        assert ident.lhs == normalize([(4, 1), (3, 1)])
        assert ident.rhs == normalize([(6, 1), (1, 1)])

    def test_fractional_exponents(self):
        ident = parse_identity("a5 * a2^(1/2) = a4^(3/2)")
        assert ident.lhs == normalize([(5, 1), (2, Fraction(1, 2))])
        assert ident.rhs == normalize([(4, Fraction(3, 2))])

    def test_pi_exponents(self):
        ident = parse_identity("a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)")
        assert ident.lhs == normalize([(3, ExactExponent(0, 6)), (6, 6)])
        assert ident.rhs == normalize(
            [(2, ExactExponent(2, 5)), (8, ExactExponent(4, 1))]
        )

    def test_exponent_spellings(self):
        for text in ["a2^(3*pi)", "a2^(3pi)", "a2^(3 pi)", "a2^( 3 * pi )"]:
            assert parse_product(text) == normalize([(2, ExactExponent(0, 3))])
        assert parse_product("a2^(pi)") == normalize([(2, ExactExponent(0, 1))])
        assert parse_product("a2^(-pi)") == normalize([(2, ExactExponent(0, -1))])
        assert parse_product("a2^(2-pi)") == normalize([(2, ExactExponent(2, -1))])

    def test_unparenthesized_rational_exponent(self):
        assert parse_product("a4^-1") == normalize([(4, -1)])
        assert parse_product("a4^3/2") == normalize([(4, Fraction(3, 2))])

    def test_whitespace_insignificant(self):
        assert parse_product(" a4 * a3 ") == parse_product("a4*a3")
        assert parse_product("a 4") == parse_product("a4")

    def test_normalizes_result(self):
        assert parse_product("a3*a3") == normalize([(3, 2)])
        assert parse_product("a4^0").is_empty()
        assert parse_product("a7*a7^-1").is_empty()

    def test_literal_one_is_the_empty_product(self):
        assert parse_product("1").is_empty()
        assert parse_product("1*a4") == normalize([(4, 1)])
        assert parse_product("0" * 5000 + "1").is_empty()

    def test_zero_index(self):
        with pytest.raises(InvalidIndexError):
            parse_product("a0")
        with pytest.raises(InvalidIndexError):
            parse_identity("a4 = a0*a4")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_product("a4^(1/0)")
        with pytest.raises(ParseError):
            parse_product("a4^1/0")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "a",
            "a4^",
            "a4^(",
            "a4^(1",
            "a4**a3",
            "4",
            "b3",
            "pi",
            "a4 a3",
            "a4*a3 =",
            "a4 = a3 = a2",
            "a4^(1+)",
            "a4^(2*3)",
            "a4^pi",
            "a3pi",
            "a4$",
            "a4^(1//2)",
        ],
    )
    def test_rejects_with_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_identity(text) if "=" in text else parse_product(text)

    def test_error_carries_position_expected_found(self):
        with pytest.raises(ParseError) as info:
            parse_product("a4^*")
        err = info.value
        assert err.position == 3
        assert "'*'" == err.found
        assert err.expected
        assert "position 3" in str(err)

    def test_position_within_input(self):
        for text in ["", "a4*", "a4^(pi", "x"]:
            with pytest.raises(ParseError) as info:
                parse_product(text)
            assert 0 <= info.value.position <= len(text)

    # Every field is pinned: the tokenizer accepts ASCII only, so Unicode
    # digits and spaces are "a token" errors at their own offset.
    @pytest.mark.parametrize(
        "text, parse, position, expected, found",
        [
            ("a4 # a3", parse_product, 3, "a token", "'#'"),
            ("b3 # a3", parse_product, 3, "a token", "'#'"),
            ("a\u0663", parse_product, 1, "a token", "'\u0663'"),
            ("a3\u00a0*a4", parse_product, 2, "a token", "'\\xa0'"),
            ("a3^(1/2) = a\u0664", parse_identity, 12, "a token", "'\u0664'"),
            ("a3^(1/0)", parse_product, 6, "a nonzero denominator", "'0'"),
            ("  a3 ^ ( 1 / 00 )", parse_product, 13, "a nonzero denominator", "'0'"),
            ("b3", parse_product, 0, "a term like 'a3' (or the literal '1')", "'b'"),
            ("a3^(2 pie)", parse_product, 6, "')'", "'pie'"),
            ("a3^(2*pe)", parse_product, 6, "'pi'", "'pe'"),
            ("a3^(2 * pe)", parse_product, 8, "'pi'", "'pe'"),
            ("a3*", parse_product, 3, "a term like 'a3' (or the literal '1')", "end of input"),
            ("a3 =", parse_product, 3, "end of input", "'='"),
            ("a3 =", parse_identity, 4, "a term like 'a3' (or the literal '1')", "end of input"),
            ("a3^(--1)", parse_product, 5, "an integer", "'-'"),
            ("a3^(x)", parse_product, 4, "'pi' or a rational", "'x'"),
            ("a*a3", parse_product, 1, "a term index", "'*'"),
            ("a3^1/", parse_product, 5, "a denominator", "end of input"),
            ("a3 a4 = a7", parse_identity, 3, "'='", "'a'"),
            ("a3^(1", parse_product, 5, "')'", "end of input"),
            ("a3^(2-)", parse_product, 6, "an integer", "')'"),
        ],
    )
    def test_error_fields_pinned(self, text, parse, position, expected, found):
        with pytest.raises(ParseError) as info:
            parse(text)
        err = info.value
        assert (err.position, err.expected, err.found) == (position, expected, found)

    # A digit run longer than int() converts is a ParseError at its own
    # offset; found gives its length, not the run.
    @pytest.mark.parametrize(
        "text, position",
        [("a" + "9" * 5000, 1), ("a3^(1/" + "7" * 5000 + ")", 6), ("a3^(" + "0" * 5000 + ")", 4)],
        ids=["index", "denominator", "numerator"],
    )
    def test_overlong_integer(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_product(text)
        err = info.value
        limit = sys.get_int_max_str_digits()
        expected = f"an integer of at most {limit} digits"
        assert (err.position, err.expected, err.found) == (position, expected, "5000 digits")

    def test_overlong_digit_run_as_a_term(self):
        with pytest.raises(ParseError) as info:
            parse_product("9" * 5000)
        err = info.value
        assert (err.position, err.expected) == (0, "a term like 'a3' (or the literal '1')")
        assert err.found == "5000 digits"

    def test_run_within_the_limit_is_quoted(self):
        for char in "9b":
            run = char * sys.get_int_max_str_digits()
            with pytest.raises(ParseError) as info:
                parse_product("a3 " + run)
            assert (info.value.position, info.value.found) == (3, f"'{run}'")

    def test_index_error_names_its_position(self):
        with pytest.raises(InvalidIndexError, match=r"got 0 \(at position 6\)"):
            parse_identity("a4 = a0*a4")
        with pytest.raises(InvalidIndexError, match=r"got 0 \(at position 9\)"):
            parse_product("a3 * \t a 00")

    def test_vertical_tab_and_form_feed_are_whitespace(self):
        assert parse_product("a3\v*\fa4") == normalize([(3, 1), (4, 1)])
        assert parse_identity("a3\v*\fa4\t=\ra4\n*a3") == Identity(
            normalize([(3, 1), (4, 1)]), normalize([(3, 1), (4, 1)])
        )


class TestRender:
    def test_canonical_order(self):
        assert render(normalize([(4, 1), (3, 1)])) == "a3*a4"

    def test_exponent_forms(self):
        assert render(normalize([(4, Fraction(3, 2))])) == "a4^(3/2)"
        assert render(normalize([(3, ExactExponent(0, 6)), (6, 6)])) == "a3^(6*pi)*a6^(6)"

    def test_empty(self):
        assert render(normalize([])) == "1"
        assert render(normalize([]), "latex") == "1"

    def test_latex(self):
        assert render(normalize([(4, 1), (3, 1)]), "latex") == "a_{3} \\cdot a_{4}"
        assert render(normalize([(4, Fraction(3, 2))]), "latex") == "a_{4}^{3/2}"
        assert (
            render(normalize([(2, ExactExponent(2, 5))]), "latex") == "a_{2}^{2+5\\pi}"
        )
        assert render(normalize([(2, ExactExponent(0, -1))]), "latex") == "a_{2}^{-\\pi}"

    def test_identity_rendering(self):
        ident = parse_identity("a4*a3 = a6*a1")
        assert render_identity(ident) == "a3*a4 = a1*a6"

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render(normalize([]), "html")


class TestRoundTrip:
    def test_seeded_products(self):
        rng = random.Random(404)
        for _ in range(1000):
            p = random_product(rng, max_factors=5, max_index=20)
            assert parse_product(render(p)) == p

    def test_identity_round_trip(self):
        rng = random.Random(405)
        for _ in range(200):
            ident = Identity(random_product(rng), random_product(rng))
            back = parse_identity(render_identity(ident))
            assert back == ident


class TestGrammarTotality:
    def test_generated_strings_parse(self):
        rng = random.Random(808)
        for _ in range(2000):
            parse_product(grammar_product(rng))
        for _ in range(1000):
            parse_identity(grammar_identity(rng))


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = random.Random(909)
        for _ in range(5000):
            text = rng.randbytes(rng.randint(0, 30)).decode("latin-1")
            try:
                parse_product(text)
            except (ParseError, InvalidIndexError):
                pass

    def test_token_soup_never_crashes(self):
        rng = random.Random(910)
        pieces = ["a", "pi", "1", "23", "^", "*", "(", ")", "+", "-", "/", "=", " "]
        for _ in range(5000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 16)))
            try:
                parse_identity(text)
            except (ParseError, InvalidIndexError):
                pass
