"""Parser and renderer: grammar coverage, errors, round trips."""

import copy
import dataclasses
import pickle
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from geomprod import (
    ExactExponent,
    Factor,
    Identity,
    InvalidIndexError,
    ParseError,
    StringProduct,
    normalize,
    parse_identity,
    parse_product,
    render,
    render_identity,
    signature,
)
from geomprod import parsing

from .support import TWO_FIELD_PICKLE, grammar_identity, grammar_product, random_product


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

    # exponent sums that repeat or cancel a component
    @pytest.mark.parametrize(
        "text, pairs",
        [
            ("a2^(1+2)", [(2, 3)]),
            ("a2^(pi+2pi)", [(2, ExactExponent(0, 3))]),
            ("a2^(1/2-1/2)", []),
            ("a2^(-1/2+1/2pi-pi)", [(2, ExactExponent(Fraction(-1, 2), Fraction(-1, 2)))]),
            ("a2^(-pi - -pi)", []),
        ],
    )
    def test_exponent_sums(self, text, pairs):
        p = parse_product(text)
        assert p == normalize(pairs)
        for f in p.factors:
            assert type(f.exponent.rat) is Fraction and type(f.exponent.pi) is Fraction

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

    def test_matches_a_writer_of_the_grammar(self):
        for p in [
            normalize([]),
            normalize([(1, 1), (7, 1), (300, 1)]),
            normalize([(2, -1), (3, Fraction(-1, 2)), (4, -3), (5, Fraction(-7, 3))]),
            normalize([
                (2, ExactExponent(0, 1)), (3, ExactExponent(0, -1)), (4, ExactExponent(0, 6)),
                (5, ExactExponent(Fraction(1, 2), Fraction(-3, 2))), (6, ExactExponent(-1, 1)),
            ]),
            parse_product("a1*a2^(pi)*a3^-1/2*a4^(1/2-pi)*a5*a6^(pi)*a7^-1/2"),
        ]:
            for style in ("text", "latex"):
                assert render(p, style) == _rendered(p, style)

    def test_index_past_the_digit_limit(self):
        index = 10**700
        with _int_digit_limit(640):
            with pytest.raises(ValueError) as formatted:  # the writer before f-strings
                "a{}".format(index)
            for exponent in (1, Fraction(1, 2), ExactExponent(0, 1)):
                for style in ("text", "latex"):
                    with pytest.raises(ValueError) as info:
                        render(normalize([(2, 1), (index, exponent)]), style)
                    assert str(info.value) == str(formatted.value)


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


def _parser_only(parse, text: str):
    """What ``parse`` returns when _Parser alone reads the text."""
    parser = parsing._Parser(text)
    lhs = parser.product()
    if parse is parse_product:
        parser.end()
        return normalize(lhs)
    parser.expect("=")
    rhs = parser.product()
    parser.end()
    return Identity(normalize(lhs), normalize(rhs))


def _outcome(read, text: str):
    try:
        return "ok", repr(read(text))
    except ParseError as exc:
        return "ParseError", exc.position, exc.expected, exc.found
    except InvalidIndexError as exc:
        return "InvalidIndexError", exc.args


def _edit(rng: random.Random, text: str) -> str:
    """``text`` with 1 to 3 characters deleted, inserted or replaced."""
    chars = list(text)
    alphabet = "a0123456789 ^*()+-/=pi\t#\u0663"
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 1 / 3 and at < len(chars):
            del chars[at]
        elif roll < 2 / 3 or at == len(chars):
            chars.insert(at, rng.choice(alphabet))
        else:
            chars[at] = rng.choice(alphabet)
    return "".join(chars)


class TestTermScanner:
    """The term scanner in front of _Parser changes no result and no error."""

    def test_equals_parser_alone(self, monkeypatch):
        monkeypatch.setattr(parsing, "_EXPONENTS", {})
        monkeypatch.setattr(parsing, "_SUMS", {})
        rng = random.Random(1111)
        texts = [grammar_identity(rng) for _ in range(600)]
        texts += [grammar_product(rng) for _ in range(600)]
        texts += [_edit(rng, text) for text in texts]
        texts += [render(random_product(rng)) for _ in range(300)]
        texts += [render_identity(Identity(random_product(rng), random_product(rng))) for _ in range(300)]
        # the rows of test_error_fields_pinned, read from its parametrize mark
        (mark,) = TestParseErrors.test_error_fields_pinned.pytestmark
        texts += [row[0] for row in mark.args[1]]
        # the first pass starts from empty exponent and sum tables, the
        # second from the tables the first one filled
        for table in ("cold", "warm"):
            scanned = 0
            for text in texts:
                for parse, sides in ((parse_product, 1), (parse_identity, 2)):
                    scanned += len(parsing._scan(text) or ()) == sides
                    expected = _outcome(lambda t: _parser_only(parse, t), text)
                    assert _outcome(parse, text) == expected, (table, text)
            # the comparison exercises the scanner, not only the fallback
            assert scanned > len(texts) // 3
            assert len(parsing._EXPONENTS) > 500

    def test_merges_as_parser_and_normalize_do(self, monkeypatch):
        # indices 1-3 make most terms repeat one, so most sums are merged,
        # some cancel and some cancel and then reappear
        monkeypatch.setattr(parsing, "_EXPONENTS", {})
        monkeypatch.setattr(parsing, "_SUMS", {})
        rng = random.Random(1115)
        cases = [
            ([[(3, "2"), (3, "-2"), (3, None)]], "a3^2*a3^-2*a3"),
            ([[(1, "(pi)"), (1, "(-pi)")], [(2, "(1/2)"), (2, "-1/2"), (2, "(1/2)")]],
             " a1 ^ (pi) *a1^(-pi) = a2^(1/2)*a2^-1/2 * a2^(1/2)\t"),
        ]
        for _ in range(1500):
            sides = [_merging_terms(rng) for _ in range(rng.randint(1, 2))]
            text = rng.choice(["=", " = "]).join(
                rng.choice(["*", " * "]).join(_term_text(rng, *term) for term in terms)
                for terms in sides
            )
            cases.append((sides, text))
        # the first pass starts from empty tables, the second from the
        # tables the first one filled
        for table in ("cold", "warm"):
            merged = unmerged = 0
            for sides, text in cases:
                parse = parse_product if len(sides) == 1 else parse_identity
                scanned = parsing._scan(text)
                assert scanned is not None and len(scanned) == len(sides), (table, text)
                got, expected = parse(text), _parser_only(parse, text)
                assert got == expected and repr(got) == repr(expected), (table, text)
                for terms, p in zip(sides, [got] if len(sides) == 1 else [got.lhs, got.rhs]):
                    indices = [index for index, _ in terms]
                    merged += len(set(indices)) < len(indices)
                    for f in p.factors:
                        if indices.count(f.index) == 1:  # read once: the table's own exponent
                            unmerged += 1
                            spelling = terms[indices.index(f.index)][1]
                            kept = parsing.ONE if spelling is None else parsing._EXPONENTS[spelling]
                            assert f.exponent is kept, (table, text)
            assert merged > len(cases) // 2 and unmerged > 500
            assert len(parsing._SUMS) > 100

    def test_scanner_reads_every_render(self, monkeypatch):
        # _Parser reads each new exponent spelling; only a whole text that
        # the scanner leaves to it reaches _Parser.product
        def no_parser(parser):
            raise AssertionError(f"_Parser read the whole text {parser.text!r}")

        monkeypatch.setattr(parsing._Parser, "product", no_parser)
        rng = random.Random(1112)
        for _ in range(1000):
            p = random_product(rng, max_factors=6, max_index=300)
            q = random_product(rng, max_factors=6, max_index=300)
            if p.is_empty() or q.is_empty():  # "1" is left to _Parser
                continue
            assert parse_product(render(p)) == p
            assert parse_identity(render_identity(Identity(p, q))) == Identity(p, q)
        # and spellings render does not write, several atoms in one body among them
        for text in [
            "a3^(-pi)", "a3^(pi)", "a3^(2pi)", "a3^( - 3 * pi )", "a3^-1/2", "a3^(1 + pi)",
            "a3^(1/2 + pi - 1/3)", "a3^(pi + pi)", "a3^(2 - pi + 1/2*pi)",
        ]:
            parse_product(text)

    def test_one_pattern_call_per_text(self, monkeypatch):
        # the scanner reads a whole text with one call into its pattern; a
        # loop that matched one term per call would make one call per term
        pattern, calls = parsing._TERM_RE, []

        class Counting:
            def __getattr__(self, name):
                method = getattr(pattern, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)

                return counted

        monkeypatch.setattr(parsing, "_TERM_RE", Counting())
        rng = random.Random(1116)
        texts = ["a3^2*a3^-2*a3", " a1 ^ (pi) *a1^(-pi) = a2^(1/2)*a2^-1/2 * a2^(1/2)\t"]
        texts += [
            " = ".join(
                "*".join(_term_text(rng, *term) for term in _merging_terms(rng))
                for _ in range(sides)
            )
            for sides in [1, 2] * 100
        ]
        for text in texts:
            del calls[:]
            sides = text.count("=") + 1
            assert len(parsing._scan(text)) == sides and len(calls) == 1, (text, calls)
            del calls[:]
            (parse_product if sides == 1 else parse_identity)(text)
            assert len(calls) == 1, (text, calls)


def _merging_terms(rng: random.Random) -> list[tuple[int, str | None]]:
    """1 to 8 terms over indices 1-3 as (index, exponent spelling or None)."""
    return [(rng.randint(1, 3), rng.choice(_MERGE_SPELLINGS)) for _ in range(rng.randint(1, 8))]


def _term_text(rng: random.Random, index: int, spelling: str | None) -> str:
    """The term as text, with whitespace drawn around each of its tokens."""
    ws = [rng.choice(["", "", " ", "\t "]) for _ in range(5)]
    exponent = "" if spelling is None else f"{ws[2]}^{ws[3]}{spelling}"
    return f"{ws[0]}a{ws[1]}{index}{exponent}{ws[4]}"


_MERGE_SPELLINGS = [
    None, "2", "-2", "-1", "0", "(1/2)", "-1/2", "- 1 / 2", "(pi)", "(-pi)", "(1/2+pi)",
    "( 1/2 - pi )", "(2*pi)", "(-2pi)",
]


@contextmanager
def _int_digit_limit(digits: int):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _with_own_exponents(p: StringProduct) -> StringProduct:
    """``p`` built by the public constructors, one new exponent per factor."""
    return StringProduct(
        tuple(Factor(f.index, ExactExponent(f.exponent.rat, f.exponent.pi)) for f in p.factors)
    )


def _written(rat: Fraction, pi: Fraction) -> tuple[str, str]:
    """An exponent's text and LaTeX, written from its two components alone."""
    if not pi:
        return str(rat), str(rat)
    lead = str(rat) if rat else ""
    sign = "-" if pi < 0 else "+" if rat else ""
    mag = abs(pi)
    return f"{lead}{sign}{mag}*pi", f"{lead}{sign}{'' if mag == 1 else mag}\\pi"


def _rendered(p: StringProduct, style: str) -> str:
    """``render(p, style)``, from :func:`_written` and the grammar alone."""
    latex = style == "latex"
    out = []
    for f in p.factors:
        e = f.exponent
        if e.rat == 1 and not e.pi:
            out.append(f"a_{{{f.index}}}" if latex else f"a{f.index}")
        else:
            text = _written(e.rat, e.pi)[latex]
            out.append(f"a_{{{f.index}}}^{{{text}}}" if latex else f"a{f.index}^({text})")
    return (" \\cdot " if latex else "*").join(out) or "1"


_RATS = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
_PIS = [Fraction(0)] * 3 + [Fraction(n, d) for n in (-2, -1, 1, 3) for d in (1, 2)]


class TestExponentTable:
    """The scanner's exponents by spelling: bounded, and invisible in results."""

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(parsing, "_EXPONENTS", {})
        monkeypatch.setattr(parsing, "_SUMS", {})

    def test_entry_cap(self):
        cap = parsing._EXPONENTS_MAX
        for k in range(1, 2 * cap):
            assert parse_product(f"a3^({k}/7)") == normalize([(3, Fraction(k, 7))])
            assert len(parsing._EXPONENTS) == min(k, cap)

    def test_long_spelling_stays_out(self):
        digits = "7" * 4000
        with _int_digit_limit(4300):
            assert parse_product(f"a3^({digits})*a4^(1/2)") == normalize(
                [(3, int(digits)), (4, Fraction(1, 2))]
            )
        assert list(parsing._EXPONENTS) == ["(1/2)"]

    def test_lower_digit_limit_after_a_long_spelling(self):
        text = "a3^(" + "7" * 1000 + ")"
        with _int_digit_limit(4300):
            assert parse_product(text) == normalize([(3, int("7" * 1000))])
        with _int_digit_limit(640), pytest.raises(ParseError) as info:
            parse_product(text)
        err = info.value
        assert (err.position, err.expected, err.found) == (
            4, "an integer of at most 640 digits", "1000 digits"
        )

    def test_shared_exponents_pickle_and_compare(self):
        text = "a1^(1/2+pi) * a2^(1/2+pi) * a4^-3 = a3^(1/2+pi) * a5^-3 * a6^(1/2+pi)"
        ident = parse_identity(text)
        assert ident.lhs.factors[0].exponent is ident.rhs.factors[2].exponent
        public = Identity(_with_own_exponents(ident.lhs), _with_own_exponents(ident.rhs))
        assert public.lhs.factors[0].exponent is not public.lhs.factors[1].exponent
        for back in (ident, pickle.loads(pickle.dumps(ident)), copy.deepcopy(ident)):
            assert back == public and hash(back) == hash(public) and repr(back) == repr(public)

    def test_render_equals_render_of_own_exponents(self):
        rng = random.Random(1113)
        shared = 0
        for _ in range(300):
            p = parse_product(render(random_product(rng, max_factors=12, max_index=30)))
            own = _with_own_exponents(p)
            shared += len({id(f.exponent) for f in p.factors}) < len(p.factors)
            for style in ("text", "latex"):
                assert render(p, style) == render(own, style)
        assert shared > 100  # shared exponent objects, whose text is kept, are exercised

    def test_render_under_a_lower_digit_limit(self):
        digits = "7" * 1000
        with _int_digit_limit(4300):
            p = parse_product(f"a3^({digits})*a4^(1/2)*a5^({digits}*pi)")
            assert render(p) == f"a3^({digits})*a4^(1/2)*a5^({digits}*pi)"
            assert render(p, "latex") == (
                f"a_{{3}}^{{{digits}}} \\cdot a_{{4}}^{{1/2}} \\cdot a_{{5}}^{{{digits}\\pi}}"
            )
        with _int_digit_limit(640):
            for style in ("text", "latex"):
                with pytest.raises(ValueError):
                    render(p, style)
            assert render(normalize([(4, Fraction(1, 2))])) == "a4^(1/2)"

    def test_kept_texts_match_a_writer_of_the_components(self):
        assert render(parse_product("a3^(1/2)*a3^(1/2)")) == "a3"
        assert render(parse_product("a3^(pi)*a3^(-pi)*a4")) == "a4"
        rng = random.Random(2121)
        for _ in range(2000):
            terms = [
                (rng.randint(1, 6), rng.choice(_RATS), rng.choice(_PIS))
                for _ in range(rng.randint(1, 8))
            ]
            spellings = [
                f"^{rat}" if not pi and rng.random() < 0.5 else f"^({_written(rat, pi)[0]})"
                for _, rat, pi in terms
            ]
            scanned = parse_product("*".join(f"a{i}{sp}" for (i, _, _), sp in zip(terms, spellings)))
            public = normalize([(i, ExactExponent(rat, pi)) for i, rat, pi in terms])
            assert scanned == public
            shifted = normalize(
                [(f.index, dataclasses.replace(f.exponent, rat=f.exponent.rat + 1)) for f in scanned.factors]
            )
            for style in ("text", "latex"):
                for p in (scanned, public):
                    assert render(p, style) == _rendered(p, style)
                # copies of exponents whose texts are kept, and replaced ones
                for back in (pickle.loads(pickle.dumps(scanned)), copy.deepcopy(scanned)):
                    assert render(back, style) == _rendered(scanned, style)
                assert render(shifted, style) == _rendered(shifted, style)
        assert len(parsing._EXPONENTS) > 100  # the scanner's table was read

    def test_kept_texts_stay_out_of_the_value(self):
        e = parse_product("a3^(1/2-3*pi)").factors[0].exponent
        assert (str(e), e.to_latex()) == _written(Fraction(1, 2), Fraction(-3))
        # and so do the kept integers, which signature reads
        sig = signature(normalize([(3, e)]))
        assert e._ints == (1, 2, -3, 1)
        fresh = ExactExponent(Fraction(1, 2), -3)
        assert repr(e) == repr(fresh) == "ExactExponent(rat=Fraction(1, 2), pi=Fraction(-3, 1))"
        assert e == fresh and hash(e) == hash(fresh) == hash((Fraction(1, 2), Fraction(-3)))
        assert ExactExponent.__match_args__ == ("rat", "pi")
        assert e.__reduce_ex__(2)[2] == [Fraction(1, 2), Fraction(-3)]
        old = pickle.loads(TWO_FIELD_PICKLE)
        assert old == e
        assert render(normalize([(3, old)])) == "a3^(1/2-3*pi)"
        assert render(normalize([(3, old)]), "latex") == "a_{3}^{1/2-3\\pi}"
        for back in (pickle.loads(TWO_FIELD_PICKLE), pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert back._ints == e._ints
            assert signature(normalize([(3, back)])) == sig


class TestSumTable:
    """The scanner's sums by their operands' integers: bounded, and invisible in results."""

    @pytest.fixture(autouse=True)
    def empty_tables(self, monkeypatch):
        monkeypatch.setattr(parsing, "_EXPONENTS", {})
        monkeypatch.setattr(parsing, "_SUMS", {})

    def test_entry_cap(self):
        cap = parsing._EXPONENTS_MAX
        for k in range(1, 2 * cap):
            assert parse_product(f"a3^({k}/7)*a3") == normalize([(3, Fraction(k, 7) + 1)])
            assert len(parsing._SUMS) == min(k, cap)

    def test_long_operand_stays_out(self):
        digits = "7" * 4000
        with _int_digit_limit(4300):
            for text in (f"a3^({digits})*a3^(1/2)*a3*a4^(1/2)*a4", f"a4^(1/2)*a3^(1/2)*a3^({digits})*a3*a4"):
                p, q = parse_product(text), parse_product(text)
                assert p == normalize([(3, int(digits) + Fraction(3, 2)), (4, Fraction(3, 2))])
                assert p.factors[0].exponent is not q.factors[0].exponent  # merged afresh
                assert p.factors[1].exponent is q.factors[1].exponent
                assert list(parsing._SUMS) == [((1, 2, 0, 1), (1, 1, 0, 1))]

    def test_operand_bound(self):
        # a sum is kept when each of its operands' integers has at most
        # _SPELLING_MAX digits, whatever the length of their spellings
        big = parsing._OPERAND_MAX
        assert big == 10**parsing._SPELLING_MAX
        assert parse_product(f"a3^{big - 1}*a3*a4^{big}*a4") == normalize([(3, big), (4, big + 1)])
        assert list(parsing._SUMS) == [((big - 1, 1, 0, 1), (1, 1, 0, 1))]
        del parsing._SUMS[((big - 1, 1, 0, 1), (1, 1, 0, 1))]
        # the first sum's operands are small, its denominator is not
        p, q = 10**20 + 1, 10**20 + 3
        assert parse_product(f"a3^(1/{p})*a3^(-1/{q})*a3") == normalize(
            [(3, Fraction(1, p) - Fraction(1, q) + 1)]
        )
        assert list(parsing._SUMS) == [((1, p, 0, 1), (-1, q, 0, 1))]

    def test_equal_merges_share_one_object(self):
        p = parse_product("a3^(1/2)*a3^(1/3)")
        ident = parse_identity("a5 * a2^( 1 / 2 ) * a2^(2/6) = a1^(3/6)*a1^(1/3)*a4")
        e = p.factors[0].exponent
        assert e == ExactExponent(Fraction(5, 6))
        assert ident.lhs.factors[0].exponent is e and ident.rhs.factors[0].exponent is e
        # a sum of sums is shared too
        assert parse_product("a3^(pi)*a3*a3").factors[0].exponent is parse_product(
            "a7^(pi)*a7*a7"
        ).factors[0].exponent
        assert len(parsing._SUMS) == 3

    def test_render_equals_render_of_own_exponents(self):
        rng = random.Random(1117)
        texts = [
            "*".join(_term_text(rng, *term) for term in _merging_terms(rng)) for _ in range(600)
        ]
        texts += ["a3^-" + "9" * 31 + "*a3^(" + "9" * 30 + ")*a3^(pi)"]
        for table, limit in (("cold", 4300), ("warm", 4300), ("warm", 640)):
            shared = 0
            with _int_digit_limit(limit):
                for text in texts:
                    p = parse_product(text)
                    own = _with_own_exponents(p)
                    kept = {id(e) for e in parsing._SUMS.values()}
                    shared += any(id(f.exponent) in kept for f in p.factors)
                    for style in ("text", "latex"):
                        assert render(p, style) == render(own, style) == _rendered(p, style), (table, text)
            assert shared > 100, table


# Each text has at least 2*10^5 characters; a scanner that backtracks
# quadratically over a whitespace run takes minutes on any of them, while
# each one takes at most about a second on a 2-vCPU host.  The bound sits
# between the two, with room for a slow or loaded runner.
_RUN = " " * 200_000
_BOUND_S = 30.0


class TestLinearTime:
    @pytest.mark.parametrize(
        "text",
        [
            f"a3{_RUN}^{_RUN}x",
            f"a3^{_RUN}({_RUN}1{_RUN}x",
            f"a3^({_RUN}1 / {_RUN})x",
            f"a3^(1{_RUN}/{_RUN}2{_RUN}x",
            f"a3^(1{_RUN}+{_RUN}pi{_RUN}x",
            f"a3^(1{_RUN}-{_RUN}2{_RUN}*{_RUN}pi{_RUN}x",
            f"a3^({_RUN}-{_RUN}pi{_RUN}x",
            f"a3^({_RUN}2{_RUN}pi{_RUN})x",
            f"a3^{_RUN}-{_RUN}1{_RUN}/{_RUN}2{_RUN}pi",
            f"a{'7' * 4000}{_RUN}a",
        ],
        ids=["caret", "paren", "slash-close", "slash", "plus", "minus", "neg-pi", "pi-close", "bare", "index"],
    )
    def test_bad_text_fails_fast(self, text):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_product(text)
        assert time.perf_counter() - start < _BOUND_S

    @pytest.mark.parametrize("tail", [" x", f"{_RUN}x"], ids=["stray", "run-stray"])
    def test_long_prefix_then_stray_fails_fast(self, tail):
        # the scanner reads every term of the prefix before it meets the
        # stray character; then _Parser reads the whole text and raises
        text = "*".join(["a3^(1/2+pi)"] * 50_000) + tail
        start = time.perf_counter()
        with pytest.raises(ParseError) as caught:
            parse_product(text)
        assert time.perf_counter() - start < _BOUND_S
        err = caught.value
        assert (err.position, err.expected, err.found) == (len(text) - 1, "end of input", "'x'")

    def test_many_terms_parse_fast(self):
        start = time.perf_counter()
        p = parse_product("*".join(["a3^(1/2+pi)"] * 50_000))
        assert time.perf_counter() - start < _BOUND_S
        assert p == normalize([(3, ExactExponent(25_000, 50_000))])
