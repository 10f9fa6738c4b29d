"""Text syntax for products and identities, plus the reverse renderers.

The input language::

    identity  := product "=" product
    product   := term { "*" term }
    term      := "a" integer [ "^" exponent ] | "1"
    exponent  := signed_rational | "(" exp_expr ")"
    exp_expr  := exp_atom { ("+"|"-") exp_atom }
    exp_atom  := signed_rational [ "*"? "pi" ] | "pi"
    signed_rational := ["-"] integer [ "/" integer ]

Whitespace between tokens is ignored.  ``pi`` is the only named constant
and is lowercase only.  Examples: ``a4*a3 = a6*a1``,
``a5 * a2^(1/2) = a4^(3/2)``, ``a3^(6pi) * a6^6``.  The literal ``1``
stands for the empty product so that canonical output re-parses.

Parsed products are normalized.  Syntax problems raise :class:`ParseError`
with the offending position; an index below 1 raises
:class:`~geomprod.model.InvalidIndexError`.

Reading runs one path.  A term scanner reads the text first, with one
compiled-regex ``findall`` call per text.  Each match is one term and the
separator after it (``*``, ``=`` or the end); where no term starts, a last
alternative takes the rest of the text, which leaves the text to the
parser.  The scanner reads a term's index and the whole spelling of its
exponent: a signed rational, as in ``a3^-1/2``, or a parenthesized body
without nested parentheses, as in ``a3^(1/2 + pi)``.  It merges the terms
of each product, split at ``=``, as it reads them: a product is one
``{index: exponent}`` dict in which a repeated index adds its exponent,
left to right, as :func:`normalize` adds it.  Each product is then built
from its dict by the builder :func:`normalize` ends with, in index order
with zero sums dropped, with no second pass and no per-term check, since
the scanner reads only indices of at least 1.
The token parser, :class:`_Parser`, reads each new exponent spelling once.
It also reads the whole text, once, when the scanner cannot finish it (the
literal ``1``, an index below 1, any error) or finds a number of products
other than the one or two asked for; its (index, exponent) pairs go
through :func:`normalize`.  So ``_Parser`` alone turns exponent text into
exponents, and every error, with its position, expected and found text,
comes from that one place.

The scanner keeps the exponents it read in a module-level table keyed by
their spelling, the text after ``^``, and its factors share them.  Texts
repeat a few spellings many times (``(1/2)``, ``-3``, ``(1/2+pi)``), so
each one is read once; exponents are immutable, so sharing changes no
result.  The table is bounded twice.  It takes at most 1,024 entries and
then stops adding, with no eviction.  It takes no spelling longer than 32
characters, which keeps it small and keeps every entry valid under any
``sys.set_int_max_str_digits``: that limit is 0 or at least 640 digits, so
a spelling that long always converts, and a longer one is read afresh
each time, where a lowered limit still makes it a :class:`ParseError`.
Each exponent keeps the text :func:`render` writes for it, in either
style, so a shared exponent is written once, not once per render.  Each
style's writer reads the kept text and makes one f-string per factor.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .exact import ONE, PI, ExactExponent, _of
from .identities import Identity
from .model import Factor, InvalidIndexError, StringProduct, _merged, normalize

__all__ = ["ParseError", "parse_product", "parse_identity", "render", "render_identity"]


class ParseError(ValueError):
    """Syntax error with the character offset and what was expected there."""

    def __init__(self, position: int, expected: str, found: str):
        super().__init__(position, expected, found)
        self.position = position
        self.expected = expected
        self.found = found

    def __str__(self) -> str:
        return f"parse error at position {self.position}: expected {self.expected}, found {self.found}"


# One token: a digit run, a letter run or one operator.  The classes are
# ASCII on purpose: \s and \d would also accept Unicode spaces and digits,
# which the grammar rejects; _STRAY_RE finds the first character that is
# neither in a token class nor whitespace before any token is read.  Tokens
# are plain strings without offsets: positions are found only on error, by
# running _TOKEN_RE over the text once more (see _Parser.offset).
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z]+|[*^()+\-/=]")
_STRAY_RE = re.compile(r"[^0-9A-Za-z*^()+\-/= \t\r\n\v\f]")

_NEG_PI = -PI
_ZERO = Fraction(0)


class _Parser:
    def __init__(self, text: str):
        stray = _STRAY_RE.search(text)
        if stray:
            raise ParseError(stray.start(), "a token", repr(stray.group()))
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [""]  # "" ends the input
        self.at = 0

    def offset(self, at: int) -> int:
        for i, m in enumerate(_TOKEN_RE.finditer(self.text)):
            if i == at:
                return m.start()
        return len(self.text)

    def fail(self, expected: str, at: int | None = None) -> ParseError:
        at = self.at if at is None else at
        tok = self.tokens[at]
        if not tok:
            found = "end of input"
        elif 0 < sys.get_int_max_str_digits() < len(tok):  # a digit or letter run
            found = f"{len(tok)} {'digits' if tok.isdigit() else 'letters'}"
        else:
            found = f"'{tok}'"
        return ParseError(self.offset(at), expected, found)

    def take(self, tok: str) -> bool:
        if self.tokens[self.at] == tok:
            self.at += 1
            return True
        return False

    def expect(self, tok: str) -> None:
        if not self.take(tok):
            raise self.fail(f"'{tok}'")

    def integer(self, what: str) -> int:
        tok = self.tokens[self.at]
        if not tok.isdigit():
            raise self.fail(what)
        try:
            value = int(tok)
        except ValueError:  # longer than the interpreter converts
            raise self.fail(f"an integer of at most {sys.get_int_max_str_digits()} digits") from None
        self.at += 1
        return value

    def signed_rational(self) -> Fraction:
        negative = self.take("-")
        num = self.integer("an integer")
        den = 1
        if self.take("/"):
            den = self.integer("a denominator")
            if den == 0:
                raise ParseError(self.offset(self.at - 1), "a nonzero denominator", "'0'")
        if negative:
            num = -num
        return Fraction(num) if den == 1 else Fraction(num, den)

    def exp_atom(self) -> ExactExponent:
        tok = self.tokens[self.at]
        if tok.isalpha():
            if tok != "pi":
                raise self.fail("'pi' or a rational")
            self.at += 1
            return PI
        # tolerated shorthand: a bare sign directly before "pi"
        if tok == "-" and self.tokens[self.at + 1] == "pi":
            self.at += 2
            return _NEG_PI
        coeff = self.signed_rational()
        if self.tokens[self.at] == "*" and self.tokens[self.at + 1].isalpha():
            if self.tokens[self.at + 1] != "pi":
                raise self.fail("'pi'", self.at + 1)
            self.at += 2
            return _of(_ZERO, coeff)
        if self.take("pi"):
            return _of(_ZERO, coeff)
        return _of(coeff, _ZERO)

    def exp_expr(self) -> ExactExponent:
        value = self.exp_atom()
        while True:
            if self.take("+"):
                value = value + self.exp_atom()
            elif self.take("-"):
                value = value - self.exp_atom()
            else:
                return value

    def exponent(self) -> ExactExponent:
        if self.take("("):
            value = self.exp_expr()
            self.expect(")")
            return value
        return _of(self.signed_rational(), _ZERO)

    def term(self) -> list[tuple[int, ExactExponent]]:
        if self.tokens[self.at].lstrip("0") == "1":
            self.at += 1
            return []
        if not self.take("a"):
            raise self.fail("a term like 'a3' (or the literal '1')")
        index = self.integer("a term index")
        if index < 1:
            raise InvalidIndexError(
                f"term index must be >= 1, got {index} (at position {self.offset(self.at - 1)})"
            )
        if self.take("^"):
            return [(index, self.exponent())]
        return [(index, ONE)]

    def product(self) -> list[tuple[int, ExactExponent]]:
        pairs = self.term()
        while self.take("*"):
            pairs += self.term()
        return pairs

    def end(self) -> None:
        if self.tokens[self.at]:
            raise self.fail("end of input")


# One term and the separator after it: the index, the exponent's whole
# spelling (the key of _EXPONENTS, "" for none) and "*", "=" or "" at the
# end; or, where no term starts, the rest of the text as the fourth group,
# so findall reads a text with one call.  Every whitespace run is followed
# by a character it cannot match, no two runs touch (the optional sign is
# "(?:-WS)?", never "-?WS"), and a body stops at the first parenthesis, so a
# failing term backtracks in linear time without atomic groups or
# possessive quantifiers, which Python 3.10 lacks.  Taking the whole rest
# keeps the call linear: an alternative of one character would retry the
# term at every character of a whitespace run.  Every digit run is followed
# by a non-digit and "a" by a non-letter, so the runs are the tokenizer's
# tokens and _Parser reads a spelling alone as it reads it within the text.
_WS = r"[ \t\r\n\v\f]*"
_TERM_RE = re.compile(
    rf"""{_WS}a{_WS}([0-9]+){_WS}
    (?:\^{_WS}(
        (?:-{_WS})?[0-9]+(?:{_WS}/{_WS}[0-9]+)?  # ^q
      | \([^()]*\)                             # ^(body)
    ){_WS})?
    (\*|=|\Z)
  | ([\s\S]+)                                 # the rest, where no term starts""",
    re.VERBOSE,
)

# The scanner's exponents by spelling, and its two bounds; see the module
# docstring.
_EXPONENTS: dict[str, ExactExponent] = {}
_EXPONENTS_MAX = 1024  # entries
_SPELLING_MAX = 32  # characters


def _scan(text: str) -> list[dict[int, ExactExponent]] | None:
    """The terms of every product in the text, split at "=", merged as read.

    Each product is an ``{index: exponent}`` dict in which a repeated index
    adds its exponent to the sum so far, left to right, as :func:`normalize`
    adds it; a sum may be zero.  None when the text needs _Parser: it alone
    reads rare forms in full and raises every error.
    """
    out = []
    terms: dict[int, ExactExponent] = {}
    exponents = _EXPONENTS
    try:
        for index, spelling, sep, stray in _TERM_RE.findall(text):
            if stray:
                return None
            index = int(index)
            if index < 1:
                return None
            if not spelling:
                exp = ONE
            else:
                exp = exponents.get(spelling)
                if exp is None:
                    reader = _Parser(spelling)
                    exp = reader.exponent()
                    reader.end()
                    if len(spelling) <= _SPELLING_MAX and len(exponents) < _EXPONENTS_MAX:
                        exponents[spelling] = exp
            prev = terms.get(index)
            terms[index] = exp if prev is None else prev + exp
            if sep != "*":
                out.append(terms)
                if not sep:
                    return out
                terms = {}
    except ValueError:  # ParseError, or a digit run int() refuses
        return None
    return None  # no term, or a text that ends in "*" or "="


def _read(text: str, sides: int) -> list[StringProduct]:
    """The ``sides`` normalized products of a text joined by "=".

    _Parser reads the whole text if the scanner cannot or finds more or fewer.
    """
    products = _scan(text)
    if products is not None and len(products) == sides:
        return [_merged(terms) for terms in products]
    parser = _Parser(text)
    pairs = [parser.product()]
    for _ in range(1, sides):
        parser.expect("=")
        pairs.append(parser.product())
    parser.end()
    return [normalize(p) for p in pairs]


def parse_product(text: str) -> StringProduct:
    """Parse one product; the result is normalized."""
    return _read(text, 1)[0]


def parse_identity(text: str) -> Identity:
    """Parse ``<product> = <product>``; both sides come back normalized."""
    return Identity(*_read(text, 2))


# Each writer reads an exponent's kept text as a field, and calls the
# exponent's writer only when no text is kept yet.
def _write_text(factors: tuple[Factor, ...]) -> str:
    out = []
    for f in factors:
        e = f.exponent
        text = e._text or str(e)
        out.append(f"a{f.index}" if text == "1" else f"a{f.index}^({text})")
    return "*".join(out)


def _write_latex(factors: tuple[Factor, ...]) -> str:
    out = []
    for f in factors:
        e = f.exponent
        text = e._latex or e.to_latex()
        out.append(f"a_{{{f.index}}}" if text == "1" else f"a_{{{f.index}}}^{{{text}}}")
    return " \\cdot ".join(out)


# style -> writer of a nonempty product's factors
_STYLES = {"text": _write_text, "latex": _write_latex}


def render(p: StringProduct, style: str = "text") -> str:
    """Canonical text ("a3*a4^(1/2)") or LaTeX math for a product.

    Text output re-parses to an equal product; the empty product renders
    as "1".
    """
    try:
        write = _STYLES[style]
    except (KeyError, TypeError):  # TypeError: an unhashable style
        raise ValueError(f"unknown render style {style!r}") from None
    if p.is_empty():
        return "1"
    return write(p.factors)


def render_identity(ident: Identity, style: str = "text") -> str:
    return f"{render(ident.lhs, style)} = {render(ident.rhs, style)}"
