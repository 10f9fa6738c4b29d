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
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .exact import ONE, PI, ExactExponent, _of
from .identities import Identity
from .model import InvalidIndexError, StringProduct, normalize

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
        value = Fraction(num) if den == 1 else Fraction(num, den)
        return -value if negative else value

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


def parse_product(text: str) -> StringProduct:
    """Parse one product; the result is normalized."""
    parser = _Parser(text)
    pairs = parser.product()
    parser.end()
    return normalize(pairs)


def parse_identity(text: str) -> Identity:
    """Parse ``<product> = <product>``; both sides come back normalized."""
    parser = _Parser(text)
    lhs = parser.product()
    parser.expect("=")
    rhs = parser.product()
    parser.end()
    return Identity(normalize(lhs), normalize(rhs))


def _exponent_latex(e: ExactExponent) -> str:
    if e.pi == 0:
        return str(e.rat)
    mag = abs(e.pi)
    pi_part = "\\pi" if mag == 1 else f"{mag}\\pi"
    if e.rat == 0:
        return pi_part if e.pi > 0 else f"-{pi_part}"
    joiner = "+" if e.pi > 0 else "-"
    return f"{e.rat}{joiner}{pi_part}"


# style -> (term, powered term, joiner, exponent writer)
_STYLES = {
    "text": ("a{}", "a{}^({})", "*", str),
    "latex": ("a_{{{}}}", "a_{{{}}}^{{{}}}", " \\cdot ", _exponent_latex),
}


def render(p: StringProduct, style: str = "text") -> str:
    """Canonical text ("a3*a4^(1/2)") or LaTeX math for a product.

    Text output re-parses to an equal product; the empty product renders
    as "1".
    """
    try:
        term, powered, joiner, exponent = _STYLES[style]
    except (KeyError, TypeError):  # TypeError: an unhashable style
        raise ValueError(f"unknown render style {style!r}") from None
    if p.is_empty():
        return "1"
    return joiner.join(
        term.format(f.index) if f.exponent == ONE else powered.format(f.index, exponent(f.exponent))
        for f in p.factors
    )


def render_identity(ident: Identity, style: str = "text") -> str:
    return f"{render(ident.lhs, style)} = {render(ident.rhs, style)}"
