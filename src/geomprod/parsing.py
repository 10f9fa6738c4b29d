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
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exact import ONE, PI, ExactExponent, _of
from .identities import Identity
from .model import InvalidIndexError, StringProduct, normalize

__all__ = ["ParseError", "parse_product", "parse_identity", "render", "render_identity"]


@dataclass(frozen=True)
class ParseError(ValueError):
    """Syntax error with the character offset and what was expected there."""

    position: int
    expected: str
    found: str

    def __str__(self) -> str:
        return f"parse error at position {self.position}: expected {self.expected}, found {self.found}"


class _Token(NamedTuple):
    kind: str  # "int", "name", "op", "end"
    text: str
    pos: int

    def describe(self) -> str:
        if self.kind == "end":
            return "end of input"
        return f"'{self.text}'"


# Optional whitespace, then one token: each kind has its own group, in the
# order of _KINDS, and the last group takes any other character as a bad
# token.  The classes are ASCII on purpose: \s and \d would also accept
# Unicode spaces and digits, which the grammar rejects.  Trailing whitespace
# matches nothing and is skipped.
_TOKEN_RE = re.compile(
    r"[ \t\r\n\v\f]*(?:([0-9]+)|([A-Za-z]+)|([*^()+\-/=])|([^ \t\r\n\v\f]))"
)
_KINDS = (None, "int", "name", "op")
_BAD = len(_KINDS)
_new_token = tuple.__new__  # what _Token(...) calls, minus one Python frame

_NEG_PI = -PI
_ZERO = Fraction(0)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == _BAD:
            raise ParseError(m.start(group), "a token", repr(m.group(group)))
        tokens.append(_new_token(_Token, (_KINDS[group], m.group(group), m.start(group))))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self, ahead: int = 0) -> _Token:
        # never past the end token: callers look ahead only from a non-end one
        return self.tokens[self.at + ahead]

    def advance(self) -> _Token:
        # only ever called on a token already checked, so never on the end one
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.pos, expected, tok.describe())

    def expect_op(self, op: str) -> _Token:
        if not self.at_op(op):
            raise self.fail(f"'{op}'")
        return self.advance()

    def at_op(self, op: str) -> bool:
        # no other kind of token can have an operator character as its text
        return self.tokens[self.at].text == op

    def integer(self, what: str) -> tuple[int, int]:
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail(what)
        self.advance()
        return int(tok.text), tok.pos

    def signed_rational(self) -> Fraction:
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        num, _ = self.integer("an integer")
        den = 1
        if self.at_op("/"):
            self.advance()
            den, pos = self.integer("a denominator")
            if den == 0:
                raise ParseError(pos, "a nonzero denominator", "'0'")
        value = Fraction(num) if den == 1 else Fraction(num, den)
        return -value if negative else value

    def exp_atom(self) -> ExactExponent:
        tok = self.peek()
        if tok.kind == "name":
            if tok.text != "pi":
                raise self.fail("'pi' or a rational")
            self.advance()
            return PI
        # tolerated shorthand: a bare sign directly before "pi"
        if self.at_op("-") and self.peek(1).kind == "name" and self.peek(1).text == "pi":
            self.advance()
            self.advance()
            return _NEG_PI
        coeff = self.signed_rational()
        if self.at_op("*") and self.peek(1).kind == "name":
            name = self.peek(1)
            if name.text != "pi":
                raise ParseError(name.pos, "'pi'", name.describe())
            self.advance()
            self.advance()
            return _of(_ZERO, coeff)
        if self.peek().kind == "name" and self.peek().text == "pi":
            self.advance()
            return _of(_ZERO, coeff)
        return _of(coeff, _ZERO)

    def exp_expr(self) -> ExactExponent:
        value = self.exp_atom()
        while self.at_op("+") or self.at_op("-"):
            op = self.advance().text
            atom = self.exp_atom()
            value = value + atom if op == "+" else value - atom
        return value

    def exponent(self) -> ExactExponent:
        if self.at_op("("):
            self.advance()
            value = self.exp_expr()
            self.expect_op(")")
            return value
        return _of(self.signed_rational(), _ZERO)

    def term(self) -> list[tuple[int, ExactExponent]]:
        tok = self.peek()
        if tok.kind == "int" and int(tok.text) == 1:
            self.advance()
            return []
        if tok.kind != "name" or tok.text != "a":
            raise self.fail("a term like 'a3' (or the literal '1')")
        self.advance()
        index, pos = self.integer("a term index")
        if index < 1:
            raise InvalidIndexError(
                f"term index must be >= 1, got {index} (at position {pos})"
            )
        if self.at_op("^"):
            self.advance()
            return [(index, self.exponent())]
        return [(index, ONE)]

    def product(self) -> list[tuple[int, ExactExponent]]:
        pairs = self.term()
        while self.at_op("*"):
            self.advance()
            pairs += self.term()
        return pairs

    def end(self) -> None:
        if self.peek().kind != "end":
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
    parser.expect_op("=")
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


def render(p: StringProduct, style: str = "text") -> str:
    """Canonical text ("a3*a4^(1/2)") or LaTeX math for a product.

    Text output re-parses to an equal product; the empty product renders
    as "1".
    """
    if style == "text":
        if p.is_empty():
            return "1"
        parts = []
        for f in p.factors:
            if f.exponent == ONE:
                parts.append(f"a{f.index}")
            else:
                parts.append(f"a{f.index}^({f.exponent})")
        return "*".join(parts)
    if style == "latex":
        if p.is_empty():
            return "1"
        parts = []
        for f in p.factors:
            if f.exponent == ONE:
                parts.append(f"a_{{{f.index}}}")
            else:
                parts.append(f"a_{{{f.index}}}^{{{_exponent_latex(f.exponent)}}}")
        return " \\cdot ".join(parts)
    raise ValueError(f"unknown render style {style!r}")


def render_identity(ident: Identity, style: str = "text") -> str:
    return f"{render(ident.lhs, style)} = {render(ident.rhs, style)}"
