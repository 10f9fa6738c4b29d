"""Command-line front end.

:func:`main` reads ``--format`` and ``--quiet`` first, wherever argv gives
them, and everything after uses those two values; a handler finds them as
``args.format`` and ``args.quiet``.  Each subcommand handler returns
``(exit code, text lines, JSON payload, LaTeX lines)`` and prints nothing,
and so does ``--help``; :func:`main` applies ``--quiet`` and prints the one
output ``--format`` picks.  A handler may leave the outputs that will not be
printed empty: ``decompose`` and ``family`` build only the one asked for,
and nothing under ``--quiet``.  Usage, parse and domain errors all leave
through :func:`_error`.

Exit codes: 0 for success (including a verified identity and feasible-but-
empty listings), 1 for a refuted identity, 2 for usage, parse or domain
errors and for any other exception, which is reported as an internal error
(``{"error": {"kind", "message"}}`` under json).  ``--format json`` emits
one JSON document on stdout on every code path, errors included;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from itertools import starmap

from .exact import as_rational
from .identities import (
    FamilyQuery,
    Identity,
    collapse,
    decompose,
    enumerate_family,
    solve_rational_weights,
    verify_identity,
)
from .model import SequenceSpec, evaluate, normalize, signature
from .oracle import CheckReport, OracleConfig, numeric_check
from .parsing import ParseError, parse_identity, parse_product, render, render_identity

__all__ = ["main"]

_FORMATS = ("text", "json", "latex")
_Result = tuple[int, list[str], object, list[str]]


def _fraction_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


# The integer option syntax, as in as_rational: int() alone also reads
# underscores, a leading "+", surrounding spaces and non-ASCII digits.
_INT = r"-?[0-9]+"
_INT_RE = re.compile(_INT)
_PAIR_RE = re.compile(f"({_INT}),({_INT})")


def _integer(text: str) -> int:
    """An optional "-" then ASCII digits; :class:`ValueError` otherwise."""
    if _INT_RE.fullmatch(text) is None:
        raise ValueError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:  # a digit run longer than the interpreter converts
        raise ValueError(
            f"cannot interpret {len(text.lstrip('-'))} digits as an integer "
            f"(expected at most {sys.get_int_max_str_digits()} digits)"
        ) from None


def _int_arg(text: str) -> int:
    try:
        return _integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# The float option syntax: float() alone also reads underscores, "inf",
# "nan", a leading "+", surrounding spaces and non-ASCII digits.  The group
# is the digits before the exponent.
_FLOAT_RE = re.compile(r"-?([0-9]+(?:\.[0-9]+)?)(?:[eE][-+]?[0-9]+)?")


def _float_arg(text: str) -> float:
    """An optional "-", ASCII digits, an optional "." fraction and "e" exponent.

    A literal that rounds to an infinity, or to zero although it has a
    nonzero digit, is beyond the float range and refused.
    """
    match = _FLOAT_RE.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    value = float(text)
    if math.isinf(value) or (not value and match[1].strip("0.")):
        raise argparse.ArgumentTypeError(f"{text} is beyond the float range")
    return value


class _UsageError(Exception):
    """An argparse error; ``args`` is (the parser that failed, the message)."""


class _HelpRequested(Exception):
    """``-h``/``--help``; ``args`` is (the parser whose help was asked for,)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Hands usage errors and help to :func:`main` instead of printing and exiting."""

    def error(self, message: str):
        raise _UsageError(self, message)

    def print_help(self, file=None):
        raise _HelpRequested(self)


def _build_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The output-flags parser, read first over all of argv, and the command parser."""
    flags = _ArgumentParser(add_help=False)
    flags.add_argument("--format", choices=_FORMATS, default="text", help="output format")
    flags.add_argument("--quiet", action="store_true", help="suppress stdout, keep exit codes")
    parser = _ArgumentParser(
        prog="geomprod",
        description="Exact identities for products of geometric-sequence terms.",
        parents=[flags],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        return p

    p = command("check", "verify an identity symbolically (and optionally numerically)", _cmd_check)
    p.add_argument("identity", help='e.g. "a4*a3 = a6*a1"')
    p.add_argument("--trials", type=_int_arg, default=None, help="also run the numeric check")
    p.add_argument("--seed", type=_int_arg, default=0, help="numeric check seed")

    p = command("canon", "canonical form and signature of a product", _cmd_canon)
    p.add_argument("product", help='e.g. "a4*a3^(1/2)"')

    p = command("family", "list index multisets with a given size and subscript sum", _cmd_family)
    p.add_argument("--t", type=_int_arg, required=True, help="terms per product")
    p.add_argument("--sum", type=_int_arg, required=True, help="target subscript sum")
    p.add_argument("--max-index", type=_int_arg, required=True, help="largest usable index")
    p.add_argument("--repetition", action="store_true", help="allow repeated indices")

    p = command("decompose", "weighted power forms matching a signature", _cmd_decompose)
    p.add_argument("--t", type=_int_arg, required=True, help="total weight")
    p.add_argument("--sum", type=_int_arg, required=True, help="target subscript sum")
    p.add_argument("--parts", type=_int_arg, required=True, help="number of distinct bases")
    p.add_argument("--max-index", type=_int_arg, required=True, help="largest usable index")

    p = command("collapse", "express a product as a power of one term, if possible", _cmd_collapse)
    p.add_argument("product")

    p = command("solve", "rational weights sending two terms onto a power of a third", _cmd_solve)
    p.add_argument("--indices", required=True, metavar="I,J", help="source indices")
    p.add_argument("--target", type=_int_arg, required=True, help="target index")
    p.add_argument("--total", type=_fraction_arg, required=True, help="target exponent, e.g. 3/2")

    p = command("eval", "evaluate a product on a concrete sequence", _cmd_eval)
    p.add_argument("product")
    p.add_argument("--a1", type=_float_arg, required=True, help="first term (positive)")
    p.add_argument("--r", type=_float_arg, required=True, help="common ratio (positive)")
    p.add_argument("--max-index", type=_int_arg, default=None, help="sequence length (default: inferred)")

    return flags, parser


def _numeric_line(report: CheckReport) -> str:
    return (
        f"numeric: {report.verdict} (trials={report.trials}, "
        f"max_rel_error={report.max_rel_error:.3g}, skipped={report.skipped})"
    )


def _weight_text(w: Fraction) -> str:
    return str(w) if w.denominator == 1 else f"({w})"


def _cmd_check(args) -> _Result:
    ident = parse_identity(args.identity)
    verdict = verify_identity(ident)
    report = None
    if args.trials is not None:
        report = numeric_check(ident, OracleConfig(trials=args.trials, seed=args.seed))
    lsig, rsig = verdict.lhs_signature, verdict.rhs_signature
    if verdict.verified:
        lines = [f"verified: T={lsig.total}, S={lsig.weighted_sum} on both sides"]
    else:
        lines = [
            f"refuted: lhs T={lsig.total}, S={lsig.weighted_sum}; "
            f"rhs T={rsig.total}, S={rsig.weighted_sum}"
        ]
    if report is not None:
        lines.append(_numeric_line(report))
    latex = [render_identity(ident, "latex")] + lines
    payload = {
        "verdict": "verified" if verdict.verified else "refuted",
        "lhs_signature": lsig.to_json_dict(),
        "rhs_signature": rsig.to_json_dict(),
        "numeric": report.to_json_dict() if report is not None else None,
    }
    return (0 if verdict.verified else 1), lines, payload, latex


def _cmd_canon(args) -> _Result:
    p = parse_product(args.product)
    sig = signature(p)
    sig_line = f"signature: T={sig.total}, S={sig.weighted_sum}"
    text = render(p)
    lines = [f"canonical: {text}", sig_line]
    latex = [f"canonical: {render(p, 'latex')}", sig_line]
    payload = {
        "canonical": text,
        "signature": sig.to_json_dict(),
        **p.to_json_dict(),
    }
    return 0, lines, payload, latex


def _cmd_family(args) -> _Result:
    # Only the output that will be printed is built.  json.dumps writes the
    # rows, tuples, as lists.  Every row has as many indices as the first,
    # so one format string spells each text line; an empty listing builds
    # none, however large t is.
    families = enumerate_family(FamilyQuery(args.t, args.sum, args.max_index, args.repetition))
    if args.quiet:
        return 0, [], None, []
    if args.format == "json":
        return 0, [], families, []
    if not families:
        return 0, [], None, []
    lines = list(starmap("+".join(["{}"] * len(families[0])).format, families))
    return 0, lines, None, lines


def _cmd_decompose(args) -> _Result:
    # Only the output that will be printed is built, straight from the int
    # pairs, spelled as render spells a product of integer powers.
    results = decompose(args.t, args.sum, args.parts, args.max_index)
    if args.quiet:
        return 0, [], None, []
    if args.format == "json":
        return 0, [], [d.to_json_dict() for d in results], []
    if args.format == "latex":
        lines = [
            " \\cdot ".join([f"a_{{{b}}}" if w == 1 else f"a_{{{b}}}^{{{w}}}" for b, w in d.parts])
            for d in results
        ]
    else:
        lines = ["*".join([f"a{b}" if w == 1 else f"a{b}^({w})" for b, w in d.parts]) for d in results]
    return 0, lines, None, lines


def _cmd_collapse(args) -> _Result:
    result = collapse(parse_product(args.product))
    if result is None:
        return 0, ["none"], None, ["none"]
    k, total = result
    p = normalize([(k, total)])
    return 0, [render(p)], {"index": k, "exponent": str(total)}, [render(p, "latex")]


def _cmd_solve(args) -> _Result:
    pair = _PAIR_RE.fullmatch(args.indices)
    if pair is None:
        raise ValueError(f"--indices expects two integers like 5,2, got {args.indices!r}")
    i, j = map(_integer, pair.groups())
    w1, w2 = solve_rational_weights(i, j, args.target, args.total)
    sources = [(b, w) for b, w in ((i, w1), (j, w2)) if w != 0]
    lhs_text = " * ".join(f"a{b}^{_weight_text(w)}" for b, w in sources) or "1"
    rhs_text = f"a{args.target}^{_weight_text(args.total)}" if args.total != 0 else "1"
    text = f"{lhs_text} = {rhs_text}"
    ident = Identity(normalize(sources), normalize([(args.target, args.total)]))
    payload = {"w1": str(w1), "w2": str(w2), "identity": text}
    return 0, [text], payload, [render_identity(ident, "latex")]


def _cmd_eval(args) -> _Result:
    p = parse_product(args.product)
    l = args.max_index if args.max_index is not None else max(p.max_index(), 1)
    value = evaluate(p, SequenceSpec(args.a1, args.r, l))
    return 0, [repr(value)], {"value": value}, [repr(value)]


def _error(fmt: str, quiet: bool, diagnostic: str, payload: dict) -> int:
    """The one error path: ``diagnostic`` to stderr, ``{"error": payload}`` under json."""
    sys.stderr.write(diagnostic)
    if fmt == "json" and not quiet:
        print(json.dumps({"error": payload}))
    return 2


def main(argv: list[str] | None = None) -> int:
    flags, parser = _build_parsers()
    fmt, quiet = "text", False
    try:
        known, rest = flags.parse_known_args(argv)
        fmt, quiet = known.format, known.quiet
        args = parser.parse_args(rest)
        args.format, args.quiet = fmt, quiet
        code, lines, payload, latex = args.run(args)
    except _HelpRequested as exc:
        text = exc.args[0].format_help()
        lines = [text.removesuffix("\n")]  # print() adds the newline back
        code, payload, latex = 0, {"help": text}, lines
    except _UsageError as exc:
        failed, message = exc.args
        if failed is flags:  # e.g. --format xml, reported under the root usage
            failed = parser
        # stderr as argparse writes it
        usage = f"{failed.format_usage()}{failed.prog}: error: {message}\n"
        return _error(fmt, quiet, usage, {"message": message})
    except ParseError as exc:
        where = {"position": exc.position, "expected": exc.expected, "found": exc.found}
        return _error(fmt, quiet, f"geomprod: {exc}\n", where)
    except (OverflowError, ValueError) as exc:
        return _error(fmt, quiet, f"geomprod: {exc}\n", {"message": str(exc)})
    except Exception as exc:  # a fault in geomprod: exit 2, never 1 ("refuted")
        kind = type(exc).__name__
        diagnostic = f"geomprod: internal error: {kind}: {exc}\n"
        return _error(fmt, quiet, diagnostic, {"kind": kind, "message": str(exc)})
    if quiet:
        return code
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for line in latex if fmt == "latex" else lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
