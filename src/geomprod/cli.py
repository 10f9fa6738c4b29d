"""Command-line front end.

Exit codes: 0 for success (including a verified identity and feasible-but-
empty listings), 1 for a refuted identity, 2 for usage, parse or domain
errors.  ``--format json`` emits one JSON document on stdout on every code
path, errors included; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .identities import (
    FamilyQuery,
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


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


class _UsageError(Exception):
    """An argparse error; ``args`` is (the parser that failed, the message)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Hands usage errors to :func:`main` instead of exiting; subparsers inherit this."""

    def error(self, message: str):
        raise _UsageError(self, message)


class _Emitter:
    def __init__(self, fmt: str, quiet: bool):
        self.fmt = fmt
        self.quiet = quiet

    def result(self, text_lines, json_obj, latex_lines=None) -> None:
        if self.quiet:
            return
        if self.fmt == "json":
            print(json.dumps(json_obj))
        elif self.fmt == "latex":
            for line in latex_lines if latex_lines is not None else text_lines:
                print(line)
        else:
            for line in text_lines:
                print(line)

    def error(self, message: str, payload: dict) -> None:
        if self.fmt == "json" and not self.quiet:
            print(json.dumps({"error": payload}))
        print(f"geomprod: {message}", file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    default = argparse.SUPPRESS if suppress else "text"
    parser.add_argument(
        "--format",
        choices=_FORMATS,
        default=default,
        help="output format" if not suppress else argparse.SUPPRESS,
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="suppress stdout, keep exit codes" if not suppress else argparse.SUPPRESS,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="geomprod",
        description="Exact identities for products of geometric-sequence terms.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        return p

    p = command("check", "verify an identity symbolically (and optionally numerically)")
    p.add_argument("identity", help='e.g. "a4*a3 = a6*a1"')
    p.add_argument("--trials", type=int, default=None, help="also run the numeric check")
    p.add_argument("--seed", type=int, default=0, help="numeric check seed")

    p = command("canon", "canonical form and signature of a product")
    p.add_argument("product", help='e.g. "a4*a3^(1/2)"')

    p = command("family", "list index multisets with a given size and subscript sum")
    p.add_argument("--t", type=int, required=True, help="terms per product")
    p.add_argument("--sum", type=int, required=True, help="target subscript sum")
    p.add_argument("--max-index", type=int, required=True, help="largest usable index")
    p.add_argument("--repetition", action="store_true", help="allow repeated indices")

    p = command("decompose", "weighted power forms matching a signature")
    p.add_argument("--t", type=int, required=True, help="total weight")
    p.add_argument("--sum", type=int, required=True, help="target subscript sum")
    p.add_argument("--parts", type=int, required=True, help="number of distinct bases")
    p.add_argument("--max-index", type=int, required=True, help="largest usable index")

    p = command("collapse", "express a product as a power of one term, if possible")
    p.add_argument("product")

    p = command("solve", "rational weights sending two terms onto a power of a third")
    p.add_argument("--indices", required=True, metavar="I,J", help="source indices")
    p.add_argument("--target", type=int, required=True, help="target index")
    p.add_argument("--total", type=_fraction_arg, required=True, help="target exponent, e.g. 3/2")

    p = command("eval", "evaluate a product on a concrete sequence")
    p.add_argument("product")
    p.add_argument("--a1", type=float, required=True, help="first term (positive)")
    p.add_argument("--r", type=float, required=True, help="common ratio (positive)")
    p.add_argument("--max-index", type=int, default=None, help="sequence length (default: inferred)")

    return parser


def _numeric_line(report: CheckReport) -> str:
    return (
        f"numeric: {report.verdict} (trials={report.trials}, "
        f"max_rel_error={report.max_rel_error:.3g}, skipped={report.skipped})"
    )


def _weight_text(w: Fraction) -> str:
    return str(w) if w.denominator == 1 else f"({w})"


def _cmd_check(args, emit: _Emitter) -> int:
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
    emit.result(lines, payload, latex)
    return 0 if verdict.verified else 1


def _cmd_canon(args, emit: _Emitter) -> int:
    p = parse_product(args.product)
    sig = signature(p)
    sig_line = f"signature: T={sig.total}, S={sig.weighted_sum}"
    lines = [f"canonical: {render(p)}", sig_line]
    latex = [f"canonical: {render(p, 'latex')}", sig_line]
    payload = {
        "canonical": render(p),
        "signature": sig.to_json_dict(),
        **p.to_json_dict(),
    }
    emit.result(lines, payload, latex)
    return 0


def _cmd_family(args, emit: _Emitter) -> int:
    query = FamilyQuery(args.t, args.sum, args.max_index, args.repetition)
    families = enumerate_family(query)
    lines = ["+".join(str(i) for i in member) for member in families]
    emit.result(lines, [list(member) for member in families])
    return 0


def _cmd_decompose(args, emit: _Emitter) -> int:
    results = decompose(args.t, args.sum, args.parts, args.max_index)
    products = [d.to_product() for d in results]
    lines = [render(p) for p in products]
    latex = [render(p, "latex") for p in products]
    emit.result(lines, [d.to_json_dict() for d in results], latex)
    return 0


def _cmd_collapse(args, emit: _Emitter) -> int:
    result = collapse(parse_product(args.product))
    if result is None:
        emit.result(["none"], None, ["none"])
        return 0
    k, total = result
    p = normalize([(k, total)])
    emit.result(
        [render(p)],
        {"index": k, "exponent": str(total)},
        [render(p, "latex")],
    )
    return 0


def _cmd_solve(args, emit: _Emitter) -> int:
    try:
        i_text, j_text = args.indices.split(",")
        i, j = int(i_text), int(j_text)
    except ValueError:
        raise ValueError(f"--indices expects two integers like 5,2, got {args.indices!r}")
    w1, w2 = solve_rational_weights(i, j, args.target, args.total)
    sources = [(b, w) for b, w in ((i, w1), (j, w2)) if w != 0]
    lhs_text = " * ".join(f"a{b}^{_weight_text(w)}" for b, w in sources) or "1"
    rhs_text = f"a{args.target}^{_weight_text(args.total)}" if args.total != 0 else "1"
    text = f"{lhs_text} = {rhs_text}"
    lhs_latex = " \\cdot ".join(f"a_{{{b}}}^{{{w}}}" for b, w in sources) or "1"
    rhs_latex = f"a_{{{args.target}}}^{{{args.total}}}" if args.total != 0 else "1"
    payload = {"w1": str(w1), "w2": str(w2), "identity": text}
    emit.result([text], payload, [f"{lhs_latex} = {rhs_latex}"])
    return 0


def _cmd_eval(args, emit: _Emitter) -> int:
    p = parse_product(args.product)
    l = args.max_index if args.max_index is not None else max(p.max_index(), 1)
    value = evaluate(p, SequenceSpec(args.a1, args.r, l))
    emit.result([repr(value)], {"value": value})
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "canon": _cmd_canon,
    "family": _cmd_family,
    "decompose": _cmd_decompose,
    "collapse": _cmd_collapse,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
}


def _output_flags(argv: list[str] | None) -> tuple[str, bool]:
    """``--format`` and ``--quiet`` wherever argv gives them, for a usage error."""
    flags = _ArgumentParser(add_help=False)
    _add_common(flags, suppress=False)
    try:
        known, _ = flags.parse_known_args(argv)
    except _UsageError:  # e.g. --format xml
        return "text", False
    return known.format, known.quiet


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except _UsageError as exc:
        failed, message = exc.args
        # stderr as argparse writes it; stdout keeps the one-JSON-document rule
        failed.print_usage(sys.stderr)
        print(f"{failed.prog}: error: {message}", file=sys.stderr)
        fmt, quiet = _output_flags(argv)
        if fmt == "json" and not quiet:
            print(json.dumps({"error": {"message": message}}))
        return 2
    emit = _Emitter(args.format, args.quiet)
    try:
        return _COMMANDS[args.command](args, emit)
    except ParseError as exc:
        emit.error(
            str(exc),
            {"position": exc.position, "expected": exc.expected, "found": exc.found},
        )
        return 2
    except (OverflowError, ValueError) as exc:
        emit.error(str(exc), {"message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
