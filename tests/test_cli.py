"""Command-line interface: subcommands, formats, exit codes."""

import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import pytest

from geomprod import FamilyQuery, cli, decompose, enumerate_family, render

from .support import run_cli


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


class TestCheck:
    def test_verified(self):
        code, out, _ = run_cli(["check", "a4*a3 = a6*a1"])
        assert code == 0
        assert out == "verified: T=2, S=7 on both sides\n"

    def test_refuted(self):
        code, out, _ = run_cli(["check", "a3*a4 = a5*a1"])
        assert code == 1
        assert out == "refuted: lhs T=2, S=7; rhs T=2, S=6\n"

    def test_fractional(self):
        code, _, _ = run_cli(["check", "a5 * a2^(1/2) = a4^(3/2)"])
        assert code == 0

    def test_with_numeric_trials(self):
        code, out, _ = run_cli(
            ["check", "a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)", "--trials", "200"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("verified: T=6+6*pi, S=36+18*pi")
        assert lines[1].startswith("numeric: pass (trials=200,")

    def test_json_round_trips(self):
        code, out, _ = run_cli(
            ["--format", "json", "check", "a4*a3 = a6*a1", "--trials", "50"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "verified"
        assert doc["lhs_signature"] == {"total": "2", "weighted_sum": "7"}
        assert doc["numeric"]["verdict"] == "pass"

    def test_exponent_beyond_float_range(self):
        huge = "1" + "0" * 400
        argv = ["check", f"a2^{huge} = a2^{huge}", "--trials", "10"]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out.startswith("verified: ")
        assert out.endswith("\nnumeric: unstable (trials=10, max_rel_error=0, skipped=10)\n")
        code, out, _ = run_cli(["--format", "json"] + argv)
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "verified"
        assert doc["numeric"] == {
            "verdict": "unstable", "trials": 10, "max_rel_error": 0.0, "skipped": 10
        }

    def test_index_beyond_float_range_prints_valid_json(self):
        # (i-1)*ln r overflows before the tiny exponent scales it; the
        # report must not carry a NaN, which RFC 8259 JSON cannot hold
        term = f"a{17 * 10**307}^(1/{10**308})"
        argv = ["--format", "json", "check", f"{term} = {term}", "--trials", "100"]
        code, out, _ = run_cli(argv)
        doc = json.loads(out, parse_constant=_reject_constant)
        assert code == 0 and doc["verdict"] == "verified"
        assert doc["numeric"] == {
            "verdict": "unstable", "trials": 100, "max_rel_error": 0.0, "skipped": 100
        }

    def test_ten_million_trials_in_constant_memory(self):
        import numpy  # noqa: F401  (its import is not what this measures)

        tracemalloc.start()
        try:
            code, out, _ = run_cli(["--format", "json", "check", "a3 = a3", "--trials", "10000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        numeric = json.loads(out)["numeric"]
        assert numeric["verdict"] == "pass" and numeric["trials"] == 10_000_000
        assert peak < 8 * 2**20

    def test_negative_seed_exits_2(self):
        argv = ["--format", "json", "check", "a4*a3 = a6*a1", "--trials", "10", "--seed", "-1"]
        code, out, err = run_cli(argv)
        assert code == 2
        assert json.loads(out) == {"error": {"message": "seed must be >= 0, got -1"}}
        assert err == "geomprod: seed must be >= 0, got -1\n"

    def test_parse_error_exits_2(self):
        code, _, err = run_cli(["check", "a4*a3 == a6"])
        assert code == 2
        assert "parse error" in err

    def test_invalid_index_exits_2(self):
        code, _, err = run_cli(["check", "a0 = a1"])
        assert code == 2
        assert "index" in err


class TestCanon:
    def test_text(self):
        code, out, _ = run_cli(["canon", "a4*a3"])
        assert code == 0
        assert out == "canonical: a3*a4\nsignature: T=2, S=7\n"

    def test_latex(self):
        code, out, _ = run_cli(["canon", "a4*a3", "--format", "latex"])
        assert code == 0
        assert out.splitlines()[0] == "canonical: a_{3} \\cdot a_{4}"

    def test_json(self):
        code, out, _ = run_cli(["--format", "json", "canon", "a3^(6pi)"])
        doc = json.loads(out)
        assert code == 0
        assert doc["canonical"] == "a3^(6*pi)"
        assert doc["factors"] == [{"index": 3, "exp": {"rat": "0", "pi": "6"}}]


class TestFamily:
    def test_text_lines(self):
        code, out, _ = run_cli(["family", "--t", "2", "--sum", "7", "--max-index", "6"])
        assert code == 0
        assert out.splitlines() == ["1+6", "2+5", "3+4"]

    def test_json(self):
        code, out, _ = run_cli(
            ["family", "--t", "2", "--sum", "7", "--max-index", "6", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == [[1, 6], [2, 5], [3, 4]]

    def test_infeasible_is_empty_success(self):
        code, out, _ = run_cli(["family", "--t", "2", "--sum", "1", "--max-index", "6"])
        assert code == 0
        assert out == ""

    def test_repetition_flag(self):
        code, out, _ = run_cli(
            ["family", "--t", "3", "--sum", "12", "--max-index", "8", "--repetition"]
        )
        assert code == 0
        assert len(out.splitlines()) == 10

    def test_invalid_query_exits_2(self):
        code, _, _ = run_cli(["family", "--t", "0", "--sum", "7", "--max-index", "6"])
        assert code == 2

    def test_deep_repetition_json(self):
        code, out, _ = run_cli(
            [
                "--format", "json",
                "family", "--t", "1200", "--sum", "1200", "--max-index", "1200",
                "--repetition",
            ]
        )
        assert code == 0
        assert json.loads(out) == [[1] * 1200]


    def test_builds_only_the_format_asked_for(self):
        query = dict(t=3, sum=12, max_index=8, repetition=True)
        for fmt, quiet, built in [
            ("text", False, (True, False, True)),
            ("latex", False, (True, False, True)),
            ("json", False, (False, True, False)),
            ("json", True, (False, False, False)),
            ("text", True, (False, False, False)),
        ]:
            code, lines, payload, latex = cli._cmd_family(Namespace(**query, format=fmt, quiet=quiet))
            assert code == 0 and (bool(lines), payload is not None, bool(latex)) == built, (fmt, quiet)

    def test_empty_listing_builds_nothing_for_a_large_t(self):
        # an infeasible query returns at once; its output must not grow with t
        args = Namespace(t=10**7, sum=1, max_index=6, repetition=False, quiet=False)
        tracemalloc.start()
        try:
            for fmt, payload in (("text", None), ("latex", None), ("json", [])):
                assert cli._cmd_family(Namespace(**vars(args), format=fmt)) == (0, [], payload, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # The handler spells each row through one format string per query; it
    # must match "+".join of the indices and json.dumps of the rows as
    # lists, over every query of the t <= 7, l <= 10 grid.
    def test_formats_match_the_rows(self):
        for t in range(1, 8):
            for l in range(1, 11):
                for s in range(1, t * l + 1):
                    for rep in (False, True):
                        rows = enumerate_family(FamilyQuery(t, s, l, rep))
                        text = ["+".join(str(i) for i in row) for row in rows]
                        for fmt in ("text", "latex", "json"):
                            args = Namespace(t=t, sum=s, max_index=l, repetition=rep, format=fmt, quiet=False)
                            _, lines, payload, latex = cli._cmd_family(args)
                            if fmt == "json":
                                assert json.dumps(payload) == json.dumps([list(r) for r in rows])
                            else:
                                assert (lines, latex) == (text, text), (t, s, l, rep, fmt)


class TestDecompose:
    def test_text(self):
        code, out, _ = run_cli(
            ["decompose", "--t", "2", "--sum", "8", "--parts", "1", "--max-index", "8"]
        )
        assert code == 0
        assert out == "a4^(2)\n"

    def test_json(self):
        code, out, _ = run_cli(
            [
                "--format", "json",
                "decompose", "--t", "3", "--sum", "12", "--parts", "2", "--max-index", "8",
            ]
        )
        assert code == 0
        assert json.loads(out) == [
            {"parts": [{"index": 2, "weight": 1}, {"index": 5, "weight": 2}]},
            {"parts": [{"index": 2, "weight": 2}, {"index": 8, "weight": 1}]},
            {"parts": [{"index": 3, "weight": 2}, {"index": 6, "weight": 1}]},
        ]

    def test_deep_json(self):
        code, out, _ = run_cli(
            [
                "--format", "json",
                "decompose", "--t", "1200", "--sum", "720600", "--parts", "1200",
                "--max-index", "1200",
            ]
        )
        assert code == 0
        assert json.loads(out) == [
            {"parts": [{"index": b, "weight": 1} for b in range(1, 1201)]}
        ]

    # The handler writes each format straight from the int pairs; it must
    # match the reference path, every row rendered as a product, over every
    # query of the t <= 7, l <= 10 grid.
    def test_formats_match_rendered_products(self):
        for t in range(1, 8):
            for l in range(1, 11):
                for s in range(1, t * l + 1):
                    for parts in range(1, t + 1):
                        rows = decompose(t, s, parts, l)
                        products = [d.to_product() for d in rows]
                        expected = {
                            "text": [render(p) for p in products],
                            "latex": [render(p, "latex") for p in products],
                            "json": [d.to_json_dict() for d in rows],
                        }
                        for fmt, want in expected.items():
                            args = Namespace(t=t, sum=s, parts=parts, max_index=l, format=fmt, quiet=False)
                            _, lines, payload, latex = cli._cmd_decompose(args)
                            got = {"text": lines, "latex": latex, "json": payload}[fmt]
                            assert got == want, (t, s, parts, l, fmt)

    def test_builds_only_the_format_asked_for(self):
        query = dict(t=3, sum=12, parts=2, max_index=8)
        for fmt, quiet, built in [
            ("text", False, (True, False, True)),
            ("latex", False, (True, False, True)),
            ("json", False, (False, True, False)),
            ("json", True, (False, False, False)),
            ("text", True, (False, False, False)),
        ]:
            code, lines, payload, latex = cli._cmd_decompose(Namespace(**query, format=fmt, quiet=quiet))
            assert code == 0 and (bool(lines), payload is not None, bool(latex)) == built, (fmt, quiet)


class TestCollapse:
    def test_collapses(self):
        code, out, _ = run_cli(["collapse", "a3*a5"])
        assert code == 0
        assert out == "a4^(2)\n"

    def test_none(self):
        code, out, _ = run_cli(["collapse", "a2*a5"])
        assert code == 0
        assert out == "none\n"

    def test_json_none_is_null(self):
        code, out, _ = run_cli(["--format", "json", "collapse", "a2*a5"])
        assert code == 0
        assert json.loads(out) is None


class TestSolve:
    def test_reference_output(self):
        code, out, _ = run_cli(
            ["solve", "--indices", "5,2", "--target", "4", "--total", "3/2"]
        )
        assert code == 0
        assert out == "a5^1 * a2^(1/2) = a4^(3/2)\n"

    def test_json(self):
        code, out, _ = run_cli(
            ["--format", "json", "solve", "--indices", "2,8", "--target", "5", "--total", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["w1"] == "1" and doc["w2"] == "1"

    def test_no_solution_exits_2(self):
        code, _, err = run_cli(
            ["solve", "--indices", "3,3", "--target", "5", "--total", "2"]
        )
        assert code == 2
        assert "cannot reach" in err

    def test_malformed_indices(self):
        code, _, _ = run_cli(["solve", "--indices", "5", "--target", "4", "--total", "1"])
        assert code == 2

    @pytest.mark.parametrize("indices", ["5,2,1", "\uff15,2", "5, 2", "+5,2", "5,2_0", "5,"])
    def test_indices_read_the_integer_syntax(self, indices):
        code, out, err = run_cli(["--format", "json", "solve", "--indices", indices, "--target", "4", "--total", "1"])
        message = f"--indices expects two integers like 5,2, got {indices!r}"
        assert (code, json.loads(out), err) == (2, {"error": {"message": message}}, f"geomprod: {message}\n")

    def test_overlong_integer_options_name_the_limit(self):
        limit = sys.get_int_max_str_digits()
        for argv, message in [
            (["family", "--t", "2", "--sum", "9" * 5000, "--max-index", "6"],
             f"argument --sum: cannot interpret 5000 digits as an integer (expected at most {limit} digits)"),
            (["solve", "--indices", "5,-" + "9" * 5000, "--target", "4", "--total", "1"],
             f"cannot interpret 5000 digits as an integer (expected at most {limit} digits)"),
        ]:
            code, out, _ = run_cli(["--format", "json"] + argv)
            assert (code, json.loads(out)) == (2, {"error": {"message": message}})
            assert len(message) < 200

    def test_total_in_exponent_notation_is_refused_at_once(self):
        # Fraction alone would build a billion-digit integer from this
        proc = subprocess.run(
            [sys.executable, "-m", "geomprod", "solve", "--indices", "5,2", "--target", "4", "--total", "1e999999999"],
            capture_output=True, text=True, env=_child_env(), timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "argument --total: cannot interpret '1e999999999' as a rational number" in proc.stderr


class TestEval:
    def test_value(self):
        code, out, _ = run_cli(["eval", "a3*a4", "--a1", "1", "--r", "2"])
        assert code == 0
        assert out == "32.0\n"

    def test_json(self):
        code, out, _ = run_cli(["--format", "json", "eval", "a3*a4", "--a1", "1", "--r", "2"])
        assert json.loads(out) == {"value": 32.0}

    # One power underflows, goes subnormal or overflows although the product
    # is in range; the exact value is a1^2 * r^997.
    @pytest.mark.parametrize(
        "a1, r, exact",
        [
            ("1e-200", "2", Fraction(2**997, 10**400)),
            ("1e-160", "2", Fraction(2**997, 10**320)),
            ("1e200", "0.5", Fraction(10**400, 2**997)),
        ],
        ids=["underflow", "subnormal", "overflow"],
    )
    def test_intermediate_out_of_range(self, a1, r, exact):
        code, out, err = run_cli(["eval", "a500*a499", "--a1", a1, "--r", r])
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize(
        "a1, message",
        [("1e-200", "left the finite positive range"), ("1e200", "product overflowed")],
    )
    def test_value_out_of_range_exits_2(self, a1, message):
        code, _, err = run_cli(["eval", "a1^1000", "--a1", a1, "--r", "2"])
        assert code == 2 and message in err

    def test_explicit_short_length_exits_2(self):
        code, _, err = run_cli(
            ["eval", "a3*a4", "--a1", "1", "--r", "2", "--max-index", "3"]
        )
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize(
        "a1, r, value",
        [
            ("1.5", "2", "6.0"), ("15e-1", "2E0", "6.0"), ("0.15e+1", "2.0", "6.0"), ("-1.5", "2", None),
            ("0", "2", None), ("0.00e-400", "2", None), ("1e-310", "1", "1e-310"),
        ],
    )
    def test_float_options_read_the_float_syntax(self, a1, r, value):
        code, out, err = run_cli(["eval", "a3", "--a1", a1, "--r", r])
        if value is None:  # read, then refused by evaluate; a zero literal is in range
            assert (code, out, err) == (2, "", "geomprod: evaluation requires a1 > 0 and r > 0\n")
        else:
            assert (code, out, err) == (0, f"{value}\n", "")


class TestContract:
    def test_usage_error_exits_2(self):
        assert run_cli([])[0] == 2
        assert run_cli(["frobnicate"])[0] == 2
        assert run_cli(["family", "--t", "2"])[0] == 2

    # A fault inside a handler is an internal error: exit 2, never 1
    # ("refuted"), one diagnostic line and one JSON document.
    @pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("too deep")])
    def test_internal_error_exits_2(self, monkeypatch, error):
        def broken(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_check", broken)
        kind = type(error).__name__
        diagnostic = f"geomprod: internal error: {kind}: {error}\n"
        assert run_cli(["check", "a3 = a3"]) == (2, "", diagnostic)
        code, out, err = run_cli(["--format", "json", "check", "a3 = a3"])
        assert (code, err) == (2, diagnostic)
        assert json.loads(out) == {"error": {"kind": kind, "message": str(error)}}
        assert out.count("\n") == 1
        assert run_cli(["--quiet", "--format", "json", "check", "a3 = a3"]) == (2, "", diagnostic)

    def test_byte_identical_reruns(self):
        argv = ["check", "a2*a8 = a5^2", "--trials", "100", "--seed", "9"]
        assert run_cli(argv) == run_cli(argv)

    def test_quiet_suppresses_stdout(self):
        code, out, _ = run_cli(["check", "a4*a3 = a6*a1", "--quiet"])
        assert code == 0 and out == ""
        code, out, _ = run_cli(["--quiet", "check", "a3*a4 = a5*a1"])
        assert code == 1 and out == ""

    def test_format_flag_position_is_free(self):
        before = run_cli(["--format", "json", "canon", "a4"])
        after = run_cli(["canon", "a4", "--format", "json"])
        assert before == after

    def test_json_is_valid_on_every_subcommand(self):
        cases = [
            ["check", "a4*a3 = a6*a1"],
            ["check", "a3*a4 = a5*a1"],
            ["canon", "a4"],
            ["family", "--t", "2", "--sum", "7", "--max-index", "6"],
            ["decompose", "--t", "2", "--sum", "8", "--parts", "1", "--max-index", "8"],
            ["collapse", "a3*a5"],
            ["collapse", "a2*a5"],
            ["solve", "--indices", "5,2", "--target", "4", "--total", "3/2"],
            ["eval", "a3*a4", "--a1", "1", "--r", "2"],
            ["check", "a4*(bad"],  # error path still emits one JSON document
        ]
        for argv in cases:
            _, out, _ = run_cli(["--format", "json"] + argv)
            json.loads(out)

    # Usage errors keep argparse's stderr and exit code 2; under --format json
    # stdout also carries one {"error": {"message": ...}} document.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["family", "--t", "x", "--sum", "3", "--max-index", "4"], "argument --t: invalid int value: 'x'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["solve", "--indices", "5,2", "--target", "4", "--total", "1/0"], "argument --total: Fraction(1, 0)"),
            ([], "the following arguments are required: command"),
            (["canon"], "the following arguments are required: product"),
            (["canon", "a3", "--zz"], "unrecognized arguments: --zz"),
            (
                ["solve", "--indices", "5,2", "--target", "4", "--total", "1e3"],
                "argument --total: cannot interpret '1e3' as a rational number",
            ),
            pytest.param(
                ["solve", "--indices", "5,2", "--target", "4", "--total", "9" * 5000],
                "argument --total: cannot interpret 5000 digits as a rational number "
                f"(expected an integer of at most {sys.get_int_max_str_digits()} digits)",
                id="overlong-total",
            ),
            # integer options read an optional "-" and ASCII digits, nothing else
            (["family", "--t", "1_0", "--sum", "55", "--max-index", "10"], "argument --t: invalid int value: '1_0'"),
            (
                ["decompose", "--t", "2", "--sum", "8", "--parts", "1", "--max-index", "\uff18"],
                "argument --max-index: invalid int value: '\uff18'",
            ),
            (["family", "--t", " 3", "--sum", "7", "--max-index", "6"], "argument --t: invalid int value: ' 3'"),
            (["family", "--t", "+3", "--sum", "7", "--max-index", "6"], "argument --t: invalid int value: '+3'"),
            (["check", "a4*a3 = a6*a1", "--trials", "1_000"], "argument --trials: invalid int value: '1_000'"),
            (["decompose", "--t", "2", "--sum", "8", "--parts", "1 ", "--max-index", "8"], "argument --parts: invalid int value: '1 '"),
            (["check", "a4*a3 = a6*a1", "--seed", "+1"], "argument --seed: invalid int value: '+1'"),
            (["solve", "--indices", "5,2", "--target", "4_0", "--total", "1"], "argument --target: invalid int value: '4_0'"),
            (["eval", "a3", "--a1", "1", "--r", "2", "--max-index", "\uff11"], "argument --max-index: invalid int value: '\uff11'"),
            pytest.param(
                ["family", "--t", "2", "--sum", "9" * 5000, "--max-index", "6"],
                "argument --sum: cannot interpret 5000 digits as an integer "
                f"(expected at most {sys.get_int_max_str_digits()} digits)",
                id="overlong-sum",
            ),
            # float options read an optional "-", ASCII digits, an optional
            # "." fraction and "e" exponent, nothing else
            (["eval", "a3", "--a1", "1_5", "--r", "2"], "argument --a1: invalid float value: '1_5'"),
            (["eval", "a3", "--a1", "\uff11.\uff15", "--r", "2"], "argument --a1: invalid float value: '\uff11.\uff15'"),
            (["eval", "a3", "--a1", "+1.5", "--r", "2"], "argument --a1: invalid float value: '+1.5'"),
            (["eval", "a3", "--a1", "1.5 ", "--r", "2"], "argument --a1: invalid float value: '1.5 '"),
            (["eval", "a3", "--a1", "1", "--r", "inf"], "argument --r: invalid float value: 'inf'"),
            (["eval", "a3", "--a1", "1", "--r", "nan"], "argument --r: invalid float value: 'nan'"),
            (["eval", "a3", "--a1", "1", "--r", ".5"], "argument --r: invalid float value: '.5'"),
            (["eval", "a3", "--a1", "1", "--r", "2e"], "argument --r: invalid float value: '2e'"),
            # and a literal beyond the float range is refused, not rounded
            # to an infinity or to zero
            (["eval", "a3", "--a1", "1e999", "--r", "2"], "argument --a1: 1e999 is beyond the float range"),
            (["eval", "a3", "--a1=-1e999", "--r", "2"], "argument --a1: -1e999 is beyond the float range"),
            (["eval", "a3", "--a1", "1", "--r", "2.5E308"], "argument --r: 2.5E308 is beyond the float range"),
            (["eval", "a3", "--a1", "1e-400", "--r", "2"], "argument --a1: 1e-400 is beyond the float range"),
            (["eval", "a3", "--a1", "1", "--r", "00.0010e-330"], "argument --r: 00.0010e-330 is beyond the float range"),
        ],
    )
    def test_usage_errors(self, argv, message):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: geomprod") and f"error: {message}" in err
        for json_argv in (["--format", "json"] + argv, argv + ["--format", "json"]):
            code, out, json_err = run_cli(json_argv)
            doc = json.loads(out)
            assert code == 2 and json_err == err
            assert list(doc) == ["error"] and list(doc["error"]) == ["message"]
            assert doc["error"]["message"].startswith(message)
            assert err.endswith(f"error: {doc['error']['message']}\n")
        assert run_cli(["--format", "json", "--quiet"] + argv) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, json_argv",
        [
            (["--help"], ["--format", "json", "--help"]),
            (["check", "--help"], ["check", "--help", "--format", "json"]),
        ],
    )
    def test_help_follows_output_flags(self, argv, json_argv):
        code, text, err = run_cli(argv)
        assert (code, err) == (0, "") and text.startswith("usage: geomprod")
        code, out, err = run_cli(json_argv)
        doc = json.loads(out)
        assert (code, err) == (0, "")
        assert list(doc) == ["help"] and doc["help"] == text
        assert run_cli(["--quiet"] + argv) == (0, "", "")

    def test_bad_format_after_subcommand_is_reported_first(self):
        code, out, err = run_cli(["canon", "a4", "--format", "xml"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: geomprod [-h]")
        assert "\ngeomprod: error: argument --format: invalid choice: 'xml'" in err

    def test_double_dash_before_positional(self):
        assert run_cli(["check", "--", "a4*a3 = a6*a1"]) == (
            0, "verified: T=2, S=7 on both sides\n", ""
        )

    def test_overlong_integer_json_fields(self):
        code, out, err = run_cli(["--format", "json", "canon", "a" + "9" * 5000])
        assert code == 2
        assert json.loads(out) == {
            "error": {
                "position": 1,
                "expected": f"an integer of at most {sys.get_int_max_str_digits()} digits",
                "found": "5000 digits",
            }
        }
        assert err.startswith("geomprod: parse error at position 1:")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geomprod", "check", "a4*a3 = a6*a1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("verified:")


def _child_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _counting():
    """``perfbench/counting.py``: row counts computed without geomprod."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "counting.py"
    spec = importlib.util.spec_from_file_location("perfbench_counting", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numeric_pass(trials: int):
    return lambda doc: doc["numeric"]["verdict"] == "pass" and doc["numeric"]["trials"] == trials


def _decompose_rows(n: int, *query: int):
    return lambda doc: len(doc) == n == _counting().decompose_count(*query)


def _family_rows(n: int, *query):
    return lambda doc: len(doc) == n == _counting().family_count(*query)


_JSON = ["-m", "geomprod", "--format", "json"]
_DECOMPOSE = [*_JSON, "decompose", "--t"]
_FAMILY = [*_JSON, "family", "--t"]

# One child interpreter per row: its arguments, its exit code, and a check
# on the one JSON document it prints (None: the exit code alone).
_CHILD_RUNS = [
    pytest.param(["-m", "geomprod", "check", "a4*a3 = a6*a1"], 0, None, id="check"),
    # a product whose a1^T alone underflows
    pytest.param(
        ["-m", "geomprod", "eval", "a500*a499", "--a1", "1e-200", "--r", "2"], 0, None, id="eval-underflow"
    ),
    # the oracle's tiled short-block path
    pytest.param(
        [*_JSON, "check", "a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)", "--trials", "100"],
        0, lambda doc: doc["numeric"]["verdict"] == "pass", id="numeric-tiled",
    ),
    # three blocks: both generators and every full-block shortcut (the first
    # term into the sum, coefficients of 1 and -1 after it)
    pytest.param(
        [*_JSON, "check", "a1 * a7^-1 = a2 * a8^-1", "--trials", "40000", "--seed", "3"],
        0, _numeric_pass(40000), id="numeric-blocks",
    ),
    # several chunks, drawn on a worker thread on two or more CPUs, ending
    # in a short block
    pytest.param(
        [*_JSON, "check", "a1 * a7^-1 = a2 * a8^-1", "--trials", "300000", "--seed", "3"],
        0, _numeric_pass(300000), id="numeric-chunks",
    ),
    # after a multi-chunk check only the main thread is left
    pytest.param(
        [
            "-c",
            "import threading, geomprod as g; "
            "r = g.numeric_check(g.parse_identity('a2*a8 = a5^2'), g.OracleConfig(trials=600000)); "
            "assert r.verdict == 'pass' and threading.active_count() == 1",
        ],
        0, None, id="numeric-threads-joined",
    ),
    pytest.param([*_JSON, "--help"], 0, lambda doc: True, id="json-help"),
    pytest.param([*_JSON, "bogus"], 2, lambda doc: True, id="json-usage-error"),
    # a dense four-part decompose, and one shaped like the benchmark's (t = 9)
    pytest.param([*_DECOMPOSE, "10", "--sum", "60", "--parts", "4", "--max-index", "12"], 0,
                 _decompose_rows(796, 10, 60, 4, 12), id="decompose-4-parts"),
    pytest.param(
        ["-c", "import gc, geomprod; geomprod.decompose(10, 60, 4, 12); assert gc.isenabled()"],
        0, None, id="decompose-leaves-gc-enabled",
    ),
    pytest.param([*_DECOMPOSE, "9", "--sum", "72", "--parts", "4", "--max-index", "15"], 0,
                 _decompose_rows(1270, 9, 72, 4, 15), id="decompose-4-parts-t9"),
    # t = 5: two walk levels, the second handed to the last pass as a batch
    pytest.param([*_FAMILY, "5", "--sum", "60", "--max-index", "30"], 0,
                 _family_rows(2002, 5, 60, 30, False), id="family-t5"),
    pytest.param([*_FAMILY, "5", "--sum", "60", "--max-index", "30", "--repetition"], 0,
                 _family_rows(3783, 5, 60, 30, True), id="family-t5-repetition"),
    # t = 7: four walk levels
    pytest.param([*_FAMILY, "7", "--sum", "70", "--max-index", "20"], 0,
                 _family_rows(2306, 7, 70, 20, False), id="family-t7"),
    # six parts: four walk levels, the last yielded as a batch of heads;
    # three parts: one level, one batch; two parts: no walk level, one empty
    # head
    pytest.param([*_DECOMPOSE, "10", "--sum", "60", "--parts", "6", "--max-index", "12"], 0,
                 _decompose_rows(3128, 10, 60, 6, 12), id="decompose-6-parts"),
    pytest.param([*_DECOMPOSE, "10", "--sum", "75", "--parts", "3", "--max-index", "15"], 0,
                 _decompose_rows(151, 10, 75, 3, 15), id="decompose-3-parts"),
    pytest.param([*_DECOMPOSE, "10", "--sum", "60", "--parts", "2", "--max-index", "12"], 0,
                 _decompose_rows(10, 10, 60, 2, 12), id="decompose-2-parts"),
    # a zero denominator is an error with its position
    pytest.param([*_JSON, "check", "a3^(1/0) = a3"], 2,
                 lambda doc: doc["error"]["position"] == 6, id="zero-denominator"),
    # an exponent body of several rationals and pi terms
    pytest.param(
        ["-m", "geomprod", "check", "a3^(1/2 + pi - 1/3) * a1^(1/6) = a3^(1/6 + pi) * a1^(1/6)"],
        0, None, id="several-atoms",
    ),
]


@pytest.mark.parametrize("args, code, check", _CHILD_RUNS)
def test_child_process(args, code, check):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == code, proc.stderr
    if check is not None:
        assert check(json.loads(proc.stdout))


# Exact (exit code, stdout, stderr) for every subcommand in each format, plus
# --quiet, a negative total and one error of each kind.  Any change to what the
# CLI prints shows up here as one failing row.
_USAGE_CANON = "usage: geomprod canon [-h] product\n"
_TERM = "a term like 'a3' (or the literal '1')"
_DIGITS = "9" * 5000
_LETTERS = "b" * 5000
# an index past the float range under a tiny exponent
_FAR = f"a{17 * 10**307}^(1/{10**308})"
_FAR_SIG = f'{{"total": "1/{10**308}", "weighted_sum": "17/10"}}'
_GOLDEN = [
    (["check", "a4*a3 = a6*a1"], 0, "verified: T=2, S=7 on both sides\n", ""),
    (
        ["check", "a4*a3 = a6*a1", "--format", "json"],
        0,
        '{"verdict": "verified", "lhs_signature": {"total": "2", "weighted_sum": "7"}, '
        '"rhs_signature": {"total": "2", "weighted_sum": "7"}, "numeric": null}\n',
        "",
    ),
    (
        ["check", "a4*a3 = a6*a1", "--format", "latex"],
        0,
        "a_{3} \\cdot a_{4} = a_{1} \\cdot a_{6}\nverified: T=2, S=7 on both sides\n",
        "",
    ),
    (["check", "a3*a4 = a5*a1"], 1, "refuted: lhs T=2, S=7; rhs T=2, S=6\n", ""),
    (
        ["check", "a3*a4 = a5*a1", "--format", "json"],
        1,
        '{"verdict": "refuted", "lhs_signature": {"total": "2", "weighted_sum": "7"}, '
        '"rhs_signature": {"total": "2", "weighted_sum": "6"}, "numeric": null}\n',
        "",
    ),
    (
        ["check", "a3*a4 = a5*a1", "--format", "latex"],
        1,
        "a_{3} \\cdot a_{4} = a_{1} \\cdot a_{5}\nrefuted: lhs T=2, S=7; rhs T=2, S=6\n",
        "",
    ),
    (["canon", "a4*a3^(1/2)"], 0, "canonical: a3^(1/2)*a4\nsignature: T=3/2, S=11/2\n", ""),
    (
        ["canon", "a4*a3^(1/2)", "--format", "json"],
        0,
        '{"canonical": "a3^(1/2)*a4", "signature": {"total": "3/2", "weighted_sum": "11/2"}, '
        '"factors": [{"index": 3, "exp": {"rat": "1/2", "pi": "0"}}, '
        '{"index": 4, "exp": {"rat": "1", "pi": "0"}}]}\n',
        "",
    ),
    (
        ["canon", "a4*a3^(1/2)", "--format", "latex"],
        0,
        "canonical: a_{3}^{1/2} \\cdot a_{4}\nsignature: T=3/2, S=11/2\n",
        "",
    ),
    (["family", "--t", "2", "--sum", "7", "--max-index", "6"], 0, "1+6\n2+5\n3+4\n", ""),
    (
        ["family", "--t", "2", "--sum", "7", "--max-index", "6", "--format", "json"],
        0,
        "[[1, 6], [2, 5], [3, 4]]\n",
        "",
    ),
    (
        ["family", "--t", "2", "--sum", "7", "--max-index", "6", "--format", "latex"],
        0,
        "1+6\n2+5\n3+4\n",
        "",
    ),
    (
        ["decompose", "--t", "3", "--sum", "12", "--parts", "2", "--max-index", "8"],
        0,
        "a2*a5^(2)\na2^(2)*a8\na3^(2)*a6\n",
        "",
    ),
    (
        ["decompose", "--t", "3", "--sum", "12", "--parts", "2", "--max-index", "8",
         "--format", "json"],
        0,
        '[{"parts": [{"index": 2, "weight": 1}, {"index": 5, "weight": 2}]}, '
        '{"parts": [{"index": 2, "weight": 2}, {"index": 8, "weight": 1}]}, '
        '{"parts": [{"index": 3, "weight": 2}, {"index": 6, "weight": 1}]}]\n',
        "",
    ),
    (
        ["decompose", "--t", "3", "--sum", "12", "--parts", "2", "--max-index", "8",
         "--format", "latex"],
        0,
        "a_{2} \\cdot a_{5}^{2}\na_{2}^{2} \\cdot a_{8}\na_{3}^{2} \\cdot a_{6}\n",
        "",
    ),
    (["collapse", "a3*a5"], 0, "a4^(2)\n", ""),
    (["collapse", "a3*a5", "--format", "json"], 0, '{"index": 4, "exponent": "2"}\n', ""),
    (["collapse", "a3*a5", "--format", "latex"], 0, "a_{4}^{2}\n", ""),
    (["collapse", "a2*a5"], 0, "none\n", ""),
    (["collapse", "a2*a5", "--format", "json"], 0, "null\n", ""),
    (["collapse", "a2*a5", "--format", "latex"], 0, "none\n", ""),
    (
        ["solve", "--indices", "5,2", "--target", "4", "--total", "3/2"],
        0,
        "a5^1 * a2^(1/2) = a4^(3/2)\n",
        "",
    ),
    (
        ["solve", "--indices", "5,2", "--target", "4", "--total", "3/2", "--format", "json"],
        0,
        '{"w1": "1", "w2": "1/2", "identity": "a5^1 * a2^(1/2) = a4^(3/2)"}\n',
        "",
    ),
    (
        ["solve", "--indices", "5,2", "--target", "4", "--total", "3/2", "--format", "latex"],
        0,
        "a_{2}^{1/2} \\cdot a_{5} = a_{4}^{3/2}\n",
        "",
    ),
    # a negative total needs the "=" form: argparse reads "-3/2" as an option
    (
        ["solve", "--indices", "5,2", "--target", "4", "--total=-3/2"],
        0,
        "a5^-1 * a2^(-1/2) = a4^(-3/2)\n",
        "",
    ),
    (
        ["solve", "--indices", "5,2", "--target", "4", "--total=-3/2", "--format", "json"],
        0,
        '{"w1": "-1", "w2": "-1/2", "identity": "a5^-1 * a2^(-1/2) = a4^(-3/2)"}\n',
        "",
    ),
    (
        ["solve", "--indices", "5,2", "--target", "4", "--total=-3/2", "--format", "latex"],
        0,
        "a_{2}^{-1/2} \\cdot a_{5}^{-1} = a_{4}^{-3/2}\n",
        "",
    ),
    (["eval", "a3*a4", "--a1", "1", "--r", "2"], 0, "32.0\n", ""),
    (["eval", "a3*a4", "--a1", "1", "--r", "2", "--format", "json"], 0, '{"value": 32.0}\n', ""),
    (["eval", "a3*a4", "--a1", "1", "--r", "2", "--format", "latex"], 0, "32.0\n", ""),
    (["--quiet", "check", "a3*a4 = a5*a1"], 1, "", ""),
    (["--format", "json", "--quiet", "canon", "a4"], 0, "", ""),
    (
        ["check", "a4*a3 == a6"],
        2,
        "",
        "geomprod: parse error at position 7: expected a term like 'a3' (or the literal '1'), "
        "found '='\n",
    ),
    (
        ["--format", "json", "check", "a4*a3 == a6"],
        2,
        '{"error": {"position": 7, "expected": "a term like \'a3\' (or the literal \'1\')", '
        '"found": "\'=\'"}}\n',
        "geomprod: parse error at position 7: expected a term like 'a3' (or the literal '1'), "
        "found '='\n",
    ),
    (
        ["solve", "--indices", "3,3", "--target", "5", "--total", "2"],
        2,
        "",
        "geomprod: equal source indices 3 cannot reach a different target 5\n",
    ),
    # a negative integer option reaches the domain check
    (
        ["family", "--t", "2", "--sum", "-3", "--max-index", "6"],
        2,
        "",
        "geomprod: subscript sum must be >= 1, got -3\n",
    ),
    (
        ["solve", "--indices=-5,2", "--target", "4", "--total", "1"],
        2,
        "",
        "geomprod: index i must be >= 1, got -5\n",
    ),
    (
        ["--format", "json", "solve", "--indices", "3,3", "--target", "5", "--total", "2"],
        2,
        '{"error": {"message": "equal source indices 3 cannot reach a different target 5"}}\n',
        "geomprod: equal source indices 3 cannot reach a different target 5\n",
    ),
    # a digit run past the interpreter's conversion limit is named by length
    (
        ["canon", _DIGITS],
        2,
        "",
        f"geomprod: parse error at position 0: expected {_TERM}, found 5000 digits\n",
    ),
    (
        ["--format", "json", "canon", _DIGITS],
        2,
        f'{{"error": {{"position": 0, "expected": "{_TERM}", "found": "5000 digits"}}}}\n',
        f"geomprod: parse error at position 0: expected {_TERM}, found 5000 digits\n",
    ),
    (
        ["canon", "a3 " + _DIGITS],
        2,
        "",
        "geomprod: parse error at position 3: expected end of input, found 5000 digits\n",
    ),
    (
        ["--format", "json", "canon", "a3 " + _DIGITS],
        2,
        '{"error": {"position": 3, "expected": "end of input", "found": "5000 digits"}}\n',
        "geomprod: parse error at position 3: expected end of input, found 5000 digits\n",
    ),
    # and so is a letter run
    (
        ["canon", "a3 " + _LETTERS],
        2,
        "",
        "geomprod: parse error at position 3: expected end of input, found 5000 letters\n",
    ),
    (
        ["--format", "json", "canon", "a3 " + _LETTERS],
        2,
        '{"error": {"position": 3, "expected": "end of input", "found": "5000 letters"}}\n',
        "geomprod: parse error at position 3: expected end of input, found 5000 letters\n",
    ),
    (
        ["canon", f"a3^({_LETTERS})"],
        2,
        "",
        "geomprod: parse error at position 4: expected 'pi' or a rational, found 5000 letters\n",
    ),
    (
        ["--format", "json", "canon", f"a3^({_LETTERS})"],
        2,
        '{"error": {"position": 4, "expected": "\'pi\' or a rational", "found": "5000 letters"}}\n',
        "geomprod: parse error at position 4: expected 'pi' or a rational, found 5000 letters\n",
    ),
    # an index past the float range is "unstable", not a NaN "fail"
    (
        ["check", f"{_FAR} = {_FAR}", "--trials", "100"],
        0,
        f"verified: T=1/{10**308}, S=17/10 on both sides\n"
        "numeric: unstable (trials=100, max_rel_error=0, skipped=100)\n",
        "",
    ),
    (
        ["--format", "json", "check", f"{_FAR} = {_FAR}", "--trials", "100"],
        0,
        f'{{"verdict": "verified", "lhs_signature": {_FAR_SIG}, "rhs_signature": {_FAR_SIG}, '
        '"numeric": {"verdict": "unstable", "trials": 100, "max_rel_error": 0.0, "skipped": 100}}\n',
        "",
    ),
    (
        ["canon"],
        2,
        "",
        _USAGE_CANON + "geomprod canon: error: the following arguments are required: product\n",
    ),
    (
        ["--format", "json", "canon"],
        2,
        '{"error": {"message": "the following arguments are required: product"}}\n',
        _USAGE_CANON + "geomprod canon: error: the following arguments are required: product\n",
    ),
]


def _golden_id(argv: list[str]) -> str:
    text = " ".join(argv).replace(_DIGITS, "9*5000").replace(_LETTERS, "b*5000")
    return text.replace(_FAR, "a17e307^(1/1e308)")


@pytest.mark.parametrize("argv, code, out, err", _GOLDEN, ids=[_golden_id(g[0]) for g in _GOLDEN])
def test_golden_output(argv, code, out, err):
    assert run_cli(argv) == (code, out, err)
