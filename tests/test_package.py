"""The public surface: names declared once, the README example, picklable types."""

import copy
import pickle
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import geomprod
from geomprod import (
    CheckReport,
    Decomposition,
    DegenerateReport,
    ExactExponent,
    Factor,
    FamilyQuery,
    IndexRangeError,
    InvalidIndexError,
    InvalidShiftError,
    NoSolutionError,
    OracleConfig,
    ParseError,
    SequenceSpec,
    Signature,
    exact,
    identities,
    model,
    normalize,
    oracle,
    parse_identity,
    parsing,
    verify_identity,
)

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [exact, model, identities, parsing, oracle]

PUBLIC_NAMES = [
    "CheckReport", "Decomposition", "DegenerateReport", "ExactExponent", "Factor",
    "FamilyQuery", "Identity", "IndexRangeError", "InvalidIndexError",
    "InvalidShiftError", "NoSolutionError", "OracleConfig", "ParseError",
    "SequenceSpec", "Signature", "StringProduct", "Verdict", "__version__",
    "as_rational", "brute_force_family", "collapse", "decompose", "degenerate_probe",
    "enumerate_family", "equivalent", "evaluate", "normalize", "numeric_check",
    "parse_identity", "parse_product", "power", "product", "render", "render_identity",
    "shift_identity", "signature", "solve_rational_weights", "verify_identity",
]


class TestPublicNames:
    def test_pinned_without_duplicates(self):
        assert len(PUBLIC_NAMES) == 38
        assert sorted(geomprod.__all__) == PUBLIC_NAMES

    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_each_module_name_is_the_package_name(self, module):
        for name in module.__all__:
            assert getattr(geomprod, name) is getattr(module, name), name


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


_IDENT = parse_identity("a4*a3 = a6*a1")
_VALUES = [
    ExactExponent(Fraction(3, 2), Fraction(-7, 3)),
    Factor(3, ExactExponent(2)),
    normalize([(3, 1), (4, Fraction(1, 2))]),
    Signature(ExactExponent(2), ExactExponent(7)),
    SequenceSpec(2.0, 1.5, 8),
    FamilyQuery(2, 7, 6),
    Decomposition(((2, 1), (5, 2))),
    _IDENT,
    verify_identity(_IDENT),
    OracleConfig(trials=10, seed=3),
    CheckReport("pass", 10, 10, 0.0, 0),
    DegenerateReport(2.0, 2.0, True, True, False),
]
_ERRORS = [
    InvalidIndexError("term index must be >= 1, got 0"),
    IndexRangeError("index 9 exceeds sequence length 8"),
    InvalidShiftError("shift by 5 drives an index below 1: (-1, 9)"),
    NoSolutionError("equal source indices 3 cannot reach a different target 5"),
    ParseError(3, "end of input", "'y'"),
]


class TestRoundTrips:
    @pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
    def test_values(self, value):
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert back == value and type(back) is type(value)

    @pytest.mark.parametrize("error", _ERRORS, ids=lambda e: type(e).__name__)
    def test_errors(self, error):
        for back in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
            assert type(back) is type(error)
            assert (back.args, vars(back), str(back)) == (error.args, vars(error), str(error))

    def test_parse_error_takes_a_traceback_and_notes(self):
        # a process pool clears __traceback__ before it pickles an error
        error = ParseError(3, "end of input", "'y'")
        error.__traceback__ = None
        if sys.version_info >= (3, 11):
            error.add_note("while parsing the third identity")
            assert error.__notes__ == ["while parsing the third identity"]
