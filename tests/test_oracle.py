"""Numeric oracle: sampling checks, reference enumeration, degenerate point."""

import collections
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from geomprod import (
    CheckReport,
    Identity,
    OracleConfig,
    brute_force_family,
    degenerate_probe,
    enumerate_family,
    FamilyQuery,
    normalize,
    numeric_check,
    parse_identity,
    power,
)
from geomprod.oracle import _BLOCK, _MAX_LOG, A1_RANGE, R_RANGE

from .support import equivalent_variant, random_product, same_total_variant


class TestOracleConfig:
    def test_defaults_are_admissible(self):
        assert OracleConfig().rel_tol == 1e-9
        assert A1_RANGE == (0.5, 2.0)
        assert R_RANGE == (1.1, 3.0)
        assert 0 < A1_RANGE[0] <= A1_RANGE[1]
        assert 1 < R_RANGE[0] <= R_RANGE[1]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            OracleConfig(trials=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            OracleConfig(seed=-1)

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-9, 1.0, math.inf])
    def test_rejects_tolerance_outside_unit_interval(self, rel_tol):
        with pytest.raises(ValueError, match=f"relative tolerance must be in \\(0, 1\\), got {rel_tol}"):
            OracleConfig(rel_tol=rel_tol)

    # accepted, NaN failed a true identity (every comparison is false) and
    # 2.0 passed a false one (every ratio is below 1)
    @pytest.mark.parametrize(
        "text, rel_tol", [("a2*a8 = a5^2", math.nan), ("a2*a8 = a5*a6", 2.0)]
    )
    def test_tolerance_that_decides_no_trial_is_rejected(self, text, rel_tol):
        with pytest.raises(ValueError, match=f"relative tolerance must be in \\(0, 1\\), got {rel_tol}"):
            numeric_check(parse_identity(text), OracleConfig(trials=100, rel_tol=rel_tol))


class TestLazyNumpy:
    def test_package_and_cli_import_without_numpy(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = (
            "import sys, geomprod, geomprod.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "ident = geomprod.parse_identity('a4*a3 = a6*a1')\n"
            "assert geomprod.verify_identity(ident).verified\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr


class TestNumericCheck:
    def test_pi_identity_passes(self):
        ident = parse_identity("a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)")
        report = numeric_check(ident, OracleConfig(trials=1000, seed=42))
        assert report.verdict == "pass"
        assert report.max_rel_error <= 1e-9
        assert report.skipped == 0

    def test_false_identity_fails_every_trial(self):
        # the sides differ by one factor of r, which is at least 1.1
        ident = parse_identity("a3*a4 = a5*a1")
        report = numeric_check(ident, OracleConfig(trials=500, seed=1))
        assert report.verdict == "fail"
        assert report.pass_count == 0

    def test_empty_equals_empty(self):
        ident = Identity(normalize([]), normalize([]))
        report = numeric_check(ident, OracleConfig(trials=50, seed=3))
        assert report.verdict == "pass"
        assert report.max_rel_error == 0.0

    def test_same_seed_same_report(self):
        ident = parse_identity("a2*a8 = a5^2")
        a = numeric_check(ident, OracleConfig(trials=200, seed=17))
        b = numeric_check(ident, OracleConfig(trials=200, seed=17))
        assert a == b

    def test_different_seed_moves_the_error(self):
        # a false identity: a true one has no error for the seed to move
        ident = parse_identity("a3*a4 = a5*a1")
        a = numeric_check(ident, OracleConfig(trials=200, seed=17))
        b = numeric_check(ident, OracleConfig(trials=200, seed=18))
        assert a.max_rel_error != b.max_rel_error

    def test_overflowing_sides_are_skipped_as_unstable(self):
        huge = normalize([(4000, 4000)])
        report = numeric_check(Identity(huge, huge), OracleConfig(trials=100, seed=0))
        assert report.verdict == "unstable"
        assert report.skipped == 100

    def test_report_json_shape(self):
        ident = Identity(normalize([]), normalize([]))
        report = numeric_check(ident, OracleConfig(trials=10, seed=0))
        assert report.to_json_dict() == {
            "verdict": "pass",
            "trials": 10,
            "max_rel_error": 0.0,
            "skipped": 0,
        }


class TestLogDomain:
    """Inputs whose linear-domain products overflow or underflow to 0."""

    def test_large_powers_of_deep_terms_never_fail(self):
        # true identities: up to 6 factors with indices <= 300, four
        # signature-preserving rewrites, then a power c in {1, 5, 20}
        rng = random.Random(1)
        verdicts = collections.Counter()
        for k in range(3000):
            p = random_product(rng, max_factors=6, max_index=300)
            q = equivalent_variant(rng, p, steps=4)
            c = rng.choice([1, 5, 20])
            ident = Identity(power(p, c), power(q, c))
            verdicts[numeric_check(ident, OracleConfig(trials=100, seed=k)).verdict] += 1
        assert verdicts == {"pass": 3000}

    def test_sides_underflowing_to_zero_still_fail(self):
        report = numeric_check(parse_identity("a300^-40 = a299^-40"), OracleConfig(trials=100))
        assert report.verdict == "fail"
        assert report.pass_count == 0

    def test_deep_term_is_decided_on_every_trial(self):
        report = numeric_check(parse_identity("a2000 = a2000"), OracleConfig(trials=100))
        assert report.verdict == "pass"
        assert report.skipped == 0

    def test_ill_conditioned_identity_is_unstable(self):
        # rounding of 10^8-sized log terms is far above rel_tol; without the
        # rounding bound about half the trials of this true identity fail
        ident = parse_identity("a2^100000000 = a1^50000000 * a3^50000000")
        report = numeric_check(ident, OracleConfig(trials=1000))
        assert report.verdict == "unstable"
        assert report.skipped == 1000

    def test_index_beyond_float_range_is_unstable(self):
        # the exponent keeps the rounding bound small, but (i-1)*ln r
        # overflows before it is scaled; the last index that stays in range
        # is still sampled, without a NaN
        cfg = OracleConfig(trials=100, seed=0)
        tiny = f"^(1/{10**308})"
        far = f"a{17 * 10**307}{tiny}"
        assert numeric_check(parse_identity(f"{far} = {far}"), cfg) == CheckReport(
            "unstable", 100, 0, 0.0, 100
        )
        edge = f"a{int(sys.float_info.max / _MAX_LOG)}{tiny}"
        assert numeric_check(parse_identity(f"{edge} = {edge}"), cfg) == CheckReport(
            "pass", 100, 100, 0.0, 0
        )


def reference_numeric_check(ident: Identity, cfg: OracleConfig) -> CheckReport:
    """The whole-array evaluation: every trial's draws and terms at once."""
    import numpy as np

    factors = ident.lhs.factors + ident.rhs.factors
    try:
        weight = sum((abs(f.exponent.rat) + abs(f.exponent.pi) * math.pi) * f.index for f in factors)
    except OverflowError:
        weight = math.inf
    if (len(factors) + 7) * sys.float_info.epsilon * _MAX_LOG * weight > cfg.rel_tol:
        return CheckReport("unstable", cfg.trials, 0, 0.0, cfg.trials)
    rng = np.random.default_rng(cfg.seed)
    log_a1 = np.log(rng.uniform(A1_RANGE[0], A1_RANGE[1], cfg.trials))
    log_r = np.log(rng.uniform(R_RANGE[0], R_RANGE[1], cfg.trials))
    diff = np.zeros(cfg.trials)
    for side, sign in ((ident.lhs, 1), (ident.rhs, -1)):
        for f in side.factors:
            diff += sign * f.exponent.to_real() * (log_a1 + (f.index - 1) * log_r)
    rel = -np.expm1(-np.abs(diff))
    pass_count = int((rel <= cfg.rel_tol).sum())
    verdict = "pass" if pass_count == cfg.trials else "fail"
    return CheckReport(verdict, cfg.trials, pass_count, float(rel.max()), 0)


class TestBlockedSampling:
    """Blocks of ``_BLOCK`` trials give the whole-array report bit for bit."""

    @pytest.mark.parametrize("trials", [1, 100, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_reports_equal_whole_array_evaluation(self, trials):
        idents = [
            parse_identity("a2*a8 = a5^2"),
            parse_identity("a3*a4 = a5*a1"),
            parse_identity("a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)"),
            parse_identity("a300^-40 = a299^-40"),
            parse_identity("a2^100000000 = a1^50000000 * a3^50000000"),
            Identity(normalize([]), normalize([])),
        ]
        rng = random.Random(trials)
        for _ in range(3):
            p = random_product(rng, max_factors=6, max_index=300)
            idents += [Identity(p, equivalent_variant(rng, p, steps=4)), Identity(p, random_product(rng))]
        for ident in idents:
            for seed in (0, 5, 2**40 + 3):
                cfg = OracleConfig(trials=trials, seed=seed)
                assert repr(numeric_check(ident, cfg)) == repr(reference_numeric_check(ident, cfg))

    def test_memory_does_not_grow_with_trials(self):
        import numpy  # noqa: F401  (its import is not what this measures)

        ident = parse_identity("a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)")
        tracemalloc.start()
        try:
            report = numeric_check(ident, OracleConfig(trials=2_000_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "pass"
        assert peak < 4 * 2**20


class TestTermByTermEvaluation:
    def test_separates_unequal_weighted_sums(self):
        rng = random.Random(4321)
        found = 0
        while found < 60:
            p = random_product(rng, allow_empty=False)
            q = same_total_variant(rng, p)
            if q is None:
                continue
            found += 1
            report = numeric_check(Identity(p, q), OracleConfig(trials=100, seed=found))
            assert report.pass_count == 0
            assert report.skipped == 0


class TestBruteForceFamily:
    def test_reference_values(self):
        assert brute_force_family(2, 7, 6) == [(1, 6), (2, 5), (3, 4)]
        assert len(brute_force_family(3, 12, 8)) == 6
        assert brute_force_family(2, 1, 6) == []

    def test_repetition_mode(self):
        got = brute_force_family(2, 4, 6, repetition=True)
        assert got == [(1, 3), (2, 2)]

    def test_refuses_large_inputs(self):
        with pytest.raises(ValueError):
            brute_force_family(2, 7, 16)
        with pytest.raises(ValueError):
            brute_force_family(6, 21, 10)

    def test_agrees_with_backtracking_enumerator(self):
        for l in (4, 8, 11):
            for t in range(1, 5):
                for rep in (False, True):
                    for s in range(1, t * l + 1):
                        assert brute_force_family(t, s, l, rep) == enumerate_family(
                            FamilyQuery(t, s, l, rep)
                        )


class TestDegenerateProbe:
    def test_masks_a_real_difference(self):
        report = degenerate_probe(parse_identity("a3*a4 = a5*a1"), a1=2.0)
        assert report.lhs_value == 4.0
        assert report.rhs_value == 4.0
        assert report.coincide
        assert not report.symbolically_equivalent
        assert report.hides_inequivalence

    def test_equivalent_sides_also_coincide(self):
        report = degenerate_probe(parse_identity("a4*a3 = a6*a1"))
        assert report.coincide
        assert report.symbolically_equivalent
        assert not report.hides_inequivalence

    def test_single_terms(self):
        report = degenerate_probe(parse_identity("a5 = a2"), a1=1.0)
        assert report.lhs_value == 1.0 and report.rhs_value == 1.0

    def test_requires_equal_totals(self):
        with pytest.raises(ValueError):
            degenerate_probe(parse_identity("a3*a4 = a7"))
