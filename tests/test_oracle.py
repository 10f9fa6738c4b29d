"""Numeric oracle: sampling checks, reference enumeration, degenerate point."""

import collections
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from geomprod import (
    CheckReport,
    Identity,
    OracleConfig,
    SequenceSpec,
    brute_force_family,
    degenerate_probe,
    enumerate_family,
    FamilyQuery,
    normalize,
    numeric_check,
    parse_identity,
    power,
)
from geomprod import oracle
from geomprod.oracle import _BLOCK, _CHUNK, _MAX_LOG, A1_RANGE, R_RANGE

from .support import equivalent_variant, random_exponent, random_product, same_total_variant


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

    # a float here was kept: SequenceSpec(1.0, 2.0, 3.5) evaluated to 4.0,
    # and a float trial count or seed failed inside numpy
    @pytest.mark.parametrize(
        "build, name, bad",
        [
            (lambda v: SequenceSpec(1.0, 2.0, v), "l", 3.5),
            (lambda v: OracleConfig(trials=v), "trials", 100.0),
            (lambda v: OracleConfig(seed=v), "seed", 1.5),
        ],
        ids=["l", "trials", "seed"],
    )
    def test_integer_fields_are_coerced(self, build, name, bad):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {bad!r}$"):
            build(bad)
        value = getattr(build(True), name)
        assert type(value) is int and value == 1

    # a string here was kept and failed later in a comparison that named no
    # field, and a Fraction tolerance ran every block's comparison on object
    # dtype
    @pytest.mark.parametrize(
        "build, name, bad",
        [
            (lambda v: SequenceSpec(v, 2.0, 3), "a1", "1"),
            (lambda v: SequenceSpec(1.0, v, 3), "r", "2"),
            (lambda v: OracleConfig(rel_tol=v), "rel_tol", "1e-9"),
        ],
        ids=["a1", "r", "rel_tol"],
    )
    def test_real_fields_are_coerced(self, build, name, bad):
        with pytest.raises(TypeError, match=f"^{name} must be a real number, got {bad!r}$"):
            build(bad)
        value = getattr(build(Fraction(1, 4)), name)
        assert type(value) is float and value == 0.25
        with pytest.raises(ValueError, match=f"^{name} is beyond the float range$"):
            build(10**400)

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


@pytest.fixture
def threaded(monkeypatch):
    """Two CPUs, and a worker thread from two chunks up, so that every check
    longer than one chunk draws on a worker even on a one-CPU host; yields
    the list of the threads started."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(oracle, "_cpu_count", lambda: 2)
    monkeypatch.setattr(oracle, "_THREAD_CHUNKS", 2)
    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


class TestBlockedSampling:
    """Blocks of ``_BLOCK`` trials, and chunks of ``_CHUNK`` drawn on a worker
    thread, give the whole-array report bit for bit."""

    # Blocks under _BLOCK // 2 trials go in tiles of _BLOCK // n terms: with
    # 45 factors on its left, `many` spans over 22 tiles at _BLOCK // 2 - 1
    # trials and over 2 at 1000; _BLOCK + 1 trials leave a one-trial block.
    # Past _CHUNK a worker draws every chunk after the first: _CHUNK + 1
    # leaves it a one-trial chunk, and 2 * _CHUNK + _BLOCK // 2 - 1 ends in a
    # tiled block.
    @pytest.mark.parametrize(
        "trials",
        [
            1, 100, 1000, _BLOCK // 2 - 1, _BLOCK // 2, _BLOCK - 1, _BLOCK, _BLOCK + 1,
            3 * _BLOCK + 7, _CHUNK, _CHUNK + 1, 2 * _CHUNK + _BLOCK // 2 - 1,
        ],
    )
    def test_reports_equal_whole_array_evaluation(self, trials, threaded):
        many_rng = random.Random(f"many {trials}")
        many = normalize([(i, random_exponent(many_rng)) for i in range(1, 46)])
        idents = [
            Identity(many, equivalent_variant(many_rng, many, steps=4)),
            parse_identity("a2*a8 = a5^2"),
            parse_identity("a3*a4 = a5*a1"),
            parse_identity("a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)"),
            parse_identity("a300^-40 = a299^-40"),
            parse_identity("a2^100000000 = a1^50000000 * a3^50000000"),
            Identity(normalize([]), normalize([])),
            # a full block's shortcuts: a first term at index 1 with a unit
            # coefficient, later coefficients of 1 and -1, the same factors
            # on both sides
            parse_identity("a1*a5 = a2*a4"),
            parse_identity("a1^-1 * a7^-1 = a4^-2"),
            parse_identity("a3 * a9^(1/2+pi) = a3 * a9^(1/2+pi)"),
        ]
        rng = random.Random(trials)
        for _ in range(3):
            p = random_product(rng, max_factors=6, max_index=300)
            idents += [Identity(p, equivalent_variant(rng, p, steps=4)), Identity(p, random_product(rng))]
        for ident in idents:
            for seed in (0, 5, 2**40 + 3):
                cfg = OracleConfig(trials=trials, seed=seed)
                assert repr(numeric_check(ident, cfg)) == repr(reference_numeric_check(ident, cfg))
        # a worker for each check that samples and spans more than one chunk
        sampled = sum(numeric_check(i, OracleConfig(trials=1)).skipped == 0 for i in idents)
        assert threaded == ["geomprod-draws"] * (3 * sampled if trials > _CHUNK else 0)

    # Each tolerance gets an identity whose |d|, ln r / N, straddles its cut,
    # so that some trials pass and some fail; 2 * _CHUNK + 1 trials thread.
    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-6, 0.5])
    @pytest.mark.parametrize("trials", [1000, _BLOCK + 1, 2 * _CHUNK + 1])
    def test_reports_equal_whole_array_evaluation_at_other_tolerances(self, rel_tol, trials, threaded):
        n = round(0.5 / rel_tol)
        straddling = parse_identity(f"a2^(1/{n}) = a1^(1/{n})")
        idents = [
            straddling,
            parse_identity("a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)"),
            parse_identity(f"a5^(1/{n}) * a9^(2pi) = a3^(1/{n}) * a9^(2pi)"),
        ]
        for ident in idents:
            for seed in (0, 5):
                cfg = OracleConfig(trials=trials, seed=seed, rel_tol=rel_tol)
                assert repr(numeric_check(ident, cfg)) == repr(reference_numeric_check(ident, cfg))
        report = numeric_check(straddling, OracleConfig(trials=trials, rel_tol=rel_tol))
        assert 0 < report.pass_count < trials
        assert threaded == ["geomprod-draws"] * (2 * len(idents) + 1 if trials > _CHUNK else 0)

    def test_in_place_draws_equal_uniform(self):
        # numeric_check scales and shifts random() in place, as uniform()
        # does; a numpy build that fused that multiply and add would fail
        # here, naming the cause, as well as in the reports above
        import numpy as np

        for seed in (0, 5, 2**40 + 3):
            for lo, hi in (A1_RANGE, R_RANGE):
                drawn = np.random.default_rng(seed).random(10_000)
                drawn *= hi - lo
                drawn += lo
                assert np.array_equal(drawn, np.random.default_rng(seed).uniform(lo, hi, 10_000))

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


class TestCut:
    """A trial passes when its |d| is at most its tolerance's cut."""

    @pytest.mark.parametrize("rel_tol", [5e-324, 1e-300, 1e-9, 0.5, 0.9999, 1 - 2**-53])
    def test_cut_decides_as_the_relative_error(self, rel_tol):
        import numpy as np

        cut = oracle._cut(rel_tol)
        near = np.arange(-(2**16), 2**16 + 1) + np.float64(cut).view(np.int64)
        x = near[near >= 0].view(np.float64)  # the non-negative floats near the cut
        assert np.array_equal(x <= cut, -np.expm1(-x) <= rel_tol)
        assert x[0] <= cut < x[-1]

    @pytest.mark.parametrize("seed", range(6))
    def test_trial_at_the_tolerance_passes(self, seed):
        # at a tolerance of its own largest error every trial is within it
        ident = parse_identity("a2 = a1")
        worst = numeric_check(ident, OracleConfig(trials=1000, seed=seed)).max_rel_error
        assert numeric_check(ident, OracleConfig(trials=1000, seed=seed, rel_tol=worst)) == CheckReport(
            "pass", 1000, 1000, worst, 0
        )

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CUTS", {})
        monkeypatch.setattr(oracle, "_CUTS_MAX", 2)
        cuts = [oracle._cut(t) for t in (1e-9, 0.5, 1e-6)]
        assert oracle._CUTS == {1e-9: cuts[0], 0.5: cuts[1]}
        assert oracle._cut(1e-6) == cuts[2]


def _bounded(call, timeout=60.0):
    """``call()`` on a helper thread: its result or the exception it raised.
    A deadlock fails the test after ``timeout`` seconds instead of hanging it."""
    box = []

    def run():
        try:
            box.append(call())
        except BaseException as exc:  # handed to the test, which checks its type
            box.append(exc)

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), "numeric_check did not return"
    return box[0]


class TestWorkerThread:
    """A threaded check leaves no thread behind and raises what was raised."""

    IDENT = parse_identity("a10^(1/2) * a20^(3/4+pi) * a30 = a9^(1/4) * a11^(1/4) * a20^(3/4+pi) * a30")
    CFG = OracleConfig(trials=3 * _CHUNK + 5, seed=17)

    def test_exception_in_worker_reaches_caller(self, threaded, monkeypatch):
        import numpy as np

        expected = numeric_check(self.IDENT, self.CFG)
        log, abs_ = np.log, np.abs
        callers, worker_drew, waited = [], threading.Event(), []

        def log_off_caller(*args):
            if threading.current_thread() is not callers[0]:
                worker_drew.set()
                raise MemoryError("worker")
            return log(*args)

        def abs_after_worker(*args):
            # the caller waits in its first block (abs runs in every block)
            # until the worker has taken a draw, so that it cannot make every
            # draw itself
            waited.append(worker_drew.wait(30))
            return abs_(*args)

        monkeypatch.setattr(np, "log", log_off_caller)
        monkeypatch.setattr(np, "abs", abs_after_worker)
        before = threading.active_count()

        def call():
            callers.append(threading.current_thread())
            return numeric_check(self.IDENT, self.CFG)

        raised = _bounded(call)
        assert waited and all(waited), "the worker took no draw"
        assert isinstance(raised, MemoryError) and str(raised) == "worker"
        assert "geomprod-draws" in threaded and threading.active_count() == before
        monkeypatch.setattr(np, "log", log)
        monkeypatch.setattr(np, "abs", abs_)
        assert repr(numeric_check(self.IDENT, self.CFG)) == repr(expected)

    def test_interrupt_in_caller_joins_worker(self, threaded, monkeypatch):
        import numpy as np

        expected = numeric_check(self.IDENT, self.CFG)
        abs_ = np.abs

        def interrupted(*args):  # in the caller's first block
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "abs", interrupted)
        before = threading.active_count()
        raised = _bounded(lambda: numeric_check(self.IDENT, self.CFG))
        assert isinstance(raised, KeyboardInterrupt)
        assert "geomprod-draws" in threaded and threading.active_count() == before
        monkeypatch.setattr(np, "abs", abs_)
        assert repr(numeric_check(self.IDENT, self.CFG)) == repr(expected)

    def test_runs_inline_when_no_thread_starts(self, threaded, monkeypatch):
        expected = numeric_check(self.IDENT, self.CFG)
        before = threading.active_count()

        refused = []

        def refuse(thread):
            refused.append(thread.name)
            raise RuntimeError("can't start new thread")

        def call():
            monkeypatch.setattr(threading.Thread, "start", refuse)
            return numeric_check(self.IDENT, self.CFG)

        assert repr(_bounded(call)) == repr(expected)
        assert refused == ["geomprod-draws"]
        assert threading.active_count() == before


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
        # and, with FamilyQuery's messages, what FamilyQuery refuses
        for args, err, msg in [
            ((0, 7, 6), ValueError, "tuple size must be >= 1"),
            ((2, 0, 6), ValueError, "subscript sum must be >= 1"),
            ((2, 7, 0), ValueError, "max index must be >= 1"),
            ((2, 7.0, 6), TypeError, "subscript_sum must be an integer"),
            ((2, 8, 6, "no"), TypeError, "repetition must be a bool"),
        ]:
            with pytest.raises(err, match=msg):
                brute_force_family(*args)

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
