"""Seeded requests, the operations that serve them, and their correctness checks.

Every request is built from a ``random.Random`` seeded by the benchmark
argument and reaches geomprod only as text, plain arguments or the library's
own objects.  The expected answer of each request comes from how it was
constructed (exact sums kept beside the generated text, or a row count from
:mod:`counting`), never from geomprod itself.

Each request has ``run(api, tr)``, the timed operation, and
``check(api, out)``, its untimed correctness check.  ``api`` is the geomprod
module, or a stand-in with one function replaced when the self-test plants a
wrong answer.  ``tr`` is a tracer whose spans wrap each call into geomprod.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from counting import decompose_count, family_count

HALF = Fraction(1, 2)
_RATS = [Fraction(x) for x in ("1", "1", "1", "2", "-1", "-2", "1/2", "-1/2", "3/2", "1/3")]
_PIS = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]

# A term is (index, rational part of the exponent, pi part of the exponent).


def _exponent(rng: random.Random, pi_share: float) -> tuple[Fraction, Fraction]:
    rat = rng.choice(_RATS)
    pi = rng.choice(_PIS) if rng.random() < pi_share else Fraction(0)
    return rat, pi


def random_terms(rng, n: int, max_index: int, pi_share: float = 0.25) -> list:
    return [(rng.randint(1, max_index), *_exponent(rng, pi_share)) for _ in range(n)]


def variant(rng, terms: list, steps: int, max_index: int, max_terms: int = 10**9) -> list:
    """Rewrite ``terms`` with moves that keep both signature components.

    A split turns ``a_i^e`` into ``a_(i-d)^(e/2) * a_(i+d)^(e/2)``; a balanced
    triple appends ``a_(z-d)^e * a_(z+d)^e * a_z^(-2e)``, which equals 1.
    """
    out = list(terms)
    for _ in range(steps):
        if out and rng.random() < 0.6 and len(out) < max_terms:
            at = rng.randrange(len(out))
            i, a, b = out[at]
            d = rng.randint(1, 3)
            if d < i and i + d <= max_index:
                out[at : at + 1] = [(i - d, a * HALF, b * HALF), (i + d, a * HALF, b * HALF)]
                continue
        if len(out) + 3 <= max_terms:
            z = rng.randint(2, max_index - 1)
            d = rng.randint(1, min(z - 1, max_index - z))
            a, b = _exponent(rng, 0.2)
            out += [(z - d, a, b), (z + d, a, b), (z, -2 * a, -2 * b)]
    rng.shuffle(out)
    return out


def perturb(rng, terms: list, max_index: int) -> list:
    """Move one factor's index by one, which changes S by that factor's exponent."""
    out = list(terms)
    at = rng.randrange(len(out))
    i, a, b = out[at]
    out[at] = (i + 1 if i < max_index else i - 1, a, b)
    return out


def power(terms: list, c) -> list:
    return [(i, a * c, b * c) for i, a, b in terms]


def sums(terms: list) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact (T_rat, T_pi, S_rat, S_pi) of a term list."""
    return (
        sum((a for _, a, _ in terms), Fraction(0)),
        sum((b for _, _, b in terms), Fraction(0)),
        sum((i * a for i, a, _ in terms), Fraction(0)),
        sum((i * b for i, _, b in terms), Fraction(0)),
    )


def _exponent_text(rng, a: Fraction, b: Fraction) -> str:
    if b == 0:
        if a == 1 and rng.random() < 0.8:
            return ""
        if a.denominator == 1 and rng.random() < 0.5:
            return f"^{a}"
        return f"^({a})"
    if b == 1:
        pi = "pi"
    elif b == -1:
        pi = "-pi"
    else:
        pi = f"{b}*pi" if rng.random() < 0.5 else f"{b}pi"
    if a == 0:
        return f"^({pi})"
    joined = f"{a}+{pi}" if not pi.startswith("-") else f"{a}{pi}"
    return f"^({joined})"


def product_text(rng, terms: list) -> str:
    if not terms:
        return "1"
    sep = " * " if rng.random() < 0.5 else "*"
    return sep.join(f"a{i}{_exponent_text(rng, a, b)}" for i, a, b in terms)


def _spread(rng, lo: float, hi: float, n: int) -> list[float]:
    """The midpoints of n equal slices of [lo, hi], in random order."""
    out = [lo + (k + 0.5) * (hi - lo) / n for k in range(n)]
    rng.shuffle(out)
    return out


def _sig_matches(sig, expected) -> bool:
    t_rat, t_pi, s_rat, s_pi = expected
    return (
        sig.total.rat == t_rat and sig.total.pi == t_pi
        and sig.weighted_sum.rat == s_rat and sig.weighted_sum.pi == s_pi
    )


def _factor_count(ident) -> int:
    return len(ident.lhs.factors) + len(ident.rhs.factors)


# ---------------------------------------------------------------- check-stream


class CheckReq:
    """``check``: parse_identity -> verify_identity -> render_identity [-> numeric_check]."""

    def __init__(self, text, truth, lhs_sums, rhs_sums, trials, seed):
        self.text, self.truth = text, truth
        self.lhs_sums, self.rhs_sums = lhs_sums, rhs_sums
        self.trials, self.seed = trials, seed

    def run(self, api, tr):
        with tr.span("parsing.parse_identity", chars=len(self.text)):
            ident = api.parse_identity(self.text)
        with tr.span("identities.verify_identity", factors=_factor_count(ident)):
            verdict = api.verify_identity(ident)
        with tr.span("parsing.render"):
            rendered = api.render_identity(ident)
        report = None
        if self.trials:
            report = _numeric_check(api, tr, ident, self.trials, self.seed)
        return ident, verdict, rendered, report

    def check(self, api, out) -> bool:
        ident, verdict, rendered, report = out
        return (
            verdict.verified == self.truth
            and _sig_matches(verdict.lhs_signature, self.lhs_sums)
            and _sig_matches(verdict.rhs_signature, self.rhs_sums)
            and api.parse_identity(rendered) == ident
            and (report is None or report.trials == self.trials)
        )


class CanonReq:
    """``canon``: parse_product -> signature -> render (text and LaTeX)."""

    def __init__(self, text, expected_sums):
        self.text, self.expected_sums = text, expected_sums

    def run(self, api, tr):
        with tr.span("parsing.parse_product", chars=len(self.text)):
            p = api.parse_product(self.text)
        with tr.span("model.signature", factors=len(p.factors)):
            sig = api.signature(p)
        with tr.span("parsing.render"):
            text = api.render(p)
        with tr.span("parsing.render"):
            latex = api.render(p, "latex")
        return p, sig, text, latex

    def check(self, api, out) -> bool:
        p, sig, text, latex = out
        latex_terms = latex.count("a_{") if p.factors else int(latex == "1")
        return (
            _sig_matches(sig, self.expected_sums)
            and api.parse_product(text) == p
            and latex_terms == max(len(p.factors), 1)
        )


class CollapseReq:
    """``collapse``: parse_product -> collapse."""

    def __init__(self, text, expected):
        self.text, self.expected = text, expected

    def run(self, api, tr):
        with tr.span("parsing.parse_product", chars=len(self.text)):
            p = api.parse_product(self.text)
        with tr.span("identities.collapse", factors=len(p.factors)):
            return api.collapse(p)

    def check(self, api, out) -> bool:
        return out == self.expected


class EvalReq:
    """``eval``: parse_product -> evaluate on a concrete sequence."""

    def __init__(self, text, a1, r, l, expected):
        self.text, self.a1, self.r, self.l, self.expected = text, a1, r, l, expected

    def run(self, api, tr):
        with tr.span("parsing.parse_product", chars=len(self.text)):
            p = api.parse_product(self.text)
        with tr.span("model.evaluate", factors=len(p.factors)):
            return api.evaluate(p, api.SequenceSpec(self.a1, self.r, self.l))

    def check(self, api, out) -> bool:
        return abs(out - self.expected) <= 1e-9 * self.expected


def _literal_value(terms, a1: float, r: float) -> float:
    """Term-by-term value, summed in the log domain."""
    log_a1, log_r = math.log(a1), math.log(r)
    return math.exp(
        sum((float(a) + float(b) * math.pi) * (log_a1 + (i - 1) * log_r) for i, a, b in terms)
    )


_CHECK_MAX_INDEX = 300
_CHECK_MAX_TERMS = 60


def _identity_terms(rng, n, max_index, max_terms, pi_share=0.25):
    lhs = random_terms(rng, n, max_index, pi_share)
    rhs = variant(rng, lhs, rng.randint(1, 4), max_index, max_terms)
    truth = rng.random() < 0.5
    if not truth:
        rhs = perturb(rng, rhs, max_index)
    rng.shuffle(lhs)
    return lhs, rhs, truth


_CHECK_ROUND = {"check": 14, "canon": 2, "collapse": 2, "eval": 2}


def build_check_stream(rng: random.Random, rounds: int = 50) -> list:
    """Rounds of 20 requests: 14 check, 2 canon, 2 collapse, 2 eval, each
    round in its own random order.  Every tenth check also runs the numeric
    oracle at 100 trials.  Sizes of each kind sit at evenly spaced points of
    1 to 60 factors, in an order drawn from the seed.
    """
    sizes = {
        kind: [int(x) for x in _spread(rng, 1, _CHECK_MAX_TERMS + 1, n * rounds)]
        for kind, n in _CHECK_ROUND.items()
    }
    reqs = []
    checks = 0
    for _ in range(rounds):
        kinds = [kind for kind, n in _CHECK_ROUND.items() for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            size = sizes[kind].pop()
            if kind == "check":
                lhs, rhs, truth = _identity_terms(
                    rng, size, _CHECK_MAX_INDEX, _CHECK_MAX_TERMS
                )
                text = f"{product_text(rng, lhs)} = {product_text(rng, rhs)}"
                trials = 100 if checks % 10 == 0 else None
                checks += 1
                reqs.append(
                    CheckReq(text, truth, sums(lhs), sums(rhs), trials, rng.randrange(2**32))
                )
            elif kind == "canon":
                terms = random_terms(rng, size, _CHECK_MAX_INDEX)
                reqs.append(CanonReq(product_text(rng, terms), sums(terms)))
            elif kind == "collapse":
                reqs.append(_collapse_req(rng, size))
            else:
                terms = random_terms(rng, size, _CHECK_MAX_INDEX)
                a1, r = rng.uniform(0.5, 2.0), rng.uniform(1.0001, 1.001)
                l = max(i for i, _, _ in terms)
                reqs.append(
                    EvalReq(product_text(rng, terms), a1, r, l, _literal_value(terms, a1, r))
                )
    return reqs


def _collapse_req(rng, size: int) -> CollapseReq:
    """Half are a power of one term in disguise; the rest have a random signature."""
    if rng.random() < 0.5:
        k = rng.randint(4, _CHECK_MAX_INDEX - 3)
        total = rng.choice([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-1)])
        terms = variant(rng, [(k, total, Fraction(0))], size // 5 + 1, _CHECK_MAX_INDEX)
    else:
        terms = random_terms(rng, size, _CHECK_MAX_INDEX, 0.0)
    t_rat, _, s_rat, _ = sums(terms)
    if t_rat == 0:  # collapse refuses a zero total exponent; give it one more term
        terms.append((1, Fraction(1), Fraction(0)))
        t_rat, _, s_rat, _ = sums(terms)
    k = s_rat / t_rat
    expected = (int(k), t_rat) if k.denominator == 1 and k >= 1 else None
    return CollapseReq(product_text(rng, terms), expected)


# ---------------------------------------------------------------- oracle-sweep


def _numeric_check(api, tr, ident, trials, seed):
    with tr.span(
        "oracle.numeric_check", trials=trials, trial_factors=trials * _factor_count(ident)
    ) as span:
        report = api.numeric_check(ident, api.OracleConfig(trials=trials, seed=seed))
    span.set(skipped=report.skipped, verdict=report.verdict)
    return report


class OracleReq:
    """``numeric_check`` on one identity; a true one must never "fail" and a
    false one never "pass"."""

    def __init__(self, text, truth, trials, seed):
        self.text, self.truth, self.trials, self.seed = text, truth, trials, seed

    def run(self, api, tr):
        with tr.span("parsing.parse_identity", chars=len(self.text)):
            ident = api.parse_identity(self.text)
        return _numeric_check(api, tr, ident, self.trials, self.seed)

    def check(self, api, out) -> bool:
        wrong = "fail" if self.truth else "pass"
        return out.trials == self.trials and out.verdict != wrong


# One round of 20 requests as (trials, extreme), sorted by cost.  An extreme
# identity costs about as much as a tame one at ten to a hundred times the
# trials, so the round falls into groups of like cost: 12 small checks of
# about 0.5 ms, 5 of 1.5 to 100 ms, and 3 tame checks at 10^6 trials.  The
# median lands well inside the small group and the 95th percentile two
# thirds of the way into the largest, never on the edge between two groups,
# where the figure would be the slowest of one group or the fastest of the
# next.  The small checks are mostly interpreter work, which the host's
# slow state and the reference task slow alike; see README.md.  Seven of
# the 20 identities are extreme.  No extreme one runs at 10^6 trials, where
# its check alone would take about a second.
_ORACLE_ROUND = (
    [(100, False)] * 3 + [(100, True)] * 3 + [(1000, False)] * 6
    + [(1000, True)] * 2 + [(10_000, True), (100_000, False), (100_000, True)]
    + [(1_000_000, False)] * 3
)


def _oracle_terms(rng, extreme: bool):
    """Three factors on the left, one of them split on the right, so the cost
    of a trial level varies little between identities.  Tame identities have
    indices <= 50.  Extreme ones have indices from 1000 to 2000 raised to a
    power c in {1, 5, 20}, so float terms overflow and the oracle's skip path
    runs; their exponents are positive, see :func:`oracle_probe`."""
    lo, hi = (1000, 2000) if extreme else (4, 50)
    lhs = [(rng.randint(lo, hi), *_exponent(rng, 0.25)) for _ in range(3)]
    if extreme:
        lhs = [(i, abs(a), abs(b)) for i, a, b in lhs]
    i, a, b = lhs[0]
    d = rng.randint(1, 3)
    rhs = [(i - d, a * HALF, b * HALF), (i + d, a * HALF, b * HALF)] + lhs[1:]
    truth = rng.random() < 0.5
    if not truth:
        rhs = perturb(rng, rhs, hi)
    rng.shuffle(lhs)
    rng.shuffle(rhs)
    c = rng.choice([1, 5, 20]) if extreme else 1
    return power(lhs, c), power(rhs, c), truth


def build_oracle_sweep(rng: random.Random, rounds: int = 11) -> list:
    """Rounds of ``_ORACLE_ROUND`` ``numeric_check`` requests, each round in
    its own random order."""
    reqs = []
    for _ in range(rounds):
        mix = list(_ORACLE_ROUND)
        rng.shuffle(mix)
        for trials, extreme in mix:
            lhs, rhs, truth = _oracle_terms(rng, extreme)
            text = f"{product_text(rng, lhs)} = {product_text(rng, rhs)}"
            reqs.append(OracleReq(text, truth, trials, rng.randrange(2**32)))
    return reqs


def oracle_probe(rng: random.Random, api, n: int = 600) -> dict:
    """The known oracle defect, measured on its own.

    True identities of the shape that exposes it: up to 6 factors with
    indices <= 300, four signature-preserving rewrites, then a power
    c in {1, 5, 20}.  A side that underflows to 0 counts as valid, so some
    come back "fail".  These run outside the timed stream so that the
    stream's ``correct`` flag still catches a new wrong answer; the counts
    are reported with every run.
    """
    verdicts = {"pass": 0, "unstable": 0, "fail": 0}
    for k in range(n):
        lhs = random_terms(rng, rng.randint(1, 6), 300)
        rhs = variant(rng, lhs, 4, 300)
        c = rng.choice([1, 5, 20])
        text = f"{product_text(rng, power(lhs, c))} = {product_text(rng, power(rhs, c))}"
        report = api.numeric_check(api.parse_identity(text), api.OracleConfig(trials=100, seed=k))
        verdicts[report.verdict] += 1
    return verdicts


# -------------------------------------------------------------- enumerate-grid


class FamilyReq:
    """``enumerate_family``; rows are checked one by one and counted against
    :func:`counting.family_count`, and against ``brute_force_family`` where
    that accepts the input."""

    def __init__(self, t, s, l, rep):
        self.t, self.s, self.l, self.rep = t, s, l, rep
        self.expected = family_count(t, s, l, rep)
        self.brute = l <= 15 and t <= 5

    def run(self, api, tr):
        with tr.span("identities.enumerate_family") as span:
            rows = api.enumerate_family(api.FamilyQuery(self.t, self.s, self.l, self.rep))
        span.set(rows=len(rows))
        return rows

    def check(self, api, rows) -> bool:
        if len(rows) != self.expected:
            return False
        prev = ()
        for row in rows:
            if len(row) != self.t or sum(row) != self.s or row <= prev:
                return False
            if row[0] < 1 or row[-1] > self.l:
                return False
            if any(x > y or (x == y and not self.rep) for x, y in zip(row, row[1:])):
                return False
            prev = row
        return not self.brute or rows == api.brute_force_family(self.t, self.s, self.l, self.rep)


class DecomposeReq:
    """``decompose``; every power form is checked and the number of forms is
    counted against :func:`counting.decompose_count`."""

    def __init__(self, t, s, parts, l):
        self.t, self.s, self.parts, self.l = t, s, parts, l
        self.expected = decompose_count(t, s, parts, l)

    def run(self, api, tr):
        with tr.span("identities.decompose") as span:
            rows = api.decompose(self.t, self.s, self.parts, self.l)
        span.set(rows=len(rows))
        return rows

    def check(self, api, rows) -> bool:
        if len(rows) != self.expected:
            return False
        prev = ()
        for d in rows:
            parts = d.parts
            if len(parts) != self.parts or parts <= prev:
                return False
            if sum(w for _, w in parts) != self.t or sum(b * w for b, w in parts) != self.s:
                return False
            indices = [b for b, _ in parts]
            if indices[0] < 1 or indices[-1] > self.l or min(w for _, w in parts) < 1:
                return False
            if any(x >= y for x, y in zip(indices, indices[1:])):
                return False
            prev = parts
        return True


def _dense_family(rng, u: float, rep: bool) -> FamilyReq:
    """Output-bound: 4-subsets or 4-multisets, about 1,500 to 6,000 rows."""
    l = int(40 + u * 20)
    return FamilyReq(4, 2 * (l + 1) + rng.randint(-4, 4), l, rep)


def _brute_family(rng) -> FamilyReq:
    """Small enough for ``brute_force_family`` to check row by row."""
    return FamilyReq(5, 40 + rng.randint(-5, 5), 15, rng.random() < 0.5)


def _dense_decompose(rng, u: float, t: int, parts: int) -> DecomposeReq:
    """Output-bound: a few hundred to a few thousand power forms."""
    l = int(13 + u * 5)
    return DecomposeReq(t, t * (l + 1) // 2 + rng.randint(-t, t), parts, l)


def _sparse(l: int, shape: tuple[int, int]) -> FamilyReq:
    """Search-bound: a sum ``offset`` below the largest, so one to four rows,
    found after a walk over O(l) candidates."""
    t, offset = shape
    return FamilyReq(t, t * l - t * (t - 1) // 2 - offset, l, False)


def _sparse_sizes(n: int) -> list[int]:
    """Max indices of n sparse families: a quarter evenly spaced from 10^5
    to 4*10^5, half at 5.5*10^5 and a quarter from 7*10^5 to 10^6.  The 95th
    percentile of the workload falls in the middle half, so it reads the
    median of ten like queries rather than the time of one."""
    q = n // 4
    step = 3e5 / max(q - 1, 1)
    low = [int(1e5 + k * step) for k in range(q)]
    high = [int(7e5 + k * step) for k in range(q)]
    return low + [550_000] * (n - 2 * q) + high


def _strata(rng, n: int, turns: tuple) -> list[tuple[float, object]]:
    """The midpoints of n equal slices of [0, 1), each paired with an entry
    of ``turns`` taken in turn along the slices, in random order."""
    out = [((k + 0.5) / n, turns[k % len(turns)]) for k in range(n)]
    rng.shuffle(out)
    return out


# One round of 20 queries: (kind, count).  By cost: 1 brute-force-sized
# family (<1 ms), 5 three-part decompositions (2-5 ms), 8 dense families and
# 4 four-part decompositions (3-40 ms), 2 sparse families (40-400 ms).  The
# median falls among the dense queries and the 95th percentile in the middle
# of the sparse ones.
_GRID_ROUND = {"brute": 1, "dec3": 5, "family": 8, "dec4": 4, "sparse": 2}
# (t, offset of the sum from its largest value) of the sparse families
_SPARSE_SHAPES = tuple((2 + k % 2, k % 5) for k in range(10))


def build_enumerate_grid(rng: random.Random, rounds: int = 10) -> list:
    """Rounds of ``_GRID_ROUND`` queries, each round in its own random order.

    Dense sizes sit at evenly spaced points of their ranges, sparse ones as
    :func:`_sparse_sizes` gives them.  The choices that change a query's
    cost most (repetition or not, t = 9 or 10 for a decomposition, t and
    the sum for a sparse family) take turns along the sizes, so every seed
    has the same pairs of size and choice, and the same sparse families.  The seed draws the order and the dense
    queries' small offsets of the sum from the centre of its range, which
    changes the queries but hardly their cost distribution.
    """
    n = {kind: count * rounds for kind, count in _GRID_ROUND.items()}
    pts = {
        "dec3": _strata(rng, n["dec3"], (9, 10)),
        "family": _strata(rng, n["family"], (True, False)),
        "dec4": _strata(rng, n["dec4"], (9, 10)),
    }
    sparse = [(l, _SPARSE_SHAPES[k % 10]) for k, l in enumerate(_sparse_sizes(n["sparse"]))]
    rng.shuffle(sparse)
    made = {
        "brute": lambda k: _brute_family(rng),
        "dec3": lambda k: _dense_decompose(rng, *pts["dec3"][k], 3),
        "family": lambda k: _dense_family(rng, *pts["family"][k]),
        "dec4": lambda k: _dense_decompose(rng, *pts["dec4"][k], 4),
        "sparse": lambda k: _sparse(*sparse[k]),
    }
    reqs = []
    for r in range(rounds):
        block = [made[kind](r * c + k) for kind, c in _GRID_ROUND.items() for k in range(c)]
        rng.shuffle(block)
        reqs += block
    return reqs


def recursion_probe(rng: random.Random, api, n: int = 4) -> dict:
    """The known enumeration defect, measured on its own.

    Repetition families with t = sum = max_index beyond the interpreter's
    recursion limit have exactly one row (all ones) but raise
    ``RecursionError`` at this revision.  Like :func:`oracle_probe` they run
    outside the timed stream and are reported with every run.
    """
    counts = {"queries": n, "recursion_error": 0, "wrong": 0}
    for _ in range(n):
        t = rng.randint(1100, 1500)
        try:
            rows = api.enumerate_family(api.FamilyQuery(t, t, t, True))
        except RecursionError:
            counts["recursion_error"] += 1
            continue
        if rows != [(1,) * t]:
            counts["wrong"] += 1
    return counts


BUILDERS = {
    "check-stream": build_check_stream,
    "oracle-sweep": build_oracle_sweep,
    "enumerate-grid": build_enumerate_grid,
}
