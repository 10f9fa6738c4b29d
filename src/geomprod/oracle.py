"""Numeric cross-checks for symbolic claims.

:func:`numeric_check` compares log sums taken term by term, not through the
signature, so a pass is independent evidence; "unstable" means rounding alone
could fail the identity, so no trial ran.  Sampling is seeded and vectorized
over fixed-size blocks, so memory stays constant in the trial count, and
reports are reproducible bit for bit whatever the block size.  numpy is
imported on the first numeric check, not with the package.

:func:`brute_force_family` is the small-scale reference enumerator
(materialize every combination, filter by sum) against which the closed-form
explicit-stack walks of :mod:`geomprod.identities` are tested, and
:func:`degenerate_probe` documents the one parameter point, ratio 1, where
non-equivalent products of equal length become numerically
indistinguishable.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from .identities import Identity
from .model import SequenceSpec, equivalent, evaluate, signature

__all__ = [
    "OracleConfig",
    "CheckReport",
    "DegenerateReport",
    "numeric_check",
    "brute_force_family",
    "degenerate_probe",
]

_BRUTE_MAX_INDEX = 15
_BRUTE_MAX_SIZE = 5

# Sampling ranges of numeric_check: strictly inside the admissible region
# (positive first term, ratio bounded away from 0 and 1).
A1_RANGE = (0.5, 2.0)
R_RANGE = (1.1, 3.0)
_MAX_LOG = max(-math.log(A1_RANGE[0]), math.log(A1_RANGE[1]), math.log(R_RANGE[1]))

# Trials per block of numeric_check: four float64 buffers of this length
# (512 KiB) stay in a core's L2 cache whatever the trial count.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class OracleConfig:
    """Sampling plan for :func:`numeric_check`: trial count, seed, tolerance."""

    trials: int = 1000
    seed: int = 0
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # NaN fails the comparison too; at 1 or more every ratio would pass
        if not 0 < self.rel_tol < 1:
            raise ValueError(f"relative tolerance must be in (0, 1), got {self.rel_tol}")


@dataclass(frozen=True)
class CheckReport:
    verdict: str  # "pass", "fail" or "unstable"
    trials: int
    pass_count: int
    max_rel_error: float
    skipped: int

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "trials": self.trials,
            "max_rel_error": self.max_rel_error,
            "skipped": self.skipped,
        }


def numeric_check(ident: Identity, cfg: OracleConfig) -> CheckReport:
    """Sample sequences and compare the logarithms of the two sides.

    Each trial sums ``d = sum(e * (ln a1 + (i-1) * ln r))`` over the factors
    ``a_i^e``, lhs minus rhs, and passes when ``-expm1(-|d|)``, which is
    ``|lhs - rhs| / max(lhs, rhs)``, is within ``cfg.rel_tol``.  The verdict
    is "pass" when every trial passes and "fail" otherwise, but "unstable",
    with every trial skipped, when the bound on what rounding adds to a true
    identity's ``d`` (exactly 0) exceeds ``rel_tol`` or overflows, or when an
    index ``i`` is so large that ``(i-1) * ln r`` leaves the float range before
    its exponent scales it, however small that exponent is.  That bound
    is ``(n + c)*eps*L*sum(i*m)`` over ``n`` factors, with ``L`` the largest
    ``|ln a1|`` or ``ln r`` in range and ``m = |q| + |p|*pi`` for
    ``e = q + p*pi`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 3-4).  In units ``eps/2``, ``to_real`` rounds 4
    times, the float ``i-1``, two products and a sum 4 more, and the sum of
    terms ``n - 1``: ``c = 7`` to first order, the factor 2 covering the rest.

    Trials run in blocks of ``_BLOCK``, each step in place in four buffers.
    ``a1`` comes from ``default_rng(seed)``; ``r`` comes from a second such
    generator advanced past the ``trials`` draws of ``a1`` (PCG64's jump-ahead),
    or, when one block holds every trial, from the first generator after them.
    Either way each trial sees the ``a1`` and ``r`` that drawing all of ``a1``
    and then all of ``r`` as whole arrays would give it, and every element goes
    through the same operations in the same order, so the report does not
    depend on the block size.
    """
    factors = ident.lhs.factors + ident.rhs.factors
    try:
        weight = sum((abs(f.exponent.rat) + abs(f.exponent.pi) * math.pi) * f.index for f in factors)
        reach = _MAX_LOG * max(ident.lhs.max_index(), ident.rhs.max_index())
    except OverflowError:
        weight = reach = math.inf
    bound = (len(factors) + 7) * sys.float_info.epsilon * _MAX_LOG * weight
    if bound > cfg.rel_tol or reach > sys.float_info.max:
        return CheckReport("unstable", cfg.trials, 0, 0.0, cfg.trials)
    # imported here so that the symbolic core and the CLI start without numpy
    import numpy as np

    terms = [
        (sign * f.exponent.to_real(), f.index - 1)
        for side, sign in ((ident.lhs, 1), (ident.rhs, -1))
        for f in side.factors
    ]
    rng = rng_r = np.random.default_rng(cfg.seed)
    if cfg.trials > _BLOCK:
        rng_r = np.random.default_rng(cfg.seed)
        rng_r.bit_generator.advance(cfg.trials)
    log_a1, log_r, diff, term = np.empty((4, min(cfg.trials, _BLOCK)))
    pass_count, peak = 0, 0.0
    for start in range(0, cfg.trials, _BLOCK):
        n = min(_BLOCK, cfg.trials - start)
        a, r, d, t = log_a1[:n], log_r[:n], diff[:n], term[:n]
        np.log(rng.uniform(A1_RANGE[0], A1_RANGE[1], n), a)
        np.log(rng_r.uniform(R_RANGE[0], R_RANGE[1], n), r)
        d.fill(0.0)
        for coeff, k in terms:
            np.multiply(k, r, t)
            np.add(a, t, t)
            np.multiply(coeff, t, t)
            np.add(d, t, d)
        np.abs(d, d)
        np.negative(d, d)
        np.expm1(d, d)
        np.negative(d, d)
        pass_count += int(np.count_nonzero(d <= cfg.rel_tol))
        peak = np.maximum(peak, d.max())  # keeps a NaN, as a whole-array max would
    verdict = "pass" if pass_count == cfg.trials else "fail"
    return CheckReport(verdict, cfg.trials, pass_count, float(peak), 0)


def brute_force_family(
    t: int, subscript_sum: int, max_index: int, repetition: bool = False
) -> list[tuple[int, ...]]:
    """Reference family enumerator: materialize every combination, filter.

    Intentionally small-scale (max_index <= 15, t <= 5); anything larger is
    refused because this exists to check the closed-form enumerators, not to
    replace them.
    """
    if t < 1 or max_index < 1:
        raise ValueError("tuple size and max index must be >= 1")
    if max_index > _BRUTE_MAX_INDEX or t > _BRUTE_MAX_SIZE:
        raise ValueError(
            f"brute-force enumeration is limited to max_index <= {_BRUTE_MAX_INDEX} "
            f"and t <= {_BRUTE_MAX_SIZE}"
        )
    combine = (
        itertools.combinations_with_replacement if repetition else itertools.combinations
    )
    return [c for c in combine(range(1, max_index + 1), t) if sum(c) == subscript_sum]


@dataclass(frozen=True)
class DegenerateReport:
    lhs_value: float
    rhs_value: float
    coincide: bool
    symbolically_equivalent: bool
    hides_inequivalence: bool


def degenerate_probe(ident: Identity, a1: float = 2.0) -> DegenerateReport:
    """Evaluate both sides at ratio exactly 1.

    With ratio 1 every term equals ``a1``, so any two products with the same
    total exponent coincide there regardless of their index sums; the probe
    reports whether that coincidence is masking a genuine inequivalence.
    Requires both sides to have equal total exponent.
    """
    lhs_sig = signature(ident.lhs)
    rhs_sig = signature(ident.rhs)
    if lhs_sig.total != rhs_sig.total:
        raise ValueError("degenerate probe requires equal total exponents")
    l = max(ident.lhs.max_index(), ident.rhs.max_index(), 1)
    seq = SequenceSpec(a1, 1.0, l)
    lhs_value = evaluate(ident.lhs, seq)
    rhs_value = evaluate(ident.rhs, seq)
    coincide = lhs_value == rhs_value
    same = equivalent(ident.lhs, ident.rhs)
    return DegenerateReport(
        lhs_value=lhs_value,
        rhs_value=rhs_value,
        coincide=coincide,
        symbolically_equivalent=same,
        hides_inequivalence=coincide and not same,
    )
