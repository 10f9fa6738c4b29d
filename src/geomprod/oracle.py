"""Numeric cross-checks for symbolic claims.

:func:`numeric_check` compares log sums taken term by term, not through the
signature, so a pass is independent evidence; "unstable" means rounding alone
could fail the identity, so no trial ran.  Sampling is seeded, vectorized and
reduced in seed order, so reports are reproducible bit for bit.  numpy is
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
    identity's ``d`` (exactly 0) exceeds ``rel_tol`` or overflows.  That bound
    is ``(n + c)*eps*L*sum(i*m)`` over ``n`` factors, with ``L`` the largest
    ``|ln a1|`` or ``ln r`` in range and ``m = |q| + |p|*pi`` for
    ``e = q + p*pi`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 3-4).  In units ``eps/2``, ``to_real`` rounds 4
    times, the float ``i-1``, two products and a sum 4 more, and the sum of
    terms ``n - 1``: ``c = 7`` to first order, the factor 2 covering the rest.
    """
    factors = ident.lhs.factors + ident.rhs.factors
    try:
        weight = sum((abs(f.exponent.rat) + abs(f.exponent.pi) * math.pi) * f.index for f in factors)
    except OverflowError:
        weight = math.inf
    if (len(factors) + 7) * sys.float_info.epsilon * _MAX_LOG * weight > cfg.rel_tol:
        return CheckReport("unstable", cfg.trials, 0, 0.0, cfg.trials)
    # imported here so that the symbolic core and the CLI start without numpy
    import numpy as np

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
