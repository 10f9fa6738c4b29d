"""Numeric cross-checks for symbolic claims.

The verifiers here deliberately avoid the signature shortcut: each side of
an identity is computed as the literal product of its terms,
``prod((a1 * r**(index-1)) ** exponent)``, so a numeric pass is independent
evidence and not a float restatement of the symbolic comparison.  Sampling
is seeded and vectorized; identical configuration gives bitwise-identical
reports.  numpy is imported on the first numeric check, not with the package.

:func:`brute_force_family` is the small-scale reference enumerator
(materialize every combination, filter by sum) against which the closed-form
explicit-stack walks of :mod:`geomprod.identities` are tested, and
:func:`degenerate_probe` documents the one parameter point, ratio 1, where
non-equivalent products of equal length become numerically
indistinguishable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .identities import Identity
from .model import SequenceSpec, StringProduct, equivalent, evaluate, signature

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OracleConfig",
    "CheckReport",
    "DegenerateReport",
    "product_of_terms",
    "numeric_check",
    "brute_force_family",
    "degenerate_probe",
]

_BRUTE_MAX_INDEX = 15
_BRUTE_MAX_SIZE = 5

# Sampling ranges of numeric_check: strictly inside the admissible region
# (positive first term, ratio bounded away from 0 and 1) and tame enough that
# products of a few hundred terms cannot overflow, which keeps "identity is
# false" separate from "floating point blew up".
A1_RANGE = (0.5, 2.0)
R_RANGE = (1.1, 3.0)


@dataclass(frozen=True)
class OracleConfig:
    """Sampling plan for :func:`numeric_check`: trial count, seed, tolerance."""

    trials: int = 1000
    seed: int = 0
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")


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


def product_of_terms(
    p: StringProduct, a1: float | np.ndarray, r: float | np.ndarray
) -> float | np.ndarray:
    """Literal term-by-term evaluation, independent of the signature path.

    Works elementwise when ``a1`` and ``r`` are numpy arrays of one shape; the
    empty product is then the scalar 1.0.
    """
    value = 1.0
    for f in p.factors:
        value *= (a1 * r ** (f.index - 1)) ** f.exponent.to_real()
    return value


def numeric_check(ident: Identity, cfg: OracleConfig) -> CheckReport:
    """Sample sequences and compare the two sides term-by-term.

    The verdict is "pass" when every evaluated trial agrees within
    ``cfg.rel_tol`` relative error, "fail" otherwise; trials where either
    side leaves the finite range are skipped, and a skip rate of 1% or more
    makes the whole report "unstable".  The reduction is a plain
    seed-ordered pass over the sample stream, so the report is reproducible
    bit for bit.
    """
    # imported here so that the symbolic core and the CLI start without numpy
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    a1 = rng.uniform(A1_RANGE[0], A1_RANGE[1], cfg.trials)
    r = rng.uniform(R_RANGE[0], R_RANGE[1], cfg.trials)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        lhs = np.broadcast_to(product_of_terms(ident.lhs, a1, r), a1.shape)
        rhs = np.broadcast_to(product_of_terms(ident.rhs, a1, r), a1.shape)
        valid = np.isfinite(lhs) & np.isfinite(rhs)
        lv = lhs[valid]
        rv = rhs[valid]
        scale = np.maximum(np.abs(lv), np.abs(rv))
        diff = np.abs(lv - rv)
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    skipped = int(cfg.trials - int(valid.sum()))
    max_rel_error = float(rel.max()) if rel.size else 0.0
    pass_count = int((rel <= cfg.rel_tol).sum())
    if skipped * 100 >= cfg.trials:
        verdict = "unstable"
    elif pass_count == rel.size:
        verdict = "pass"
    else:
        verdict = "fail"
    return CheckReport(verdict, cfg.trials, pass_count, max_rel_error, skipped)


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
