"""Numeric cross-checks for symbolic claims.

:func:`numeric_check` compares log sums taken term by term, not through the
signature, so a pass is independent evidence; "unstable" means rounding alone
could fail the identity, so no trial ran.  A trial passes when its ``|d|``,
the absolute difference of the two log sums, is at most a cut that depends
only on the tolerance; this relies on ``-expm1(-x)``, the relative error a
``|d|`` of ``x`` stands for, never decreasing in ``x``, so ``expm1`` runs once
per check, on the largest ``|d|``.  Sampling is seeded and evaluated over
fixed-size blocks, so memory stays constant in the trial count.  A check
of several chunks, on a process that may run on two or more CPUs, draws each
next chunk on one worker thread while the caller evaluates the current one.
Reports are reproducible bit for bit whatever the block or chunk size and
whether a thread ran.  numpy is imported on the first numeric check, not
with the package.

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
import os
import sys
from dataclasses import dataclass

from .identities import FamilyQuery, Identity
from .model import SequenceSpec, _as_int, _as_real, evaluate, signature

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

# Trials per block of numeric_check: a block's a1, r, sums and terms, four
# float64 buffers of this length (512 KiB), stay in a core's L2 cache
# whatever the trial count.  Draws land in preallocated buffers, so a block
# allocates no array, and a full block skips the exact passes its docstring
# lists.
_BLOCK = 1 << 14
# Trials per chunk when a worker thread draws: it fills the next chunk's a1
# and r (2 MiB for both chunks) in eight long GIL-free calls while the caller
# evaluates this one.  Starting and joining the worker costs about 1 ms, and
# in-process sweeps on 2 vCPUs put the break-even between 3 chunks (5-15%
# slower) and 4 (within noise to 10% faster), so fewer chunks run inline.
_CHUNK = 4 * _BLOCK
_THREAD_CHUNKS = 4

# The cut of each relative tolerance a check has used (see _cut): a trial
# passes when its |d| is at most the cut.
_CUTS: dict[float, float] = {}
_CUTS_MAX = 64  # entries


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class OracleConfig:
    """Sampling plan for :func:`numeric_check`: trial count, seed, tolerance.

    ``trials`` and ``seed`` must be integers (:class:`TypeError` otherwise)
    and are stored as ``int``; ``rel_tol`` must be a real number
    (:class:`TypeError` otherwise) and is stored as ``float``.
    """

    trials: int = 1000
    seed: int = 0
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("trials", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        object.__setattr__(self, "rel_tol", _as_real("rel_tol", self.rel_tol))
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


def _cut(rel_tol: float) -> float:
    """The largest float64 ``x`` with ``-np.expm1(-x) <= rel_tol``.

    Bisection over the bit patterns of the non-negative floats, which order
    them by value, from 0.0 (which passes) to inf (which fails, as
    ``rel_tol < 1``); it takes 63 steps, about 0.1 ms, so each tolerance's
    cut is kept in ``_CUTS``, up to ``_CUTS_MAX`` of them.  A window around
    ``-log1p(-rel_tol)`` would not do: near ``rel_tol = 1`` the function is
    flat over hundreds of ulps.
    """
    cut = _CUTS.get(rel_tol)
    if cut is None:
        import numpy as np

        lo, hi = 0, 0x7FF0000000000000  # the bits of 0.0 and of inf
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if -np.expm1(-np.int64(mid).view(np.float64)) <= rel_tol:
                lo = mid
            else:
                hi = mid
        cut = float(np.int64(lo).view(np.float64))
        if len(_CUTS) < _CUTS_MAX:  # a full table stops adding
            _CUTS[rel_tol] = cut
    return cut


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

    A trial is decided as ``|d| <= cut``, with ``cut`` the largest float that
    passes (see :func:`_cut`), and ``max_rel_error`` is ``-expm1(-max|d|)``,
    computed once after the last block.  Both rely on numpy's ``-expm1(-x)``
    never decreasing in ``x``, which the tests check over 2^16 floats either
    side of each tested tolerance's cut.  A NaN ``|d|`` fails either way and
    is kept by the maximum.

    Trials are drawn in chunks and evaluated in blocks of ``_BLOCK``, each step
    in place in preallocated buffers.  ``a1`` comes from ``default_rng(seed)``;
    ``r`` comes from a second such generator advanced past the ``trials``
    draws of ``a1`` (PCG64's jump-ahead), or, when one block holds every
    trial, from the first generator after them.  Both are drawn into their
    buffers as ``random()``, then scaled and shifted there, which is how
    ``uniform(lo, hi)`` computes ``lo + (hi - lo) * random()``, and their
    logs are taken in place.  A chunk is one block, or ``_CHUNK`` trials when
    the check spans at least ``_THREAD_CHUNKS`` of them and the process may
    run on two or more CPUs.  Then the caller draws the first chunk, and one
    worker thread draws each next chunk into a second buffer while the caller
    evaluates the current one; a draw the worker has not begun when the
    caller needs it (no thread started, or no CPU free to run it) is made by
    the caller.  The worker is joined before this returns or raises, and its
    exception is raised here.  Each generator is drawn by one thread at a
    time, in order, so each trial sees the ``a1`` and ``r`` that drawing all
    of ``a1`` and then all of ``r`` as whole arrays would give it, and every
    element goes through the same roundings in the same order: the report
    does not depend on the block or chunk size, nor on which thread drew.  A
    block of fewer than ``_BLOCK // 2`` trials computes its terms in a further
    buffer, 2-D tiles of at most ``_BLOCK`` elements, but still adds them one
    by one in factor order.  A full block skips only passes that cannot
    change a bit of the report: the first term is written into the sum
    rather than added to 0.0, which can change only the sign of a zero, and
    ``abs`` clears that; a later coefficient of exactly 1 or -1 adds or
    subtracts its term without the multiply (exact in IEEE 754).
    """
    factors = ident.lhs.factors + ident.rhs.factors
    # the integers each exponent keeps: (rat, pi) as numerators and denominators
    ints = [f.exponent._ints for f in factors]
    try:
        # num / den is float() of a Fraction, rounded correctly, so
        # abs(float(q)) == float(abs(q)): one conversion per component serves
        # the bound and the coefficients
        parts = [(num / den, pi_num / pi_den) for num, den, pi_num, pi_den in ints]
        weight = sum((abs(q) + abs(p) * math.pi) * f.index for (q, p), f in zip(parts, factors))
        reach = _MAX_LOG * max(ident.lhs.max_index(), ident.rhs.max_index())
    except OverflowError:
        weight = reach = math.inf
    bound = (len(factors) + 7) * sys.float_info.epsilon * _MAX_LOG * weight
    if bound > cfg.rel_tol or reach > sys.float_info.max:
        return CheckReport("unstable", cfg.trials, 0, 0.0, cfg.trials)
    # imported here so that the symbolic core and the CLI start without numpy
    import numpy as np

    # ExactExponent.to_real of each exponent, rhs negated
    coeffs = [q + p * math.pi if pi_num else q for (q, p), (_, _, pi_num, _) in zip(parts, ints)]
    n_lhs = len(ident.lhs.factors)
    coeffs[n_lhs:] = [-c for c in coeffs[n_lhs:]]
    steps = [f.index - 1 for f in factors]
    cut = _cut(cfg.rel_tol)
    rng = rng_r = np.random.default_rng(cfg.seed)
    if cfg.trials > _BLOCK:
        rng_r = np.random.default_rng(cfg.seed)
        rng_r.bit_generator.advance(cfg.trials)

    def draw(buf, start):
        """Draw the chunk at ``start``: ln a1 into ``buf[0]``, ln r into ``buf[1]``."""
        n = min(chunk, cfg.trials - start)
        for g, out, (lo, hi) in ((rng, buf[0, :n], A1_RANGE), (rng_r, buf[1, :n], R_RANGE)):
            # uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit
            g.random(out=out)
            out *= hi - lo
            out += lo
            np.log(out, out)

    chunk, jobs, size = _BLOCK, None, min(cfg.trials, _BLOCK)
    if cfg.trials > (_THREAD_CHUNKS - 1) * _CHUNK and _cpu_count() > 1:
        import queue
        import threading

        def work():
            """Draw each ``(buf, start)`` taken from ``jobs``, until None."""
            for job in iter(jobs.get, None):
                try:
                    draw(*job)
                except BaseException as exc:  # handed to the caller, which raises it
                    done.put(exc)
                    return
                done.put(None)

        chunk, jobs, done = _CHUNK, queue.SimpleQueue(), queue.SimpleQueue()
        worker = threading.Thread(target=work, name="geomprod-draws")
        # the worker fills one chunk's a1 and r while the caller reads the other's
        draws = list(np.empty((2, 2, _CHUNK)))
        diff, term = np.empty((2, size))
    else:  # a1, r, diff and term of one block, in one allocation
        bufs = np.empty((4, size))
        draws, diff, term = [bufs[:2]], bufs[2], bufs[3]
    pass_count, peak = 0, 0.0
    try:
        if jobs is not None:
            try:
                worker.start()
            except RuntimeError:  # no thread could start: the caller takes every draw
                pass
        for start in range(0, cfg.trials, _BLOCK):
            n = min(_BLOCK, cfg.trials - start)
            c, at = divmod(start, chunk)
            if at == 0:
                buf = draws[c % len(draws)]
                if c == 0 or jobs is None:
                    draw(buf, start)
                else:
                    try:
                        job = jobs.get_nowait()
                    except queue.Empty:  # the worker has taken this draw: wait for it
                        if (failure := done.get()) is not None:
                            raise failure
                    else:  # not begun: no thread started, or no CPU was free for it
                        draw(*job)
                if jobs is not None and start + chunk < cfg.trials:
                    jobs.put((draws[1 - c % 2], start + chunk))
            a, r, d, t = buf[0, at : at + n], buf[1, at : at + n], diff[:n], term[:n]
            if n < _BLOCK // 2 or not coeffs:
                # Per-call ufunc cost outweighs a short block's work, so its
                # terms go in 2-D tiles of _BLOCK // n rows: three broadcast
                # ufuncs per tile, then one addition per row in term order.
                # np.add.reduce over a tile would sum each column pairwise.
                # With no factors there are no tiles and every sum stays 0.
                d.fill(0.0)
                rows = _BLOCK // n
                tile = np.empty((min(rows, len(factors)), n))
                ks = np.array(steps, dtype=float)[:, None]
                cs = np.array(coeffs)[:, None]
                for j in range(0, len(factors), rows):
                    tt = tile[: len(factors) - j]
                    np.multiply(ks[j : j + rows], r, tt)
                    np.add(a, tt, tt)
                    np.multiply(cs[j : j + rows], tt, tt)
                    for row in tt:
                        np.add(d, row, d)
            else:
                for j, (coeff, k) in enumerate(zip(coeffs, steps)):
                    np.multiply(k, r, t)
                    np.add(a, t, t)
                    if j == 0:  # 0.0 + x differs from x only at -0.0, which abs clears
                        np.multiply(coeff, t, d)
                    elif coeff == 1.0:  # 1.0*x is x exactly
                        np.add(d, t, d)
                    elif coeff == -1.0:  # d + -1.0*x is d - x exactly
                        np.subtract(d, t, d)
                    else:
                        np.multiply(coeff, t, t)
                        np.add(d, t, d)
            np.abs(d, d)
            pass_count += int(np.count_nonzero(d <= cut))
            peak = np.maximum(peak, d.max())  # keeps a NaN, as a whole-array max would
    finally:
        if jobs is not None:  # the worker is joined whether this returns or raises
            jobs.put(None)
            if worker.ident is not None:
                worker.join()
    verdict = "pass" if pass_count == cfg.trials else "fail"
    return CheckReport(verdict, cfg.trials, pass_count, float(-np.expm1(-peak)), 0)


def brute_force_family(
    t: int, subscript_sum: int, max_index: int, repetition: bool = False
) -> list[tuple[int, ...]]:
    """Reference family enumerator: materialize every combination, filter.

    Intentionally small-scale (max_index <= 15, t <= 5); anything larger is
    refused because this exists to check the closed-form enumerators, not to
    replace them.  The arguments are validated as the fields of a
    :class:`FamilyQuery`.
    """
    query = FamilyQuery(t, subscript_sum, max_index, repetition)
    if query.max_index > _BRUTE_MAX_INDEX or query.t > _BRUTE_MAX_SIZE:
        raise ValueError(
            f"brute-force enumeration is limited to max_index <= {_BRUTE_MAX_INDEX} "
            f"and t <= {_BRUTE_MAX_SIZE}"
        )
    combine = (
        itertools.combinations_with_replacement if query.repetition else itertools.combinations
    )
    return [c for c in combine(range(1, query.max_index + 1), query.t) if sum(c) == query.subscript_sum]


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
    same = lhs_sig == rhs_sig
    return DegenerateReport(
        lhs_value=lhs_value,
        rhs_value=rhs_value,
        coincide=coincide,
        symbolically_equivalent=same,
        hides_inequivalence=coincide and not same,
    )
