"""Constructive solvers over product signatures.

Everything here manufactures or certifies equal-product identities:

* :func:`enumerate_family` lists all index multisets of a given size whose
  subscript sum hits a target, i.e. the full family of pairwise-equal
  products;
* :func:`shift_identity` produces the two-term rearrangement
  ``a_i * a_j = a_(i-n) * a_(j+n)``;
* :func:`decompose` rewrites a target signature as a weighted power form
  with a fixed number of distinct bases;
* :func:`collapse` is the single-base special case (a product that is an
  exact power of one term);
* :func:`solve_rational_weights` solves the 2x2 exact linear system for
  rational weights turning two source terms into a prescribed power of a
  target term;
* :func:`verify_identity` is the equivalence decision with both signatures
  as witness.

Both enumerators share one explicit-stack walker, so their depth is not
limited by the interpreter's recursion limit.  At every level the
remaining sum must stay between the smallest and largest completion of the
slots still open (the interval bounds of restricted partitions, Andrews,
*The Theory of Partitions*, ch. 3).  Both bounds are linear in the next
candidate, so each level solves them for its first and last feasible
candidate instead of testing candidates one by one.  The walk hands over
its deepest level whole: it is a generator that yields one batch of heads
at a time, when asked, and each enumerator is one comprehension over those
batches that fills the last three slots of a family, or the last two bases
of a decomposition, below each head.  A walk with no level to choose yields
one head with an empty value.  The last slot takes what remains; the last
weight d of a decomposition runs down from the largest that leaves room to
the least that keeps its base within ``max_index``, and a row is kept when
d divides what remains.  A family walk therefore costs in proportion to the
rows it returns times ``t``, not to ``max_index``; a decomposition also
tests each d, two or three per row on dense queries but 365,516 for the
4,566 rows of ``decompose(1000, 600000, 2, 1000)``.  Output matches a
brute-force filter.  All listings come out in lexicographic order and are
byte-reproducible.

:func:`decompose` runs its walk with the cyclic garbage collector paused and
restores the collector's previous state on the way out, even when the walk
raises.  Each of its rows is a slotted :class:`Decomposition` holding a
tuple of int pairs: it cannot be part of a reference cycle, yet the
collector keeps it tracked, so every collection during the walk would rescan
the rows listed so far for nothing.  :func:`enumerate_family` is not paused:
its rows are plain int tuples, which the collector untracks the first time
it sees them, so a pause would only move that work past the end of the call.
"""

from __future__ import annotations

import gc
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .exact import as_rational
from .model import Signature, StringProduct, _as_int, normalize, signature

__all__ = [
    "InvalidShiftError",
    "NoSolutionError",
    "FamilyQuery",
    "Decomposition",
    "Identity",
    "Verdict",
    "enumerate_family",
    "shift_identity",
    "decompose",
    "collapse",
    "solve_rational_weights",
    "verify_identity",
]


class InvalidShiftError(ValueError):
    """A shift would push a term index below 1."""


class NoSolutionError(ValueError):
    """The requested weight system has no solution."""


@dataclass(frozen=True)
class FamilyQuery:
    """Search space for an equal-product family.

    ``t`` is the number of terms per product, ``subscript_sum`` the target
    index sum, ``max_index`` the largest usable index.  With
    ``repetition=False`` indices within one product must be pairwise
    distinct.  The three counts must be integers and ``repetition`` a
    ``bool`` (:class:`TypeError` otherwise); the counts are stored as ``int``.
    """

    t: int
    subscript_sum: int
    max_index: int
    repetition: bool = False

    def __post_init__(self) -> None:
        for name in ("t", "subscript_sum", "max_index"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if type(self.repetition) is not bool:
            raise TypeError(f"repetition must be a bool, got {self.repetition!r}")
        if self.t < 1:
            raise ValueError(f"tuple size must be >= 1, got {self.t}")
        if self.subscript_sum < 1:
            raise ValueError(f"subscript sum must be >= 1, got {self.subscript_sum}")
        if self.max_index < 1:
            raise ValueError(f"max index must be >= 1, got {self.max_index}")


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Weighted power form: distinct indices with positive integer weights."""

    parts: tuple[tuple[int, int], ...]

    def to_product(self) -> StringProduct:
        return normalize((b, w) for b, w in self.parts)

    def to_json_dict(self) -> dict:
        return {"parts": [{"index": b, "weight": w} for b, w in self.parts]}


_new = object.__new__
_set_parts = Decomposition.__dict__["parts"].__set__


def _decomposition(parts: tuple[tuple[int, int], ...]) -> Decomposition:
    """The package's constructor for the rows of :func:`decompose`."""
    d = _new(Decomposition)
    _set_parts(d, parts)
    return d


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore its previous state on exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class Identity:
    """A claimed equality between two products."""

    lhs: StringProduct
    rhs: StringProduct


@dataclass(frozen=True)
class Verdict:
    """Outcome of the symbolic equivalence decision.

    ``verified`` is True when both signatures match; either way the two
    signatures are carried as the explanatory witness.
    """

    verified: bool
    lhs_signature: Signature
    rhs_signature: Signature

    def __bool__(self) -> bool:
        return self.verified


def _walk(levels: int, root: tuple, choices: Callable) -> Iterator[tuple[tuple, Iterable]]:
    """Depth-first walk over ``levels`` levels of choices, with an explicit stack.

    ``choices(*state)`` yields ``(value, child_state)`` pairs for one level,
    starting from ``root``.  The walk is a generator that yields the deepest
    level whole, one batch at a time and only when asked: ``(prefix, heads)``
    for each iterator ``levels`` deep, with ``heads`` that iterator of
    ``(value, state)`` pairs and ``prefix`` the values chosen above it.  With
    ``levels <= 0`` it yields ``((), [((), root)])`` alone: one head whose
    value is empty.  It holds no state outside itself, so a walk dropped
    part-way leaves nothing to restore.
    """
    if levels <= 0:
        yield (), [((), root)]
        return
    # One value per level, shared by the whole walk so that a deep walk holds
    # O(levels) state; a prefix tuple per level would hold O(levels^2).
    acc: list = []
    stack = [choices(*root)]
    while stack:
        depth = len(stack)
        if depth == levels:
            yield tuple(acc), stack.pop()
            continue
        # A shallower level breaks out after pushing a child and resumes
        # from its iterator when the child is done.
        for value, state in stack[-1]:
            del acc[depth - 1 :]
            acc.append(value)
            stack.append(choices(*state))
            break
        else:
            stack.pop()


def enumerate_family(query: FamilyQuery) -> list[tuple[int, ...]]:
    """All index multisets of size ``t`` with the requested subscript sum.

    Returns ascending tuples in lexicographic order; an infeasible query
    yields the empty list.  Every member converted to a product has
    signature exactly ``(t, subscript_sum)``.
    """
    t, l, rep = query.t, query.max_index, query.repetition
    if t == 1:
        return [(query.subscript_sum,)] if query.subscript_sum <= l else []
    step = 0 if rep else 1  # least gap between neighbouring values

    def candidates(min_value: int, slots: int, remaining: int) -> range:
        # Values v for the first of ``slots`` slots that leave the other
        # ``rest`` slots a completable remainder.  Their largest completion
        # does not depend on v; their smallest grows with v.  Together the
        # two bounds keep v <= l (v <= l - rest without repetition).
        rest = slots - 1
        if rep:
            largest = rest * l
            last = remaining // slots
        else:
            largest = rest * l - rest * (rest - 1) // 2
            last = (remaining - rest * (rest + 1) // 2) // slots
        return range(max(min_value, remaining - largest), last + 1)

    if t == 2:
        s = query.subscript_sum
        return [(v, s - v) for v in candidates(1, 2, s)]

    def children(min_value: int, slots: int, remaining: int) -> Iterator[tuple[int, tuple]]:
        # candidates() with the state each value leaves the next slot
        for v in candidates(min_value, slots, remaining):
            yield v, (v + step, slots - 1, remaining - v)

    # One comprehension over the walk's batches fills the last three slots:
    # below each head, the middle value w ranges over
    # candidates(v + step, 2, r - v), spelled out, and the last takes what
    # remains.  An empty value (the walk's root) adds nothing to the prefix.
    return [
        pre + (v, w, r - v - w)
        for prefix, heads in _walk(t - 3, (1, t, query.subscript_sum), children)
        for value, (min_value, _, r) in heads
        for pre in (prefix + (value,) if value else prefix,)
        for v in candidates(min_value, 3, r)
        for w in range(max(v + step, r - v - l), (r - v - step) // 2 + 1)
    ]


def shift_identity(i: int, j: int, n: int) -> Identity:
    """The rearrangement ``a_i * a_j = a_(i-n) * a_(j+n)``.

    The subscript sum is preserved by construction so the identity always
    verifies.  ``n`` may be negative; a shift that drives either index below
    1 raises :class:`InvalidShiftError`.  Each argument must be an integer
    (:class:`TypeError` otherwise).
    """
    i, j, n = _as_int("i", i), _as_int("j", j), _as_int("n", n)
    if i < 1 or j < 1:
        raise InvalidShiftError(f"term indices must be >= 1, got ({i}, {j})")
    if i - n < 1 or j + n < 1:
        raise InvalidShiftError(
            f"shift by {n} drives an index below 1: ({i - n}, {j + n})"
        )
    lhs = normalize([(i, 1), (j, 1)])
    rhs = normalize([(i - n, 1), (j + n, 1)])
    return Identity(lhs, rhs)


def decompose(
    t: int, subscript_sum: int, parts: int, max_index: int
) -> list[Decomposition]:
    """All weighted power forms with exactly ``parts`` distinct bases.

    Finds every choice of ascending indices ``b_1 < ... < b_parts`` in
    ``[1, max_index]`` and positive integer weights summing to ``t`` whose
    weighted index sum equals ``subscript_sum``.  Output is lexicographic in
    the (index, weight) part lists; infeasible queries return the empty
    list.  Each argument must be an integer (:class:`TypeError` otherwise).

    The walk runs with the cyclic garbage collector paused, because its rows
    cannot form cycles but would be rescanned by every collection; the
    collector's previous state is restored when the walk ends or raises.
    """
    t = _as_int("t", t)
    subscript_sum = _as_int("subscript_sum", subscript_sum)
    parts = _as_int("parts", parts)
    max_index = _as_int("max_index", max_index)
    if t < 1:
        raise ValueError(f"total weight must be >= 1, got {t}")
    if parts < 1 or parts > t:
        raise ValueError(f"part count must be in [1, {t}], got {parts}")
    if subscript_sum < 1:
        raise ValueError(f"subscript sum must be >= 1, got {subscript_sum}")
    if max_index < 1:
        raise ValueError(f"max index must be >= 1, got {max_index}")

    if parts == 1:
        b, r = divmod(subscript_sum, t)
        return [_decomposition(((b, t),))] if r == 0 and b <= max_index else []
    l = max_index

    def choices(
        min_index: int, rest: int, W: int, S: int
    ) -> Iterator[tuple[tuple[int, int], tuple[int, int, int, int]]]:
        # Pairs (b, w) for the next base that leave the other ``rest`` bases
        # a completable remainder, each beside the state it leaves them; W and
        # S are the weight and sum left.  With k = 1 + ... + (rest - 1), the
        # remainder's smallest completion (weight 1 on b+2 .. b+rest, the rest
        # on b+1) and its largest (weight 1 on l-rest+1 .. l-1, the rest on l)
        # bound w from below and above, and w <= W - rest leaves each other
        # base a weight:
        #   (W - w)*(b + 1) + k <= S - w*b <= (W - w)*l - k
        # The base range is where w = W - rest passes the first bound and
        # w = 1 the second.  The walk resumes a level from the list's iterator.
        return iter([
            ((b, w), (b + 1, rest - 1, W - w, S - w * b))
            for k in (rest * (rest - 1) // 2,)
            for slack, last in ((W * l - k - S, (S - k - rest) // W),)
            for b in range(l - slack if l - slack > min_index else min_index, (last if last < l - rest else l - rest) + 1)
            for lo, hi in ((W * (b + 1) + k - S, slack // (l - b)),)
            for w in range(lo if lo > 1 else 1, (hi if hi < W - rest else W - rest) + 1)
        ])

    # One comprehension over the walk's batches fills the last pair, which is
    # forced: b and w = W - d range over choices() at rest = 1, and with
    # rem = S - W*b the last base is b + rem / d, kept iff d divides rem.  d
    # runs down from min(W - 1, rem) to the least d with b + rem / d <= l, so
    # w comes out ascending.  Each head's tuple is built once, so a deep walk
    # holds one O(parts) prefix; an empty pair adds nothing to it.
    with _collector_paused():
        return [
            _decomposition(head + ((b, W - d), (b + rem // d, d)))
            for prefix, heads in _walk(parts - 2, (1, parts - 1, t, subscript_sum), choices)
            for pair, (min_index, _, W, S) in heads
            for head, first, last in ((prefix + (pair,) if pair else prefix, l + S - W * l, (S - 1) // W),)
            for b in range(first if first > min_index else min_index, (last if last < l else l - 1) + 1)
            for rem in (S - W * b,)
            for d in range(W - 1 if rem >= W else rem, (rem - 1) // (l - b), -1)
            if rem % d == 0
        ]


def collapse(p: StringProduct) -> tuple[int, Fraction] | None:
    """Express ``p`` as a single power ``a_k ** T`` when possible.

    Requires purely rational exponents and nonzero total ``T``; returns
    ``(k, T)`` with ``k = S / T`` when that quotient is a positive integer,
    else ``None``.
    """
    sig = signature(p)
    if not (sig.total.is_rational() and sig.weighted_sum.is_rational()):
        raise ValueError("collapse requires purely rational exponents")
    total = sig.total.rat
    if total == 0:
        raise ValueError("collapse requires a nonzero total exponent")
    k = sig.weighted_sum.rat / total
    if k.denominator != 1 or k < 1:
        return None
    return int(k), total


def solve_rational_weights(
    i: int, j: int, k: int, total: Fraction | int | str
) -> tuple[Fraction, Fraction]:
    """Exact weights (w1, w2) with ``a_i**w1 * a_j**w2 = a_k**total``.

    Solves ``w1 + w2 = total`` and ``w1*i + w2*j = total*k``.  For ``i != j``
    the solution is unique; the degenerate ``i == j == k`` case returns
    ``(total, 0)``, and ``i == j != k`` has no solution.  The indices must
    be integers (:class:`TypeError` otherwise).
    """
    i, j, k = _as_int("i", i), _as_int("j", j), _as_int("k", k)
    for name, value in (("i", i), ("j", j), ("k", k)):
        if value < 1:
            raise ValueError(f"index {name} must be >= 1, got {value}")
    total = as_rational(total)
    if i == j:
        if k == i:
            return total, Fraction(0)
        raise NoSolutionError(
            f"equal source indices {i} cannot reach a different target {k}"
        )
    w1 = total * (k - j) / (i - j)
    w2 = total * (i - k) / (i - j)
    return w1, w2


def verify_identity(ident: Identity) -> Verdict:
    """Decide an identity by signature comparison.

    Never raises when both sides are :class:`StringProduct` values.
    """
    lhs_sig = signature(ident.lhs)
    rhs_sig = signature(ident.rhs)
    return Verdict(lhs_sig == rhs_sig, lhs_sig, rhs_sig)
