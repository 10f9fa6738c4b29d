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

Enumerators walk the search tree with an explicit stack, so their depth is
not limited by the interpreter's recursion limit.  At every level the
remaining sum must stay between the smallest and largest completion of the
slots still open (the interval bounds of restricted partitions, Andrews,
*The Theory of Partitions*, ch. 3).  Both bounds are linear in the next
candidate, so each level solves them for its first and last feasible
candidate instead of testing candidates one by one; the last slot is then
forced.  A walk therefore costs in proportion to the rows it returns times
``t``, not to ``max_index``, and its output matches a brute-force filter.
All listings come out in lexicographic order and are byte-reproducible.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .exact import as_rational
from .model import Signature, StringProduct, normalize, signature

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
    distinct.
    """

    t: int
    subscript_sum: int
    max_index: int
    repetition: bool = False

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"tuple size must be >= 1, got {self.t}")
        if self.subscript_sum < 1:
            raise ValueError(f"subscript sum must be >= 1, got {self.subscript_sum}")
        if self.max_index < 1:
            raise ValueError(f"max index must be >= 1, got {self.max_index}")

    def feasible(self) -> bool:
        if self.repetition:
            lo, hi = self.t, self.t * self.max_index
        else:
            if self.t > self.max_index:
                return False
            lo = self.t * (self.t + 1) // 2
            hi = self.t * self.max_index - self.t * (self.t - 1) // 2
        return lo <= self.subscript_sum <= hi


@dataclass(frozen=True)
class Decomposition:
    """Weighted power form: distinct indices with positive integer weights."""

    parts: tuple[tuple[int, int], ...]

    def to_product(self) -> StringProduct:
        return normalize((b, w) for b, w in self.parts)

    def to_json_dict(self) -> dict:
        return {"parts": [{"index": b, "weight": w} for b, w in self.parts]}


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


def enumerate_family(query: FamilyQuery) -> list[tuple[int, ...]]:
    """All index multisets of size ``t`` with the requested subscript sum.

    Returns ascending tuples in lexicographic order; an infeasible query
    yields the empty list.  Every member converted to a product has
    signature exactly ``(t, subscript_sum)``.
    """
    if not query.feasible():
        return []
    t, l, rep = query.t, query.max_index, query.repetition
    if t == 1:
        return [(query.subscript_sum,)]

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

    out: list[tuple[int, ...]] = []
    # One value per filled slot, shared by the whole walk so that a deep
    # query holds O(t) state; a prefix tuple per level would hold O(t^2).
    acc: list[int] = []
    stack: list[tuple[Iterator[int], int]] = []  # (candidates, remaining) per open slot

    def open_slot(min_value: int, remaining: int) -> None:
        values = candidates(min_value, t - len(acc), remaining)
        if len(acc) == t - 2:  # the last slot takes what remains
            prefix = tuple(acc)
            out.extend([prefix + (v, remaining - v) for v in values])
        else:
            stack.append((iter(values), remaining))

    open_slot(1, query.subscript_sum)
    while stack:
        values, remaining = stack[-1]
        v = next(values, None)
        if v is None:
            stack.pop()
            continue
        del acc[len(stack) - 1 :]
        acc.append(v)
        open_slot(v if rep else v + 1, remaining - v)
    return out


def shift_identity(i: int, j: int, n: int) -> Identity:
    """The rearrangement ``a_i * a_j = a_(i-n) * a_(j+n)``.

    The subscript sum is preserved by construction so the identity always
    verifies.  ``n`` may be negative; a shift that drives either index below
    1 raises :class:`InvalidShiftError`.
    """
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
    list.
    """
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
        return [Decomposition(((b, t),))] if r == 0 and b <= max_index else []
    l = max_index

    def choices(
        min_index: int, rest: int, weight_left: int, sum_left: int
    ) -> Iterator[tuple[int, int]]:
        # Pairs (b, w) for the next base that leave the other ``rest`` bases
        # a completable remainder.  Its smallest completion gives weight 1 to
        # b+2 .. b+rest and the surplus cw - w to b+1; its largest gives
        # weight 1 to l-rest+1 .. l-1 and the surplus to l:
        #   sum_left - w*b >= (cw - w)*(b + 1) + sum(b+2 .. b+rest)
        #   sum_left - w*b <= (cw - w)*l + sum(l-rest+1 .. l-1)
        # Both are linear in w and give the weight range of each base; the
        # base range is where w = cw - 1 passes the first and w = 1 the
        # second.
        cw = weight_left - rest + 1
        k1 = rest * (rest + 1) // 2 - 1  # sum(b+2 .. b+rest) = (rest-1)*b + k1
        low = cw + k1 - sum_left  # smallest weight at b: weight_left*b + low
        slack = weight_left * l - rest * (rest - 1) // 2 - sum_left
        last = min(l - rest, (sum_left - 1 - k1) // weight_left)
        for b in range(max(min_index, l - slack), last + 1):
            heaviest = min(cw - 1, slack // (l - b))
            for w in range(max(1, weight_left * b + low), heaviest + 1):
                yield b, w

    out: list[Decomposition] = []
    acc: list[tuple[int, int]] = []  # one (b, w) per filled slot, O(parts) state
    # (choices, weight left, sum left) per open slot
    stack: list[tuple[Iterator[tuple[int, int]], int, int]] = []

    def open_slot(min_index: int, weight_left: int, sum_left: int) -> None:
        rest = parts - 1 - len(acc)
        pairs = choices(min_index, rest, weight_left, sum_left)
        if rest == 1:  # the last base and weight are forced
            prefix = tuple(acc)
            for b, w in pairs:
                w_last = weight_left - w
                b_last, r = divmod(sum_left - w * b, w_last)
                if r == 0:
                    out.append(Decomposition(prefix + ((b, w), (b_last, w_last))))
        else:
            stack.append((pairs, weight_left, sum_left))

    open_slot(1, t, subscript_sum)
    while stack:
        pairs, weight_left, sum_left = stack[-1]
        pair = next(pairs, None)
        if pair is None:
            stack.pop()
            continue
        del acc[len(stack) - 1 :]
        acc.append(pair)
        b, w = pair
        open_slot(b + 1, weight_left - w, sum_left - w * b)
    return out


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
    ``(total, 0)``, and ``i == j != k`` has no solution.
    """
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
    """Decide an identity by signature comparison; never raises."""
    lhs_sig = signature(ident.lhs)
    rhs_sig = signature(ident.rhs)
    return Verdict(lhs_sig == rhs_sig, lhs_sig, rhs_sig)
