"""Row counts for the enumeration queries, computed without geomprod.

These give ``enumerate-grid`` an answer that does not come from the code it
measures, so an enumerator that silently drops rows cannot count as faster.
"""

from __future__ import annotations


def multisets(size: int, total: int, top: int) -> int:
    """Number of multisets of ``size`` values from ``{0..top}`` summing to ``total``.

    Equivalently the coefficient of ``q**total`` in the Gaussian binomial
    ``[size+top choose size]_q``.  The map ``v -> top - v`` makes the count
    symmetric in ``total <-> size*top - total``, which keeps the table small
    for sums near the top of the range.
    """
    if size < 0 or top < 0 or not 0 <= total <= size * top:
        return 0
    total = min(total, size * top - total)
    top = min(top, total)
    # ways[k][s]: multisets of k values already chosen from {0..v} with sum s
    ways = [[0] * (total + 1) for _ in range(size + 1)]
    ways[0][0] = 1
    for v in range(top + 1):
        for k in range(1, size + 1):
            row, prev = ways[k], ways[k - 1]
            for s in range(v, total + 1):
                row[s] += prev[s - v]
    return ways[size][total]


def family_count(t: int, subscript_sum: int, max_index: int, repetition: bool) -> int:
    """Number of t-element multisets (or sets) of ``[1..max_index]`` with the given sum.

    Sets map to multisets by ``v_i -> v_i - i`` on the sorted values; multisets
    shift every value down by one.
    """
    if repetition:
        return multisets(t, subscript_sum - t, max_index - 1)
    if t > max_index:
        return 0
    return multisets(t, subscript_sum - t * (t + 1) // 2, max_index - t)


def decompose_count(t: int, subscript_sum: int, parts: int, max_index: int) -> int:
    """Number of t-element multisets of ``[1..max_index]`` with the given sum and
    exactly ``parts`` distinct values (the power forms ``decompose`` lists)."""
    # states[(k, s, d)]: multisets of size k and sum s using d distinct values
    states = {(0, 0, 0): 1}
    for b in range(1, max_index + 1):
        grown = dict(states)
        for (k, s, d), n in states.items():
            if d == parts:
                continue
            for w in range(1, t - k + 1):
                s2 = s + w * b
                if s2 > subscript_sum:
                    break
                key = (k + w, s2, d + 1)
                grown[key] = grown.get(key, 0) + n
        states = grown
    return states.get((t, subscript_sum, parts), 0)
