"""Family enumeration, decompositions and exact weight solving."""

import copy
import gc
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from geomprod import (
    Decomposition,
    ExactExponent,
    FamilyQuery,
    Identity,
    InvalidIndexError,
    InvalidShiftError,
    NoSolutionError,
    Signature,
    brute_force_family,
    collapse,
    decompose,
    enumerate_family,
    equivalent,
    normalize,
    numeric_check,
    OracleConfig,
    render,
    shift_identity,
    signature,
    solve_rational_weights,
    verify_identity,
)
from geomprod import identities

from .support import equivalent_variant, random_product


class TestEnumerateFamily:
    def test_pairs_summing_to_seven(self):
        assert enumerate_family(FamilyQuery(2, 7, 6)) == [(1, 6), (2, 5), (3, 4)]

    def test_triples_summing_to_twelve(self):
        got = enumerate_family(FamilyQuery(3, 12, 8))
        assert got == [(1, 3, 8), (1, 4, 7), (1, 5, 6), (2, 3, 7), (2, 4, 6), (3, 4, 5)]

    def test_triples_with_repetition(self):
        got = enumerate_family(FamilyQuery(3, 12, 8, repetition=True))
        assert len(got) == 10
        assert (4, 4, 4) in got and (2, 2, 8) in got

    def test_singleton(self):
        assert enumerate_family(FamilyQuery(1, 5, 10)) == [(5,)]

    def test_infeasible_is_empty(self):
        assert enumerate_family(FamilyQuery(2, 1, 6)) == []
        assert enumerate_family(FamilyQuery(3, 100, 8)) == []
        assert enumerate_family(FamilyQuery(3, 5, 8)) == []  # distinct minimum is 6
        assert enumerate_family(FamilyQuery(1, 11, 10)) == []  # one term past max_index
        assert enumerate_family(FamilyQuery(5, 15, 4)) == []  # more terms than indices

    def test_query_validation(self):
        for bad in [(0, 5, 6), (2, 0, 6), (2, 5, 0)]:
            with pytest.raises(ValueError):
                FamilyQuery(*bad)

    def test_members_share_the_target_signature(self):
        query = FamilyQuery(3, 12, 8)
        members = [normalize((i, 1) for i in m) for m in enumerate_family(query)]
        want = Signature(ExactExponent(3), ExactExponent(12))
        for p in members:
            assert signature(p) == want
        for p in members:
            assert equivalent(members[0], p)

    def test_matches_brute_force_on_samples(self):
        for l in (5, 9, 12):
            for t in range(1, 5):
                for rep in (False, True):
                    for s in range(1, t * l + 1):
                        assert enumerate_family(
                            FamilyQuery(t, s, l, rep)
                        ) == brute_force_family(t, s, l, rep)

    def test_matches_brute_force_at_five_terms(self):
        # two walk levels: the first on the stack, the second handed to the
        # last pass as one batch of heads
        for l in range(1, 16):
            for rep in (False, True):
                for s in range(1, 5 * l + 2):
                    assert enumerate_family(
                        FamilyQuery(5, s, l, rep)
                    ) == brute_force_family(5, s, l, rep), (s, l, rep)

    @pytest.mark.parametrize(
        "t, ls, spread",
        [
            pytest.param(6, range(1, 13), None, id="6"),
            pytest.param(7, range(1, 13), None, id="7"),
            # the dense families the benchmark times: l = 40 to 60, sums
            # within 4 of 2(l + 1)
            pytest.param(4, (40, 60), 4, id="4-dense"),
        ],
    )
    def test_matches_combinations_past_brute_force_range(self, t, ls, spread):
        # brute_force_family stops at t = 5 and l = 15; group every
        # combination by sum
        for l in ls:
            for rep in (False, True):
                combine = (
                    itertools.combinations_with_replacement
                    if rep
                    else itertools.combinations
                )
                by_sum = {}
                for c in combine(range(1, l + 1), t):
                    by_sum.setdefault(sum(c), []).append(c)
                if spread is None:
                    sums = range(1, t * l + 2)
                else:
                    sums = range(2 * (l + 1) - spread, 2 * (l + 1) + spread + 1)
                for s in sums:
                    got = enumerate_family(FamilyQuery(t, s, l, rep))
                    assert got == by_sum.get(s, []), (t, s, l, rep)

    def test_scales_past_oracle_bounds(self):
        got = enumerate_family(FamilyQuery(3, 75, 50))
        assert all(sum(m) == 75 and len(set(m)) == 3 for m in got)
        assert got == sorted(got)

    def test_counts_match_subset_sum_dp(self):
        t, l = 6, 50
        for rep in (False, True):
            # ways[k][s]: k-multisets (k-subsets without repetition) of
            # [1, l] with sum s, built one index at a time
            ways = [[0] * (t * l + 2) for _ in range(t + 1)]
            ways[0][0] = 1
            for i in range(1, l + 1):
                ks = range(1, t + 1) if rep else range(t, 0, -1)
                for k in ks:
                    for s in range(i, t * l + 2):
                        ways[k][s] += ways[k - 1][s - i]
            for s in (1, 21, 40, 97, 153, 260, 290, 296, 300, 301):
                got = enumerate_family(FamilyQuery(t, s, l, rep))
                assert len(got) == ways[t][s]
                assert all(sum(m) == s for m in got)

    def test_sparse_rows_at_large_index(self):
        l = 10**6
        assert enumerate_family(FamilyQuery(2, 2 * l - 1, l)) == [(l - 1, l)]
        assert enumerate_family(FamilyQuery(3, 3 * l - 3, l)) == [(l - 2, l - 1, l)]
        assert enumerate_family(FamilyQuery(3, 3 * l - 1, l, repetition=True)) == [
            (l - 1, l, l)
        ]
        assert enumerate_family(FamilyQuery(2, 3, l)) == [(1, 2)]

    def test_deep_repetition_family(self):
        # one row, 1200 slots deep: past the interpreter's recursion limit
        assert enumerate_family(FamilyQuery(1200, 1200, 1200, repetition=True)) == [
            (1,) * 1200
        ]

    def test_deep_family_that_branches(self):
        # 1197 walk levels that backtrack at several of them: each partition
        # of 5 turns one trailing 1 per part p into 1 + p
        def partitions(n, largest):
            if n == 0:
                yield ()
            for p in range(min(n, largest), 0, -1):
                for rest in partitions(n - p, p):
                    yield (p,) + rest

        expect = sorted(
            (1,) * (1200 - len(ps)) + tuple(sorted(1 + p for p in ps))
            for ps in partitions(5, 5)
        )
        assert len(expect) == 7
        assert enumerate_family(FamilyQuery(1200, 1205, 1200, repetition=True)) == expect


class TestShiftIdentity:
    def test_shift_down(self):
        ident = shift_identity(5, 2, 1)
        assert ident.lhs == normalize([(5, 1), (2, 1)])
        assert ident.rhs == normalize([(4, 1), (3, 1)])
        assert verify_identity(ident).verified

    def test_shift_up_is_the_mirror(self):
        ident = shift_identity(4, 3, -1)
        assert ident.rhs == normalize([(5, 1), (2, 1)])

    def test_zero_shift(self):
        ident = shift_identity(4, 3, 0)
        assert ident.lhs == ident.rhs

    def test_shift_below_one(self):
        with pytest.raises(InvalidShiftError):
            shift_identity(2, 5, 3)
        with pytest.raises(InvalidShiftError):
            shift_identity(5, 2, -2)
        with pytest.raises(InvalidShiftError):
            shift_identity(0, 5, 0)

    def test_always_verifies(self):
        rng = random.Random(11)
        for _ in range(300):
            i, j = rng.randint(1, 30), rng.randint(1, 30)
            n = rng.randint(-(30 - 1), 30 - 1)
            if i - n < 1 or j + n < 1:
                continue
            assert verify_identity(shift_identity(i, j, n)).verified


class TestDecompose:
    def test_single_base_square(self):
        assert decompose(2, 8, 1, 8) == [Decomposition(((4, 2),))]

    def test_two_base_forms(self):
        got = decompose(3, 12, 2, 8)
        assert got == [
            Decomposition(((2, 1), (5, 2))),
            Decomposition(((2, 2), (8, 1))),
            Decomposition(((3, 2), (6, 1))),
        ]

    def test_parity_infeasibility(self):
        assert decompose(2, 3, 1, 8) == []

    def test_preconditions(self):
        with pytest.raises(ValueError):
            decompose(2, 8, 3, 8)  # more parts than weight
        with pytest.raises(ValueError):
            decompose(0, 8, 1, 8)
        with pytest.raises(ValueError, match="subscript sum must be >= 1"):
            decompose(2, 0, 1, 8)
        with pytest.raises(ValueError, match="max index must be >= 1"):
            decompose(2, 8, 1, 0)

    def test_single_base_feasibility_rule(self):
        l = 8
        for t in range(1, 5):
            for s in range(1, 3 * l):
                got = decompose(t, s, 1, l)
                expect = s % t == 0 and 1 <= s // t <= l
                assert bool(got) == expect
                if got:
                    assert got == [Decomposition(((s // t, t),))]

    def test_results_match_family_signature(self):
        t, s, l = 4, 21, 9
        family = enumerate_family(FamilyQuery(t, s, l))
        reference = normalize((i, 1) for i in family[0])
        for parts in range(1, t + 1):
            for d in decompose(t, s, parts, l):
                assert len({b for b, _ in d.parts}) == parts
                assert all(w >= 1 for _, w in d.parts)
                assert equivalent(d.to_product(), reference)

    def test_brute_force_cross_check(self):
        def compositions(t, n):
            """Every weighting of n bases with total weight t."""
            return [
                tuple(b - a for a, b in zip((0,) + cuts, cuts + (t,)))
                for cuts in itertools.combinations(range(1, t), n - 1)
            ]

        def brute(weightings, n, l):
            """Every form with n bases in [1, l] and the given weightings, by sum."""
            found = {}
            for bases in itertools.combinations(range(1, l + 1), n):
                for weights in weightings:
                    s = sum(b * w for b, w in zip(bases, weights))
                    found.setdefault(s, []).append(tuple(zip(bases, weights)))
            return {s: sorted(rows) for s, rows in found.items()}

        # (t, l, most parts): t = 6 reaches every walk depth (one part, no
        # walk level and so one empty head, one level yielded as a batch of
        # heads, and that batch under one to three stack levels) and t = 7
        # puts the batch under four; the benchmark's weights, t = 9 and 10,
        # give last weights up to t - 1, past any that t <= 7 reaches
        grid = [(t, l, t) for l in range(1, 10) for t in range(1, 6)]
        grid += [(6, l, 6) for l in range(1, 9)]
        grid += [(7, l, 7) for l in range(1, 8)]
        grid += [(t, l, 5) for t in (9, 10) for l in range(1, 9)]
        for t, l, most in grid:
            for n in range(1, most + 1):
                expect = brute(compositions(t, n), n, l)
                for s in range(1, t * l + 2):
                    got = [d.parts for d in decompose(t, s, n, l)]
                    assert got == expect.get(s, []), (t, s, n, l)

    def test_wide_two_part_query(self):
        # every first pair at a large total weight, the second base forced
        t, s, l = 200, 20000, 150
        expect = []
        for b1 in range(1, l + 1):
            for w1 in range(1, t):
                b2, r = divmod(s - w1 * b1, t - w1)
                if r == 0 and b1 < b2 <= l:
                    expect.append(((b1, w1), (b2, t - w1)))
        assert len(expect) == 440
        assert [d.parts for d in decompose(t, s, 2, l)] == expect

    def test_sparse_at_large_index(self):
        l = 10**5
        assert decompose(2, 2 * l - 1, 2, l) == [Decomposition(((l - 1, 1), (l, 1)))]
        assert decompose(3, 3 * l - 1, 2, l) == [Decomposition(((l - 1, 1), (l, 2)))]
        assert decompose(4, 4 * l - 6, 4, l) == [
            Decomposition(((l - 3, 1), (l - 2, 1), (l - 1, 1), (l, 1)))
        ]

    def test_deep_all_distinct(self):
        # 1200 bases of weight 1: past the interpreter's recursion limit
        assert decompose(1200, 720600, 1200, 1200) == [
            Decomposition(tuple((b, 1) for b in range(1, 1201)))
        ]

    def test_choices_lists_exactly_the_completable_heads(self, monkeypatch):
        # Every (base, weight) head that decompose's walk is offered, against
        # the inequality that defines it: b and w leave the other ``rest``
        # bases a weight each and a remainder between its smallest and
        # largest completion.  A bound loosened so that it offers a head that
        # completes to no row changes no listing, only this set.  A loosened
        # b range adds no head, only bases with an empty w range: the ranges
        # each call builds (b's, then one w range per b) show those.  The
        # last pair's bases are pinned the same way: each one it visits
        # builds one d range, the only ranges with step -1, and a loosened
        # base bound adds only empty ones.
        walk = identities._walk
        calls = []
        d_ranges = []

        def recording_d_range(*args):
            built = range(*args)
            if built.step == -1:
                d_ranges.append(built)
            return built

        def recording_walk(levels, root, choices):
            def recording(*state):
                built = []

                def recording_range(*args):
                    built.append(range(*args))
                    return built[-1]

                with monkeypatch.context() as patch:
                    patch.setattr(identities, "range", recording_range, raising=False)
                    rows = list(choices(*state))
                calls.append((state, rows, built))
                return iter(rows)

            return walk(levels, root, recording)

        monkeypatch.setattr(identities, "_walk", recording_walk)
        monkeypatch.setattr(identities, "range", recording_d_range, raising=False)
        heads = bases = last_bases = candidates = 0
        for t in range(2, 10):
            for parts in range(2, min(t, 6) + 1):
                for l in range(parts, 11):
                    for s in range(t, t * l + 1):
                        calls.clear()
                        d_ranges.clear()
                        decompose(t, s, parts, l)
                        assert all(d_ranges), (t, s, parts, l)
                        last_bases += len(d_ranges)
                        candidates += sum(map(len, d_ranges))
                        for (min_index, rest, W, S), rows, built in calls:
                            where = (t, s, parts, l, min_index, rest, W, S)
                            k = rest * (rest - 1) // 2
                            expect = [
                                ((b, w), (b + 1, rest - 1, W - w, S - w * b))
                                for b in range(min_index, l - rest + 1)
                                for w in range(1, W - rest + 1)
                                if (W - w) * (b + 1) + k <= S - w * b <= (W - w) * l - k
                            ]
                            assert rows == expect, where
                            b_range, *w_ranges = built
                            assert len(w_ranges) == len(b_range), where
                            assert all(w_ranges), where
                            heads += len(rows)
                            bases += len(b_range)
        assert heads == 156951
        assert bases == 93157
        assert last_bases == 177804
        assert candidates == 268056

    def test_json_shape(self):
        d = Decomposition(((2, 1), (5, 2)))
        assert d.to_json_dict() == {
            "parts": [{"index": 2, "weight": 1}, {"index": 5, "weight": 2}]
        }


class TestWalk:
    def test_generator_contract(self):
        # A tree whose nodes (lo, hi) have children lo .. hi - 1, so some
        # batches are empty; the walk must yield the batches, with their
        # prefixes, in the order a recursive depth-first walk reaches them.
        def choices(lo, hi):
            return iter([(v, (v + 1, hi)) for v in range(lo, hi)])

        def reference(levels, state, prefix=()):
            if levels == 1:
                yield prefix, list(choices(*state))
                return
            for value, child in choices(*state):
                yield from reference(levels - 1, child, prefix + (value,))

        for levels in (0, -1):
            assert list(identities._walk(levels, (2, 5), choices)) == [((), [((), (2, 5))])]
        for levels in range(1, 6):
            walked = [(prefix, list(heads)) for prefix, heads in identities._walk(levels, (0, 6), choices)]
            assert walked == list(reference(levels, (0, 6))), levels

        # 2^59 batches: the first comes at once, after one choices call per
        # level, so a consumer can stream a walk it never finishes
        calls = []

        def two_way(depth):
            calls.append(depth)
            return iter([(0, (depth + 1,)), (1, (depth + 1,))])

        prefix, heads = next(identities._walk(60, (0,), two_way))
        assert prefix == (0,) * 59
        assert list(heads) == [(0, (60,)), (1, (60,))]
        assert calls == list(range(60))


class TestIntegerArguments:
    """Each count and index is checked once, at the boundary: a float used to
    pass through as a row value or index, or fail inside ``range`` without a
    name."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: enumerate_family(FamilyQuery(1, 8.0, 8)), "subscript_sum"),
            (lambda: decompose(2, 8.0, 1, 8), "subscript_sum"),
            (lambda: FamilyQuery(1, 3, 8.5), "max_index"),
            (lambda: decompose(3, 12, 2, 8.0), "max_index"),
            (lambda: FamilyQuery(2.0, 8, 8), "t"),
            (lambda: decompose(3, 12, "2", 8), "parts"),
            (lambda: shift_identity(2.0, 5, 1), "i"),
            (lambda: shift_identity(4, 3, 1.0), "n"),
            (lambda: solve_rational_weights(2.0, 4, 3, 2), "i"),
            (lambda: solve_rational_weights(2, 4, Fraction(3), 2), "k"),
        ],
    )
    def test_non_integer_raises_type_error_naming_it(self, call, name):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            call()

    def test_integer_likes_are_stored_as_int(self):
        query = FamilyQuery(True, 3, 8)
        assert type(query.t) is int and query.t == 1
        assert enumerate_family(query) == [(3,)]
        assert decompose(True, 4, True, 8) == [Decomposition(((4, 1),))]
        ident = shift_identity(3, True, True)
        assert ident == shift_identity(3, 1, 1)
        assert all(type(f.index) is int for f in ident.lhs.factors + ident.rhs.factors)

    @pytest.mark.parametrize("repetition", ["False", 0, 1, None])
    def test_repetition_must_be_a_bool(self, repetition):
        with pytest.raises(TypeError, match="^repetition must be a bool"):
            FamilyQuery(2, 4, 6, repetition)


class TestCollectorPause:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def test_state_restored(self, collector):
        assert len(decompose(10, 60, 4, 12)) == 796
        assert gc.isenabled() is collector

    # one query per walk depth, with its row count: no walk level (one empty
    # head), one level yielded as a batch of heads, and that batch under a
    # stack level
    PATHS = {(3, 12, 2, 8): 3, (6, 30, 3, 9): 30, (10, 60, 4, 12): 796}

    def test_paused_during_walk(self, collector, monkeypatch):
        seen = []
        row = identities._decomposition

        def recording(parts):
            seen.append(gc.isenabled())
            return row(parts)

        monkeypatch.setattr(identities, "_decomposition", recording)
        for query, count in self.PATHS.items():
            seen.clear()
            decompose(*query)
            assert seen == [False] * count, query
            assert gc.isenabled() is collector, query

    def test_state_restored_when_walk_raises(self, collector, monkeypatch):
        def failing(parts):
            raise RuntimeError("row")

        monkeypatch.setattr(identities, "_decomposition", failing)
        for query in self.PATHS:
            with pytest.raises(RuntimeError, match="row"):
                decompose(*query)
            assert gc.isenabled() is collector, query


class TestDecompositionRecord:
    def test_rows_equal_public_construction(self):
        for t, s, parts, l in [(2, 8, 1, 8), (3, 12, 2, 8), (6, 30, 3, 9)]:
            for d in decompose(t, s, parts, l):
                public = Decomposition(d.parts)
                assert d == public and hash(d) == hash(public) and repr(d) == repr(public)

    @pytest.mark.parametrize(
        "parts, error, match",
        [
            ([(2, 1), (2, 1)], ValueError, "strictly ascending"),
            ([(3, 0), (5, -2)], ValueError, "^weights must be >= 1, got 0"),
            ([(2.5, 1)], TypeError, "^index must be an integer"),
            ([(5, 1), (2, 1)], ValueError, "strictly ascending"),
            ([(0, 1)], InvalidIndexError, "^term index must be >= 1"),
            ([(2, 1.0)], TypeError, "^weight must be an integer"),
        ],
        ids=["repeated", "weights", "float-index", "descending", "zero-index", "float-weight"],
    )
    def test_bad_parts_raise(self, parts, error, match):
        with pytest.raises(error, match=match) as raised:
            Decomposition(parts)
        assert type(raised.value) is error

    @pytest.mark.parametrize(
        "kind", [list, tuple, lambda xs: (x for x in xs)], ids=["list", "tuple", "generator"]
    )
    def test_parts_are_stored_as_tuples(self, kind):
        # each part given as a list, too, is stored as a 2-tuple
        d, expected = Decomposition(kind([[2, 1], [5, 2]])), Decomposition(((2, 1), (5, 2)))
        assert type(d.parts) is tuple and all(type(part) is tuple for part in d.parts)
        assert d == expected and hash(d) == hash(expected)
        # read twice: parts kept as the iterator given would be empty the second time
        assert d.to_json_dict() == d.to_json_dict() == expected.to_json_dict()
        assert render(d.to_product()) == render(expected.to_product()) == "a2*a5^(2)"

    def test_pickle_copy_and_no_dict(self):
        for d in decompose(6, 30, 3, 9) + decompose(2, 8, 1, 8):
            assert not hasattr(d, "__dict__")
            for back in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
                assert back == d and hash(back) == hash(d) and repr(back) == repr(d)


class TestCollapse:
    def test_two_terms_to_square(self):
        assert collapse(normalize([(3, 1), (5, 1)])) == (4, Fraction(2))

    def test_wide_pair(self):
        # (2+8)/2 = 5, and numerically 2*128 = 256 = 16**2 at a1=1, r=2
        assert collapse(normalize([(2, 1), (8, 1)])) == (5, Fraction(2))

    def test_non_integral_center(self):
        assert collapse(normalize([(2, 1), (5, 1)])) is None

    def test_fractional_total(self):
        assert collapse(normalize([(4, Fraction(3, 2))])) == (4, Fraction(3, 2))

    def test_requires_rational_exponents(self):
        with pytest.raises(ValueError):
            collapse(normalize([(3, ExactExponent(0, 1))]))

    def test_requires_nonzero_total(self):
        with pytest.raises(ValueError):
            collapse(normalize([(3, 1), (5, -1)]))

    def test_collapsed_power_is_equivalent(self):
        rng = random.Random(5)
        hits = 0
        while hits < 100:
            p = random_product(rng, allow_pi=False, allow_empty=False)
            if signature(p).total.rat == 0:
                continue
            result = collapse(p)
            if result is None:
                continue
            hits += 1
            k, t = result
            assert equivalent(p, normalize([(k, t)]))


class TestSolveRationalWeights:
    def test_fractional_example(self):
        assert solve_rational_weights(5, 2, 4, Fraction(3, 2)) == (
            Fraction(1),
            Fraction(1, 2),
        )

    def test_integer_solution(self):
        assert solve_rational_weights(2, 8, 5, 2) == (Fraction(1), Fraction(1))

    def test_degenerate_same_index(self):
        assert solve_rational_weights(3, 3, 3, 7) == (Fraction(7), Fraction(0))

    def test_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve_rational_weights(3, 3, 5, 2)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            solve_rational_weights(0, 2, 1, 1)

    def test_zero_residual_everywhere(self):
        rng = random.Random(31)
        for _ in range(500):
            i, j = rng.sample(range(1, 40), 2)
            k = rng.randint(1, 40)
            t = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
            w1, w2 = solve_rational_weights(i, j, k, t)
            assert w1 + w2 == t
            assert w1 * i + w2 * j == t * k
            ident = Identity(normalize([(i, w1), (j, w2)]), normalize([(k, t)]))
            assert verify_identity(ident).verified


class TestVerifyIdentity:
    def test_pi_weighted_identity(self):
        lhs = normalize([(3, ExactExponent(0, 6)), (6, 6)])
        rhs = normalize([(2, ExactExponent(2, 5)), (8, ExactExponent(4, 1))])
        verdict = verify_identity(Identity(lhs, rhs))
        assert verdict.verified
        assert verdict.lhs_signature.total == ExactExponent(6, 6)
        assert verdict.lhs_signature.weighted_sum == ExactExponent(36, 18)

    def test_triple_rearrangement(self):
        lhs = normalize([(2, 1), (3, 1), (7, 1)])
        rhs = normalize([(8, 1), (3, 1), (1, 1)])
        assert verify_identity(Identity(lhs, rhs)).verified

    def test_refutation_carries_witness(self):
        verdict = verify_identity(
            Identity(normalize([(3, 1), (4, 1)]), normalize([(5, 1), (1, 1)]))
        )
        assert not verdict.verified
        assert not verdict
        assert verdict.lhs_signature == Signature(ExactExponent(2), ExactExponent(7))
        assert verdict.rhs_signature == Signature(ExactExponent(2), ExactExponent(6))

    def test_verified_implies_numeric_agreement(self):
        rng = random.Random(99)
        for trial in range(40):
            p = random_product(rng)
            ident = Identity(p, equivalent_variant(rng, p))
            assert verify_identity(ident).verified
            report = numeric_check(ident, OracleConfig(trials=100, seed=trial))
            assert report.verdict == "pass"
