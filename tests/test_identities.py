"""Family enumeration, decompositions and exact weight solving."""

import random
from fractions import Fraction

import pytest

from geomprod import (
    Decomposition,
    ExactExponent,
    FamilyQuery,
    Identity,
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
    shift_identity,
    signature,
    solve_rational_weights,
    verify_identity,
)

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

    def test_query_validation(self):
        for bad in [(0, 5, 6), (2, 0, 6), (2, 5, 0)]:
            with pytest.raises(ValueError):
                FamilyQuery(*bad)

    def test_feasibility_predicate(self):
        assert FamilyQuery(3, 12, 8).feasible()
        assert not FamilyQuery(3, 5, 8).feasible()  # distinct minimum is 6
        assert FamilyQuery(3, 5, 8, repetition=True).feasible()

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
        import itertools

        def brute(t, n, l):
            """Every form with n bases in [1, l] and total weight t, by sum."""
            weightings = [
                w for w in itertools.product(range(1, t + 1), repeat=n) if sum(w) == t
            ]
            found = {}
            for bases in itertools.combinations(range(1, l + 1), n):
                for weights in weightings:
                    s = sum(b * w for b, w in zip(bases, weights))
                    found.setdefault(s, []).append(tuple(zip(bases, weights)))
            return {s: sorted(rows) for s, rows in found.items()}

        for l in range(1, 10):
            for t in range(1, 6):
                for n in range(1, t + 1):
                    expect = brute(t, n, l)
                    for s in range(1, t * l + 2):
                        got = [d.parts for d in decompose(t, s, n, l)]
                        assert got == expect.get(s, []), (t, s, n, l)

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

    def test_json_shape(self):
        d = Decomposition(((2, 1), (5, 2)))
        assert d.to_json_dict() == {
            "parts": [{"index": 2, "weight": 1}, {"index": 5, "weight": 2}]
        }


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
