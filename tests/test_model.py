"""Core model: normalization, signatures, equivalence, evaluation."""

import copy
import fractions
import math
import pickle
import random
import sys
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomprod import (
    ExactExponent,
    Factor,
    IndexRangeError,
    InvalidIndexError,
    SequenceSpec,
    Signature,
    StringProduct,
    equivalent,
    evaluate,
    normalize,
    power,
    product,
    render,
    signature,
)
from geomprod import model

from .support import (
    equivalent_variant,
    random_product,
    same_total_variant,
    sample_admissible,
)

raw_pairs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=15),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
    ),
    max_size=6,
)
products = raw_pairs.map(normalize)

# Wide products for the reference check: pi components, negative and
# large-denominator exponents, indices up to 10^6, and the empty product.
wide_rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**9),
    st.integers(min_value=-(10**12), max_value=10**12).map(Fraction),
)
wide_products = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10**6),
        st.builds(ExactExponent, wide_rationals, wide_rationals),
    ),
    max_size=40,
).map(normalize)


def reference_signature(p: StringProduct) -> Signature:
    """Per-factor ExactExponent accumulation, the direct reading of (T, S)."""
    total = ExactExponent()
    weighted = ExactExponent()
    for f in p.factors:
        total = total + f.exponent
        weighted = weighted + f.exponent.scale(f.index)
    return Signature(total, weighted)


class TestNormalize:
    def test_merges_equal_indices(self):
        p = normalize([(3, 1), (3, 1)])
        assert p.factors == (Factor(3, ExactExponent(2)),)

    def test_fraction_exponents_sum_to_one(self):
        p = normalize([(2, Fraction(1, 2)), (2, Fraction(1, 2))])
        assert p.factors == (Factor(2, ExactExponent(1)),)

    def test_cancellation_drops_factor(self):
        p = normalize([(4, 1), (7, 1), (7, -1)])
        assert p.factors == (Factor(4, ExactExponent(1)),)

    def test_sorted_ascending(self):
        p = normalize([(9, 1), (2, 1), (5, 1)])
        assert [f.index for f in p.factors] == [2, 5, 9]

    def test_invalid_index(self):
        with pytest.raises(InvalidIndexError):
            normalize([(0, 1)])
        with pytest.raises(InvalidIndexError):
            normalize([(-3, 1)])

    def test_empty_is_valid(self):
        assert normalize([]).is_empty()

    def test_index_must_be_an_integer(self):
        for bad in (2.0, Fraction(2), "2"):
            with pytest.raises(TypeError, match="^index must be an integer"):
                normalize([(bad, 1)])
        p = normalize([(True, 1)])
        assert p == normalize([(1, 1)]) and type(p.factors[0].index) is int

    @given(raw_pairs)
    def test_idempotent(self, pairs):
        once = normalize(pairs)
        again = normalize((f.index, f.exponent) for f in once.factors)
        assert once == again

    # normalize builds its result without the public constructors' checks
    @given(raw_pairs)
    def test_equals_public_construction(self, pairs):
        merged = {}
        for index, exp in pairs:
            merged[index] = merged.get(index, ExactExponent()) + ExactExponent(exp)
        public = StringProduct(
            tuple(Factor(i, e) for i, e in sorted(merged.items()) if not e.is_zero())
        )
        p = normalize(pairs)
        assert p == public and hash(p) == hash(public) and repr(p) == repr(public)
        for f, g in zip(p.factors, public.factors):
            assert f == g and hash(f) == hash(g)

    @given(raw_pairs)
    def test_pickle_copy_and_no_dict(self, pairs):
        p = normalize(pairs)
        for x in (p, *p.factors):
            assert not hasattr(x, "__dict__")
            for back in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert back == x and hash(back) == hash(x) and repr(back) == repr(x)

    def test_direct_construction_rejects_unsorted(self):
        f3, f4 = Factor(3, ExactExponent(1)), Factor(4, ExactExponent(1))
        with pytest.raises(ValueError):
            StringProduct((f4, f3))
        with pytest.raises(ValueError):
            StringProduct((f3, f3))

    def test_factor_invariants(self):
        with pytest.raises(InvalidIndexError):
            Factor(0, ExactExponent(1))
        with pytest.raises(ValueError):
            Factor(3, ExactExponent(0))


class TestPublicConstructors:
    """Factor and StringProduct coerce or reject their arguments as normalize does."""

    def test_bool_index_is_stored_as_int(self):
        f = Factor(True, ExactExponent(1))
        assert type(f.index) is int and f == Factor(1, ExactExponent(1))
        assert render(StringProduct((f,))) == "a1"

    def test_float_index_is_rejected(self):
        with pytest.raises(TypeError, match="^index must be an integer, got 2.5$"):
            Factor(2.5, ExactExponent(1))

    def test_string_index_is_rejected(self):
        with pytest.raises(TypeError, match="^index must be an integer, got '3'$"):
            Factor("3", ExactExponent(1))

    def test_fraction_exponent_is_coerced(self):
        f = Factor(3, Fraction(1, 2))
        assert f == Factor(3, ExactExponent(Fraction(1, 2)))
        assert type(f.exponent) is ExactExponent
        assert signature(StringProduct((f,))) == signature(normalize([(3, Fraction(1, 2))]))

    def test_int_exponent_is_coerced(self):
        f = Factor(3, 2)
        assert f == Factor(3, ExactExponent(2)) and type(f.exponent) is ExactExponent
        with pytest.raises(ValueError, match="zero exponent"):
            Factor(3, 0)
        with pytest.raises(TypeError):
            Factor(3, 2.5)

    def test_product_member_must_be_a_factor(self):
        with pytest.raises(TypeError, match="^factors must be Factor instances, got 'x'$"):
            StringProduct(("x",))
        with pytest.raises(TypeError):
            StringProduct(((3, ExactExponent(1)),))

    @pytest.mark.parametrize(
        "kind", [list, tuple, lambda xs: (x for x in xs)], ids=["list", "tuple", "generator"]
    )
    def test_factors_are_stored_as_a_tuple(self, kind):
        factors = (Factor(3, 1), Factor(5, Fraction(1, 2)))
        p, expected = StringProduct(kind(factors)), StringProduct(factors)
        assert type(p.factors) is tuple
        assert p == expected and hash(p) == hash(expected)
        assert render(p) == render(expected) == "a3*a5^(1/2)"
        assert p.to_json_dict() == expected.to_json_dict()
        assert signature(p) == signature(expected) != signature(StringProduct())


class TestSignature:
    def test_pair_example(self):
        sig = signature(normalize([(4, 1), (3, 1)]))
        assert sig == Signature(ExactExponent(2), ExactExponent(7))

    def test_pi_example(self):
        sig = signature(normalize([(3, ExactExponent(0, 6)), (6, 6)]))
        assert sig.total == ExactExponent(6, 6)
        assert sig.weighted_sum == ExactExponent(36, 18)

    def test_empty(self):
        assert signature(normalize([])) == Signature(ExactExponent(0), ExactExponent(0))

    @given(products, products)
    def test_additive_under_product(self, p, q):
        assert signature(product(p, q)) == signature(p) + signature(q)

    @settings(max_examples=300)
    @given(wide_products)
    def test_matches_reference_accumulation(self, p):
        assert signature(p) == reference_signature(p)

    def test_matches_reference_on_edge_products(self):
        big_den = Fraction(-7, 999_999_937)
        cases = [
            normalize([]),
            normalize([(1_000_000, ExactExponent(0, -3))]),
            normalize([(2, big_den), (3, -big_den), (10**6, ExactExponent(big_den, big_den))]),
            normalize([(5, 1), (7, -1)]),
            normalize(
                (b, ExactExponent(Fraction(1, b), Fraction(-1, b + 1))) for b in range(1, 60)
            ),
        ]
        for p in cases:
            assert signature(p) == reference_signature(p)

    def test_fraction_work_is_per_exponent_not_per_factor(self):
        # 2,000 factors share 3 exponent objects; signature reads the
        # integers each keeps, so the calls into fractions.py (the kept
        # integers' first writes, the four sums) do not grow with the factors
        spellings = [ExactExponent(Fraction(1, 2)), ExactExponent(-3), ExactExponent(2, Fraction(1, 3))]
        p = normalize((b, spellings[b % 3]) for b in range(1, 2001))
        assert len(p.factors) == 2000 and len({id(f.exponent) for f in p.factors}) == 3
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls += 1

        sys.setprofile(count)
        try:
            sig = signature(p)
        finally:
            sys.setprofile(None)
        assert calls <= 50
        assert sig == reference_signature(p)


class TestEquivalence:
    def test_sum_seven_pairs(self):
        assert equivalent(normalize([(4, 1), (3, 1)]), normalize([(6, 1), (1, 1)]))
        assert equivalent(normalize([(4, 1), (3, 1)]), normalize([(5, 1), (2, 1)]))

    def test_fractional_weights(self):
        lhs = normalize([(5, 1), (2, Fraction(1, 2))])
        rhs = normalize([(4, Fraction(3, 2))])
        assert equivalent(lhs, rhs)

    def test_different_sums_are_not_equal(self):
        assert not equivalent(
            normalize([(4, 1), (3, 1)]), normalize([(5, 1), (3, 1)])
        )


class TestProductPower:
    def test_product_merges(self):
        p = normalize([(3, 1)])
        assert product(p, p).factors == (Factor(3, ExactExponent(2)),)

    def test_power_cancels(self):
        p = normalize([(4, Fraction(3, 2))])
        assert power(p, Fraction(2, 3)).factors == (Factor(4, ExactExponent(1)),)

    @given(products)
    def test_power_zero_empties(self, p):
        assert power(p, 0).is_empty()


class TestEvaluate:
    def test_hand_computed_value(self):
        # a3 = 4, a4 = 8 for a1=1, r=2, so the product is 32 = 2**5
        p = normalize([(3, 1), (4, 1)])
        assert evaluate(p, SequenceSpec(1.0, 2.0, 6)) == pytest.approx(32.0, rel=1e-12)

    def test_equal_sum_gives_equal_value(self):
        q = normalize([(5, 1), (2, 1)])
        assert evaluate(q, SequenceSpec(1.0, 2.0, 6)) == pytest.approx(32.0, rel=1e-12)

    def test_empty_product_is_one(self):
        assert evaluate(normalize([]), SequenceSpec(0.7, 1.3, 1)) == 1.0

    def test_index_beyond_length(self):
        with pytest.raises(IndexRangeError):
            evaluate(normalize([(7, 1)]), SequenceSpec(1.0, 2.0, 6))

    def test_requires_positive_parameters(self):
        p = normalize([(3, Fraction(1, 2))])
        with pytest.raises(ValueError):
            evaluate(p, SequenceSpec(-1.0, 2.0, 6))
        with pytest.raises(ValueError):
            evaluate(p, SequenceSpec(1.0, 0.0, 6))

    def test_overflow_reported(self):
        p = normalize([(1_000_000, 1000)])
        with pytest.raises(OverflowError):
            evaluate(p, SequenceSpec(2.0, 3.0, 2_000_000))

    def test_fallback_is_correctly_rounded(self):
        # a1^2 underflows; the nearest float to the exact value, which the
        # float-logarithm fallback missed by 324 ulp
        p = normalize([(500, 1), (499, 1)])
        assert evaluate(p, SequenceSpec(1e-200, 2.0, 500)) == 1.339385758982834e-100

    def test_fallback_within_half_an_ulp(self):
        # One power underflows (a1 tiny) or overflows (a1 huge); r is picked
        # so that the value lands anywhere from the subnormals to near the top
        # of the float range.  Exponents are integers, rationals and pi terms.
        rng = random.Random(1403)
        weights = [1, 2, Fraction(3, 2), Fraction(7, 3), ExactExponent(0, 1), ExactExponent(1, Fraction(1, 2))]
        with localcontext(Context(prec=80)):
            pi = _decimal_pi()
            for _ in range(300):
                pairs = [(rng.randint(200, 600), rng.choice(weights)) for _ in range(rng.randint(2, 3))]
                p = normalize(pairs)
                sig = signature(p)
                total, ratio = sig.total, sig.weighted_sum - sig.total
                a1 = 10.0 ** (rng.choice([-1, 1]) * rng.uniform(160, 250))
                target = rng.uniform(-740, 705)
                r = math.exp((target - total.to_real() * math.log(a1)) / ratio.to_real())
                assert abs(total.to_real() * math.log(a1)) > 709.8  # a1^T is not a normal float
                value = evaluate(p, SequenceSpec(a1, r, 600))
                exact = sum(
                    (Decimal(e.rat.numerator) / e.rat.denominator + pi * e.pi.numerator / e.pi.denominator)
                    * Decimal(v).ln()
                    for e, v in ((total, a1), (ratio, r))
                ).exp()
                assert abs(Decimal(value) - exact) <= Decimal(math.ulp(value)) / 2, (pairs, a1, r)

    def test_fallback_pi_digits(self):
        with localcontext(Context(prec=400)):
            assert abs(model._PI - _decimal_pi()) < Decimal(10) ** -359

    def test_sequence_parameters_validated(self):
        with pytest.raises(ValueError):
            SequenceSpec(1.0, 2.0, 0)
        assert SequenceSpec(1.0, 2.0, 3).admissible()
        assert not SequenceSpec(1.0, 1.0, 3).admissible()
        assert not SequenceSpec(-1.0, 2.0, 3).admissible()


def _decimal_pi() -> Decimal:
    """pi to the current decimal precision (the recipe in the decimal docs)."""
    getcontext().prec += 2
    three = Decimal(3)
    last, t, total, n, na, d, da = 0, three, three, 1, 0, 0, 24
    while total != last:
        last = total
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        total += t
    getcontext().prec -= 2
    return +total


class TestNumericConsistency:
    def test_equivalent_products_agree_numerically(self):
        rng = random.Random(2024)
        for _ in range(200):
            p = random_product(rng)
            q = equivalent_variant(rng, p)
            assert equivalent(p, q)
            seq = sample_admissible(rng)
            vp, vq = evaluate(p, seq), evaluate(q, seq)
            assert abs(vp - vq) <= 1e-9 * max(abs(vp), 1.0)

    def test_same_total_different_sum_separates(self):
        rng = random.Random(77)
        seq = SequenceSpec(1.0, 2.0, 64)
        found = 0
        while found < 200:
            p = random_product(rng, allow_empty=False)
            q = same_total_variant(rng, p)
            if q is None:
                continue
            found += 1
            vp, vq = evaluate(p, seq), evaluate(q, seq)
            assert abs(vp - vq) > 1e-6 * max(abs(vp), abs(vq))

    @settings(max_examples=60)
    @given(products, products)
    def test_evaluate_multiplicative(self, p, q):
        seq = SequenceSpec(1.3, 1.7, 64)
        combined = evaluate(product(p, q), seq)
        split = evaluate(p, seq) * evaluate(q, seq)
        assert abs(combined - split) <= 1e-9 * max(abs(combined), abs(split))


class TestJson:
    def test_wire_shape(self):
        p = normalize([(3, ExactExponent(6, 1))])
        assert p.to_json_dict() == {
            "factors": [{"index": 3, "exp": {"rat": "6", "pi": "1"}}]
        }
