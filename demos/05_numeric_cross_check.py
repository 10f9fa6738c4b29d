# Every symbolic verdict can be cross-checked numerically.  The oracle
# samples admissible sequences (positive first term, ratio away from 0
# and 1) and compares the logarithms of the two sides, each summed term
# by term and not through the signature formula, so agreement is
# independent evidence.

from geomprod import (
    FamilyQuery,
    OracleConfig,
    brute_force_family,
    degenerate_probe,
    enumerate_family,
    numeric_check,
    parse_identity,
)

cfg = OracleConfig(trials=1000, seed=7)

# A true identity passes every sampled trial within 1e-9 relative error:
good = parse_identity("a3^(6pi) * a6^6 = a2^(5pi+2) * a8^(pi+4)")
print("true identity:", numeric_check(good, cfg))

# A false one fails every trial, because the sides differ by the factor
# r**(difference of weighted sums) and r stays at least 1.1:
bad = parse_identity("a3*a4 = a5*a1")
print("false identity:", numeric_check(bad, cfg))

# Reports are reproducible bit for bit under the same seed:
again = numeric_check(good, OracleConfig(trials=1000, seed=7))
print("same seed, same report:", numeric_check(good, cfg) == again)

# Log sums never overflow, so deep terms raised to large powers are still
# decided on every trial, although the products themselves exceed any float:
deep = parse_identity("a2000^20 = a1999^10 * a2001^10")
print("deep identity:", numeric_check(deep, cfg))

# Only when rounding in the log sums could exceed the tolerance is the check
# "unstable", and then no trial is run at all:
huge = parse_identity("a2^100000000 = a1^50000000 * a3^50000000")
print("ill-conditioned identity:", numeric_check(huge, cfg))

# Ratio exactly 1 is the degenerate point: every term equals a1, so any
# two products with the same number of terms coincide there even when
# they are NOT identically equal.  That is why the oracle never samples
# r = 1, and why equal values at r = 1 prove nothing.
probe = degenerate_probe(bad, a1=2.0)
print("at ratio 1 both sides are", probe.lhs_value,
      "but symbolically equivalent:", probe.symbolically_equivalent,
      "-> coincidence hides the difference:", probe.hides_inequivalence)

# The fast family enumerator is itself checked against a materialize-and-
# filter reference on small instances:
fast = enumerate_family(FamilyQuery(3, 12, 8))
slow = brute_force_family(3, 12, 8)
print("enumerator agrees with brute force:", fast == slow)
