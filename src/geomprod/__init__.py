"""Exact canonical forms and identities for products of geometric-sequence terms.

For a geometric sequence ``a_n = a1 * r**(n-1)``, any product of terms
raised to exact exponents is characterized by the pair (total exponent,
index-weighted exponent sum).  This package normalizes such products,
decides when two of them are identically equal, enumerates whole families
of equal products, solves for weighted rewritings (integer, rational and
pi-valued exponents are all exact), and cross-checks every symbolic answer
against a seeded numeric oracle.
"""

from .exact import ExactExponent, Rational, as_rational
from .identities import (
    Decomposition,
    FamilyQuery,
    Identity,
    InvalidShiftError,
    NoSolutionError,
    Verdict,
    collapse,
    decompose,
    enumerate_family,
    shift_identity,
    solve_rational_weights,
    verify_identity,
)
from .model import (
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
    signature,
)
from .oracle import (
    CheckReport,
    DegenerateReport,
    OracleConfig,
    brute_force_family,
    degenerate_probe,
    numeric_check,
)
from .parsing import ParseError, parse_identity, parse_product, render, render_identity

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact arithmetic
    "Rational",
    "ExactExponent",
    "as_rational",
    # core model
    "SequenceSpec",
    "Factor",
    "StringProduct",
    "Signature",
    "normalize",
    "signature",
    "equivalent",
    "product",
    "power",
    "evaluate",
    "InvalidIndexError",
    "IndexRangeError",
    # identity engine
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
    "InvalidShiftError",
    "NoSolutionError",
    # parsing and rendering
    "ParseError",
    "parse_product",
    "parse_identity",
    "render",
    "render_identity",
    # numeric oracle
    "OracleConfig",
    "CheckReport",
    "DegenerateReport",
    "numeric_check",
    "brute_force_family",
    "degenerate_probe",
]
