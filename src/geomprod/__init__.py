"""Exact canonical forms and identities for products of geometric-sequence terms.

For a geometric sequence ``a_n = a1 * r**(n-1)``, any product of terms
raised to exact exponents is characterized by the pair (total exponent,
index-weighted exponent sum).  This package normalizes such products,
decides when two of them are identically equal, enumerates whole families
of equal products, solves for weighted rewritings (integer, rational and
pi-valued exponents are all exact), and cross-checks every symbolic answer
against a seeded numeric oracle.
"""

from . import exact, identities, model, oracle, parsing
from .exact import *
from .identities import *
from .model import *
from .oracle import *
from .parsing import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *exact.__all__,
    *model.__all__,
    *identities.__all__,
    *parsing.__all__,
    *oracle.__all__,
]
