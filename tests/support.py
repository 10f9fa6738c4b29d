"""Seeded generators and CLI helpers shared across the test suite."""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from geomprod import ExactExponent, SequenceSpec, StringProduct, normalize, signature
from geomprod.cli import main

_RAT_CHOICES = [
    Fraction(n, d)
    for n in (-2, -1, 1, 2)
    for d in (1, 2)
] + [Fraction(0)]
_PI_CHOICES = [Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]

# ExactExponent(Fraction(1, 2), -3) pickled at protocol 2 before exponents
# kept their texts: its state is the two components.
TWO_FIELD_PICKLE = (
    b"\x80\x02cgeomprod.exact\nExactExponent\nq\x00)\x81q\x01]q\x02(cfractions\nFraction\n"
    b"q\x03K\x01K\x02\x86q\x04Rq\x05h\x03J\xfd\xff\xff\xffK\x01\x86q\x06Rq\x07eb."
)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process, capturing stdout/stderr independently of pytest."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def random_exponent(rng: random.Random, allow_pi: bool = True) -> ExactExponent:
    rat = rng.choice(_RAT_CHOICES)
    pi = rng.choice(_PI_CHOICES) if allow_pi else Fraction(0)
    if rat == 0 and pi == 0:
        rat = Fraction(1)
    return ExactExponent(rat, pi)


def random_product(
    rng: random.Random,
    max_factors: int = 4,
    max_index: int = 10,
    allow_pi: bool = True,
    allow_empty: bool = True,
) -> StringProduct:
    lo = 0 if allow_empty else 1
    while True:
        n = rng.randint(lo, max_factors)
        pairs = [
            (rng.randint(1, max_index), random_exponent(rng, allow_pi))
            for _ in range(n)
        ]
        p = normalize(pairs)
        if allow_empty or not p.is_empty():
            return p


def sample_admissible(rng: random.Random, l: int = 64) -> SequenceSpec:
    return SequenceSpec(rng.uniform(0.5, 2.0), rng.uniform(1.1, 3.0), l)


def equivalent_variant(rng: random.Random, p: StringProduct, steps: int = 2) -> StringProduct:
    """Rewrite ``p`` with signature-preserving moves; the result stays equivalent."""
    q = p
    for _ in range(steps):
        pairs = [(f.index, f.exponent) for f in q.factors]
        if pairs and rng.random() < 0.7:
            # split one factor symmetrically around its index
            at = rng.randrange(len(pairs))
            index, exp = pairs[at]
            d = rng.randint(1, 3)
            if index - d >= 1:
                half = exp.scale(Fraction(1, 2))
                pairs[at : at + 1] = [(index - d, half), (index + d, half)]
                q = normalize(pairs)
                continue
        # append a balanced triple: a_(z-d)^e * a_(z+d)^e * a_z^(-2e) == 1
        z = rng.randint(2, 10)
        d = rng.randint(1, z - 1)
        e = ExactExponent(rng.choice([Fraction(1), Fraction(-1), Fraction(1, 2)]))
        pairs += [(z - d, e), (z + d, e), (z, e.scale(-2))]
        q = normalize(pairs)
    return q


def same_total_variant(rng: random.Random, p: StringProduct) -> StringProduct | None:
    """Bump one index of ``p``: total exponent is kept, the weighted sum moves.

    Returns None when no bump yields a real-valued weighted-sum change of at
    least 1e-3 (the caller should resample ``p``).
    """
    if p.is_empty():
        return None
    base = signature(p)
    for _ in range(20):
        pairs = [(f.index, f.exponent) for f in p.factors]
        at = rng.randrange(len(pairs))
        index, exp = pairs[at]
        delta = rng.choice([-3, -2, -1, 1, 2, 3])
        if index + delta < 1:
            continue
        pairs[at] = (index + delta, exp)
        q = normalize(pairs)
        moved = signature(q)
        assert moved.total == base.total
        if abs((moved.weighted_sum - base.weighted_sum).to_real()) >= 1e-3:
            return q
    return None


# -- strings drawn from the published grammar ------------------------------

def _g_spaced(rng: random.Random, token: str) -> str:
    pad = rng.random()
    if pad < 0.8:
        return token
    if pad < 0.9:
        return " " + token
    return token + " "


def _g_signed_rational(rng: random.Random) -> str:
    text = "-" if rng.random() < 0.3 else ""
    text += str(rng.randint(0, 30))
    if rng.random() < 0.4:
        text += "/" + str(rng.randint(1, 12))
    return text


def _g_exp_atom(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.15:
        return "pi"
    text = _g_signed_rational(rng)
    if roll < 0.55:
        text += rng.choice(["*pi", "pi", " pi", "* pi"])
    return text


def _g_exponent(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return _g_signed_rational(rng)
    atoms = [_g_exp_atom(rng) for _ in range(rng.randint(1, 3))]
    body = atoms[0]
    for atom in atoms[1:]:
        body += rng.choice(["+", "-", " + ", " - "]) + atom
    return "(" + body + ")"


def grammar_product(rng: random.Random) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.06:
            terms.append("1")
            continue
        term = "a" + str(rng.randint(1, 99))
        if rng.random() < 0.6:
            term += "^" + _g_exponent(rng)
        terms.append(_g_spaced(rng, term))
    return rng.choice(["*", " * "]).join(terms)


def grammar_identity(rng: random.Random) -> str:
    return grammar_product(rng) + rng.choice(["=", " = "]) + grammar_product(rng)
