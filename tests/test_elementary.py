"""The elementary criterion at every cyclic 2-power order, against the decision."""

import random
from fractions import Fraction

from sdnb import CyclicQuadratic, CyclicQuartic, decide_global, forms, is_square

from helpers import reference_two_power_criterion

# primes = -1 mod 4, 8, 16, 32 and 64, and primes of none of those classes
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 23, 31, 41, 47, 79, 97, 127, 191, 383)


def _random_z(rng: random.Random) -> Fraction:
    while True:
        num = den = 1
        for _ in range(rng.randint(0, 3)):
            num *= rng.choice(_PRIMES) ** rng.choice([1, 2, 2, 3])
        for _ in range(rng.randint(0, 1)):
            den *= rng.choice(_PRIMES) ** rng.choice([1, 2])
        z = Fraction(num, den) * rng.choice([1, 1, 1, -1])
        if not is_square(z):
            return z


def test_two_power_criterion_matches_the_decision():
    rng = random.Random(13)
    for n in range(2, 7):
        verdicts = set()
        for _ in range(150):
            z = _random_z(rng)
            expected = reference_two_power_criterion(n, z)
            assert decide_global(CyclicQuadratic(n, z)).verdict == ("yes" if expected else "no"), (n, z)
            assert forms._positive_and_even_at_minus_one(z, n) == expected, (n, z)
            verdicts.add(expected)
        assert verdicts == {True, False}, n


def _random_scale(rng: random.Random) -> Fraction:
    """A signed rational made of the primes above, 1 included."""
    num = den = 1
    for _ in range(rng.randint(0, 2)):
        num *= rng.choice(_PRIMES) ** rng.choice([1, 1, 2, 3])
    for _ in range(rng.randint(0, 1)):
        den *= rng.choice(_PRIMES) ** rng.choice([1, 2])
    return Fraction(num, den) * rng.choice([1, -1])


def test_two_power_criterion_matches_the_decision_on_cyclic_quartics():
    # CyclicQuartic(n, l N s, l b0, l c0, N s^2) with N = b0^2 + c0^2 not a square satisfies
    # a^2 - b^2 eps = c^2 eps; the criterion reads a
    rng = random.Random(29)
    for n in range(3, 7):
        verdicts = set()
        for _ in range(600):
            b0, c0 = rng.randint(-12, 12), rng.choice([1, -1]) * rng.randint(1, 12)
            norm = b0 * b0 + c0 * c0
            if is_square(norm):
                continue
            lam, s = _random_scale(rng), _random_scale(rng)
            a = lam * norm * s
            expected = reference_two_power_criterion(n, a)
            spec = CyclicQuartic(n, a, lam * b0, lam * c0, norm * s * s)
            assert decide_global(spec).verdict == ("yes" if expected else "no"), spec
            verdicts.add(expected)
        assert verdicts == {True, False}, n
