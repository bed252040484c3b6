"""The elementary criterion at every cyclic 2-power order, against the decision."""

import random
from fractions import Fraction

from sdnb import CyclicQuadratic, decide_global, forms, is_square

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
