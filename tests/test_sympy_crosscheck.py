"""Cross-checks against sympy: the irreducibility screen, factor and is_prime."""

import random
from collections import Counter
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sdnb import galois
from sdnb.exact import BudgetExceededError, factor, is_prime
from helpers import compose

# products of two monic quadratics that the screen answers since its search
# draws on the work budget; a cap of 2^18 candidates left them undetermined
FORMER_BUDGET_FAILURES = [
    [1470, -1274, -1017, 27, 1],
    [-990, 1518, -531, 17, 1],
    [1666, 2938, 929, -67, 1],
]


def _screen_polys():
    rng = random.Random(2024)

    def monic(degree, height):
        return [rng.randint(-height, height) for _ in range(degree)] + [1]

    def multiply(g, h):
        out = [0] * (len(g) + len(h) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(h):
                out[i + j] += a * b
        return out

    polys = [monic(4, 20) for _ in range(60)] + [monic(8, 10) for _ in range(30)]
    polys += [multiply(monic(2, 10), monic(2, 10)) for _ in range(30)]
    polys += [multiply(monic(1, 10), monic(3, 10)) for _ in range(10)]
    f = [2, 0, -4, 0, 1]
    for _ in range(3):
        polys += [compose(f, [t, 1]) for t in range(-3, 4)]
        f = compose(f, [-2, 0, 1])
    return polys + FORMER_BUDGET_FAILURES


def test_irreducibility_screen_agrees_with_sympy():
    x = sympy.Symbol("x")
    answered = 0
    for f in _screen_polys():
        try:
            got = galois._irreducible_over_Q(f)
        except BudgetExceededError:
            continue
        assert got == sympy.Poly(f[::-1], x).is_irreducible, f
        answered += 1
    assert answered >= 152


def _as_dict(n: int) -> dict[int, int]:
    return {p: e for p, e in sympy.factorint(n).items() if p != -1}


def test_factor_agrees_with_sympy():
    rng = random.Random(64)
    primes31 = [sympy.nextprime(rng.getrandbits(31) | 1 << 30) for _ in range(40)]
    for _ in range(40):
        n = rng.getrandbits(64) * rng.choice((1, -1)) or 1
        got = factor(n)
        assert (got.sign, dict(got.factors)) == ((1 if n > 0 else -1), _as_dict(n)), n
    # sympy.factorint is slow on these; both factors come from sympy.nextprime
    for p, q in zip(primes31[::2], primes31[1::2]):
        assert dict(factor(p * q).factors) == Counter((p, q)), (p, q)
    for _ in range(40):
        q = Fraction(rng.getrandbits(40) + 1, rng.getrandbits(24) + 1) * rng.choice((1, -1))
        want = _as_dict(q.numerator)
        for p, e in _as_dict(q.denominator).items():
            want[p] = -e
        assert dict(factor(q).factors) == want, q


def test_is_prime_agrees_with_sympy():
    rng = random.Random(65)
    primes31 = [sympy.nextprime(rng.getrandbits(31) | 1 << 30) for _ in range(20)]
    ns = [rng.getrandbits(64) for _ in range(200)] + [rng.getrandbits(rng.randint(2, 64)) for _ in range(200)]
    ns += primes31 + [p * q for p, q in zip(primes31, primes31[1:])]
    ns += [sympy.nextprime(rng.getrandbits(64)) for _ in range(20)]
    ns += [561, 1105, 1729, 3215031751, 3825123056546413051, 318665857834031151167461]
    for n in ns:
        assert is_prime(n) == sympy.isprime(n), n
