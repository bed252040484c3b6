"""Shared generators for randomized tests (seeded, deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction

from sdnb import CyclicQuadratic, CyclicQuartic, is_square


def random_nonsquare_rational(rng: random.Random, span: int = 80) -> Fraction:
    while True:
        num = rng.randint(1, span)
        den = rng.randint(1, span)
        z = Fraction(num, den) * rng.choice([1, -1])
        if not is_square(z):
            return z


def random_quadratic_spec(rng: random.Random, n: int = 3) -> CyclicQuadratic:
    return CyclicQuadratic(n, random_nonsquare_rational(rng))


def random_quartic_params(
    rng: random.Random, integral: bool = False
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Valid (a, b, c, eps) with a^2 - b^2 eps = c^2 eps and eps nonsquare.

    eps = a^2 / (b^2 + c^2) is forced by the relation; choosing
    a = (b^2 + c^2) * s makes everything integral, including the defining
    quartic X^4 - 2aX^2 + c^2 eps.
    """
    while True:
        b = Fraction(rng.randint(1, 6) * rng.choice([1, -1]))
        c = Fraction(rng.randint(1, 6) * rng.choice([1, -1]))
        if not integral:
            b /= rng.randint(1, 3)
            c /= rng.randint(1, 3)
        q = b * b + c * c
        if integral:
            s = rng.randint(1, 10) * rng.choice([1, -1])
            a = q * s
        else:
            a = Fraction(rng.randint(1, 20) * rng.choice([1, -1]), rng.randint(1, 4))
        eps = a * a / q
        if is_square(eps):
            continue
        return a, b, c, eps


def random_quartic_spec(rng: random.Random, n: int = 3, integral: bool = False) -> CyclicQuartic:
    a, b, c, eps = random_quartic_params(rng, integral=integral)
    return CyclicQuartic(n, a, b, c, eps)


def compose(f: list[int], g: list[int]) -> list[int]:
    """Coefficients of f(g(x)), both lists constant term first."""
    out = [0]
    for c in reversed(f):
        prod = [0] * (len(out) + len(g) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(g):
                prod[i + j] += x * y
        prod[0] += c
        out = prod
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def numpy_witness_ternary(f, height_cap: int = 10_000):
    """The int64 numpy scan ``isotropy_witness_ternary`` used to run.

    Kept as the reference for the pure-int scan on small entries, where int64
    cannot overflow.  Needs numpy, which the package itself does not.
    """
    import numpy as np
    from math import isqrt

    a, b, c = f.scaled_integer_entries()
    bound = 64
    while True:
        hi = min(bound, height_cap)
        ys = np.arange(0, hi + 1, dtype=np.int64)
        ys2 = ys * ys
        for x in range(0, hi + 1):
            t = -(a * x * x + b * ys2)
            q, r = np.divmod(t, c)
            mask = (r == 0) & (q >= 0)
            if mask.any():
                for y, qq in zip(ys[mask], q[mask]):
                    z = isqrt(int(qq))
                    if z * z == qq and (x or y or z):
                        return (x, int(y), z)
        if hi >= height_cap:
            return None
        bound *= 8
