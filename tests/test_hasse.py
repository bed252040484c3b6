"""The Hasse invariant at a place: the linear walk against the pair walk and the pairwise symbols."""

import random
from fractions import Fraction

from sdnb import REAL, DiagonalForm, Place, forms, hasse_witt, hilbert, isotropic_over_Qp

from helpers import reference_hasse_invariant_at, reference_hasse_witt

# small primes, primes = -1 mod 4 and mod 8, and primes above 10^4
_PRIMES = (2, 3, 5, 7, 11, 13, 23, 31, 10007, 10009, 65537, 1000003)


def _prime_powers(rng: random.Random, k: int) -> int:
    out = 1
    for _ in range(k):
        out *= rng.choice(_PRIMES) ** rng.randint(1, 3)
    return out


def _random_form(rng: random.Random) -> DiagonalForm:
    """Rank 1 to 12: signed fractions of prime powers, about a third of them repeating a class."""
    entries = []
    for _ in range(rng.randint(1, 12)):
        if entries and rng.random() < 0.3:
            entries.append(rng.choice(entries) * Fraction(rng.randint(1, 4), rng.randint(1, 3)) ** 2)
        else:
            num, den = _prime_powers(rng, rng.randint(0, 3)), _prime_powers(rng, rng.randint(0, 2))
            entries.append(Fraction(num, den) * rng.choice([1, -1]))
    return DiagonalForm(entries)


def test_hasse_witt_matches_the_pair_walk():
    rng = random.Random(2026)
    for i in range(400):
        f = _random_form(rng)
        hasse_witt.cache_clear()
        ref = reference_hasse_witt(f)
        assert hasse_witt(f) == ref, f
        places = {Place(p) for p in _PRIMES} | set(forms._support(f))
        for v in places:
            eps = forms._hasse_invariant_at(f, v)
            assert eps == (-1 if v in ref.ramified else 1), (f, v)
            if i < 60:
                assert eps == reference_hasse_invariant_at(f, v), (f, v)


def test_hasse_witt_of_the_first_odd_primes():
    primes = [p for p in range(3, 8000, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))][:1000]
    head = DiagonalForm(primes[:60])
    assert hasse_witt(head) == reference_hasse_witt(head)
    f = DiagonalForm(primes)
    w = hasse_witt(f)
    for v in (REAL, Place(2), Place(3), Place(primes[500]), Place(primes[-1])):
        assert forms._hasse_invariant_at(f, v) == (-1 if v in w.ramified else 1)


def test_one_place_isotropy_factors_no_entry(monkeypatch):
    n = 3 * 7**2 * (2**89 - 1) * (2**107 - 1) * (2**127 - 1)
    f = DiagonalForm([n, 5, 1 - 7 * n])
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "1")  # any factoring beyond trial division raises
    for p in (2, 3, 5, 7):
        v = Place(p)
        eps = forms._hasse_invariant_at(f, v)
        assert eps == reference_hasse_invariant_at(f, v)
        assert isotropic_over_Qp(f, v) == (hilbert(-1, -n * 5 * (1 - 7 * n), v) == eps)


def test_rank_five_is_isotropic_at_a_finite_place_before_any_invariant(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rank-5 form needs no local invariant")

    for name in ("_hasse_invariant_at", "hilbert", "is_square_in_completion"):
        monkeypatch.setattr(forms, name, refuse)
    for p in (2, 3, 7):
        assert isotropic_over_Qp(DiagonalForm([1, 3, 7, -21, 2]), Place(p))
