import random
import time
from fractions import Fraction

import pytest

from sdnb import (
    REAL,
    BudgetExceededError,
    Place,
    exact,
    finite,
    hilbert,
    hilbert_oracle,
    is_square,
    splits_in_quadratic,
    support_places,
    symbols,
)
from sdnb.symbols import is_square_in_completion

from helpers import raised, reference_hilbert, reference_is_square_in_completion


def test_place_validation():
    assert Place(7).prime == 7
    assert REAL.is_real
    with pytest.raises(ValueError):
        Place(15)


def test_hilbert_golden():
    assert hilbert(-1, -1, REAL) == -1
    assert hilbert(-1, 5, Place(5)) == 1  # -1 = 2^2 mod 5
    assert hilbert(2, 3, Place(3)) == -1  # 2 is a non-residue mod 3
    assert hilbert(-1, -1, Place(2)) == -1


def test_hilbert_rejects_zero():
    with pytest.raises(ValueError):
        hilbert(0, 3, REAL)


def test_hilbert_square_class_only():
    rng = random.Random(2)
    places = [REAL, Place(2), Place(3), Place(7)]
    for _ in range(60):
        a = Fraction(rng.randint(1, 40), rng.randint(1, 15)) * rng.choice([1, -1])
        b = Fraction(rng.randint(1, 40), rng.randint(1, 15)) * rng.choice([1, -1])
        r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for v in places:
            assert hilbert(a, b, v) == hilbert(a * r * r, b, v)


def test_hilbert_identities():
    rng = random.Random(4)
    places = [REAL, Place(2), Place(3), Place(5), Place(13)]
    for _ in range(80):
        a = rng.randint(1, 60) * rng.choice([1, -1])
        b = rng.randint(1, 60) * rng.choice([1, -1])
        for v in places:
            assert hilbert(a, b, v) == hilbert(b, a, v)
            assert hilbert(a, -a, v) == 1
            if a not in (0, 1):
                assert hilbert(a, 1 - a, v) == 1


def test_product_formula_smoke():
    rng = random.Random(9)
    for _ in range(100):
        a = rng.randint(1, 10**6) * rng.choice([1, -1])
        b = rng.randint(1, 10**6) * rng.choice([1, -1])
        prod = 1
        for v in support_places([(a, b)]):
            prod *= hilbert(a, b, v)
        assert prod == 1


def test_oracle_golden():
    assert hilbert_oracle(1, 1, 3) == 1  # primitive solution (1, 0, 1)
    assert hilbert_oracle(-1, -1, 2) == -1  # exhaustive search mod 32 finds none
    assert hilbert_oracle(2, 7, 7) == hilbert(2, 7, Place(7)) == 1


def test_oracle_agrees_with_formula_small_grid():
    for p in (2, 3, 5):
        for a in range(-6, 7):
            for b in range(-6, 7):
                if a and b:
                    assert hilbert_oracle(a, b, p) == hilbert(a, b, Place(p)), (a, b, p)


def test_oracle_refuses_a_zero_then_a_non_prime_before_it_factors(monkeypatch):
    assert raised(hilbert_oracle, 0, 3, 4) == (ValueError, "oracle arguments must be nonzero")
    assert raised(hilbert_oracle, 3, Fraction(0), 5) == (ValueError, "oracle arguments must be nonzero")
    # the first malformed argument decides, as for cup and hilbert
    assert raised(hilbert_oracle, "abc", 0, 5) == raised(Fraction, "abc")
    factored = []
    factor_fraction = exact._factor_fraction

    def recorded(num, den):
        factored.append((num, den))
        return factor_fraction(num, den)

    monkeypatch.setattr(exact, "_factor_fraction", recorded)
    assert raised(hilbert_oracle, 3, 5, 4) == (ValueError, "4 is not prime")
    assert raised(hilbert_oracle, 3, 5, 1) == (ValueError, "1 is not prime")
    assert factored == []
    assert hilbert_oracle(3, "5/4", 5) == hilbert(3, 5, Place(5))
    assert factored


def test_oracle_modulus_cap_names_input():
    # 163^3 = 4330747 residues exceed the 4000000 cap before any search
    with pytest.raises(BudgetExceededError) as info:
        hilbert_oracle(8, 3, 163)
    message = str(info.value)
    assert message.startswith("Hilbert oracle for the square classes (2, 3) at 163: ")
    assert "163^3 = 4330747" in message and "nothing was searched" in message


def test_support_places_golden():
    assert support_places([(-1, 3)]) == {REAL, Place(2), Place(3)}
    assert support_places([(1, 1)]) == {REAL, Place(2)}
    assert support_places([(-1, 30)]) == {REAL, Place(2), Place(3), Place(5)}
    assert finite(3) == Place(3)


def test_local_squares_match_reference():
    # one test of squares in Q_v serves forms and brauer alike
    rng = random.Random(1902)
    for _ in range(400):
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3)) * rng.choice([1, -1])
        places = support_places([(q, q)]) | {Place(p) for p in (3, 5, 7, 11, 13)}
        for v in places:
            want = reference_is_square_in_completion(q, v)
            assert is_square_in_completion(q, v) == want, (q, v)
            if not is_square(q):
                assert splits_in_quadratic(v, q) == want, (q, v)


# at the places below, a rational prime to 2..13 has the square class of its
# residue mod 8 * 3 * 5 * 7 * 11 * 13 (and its sign)
_RESIDUE_MODULUS = 8 * 3 * 5 * 7 * 11 * 13
_LOCAL_PLACES = [REAL] + [Place(p) for p in (2, 3, 5, 7, 11, 13)]


def _rationals_with_valuations(rng, n):
    """Seeded pairs (q, q') with v_p(q) in -6..6 at p = 2, 3, 5 and 7.

    Every fifth q carries a factor B above 2^64 (2^89 - 1, or the product of
    2^64 - 59 and 2^64 - 83) or just below it (2^64 - 59); q' has B mod
    ``_RESIDUE_MODULUS`` in its place, so q' is small and has the square class
    of q at every place of ``_LOCAL_PLACES``.
    """
    out = []
    for i in range(n):
        q = Fraction(rng.randint(1, 400), rng.randint(1, 60)) * rng.choice([1, -1])
        q *= Fraction(rng.choice((2, 3, 5, 7))) ** rng.randint(-6, 6)
        big = 1
        if i % 5 == 0:
            big = rng.choice((2**89 - 1, 2**64 - 59, (2**64 - 59) * (2**64 - 83)))
        out.append((q * big, q * (big % _RESIDUE_MODULUS)))
    return out


def test_local_symbols_make_no_factor_call(monkeypatch):
    rng = random.Random(1973)
    qs = _rationals_with_valuations(rng, 600)
    cases = [(a, b, v) for a, b in zip(qs, qs[1:] + qs[:1]) for v in _LOCAL_PLACES]

    def no_factoring(*args):
        raise AssertionError(f"factor called on {args}")

    with monkeypatch.context() as m:
        m.setattr(exact, "factor", no_factoring)
        m.setattr(exact, "_factor_fraction", no_factoring)
        got = [
            (
                hilbert(a, b, v),
                is_square_in_completion(a, v),
                None if is_square(a) else splits_in_quadratic(v, a),
            )
            for (a, _), (b, _), v in cases
        ]
    for ((a, a_small), (b, b_small), v), (symbol, square, splits) in zip(cases, got):
        assert symbol == reference_hilbert(a_small, b_small, v), (a, b, v)
        want = reference_is_square_in_completion(a_small, v)
        assert square == want and splits in (None, want), (a, v)
    assert {g[0] for g in got} == {1, -1} and sum(g[2] is not None for g in got) > 3000


def test_support_places_does_not_retest_the_primes_factor_certified(monkeypatch):
    # factor certifies both primes of n; building their Places must not run
    # the strong-pseudoprime test on them again
    p1, p2 = 2147483647, 2147483629
    exact._factor_fraction.cache_clear()
    n = p1 * p2
    assert exact.factor(n).factors == ((p2, 1), (p1, 1))
    calls = []

    def counted_pow(*args):
        if len(args) == 3 and args[2] in (p1, p2):
            calls.append(args)
        return pow(*args)

    monkeypatch.setattr(exact, "pow", counted_pow, raising=False)
    places = support_places([(n, 3)])
    assert calls == []
    assert {v.prime for v in places} == {None, 2, 3, p1, p2}


def _one_at_a_time(s, p):
    v = 0
    while s % p == 0:
        s //= p
        v += 1
    return s, v


def test_unit_and_valuation_matches_dividing_by_p_one_at_a_time():
    rng = random.Random(2520)
    primes = (2, 3, 5, 7, 11, 101, 2**31 - 1)
    seen = set()
    for _ in range(5000):
        p = rng.choice(primes)
        v = rng.randint(0, 300)
        s = rng.choice((1, -1)) * rng.randint(1, 10**6) * p**v
        assert symbols._unit_and_valuation(s, p) == _one_at_a_time(s, p), (s, p)
        seen.add(v.bit_length())
    assert seen == set(range(10))


def test_local_symbols_of_a_huge_power_of_p_take_under_a_second():
    # dividing p out one factor at a time took 7.6 s and 18.9 s on these (2-vCPU Xeon)
    for big, small, call in (
        (3**128000 * 7, 7, lambda a: hilbert(a, 5, Place(3))),
        (2**256000 * 17, 17, lambda a: is_square_in_completion(a, Place(2))),
    ):
        start = time.perf_counter()
        got = call(big)
        assert time.perf_counter() - start < 1.0
        assert got == call(small)
