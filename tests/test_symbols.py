import random
from fractions import Fraction

import pytest

from sdnb import (
    REAL,
    BudgetExceededError,
    Place,
    finite,
    hilbert,
    hilbert_oracle,
    is_square,
    splits_in_quadratic,
    support_places,
)
from sdnb.symbols import is_square_in_completion

from helpers import reference_is_square_in_completion


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
