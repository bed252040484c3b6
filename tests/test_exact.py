import math
import random
from fractions import Fraction

import pytest

from sdnb import (
    BudgetExceededError,
    FactoredRational,
    factor,
    is_prime,
    is_square,
    legendre,
    mult_order,
    mult_order_mod_pm1,
    parse_rational,
    squarefree_part,
)


def test_factor_golden():
    assert factor(12) == FactoredRational(1, ((2, 2), (3, 1)))
    assert factor(Fraction(-45, 8)) == FactoredRational(-1, ((2, -3), (3, 2), (5, 1)))
    assert factor(1) == FactoredRational(1, ())


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_reconstruct_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
        f = factor(q)
        assert f.value() == q
        assert factor(f.value()) == f


def test_factor_64bit_semiprime():
    p, q = 4294967291, 4294967279  # both prime, near 2**32
    f = factor(p * q)
    assert f.as_dict() == {p: 1, q: 1}


def test_factor_budget_exceeded(monkeypatch):
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "100")
    # 128-bit semiprime: cannot split within 100 cycle steps
    p = 340282366920938463463374607431768211297  # prime near 2**128
    q = 170141183460469231731687303715884105727  # 2**127 - 1, prime
    with pytest.raises(BudgetExceededError):
        factor(p * q)


def test_factor_budget_message_names_input_and_work(monkeypatch):
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "100")
    n = 340282366920938463463374607431768211297 * 170141183460469231731687303715884105727
    with pytest.raises(BudgetExceededError) as info:
        factor(Fraction(n, 7))
    message = str(info.value)
    assert message.startswith(f"factoring {n}/7: ")
    spent = int(message.split("after ")[1].split(" of ")[0])
    assert 0 < spent <= 100 and "of 100 units" in message


def test_squarefree_part_golden():
    assert squarefree_part(18) == 2
    assert squarefree_part(-4) == -1
    assert squarefree_part(Fraction(45, 8)) == 10
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_part_square_invariance():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice([1, -1])
        r = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        assert squarefree_part(q * r * r) == squarefree_part(q)
        assert squarefree_part(Fraction(squarefree_part(q))) == squarefree_part(q)


def test_is_square():
    assert is_square(Fraction(4, 9))
    assert is_square(1)
    assert not is_square(2)
    assert not is_square(Fraction(-4))


def test_legendre_golden():
    assert legendre(2, 7) == 1  # 3^2 = 2 mod 7
    assert legendre(-1, 3) == -1
    assert legendre(9, 3) == 0


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_legendre_multiplicative():
    rng = random.Random(5)
    for p in (3, 7, 11, 101):
        for _ in range(50):
            a, b = rng.randint(1, 500), rng.randint(1, 500)
            la, lb, lab = legendre(a, p), legendre(b, p), legendre(a * b, p)
            if la and lb and lab:
                assert la * lb == lab


def test_orders_golden():
    assert mult_order(7, 16) == 2
    assert mult_order_mod_pm1(7, 16) == 2  # 7 is not +-1 mod 16
    assert mult_order(7, 8) == 2
    assert mult_order_mod_pm1(7, 8) == 1  # 7 = -1 mod 8
    assert mult_order(1, 97) == 1
    assert mult_order_mod_pm1(1, 97) == 1


def test_orders_divisibility():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(3, 4000)
        a = rng.randint(2, m - 1)
        if math.gcd(a, m) != 1:
            continue
        full = mult_order(a, m)
        half = mult_order_mod_pm1(a, m)
        assert full % half == 0
        assert full // half in (1, 2)
        assert pow(a, full, m) == 1
        assert pow(a, half, m) in (1, m - 1)


def test_order_rejects_noncoprime():
    with pytest.raises(ValueError):
        mult_order(6, 8)


def test_is_prime_spot():
    assert is_prime(2) and is_prime(97) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**61 + 1)


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-45/8") == Fraction(-45, 8)
    assert str(Fraction(-45, 8)) == "-45/8"
