import math
import random
import re
from fractions import Fraction

import pytest

from helpers import reference_factor_int, reference_is_prime, reference_parse_rational
from sdnb import exact
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
from sdnb.exact import WorkBudget


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
    assert dict(f.factors) == {p: 1, q: 1}


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


def test_the_factor_memo_keeps_at_most_4096_values():
    # a decision reuses a few values and a form's entries are reused across its invariants;
    # values seen once by a long process must not pile up behind them
    rng = random.Random(31)
    exact._factor_fraction.cache_clear()
    values = set()
    while len(values) < 6000:
        values.add(rng.choice((1, -1)) * rng.randrange(2, 10**9))
    for q in values:
        factor(q)
    assert exact._factor_fraction.cache_info().currsize <= 4096


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


_NEAR_MISSES = [
    "", "-", "+", "/", "-/", "1/", "/2", "-/2", "+5", "--5", "+-5", "-+5", "-0", "0", "00", "-00/01",
    "5/-3", "5/+3", "5/0", "-5/000", "0/0", " 5/0 ", "5 / 7", " 5/7", "5/7 ", "5 /7", "5/ 7", "\t-3\n",
    "1_000", "1_000/2_0", "1__0", "_1", "1_", "1_/2", "1.5", ".5", "5.", "-.5e3", "3e-2", "3E+2",
    "1e4301", "1e-4301", "1/2/3", "1//2", "- 5", "5-", "0x10", "nan", "inf", "-inf",
    "١٢", "-١٢/٣", "7/٣", "²", "1/²", "５", "\u00a05", "5\u2003", "\u20035",
]
_SOUP = list("0123456789" * 3) + ["-", "+", "/", " ", "_", ".", "e", "E", "١", "²", "５", "\t"]


def _rational_strings(rng: random.Random, count: int) -> list[str]:
    """The near misses, runs around CPython's 4300-digit limit, then plain ASCII fractions and token soup."""
    run = "1" + "0" * 4300  # 4301 digits
    out = _NEAR_MISSES + [run, "-" + run, run[:-1], "-" + run[:-1], "0" + run[1:], "5/" + run, run + "/0", run + "/7"]
    while len(out) < count:
        if rng.random() < 0.5:
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 30)))
            text = rng.choice(("", "", "-")) + digits
            if rng.random() < 0.6:
                text += "/" + "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 12)))
        else:
            text = "".join(rng.choice(_SOUP) for _ in range(rng.randint(0, 8)))
        out.append(text)
    return out


def _parsed(parse, text):
    try:
        q = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(q), q


def test_parse_rational_agrees_with_the_fraction_route():
    # plain ASCII [-]digits[/digits] is read by int(); every string must give what
    # as_fraction(text.strip()) gives: the same Fraction, or the same error and message
    texts = _rational_strings(random.Random(3300), 20_000)
    assert len(texts) == 20_000
    plain = 0
    for text in texts:
        want = _parsed(reference_parse_rational, text)
        assert _parsed(parse_rational, text) == want, text[:40]
        plain += re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text) is not None
    assert min(plain, len(texts) - plain) > 5000  # both routes are taken


# --- the factoring kernel against its reference copy -------------------------

_PSI = (  # psi_k: the least strong pseudoprime to each of the first k prime bases
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
               1461241, 2433601, 5148001, 10024561)


def _random_prime(rng, bits):
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if reference_is_prime(n):
            return n


def _chernick(lo, hi):
    """The first three Carmichael numbers (6k+1)(12k+1)(18k+1) in [lo, hi)."""
    def chernick(k):
        return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)

    k, out = 1, []
    while chernick(2 * k) < lo:
        k *= 2
    while chernick(k) < hi and len(out) < 3:
        if chernick(k) >= lo and all(reference_is_prime(6 * j * k + 1) for j in (1, 2, 3)):
            out.append(chernick(k))
        k += 1
    return out


def _factoring_inputs():
    rng = random.Random(1515)
    out = [rng.randrange(1 << 62, 1 << 64) for _ in range(120)]
    out += [_random_prime(rng, b) * _random_prime(rng, b) for b in range(20, 33)]
    out += [_random_prime(rng, b) * _random_prime(rng, b + 1) for b in range(20, 32, 3)]
    out += [_random_prime(rng, rng.randint(14, 30)) ** k for k in (2, 3, 4) for _ in range(4)]
    above = [p for p in range(10_001, 10_300) if reference_is_prime(p)]
    out += [p * p for p in above[:20]] + [9973 * p for p in above[:5]] + [above[0] * above[1]]
    out += [2**40 * 3**5 * q for q in (1, 9973, 10_007, *(_random_prime(rng, b) for b in (20, 40, 60)))]
    edge = 9973**2  # below it, a cofactor with no table prime left is prime
    out += list(range(edge - 200, edge + 200)) + list(range(10**8 - 200, 10**8))
    out += [2 * n for n in range(edge - 50, edge + 50)] + [97 * n for n in range(10**8 - 50, 10**8)]
    return out


def _factor_both(n, task="differential"):
    budgets, results = [WorkBudget(task), WorkBudget(task)], []
    for run, budget in zip((reference_factor_int, exact._factor_int), budgets):
        try:
            results.append(list(run(n, budget).items()))
        except BudgetExceededError as exc:
            results.append(("budget", str(exc)))
    return results, [b.spent for b in budgets]


def test_factoring_matches_the_reference_kernel():
    inputs = _factoring_inputs()
    assert len(set(inputs)) > 900
    for n in inputs:
        (ref, new), (ref_spent, new_spent) = _factor_both(n)
        assert new == ref, n
        assert new_spent == ref_spent, n
        assert math.prod(p**e for p, e in new) == n


def test_factoring_matches_the_reference_kernel_under_a_small_budget(monkeypatch):
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "100")
    p = 340282366920938463463374607431768211297
    q = 170141183460469231731687303715884105727
    for n in (p * q, 7 * p * q, 2**40 * p * q, 3**5 * q * q):
        (ref, new), (ref_spent, new_spent) = _factor_both(n, f"factoring {n}")
        assert new == ref and new_spent == ref_spent, n
        assert new[0] == "budget" and 0 < new_spent <= 100, n


def test_every_psi_k_is_composite():
    for n in _PSI:
        assert not is_prime(n), n
        assert not reference_is_prime(n), n


def test_graded_bases_agree_with_the_full_test_in_every_band():
    rng = random.Random(2017)
    bounds = (5, *_PSI[:8], 1 << 64, 1 << 80)
    checked = 0
    for lo, hi in zip(bounds, bounds[1:]):
        band = [rng.randrange(lo, hi) | 1 for _ in range(300)]
        band += [_random_prime(rng, rng.randint(lo.bit_length(), hi.bit_length() - 1)) for _ in range(5)]
        band += [n for n in range(hi - 400, hi) if lo <= n] + [n for n in range(lo, lo + 400) if n < hi]
        band += [n for n in _CARMICHAEL if lo <= n < hi] + _chernick(lo, hi)
        for n in band:
            assert is_prime(n) == reference_is_prime(n), n
            checked += 1
    for bits, gap in ((63, 25), (64, 59)):  # the largest primes below 2**63 and 2**64
        n = 2**bits - gap
        assert is_prime(n) and reference_is_prime(n)
        assert not any(is_prime(m) or reference_is_prime(m) for m in range(n + 1, 2**bits))
    assert all(is_prime(n) == reference_is_prime(n) for n in range(200_000))
    assert checked > 6000


def test_is_prime_runs_as_many_rounds_as_the_size_of_n_needs(monkeypatch):
    exact.is_prime.cache_clear()
    bases = []

    def counted_pow(a, *args):
        bases.append(a)
        return pow(a, *args)

    monkeypatch.setattr(exact, "pow", counted_pow, raising=False)
    for n, rounds in ((2**40 - 87, 5), (2**63 - 25, 12), (2**64 - 59, 12), (2**31 - 1, 4), (1009, 1)):
        bases.clear()
        assert is_prime(n)
        assert bases == list(exact._MR_BASES[:rounds]), n
