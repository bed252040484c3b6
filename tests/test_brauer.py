import random
from fractions import Fraction

import pytest

from sdnb import brauer
from sdnb import (
    REAL,
    BrauerClass,
    DiagonalForm,
    Place,
    TRIVIAL,
    add,
    cup,
    equal,
    hasse_witt,
    hilbert,
    hilbert_oracle,
    is_prime,
    is_trivial,
    restricts_trivially_to_quadratic,
    splits_in_quadratic,
    squarefree_part,
    support_places,
)


def test_cup_golden():
    assert cup(-1, 3).ramified == {Place(2), Place(3)}
    assert is_trivial(cup(-1, 5))  # 5 = 1 + 4 is a norm from Q(i)
    assert is_trivial(cup(1, 77))
    with pytest.raises(ValueError):
        cup(0, 3)


def test_group_law():
    x = cup(-1, 3)
    assert is_trivial(add(x, x))
    assert equal(add(TRIVIAL, x), x)
    assert equal(add(cup(-1, 3), cup(2, 3)), cup(-2, 3))


def test_even_parity_enforced():
    with pytest.raises(ValueError):
        BrauerClass(frozenset({Place(3)}))


def test_even_parity_of_random_sums():
    rng = random.Random(13)
    acc = TRIVIAL
    for _ in range(1000):
        a = rng.randint(1, 400) * rng.choice([1, -1])
        b = rng.randint(1, 400) * rng.choice([1, -1])
        acc = add(acc, cup(a, b))
        assert len(acc.ramified) % 2 == 0


def test_cup_identities():
    rng = random.Random(17)
    for _ in range(60):
        a = rng.randint(1, 100) * rng.choice([1, -1])
        b = rng.randint(1, 100) * rng.choice([1, -1])
        c = rng.randint(1, 100) * rng.choice([1, -1])
        assert equal(cup(a, b), cup(b, a))
        assert is_trivial(cup(a, -a))
        assert equal(cup(a * b, c), add(cup(a, c), cup(b, c)))


def test_serialization():
    assert cup(-1, -1).to_json() == ["real", 2]
    assert cup(-1, 3).to_json() == [2, 3]
    assert TRIVIAL.to_json() == []


def test_splits_in_quadratic():
    assert splits_in_quadratic(Place(7), 2)  # 2 = 3^2 mod 7
    assert not splits_in_quadratic(Place(3), 2)  # inert
    assert not splits_in_quadratic(Place(2), 2)  # ramified
    assert splits_in_quadratic(Place(2), 17)  # 17 = 1 mod 8
    assert splits_in_quadratic(REAL, 2)
    assert not splits_in_quadratic(REAL, -1)


def test_restriction_golden():
    # the computed class of (-1)(5) is empty, so restriction to Q(sqrt 5)
    # is trivially trivial
    assert restricts_trivially_to_quadratic(cup(-1, 5), 5)
    # {2, 3}: 3 inert in Q(sqrt 2), 2 ramified
    assert restricts_trivially_to_quadratic(cup(3, -1), 2)
    # the real place is in the table and Q(sqrt 2) is real
    assert not restricts_trivially_to_quadratic(cup(-1, -1), 2)
    # 7 splits in Q(sqrt 2), so the invariant at 7 survives
    assert not restricts_trivially_to_quadratic(cup(7, -1), 2)


def test_restriction_imaginary_field_kills_real_place():
    # over Q(sqrt -1) the real place becomes complex and dies, and both 2
    # and the real place are nonsplit; (-1, -1) is the Hamilton class
    assert restricts_trivially_to_quadratic(cup(-1, -1), -1)


def test_restriction_rejects_squares():
    with pytest.raises(ValueError):
        restricts_trivially_to_quadratic(cup(-1, 3), 4)
    with pytest.raises(ValueError):
        restricts_trivially_to_quadratic(cup(-1, 3), 0)


def test_restriction_square_class_invariance():
    rng = random.Random(19)
    for _ in range(50):
        x = cup(rng.randint(1, 60) * rng.choice([1, -1]), rng.randint(1, 60) * rng.choice([1, -1]))
        d = Fraction(rng.randint(2, 40) * rng.choice([1, -1]))
        if d.numerator in (1, -1) or restricts_trivially_to_quadratic is None:
            continue
        try:
            base = restricts_trivially_to_quadratic(x, d)
        except ValueError:
            continue
        r = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        assert restricts_trivially_to_quadratic(x, d * r * r) == base


def test_trivial_class_restricts_trivially_everywhere():
    for d in (2, 3, 5, -1, -2, Fraction(7, 3)):
        assert restricts_trivially_to_quadratic(TRIVIAL, d)


def test_restriction_consistent_with_local_symbols():
    # cross-check: restriction dies iff every ramified place has even local
    # degree, verified here against explicit Hilbert computations over Q
    x = cup(7, -1)  # ramified at {2, 7}
    assert x.ramified == {Place(2), Place(7)}
    assert hilbert(7, -1, Place(7)) == -1


# --- cup against the per-place route ------------------------------------------------

F = Fraction


def _ramified_by_hilbert(pairs):
    """Places where the product of hilbert(a, b, v) over the pairs is -1, v in their support."""
    out = set()
    for v in support_places(pairs):
        sign = 1
        for a, b in pairs:
            sign *= hilbert(a, b, v)
        if sign == -1:
            out.add(v)
    return out


def _random_prime(rng, bits):
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def _differential_grid():
    rng = random.Random(2017)
    pairs = []
    # p in the numerator and in the denominator, as ints and as Fractions
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(12):
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            r = rng.randint(1, 60) * rng.choice((1, -1))
            s = rng.randint(1, 60)
            a = F(p**i * r, s) / p**j
            b = rng.choice((F(p**j * rng.randint(1, 40), p**i * rng.randint(1, 9)), p * r, -p, r))
            pairs += [(a, b), (b, a), (a.numerator, b), (a, a), (a, -a), (a, -1)]
    # +-2^k against each other and against odd values
    twos = [sign * 2**k for k in range(12) for sign in (1, -1)]
    for x in twos:
        pairs += [(x, y) for y in twos[::3]]
        pairs += [(x, rng.choice((3, -3, 5, -5, 7, -7, 15, F(1, 3), F(-7, 5))))]
        pairs += [(x, x), (x, -x), (x, -1)]
    # signed 64-bit semiprimes, with each other, with small values and with themselves
    semis = [
        rng.choice((1, -1)) * _random_prime(rng, 32) * _random_prime(rng, 32) for _ in range(16)
    ]
    for x, y in zip(semis, semis[1:]):
        pairs += [(x, y), (x, -1), (x, x), (x, -x), (x, rng.choice((2, -3, F(5, 8)))), (x, F(y, 7))]
    return pairs


def test_cup_equals_hilbert_over_the_support():
    pairs = _differential_grid()
    assert len(pairs) > 800
    seen = set()
    for a, b in pairs:
        got = cup(a, b).ramified
        assert got == _ramified_by_hilbert([(a, b)]), (a, b)
        seen.add(len(got))
    assert {0, 2, 4} <= seen


def test_cup_equals_the_oracle_on_small_squarefree_pairs():
    values = [n for n in range(-15, 16) if n and squarefree_part(n) == n]
    for a in values:
        for b in values:
            got = cup(a, b).ramified
            primes = {2} | {p for p in (3, 5, 7, 11, 13) if a % p == 0 or b % p == 0}
            assert {v.prime for v in got} <= primes | {None}, (a, b)
            assert (REAL in got) == (a < 0 and b < 0), (a, b)
            for p in primes:
                assert (Place(p) in got) == (hilbert_oracle(a, b, p) == -1), (a, b, p)


def test_hasse_witt_equals_the_naive_pairwise_sum():
    rng = random.Random(2018)
    classes = [-1, 2, -2, 3, 6, -7, 10, 13, 4294967311 * 4294967357]
    for _ in range(120):
        entries = []
        for _ in range(rng.randint(2, 8)):
            c = rng.choice(classes)
            r = F(rng.randint(1, 12), rng.randint(1, 12))
            entries.append(c * r * r)  # a square class repeats across entries
        f = DiagonalForm(entries)
        pairs = [(a, b) for i, a in enumerate(f.entries) for b in f.entries[i + 1:]]
        assert hasse_witt(f).ramified == _ramified_by_hilbert(pairs), entries


def test_restriction_tests_d_for_a_square_once(monkeypatch):
    # neither ramified place of (-1, -1) splits in Q(sqrt -1); d was refused
    # as a square once, and each place reads only its completion
    calls = []
    is_square = brauer.is_square

    def counted(q):
        calls.append(q)
        return is_square(q)

    monkeypatch.setattr(brauer, "is_square", counted)
    assert restricts_trivially_to_quadratic(cup(-1, -1), -1)
    assert len(calls) == 1
