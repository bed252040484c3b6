import itertools
import math
import random

import pytest

from sdnb import (
    FactorKind,
    GroupDescriptor,
    Place,
    REAL,
    decompose,
    local_data,
    mult_order,
    mult_order_mod_pm1,
)
import sdnb
from sdnb import exact, factors, galois
from sdnb.exact import euler_phi
from sdnb.factors import _order_counts


def test_group_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor("abelian", ())
    with pytest.raises(ValueError):
        GroupDescriptor("abelian", (3, 2))  # 3 does not divide 2
    with pytest.raises(ValueError):
        GroupDescriptor("Q8")
    assert GroupDescriptor.cyclic(8).name == "C8"
    assert GroupDescriptor("abelian", (2, 6)).name == "C2xC6"
    assert GroupDescriptor.cyclic(8).cyclic_two_power_exponent() == 3
    assert GroupDescriptor.cyclic(12).cyclic_two_power_exponent() is None


def test_decompose_c8():
    fds = decompose(GroupDescriptor.cyclic(8))
    assert [fd.id for fd in fds] == ["triv", "chi2", "chi4", "chi8"]
    assert [fd.kind for fd in fds] == [
        FactorKind.ORTHOGONAL, FactorKind.ORTHOGONAL, FactorKind.UNITARY, FactorKind.UNITARY,
    ]
    assert fds[2].e_kind == "Q"  # fixed field of Q(i)
    assert fds[3].to_json()["e"] == {"real-cyclotomic": 8}
    assert all(fd.to_json()["split"] is True for fd in fds)


def test_decompose_c2():
    fds = decompose(GroupDescriptor.cyclic(2))
    assert [fd.id for fd in fds] == ["triv", "chi2"]
    assert all(fd.kind == FactorKind.ORTHOGONAL for fd in fds)


def test_decompose_c12_conductors():
    fds = decompose(GroupDescriptor.cyclic(12))
    assert sorted(fd.conductor for fd in fds) == [1, 2, 3, 4, 6, 12]


def test_decompose_multifactor_abelian():
    fds = decompose(GroupDescriptor("abelian", (2, 6)))
    conductors = sorted(fd.conductor for fd in fds)
    # C2 x C6: orders 1 (1), 2 (3 elements), 3 (2), 6 (6)
    assert conductors == [1, 2, 2, 2, 3, 6, 6, 6]


def test_order_counts_match_enumeration():
    for fs in [(2,), (12,), (2, 2), (2, 4), (3, 6), (2, 2, 2), (4, 8), (6, 12), (2, 6, 12), (5, 10)]:
        counts: dict[int, int] = {}
        for g in itertools.product(*(range(d) for d in fs)):
            order = math.lcm(*(d // math.gcd(d, x) for d, x in zip(fs, g)))
            counts[order] = counts.get(order, 0) + 1
        assert _order_counts(fs) == counts, fs


def test_dimension_count():
    rng = random.Random(23)
    groups = [
        GroupDescriptor.cyclic(8),
        GroupDescriptor.cyclic(12),
        GroupDescriptor("abelian", (2, 6)),
        GroupDescriptor("abelian", (2, 2, 4)),
        GroupDescriptor("abelian", (3, 9)),
    ]
    for g in groups:
        fds = decompose(g)
        assert sum(euler_phi(fd.conductor) for fd in fds) == math.prod(g.invariant_factors)


def test_cyclic_2power_tower_structure():
    for n in (2, 3, 4, 5):
        fds = decompose(GroupDescriptor.cyclic(1 << n))
        assert len(fds) == n + 1
        unitary = [fd for fd in fds if fd.kind == FactorKind.UNITARY]
        assert [fd.conductor for fd in unitary] == [1 << i for i in range(2, n + 1)]
        for fd in unitary:
            e_degree = 1 if fd.e_kind == "Q" else euler_phi(fd.conductor) // 2
            assert e_degree == fd.conductor // 4


def test_no_symplectic_factors():
    for g in (
        GroupDescriptor.cyclic(16),
        GroupDescriptor("D4"),
        GroupDescriptor("A4"),
        GroupDescriptor("A5demo"),
    ):
        for fd in decompose(g):
            assert fd.kind in (FactorKind.ORTHOGONAL, FactorKind.UNITARY, FactorKind.DEGREE_ONE)


def test_decompose_d4_a4_a5():
    d4 = decompose(GroupDescriptor("D4"))
    assert [fd.kind for fd in d4].count(FactorKind.DEGREE_ONE) == 4
    (two,) = [fd for fd in d4 if fd.kind == FactorKind.ORTHOGONAL]
    assert two.id == "2dim" and two.to_json()["split"] and two.e_kind == "Q"

    a4 = decompose(GroupDescriptor("A4"))
    assert [fd.id for fd in a4] == ["triv", "chi3-a", "chi3-b", "std3"]
    assert "cube-roots-of-unity" in a4[3].note

    (a5,) = decompose(GroupDescriptor("A5demo"))
    assert a5.kind == FactorKind.ORTHOGONAL
    assert (a5.e_kind, a5.conductor, a5.to_json()["split"]) == ("quadratic", 5, True)


def test_local_data_golden():
    assert local_data(8, Place(7)) == (True, 1)  # 7 = -1 mod 8
    assert local_data(8, Place(17)) == (True, 0)  # 17 = 1 mod 8
    assert local_data(8, Place(3)) == (False, 0)
    assert local_data(16, Place(7)) == (False, 0)
    assert local_data(8, Place(2)) == (False, 1)  # real subfield degree 2
    assert local_data(4, Place(2)) == (True, 1)  # real subfield is Q
    assert local_data(4, Place(3)) == (True, 1)  # 3 inert in Q(i)


def test_local_data_at_a_prime_conductors_own_prime():
    # E, of degree (p - 1)/2, is totally ramified at p and F stays a field over it
    assert local_data(5, Place(5)) == (False, 1)  # Q(sqrt 5) does not split at 5
    assert local_data(3, Place(3)) == (True, 1)  # E = Q, F = Q(sqrt -3)
    assert local_data(7, Place(7)) == (True, 1)
    with pytest.raises(ValueError, match="^ramified prime 3 for conductor 15 is unsupported$"):
        local_data(15, Place(3))


def test_local_data_errors():
    with pytest.raises(ValueError):
        local_data(8, REAL)
    with pytest.raises(ValueError):
        local_data(12, Place(3))  # ramified odd prime, unsupported


def test_epsilon_implies_degree_doubling():
    rng = random.Random(29)
    for _ in range(200):
        m = 1 << rng.randint(2, 7)
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 193])
        n_odd, eps = local_data(m, Place(p))
        full = mult_order(p, m)
        half = mult_order_mod_pm1(p, m)
        if eps == 1:
            assert full == 2 * half
        else:
            assert full == half


def test_local_data_computes_the_frobenius_order_once(monkeypatch):
    calls = []
    order = exact.mult_order

    def counted(a, m):
        calls.append((a, m))
        return order(a, m)

    monkeypatch.setattr(exact, "mult_order", counted)
    monkeypatch.setattr(factors, "mult_order", counted, raising=False)  # if bound by name there
    for m, p in ((8, 7), (16, 3), (15, 2), (63, 5), (97, 11)):
        calls.clear()
        local_data(m, Place(p))
        assert calls == [(p, m)]


def test_local_data_matches_the_two_order_formula():
    primes = [p for p in range(2, 300) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    checked = 0
    for m in range(3, 400):
        for p in primes:
            if m % p == 0:
                continue
            full, half = mult_order(p, m), mult_order_mod_pm1(p, m)
            assert local_data(m, Place(p)) == (half % 2 == 1, int(full != half))
            checked += 1
    assert checked > 15000


def test_a_conductor_twice_an_odd_number_is_read_as_its_half():
    # Q(zeta_2m) = Q(zeta_m) for odd m, where 2 does not ramify: the two-order formula on (Z/m)^x
    for m in range(3, 200, 2):
        full, half = mult_order(2, m), mult_order_mod_pm1(2, m)
        assert local_data(2 * m, Place(2)) == (half % 2 == 1, int(full != half)), m
    # at its own prime a conductor 2p is read as p; a prime that ramifies otherwise is still refused,
    # named with the conductor as given
    assert local_data(6, Place(3)) == (True, 1)
    with pytest.raises(ValueError, match="^ramified prime 2 for conductor 12 is unsupported$"):
        local_data(12, Place(2))
    with pytest.raises(ValueError, match="^ramified prime 3 for conductor 15 is unsupported$"):
        local_data(15, Place(3))


def test_the_moduli_and_conductors_below_three_are_trivial():
    # (Z/1)^x and (Z/2)^x are trivial groups, and Q(zeta_1) = Q(zeta_2) = Q
    for m in (1, 2):
        assert [mult_order(a, m) for a in (1, 3, -5, 7)] == [1, 1, 1, 1]
        for p in (2, 3, 5, 7):
            assert local_data(m, Place(p)) == (True, 0)


def test_a_factor_descriptor_writes_its_note_only_when_it_has_one():
    table = {fd.id: fd.to_json() for fd in decompose(GroupDescriptor("D4"))}
    assert table["2dim"]["note"] == "M2(Q), unit-form involution"
    assert table["triv"] == {"id": "triv", "kind": "degree-one", "conductor": 1, "e": "Q", "split": True}


def test_the_fixed_groups_are_one_table_built_at_import():
    for kind, name in (("D4", "D4"), ("A4", "A4"), ("A5demo", "A5")):
        group = GroupDescriptor(kind)
        assert decompose(group) is factors._FIXED[name]
        assert group.name == name
        assert factors.parse_group(name) == factors.parse_group(f" {kind} ") == group


def test_the_fixed_table_states_each_group_once():
    assert set(factors._FIXED) == {"D4", "A4", "A5"}
    for name in ("D4", "A4", "A5"):
        group = factors.parse_group(name)
        assert group.name == name
        assert decompose(group) is factors._FIXED[name]
    assert factors.parse_group("A5demo") == GroupDescriptor("A5demo") == factors.parse_group("A5")
    # E is read off the conductor: the real subfield of Q(zeta_m), or Q(sqrt m)
    for name in ("C8", "C16", "C2xC12", "C3xC9", "D4", "A4", "A5"):
        for fd in decompose(factors.parse_group(name)):
            assert fd.to_json()["e"] == ("Q" if fd.e_kind == "Q" else {fd.e_kind: fd.conductor}), (name, fd)


def test_a_list_of_invariant_factors_is_kept_as_a_tuple():
    group = GroupDescriptor("abelian", [2, 4])
    assert group == GroupDescriptor("abelian", (2, 4)) and group.invariant_factors == (2, 4)
    assert decompose(group) == decompose(GroupDescriptor("abelian", (2, 4)))
    assert GroupDescriptor("D4", []) == GroupDescriptor("D4")


def test_parse_group_reads_back_every_name():
    assert galois.parse_group is factors.parse_group is sdnb.parse_group
    for name in ("C2", "C8", "C12", "C2xC4", "C2xC2xC6", "D4", "A4", "A5"):
        assert factors.parse_group(name).name == name
    assert factors.parse_group("c8") == GroupDescriptor.cyclic(8)
    with pytest.raises(ValueError, match="^cannot parse group 'Q8'$"):
        factors.parse_group("Q8")
    with pytest.raises(ValueError, match="^cannot parse group 'C6x4'$"):
        factors.parse_group("C6x4")
    with pytest.raises(ValueError, match="^each invariant factor must divide the next$"):
        factors.parse_group("C6xC4")


def _name_mutations(rng, name):
    """One seeded edit of each kind: an _ or a 0 in a number, a doubled or dropped C, a + or a space
    after a C, an Arabic-Indic digit; the edits of a C are left out for a name without one."""
    digits = [i for i, ch in enumerate(name) if ch.isdigit()]
    k = rng.choice(digits) + rng.randint(0, 1)  # before or after a digit
    i = rng.choice(digits)
    out = [name[:k] + "_" + name[k:], name[:k] + "0" + name[k:], name[:i] + chr(0x660 + int(name[i])) + name[i + 1:]]
    if cs := [j for j, ch in enumerate(name) if ch == "C"]:
        c = rng.choice(cs)
        out += [name[:c] + "C" + name[c:], name[:c] + name[c + 1:]]
        out += [name[:c + 1] + sign + name[c + 1:] for sign in "+ "]
    return out


def test_group_names_round_trip():
    rng = random.Random(2039)
    groups = [GroupDescriptor("D4"), GroupDescriptor("A4"), GroupDescriptor("A5")]
    for _ in range(300):
        fs = [rng.randint(2, 12)]
        for _ in range(rng.randint(0, 3)):
            fs.append(fs[-1] * rng.randint(1, 5))
        groups.append(GroupDescriptor("abelian", tuple(fs)))
    for g in groups:
        for text in (g.name, g.name.replace("C", "c"), f"  {g.name} ", f"\t{g.name.replace('C', 'c')}\n"):
            assert factors.parse_group(text) == g, text
        for text in _name_mutations(rng, g.name):
            try:
                read = factors.parse_group(text)
            except ValueError:
                continue
            assert read.name.lower() == text.strip().lower(), (g.name, text)
