"""Involution-stable factors of Q[G] for the supported groups.

For an abelian group the stable factors correspond to Galois orbits of
characters: an orbit of characters of order m spans a copy of Q(zeta_m), the
canonical involution g -> g^{-1} acts there as complex conjugation, and the
fixed field E is the real subfield.  Orbits of order at most 2 are orthogonal
(E = F), the rest unitary.  D4, A4 and the A5 demo carry their known tables:
matrix factors over Q (or Q(sqrt 5) for A5) with the split flag set.

``local_data`` provides the only local information the decision layer needs:
the parity of the local degree of E at a finite prime and the bit recording
whether F stays a field over the completion of E.  Both reduce to orders of
Frobenius in (Z/m)^x and its quotient by {+-1}; no number field arithmetic.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .exact import euler_phi, factor, frozen, mult_order_mod_pm1
from .symbols import Place


class FactorKind(str, Enum):
    ORTHOGONAL = "orthogonal"
    UNITARY = "unitary"
    DEGREE_ONE = "degree-one"


@frozen
class GroupDescriptor:
    """A supported group: abelian by invariant factors, or D4 / A4 / A5demo."""

    def __init__(self, kind: str, invariant_factors: tuple[int, ...] = ()) -> None:
        vars(self).update(kind=kind, invariant_factors=invariant_factors)
        self.__post_init__()  # the checks, a hook of their own so that a test can count constructions

    def __post_init__(self) -> None:
        if self.kind not in ("abelian", "D4", "A4", "A5demo"):
            raise ValueError(f"unsupported group kind {self.kind!r}")
        if self.kind == "abelian":
            fs = self.invariant_factors
            if not fs or any(d < 2 for d in fs):
                raise ValueError("invariant factors must be a nonempty list of ints >= 2")
            if any(fs[i + 1] % fs[i] != 0 for i in range(len(fs) - 1)):
                raise ValueError("each invariant factor must divide the next")
        elif self.invariant_factors:
            raise ValueError("invariant factors only apply to abelian groups")

    @staticmethod
    @lru_cache(maxsize=64)
    def cyclic(m: int) -> "GroupDescriptor":
        return GroupDescriptor("abelian", (m,))

    @property
    def order(self) -> int:
        if self.kind == "abelian":
            return math.prod(self.invariant_factors)
        return {"D4": 8, "A4": 12, "A5demo": 60}[self.kind]

    @property
    def name(self) -> str:
        if self.kind == "abelian":
            if len(self.invariant_factors) == 1:
                return f"C{self.invariant_factors[0]}"
            return "x".join(f"C{d}" for d in self.invariant_factors)
        return {"D4": "D4", "A4": "A4", "A5demo": "A5"}[self.kind]

    def cyclic_two_power_exponent(self) -> int | None:
        """n when the group is cyclic of order 2^n with n >= 1, else None."""
        if self.kind != "abelian" or len(self.invariant_factors) != 1:
            return None
        m = self.invariant_factors[0]
        n = m.bit_length() - 1
        return n if m == 1 << n and n >= 1 else None


@frozen
class FactorDescriptor:
    """One involution-stable factor: id, type, center data, split flag.

    ``conductor`` is the order of the characters in the orbit, i.e. the
    cyclotomic conductor of the center F; matrix factors with center Q use
    conductor 1 and say what they are in ``note``.  ``e_kind``/``e_param``
    describe the fixed field E: "Q", ("real-cyclotomic", m), or
    ("quadratic", d).
    """

    def __init__(self, id: str, kind: FactorKind, conductor: int, e_kind: str, e_param: int | None,
                 split: bool, note: str = "") -> None:
        vars(self).update(id=id, kind=kind, conductor=conductor, e_kind=e_kind, e_param=e_param, split=split,
                          note=note)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.e_kind not in ("Q", "real-cyclotomic", "quadratic"):
            raise ValueError(f"unknown center descriptor {self.e_kind!r}")

    def to_json(self) -> dict:
        e: str | dict = "Q"
        if self.e_kind == "real-cyclotomic":
            e = {"real-cyclotomic": self.e_param}
        elif self.e_kind == "quadratic":
            e = {"quadratic": self.e_param}
        out = {
            "id": self.id,
            "kind": self.kind.value,
            "conductor": self.conductor,
            "e": e,
            "split": self.split,
        }
        if self.note:
            out["note"] = self.note
        return out


# largest factor table decompose builds; a bigger one is rejected as bad input
_MAX_FACTORS = 1024


def _order_counts(invariant_factors: tuple[int, ...]) -> dict[int, int]:
    """Number of elements of each exact order in the abelian group.

    The count is multiplicative in the order, so it is assembled from the
    p-parts: the group has prod gcd(d, p^k) elements killed by p^k, and the
    ones of order exactly p^k are those minus the ones killed by p^(k-1).
    The orders are the divisors of the exponent, taken from its budgeted
    factorization; more divisors than ``_MAX_FACTORS`` is a ValueError, since
    each divisor gives at least one factor.
    """
    exponent = math.lcm(*invariant_factors)
    prime_powers = factor(exponent).factors
    if math.prod(e + 1 for _, e in prime_powers) > _MAX_FACTORS:
        raise ValueError(f"group exponent {exponent} gives more than {_MAX_FACTORS} factors")
    counts = {1: 1}
    for p, e in prime_powers:
        killed = [math.prod(math.gcd(d, p**k) for d in invariant_factors) for k in range(e + 1)]
        exact = [(1, 1)] + [(p**k, killed[k] - killed[k - 1]) for k in range(1, e + 1)]
        counts = {m * q: c * n for m, c in counts.items() for q, n in exact}
    return counts


def _abelian_factor(m: int, index: int, count: int) -> FactorDescriptor:
    if m == 1:
        fid = "triv"
    elif count == 1:
        fid = f"chi{m}"
    else:
        fid = f"chi{m}.{index}"
    if m <= 2:
        return FactorDescriptor(fid, FactorKind.ORTHOGONAL, m, "Q", None, True)
    if euler_phi(m) // 2 == 1:
        e_kind, e_param = "Q", None
    else:
        e_kind, e_param = "real-cyclotomic", m
    return FactorDescriptor(fid, FactorKind.UNITARY, m, e_kind, e_param, True)


@lru_cache(maxsize=64)
def decompose(g: GroupDescriptor) -> tuple[FactorDescriptor, ...]:
    """Involution-stable factors of Q[G] with their typing.

    Abelian groups get one factor per character orbit (all commutative,
    hence split).  For a cyclic group of order 2^n this is exactly the
    tower Q, Q, Q(i), Q(zeta_8), ..., Q(zeta_{2^n}) with the top n-1 ones
    unitary over their real subfields.  The table is a tuple of frozen
    descriptors, memoized per group, since every decision on the same group
    walks the same table.
    """
    if g.kind == "abelian":
        orbits = {m: c // euler_phi(m) for m, c in _order_counts(g.invariant_factors).items()}
        if sum(orbits.values()) > _MAX_FACTORS:
            raise ValueError(f"{g.name} has more than {_MAX_FACTORS} factors")
        return tuple(
            _abelian_factor(m, i, orbits[m]) for m in sorted(orbits) for i in range(orbits[m])
        )
    if g.kind == "D4":
        ones = [
            FactorDescriptor("triv", FactorKind.DEGREE_ONE, 1, "Q", None, True),
            FactorDescriptor("sgn-a", FactorKind.DEGREE_ONE, 2, "Q", None, True),
            FactorDescriptor("sgn-b", FactorKind.DEGREE_ONE, 2, "Q", None, True),
            FactorDescriptor("sgn-ab", FactorKind.DEGREE_ONE, 2, "Q", None, True),
        ]
        two = FactorDescriptor(
            "2dim", FactorKind.ORTHOGONAL, 1, "Q", None, True, note="M2(Q), unit-form involution"
        )
        return tuple(ones + [two])
    if g.kind == "A4":
        zeta3 = "typing follows the cube-roots-of-unity factor table; over Q the pair spans Q(zeta3)"
        return (
            FactorDescriptor("triv", FactorKind.DEGREE_ONE, 1, "Q", None, True),
            FactorDescriptor("chi3-a", FactorKind.DEGREE_ONE, 3, "Q", None, True, note=zeta3),
            FactorDescriptor("chi3-b", FactorKind.DEGREE_ONE, 3, "Q", None, True, note=zeta3),
            FactorDescriptor(
                "std3", FactorKind.ORTHOGONAL, 1, "Q", None, True,
                note="M3(Q), unit-form involution; " + zeta3,
            ),
        )
    # A5 demo: only the degree-3 orthogonal factor is modelled
    return (
        FactorDescriptor(
            "3dim", FactorKind.ORTHOGONAL, 5, "quadratic", 5, True,
            note="M3(Q(sqrt5)), unit-form involution",
        ),
    )


class LocalData(NamedTuple):
    n_odd: bool
    epsilon: int


def local_data(conductor: int, real_subfield: bool, v: Place) -> LocalData:
    """Local degree parity and field/split bit at a finite place.

    For p coprime to the conductor m the local degree in Q(zeta_m) is the
    order of p mod m, and in the real subfield the order h of p in
    (Z/m)^x/{+-1}; epsilon = 1 exactly when the two differ (p^h = -1 mod m).
    For p = 2 and a 2-power m the extension is totally ramified: the real
    subfield has local degree m/4 (1 when m = 4) and epsilon = 1.  Ramified
    odd primes of general conductors, which no decision needs, are rejected.
    """
    if v.is_real:
        raise ValueError("local_data is for finite places")
    p = v.prime
    assert p is not None
    m = conductor
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if m <= 2:
        return LocalData(True, 0)
    if m % p == 0:
        if p == 2 and m == 1 << (m.bit_length() - 1):
            degree = m // 4 if real_subfield else m // 2
            return LocalData(degree % 2 == 1, 1)
        raise ValueError(f"ramified odd prime {p} for conductor {m} is unsupported")
    half = mult_order_mod_pm1(p, m)
    eps = int(pow(p, half, m) == m - 1)
    n = half if real_subfield else half << eps
    return LocalData(n % 2 == 1, eps)
