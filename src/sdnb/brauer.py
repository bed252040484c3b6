"""Two-torsion Brauer classes of Q as canonical local invariant tables.

A class is stored as the finite set of places where its local invariant is
-1; by the product formula that set always has even size.  Equality and
triviality are set comparisons, and identities such as (z,z) = (z,-1) hold
automatically because both sides produce the same table.  Classes are never
stored as symbol lists.  ``cup`` takes its table from
``symbols.ramified_places``, which reads the cached factorizations of its two
arguments; no place is tested one by one.

``restricts_trivially_to_quadratic`` answers whether a class dies in the
Brauer group of a quadratic field Q(sqrt(d)).  Restriction multiplies each
local invariant by the local degree, so a 2-torsion class survives exactly at
the ramified places that split in Q(sqrt(d)): a nonsplit or ramified finite
place has local degree 2 and kills the invariant, and the real place splits
into two real places (degree 1, invariant survives) when d > 0 but becomes
complex (degree 2, invariant dies) when d < 0.

A documented discrepancy: a reference example in the literature asserts that
the class of (-1, 5) is nontrivial over Q.  Direct computation gives the
empty table: 5 = 1^2 + 2^2 is a norm from Q(i), so every local symbol is +1.
This module reports the computed table.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import as_fraction, frozen, is_square, nonzero
from .symbols import Place, is_square_in_completion, ramified_places


@frozen
class BrauerClass:
    """Element of Br_2(Q): the set of places with local invariant -1."""

    def __init__(self, ramified: frozenset[Place]) -> None:
        if len(ramified) % 2 != 0:
            raise ValueError("ramified set must have even size (product formula)")
        vars(self).update(ramified=ramified)

    def to_json(self) -> list[str | int]:
        return [v.to_json() for v in sorted(self.ramified, key=Place.sort_key)]

    def __str__(self) -> str:
        if not self.ramified:
            return "trivial"
        return "{" + ", ".join(str(v) for v in sorted(self.ramified, key=Place.sort_key)) + "}"


TRIVIAL = BrauerClass(frozenset())


def cup(a: Fraction | int, b: Fraction | int) -> BrauerClass:
    """Class of the quaternion symbol (a, b)."""
    message = "cup product arguments must be nonzero"
    return BrauerClass(ramified_places(nonzero(a, message), nonzero(b, message)))


def add(x: BrauerClass, y: BrauerClass) -> BrauerClass:
    """Group law in the 2-torsion: symmetric difference of the tables."""
    return BrauerClass(x.ramified ^ y.ramified)


def is_trivial(x: BrauerClass) -> bool:
    return not x.ramified


def equal(x: BrauerClass, y: BrauerClass) -> bool:
    return x.ramified == y.ramified


def splits_in_quadratic(v: Place, d: Fraction | int) -> bool:
    """Does the place v split in Q(sqrt(d))?  d need not be squarefree."""
    if is_square(d):
        raise ValueError("Q(sqrt(d)) requires a nonsquare d")
    return is_square_in_completion(d, v)


def restricts_trivially_to_quadratic(x: BrauerClass, d: Fraction | int) -> bool:
    """True iff x restricts to the trivial class in Br_2(Q(sqrt(d))).

    Requires d nonzero and not a square.  Invariant under d -> d * r^2.
    """
    d = as_fraction(d)
    if is_square(d):
        raise ValueError("restriction target must be a genuine quadratic field")
    return not any(is_square_in_completion(d, v) for v in x.ramified)
