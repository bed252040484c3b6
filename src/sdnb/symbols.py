"""Places of Q, squares in the completions and the Hilbert symbol (a,b)_v.

The symbol has one formula, ``_finite_symbol``, the closed formulas of Serre,
*A Course in Arithmetic*, III.1: Euler's criterion at odd p, eps(u) = (u-1)/2
and omega(u) = (u^2-1)/8 at p = 2, read off the valuations of a and b at p
and their units there; the real place compares signs.  Three routes feed it:

* ``hilbert`` answers at one place, and ``is_square_in_completion`` is the
  one test of squares in Q_v (a place splits in Q(sqrt d) exactly when d is
  a square there).  Both take any nonzero rational n/d, strip p from n and d
  by dividing out p, p^2, p^4, ... while each divides, and read the valuation
  and the unit n'd' off what is left; they factor nothing, so they answer for
  arguments of any size.
* ``ramified_places`` gives the whole set of places where (a,b)_v = -1, the
  table of a quaternion class.  It reads the memoized factorizations of a
  and b (``exact.factor``), and at 2 and at each of their primes takes the
  valuation from the table and the unit by one exact division.
* ``forms._walk`` takes the Hasse invariant of a diagonal form at a place,
  one call per entry, with the running product of the entries before it.

No route tests p again: a ``Place`` needs an int prime and verifies it once,
at construction, and ``finite`` builds the place of each prime once.
``place_from_json`` and every support walk (``_support``) build their places
through ``finite``.

``hilbert_oracle`` is the independent cross-check.  It refuses a zero a or b
(``exact.nonzero``), then a non-prime p (``finite``), before it factors
anything; then it reduces a and b to squarefree representatives and searches
for a primitive solution of z^2 = a x^2 + b y^2 modulo p^N, N = v_p(4ab) + 3.
At that precision a primitive solution lifts to Z_p by Hensel's lemma and the
absence of one certifies local anisotropy, so the search is decisive rather
than heuristic.  A solution is primitive iff one coordinate is a unit, and
in a primitive solution x or y is one: if p divided both, then p^2 would
divide a x^2 + b y^2 = z^2 modulo p^N, so p would divide z as well (Serre,
III.1).  Scaling by that unit's inverse normalizes it to 1, so the two
slices x = 1 and y = 1 are exhaustive.

The scan is plain ``int`` arithmetic over the set S of squares modulo m = p^N,
built for each search and dropped after it, as it takes about 130 MiB near the
cap: the slice x = 1 asks whether a + b s lies in S for some s in S, and the
slice y = 1 whether a s + b does.  Each slice stops at its first hit, and only
an anisotropic pair scans both in full (|S| about m/2 for odd p and m/6 for
p = 2).  A modulus above ``_ORACLE_MODULUS_CAP`` raises
:class:`BudgetExceededError` before any search.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .exact import BudgetExceededError, _shown, euler_criterion, factor, frozen, is_prime, nonzero, squarefree_part


@frozen
class Place:
    """A place of Q: the real place (prime None) or a verified finite prime."""

    def __init__(self, prime: int | None = None) -> None:
        if prime is not None and not isinstance(prime, int):
            raise ValueError(f"a finite place needs an int prime, got {prime!r}")
        if prime is not None and not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        vars(self).update(prime=prime)

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def sort_key(self) -> tuple[int, int]:
        return (0, 0) if self.prime is None else (1, self.prime)

    def to_json(self) -> str | int:
        return "real" if self.prime is None else self.prime

    def __str__(self) -> str:
        return "real" if self.prime is None else str(self.prime)


REAL = Place()


@lru_cache(maxsize=1 << 10, typed=True)
def finite(p: int) -> Place:
    """The place of the prime p, built and verified once per prime.

    A non-prime raises ValueError on every call: exceptions are not cached.
    """
    return Place(p)


def place_from_json(value: str | int) -> Place:
    """REAL for "real", else ``finite`` of the prime; a value ``int()`` cannot convert or would change raises."""
    if value == "real":
        return REAL
    try:
        p = int(value)
    except (OverflowError, ValueError):
        p = None
    if p is None or p != value and not isinstance(value, str):
        raise ValueError(f'a place is "real" or a prime, got {value!r}')
    return finite(p)


def _eps2(u: int) -> int:
    return ((u - 1) // 2) & 1


def _omega2(u: int) -> int:
    return ((u * u - 1) // 8) & 1


def _unit_and_valuation(s: int, p: int) -> tuple[int, int]:
    """(s / p^v, v) for v = v_p(s), s nonzero: while p divides, divide by p, p^2, p^4, ... in turn."""
    v = 0
    while s % p == 0:
        q, k = p, 1
        while s % q == 0:
            s //= q
            v += k
            q, k = q * q, 2 * k
    return s, v


def _local_parts(q: Fraction | int, v: Place) -> tuple[int, int]:
    """(k, n' d') for q = p^k n'/d' with n', d' prime to p; (0, sign of q) at real."""
    q = nonzero(q, "local symbols need nonzero rationals")
    num = q.numerator
    if v.prime is None:
        return 0, 1 if num > 0 else -1
    n, k = _unit_and_valuation(num, v.prime)
    d, j = _unit_and_valuation(q.denominator, v.prime)
    return k - j, n * d


def _finite_symbol(alpha: int, u: int, beta: int, w: int, p: int) -> int:
    """(a,b)_p for a = p^alpha u and b = p^beta w with u, w prime to the prime p."""
    if p == 2:
        e = _eps2(u) * _eps2(w) + alpha * _omega2(w) + beta * _omega2(u)
        return -1 if e & 1 else 1
    s = 1
    if beta & 1:
        s *= euler_criterion(u, p)
    if alpha & 1:
        s *= euler_criterion(w, p)
    if alpha & beta & 1 and (p - 1) // 2 % 2 == 1:
        s = -s
    return s


def hilbert(a: Fraction | int, b: Fraction | int, v: Place) -> int:
    """The Hilbert symbol (a,b)_v, +1 or -1.

    Symmetric and bimultiplicative; depends only on the square classes of a
    and b.
    """
    alpha, u = _local_parts(a, v)
    beta, w = _local_parts(b, v)
    if v.prime is None:
        return -1 if (u < 0 and w < 0) else 1
    return _finite_symbol(alpha, u, beta, w, v.prime)


def ramified_places(a: Fraction | int, b: Fraction | int) -> frozenset[Place]:
    """The places v with (a,b)_v = -1, for nonzero ``int`` or ``Fraction`` a and b.

    Reads ``factor(a)`` and then ``factor(b)``, and walks 2 and their primes
    once: at p the valuation is the table's exponent and the unit is
    (numerator * denominator) // p^|valuation|.  An odd p where both
    valuations are even contributes nothing.
    """
    fa, fb = factor(a), factor(b)
    va, vb = dict(fa.factors), dict(fb.factors)
    ma, mb = a.numerator * a.denominator, b.numerator * b.denominator
    out = [REAL] if fa.sign < 0 and fb.sign < 0 else []
    for p in va.keys() | vb.keys() | {2}:
        alpha, beta = va.get(p, 0), vb.get(p, 0)
        if p != 2 and not (alpha | beta) & 1:
            continue
        u, w = ma // p ** abs(alpha), mb // p ** abs(beta)
        if _finite_symbol(alpha, u, beta, w, p) == -1:
            out.append(finite(p))
    return frozenset(out)


def is_square_in_completion(q: Fraction | int, v: Place) -> bool:
    """Is the nonzero rational q a square in the completion of Q at v?"""
    k, u = _local_parts(q, v)
    if v.prime is None:
        return u > 0
    return k % 2 == 0 and (u % 8 == 1 if v.prime == 2 else euler_criterion(u, v.prime) == 1)


_ORACLE_MODULUS_CAP = 4_000_000


def _squares_mod(m: int) -> frozenset[int]:
    # (m - y)^2 = y^2 mod m, so half the residues give every square
    return frozenset(y * y % m for y in range(m // 2 + 1))


@lru_cache(maxsize=1 << 10)
def _oracle_reduced(a: int, b: int, p: int) -> int:
    n = _unit_and_valuation(4 * abs(a * b), p)[1] + 3
    m = p**n
    if m > _ORACLE_MODULUS_CAP:
        raise BudgetExceededError(
            f"Hilbert oracle for the square classes ({_shown(a)}, {_shown(b)}) at {_shown(p)}: modulus "
            f"{_shown(p)}^{n} = {_shown(m)} exceeds the search cap of {_ORACLE_MODULUS_CAP} "
            "residues; nothing was searched"
        )
    am, bm = a % m, b % m
    squares = _squares_mod(m)
    # x = 1: z^2 = a + b y^2
    if not squares.isdisjoint((am + bm * s) % m for s in squares):
        return 1
    # y = 1: z^2 = a x^2 + b
    if not squares.isdisjoint((am * s + bm) % m for s in squares):
        return 1
    return -1


def hilbert_oracle(a: int, b: int, p: int) -> int:
    """Brute-force Hilbert symbol at a finite prime; see the module docstring for the search and its refusals."""
    a, b = (nonzero(x, "oracle arguments must be nonzero") for x in (a, b))
    p = finite(p).prime
    return _oracle_reduced(squarefree_part(a), squarefree_part(b), p)


def _support(values: Iterable[Fraction | int]) -> list[Place]:
    """Real, 2, then every prime of the values in increasing order, from one ``factor`` call per value."""
    primes = {2}.union(*((p for p, _ in factor(q).factors) for q in values))
    return [REAL] + [finite(p) for p in sorted(primes)]


def support_places(pairs: Iterable[tuple[Fraction | int, Fraction | int]]) -> set[Place]:
    """Real, 2, and every prime of a numerator or denominator in the list.

    A superset of the places where any symbol (a,b)_v can be nontrivial.
    """
    return set(_support(nonzero(q, "support of a zero entry is undefined") for pair in pairs for q in pair))
