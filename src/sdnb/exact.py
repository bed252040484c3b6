"""Exact arithmetic substrate: factored rationals, square classes, residue symbols.

Every quantity in this package is an ``int`` or a ``fractions.Fraction``;
nothing here ever touches floating point.  ``Fraction`` already enforces the
canonical form we need (positive denominator, reduced, 0 == 0/1), so it *is*
our rational type.

Factoring is deterministic and complete whenever numerator and denominator fit
in 64 bits.  Trial division runs over the primes below 10**4 in blocks of 40:
one gcd with a block's product skips the block when it divides nothing, and a
cofactor below 9973**2 with no table prime left in it is prime.  Larger
cofactors are certified by the strong-pseudoprime test, or split by Brent's
cycle method with a fixed parameter sweep, which multiplies the differences
two steps at a time and reduces once per pair.  Below 2**64 the test uses the
first k of the bases 2, 3, ..., 37, with k read off the Sorenson-Webster
bounds psi_k (the least strong pseudoprime to those k bases): 1 base below
2047, 2 below 1373653, 3 below 25326001, 4 below 3215031751, 5 below
2152302898747, 6 below 3474749660383, 7 below 341550071728321, 9 below
3825123056546413051 and 12 up to 2**64, so every answer there is exact.
Larger cofactors use 25 fixed bases, which is the documented envelope of the
guarantee.  Work is capped by a budget so an oversized input fails loudly with
:class:`BudgetExceededError` instead of spinning or silently dropping factors.

Value classes are plain classes under :func:`frozen`: their fields are the
parameters of their own ``__init__``, which sets them past the raising
``__setattr__`` in one of two ways that :func:`frozen` describes; ``frozen``
adds closures for ``__eq__`` (same class, equal fields), ``__hash__`` (of the
field tuple), ``__repr__`` and a ``__setattr__``/``__delattr__`` that raise
AttributeError, and sets ``__match_args__`` to the field names, as a
dataclass does.  Unlike a dataclass, it compiles no code at import time.

A rational argument that must not be zero passes one check, :func:`nonzero`:
an ``int`` or ``Fraction`` is kept, any other value goes through
:func:`as_fraction`, and zero raises the caller's ``ValueError``.
``as_fraction`` refuses a decimal exponent beyond +-4300, written in a string
or stored in a finite ``Decimal``, and a ``Decimal`` of more than 4300
digits, before the number is expanded.  ``Fraction``'s methods are pure
Python, so the decision path reads signs and zeros off ``numerator`` and
``as_fraction`` sends an ``int`` to ``Fraction(x)`` at once.
:func:`parse_rational` reads an ASCII ``[-]digits[/digits]`` string by
``int()`` and any other by ``as_fraction``; a zero denominator is a
``ValueError`` naming the text as given.  An integer read from outside (a
polynomial coefficient, a spec's degree, a place's prime) passes one rule,
:func:`lossless_int`: a non-bool ``int``, a string ``int()`` reads, or a
value ``int()`` converts without change, so ``2.0`` and ``Fraction(2)`` are
2 while ``True``, ``2.5`` and ``inf`` are refused.
"""

from __future__ import annotations

import math
import os
import re
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

_BUDGET_ENV = "SDNB_FACTOR_BUDGET"
DEFAULT_FACTOR_BUDGET = 4_000_000


class BudgetExceededError(ArithmeticError):
    """A computation exceeded its configured work budget.

    Raised by :func:`factor` when a cofactor cannot be split within the
    budget, and by other brute-force routines (Hilbert oracle, ternary
    witness search, irreducibility screening) when the requested search
    space is oversized.  The message names the input and the work spent.
    Never raised *after* producing a partial answer: results are exact or
    absent.
    """


def _work_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_FACTOR_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{_BUDGET_ENV} must be positive")
    return value


class WorkBudget:
    """Work units one computation may spend, read from ``SDNB_FACTOR_BUDGET``.

    ``task`` names the computation and its input; it heads the message of
    the :class:`BudgetExceededError` that ``spend`` raises when a charge
    would overdraw the budget, together with the units already spent.
    """

    def __init__(self, task: str) -> None:
        self.task = task
        self.limit = _work_budget()
        self.spent = 0

    def spend(self, units: int) -> None:
        if self.spent + units > self.limit:
            raise BudgetExceededError(
                f"{self.task}: work budget exhausted after {self.spent} of "
                f"{self.limit} units ({_BUDGET_ENV})"
            )
        self.spent += units


def _shown(x: int | Fraction) -> str:
    """``str(x)``, or for a number past CPython's limit on int-to-text digits, the bit lengths of its parts."""
    try:
        return str(x)
    except ValueError:
        if x.denominator != 1:
            return f"{_shown(x.numerator)}/{_shown(x.denominator)}"
        return f"{'-' if x < 0 else ''}<{abs(x.numerator).bit_length()}-bit integer>"


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, limit, i))
    return tuple(i for i in range(limit) if flags[i])


_SMALL_PRIMES = _sieve(10_000)
# (primes, their product) in blocks of 40: a gcd skips a block that divides nothing
_PRIME_BLOCKS = tuple(
    (block, math.prod(block))
    for block in (_SMALL_PRIMES[i : i + 40] for i in range(0, len(_SMALL_PRIMES), 40))
)

# Sorenson-Webster: n below _MR_BOUNDS[i] is decided exactly by the first k
# primes _MR_BASE_SETS[i], the bound being psi_k (the least strong pseudoprime
# to those k bases) or 2**64 < psi_12.  From 2**64 on, the tail bases extend
# the fixed test without a completeness claim.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 1 << 64)
_MR_BASE_SETS = tuple(_MR_BASES[:k] for k in (1, 2, 3, 4, 5, 6, 7, 9, 12)) + (
    _MR_BASES + _MR_EXTRA_BASES,
)


@lru_cache(maxsize=1 << 10)  # a Place re-tests each prime that factor certified
def is_prime(n: int) -> bool:
    """Strong-pseudoprime primality test, deterministic below 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASE_SETS[bisect_right(_MR_BOUNDS, n)]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_split(n: int, budget: WorkBudget) -> int:
    """Return a nontrivial factor of odd composite ``n`` (deterministic sweep).

    The differences x - y are multiplied two steps at a time, with one
    reduction per pair; their signs do not change gcd(q, n).
    """
    batch = 128
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(batch, r - k)  # a power of two
                budget.spend(steps)
                if steps == 1:
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                for _ in range(steps >> 1):
                    z = (y * y + c) % n
                    y = (z * z + c) % n
                    q = q * (x - z) * (x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise BudgetExceededError(
        f"{budget.task}: cycle search failed to split {_shown(n)} after {budget.spent} units"
    )


def _factor_int(n: int, budget: WorkBudget) -> dict[int, int]:
    """Factor ``n >= 1`` into a prime -> exponent map."""
    out: dict[int, int] = {}
    for block, product in _PRIME_BLOCKS:
        if block[0] * block[0] > n:
            break
        if math.gcd(n, product) == 1:
            continue
        for p in block:
            if p * p > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    if n < _SMALL_PRIMES[-1] ** 2:  # no table prime divides n, so n is 1 or prime
        if n > 1:
            out[n] = 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_split(m, budget)
        stack.append(d)
        stack.append(m // d)
    return out


def frozen(cls):
    """Make ``cls`` an immutable value class whose fields are its ``__init__`` parameters.

    ``__init__`` sets the fields past the raising ``__setattr__`` in one of
    two ways.  The classes whose instances a process-wide memo keeps
    (``FactoredRational``, ``symbols.Place``, ``brauer.BrauerClass``,
    ``factors.GroupDescriptor`` and ``FactorDescriptor``) call
    ``object.__setattr__(self, name, value)`` once per field, so that CPython
    3.11 and later keep the values inline with no per-instance dict (about
    150 bytes less per kept value on 3.11) and 3.10 shares one key table
    among them.  Values built and dropped within one call (the family specs,
    forms, report entries, certificate rows and decisions) set every field in
    one statement, ``vars(self).update(field=value, ...)``, which builds a
    value of three or more fields faster.  Either way ``vars(x)`` works on
    every instance, and gives it a dict, as pickling or copying it does on
    3.11 and 3.12.
    """
    code = cls.__init__.__code__
    names = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
    key, one = attrgetter(*names), len(names) == 1  # attrgetter of one name gives no tuple

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((key(self),) if one else key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


@frozen
class FactoredRational:
    """A nonzero rational as sign times a product of prime powers.

    ``factors`` is a sorted tuple of (prime, exponent) pairs with nonzero
    exponents; negative exponents carry the denominator.  The representation
    is canonical: two equal rationals factor to equal objects.
    """

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]) -> None:
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if any(e == 0 for _, e in factors):
            raise ValueError("zero exponent in factorization")
        if list(factors) != sorted(factors):
            raise ValueError("factors must be sorted by prime")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "factors", factors)


@lru_cache(maxsize=1 << 12)
def _factor_fraction(num: int, den: int) -> FactoredRational:
    sign = 1 if num > 0 else -1
    budget = WorkBudget(f"factoring {_shown(Fraction(num, den))}")
    fac = _factor_int(abs(num), budget)
    for p, e in _factor_int(den, budget).items():
        fac[p] = fac.get(p, 0) - e
    items = tuple(sorted(fac.items()))  # num/den is reduced: no prime cancels, no exponent is 0
    return FactoredRational(sign, items)


def factor(q: Fraction | int) -> FactoredRational:
    """Signed prime factorization of a nonzero rational.

    Deterministic; complete for 64-bit numerators/denominators, raises
    :class:`BudgetExceededError` beyond the work budget (never silently
    wrong).  Results are memoized, so repeated square-class reductions of
    the same value cost one factorization.  The memo keeps 4096 values: a
    decision reuses a few, and a form of up to 4096 entries is factored once.
    """
    q = nonzero(q, "cannot factor zero")
    return _factor_fraction(q.numerator, q.denominator)


def squarefree_part(q: Fraction | int) -> int:
    """The unique squarefree integer s with q = s * (nonzero square).

    Works on exponent parity, so rationals reduce to integers:
    45/8 = 5 * 3^2 * 2^-3 gives 5 * 2 = 10.
    """
    f = factor(q)
    s = f.sign
    for p, e in f.factors:
        if e % 2:
            s *= p
    return s


def is_square(q: Fraction | int) -> bool:
    """True iff q is the square of a rational (0 counts as a square)."""
    q = q if isinstance(q, (int, Fraction)) else as_fraction(q)
    n, d = q.numerator, q.denominator
    return n >= 0 and math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol (a|p) for an odd prime p: +1, -1 or 0."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre symbol needs an odd prime, got {p}")
    return euler_criterion(a, p)


def euler_criterion(a: int, p: int) -> int:
    """(a|p) = a^((p-1)/2) mod p, read as +1, -1 or 0.

    The kernel of :func:`legendre` without its checks: p must be an odd
    prime the caller has already verified, such as the prime of a ``Place``.
    """
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t  # t is 0, 1 or p - 1


@lru_cache(maxsize=1 << 12)
def euler_phi(m: int) -> int:
    """Euler's totient; memoized, since the same orders recur in every decision."""
    if m < 1:
        raise ValueError("euler_phi needs m >= 1")
    out = 1
    for p, e in factor(m).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def mult_order(a: int, m: int) -> int:
    """Multiplicative order of a in (Z/m)^x.  Requires gcd(a, m) = 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    t = euler_phi(m)
    for p, _ in factor(t).factors:
        while t % p == 0 and pow(a, t // p, m) == 1:
            t //= p
    return t


def mult_order_mod_pm1(a: int, m: int) -> int:
    """Order of the image of a in (Z/m)^x / {+-1}.

    Equals mult_order(a, m) or half of it; the half occurs exactly when some
    power of a is -1 mod m.
    """
    d = mult_order(a, m)
    if d % 2 == 0 and pow(a, d // 2, m) == m - 1:
        return d // 2
    return d


_MAX_EXPONENT = 4300  # CPython's default digit limit for int strings: no more digits by exponent than by digits
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def as_fraction(x) -> Fraction:
    """``Fraction(x)`` for other rational types.

    NaN, an infinite float, an exponent beyond +-4300 or a ``Decimal`` of more than 4300 digits
    (as CPython refuses an int string that long) is a ValueError, raised before any expansion.
    """
    if type(x) is int:
        return Fraction(x)
    digits, exponent = (), 0
    if isinstance(x, str) and (m := _EXPONENT.search(x)):
        exponent = int(m[1])
    elif isinstance(x, Decimal) and x.is_finite():
        _, digits, exponent = x.as_tuple()
    if abs(exponent) > _MAX_EXPONENT:
        raise ValueError(f"exponent of {x!r} exceeds {_MAX_EXPONENT} in absolute value")
    if len(digits) > _MAX_EXPONENT:
        raise ValueError(f"a Decimal of {len(digits)} digits exceeds the limit of {_MAX_EXPONENT} digits")
    try:
        return Fraction(x)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None


def lossless_int(x) -> int | None:
    """``int(x)`` for a non-bool int, a string ``int()`` reads or a value ``int()`` converts without change; else None."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        return None
    try:
        v = int(x)
    except (OverflowError, TypeError, ValueError):
        return None
    return v if isinstance(x, str) or v == x else None


def nonzero(x, message: str) -> Fraction | int:
    """``x`` as given if an int or Fraction, else by :func:`as_fraction`; zero raises ``ValueError(message)``."""
    x = x if isinstance(x, (int, Fraction)) else as_fraction(x)
    if x.numerator == 0:
        raise ValueError(message)
    return x


def parse_rational(text: str) -> Fraction:
    """Parse "n", "n/d", "1.5" or "3e-2" (ASCII [-]digits[/digits] by ``int()``); a zero denominator is a ValueError."""
    try:
        n, slash, d = text.partition("/")
        if text.isascii() and n.removeprefix("-").isdigit() and (d.isdigit() or not slash):
            return Fraction(int(n), int(d or 1))
        return as_fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
