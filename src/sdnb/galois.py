"""Galois algebra families over Q and the self-dual normal basis decisions.

A family value pins down a G-Galois algebra L over Q up to the data the
invariants see:

* ``SplitAlgebra``        -- the split algebra Q^G for any supported group;
* ``CyclicQuadratic``     -- G cyclic of order 2^n, L induced from Q(sqrt z);
* ``CyclicQuartic``       -- G cyclic of order 2^n (n >= 3), L induced from
  the cyclic quartic field Q(sqrt(a + b sqrt eps)) with
  a^2 - b^2 eps = c^2 eps;
* ``CyclicPoly``          -- L induced from the field of a monic integer
  polynomial of 2-power degree, asserted cyclic;
* ``D4Quadratic`` / ``A5Quadratic`` -- induced from Q(sqrt z) into the
  dihedral group of order 8, resp. the alternating group A5 (demo factor);
* ``A4Quartic``           -- the A4 story through the rank-4 fixed algebra of
  a quartic polynomial.

The decision procedure is local-global: the degree-one invariants must
vanish (the squares condition on the image of the classifying homomorphism),
the localized algebra must split at the real place (the relevant trace form
is positive definite), and at every finite place in the support of an
invariant class the place-wise filter applies: an orthogonal factor binds
where its fixed field has odd local degree (every factor is split over its
center), a unitary factor where that degree is odd and the center stays a
field; ``factors.local_data`` gives both.  Certificates list every filter decision.

Each family class carries ``group``, ``degree`` (of the inducing field) and
``family`` (its JSON/CLI tag); a cyclic family stores its group C(2^n) at
construction, the others name theirs on the class.  Each keeps its
diagonalized trace form as ``_form``, set or built on first read (cyclic-poly,
A4), and gives its factors' classes through ``_entry``: ``_top_class`` of the
kept form on a cyclic group's top unitary factor and on the matrix factor D4
and A5 name in ``_matrix``, zero elsewhere; A4 has its own orthogonal classes
and caps the verdict at unknown.  One certificate builder makes both decisions in one pass
over the factor table, computing the group, its 2-power exponent, h1 and the
table once: it walks the real place and the support of every invariant class,
or one finite place for every factor.  ``c_invariants`` walks the orthogonal
factors only (cyclic-poly builds no form there), ``embedding_obstruction`` is
``d_top`` of the cyclic-poly algebra over twice the degree, and ``d_top``
reads its class off the trace form's entries.
Polynomial input is screened for integer roots, by Rabin's test along a
single Frobenius orbit at the first 16 odd primes not dividing f(0), each
step one linear combination of the rows X^(ip) mod (f, p) built once per
prime, and by a search for quadratic factors, every stage and row build
charged to a work budget; quadratics by their discriminant.  The verdict is
memoized per process, keyed on the coefficients and the budget setting;
errors are never cached.

Two computed-versus-quoted discrepancies are deliberate and unit-tested:

* For cyclic quadratic layers (degree-2 subfield, order-4 quotient) and the
  matrix factor of D4 and A5 the top invariant is the direct cup product
  (z)(-1).  The trace-form expression w2(q_K) + (2)(D_K) used for degree >= 4
  collapses to the trivial class at degree 2, so the formulas are kept apart.
* The elementary criterion for the order-8 cyclic families is "z (resp. a)
  is a sum of two squares in Q(sqrt 2)", i.e. positive with even exponents
  at primes = 7 mod 8.  The looser "sum of four squares" phrasing that
  sometimes accompanies these families is not equivalent: z = 7 is a sum of
  four rational squares but fails at the split prime 7, and the decision is
  No there.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from math import inf, lcm, prod
from typing import Sequence, Union, get_args

from . import brauer
from .brauer import BrauerClass, add, cup, is_trivial
from .exact import (
    _BUDGET_ENV, _SMALL_PRIMES, BudgetExceededError, WorkBudget, _shown, as_fraction, factor, frozen, is_square,
    lossless_int, nonzero, parse_rational,
)
from .factors import (
    FactorDescriptor,
    FactorKind,
    GroupDescriptor,
    decompose,
    local_data,
    parse_group,
)
from .forms import (
    DiagonalForm,
    _integer_coefficients,
    _subresultants,
    det_square_class,
    diagonalize,
    hasse_witt,
    quartic_family_form,
    signature,
    sum_of_two_squares,
    sum_of_two_squares_over_sqrt2,
    trace_form,
)
from .symbols import REAL, Place

VERDICT_YES = "yes"
VERDICT_NO = "no"
VERDICT_UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# family descriptors


class _Family:
    """Besides ``group`` (set by a cyclic family's ``__init__``), ``degree`` and ``family``, each family carries the
    verdict that caps its decisions (None: no cap), the id ``_matrix`` of the orthogonal factor carrying its top class,
    if any, and its diagonalized trace form ``_form``, set or built on first read; ``_entry`` reads them per factor."""

    verdict_cap: str | None = None
    _matrix: str | None = None

    @cached_property
    def _form(self) -> DiagonalForm:
        return diagonalize(trace_form(self.coeffs))

    def _entry(self, fd: FactorDescriptor, n: int | None) -> InvariantEntry:
        """The invariant of the factor fd once the degree-one invariants vanish, n being the group's
        2-power exponent or None: the kept form's top class on ``_matrix`` and at conductor 2^n, else zero."""
        if fd.id == self._matrix:
            return InvariantEntry(fd.id, "c", "computed", _top_class(self.degree, self._form))
        if fd.kind != FactorKind.UNITARY:
            return InvariantEntry(fd.id, "c", "zero", brauer.TRIVIAL, note=_ZERO_DEGREE_ONE)
        if n is None:
            return InvariantEntry(fd.id, "d", "not-computed", None, note="outside the supported tables")
        if fd.conductor == 1 << n:
            return InvariantEntry(fd.id, "d", "computed", _top_class(self.degree, self._form))
        return InvariantEntry(fd.id, "d", "zero", brauer.TRIVIAL, note=_ZERO_LOWER_UNITARY)


class _Quadratic(_Family):
    degree = 2  # Q(sqrt z), with trace form <2, 2z>

    def __init__(self, z) -> None:
        z = nonzero(z, "z must be nonzero")
        z = z if isinstance(z, Fraction) else Fraction(z)
        vars(self).update(z=z, _form=DiagonalForm([2, 2 * z]))


@frozen
class SplitAlgebra(_Family):
    degree, family = 1, "split"
    _form = DiagonalForm([1])

    def __init__(self, group: GroupDescriptor) -> None:
        vars(self).update(group=group)


@frozen
class CyclicQuadratic(_Quadratic):
    family = "cyclic-quadratic"

    def __init__(self, n: int, z: Fraction | int | str) -> None:
        if n < 2:
            raise ValueError("cyclic quadratic family needs n >= 2")
        _Quadratic.__init__(self, z)
        if is_square(self.z):
            raise ValueError("z must not be a square (the split case has its own family)")
        vars(self).update(n=n, group=GroupDescriptor.cyclic(1 << n))


@frozen
class CyclicQuartic(_Family):
    degree, family = 4, "cyclic-quartic"

    def __init__(self, n, a, b, c, eps) -> None:
        if n < 3:
            raise ValueError("cyclic quartic family needs n >= 3")
        a, b, c, eps = (x if isinstance(x, Fraction) else as_fraction(x) for x in (a, b, c, eps))
        # quartic_family_form raises on a violated relation, zero c or square eps; the form
        # <1, eps, a, a> it returns is kept as _form, not a field, as is the group
        vars(self).update(n=n, a=a, b=b, c=c, eps=eps, _form=quartic_family_form(a, b, c, eps),
                          group=GroupDescriptor.cyclic(1 << n))


@frozen
class CyclicPoly(_Family):
    family = "cyclic-poly"

    def __init__(self, n: int, coeffs: Sequence[int], degree: int) -> None:
        if n < 2:
            raise ValueError("cyclic polynomial family needs n >= 2")
        coeffs = _integer_coefficients(coeffs)
        m = len(coeffs) - 1
        if m != degree:
            raise ValueError(f"declared degree {degree} but polynomial has degree {m}")
        if m < 1 or m & (m - 1):
            raise ValueError("degree must be a power of 2")
        if m > 1 << n:
            raise ValueError(f"degree {m} exceeds the group order 2^{n}")
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        if not _screened_irreducible(coeffs, os.environ.get(_BUDGET_ENV)):
            raise ValueError("polynomial is reducible")
        vars(self).update(n=n, coeffs=coeffs, degree=m, group=GroupDescriptor.cyclic(1 << n))


@frozen
class D4Quadratic(_Quadratic):
    group, family, _matrix = GroupDescriptor("D4"), "d4-quadratic", "2dim"


@frozen
class A4Quartic(_Family):
    group, degree, family = GroupDescriptor("A4"), 4, "a4-quartic"
    verdict_cap = VERDICT_UNKNOWN

    def __init__(self, coeffs: Sequence[int]) -> None:
        coeffs = _integer_coefficients(coeffs)
        if len(coeffs) != 5 or coeffs[-1] != 1:
            raise ValueError("the A4 family needs a monic integer quartic")
        if _subresultants(coeffs)[1]:  # a repeated root
            raise ValueError("polynomial has repeated roots")
        vars(self).update(coeffs=coeffs)

    def _entry(self, fd, n):
        if fd.id == "std3":
            return InvariantEntry(fd.id, "c", "computed", hasse_witt(self._form), note="conditional: " + fd.note)
        if fd.id.startswith("chi3"):
            return InvariantEntry(fd.id, "c", "not-computed", None, note=_A4_PAIR)
        return super()._entry(fd, n)


@frozen
class A5Quadratic(_Quadratic):
    group, family, _matrix = GroupDescriptor("A5"), "a5-quadratic", "3dim"


GaloisAlgebraSpec = Union[
    SplitAlgebra, CyclicQuadratic, CyclicQuartic, CyclicPoly,
    D4Quadratic, A4Quartic, A5Quadratic,
]
_FAMILIES = {cls.family: cls for cls in get_args(GaloisAlgebraSpec)}


# ---------------------------------------------------------------------------
# irreducibility screening for polynomial input


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ceil_root(n: int, k: int) -> int:
    """The least r >= 0 with r^k >= n, for n >= 0: Newton's method from above gives the floor."""
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r if r**k >= n else r + 1


def _root_bound(coeffs: Sequence[int]) -> int:
    """Fujiwara's bound on the roots of the monic f of degree m: 2 max(|f_(m-1)|,
    |f_(m-2)|^(1/2), ..., |f_1|^(1/(m-1)), |f_0 / 2|^(1/m)), each term an integer root rounded up."""
    m = len(coeffs) - 1
    terms = [abs(coeffs[m - k]) for k in range(1, m)] + [-(-abs(coeffs[0]) // 2)]
    return 2 * max(_ceil_root(t, k) for k, t in enumerate(terms, 1))


def _has_integer_root(coeffs: Sequence[int], divisors: Sequence[int]) -> bool:
    """Is f(d) or f(-d) zero for one of the positive ``divisors`` of f(0)?  The caller lists
    only the divisors up to :func:`_root_bound`, as no root of the monic f lies above it."""
    return any(_poly_eval(coeffs, d) == 0 or _poly_eval(coeffs, -d) == 0 for d in divisors)


def _trim(x: Sequence[int], p: int) -> list[int]:
    """x reduced mod p, without trailing zero coefficients."""
    out = [c % p for c in x]
    while out and out[-1] == 0:
        out.pop()
    return out


def _rem(u: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """u modulo the prime p and the polynomial f, whose lead coefficient is 1 mod p."""
    m = len(f) - 1
    u = list(u)
    for k in range(len(u) - 1, m - 1, -1):
        c = u[k] % p
        if c:
            for j in range(m):
                u[k - m + j] -= c * f[j]
    return _trim(u[:m], p)


def _combine(t: Sequence[int], rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """Sum of t_i rows[i] mod p, without trailing zero coefficients."""
    acc = [0] * len(rows[0])
    for c, row in zip(t, rows):
        if c:
            acc = [a + c * r for a, r in zip(acc, row)]
    return _trim(acc, p)


def _frobenius_power(t: list[int], f: Sequence[int], p: int, k: int, budget: WorkBudget, rows: list) -> list[int]:
    """t^(p^k) mod (f, p), f monic mod p: as t(X)^p = sum t_i X^(ip) over F_p, each p-th power
    is one :func:`_combine` of the ``rows`` X^(ip) mod (f, p), charged (deg f)^2 units of ``budget``."""
    for _ in range(k):
        budget.spend((len(f) - 1) ** 2)
        t = _combine(t, rows, p)
    return t


def _poly_gcd_degree(u: list[int], v: list[int], p: int) -> int:
    """Degree of gcd(u, v) over F_p; -1 for gcd of two zero polynomials."""
    a, b = _trim(u, p), _trim(v, p)
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, _rem(a, [c * inv % p for c in b], p)
    return len(a) - 1


def _irreducible_mod_p(coeffs: Sequence[int], p: int, budget: WorkBudget) -> bool:
    """Rabin's criterion for a monic polynomial f of 2-power degree m.

    f is irreducible mod p iff gcd(X^(p^(m/2)) - X, f) = 1 and X^(p^m) = X mod
    (f, p).  One Frobenius orbit of X serves both, the gcd taken halfway.  The
    rows X^(ip) mod (f, p), i < m, are built once, by one walk over X^j for
    j <= (m - 1)p charged ceil((m - 1)p / m) m^2 units of ``budget``; then at
    most m p-th-power steps follow, each one linear combination of the rows.
    """
    m = len(coeffs) - 1
    f = [c % p for c in coeffs]
    budget.spend(-(-(m - 1) * p // m) * m * m)
    rows, power = [], [1] + [0] * (m - 1)
    for j in range((m - 1) * p + 1):  # X^j mod (f, p), keeping X^(ip) for i < m
        if j % p == 0:
            rows.append(power[:])
        top = power.pop()
        power.insert(0, 0)
        if top:  # X^m = -(f_0 + ... + f_(m-1) X^(m-1))
            power = [(a - top * c) % p for a, c in zip(power, f)]
    x = [0, 1]
    half = _frobenius_power(x, f, p, m // 2, budget, rows)
    diff = half + [0] * (2 - len(half))
    diff[1] -= 1
    if _poly_gcd_degree(diff, f, p) != 0:
        return False
    return _frobenius_power(half, f, p, m - m // 2, budget, rows) == x


def _divisors(n: int, bound: float = inf) -> list[int]:
    """Sorted positive divisors up to ``bound`` of a nonzero integer, from its budgeted
    factorization; a product above the bound is dropped at once, so only the bounded ones are listed."""
    out = [1]
    for p, e in factor(n).factors:
        out = [q for d in out for k in range(e + 1) if (q := d * p**k) <= bound]
    return sorted(out)


def _irreducible_over_Q(coeffs: Sequence[int]) -> bool:
    """Irreducibility of a monic integer polynomial of degree m, desk-scale screen.

    Quadratics by their discriminant.  Otherwise integer roots first (the
    divisors of f(0) up to a root bound), then
    Rabin's test modulo each of the first 16 odd primes that do not divide
    f(0) (conclusive once f is irreducible modulo one), then a search for
    monic quadratic factors X^2 + uX + v with v | f(0) and |u| <= 4 max |f_i|.
    Every stage is charged to a work budget before it runs: the root test to
    its own, 1 unit per divisor d of f(0) and 2m for f(d) and f(-d), all before
    the first is listed; to a shared one, ceil((m - 1)p / m) m^2 per prime's
    row build, m^2 per Frobenius step and m per candidate factor, one v at a
    time.  Inputs that defeat all three stages, or do not fit a budget, raise
    BudgetExceededError rather than guessing.
    """
    m = len(coeffs) - 1
    if m == 1:
        return True
    if m == 2:
        return not is_square(coeffs[1] ** 2 - 4 * coeffs[0])
    if coeffs[0] == 0:
        return False
    shown = f"[{', '.join(map(_shown, coeffs))}]"
    roots = WorkBudget(f"integer roots of the polynomial {shown}")
    roots.spend((2 * m + 1) * prod(e + 1 for _, e in factor(coeffs[0]).factors))
    if _has_integer_root(coeffs, _divisors(coeffs[0], _root_bound(coeffs))):
        return False
    screen = WorkBudget(f"irreducibility screen of the polynomial {shown}")
    for p in islice((p for p in _SMALL_PRIMES[1:] if coeffs[0] % p), 16):
        if _irreducible_mod_p(coeffs, p, screen):
            return True
    height = 4 * max(abs(c) for c in coeffs)
    for v in _divisors(coeffs[0]):
        for sv in (v, -v):
            screen.spend(m * (2 * height + 1))
            for u in range(-height, height + 1):
                if _divides_exactly(coeffs, (sv, u, 1)):
                    return False
    raise BudgetExceededError(
        f"{screen.task}: irreducibility undetermined after {screen.spent} of {screen.limit} units ({_BUDGET_ENV})"
    )


@lru_cache(maxsize=256)
def _screened_irreducible(coeffs: tuple[int, ...], budget_setting: str | None) -> bool:
    """``_irreducible_over_Q(coeffs)``, memoized per process.

    ``budget_setting`` is the raw ``SDNB_FACTOR_BUDGET`` value, so a cached
    verdict is the one a fresh screen under the same budget would give.
    Only verdicts are kept: a ``BudgetExceededError``, or the ValueError of a
    malformed budget, is raised afresh on every call.
    """
    return _irreducible_over_Q(coeffs)


def _divides_exactly(coeffs: Sequence[int], div: Sequence[int]) -> bool:
    rem = list(coeffs)
    dd = len(div) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            for j in range(dd + 1):
                rem[k - dd + j] -= c * div[j]
    return not any(rem[:dd])


# ---------------------------------------------------------------------------
# invariants


def _group_and_h1(spec: GaloisAlgebraSpec) -> tuple[GroupDescriptor, int | None, bool]:
    """The group, its 2-power exponent n (None unless cyclic of order 2^n) and h1, derived once."""
    group = spec.group
    n = group.cyclic_two_power_exponent()
    return group, n, n is None or spec.degree <= 1 << (n - 1)


def h1_condition(spec: GaloisAlgebraSpec) -> bool:
    """Do all degree-one invariants of the algebra vanish?

    Equivalent to the image of the classifying homomorphism lying in the
    subgroup generated by squares.  Read off the family's ``group`` and
    ``degree`` m: true iff the group is not cyclic of 2-power order 2^n, or
    m <= 2^(n - 1), half the group order.  So the order-8 dihedral family and
    A4 and A5 (no order-2 quotients) always qualify, as does the split algebra.
    """
    return _group_and_h1(spec)[2]


def family_trace_form(spec: GaloisAlgebraSpec) -> DiagonalForm:
    """Diagonalized trace form of the inducing field / rank-4 fixed algebra, kept by the spec."""
    return spec._form


def _top_class(m: int, q: DiagonalForm) -> BrauerClass:
    """The top class of an algebra induced from a degree-m field with trace form q; D4's and A5's matrix class."""
    if m == 2:
        # q = <2, b>, and (2)(-1) = 0 because 2 = 1 + 1 is a norm from Q(i)
        return cup(q.entries[-1], -1)
    return hasse_witt(q.orthogonal_sum(DiagonalForm([2])))


def d_top(spec: GaloisAlgebraSpec) -> BrauerClass:
    """The one possibly nonzero unitary invariant of a cyclic 2-power algebra.

    It depends only on the family's ``degree`` m and its kept trace form q,
    and the decisions compute it from the same core, ``_top_class``.
    Degree 2: the cup product (D_K)(-1), which for Q(sqrt z) is (z)(-1), from
    the order-4 fibered extension; D_K is the product of the entries of
    q = <2, b> (its first entry is Tr(1) = 2), so by bilinearity the class is
    (2)(-1) + (b)(-1) = (b)(-1), and only b and -1 are factored.  Any other
    degree: w2(q_K) + (2)(D_K) = w2(q_K + <2>) by bilinearity (0 for q = <1>).
    The degree-2 case genuinely differs, as that expression collapses to
    (2)(-1) = 0 there (module docstring); D4's and A5's matrix factor carry the
    same class.
    """
    _, n, h1 = _group_and_h1(spec)
    if n is None:
        raise ValueError("the top unitary invariant lives on cyclic 2-power groups")
    if not h1:
        raise ValueError("invariant undefined: degree-one invariants do not vanish")
    return _top_class(spec.degree, spec._form)


@frozen
class InvariantEntry:
    """One factor's invariant: ``invariant`` is "c" for orthogonal factors and "d" for
    unitary ones, ``status`` is "computed", "zero" or "not-computed"."""

    def __init__(self, factor_id: str, invariant: str, status: str, value: BrauerClass | None, note: str = "") -> None:
        vars(self).update(factor_id=factor_id, invariant=invariant, status=status, value=value, note=note)

    def to_json(self) -> dict:
        out = {
            "factor": self.factor_id,
            "invariant": self.invariant,
            "status": self.status,
            "class": None if self.value is None else self.value.to_json(),
        }
        if self.note:
            out["note"] = self.note
        return out


@frozen
class InvariantReport:
    def __init__(self, h1: bool, entries: tuple[InvariantEntry, ...], trace_diagonal: DiagonalForm,
                 det_class: int, signature: tuple[int, int]) -> None:
        vars(self).update(h1=h1, entries=entries, trace_diagonal=trace_diagonal, det_class=det_class,
                          signature=signature)

    def to_json(self) -> dict:
        return {
            "h1": self.h1,
            "entries": [e.to_json() for e in self.entries],
            "trace_form": [str(a) for a in self.trace_diagonal.entries],
            "det_class": self.det_class,
            "signature": list(self.signature),
        }


_ZERO_DEGREE_ONE = "degree-one factor: finite unitary group, invariant absorbed by the squares condition"
_ZERO_LOWER_UNITARY = "forced to vanish: below the top factor the fibered extension is split"
_A4_PAIR = "character pair without an attached invariant in the supported table"


def c_invariants(spec: GaloisAlgebraSpec) -> tuple[InvariantEntry, ...]:
    """Orthogonal-factor invariants; requires the degree-one vanishing.  Only the
    orthogonal and degree-one factors are walked: no unitary class is computed."""
    group, n, h1 = _group_and_h1(spec)
    if not h1:
        raise ValueError("invariants undefined: degree-one invariants do not vanish")
    return tuple(spec._entry(fd, n) for fd in decompose(group) if fd.kind != FactorKind.UNITARY)


def invariant_report(spec: GaloisAlgebraSpec) -> InvariantReport:
    """Per-factor invariant classes, in factor order (none unless h1 holds), plus the trace-form data."""
    group, n, h1 = _group_and_h1(spec)
    q = family_trace_form(spec)
    entries = tuple(spec._entry(fd, n) for fd in decompose(group)) if h1 else ()
    return InvariantReport(h1, entries, q, det_square_class(q), signature(q))


# ---------------------------------------------------------------------------
# decisions


@frozen
class CertificateRow:
    def __init__(self, condition: str, factor: str | None, place: str | int | None, passed: bool, detail: str) -> None:
        vars(self).update(condition=condition, factor=factor, place=place, passed=passed, detail=detail)

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "factor": self.factor,
            "place": self.place,
            "passed": self.passed,
            "detail": self.detail,
        }


@frozen
class Decision:
    def __init__(self, verdict: str, certificate: tuple[CertificateRow, ...]) -> None:
        if verdict == VERDICT_NO and all(r.passed for r in certificate):
            raise ValueError("a negative decision must record a failing condition")
        if verdict == VERDICT_YES and not all(r.passed for r in certificate):
            raise ValueError("a positive decision cannot carry failing conditions")
        vars(self).update(verdict=verdict, certificate=certificate)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": [row.to_json() for row in self.certificate],
        }


def _local_filter(fd: FactorDescriptor, v: Place) -> tuple[bool, str]:
    """Does the local condition bind for this factor at the finite place v?  ``local_data`` gives
    every factor's local degree parity and epsilon; ``e_kind`` only chooses the row's words."""
    if fd.kind == FactorKind.DEGREE_ONE:
        return False, "degree-one factor, no local condition"
    n_odd, eps = local_data(fd.conductor, v)
    if fd.e_kind == "Q":
        n_text = "[E:Q_v] = 1"
    elif fd.e_kind == "quadratic":
        n_text = f"E = Q(sqrt {fd.conductor}) {'splits' if n_odd else 'does not split'} at {v}"
    else:
        n_text = f"local degree of E (conductor {fd.conductor}) is {'odd' if n_odd else 'even'}"
    if fd.kind == FactorKind.ORTHOGONAL:
        return n_odd, f"{n_text}; factor split"
    return n_odd and eps == 1, f"{n_text}; epsilon = {eps}"


def _decide(spec: GaloisAlgebraSpec, at: Place | None) -> Decision:
    """The certificate builder behind ``decide_global`` and ``decide_local``.

    With ``at`` None it walks the real place and every finite place in the
    support of each invariant class; with a finite ``at`` it walks that one
    place for every factor, ramified or not.  The verdict is yes iff every
    row passes, unless the family caps it (A4: unknown).  The group, its
    2-power exponent, h1, the trace form (read only when h1 holds) and the
    factor table are computed once here; each factor's entry is the family's.
    """
    group, n, h1 = _group_and_h1(spec)
    detail = "image of the classifying map is not inside the squares subgroup"
    rows = [CertificateRow("h1", None, "H1", h1, "degree-one invariants vanish" if h1 else detail)]
    if not h1:
        return Decision(VERDICT_NO, tuple(rows))
    q = family_trace_form(spec)
    if at is None:
        sig = signature(q)
        real_ok = sig[1] == 0
        state = "positive definite, split at the real place" if real_ok else "not totally real"
        detail = f"trace form signature {sig}: {state}"
        rows.append(CertificateRow("real-split", None, "real", real_ok, detail))
    where = None if at is None else at.to_json()
    for fd in decompose(group):
        entry = spec._entry(fd, n)
        kind = "orthogonal-local" if entry.invariant == "c" else "unitary-local"
        cls = entry.value
        if cls is None:  # not computed
            rows.append(CertificateRow(kind, fd.id, where, True, entry.note))
            continue
        if at is None and is_trivial(cls):
            detail = "invariant class trivial; conditions hold at every place"
            rows.append(CertificateRow(kind, fd.id, None, True, detail))
            continue
        # the real place is governed by the real-split condition
        places = [at] if at is not None else sorted(cls.ramified - {REAL}, key=Place.sort_key)
        for v in places:
            binds, detail = _local_filter(fd, v)
            ramified = v in cls.ramified
            passed = not (binds and ramified)
            if at is None:
                detail += "; local invariant is -1 here" + ("" if passed else ", so the condition fails")
            else:
                detail += f"; local invariant {'-1' if ramified else '+1'}"
            rows.append(CertificateRow(kind, fd.id, v.to_json(), passed, detail))
    verdict = VERDICT_YES if all(r.passed for r in rows) else VERDICT_NO
    return Decision(spec.verdict_cap or verdict, tuple(rows))


def decide_global(spec: GaloisAlgebraSpec) -> Decision:
    """Does the algebra have a self-dual normal basis over Q?

    Yes iff the degree-one invariants vanish, the trace form is positive
    definite (split at the real place), and every finite place in the
    support of an invariant class passes its filter.  Places outside the
    support have trivial local invariant, so nothing else needs checking.
    The certificate always contains the full filter table.
    """
    return _decide(spec, None)


def decide_local(spec: GaloisAlgebraSpec, v: Place) -> Decision:
    """Self-dual normal basis decision for the completion at a finite place."""
    if v.is_real:
        raise ValueError("the real place is decided by positive definiteness of the trace form")
    return _decide(spec, v)


def embedding_obstruction(coeffs: Sequence[int]) -> BrauerClass:
    """Obstruction to embedding a cyclic 2-power field into one of twice the degree.

    For the field K of a monic integer polynomial of 2-power degree m >= 4
    (cyclicity asserted), the top invariant ``d_top`` of the algebra over
    C(2m) induced from K, i.e. w2(q_K) + (2)(D_K); ``CyclicPoly`` validates
    the polynomial.  Trivial iff the embedding exists, in which case the
    induced algebra has a self-dual normal basis.
    """
    coeffs = _integer_coefficients(coeffs)
    m = len(coeffs) - 1
    if m < 4 or m & (m - 1):
        raise ValueError("embedding obstruction needs a 2-power degree >= 4")
    return d_top(CyclicPoly(m.bit_length(), coeffs, m))


def trace_forms_isomorphic(s1: GaloisAlgebraSpec, s2: GaloisAlgebraSpec) -> bool:
    """Are the G-trace forms of two cyclic 2-power algebras isomorphic?

    Both specs must satisfy the degree-one vanishing condition, under which
    their degree-one data are identically trivial and agree for free; the
    comparison is then equality of the top-factor discriminants, tested as
    restriction-triviality of the sum of the two top invariants.  (In
    particular two algebras that both admit self-dual normal bases compare
    equal even when the inducing fields differ.)
    """
    (g1, n, h1), (g2, _, h2) = _group_and_h1(s1), _group_and_h1(s2)
    if g1 != g2:
        raise ValueError("trace form comparison needs a common group")
    if n is None or n < 2:
        raise ValueError("trace form comparison covers cyclic 2-power groups")
    if not (h1 and h2):
        raise ValueError("both algebras must satisfy the degree-one vanishing condition")
    diff = add(d_top(s1), d_top(s2))
    # restriction to the totally real cyclotomic layer dies exactly at the
    # places of even local degree; the real place always has degree 1 there
    return not any(v.is_real or local_data(1 << n, v).n_odd for v in diff.ramified)


ELEMENTARY_NOT_APPLICABLE = "not-applicable"


def elementary_criterion(spec: GaloisAlgebraSpec) -> str:
    """Independent factorization-only criterion for the families that have one.

    Order-8 cyclic families: z (resp. a) must be a sum of two squares in
    Q(sqrt 2), i.e. positive with even exponents at primes = 7 mod 8 (see
    the module docstring on why the four-squares phrasing is not used).
    Dihedral order 8: z must be a sum of two rational squares.
    """
    if isinstance(spec, CyclicQuadratic) and spec.n == 3:
        return VERDICT_YES if sum_of_two_squares_over_sqrt2(spec.z) else VERDICT_NO
    if isinstance(spec, CyclicQuartic) and spec.n == 3:
        return VERDICT_YES if sum_of_two_squares_over_sqrt2(spec.a) else VERDICT_NO
    if isinstance(spec, D4Quadratic):
        return VERDICT_YES if sum_of_two_squares(spec.z) else VERDICT_NO
    return ELEMENTARY_NOT_APPLICABLE


# ---------------------------------------------------------------------------
# family helpers and serialization


def quartic_family_polynomial(
    a: Fraction, b: Fraction, c: Fraction, eps: Fraction
) -> tuple[tuple[int, ...], tuple[Fraction, Fraction, Fraction]]:
    """Integer defining polynomial X^4 - 2aX^2 + c^2 eps after rescaling.

    (a, b, c) may be scaled by a common factor without leaving the family or
    changing eps; the returned parameters are the scaled ones, and the
    polynomial defines their quartic field.
    """
    a, b, c, eps = map(as_fraction, (a, b, c, eps))
    lcd = lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = a * lcd, b * lcd, c * lcd
    s = (c * c * eps).denominator
    a, b, c = a * s, b * s, c * s
    const = c * c * eps
    assert const.denominator == 1 and (2 * a).denominator == 1
    coeffs = (int(const), 0, int(-2 * a), 0, 1)
    return coeffs, (a, b, c)


def spec_to_json(spec: GaloisAlgebraSpec) -> dict:
    """The group name, the family and each constructor field but n and group; coeffs as "poly"."""
    out: dict = {"group": spec.group.name, "family": spec.family}
    for name in spec.__match_args__:
        value = getattr(spec, name)
        if name == "coeffs":
            out["poly"] = list(value)
        elif name not in ("n", "group"):
            out[name] = value if name == "degree" else str(value)
    return out


def _integer(value, key: str) -> int:
    if (v := lossless_int(value)) is None:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return v


def _json_field(data: dict, name: str, family: str, group: GroupDescriptor | None):
    """The constructor argument ``name`` of a family, read from the spec's JSON form."""
    if name == "group":
        if group is None:
            raise ValueError("split family needs a group")
        return group
    if name == "n":
        if group is None:
            raise ValueError("cyclic families need a group, e.g. C8")
        if (n := group.cyclic_two_power_exponent()) is None:
            raise ValueError(f"family {family!r} needs a cyclic 2-power group")
        return n
    if name == "degree":
        return _integer(data.get("degree", len(data["poly"]) - 1), "degree")
    if (key := "poly" if name == "coeffs" else name) not in data:
        raise ValueError(f"family {family!r} needs {key}")
    value = data[key]
    if name == "coeffs":
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"poly must be a list of integers, got {value!r}")
        return tuple(_integer(c, "poly") for c in value)
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"{name} must be a rational number or string, got {value!r}")
    try:
        return value if isinstance(value, int) else parse_rational(str(value))
    except ValueError as exc:
        raise ValueError(f"{name} must be a rational number: {exc}") from None


def spec_from_json(data: dict) -> GaloisAlgebraSpec:
    """Spec from its JSON form; malformed data, a missing field included, raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a spec must be a JSON object, got {type(data).__name__}")
    family = data.get("family")
    group = None
    if "group" in data:
        if not isinstance(data["group"], str):
            raise ValueError(f"group must be a name such as \"C8\", got {data['group']!r}")
        group = parse_group(data["group"])
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ValueError(f"unknown family {family!r}")
    spec = cls(*(_json_field(data, name, family, group) for name in cls.__match_args__))
    if group is not None and group != spec.group:
        raise ValueError(f"family {family!r} has group {spec.group.name}, not {group.name}")
    return spec
