"""Diagonal rational quadratic forms and trace forms of etale algebras.

Congruence diagonalization, the classical invariants (determinant square
class, signature, Hasse-Witt class w2 = sum of (a_i, a_j) over i < j),
rank-stratified local isotropy, Hasse-Minkowski over Q, representation and
sums-of-squares decisions, and exact trace forms via Newton power sums.

All arithmetic is exact.  A Gram matrix is reduced once, at construction, by
one symmetric fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of
its rows scaled to integers, charged n^3 units of the work budget
(``SDNB_FACTOR_BUDGET``); the diagonal form is read off its integer pivots.
A trace form runs one subresultant sequence of f and f' (Cohen, GTM 138,
Alg. 3.3.7) for any degree gap: a zero remainder means f has a repeated
root, and when the sequence is normal its leading coefficients are the
pivots, because the leading principal minors of the Hankel matrix of power
sums are, up to sign, the principal subresultant coefficients of f and f'
(Hermite; Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry,
ch. 9); see ``trace_form``.  The determinant class is read off the entries'
square classes (``_square_classes``), never off their product's factorization.

The Hasse invariant at a place v is one walk, linear in the rank (``_walk``;
Serre, A Course in Arithmetic, III.1 and IV.2.1): by bilinearity the product
of (a_i, a_j)_v over i < j is that of (a_1 ... a_(j-1), a_j)_v over j, so the
walk keeps the prefix's valuation mod 2 and unit mod p (mod 8 at 2) and makes
one ``symbols._finite_symbol`` call per entry.  ``hasse_witt`` takes the
real place from ``_hasse_invariant_at`` and walks the determinant's table of
square classes c != 1: at 2 all of them, and at each odd p that divides one
the classes p divides, after the unit product u of the others, which pair
trivially at p.  The local isotropy tests walk the entries' valuations and
units at their one place (``symbols._local_parts``) and factor nothing.
Hasse-Minkowski asks the real place first, which alone decides definite forms.

The ternary witness search is a plain ``int`` scan of expanding boxes
0 <= x, y <= 64, 512, 4096, ... up to the height cap, x first, then y, with z
solved exactly: z^2 = -(a x^2 + b y^2) / c.  A candidate y can only work when
b y^2 = -a x^2 mod |c|, so the scan keeps one table per call, from each class
of b y^2 mod |c| to the increasing list of y in the box with that class, and
visits only the y listed for the class of -a x^2.  The witness is the same
one a scan of every (x, y) of the boxes in that order returns.  Table
entries, rows and candidates are charged to the work budget
(``SDNB_FACTOR_BUDGET``); when it runs out the search raises
:class:`BudgetExceededError` naming the form and the work spent, so a huge
box neither spins nor overflows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod
from typing import Iterable, Sequence

from .brauer import BrauerClass
from .exact import WorkBudget, _shown, as_fraction, factor, frozen, is_square, lossless_int, nonzero
from .symbols import REAL, Place, _finite_symbol, _local_parts, _support, finite, hilbert, is_square_in_completion


@frozen
class DiagonalForm:
    """Nondegenerate diagonal form <a_1, ..., a_n>, entries nonzero rationals."""

    def __init__(self, entries: Iterable[Fraction | int]) -> None:
        coerced = tuple(a if isinstance(a, Fraction) else as_fraction(a) for a in entries)
        if not coerced:
            raise ValueError("a diagonal form needs at least one entry")
        if not all(a.numerator for a in coerced):
            raise ValueError("diagonal entries must be nonzero")
        vars(self).update(entries=coerced)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def orthogonal_sum(self, other: "DiagonalForm") -> "DiagonalForm":
        return DiagonalForm(self.entries + other.entries)

    def scaled_integer_entries(self) -> tuple[int, ...]:
        """Entries of a rescaled form with the same zeros, all integers."""
        lcd = lcm(*(a.denominator for a in self.entries))
        ints = [a.numerator * (lcd // a.denominator) for a in self.entries]
        g = gcd(*ints)
        return tuple(v // g for v in ints)

    def __str__(self) -> str:
        return "<" + ", ".join(map(_shown, self.entries)) + ">"


def _pivots(a: list[list[int]]) -> list[int]:
    """Pivots of symmetric fraction-free elimination of an integer matrix.

    Step k takes the first nonzero diagonal entry at or below k, swapped in
    by row and column; when there is none it repairs the first
    (lexicographic) nonzero off-diagonal pair (i, j) of the remaining block
    with e_i <- e_i + e_j, whose new diagonal entry is a_ii + 2 a_ij + a_jj,
    and takes i.  Then the remaining block gets the Bareiss update (Bareiss,
    Math. Comp. 22, 1968).  After k steps that block is p_k times the Schur
    complement; swaps and repairs are congruences on indices >= k, which
    commute with eliminating the first k, so every division by the previous
    pivot is exact and p_n is the determinant.  Eliminates in place; raises
    ValueError when the remaining block is all zero (a degenerate matrix).
    """
    n = len(a)
    pivots: list[int] = []
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None
            )
            if pair is None:
                raise ValueError("Gram matrix is degenerate")
            piv, j = pair
            dst, src = a[piv], a[j]
            for m in range(k, n):
                dst[m] += src[m]
            for row in a[k:]:
                row[piv] += row[j]
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a[k:]:
                row[k], row[piv] = row[piv], row[k]
        pivot_row = a[k]
        p = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            row[k + 1:] = [(p * x - c * y) // prev for x, y in zip(row[k + 1:], tail)]
        pivots.append(p)
        prev = p
    return pivots


@frozen
class GramMatrix:
    """Symmetric nondegenerate matrix of rationals.

    ``int`` and ``Fraction`` entries are kept as given; any other rational
    type goes through ``Fraction``.  Construction checks symmetry on the
    entries, charges n^3 units of a work budget for an n x n matrix, scales
    the rows to integers by the least common multiple L of the entries'
    denominators and runs one symmetric fraction-free elimination
    (``_pivots``); ``diagonalize`` reads its pivots.
    ``_scale`` and ``_pivots`` are not fields: equality, hash and repr see
    ``rows`` only.  A trace form built from its subresultant pivots
    holds f's coefficients and computes ``rows`` on first read.
    """

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]) -> None:
        coerced = tuple(
            tuple(x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in row)
            for row in rows
        )
        n = len(coerced)
        if n == 0 or any(len(row) != n for row in coerced):
            raise ValueError("Gram matrix must be square and nonempty")
        if coerced != tuple(zip(*coerced)):
            raise ValueError("Gram matrix must be symmetric")
        WorkBudget(f"Gram elimination of a {n}x{n} matrix").spend(n**3)
        lcd = lcm(*(x.denominator for row in coerced for x in row))
        m = [[x.numerator * (lcd // x.denominator) for x in row] for row in coerced]
        vars(self).update(rows=coerced, _scale=lcd, _pivots=tuple(_pivots(m)))

    @classmethod
    def _of_pivots(cls, pivots: tuple[int, ...], coeffs: tuple[int, ...]) -> "GramMatrix":
        """The trace form of the monic integer ``coeffs`` whose elimination pivots are known.

        The caller vouches that ``pivots`` are what ``_pivots`` would return
        for the trace form's rows; nothing is checked or run, and the rows
        are built on first read.
        """
        g = object.__new__(cls)
        vars(g).update(_scale=1, _pivots=pivots, _coeffs=coeffs)
        return g

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        # only a trace form built by ``_of_pivots`` reaches this: ``rows`` in the instance dict shadows it
        return _power_sum_rows(self._coeffs)


def diagonalize(g: GramMatrix) -> DiagonalForm:
    """Congruent diagonal form <p_1/L, p_2/(p_1 L), ..., p_n/(p_{n-1} L)>.

    p_k are the pivots of the elimination ``GramMatrix`` ran on L * G (L
    the common denominator of the entries), and p_k / p_{k-1} is the k-th
    pivot of the same elimination in rational arithmetic.  The pivot rule
    is deterministic, which keeps golden tests stable.
    """
    lcd, pivots = g._scale, g._pivots
    return DiagonalForm(Fraction(p, prev * lcd) for prev, p in zip((1,) + pivots, pivots))


def _square_classes(f: DiagonalForm) -> tuple[list[int], dict[int, list[int]]]:
    """The squarefree classes c != 1 of the entries, from their cached factorizations, and each prime's classes."""
    classes: list[int] = []
    divides: dict[int, list[int]] = {}  # prime -> the classes it divides
    for a in f.entries:
        fa = factor(a)
        odd = [p for p, e in fa.factors if e & 1]
        if (c := fa.sign * prod(odd)) != 1:
            classes.append(c)
            for p in odd:
                divides.setdefault(p, []).append(c)
    return classes, divides


def det_square_class(f: DiagonalForm) -> int:
    """Squarefree representative of the determinant, read off the entries' square classes c != 1
    (``_square_classes``): -1 iff an odd number are negative, times the primes dividing an odd number."""
    classes, divides = _square_classes(f)
    return (-1) ** sum(c < 0 for c in classes) * prod(p for p, cs in divides.items() if len(cs) & 1)


def signature(f: DiagonalForm) -> tuple[int, int]:
    """Counts of positive and negative entries (a congruence invariant)."""
    pos = sum(a.numerator > 0 for a in f.entries)
    return pos, f.rank - pos


def _walk(p: int, parts: Iterable[tuple[int, int]], u: int = 1) -> int:
    """Product over i < j of (a_i, a_j)_p, each a_j = p^beta w given as (beta mod 2, w); see the module docstring."""
    s, alpha, m = 1, 0, 8 if p == 2 else p
    for beta, w in parts:
        s *= _finite_symbol(alpha, u, beta, w, p)
        alpha, u = alpha ^ beta, u * w % m
    return s


@lru_cache(maxsize=64)
def hasse_witt(f: DiagonalForm) -> BrauerClass:
    """The class sum of (a_i, a_j) over i < j in Br_2(Q), memoized per form; see the module docstring."""
    classes, divides = _square_classes(f)
    total = prod(classes)
    ramified = [REAL] if _hasse_invariant_at(f, REAL) == -1 else []
    if _walk(2, [(0, c) if c & 1 else (1, c // 2) for c in classes]) == -1:
        ramified.append(finite(2))
    for p, cs in divides.items():
        if p != 2 and _walk(p, [(1, c // p) for c in cs], total // prod(cs) % p) == -1:
            ramified.append(finite(p))
    return BrauerClass(frozenset(ramified))


def _hasse_invariant_at(f: DiagonalForm, v: Place) -> int:
    """The Hasse invariant of f at v, walked on the entries' valuations and units there; factors nothing."""
    if v.prime is None:  # -1 iff C(k, 2) is odd, k the number of negative entries
        return -1 if signature(f)[1] & 2 else 1
    return _walk(v.prime, ((k & 1, u) for k, u in (_local_parts(a, v) for a in f.entries)))


def isotropic_over_Qp(f: DiagonalForm, v: Place) -> bool:
    """Local isotropy by the rank-stratified invariant criteria, read at v alone."""
    n = f.rank
    if v.is_real:
        pos, neg = signature(f)
        return pos > 0 and neg > 0
    if n == 1:
        return False
    if n >= 5:
        return True
    d = prod(f.entries)
    if n == 2:
        return is_square_in_completion(-d, v)
    eps = _hasse_invariant_at(f, v)
    if n == 3:
        return hilbert(-1, -d, v) == eps
    return (not is_square_in_completion(d, v)) or eps == hilbert(-1, -1, v)


def isotropic_over_Q(f: DiagonalForm) -> bool:
    """Hasse-Minkowski: isotropic at every place of the finite support set."""
    return anisotropy_certificate(f) is None


def anisotropy_certificate(f: DiagonalForm) -> Place | None:
    """A place where f is locally anisotropic, or None if f is isotropic; the real place is asked first."""
    if not isotropic_over_Qp(f, REAL):
        return REAL
    return next((v for v in _support(f.entries)[1:] if not isotropic_over_Qp(f, v)), None)


def represents(f: DiagonalForm, c: Fraction | int) -> bool:
    """Does f represent c over Q?  Tested as isotropy of f + <-c>."""
    c = nonzero(c, "representation of 0 is isotropy; pass a nonzero value")
    return isotropic_over_Q(f.orthogonal_sum(DiagonalForm([-c])))


def isotropy_witness_ternary(
    f: DiagonalForm, height_cap: int = 10_000
) -> tuple[int, int, int] | None:
    """Search a nontrivial integer zero of a ternary form, coordinates <= cap.

    The form is scaled to integer entries (same zero set).  The scan runs
    over x, y with the third coordinate solved exactly, in expanding boxes;
    for small entries the classical minima are tiny, so the cap is a safety
    net rather than the expected exit.  Only the y with b y^2 = -a x^2 mod |c|
    are tried (see the module docstring).  Raises BudgetExceededError when the
    scan outgrows the work budget.
    """
    if f.rank != 3:
        raise ValueError("witness search is for ternary forms")
    a, b, c = f.scaled_integer_entries()
    mod = abs(c)
    budget = WorkBudget(f"isotropy witness search for {f}")
    ys_by_class: dict[int, list[int]] = {}  # b y^2 mod |c| -> increasing y
    filled = 0
    bound = 64
    while True:
        hi = min(bound, height_cap)
        budget.spend(hi + 1 - filled)
        for y in range(filled, hi + 1):
            ys_by_class.setdefault(b * y * y % mod, []).append(y)
        filled = hi + 1
        for x in range(0, hi + 1):
            ax2 = a * x * x
            ys = ys_by_class.get(-ax2 % mod, ())
            budget.spend(1 + len(ys))
            for y in ys:
                q = -(ax2 + b * y * y) // c
                if q >= 0:
                    z = isqrt(q)
                    if z * z == q and (x or y or z):
                        return (x, y, z)
        if hi >= height_cap:
            return None
        bound *= 8


def _positive_and_even_at_minus_one(z: Fraction | int, k: int) -> bool:
    """z > 0 with even exponent at every prime p = -1 mod 2^k: pure factorization, no symbol."""
    return nonzero(z, "zero input") > 0 and all(e % 2 == 0 for p, e in factor(z).factors if (p + 1) % (1 << k) == 0)


def sum_of_two_squares(z: Fraction | int) -> bool:
    """Is z a sum of two rational squares (a norm from Q(i))?  Iff z > 0 with even exponent at primes = 3 mod 4."""
    return _positive_and_even_at_minus_one(z, 2)


def sum_of_four_squares(z: Fraction | int) -> bool:
    """Is z a sum of four rational squares?  Over Q this is just z > 0."""
    return nonzero(z, "zero input") > 0


def sum_of_two_squares_over_sqrt2(z: Fraction | int) -> bool:
    """Is z a sum of two squares in Q(sqrt(2))?

    z is a norm from Q(sqrt(2), i) over Q(sqrt(2)) iff z > 0 and every prime
    congruent to 7 mod 8 divides z to even exponent: the quaternion class
    (z, -1) can only ramify at the real place, at 2, and at primes p = 3 mod
    4; of those only p = 7 mod 8 split in Q(sqrt(2)) and survive restriction
    (2 ramifies, p = 3 mod 8 is inert, and sqrt(2) is real so z < 0 blocks).
    """
    return _positive_and_even_at_minus_one(z, 3)


def _integer_coefficients(coeffs: Iterable[int]) -> tuple[int, ...]:
    """The coefficients as ints by ``exact.lossless_int``; any value it refuses is a ValueError."""
    out = tuple(map(lossless_int, coeffs))
    if None in out:
        raise ValueError("polynomial must have integer coefficients")
    return out


def _subresultants(coeffs: Sequence[int]) -> tuple[tuple[int, ...] | None, bool]:
    """The subresultant sequence of f and f' (constant term first, lc(f) != 0), run to its end.

    F_0 = f, F_1 = f' and F_{k+1} = prem(F_{k-1}, F_k) / (g h^d), d the degree
    gap deg F_{k-1} - deg F_k; g = h = 1 at the first step, then g = lc(F_{k-1})
    and h = lc(F_k)^d / h^(d-1) after each, and every division is exact (Cohen,
    GTM 138, Alg. 3.3.7).  prem eliminates the first d - 1 leading terms one at
    a time and the last two in one pass, which is the whole step when d = 1.
    Returns the minors D_k = (-1)^(k(k-1)/2) lc(F_k), k = 1..m, of the Hankel
    matrix of power sums when every F_k has degree m - k (the normal case, where
    they are the pivots ``_pivots`` takes without a swap or repair), else None;
    and whether f has a repeated root, which is whether the sequence ends in 0.
    """
    m = len(coeffs) - 1
    a = list(coeffs[::-1])  # F_{k-1}, leading coefficient first
    b = [(m - i) * c for i, c in enumerate(a[:-1])]  # F_k
    minors: list[int] | None = b[:1]
    g = h = 1
    while len(b) > 1:
        d, lb = len(a) - len(b), b[0]
        for _ in range(d - 1):  # a := lb a - lc(a) x^(deg a - deg b) b, its zero leading term dropped
            la = a[0]
            a = [lb * x - la * y for x, y in zip(a[1:], b[1:])] + [lb * x for x in a[len(b):]]
        # the last two leading terms in one pass, lr the leading coefficient after the first,
        # then the exact division by g h^d
        la = a[0]
        lr, lb2, lab, div = lb * a[1] - la * b[1], lb * lb, la * lb, g * h**d
        r = [(lb2 * x - lab * y - lr * z) // div for x, y, z in zip(a[2:], b[2:] + [0], b[1:])]
        if not r[0]:
            minors, r = None, r[next((i for i, x in enumerate(r) if x), len(r)):]
            if not r:
                return None, True
        elif minors is not None:
            minors.append(-r[0] if (len(minors) + 1) & 2 else r[0])
        a, b, g, h = b, r, lb, lb**d // h ** (d - 1)
    return (None if minors is None else tuple(minors)), False


def _power_sum_rows(coeffs: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Hankel rows (s_{i+j}) of the power sums of the roots of monic integer f (constant term first).

    Newton's identities in plain integers: the s_k are integers for a monic integer f.
    """
    n = len(coeffs) - 1
    s = [0] * (2 * n - 1)
    s[0] = n
    for k in range(1, 2 * n - 1):
        acc = sum(coeffs[n - j] * s[k - j] for j in range(1, min(k - 1, n) + 1))
        if k <= n:
            acc += k * coeffs[n - k]
        s[k] = -acc
    return tuple(tuple(s[i:i + n]) for i in range(n))


def trace_form(coeffs: Sequence[int]) -> GramMatrix:
    """Gram matrix of the trace form of Q[X]/(f), f monic integer, squarefree.

    ``coeffs`` lists f constant term first, leading coefficient 1.  The
    entries are the power sums s_{i+j} of the roots (``_power_sum_rows``).
    One subresultant sequence of f and f' (``_subresultants``; Cohen, GTM
    138, Alg. 3.3.7) comes first.  A polynomial with repeated roots is
    rejected.  When the sequence is normal its minors are the pivots: the
    matrix holds them and the coefficients, and computes its rows on first
    read, which ``diagonalize`` never does.  Otherwise the rows are built at
    once and reduced by the elimination, as for any Gram matrix.
    """
    coeffs = _integer_coefficients(coeffs)
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    pivots, repeated = _subresultants(coeffs)
    if repeated:
        raise ValueError("polynomial has repeated roots")
    if pivots is not None:
        return GramMatrix._of_pivots(pivots, coeffs)
    return GramMatrix(_power_sum_rows(coeffs))


def quartic_family_form(
    a: Fraction | int, b: Fraction | int, c: Fraction | int, eps: Fraction | int
) -> DiagonalForm:
    """The diagonal trace form <1, eps, a, a> of the cyclic quartic family.

    Parameters must satisfy a^2 - b^2 eps = c^2 eps with c nonzero and eps
    not a square; the quartic field is Q(sqrt(a + b sqrt(eps))).
    """
    a, b, c, eps = (x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in (a, b, c, eps))
    c = nonzero(c, "quartic family needs c nonzero")
    if is_square(eps):
        raise ValueError("quartic family needs a nonsquare eps")
    (an, ad), (bn, bd), (cn, cd), (en, ed) = ((x.numerator, x.denominator) for x in (a, b, c, eps))
    if an * an * bd * bd * cd * cd * ed != (bn * bn * cd * cd + cn * cn * bd * bd) * en * ad * ad:  # a^2 = (b^2 + c^2) eps
        raise ValueError("parameters violate a^2 - b^2 eps = c^2 eps")
    return DiagonalForm([1, eps, a, a])
