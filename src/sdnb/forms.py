"""Diagonal rational quadratic forms and trace forms of etale algebras.

Congruence diagonalization, the classical invariants (determinant square
class, signature, Hasse-Witt class w2 = sum of (a_i, a_j) over i < j),
rank-stratified local isotropy, Hasse-Minkowski over Q, representation and
sums-of-squares decisions, and exact trace forms via Newton power sums.

All arithmetic is exact.  A Gram matrix keeps its ``int`` and ``Fraction``
entries as given, is scaled to integers by the least common multiple of their
denominators and reduced once, at construction, by one symmetric
fraction-free elimination (Bareiss, Math. Comp. 22, 1968, with a symmetric
pivot rule), charged n^3 units of the work budget (``SDNB_FACTOR_BUDGET``)
for an n x n matrix before it runs; the determinant and the diagonal form
are read off its integer pivots.  A trace form is the Hankel matrix of the
integer power sums of the roots of f, and when f is monic its leading
principal minors are, up to sign, the principal subresultant coefficients of
f and f' (Hermite; Basu, Pollack and Roy, Algorithms in Real Algebraic
Geometry, ch. 9).  So ``trace_form`` first reads its pivots off the
subresultant sequence of f and f' in O(m^2) operations, with no elimination,
whenever every remainder drops the degree by exactly one; the Hankel rows of
power sums are then computed only when they are first read (equality, hash,
repr), which a decision never does.  Otherwise it refuses a polynomial with
repeated roots, and for a vanishing leading minor it builds the rows at once
and runs the elimination.  The determinant class is read
off the cached factorizations of the entries, never of their product.  The
Hasse-Witt class is summed over the square classes of the entries with their
multiplicities: the ramified sets of a few symbols (a, -1) and (a, b), one
per odd count rather than one per pair, each read off the cached
factorizations by ``symbols.ramified_places``, are added into one class.
The local isotropy tests read the Hasse invariant at a place off that class;
their square tests and remaining symbols work at that one place, by trial
division.

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
from .exact import WorkBudget, as_fraction, factor, frozen, is_square, nonzero, squarefree_part
from .symbols import Place, hilbert, is_square_in_completion, ramified_places, support_places


@frozen
class DiagonalForm:
    """Nondegenerate diagonal form <a_1, ..., a_n>, entries nonzero rationals."""

    def __init__(self, entries: Iterable[Fraction | int]) -> None:
        coerced = tuple(a if isinstance(a, Fraction) else as_fraction(a) for a in entries)
        if not coerced:
            raise ValueError("a diagonal form needs at least one entry")
        if any(a == 0 for a in coerced):
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
        return "<" + ", ".join(str(a) for a in self.entries) + ">"


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
    (``_pivots``); ``n``, ``det`` and ``diagonalize`` read its pivots.
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
    def _of_pivots(cls, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]) -> "GramMatrix":
        """The matrix of integer ``rows`` whose elimination pivots are known.

        The caller vouches that ``rows`` is symmetric and that ``pivots`` are
        what ``_pivots`` would return for it; nothing is checked or run.
        """
        g = object.__new__(cls)
        vars(g).update(rows=rows, _scale=1, _pivots=pivots)
        return g

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        # reached only on a trace form built from its pivots: every other
        # construction sets ``rows`` in the instance dict, which shadows this
        return _power_sum_rows(self._coeffs)

    @property
    def n(self) -> int:
        return len(self._pivots)

    def det(self) -> Fraction:
        """p_n / L^n: every step of the elimination is a unimodular congruence."""
        return Fraction(self._pivots[-1], self._scale**self.n)


def diagonalize(g: GramMatrix) -> DiagonalForm:
    """Congruent diagonal form <p_1/L, p_2/(p_1 L), ..., p_n/(p_{n-1} L)>.

    p_k are the pivots of the elimination ``GramMatrix`` ran on L * G (L
    the common denominator of the entries), and p_k / p_{k-1} is the k-th
    pivot of the same elimination in rational arithmetic.  The pivot rule
    is deterministic, which keeps golden tests stable.
    """
    lcd, pivots = g._scale, g._pivots
    return DiagonalForm(Fraction(p, prev * lcd) for prev, p in zip((1,) + pivots, pivots))


def det_square_class(f: DiagonalForm) -> int:
    """Squarefree representative of the determinant.

    The sign and the primes of odd exponent in the product of the entries,
    taken from each entry's (cached) factorization: a prime's exponent in
    the product is odd iff it is odd in an odd number of entries.
    """
    sign, odd = 1, set()
    for a in f.entries:
        fa = factor(a)
        sign *= fa.sign
        odd ^= {p for p, e in fa.factors if e % 2}
    return sign * prod(odd)


def signature(f: DiagonalForm) -> tuple[int, int]:
    """Counts of positive and negative entries (a congruence invariant)."""
    pos = sum(1 for a in f.entries if a > 0)
    return pos, f.rank - pos


@lru_cache(maxsize=64)
def hasse_witt(f: DiagonalForm) -> BrauerClass:
    """The class sum of (a_i, a_j) over i < j in Br_2(Q).

    The cup product is bilinear and depends only on square classes, so the
    sum runs over the square classes of the entries with their
    multiplicities m: (a, a) = (a, -1) counts C(m, 2) times within a class
    and (a, b) counts m_a * m_b times across two, and only odd counts
    contribute.  The class of 1 contributes nothing.  Each class is
    represented by its first entry, whose factorization is already cached.
    The ramified sets of the symbols are added (symmetric difference) and
    one class is built at the end.  The result is memoized per form, so the
    local tests at every place of one form share one computation.
    """
    classes: dict[int, list] = {}  # square class -> [first entry, multiplicity]
    for a in f.entries:
        c = squarefree_part(a)
        if c != 1:
            classes.setdefault(c, [a, 0])[1] += 1
    reps = list(classes.values())
    ramified: set[Place] = set()
    for i, (a, m) in enumerate(reps):
        if m * (m - 1) // 2 % 2:
            ramified ^= ramified_places(a, -1)
        for b, k in reps[i + 1:]:
            if m * k % 2:
                ramified ^= ramified_places(a, b)
    return BrauerClass(frozenset(ramified))


def _hasse_invariant_at(f: DiagonalForm, v: Place) -> int:
    return -1 if v in hasse_witt(f).ramified else 1


def isotropic_over_Qp(f: DiagonalForm, v: Place) -> bool:
    """Local isotropy by the rank-stratified invariant criteria."""
    n = f.rank
    if v.is_real:
        pos, neg = signature(f)
        return pos > 0 and neg > 0
    if n == 1:
        return False
    d = det_square_class(f)
    if n == 2:
        return is_square_in_completion(-d, v)
    eps = _hasse_invariant_at(f, v)
    if n == 3:
        return hilbert(-1, -d, v) == eps
    if n == 4:
        return (not is_square_in_completion(d, v)) or eps == hilbert(-1, -1, v)
    return True


def _support(f: DiagonalForm) -> list[Place]:
    pairs = [(a, a) for a in f.entries]
    return sorted(support_places(pairs), key=Place.sort_key)


def isotropic_over_Q(f: DiagonalForm) -> bool:
    """Hasse-Minkowski: isotropic at every place of the finite support set."""
    return anisotropy_certificate(f) is None


def anisotropy_certificate(f: DiagonalForm) -> Place | None:
    """A place where f is locally anisotropic, or None if f is isotropic."""
    for v in _support(f):
        if not isotropic_over_Qp(f, v):
            return v
    return None


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


def sum_of_two_squares(z: Fraction | int) -> bool:
    """Is z a sum of two rational squares?

    Holds iff z > 0 and every prime congruent to 3 mod 4 divides z to even
    exponent (norms from Q(i)).
    """
    z = nonzero(z, "zero input")
    return z > 0 and all(e % 2 == 0 for p, e in factor(z).factors if p % 4 == 3)


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
    Pure factorization, independent of the symbol machinery.
    """
    z = nonzero(z, "zero input")
    return z > 0 and all(e % 2 == 0 for p, e in factor(z).factors if p % 8 == 7)


def _integer_coefficients(coeffs: Iterable[int]) -> tuple[int, ...]:
    """The coefficients as ints, refusing any value ``int()`` would change.

    Ints, integer strings and integral values such as 4.0 or Fraction(4)
    pass; 4.5, Fraction(5, 2) or an infinite float raise ValueError instead
    of being truncated.
    """
    out = []
    for c in coeffs:
        try:
            v = int(c)
        except OverflowError:
            v = None
        if v != c and not isinstance(c, str):
            raise ValueError("polynomial must have integer coefficients")
        out.append(v)
    return tuple(out)


def _subresultant_pivots(coeffs: Sequence[int]) -> tuple[int, ...] | None:
    """Leading principal minors D_1, ..., D_m of the trace form of monic f, or None.

    F_0 = f, F_1 = f' and F_{k+1} = prem(F_{k-1}, F_k) / lc(F_{k-1})^2 is the
    subresultant sequence of f and f' while every F_k has degree m - k (the
    normal case, where each division is exact), and then
    D_k = (-1)^(k(k-1)/2) lc(F_k): the minors of the Hankel matrix of power
    sums are the principal subresultant coefficients of (f, f') up to sign.
    All D_k are then nonzero, so they are the pivots ``_pivots`` takes on
    the diagonal without a swap or repair.  Returns None at the first F_k of
    lower degree, where some D_k vanishes or f has repeated roots.  O(m^2)
    integer operations.
    """
    m = len(coeffs) - 1
    a = list(coeffs[::-1])  # F_{k-1}, leading coefficient first
    b = [(m - i) * c for i, c in enumerate(a[:-1])]  # F_k
    minors = [b[0]]
    div = 1  # lc(F_{k-1})^2, and lc(f) = 1
    while len(b) > 1:
        la, lb = a[0], b[0]
        # prem(F_{k-1}, F_k) = lb^2 F_{k-1} - (q_1 x + q_0) F_k, one leading term at a time
        r = [lb * x - la * y for x, y in zip(a[1:], b[1:])]
        r.append(lb * a[-1])
        lr = r[0]
        r = [(lb * x - lr * y) // div for x, y in zip(r[1:], b[1:])]
        if not r[0]:
            return None
        minors.append(-r[0] if (len(minors) + 1) & 2 else r[0])
        a, b, div = b, r, lb * lb
    return tuple(minors)


def _has_repeated_roots(coeffs: Sequence[int]) -> bool:
    """True iff the integer polynomial f (constant term first) shares a root with f'.

    Euclid's algorithm on primitive integer remainders: the last nonzero one
    is gcd(f, f') up to a constant, of positive degree exactly when f has a
    repeated root.
    """
    a = list(coeffs)
    b = [k * c for k, c in enumerate(a)][1:]
    while b:
        while len(a) >= len(b):  # a := lc(b) a - lc(a) X^shift b, until deg a < deg b
            la, lb, shift = a[-1], b[-1], len(a) - len(b)
            a = [lb * x for x in a]
            for i, y in enumerate(b):
                a[i + shift] -= la * y
            while a and not a[-1]:
                a.pop()
        g = gcd(*a)
        a, b = b, [x // g for x in a]
    return len(a) > 1


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
    The pivots come first, from the subresultant sequence of f and f'
    (``_subresultant_pivots``); when it is normal the matrix holds them and
    the coefficients, and computes its rows on first read, which ``n``,
    ``det`` and ``diagonalize`` never do.  Otherwise a polynomial with
    repeated roots (``_has_repeated_roots``) is rejected, and the rows are
    built at once and reduced by the elimination, as for any Gram matrix.
    """
    coeffs = _integer_coefficients(coeffs)
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    pivots = _subresultant_pivots(coeffs)
    if pivots is not None:
        g = object.__new__(GramMatrix)  # as _of_pivots, with ``rows`` left to its first read
        vars(g).update(_coeffs=coeffs, _scale=1, _pivots=pivots)
        return g
    if _has_repeated_roots(coeffs):
        raise ValueError("polynomial has repeated roots")
    return GramMatrix(_power_sum_rows(coeffs))


def quartic_family_form(
    a: Fraction | int, b: Fraction | int, c: Fraction | int, eps: Fraction | int
) -> DiagonalForm:
    """The diagonal trace form <1, eps, a, a> of the cyclic quartic family.

    Parameters must satisfy a^2 - b^2 eps = c^2 eps with c nonzero and eps
    not a square; the quartic field is Q(sqrt(a + b sqrt(eps))).
    """
    a, b, c, eps = (x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in (a, b, c, eps))
    if c == 0:
        raise ValueError("quartic family needs c nonzero")
    if is_square(eps):
        raise ValueError("quartic family needs a nonsquare eps")
    if a * a - b * b * eps != c * c * eps:
        raise ValueError("parameters violate a^2 - b^2 eps = c^2 eps")
    return DiagonalForm([1, eps, a, a])
