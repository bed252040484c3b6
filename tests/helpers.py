"""Shared generators for randomized tests (seeded, deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Sequence

from sdnb import CyclicQuadratic, CyclicQuartic, brauer, galois, is_square
from sdnb.brauer import BrauerClass, is_trivial
from sdnb.exact import _SMALL_PRIMES, BudgetExceededError, as_fraction, factor, legendre, nonzero, squarefree_part
from sdnb.factors import FactorKind, decompose, local_data
from sdnb.forms import (
    DiagonalForm, GramMatrix, det_square_class, hasse_witt, isotropic_over_Qp, signature,
)
from sdnb.symbols import Place, _support, hilbert, ramified_places


def raised(fn, *args) -> tuple[type, str]:
    """The type and message of the exception fn(*args) raises; AssertionError if it returns."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{fn.__name__}{args} raised nothing")


def random_nonsquare_rational(rng: random.Random, span: int = 80) -> Fraction:
    while True:
        num = rng.randint(1, span)
        den = rng.randint(1, span)
        z = Fraction(num, den) * rng.choice([1, -1])
        if not is_square(z):
            return z


def random_quadratic_spec(rng: random.Random, n: int = 3) -> CyclicQuadratic:
    return CyclicQuadratic(n, random_nonsquare_rational(rng))


def random_quartic_params(
    rng: random.Random, integral: bool = False
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Valid (a, b, c, eps) with a^2 - b^2 eps = c^2 eps and eps nonsquare.

    eps = a^2 / (b^2 + c^2) is forced by the relation; choosing
    a = (b^2 + c^2) * s makes everything integral, including the defining
    quartic X^4 - 2aX^2 + c^2 eps.
    """
    while True:
        b = Fraction(rng.randint(1, 6) * rng.choice([1, -1]))
        c = Fraction(rng.randint(1, 6) * rng.choice([1, -1]))
        if not integral:
            b /= rng.randint(1, 3)
            c /= rng.randint(1, 3)
        q = b * b + c * c
        if integral:
            s = rng.randint(1, 10) * rng.choice([1, -1])
            a = q * s
        else:
            a = Fraction(rng.randint(1, 20) * rng.choice([1, -1]), rng.randint(1, 4))
        eps = a * a / q
        if is_square(eps):
            continue
        return a, b, c, eps


def random_quartic_spec(rng: random.Random, n: int = 3, integral: bool = False) -> CyclicQuartic:
    a, b, c, eps = random_quartic_params(rng, integral=integral)
    return CyclicQuartic(n, a, b, c, eps)


# --- rational inputs by Fraction's own routes ------------------------------------


def reference_parse_rational(text: str) -> Fraction:
    """Every string through ``as_fraction(text.strip())``, with its zero-denominator mapping."""
    try:
        return as_fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def reference_quartic_family_form(a, b, c, eps) -> DiagonalForm:
    """<1, eps, a, a> with the relation a^2 - b^2 eps = c^2 eps tested in ``Fraction`` arithmetic."""
    a, b, c, eps = (x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in (a, b, c, eps))
    c = nonzero(c, "quartic family needs c nonzero")
    if is_square(eps):
        raise ValueError("quartic family needs a nonsquare eps")
    if a * a - b * b * eps != c * c * eps:
        raise ValueError("parameters violate a^2 - b^2 eps = c^2 eps")
    return DiagonalForm([1, eps, a, a])


def compose(f: list[int], g: list[int]) -> list[int]:
    """Coefficients of f(g(x)), both lists constant term first."""
    out = [0]
    for c in reversed(f):
        prod = [0] * (len(out) + len(g) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(g):
                prod[i + j] += x * y
        prod[0] += c
        out = prod
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def numpy_witness_ternary(f, height_cap: int = 10_000):
    """The int64 numpy scan ``isotropy_witness_ternary`` used to run.

    Kept as the reference for the pure-int scan on small entries, where int64
    cannot overflow.  Needs numpy, which the package itself does not.
    """
    import numpy as np
    from math import isqrt

    a, b, c = f.scaled_integer_entries()
    bound = 64
    while True:
        hi = min(bound, height_cap)
        ys = np.arange(0, hi + 1, dtype=np.int64)
        ys2 = ys * ys
        for x in range(0, hi + 1):
            t = -(a * x * x + b * ys2)
            q, r = np.divmod(t, c)
            mask = (r == 0) & (q >= 0)
            if mask.any():
                for y, qq in zip(ys[mask], q[mask]):
                    z = isqrt(int(qq))
                    if z * z == qq and (x or y or z):
                        return (x, int(y), z)
        if hi >= height_cap:
            return None
        bound *= 8


# --- reference copies of code the package no longer runs -----------------------
#
# The decision walk below is the certificate code as it stood when the global
# and local decisions were two separate functions, each with its own pass over
# the factor table; the decision tests require the single builder to give the
# same JSON.


def reference_c_invariants(spec, q=None):
    if not galois.h1_condition(spec):
        raise ValueError("invariants undefined: degree-one invariants do not vanish")
    group = spec.group
    out = []
    for fd in decompose(group):
        if fd.kind == FactorKind.UNITARY:
            continue
        if isinstance(spec, galois.D4Quadratic) and fd.id == "2dim":
            out.append(galois.InvariantEntry(fd.id, "c", "computed", brauer.cup(spec.z, -1)))
        elif isinstance(spec, galois.A4Quartic) and fd.id == "std3":
            cls = hasse_witt(galois.family_trace_form(spec) if q is None else q)
            out.append(
                galois.InvariantEntry(fd.id, "c", "computed", cls, note="conditional: " + fd.note)
            )
        elif isinstance(spec, galois.A4Quartic) and fd.id.startswith("chi3"):
            out.append(galois.InvariantEntry(fd.id, "c", "not-computed", None, note=galois._A4_PAIR))
        elif isinstance(spec, galois.A5Quadratic) and fd.id == "3dim":
            out.append(galois.InvariantEntry(fd.id, "c", "computed", brauer.cup(-1, spec.z)))
        else:
            out.append(
                galois.InvariantEntry(
                    fd.id, "c", "zero", brauer.TRIVIAL, note=galois._ZERO_DEGREE_ONE
                )
            )
    return tuple(out)


def reference_invariant_report(spec, q=None):
    if q is None:
        q = galois.family_trace_form(spec)
    if not galois.h1_condition(spec):
        return galois.InvariantReport(False, (), q, det_square_class(q), signature(q))
    entries = list(reference_c_invariants(spec, q))
    group = spec.group
    n = group.cyclic_two_power_exponent()
    for fd in decompose(group):
        if fd.kind != FactorKind.UNITARY:
            continue
        if n is not None and fd.conductor == 1 << n:
            entries.append(galois.InvariantEntry(fd.id, "d", "computed", galois.d_top(spec)))
        elif n is not None:
            entries.append(
                galois.InvariantEntry(
                    fd.id, "d", "zero", brauer.TRIVIAL, note=galois._ZERO_LOWER_UNITARY
                )
            )
        else:
            entries.append(
                galois.InvariantEntry(
                    fd.id, "d", "not-computed", None, note="outside the supported tables"
                )
            )
    order = {fd.id: i for i, fd in enumerate(decompose(group))}
    entries.sort(key=lambda e: order[e.factor_id])
    return galois.InvariantReport(True, tuple(entries), q, det_square_class(q), signature(q))


def reference_local_filter(fd, v):
    if fd.kind == FactorKind.DEGREE_ONE:
        return False, "degree-one factor, no local condition"
    if fd.e_kind == "Q":
        n_odd = True
        n_text = "[E:Q_v] = 1"
    elif fd.e_kind == "quadratic":
        n_odd = brauer.splits_in_quadratic(v, fd.conductor)
        n_text = f"E = Q(sqrt {fd.conductor}) {'splits' if n_odd else 'does not split'} at {v}"
    else:
        data = local_data(fd.conductor, v)
        n_odd = data.n_odd
        n_text = f"local degree of E (conductor {fd.conductor}) is {'odd' if n_odd else 'even'}"
    if fd.kind == FactorKind.ORTHOGONAL:
        return n_odd, f"{n_text}; factor split"
    if fd.e_kind == "Q":
        d_center = -1 if fd.conductor == 4 else -3
        eps = 0 if brauer.splits_in_quadratic(v, d_center) else 1
    else:
        eps = local_data(fd.conductor, v).epsilon
    binds = n_odd and eps == 1
    return binds, f"{n_text}; epsilon = {eps}"


def _reference_h1_rows(spec):
    h1 = galois.h1_condition(spec)
    return [
        galois.CertificateRow(
            "h1", None, "H1", h1,
            "degree-one invariants vanish" if h1
            else "image of the classifying map is not inside the squares subgroup",
        )
    ]


def reference_decide_global(spec):
    rows = _reference_h1_rows(spec)
    if not galois.h1_condition(spec):
        return galois.Decision(galois.VERDICT_NO, tuple(rows))
    q = galois.family_trace_form(spec)
    sig = signature(q)
    ok = sig[1] == 0
    rows.append(
        galois.CertificateRow(
            "real-split", None, "real", ok,
            f"trace form signature {sig}: "
            + ("positive definite, split at the real place" if ok else "not totally real"),
        )
    )
    report = reference_invariant_report(spec, q)
    descriptors = {fd.id: fd for fd in decompose(spec.group)}
    for entry in report.entries:
        kind = "orthogonal-local" if entry.invariant == "c" else "unitary-local"
        if entry.status == "not-computed":
            rows.append(
                galois.CertificateRow(
                    kind, entry.factor_id, None, True, entry.note or "no invariant attached"
                )
            )
            continue
        cls = entry.value
        if is_trivial(cls):
            rows.append(
                galois.CertificateRow(
                    kind, entry.factor_id, None, True,
                    "invariant class trivial; conditions hold at every place",
                )
            )
            continue
        fd = descriptors[entry.factor_id]
        for v in sorted(cls.ramified, key=Place.sort_key):
            if v.is_real:
                continue
            binds, detail = reference_local_filter(fd, v)
            passed = not binds
            rows.append(
                galois.CertificateRow(
                    kind, entry.factor_id, v.to_json(), passed,
                    detail + "; local invariant is -1 here"
                    + ("" if passed else ", so the condition fails"),
                )
            )
            ok = ok and passed
    if isinstance(spec, galois.A4Quartic):
        return galois.Decision(galois.VERDICT_UNKNOWN, tuple(rows))
    return galois.Decision(galois.VERDICT_YES if ok else galois.VERDICT_NO, tuple(rows))


def reference_decide_local(spec, v):
    if v.is_real:
        raise ValueError("the real place is decided by positive definiteness of the trace form")
    rows = _reference_h1_rows(spec)
    if not galois.h1_condition(spec):
        return galois.Decision(galois.VERDICT_NO, tuple(rows))
    ok = True
    report = reference_invariant_report(spec)
    descriptors = {fd.id: fd for fd in decompose(spec.group)}
    for entry in report.entries:
        kind = "orthogonal-local" if entry.invariant == "c" else "unitary-local"
        if entry.status == "not-computed":
            rows.append(galois.CertificateRow(kind, entry.factor_id, v.to_json(), True, entry.note))
            continue
        cls = entry.value
        binds, detail = reference_local_filter(descriptors[entry.factor_id], v)
        ramified_here = v in cls.ramified
        passed = not (binds and ramified_here)
        rows.append(
            galois.CertificateRow(
                kind, entry.factor_id, v.to_json(), passed,
                detail + f"; local invariant {'-1' if ramified_here else '+1'}",
            )
        )
        ok = ok and passed
    if isinstance(spec, galois.A4Quartic):
        return galois.Decision(galois.VERDICT_UNKNOWN, tuple(rows))
    return galois.Decision(galois.VERDICT_YES if ok else galois.VERDICT_NO, tuple(rows))


# --- reference copies of the local facts ----------------------------------------


def reference_is_square_in_completion(q, v):
    """Squares in Q_v as ``forms`` tested them, through the checked Legendre symbol."""
    s = squarefree_part(q)
    if v.is_real:
        return s > 0
    p = v.prime
    if p == 2:
        return s % 2 != 0 and s % 8 == 1
    return s % p != 0 and legendre(s, p) == 1


def reference_hilbert(a, b, v):
    """(a,b)_v as ``symbols.hilbert`` computed it from squarefree representatives."""
    a0 = squarefree_part(a)
    b0 = squarefree_part(b)
    if v.is_real:
        return -1 if (a0 < 0 and b0 < 0) else 1
    p = v.prime

    def unit_and_valuation(s):
        k = 0
        while s % p == 0:
            s //= p
            k += 1
        return s, k

    u, alpha = unit_and_valuation(abs(a0))
    w, beta = unit_and_valuation(abs(b0))
    u = u if a0 > 0 else -u
    w = w if b0 > 0 else -w
    if p == 2:
        def eps(x):
            return ((x - 1) // 2) & 1

        def omega(x):
            return ((x * x - 1) // 8) & 1

        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e & 1 else 1
    s = 1
    if beta:
        s *= legendre(u, p)
    if alpha:
        s *= legendre(w, p)
    if alpha and beta and (p - 1) // 2 % 2 == 1:
        s = -s
    return s


def reference_hasse_invariant_at(f, v):
    """The Hasse invariant at v as the product of (a_i, a_j)_v over i < j."""
    s = 1
    for i in range(f.rank):
        for j in range(i + 1, f.rank):
            s *= hilbert(f.entries[i], f.entries[j], v)
    return s


# --- reference copy of the support walk ----------------------------------------
#
# ``forms.anisotropy_certificate`` as it stood when it asked every place of the
# sorted support, the real place among them, in turn.


def reference_anisotropy_certificate(f):
    for v in _support(f.entries):
        if not isotropic_over_Qp(f, v):
            return v
    return None


# --- reference copy of the pair walk -------------------------------------------
#
# ``forms.hasse_witt`` as it stood when it summed over pairs of square classes
# with their multiplicities m: (a, a) = (a, -1) counted C(m, 2) times within a
# class and (a, b) counted m_a * m_b times across two, and the ramified sets of
# the symbols with an odd count were added into one class.


def reference_hasse_witt(f):
    classes = {}  # square class -> [first entry, multiplicity]
    for a in f.entries:
        c = squarefree_part(a)
        if c != 1:
            classes.setdefault(c, [a, 0])[1] += 1
    reps = list(classes.values())
    ramified = set()
    for i, (a, m) in enumerate(reps):
        if m * (m - 1) // 2 % 2:
            ramified ^= ramified_places(a, -1)
        for b, k in reps[i + 1:]:
            if m * k % 2:
                ramified ^= ramified_places(a, b)
    return BrauerClass(frozenset(ramified))


# ``forms.det_square_class`` as it stood before it read the square-class table
# that ``hasse_witt`` walks: the sign and the primes of odd exponent in the
# product of the entries, a prime's parity summed as a set XOR over entries.


def reference_det_square_class(f):
    sign, odd = 1, set()
    for a in f.entries:
        fa = factor(a)
        sign *= fa.sign
        odd ^= {p for p, e in fa.factors if e % 2}
    return sign * prod(odd)


# --- reference copy of the two-orbit Rabin test ---------------------------------
#
# ``galois._irreducible_mod_p`` as it stood when it computed X^(p^m) and then
# X^(p^(m/2)) again from X, with its own padded product and gcd.


def _reference_polymulmod(u, v, f, p):
    m = len(f) - 1
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    for k in range(len(out) - 1, m - 1, -1):
        c = out[k]
        if c:
            for j in range(m + 1):
                out[k - m + j] = (out[k - m + j] - c * f[j]) % p
    del out[m:]
    return out + [0] * (m - len(out))


def _reference_frobenius_power(f, p, k):
    m = len(f) - 1
    t = [0, 1] + [0] * (m - 2)
    for _ in range(k):
        acc = [1] + [0] * (m - 1)
        base = list(t)
        e = p
        while e:
            if e & 1:
                acc = _reference_polymulmod(acc, base, f, p)
            base = _reference_polymulmod(base, base, f, p)
            e >>= 1
        t = acc
    return t


def reference_frobenius_of(t, f, p, k):
    """t^(p^k) mod (f, p), padded to deg f coefficients, by square-and-multiply."""
    m = len(f) - 1
    t = [c % p for c in t] + [0] * (m - len(t))
    for _ in range(k):
        acc, base, e = [1] + [0] * (m - 1), t, p
        while e:
            if e & 1:
                acc = _reference_polymulmod(acc, base, f, p)
            base = _reference_polymulmod(base, base, f, p)
            e >>= 1
        t = acc
    return t


def _reference_gcd_degree(u, v, p):
    def norm(x):
        x = [c % p for c in x]
        while x and x[-1] == 0:
            x.pop()
        return x

    a, b = norm(u), norm(v)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            lead = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - lead * c) % p
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        a, b = b, a
    return len(a) - 1


def reference_irreducible_mod_p(coeffs, p):
    """Rabin's criterion along two orbits: X^(p^m), then X^(p^(m/2)) from scratch."""
    m = len(coeffs) - 1
    f = [c % p for c in coeffs]
    x = [0, 1] + [0] * (m - 2)
    if _reference_frobenius_power(f, p, m) != x:
        return False
    half = _reference_frobenius_power(f, p, m // 2)
    diff = [(a - b) % p for a, b in zip(half, x)]
    if not any(diff):
        return False
    return _reference_gcd_degree(diff, list(f), p) == 0


# --- reference copy of the capped irreducibility screen ---------------------------
#
# ``galois._irreducible_over_Q`` as it stood when only its modular tests drew on
# a work budget: the integer-root test ran over every divisor of f(0), and the
# quadratic-factor search stopped after 2^18 candidates.  The modular tests
# run unbudgeted here: at most 16 primes x m steps x m^2 units, they could not
# exhaust the default budget below degree 64.


def reference_irreducible_over_Q(coeffs):
    m = len(coeffs) - 1
    if m == 1:
        return True
    if m == 2:
        return not is_square(coeffs[1] ** 2 - 4 * coeffs[0])
    if coeffs[0] == 0:
        return False
    n = abs(coeffs[0])
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors = sorted(set(low + [n // d for d in low]))
    if any(sum(c * x**i for i, c in enumerate(coeffs)) == 0 for d in divisors for x in (d, -d)):
        return False
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
    if any(reference_irreducible_mod_p(coeffs, p) for p in primes if coeffs[0] % p):
        return True
    height = 4 * max(abs(c) for c in coeffs)
    tried = 0
    for v in divisors:
        for sv in (v, -v):
            for u in range(-height, height + 1):
                if tried == 1 << 18:
                    raise BudgetExceededError("2^18 candidate quadratic factors tried")
                tried += 1
                rem = list(coeffs)
                for k in range(m, 1, -1):
                    c = rem[k]
                    rem[k - 2] -= c * sv
                    rem[k - 1] -= c * u
                if rem[0] == rem[1] == 0:
                    return False
    raise BudgetExceededError("irreducibility undetermined within the screening budget")


# --- reference copies of the determinant route to the top invariant ---------------
#
# ``galois.d_top`` as it stood when it reduced the trace form to the squarefree
# integer of its determinant and cupped that integer, and the restriction loop
# ``trace_forms_isomorphic`` ran on the sum of two top invariants.


def reference_d_top(spec, q=None):
    if spec.degree == 1:
        return brauer.TRIVIAL
    if q is None:
        q = galois.family_trace_form(spec)
    if spec.degree == 2:
        return brauer.cup(det_square_class(q), -1)
    return brauer.add(hasse_witt(q), brauer.cup(2, det_square_class(q)))


def reference_res_trivial_real_cyclotomic(cls, conductor):
    for v in sorted(cls.ramified, key=Place.sort_key):
        if v.is_real:
            return False
        if local_data(conductor, v).n_odd:
            return False
    return True


# --- reference copy of the elimination-only trace form ----------------------------
#
# ``forms.trace_form`` as it stood when every trace form was reduced by the
# symmetric elimination that ``GramMatrix`` runs, before its pivots were read
# off the subresultant sequence of f and f'.


def reference_trace_form(coeffs):
    coeffs = list(coeffs)
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    if any(int(c) != c for c in coeffs):
        raise ValueError("polynomial must have integer coefficients")
    coeffs = [int(c) for c in coeffs]
    n = len(coeffs) - 1
    s = [0] * (2 * n - 1)
    s[0] = n
    for k in range(1, 2 * n - 1):
        acc = sum(coeffs[n - j] * s[k - j] for j in range(1, min(k - 1, n) + 1))
        if k <= n:
            acc += k * coeffs[n - k]
        s[k] = -acc
    rows = [s[i:i + n] for i in range(n)]
    try:
        return GramMatrix(rows)
    except ValueError as exc:
        raise ValueError("polynomial has repeated roots") from exc


# --- reference copies of the two Euclidean sequences of f and f' --------------
#
# ``forms._subresultant_pivots`` and ``forms._has_repeated_roots`` as they stood
# before one subresultant sequence answered both: a subresultant loop that
# stops at the first degree gap, and Euclid on primitive integer remainders.


def reference_subresultant_pivots(coeffs: Sequence[int]) -> tuple[int, ...] | None:
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


def reference_has_repeated_roots(coeffs: Sequence[int]) -> bool:
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


# --- reference copy of the factoring kernel -----------------------------------
#
# ``exact.is_prime``, ``exact._brent_split`` and ``exact._factor_int`` as they
# stood before trial division ran in blocks, the strong-pseudoprime test took
# as many bases as the size of n needs, and Brent's products were paired: every
# table prime tried in turn, 12 bases below 2**64 (25 above), one reduction
# per cycle step.

_REFERENCE_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_REFERENCE_MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def reference_is_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    bases = _REFERENCE_MR_BASES
    if n >= 1 << 64:
        bases += _REFERENCE_MR_EXTRA_BASES
    for a in bases:
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


def reference_brent_split(n, budget):
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
                steps = min(batch, r - k)
                budget.spend(steps)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise BudgetExceededError(
        f"{budget.task}: cycle search failed to split {n} after {budget.spent} units"
    )


def reference_factor_int(n, budget):
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if reference_is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = reference_brent_split(m, budget)
        stack.append(d)
        stack.append(m // d)
    return out


# --- Gaussian periods: cyclic fields with closed-form invariants --------------------
#
# Plain-int code that uses nothing from sdnb, so that it can serve as an oracle.


def gaussian_period_primes(m, count):
    """The first ``count`` primes p = 1 mod m, by trial division."""
    out, p = [], 1
    while len(out) < count:
        p += m
        if all(p % d for d in range(2, isqrt(p) + 1)):
            out.append(p)
    return out


def gaussian_period_polynomial(p, m):
    """Minimal polynomial, constant term first, of a Gaussian period of the prime p.

    The period eta = sum of zeta_p^h over the m-th powers h, the subgroup of
    index m in (Z/p)^x, generates the degree-m subfield K of Q(zeta_p).  The
    power sums are s_k = Tr_K(eta^k) = (m / (p - 1)) Tr(eta^k), with eta^k
    computed in the group ring Z[Z/p] and Tr(zeta^a) = p - 1 for a = 0, -1
    otherwise; Newton's identities k e_k = sum (-1)^(i-1) e_(k-i) s_i give
    the elementary symmetric functions e_k of the conjugates.
    """
    if (p - 1) % m:
        raise ValueError(f"{m} does not divide {p} - 1")
    powers = sorted({pow(x, m, p) for x in range(1, p)})
    eta_k, sums = [1] + [0] * (p - 1), []
    for _ in range(m):
        nxt = [0] * p
        for a, c in enumerate(eta_k):
            if c:
                for h in powers:
                    nxt[(a + h) % p] += c
        eta_k = nxt
        trace, rest = divmod(m * (p * eta_k[0] - sum(eta_k)), p - 1)
        assert rest == 0
        sums.append(trace)
    e = [1]
    for k in range(1, m + 1):
        total, rest = divmod(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1)), k)
        assert rest == 0
        e.append(total)
    return [(-1) ** (m - j) * e[m - j] for j in range(m + 1)]


# --- the elementary criterion at every cyclic 2-power order -------------------------
#
# Plain-int code that uses nothing from sdnb, so that it can serve as an oracle.


def reference_two_power_criterion(n, z):
    """Does ``CyclicQuadratic(n, z)`` have a self-dual normal basis?

    Iff z > 0 and z has even exponent at every prime p = -1 mod 2^n: the one
    nonzero class (z)(-1) sits on the factor of conductor 2^n, where the filter
    binds only at the odd p of odd local degree in Q(zeta_(2^n))^+ (p = +-1 mod
    2^n) whose center stays a field (p = -1 mod 2^n).  Factors the numerator
    and the denominator by trial division.
    """
    z = Fraction(z)
    if z <= 0:
        return False
    exponents = {}
    for m, sign in ((z.numerator, 1), (z.denominator, -1)):
        d = 2
        while d * d <= m:
            while m % d == 0:
                exponents[d] = exponents.get(d, 0) + sign
                m //= d
            d += 1
        if m > 1:
            exponents[m] = exponents.get(m, 0) + sign
    return all(e % 2 == 0 for p, e in exponents.items() if (p + 1) % (1 << n) == 0)
