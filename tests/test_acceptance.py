"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion, including its runtime cap where one is stated.
"""

import random
import time
from fractions import Fraction

from sdnb import (
    CyclicQuadratic,
    CyclicQuartic,
    D4Quadratic,
    DiagonalForm,
    Place,
    add,
    anisotropy_certificate,
    cup,
    d_top,
    decide_global,
    det_square_class,
    diagonalize,
    elementary_criterion,
    h1_condition,
    hasse_witt,
    hilbert,
    hilbert_oracle,
    invariant_report,
    is_trivial,
    isotropic_over_Q,
    isotropy_witness_ternary,
    local_data,
    quartic_family_form,
    quartic_family_polynomial,
    restricts_trivially_to_quadratic,
    squarefree_part,
    support_places,
    trace_form,
)
from helpers import random_quadratic_spec, random_quartic_params, random_quartic_spec

F = Fraction


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name:<38} {state}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    cases = disagreements = 0
    for p in (2, 3, 5, 7, 11, 13):
        v = Place(p)
        for a in range(-20, 21):
            if a == 0:
                continue
            for b in range(-20, 21):
                if b == 0:
                    continue
                cases += 1
                if hilbert(a, b, v) != hilbert_oracle(a, b, p):
                    disagreements += 1
    elapsed = time.perf_counter() - start
    _report(
        1, "hilbert formula = brute-force oracle",
        disagreements == 0 and elapsed < 10.0,
        f"{cases} cases, {disagreements} disagreements, {elapsed:.2f}s",
    )


def test_criterion_02_product_formula():
    rng = random.Random(20240801)
    start = time.perf_counter()
    bad = 0
    for _ in range(1000):
        a = rng.randrange(1, 1 << 63) * rng.choice([1, -1])
        b = rng.randrange(1, 1 << 63) * rng.choice([1, -1])
        prod = 1
        for v in support_places([(a, b)]):
            prod *= hilbert(a, b, v)
        if prod != 1:
            bad += 1
    elapsed = time.perf_counter() - start
    _report(
        2, "product formula on 64-bit pairs",
        bad == 0 and elapsed < 5.0,
        f"1000 pairs, {bad} violations, {elapsed:.2f}s",
    )


def test_criterion_03_quartic_family_trace_form():
    rng = random.Random(6700)
    symbolic = gram_checked = 0
    ok = True
    for i in range(100):
        integral = i < 20
        a, b, c, eps = random_quartic_params(rng, integral=integral)
        form = quartic_family_form(a, b, c, eps)
        ok &= (hasse_witt(form) == cup(-1, a))
        ok &= det_square_class(form) == squarefree_part(eps)
        symbolic += 1
        if integral:
            coeffs, (sa, _, _) = quartic_family_polynomial(a, b, c, eps)
            d = diagonalize(trace_form(coeffs))
            ok &= (hasse_witt(d) == hasse_witt(quartic_family_form(sa, b, c, eps)))
            ok &= det_square_class(d) == squarefree_part(eps)
            gram_checked += 1
    _report(
        3, "quartic family w2 and det class",
        ok and symbolic == 100 and gram_checked >= 10,
        f"{symbolic} symbolic checks, {gram_checked} Gram-matrix routes",
    )


def test_criterion_04_golden_decisions():
    golden = [
        (CyclicQuadratic(3, 3), "yes"),
        (CyclicQuadratic(3, -1), "no"),
        (CyclicQuartic(3, 2, 1, 1, 2), "yes"),
        (CyclicQuartic(3, -2, 1, 1, 2), "no"),
        (D4Quadratic(3), "no"),
        (D4Quadratic(5), "yes"),
    ]
    ok = True
    details = []
    for spec, want in golden:
        verdict = decide_global(spec).verdict
        ok &= verdict == want
        ok &= elementary_criterion(spec) == want
        details.append(f"{type(spec).__name__}:{verdict}")
    _report(4, "golden decisions", ok, " ".join(details))


def test_criterion_05_route_agreement():
    rng = random.Random(65)
    start = time.perf_counter()
    disagreements = 0
    for i in range(200):
        spec = random_quadratic_spec(rng) if i % 2 == 0 else random_quartic_spec(rng)
        verdict = decide_global(spec).verdict
        elementary = elementary_criterion(spec)
        restriction = (
            "yes"
            if h1_condition(spec) and restricts_trivially_to_quadratic(d_top(spec), 2)
            else "no"
        )
        if not (verdict == elementary == restriction):
            disagreements += 1
    elapsed = time.perf_counter() - start
    _report(
        5, "three decision routes agree",
        disagreements == 0 and elapsed < 30.0,
        f"200 specs, {disagreements} disagreements, {elapsed:.2f}s",
    )


def test_criterion_06_only_top_unitary_factor():
    rng = random.Random(64)
    ok = True
    for i in range(50):
        n = rng.choice([2, 3, 4])
        spec = random_quadratic_spec(rng, n=n) if (n < 3 or i % 2) else random_quartic_spec(rng, n=n)
        report = invariant_report(spec)
        for entry in report.entries:
            if entry.invariant == "d" and entry.factor_id != f"chi{1 << n}":
                ok &= entry.status == "zero" and is_trivial(entry.value)
    _report(6, "lower unitary factors carry zero", ok, "50 random cyclic specs")


def test_criterion_07_hasse_minkowski_spot_checks():
    anis = DiagonalForm([1, 1, -3])
    cert = anisotropy_certificate(anis)
    ok = not isotropic_over_Q(anis) and cert is not None

    rng = random.Random(77)
    for _ in range(50):
        z = F(rng.randint(1, 400), rng.randint(1, 40))
        ok &= isotropic_over_Q(DiagonalForm([1, 1, 1, 1, -z]))

    witnesses = 0
    max_height = 0
    for _ in range(200):
        f = DiagonalForm([rng.randint(1, 30) * rng.choice([1, -1]) for _ in range(3)])
        if not isotropic_over_Q(f):
            ok &= anisotropy_certificate(f) is not None
            continue
        w = isotropy_witness_ternary(f)
        ok &= w is not None and max(w) <= 10**4
        if w:
            a, b, c = f.entries
            x, y, z = w
            ok &= a * x * x + b * y * y + c * z * z == 0
            max_height = max(max_height, *w)
            witnesses += 1
    _report(
        7, "local-global spot checks",
        ok and witnesses > 20,
        f"cert at {cert}, {witnesses} witnesses, max height {max_height}",
    )


def test_criterion_08_documented_discrepancy():
    # A reference example calls the class of (-1)(5) nontrivial over Q.  The
    # computed table is empty: 5 = 1^2 + 2^2 is a norm from Q(i), so every
    # local symbol is +1, and restriction to Q(sqrt 5) is trivially trivial
    # (consistent with the example's own restriction statement).  The quoted
    # nontriviality over Q is deliberately not reproduced; the library
    # reports the computed table.
    cls = cup(-1, 5)
    ok = not cls.ramified
    ok &= all(hilbert(-1, 5, v) == 1 for v in support_places([(-1, 5)]))
    ok &= restricts_trivially_to_quadratic(cls, 5)
    _report(8, "computed table of (-1)(5) is empty", ok, f"table {cls.to_json()}")


def test_criterion_09_cyclotomic_local_data():
    def brute_orders(a: int, m: int) -> tuple[int, int]:
        full = half = None
        x = 1
        for k in range(1, m + 1):
            x = x * a % m
            if half is None and (x == 1 or x == m - 1):
                half = k
            if x == 1:
                full = k
                break
        return full, half

    golden = [
        (8, 7, True, 1),
        (8, 17, True, 0),
        (8, 3, False, None),
        (16, 7, False, None),
    ]
    ok = True
    details = []
    for m, p, want_odd, want_eps in golden:
        n_odd, eps = local_data(m, True, Place(p))
        ok &= n_odd == want_odd
        if want_eps is not None:
            ok &= eps == want_eps
        full, half = brute_orders(p, m)
        ok &= (half % 2 == 1) == n_odd
        ok &= (1 if full != half else 0) == eps
        details.append(f"(m={m},p={p}):{'odd' if n_odd else 'even'},eps={eps}")
    _report(9, "cyclotomic local data", ok, " ".join(details))


def test_criterion_10_degree2_formula_discrepancy():
    z = 3
    formula = add(hasse_witt(DiagonalForm([2, 2 * z])), cup(2, z))
    direct = d_top(CyclicQuadratic(3, z))
    ok = (formula == cup(2, -1)) and is_trivial(formula)
    ok &= (direct == cup(3, -1)) and not is_trivial(direct)
    ok &= decide_global(CyclicQuadratic(3, z)).verdict == "yes"
    _report(
        10, "degree-2 layer uses the direct class", ok,
        f"formula {formula.to_json()} vs direct {direct.to_json()}, decision yes",
    )
