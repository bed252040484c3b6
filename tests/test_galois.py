import inspect
import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import get_args

import pytest

from sdnb import cli, exact, factors, forms, galois
from sdnb import (
    A4Quartic,
    A5Quadratic,
    BudgetExceededError,
    CyclicPoly,
    CyclicQuadratic,
    CyclicQuartic,
    D4Quadratic,
    DiagonalForm,
    GroupDescriptor,
    Place,
    REAL,
    SplitAlgebra,
    VERDICT_NO,
    VERDICT_UNKNOWN,
    VERDICT_YES,
    add,
    c_invariants,
    cup,
    d_top,
    decide_global,
    decide_local,
    decompose,
    diagonalize,
    elementary_criterion,
    embedding_obstruction,
    equal,
    h1_condition,
    hasse_witt,
    invariant_report,
    is_trivial,
    quartic_family_polynomial,
    restricts_trivially_to_quadratic,
    signature,
    spec_from_json,
    spec_to_json,
    sum_of_four_squares,
    trace_form,
    trace_forms_isomorphic,
)
from helpers import (
    compose,
    gaussian_period_polynomial,
    gaussian_period_primes,
    random_quadratic_spec,
    random_quartic_spec,
    reference_d_top,
    reference_decide_global,
    reference_decide_local,
    reference_frobenius_of,
    reference_invariant_report,
    reference_irreducible_mod_p,
    reference_irreducible_over_Q,
    reference_res_trivial_real_cyclotomic,
)

F = Fraction


# --- families and validation ------------------------------------------------


def test_family_validation():
    with pytest.raises(ValueError):
        CyclicQuadratic(1, 3)
    with pytest.raises(ValueError):
        CyclicQuadratic(3, 4)  # square z
    with pytest.raises(ValueError):
        CyclicQuartic(2, 2, 1, 1, 2)  # n too small
    with pytest.raises(ValueError):
        CyclicQuartic(3, 3, 1, 1, 2)  # relation violated
    with pytest.raises(ValueError):
        CyclicPoly(3, (2, 1, 1), 4)  # declared degree mismatch
    with pytest.raises(ValueError):
        CyclicPoly(3, (1, 2, 1), 2)  # (X+1)^2 is reducible
    with pytest.raises(ValueError):
        A4Quartic((1, 2, 1))  # not a quartic
    with pytest.raises(ValueError):
        D4Quadratic(0)


def test_h1_condition():
    assert h1_condition(CyclicQuadratic(3, 3))  # quadratic field inside C8
    assert not h1_condition(CyclicPoly(2, (2, 0, -4, 0, 1), 4))  # quartic inside C4
    assert h1_condition(CyclicPoly(3, (2, 0, -4, 0, 1), 4))
    assert h1_condition(SplitAlgebra(GroupDescriptor.cyclic(8)))
    assert h1_condition(D4Quadratic(3))
    assert h1_condition(A4Quartic((12, 8, 0, 0, 1)))
    assert h1_condition(A5Quadratic(3))


# --- the top unitary invariant ------------------------------------------------


def test_d_top_golden():
    assert equal(d_top(CyclicQuadratic(3, 3)), cup(3, -1))
    assert cup(3, -1).to_json() == [2, 3]
    d = d_top(CyclicQuartic(3, 3, F(3, 2), F(3, 2), 2))
    assert equal(d, add(cup(-1, 3), cup(2, 2)))
    assert equal(d, cup(-1, 6))
    assert is_trivial(d_top(SplitAlgebra(GroupDescriptor.cyclic(8))))


def test_d_top_requires_h1_and_cyclic():
    with pytest.raises(ValueError):
        d_top(CyclicPoly(2, (2, 0, -4, 0, 1), 4))
    with pytest.raises(ValueError):
        d_top(D4Quadratic(3))


def test_degree2_formula_discrepancy():
    # For a quadratic layer the trace-form expression w2(<2,2z>) + (2)(z)
    # always collapses to the class of (2,-1), which is trivial over Q,
    # while the genuine invariant is (z,-1); the two disagree for z = 3 and
    # the decision still comes out yes through the place filters.
    z = 3
    formula = add(hasse_witt(DiagonalForm([2, 2 * z])), cup(2, z))
    assert equal(formula, cup(2, -1))
    assert is_trivial(formula)
    direct = d_top(CyclicQuadratic(3, z))
    assert equal(direct, cup(z, -1))
    assert not is_trivial(direct)
    assert decide_global(CyclicQuadratic(3, z)).verdict == VERDICT_YES


# --- orthogonal invariants ----------------------------------------------------


def test_c_invariants_d4():
    entries = {e.factor_id: e for e in c_invariants(D4Quadratic(5))}
    assert is_trivial(entries["2dim"].value)  # (5,-1) trivial: 5 = 1 + 4
    entries = {e.factor_id: e for e in c_invariants(D4Quadratic(3))}
    assert equal(entries["2dim"].value, cup(3, -1))
    assert all(is_trivial(e.value) for fid, e in entries.items() if fid != "2dim")


def test_c_invariants_a5():
    # the computed table of (-1)(5) is empty at every place (5 = 1^2 + 2^2)
    entries = {e.factor_id: e for e in c_invariants(A5Quadratic(5))}
    assert is_trivial(entries["3dim"].value)
    entries = {e.factor_id: e for e in c_invariants(A5Quadratic(3))}
    assert equal(entries["3dim"].value, cup(-1, 3))


def test_c_invariants_a4_conditional():
    f = (12, 8, 0, 0, 1)
    entries = {e.factor_id: e for e in c_invariants(A4Quartic(f))}
    expected = hasse_witt(diagonalize(trace_form(f)))
    assert equal(entries["std3"].value, expected)
    assert "conditional" in entries["std3"].note
    assert entries["chi3-a"].status == "not-computed"


def test_invariant_report_zero_at_lower_unitary_factors():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        spec = random_quadratic_spec(rng, n=n)
        report = invariant_report(spec)
        top = 1 << n
        for entry in report.entries:
            if entry.invariant == "d" and entry.factor_id != f"chi{top}":
                assert entry.status == "zero" and is_trivial(entry.value)
    report = invariant_report(CyclicQuartic(4, 2, 1, 1, 2))
    d_entries = [e for e in report.entries if e.invariant == "d"]
    assert [e.status for e in d_entries] == ["zero", "zero", "computed"]


# --- global decisions -----------------------------------------------------------


GOLDEN = [
    (CyclicQuadratic(3, 3), VERDICT_YES),
    (CyclicQuadratic(3, -1), VERDICT_NO),
    (CyclicQuartic(3, 2, 1, 1, 2), VERDICT_YES),
    (CyclicQuartic(3, -2, 1, 1, 2), VERDICT_NO),
    (D4Quadratic(3), VERDICT_NO),
    (D4Quadratic(5), VERDICT_YES),
]


@pytest.mark.parametrize("spec,verdict", GOLDEN)
def test_decide_global_golden(spec, verdict):
    decision = decide_global(spec)
    assert decision.verdict == verdict
    assert decision.certificate
    if verdict == VERDICT_NO:
        assert any(not row.passed for row in decision.certificate)
    else:
        assert all(row.passed for row in decision.certificate)


def test_decide_global_z3_filter_table():
    decision = decide_global(CyclicQuadratic(3, 3))
    rows = {(r.factor, r.place): r for r in decision.certificate}
    assert rows[(None, "H1")].passed
    assert rows[(None, "real")].passed
    # support {2, 3}: both filtered by even local degree of Q(sqrt 2)
    assert rows[("chi8", 2)].passed and rows[("chi8", 3)].passed


def test_decide_global_split_always_yes():
    for g in ("C4", "C8", "C16", "D4", "A4", "A5"):
        spec = spec_from_json({"group": g, "family": "split"})
        assert decide_global(spec).verdict == VERDICT_YES


def test_decide_global_h1_failure():
    spec = CyclicPoly(2, (2, 0, -4, 0, 1), 4)
    decision = decide_global(spec)
    assert decision.verdict == VERDICT_NO
    assert not decision.certificate[0].passed


def test_decide_global_a4_unknown():
    decision = decide_global(A4Quartic((12, 8, 0, 0, 1)))
    assert decision.verdict == VERDICT_UNKNOWN
    assert decision.certificate


def test_decide_global_a5():
    assert decide_global(A5Quadratic(5)).verdict == VERDICT_YES
    assert decide_global(A5Quadratic(-1)).verdict == VERDICT_NO  # not totally real
    # class (-1, 11): ramified at {2, 11}; 11 = +-1 mod 5 splits in Q(sqrt 5)
    assert decide_global(A5Quadratic(11)).verdict == VERDICT_NO
    # class (-1, 3): ramified at {2, 3}; neither 2 nor 3 splits in Q(sqrt 5)
    assert decide_global(A5Quadratic(3)).verdict == VERDICT_YES


def test_seven_is_four_squares_but_decision_is_no():
    # z = 7 is a sum of four rational squares, yet the completion at 7
    # obstructs: 7 splits in Q(sqrt 2), the center Q(zeta_8) stays a field
    # there, and (7,-1) has local invariant -1 at 7.  This is why the
    # elementary route uses the two-squares-in-Q(sqrt 2) criterion rather
    # than the four-squares phrasing.
    spec = CyclicQuadratic(3, 7)
    assert sum_of_four_squares(7)
    assert decide_global(spec).verdict == VERDICT_NO
    assert decide_local(spec, Place(7)).verdict == VERDICT_NO
    assert elementary_criterion(spec) == "no"
    assert not restricts_trivially_to_quadratic(d_top(spec), 2)


# --- local decisions ---------------------------------------------------------


def test_decide_local_golden():
    assert decide_local(CyclicQuadratic(3, 3), Place(3)).verdict == VERDICT_YES
    assert decide_local(CyclicQuadratic(2, 3), Place(3)).verdict == VERDICT_NO
    assert decide_local(SplitAlgebra(GroupDescriptor("D4")), Place(2)).verdict == VERDICT_YES
    with pytest.raises(ValueError):
        decide_local(CyclicQuadratic(3, 3), REAL)


def test_global_yes_implies_local_yes():
    rng = random.Random(43)
    specs = [random_quadratic_spec(rng) for _ in range(25)]
    specs += [random_quartic_spec(rng) for _ in range(25)]
    for spec in specs:
        if decide_global(spec).verdict != VERDICT_YES:
            continue
        for v in sorted(d_top(spec).ramified, key=Place.sort_key):
            if not v.is_real:
                assert decide_local(spec, v).verdict == VERDICT_YES


# --- elementary criterion and route agreement ---------------------------------


def test_elementary_criterion_golden():
    assert elementary_criterion(CyclicQuadratic(3, 3)) == "yes"
    assert elementary_criterion(CyclicQuartic(3, -2, 1, 1, 2)) == "no"
    assert elementary_criterion(A4Quartic((12, 8, 0, 0, 1))) == "not-applicable"
    assert elementary_criterion(CyclicQuadratic(2, 3)) == "not-applicable"
    assert elementary_criterion(D4Quadratic(5)) == "yes"
    assert elementary_criterion(D4Quadratic(3)) == "no"


def test_route_agreement_smoke():
    rng = random.Random(47)
    for _ in range(30):
        spec = random_quadratic_spec(rng) if rng.random() < 0.5 else random_quartic_spec(rng)
        verdict = decide_global(spec).verdict
        assert verdict == elementary_criterion(spec)
        cor_route = h1_condition(spec) and restricts_trivially_to_quadratic(d_top(spec), 2)
        assert verdict == ("yes" if cor_route else "no")


def _cross_family_pairs(rng):
    """A family spec and the cyclic-poly spec of its field, seeded, n = 2..5.

    Quartic (a, b, c, eps) against x^4 - 2a x^2 + c^2 eps after rescaling;
    quadratic z = u/d against x^2 - u d, which defines Q(sqrt z).
    """
    for n in range(2, 6):
        for _ in range(30):
            spec = random_quadratic_spec(rng, n)
            d = spec.z.denominator
            yield spec, CyclicPoly(n, (int(-spec.z * d * d), 0, 1), 2)
            if n >= 3:
                spec = random_quartic_spec(rng, n, integral=rng.random() < 0.5)
                poly, _ = quartic_family_polynomial(spec.a, spec.b, spec.c, spec.eps)
                yield spec, CyclicPoly(n, poly, 4)


def test_a_family_and_the_polynomial_of_its_field_get_the_same_verdicts():
    pairs = list(_cross_family_pairs(random.Random(2016)))
    assert len(pairs) == 210
    verdicts = set()
    for spec, poly in pairs:
        got = decide_global(spec).verdict
        assert decide_global(poly).verdict == got, (spec, poly)
        verdicts.add(got)
        for p in (2, 3, 7):
            got = decide_local(spec, Place(p)).verdict
            assert decide_local(poly, Place(p)).verdict == got, (spec, poly, p)
            verdicts.add(got)
    assert verdicts == {VERDICT_YES, VERDICT_NO}


def _shift_answers(coeffs, n):
    """Everything a cyclic-poly spec answers that depends only on its field."""
    spec = CyclicPoly(n, coeffs, len(coeffs) - 1)
    try:
        top = d_top(spec)
    except ValueError as exc:
        top = str(exc)
    return (
        decide_global(spec).verdict,
        tuple(decide_local(spec, Place(p)).verdict for p in (2, 3, 7)),
        top,
        signature(galois.family_trace_form(spec)),
    )


def test_shifted_polynomials_get_the_same_answers():
    # f(x) and f(x + k) define the same field; the tower at degrees 4, 8, 16
    # is decided over C(2 deg) and C(deg), x^2 - z over C4 and C8 (C2 is
    # outside the cyclic-poly family, which needs n >= 2)
    cases = []
    f = [2, 0, -4, 0, 1]
    for e in (2, 3, 4):
        cases += [(f, e + 1), (f, e)]
        f = compose(f, [-2, 0, 1])
    for z in range(-30, 31):
        if z and not (z > 0 and math.isqrt(z) ** 2 == z):
            cases += [([-z, 0, 1], 2), ([-z, 0, 1], 3)]
    verdicts = set()
    for f, n in cases:
        want = _shift_answers(f, n)
        verdicts.add(want[0])
        for k in range(-3, 4):
            assert _shift_answers(compose(f, [k, 1]), n) == want, (f, n, k)
    assert verdicts == {VERDICT_YES, VERDICT_NO}


def test_non_integral_coefficients_are_refused_not_truncated():
    message = "polynomial must have integer coefficients"
    refused = [
        lambda: CyclicPoly(3, [2, 0, -4.5, 0, 1], 4),
        lambda: CyclicPoly(3, [F(5, 2), 0, -4, 0, 1], 4),
        lambda: A4Quartic([F(-3, 2), 0, 0, -1.9, 1]),
        lambda: A4Quartic([-1, 0, 0, -1, F(3, 2)]),
        lambda: embedding_obstruction([2, 0, -4.5, 0, 1]),
        lambda: embedding_obstruction([F(5, 2), 0, -4, 0, 1]),
        lambda: embedding_obstruction([2, 0, float("-inf"), 0, 1]),
    ]
    for build in refused:
        with pytest.raises(ValueError, match=message):
            build()
    # ints, integer strings and integral values keep their meaning
    tower4 = (2, 0, -4, 0, 1)
    assert CyclicPoly(3, ["2", 0, -4.0, 0, F(1)], 4) == CyclicPoly(3, tower4, 4)
    assert A4Quartic(["-1", 0, 0.0, F(-1), 1]).coeffs == (-1, 0, 0, -1, 1)
    assert embedding_obstruction(["2", 0, F(-4), 0, 1.0]) == embedding_obstruction(tower4)


def test_d4_route_agreement():
    rng = random.Random(53)
    for _ in range(40):
        z = F(rng.randint(1, 60), rng.randint(1, 12)) * rng.choice([1, -1])
        spec = D4Quadratic(z)
        assert decide_global(spec).verdict == elementary_criterion(spec)


# --- embedding obstruction -----------------------------------------------------


def test_embedding_obstruction_golden():
    # the field of X^4 - 4X^2 + 2 embeds in the degree-8 layer of the
    # 32nd cyclotomic tower, so the obstruction vanishes
    assert is_trivial(embedding_obstruction([2, 0, -4, 0, 1]))
    coeffs, (a, b, c) = quartic_family_polynomial(3, F(3, 2), F(3, 2), 2)
    cls = embedding_obstruction(coeffs)
    assert equal(cls, cup(-1, 6))
    with pytest.raises(ValueError):
        embedding_obstruction([1, 0, 1])  # degree 2


def test_degree8_cyclotomic_layer():
    # minimal polynomial of zeta_32 + 1/zeta_32: totally real, cyclic of
    # degree 8, embeds one level up the real cyclotomic tower
    coeffs = (2, 0, -16, 0, 20, 0, -8, 0, 1)
    spec = CyclicPoly(4, coeffs, 8)
    assert h1_condition(spec)
    assert is_trivial(embedding_obstruction(coeffs))
    assert decide_global(spec).verdict == VERDICT_YES
    report = invariant_report(spec)
    assert [e.status for e in report.entries if e.invariant == "d"] == [
        "zero", "zero", "computed",
    ]


def test_c16_obstruction_vanishes_for_7():
    # at conductor 16 the fixed field has degree 4 and the place 7 has even
    # local degree, so the z = 7 obstruction seen at conductor 8 disappears
    assert decide_global(CyclicQuadratic(4, 7)).verdict == VERDICT_YES
    assert decide_global(CyclicQuadratic(3, 7)).verdict == VERDICT_NO


def test_embedding_obstruction_monotone():
    assert decide_global(CyclicPoly(3, (2, 0, -4, 0, 1), 4)).verdict == VERDICT_YES
    rng = random.Random(59)
    checked = 0
    while checked < 20:
        spec = random_quartic_spec(rng, integral=True)
        if spec.a <= 0:
            continue
        coeffs, _ = quartic_family_polynomial(spec.a, spec.b, spec.c, spec.eps)
        if not is_trivial(embedding_obstruction(coeffs)):
            continue
        assert decide_global(spec).verdict == VERDICT_YES
        checked += 1


def _tower_shifts():
    """The 2cos(2pi/2^k) tower at degrees 4, 8, 16, each shifted by -3..3."""
    f4 = [2, 0, -4, 0, 1]
    f8 = compose(f4, [-2, 0, 1])
    return [compose(f, [t, 1]) for f in (f4, f8, compose(f8, [-2, 0, 1])) for t in range(-3, 4)]


def test_embedding_obstruction_is_d_top_of_the_doubled_cyclic_poly():
    shifts = _tower_shifts()
    assert len(shifts) == 21
    for f in shifts:
        m = len(f) - 1
        assert embedding_obstruction(f) == d_top(CyclicPoly(m.bit_length(), f, m))


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([1, 0, 1], "embedding obstruction needs a 2-power degree >= 4"),
        ([1, 0, 0, 1], "embedding obstruction needs a 2-power degree >= 4"),
        ([2, 0, -4, 0, 3], "polynomial must be monic"),
        ([1, 0, 2, 0, 1], "polynomial is reducible"),  # (x^2 + 1)^2
        ([6, 0, -5, 0, 1], "polynomial is reducible"),  # (x^2 - 2)(x^2 - 3)
    ],
)
def test_embedding_obstruction_errors(coeffs, message):
    with pytest.raises(ValueError) as info:
        embedding_obstruction(coeffs)
    assert str(info.value) == message


def test_d_top_degree2_poly_matches_quadratic_family():
    # the generic degree-2 branch reads z off the determinant of <2, 2z>
    checked = 0
    for z in range(-30, 31):
        if z == 0 or exact.is_square(z):
            continue
        for n in range(2, 5):
            assert d_top(CyclicPoly(n, (-z, 0, 1), 2)) == d_top(CyclicQuadratic(n, z))
            checked += 1
    assert checked > 150


def test_quadratic_irreducibility_is_read_off_the_discriminant():
    # the irreducible ones are reducible modulo every screening prime and have
    # no monic quadratic factor for the search to find: only the discriminant
    # (u^2 - 4v, not a square) answers
    for coeffs in ((36765, 1, 1), (36767, 3, 1), (67180, 1, 1), (-2926704, 0, 1)):
        assert galois._irreducible_over_Q(coeffs), coeffs
    for coeffs in ((1, 2, 1), (-4, 0, 1), (6, 5, 1)):
        assert not galois._irreducible_over_Q(coeffs), coeffs
    assert d_top(CyclicPoly(2, (36765, 1, 1), 2)) == d_top(CyclicQuadratic(2, -147059))


# --- the top invariant from the entries of the trace form -----------------------


def _top_invariant_specs():
    """Seeded quadratic and quartic specs at n = 2..5, and the 21 tower shifts."""
    rng = random.Random(2016)
    specs = [random_quadratic_spec(rng, n) for n in range(2, 6) for _ in range(40)]
    specs += [
        random_quartic_spec(rng, n, integral=i % 2 == 0) for n in range(3, 6) for i in range(40)
    ]
    f = [2, 0, -4, 0, 1]
    for deg in (4, 8, 16):
        specs += [CyclicPoly(deg.bit_length(), compose(f, [t, 1]), deg) for t in range(-3, 4)]
        f = compose(f, [-2, 0, 1])
    return specs


def test_d_top_matches_the_determinant_route():
    specs = _top_invariant_specs()
    classes = [d_top(spec) for spec in specs]
    assert classes == [reference_d_top(spec) for spec in specs]
    assert 40 < sum(map(is_trivial, classes)) < len(specs) - 40


def test_d_top_factors_only_the_entries_two_and_minus_one(monkeypatch):
    # w2(q + <2>) needs the square classes of the entries and of 2, and cups
    # among them and with -1; the determinant is never formed
    cases = [
        (spec, galois.family_trace_form(spec))
        for spec in _top_invariant_specs()
        if spec.degree >= 4
    ]
    factor_fraction = exact._factor_fraction
    seen = []

    def recorded(num, den):
        seen.append(Fraction(num, den))
        return factor_fraction(num, den)

    monkeypatch.setattr(exact, "_factor_fraction", recorded)
    for spec, q in cases:
        forms.hasse_witt.cache_clear()
        seen.clear()
        d_top(spec)
        allowed = set(q.entries) | {2, -1}
        assert seen and set(seen) <= allowed, (spec, set(seen) - allowed)
    assert len(cases) == 141


def test_d_top_at_degree_two_factors_only_the_entries_and_minus_one(monkeypatch):
    # (D_K)(-1) is the sum of (a)(-1) over the entries a of q = <2, 2z>, whose
    # factorizations the determinant class caches; their product 4z is never
    # factored
    cases = [
        (spec, galois.family_trace_form(spec))
        for spec in _top_invariant_specs()
        if spec.degree == 2
    ]
    factor_fraction = exact._factor_fraction
    seen = []

    def recorded(num, den):
        seen.append(Fraction(num, den))
        return factor_fraction(num, den)

    monkeypatch.setattr(exact, "_factor_fraction", recorded)
    for spec, q in cases:
        want = reference_d_top(spec, q)
        seen.clear()
        forms.det_square_class(q)
        allowed = set(seen) | {-1}
        seen.clear()
        assert d_top(spec) == want
        assert seen and set(seen) <= allowed, (spec, set(seen) - allowed)
    assert len(cases) == 160


@pytest.mark.parametrize("family", [D4Quadratic, A5Quadratic], ids=lambda cls: cls.family)
@pytest.mark.parametrize("call", [invariant_report, c_invariants, decide_global],
                         ids=["invariant_report", "c_invariants", "decide_global"])
def test_the_matrix_factor_reads_its_class_off_the_kept_form(monkeypatch, family, call):
    # the matrix factor's class (z)(-1) = (2z)(-1) is read off the kept form <2, 2z>, as the
    # top class of a cyclic quadratic layer is: 2z is factored, z itself never
    rng = random.Random(2030)
    factor_fraction = exact._factor_fraction
    seen = []

    def recorded(num, den):
        seen.append(Fraction(num, den))
        return factor_fraction(num, den)

    monkeypatch.setattr(exact, "_factor_fraction", recorded)
    for _ in range(40):
        z = rng.choice((1, -1)) * rng.randrange(3, 10**6, 2) * rng.randrange(3, 10**6, 2)
        factor_fraction.cache_clear()
        forms.hasse_witt.cache_clear()
        seen.clear()
        call(family(z))
        assert 2 * z in seen and set(seen) <= {2 * z, -1, 2}, (z, set(seen))


def test_trace_forms_isomorphic_matches_the_restriction_loop():
    rng = random.Random(2017)
    outcomes = []
    for n in (2, 3, 4):
        pool = [random_quadratic_spec(rng, n) for _ in range(20)]
        if n > 2:
            pool += [random_quartic_spec(rng, n) for _ in range(20)]
        for _ in range(200):
            s1, s2 = rng.choice(pool), rng.choice(pool)
            cls = add(reference_d_top(s1), reference_d_top(s2))
            want = reference_res_trivial_real_cyclotomic(cls, 1 << n)
            assert trace_forms_isomorphic(s1, s2) == want, (s1, s2)
            outcomes.append(want)
    assert 100 <= sum(outcomes) <= 500


# --- trace form comparison ------------------------------------------------------


def test_trace_forms_isomorphic():
    s3 = CyclicQuadratic(3, 3)
    assert trace_forms_isomorphic(s3, s3)
    assert trace_forms_isomorphic(s3, CyclicQuadratic(3, 12))  # same square class
    # both z = 3 and z = 5 admit self-dual normal bases, so both trace
    # forms are the unit form and compare equal despite different fields
    assert trace_forms_isomorphic(s3, CyclicQuadratic(3, 5))
    assert not trace_forms_isomorphic(s3, CyclicQuadratic(3, 7))
    # across families with the same group
    assert trace_forms_isomorphic(s3, CyclicQuartic(3, 2, 1, 1, 2))


def test_trace_forms_isomorphic_errors():
    with pytest.raises(ValueError):
        trace_forms_isomorphic(CyclicQuadratic(3, 3), CyclicQuadratic(4, 3))
    with pytest.raises(ValueError):
        trace_forms_isomorphic(D4Quadratic(3), D4Quadratic(5))
    with pytest.raises(ValueError):
        trace_forms_isomorphic(CyclicPoly(2, (2, 0, -4, 0, 1), 4), CyclicPoly(2, (2, 0, -4, 0, 1), 4))


def test_trace_forms_isomorphic_c16():
    # at conductor 16 the fixed field has degree 4 over Q; both 3 and 7
    # have even order in (Z/16)^x / {+-1}, so their classes die there
    assert trace_forms_isomorphic(CyclicQuadratic(4, 3), CyclicQuadratic(4, 5))
    assert trace_forms_isomorphic(CyclicQuadratic(4, 3), CyclicQuadratic(4, 7))


def test_trace_forms_isomorphic_c8_matches_quadratic_restriction():
    # the real subfield of Q(zeta8) is Q(sqrt 2), so restriction to the real
    # cyclotomic layer at conductor 8 is restriction to Q(sqrt 2)
    rng = random.Random(88)
    specs = []
    while len(specs) < 60:
        spec = random_quadratic_spec(rng) if rng.random() < 0.5 else random_quartic_spec(rng)
        if h1_condition(spec):
            specs.append(spec)
    outcomes = []
    for _ in range(600):
        s1, s2 = rng.choice(specs), rng.choice(specs)
        got = trace_forms_isomorphic(s1, s2)
        assert got == restricts_trivially_to_quadratic(add(d_top(s1), d_top(s2)), 2), (s1, s2)
        outcomes.append(got)
    assert 100 <= sum(outcomes) <= 500


# --- cost: the trace form is built once per decision ---------------------------


def _count_calls(monkeypatch, counts, name, *modules):
    """Count calls of ``name`` through every module that binds it."""
    for module in modules:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def _tower16():
    """Minimal polynomial of 2cos(2pi/64): x^4 - 4x^2 + 2 composed twice with x^2 - 2."""
    f = [2, 0, -4, 0, 1]
    for _ in range(2):
        f = compose(f, [-2, 0, 1])
    return f


@pytest.mark.parametrize("call", [decide_global, invariant_report])
def test_trace_form_built_once_per_decision(monkeypatch, call):
    spec = CyclicPoly(5, _tower16(), 16)
    counts = {}
    _count_calls(monkeypatch, counts, "family_trace_form", galois)
    _count_calls(monkeypatch, counts, "trace_form", forms, galois)
    result = call(spec)
    assert counts == {"family_trace_form": 1, "trace_form": 1}
    if call is decide_global:
        assert result.verdict == VERDICT_YES


@pytest.mark.parametrize("call", [decide_global, invariant_report])
def test_a_decision_builds_no_hankel_rows(monkeypatch, call):
    spec = CyclicPoly(5, _tower16(), 16)
    counts = {}
    _count_calls(monkeypatch, counts, "_power_sum_rows", forms)
    call(spec)
    assert counts == {}


def test_an_a4_decision_builds_the_trace_form_once(monkeypatch, capsys):
    counts = {}
    _count_calls(monkeypatch, counts, "trace_form", forms, galois)
    spec = spec_from_json({"group": "A4", "family": "a4-quartic", "poly": [-1, 0, 0, -1, 1]})
    assert decide_global(spec).verdict == VERDICT_UNKNOWN
    assert counts == {"trace_form": 1}
    # repeated roots are still refused, whether or not the subresultant sequence is normal
    for coeffs in ((1, 0, -2, 0, 1), (1, -2, 2, -2, 1), (0, 0, 0, 0, 1)):
        assert forms._subresultants(coeffs)[0] is None
        with pytest.raises(ValueError, match="^polynomial has repeated roots$"):
            A4Quartic(coeffs)
    argv = ["decide", "--group", "A4", "--family", "a4-quartic", "--poly=1,0,-2,0,1"]
    assert cli.main(argv) == 65
    assert "polynomial has repeated roots" in capsys.readouterr().err


def test_an_a4_quartic_with_a_vanishing_minor_builds_the_trace_form_once(monkeypatch, capsys):
    # x^4 + 8x + 12 has s_1 = s_2 = 0, so its subresultant sequence is not normal
    assert forms._subresultants((12, 8, 0, 0, 1))[0] is None
    counts = {}
    _count_calls(monkeypatch, counts, "trace_form", forms, galois)
    spec = spec_from_json({"group": "A4", "family": "a4-quartic", "poly": [12, 8, 0, 0, 1]})
    assert counts == {}
    assert decide_global(spec).verdict == VERDICT_UNKNOWN
    assert counts == {"trace_form": 1}
    # a repeated root is refused without a trace form, with the same message and exit code
    for coeffs in ((4, 0, -4, 0, 1), (0, 0, 1, 0, 1), (-3, 8, -6, 0, 1)):
        with pytest.raises(ValueError, match="^polynomial has repeated roots$"):
            A4Quartic(coeffs)
    assert counts == {"trace_form": 1}
    argv = ["decide", "--group", "A4", "--family", "a4-quartic", "--poly=-3,8,-6,0,1"]
    assert cli.main(argv) == 65
    assert "polynomial has repeated roots" in capsys.readouterr().err


def test_repeated_roots_agree_with_the_trace_form():
    rng = random.Random(15)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))] + [1]
        if rng.random() < 0.3:  # multiply by (x - r)^2
            r = rng.randint(-3, 3)
            for _ in range(2):
                coeffs = [-r * coeffs[0]] + [a - r * b for a, b in zip(coeffs, coeffs[1:])] + [1]
        try:
            forms.trace_form(coeffs)
            repeated = False
        except ValueError:
            repeated = True
        assert forms._subresultants(coeffs)[1] == repeated, coeffs
        seen[repeated] += 1
    assert min(seen.values()) > 500, seen


def test_a_decision_without_degree_one_vanishing_builds_no_trace_form(monkeypatch):
    # a field of degree m in C(m): the h1 row answers no, and q is never needed
    specs = [CyclicPoly(2, (2, 0, -4, 0, 1), 4), CyclicPoly(4, _tower16(), 16)]
    counts = {}
    _count_calls(monkeypatch, counts, "family_trace_form", galois)
    _count_calls(monkeypatch, counts, "trace_form", forms, galois)
    for spec in specs:
        assert decide_global(spec).verdict == VERDICT_NO
    assert counts == {}


@pytest.mark.parametrize(
    "call",
    [decide_global, lambda spec: decide_local(spec, Place(3)), invariant_report],
    ids=["decide_global", "decide_local", "invariant_report"],
)
def test_factor_table_built_once_per_decision(monkeypatch, call):
    counts = {}
    _count_calls(monkeypatch, counts, "decompose", galois)
    for spec in (
        CyclicQuadratic(4, 3),
        CyclicPoly(5, _tower16(), 16),
        D4Quadratic(3),
        A4Quartic((12, 8, 0, 0, 1)),
        SplitAlgebra(GroupDescriptor("abelian", (2, 12))),
    ):
        counts.clear()
        call(spec)
        assert counts == {"decompose": 1}, spec


def test_local_data_called_at_most_once_per_certificate_row(monkeypatch):
    # chi8 and chi16 have real cyclotomic fixed fields; (7)(-1) ramifies at 2 and 7
    spec = CyclicQuadratic(4, 7)
    cyclotomic = {
        fd.id for fd in decompose(GroupDescriptor.cyclic(16)) if fd.e_kind == "real-cyclotomic"
    }
    counts = {}
    _count_calls(monkeypatch, counts, "local_data", galois)
    calls = [decide_global] + [lambda s, p=p: decide_local(s, Place(p)) for p in (2, 3, 7)]
    for call in calls:
        counts.clear()
        rows = [r for r in call(spec).certificate if r.factor in cyclotomic and r.place]
        assert rows and counts.get("local_data", 0) <= len(rows)


def test_euler_phi_factors_each_order_once(monkeypatch):
    # a repeated decision takes the same totients again; they are memoized,
    # so no factor call comes from euler_phi the second time
    specs = (
        CyclicQuadratic(4, 7),
        CyclicQuartic(3, 2, 1, 1, 2),
        SplitAlgebra(GroupDescriptor("abelian", (2, 12))),
    )
    for spec in specs:
        decide_global(spec)
    counts, factor_callers = {}, {}
    _count_calls(monkeypatch, counts, "euler_phi", exact, factors)
    factor = exact.factor

    def counted_factor(q):
        caller = sys._getframe(1).f_code.co_name
        factor_callers[caller] = factor_callers.get(caller, 0) + 1
        return factor(q)

    monkeypatch.setattr(exact, "factor", counted_factor)
    for spec in specs:
        decide_global(spec)
    assert counts["euler_phi"] > 0 and factor_callers.get("mult_order", 0) > 0
    assert "euler_phi" not in factor_callers, factor_callers


def test_irreducibility_screen_stays_in_budget():
    # x^4 - 2(a+b)x^2 + (a-b)^2, the minimal polynomial of sqrt(a) + sqrt(b):
    # reducible modulo every prime, so only the quadratic search can answer,
    # and its height 8(a+b) puts ~10^8 candidates beyond the budget
    a, b = 1000003, 1000033
    with pytest.raises(BudgetExceededError):
        galois._irreducible_over_Q([(a - b) ** 2, 0, -2 * (a + b), 0, 1])
    for n in list(range(-60, 0)) + list(range(1, 400)):
        assert galois._divisors(n) == [d for d in range(1, abs(n) + 1) if n % d == 0]


def test_rabin_screen_is_charged_to_the_work_budget(monkeypatch):
    # x^128 + 2x + 2 is Eisenstein at 2, but the screen skips p = 2 and is
    # reducible modulo every prime it tries, one 128-step orbit after another
    coeffs = [2, 2] + [0] * 126 + [1]
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "200000")
    with pytest.raises(BudgetExceededError) as info:
        galois._irreducible_over_Q(coeffs)
    message = str(info.value)
    assert message.startswith("irreducibility screen of the polynomial [2, 2, 0, 0,")
    assert "work budget exhausted after 196608 of 200000 units" in message
    # the degree-16 tower fits with room to spare
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", str(16 * 16 * 16 * 16))
    for f in _tower_shifts():
        assert galois._irreducible_over_Q(f)


def test_integer_root_test_is_charged_per_divisor_of_the_constant(monkeypatch):
    # x^4 + x - 2 has the root 1; the test is charged 2 * 4 + 1 units for each of the d(2) = 2
    # divisors of f(0), all before the first is tried
    coeffs = (-2, 1, 0, 0, 1)
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", str((2 * 4 + 1) * 2))
    assert galois._irreducible_over_Q(coeffs) is False
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "17")
    with pytest.raises(BudgetExceededError) as info:
        galois._irreducible_over_Q(coeffs)
    assert str(info.value).startswith(
        "integer roots of the polynomial [-2, 1, 0, 0, 1]: work budget exhausted after 0 of 17 units"
    )


def _random_monic(rng, degree):
    return [rng.randint(-20, 20) for _ in range(degree)] + [1]


def _multiply(g, h):
    out = [0] * (len(g) + len(h) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(h):
            out[i + j] += a * b
    return out


def test_rabin_one_orbit_matches_two_orbit_reference():
    rng = random.Random(1980)
    irreducible = reducible_products = 0
    for case in range(1200):
        m = rng.choice((2, 4, 8, 16)) if case % 2 else rng.randint(2, 16)
        if case % 3 == 0:  # a product g*h, reducible over Q and mod every p
            d = rng.randint(1, m - 1)
            coeffs = _multiply(_random_monic(rng, d), _random_monic(rng, m - d))
            reducible_products += 1
        else:
            coeffs = _random_monic(rng, m)
        p = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59))
        got = galois._irreducible_mod_p(coeffs, p, exact.WorkBudget("Rabin differential"))
        assert got == reference_irreducible_mod_p(coeffs, p), (coeffs, p)
        if m & (m - 1) == 0:  # Rabin's halfway gcd is complete for 2-power m only
            assert not (got and case % 3 == 0), (coeffs, p)
            irreducible += got
    assert irreducible > 100 and reducible_products == 400


def test_rabin_spends_at_most_m_frobenius_steps(monkeypatch):
    steps = []
    original = galois._frobenius_power
    signature = inspect.signature(original)

    def counted(*args, **kwargs):
        steps.append(signature.bind(*args, **kwargs).arguments["k"])
        return original(*args, **kwargs)

    monkeypatch.setattr(galois, "_frobenius_power", counted)
    irreducible = 0
    for f in _tower_shifts():
        m = len(f) - 1
        for p in (3, 5, 7, 11, 13, 17):
            steps.clear()
            irreducible += galois._irreducible_mod_p(f, p, exact.WorkBudget("Rabin steps"))
            assert 0 < sum(steps) <= m, (f, p, steps)
    assert irreducible > 0


def test_frobenius_by_power_rows_matches_square_and_multiply():
    rng = random.Random(1411)
    for p in exact._SMALL_PRIMES[:17]:  # 2, 3, ..., 59
        for m in range(2, 17):
            f = [c % p for c in _random_monic(rng, m)]
            t = [rng.randrange(p) for _ in range(rng.randint(1, m))]
            if m % 3 == 0:
                t = [0, 1]
            k = rng.randint(1, m)
            rows = [reference_frobenius_of([0] * i + [1], f, p, 1) for i in range(m)]
            want = reference_frobenius_of(t, f, p, k)
            while want and want[-1] == 0:
                want.pop()
            budget = exact.WorkBudget("Frobenius differential")
            assert galois._frobenius_power(t, f, p, k, budget, rows) == want, (f, p, t, k)


def test_power_rows_are_charged_once_and_no_step_reduces(monkeypatch):
    class CountingBudget(exact.WorkBudget):
        def __init__(self):
            super().__init__("counted Rabin")
            self.charges = []

        def spend(self, units):
            self.charges.append(units)
            super().spend(units)

    in_step, rem_calls = [], []
    original_rem, original_power = galois._rem, galois._frobenius_power

    def counted_rem(*args):
        rem_calls.append(bool(in_step))
        return original_rem(*args)

    def stepping(*args):
        in_step.append(True)
        try:
            return original_power(*args)
        finally:
            in_step.pop()

    monkeypatch.setattr(galois, "_rem", counted_rem)
    monkeypatch.setattr(galois, "_frobenius_power", stepping)
    rng = random.Random(1414)
    polys = _tower_shifts() + [_random_monic(rng, rng.choice((4, 8, 16))) for _ in range(20)]
    for f in polys:
        m = len(f) - 1
        for p in (2, 3, 7, 59, 61):
            budget = CountingBudget()
            galois._irreducible_mod_p(f, p, budget)
            steps = budget.charges[1:]
            assert budget.charges[0] == math.ceil((m - 1) * p / m) * m * m, (f, p)
            assert 0 < len(steps) <= m and set(steps) == {m * m}, (f, p, budget.charges)
    assert rem_calls and not any(rem_calls)


def test_screen_walks_past_primes_dividing_the_constant_term(monkeypatch):
    # c0 = 3 * 5 * ... * 59: both quartics are Eisenstein at 3, but every
    # prime of the first sixteen odd ones divides f(0)
    c0 = math.prod(exact._SMALL_PRIMES[1:17])
    assert c0 == 961380175077106319535
    for coeffs in ([c0, 0, 0, 0, 1], [c0, 1, 0, 0, 1]):
        start = time.perf_counter()
        assert galois._irreducible_over_Q(coeffs)
        assert time.perf_counter() - start < 0.5
    # with f(0) prime to every odd prime up to 59 the same sixteen are tried
    tried = []
    original = galois._irreducible_mod_p

    def recorded(coeffs, p, budget):
        tried.append(p)
        return original(coeffs, p, budget)

    monkeypatch.setattr(galois, "_irreducible_mod_p", recorded)
    assert not galois._irreducible_over_Q([4, 0, 5, 0, 1])  # (x^2 + 1)(x^2 + 4)
    assert tried == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# --- every stage of the irreducibility screen draws on a work budget ---------------


def test_integer_roots_are_charged_before_the_divisors_are_listed(monkeypatch):
    # x^4 + x + c0, c0 the product of the 18 primes up to 61: the 2^18 divisors
    # are counted off the factorization of c0 and charged before any is listed
    c0 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61))
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "1000")
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        galois._irreducible_over_Q([c0, 1, 0, 0, 1])
    assert time.perf_counter() - start < 0.5
    assert str(info.value).startswith(
        f"integer roots of the polynomial [{c0}, 1, 0, 0, 1]: work budget exhausted after 0 of 1000"
    )


def test_quadratic_factor_search_draws_on_the_screen_budget():
    # sqrt(a) + sqrt(b) again: one row of the search, 2 * 16000288 + 1
    # candidates at 4 units each, overdraws the budget before it is scanned
    a, b = 1000003, 1000033
    coeffs = [(a - b) ** 2, 0, -2 * (a + b), 0, 1]
    with pytest.raises(BudgetExceededError) as info:
        galois._irreducible_over_Q(coeffs)
    assert str(info.value).startswith(f"irreducibility screen of the polynomial {coeffs}: work budget")


def test_screen_answers_wherever_the_capped_screen_did():
    rng = random.Random(1209)

    def monic(degree, height):
        return [rng.randint(-height, height) for _ in range(degree)] + [1]

    singles = [monic(4, 5) for _ in range(80)] + [monic(8, 3) for _ in range(40)]
    products = [_multiply(monic(2, 8), monic(2, 8)) for _ in range(60)]
    products += [_multiply(monic(2, 3), monic(6, 3)) for _ in range(20)]
    pairs = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(40)]
    biquadratics = [[(a - b) ** 2, 0, -2 * (a + b), 0, 1] for a, b in pairs]
    outcomes = {True: 0, False: 0, None: 0}
    for f in singles + products + biquadratics + _tower_shifts():
        try:
            want = reference_irreducible_over_Q(f)
        except BudgetExceededError:
            want = None
        try:
            got = galois._irreducible_over_Q(f)
        except BudgetExceededError:
            got = None
        assert got == want or want is None, f
        assert not (got and f in products), f
        outcomes[got] += 1
    assert outcomes[True] > 50 and outcomes[False] > 80 and outcomes[None] > 0, outcomes


# --- the screen's verdict is memoized per coefficients and budget setting ---------


def test_a_warm_screen_answers_as_a_cold_one(monkeypatch):
    tower = _tower16()
    CyclicPoly(5, tower, 16)  # warm, under the default budget
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "1000")
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="work budget exhausted after 768 of 1000 units"):
            CyclicPoly(5, tower, 16)
    monkeypatch.delenv("SDNB_FACTOR_BUDGET")
    for _ in range(2):
        with pytest.raises(ValueError, match="^polynomial is reducible$"):
            CyclicPoly(3, (4, 0, 5, 0, 1), 4)  # (x^2 + 1)(x^2 + 4)
    # a malformed budget: x^4 + x is refused before any budget is read, the
    # tower is not, and the budget error is raised again on every call
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "abc")
    for _ in range(2):
        with pytest.raises(ValueError, match="^polynomial is reducible$"):
            CyclicPoly(3, (0, 1, 0, 0, 1), 4)
        with pytest.raises(ValueError, match="SDNB_FACTOR_BUDGET must be an integer, got 'abc'"):
            CyclicPoly(5, tower, 16)


# --- the decision path reads only what it uses ------------------------------------


def test_d_top_at_degree_two_takes_one_cup(monkeypatch):
    rng = random.Random(2019)
    specs = [random_quadratic_spec(rng, n) for n in range(2, 6) for _ in range(10)]
    while len(specs) < 80:
        v, u = rng.randint(-40, 40), rng.randint(-9, 9)
        if not exact.is_square(u * u - 4 * v):
            specs.append(CyclicPoly(rng.randint(2, 5), (v, u, 1), 2))
    cases = [(spec, galois.family_trace_form(spec)) for spec in specs]
    wants = [reference_d_top(spec, q) for spec, q in cases]
    counts = {}
    _count_calls(monkeypatch, counts, "cup", galois)
    for (spec, q), want in zip(cases, wants):
        counts.clear()
        assert d_top(spec) == want, spec
        assert counts == {"cup": 1}, spec


def test_c_invariants_computes_no_unitary_class(monkeypatch):
    # both orthogonal entries are zero by the table; the top unitary class
    # would factor 2PQ, a 128-bit product of two 64-bit primes
    P, Q = 9223372036854775837, 4611686018427388039
    assert exact.is_prime(P) and exact.is_prime(Q)
    spec = CyclicQuartic(3, 2 * P * Q, P * Q, P * Q, 2)
    counts = {}
    for name in ("d_top", "hasse_witt", "det_square_class"):
        _count_calls(monkeypatch, counts, name, galois)
    start = time.perf_counter()
    entries = c_invariants(spec)
    assert time.perf_counter() - start < 0.5
    assert [(e.factor_id, e.status) for e in entries] == [("triv", "zero"), ("chi2", "zero")]
    assert all(is_trivial(e.value) for e in entries)
    assert counts == {}


@pytest.mark.parametrize(
    "call, calls",
    [
        (decide_global, 0),
        (lambda spec: decide_local(spec, Place(3)), 0),
        (invariant_report, 1),
    ],
    ids=["decide_global", "decide_local", "invariant_report"],
)
def test_determinant_class_is_computed_for_the_report_only(monkeypatch, call, calls):
    counts = {}
    _count_calls(monkeypatch, counts, "det_square_class", galois)
    for spec in (
        CyclicQuadratic(4, 3),
        CyclicQuartic(3, 2, 1, 1, 2),
        CyclicPoly(5, _tower16(), 16),
        CyclicPoly(3, (-3, 0, 1), 2),
        D4Quadratic(3),
        A4Quartic((12, 8, 0, 0, 1)),
        A5Quadratic(-7),
        SplitAlgebra(GroupDescriptor("abelian", (2, 12))),
    ):
        counts.clear()
        call(spec)
        assert counts.get("det_square_class", 0) == calls, spec


# --- one certificate builder: the JSON of the two former walks -----------------


def _differential_specs():
    """Every family, split groups, +-z, and seeded random quadratic/quartic specs."""
    specs = [SplitAlgebra(GroupDescriptor(kind)) for kind in ("D4", "A4", "A5demo")] + [
        SplitAlgebra(GroupDescriptor.cyclic(8)),
        SplitAlgebra(GroupDescriptor("abelian", (2, 12))),
        CyclicQuartic(3, 3, F(3, 2), F(3, 2), 2),
        CyclicQuartic(4, -2, 1, 1, 2),
        CyclicPoly(2, (-3, 1), 1),
        CyclicPoly(3, (2, 0, -4, 0, 1), 4),
        CyclicPoly(2, (2, 0, -4, 0, 1), 4),
        CyclicPoly(4, compose([2, 0, -4, 0, 1], [-2, 0, 1]), 8),
        CyclicPoly(5, _tower16(), 16),
        A4Quartic((12, 8, 0, 0, 1)),
        A4Quartic((1, 1, 0, 0, 1)),
    ]
    for z in (2, 3, 5, 7, 17, 23, F(45, 8)):
        for sz in (z, -z):
            specs += [CyclicQuadratic(2, sz), CyclicQuadratic(3, sz), D4Quadratic(sz), A5Quadratic(sz)]
    rng = random.Random(2016)
    for _ in range(75):
        specs.append(random_quadratic_spec(rng, n=rng.randint(2, 5)))
        specs.append(random_quartic_spec(rng, n=rng.randint(3, 5)))
    return specs


def _outcome(fn, *args) -> str:
    try:
        return json.dumps(fn(*args).to_json())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_certificate_builder_matches_reference_walks():
    specs = _differential_specs()
    verdicts, errors = set(), 0
    for spec in specs:
        assert _outcome(invariant_report, spec) == _outcome(reference_invariant_report, spec), spec
        got = _outcome(decide_global, spec)
        assert got == _outcome(reference_decide_global, spec), spec
        verdicts.add(json.loads(got)["verdict"])
        for v in [REAL] + [Place(p) for p in (2, 3, 5, 7, 17, 23)]:
            got = _outcome(decide_local, spec, v)
            assert got == _outcome(reference_decide_local, spec, v), (spec, v)
            errors += got.startswith("ValueError")
    assert verdicts == {VERDICT_YES, VERDICT_NO, VERDICT_UNKNOWN}
    assert errors == len(specs)  # the real place, once per spec


# --- serialization ---------------------------------------------------------------


def test_spec_json_roundtrip():
    specs = [
        SplitAlgebra(GroupDescriptor.cyclic(8)),
        CyclicQuadratic(3, F(-45, 8)),
        CyclicQuartic(3, 3, F(3, 2), F(3, 2), 2),
        CyclicPoly(3, (2, 0, -4, 0, 1), 4),
        D4Quadratic(5),
        A4Quartic((12, 8, 0, 0, 1)),
        A5Quadratic(5),
    ]
    for spec in specs:
        data = spec_to_json(spec)
        assert spec_from_json(data) == spec


@pytest.mark.parametrize(
    "data",
    [
        {"group": "C8", "family": "d4-quadratic", "z": "3"},
        {"group": "C4", "family": "a5-quadratic", "z": "3"},
        {"group": "D4", "family": "a4-quartic", "poly": [12, 8, 0, 0, 1]},
        {"group": "A4", "family": "d4-quadratic", "z": "3"},
    ],
)
def test_spec_from_json_rejects_a_group_the_family_contradicts(data):
    with pytest.raises(ValueError, match="has group"):
        spec_from_json(data)
    del data["group"]
    spec = spec_from_json(data)
    data["group"] = spec.group.name
    assert spec_from_json(data) == spec


def test_spec_from_json_golden():
    spec = spec_from_json({"group": "C8", "family": "cyclic-quadratic", "z": "3"})
    assert spec == CyclicQuadratic(3, 3)
    with pytest.raises(ValueError):
        spec_from_json({"group": "D4", "family": "cyclic-quadratic", "z": "3"})
    with pytest.raises(ValueError):
        spec_from_json({"group": "C8", "family": "nope"})


def _codec_cases(rng):
    """(spec, the JSON it must serialize to, an alternative JSON that must read back to it)."""
    def nonsquare():
        while True:
            z = F(rng.randint(1, 400) * rng.choice((1, -1)), rng.randint(1, 30))
            if not exact.is_square(z):
                return z

    cases = []
    for name in ("C2", "C8", "C16", "C2xC4", "C4xC4", "C2xC2xC2", "C6", "D4", "A4", "A5"):
        cases.append((SplitAlgebra(galois.parse_group(name)), {"group": name, "family": "split"}, None))
    for _ in range(8):
        n, z = rng.randint(2, 5), nonsquare()
        data = {"group": f"C{1 << n}", "family": "cyclic-quadratic", "z": str(z)}
        cases.append((CyclicQuadratic(n, z), data, None))
        cases.append((D4Quadratic(z), {"group": "D4", "family": "d4-quadratic", "z": str(z)}, None))
        cases.append((A5Quadratic(z), {"group": "A5", "family": "a5-quadratic", "z": str(z)}, None))
        # a^2 - b^2 eps = c^2 eps holds for each base point and any common scale t
        a, b, c, eps = rng.choice([(3, F(3, 2), F(3, 2), 2), (2, 1, 1, 2), (5, 1, 2, 5), (13, 2, 3, 13)])
        t = F(rng.randint(1, 50) * rng.choice((1, -1)), rng.randint(1, 12))
        a, b, c, n = a * t, b * t, c * t, rng.randint(3, 5)
        data = {"group": f"C{1 << n}", "family": "cyclic-quartic",
                "a": str(a), "b": str(b), "c": str(c), "eps": str(eps)}
        cases.append((CyclicQuartic(n, a, b, c, eps), data, None))
    for coeffs, n in [((-2, 0, 1), 2), ((1, 0, 1), 4), ((2, 0, -4, 0, 1), 3), ((2, 0, -4, 0, 1), 5),
                      (tuple(compose([2, 0, -4, 0, 1], [1, 1])), 4)]:
        m = len(coeffs) - 1
        data = {"group": f"C{1 << n}", "family": "cyclic-poly", "poly": list(coeffs), "degree": m}
        without_degree = {key: value for key, value in data.items() if key != "degree"}
        cases.append((CyclicPoly(n, coeffs, m), data, without_degree))
    for coeffs in [(12, 8, 0, 0, 1), (-3, 4, 0, 0, 1), (-1, 0, 0, -1, 1)]:
        data = {"group": "A4", "family": "a4-quartic", "poly": list(coeffs)}
        cases.append((A4Quartic(coeffs), data, {**data, "poly": [str(c) for c in coeffs]}))
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_spec_json_is_byte_identical_and_round_trips_for_every_family(seed):
    cases = _codec_cases(random.Random(seed))
    assert {type(spec) for spec, _, _ in cases} == set(get_args(galois.GaloisAlgebraSpec))
    for spec, expected, alternative in cases:
        text = json.dumps(spec_to_json(spec))
        assert text == json.dumps(expected)
        again = spec_from_json(json.loads(text))
        assert again == spec and json.dumps(spec_to_json(again)) == text
        if alternative is not None:
            assert spec_from_json(alternative) == spec


MALFORMED_SPECS = [
    pytest.param({"family": ["x"]}, ValueError, "unknown family ['x']", id="family-list"),
    pytest.param({"family": 3}, ValueError, "unknown family 3", id="family-int"),
    pytest.param({"group": "C8"}, ValueError, "unknown family None", id="family-absent"),
    pytest.param({"group": "C8", "family": "nope"}, ValueError, "unknown family 'nope'", id="family-unknown"),
    pytest.param({"family": "split"}, ValueError, "split family needs a group", id="split-no-group"),
    pytest.param({"family": "cyclic-quadratic", "z": "3"}, ValueError,
                 "cyclic families need a group, e.g. C8", id="cyclic-no-group"),
    pytest.param({"family": "cyclic-poly", "poly": [2, 0, 1]}, ValueError,
                 "cyclic families need a group, e.g. C8", id="poly-no-group"),
    pytest.param({"group": 8, "family": "split"}, ValueError,
                 'group must be a name such as "C8", got 8', id="group-int"),
    pytest.param({"group": "C6", "family": "cyclic-quadratic", "z": "3"}, ValueError,
                 "family 'cyclic-quadratic' needs a cyclic 2-power group", id="group-not-2-power"),
    pytest.param({"group": "C4", "family": "a4-quartic", "poly": [12, 8, 0, 0, 1]}, ValueError,
                 "family 'a4-quartic' has group A4, not C4", id="group-contradicts"),
    pytest.param({"group": "C8", "family": "cyclic-poly"}, KeyError, "'poly'", id="poly-missing"),
    pytest.param({"group": "C8", "family": "cyclic-poly", "poly": "2,0,1"}, ValueError,
                 "poly must be a list of integers, got '2,0,1'", id="poly-string"),
    pytest.param({"group": "A4", "family": "a4-quartic", "poly": [12, 8, 0, True, 1]}, ValueError,
                 "poly must be an integer, got True", id="poly-bool-coefficient"),
    pytest.param({"group": "C8", "family": "cyclic-poly", "poly": [2, 0, 1], "degree": True}, ValueError,
                 "degree must be an integer, got True", id="degree-bool"),
    pytest.param({"group": "C8", "family": "cyclic-poly", "poly": [2, 0, 1], "degree": 2.5}, ValueError,
                 "degree must be an integer, got 2.5", id="degree-float"),
    pytest.param({"group": "C8", "family": "cyclic-poly", "poly": [2, 0, 1], "degree": "x"}, ValueError,
                 "degree must be an integer, got 'x'", id="degree-string"),
    pytest.param({"group": "C8", "family": "cyclic-quartic", "a": "2", "c": "1", "eps": "2"}, KeyError,
                 "'b'", id="quartic-no-b"),
    pytest.param({"group": "C8", "family": "cyclic-quadratic", "z": True}, ValueError,
                 "z must be a rational number or string, got True", id="z-bool"),
    pytest.param({"group": "A4", "family": "a4-quartic", "poly": [1, 0, 1]}, ValueError,
                 "the A4 family needs a monic integer quartic", id="a4-short"),
    pytest.param("x", ValueError, "a spec must be a JSON object, got str", id="not-an-object"),
]


@pytest.mark.parametrize("data, error, message", MALFORMED_SPECS)
def test_malformed_specs_raise_their_exact_error(data, error, message):
    with pytest.raises(error) as info:
        spec_from_json(data)
    assert type(info.value) is error and str(info.value) == message


def test_ceil_root_is_the_least_integer_root_at_or_above():
    for k in range(1, 7):
        for n in list(range(300)) + [10**40 - 1, 10**40, 10**40 + 1, 2**127 - 1]:
            r = galois._ceil_root(n, k)
            assert r**k >= n and (r == 0 or (r - 1) ** k < n), (n, k)


def test_bounded_integer_root_scan_matches_the_unbounded_scan():
    rng = random.Random(1607)

    def monic(degree, height, constant):
        return [constant] + [rng.randint(-height, height) for _ in range(degree - 1)] + [1]

    cases = []
    for _ in range(150):
        m = rng.choice((3, 4, 8))
        kind = rng.choice(("one", "f0", "small", "none"))
        if kind == "one":  # root +-1
            f = _multiply([-rng.choice((1, -1)), 1], monic(m - 1, 9, rng.choice((-6, -2, 3, 5, 30))))
        elif kind == "f0":  # g(0) = +-1, so the root r is +-f(0)
            r = rng.choice((1, -1)) * rng.randint(2, 10**6)
            f = _multiply([-r, 1], monic(m - 1, 9, rng.choice((1, -1))))
            assert abs(f[0]) == abs(r)
        elif kind == "small":
            r = rng.choice((1, -1)) * rng.randint(2, 60)
            f = _multiply([-r, 1], monic(m - 1, 20, rng.randint(1, 500) * rng.choice((1, -1))))
        else:
            f = monic(m, 50, rng.randint(1, 10**6) * rng.choice((1, -1)))
        cases.append((kind, f))
    seen = {True: 0, False: 0}
    for kind, f in cases:
        divisors = galois._divisors(f[0])
        want = any(galois._poly_eval(f, d) == 0 or galois._poly_eval(f, -d) == 0 for d in divisors)
        assert galois._has_integer_root(f, divisors) == want, f
        assert want or kind == "none", f
        if kind != "none":
            assert not galois._irreducible_over_Q(f), f
        seen[want] += 1
    assert seen[True] > 80 and seen[False] > 10, seen


def test_integer_root_scan_stops_at_the_root_bound(monkeypatch):
    # f(0) = 3 * 5 * 7 * ... * 59 has 2^16 divisors; Fujiwara's bound for
    # x^4 + f(0) is 2 * ceil((f(0) / 2)^(1/4)) = 296142, and 2128 divisors lie below it
    f = [961380175077106319535, 0, 0, 0, 1]
    assert len(galois._divisors(f[0])) == 1 << 16
    calls = []
    evaluate = galois._poly_eval

    def counted(coeffs, x):
        calls.append(x)
        return evaluate(coeffs, x)

    monkeypatch.setattr(galois, "_poly_eval", counted)
    assert galois._irreducible_over_Q(f)
    assert len(calls) == 2 * 2128 and max(calls) <= 296142


def test_the_screen_bounds_its_root_scan_once(monkeypatch):
    # one Fujiwara bound per polynomial that reaches the root stage, f evaluated
    # nowhere above it, and every polynomial with an integer root reducible
    rng = random.Random(2512)
    root_bound, evaluate = galois._root_bound, galois._poly_eval
    bounds, evaluated = [], []

    def bound(coeffs):
        bounds.append(root_bound(coeffs))
        return bounds[-1]

    def evaluated_at(coeffs, x):
        evaluated.append(abs(x))
        return evaluate(coeffs, x)

    monkeypatch.setattr(galois, "_root_bound", bound)
    monkeypatch.setattr(galois, "_poly_eval", evaluated_at)
    seen = {True: 0, False: 0}
    for case in range(300):
        m = rng.choice((3, 4, 8))
        if case % 2:  # a root r, from +-1 up to +-f(0)
            r = rng.choice((1, -1)) * rng.choice((1, rng.randint(2, 60), rng.randint(2, 10**6)))
            g = _random_monic(rng, m - 1)
            g[0] = g[0] or 1
            f = _multiply([-r, 1], g)
        else:
            f = _random_monic(rng, rng.choice((4, 8)))
            f[0] = f[0] or 7
        rooted = any(evaluate(f, d) == 0 or evaluate(f, -d) == 0 for d in galois._divisors(f[0]))
        bounds.clear()
        evaluated.clear()
        try:
            verdict = galois._irreducible_over_Q(f)
        except BudgetExceededError:
            verdict = None
        assert len(bounds) == 1 and max(evaluated, default=0) <= bounds[0], f
        if rooted:
            assert verdict is False, f
        seen[rooted] += 1
    assert seen[True] >= 150 and seen[False] > 50, seen


def test_the_root_test_lists_only_the_divisors_below_the_root_bound(monkeypatch):
    # the same x^4 + f(0): Rabin's test decides before the quadratic-factor
    # search, so only the 2128 divisors up to 296142 are ever listed
    f = [961380175077106319535, 0, 0, 0, 1]
    listed = []
    divisors = galois._divisors

    def recorded(n, *bound):
        out = divisors(n, *bound)
        listed.append(len(out))
        return out

    monkeypatch.setattr(galois, "_divisors", recorded)
    assert galois._irreducible_over_Q(f)
    assert listed == [2128]
    # (x^2 + 1)(x^2 + 4) reaches the quadratic-factor search, which lists every divisor
    listed.clear()
    assert not galois._irreducible_over_Q([4, 0, 5, 0, 1])
    assert listed == [3, 3]
    for n in (f[0], -720, 2**20, 97, 1):
        for bound in (1, 2, 5, 96, 97, 1000, 296142):
            assert divisors(n, bound) == [d for d in divisors(n) if d <= bound], (n, bound)


@pytest.mark.parametrize("spec", [
    SplitAlgebra(GroupDescriptor.cyclic(8)), CyclicQuadratic(3, 5), D4Quadratic(3), A5Quadratic(5),
], ids=repr)
def test_a_family_whose_parameters_fix_its_trace_form_keeps_it(spec):
    q = galois.family_trace_form(spec)
    assert galois.family_trace_form(spec) is q
    assert q == (DiagonalForm([1]) if spec.degree == 1 else DiagonalForm([2, 2 * spec.z]))


@pytest.mark.parametrize("spec", [D4Quadratic(3), CyclicQuadratic(3, 5)], ids=repr)
def test_a_quadratic_decision_builds_no_diagonal_form(monkeypatch, spec):
    built = []
    init = DiagonalForm.__init__

    def counted(self, entries):
        built.append(entries)
        init(self, entries)

    monkeypatch.setattr(DiagonalForm, "__init__", counted)
    decide_global(spec)
    assert built == []


@pytest.mark.parametrize("name", ["C3", "C6", "C12", "C2xC12"])
@pytest.mark.parametrize("p", [2, 3])
def test_conductor_3_and_6_factors_get_no_local_filter(name, p):
    # the place-wise filter reads a unitary factor with E = Q only on cyclic 2-power groups,
    # where that factor is chi4 with center Q(i); these factors are answered before any filter
    group = galois.parse_group(name)
    conductor = {fd.id: fd.conductor for fd in decompose(group)}
    rows = [row for row in decide_local(SplitAlgebra(group), Place(p)).certificate
            if row.factor is not None and conductor[row.factor] in (3, 6)]
    assert rows
    assert all(row.detail == "outside the supported tables" for row in rows)


def test_gaussian_period_polynomials():
    assert gaussian_period_polynomial(5, 2) == [-1, 1, 1]  # x^2 + x - 1, of 2 cos(2pi/5)
    assert gaussian_period_polynomial(13, 4) == [3, -4, 2, 1, 1]
    assert gaussian_period_primes(4, 5) == [5, 13, 17, 29, 37]


@pytest.mark.parametrize("m, count", [(2, 20), (4, 20), (8, 15)])
def test_gaussian_period_fields_have_their_closed_form_invariants(m, count):
    # K, of degree m and prime conductor p, is totally real iff p = 1 mod 2m, and disc K = +-p^(m-1)
    for p in gaussian_period_primes(m, count):
        spec = CyclicPoly(m.bit_length(), gaussian_period_polynomial(p, m), m)  # over C(2m)
        totally_real = p % (2 * m) == 1
        r2 = 0 if totally_real else m // 2
        report = invariant_report(spec)
        assert report.signature == (m - r2, r2), p
        assert report.det_class == (-1) ** r2 * p, p
        for entry in report.entries:
            assert entry.value is None or entry.value.ramified <= {REAL, Place(2), Place(p)}, (p, entry)
        if m >= 8:
            continue  # w2(q_K) + (2)(D_K) is trivial for every cyclic K of degree >= 8: nothing is pinned there
        top = report.entries[-1]
        real_and_p = p % 4 == 3 if m == 2 else p % 8 == 5
        assert (top.factor_id, top.value.ramified) == (f"chi{2 * m}", {REAL, Place(p)} if real_and_p else set()), p
        assert (decide_global(spec).verdict == VERDICT_YES) == totally_real, p


# --- every family keeps its trace form -------------------------------------------


@pytest.mark.parametrize(
    "make",
    [lambda: CyclicPoly(5, _tower16(), 16), lambda: A4Quartic((-1, 0, 0, -1, 1))],
    ids=["cyclic-poly", "a4-quartic"],
)
def test_a_polynomial_spec_builds_its_trace_form_once_across_calls(monkeypatch, make):
    counts = {}
    _count_calls(monkeypatch, counts, "trace_form", forms, galois)
    spec = make()
    assert counts == {}  # validating the polynomial builds no trace form
    decide_global(spec)
    invariant_report(spec)
    c_invariants(spec)
    if isinstance(spec, CyclicPoly):
        d_top(spec)
    else:
        with pytest.raises(ValueError, match="^the top unitary invariant lives on cyclic 2-power groups$"):
            d_top(spec)
    assert counts == {"trace_form": 1}


def test_every_family_keeps_one_trace_form():
    specs = [
        SplitAlgebra(GroupDescriptor.cyclic(8)), CyclicQuadratic(3, 3), CyclicQuartic(3, 2, 1, 1, 2),
        CyclicPoly(5, _tower16(), 16), D4Quadratic(3), A4Quartic((-1, 0, 0, -1, 1)), A5Quadratic(5),
    ]
    assert {type(spec) for spec in specs} == set(get_args(galois.GaloisAlgebraSpec))
    for spec in specs:
        q = galois.family_trace_form(spec)
        assert galois.family_trace_form(spec) is q, spec
        if hasattr(spec, "coeffs"):
            assert q == diagonalize(trace_form(spec.coeffs)), spec
    # a kept form is not a field: equality, hash and repr see the constructor arguments only
    assert CyclicPoly(5, _tower16(), 16) == specs[3] and hash(CyclicPoly(5, _tower16(), 16)) == hash(specs[3])
    assert "_form" not in repr(specs[3])


def test_a_kept_trace_form_is_not_charged_again_under_a_smaller_budget(monkeypatch):
    # x^4 + 8x + 12 is not normal, so its first trace form is a 4x4 Gram elimination charged 64 units.
    # A spec that has built it answers from the kept form under any budget afterwards, as a quartic
    # family's form set at construction does; a spec that has not raises on its first read.
    kept, fresh = A4Quartic((12, 8, 0, 0, 1)), A4Quartic((12, 8, 0, 0, 1))
    q = galois.family_trace_form(kept)
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "63")
    assert galois.family_trace_form(kept) is q and decide_global(kept).verdict == VERDICT_UNKNOWN
    with pytest.raises(BudgetExceededError, match="^Gram elimination of a 4x4 matrix: .* after 0 of 63 units"):
        galois.family_trace_form(fresh)
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "64")
    assert galois.family_trace_form(fresh) == q


def test_c_invariants_of_a_cyclic_poly_spec_read_no_trace_form(monkeypatch):
    # x^4 - 6x - 6 is not normal, so its trace form is a 4x4 Gram elimination charged 64 units.
    # The orthogonal factors of a cyclic group carry zero classes, so c_invariants never builds
    # the form; the report and the decision read it and raise under a budget it does not fit.
    counts = {}
    _count_calls(monkeypatch, counts, "trace_form", forms, galois)
    c_invariants(CyclicPoly(3, (-6, -6, 0, 0, 1), 4))
    assert counts == {}
    spec = CyclicPoly(3, (-6, -6, 0, 0, 1), 4)
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "63")
    entries = c_invariants(spec)
    assert [(e.factor_id, e.invariant, e.status) for e in entries] == [("triv", "c", "zero"), ("chi2", "c", "zero")]
    assert all(is_trivial(e.value) for e in entries)
    for call in (invariant_report, decide_global):
        with pytest.raises(BudgetExceededError, match="^Gram elimination of a 4x4 matrix: .* after 0 of 63 units"):
            call(spec)
