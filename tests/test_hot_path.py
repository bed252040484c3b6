"""Per-group and per-prime tables are built once; rationals are coerced once.

A repeated decision must not rebuild the factor table or the group, every
memo in the package is bounded, and the coercion shortcuts for ``int`` and
``Fraction`` arguments give the results and errors of ``Fraction(x)``.  A
decision orders no ``Fraction`` and compares none with an ``int``: signs,
zeros and the quartic relation are read off numerators and denominators.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from helpers import compose, random_quartic_params
from sdnb import (
    REAL,
    A4Quartic,
    A5Quadratic,
    CyclicPoly,
    CyclicQuadratic,
    CyclicQuartic,
    D4Quadratic,
    DiagonalForm,
    GroupDescriptor,
    Place,
    SplitAlgebra,
    c_invariants,
    cup,
    decide_global,
    decide_local,
    exact,
    factor,
    factors,
    finite,
    galois,
    hilbert,
    invariant_report,
    is_square,
    spec_from_json,
    spec_to_json,
    support_places,
    symbols,
)
from sdnb.symbols import is_square_in_completion

F = Fraction


# --- memo tables -----------------------------------------------------------------


def _memoized():
    """Every object with ``cache_info`` among the attributes of the sdnb modules and their classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "sdnb" and not name.startswith("sdnb."):
            continue
        for attr, value in vars(module).items():
            holders = [(f"{name}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == name:
                holders += [(f"{name}.{attr}.{k}", getattr(value, k)) for k in vars(value)]
            for where, obj in holders:
                if hasattr(obj, "cache_info"):
                    seen.setdefault(id(obj), (where, obj))
    return list(seen.values())


def test_every_memo_is_bounded():
    memos = _memoized()
    names = {where.rsplit(".", 1)[-1] for where, _ in memos}
    assert {"_factor_fraction", "_oracle_reduced", "decompose", "cyclic", "finite"} <= names
    for where, fn in memos:
        assert fn.cache_info().maxsize is not None, where


def test_a_polynomial_is_screened_once_per_process(monkeypatch):
    assert "_screened_irreducible" in {where.rsplit(".", 1)[-1] for where, _ in _memoized()}
    galois._screened_irreducible.cache_clear()
    tried = []
    screen = galois._irreducible_mod_p

    def recorded(coeffs, p, budget):
        tried.append(p)
        return screen(coeffs, p, budget)

    monkeypatch.setattr(galois, "_irreducible_mod_p", recorded)
    tower8 = [2, 0, -16, 0, 20, 0, -8, 0, 1]  # minimal polynomial of 2cos(2pi/32)
    spec_from_json({"group": "C16", "family": "cyclic-poly", "poly": tower8})
    assert tried == [3]
    spec_from_json({"group": "C8", "family": "cyclic-poly", "poly": tower8})
    galois.embedding_obstruction(tower8)
    assert tried == [3]


def test_finite_builds_each_place_once():
    assert finite(7) is finite(7)
    assert finite(7) == Place(7)
    assert finite(2**61 - 1) is finite(2**61 - 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="4 is not prime"):
            finite(4)
    assert all(v is REAL or v is finite(v.prime) for v in support_places([(6, F(-5, 7))]))


def _family_specs():
    return [
        SplitAlgebra(GroupDescriptor.cyclic(8)),
        SplitAlgebra(GroupDescriptor("abelian", (2, 12))),
        SplitAlgebra(GroupDescriptor("D4")),
        CyclicQuadratic(3, 5),
        CyclicQuadratic(4, F(-45, 8)),
        CyclicQuartic(3, 3, F(3, 2), F(3, 2), 2),
        CyclicPoly(3, (2, 0, -4, 0, 1), 4),
        D4Quadratic(3),
        A4Quartic((12, 8, 0, 0, 1)),
        A5Quadratic(5),
    ]


def test_a_warm_decision_builds_no_group_and_no_factor_table(monkeypatch):
    specs = _family_specs()
    first = [json.dumps(decide_global(spec).to_json()) for spec in specs]
    built = []
    for cls in (factors.GroupDescriptor, factors.FactorDescriptor):
        init = cls.__init__

        def counted(self, *args, init=init, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", counted)
    for spec, want in zip(specs, first):
        assert json.dumps(decide_global(spec).to_json()) == want
        assert built == [], (spec, built)


def test_a_cyclic_spec_builds_its_group_once(monkeypatch):
    specs = [CyclicQuadratic(3, 5), CyclicQuartic(3, 3, F(3, 2), F(3, 2), 2), CyclicPoly(3, (2, 0, -4, 0, 1), 4)]
    calls = []
    cyclic = GroupDescriptor.cyclic

    def counted(m):
        calls.append(m)
        return cyclic(m)

    monkeypatch.setattr(GroupDescriptor, "cyclic", staticmethod(counted))
    for spec in specs:
        assert spec.group == cyclic(8)
        for call in (decide_global, lambda s: decide_local(s, finite(3)), invariant_report, c_invariants,
                     spec_to_json):
            call(spec)
    assert calls == []


def test_a_quartic_decision_checks_the_family_relation_once(monkeypatch):
    calls = []
    checked = galois.quartic_family_form

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(galois, "quartic_family_form", counted)
    data = {"group": "C16", "family": "cyclic-quartic", "a": "-2", "b": "1", "c": "1", "eps": "2"}
    decision = decide_global(spec_from_json(data))
    assert decision.verdict in ("yes", "no")
    assert calls == [(F(-2), F(1), F(1), F(2))]


def test_a_quartic_spec_keeps_the_trace_form_it_validated(monkeypatch):
    made, built = [], []
    checked = galois.quartic_family_form

    def recorded(*args):
        made.append(checked(*args))
        return made[-1]

    init = DiagonalForm.__init__

    def counted(self, entries):
        built.append(entries)
        init(self, entries)

    monkeypatch.setattr(galois, "quartic_family_form", recorded)
    monkeypatch.setattr(DiagonalForm, "__init__", counted)
    data = {"group": "C16", "family": "cyclic-quartic", "a": "-2", "b": "1", "c": "1", "eps": "2"}
    spec = spec_from_json(data)
    decide_global(spec)
    assert len(built) == 3, built  # <1, eps, a, a>, then <2> and the sum the top class reads
    assert len(made) == 1 and galois.family_trace_form(spec) is made[0]

def test_a_cup_reads_each_factorization_once_and_tests_no_place(monkeypatch):
    rng = random.Random(2019)
    pairs = [(F(rng.randint(-300, 300) or 1, rng.randint(1, 40)), rng.choice((-1, 2, F(-9, 4), 45)))
             for _ in range(200)]
    pairs += [((2**31 - 1) * (2**61 - 1), -(2**61 - 1)), (-8, -8), (F(7, 12), 7)]
    want = [cup(a, b) for a, b in pairs]
    factor_fraction = exact._factor_fraction
    factored = []

    def recorded(num, den):
        factored.append((num, den))
        return factor_fraction(num, den)

    def forbidden(*args):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(exact, "_factor_fraction", recorded)
    monkeypatch.setattr(symbols, "_local_parts", forbidden)
    monkeypatch.setattr(symbols, "support_places", forbidden)
    for (a, b), w in zip(pairs, want):
        factored.clear()
        assert cup(a, b) == w, (a, b)
        assert factored == [(F(a).numerator, F(a).denominator), (F(b).numerator, F(b).denominator)]
    monkeypatch.undo()
    # the per-place symbols stay on trial division
    monkeypatch.setattr(exact, "_factor_fraction", forbidden)
    for (a, b), w in zip(pairs, want):
        for v in _PLACES:
            assert (hilbert(a, b, v) == -1) == (v in w.ramified), (a, b, v)
            assert is_square_in_completion(a, v) in (True, False)


# --- coercion parity ---------------------------------------------------------------


def _forms(q: Fraction) -> list:
    """q as a Fraction, as strings (reduced and not), and as an int when integral."""
    out = [q, str(q), f"{2 * q.numerator}/{2 * q.denominator}"]
    if q.denominator == 1:
        out.append(q.numerator)
    if q == 1:
        out.append(True)
    return out


def _grid():
    rng = random.Random(2016)
    qs = [F(1), F(-1), F(2), F(-3, 4), F(45, 8)]
    qs += [F(rng.randint(-300, 300) or 1, rng.randint(1, 40)) for _ in range(40)]
    qs += [F(rng.randint(-300, 300) or 7) for _ in range(20)]
    return qs


_PLACES = [REAL] + [Place(p) for p in (2, 3, 5, 7, 11)]


def test_int_fraction_str_and_bool_arguments_agree():
    qs = _grid()
    for a, b in zip(qs, qs[1:] + qs[:1]):
        want_cup = cup(a, b)
        want_support = support_places([(a, b)])
        want_form = DiagonalForm([a, b])
        for x in _forms(a):
            assert factor(x) == factor(a), x
            for v in _PLACES:
                assert is_square_in_completion(x, v) == is_square_in_completion(a, v), (x, v)
            for y in _forms(b):
                assert cup(x, y) == want_cup, (x, y)
                assert support_places([(x, y)]) == want_support, (x, y)
                form = DiagonalForm([x, y])
                assert form == want_form and str(form) == str(want_form), (x, y)
                assert all(type(e) is Fraction for e in form.entries)
                for v in _PLACES:
                    assert hilbert(x, y, v) == hilbert(a, b, v), (x, y, v)


# the messages raised for a zero argument, as the parent of this change raised them
_ZERO_TEXT = {
    "factor": "cannot factor zero",
    "hilbert": "local symbols need nonzero rationals",
    "hilbert-second": "local symbols need nonzero rationals",
    "cup": "cup product arguments must be nonzero",
    "cup-second": "cup product arguments must be nonzero",
    "square": "local symbols need nonzero rationals",
    "support": "support of a zero entry is undefined",
    "form": "diagonal entries must be nonzero",
}

_CALLS = {
    "factor": lambda x: factor(x),
    "hilbert": lambda x: hilbert(x, 3, Place(3)),
    "hilbert-second": lambda x: hilbert(3, x, REAL),
    "cup": lambda x: cup(x, 5),
    "cup-second": lambda x: cup(5, x),
    "square": lambda x: is_square_in_completion(x, Place(2)),
    "support": lambda x: support_places([(3, x)]),
    "form": lambda x: DiagonalForm([1, x]),
}


def _raised(fn, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_zero_and_malformed_arguments_raise_as_before(name):
    call = _CALLS[name]
    for zero in (0, F(0), "0", "0/7", False):
        assert _raised(call, zero) == (ValueError, _ZERO_TEXT[name]), zero
    # anything that is not an int or a Fraction still goes through Fraction first
    for bad in ("abc", "1/0", "", None, [1]):
        assert _raised(call, bad) == _raised(Fraction, bad), bad


def test_the_first_bad_argument_decides_the_error():
    assert _raised(cup, 0, "abc") == (ValueError, _ZERO_TEXT["cup"])
    assert _raised(cup, "abc", 0) == _raised(Fraction, "abc")
    assert _raised(hilbert, 0, "abc", REAL) == (ValueError, _ZERO_TEXT["hilbert"])
    assert _raised(support_places, [(0, "abc")]) == (ValueError, _ZERO_TEXT["support"])
    # a diagonal form coerces every entry before it looks for a zero
    assert _raised(DiagonalForm, [0, "abc"]) == _raised(Fraction, "abc")
    assert _raised(DiagonalForm, []) == (ValueError, "a diagonal form needs at least one entry")


# --- signs, zeros and relations off numerators ------------------------------------


def _decision_specs() -> list[dict]:
    """Seeded JSON specs of the four small-height decision families and the 2cos(2 pi / 2^k) tower."""
    rng = random.Random(3304)

    def rational():
        return F(rng.choice((1, -1)) * rng.randint(1, 300), rng.randint(1, 300))

    specs = []
    for _ in range(12):
        a, b, c, eps = random_quartic_params(rng)
        for order in (8, 16):
            specs.append({"group": f"C{order}", "family": "cyclic-quartic",
                          "a": str(a), "b": str(b), "c": str(c), "eps": str(eps)})
        z = rational()
        while is_square(z):
            z = rational()
        for order in (4, 8, 16):
            specs.append({"group": f"C{order}", "family": "cyclic-quadratic", "z": str(z)})
        specs.append({"group": "D4", "family": "d4-quadratic", "z": str(rational())})
        specs.append({"group": "A5", "family": "a5-quadratic", "z": rng.choice((-1, 1)) * rng.randint(1, 300)})
    f = [2, 0, -4, 0, 1]
    for deg in (4, 8, 16):
        for t in range(-3, 4):
            for order in (deg, 2 * deg):
                specs.append({"group": f"C{order}", "family": "cyclic-poly", "poly": compose(f, [t, 1]), "degree": deg})
        f = compose(f, [-2, 0, 1])
    return specs


def test_a_decision_orders_and_zero_tests_no_fraction(monkeypatch):
    # Fraction's comparisons are pure Python; the decision reads signs, zeros and the
    # quartic relation off numerators and denominators instead
    specs, at = _decision_specs(), Place(3)
    counts = {}

    def counted(name, method, ints_only):
        def call(self, other):
            if not ints_only or type(other) is int:
                counts[name] = counts.get(name, 0) + 1
            return method(self, other)
        return call

    for name in ("__lt__", "__gt__", "__le__", "__ge__", "__eq__"):
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name), name == "__eq__"))
    for data in specs:
        spec = spec_from_json(data)
        json.dumps([decide_global(spec).to_json(), decide_local(spec, at).to_json(),
                    invariant_report(spec).to_json()])
        assert counts == {}, (data, counts)
    assert len(specs) == 42 + 12 * 7
