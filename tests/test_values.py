"""Value semantics of the package's immutable classes, and what importing the CLI loads."""

import copy
import math
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sdnb
from sdnb import brauer, cli, exact, factors, forms, galois, symbols
from sdnb.factors import FactorKind, GroupDescriptor

F = Fraction

# the fields of every value class, in constructor order
FIELDS = {
    "FactoredRational": ("sign", "factors"),
    "Place": ("prime",),
    "BrauerClass": ("ramified",),
    "GroupDescriptor": ("kind", "invariant_factors"),
    "FactorDescriptor": ("id", "kind", "conductor", "e_kind", "note"),
    "DiagonalForm": ("entries",),
    "GramMatrix": ("rows",),
    "SplitAlgebra": ("group",),
    "CyclicQuadratic": ("n", "z"),
    "CyclicQuartic": ("n", "a", "b", "c", "eps"),
    "CyclicPoly": ("n", "coeffs", "degree"),
    "D4Quadratic": ("z",),
    "A4Quartic": ("coeffs",),
    "A5Quadratic": ("z",),
    "InvariantEntry": ("factor_id", "invariant", "status", "value", "note"),
    "InvariantReport": ("h1", "entries", "trace_diagonal", "det_class", "signature"),
    "CertificateRow": ("condition", "factor", "place", "passed", "detail"),
    "Decision": ("verdict", "certificate"),
}


def _pairs():
    """Two unequal values of every class."""
    quadratic, quartic = galois.CyclicQuadratic(3, 3), galois.CyclicQuartic(3, 3, F(3, 2), F(3, 2), 2)
    yes, no = galois.decide_global(quadratic), galois.decide_global(galois.CyclicQuadratic(3, -1))
    report = galois.invariant_report(quartic)
    return [
        (exact.factor(F(-12, 5)), exact.factor(12)),
        (symbols.Place(7), symbols.REAL),
        (brauer.cup(-1, -1), brauer.TRIVIAL),
        (GroupDescriptor("D4"), GroupDescriptor("abelian", (2, 4))),
        (factors.decompose(GroupDescriptor.cyclic(8))[-1],
         factors.FactorDescriptor("x", FactorKind.DEGREE_ONE, 3, "Q", note="n")),
        (forms.DiagonalForm([1, F(1, 2)]), forms.DiagonalForm([1, 2])),
        (forms.GramMatrix([[1, F(1, 2)], [F(1, 2), 5]]), forms.GramMatrix([[2, 1], [1, 1]])),
        (galois.SplitAlgebra(GroupDescriptor.cyclic(8)), galois.SplitAlgebra(GroupDescriptor("D4"))),
        (quadratic, galois.CyclicQuadratic(4, 3)),
        (quartic, galois.CyclicQuartic(4, 3, F(3, 2), F(3, 2), 2)),
        (galois.CyclicPoly(4, (2, 0, -4, 0, 1), 4), galois.CyclicPoly(3, (2, 0, -4, 0, 1), 4)),
        (galois.D4Quadratic(3), galois.D4Quadratic(5)),
        (galois.A4Quartic((12, 8, 0, 0, 1)), galois.A4Quartic((-3, 4, 0, 0, 1))),
        (galois.A5Quadratic(5), galois.A5Quadratic(3)),
        (report.entries[0], report.entries[-1]),
        (report, galois.invariant_report(quadratic)),
        (yes.certificate[0], yes.certificate[1]),
        (yes, no),
    ]


PAIRS = _pairs()
IDS = [type(x).__name__ for x, _ in PAIRS]


def _fields(x):
    return tuple(getattr(x, name) for name in FIELDS[type(x).__name__])


def test_every_value_class_is_covered():
    found = set()
    for module in (exact, symbols, brauer, factors, forms, galois):
        for value in vars(module).values():
            eq = getattr(value, "__eq__", None)
            if isinstance(value, type) and getattr(eq, "__qualname__", "").startswith("frozen."):
                found.add(value.__name__)
    assert found == set(FIELDS) == set(IDS)


@pytest.mark.parametrize("x", [x for x, _ in PAIRS], ids=IDS)
def test_match_args_are_the_fields(x):
    assert type(x).__match_args__ == FIELDS[type(x).__name__]


@pytest.mark.parametrize("x, y", PAIRS, ids=IDS)
def test_equality_needs_the_same_class_and_the_same_fields(x, y):
    cls = type(x)
    assert type(y) is cls and x != y and not x == y
    twin = cls(*_fields(x))
    assert twin == x and not twin != x and twin is not x
    assert x.__eq__(_fields(x)) is NotImplemented and x != _fields(x)
    sub = object.__new__(type("Sub", (cls,), {}))
    object.__setattr__(sub, "__dict__", dict(vars(x)))
    assert x != sub and sub != x


def test_one_field_classes_with_equal_fields_differ():
    assert galois.D4Quadratic(3) != galois.A5Quadratic(3)
    assert hash(galois.D4Quadratic(3)) == hash(galois.A5Quadratic(3)) == hash((F(3),))


@pytest.mark.parametrize("x, y", PAIRS, ids=IDS)
def test_hash_is_the_hash_of_the_fields(x, y):
    assert hash(x) == hash(_fields(x))
    assert hash(type(x)(*_fields(x))) == hash(x)
    assert len({x, y, copy.copy(x)}) == 2


@pytest.mark.parametrize("x, y", PAIRS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(x, y):
    for name in FIELDS[type(x).__name__] + ("other",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    assert _fields(x) == _fields(copy.copy(x))


@pytest.mark.parametrize("x, y", PAIRS, ids=IDS)
def test_pickle_and_copy_round_trip(x, y):
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is type(x) and clone == x and hash(clone) == hash(x)
        assert repr(clone) == repr(x)
        with pytest.raises(AttributeError):
            setattr(clone, FIELDS[type(x).__name__][0], 1)
    if isinstance(x, forms.GramMatrix):
        assert math.prod(forms.diagonalize(pickle.loads(pickle.dumps(x))).entries) == math.prod(forms.diagonalize(x).entries)


def test_keywords_and_defaults():
    assert symbols.Place() == symbols.Place(prime=None) == symbols.REAL
    assert GroupDescriptor("D4") == GroupDescriptor("D4", ()) == GroupDescriptor(kind="D4")
    entry = galois.InvariantEntry("std3", "c", "computed", brauer.TRIVIAL, note="conditional")
    assert entry.note == "conditional" and galois.InvariantEntry("x", "c", "zero", None).note == ""
    fd = factors.FactorDescriptor("x", FactorKind.DEGREE_ONE, 3, "Q", note="n")
    assert fd.note == "n" and factors.FactorDescriptor("x", FactorKind.DEGREE_ONE, 3, "Q").note == ""
    assert galois.CyclicQuadratic(n=3, z=3) == galois.CyclicQuadratic(3, "3")


def test_checks_still_run_at_construction():
    for build in (
        lambda: symbols.Place(8),
        lambda: brauer.BrauerClass(frozenset({symbols.REAL})),
        lambda: exact.FactoredRational(2, ()),
        lambda: exact.FactoredRational(1, ((3, 1), (2, 1))),
        lambda: GroupDescriptor("Q8"),
        lambda: GroupDescriptor("abelian", (4, 2)),
        lambda: factors.FactorDescriptor("x", FactorKind.DEGREE_ONE, 3, "R"),
        lambda: galois.Decision(galois.VERDICT_NO, ()),
        lambda: galois.Decision(galois.VERDICT_YES, (galois.CertificateRow("h1", None, "H1", False, ""),)),
    ):
        with pytest.raises(ValueError):
            build()


def test_reprs_match_the_dataclass_texts():
    assert repr(symbols.Place(7)) == "Place(prime=7)"
    assert repr(galois.CyclicPoly(4, (2, 0, -4, 0, 1), 4)) == "CyclicPoly(n=4, coeffs=(2, 0, -4, 0, 1), degree=4)"
    assert repr(galois.CyclicQuadratic(3, 3)) == "CyclicQuadratic(n=3, z=Fraction(3, 1))"
    assert repr(exact.factor(F(-12, 5))) == "FactoredRational(sign=-1, factors=((2, 2), (3, 1), (5, -1)))"
    assert repr(GroupDescriptor("D4")) == "GroupDescriptor(kind='D4', invariant_factors=())"
    assert repr(forms.GramMatrix([[1, F(1, 2)], [F(1, 2), 5]])) == (
        "GramMatrix(rows=((1, Fraction(1, 2)), (Fraction(1, 2), 5)))"
    )
    assert repr(galois.SplitAlgebra(GroupDescriptor.cyclic(8))) == (
        "SplitAlgebra(group=GroupDescriptor(kind='abelian', invariant_factors=(8,)))"
    )
    assert repr(galois.CertificateRow("h1", None, "H1", True, "degree-one invariants vanish")) == (
        "CertificateRow(condition='h1', factor=None, place='H1', passed=True, detail='degree-one invariants vanish')"
    )


def test_gram_matrix_compares_its_rows_only():
    g = forms.GramMatrix([[2, 1], [1, 3]])
    pivot_built = forms.trace_form((-1, -1, 1))  # x^2 - x - 1, whose power sums are 2, 1, 3
    assert "_coeffs" in vars(pivot_built) and "_coeffs" not in vars(g)
    assert pivot_built == g
    assert "_scale" not in repr(g) and "_pivots" not in repr(g)


def test_a_trace_form_built_from_its_pivots_is_a_value_like_any_other():
    coeffs = (2, 0, -64, 0, 336, 0, -672, 0, 660, 0, -352, 0, 104, 0, -16, 0, 1)  # 2cos(2pi/64), degree 16
    rows = forms._power_sum_rows(coeffs)
    pivots = forms.trace_form(coeffs)._pivots
    other = forms.GramMatrix(rows)
    # each comparison on a fresh trace form, so that it is the first read of the rows
    assert forms.trace_form(coeffs) == other and other == forms.trace_form(coeffs)
    assert hash(forms.trace_form(coeffs)) == hash(other)
    assert repr(forms.trace_form(coeffs)) == repr(other)
    assert pickle.loads(pickle.dumps(forms.trace_form(coeffs))) == other == copy.copy(forms.trace_form(coeffs))
    assert other._pivots == pivots
    for read_first in (False, True):
        g = forms.trace_form(coeffs)
        if read_first:
            assert g.rows == rows
        with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
            g.rows = rows
        with pytest.raises(AttributeError, match="cannot delete field 'rows'"):
            del g.rows
        assert g.rows == rows


# --- what importing the CLI loads ------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # run against the same sdnb this test imported, wherever it lives
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (
        "import sys; before = set(sys.modules); import sdnb.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


def test_no_generated_code_in_the_package():
    for path in Path(sdnb.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert not re.search(r"\b(exec|eval)\s*\(", text), path.name
        assert not re.search(r"^\s*(import|from) dataclasses\b", text, re.M), path.name
