"""Documented ValueErrors of the library, each with its exact message, and their CLI exit code."""

import json
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from sdnb import brauer, exact, factors, forms, galois, symbols
from sdnb.cli import main
from sdnb.factors import GroupDescriptor
from sdnb.symbols import Place

CASES = [
    pytest.param(lambda: galois.CyclicPoly(1, (1, 0, 1), 2),
                 "cyclic polynomial family needs n >= 2", id="poly-n1"),
    pytest.param(lambda: galois.CyclicPoly(3, (1, 1, 0, 1), 3),
                 "degree must be a power of 2", id="poly-degree3"),
    pytest.param(lambda: galois.CyclicPoly(2, (1, 0, 0, 0, 0, 0, 0, 0, 1), 8),
                 "degree 8 exceeds the group order 2^2", id="poly-degree8-in-C4"),
    pytest.param(lambda: galois.c_invariants(galois.CyclicPoly(2, (2, 0, -4, 0, 1), 4)),
                 "invariants undefined: degree-one invariants do not vanish", id="c-invariants-h1"),
    pytest.param(lambda: galois.spec_from_json({"group": "C8", "family": "cyclic-poly",
                                                "poly": [2, 0, -4, 0, 1], "degree": 4.5}),
                 "degree must be an integer, got 4.5", id="degree-4.5"),
    pytest.param(lambda: brauer.splits_in_quadratic(Place(3), 4),
                 "Q(sqrt(d)) requires a nonsquare d", id="splits-square"),
    pytest.param(lambda: factors.local_data(0, Place(3)),
                 "conductor must be >= 1", id="conductor-0"),
    pytest.param(lambda: GroupDescriptor("D4", (2,)),
                 "invariant factors only apply to abelian groups", id="d4-factors"),
    pytest.param(lambda: GroupDescriptor("S3"), "unsupported group kind 'S3'", id="kind-s3"),
    pytest.param(lambda: GroupDescriptor("abelian", ()),
                 "invariant factors must be a nonempty list of ints >= 2", id="abelian-no-factors"),
    pytest.param(lambda: GroupDescriptor("abelian", (1,)),
                 "invariant factors must be a nonempty list of ints >= 2", id="abelian-factor-1"),
    pytest.param(lambda: GroupDescriptor("abelian", (2.0,)),
                 "invariant factors must be a nonempty list of ints >= 2", id="abelian-float-factor"),
    pytest.param(lambda: GroupDescriptor("abelian", (2, 4.0)),
                 "invariant factors must be a nonempty list of ints >= 2", id="abelian-float-second-factor"),
    pytest.param(lambda: GroupDescriptor("abelian", ("2",)),
                 "invariant factors must be a nonempty list of ints >= 2", id="abelian-str-factor"),
    pytest.param(lambda: GroupDescriptor("abelian", 8),
                 "invariant factors must be a nonempty list of ints >= 2", id="abelian-int-factors"),
    pytest.param(lambda: factors.FactorDescriptor("x", factors.FactorKind.ORTHOGONAL, 1, "cubic"),
                 "unknown center descriptor 'cubic'", id="center-cubic"),
    pytest.param(lambda: symbols.place_from_json("1e3"), 'a place is "real" or a prime, got \'1e3\'',
                 id="place-1e3"),
    pytest.param(lambda: symbols.place_from_json("4"), "4 is not prime", id="place-4"),
    pytest.param(lambda: symbols.place_from_json(3.7), 'a place is "real" or a prime, got 3.7', id="place-3.7"),
    pytest.param(lambda: symbols.place_from_json(Fraction(7, 2)),
                 'a place is "real" or a prime, got Fraction(7, 2)', id="place-fraction"),
    pytest.param(lambda: symbols.place_from_json(float("inf")), 'a place is "real" or a prime, got inf',
                 id="place-inf"),
    pytest.param(lambda: symbols.place_from_json(float("nan")), 'a place is "real" or a prime, got nan',
                 id="place-nan"),
    pytest.param(lambda: Place(7.0), "a finite place needs an int prime, got 7.0", id="place-float-prime"),
    pytest.param(lambda: Place(7.5), "a finite place needs an int prime, got 7.5", id="place-7.5"),
    pytest.param(lambda: Place("7"), "a finite place needs an int prime, got '7'", id="place-str-prime"),
    pytest.param(lambda: symbols.finite(7.0), "a finite place needs an int prime, got 7.0", id="finite-float"),
    pytest.param(lambda: symbols.hilbert_oracle(3, 5, 7.0), "a finite place needs an int prime, got 7.0",
                 id="oracle-float-prime"),
    pytest.param(lambda: Place(True), "True is not prime", id="place-bool"),
    pytest.param(lambda: galois.spec_from_json({"group": "C8", "family": "cyclic-poly", "poly": [2, "x", 1]}),
                 "poly must be an integer, got 'x'", id="poly-string-coefficient"),
    pytest.param(lambda: galois.embedding_obstruction(["x", 1, 0, 0, 1]),
                 "polynomial must have integer coefficients", id="embed-string-coefficient"),
    pytest.param(lambda: factors.decompose(galois.parse_group("C200560490130")),
                 "group exponent 200560490130 gives more than 1024 factors", id="too-many-factors"),
    pytest.param(lambda: exact.euler_phi(0), "euler_phi needs m >= 1", id="euler-phi-0"),
    pytest.param(lambda: exact.mult_order(2, 0), "modulus must be positive", id="mult-order-0"),
    pytest.param(lambda: forms.isotropy_witness_ternary(forms.DiagonalForm([1, -1])),
                 "witness search is for ternary forms", id="witness-binary"),
    pytest.param(lambda: forms.GramMatrix([]), "Gram matrix must be square and nonempty", id="gram-empty"),
    pytest.param(lambda: forms.sum_of_four_squares(0), "zero input", id="four-squares-0"),
    pytest.param(lambda: forms.sum_of_two_squares_over_sqrt2(0), "zero input", id="two-squares-0"),
    pytest.param(lambda: symbols.hilbert_oracle(0, 1, 3), "oracle arguments must be nonzero", id="oracle-zero"),
    pytest.param(lambda: symbols.hilbert_oracle(1, 1, 4), "4 is not prime", id="oracle-not-prime"),
    pytest.param(lambda: exact.FactoredRational(1, ((2, 0),)), "zero exponent in factorization", id="zero-exponent"),
]


@pytest.mark.parametrize("call, message", CASES)
def test_documented_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_nonpositive_budget_is_rejected(monkeypatch):
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "0")
    with pytest.raises(ValueError, match="^SDNB_FACTOR_BUDGET must be positive$"):
        exact.WorkBudget("factoring 6")


@pytest.mark.parametrize(
    "group, poly, message",
    [
        ("C4", "1,0,0,0,0,0,0,0,1", "degree 8 exceeds the group order 2^2"),
        ("C8", "1,1,0,1", "degree must be a power of 2"),
        ("C2", "1,0,1", "cyclic polynomial family needs n >= 2"),
    ],
)
def test_cyclic_poly_errors_exit_65(capsys, group, poly, message):
    code = main(["decide", "--family", "cyclic-poly", "--group", group, f"--poly={poly}"])
    captured = capsys.readouterr()
    assert code == 65 and captured.out == ""
    assert json.loads(captured.err) == {"error": "bad-input", "message": message}


INF = float("inf")

# every public entry point that coerces a rational, each given an infinite float
INFINITE_INPUTS = [
    pytest.param(lambda x: exact.factor(x), id="factor"),
    pytest.param(lambda x: exact.is_square(x), id="is_square"),
    pytest.param(lambda x: exact.squarefree_part(x), id="squarefree_part"),
    pytest.param(lambda x: symbols.hilbert(x, 3, symbols.REAL), id="hilbert-real"),
    pytest.param(lambda x: symbols.hilbert(3, x, Place(5)), id="hilbert-finite"),
    pytest.param(lambda x: symbols.support_places([(x, 3)]), id="support_places"),
    pytest.param(lambda x: brauer.cup(x, 3), id="cup-a"),
    pytest.param(lambda x: brauer.cup(3, x), id="cup-b"),
    pytest.param(lambda x: brauer.splits_in_quadratic(Place(3), x), id="splits_in_quadratic"),
    pytest.param(lambda x: brauer.restricts_trivially_to_quadratic(brauer.TRIVIAL, x),
                 id="restricts_trivially_to_quadratic"),
    pytest.param(lambda x: forms.DiagonalForm([1, x]), id="DiagonalForm"),
    pytest.param(lambda x: forms.GramMatrix([[1, 0], [0, x]]), id="GramMatrix"),
    pytest.param(lambda x: forms.quartic_family_form(2, 1, 1, x), id="quartic_family_form"),
    pytest.param(lambda x: forms.represents(forms.DiagonalForm([1, 1]), x), id="represents"),
    pytest.param(lambda x: forms.sum_of_two_squares(x), id="sum_of_two_squares"),
    pytest.param(lambda x: forms.sum_of_four_squares(x), id="sum_of_four_squares"),
    pytest.param(lambda x: forms.sum_of_two_squares_over_sqrt2(x), id="sum_of_two_squares_over_sqrt2"),
    pytest.param(lambda x: galois.CyclicQuadratic(8, x), id="CyclicQuadratic"),
    pytest.param(lambda x: galois.CyclicQuartic(8, x, 1, 1, 2), id="CyclicQuartic"),
    pytest.param(lambda x: galois.D4Quadratic(x), id="D4Quadratic"),
    pytest.param(lambda x: galois.A5Quadratic(x), id="A5Quadratic"),
    pytest.param(lambda x: galois.quartic_family_polynomial(2, 1, 1, x), id="quartic_family_polynomial"),
]


@pytest.mark.parametrize("value", [INF, -INF], ids=["inf", "-inf"])
@pytest.mark.parametrize("call", INFINITE_INPUTS)
def test_an_infinite_float_is_a_value_error(call, value):
    # the documented failure, as for NaN, rather than Fraction's OverflowError
    with pytest.raises(ValueError, match="^cannot convert Infinity to integer ratio$"):
        call(value)


def test_a_spec_file_nested_too_deeply_exits_65(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code = main(["decide", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 65 and captured.out == ""
    report = json.loads(captured.err)
    assert report["error"] == "bad-input" and "recursion" in report["message"]


# inputs whose decimal exponent exceeds 4300 in absolute value, each with the string its error names and the
# words before it (a spec's field names itself)
HUGE_EXPONENTS = [
    pytest.param(lambda: exact.parse_rational("1e1000000"), "1e1000000", "", id="parse_rational"),
    pytest.param(lambda: exact.parse_rational(" -2.5E-4301 "), "-2.5E-4301", "", id="parse_rational-negative"),
    pytest.param(lambda: exact.as_fraction("3e+300000"), "3e+300000", "", id="as_fraction"),
    pytest.param(lambda: exact.as_fraction("1e1_000_000"), "1e1_000_000", "", id="as_fraction-underscores"),
    pytest.param(lambda: symbols.hilbert("1e1000000", 3, Place(7)), "1e1000000", "", id="hilbert"),
    pytest.param(lambda: forms.DiagonalForm(["1e1000000", 1, 1]), "1e1000000", "", id="DiagonalForm"),
    pytest.param(lambda: galois.CyclicQuadratic(3, "3e300000"), "3e300000", "", id="CyclicQuadratic"),
    pytest.param(lambda: galois.spec_from_json({"group": "C8", "family": "cyclic-quadratic", "z": "3e300000"}),
                 "3e300000", "z must be a rational number: ", id="spec_from_json"),
]


@pytest.mark.parametrize("call, text, prefix", HUGE_EXPONENTS)
def test_a_decimal_exponent_beyond_4300_is_a_value_error_before_any_work(call, text, prefix):
    start = time.perf_counter()
    message = f"{prefix}exponent of {text!r} exceeds 4300 in absolute value"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    assert time.perf_counter() - start < 0.05


def test_decimal_exponents_up_to_4300_and_malformed_strings_are_unchanged():
    assert exact.parse_rational("1e4300") == 10**4300
    assert exact.parse_rational("-1E-4300") == Fraction(-1, 10**4300)
    assert exact.as_fraction("2.5e+3") == 2500 and exact.parse_rational("3") == 3
    for text, message in [("1e", "Invalid literal for Fraction: '1e'"), ("x", "Invalid literal for Fraction: 'x'"),
                          ("1e5/2", "Invalid literal for Fraction: '1e5/2'"), ("1/0", "zero denominator in '1/0'")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exact.parse_rational(text)


@pytest.mark.parametrize("call, value", [
    pytest.param(exact.as_fraction, Decimal("1e1000000"), id="as_fraction"),
    pytest.param(lambda d: symbols.hilbert(d, 3, Place(7)), Decimal("1e-1000000"), id="hilbert"),
])
def test_a_decimal_with_an_exponent_beyond_4300_is_a_value_error_before_any_work(call, value):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^exponent of {re.escape(repr(value))} exceeds 4300 in absolute value$"):
        call(value)
    assert time.perf_counter() - start < 0.05


def test_decimals_up_to_4300_and_non_finite_decimals_are_unchanged():
    assert exact.as_fraction(Decimal("1e4300")) == 10**4300
    assert exact.as_fraction(Decimal("-2.5E-4299")) == Fraction(-25, 10**4300)
    # NaN, sNaN and Infinity store no integer exponent: Fraction refuses them, as before
    for text, message in [("NaN", "cannot convert NaN to integer ratio"), ("sNaN", "cannot convert NaN to integer ratio"),
                          ("-Infinity", "cannot convert Infinity to integer ratio")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            exact.as_fraction(Decimal(text))


@pytest.mark.parametrize("call", [
    pytest.param(exact.as_fraction, id="as_fraction"),
    pytest.param(lambda d: symbols.hilbert(d, 3, Place(7)), id="hilbert"),
])
@pytest.mark.parametrize("value, digits", [
    pytest.param(Decimal("9" * 4301), 4301, id="4301-digits"),
    pytest.param(Decimal("-1." + "0" * 4300), 4301, id="4301-digits-exponent-4300"),
    pytest.param(Decimal("9" * 10**5), 10**5, id="100000-digits"),
])
def test_a_decimal_of_more_than_4300_digits_is_a_value_error_before_any_work(call, value, digits):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^a Decimal of {digits} digits exceeds the limit of 4300 digits$"):
        call(value)
    assert time.perf_counter() - start < 0.05


def test_a_decimal_of_4300_digits_still_converts_exactly():
    assert exact.as_fraction(Decimal("9" * 4300)) == 10**4300 - 1
    assert exact.as_fraction(Decimal("-1." + "2" * 4299)) == Fraction(-int("1" + "2" * 4299), 10**4299)
    assert symbols.hilbert(Decimal("9" * 4300), 3, Place(7)) == symbols.hilbert(10**4300 - 1, 3, Place(7))


@pytest.mark.parametrize("argv", [
    ["hilbert", "1e1000000", "3", "7"],
    ["form", "--diag", "1e1000000,1,1"],
    ["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "3e300000"],
])
def test_a_decimal_exponent_beyond_4300_exits_65(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 65 and captured.out == ""
    assert json.loads(captured.err)["message"].endswith("exceeds 4300 in absolute value")


def test_a_decimal_exponent_of_4300_is_still_read(capsys):
    assert main(["hilbert", "1e4300", "3", "7"]) == 0
    assert capsys.readouterr().out == "1\n"


# every library entry point that refuses a zero rational argument, with the message it raises
NONZERO_ARGUMENTS = {
    "factor": (exact.factor, "cannot factor zero"),
    "hilbert": (lambda x: symbols.hilbert(3, x, Place(3)), "local symbols need nonzero rationals"),
    "is_square_in_completion": (lambda x: symbols.is_square_in_completion(x, Place(2)),
                                "local symbols need nonzero rationals"),
    "support_places": (lambda x: symbols.support_places([(3, x)]), "support of a zero entry is undefined"),
    "cup": (lambda x: brauer.cup(x, 5), "cup product arguments must be nonzero"),
    "represents": (lambda x: forms.represents(forms.DiagonalForm([1, 1]), x),
                   "representation of 0 is isotropy; pass a nonzero value"),
    "sum_of_two_squares": (forms.sum_of_two_squares, "zero input"),
    "sum_of_four_squares": (forms.sum_of_four_squares, "zero input"),
    "sum_of_two_squares_over_sqrt2": (forms.sum_of_two_squares_over_sqrt2, "zero input"),
    "D4Quadratic": (galois.D4Quadratic, "z must be nonzero"),
    "CyclicQuadratic": (lambda x: galois.CyclicQuadratic(3, x), "z must be nonzero"),
}


def _outcome(call, x):
    try:
        return "returned", call(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:  # what Fraction(x) raises on a bad x
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(NONZERO_ARGUMENTS))
def test_each_entry_point_refusing_zero_keeps_its_message_and_coerces_like_fraction(name):
    call, message = NONZERO_ARGUMENTS[name]
    for zero in (0, Fraction(0), "0", "0/7", False):
        assert _outcome(call, zero) == (ValueError, message), zero
    for bad in ("abc", "1/0", None, [1]):
        assert _outcome(call, bad) == _outcome(Fraction, bad), bad
    # int, Fraction, str and bool forms of one value give equal results or equal errors
    for forms_of_value in ([1, Fraction(1), "1", "2/2", True], [-12, Fraction(-12), "-12", "-24/2"],
                           [Fraction(45, 8), "45/8", "90/16"], [Fraction(-3, 7), "-3/7"]):
        outcomes = [_outcome(call, x) for x in forms_of_value]
        assert all(o == outcomes[0] for o in outcomes), (forms_of_value, outcomes)


# the three readers of an integer from outside, each with its own message
INTEGER_READERS = {
    "spec poly": (lambda x: galois.spec_from_json({"group": "C8", "family": "cyclic-poly", "poly": [x, 0, -4, 0, 1]}),
                  "poly must be an integer, got {!r}"),
    "embedding_obstruction": (lambda x: galois.embedding_obstruction([x, 0, -4, 0, 1]),
                              "polynomial must have integer coefficients"),
    "place_from_json": (symbols.place_from_json, 'a place is "real" or a prime, got {!r}'),
}


@pytest.mark.parametrize("value, read", [
    (2, True), ("2", True), (2.0, True), (Fraction(2), True),
    (True, False), (2.5, False), ("x", False), (float("inf"), False),
], ids=["2", "'2'", "2.0", "Fraction(2)", "True", "2.5", "'x'", "inf"])
def test_the_integer_readers_agree_on_which_values_are_integers(value, read):
    for name, (call, message) in INTEGER_READERS.items():
        if read:
            assert call(value) == call(2), name
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
                call(value)
