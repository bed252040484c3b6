"""Numbers past CPython's limit on int-to-text digits (4300 by default): answers, budget errors and CLI output."""

import json
import sys
from fractions import Fraction

import pytest

from sdnb import BudgetExceededError, DiagonalForm, cup, factor, galois, hasse_witt
from sdnb.cli import main
from sdnb.forms import isotropy_witness_ternary
from sdnb.symbols import _oracle_reduced

_PQ = 1000003 * 1000033  # no table prime divides it, and Brent needs more than 10 units to split it


def _lifted(fn):
    """fn() with the digit limit lifted, restored afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_a_number_past_the_limit_factors_and_its_classes_answer():
    assert factor(10**4300).factors == ((2, 4300), (5, 4300))
    assert factor(Fraction(1, 10**4300)).factors == ((2, -4300), (5, -4300))
    assert cup(3 * 10**4300, -1) == cup(3, -1)
    assert hasse_witt(DiagonalForm([3 * 10**4300, 5])) == hasse_witt(DiagonalForm([3, 5]))
    assert isotropy_witness_ternary(DiagonalForm([10**4300, 1, -1])) == (0, 1, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: factor(2**14300 * _PQ), "factoring <14340-bit integer>", id="factor-int"),
        pytest.param(lambda: factor(Fraction(-_PQ, 2**14300)), "factoring -1000036000099/<14301-bit integer>",
                     id="factor-fraction"),
        pytest.param(lambda: isotropy_witness_ternary(DiagonalForm([10**4300 + 1, 3, -7])),
                     "isotropy witness search for <<14285-bit integer>, 3, -7>", id="witness"),
        pytest.param(lambda: galois.CyclicPoly(3, (-(2**14300), 0, 0, 0, 1), 4),
                     "integer roots of the polynomial [-<14301-bit integer>, 0, 0, 0, 1]", id="screen"),
    ],
)
def test_a_budget_trip_names_a_number_past_the_limit_by_its_bit_length(monkeypatch, call, message):
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "10")
    with pytest.raises(BudgetExceededError) as info:
        call()
    assert str(info.value).startswith(message + ": work budget exhausted after "), str(info.value)


def test_the_oracle_names_a_modulus_past_the_limit_by_its_bit_length():
    with pytest.raises(BudgetExceededError) as info:
        _oracle_reduced(1, 1, 2**14300 + 1)
    assert str(info.value) == (
        "Hilbert oracle for the square classes (1, 1) at <14301-bit integer>: modulus <14301-bit integer>^3 = "
        "<42901-bit integer> exceeds the search cap of 4000000 residues; nothing was searched"
    )


_TEN_4300 = "1" + "0" * 4300


@pytest.mark.parametrize(
    "argv, text, data",
    [
        pytest.param(["form", "--gram", "1e-4299,1e4299;1e4299,0"], f"diagonal: ['1/1{'0' * 4299}', '-1{'0' * 12897}']",
                     {"diagonal": [f"1/1{'0' * 4299}", f"-1{'0' * 12897}"], "det_class": -1}, id="form-gram"),
        pytest.param(["invariants", "--group", "C8", "--family", "cyclic-quadratic", "--z", "5e4299"],
                     f"trace form: <2, {_TEN_4300}>  det class 2  signature (2, 0)",
                     {"trace_form": ["2", _TEN_4300], "det_class": 2}, id="invariants"),
        pytest.param(["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "5e4299"], "verdict: yes",
                     {"verdict": "yes"}, id="decide"),
        pytest.param(["form", "--diag", "1,1", "--represents", "1e4300"], f"represents: {{'value': '{_TEN_4300}', "
                     "'result': True}", {"represents": {"value": _TEN_4300, "result": True}}, id="represents"),
    ],
)
def test_an_answer_whose_text_passes_the_limit_prints(capsys, argv, text, data):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and text in out.splitlines()
    assert main(argv + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    got = _lifted(lambda: json.loads(out))
    assert err == "" and {key: got[key] for key in data} == data


def test_parsing_keeps_the_limit_and_a_budget_trip_past_it_exits_66(capsys, monkeypatch):
    assert main(["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "5" + "0" * 4300]) == 65
    assert json.loads(capsys.readouterr().err)["error"] == "bad-input"
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "10")
    assert main(["form", "--diag", f"{_PQ}e4300"]) == 66
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "budget-exceeded"
    # the command runs with the limit lifted, so the message names the number in full
    factoring = f"factoring {_lifted(lambda: str(_PQ * 10**4300))}: "
    assert error["message"].startswith(factoring + "work budget exhausted after ")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["embed", "--poly", f"{_TEN_4300}0,1"], id="embed-poly"),
        pytest.param(["decide", "--group", "C8", "--family", "cyclic-poly", "--poly", f"{_TEN_4300}0,0,1"],
                     id="decide-poly"),
        pytest.param(["factors", "--group", f"C{_TEN_4300}0"], id="group"),
        pytest.param(["hilbert", "3", "5", f"{_TEN_4300}0"], id="place"),
        pytest.param(["form", "--gram", f"1,0;0,-{_TEN_4300}0"], id="gram"),
        pytest.param(["decide", "--spec", "SPEC"], id="spec-file"),
    ],
)
def test_every_input_keeps_the_limit_while_the_answer_is_lifted(capsys, tmp_path, argv):
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"group": "C8", "family": "cyclic-quadratic", "z": {_TEN_4300}0}}')
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert main([str(spec) if a == "SPEC" else a for a in argv]) == 65
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "bad-input", "message": "a number of 4302 digits exceeds the limit of 4300 digits"}
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit  # restored after the command
    # a literal of 4300 digits is still read
    assert main(["hilbert", "9" * 4300, "3", "7"]) == 0 and capsys.readouterr().out == "1\n"

