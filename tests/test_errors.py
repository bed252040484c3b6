"""Documented ValueErrors of the library, each with its exact message, and their CLI exit code."""

import json
import re

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
    pytest.param(lambda: factors.local_data(0, True, Place(3)),
                 "conductor must be >= 1", id="conductor-0"),
    pytest.param(lambda: GroupDescriptor("D4", (2,)),
                 "invariant factors only apply to abelian groups", id="d4-factors"),
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
