import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from typing import get_args

import pytest

from sdnb import cli, forms, galois, restricts_trivially_to_quadratic
from sdnb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_yes_exit_code(capsys):
    code, out, _ = run(capsys, "decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "3")
    assert code == 0
    assert "verdict: yes" in out


def test_decide_no_exit_code_and_json(capsys):
    code, out, _ = run(
        capsys, "decide", "--group", "D4", "--family", "d4-quadratic", "--z", "3",
        "--format", "json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "no"
    assert any(not row["passed"] for row in data["certificate"])
    for row in data["certificate"]:
        assert set(row) == {"condition", "factor", "place", "passed", "detail"}


def test_decide_unknown_exit_code(capsys):
    code, out, _ = run(
        capsys, "decide", "--group", "A4", "--family", "a4-quartic", "--poly", "12,8,0,0,1",
        "--format", "json",
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "unknown"


def test_decide_local_flag(capsys):
    code, out, _ = run(
        capsys, "decide", "--group", "C4", "--family", "cyclic-quadratic", "--z", "3",
        "--at", "3",
    )
    assert code == 1


def test_decide_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"group": "C8", "family": "cyclic-quadratic", "z": "3"}))
    code, out, _ = run(capsys, "decide", "--spec", str(path))
    assert code == 0


def test_invariants(capsys):
    code, out, _ = run(
        capsys, "invariants", "--group", "C8", "--family", "cyclic-quadratic", "--z", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["h1"] is True
    assert data["signature"] == [2, 0]
    top = [e for e in data["entries"] if e["factor"] == "chi8"]
    assert top and top[0]["class"] == [2, 3]


def test_hilbert(capsys):
    code, out, _ = run(capsys, "hilbert", "--", "-1", "-1", "real")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = run(capsys, "hilbert", "2", "3", "3")
    assert code == 0 and out.strip() == "-1"


def test_form_diag(capsys):
    code, out, _ = run(capsys, "form", "--diag", "1,1,-3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["det_class"] == -3
    assert data["isotropic_over_Q"] is False
    assert "anisotropic_at" in data


def test_form_gram_and_witness(capsys):
    code, out, _ = run(capsys, "form", "--gram", "0,1;1,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == [1, 1]

    code, out, _ = run(capsys, "form", "--diag", "1,1,-2", "--format", "json")
    data = json.loads(out)
    assert data["witness"] is not None

    code, out, _ = run(capsys, "form", "--diag", "1,1", "--represents", "5", "--format", "json")
    data = json.loads(out)
    assert data["represents"]["result"] is True


def test_form_walks_each_local_test_once(monkeypatch, capsys):
    # isotropy and the anisotropy certificate come from one walk over the
    # form's places; the representation test walks a different form
    seen = []
    local = forms.isotropic_over_Qp

    def counted(f, v):
        seen.append((f, v))
        return local(f, v)

    monkeypatch.setattr(forms, "isotropic_over_Qp", counted)
    code, out, _ = run(capsys, "form", "--diag", "1,1,1,-7", "--represents", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["isotropic_over_Q"] is False and data["anisotropic_at"] == 2
    assert len(seen) == len(set(seen)), seen


def test_factors(capsys):
    code, out, _ = run(capsys, "factors", "--group", "C8", "--format", "json")
    assert code == 0
    table = json.loads(out)
    assert [fd["id"] for fd in table] == ["triv", "chi2", "chi4", "chi8"]
    assert table[3]["e"] == {"real-cyclotomic": 8}


def test_embed(capsys):
    code, out, _ = run(capsys, "embed", "--poly", "2,0,-4,0,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["trivial"] is True


def test_usage_error(capsys):
    code, _, _ = run(capsys, "decide", "--badflag")
    assert code == 64
    code, _, _ = run(capsys)
    assert code == 64


def test_data_error(capsys):
    code, _, err = run(capsys, "decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "0")
    assert code == 65
    assert json.loads(err)["error"] == "bad-input"
    code, _, _ = run(capsys, "form", "--diag", "1,0")
    assert code == 65
    code, _, _ = run(capsys, "form")
    assert code == 65


def test_data_error_zero_denominator(capsys):
    code, _, err = run(capsys, "decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "1/0")
    assert code == 65
    assert json.loads(err)["error"] == "bad-input"


@pytest.mark.parametrize(
    "spec",
    [
        {"group": "C8", "family": "cyclic-poly", "poly": None},
        [{"group": "C8", "family": "cyclic-quadratic", "z": "3"}],
        {"group": 8, "family": "cyclic-quadratic", "z": "3"},
        {"group": "C8", "family": "cyclic-quadratic", "z": "1/0"},
    ],
    ids=["poly-null", "top-level-list", "group-int", "z-zero-denominator"],
)
def test_malformed_spec_file_is_data_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "decide", "--spec", str(path))
    assert code == 65
    assert out == ""
    assert json.loads(err)["error"] == "bad-input"


def test_embed_huge_constant_term_ends_in_time(capsys):
    start = time.perf_counter()
    code, _, _ = run(capsys, "embed", "--poly", "1000000000000000003,0,-4,0,1")
    assert code in (0, 1, 2, 65, 66)
    assert time.perf_counter() - start < 5.0


def test_form_with_entries_beyond_64_bits_ends_cleanly(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "form", "--diag", "65303470080,8434323170211965890461696,-1", "--format", "json"
    )
    assert time.perf_counter() - start < 10.0
    assert code in (0, 66) and "Traceback" not in err
    if code == 0:
        x, y, z = json.loads(out)["witness"]
        assert 65303470080 * x * x + 8434323170211965890461696 * y * y - z * z == 0
    else:
        assert json.loads(err)["error"] == "budget-exceeded"


def _odd_primes(count: int) -> list[int]:
    primes: list[int] = []
    n = 3
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 2
    return primes


def test_an_answer_beyond_cpythons_int_digit_limit_prints(capsys):
    # the product of the first 1300 odd primes has 4587 digits; CPython turns at most 4300 into text by default
    primes = _odd_primes(1300)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    diag = ",".join(map(str, primes))
    code, text, err = run(capsys, "form", "--diag", diag)
    assert (code, err) == (0, "") and text.count("\n") == 6
    code, out, err = run(capsys, "form", "--diag", diag, "--format", "json")
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit  # restored after printing
    digits = re.search(r'"det_class": (\d+),', out)[1]
    assert len(digits) == 4587 and f"\ndet_class: {digits}\n" in text
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)["det_class"] == math.prod(primes)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    # parsing keeps the limit: an entry of 4301 digits is malformed input
    code, out, err = run(capsys, "form", "--diag", "1" + "0" * 4300)
    assert (code, out) == (65, "") and json.loads(err)["error"] == "bad-input"


_P1, _P2 = 2**64 - 59, 2**64 - 83


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["hilbert", str(_P1 * _P2), "3", "5"], "1\n"),
        (
            ["form", "--diag", f"{_P1},{_P2},-1,-1", "--format", "json"],
            f'"det_class": {_P1 * _P2},',
        ),
        (
            ["decide", "--group", "C8", "--family", "cyclic-quartic", "--a", str(2 * _P1),
             "--b", str(_P1), "--c", str(_P1), "--eps", "2"],
            "verdict: yes\n",
        ),
    ],
    ids=["hilbert", "form", "decide"],
)
def test_products_of_64_bit_primes_answer_without_factoring(capsys, argv, expected):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "") and expected in out


def test_rabin_screen_of_a_degree_128_polynomial_exits_66_in_time(capsys):
    poly = ",".join(["2", "2"] + ["0"] * 126 + ["1"])
    start = time.perf_counter()
    code, out, err = run(capsys, "decide", "--group", "C256", "--family", "cyclic-poly", f"--poly={poly}")
    assert time.perf_counter() - start < 5.0
    assert code == 66 and out == ""
    message = json.loads(err)["message"]
    assert message.startswith("irreducibility screen of the polynomial [2, 2, 0,")
    assert "work budget exhausted after" in message


def test_integer_roots_of_a_constant_term_with_many_divisors_exit_66_in_time(capsys):
    # the constant term is the product of the 20 primes up to 71: 2^20 candidate
    # roots, charged to the work budget before the first is listed
    c0 = "557940830126698960967415390"
    start = time.perf_counter()
    code, out, err = run(
        capsys, "decide", "--group", "C8", "--family", "cyclic-poly", f"--poly={c0},1,0,0,1", "--degree", "4"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 66 and out == ""
    message = json.loads(err)["message"]
    assert message.startswith(f"integer roots of the polynomial [{c0}, 1, 0, 0, 1]: work budget exhausted")


@pytest.mark.parametrize(
    "group, family", [("C8", "d4-quadratic"), ("C4", "a5-quadratic")]
)
def test_group_contradicting_the_family_is_bad_input(capsys, group, family):
    code, out, err = run(capsys, "decide", "--group", group, "--family", family, "--z", "3")
    assert (code, out) == (65, "")
    assert json.loads(err)["error"] == "bad-input" and f"not {group}" in err


def test_factors_of_huge_cyclic_group_end_in_time(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "factors", "--group", "C1099511627776", "--format", "json")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert [fd["conductor"] for fd in json.loads(out)] == [2**k for k in range(41)]
    code, out, err = run(capsys, "factors", "--group", "x".join(["C2"] * 11))
    assert code == 65 and out == "" and "more than 1024 factors" in err


def test_unexpected_exception_exits_70(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_hilbert", boom)
    code, out, err = run(capsys, "hilbert", "2", "3", "real")
    assert code == 70 and out == ""
    report = json.loads(err)
    assert report["error"] == "internal" and report["message"] == "RuntimeError: boom"


_ARGV_BASES = [
    ["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "3"],
    ["decide", "--group", "D4", "--family", "d4-quadratic", "--z=-45/8", "--at", "3"],
    ["invariants", "--group", "C8", "--family", "cyclic-quartic", "--a", "2", "--b", "1", "--c", "1", "--eps", "2"],
    ["invariants", "--group", "A5", "--family", "a5-quadratic", "--z=-7", "--format", "json"],
    ["hilbert", "-1", "-1", "real"],
    ["hilbert", "1/2", "3", "7"],
    ["hilbert", "1/2", "2"],
    ["form", "--diag=-1,2,3", "--represents", "5"],
    ["form", "--gram", "0,1;1,0", "--format", "json"],
    ["factors", "--group", "D4"],
    ["embed", "--poly", "2,0,-4,0,1"],
]
_ARGV_VALUES = ["-45/8", "-1/2", "-3", "-1.5", "-1,2", "-1,0,1", "", "-", "--", "x", "1/0", "7"]
_ARGV_STRAYS = ["--", "--z", "--poly", "--diag", "--at", "--format", "--nope", "-x", "-", ""]


def _seeded_argvs(seed=2030, count=300):
    """Each base with a -- at every position, each hilbert base with two at every pair of
    positions, then seeded mutations of the bases: a -- or a stray flag put in, a value swapped
    for a negative, empty or malformed one, an option's value given with or without =."""
    argvs = [base[:i] + ["--"] + base[i:] for base in _ARGV_BASES for i in range(len(base) + 1)]
    argvs += [base[:i] + ["--"] + base[i:j] + ["--"] + base[j:] for base in _ARGV_BASES if base[0] == "hilbert"
              for i in range(len(base) + 1) for j in range(i, len(base) + 1)]
    rng = random.Random(seed)
    while len(argvs) < count:
        argv = list(rng.choice(_ARGV_BASES))
        for _ in range(rng.randint(1, 2)):
            move, i = rng.randrange(4), rng.randint(1, len(argv))
            if move == 0:
                argv[i:i] = ["--"]
            elif move == 1:
                argv[i:i] = [rng.choice(_ARGV_STRAYS)]
            elif move == 2 and (options := [k for k, a in enumerate(argv) if a.startswith("--") and len(a) > 2]):
                k = rng.choice(options)
                option, value = argv[k].split("=")[0], rng.choice(_ARGV_VALUES)
                span = 1 if "=" in argv[k] or k + 1 == len(argv) or argv[k + 1].startswith("--") else 2
                argv[k:k + span] = [f"{option}={value}"] if rng.random() < 0.5 else [option, value]
            elif i < len(argv):
                argv[i] = rng.choice(_ARGV_VALUES)
        argvs.append(argv)
    return argvs


def test_no_command_line_exits_70(capsys):
    # an argparse that hands [] to a positional after a second --, or to --group=--, makes a usage
    # error (64); one that keeps the second -- as a literal value hands it on as bad input (65)
    for argv in [["hilbert", "--", "1/2", "--", "2"], ["hilbert", "1", "2", "--", "--"], ["factors", "--group=--"]]:
        code, out, err = run(capsys, *argv)
        assert code in (64, 65) and out == "" and "internal" not in err, (argv, code, err)
    argvs = _seeded_argvs()
    assert len(argvs) == 300 and sum(argv.count("--") > 1 for argv in argvs) > 20
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 64, 65, 66) and '"internal"' not in err, (argv, code, err)


def test_cli_import_leaves_numpy_unloaded():
    # run against the same sdnb this test imported, wherever it lives
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys, sdnb.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "3"],
        ["factors", "--group", "C1099511627776"],
    ],
    ids=["decide", "factors"],
)
def test_closed_stdout_exits_74(argv, unbuffered):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    try:
        result = subprocess.run(
            [sys.executable, "-m", "sdnb.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 74, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "output-closed"
    assert "Exception ignored" not in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "3"], 74),
        (["factors", "--group", "C1099511627776"], 74),
        (["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "0"], 65),
    ],
    ids=["decide", "factors", "bad-input"],
)
def test_stdout_and_stderr_on_one_closed_pipe_keep_the_documented_exit(argv, code, unbuffered):
    # as in `sdnb ... 2>&1 | grep -q x`: the report on stderr fails too, and
    # must not turn the outcome into an exit 1, which reads as "no"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "sdnb.cli", *argv],
            stdout=write_end, stderr=write_end, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == code


def test_stderr_closed_at_start_keeps_the_report_off_stdout():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "sdnb.cli", "decide", "--group", "C8", "--family",
         "cyclic-quadratic", "--z", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=lambda: os.close(2),
    )
    assert result.returncode == 65 and result.stdout == ""


def test_stdout_closed_at_start_keeps_the_verdict_exit():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "sdnb.cli", "decide", "--group", "C8", "--family",
         "cyclic-quadratic", "--z", "-1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=lambda: os.close(1),
    )
    assert result.returncode == 1 and result.stderr == ""


GOLDEN_CLI = [
    ({"group": "C8", "family": "cyclic-quadratic", "z": "3"}, 0),
    ({"group": "C8", "family": "cyclic-quadratic", "z": "-1"}, 1),
    ({"group": "C8", "family": "cyclic-quartic", "a": "2", "b": "1", "c": "1", "eps": "2"}, 0),
    ({"group": "C8", "family": "cyclic-quartic", "a": "-2", "b": "1", "c": "1", "eps": "2"}, 1),
    ({"group": "D4", "family": "d4-quadratic", "z": "3"}, 1),
    ({"group": "D4", "family": "d4-quadratic", "z": "5"}, 0),
    ({"group": "A4", "family": "a4-quartic", "poly": [12, 8, 0, 0, 1]}, 2),
]


def test_json_roundtrip_and_exit_codes_on_golden_suite(tmp_path, capsys):
    for i, (spec, want) in enumerate(GOLDEN_CLI):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "decide", "--spec", str(path), "--format", "json")
        assert code == want, spec
        data = json.loads(out)
        assert data["verdict"] == {0: "yes", 1: "no", 2: "unknown"}[want]
        assert isinstance(data["certificate"], list) and data["certificate"]
        for row in data["certificate"]:
            assert set(row) == {"condition", "factor", "place", "passed", "detail"}
            assert isinstance(row["passed"], bool)


# --- text output, byte for byte ---------------------------------------------------

_NOTE_ONE = "(degree-one factor: finite unitary group, invariant absorbed by the squares condition)"
_NOTE_LOWER = "(forced to vanish: below the top factor the fibered extension is split)"

TEXT_GOLDEN = [
    (
        ["invariants", "--group", "C8", "--family", "cyclic-quartic",
         "--a", "3", "--b", "3/2", "--c", "3/2", "--eps", "2"],
        "h1: True\n"
        "trace form: <1, 2, 3, 3>  det class 2  signature (4, 0)\n"
        f"  c[triv]: zero trivial  {_NOTE_ONE}\n"
        f"  c[chi2]: zero trivial  {_NOTE_ONE}\n"
        f"  d[chi4]: zero trivial  {_NOTE_LOWER}\n"
        "  d[chi8]: computed {2, 3}\n",
    ),
    (
        ["factors", "--group", "C8"],
        "{'id': 'triv', 'kind': 'orthogonal', 'conductor': 1, 'e': 'Q', 'split': True}\n"
        "{'id': 'chi2', 'kind': 'orthogonal', 'conductor': 2, 'e': 'Q', 'split': True}\n"
        "{'id': 'chi4', 'kind': 'unitary', 'conductor': 4, 'e': 'Q', 'split': True}\n"
        "{'id': 'chi8', 'kind': 'unitary', 'conductor': 8, 'e': {'real-cyclotomic': 8}, "
        "'split': True}\n",
    ),
    (
        ["form", "--diag", "1,1,-3"],
        "diagonal: ['1', '1', '-3']\n"
        "det_class: -3\n"
        "signature: [2, 1]\n"
        "hasse_witt: []\n"
        "isotropic_over_Q: False\n"
        "anisotropic_at: 2\n",
    ),
    (
        ["form", "--gram", "0,1;1,0"],
        "diagonal: ['2', '-1/2']\n"
        "det_class: -1\n"
        "signature: [1, 1]\n"
        "hasse_witt: []\n"
        "isotropic_over_Q: True\n",
    ),
    (
        ["form", "--diag", "1,1,-2", "--represents", "5"],
        "diagonal: ['1', '1', '-2']\n"
        "det_class: -2\n"
        "signature: [2, 1]\n"
        "hasse_witt: []\n"
        "isotropic_over_Q: True\n"
        "witness: [1, 1, 1]\n"
        "represents: {'value': '5', 'result': True}\n",
    ),
    (["embed", "--poly", "2,0,-4,0,1"], "obstruction: trivial  trivial: True\n"),
    (["embed", "--poly", "18,0,-12,0,1"], "obstruction: {2, 3}  trivial: False\n"),
]


@pytest.mark.parametrize(
    "argv, expected", TEXT_GOLDEN,
    ids=["invariants", "factors", "form-diag", "form-gram", "form-witness", "embed", "embed-ramified"],
)
def test_text_output_golden(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


# two 64-bit primes with P * Q = B^2 + C^2, so eps = P/Q fits the quartic family
_P, _Q = 9223372036854788173, 4611686018427389189
_B, _C = 4432784591557224004, 4783901820686774041


@pytest.mark.parametrize(
    "data",
    [
        {"group": "C8", "family": "cyclic-quartic", "a": str(_P), "b": str(_B), "c": str(_C),
         "eps": f"{_P}/{_Q}"},
        {"group": "C8", "family": "cyclic-quadratic", "z": f"{_P}/{_Q}"},
    ],
    ids=["quartic", "quadratic"],
)
def test_top_invariant_never_factors_the_product_of_the_data_primes(capsys, data):
    flags = [x for key, value in data.items() for x in (f"--{key}", value)]
    start = time.perf_counter()
    code, out, err = run(capsys, "decide", *flags)
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "") and out.startswith("verdict: yes\n")
    code, out, err = run(capsys, "invariants", *flags)
    assert (code, err) == (0, "") and f"det class {_P * _Q}" in out
    spec = galois.spec_from_json(data)
    assert galois.elementary_criterion(spec) == "yes"
    assert restricts_trivially_to_quadratic(galois.d_top(spec), 2)


def test_quadratic_poly_reducible_modulo_every_screening_prime_answers(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "decide", "--group", "C4", "--family", "cyclic-poly", "--poly=36765,1,1",
        "--degree", "2",
    )
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (1, "") and out.startswith("verdict: no\n")
    code, out, _ = run(capsys, "decide", "--group", "C4", "--family", "cyclic-quadratic", "--z=-147059")
    assert code == 1 and out.startswith("verdict: no\n")


def _readme_block(title: str, language: str) -> list[str]:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split(f"## {title}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_commands_run(tmp_path, capsys):
    spec_lines = _readme_block("Command line", "json")
    commands = [shlex.split(line, comments=True) for line in _readme_block("Command line", "sh")]
    assert len(spec_lines) == 3 and len(commands) == 10
    for argv in commands:
        assert argv[0] == "sdnb"
        runs = [argv[1:]]
        if "myspec.json" in argv:
            runs = []
            for i, line in enumerate(spec_lines):
                path = tmp_path / f"spec{i}.json"
                path.write_text(line)
                runs.append([str(path) if a == "myspec.json" else a for a in argv[1:]])
        for args in runs:
            code, out, err = run(capsys, *args)
            assert code in (0, 1, 2) and out.strip(), (args, code, err)
            if args[0] == "hilbert":
                assert out == "-1\n"


# --- the command-line contract: help, usage errors, bad-input texts -------------

_SPEC_OPTIONS = ["--help", "--spec", "--group", "--family", "--z", "--a", "--b", "--c", "--eps",
                 "--poly", "--degree", "--format"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("decide", _SPEC_OPTIONS + ["--at"]),
        ("invariants", _SPEC_OPTIONS),
        ("hilbert", ["--help"]),
        ("form", ["--help", "--diag", "--gram", "--represents", "--format"]),
        ("factors", ["--help", "--group", "--format"]),
        ("embed", ["--help", "--poly", "--format"]),
    ],
)
def test_subcommand_help_lists_every_option_in_order(capsys, command, options):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "") and out.startswith(f"usage: sdnb {command} [-h]")
    listed = out.split("\noptions:\n", 1)[1]
    assert re.findall(r"^  (?:-h, )?(--[a-z]+)", listed, re.M) == options
    if command == "hilbert":
        assert out.startswith("usage: sdnb hilbert [-h] a b v\n")


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: sdnb [-h] {decide,invariants,hilbert,form,factors,embed} ...\n")
    listed = out.split("\n    ")[1:]
    assert [line.split()[0] for line in listed] == ["decide", "invariants", "hilbert", "form", "factors", "embed"]


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--degree", "x"],
        ["invariants", "--family", "cyclic-quadratic", "--at", "3"],
        ["hilbert", "1", "2"],
        ["form", "--format", "xml"],
        ["factors"],
        ["embed", "--format", "json"],
    ],
    ids=["decide", "invariants", "hilbert", "form", "factors", "embed"],
)
def test_one_usage_error_per_subcommand_exits_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err.startswith("usage: sdnb") and "error: " in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decide", "--group", "", "--family", "cyclic-quadratic", "--z", "3"],
         "cyclic families need a group, e.g. C8"),
        (["decide", "--poly=x"], "no family given (use --family or --spec)"),
        (["hilbert", "--", "x", "y", "4"], "4 is not prime"),
        (["decide", "--family", "cyclic-poly", "--group", "C8", "--poly=2,0,-4,0,1", "--degree", "0"],
         "declared degree 0 but polynomial has degree 4"),
        (["decide", "--family", "cyclic-poly", "--group", "C8", "--poly=2,x,1"], "poly must be an integer, got 'x'"),
        (["hilbert", "1", "2", "x"], 'a place is "real" or a prime, got \'x\''),
        (["decide", "--family", "cyclic-quadratic", "--group", "C8", "--z", "3", "--at", "1e3"],
         'a place is "real" or a prime, got \'1e3\''),
        (["embed", "--poly=x,1,0,0,1"], "polynomial must have integer coefficients"),
    ],
    ids=["empty-group", "poly-before-family", "place-before-a-and-b", "degree-0", "poly-token", "place-token",
         "at-token", "embed-token"],
)
def test_bad_input_stderr_lines(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err == json.dumps({"error": "bad-input", "message": message}) + "\n"


@pytest.mark.parametrize("argv", [["decide", "--group", "C8", "--z", "3"], ["invariants", "--z", "3"]],
                         ids=["decide", "invariants"])
def test_spec_flags_without_a_family_exit_65(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    assert err == json.dumps({"error": "bad-input", "message": "no family given (use --family or --spec)"}) + "\n"


@pytest.mark.parametrize("command", ["decide", "invariants"])
def test_family_choices_are_the_spec_families_in_order(capsys, command):
    # galois._FAMILIES, the registry spec_from_json reads, is keyed by the same tags in this order
    families = [cls.family for cls in get_args(galois.GaloisAlgebraSpec)]
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert f"--family {{{','.join(families)}}}" in out
