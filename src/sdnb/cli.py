"""Command line front end.

Subcommands: ``decide`` and ``invariants`` take a family spec (inline flags
or a JSON file), ``hilbert`` / ``form`` / ``factors`` / ``embed`` expose the
calculators.  ``decide`` exits 0 for yes, 1 for no, 2 for unknown; usage
errors exit 64, bad input 65, exceeded work budgets 66, and a standard output
closed by its reader 74.  Any other exception is a defect of the program: it
exits 70 with an ``{"error": "internal"}`` line on stderr, never with a code a
caller could read as a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import get_args

from .exact import BudgetExceededError, parse_rational
from .forms import (
    DiagonalForm,
    GramMatrix,
    anisotropy_certificate,
    det_square_class,
    diagonalize,
    hasse_witt,
    isotropy_witness_ternary,
    represents,
    signature,
)
from .galois import (
    VERDICT_NO,
    VERDICT_UNKNOWN,
    VERDICT_YES,
    Decision,
    GaloisAlgebraSpec,
    decide_global,
    decide_local,
    embedding_obstruction,
    invariant_report,
    parse_group,
    spec_from_json,
)
from .factors import decompose
from .symbols import hilbert, place_from_json

EX_OK = 0
EX_USAGE = 64
EX_DATA = 65
EX_BUDGET = 66
EX_SOFTWARE = 70
EX_IOERR = 74

_VERDICT_EXIT = {VERDICT_YES: 0, VERDICT_NO: 1, VERDICT_UNKNOWN: 2}


def _spec_from_args(args: argparse.Namespace) -> dict:
    if args.spec:
        with open(args.spec) as fh:
            return json.load(fh)
    data: dict = {}
    if args.group:
        data["group"] = args.group
    if args.family:
        data["family"] = args.family
    for key in ("z", "a", "b", "c", "eps"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val
    if getattr(args, "poly", None) is not None:
        data["poly"] = [int(t) for t in args.poly.split(",")]
    if getattr(args, "degree", None) is not None:
        data["degree"] = args.degree
    if "family" not in data:
        raise ValueError("no family given (use --family or --spec)")
    return data


def _add_spec_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="path to a JSON spec file")
    p.add_argument("--group", help="group name, e.g. C8, D4, A4, A5")
    p.add_argument("--family", choices=[cls.family for cls in get_args(GaloisAlgebraSpec)])
    p.add_argument("--z", help="rational z, e.g. 3 or -45/8")
    p.add_argument("--a", help="rational a of the quartic family")
    p.add_argument("--b", help="rational b of the quartic family")
    p.add_argument("--c", help="rational c of the quartic family")
    p.add_argument("--eps", help="rational eps of the quartic family")
    p.add_argument("--poly", help="integer coefficients, constant term first, comma separated")
    p.add_argument("--degree", type=int, help="asserted degree for cyclic-poly")
    p.add_argument("--format", choices=["text", "json"], default="text")


def _print_decision(decision: Decision, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(decision.to_json(), indent=2))
        return
    print(f"verdict: {decision.verdict}")
    for row in decision.certificate:
        place = "-" if row.place is None else str(row.place)
        factor = row.factor or "-"
        state = "pass" if row.passed else "FAIL"
        print(f"  [{state}] {row.condition:<16} factor={factor:<8} place={place:<5} {row.detail}")


def _parse_diagonal(text: str) -> DiagonalForm:
    return DiagonalForm([parse_rational(t) for t in text.split(",")])


def _parse_gram(text: str) -> GramMatrix:
    rows = [[parse_rational(x) for x in row.split(",")] for row in text.split(";")]
    return GramMatrix(rows)


def _form_report(f: DiagonalForm, rep: Fraction | None, fmt: str) -> None:
    cert = anisotropy_certificate(f)
    data: dict = {
        "diagonal": [str(a) for a in f.entries],
        "det_class": det_square_class(f),
        "signature": list(signature(f)),
        "hasse_witt": hasse_witt(f).to_json(),
        "isotropic_over_Q": cert is None,
    }
    if cert is not None:
        data["anisotropic_at"] = cert.to_json()
    elif f.rank == 3:
        witness = isotropy_witness_ternary(f)
        if witness is not None:
            data["witness"] = list(witness)
    if rep is not None:
        data["represents"] = {"value": str(rep), "result": represents(f, rep)}
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")


def _devnull_onto(fd: int) -> None:
    """Point fd at the null device: what is buffered for it goes nowhere, and the final flush cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _report(error: dict) -> None:
    """One JSON line on stderr; a closed stderr leaves stdout and the exit code alone."""
    try:
        if sys.stderr is not None:  # None when fd 2 was closed at start
            print(json.dumps(error), file=sys.stderr, flush=True)
    except OSError:
        _devnull_onto(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdnb",
        description="Self-dual normal basis decisions and trace-form invariants over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide existence of a self-dual normal basis")
    _add_spec_arguments(p_decide)
    p_decide.add_argument("--at", help="finite prime: decide for the completion there")

    p_inv = sub.add_parser("invariants", help="per-factor invariant report")
    _add_spec_arguments(p_inv)

    p_hil = sub.add_parser("hilbert", help="Hilbert symbol (a,b)_v")
    p_hil.add_argument("a")
    p_hil.add_argument("b")
    p_hil.add_argument("v", help='"real" or a prime')

    p_form = sub.add_parser("form", help="invariants of a diagonal or Gram form")
    p_form.add_argument("--diag", help="diagonal entries, comma separated")
    p_form.add_argument("--gram", help="Gram rows, semicolon separated")
    p_form.add_argument("--represents", help="test representation of a rational")
    p_form.add_argument("--format", choices=["text", "json"], default="text")

    p_fac = sub.add_parser("factors", help="involution-stable factor table of Q[G]")
    p_fac.add_argument("--group", required=True)
    p_fac.add_argument("--format", choices=["text", "json"], default="text")

    p_emb = sub.add_parser("embed", help="embedding obstruction of a cyclic 2-power field")
    p_emb.add_argument("--poly", required=True, help="integer coefficients, constant term first")
    p_emb.add_argument("--format", choices=["text", "json"], default="text")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_OK if exc.code in (0, None) else EX_USAGE

    try:
        code = _dispatch(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()  # a reader that has gone fails here, not at exit
        return code
    except BudgetExceededError as exc:
        _report({"error": "budget-exceeded", "message": str(exc)})
        return EX_BUDGET
    except BrokenPipeError as exc:
        _devnull_onto(1)
        _report({"error": "output-closed", "message": str(exc)})
        return EX_IOERR
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _report({"error": "bad-input", "message": str(exc)})
        return EX_DATA
    except Exception as exc:
        import traceback  # loaded here so that calls that succeed do not pay for it

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        report = {
            "error": "internal",
            "message": f"{type(exc).__name__}: {exc}",
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        }
        _report(report)
        return EX_SOFTWARE


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "decide":
        spec = spec_from_json(_spec_from_args(args))
        if args.at:
            decision = decide_local(spec, place_from_json(args.at.lower()))
        else:
            decision = decide_global(spec)
        _print_decision(decision, args.format)
        return _VERDICT_EXIT[decision.verdict]

    if args.command == "invariants":
        spec = spec_from_json(_spec_from_args(args))
        report = invariant_report(spec)
        if args.format == "json":
            print(json.dumps(report.to_json(), indent=2))
        else:
            print(f"h1: {report.h1}")
            print(f"trace form: {report.trace_diagonal}  det class {report.det_class}  signature {report.signature}")
            for e in report.entries:
                cls = "-" if e.value is None else str(e.value)
                note = f"  ({e.note})" if e.note else ""
                print(f"  {e.invariant}[{e.factor_id}]: {e.status} {cls}{note}")
        return EX_OK

    if args.command == "hilbert":
        v = place_from_json(args.v.lower())
        value = hilbert(parse_rational(args.a), parse_rational(args.b), v)
        print(value)
        return EX_OK

    if args.command == "form":
        if bool(args.diag) == bool(args.gram):
            raise ValueError("pass exactly one of --diag or --gram")
        f = _parse_diagonal(args.diag) if args.diag else diagonalize(_parse_gram(args.gram))
        rep = parse_rational(args.represents) if args.represents else None
        _form_report(f, rep, args.format)
        return EX_OK

    if args.command == "factors":
        table = [fd.to_json() for fd in decompose(parse_group(args.group))]
        if args.format == "json":
            print(json.dumps(table, indent=2))
        else:
            for fd in table:
                print(fd)
        return EX_OK

    if args.command == "embed":
        coeffs = [int(t) for t in args.poly.split(",")]
        cls = embedding_obstruction(coeffs)
        data = {"obstruction": cls.to_json(), "trivial": not cls.ramified}
        if args.format == "json":
            print(json.dumps(data, indent=2))
        else:
            print(f"obstruction: {cls}  trivial: {data['trivial']}")
        return EX_OK

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
