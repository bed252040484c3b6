"""Command line front end: one handler function per subcommand.

``decide`` and ``invariants`` take a family spec (inline flags or a JSON
file), ``hilbert`` / ``form`` / ``factors`` / ``embed`` expose the
calculators; ``_dispatch`` calls the handler the parser chose, and
``_emit`` prints JSON or text.  A command runs with CPython's limit on
int-to-text digits lifted, so answers of any length print; its input keeps
the limit through ``_refuse_long_numbers``.  ``decide`` exits 0 for yes, 1
for no, 2 for unknown; usage errors exit 64, bad input 65, exceeded work
budgets 66, and a standard output closed by its reader 74.  Any other
exception is a defect of the program: it exits 70 with an
``{"error": "internal"}`` line on stderr, never with a code a caller could
read as a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Iterable

from .exact import _MAX_EXPONENT, BudgetExceededError, parse_rational
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
    _FAMILIES,
    decide_global,
    decide_local,
    embedding_obstruction,
    invariant_report,
    spec_from_json,
)
from .factors import decompose, parse_group
from .symbols import hilbert, place_from_json

EX_OK = 0
EX_USAGE = 64
EX_DATA = 65
EX_BUDGET = 66
EX_SOFTWARE = 70
EX_IOERR = 74

_VERDICT_EXIT = {VERDICT_YES: 0, VERDICT_NO: 1, VERDICT_UNKNOWN: 2}

_SPEC_FLAGS = (
    ("group", {"help": "group name, e.g. C8, D4, A4, A5"}),
    ("family", {"choices": list(_FAMILIES)}),
    ("z", {"help": "rational z, e.g. 3 or --z=-45/8"}),
    ("a", {"help": "rational a of the quartic family, e.g. 2 or --a=-1/2"}),
    ("b", {"help": "rational b of the quartic family, e.g. 1 or --b=-1"}),
    ("c", {"help": "rational c of the quartic family, e.g. 1 or --c=-1"}),
    ("eps", {"help": "rational eps of the quartic family, e.g. 2 or --eps=-7"}),
    ("poly", {"help": "integer coefficients, constant term first, comma separated, e.g. --poly=-1,0,1"}),
    ("degree", {"type": int, "help": "asserted degree for cyclic-poly"}),
)


def _spec(args: argparse.Namespace) -> dict:
    """The dict spec_from_json validates: the --spec file, or the _SPEC_FLAGS given, named by its keys."""
    if args.spec:
        with open(args.spec) as fh:
            try:
                return json.loads(_refuse_long_numbers(fh.read()))
            except RecursionError as exc:  # nested deeper than the decoder's stack
                raise ValueError(str(exc)) from None
    data = {key: getattr(args, key) for key, _ in _SPEC_FLAGS if getattr(args, key) is not None}
    if not args.group:  # --group "" counts as absent
        data.pop("group", None)
    if "poly" in data:
        data["poly"] = [int(t) for t in data["poly"].split(",")]
    if "family" not in data:
        raise ValueError("no family given (use --family or --spec)")
    return data


def _refuse_long_numbers(text: str) -> str:
    """text, unless a run of more than 4300 digits in it makes a number CPython refuses to read by default."""
    if run := re.search(rf"(?<!\d)\d{{{_MAX_EXPONENT + 1},}}", text):  # a run's first digit only: linear
        raise ValueError(f"a number of {len(run[0])} digits exceeds the limit of {_MAX_EXPONENT} digits")
    return text


def _emit(args: argparse.Namespace, data: dict | list, text_lines: Iterable[str]) -> None:
    """Print data as indented JSON under --format json, else the text lines."""
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print(*text_lines, sep="\n")


def _decide(args: argparse.Namespace) -> int:
    spec = spec_from_json(_spec(args))
    decision = decide_local(spec, place_from_json(args.at.lower())) if args.at else decide_global(spec)
    rows = (
        f"  [{'pass' if row.passed else 'FAIL'}] {row.condition:<16} factor={row.factor or '-':<8} "
        f"place={'-' if row.place is None else str(row.place):<5} {row.detail}"
        for row in decision.certificate
    )
    _emit(args, decision.to_json(), [f"verdict: {decision.verdict}", *rows])
    return _VERDICT_EXIT[decision.verdict]


def _invariants(args: argparse.Namespace) -> None:
    report = invariant_report(spec_from_json(_spec(args)))

    def lines() -> Iterable[str]:
        yield f"h1: {report.h1}"
        yield f"trace form: {report.trace_diagonal}  det class {report.det_class}  signature {report.signature}"
        for e in report.entries:
            note = f"  ({e.note})" if e.note else ""
            yield f"  {e.invariant}[{e.factor_id}]: {e.status} {'-' if e.value is None else e.value}{note}"

    _emit(args, report.to_json(), lines())


def _hilbert(args: argparse.Namespace) -> None:
    v = place_from_json(args.v.lower())
    print(hilbert(parse_rational(args.a), parse_rational(args.b), v))


def _form(args: argparse.Namespace) -> None:
    if bool(args.diag) == bool(args.gram):
        raise ValueError("pass exactly one of --diag or --gram")
    if args.diag:
        f = DiagonalForm([parse_rational(t) for t in args.diag.split(",")])
    else:
        f = diagonalize(GramMatrix([[parse_rational(x) for x in row.split(",")] for row in args.gram.split(";")]))
    rep = parse_rational(args.represents) if args.represents else None
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
    _emit(args, data, (f"{key}: {value}" for key, value in data.items()))


def _factors(args: argparse.Namespace) -> None:
    table = [fd.to_json() for fd in decompose(parse_group(args.group))]
    _emit(args, table, map(str, table))


def _embed(args: argparse.Namespace) -> None:
    cls = embedding_obstruction([int(t) for t in args.poly.split(",")])
    trivial = not cls.ramified
    _emit(args, {"obstruction": cls.to_json(), "trivial": trivial}, [f"obstruction: {cls}  trivial: {trivial}"])


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

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p_decide = command("decide", _decide, "decide existence of a self-dual normal basis")
    p_inv = command("invariants", _invariants, "per-factor invariant report")
    for p in (p_decide, p_inv):
        p.add_argument("--spec", help="path to a JSON spec file")
        for key, options in _SPEC_FLAGS:
            p.add_argument(f"--{key}", **options)

    p_hil = command("hilbert", _hilbert, "Hilbert symbol (a,b)_v")
    p_hil.add_argument("a")
    p_hil.add_argument("b")
    p_hil.add_argument("v", help='"real" or a prime')

    p_form = command("form", _form, "invariants of a diagonal or Gram form")
    p_form.add_argument("--diag", help="diagonal entries, comma separated, e.g. --diag=-1,2")
    p_form.add_argument("--gram", help="Gram rows, semicolon separated")
    p_form.add_argument("--represents", help="test representation of a rational, e.g. --represents=-3")

    p_fac = command("factors", _factors, "involution-stable factor table of Q[G]")
    p_fac.add_argument("--group", required=True)

    p_emb = command("embed", _embed, "embedding obstruction of a cyclic 2-power field")
    p_emb.add_argument("--poly", required=True, help="integer coefficients, constant term first, e.g. --poly=2,0,-4,0,1")
    # --format is the last option of each of these parsers but decide's, whose --at follows it
    for p in (p_decide, p_inv, p_form, p_fac, p_emb):
        p.add_argument("--format", choices=["text", "json"], default="text")
    p_decide.add_argument("--at", help="finite prime: decide for the completion there")

    try:
        args = parser.parse_args(argv)
        if any(isinstance(value, list) for value in vars(args).values()):  # [] from --x=-- or a second --
            parser.error("an argument has no value: '--' cannot be one")
    except SystemExit as exc:
        return EX_OK if exc.code in (0, None) else EX_USAGE

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, or an interpreter without one
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for value in vars(args).values():  # the arguments here, a --spec file in _spec
            if isinstance(value, str):
                _refuse_long_numbers(value)
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
    except (ValueError, KeyError, OSError) as exc:
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _dispatch(args: argparse.Namespace) -> int:
    return args.run(args) or EX_OK  # a handler that returns nothing succeeded


if __name__ == "__main__":
    raise SystemExit(main())
