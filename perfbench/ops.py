"""One operation per workload, its independent output check, and a corruptor.

Every call into the library goes through an attribute of ``sdnb`` at call
time, so the span wrappers of a traced run see it.  Checks run after the
timed loop and classify each operation as

* ``ok``           -- finished and agrees with its check;
* ``wrong``        -- a well-formed input gave a wrong answer, raised, or
                      exited with a code other than its documented one;
* ``undocumented`` -- a malformed input ended in an outcome other than its
                      documented one (exit 65).

Both of the last two count as failed operations.
"""

from __future__ import annotations

import subprocess
from fractions import Fraction

import sdnb

import corpus

VERDICT_EXIT = {"yes": 0, "no": 1, "unknown": 2}
EXIT_DATA = 65


class Raised:
    """The outcome of an operation that raised instead of returning."""


def _flip(verdict: str) -> str:
    return "no" if verdict == "yes" else "yes"


# ---------------------------------------------------------------------------
# decide-mix


def run_decide(item: dict):
    spec = sdnb.spec_from_json(item["spec"])
    if item["kind"] == "global":
        return sdnb.decide_global(spec).to_json()["verdict"]
    if item["kind"] == "local":
        return sdnb.decide_local(spec, sdnb.Place(item["at"])).to_json()["verdict"]
    report = sdnb.invariant_report(spec).to_json()
    return report["h1"], report["det_class"], tuple(report["signature"])


def _routes(spec) -> list[str]:
    """Verdicts of the independent routes that apply to this spec (criterion 05)."""
    out = []
    elementary = sdnb.elementary_criterion(spec)
    if elementary != "not-applicable":
        out.append(elementary)
    if isinstance(spec, (sdnb.CyclicQuadratic, sdnb.CyclicQuartic)) and spec.n == 3:
        trivial = sdnb.h1_condition(spec) and sdnb.restricts_trivially_to_quadratic(
            sdnb.d_top(spec), 2
        )
        out.append("yes" if trivial else "no")
    return out


def _expected_report(spec: dict) -> tuple:
    """h1, det class and signature of the family's trace form, from its data."""
    if spec["family"] == "cyclic-quartic":
        a, eps = Fraction(spec["a"]), Fraction(spec["eps"])
        entries = (1, eps, a, a)
        det = corpus.squarefree_part(eps)
    else:
        z = Fraction(spec["z"])
        entries = (2, 2 * z)
        det = corpus.squarefree_part(z)
    pos = sum(1 for x in entries if x > 0)
    return True, det, (pos, len(entries) - pos)


def check_decide(item: dict, result) -> str:
    if isinstance(result, Raised):
        return "wrong"
    if item["kind"] == "report":
        return "ok" if result == _expected_report(item["spec"]) else "wrong"
    if result not in VERDICT_EXIT:
        return "wrong"
    spec = sdnb.spec_from_json(item["spec"])
    if item["kind"] == "local":
        # a global yes passes every local filter, so every completion says yes
        ok = sdnb.decide_global(spec).verdict != "yes" or result == "yes"
    else:
        ok = all(route == result for route in _routes(spec))
    return "ok" if ok else "wrong"


def corrupt_decide(item: dict, result):
    if item["kind"] == "global" and _routes(sdnb.spec_from_json(item["spec"])):
        return _flip(result)
    return None


# ---------------------------------------------------------------------------
# hilbert-64bit


def run_cup(pair: tuple[int, int]):
    return sdnb.cup(*pair).to_json()


def check_cup(pair: tuple[int, int], result) -> str:
    if isinstance(result, Raised):
        return "wrong"
    a, b = pair
    places = [sdnb.REAL if v == "real" else sdnb.Place(v) for v in result]
    product = 1
    for v in sdnb.support_places([(a, b)]):
        product *= sdnb.hilbert(a, b, v)
    ok = (
        len(result) % 2 == 0
        and product == 1
        and (sdnb.REAL in places) == (a < 0 and b < 0)
        # (a,b)_p = 1 at an odd prime dividing neither a nor b
        and all(v.is_real or v.prime == 2 or (a * b) % v.prime == 0 for v in places)
    )
    return "ok" if ok else "wrong"


def corrupt_cup(pair: tuple[int, int], result):
    return result[1:] if "real" in result else ["real"] + result


# ---------------------------------------------------------------------------
# poly-tower


def run_poly(item: dict):
    return sdnb.decide_global(sdnb.spec_from_json(item["spec"])).to_json()["verdict"]


def check_poly(item: dict, result) -> str:
    # yes exactly when the field embeds in a cyclic field of twice its degree,
    # i.e. when the group is C(2 deg); this also makes all shifts agree
    want = "yes" if item["spec"]["group"] == f"C{2 * item['degree']}" else "no"
    return "ok" if result == want else "wrong"


def corrupt_poly(item: dict, result):
    return _flip(result)


# ---------------------------------------------------------------------------
# cli-cold


def run_cli(argv: list[str], env: dict, cwd: str) -> tuple[int, str]:
    # on timeout the child is killed and the operation counts as raised
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def check_cli(item: dict, result) -> str:
    if isinstance(result, Raised):
        return "wrong" if item["expect"] != "data" else "undocumented"
    code, out = result
    expect = item["expect"]
    if expect == "data":
        return "ok" if code == EXIT_DATA else "undocumented"
    if expect == "verdict":
        first = out.splitlines()[0] if out else ""
        verdict = first.removeprefix("verdict: ")
        if not first.startswith("verdict: ") or VERDICT_EXIT.get(verdict) != code:
            return "wrong"
        routes = _routes(sdnb.spec_from_json(item["spec"]))
        return "ok" if all(route == verdict for route in routes) else "wrong"
    if code != 0:
        return "wrong"
    if expect == "symbol" and out.strip() not in ("1", "-1"):
        return "wrong"
    return "ok"


def corrupt_cli(item: dict, result):
    if item["expect"] != "verdict" or not result[1]:
        return None
    code, out = result
    verdict = out.splitlines()[0].removeprefix("verdict: ")
    return code, out.replace(f"verdict: {verdict}", f"verdict: {_flip(verdict)}", 1)


CHECKS = {
    "decide-mix": (check_decide, corrupt_decide),
    "hilbert-64bit": (check_cup, corrupt_cup),
    "poly-tower": (check_poly, corrupt_poly),
    "cli-cold": (check_cli, corrupt_cli),
}
