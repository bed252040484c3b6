"""Property test of the exit contract of ``sdnb decide --spec``."""

import json
import math
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from sdnb.cli import main

PRIMES_BELOW_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

groups = st.sampled_from(["C1", "C2", "C4", "C8", "C6", "C2xC12", "D4", "A4", "A5", "Q8", "C0", 8])
cyclic_groups = st.sampled_from(["C4", "C8", "C16", "C32"])
natural_groups = {
    "split": groups,
    "d4-quadratic": st.just("D4"),
    "a4-quartic": st.just("A4"),
    "a5-quadratic": st.just("A5"),
}
families = st.sampled_from(
    ["split", "cyclic-quadratic", "cyclic-quartic", "cyclic-poly", "d4-quadratic", "a4-quartic",
     "a5-quadratic", "cyclic-cubic"]
)
rationals = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-10**4, 10**4), st.integers(1, 10**4)),
    st.integers(2**60, 2**70).map(str),  # factoring may run out of budget
    st.sampled_from(["abc", "", "1/0", None, 1.5, True, [2]]),
)
# a^2 - b^2 eps = c^2 eps holds for a = (b^2 + c^2) s and eps = a^2 / (b^2 + c^2)
quartic_params = st.builds(
    lambda b, c, s: {"a": (b * b + c * c) * s, "b": b, "c": c, "eps": str((b * b + c * c) * s * s)},
    st.integers(1, 30), st.integers(1, 30), st.integers(-20, 20),
)
small_polys = st.lists(st.integers(-60, 60), min_size=2, max_size=8).map(lambda c: c + [1])
# x^m + ... + c0 with c0 a signed product of primes below 100, so that the
# integer-root test meets constant terms with many divisors
many_divisor_polys = st.builds(
    lambda primes, sign, middle: [sign * math.prod(primes)] + middle + [1],
    st.lists(st.sampled_from(PRIMES_BELOW_100), min_size=1, max_size=26),
    st.sampled_from([1, -1]),
    st.sampled_from([1, 3, 7]).flatmap(lambda k: st.lists(st.integers(-9, 9), min_size=k, max_size=k)),
)


@st.composite
def specs(draw) -> dict:
    family = draw(families)
    spec = {"family": family}
    if draw(st.integers(0, 9)):
        spec["group"] = draw(st.one_of(natural_groups.get(family, cyclic_groups), groups))
    if family in ("cyclic-quadratic", "d4-quadratic", "a5-quadratic"):
        spec["z"] = draw(rationals)
    elif family == "cyclic-quartic":
        spec.update(draw(st.one_of(quartic_params, st.fixed_dictionaries(dict.fromkeys("abc", rationals)))))
        spec.setdefault("eps", draw(rationals))
    elif family in ("cyclic-poly", "a4-quartic"):
        spec["poly"] = draw(st.one_of(small_polys, many_divisor_polys))
        if draw(st.booleans()):
            spec["degree"] = draw(st.one_of(st.just(len(spec["poly"]) - 1), st.integers(-1, 9)))
    return spec


@settings(
    database=None, derandomize=True, deadline=None, max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=specs())
def test_decide_spec_keeps_the_exit_contract(spec, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "20000")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code = main(["decide", "--spec", str(path)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 65, 66), (spec, code, err)
    if code in (0, 1, 2):
        assert out.startswith("verdict: ") and err == "", spec
    else:
        assert out == "" and err.count("\n") == 1, spec
        assert json.loads(err)["error"] == ("bad-input" if code == 65 else "budget-exceeded")
    assert elapsed < 1.0, (spec, elapsed)
