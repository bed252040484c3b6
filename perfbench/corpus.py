"""Seeded input generators for the four workloads.

Pure standard-library code that never calls ``sdnb``: spec validation and
irreducibility screening belong to the timed operations, not to set-up.  The
same (workload, seed, size) always yields the same list.

Mixes are drawn in fixed blocks (every block holds each kind of operation in
the same proportion, shuffled by the seed), so that two seeds differ in their
data but not in how much of each kind of work they ask for.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# small exact helpers (independent of sdnb; also used by the output checks)


def is_rational_square(q: Fraction) -> bool:
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def small_primes_of(n: int) -> list[int]:
    """Prime divisors of a small nonzero integer, by trial division."""
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_part(q: Fraction) -> int:
    """Squarefree s with q = s * (rational square), for small q."""
    s = 1 if q > 0 else -1
    for n in (q.numerator, q.denominator):
        for p in small_primes_of(n):
            e, m = 0, abs(n)
            while m % p == 0:
                m //= p
                e += 1
            if e % 2:
                s *= p
    return s


def _blocks(rng: random.Random, block: list, n: int) -> list:
    """n items drawn block by block: each block is ``block`` in seeded order."""
    out: list = []
    while len(out) < n:
        chunk = list(block)
        rng.shuffle(chunk)
        out.extend(chunk)
    return out[:n]


# ---------------------------------------------------------------------------
# decide-mix: spec dicts for the decision pipeline

DECIDE_FAMILIES = (
    [("cyclic-quadratic", 4)] * 2 + [("cyclic-quadratic", 8)] * 3
    + [("cyclic-quadratic", 16)] * 2 + [("cyclic-quartic", 8)] * 3
    + [("cyclic-quartic", 16)] * 2 + [("d4-quadratic", 8)] * 2
    + [("a5-quadratic", 60)] * 2
)
# Per block of 20: each family above decided globally once, two decisions at
# a finite prime of the spec's support, and two invariant reports.
DECIDE_BLOCK = (
    [("global", family, order) for family, order in DECIDE_FAMILIES]
    + [("local", "cyclic-quadratic", 8), ("local", "cyclic-quartic", 16)]
    + [("report", "cyclic-quartic", 8), ("report", "a5-quadratic", 60)]
)
HEIGHT = 300


def _rational(rng: random.Random, span: int = HEIGHT) -> Fraction:
    return Fraction(rng.randint(1, span) * rng.choice((1, -1)), rng.randint(1, span))


def _quartic_params(rng: random.Random) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(a, b, c, eps) with a^2 - b^2 eps = c^2 eps, eps = a^2 / (b^2 + c^2) nonsquare."""
    while True:
        b = Fraction(rng.randint(1, 6) * rng.choice((1, -1)), rng.randint(1, 3))
        c = Fraction(rng.randint(1, 6) * rng.choice((1, -1)), rng.randint(1, 3))
        a = Fraction(rng.randint(1, 20) * rng.choice((1, -1)), rng.randint(1, 4))
        eps = a * a / (b * b + c * c)
        if not is_rational_square(eps):
            return a, b, c, eps


def decide_spec(rng: random.Random, family: str, order: int) -> dict:
    """A valid spec dict of the given family, with small-height data."""
    if family == "cyclic-quartic":
        a, b, c, eps = _quartic_params(rng)
        return {"group": f"C{order}", "family": family,
                "a": str(a), "b": str(b), "c": str(c), "eps": str(eps)}
    z = _rational(rng)
    while family == "cyclic-quadratic" and is_rational_square(z):
        z = _rational(rng)
    group = {"d4-quadratic": "D4", "a5-quadratic": "A5"}.get(family, f"C{order}")
    return {"group": group, "family": family, "z": str(z)}


def spec_primes(spec: dict) -> list[int]:
    """2 and every prime of a numerator or denominator in the spec."""
    primes = {2}
    for key in ("z", "a", "b", "c", "eps"):
        if key in spec:
            q = Fraction(spec[key])
            if q:
                primes.update(small_primes_of(q.numerator) + small_primes_of(q.denominator))
    return sorted(primes)


def decide_mix(rng: random.Random, n: int) -> list[dict]:
    out = []
    for kind, family, order in _blocks(rng, DECIDE_BLOCK, n):
        spec = decide_spec(rng, family, order)
        item = {"kind": kind, "spec": spec}
        if kind == "local":
            item["at"] = rng.choice(spec_primes(spec))
        out.append(item)
    return out


# ---------------------------------------------------------------------------
# hilbert-64bit: distinct signed 64-bit pairs


def hilbert_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    seen: set[int] = set()
    out = []
    while len(out) < n:
        a, b = (rng.randrange(1, 1 << 63) * rng.choice((1, -1)) for _ in range(2))
        if abs(a) in seen or abs(b) in seen or abs(a) == abs(b):
            continue
        seen.update((abs(a), abs(b)))
        out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# poly-tower: shifted minimal polynomials of 2cos(2 pi / 2^k), k = 4, 5, 6


def _compose(f: list[int], g: list[int]) -> list[int]:
    """f(g(x)) for integer coefficient lists, constant term first."""
    out = [0]
    for c in reversed(f):
        prod = [0] * (len(out) + len(g) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(g):
                prod[i + j] += x * y
        prod[0] += c
        out = prod
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def tower() -> dict[int, list[int]]:
    """Degree -> minimal polynomial; f_{k+1}(x) = f_k(x^2 - 2)."""
    f = [2, 0, -4, 0, 1]  # x^4 - 4x^2 + 2, the minimal polynomial of 2cos(pi/8)
    out = {4: f}
    for deg in (8, 16):
        f = _compose(f, [-2, 0, 1])
        out[deg] = f
    return out


SHIFTS = range(-3, 4)


def tower_spec(deg: int, shift: int, order: int) -> dict:
    poly = _compose(tower()[deg], [shift, 1])
    return {"group": f"C{order}", "family": "cyclic-poly", "poly": poly, "degree": deg}


def poly_tower(rng: random.Random, n: int) -> list[dict]:
    """Every (degree, shift, group) combination once per block of 42.

    The group is C(2 deg) or C(deg); only the first has the self-dual basis.
    """
    block = [(deg, t, order) for deg in (4, 8, 16) for t in SHIFTS for order in (2 * deg, deg)]
    return [
        {"spec": tower_spec(deg, t, order), "degree": deg, "shift": t}
        for deg, t, order in _blocks(rng, block, n)
    ]


# ---------------------------------------------------------------------------
# cli-cold: argv lists for one `python -m sdnb.cli` child each

# Malformed inputs.  The documented outcome of each is exit 65.
MALFORMED = (
    (["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "1/0"], None),
    (["decide", "--spec", "{spec}"], {"group": "C8", "family": "cyclic-poly", "poly": None}),
    (["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "0"], None),
    (["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "4"], None),
    (["hilbert", "--", "0", "1", "real"], None),
    (["factors", "--group", "C6x4"], None),
    (["embed", "--poly", "1,0,1"], None),
    (["form", "--diag", "1,0,1"], None),
)
CLI_BLOCK = (
    ["hilbert"] * 3 + ["decide"] * 3 + ["decide-spec"] * 2 + ["invariants"] * 2
    + ["form"] * 2 + ["factors", "embed"] + ["malformed"] * 2
)
CLI_GROUPS = ("C8", "C16", "C2xC4", "C4xC4", "D4", "A4", "A5")


def spec_flags(spec: dict) -> list[str]:
    out = []
    for key, value in spec.items():
        if key == "poly":
            value = ",".join(map(str, value))
        out.append(f"--{key}={value}")
    return out


def _cli_op(rng: random.Random, kind: str, malformed_index: int) -> dict:
    if kind == "malformed":
        argv, spec_file = MALFORMED[malformed_index]
        return {"argv": list(argv), "spec_file": spec_file, "expect": "data"}
    if kind == "hilbert":
        a, b = (rng.randint(1, 500) * rng.choice((1, -1)) for _ in range(2))
        v = rng.choice(("real", "2", str(rng.choice((3, 5, 7, 11, 13, 17, 19, 23)))))
        return {"argv": ["hilbert", "--", str(a), str(b), v], "expect": "symbol"}
    if kind in ("decide", "invariants"):
        spec = decide_spec(rng, *rng.choice(DECIDE_FAMILIES))
        argv = [kind] + spec_flags(spec)
        if kind == "invariants":
            return {"argv": argv + ["--format", "json"], "expect": "ok"}
        return {"argv": argv, "expect": "verdict", "spec": spec}
    if kind == "decide-spec":
        if rng.random() < 0.5:
            spec = decide_spec(rng, *rng.choice(DECIDE_FAMILIES))
        else:
            deg = rng.choice((4, 8))
            spec = tower_spec(deg, rng.choice(SHIFTS), rng.choice((deg, 2 * deg)))
        return {"argv": ["decide", "--spec", "{spec}"], "spec_file": spec,
                "expect": "verdict", "spec": spec}
    if kind == "form":
        diag = [rng.randint(1, 50) * rng.choice((1, -1)) for _ in range(3)]
        return {"argv": ["form", "--diag=" + ",".join(map(str, diag)), "--format", "json"],
                "expect": "ok"}
    if kind == "factors":
        return {"argv": ["factors", "--group", rng.choice(CLI_GROUPS)], "expect": "ok"}
    deg = rng.choice((4, 8))
    poly = _compose(tower()[deg], [rng.choice(SHIFTS), 1])
    return {"argv": ["embed", "--poly=" + ",".join(map(str, poly))], "expect": "ok"}


def cli_cold(rng: random.Random, n: int) -> list[dict]:
    """Two malformed inputs in every block of 16; the eight kinds rotate."""
    rotation = list(range(len(MALFORMED)))
    rng.shuffle(rotation)
    out, malformed = [], 0
    for kind in _blocks(rng, CLI_BLOCK, n):
        out.append(_cli_op(rng, kind, rotation[malformed % len(rotation)]))
        malformed += kind == "malformed"
    return out


GENERATORS = {
    "decide-mix": decide_mix,
    "hilbert-64bit": hilbert_pairs,
    "poly-tower": poly_tower,
    "cli-cold": cli_cold,
}
BLOCK = {"decide-mix": len(DECIDE_BLOCK), "hilbert-64bit": 1, "poly-tower": 42,
         "cli-cold": len(CLI_BLOCK)}


def generate(workload: str, seed: int, n: int) -> list:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), n)
