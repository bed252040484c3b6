"""One workload run in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py run --workload W --seed S --ops N --cap-seconds C
        [--traced] [--inject-wrong]
    python3 perfbench/worker.py cli-child --spans-out PATH -- <sdnb.cli argv>

``run`` generates the seeded corpus, runs its operations in a closed loop
(one at a time, one client), checks every output after the loop, and prints
one JSON summary line.  With ``--traced`` the
library's public functions are wrapped with span recorders for the loop.
``cli-child`` is the traced stand-in for ``python -m sdnb.cli``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# The ladder stops at p99: above it, latencies on a shared virtual machine
# are set by collector pauses and host preemption, not by the operation (in
# 36000 decide-mix operations, 33 generation-1 collections of up to 2.4 ms).
TAIL_LADDER = (50, 75, 90, 99)
MIN_BEYOND = 10
SEGMENT_S = 0.02  # between kernel references
CLI_SEGMENT_S = 0.4  # between reference processes: about every other CLI call


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest ladder percentile
    that leaves at least MIN_BEYOND samples beyond it (p50 if none does)."""
    s = sorted(latencies)
    n = len(s)
    best = None
    for p in TAIL_LADDER:
        rank = max(math.ceil(p / 100 * n), 1)
        if best is None or n - rank >= MIN_BEYOND:
            best = (p, s[rank - 1], n - rank)
    return best


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SDNB_FACTOR_BUDGET", None)
    return env


def _cli_runner(traced: bool):
    import ops

    env, cwd = child_env(), str(ROOT)
    spans_dir = OUT / "cli-spans"
    if traced:
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("op*"):
            old.unlink()

    def run(index: int, item: dict):
        argv = [a.replace("{spec}", item.get("spec_path", "")) for a in item["argv"]]
        if traced:
            prefix = [sys.executable, str(Path(__file__)), "cli-child",
                      "--spans-out", str(spans_dir / f"op{index}"), "--"]
        else:
            prefix = [sys.executable, "-m", "sdnb.cli"]
        return ops.run_cli(prefix + argv, env, cwd)

    return run


def _merge_cli_spans() -> tuple[dict, tuple[int, int]]:
    totals: dict[str, dict[str, float]] = {}
    hits = misses = 0
    for path in sorted((OUT / "cli-spans").glob("op*.json")):
        data = json.loads(path.read_text())
        hits += data["cache"][0]
        misses += data["cache"][1]
        for name, t in data["totals"].items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += t["calls"]
            acc["self_s"] += t["self_s"]
    return totals, (hits, misses)


def run(args: argparse.Namespace) -> dict:
    import sdnb

    import calibrate
    import corpus
    import layers
    import ops
    from spans import Recorder

    items = corpus.generate(args.workload, args.seed, args.ops)
    cli = args.workload == "cli-cold"
    if cli:
        spec_dir = OUT / "specs"
        spec_dir.mkdir(parents=True, exist_ok=True)
        for i, item in enumerate(items):
            if item.get("spec_file") is not None or "{spec}" in item["argv"]:
                path = spec_dir / f"op{i}.json"
                path.write_text(json.dumps(item["spec_file"]))
                item["spec_path"] = str(path.relative_to(ROOT))
        runner = _cli_runner(args.traced)
    else:
        single = {"decide-mix": ops.run_decide, "hilbert-64bit": ops.run_cup,
                  "poly-tower": ops.run_poly}[args.workload]

        def runner(index, item):
            return single(item)

    # keep the corpus out of the collector's work during the loop
    gc.freeze()
    recorder = Recorder() if args.traced and not cli else None
    if recorder:
        recorder.install(layers.TRACED)

    # A reference (calibrate.py) runs between operations, once a segment of
    # operations has lasted long enough; each operation is rescaled by the
    # mean of the two reference times around its segment.
    if cli:
        env, cwd = child_env(), str(ROOT)

        def reference():
            return calibrate.process(env, cwd)

        nominal, segment = calibrate.PROCESS_S, CLI_SEGMENT_S
    else:
        reference, nominal, segment = calibrate.kernel, calibrate.KERNEL_S, SEGMENT_S
    latencies: list[float] = []
    segment_of: list[int] = []
    references = [reference()]
    results: list = []
    truncated = False
    clock = time.perf_counter
    segment_start = clock()
    deadline = segment_start + args.cap_seconds
    for i, item in enumerate(items):
        if recorder:
            recorder.op_id = i
        t0 = clock()
        try:
            result = runner(i, item)
        except Exception:  # recorded as a failed operation
            result = ops.Raised()
        t1 = clock()
        latencies.append(t1 - t0)
        segment_of.append(len(references) - 1)
        results.append(result)
        if t1 - segment_start >= segment or i + 1 == len(items):
            references.append(reference())
            segment_start = clock()
        if t1 > deadline and i + 1 < len(items):
            truncated = True
            references.append(reference())
            break
    scale = [2 * nominal / (a + b) for a, b in zip(references, references[1:])]
    scaled = [t * scale[k] for t, k in zip(latencies, segment_of)]

    info = sdnb.exact._factor_fraction.cache_info()
    cache = (info.hits, info.misses)
    if recorder:
        recorder.uninstall()
    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    check, corrupt = ops.CHECKS[args.workload]
    if args.inject_wrong:
        for i, (item, result) in enumerate(zip(items, results)):
            wrong = None if isinstance(result, ops.Raised) else corrupt(item, result)
            if wrong is not None:
                results[i] = wrong
                break
    outcomes = [check(item, result) for item, result in zip(items, results)]

    n = len(results)
    pct, tail_s, beyond = tail(scaled)
    summary = {
        "attempted": n,
        "wrong": outcomes.count("wrong"),
        "undocumented": outcomes.count("undocumented"),
        "truncated": truncated,
        "ops_per_s": n / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_pct": pct,
        "op_tail_beyond": beyond,
        "raw_ops_per_s": n / sum(latencies),
        "raw_op_p50_ms": statistics.median(latencies) * 1e3,
        "raw_op_tail_ms": tail(latencies)[1] * 1e3,
        "reference_s": statistics.median(references),
        "peak_rss_mb": rss_mb,
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if args.traced:
        if recorder:
            totals = recorder.totals()
            OUT.mkdir(parents=True, exist_ok=True)
            recorder.write(str(OUT / f"spans-{args.workload}.tsv"))
        else:
            totals, cache = _merge_cli_spans()
        summary["totals"] = totals
        summary["factor_cache"] = cache
    return summary


def cli_child(args: argparse.Namespace) -> int:
    import sdnb.cli

    import layers
    from spans import Recorder

    recorder = Recorder()
    recorder.install(layers.TRACED)
    recorder.op_id = 0
    try:
        return sdnb.cli.main(args.argv)
    finally:
        recorder.uninstall()
        info = sdnb.exact._factor_fraction.cache_info()
        recorder.write(args.spans_out + ".tsv")
        with open(args.spans_out + ".json", "w") as fh:
            json.dump({"totals": recorder.totals(), "cache": [info.hits, info.misses]}, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--ops", type=int, required=True)
    p_run.add_argument("--cap-seconds", type=float, required=True)
    p_run.add_argument("--traced", action="store_true")
    p_run.add_argument("--inject-wrong", action="store_true")
    p_child = sub.add_parser("cli-child")
    p_child.add_argument("--spans-out", required=True)
    p_child.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli-child":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cli_child(args)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
