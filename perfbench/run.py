"""Seeded benchmark for sdnb: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` (it need
not be installed).  Every workload is a closed loop with one client in one
fresh interpreter: the next operation starts when the previous one returns.

``--trace 0`` prints the end-to-end metrics of one timed run; ``--trace 1``
runs a fixed, smaller corpus twice in fresh interpreters, untraced and with
span recorders around the library's public functions, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (interpreter, numpy, CPU, commit, seed, tail percentile,
fail_share).  Outputs of a run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import corpus
import layers
from worker import OUT, ROOT, child_env

SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

# Operations per second of --seconds.  The count is fixed so that every
# commit runs the same operations for a seed; it was sized to take about
# --seconds on a 2-vCPU Xeon virtual machine at the commit that added the benchmark.
OPS_PER_SECOND = {"decide-mix": 1800, "hilbert-64bit": 330, "poly-tower": 70, "cli-cold": 4}
# Operations of the traced run: deterministic, so its call counts repeat.
TRACE_OPS = {"decide-mix": 1000, "hilbert-64bit": 300, "poly-tower": 84, "cli-cold": 16}
SETUP_PROBES = 9
CLI_PROBES = 9
CLI_PROBE = ["decide", "--group", "C8", "--family", "cyclic-quadratic", "--z", "3"]


class BenchError(RuntimeError):
    pass


def n_ops(workload: str, seconds: int) -> int:
    block = corpus.BLOCK[workload]
    return max(1, round(OPS_PER_SECOND[workload] * seconds / block)) * block


def _run(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[:4]} did not finish within {timeout} s") from exc


def run_worker(workload: str, seed: int, ops: int, cap: float, *flags: str) -> dict:
    argv = [sys.executable, str(WORKER), "run", "--workload", workload, "--seed", str(seed),
            "--ops", str(ops), "--cap-seconds", str(cap), *flags]
    proc = _run(argv, cap + 60)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds() -> tuple[float, float]:
    """Median of rescaled and of raw ``import sdnb`` times, each probe paired
    with a reference import in the next fresh interpreter."""
    env, cwd = child_env(), str(ROOT)
    calibrate.timed_import("import sdnb", env, cwd)  # writes the bytecode caches
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        imported = calibrate.timed_import("import sdnb", env, cwd)
        reference = calibrate.timed_import(calibrate.REFERENCE_IMPORT, env, cwd)
        raw.append(imported)
        scaled.append(imported * calibrate.IMPORT_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def wall_ms(argv: list[str]) -> float:
    start = time.perf_counter()
    _run(argv, 60)
    return (time.perf_counter() - start) * 1e3


def cli_layers() -> dict:
    """Interpreter start, import and dispatch shares of a CLI call, in ms.

    The three probes alternate, so that a slow spell of the machine falls on
    all of them alike.
    """
    py = sys.executable
    probes = ([py, "-c", "pass"], [py, "-c", "import sdnb"], [py, "-m", "sdnb.cli", *CLI_PROBE])
    walls = [[], [], []]
    for _ in range(CLI_PROBES):
        for wall, argv in zip(walls, probes):
            wall.append(wall_ms(argv))
    interpreter, imported, call = (statistics.median(w) for w in walls)
    return {"cli.interpreter_ms": interpreter, "cli.import_ms": imported - interpreter,
            "cli.dispatch_ms": call - imported}


def run_record(args: argparse.Namespace, ops: int, summary: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    failed = summary["wrong"] + summary["undocumented"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": ops, "python": platform.python_version(),
        "numpy": summary["numpy"], "cpu": cpu, "nproc": os.cpu_count(),
        "commit": commit, "src_sha256": digest.hexdigest(),
        "attempted": summary["attempted"], "wrong": summary["wrong"],
        "undocumented": summary["undocumented"], "truncated": summary["truncated"],
        "fail_share": failed / summary["attempted"],
        "op_tail_pct": summary["op_tail_pct"], "op_tail_beyond": summary["op_tail_beyond"],
        "reference_s": summary["reference_s"], "raw_ops_per_s": summary["raw_ops_per_s"],
        "raw_op_p50_ms": summary["raw_op_p50_ms"], "raw_op_tail_ms": summary["raw_op_tail_ms"],
        "raw_setup_s": summary.get("raw_setup_s"),
    }


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict, int]:
    setup, raw_setup = setup_seconds()
    ops = n_ops(args.workload, args.seconds)
    summary = run_worker(args.workload, args.seed, ops, min(3 * args.seconds + 10, 110),
                     *(["--inject-wrong"] if args.inject_wrong else []))
    summary["raw_setup_s"] = raw_setup
    values = {name: summary[name] for name in layers.END_TO_END if name != "setup_s"}
    values["setup_s"] = setup
    return values, summary, ops


def per_layer(args: argparse.Namespace) -> tuple[dict, dict, int]:
    ops = TRACE_OPS[args.workload]
    untraced = run_worker(args.workload, args.seed, ops, 45)
    traced = run_worker(args.workload, args.seed, ops, 45, "--traced")
    traced["wrong"] += untraced["wrong"]
    totals = traced["totals"]
    hits, misses = traced["factor_cache"]
    values = {}
    for name in layers.per_layer_units():
        function, stat = name.rsplit(".", 1)
        if stat in totals.get(function, {}):
            values[name] = totals[function][stat]
    values["exact.factor.cache_hit_ratio"] = hits / max(hits + misses, 1)
    values["trace.overhead_ratio"] = untraced["ops_per_s"] / traced["ops_per_s"]
    values.update(cli_layers())
    return values, traced, ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one output before the checks (self-test only)")
    args = parser.parse_args(argv)
    if not (SRC / "sdnb" / "__init__.py").is_file():
        print(f"no sdnb package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    try:
        values, summary, ops = (per_layer if args.trace else end_to_end)(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = layers.per_layer_units() if args.trace else layers.END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    record = run_record(args, ops, summary)
    if not args.trace:
        record["end_to_end"] = dict(metrics)
        record["end_to_end"][layers.FAIL_SHARE[0]] = {
            "value": record["fail_share"], "unit": layers.FAIL_SHARE[1]}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["wrong"] + summary["undocumented"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
