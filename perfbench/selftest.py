"""Self-test of the benchmark itself (not of sdnb).

    python3 perfbench/selftest.py

Runs every workload at its smallest size (``--seconds 1``) in both modes and
checks that:

* the last line is ``{"correct", "attempted", "failed", "metrics"}`` and
  names every end-to-end (``--trace 0``) or per-layer (``--trace 1``)
  metric with its unit, and the run record carries all six end-to-end
  metrics including ``fail_share``;
* ``BENCHMARK.json`` lists the same workloads and metrics as ``layers.py``;
* an injected wrong answer is counted as failed, so the checks are live;
* the traced run's call counts repeat exactly for the same seed;
* without ``src/sdnb`` the benchmark exits non-zero and prints no result.
Exits 1 and names every failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import layers
from worker import OUT, ROOT

HERE = ROOT / "perfbench"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, *extra: str, cwd=ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def check_result(workload: str, trace: int, lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    units = layers.per_layer_units() if trace else layers.END_TO_END
    tag = f"{workload} --trace {trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(result["correct"] is True and result["attempted"] >= 1, f"{tag}: correct")
    expect(
        set(result["metrics"]) == set(units)
        and all(m["unit"] == units[k][0] and isinstance(m["value"], (int, float))
                for k, m in result["metrics"].items()),
        f"{tag}: every metric by name with its unit",
    )
    if not trace:
        names = set(layers.END_TO_END) | {layers.FAIL_SHARE[0]}
        expect(set(record["end_to_end"]) == names, f"{tag}: record has the six end-to-end metrics")
    keys = ("python", "numpy", "cpu", "nproc", "commit", "seed", "src_sha256")
    expect(all(key in record for key in keys), f"{tag}: run record has " + ", ".join(keys))
    return result


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS),
           "BENCHMARK.json workloads match layers.WORKLOADS")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
           == layers.END_TO_END, "BENCHMARK.json end_to_end matches layers.END_TO_END")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
           == layers.per_layer_units(), "BENCHMARK.json per_layer matches layers.PREDICTIONS")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    code, lines = bench("decide-mix", 0, cwd=bare)
    expect(code != 0 and not lines, "without src/sdnb: non-zero exit and no result")
    shutil.rmtree(bare)


def main() -> int:
    check_benchmark_json()
    for workload in layers.WORKLOADS:
        code, lines = bench(workload, 0)
        expect(code == 0, f"{workload} --trace 0 exits 0")
        if code:
            continue
        base = check_result(workload, 0, lines)
        code, lines = bench(workload, 0, "--inject-wrong")
        injected = json.loads(lines[-1]) if code == 0 else {}
        expect(injected.get("correct") is False
               and injected.get("failed") == base["failed"] + 1,
               f"{workload}: an injected wrong answer is counted as failed")
        counts = []
        for _ in range(2):
            code, lines = bench(workload, 1)
            expect(code == 0, f"{workload} --trace 1 exits 0")
            if code == 0:
                metrics = check_result(workload, 1, lines)["metrics"]
                counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
        expect(len(counts) == 2 and counts[0] == counts[1],
               f"{workload}: traced call counts repeat for the same seed")
    check_bare_directory()
    print(f"{len(failures)} failed expectation(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
