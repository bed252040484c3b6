"""Library-independent references that rescale measured times to a fixed speed.

The benchmark runs on shared virtual CPUs whose speed swings by up to 2x
within seconds (a pure-Python loop measured 33 to 76 ms back to back on a
shared 2-vCPU Xeon virtual machine), and 20-second runs of one corpus
differed by up to 25%.
Each reported time is therefore measured next to a reference of the same
kind that does not involve the library, and multiplied by
``nominal / reference time``: the result is the time the work would take on
a machine where the reference takes its nominal time.  The raw times stay in
the run record.

* In-process operations are scaled by ``kernel()``, a small pure-Python loop.
* ``import sdnb`` and CLI calls are scaled by importing a fixed set of
  standard-library modules (some with C extensions) in a fresh interpreter;
  the kernel does not track them (rescaled by it, the spread of set-up time
  grew, while the import reference cut the spread of 9-probe medians from
  17% to 6%).

The nominal times are constants, about the medians measured on the 2.1 GHz
Xeon virtual machine where the benchmark was written, so that runs compare.
"""

import subprocess
import sys
import time

KERNEL_S = 0.0003
REFERENCE_IMPORT = "import json, decimal, fractions, argparse, dataclasses, enum, typing"
IMPORT_S = 0.02
PROCESS_S = 0.09
_REPEATS = 3
_TIMED_IMPORT = ("import time, sys; t = time.perf_counter(); {}; "
                 "sys.stdout.write(repr(time.perf_counter() - t))")


def _loop() -> int:
    x, table = 1, {}
    for i in range(700):
        x = (x * x + 12345) % 18446744073709551557
        table[i & 127] = (x & 1023, i)
    return len(table) + x


def kernel() -> float:
    """Loop time in seconds: the fastest of a few back-to-back runs."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def timed_import(statement: str, env: dict, cwd: str) -> float:
    """Seconds an import statement takes inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _TIMED_IMPORT.format(statement)],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"{statement!r} failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout)


def process(env: dict, cwd: str) -> float:
    """Wall seconds of a fresh interpreter that runs REFERENCE_IMPORT."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], env=env, cwd=cwd,
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - start
