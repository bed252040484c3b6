"""Span recorder that wraps library functions from outside the library.

``install`` replaces every ``sdnb.*`` module attribute that holds one of the
listed function objects (modules bind names with ``from .exact import
factor``, so the defining module is not the only holder) by a wrapper that
records name, start, end, parent span and operation id.  Spans stay in
memory, in flat integer arrays, until ``write`` at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(rec.start)
            rec.name.append(index)
            rec.parent.append(rec.current)
            rec.op.append(rec.op_id)
            rec.end.append(0)
            outer, rec.current = rec.current, span
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[span] = clock()
                rec.current = outer

        return traced

    def install(self, traced: dict[str, tuple[str, ...]], package: str = "sdnb") -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == package or k.startswith(package + ".")]
        for module_name, functions in traced.items():
            home = sys.modules[f"{package}.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(len(self.names), original)
                self.names.append(f"{module_name}.{fn_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: number of calls and self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly in one thread, so children never overlap.
        """
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_ns[k] += self.end[i] - self.start[i] - child[i]
        return {name: {"calls": calls[k], "self_s": self_ns[k] / 1e9}
                for k, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """All spans as tab-separated rows: op, span, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i]}\t{self.end[i]}\n")
