"""Metric names, units and the layer -> metric -> workload prediction table.

``BENCHMARK.json`` lists the same end-to-end and per-layer metrics; the
self-test checks that the two agree.  The prediction table says, before any
optimisation lands, which end-to-end metric each layer's metrics should move
and on which workload, and where the prediction is "no change".
"""

from __future__ import annotations

WORKLOADS = ("decide-mix", "hilbert-64bit", "poly-tower", "cli-cold")

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Reported next to the end-to-end metrics, but not a bounded metric: it is
# exactly 0 on three workloads, and a share of failures is carried by the
# result's ``attempted`` / ``failed`` fields as well.
FAIL_SHARE = ("fail_share", "ratio")

# Public functions wrapped with a span in the traced run, by defining module.
TRACED = {
    "exact": ("factor", "squarefree_part", "euler_phi", "is_prime"),
    "symbols": ("hilbert", "support_places"),
    "brauer": ("cup", "splits_in_quadratic"),
    "forms": ("trace_form", "diagonalize", "hasse_witt"),
    "factors": ("decompose", "local_data"),
    "galois": (
        "spec_from_json", "family_trace_form", "invariant_report",
        "decide_global", "decide_local",
    ),
}

# layer -> (per-layer metrics, should move, on workload, predicted unchanged on)
PREDICTIONS = {
    "exact": (
        ("exact.factor.calls", "exact.factor.self_s", "exact.factor.cache_hit_ratio",
         "exact.squarefree_part.calls", "exact.euler_phi.calls", "exact.is_prime.calls"),
        "ops_per_s, op_tail_ms", "hilbert-64bit", "poly-tower (factoring is about 1%)",
    ),
    "symbols": (
        ("symbols.hilbert.calls", "symbols.hilbert.self_s",
         "symbols.support_places.calls", "symbols.support_places.self_s"),
        "ops_per_s", "hilbert-64bit, decide-mix", "poly-tower",
    ),
    "brauer": (
        ("brauer.cup.calls", "brauer.cup.self_s", "brauer.splits_in_quadratic.calls"),
        "op_p50_ms", "decide-mix", "poly-tower",
    ),
    "forms": (
        ("forms.trace_form.calls", "forms.trace_form.self_s",
         "forms.diagonalize.calls", "forms.diagonalize.self_s",
         "forms.hasse_witt.calls", "forms.hasse_witt.self_s"),
        "op_tail_ms, ops_per_s", "poly-tower",
        "decide-mix and hilbert-64bit (no Gram matrices)",
    ),
    "factors": (
        ("factors.decompose.calls", "factors.decompose.self_s",
         "factors.local_data.calls", "factors.local_data.self_s"),
        "op_p50_ms", "decide-mix", "hilbert-64bit",
    ),
    "galois": (
        ("galois.spec_from_json.self_s", "galois.family_trace_form.calls",
         "galois.invariant_report.calls", "galois.invariant_report.self_s",
         "galois.decide_global.self_s", "galois.decide_local.self_s"),
        "op_p50_ms (decide-mix); op_tail_ms (poly-tower)", "decide-mix, poly-tower",
        "hilbert-64bit, cli-cold",
    ),
    "cli": (
        ("cli.interpreter_ms", "cli.import_ms", "cli.dispatch_ms"),
        "op_p50_ms on cli-cold; setup_s everywhere", "cli-cold",
        "ops_per_s of the three in-process workloads",
    ),
    "trace": (("trace.overhead_ratio",), "-", "-", "-"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in table order."""
    out = {}
    for metrics, *_ in PREDICTIONS.values():
        for name in metrics:
            if name.endswith(".calls"):
                out[name] = ("count", "lower")
            elif name.endswith("_ratio") and name.startswith("exact."):
                out[name] = ("ratio", "higher")
            elif name.endswith("_ratio"):
                out[name] = ("ratio", "lower")
            elif name.endswith("_ms"):
                out[name] = ("ms", "lower")
            else:
                out[name] = ("s", "lower")
    return out
