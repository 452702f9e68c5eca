"""The layer -> metric table of the traced run.

Spans are named ``<module>.<function>`` after the program's public functions;
``cli.subprocess`` and ``bench.op`` are the benchmark's own spans around a
CLI child process and around one operation.  Every value is per cycle of the
workload, so counts repeat exactly for a seed.
"""

from __future__ import annotations

# Modules whose public functions get spans.  linalg is reached only through
# these; fixtures and rand only build inputs.
TRACED_LAYERS = ("povm", "dilation", "extremality", "channels", "polycert", "phase", "wire", "cli")

OBSERVERS = {
    "dilation.build_dilation": lambda a, kw, r: {"outcomes": len(a[0]), "total_dim": r.total_dim},
    "extremality.build_perturbation_map": lambda a, kw, r: {
        "domain_dim": r.domain_dim,
        "codomain_dim": r.codomain_dim,
    },
    "extremality.purity_verdict": lambda a, kw, r: {
        "impure": int(not r.pure),
        "kernel_dim": r.kernel_dim,
        "marginal": int(r.marginal),
    },
    "channels.connection_feasible": lambda a, kw, r: {
        "iterations": r.iterations,
        "certified": int(r.feasible),
        "iterations_stalled": 0 if r.feasible else r.iterations,
    },
    "polycert.product_span_certificate": lambda a, kw, r: {
        "slots": r.certified_to_degree + 1,
        "products": len(a[0].members) ** 2,
        "inconclusive": int(not r.certified),
    },
    "phase.phase_truncation_demo": lambda a, kw, r: {"grid_points": r.grid},
}

# (metric, unit, better, span, what): what is "busy", "calls" or an attribute.
SPAN_METRICS = [
    ("dilation.build.busy_s", "s", "lower", "dilation.build_dilation", "busy"),
    ("dilation.build.calls", "count", "lower", "dilation.build_dilation", "calls"),
    ("dilation.outcomes", "count", "lower", "dilation.build_dilation", "outcomes"),
    ("dilation.total_dim", "count", "lower", "dilation.build_dilation", "total_dim"),
    ("extremality.verdict.busy_s", "s", "lower", "extremality.purity_verdict", "busy"),
    ("extremality.verdict.calls", "count", "lower", "extremality.purity_verdict", "calls"),
    ("extremality.domain_dim", "count", "lower", "extremality.build_perturbation_map", "domain_dim"),
    ("extremality.codomain_dim", "count", "lower", "extremality.build_perturbation_map", "codomain_dim"),
    ("extremality.split.busy_s", "s", "lower", "extremality.convex_split", "busy"),
    ("extremality.split.calls", "count", "lower", "extremality.convex_split", "calls"),
    ("extremality.impure", "count", "lower", "extremality.purity_verdict", "impure"),
    ("extremality.kernel_dim", "count", "lower", "extremality.purity_verdict", "kernel_dim"),
    ("extremality.marginal", "count", "lower", "extremality.purity_verdict", "marginal"),
    ("channels.feasible.busy_s", "s", "lower", "channels.connection_feasible", "busy"),
    ("channels.feasible.calls", "count", "lower", "channels.connection_feasible", "calls"),
    ("channels.iterations", "count", "lower", "channels.connection_feasible", "iterations"),
    ("channels.iterations_stalled", "count", "lower", "channels.connection_feasible", "iterations_stalled"),
    ("channels.certified", "count", "higher", "channels.connection_feasible", "certified"),
    ("channels.preprocess.busy_s", "s", "lower", "channels.preprocess_from_pvm", "busy"),
    ("channels.preprocess.calls", "count", "lower", "channels.preprocess_from_pvm", "calls"),
    ("polycert.certificate.busy_s", "s", "lower", "polycert.product_span_certificate", "busy"),
    ("polycert.certificate.calls", "count", "lower", "polycert.product_span_certificate", "calls"),
    ("polycert.slots", "count", "lower", "polycert.product_span_certificate", "slots"),
    ("polycert.products", "count", "lower", "polycert.product_span_certificate", "products"),
    ("polycert.inconclusive", "count", "lower", "polycert.product_span_certificate", "inconclusive"),
    ("phase.certificate.busy_s", "s", "lower", "phase.fourier_span_certificate", "busy"),
    ("phase.certificate.calls", "count", "lower", "phase.fourier_span_certificate", "calls"),
    ("phase.demo.busy_s", "s", "lower", "phase.phase_truncation_demo", "busy"),
    ("phase.demo.calls", "count", "lower", "phase.phase_truncation_demo", "calls"),
    ("phase.grid_points", "count", "lower", "phase.phase_truncation_demo", "grid_points"),
    ("cli.subprocess.busy_s", "s", "lower", "cli.subprocess", "busy"),
    ("cli.calls", "count", "lower", "cli.subprocess", "calls"),
    ("cli.report_bytes", "bytes", "lower", "cli.subprocess", "report_bytes"),
    ("cli.main.busy_s", "s", "lower", "cli.main", "busy"),
    ("povm.from_dict.busy_s", "s", "lower", "povm.povm_from_dict", "busy"),
    ("wire.dumps_report.busy_s", "s", "lower", "wire.dumps_report", "busy"),
]

# Measured by the harness rather than read off spans.
OTHER_METRICS = [
    ("channels.ms_per_kiter", "ms", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("src.lines", "count", "lower"),
]

PER_LAYER = [m[:3] for m in SPAN_METRICS] + OTHER_METRICS


def span_metrics(summary: dict, cycles: int) -> dict[str, float]:
    """Per-cycle values of SPAN_METRICS from a spans.summarize() table."""
    out = {}
    for name, _unit, _better, span, what in SPAN_METRICS:
        row = summary.get(span, {"calls": 0, "busy_s": 0.0, "attrs": {}})
        if what == "busy":
            value = row["busy_s"]
        elif what == "calls":
            value = row["calls"]
        else:
            value = row["attrs"].get(what, 0)
        # every traced cycle does the same work, so counts divide exactly
        out[name] = value / cycles if what == "busy" or value % cycles else value // cycles
    iters = out["channels.iterations"]
    out["channels.ms_per_kiter"] = out["channels.feasible.busy_s"] * 1e6 / iters if iters else 0.0
    return out
