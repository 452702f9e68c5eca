"""Benchmark of povm-purity: five closed-loop workloads with exact oracles.

Run from the root of a checkout:

    python3 bench/run.py --workload purity-impure --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the full record, with
the environment, goes to .bench_build/bench/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "bench"
WORKLOADS = ("purity-pure", "purity-impure", "feasibility", "certificates", "cli")
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def child_env() -> dict:
    """The caller's environment, with the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_program() -> None:
    """Import povm_purity from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import povm_purity

    if Path(povm_purity.__file__).resolve().parent != SRC / "povm_purity":
        raise ImportError(f"povm_purity imported from {povm_purity.__file__}, not from {SRC}")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "povm_purity").glob("*.py")))


def run_one(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import harness
    import layers
    import workloads
    from spans import Tracer, span_cost_s, summarize

    env = child_env()
    wl = workloads.build(name, seed, ROOT, WORKDIR, env)
    harness.run_case(wl.cases[0])  # the cold first call, untimed: lazy loading finishes here
    order = list(wl.cases)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "environment": harness.environment(seed)}

    if not traced:
        cold = []

        def cold_start():
            cold.append(harness.spawn_seconds(wl.cold_cmd, env, ROOT, child_clock=wl.cold_clock))

        samples, cycles = harness.timed_cycles(order, seconds, after_cycle=cold_start)
        while len(cold) < harness.COLD_STARTS:
            cold_start()
        stats = harness.latency_stats(samples, cycles)
        values = {k: stats[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
        values["setup_s"] = statistics.median(cold)
        values["peak_rss_mb"] = harness.peak_rss_mb(children=name == "cli")
        units = dict(END_TO_END)
        record["stats"] = stats
        record["cold_starts_s"] = cold
    else:
        order += wl.trace_cases
        tracer = Tracer(layers.OBSERVERS)
        with tracer.instrument("povm_purity", layers.TRACED_LAYERS):
            samples, cycles = harness.timed_cycles(order, seconds, min_ops=0, tracer=tracer)
        summary = summarize(tracer.spans)
        values = layers.span_metrics(summary, len(cycles))
        # the benchmark's own spans around operations are roots; every span
        # under one is a wrapper around a program call, costing span_cost
        wrapped = sum(1 for sp in tracer.spans if sp.parent is not None)
        in_process = sum(c["in_process_s"] for c in cycles)
        span_cost = span_cost_s()
        values["trace.overhead_frac"] = wrapped * span_cost / in_process if in_process else 0.0
        values["cli.interpreter_s"] = harness.median_spawn_seconds([sys.executable, "-c", "pass"], env, ROOT)
        values["cli.import_s"] = harness.median_spawn_seconds([sys.executable, "-c", "import povm_purity.cli"], env, ROOT)
        values["src.lines"] = src_lines()
        units = {m[0]: m[1] for m in layers.PER_LAYER}
        record["spans"] = dict(sorted(summary.items()))
        record["span_cost_s"] = span_cost

    fails = harness.failure_counts(samples)
    record["cases_median_ms"] = {k: v * 1e3 for k, v in harness.case_medians(samples).items()}
    record["samples_ms"] = [[s.case, s.seconds * 1e3] for s in samples]
    record["failures"] = fails
    record["cycles"] = cycles
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record["result"] = {
        "correct": fails["errors"] == 0 and fails["unexpected_wrong"] == 0,
        "attempted": fails["attempted"],
        "failed": fails["errors"],
        "metrics": record["metrics"],
    }
    return record


def report(record: dict) -> None:
    """Human-readable lines; the JSON result follows as the last line."""
    f = record["failures"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{f['attempted']} operations in {len(record['cycles'])} cycles")
    stats = record.get("stats", {})
    notes = {
        "ops_per_s": f"{stats.get('samples')} operations in {stats.get('cycles')} cycles",
        "op_p50_ms": f"{stats.get('samples')} samples",
        "op_p90_ms": f"{stats.get('samples')} samples, {stats.get('above_p90')} above",
        "setup_s": f"median of {len(record.get('cold_starts_s', ()))} cold starts",
    }
    for name, m in record["metrics"].items():
        note = notes.get(name, "") if record["trace"] == 0 else ""
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']:6s} {note}")
    print(f"  {'error_frac':30s} {f['error_frac']:>14.6g} ratio  {f['errors']}/{f['attempted']}")
    print(f"  {'wrong_frac':30s} {f['wrong_frac']:>14.6g} ratio  {f['wrong']}/{f['attempted']}"
          f" ({f['wrong'] - f['unexpected_wrong']} known defects)")
    for reason in f["first_reasons"]:
        print(f"    {reason}")


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Every workload in its own process, then one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(r.stdout)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            return r.returncode
        rows.append((name, json.loads((WORKDIR / result_name(name, seed, traced)).read_text())))
    if not traced:  # the per-layer metrics are too many for one table; each run printed its own
        heads = [f"{k} [{m['unit']}]" for k, m in rows[0][1]["metrics"].items()] + ["error_frac", "wrong_frac", "samples"]
        print()
        print(f"{'workload':15s}" + "".join(f"{h:>20s}" for h in heads))
        for name, rec in rows:
            f = rec["failures"]
            vals = [m["value"] for m in rec["metrics"].values()] + [f["error_frac"], f["wrong_frac"]]
            print(f"{name:15s}" + "".join(f"{v:20.5g}" for v in vals) + f"{f['attempted']:20d}")
    print(json.dumps({name: rec["result"] for name, rec in rows}))
    return 0


def result_name(name: str, seed: int, traced: bool) -> str:
    return f"result-{name}-seed{seed}-trace{int(traced)}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    if not (SRC / "povm_purity" / "__init__.py").is_file():
        print(f"bench: the program's source is missing: {SRC / 'povm_purity'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    os.chdir(ROOT)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    import_program()
    t0 = time.perf_counter()
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    record["wall_s"] = time.perf_counter() - t0
    (WORKDIR / result_name(args.workload, args.seed, bool(args.trace))).write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
