"""Closed-loop timing: one caller, each operation starts when the last returns.

A workload is a list of cases; one cycle runs each case once.  The timed
phase runs whole cycles until ``seconds`` have passed and at least MIN_OPS
operations are in, so every run holds the same mix and p90 keeps ten samples
above it.  Answers are checked against the oracles between operations,
outside the timed interval.  The cold starts that give setup_s run one after
each cycle, so their median spans the run rather than a few seconds of it.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from spans import Tracer

MIN_OPS = 100
COLD_STARTS = 11


@dataclass
class Case:
    """One operation on fixed inputs, and the oracle that judges its answer.

    ``check`` returns None for a right answer or a reason.  ``known_defect``
    names a case the program is known to get wrong at this commit: it still
    counts in wrong_frac, but does not make the run incorrect.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    span: str = "bench.op"
    attrs: Callable[[object], dict] | None = None
    in_process: bool = True
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    cases: list[Case]  # one cycle, in order
    cold_cmd: list[str]  # argv of the fresh process whose time is setup_s
    cold_clock: bool  # cold_cmd prints its own end time (see spawn_seconds)
    trace_cases: list[Case] = field(default_factory=list)  # extra, traced runs only


@dataclass
class Sample:
    case: str
    seconds: float
    status: str  # "ok", "error" or "wrong"
    reason: str | None = None
    known: bool = False


def run_case(case: Case, tracer: Tracer | None = None) -> Sample:
    ctx = tracer.span(case.span) if tracer is not None else contextlib.nullcontext()
    with ctx as sp:
        t0 = time.perf_counter()
        try:
            answer = case.call()
        except Exception as exc:  # an operation that raises is counted, not fatal
            return Sample(case.name, time.perf_counter() - t0, "error", f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        if sp is not None and case.attrs is not None:
            sp.attrs.update(case.attrs(answer))
    reason = case.check(answer)
    if reason is None:
        return Sample(case.name, dt, "ok")
    return Sample(case.name, dt, "wrong", reason, known=case.known_defect is not None)


def timed_cycles(order: list[Case], seconds: float, min_ops: int = MIN_OPS, tracer: Tracer | None = None,
                 after_cycle: Callable[[], None] | None = None):
    """Run whole cycles until ``seconds`` passed, with at least ``min_ops``
    operations and one cycle; ``after_cycle`` runs, untimed, after each.
    Returns the samples and, per cycle, its operation count, busy seconds
    and in-process busy seconds.
    """
    samples: list[Sample] = []
    cycles = []
    end = time.perf_counter() + seconds
    while True:
        busy = inproc = 0.0
        for case in order:
            s = run_case(case, tracer)
            samples.append(s)
            busy += s.seconds
            inproc += s.seconds if case.in_process else 0.0
        cycles.append({"ops": len(order), "busy_s": busy, "in_process_s": inproc})
        if after_cycle is not None:
            after_cycle()
        if time.perf_counter() >= end and len(samples) >= min_ops:
            return samples, cycles


def case_medians(samples: list[Sample]) -> dict[str, float]:
    """Median latency in seconds of each case."""
    by_case: dict[str, list[float]] = {}
    for s in samples:
        by_case.setdefault(s.case, []).append(s.seconds)
    return {name: statistics.median(v) for name, v in by_case.items()}


def latency_stats(samples: list[Sample], cycles) -> dict:
    """Throughput, median and p90 latency over every operation of the timed phase.

    ops_per_s is the completed operations (all but those that raised) over
    the summed operation time, so the checks between operations stay out.
    p90 uses the quantile method that is Python's default ("exclusive").
    """
    lat_ms = [s.seconds * 1e3 for s in samples]
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    return {
        "ops_per_s": sum(1 for s in samples if s.status != "error") / sum(s.seconds for s in samples),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
        "samples": len(lat_ms),
        "above_p90": sum(1 for x in lat_ms if x > p90),
        "cycles": len(cycles),
    }


def failure_counts(samples: list[Sample]) -> dict:
    n = len(samples)
    errors = [s for s in samples if s.status == "error"]
    wrong = [s for s in samples if s.status == "wrong"]
    return {
        "attempted": n,
        "errors": len(errors),
        "wrong": len(wrong),
        "unexpected_wrong": sum(1 for s in wrong if not s.known),
        "error_frac": len(errors) / n,
        "wrong_frac": len(wrong) / n,
        "first_reasons": sorted({f"{s.case}: {s.reason}" for s in errors + wrong})[:20],
    }


def spawn_seconds(cmd: list[str], env: dict, cwd: Path, child_clock: bool = False) -> float:
    """Wall time of one fresh process, from spawn to exit.

    With ``child_clock`` the time ends instead at the time.perf_counter()
    value the child prints last, so its teardown stays out; on Linux that
    clock is CLOCK_MONOTONIC, one clock for every process.
    """
    t0 = time.perf_counter()
    r = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=120)
    t1 = time.perf_counter()
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}: {r.stderr.decode()[-400:]}")
    return (float(r.stdout.split()[-1]) if child_clock else t1) - t0


def median_spawn_seconds(cmd: list[str], env: dict, cwd: Path) -> float:
    return statistics.median(spawn_seconds(cmd, env, cwd) for _ in range(COLD_STARTS))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, read without setting it."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }

