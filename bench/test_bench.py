"""Tests of the benchmark itself: oracles, failure accounting and spans.

Run from the root of a checkout:  python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from povm_purity import channels, extremality, fixtures, polycert, rand  # noqa: E402
from spans import Tracer, span_cost_s, summarize  # noqa: E402


def _failures(case: harness.Case, n: int = 3) -> dict:
    samples, _ = harness.timed_cycles([case], seconds=0, min_ops=n)
    return harness.failure_counts(samples)


# ---------------------------------------------------------------------------
# wrong answers count in wrong_frac
# ---------------------------------------------------------------------------


def test_right_answers_pass_every_oracle():
    rng = np.random.default_rng(0)
    cases = [
        workloads.rank_one_case("trine", fixtures.fixture("trine")),
        workloads.purity_case("coin", fixtures.fixture("coin"), 4, 4),
        workloads.poly_case("hermite-12-x2", "hermite", 12, (2,)),
        workloads._pushforward_pair(rng, "pair", 2, 3, 2),
        workloads._stalled_pair(rng, "stalled", "coin"),
        workloads.preprocess_case("pre", rng, 4),
    ]
    for case in cases:
        assert _failures(case, 1)["wrong_frac"] == 0.0, case.name


def test_wrong_verdict_counts(monkeypatch):
    case = workloads.rank_one_case("trine", fixtures.fixture("trine"))
    fake = extremality.PurityVerdict(pure=False, kernel_dim=1, smallest_singular_value=0.0, marginal=False, witness=None)
    monkeypatch.setattr(extremality, "purity_verdict", lambda p, tol=None: fake)
    monkeypatch.setattr(extremality, "convex_split", lambda p, v, tol=None: extremality.ConvexSplit(p, p))
    f = _failures(case)
    assert f["wrong_frac"] == 1.0 and f["unexpected_wrong"] == 3


def test_wrong_split_counts(monkeypatch):
    coin = fixtures.fixture("coin")
    case = workloads.purity_case("coin", coin, 4, 4)
    # the halves are valid POVMs but do not average back to the coin
    pvm = fixtures.fixture("computational-pvm-d2")
    monkeypatch.setattr(extremality, "convex_split", lambda p, v, tol=None: extremality.ConvexSplit(pvm, pvm))
    assert _failures(case)["wrong_frac"] == 1.0


def test_wrong_certificate_counts(monkeypatch):
    case = workloads.poly_case("hermite-12", "hermite", 12)
    fake = polycert.PurityCertificate(certified_to_degree=12, verdict="inconclusive", missing_degrees=(12,))
    monkeypatch.setattr(polycert, "product_span_certificate", lambda fam, deg, tol=None: fake)
    assert _failures(case)["wrong_frac"] == 1.0


def test_known_defect_counts_but_is_expected():
    case = workloads.poly_case("hermite-28", "hermite", 28)
    f = _failures(case, 1)
    assert f["wrong_frac"] == 1.0 and f["unexpected_wrong"] == 0


def _feasible_with(monkeypatch, choi: np.ndarray, d: int, dp: int):
    res = channels.FeasibilityResult(
        feasible=True, choi=channels.ChoiMatrix(in_dim=dp, out_dim=d, matrix=choi),
        residual=0.0, iterations=1, residual_history=(0.0,))
    monkeypatch.setattr(channels, "connection_feasible", lambda p, q, max_iter=0: res)


def test_wrong_choi_counts(monkeypatch):
    rng = np.random.default_rng(1)
    case = workloads._pushforward_pair(rng, "pair", 2, 2, 2)
    # not PSD
    _feasible_with(monkeypatch, np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex), 2, 2)
    assert _failures(case)["wrong_frac"] == 1.0
    # PSD and trace preserving, but the identity channel does not connect the pair
    ident = channels.choi_from_kraus(channels.kraus_channel(2, 2, [np.eye(2)])).matrix
    _feasible_with(monkeypatch, ident, 2, 2)
    assert _failures(case)["wrong_frac"] == 1.0


def test_stalled_pair_reported_feasible_counts(monkeypatch):
    case = workloads._stalled_pair(np.random.default_rng(2), "stalled", "smeared-pvm-d2")
    _feasible_with(monkeypatch, np.eye(4, dtype=complex) / 2.0, 2, 2)
    assert _failures(case)["wrong_frac"] == 1.0


def test_wrong_phase_demo_counts():
    fam = workloads.phase.single_mode_family(4)
    expect = oracles.phase_expectations(list(fam.members), 2, 1024)
    good = workloads.phase.phase_truncation_demo(fam, 2, 1024)
    assert oracles.check_phase(expect, good.sup_error, good.unital_defect, truncated_gram=good.truncated_gram) is None
    bad = good.truncated_gram.copy()
    bad[0, 0, 0] += 1e-3
    assert oracles.check_phase(expect, good.sup_error, good.unital_defect, truncated_gram=bad) is not None


def test_cli_nondeterminism_and_exit_code_count():
    outputs = iter([(0, b'{"report":{"pure":true}}\n'), (0, b'{"report": {"pure":true}}\n'), (2, b'{"report":{"pure":true}}\n')])
    seen: dict = {}
    case = workloads._cli_case("purity", ["purity", "trine"], 0, lambda rep: None, seen, lambda argv: next(outputs))
    samples, _ = harness.timed_cycles([case], seconds=0, min_ops=3)
    assert [s.status for s in samples] == ["ok", "wrong", "wrong"]


def test_errors_count_in_error_frac():
    def boom():
        raise ValueError("bad input")

    f = _failures(harness.Case("boom", boom, lambda a: None), 2)
    assert f["error_frac"] == 1.0 and f["wrong_frac"] == 0.0


def test_ops_per_s_counts_completed_operations_over_operation_time():
    samples = [harness.Sample("a", 0.1, "ok"), harness.Sample("b", 0.3, "wrong"), harness.Sample("c", 0.1, "error")]
    assert harness.latency_stats(samples, [{}])["ops_per_s"] == pytest.approx(2 / 0.5)


# ---------------------------------------------------------------------------
# the oracles themselves
# ---------------------------------------------------------------------------


def test_choi_dual_matches_kraus_form():
    rng = np.random.default_rng(3)
    ch = rand.random_channel(rng, 3, 2)
    choi = channels.choi_from_kraus(ch).matrix
    b = rand.random_hermitian(rng, 2)
    by_hand = sum(a.conj().T @ b @ a for a in ch.kraus)
    assert np.allclose(oracles.dual_from_choi(choi, 2, 3, b), by_hand, atol=1e-12)


def _rank(rows, ncols) -> int:
    m = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_pivot_ladder_matches_prefix_ranks():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ncols = int(rng.integers(1, 7))
        rows = [{c: int(v) for c, v in enumerate(rng.integers(-2, 3, ncols)) if v and rng.random() < 0.6}
                for _ in range(int(rng.integers(1, 6)))]
        want = {j for j in range(ncols)
                if _rank([{c: v for c, v in r.items() if c <= j} for r in rows], j + 1)
                > _rank([{c: v for c, v in r.items() if c < j} for r in rows], j)}
        assert oracles.pivot_columns(rows, ncols) == want


def test_exact_ladders_on_known_families():
    assert oracles.poly_missing("hermite", 28, (), 28) == ()
    assert oracles.poly_missing("monomial", 3, (0,), 3) == (0, 1)
    assert oracles.fourier_missing(oracles.single_mode_exact(8), 7) == ()
    assert oracles.fourier_missing(oracles.single_mode_exact(8), 8) == (-8, 8)


def test_interval_moments_match_quadrature():
    theta = np.linspace(0.3, 1.9, 200001)
    for g in (0, 1, -3, 7):
        vals = np.exp(1j * g * theta)
        quad = np.sum((vals[1:] + vals[:-1]) / 2.0 * np.diff(theta)) / (2 * np.pi)
        assert abs(oracles.interval_moments(np.array(g), 0.3, 1.9) - quad) < 1e-9


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@pytest.fixture
def stub_package(monkeypatch):
    """stubpkg.a.outer calls stubpkg.b.inner through its own import of it."""
    pkg = types.ModuleType("stubpkg")
    b = types.ModuleType("stubpkg.b")
    a = types.ModuleType("stubpkg.a")
    exec("import time\n__all__ = ['inner']\ndef inner(t):\n    time.sleep(t)\n    return t\n", b.__dict__)
    exec("import time\n__all__ = ['outer']\ndef outer():\n    time.sleep(0.02)\n"
         "    return inner(0.01) + inner(0.03)\n", a.__dict__)
    a.inner = b.inner
    for name, mod in (("stubpkg", pkg), ("stubpkg.a", a), ("stubpkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return a, b


def test_traced_stub_spans_nest_and_self_times_add_up(stub_package):
    a, b = stub_package
    original = a.inner
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.instrument("stubpkg", ["a", "b"]):
        with tracer.span("run"):
            a.outer()
            b.inner(0.01)
    wall = time.perf_counter() - t0
    assert a.inner is original  # unpatched after the block
    names = [s.name for s in tracer.spans]
    assert names == ["run", "a.outer", "b.inner", "b.inner", "b.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
    summary = summarize(tracer.spans)
    total_self = sum(row["self_s"] for row in summary.values())
    root = tracer.spans[0].end - tracer.spans[0].start
    assert total_self == pytest.approx(root, rel=1e-9)
    assert total_self == pytest.approx(wall, rel=0.05)
    assert summary["b.inner"]["calls"] == 3
    assert summary["a.outer"]["self_s"] == pytest.approx(0.02, abs=0.015)


def test_span_cost_is_small_and_positive():
    assert 0.0 < span_cost_s(calls=2000, rounds=3) < 1e-4


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command line
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert list(run.WORKLOADS) == list(workloads.SPECS) + ["cli"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_cold_first_operation_runs(tmp_path):
    env = run.child_env()
    wl = workloads.build("purity-impure", 5, ROOT, tmp_path, env)
    r = subprocess.run(wl.cold_cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert r.returncode == 0, r.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert r.returncode != 0 and r.stdout == ""
