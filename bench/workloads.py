"""The five workloads: inputs drawn from the seed, operations, oracles.

Each case draws its inputs from its own generator, seeded by (seed, case
index), and its call is an ``ops`` function bound to them.  Every expected
answer is computed here, during set-up, by ``oracles``.  One cycle runs each
case once, in the order listed; no case is weighted.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pickle
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

from povm_purity import cli, fixtures, phase, polycert, povm, rand

import ops
import oracles
from harness import Case, Workload

# Cases the program gets wrong at this commit.  They count in wrong_frac;
# any other wrong answer makes the run incorrect.
POLYCERT_LADDER = "floating-point rank ladder (_covered_slots) misses slots the exact ladder covers"
KNOWN_DEFECTS = {
    "hermite-28": POLYCERT_LADDER,
    "hermite-28-x5": POLYCERT_LADDER,
    "laguerre-20": POLYCERT_LADDER,
    "laguerre-40": POLYCERT_LADDER,
    "fourier-geometric-8-at-8": POLYCERT_LADDER + " (shared by fourier_span_certificate)",
}

DYKSTRA_CERTIFY_BUDGET = 25000
DYKSTRA_STALL_BUDGET = 10000
PHASE_GRID = 16384
BIG_FILE = "povm-d16-k8.json"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rank_one_povm(rng, d: int, k: int) -> povm.Povm:
    """E_i = |a_i><a_i| with a_i = S^(-1/2) g_i, S = sum_i |g_i><g_i|."""
    g = _gaussian(rng, k, d)
    w, u = np.linalg.eigh(g.T @ g.conj())
    a = g @ ((u / np.sqrt(w)) @ u.conj().T).T
    return povm.validate(d, [(f"o{i}", np.outer(v, v.conj())) for i, v in enumerate(a)])


def basis_pvm(u: np.ndarray, block: int = 1) -> povm.Povm:
    """Projections onto consecutive groups of ``block`` columns of a unitary."""
    d = u.shape[0]
    return povm.validate(
        d, [(f"o{j}", u[:, j : j + block] @ u[:, j : j + block].conj().T) for j in range(0, d, block)]
    )


def pushforward(p: povm.Povm, kraus, in_dim: int) -> povm.Povm:
    """E'_i = sum_k A_k* E_i A_k on C^in_dim."""
    return povm.validate(in_dim, [(lab, sum(a.conj().T @ e @ a for a in kraus)) for lab, e in p])


def conjugated(p: povm.Povm, u: np.ndarray) -> povm.Povm:
    return povm.validate(p.dim, [(lab, u @ e @ u.conj().T) for lab, e in p])


def _effects(p: povm.Povm) -> list[np.ndarray]:
    return [np.array(e) for e in p.effects]


def _pairs_to_matrix(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def purity_case(name: str, p: povm.Povm, total_dim: int, kernel_dim: int | None) -> Case:
    """build_dilation, purity_verdict, and convex_split when impure.

    ``kernel_dim`` None means only "impure" is known (kernel_dim >= 1).
    """
    effects = _effects(p)
    pure = kernel_dim == 0

    def check(answer):
        dil, v, split = answer
        reason = oracles.check_dilation(dil.isometry, dil.total_dim, total_dim)
        if reason:
            return reason
        if v.pure != pure:
            return f"verdict pure={v.pure}, oracle says pure={pure}"
        if kernel_dim is not None and v.kernel_dim != kernel_dim:
            return f"kernel_dim {v.kernel_dim}, oracle {kernel_dim}"
        if pure:
            return None
        if v.kernel_dim < 1:
            return f"impure verdict with kernel_dim {v.kernel_dim}"
        return oracles.check_split(effects, split.plus.effects, split.minus.effects)

    return Case(name, partial(ops.purity, p), check)


def rank_one_case(name: str, p: povm.Povm) -> Case:
    return purity_case(name, p, total_dim=len(p), kernel_dim=oracles.rank_one_kernel_dim(_effects(p)))


def feasible_case(name: str, p: povm.Povm, q: povm.Povm, budget: int, feasible: bool) -> Case:
    src, tgt = _effects(p), _effects(q)

    def check(res):
        if not feasible:
            return "an infeasible pair was reported feasible" if res.feasible else None
        if not res.feasible:
            return f"feasible pair not certified in {res.iterations} iterations (gap {res.residual:.3e})"
        return oracles.check_choi(res.choi.matrix, p.dim, q.dim, src, tgt)

    return Case(name, partial(ops.feasible, p, q, budget), check)


def preprocess_case(name: str, rng, d: int) -> Case:
    pvm = basis_pvm(rand.random_unitary(rng, d))
    ch = rand.random_channel(rng, d, d)
    target = pushforward(pvm, ch.kraus, d)
    src, tgt = _effects(pvm), _effects(target)
    return Case(
        name,
        partial(ops.preprocess, pvm, target),
        lambda res: oracles.check_kraus(res.kraus, src, tgt),
    )


def poly_case(name: str, basis: str, top: int, exclude=()) -> Case:
    fam = polycert.orthonormal_family(basis, top, exclude=exclude)
    missing = oracles.poly_missing(basis, top, exclude, top)

    def check(cert):
        if cert.missing_degrees != missing or cert.certified != (not missing):
            return f"{cert.verdict} missing {list(cert.missing_degrees)}, exact ladder missing {list(missing)}"
        return None

    return Case(name, partial(ops.product_span, fam, top), check, known_defect=KNOWN_DEFECTS.get(name))


def fourier_case(name: str, fam, exact_members, order: int) -> Case:
    missing = oracles.fourier_missing(exact_members, order)

    def check(cert):
        if cert.missing_degrees != missing or cert.certified != (not missing):
            return f"{cert.verdict} missing {list(cert.missing_degrees)}, exact ladder missing {list(missing)}"
        return None

    return Case(name, partial(ops.fourier_span, fam, order), check, known_defect=KNOWN_DEFECTS.get(name))


def demo_case(name: str, fam, order: int) -> Case:
    expect = oracles.phase_expectations(list(fam.members), order, PHASE_GRID)
    return Case(
        name,
        partial(ops.phase_demo, fam, order, PHASE_GRID),
        lambda r: oracles.check_phase(expect, r.sup_error, r.unital_defect, truncated_gram=r.truncated_gram),
    )


# ---------------------------------------------------------------------------
# workloads: lists of (case name, maker(rng, name) -> Case)
# ---------------------------------------------------------------------------


def _purity_pure_specs():
    specs = [(f"rank-one-d{d}", (lambda d: lambda r, n: rank_one_case(n, rank_one_povm(r, d, d * d)))(d))
             for d in (4, 8, 12, 16)]
    specs += [(f"pvm-d{d}", (lambda d: lambda r, n: purity_case(n, basis_pvm(rand.random_unitary(r, d), 2), d, 0))(d))
              for d in (4, 8, 16, 24)]
    specs += [(name, (lambda name: lambda r, n: rank_one_case(n, fixtures.fixture(name)))(name))
              for name in ("trine", "qubit-sic")]
    specs.append(("computational-pvm-d2", lambda r, n: purity_case(n, fixtures.fixture(n), 2, 0)))
    return specs


def _full_rank(r, n, d, k):
    return purity_case(n, rand.random_povm(r, d, k), total_dim=k * d, kernel_dim=(k - 1) * d * d)


def _pvm_mix(r, n, d):
    p = basis_pvm(rand.random_unitary(r, d))
    q = basis_pvm(rand.random_unitary(r, d))
    # a proper mixture of two distinct POVMs is impure; its generic effects have rank 2
    return purity_case(n, povm.mix(p, q, 0.5), total_dim=2 * d, kernel_dim=None)


def _purity_impure_specs():
    specs = [(f"full-rank-d{d}-k{k}", (lambda d, k: lambda r, n: _full_rank(r, n, d, k))(d, k))
             for d, k in ((4, 4), (8, 4), (8, 8), (12, 6), (16, 8), (16, 16))]
    specs += [(f"mix-d{d}", (lambda d: lambda r, n: _pvm_mix(r, n, d))(d)) for d in (4, 8)]
    specs.append(("coin", lambda r, n: purity_case(n, fixtures.fixture(n), 4, 4)))
    specs.append(("mixed-basis-4", lambda r, n: rank_one_case(n, fixtures.fixture(n))))
    return specs


def _pushforward_pair(r, n, d, dp, k):
    # A channel with full Kraus rank d*dp has a positive definite Choi
    # matrix, so the pair is strictly feasible: the case the search is
    # expected to certify.
    p = rand.random_povm(r, d, k)
    ch = rand.random_channel(r, dp, d, n_kraus=d * dp)
    return feasible_case(n, p, pushforward(p, ch.kraus, dp), DYKSTRA_CERTIFY_BUDGET, True)


def _stalled_pair(r, n, source):
    # Seeded unitary frames on both sides keep the pair infeasible.
    p = conjugated(fixtures.fixture(source), rand.random_unitary(r, 2))
    q = conjugated(fixtures.fixture("computational-pvm-d2"), rand.random_unitary(r, 2))
    return feasible_case(n, p, q, DYKSTRA_STALL_BUDGET, False)


def _feasibility_specs():
    # every (d, d') pair once, with k = 2, 3, 4 outcomes three times each
    sizes = [(d, dp, 2 + (d + dp) % 3) for d, dp in itertools.product((2, 3, 4), repeat=2)]
    specs = [(f"pushforward-d{d}-d{dp}-k{k}", (lambda d, dp, k: lambda r, n: _pushforward_pair(r, n, d, dp, k))(d, dp, k))
             for d, dp, k in sizes]
    specs.append(("stalled-coin", lambda r, n: _stalled_pair(r, n, "coin")))
    specs.append(("stalled-smeared", lambda r, n: _stalled_pair(r, n, "smeared-pvm-d2")))
    specs += [(f"preprocess-d{d}", (lambda d: lambda r, n: preprocess_case(n, r, d))(d)) for d in (4, 8)]
    return specs


def _certificates_specs():
    polys = [("hermite-12", "hermite", 12, ()), ("hermite-12-x2", "hermite", 12, (2,)),
             ("hermite-20", "hermite", 20, ()), ("hermite-20-x3", "hermite", 20, (3,)),
             ("hermite-28", "hermite", 28, ()), ("hermite-28-x5", "hermite", 28, (5,)),
             ("laguerre-20", "laguerre", 20, ()), ("laguerre-40", "laguerre", 40, ()),
             ("legendre-24", "legendre", 24, ()), ("monomial-24", "monomial", 24, ())]
    specs = [(name, (lambda b, t, x: lambda r, n: poly_case(n, b, t, x))(b, t, x)) for name, b, t, x in polys]
    for size in (8, 16, 32):
        for order in (size - 1, size):
            specs.append((f"fourier-single-{size}-at-{order}",
                          (lambda s, o: lambda r, n: fourier_case(n, phase.single_mode_family(s), oracles.single_mode_exact(s), o))(size, order)))
    specs.append(("fourier-geometric-8-at-8",
                  lambda r, n: fourier_case(n, phase.geometric_tail_family(8), oracles.geometric_exact(8, 32), 8)))
    specs.append(("demo-single-32-M8", lambda r, n: demo_case(n, phase.single_mode_family(32), 8)))
    specs.append(("demo-geometric-16-M16", lambda r, n: demo_case(n, phase.geometric_tail_family(16), 16)))
    return specs


SPECS = {
    "purity-pure": _purity_pure_specs,
    "purity-impure": _purity_impure_specs,
    "feasibility": _feasibility_specs,
    "certificates": _certificates_specs,
}


def build(name: str, seed: int, root: Path, workdir: Path, env: dict) -> Workload:
    if name == "cli":
        return _cli_workload(seed, root, workdir, env)
    cases = [make(np.random.default_rng([seed, idx]), case) for idx, (case, make) in enumerate(SPECS[name]())]
    first = workdir / f"cold-{name}-seed{seed}.pickle"
    first.write_bytes(pickle.dumps(cases[0].call))
    cold = [sys.executable, str(root / "bench" / "cold.py"), str(first)]
    return Workload(name, cases, cold, cold_clock=True)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _write_povm(path: Path, p: povm.Povm) -> None:
    path.write_text(json.dumps({
        "dim": p.dim,
        "outcomes": [{"label": lab, "effect": np.stack([e.real, e.imag], axis=-1).tolist()} for lab, e in p],
    }) + "\n")


def _cli_checks(seed: int, workdir: Path, root: Path):
    """(job name, argv, exit code, report check) for every CLI job."""
    big = rand.random_povm(np.random.default_rng([seed, 0]), 16, 8)
    _write_povm(workdir / BIG_FILE, big)
    big_arg = str((workdir / BIG_FILE).relative_to(root))
    big_eff = _effects(big)
    # a strictly feasible pushforward pair, as in the feasibility workload
    r = np.random.default_rng([seed, 1])
    src = rand.random_povm(r, 3, 2)
    tgt = pushforward(src, rand.random_channel(r, 2, 3, n_kraus=6).kraus, 2)
    pair = [workdir / f"pair-{side}-seed{seed}.json" for side in ("source", "target")]
    _write_povm(pair[0], src)
    _write_povm(pair[1], tgt)
    pair_args = [str(f.relative_to(root)) for f in pair]
    pre_src, pre_tgt = (_effects(fixtures.fixture(n)) for n in ("computational-pvm-d2", "smeared-pvm-d2"))
    coin_eff = _effects(fixtures.fixture("coin"))
    trine_kernel = oracles.rank_one_kernel_dim(_effects(fixtures.fixture("trine")))
    poly_missing = oracles.poly_missing("hermite", 12, (2,), 12)
    demo_members = []
    for n in range(1, 5):
        coeffs = {s: 0.5 ** abs(s - n) for s in range(-32, 33)}
        norm = np.sqrt(sum(v * v for v in coeffs.values()))
        demo_members.append({s: v / norm for s, v in coeffs.items()})
    demo_expect = oracles.phase_expectations(demo_members, 4, 1024)

    def split_of(effects):
        def check(rep):
            plus = [_pairs_to_matrix(o["effect"]) for o in rep["plus"]["outcomes"]]
            minus = [_pairs_to_matrix(o["effect"]) for o in rep["minus"]["outcomes"]]
            return oracles.check_split(effects, plus, minus)
        return check

    def expect(**want):
        def check(rep):
            bad = {k: rep.get(k) for k, v in want.items() if rep.get(k) != v}
            return f"report fields {bad}, oracle {want}" if bad else None
        return check

    def dilate(rep):
        mult = [b["multiplicity"] for b in rep["blocks"]]
        if rep["total_dim"] != 4 or rep["is_unitary"] or mult != [1, 1, 1, 1]:
            return f"dilation total_dim {rep['total_dim']}, multiplicities {mult}, unitary {rep['is_unitary']}"
        return None if rep["isometry_defect"] <= oracles.ISOMETRY_TOL else f"isometry defect {rep['isometry_defect']}"

    def certified(rep):
        if not rep["feasible"]:
            return f"feasible pair not certified in {rep['iterations']} iterations"
        return oracles.check_choi(_pairs_to_matrix(rep["choi"]), 3, 2, _effects(src), _effects(tgt))

    def kraus(rep):
        return oracles.check_kraus([_pairs_to_matrix(a) for a in rep["kraus"]], pre_src, pre_tgt)

    def demo(rep):
        return oracles.check_phase(demo_expect, rep["sup_error"], rep["unital_defect"],
                                   full_gram=_pairs_to_matrix(rep["full_circle_gram"]))

    return [
        ("purity-trine", ["purity", "trine"], 0, expect(pure=trine_kernel == 0, kernel_dim=trine_kernel)),
        ("split-coin", ["split", "coin"], 0, split_of(coin_eff)),
        ("dilate-qubit-sic", ["dilate", "qubit-sic"], 0, dilate),
        ("feasible-coin-300", ["feasible", "coin", "computational-pvm-d2", "--max-iter", "300"], 2,
         expect(feasible=False, iterations=300)),
        ("feasible-pair-500", ["feasible", *pair_args, "--max-iter", "500"], 0, certified),
        ("preprocess-smeared", ["preprocess-from-pvm", "computational-pvm-d2", "smeared-pvm-d2"], 0, kraus),
        ("polycheck-12-x2", ["polycheck", "--max", "12", "--exclude", "2"], 0 if not poly_missing else 2,
         expect(missing_degrees=list(poly_missing))),
        ("phase-demo-4", ["phase-demo", "--M", "4", "--grid", "1024"], 0, demo),
        ("validate-big", ["validate", big_arg], 0, expect(valid=True, dim=16, n_outcomes=8, is_pvm=False)),
        ("purity-big", ["purity", big_arg], 2, expect(pure=False, kernel_dim=7 * 16 * 16)),
        ("split-big", ["split", big_arg], 0, split_of(big_eff)),
    ]


def _cli_case(name, argv, code, check_report, seen: dict, run) -> Case:
    def check(answer):
        got_code, out = answer
        first = seen.setdefault(name, out)
        if out != first:
            return "stdout differs from the first run of the same command"
        if got_code != code:
            return f"exit code {got_code}, oracle {code}"
        return check_report(json.loads(out)["report"])

    return Case(name, lambda: run(argv), check)


def _cli_workload(seed: int, root: Path, workdir: Path, env: dict) -> Workload:
    prefix = [sys.executable, "-m", "povm_purity"]

    def in_child(argv):
        r = subprocess.run(prefix + argv, cwd=root, env=env, capture_output=True, timeout=120)
        if r.returncode == 1:
            raise RuntimeError(f"exit 1: {r.stdout.decode()[-300:]}{r.stderr.decode()[-300:]}")
        return r.returncode, r.stdout

    def in_process(argv):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            raise RuntimeError(f"cli.main exited {exc.code}") from None
        if code == 1:
            raise RuntimeError(f"exit 1: {buf.getvalue()[-300:]}")
        return code, buf.getvalue().encode()

    jobs = _cli_checks(seed, workdir, root)
    seen: dict = {}
    cases = []
    for name, argv, code, check in jobs:
        case = _cli_case(name, argv, code, check, seen, in_child)
        case.span, case.in_process = "cli.subprocess", False
        case.attrs = lambda answer: {"report_bytes": len(answer[1])}
        cases.append(case)
    traced = [_cli_case(name, argv, code, check, seen, in_process) for name, argv, code, check in jobs]
    return Workload("cli", cases, prefix + jobs[0][1], cold_clock=False, trace_cases=traced)
