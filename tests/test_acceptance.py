"""End-to-end acceptance checks for the whole package.

Each test covers one headline guarantee at its stated tolerance and prints a
single ``[PASS]``/``[FAIL]`` verdict line; run

    pytest tests/test_acceptance.py -v -s

to see the lines.  Randomness comes from the shared seeded generator
(POVM_PURITY_SEED), so runs are reproducible.
"""

import time

import numpy as np

from povm_purity.channels import (
    apply_dual,
    choi_dual_apply,
    choi_from_kraus,
    connection_feasible,
    kraus_channel,
    preprocess_from_pvm,
)
from povm_purity.dilation import build_dilation, dilation_is_unitary, reconstruct
from povm_purity.extremality import convex_split, purity_verdict
from povm_purity.fixtures import fixture
from povm_purity.linalg import opnorm
from povm_purity.phase import fourier_family, phase_truncation_demo, single_mode_family, truncate_family
from povm_purity.polycert import orthonormal_family, product_span_certificate
from povm_purity.povm import is_pvm, mix, validate
from povm_purity.rand import random_channel, random_povm, random_pvm, random_unitary


def _verdict(num: int, label: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    detail = "" if not problems else f"  ({len(problems)} problem(s), first: {problems[0]})"
    print(f"[{status}] {num:2d}. {label}{detail}")
    assert not problems, problems


def _conjugated(p, u):
    return validate(p.dim, [(lab, u @ e @ u.conj().T) for lab, e in p])


def _relabel(p, labels):
    return validate(p.dim, list(zip(labels, p.effects)))


# ---------------------------------------------------------------------------
# independent brute-force oracle for the perturbation-kernel dimension
# ---------------------------------------------------------------------------


def _herm_basis(n):
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        yield e
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            yield e
            f = np.zeros((n, n), dtype=complex)
            f[i, j] = -1j / np.sqrt(2.0)
            f[j, i] = 1j / np.sqrt(2.0)
            yield f


def _kernel_dim_oracle(p) -> int:
    """Real kernel dimension of (D_i) -> sum_i A_i* D_i A_i by dense SVD."""
    columns = []
    domain = 0
    for eff in p.effects:
        w, v = np.linalg.eigh(eff)
        keep = w > 1e-12 * max(float(w[-1]), 1.0)
        a = (np.sqrt(w[keep]) * v[:, keep]).conj().T  # rows sqrt(l_k) <v_k|
        ni = a.shape[0]
        domain += ni * ni
        for h in _herm_basis(ni):
            img = a.conj().T @ h @ a
            columns.append(np.concatenate([img.real.ravel(), img.imag.ravel()]))
    m = np.stack(columns, axis=1)
    s = np.linalg.svd(m, compute_uv=False)
    rank = int(np.count_nonzero(s > 1e-8 * s[0])) if s.size and s[0] > 0 else 0
    return domain - rank


# ---------------------------------------------------------------------------
# the nine checks
# ---------------------------------------------------------------------------


def test_01_random_pvms_are_extremal(rng):
    problems = []
    slowest = 0.0
    for i in range(50):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, d + 1))
        p = random_pvm(rng, d, n)
        t0 = time.perf_counter()
        v = purity_verdict(p)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        if not v.pure or v.kernel_dim != 0:
            problems.append(f"case {i} (d={d}, n={n}): pure={v.pure} kernel_dim={v.kernel_dim}")
        if dt >= 1.0:
            problems.append(f"case {i} took {dt:.2f} s")
    _verdict(1, f"50/50 random PVMs extremal, slowest {slowest * 1e3:.0f} ms", problems)


def test_02_mixtures_are_impure_and_split_back(rng):
    problems = []
    comp, coin, smeared = (
        fixture(n) for n in ("computational-pvm-d2", "coin", "smeared-pvm-d2")
    )
    trine = fixture("trine")
    common4 = ("c0", "c1", "c2", "c3")
    pools = [
        [comp, coin, smeared],
        [trine],
        [_relabel(fixture("qubit-sic"), common4), _relabel(fixture("mixed-basis-4"), common4)],
    ]
    for i in range(20):
        pool = pools[i % 3]
        if len(pool) >= 2:
            ia, ib = rng.choice(len(pool), size=2, replace=False)
            p, q = pool[int(ia)], pool[int(ib)]
        else:
            p = q = pool[0]
        q2 = p
        for _ in range(20):
            q2 = _conjugated(q, random_unitary(rng, q.dim))
            if max(opnorm(e - f) for e, f in zip(p.effects, q2.effects)) > 1e-6:
                break
        m = mix(p, q2, 0.5)
        v = purity_verdict(m)
        if v.pure:
            problems.append(f"pair {i}: proper mixture reported pure")
            continue
        split = convex_split(m, v)
        mix_dev = max(
            opnorm(0.5 * (a + b) - e)
            for a, b, e in zip(split.plus.effects, split.minus.effects, m.effects)
        )
        gap = max(opnorm(a - b) for a, b in zip(split.plus.effects, split.minus.effects))
        if mix_dev > 1e-9:
            problems.append(f"pair {i}: halves average off by {mix_dev:.1e}")
        if gap <= 1e-6:
            problems.append(f"pair {i}: split is degenerate (gap {gap:.1e})")
    _verdict(2, "20/20 fixture-derived mixtures impure; splits average back", problems)


def test_03_dilation_identities(rng):
    problems = []
    agreement = 0
    iso_max = 0.0
    rec_max = 0.0
    cases = []
    for _ in range(70):
        d = int(rng.integers(1, 7))
        cases.append(random_povm(rng, d, int(rng.integers(1, d + 3))))
    for _ in range(30):
        d = int(rng.integers(2, 9))
        cases.append(random_pvm(rng, d, int(rng.integers(1, d + 1))))
    for i, p in enumerate(cases):
        dil = build_dilation(p)
        iso = opnorm(dil.isometry.conj().T @ dil.isometry - np.eye(p.dim))
        iso_max = max(iso_max, iso)
        if iso > 1e-10:
            problems.append(f"case {i}: isometry defect {iso:.1e}")
        rec = max(opnorm(reconstruct(dil, [lab]) - eff) for lab, eff in p)
        rec_max = max(rec_max, rec)
        if rec > 1e-9:
            problems.append(f"case {i}: reconstruction off by {rec:.1e}")
        if dilation_is_unitary(dil) == is_pvm(p):
            agreement += 1
        else:
            problems.append(f"case {i}: unitarity/projectivity disagree")
    _verdict(
        3,
        f"100 dilations: J*J defect <= {iso_max:.1e}, reconstruction <= {rec_max:.1e}, "
        f"unitary<->PVM {agreement}/100",
        problems,
    )


def test_04_fixture_verdicts_match_brute_force():
    problems = []
    expected = {"trine": 0, "qubit-sic": 0, "coin": 4, "mixed-basis-4": 1}
    for name, want in expected.items():
        p = fixture(name)
        v = purity_verdict(p)
        oracle = _kernel_dim_oracle(p)
        if oracle != want:
            problems.append(f"{name}: oracle kernel dim {oracle}, expected {want}")
        if v.kernel_dim != oracle:
            problems.append(f"{name}: verdict kernel dim {v.kernel_dim} != oracle {oracle}")
        if v.pure != (oracle == 0):
            problems.append(f"{name}: pure={v.pure} inconsistent with oracle")

    p = fixture("mixed-basis-4")
    split = convex_split(p, purity_verdict(p))
    zero = np.zeros((2, 2))
    padded_z = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), zero, zero]
    half = np.full((2, 2), 0.5)
    padded_x = [zero, zero, half, np.array([[0.5, -0.5], [-0.5, 0.5]])]

    def close(q, mats):
        return max(opnorm(e - m) for e, m in zip(q.effects, mats)) <= 1e-9

    recovered = (close(split.plus, padded_z) and close(split.minus, padded_x)) or (
        close(split.plus, padded_x) and close(split.minus, padded_z)
    )
    if not recovered:
        problems.append("mixed-basis-4 split did not recover the zero-padded PVM pair")
    _verdict(4, "fixture kernel dims match dense-SVD oracle; split recovers PVM pair", problems)


def test_05_measure_and_prepare_constructor(rng):
    problems = []
    t0 = time.perf_counter()
    tp_max = 0.0
    dev_max = 0.0
    for i in range(50):
        d = int(rng.integers(2, 7))
        dp = int(rng.integers(1, 7))
        n = int(rng.integers(1, d + 1))
        p = random_pvm(rng, d, n)
        q = _relabel(random_povm(rng, dp, n), p.labels)
        ch = preprocess_from_pvm(p, q)
        tp = ch.tp_defect()
        dev = max(opnorm(apply_dual(ch, e) - f) for e, f in zip(p.effects, q.effects))
        tp_max = max(tp_max, tp)
        dev_max = max(dev_max, dev)
        if tp > 1e-10:
            problems.append(f"pair {i}: Kraus completeness defect {tp:.1e}")
        if dev > 1e-10:
            problems.append(f"pair {i}: pullback deviation {dev:.1e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"constructor batch took {elapsed:.1f} s")
    _verdict(
        5,
        f"50 constructors exact (completeness <= {tp_max:.1e}, pullback <= {dev_max:.1e}, "
        f"{elapsed:.1f} s)",
        problems,
    )


def test_06_kraus_and_choi_duals_agree(rng):
    problems = []
    comp, smeared = fixture("computational-pvm-d2"), fixture("smeared-pvm-d2")
    channels = [
        kraus_channel(3, 3, [np.eye(3)]),
        preprocess_from_pvm(comp, smeared),
        preprocess_from_pvm(comp, comp),
    ]
    for _ in range(10):
        d = int(rng.integers(2, 5))
        p = random_pvm(rng, d, int(rng.integers(1, d + 1)))
        q = _relabel(random_povm(rng, int(rng.integers(1, 5)), len(p)), p.labels)
        channels.append(preprocess_from_pvm(p, q))
    for _ in range(10):
        channels.append(random_channel(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
    worst = 0.0
    for i, ch in enumerate(channels):
        choi = choi_from_kraus(ch)
        g = rng.standard_normal((ch.out_dim,) * 2) + 1j * rng.standard_normal((ch.out_dim,) * 2)
        b = (g + g.conj().T) / 2.0
        tp = choi.tp_defect()
        dev = opnorm(choi_dual_apply(choi, b) - apply_dual(ch, b))
        worst = max(worst, tp, dev)
        if tp > 1e-9:
            problems.append(f"channel {i}: Choi trace-preservation defect {tp:.1e}")
        if dev > 1e-9:
            problems.append(f"channel {i}: Choi and Kraus duals differ by {dev:.1e}")
    _verdict(6, f"{len(channels)} channels: Kraus and Choi duals agree (<= {worst:.1e})", problems)


def test_07_feasibility_matches_channel_provenance(rng):
    problems = []
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 4))
        dp = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        ch = random_channel(rng, dp, d)
        p = random_povm(rng, d, n)
        q = validate(dp, [(lab, apply_dual(ch, e)) for lab, e in p])
        # low-rank generating channels make the PSD geometry thin; the linear
        # convergence rate then wants a budget above the CLI default
        res = connection_feasible(p, q, max_iter=25000)
        worst = max(worst, res.residual)
        if not res.feasible or res.residual > 1e-7:
            problems.append(f"pair {i}: pushforward pair not certified (residual {res.residual:.1e})")
    coin, comp = fixture("coin"), fixture("computational-pvm-d2")
    res = connection_feasible(coin, comp, max_iter=10000)
    if res.feasible or res.residual <= 1e-3 or res.iterations != 10000:
        problems.append(
            f"coin->computational: feasible={res.feasible} residual={res.residual:.1e} "
            f"iterations={res.iterations}"
        )
    _verdict(
        7,
        f"20/20 pushforward pairs certified (residual <= {worst:.1e}); "
        f"unital obstruction stalls at {res.residual:.2f}",
        problems,
    )


def test_09_polynomial_certificates():
    problems = []
    t0 = time.perf_counter()
    dropped = product_span_certificate(orthonormal_family("hermite", 12, exclude=(2,)), 12)
    full = product_span_certificate(orthonormal_family("hermite", 12), 12)
    constant = product_span_certificate(orthonormal_family("monomial", 0), 12)
    elapsed = time.perf_counter() - t0
    if not dropped.certified:
        problems.append(f"dropped-mode family missing degrees {dropped.missing_degrees}")
    if not full.certified:
        problems.append(f"full ladder missing degrees {full.missing_degrees}")
    if constant.certified or constant.missing_degrees != tuple(range(1, 13)):
        problems.append("single-constant family should be inconclusive beyond degree 0")
    if elapsed >= 1.0:
        problems.append(f"certificates took {elapsed:.2f} s")
    _verdict(
        9,
        f"dropped-mode and full ladders certified, constant inconclusive ({elapsed * 1e3:.0f} ms)",
        problems,
    )


def test_10_phase_truncation_diagnostics():
    problems = []
    grid = 1 << 12
    single = single_mode_family(3)
    exact = phase_truncation_demo(single, 4, grid)
    if exact.sup_error > 1e-10:
        problems.append(f"single-mode sup error {exact.sup_error:.1e}")
    if exact.unital_defect > 1e-10:
        problems.append(f"single-mode unital defect {exact.unital_defect:.1e}")

    members = []
    for n in (1, 2):
        raw = {s: 2.0 ** (-abs(s) - n) for s in range(-32, 33)}
        norm = np.sqrt(sum(v * v for v in raw.values()))
        members.append({s: v / norm for s, v in raw.items()})
    tails = fourier_family(members)
    low = phase_truncation_demo(tails, 4, grid)
    high = phase_truncation_demo(tails, 8, grid)
    if not high.sup_error < low.sup_error:
        problems.append(
            f"truncation error did not shrink: M=8 gives {high.sup_error:.1e}, "
            f"M=4 gives {low.sup_error:.1e}"
        )
    cases = ((exact, single, "single-mode"), (low, tails, "tails M=4"), (high, tails, "tails M=8"))
    for rep, fam, name in cases:
        kept = truncate_family(fam, rep.order).members
        parseval = np.array(
            [[sum(np.conj(v) * b.get(s, 0.0) for s, v in a.items()) for b in kept] for a in kept]
        )
        defect = opnorm(rep.full_circle_gram - parseval)
        if max(defect, rep.gram_consistency_defect) > 1e-8:
            problems.append(f"{name}: interval sum disagrees with coefficient Gram by {defect:.1e}")
    _verdict(
        10,
        f"truncation exact on band-limited target; tail error {low.sup_error:.1e} -> "
        f"{high.sup_error:.1e} as the order doubles",
        problems,
    )
