"""Exact oracles owned by the benchmark.

Expected answers are computed during set-up, outside the timed phase, from
the generated inputs alone: with plain numpy, with closed forms, or with exact
rationals.  Nothing here calls into povm_purity.  Every ``check_*`` function
returns None when the program's answer agrees and a one-line reason when it
does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# A POVM half of a convex split: PSD down to -POVM_TOL, sums to 1 within it.
POVM_TOL = 1e-9
# The two halves of a split average back to the input within this.
SPLIT_TOL = 1e-10
# A split is proper when its halves differ by more than this somewhere.
SPLIT_MIN_GAP = 1e-6
# J*J = 1 for a dilation isometry.
ISOMETRY_TOL = 1e-9
# Choi certificates: PSD floor (the program's own feasibility gap is 1e-7)
# and the largest allowed residual of Phi*(E_i) - E'_i in operator norm.
CHOI_PSD_TOL = 1e-7
CHOI_RESIDUAL_TOL = 1e-6
# Measure-and-prepare channels: trace preservation and pullback residual.
KRAUS_TOL = 1e-9
# Singular values of a stack of effects must sit either above this share of
# the largest one (independent) or below RANK_ZERO of it (dependent); a value
# in between leaves the oracle undecided and set-up fails.
RANK_GAP = 1e-6
RANK_ZERO = 1e-12


def opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


# ---------------------------------------------------------------------------
# purity
# ---------------------------------------------------------------------------


def rank_one_kernel_dim(effects) -> int:
    """Kernel dimension of the purity map of a rank-one POVM.

    With 1x1 blocks the map is (c_i) -> sum_i c_i E_i over the reals, so its
    kernel is k minus the real rank of the effects; the measurement is pure
    exactly when the effects are linearly independent.
    """
    stack = np.stack([np.concatenate([e.real.ravel(), e.imag.ravel()]) for e in effects], axis=1)
    s = np.linalg.svd(stack, compute_uv=False)
    rel = s / s[0]
    if np.any((rel > RANK_ZERO) & (rel < RANK_GAP)):
        raise ValueError(f"effect rank is undecided: singular values down to {rel.min():.3e}")
    return len(effects) - int(np.count_nonzero(rel >= RANK_GAP))


def check_dilation(isometry: np.ndarray, total_dim: int, expected_total: int) -> str | None:
    if total_dim != expected_total:
        return f"dilation total_dim {total_dim}, expected {expected_total}"
    j = np.asarray(isometry)
    defect = opnorm(j.conj().T @ j - np.eye(j.shape[1]))
    if defect > ISOMETRY_TOL:
        return f"dilation J*J deviates from 1 by {defect:.3e}"
    return None


def povm_defect(effects) -> float:
    """max(negative eigenvalue, ||sum - 1||) of a list of effects."""
    d = effects[0].shape[0]
    neg = max(0.0, -min(float(np.linalg.eigvalsh((e + e.conj().T) / 2.0)[0]) for e in effects))
    return max(neg, opnorm(sum(effects) - np.eye(d)))


def check_split(effects, plus, minus) -> str | None:
    """The halves are POVMs, differ, and average back to ``effects``."""
    for side, half in (("plus", plus), ("minus", minus)):
        if len(half) != len(effects):
            return f"{side} half has {len(half)} outcomes, expected {len(effects)}"
        defect = povm_defect([np.asarray(e) for e in half])
        if defect > POVM_TOL:
            return f"{side} half is not a POVM (defect {defect:.3e})"
    avg = max(opnorm(0.5 * (np.asarray(a) + np.asarray(b)) - e) for a, b, e in zip(plus, minus, effects))
    if avg > SPLIT_TOL:
        return f"split halves average back with residual {avg:.3e}"
    gap = max(opnorm(np.asarray(a) - np.asarray(b)) for a, b in zip(plus, minus))
    if gap <= SPLIT_MIN_GAP:
        return f"split halves coincide (gap {gap:.3e})"
    return None


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def dual_from_choi(choi: np.ndarray, out_dim: int, in_dim: int, b: np.ndarray) -> np.ndarray:
    """Phi*(B) from a Choi matrix on C^out (x) C^in, C = sum_k |A_k>><<A_k|.

    Phi*(B)[n, N] = sum_{s,t} B[s, t] C[(t, N), (s, n)], summed block by block.
    """
    c = np.asarray(choi).reshape(out_dim, in_dim, out_dim, in_dim)
    acc = np.zeros((in_dim, in_dim), dtype=np.complex128)
    for s in range(out_dim):
        for t in range(out_dim):
            acc += b[s, t] * c[t, :, s, :]
    return acc.T


def check_choi(choi, out_dim: int, in_dim: int, sources, targets) -> str | None:
    c = np.asarray(choi)
    if c.shape != (out_dim * in_dim, out_dim * in_dim):
        return f"Choi matrix has shape {c.shape}"
    herm = opnorm(c - c.conj().T)
    if herm > CHOI_PSD_TOL:
        return f"Choi matrix is not Hermitian ({herm:.3e})"
    low = float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
    if low < -CHOI_PSD_TOL:
        return f"Choi matrix has eigenvalue {low:.3e}"
    res = max(opnorm(dual_from_choi(c, out_dim, in_dim, e) - f) for e, f in zip(sources, targets))
    if res > CHOI_RESIDUAL_TOL:
        return f"Choi constraint residual {res:.3e}"
    return None


def check_kraus(kraus, sources, targets) -> str | None:
    """sum_k A_k* A_k = 1 and sum_k A_k* P_i A_k = E'_i for every outcome."""
    ops = [np.asarray(a) for a in kraus]
    in_dim = ops[0].shape[1]
    tp = opnorm(sum(a.conj().T @ a for a in ops) - np.eye(in_dim))
    if tp > KRAUS_TOL:
        return f"channel is not trace preserving ({tp:.3e})"
    res = max(opnorm(sum(a.conj().T @ p @ a for a in ops) - f) for p, f in zip(sources, targets))
    if res > KRAUS_TOL:
        return f"pullback residual {res:.3e}"
    return None


# ---------------------------------------------------------------------------
# span certificates: pivot ladder over the rationals
# ---------------------------------------------------------------------------


def pivot_columns(rows, ncols: int) -> set[int]:
    """Columns that gain rank as columns enter left to right, over Q.

    Rows are sparse dicts {column: Fraction}.  Column j gains rank exactly
    when it leads some row of an echelon form of the row space, so the rows
    are reduced one by one against a basis keyed by leading column.
    """
    basis: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items() if c < ncols and v != 0}
        while r:
            lead = min(r)
            b = basis.get(lead)
            if b is None:
                inv = 1 / r[lead]
                basis[lead] = {c: v * inv for c, v in r.items()}
                break
            f = r[lead]
            for c, v in b.items():
                nv = r.get(c, 0) - f * v
                if nv:
                    r[c] = nv
                else:
                    r.pop(c, None)
        if len(basis) == ncols:
            break
    return set(basis)


def _hermite(n: int) -> list[int]:
    """Physicists' Hermite H_n, integer coefficients low to high."""
    prev, cur = [1], [0, 2]
    if n == 0:
        return prev
    for k in range(1, n):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return cur


def _legendre(n: int) -> list[int]:
    """2^n P_n, integer coefficients: 2^n P_n = sum_k (-1)^k C(n,k) C(2n-2k,n) x^(n-2k)."""
    out = [0] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
    return out


def _laguerre(n: int) -> list[int]:
    """n! L_n, integer coefficients."""
    return [(-1) ** k * math.comb(n, k) * math.factorial(n) // math.factorial(k) for k in range(n + 1)]


def _monomial(n: int) -> list[int]:
    return [0] * n + [1]


POLY_MEMBERS = {"hermite": _hermite, "legendre": _legendre, "laguerre": _laguerre, "monomial": _monomial}


def poly_missing(basis: str, max_degree: int, exclude, check_degree: int) -> tuple[int, ...]:
    """Degrees 0..check_degree outside the span of the pairwise products.

    Members are the basis polynomials up to ``max_degree`` minus ``exclude``,
    scaled to integer coefficients: scaling a member scales rows, which
    leaves coverage alone.
    Real coefficients make the products symmetric, so pairs n <= m suffice.
    """
    build, dropped = POLY_MEMBERS[basis], set(exclude)
    members = [build(n) for n in range(max_degree + 1) if n not in dropped]
    rows = []
    for i, a in enumerate(members):
        for b in members[i:]:
            prod: dict[int, Fraction] = {}
            for p, ca in enumerate(a):
                if ca == 0 or p > check_degree:
                    continue
                for q, cb in enumerate(b[: check_degree - p + 1]):
                    if cb:
                        prod[p + q] = prod.get(p + q, 0) + ca * cb
            rows.append(prod)
    covered = pivot_columns(rows, check_degree + 1)
    return tuple(d for d in range(check_degree + 1) if d not in covered)


def fourier_slots(check_order: int) -> list[int]:
    """Frequencies from the inside out: 0, -1, +1, -2, +2, ..."""
    slots = [0]
    for g in range(1, check_order + 1):
        slots.extend((-g, g))
    return slots


def fourier_missing(members, check_order: int) -> tuple[int, ...]:
    """Frequencies |g| <= check_order outside the span of conj(psi_n) psi_m.

    ``members`` are dicts {s: integer coefficient of e^{-is theta}}; the
    product carries frequency s - t with coefficient conj(v_n^s) v_m^t.
    """
    slots = fourier_slots(check_order)
    pos = {g: i for i, g in enumerate(slots)}
    rows = []
    for a in members:
        for b in members:
            row: dict[int, Fraction] = {}
            for s, va in a.items():
                for t, vb in b.items():
                    g = s - t
                    if abs(g) <= check_order:
                        row[pos[g]] = row.get(pos[g], 0) + va * vb
            rows.append(row)
    covered = pivot_columns(rows, len(slots))
    return tuple(sorted(g for g in slots if pos[g] not in covered))


def single_mode_exact(n_members: int) -> list[dict[int, int]]:
    return [{n: 1} for n in range(1, n_members + 1)]


def geometric_exact(n_members: int, support: int) -> list[dict[int, int]]:
    """Geometric tails with ratio 1/2, scaled to integers (scaling keeps coverage)."""
    top = support + n_members
    return [
        {s: 2 ** (top - abs(s - n)) for s in range(-support, support + 1)}
        for n in range(1, n_members + 1)
    ]


# ---------------------------------------------------------------------------
# phase demo: closed-form interval integrals
# ---------------------------------------------------------------------------

DYADIC_LEVELS = 6  # dyadic intervals [2 pi j / 2^k, 2 pi (j+1) / 2^k), k = 0..6


def interval_moments(g: np.ndarray, a: float, b: float) -> np.ndarray:
    """(1/2 pi) * integral_a^b e^{i g theta} d theta, in closed form, elementwise."""
    safe = np.where(g == 0, 1, g)
    out = (np.exp(1j * g * b) - np.exp(1j * g * a)) / (2j * math.pi * safe)
    return np.where(g == 0, (b - a) / (2.0 * math.pi), out)


def _coeff_matrix(members, slots) -> np.ndarray:
    v = np.zeros((len(slots), len(members)), dtype=np.complex128)
    pos = {s: i for i, s in enumerate(slots)}
    for n, m in enumerate(members):
        for s, c in m.items():
            v[pos[s], n] = complex(c)
    return v


def phase_expectations(members, order: int, grid: int) -> dict:
    """Exact truncation diagnostics of a Fourier family and the trapezoid tolerance.

    The tolerance is the composite trapezoid bound (h^2/12) max|f''| for the
    densities f = conj(psi_n) psi_m, with |f''| <= G^2 (max_n sum_s |v_n^s|)^2,
    G the largest frequency present and h = 2 pi / grid; an interval shorter
    than the circle only shrinks it.
    """
    truncated = [{s: c for s, c in m.items() if abs(s) <= order} for m in members]
    slots = sorted({s for m in members for s in m})
    n = len(members)
    vt = _coeff_matrix(members, slots)
    vm = _coeff_matrix(truncated, slots)
    freq = np.subtract.outer(np.asarray(slots), np.asarray(slots))
    sup_error = 0.0
    finest = []
    for level in range(DYADIC_LEVELS + 1):
        width = 2.0 * math.pi / (1 << level)
        for j in range(1 << level):
            # G[n, m] = sum_{s,t} conj(v_n^s) v_m^t (1/2 pi) int e^{i(s-t)theta}
            moments = interval_moments(freq, j * width, (j + 1) * width)
            gt = vt.conj().T @ moments @ vt
            gm = vm.conj().T @ moments @ vm
            sup_error = max(sup_error, float(np.max(np.abs(gt - gm))))
            if level == DYADIC_LEVELS:
                finest.append(gm)
    stack = np.stack(finest)
    unital = opnorm(stack.sum(axis=0) - np.eye(n))
    big_g = slots[-1] - slots[0]
    mass = max(sum(abs(complex(c)) for c in m.values()) for m in members) ** 2
    h = 2.0 * math.pi / grid
    tol = h * h * big_g * big_g * mass / 12.0 + 1e-12
    return {"truncated_gram": stack, "sup_error": sup_error, "unital_defect": unital, "tol": tol}


def check_phase(expect: dict, sup_error: float, unital_defect: float, truncated_gram=None, full_gram=None) -> str | None:
    """Compare demo diagnostics with the closed forms, within the stated tolerance.

    Each interval integral errs by at most ``tol``; a full-circle sum of the
    finest intervals therefore also errs by at most ``tol`` per entry.
    """
    tol = expect["tol"]
    n = expect["truncated_gram"].shape[1]
    for got, want in ((truncated_gram, expect["truncated_gram"]), (full_gram, expect["truncated_gram"].sum(axis=0))):
        if got is None:
            continue
        dev = float(np.max(np.abs(np.asarray(got) - want)))
        if dev > tol:
            return f"interval Gram off by {dev:.3e} > {tol:.3e}"
    if abs(sup_error - expect["sup_error"]) > 2.0 * tol:
        return f"sup_error {sup_error:.6g}, closed form {expect['sup_error']:.6g}"
    if abs(unital_defect - expect["unital_defect"]) > n * tol:
        return f"unital_defect {unital_defect:.6g}, closed form {expect['unital_defect']:.6g}"
    return None
