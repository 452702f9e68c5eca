"""Trigonometric families and the truncated canonical-phase construction.

Members are finitely supported Fourier series psi_n(theta) = sum_s v_n^s
e^{-is theta} on the circle with normalized measure dtheta/(2 pi).  Two
things live here:

* the trigonometric analogue of the polynomial span certificate
  (:func:`fourier_span_certificate`), with pure frequencies in place of
  monomials — for the canonical phase family psi_n = e^{-in theta},
  n = 1..N, it certifies exactly up to order N - 1;

* :func:`phase_truncation_demo`, which truncates a target family at Fourier
  order M, compares outcome integrals over a dyadic interval family, and
  packages the truncation's Gram vectors v_n^s = vtilde_n^{s-M}
  (s = 0..2M).  The integrals are exact (closed-form Toeplitz moments); the
  grid is only validated and reported.  The truncated construction is
  generally *not* unital — the defect is reported, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import GramVectors
from .errors import EmptyFamily, GridTooCoarse, IndexOutOfRange
from .linalg import DEFAULT_TOL, Tolerance, opnorm
from .polycert import (
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    PurityCertificate,
    _covered_slots,
)

__all__ = [
    "FourierFamily",
    "PhaseDemoReport",
    "fourier_family",
    "single_mode_family",
    "geometric_tail_family",
    "truncate_family",
    "fourier_span_certificate",
    "phase_truncation_demo",
]

# Dyadic interval family [2 pi j / 2^k, 2 pi (j+1) / 2^k), k = 0..MAX_LEVEL.
MAX_LEVEL = 6
MIN_GRID = 1 << 10


@dataclass(frozen=True)
class FourierFamily:
    """Finitely supported Fourier coefficient maps, one dict {s: coeff} per member."""

    members: tuple[dict[int, complex], ...]

    @property
    def truncation_order(self) -> int:
        return max((abs(s) for m in self.members for s in m), default=0)


def fourier_family(members) -> FourierFamily:
    cleaned = []
    for m in members:
        entries = {int(s): complex(v) for s, v in m.items() if v != 0}
        cleaned.append(entries)
    if not cleaned:
        raise EmptyFamily("family has no members")
    return FourierFamily(members=tuple(cleaned))


def single_mode_family(n_members: int, start: int = 1) -> FourierFamily:
    """psi_n = e^{-in theta} for n = start..start+n_members-1."""
    if n_members < 1:
        raise EmptyFamily("need at least one member")
    return fourier_family([{start + n: 1.0} for n in range(n_members)])


def geometric_tail_family(n_members: int, ratio: float = 0.5, support: int = 32) -> FourierFamily:
    """Members peaked at their mode index with geometric Fourier tails.

    Member n carries coefficients ratio^|s - n| for |s| <= support,
    normalized in L2; ratio -> 0 recovers :func:`single_mode_family`.
    """
    if n_members < 1:
        raise EmptyFamily("need at least one member")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    members = []
    for n in range(1, n_members + 1):
        coeffs = {s: ratio ** abs(s - n) for s in range(-support, support + 1)}
        norm = np.sqrt(sum(abs(v) ** 2 for v in coeffs.values()))
        members.append({s: v / norm for s, v in coeffs.items()})
    return fourier_family(members)


def truncate_family(fam: FourierFamily, order: int) -> FourierFamily:
    """Drop every coefficient with |s| > order (members may become empty)."""
    if order < 0:
        raise IndexOutOfRange(f"truncation order must be >= 0, got {order}")
    return FourierFamily(
        members=tuple({s: v for s, v in m.items() if abs(s) <= order} for m in fam.members)
    )


def fourier_span_certificate(
    fam: FourierFamily, check_order: int, tol: Tolerance = DEFAULT_TOL
) -> PurityCertificate:
    """Trigonometric span test: every pure frequency |g| <= check_order must
    lie in the span of the products conj(psi_n) psi_m.

    The product conj(psi_n) psi_m carries frequency g = s - t with
    coefficient sum over s - t = g of conj(v_n^s) v_m^t.  Frequencies are
    tested from the inside out (0, -1, +1, -2, +2, ...), each slot required
    to add rank to the restricted coefficient matrix, mirroring the
    triangular degree ladder of the polynomial test.
    """
    if not fam.members:
        raise EmptyFamily("family has no members")
    if check_order < 0:
        raise IndexOutOfRange(f"check_order must be >= 0, got {check_order}")
    slots = [0]
    for g in range(1, check_order + 1):
        slots.extend((-g, g))
    positions = {g: i for i, g in enumerate(slots)}
    rows = []
    for a in fam.members:
        for b in fam.members:
            row = np.zeros(len(slots), dtype=np.complex128)
            for s, va in a.items():
                for t, vb in b.items():
                    if abs(s - t) <= check_order:
                        row[positions[s - t]] += np.conj(va) * vb
            rows.append(row)
    matrix = np.stack(rows) if rows else np.zeros((0, len(slots)), dtype=np.complex128)
    covered = _covered_slots(matrix, tol)
    missing = tuple(sorted(g for g in slots if not covered[positions[g]]))
    return PurityCertificate(
        certified_to_degree=check_order,
        verdict=VERDICT_CERTIFIED if not missing else VERDICT_INCONCLUSIVE,
        missing_degrees=missing,
    )


@dataclass(frozen=True)
class PhaseDemoReport:
    """Truncation diagnostics for a phase-like family.

    ``truncated_gram`` stacks the truncated outcome integrals over the finest
    dyadic partition (2^MAX_LEVEL intervals, each an n x n matrix); its sum is
    the full-circle Gram.  ``sup_error`` is the largest deviation, over the
    whole dyadic interval family and all member pairs, between target and
    truncated outcome integrals.  ``unital_defect`` is ||full-circle Gram - 1||.
    No field but ``grid`` itself depends on ``grid``.
    """

    order: int
    grid: int
    truncated_gram: np.ndarray
    gram_vectors: GramVectors
    sup_error: float
    unital_defect: float

    @property
    def full_circle_gram(self) -> np.ndarray:
        return self.truncated_gram.sum(axis=0)


def _dyadic_toeplitz(slots: np.ndarray) -> np.ndarray:
    """Entry [k, s, t] = (1/2 pi) int_{I_k} e^{i (slots[s] - slots[t]) theta} d theta.

    I_k runs over the dyadic intervals level by level (k = 2^level - 1 + j),
    so the children of I_k are I_{2k+1} and I_{2k+2}.
    """
    counts = 1 << np.arange(MAX_LEVEL + 1)
    width = np.repeat(2.0 * np.pi / counts, counts)
    j = np.concatenate([np.arange(c) for c in counts])
    lo, hi = j * width, (j + 1) * width
    # only the frequency gaps that occur: a sparse family may span a wide range
    gaps = np.subtract.outer(slots, slots)
    g, where = np.unique(gaps, return_inverse=True)
    safe = np.where(g == 0, 1, g)
    moments = (np.exp(1j * np.outer(hi, g)) - np.exp(1j * np.outer(lo, g))) / (2j * np.pi * safe)
    moments[:, g == 0] = width[:, None] / (2.0 * np.pi)
    return moments[:, where.reshape(gaps.shape)]


def phase_truncation_demo(target: FourierFamily, order: int, grid: int) -> PhaseDemoReport:
    """Compare a target family against its order-``order`` Fourier truncation.

    Interval integrals are exact: with the coefficients of a family stacked
    into a matrix V over a common frequency list, the Gram of interval I is
    V* T(I) V, T(I) the Toeplitz matrix of the closed-form moments of
    e^{ig theta}.  ``grid`` is validated (a multiple of 2^MAX_LEVEL, at least
    MIN_GRID) and echoed in the report, but changes no number.
    """
    if order < 0:
        raise IndexOutOfRange(f"truncation order must be >= 0, got {order}")
    if grid < MIN_GRID or grid % (1 << MAX_LEVEL) != 0:
        raise GridTooCoarse(
            f"grid must be a multiple of {1 << MAX_LEVEL} and at least {MIN_GRID}, got {grid}"
        )
    n = len(target.members)
    # a family whose members are all empty still needs one (zero) row
    slots = np.array(sorted({s for m in target.members for s in m}) or [0])
    v_target = np.array([[m.get(s, 0.0) for m in target.members] for s in slots.tolist()], dtype=np.complex128)
    kept = np.abs(slots) <= order
    v_trunc = np.where(kept[:, None], v_target, 0.0)

    toeplitz = _dyadic_toeplitz(slots)
    grams_target = v_target.conj().T @ toeplitz @ v_target
    grams_trunc = v_trunc.conj().T @ toeplitz @ v_trunc
    sup_error = float(np.max(np.abs(grams_target - grams_trunc)))
    stack = grams_trunc[-(1 << MAX_LEVEL) :]
    unital_defect = opnorm(stack.sum(axis=0) - np.eye(n))

    vectors = np.zeros((n, 2 * order + 1, 1), dtype=np.complex128)
    vectors[:, slots[kept] + order, 0] = v_target[kept].T
    return PhaseDemoReport(
        order=order,
        grid=grid,
        truncated_gram=stack,
        gram_vectors=GramVectors(vectors=vectors),
        sup_error=sup_error,
        unital_defect=unital_defect,
    )
