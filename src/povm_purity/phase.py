"""Trigonometric families and the truncated canonical-phase construction.

Members are finitely supported Fourier series psi_n(theta) = sum_s v_n^s
e^{-is theta} on the circle with normalized measure dtheta/(2 pi).  Two
things live here:

* the trigonometric analogue of the polynomial span certificate
  (:func:`fourier_span_certificate`), with pure frequencies in place of
  monomials — for the canonical phase family psi_n = e^{-in theta},
  n = 1..N, it certifies exactly up to order N - 1.  It runs on the exact
  ladder of ``polycert``: coefficients are read exactly as the doubles they
  hold, and no tolerance enters;

* :func:`phase_truncation_demo`, which truncates a target family at Fourier
  order M and compares outcome integrals over a dyadic interval family.  The
  integrals are exact (closed-form Toeplitz moments); the grid is only
  validated and reported.  The truncated construction is generally *not*
  unital — the defect is reported, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import EmptyFamily, GridTooCoarse, IndexOutOfRange, InvalidRatio
from .linalg import opnorm
from .polycert import MAX_STACK_MB, ProductRows, PurityCertificate, span_certificate

__all__ = [
    "FourierFamily",
    "PhaseDemoReport",
    "fourier_family",
    "single_mode_family",
    "geometric_tail_family",
    "fourier_span_certificate",
    "phase_truncation_demo",
]

# Dyadic interval family [2 pi j / 2^k, 2 pi (j+1) / 2^k), k = 0..MAX_LEVEL.
MAX_LEVEL = 6
MIN_GRID = 1 << 10
# Past this many members even the (n, n) int64 block of a span certificate
# passes MAX_STACK_MB, so a family builder refuses before building anything.
MAX_MEMBERS = math.isqrt(MAX_STACK_MB * 2**20 // 8)


@dataclass(frozen=True)
class FourierFamily:
    """Finitely supported Fourier coefficient maps, one dict {s: coeff} per member."""

    members: tuple[dict[int, complex], ...]


def fourier_family(members) -> FourierFamily:
    cleaned = []
    for m in members:
        entries = {int(s): complex(v) for s, v in m.items() if v != 0}
        cleaned.append(entries)
    if not cleaned:
        raise EmptyFamily("family has no members")
    return FourierFamily(members=tuple(cleaned))


def _check_size(n_members: int) -> None:
    if n_members < 1:
        raise EmptyFamily("need at least one member")
    if n_members > MAX_MEMBERS:
        raise IndexOutOfRange(
            f"{n_members} members need an ({n_members}, {n_members}) int64 block, over the "
            f"{MAX_STACK_MB} MB limit (at most {MAX_MEMBERS} members)"
        )


def single_mode_family(n_members: int, start: int = 1) -> FourierFamily:
    """psi_n = e^{-in theta} for n = start..start+n_members-1."""
    _check_size(n_members)
    return fourier_family([{start + n: 1.0} for n in range(n_members)])


def geometric_tail_family(n_members: int, ratio: float = 0.5, support: int = 32) -> FourierFamily:
    """Members peaked at their mode index with geometric Fourier tails.

    Member n carries coefficients ratio^|s - n| for |s| <= support,
    normalized in L2; ratio -> 0 recovers :func:`single_mode_family`.
    Coefficients that underflow to 0 are never built, so a huge support costs
    no more than the underflow distance unless the ratio is close to 1.
    """
    _check_size(n_members)
    if not 0.0 < ratio < 1.0:
        raise InvalidRatio(f"ratio must lie in (0, 1), got {ratio}")
    if support < 0:
        raise IndexOutOfRange(f"support must be >= 0, got {support}")
    # ratio^k stays 0.0 from its first underflow on; fourier_family drops zeros
    far = support + n_members + 1
    reach = next((k for k in range(far) if ratio**k == 0.0), far)
    members = []
    for n in range(1, n_members + 1):
        span = range(max(-support, n - reach + 1), min(support, n + reach - 1) + 1)
        coeffs = {s: ratio ** abs(s - n) for s in span}
        norm = np.sqrt(sum(abs(v) ** 2 for v in coeffs.values()))
        if norm == 0.0:
            raise EmptyFamily(
                f"member {n} has L2 norm 0 in double precision (ratio {ratio:g}, support {support})"
            )
        members.append({s: v / norm for s, v in coeffs.items()})
    return fourier_family(members)


def fourier_span_certificate(fam: FourierFamily, check_order: int) -> PurityCertificate:
    """Trigonometric span test: every pure frequency |g| <= check_order must
    lie in the span of the products conj(psi_n) psi_m.

    The product conj(psi_n) psi_m carries frequency g = s - t with
    coefficient sum over s - t = g of conj(v_n^s) v_m^t.  Frequencies are
    tested from the inside out (0, -1, +1, -2, +2, ...), each slot required
    to add rank to the restricted coefficient matrix, on the same exact
    ladder as the polynomial test; the coefficients are read exactly as the
    doubles they hold.
    """
    if not fam.members:
        raise EmptyFamily("family has no members")
    if check_order < 0:
        raise IndexOutOfRange(f"check_order must be >= 0, got {check_order}")
    slots = [0]
    for g in range(1, check_order + 1):
        slots.extend((-g, g))
    n = len(fam.members)
    rows = ProductRows(fam.members, list(product(range(n), repeat=2)), sign=-1)
    return span_certificate(rows, slots, check_order)


@dataclass(frozen=True, eq=False)
class PhaseDemoReport:
    """Truncation diagnostics for a phase-like family.

    ``truncated_gram`` stacks the truncated outcome integrals over the finest
    dyadic partition (2^MAX_LEVEL intervals, each an n x n matrix); its sum is
    the full-circle Gram.  ``sup_error`` is the largest deviation, over the
    whole dyadic interval family and all member pairs, between target and
    truncated outcome integrals.  ``unital_defect`` is ||full-circle Gram - 1||,
    and ``gram_consistency_defect`` is ||coefficient Gram - full-circle Gram||,
    the coefficient Gram being sum_s conj(v_n^s) v_m^s over the kept
    coefficients (Parseval).  No field but ``grid`` itself depends on ``grid``.
    """

    order: int
    grid: int
    truncated_gram: np.ndarray
    sup_error: float
    unital_defect: float
    gram_consistency_defect: float

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


def _frequency_count(n_members: int, ratio: float | None = None, support: int = 0) -> int | None:
    """How many frequencies :func:`single_mode_family` (``ratio`` None) or
    :func:`geometric_tail_family` would give, read from the arguments alone.

    None when building the family would raise, or when a coefficient is small
    enough that only building tells whether it survives normalization.  While
    ratio^(support + n_members) >= 2^-500, every coefficient of every member
    is at least that, so no member stops early and each covers |s| <= support.
    """
    if not 1 <= n_members <= MAX_MEMBERS:
        return None
    if ratio is None:
        return n_members
    if not (0.0 < ratio < 1.0 and support >= 0) or ratio ** (support + n_members) < 2.0**-500:
        return None
    return 2 * support + 1


def _check_demo(n_members: int, n_frequencies: int, order: int, grid: int) -> None:
    """Refuse a demo before anything is allocated: a negative order, a grid
    off the dyadic lattice, or stacks of interval matrices (members by members,
    or frequencies by frequencies) past MAX_STACK_MB each."""
    if order < 0:
        raise IndexOutOfRange(f"truncation order must be >= 0, got {order}")
    if grid < MIN_GRID or grid % (1 << MAX_LEVEL) != 0:
        raise GridTooCoarse(
            f"grid must be a multiple of {1 << MAX_LEVEL} and at least {MIN_GRID}, got {grid}"
        )
    intervals, side = (2 << MAX_LEVEL) - 1, max(n_members, n_frequencies)
    stack_mb = intervals * side * side * 16 / 2**20
    if stack_mb > MAX_STACK_MB:
        raise IndexOutOfRange(
            f"{n_members} members over {n_frequencies} frequencies need a ({intervals}, {side}, {side}) "
            f"complex stack of {stack_mb:.0f} MB, over the {MAX_STACK_MB} MB limit"
        )


def phase_truncation_demo(target: FourierFamily, order: int, grid: int) -> PhaseDemoReport:
    """Compare a target family against its order-``order`` Fourier truncation.

    Interval integrals are exact: with the coefficients of a family stacked
    into a matrix V over a common frequency list, the Gram of interval I is
    V* T(I) V, T(I) the Toeplitz matrix of the closed-form moments of
    e^{ig theta}.  ``grid`` is validated (a multiple of 2^MAX_LEVEL, at least
    MIN_GRID) and echoed in the report, but changes no number.  A family
    whose stacks of interval matrices (members by members, or frequencies by
    frequencies) would pass MAX_STACK_MB each is refused with
    ``IndexOutOfRange`` before anything is allocated.
    """
    n = len(target.members)
    # a family whose members are all empty still needs one (zero) row
    slots = np.array(sorted({s for m in target.members for s in m}) or [0])
    _check_demo(n, slots.size, order, grid)
    v_target = np.array([[m.get(s, 0.0) for m in target.members] for s in slots.tolist()], dtype=np.complex128)
    kept = np.abs(slots) <= order
    v_trunc = np.where(kept[:, None], v_target, 0.0)

    toeplitz = _dyadic_toeplitz(slots)
    grams_target = v_target.conj().T @ toeplitz @ v_target
    grams_trunc = v_trunc.conj().T @ toeplitz @ v_trunc
    sup_error = float(np.max(np.abs(grams_target - grams_trunc)))
    stack = grams_trunc[-(1 << MAX_LEVEL) :]
    full = stack.sum(axis=0)
    return PhaseDemoReport(
        order=order,
        grid=grid,
        truncated_gram=stack,
        sup_error=sup_error,
        unital_defect=opnorm(full - np.eye(n)),
        gram_consistency_defect=opnorm(np.einsum("sn,sm->nm", v_trunc.conj(), v_trunc) - full),
    )
