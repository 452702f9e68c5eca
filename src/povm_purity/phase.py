"""Trigonometric families and the truncated canonical-phase construction.

Members are finitely supported Fourier series psi_n(theta) = sum_s v_n^s
e^{-is theta} on the circle with normalized measure dtheta/(2 pi).  Two
things live here:

* the trigonometric analogue of the polynomial span certificate
  (:func:`fourier_span_certificate`), with pure frequencies in place of
  monomials — for the canonical phase family psi_n = e^{-in theta},
  n = 1..N, it certifies exactly up to order N - 1, from the leading terms
  of its products alone.  It runs on the exact ladder of ``polycert``:
  coefficients are read exactly as the doubles they hold, and no tolerance
  enters;

* :func:`phase_truncation_demo`, which truncates a target family at Fourier
  order M and compares outcome integrals over a dyadic interval family.  The
  integrals are exact: each is the difference of a closed-form antiderivative
  of the Gram density at two of the 2^MAX_LEVEL + 1 dyadic endpoints, which
  it evaluates a block of _BLOCK at a time, so that its working arrays scale
  with the block and not with every endpoint; the grid is only validated and
  reported.  The truncated construction is generally *not* unital — the
  defect is reported, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    _BOOLS,
    EmptyFamily,
    GridTooCoarse,
    IndexOutOfRange,
    InvalidRatio,
    NonFinite,
    NonIntegerIndex,
    _require_integers,
)
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
# The demo walks the 2^MAX_LEVEL + 1 dyadic endpoints this many at a time (a
# power of two dividing 2^MAX_LEVEL), so no array spans all of them at once.
_BLOCK = 8
# Past this many members even the (n, n) int64 block of a span certificate
# passes MAX_STACK_MB, so a family builder refuses before building anything.
MAX_MEMBERS = math.isqrt(MAX_STACK_MB * 2**20 // 8)


@dataclass(frozen=True)
class FourierFamily:
    """Finitely supported Fourier coefficient maps, one dict {s: coeff} per member.

    Each key must be an integer (an integral float is read as one, a bool is
    not) of magnitude at most 2^53 and each value a number (not a string or
    a bool); ``NonIntegerIndex``, ``IndexOutOfRange`` and ``NonFinite``
    refuse the others where the family is made, naming the member and the
    key.  NaN and infinite values are refused by the certificate and the demo.
    """

    members: tuple[dict[int, complex], ...]

    def __post_init__(self) -> None:
        for n, m in enumerate(self.members):
            for s, v in m.items():
                try:
                    g = int(s)
                except (TypeError, ValueError, OverflowError):
                    g = None
                if g is None or g != s or isinstance(s, _BOOLS):
                    raise NonIntegerIndex(f"member {n}: frequency {s!r} is not an integer")
                if abs(g) > 2**53:
                    raise IndexOutOfRange(f"member {n}: frequency {g} is past 2^53 in magnitude")
                if not isinstance(v, (int, float, complex, np.number)) or isinstance(v, _BOOLS):
                    raise NonFinite(f"member {n}: coefficient {v!r} at frequency {g} is not a finite number")


def fourier_family(members) -> FourierFamily:
    """A family from maps {frequency: coefficient}, zero coefficients dropped.

    The keys and values must pass :class:`FourierFamily`, and every
    coefficient must be finite (nor an integer past the double range);
    ``NonFinite`` refuses the others, naming the member, before anything is
    built.
    """
    cleaned = []
    for n, m in enumerate(FourierFamily(members=tuple(members)).members):
        entries = {}
        for s, v in m.items():
            g = int(s)
            z = _complex(n, g, v)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise NonFinite(f"member {n}: coefficient {v!r} at frequency {g} is not a finite number")
            if z != 0:
                entries[g] = z
        cleaned.append(entries)
    if not cleaned:
        raise EmptyFamily("family has no members")
    return FourierFamily(members=tuple(cleaned))


def _complex(n: int, g: int, v) -> complex:
    """Coefficient ``v`` of member n at frequency g as a complex double;
    ``NonFinite`` for an integer past the double range."""
    try:
        return complex(v)
    except OverflowError:  # its repr may be too long to print
        raise NonFinite(f"member {n}: coefficient at frequency {g} is an integer past the double range") from None


def _check_size(n_members: int) -> None:
    _require_integers(n_members=n_members)
    if n_members < 1:
        raise EmptyFamily("need at least one member")
    if n_members > MAX_MEMBERS:
        raise IndexOutOfRange(
            f"{n_members} members need an ({n_members}, {n_members}) int64 block, over the "
            f"{MAX_STACK_MB} MB limit (at most {MAX_MEMBERS} members)"
        )


def single_mode_family(n_members: int) -> FourierFamily:
    """psi_n = e^{-in theta} for n = 1..n_members."""
    _check_size(n_members)
    return fourier_family([{n: 1.0} for n in range(1, n_members + 1)])


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
    _require_integers(support=support)
    if support < 0:
        raise IndexOutOfRange(f"support must be >= 0, got {support}")
    reach = _reach(ratio, support + n_members + 1)
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


def _reach(ratio: float, far: int) -> int:
    """The first k < far with ratio^k == 0.0 (as from then on), else far."""
    return next((k for k in range(far) if ratio**k == 0.0), far)


def fourier_span_certificate(fam: FourierFamily, check_order: int) -> PurityCertificate:
    """Trigonometric span test: every pure frequency |g| <= check_order must
    lie in the span of the products conj(psi_n) psi_m.

    The product conj(psi_n) psi_m carries frequency g = s - t with
    coefficient sum over s - t = g of conj(v_n^s) v_m^t.  Frequencies are
    tested from the inside out (0, -1, +1, -2, +2, ...), each slot required
    to add rank to the restricted coefficient matrix, on the same exact
    ladder as the polynomial test; the coefficients are read exactly as the
    doubles they hold.  In that order a product's last frequency is the one
    of its extremes lo_n - hi_m and hi_n - lo_m farther from 0 (the positive
    one on a tie), so the single-mode family, whose products are single
    frequencies, is decided by those products alone, before any sketch.
    """
    if not fam.members:
        raise EmptyFamily("family has no members")
    _require_integers(check_order=check_order)
    if check_order < 0:
        raise IndexOutOfRange(f"check_order must be >= 0, got {check_order}")
    rows = ProductRows(fam.members, sign=-1)
    rows.check_slots(2 * check_order + 1)
    slots = [0, *(s * g for g in range(1, check_order + 1) for s in (-1, 1))]
    return span_certificate(rows, slots, check_order)


@dataclass(frozen=True, eq=False)
class PhaseDemoReport:
    """Truncation diagnostics for a phase-like family.

    ``truncated_gram`` stacks the truncated outcome integrals over the finest
    dyadic partition (2^MAX_LEVEL intervals, each an n x n matrix, each the
    difference of the antiderivative at its two endpoints); its sum is the
    full-circle Gram.  ``sup_error`` is the largest deviation, over the whole
    dyadic interval family (every level) and all member pairs, between target
    and truncated outcome integrals.  ``unital_defect`` is ||full-circle Gram - 1||,
    and ``gram_consistency_defect`` is ||coefficient Gram - full-circle Gram||,
    the coefficient Gram being sum_s conj(v_n^s) v_m^s over the kept
    coefficients (Parseval).  No field but ``grid`` itself depends on ``grid``,
    and none on the blocks of endpoints the demo walks: ``truncated_gram`` is
    the only array the demo keeps.
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


def _antiderivatives(u: np.ndarray, hilbert: np.ndarray, at: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Entry [j] = F(x_j) = U(x_j)* K0 U(x_j) + (x_j / 2 pi) V*V, written to
    ``out``, at dyadic endpoints x_j = 2 pi ``at[j, 0]``.

    ``u[s, j]`` is row s of U(x) = diag(e^{-i s x}) V, and K0 = -i
    ``hilbert``, hilbert[s, t] = 1 / (2 pi (s - t)) off the diagonal, 0 on it:
    F is an antiderivative of conj(psi_n) psi_m / (2 pi), so the Gram of
    [x_a, x_b) is F(x_b) - F(x_a).  K0 U at every endpoint is one real GEMM,
    and as U(x)* U(x) = V*V the linear term joins it: F(x) = U(x)* (K0 +
    x / 2 pi) U(x).
    """
    rows, ends, cols = u.shape
    ku = (hilbert @ u.reshape(rows, ends * cols).view(np.float64)).view(np.complex128).reshape(u.shape)
    ku *= -1j
    ku += at * u
    return np.matmul(u.transpose(1, 2, 0).conj(), ku.transpose(1, 0, 2), out=out)


def _frequency_count(n_members: int, ratio: float | None = None, support: int = 0) -> int | None:
    """A lower bound on the frequency count of :func:`single_mode_family`
    (``ratio`` None) or :func:`geometric_tail_family`, from the arguments;
    None when building might raise.  A member's L2 norm is at most N_max =
    sqrt((1 + r^2) / (1 - r^2)), so every r^k >= N_max 2^-1000 survives the
    normalization, and when N_max < 2 every nonzero r^k does (the quotient
    passes 2^-1075, rounding up); the 1e-9 factors cover rounding.  So the
    members keep [1 - K, n_members + K] within the support, K the largest
    such k.  A member peaked outside the support keeps a nonzero norm while
    r^(n_members - support) >= 2^-500.
    """
    if not 1 <= n_members <= MAX_MEMBERS:
        return None
    if ratio is None:
        return n_members
    if not (0.0 < ratio < 1.0 and support >= 0):
        return None
    if n_members > support and ratio ** (n_members - support) < 2.0**-500:
        return None
    peak = math.sqrt((1.0 + ratio**2) / (1.0 - ratio**2))
    if peak * (1.0 + 1e-9) < 2.0:
        k = _reach(ratio, support + n_members + 1) - 1
    else:
        k = int(math.log(peak * 2.0**-1000) / math.log(ratio) * (1.0 - 1e-9))
    return min(support, n_members + k) - max(-support, 1 - k) + 1


def _check_demo(n_members: int, n_frequencies: int, order: int, grid: int) -> float:
    """Refuse a demo before anything is allocated: an order or grid that is
    not an integer, a negative order, a grid off the dyadic lattice, or arrays
    past MAX_STACK_MB together; else the megabytes counted.  The count bounds
    the peak of :func:`phase_truncation_demo` from above, for S frequencies,
    n members, C = 2^MAX_LEVEL cells, E = C + 1 endpoints and blocks of
    b = _BLOCK endpoints: the (C, n, n) interval Grams; 2 (b + 1) + C / b + 1
    + 2 b complex (n, n) blocks (the block's truncated antiderivatives and
    errors, the error at every block's last endpoint, the differences of the
    finest level with their magnitudes, temporaries of the last checks); four
    complex (S, b + 1, n) stacks (U, K0 U, one temporary of their size and a
    conjugate of U) and two (S, n) (V and its conjugate); the (S, E) phase
    table with its two index arrays; and four (S, S) float matrices (gaps,
    Hilbert kernel and their temporaries)."""
    _require_integers(order=order, grid=grid)
    if order < 0:
        raise IndexOutOfRange(f"truncation order must be >= 0, got {order}")
    if grid < MIN_GRID or grid % (1 << MAX_LEVEL) != 0:
        raise GridTooCoarse(
            f"grid must be a multiple of {1 << MAX_LEVEL} and at least {MIN_GRID}, got {grid}"
        )
    cells, rows, s, n = 1 << MAX_LEVEL, _BLOCK + 1, n_frequencies, n_members
    blocks = 2 * rows + cells // _BLOCK + 1 + 2 * _BLOCK
    mb = (16 * (n * n * (cells + blocks) + s * n * (4 * rows + 2) + 2 * s * (cells + 1)) + 32 * s * s) / 2**20
    if mb > MAX_STACK_MB:
        raise IndexOutOfRange(
            f"{n} members over {s} frequencies need {mb:.0f} MB of arrays (the ({cells}, {n}, {n}) interval "
            f"Grams and {blocks} more ({n}, {n}) complex blocks, four ({s}, {rows}, {n}) complex stacks, four "
            f"({s}, {s}) float matrices), over the {MAX_STACK_MB} MB limit"
        )
    return mb


def phase_truncation_demo(target: FourierFamily, order: int, grid: int) -> PhaseDemoReport:
    """Compare a target family against its order-``order`` Fourier truncation.

    Interval integrals are exact: with the coefficients of a family stacked
    into a matrix V over its frequency list, F(x) = U(x)* K0 U(x) + (x / 2 pi)
    V*V is an antiderivative of the Gram density, U(x) = diag(e^{-isx}) V and
    K0[s, t] = 1 / (2 pi i (s - t)) off the diagonal, 0 on it (see
    :func:`_antiderivatives`).  F is evaluated at the 2^MAX_LEVEL + 1 dyadic
    endpoints, once for the target and once for the kept rows of V (exactly
    the same when nothing is truncated), and every interval Gram is a
    difference of two of them.  The endpoints are walked in blocks of
    _BLOCK, each carrying over the last endpoint of the one before: a block
    writes its finest interval Grams straight into the returned stack and
    folds the differences of target and truncation into one running maximum
    per dyadic level, for the levels whose intervals fit in a block; the
    coarser levels difference the error kept at each block's last endpoint.
    ``grid`` is validated (a multiple of 2^MAX_LEVEL, at least MIN_GRID) and
    echoed in the report, but changes no number.  A family whose arrays
    would pass MAX_STACK_MB together (as :func:`_check_demo` counts them) is
    refused with ``IndexOutOfRange`` before anything is allocated; one with
    an integer coefficient past the double range, or whose Grams pass it,
    with ``NonFinite``.
    """
    n = len(target.members)
    # a family whose members are all empty still needs one (zero) row
    slots = np.array(sorted({s for m in target.members for s in m}) or [0], dtype=np.int64)
    _check_demo(n, slots.size, order, grid)
    try:
        v = np.array([[m.get(s, 0.0) for m in target.members] for s in slots.tolist()], dtype=np.complex128)
    except OverflowError:  # the first integer past the double range names itself
        for k, m in enumerate(target.members):
            for s, x in m.items():
                _complex(k, int(s), x)
        raise
    cells = 1 << MAX_LEVEL
    # e^{-i s x_j} is the root of unity of s j modulo 2^MAX_LEVEL, reduced exactly
    roots = np.exp(-2j * np.pi / cells * np.arange(cells))
    phases = roots[(slots % cells)[:, None] * np.arange(cells + 1) % cells]
    turns = (np.arange(cells + 1) / cells)[:, None]  # x_j / 2 pi
    gaps = np.subtract.outer(slots, slots).astype(float)
    hilbert = np.divide(1.0, 2.0 * np.pi * gaps, out=np.zeros_like(gaps), where=gaps != 0)
    del gaps
    # the kept frequencies |s| <= order are one run of the sorted slots
    lo, hi = np.searchsorted(slots, -order), np.searchsorted(slots, order, side="right")
    # interval j of level k runs from endpoint j h to endpoint (j + 1) h, h = 2^(MAX_LEVEL - k):
    # levels with h <= _BLOCK lie inside a block, the coarser ones join the blocks' last endpoints
    steps = [cells >> k for k in range(MAX_LEVEL + 1)]
    sup = np.zeros(MAX_LEVEL + 1)  # np.maximum keeps a NaN, where max(0.0, nan) would drop it
    stack = np.empty((cells, n, n), dtype=np.complex128)
    # row 0 of a block holds its first endpoint a, carried over from the block before (the first
    # block computes endpoint 0), and rows 1.. the endpoints a + 1 .. a + _BLOCK it computes
    f_trunc = np.empty((_BLOCK + 1, n, n), dtype=np.complex128)
    error = np.empty_like(f_trunc)
    ends = np.empty((cells // _BLOCK + 1, n, n), dtype=np.complex128)

    def spread(e, h):
        return np.abs(e[h::h] - e[:-h:h]).max()

    # finite coefficients may still overflow a Gram: the checks below refuse that
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, cells, _BLOCK):
            first = 1 if a else 0  # the row of the first endpoint this block computes
            if first:
                f_trunc[0] = f_trunc[-1]
                error[0] = error[-1]
            at = slice(a + first, a + _BLOCK + 1)
            u = phases[:, at, None] * v[:, None, :]
            _antiderivatives(u[lo:hi], hilbert[lo:hi, lo:hi], turns[at], f_trunc[first:])
            _antiderivatives(u, hilbert, turns[at], error[first:])  # the target's, less f_trunc below
            del u
            np.subtract(f_trunc[1:], f_trunc[:-1], out=stack[a : a + _BLOCK])
            np.subtract(error[first:], f_trunc[first:], out=error[first:])
            ends[a // _BLOCK : a // _BLOCK + 2] = error[::_BLOCK]
            for k, h in enumerate(steps):
                if h <= _BLOCK:
                    sup[k] = np.maximum(sup[k], spread(error, h))
        for k, h in enumerate(steps):
            if h > _BLOCK:
                sup[k] = spread(ends, h // _BLOCK)
        sup_error = float(sup.max())
        full = stack.sum(axis=0)
        consistency = v[lo:hi].conj().T @ v[lo:hi] - full
    # an inf or nan anywhere in the stack reaches its sum, so two checks cover every field
    if not (math.isfinite(sup_error) and np.isfinite(consistency).all()):
        raise NonFinite("the family's interval Grams pass the double range")
    return PhaseDemoReport(
        order=order,
        grid=grid,
        truncated_gram=stack,
        sup_error=sup_error,
        unital_defect=opnorm(full - np.eye(n)),
        gram_consistency_defect=opnorm(consistency),
    )
