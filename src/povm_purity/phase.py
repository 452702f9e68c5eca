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
  integrals are exact: each is the difference of a closed-form antiderivative
  of the Gram density at two of the 2^MAX_LEVEL + 1 dyadic endpoints; the
  grid is only validated and reported.  The truncated construction is
  generally *not* unital — the defect is reported, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import EmptyFamily, GridTooCoarse, IndexOutOfRange, InvalidRatio, NonFinite, NonIntegerIndex
from .linalg import opnorm
from .polycert import MAX_STACK_MB, ProductRows, PurityCertificate, _require_integers, span_certificate

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
    """A family from maps {frequency: coefficient}, zero coefficients dropped.

    Every key must be an integer (an integral float is read as one) of
    magnitude at most 2^53 and every coefficient a finite number (not a
    string, nor an integer past the double range); ``NonIntegerIndex``,
    ``IndexOutOfRange`` and ``NonFinite`` refuse the others, naming the
    member, before anything is built.
    """
    cleaned = []
    for n, m in enumerate(members):
        entries = {}
        for s, v in m.items():
            try:
                g = int(s)
            except (TypeError, ValueError, OverflowError):
                g = None
            if g is None or g != s:
                raise NonIntegerIndex(f"member {n}: frequency {s!r} is not an integer")
            if abs(g) > 2**53:
                raise IndexOutOfRange(f"member {n}: frequency {g} is past 2^53 in magnitude")
            try:
                z = complex(v) if isinstance(v, (int, float, complex, np.number)) else complex("nan")
            except OverflowError:  # its repr may be too long to print
                raise NonFinite(f"member {n}: coefficient at frequency {g} is an integer past the double range") from None
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise NonFinite(f"member {n}: coefficient {v!r} at frequency {g} is not a finite number")
            if z != 0:
                entries[g] = z
        cleaned.append(entries)
    if not cleaned:
        raise EmptyFamily("family has no members")
    return FourierFamily(members=tuple(cleaned))


def _check_size(n_members: int) -> None:
    _require_integers(n_members=n_members)
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
    doubles they hold.
    """
    if not fam.members:
        raise EmptyFamily("family has no members")
    _require_integers(check_order=check_order)
    if check_order < 0:
        raise IndexOutOfRange(f"check_order must be >= 0, got {check_order}")
    n = len(fam.members)
    rows = ProductRows(fam.members, list(product(range(n), repeat=2)), sign=-1)
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


def _antiderivatives(u: np.ndarray, hilbert: np.ndarray) -> np.ndarray:
    """Entry [j] = F(x_j) = U(x_j)* K0 U(x_j) + (x_j / 2 pi) V*V at the endpoints
    x_j = 2 pi j / 2^MAX_LEVEL of the finest dyadic partition.

    ``u[s, j]`` is row s of U(x_j) = diag(e^{-i s x_j}) V, and K0 = -i
    ``hilbert``, hilbert[s, t] = 1 / (2 pi (s - t)) off the diagonal, 0 on it:
    F is an antiderivative of conj(psi_n) psi_m / (2 pi), so the Gram of
    [x_a, x_b) is F(x_b) - F(x_a).  K0 U at every endpoint is one real GEMM,
    and as U(x)* U(x) = V*V the linear term joins it: F(x) = U(x)* (K0 +
    x / 2 pi) U(x).
    """
    rows, ends, cols = u.shape
    ku = (hilbert @ u.reshape(rows, ends * cols).view(np.float64)).view(np.complex128).reshape(u.shape)
    ku *= -1j
    ku += (np.arange(ends) / (ends - 1))[:, None] * u
    return u.transpose(1, 2, 0).conj() @ ku.transpose(1, 0, 2)


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
    n members and E = 2^MAX_LEVEL + 1 endpoints: three (S, E, n) complex
    stacks (U, K0 U, one temporary of their size), five (E, n, n) (the two
    antiderivative stacks, their difference, the interval Grams, temporaries
    of the sup), four (S, S) float matrices (gaps, Hilbert kernel and their
    temporaries) and the (S, E) phase table with its two index arrays."""
    _require_integers(order=order, grid=grid)
    if order < 0:
        raise IndexOutOfRange(f"truncation order must be >= 0, got {order}")
    if grid < MIN_GRID or grid % (1 << MAX_LEVEL) != 0:
        raise GridTooCoarse(
            f"grid must be a multiple of {1 << MAX_LEVEL} and at least {MIN_GRID}, got {grid}"
        )
    ends, s, n = (1 << MAX_LEVEL) + 1, n_frequencies, n_members
    mb = (16 * ends * (3 * s * n + 5 * n * n + 2 * s) + 32 * s * s) / 2**20
    if mb > MAX_STACK_MB:
        raise IndexOutOfRange(
            f"{n} members over {s} frequencies need {mb:.0f} MB of arrays (three ({s}, {ends}, {n}) and five "
            f"({ends}, {n}, {n}) complex stacks, four ({s}, {s}) float matrices), over the {MAX_STACK_MB} MB limit"
        )
    return mb


def phase_truncation_demo(target: FourierFamily, order: int, grid: int) -> PhaseDemoReport:
    """Compare a target family against its order-``order`` Fourier truncation.

    Interval integrals are exact: with the coefficients of a family stacked
    into a matrix V over its frequency list, F(x) = U(x)* K0 U(x) + (x / 2 pi)
    V*V is an antiderivative of the Gram density, U(x) = diag(e^{-isx}) V and
    K0[s, t] = 1 / (2 pi i (s - t)) off the diagonal, 0 on it (see
    :func:`_antiderivatives`).  F is evaluated at the 2^MAX_LEVEL + 1 dyadic
    endpoints, once for the target and once for the kept rows of V, and every
    interval Gram is a difference of two of them.  ``grid`` is validated (a
    multiple of 2^MAX_LEVEL, at least MIN_GRID) and echoed in the report, but
    changes no number.  A family whose arrays would pass MAX_STACK_MB together
    (as :func:`_check_demo` counts them) is refused with ``IndexOutOfRange``
    before anything is allocated; one whose Grams pass the double range, with
    ``NonFinite``.
    """
    n = len(target.members)
    # a family whose members are all empty still needs one (zero) row
    slots = np.array(sorted({s for m in target.members for s in m}) or [0])
    _check_demo(n, slots.size, order, grid)
    v = np.array([[m.get(s, 0.0) for m in target.members] for s in slots.tolist()], dtype=np.complex128)
    cells = 1 << MAX_LEVEL
    # e^{-i s x_j} is the root of unity of s j modulo 2^MAX_LEVEL, reduced exactly
    roots = np.exp(-2j * np.pi / cells * np.arange(cells))
    phases = roots[(slots % cells)[:, None] * np.arange(cells + 1) % cells]
    gaps = np.subtract.outer(slots, slots).astype(float)
    hilbert = np.divide(1.0, 2.0 * np.pi * gaps, out=np.zeros_like(gaps), where=gaps != 0)
    # the kept frequencies |s| <= order are one run of the sorted slots
    lo, hi = np.searchsorted(slots, -order), np.searchsorted(slots, order, side="right")
    kept = slice(lo, hi)
    # finite coefficients may still overflow a Gram: the checks below refuse that
    with np.errstate(over="ignore", invalid="ignore"):
        u = phases[:, :, None] * v[:, None, :]
        f_target = _antiderivatives(u, hilbert)
        f_trunc = f_target if (lo, hi) == (0, slots.size) else _antiderivatives(u[kept], hilbert[kept, kept])
        # interval j of level k runs from endpoint j h to endpoint (j + 1) h, h = 2^(MAX_LEVEL - k)
        error = f_target - f_trunc
        steps = [cells >> k for k in range(MAX_LEVEL + 1)]
        sup_error = max(float(np.max(np.abs(error[h::h] - error[:-h:h]))) for h in steps)
        stack = f_trunc[1:] - f_trunc[:-1]
        full = stack.sum(axis=0)
        consistency = v[kept].conj().T @ v[kept] - full
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
