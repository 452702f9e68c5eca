"""Purity certificates for measurements with polynomial densities.

A measurement whose outcome densities are squares of a function family
{psi_n} is pure whenever the span of the pairwise products conj(psi_n)psi_m
contains every polynomial.  For polynomial families that span condition can
be checked exactly up to a chosen degree: assemble the product coefficient
matrix restricted to degrees 0..check_degree and demand that every degree
slot contributes new rank, i.e. the restricted row space is all of
R^{check_degree+1}.  A slot that gains rank witnesses a combination of
products vanishing on all lower degrees and hitting that one, which is the
triangular ladder the span argument needs.  The result is one-sided —
``certified`` proves coverage up to the degree, ``inconclusive`` proves
nothing.

The flagship family: orthonormal Hermite polynomials with one index k
dropped, modelling a position measurement compressed away from its k-th
mode.  Dropping k >= 1 leaves the coverage intact (products of the remaining
members still reach every degree), which is what the certificate shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite as _hermite
from numpy.polynomial import laguerre as _laguerre
from numpy.polynomial import legendre as _legendre

from .errors import EmptyFamily, IndexOutOfRange
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "PolyFamily",
    "PurityCertificate",
    "BASIS_INFO",
    "hermite_qk_family",
    "orthonormal_family",
    "product_span_certificate",
]

VERDICT_CERTIFIED = "certified"
VERDICT_INCONCLUSIVE = "inconclusive"

# basis name -> (weight, interval) for reporting
BASIS_INFO = {
    "hermite": ("exp(-x^2)", "(-inf, inf)"),
    "legendre": ("1", "[-1, 1]"),
    "laguerre": ("exp(-x)", "[0, inf)"),
    "monomial": ("1", "[-1, 1]"),
}


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=np.complex128).ravel()
    nz = np.flatnonzero(np.abs(c) > 0.0)
    if nz.size == 0:
        return np.zeros(0, dtype=np.complex128)
    return c[: nz[-1] + 1]


@dataclass(frozen=True, eq=False)
class PolyFamily:
    """Polynomials as monomial coefficient vectors (low to high, trimmed)."""

    basis: str
    members: tuple[np.ndarray, ...]
    max_degree: int

    def __post_init__(self) -> None:
        if self.basis not in BASIS_INFO:
            raise ValueError(f"unknown basis {self.basis!r}; one of {sorted(BASIS_INFO)}")


def _family(basis: str, members: list[np.ndarray]) -> PolyFamily:
    trimmed = [_trim(m) for m in members]
    if any(t.size == 0 for t in trimmed):
        raise EmptyFamily("family members must be nonzero polynomials")
    if not trimmed:
        raise EmptyFamily("family has no members")
    return PolyFamily(
        basis=basis,
        members=tuple(trimmed),
        max_degree=max(t.size - 1 for t in trimmed),
    )


def _hermite_member(n: int) -> np.ndarray:
    # physicists' convention: H_{n+1} = 2x H_n - 2n H_{n-1},
    # normalized by c_n = (2^n n! sqrt(pi))^(-1/2) against weight exp(-x^2).
    e = np.zeros(n + 1)
    e[n] = 1.0
    cn = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return cn * _hermite.herm2poly(e)


def _legendre_member(n: int) -> np.ndarray:
    e = np.zeros(n + 1)
    e[n] = 1.0
    return math.sqrt((2.0 * n + 1.0) / 2.0) * _legendre.leg2poly(e)


def _laguerre_member(n: int) -> np.ndarray:
    # already orthonormal against exp(-x) on [0, inf)
    e = np.zeros(n + 1)
    e[n] = 1.0
    return _laguerre.lag2poly(e)


def _monomial_member(n: int) -> np.ndarray:
    e = np.zeros(n + 1)
    e[n] = 1.0
    return e


_MEMBER_BUILDERS = {
    "hermite": _hermite_member,
    "legendre": _legendre_member,
    "laguerre": _laguerre_member,
    "monomial": _monomial_member,
}


def orthonormal_family(basis: str, max_degree: int, exclude=()) -> PolyFamily:
    """Members of the named basis up to ``max_degree``, minus excluded indices."""
    if basis not in _MEMBER_BUILDERS:
        raise ValueError(f"unknown basis {basis!r}; one of {sorted(BASIS_INFO)}")
    if max_degree < 0:
        raise IndexOutOfRange(f"max_degree must be >= 0, got {max_degree}")
    dropped = set(int(k) for k in exclude)
    for k in dropped:
        if not 0 <= k <= max_degree:
            raise IndexOutOfRange(f"excluded index {k} outside 0..{max_degree}")
    build = _MEMBER_BUILDERS[basis]
    members = [build(n) for n in range(max_degree + 1) if n not in dropped]
    if not members:
        raise EmptyFamily("every member was excluded")
    return _family(basis, members)


def hermite_qk_family(k: int, max_index: int) -> PolyFamily:
    """Orthonormal Hermite members 0..max_index with index ``k`` dropped."""
    if not 0 <= k <= max_index:
        raise IndexOutOfRange(f"dropped index {k} outside 0..{max_index}")
    return orthonormal_family("hermite", max_index, exclude=(k,))


@dataclass(frozen=True)
class PurityCertificate:
    """One-sided coverage certificate.

    ``certified`` iff no degree (or frequency, for the trigonometric
    analogue) up to ``certified_to_degree`` is missing from the product span.
    """

    certified_to_degree: int
    verdict: str
    missing_degrees: tuple[int, ...]

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


def _covered_slots(matrix: np.ndarray, tol: Tolerance) -> list[bool]:
    """Which column slots gain rank as columns enter left to right.

    Slot j is covered exactly when some combination of rows vanishes on the
    columns before j and is nonzero at j, i.e. when the rank of the first
    j + 1 columns exceeds the rank of the first j.  Rows are normalized so
    the rank threshold means the same thing for every family.
    """
    norms = np.linalg.norm(matrix, axis=1)
    keep = matrix[norms > 0.0] / norms[norms > 0.0, None]
    covered = []
    prev = 0
    for j in range(matrix.shape[1]):
        if keep.shape[0] == 0:
            covered.append(False)
            continue
        s = np.linalg.svd(keep[:, : j + 1], compute_uv=False)
        rank = int(np.count_nonzero(s > tol.rank_rel * s[0])) if s[0] > 0.0 else 0
        covered.append(rank > prev)
        prev = max(prev, rank)
    return covered


def product_span_certificate(
    fam: PolyFamily, check_degree: int, tol: Tolerance = DEFAULT_TOL
) -> PurityCertificate:
    """Test whether the products conj(psi_n) psi_m reach every monomial of
    degree <= check_degree.

    The product coefficient matrix is restricted to the checked window; a
    degree is covered when its column adds rank, so cancellations between
    products count but coverage is never inferred from high-degree tails.
    Degrees beyond every product's reach simply turn up in
    ``missing_degrees``.
    """
    if not fam.members:
        raise EmptyFamily("family has no members")
    if check_degree < 0:
        raise IndexOutOfRange(f"check_degree must be >= 0, got {check_degree}")
    width = 2 * fam.max_degree + 1
    rows = []
    for a in fam.members:
        for b in fam.members:
            prod = np.convolve(np.conj(a), b)
            padded = np.zeros(width, dtype=np.complex128)
            padded[: prod.size] = prod
            rows.append(padded)
    matrix = np.stack(rows)[:, : check_degree + 1]
    covered = _covered_slots(matrix, tol)
    missing = [deg for deg in range(check_degree + 1) if deg >= width or not covered[deg]]
    return PurityCertificate(
        certified_to_degree=check_degree,
        verdict=VERDICT_CERTIFIED if not missing else VERDICT_INCONCLUSIVE,
        missing_degrees=tuple(missing),
    )
