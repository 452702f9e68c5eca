"""Dense Hermitian-matrix numerics used throughout the package.

Everything is plain double-precision numpy at desk scale (dimensions up to a
few dozen).  The two knobs that matter live in :class:`Tolerance`: an absolute
epsilon for symmetry/positivity checks and a relative threshold for numeric
rank.  Eigendecompositions come back in a *fixed* convention — eigenvalues
descending, each eigenvector's first significant component made real and
positive, ties ordered lexicographically — so that downstream factorizations
are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTolerance, NonHermitian, NonSquare

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "EigenResult",
    "opnorm",
    "hermitize",
    "herm_eig",
    "numeric_rank",
    "is_psd",
    "project_psd",
]

# Components smaller than this are ignored when picking the anchor entry for
# the eigenvector phase convention.
_PHASE_EPS = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds.

    ``abs_eps`` bounds absolute defects (Hermiticity, positivity, residuals);
    ``rank_rel`` is the singular-value cutoff relative to the largest one.
    Both lie in (0, 1): a cut of 1 or more reads every effect or map as rank 0.
    """

    abs_eps: float = 1e-10
    rank_rel: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_eps < 1.0 and 0.0 < self.rank_rel < 1.0):  # false for NaN too
            raise InvalidTolerance(f"tolerances must lie in (0, 1), got {self}")


DEFAULT_TOL = Tolerance()


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise NonSquare(f"expected a 2-d array, got shape {a.shape}")
    return a


def _as_square(m) -> np.ndarray:
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def opnorm(m) -> float:
    """Spectral norm (largest singular value)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermitize(m) -> np.ndarray:
    """(M + M*)/2 — used to scrub numerical drift before eigensolves."""
    a = _as_square(m)
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class EigenResult:
    """Spectral decomposition with eigenvalues descending.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``; columns are
    orthonormal and phase-fixed (first significant component real positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        idx = np.flatnonzero(np.abs(col) > _PHASE_EPS)
        if idx.size == 0:
            continue
        anchor = col[idx[0]]
        v[:, k] = col * (np.conj(anchor) / np.abs(anchor))
    return v


def _lex_key(col: np.ndarray) -> tuple:
    return tuple((round(float(z.real), 12), round(float(z.imag), 12)) for z in col)


def herm_eig(m, tol: Tolerance = DEFAULT_TOL) -> EigenResult:
    """Eigendecomposition of a Hermitian matrix in the package convention.

    Parameters
    ----------
    m : array_like
        Square matrix with ``||m - m*|| <= tol.abs_eps``.
    tol : Tolerance
        Hermiticity threshold.

    Raises
    ------
    NonSquare, NonHermitian
    """
    a = _as_square(m)
    if opnorm(a - a.conj().T) > tol.abs_eps:
        raise NonHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    w = w[::-1].copy()
    v = _fix_column_phases(v[:, ::-1])
    # Deterministic order inside (near-)degenerate eigenvalue groups.
    tie_eps = 1e-12 * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    order = list(range(w.size))
    i = 0
    while i < w.size:
        j = i + 1
        while j < w.size and abs(w[j] - w[i]) <= tie_eps:
            j += 1
        if j - i > 1:
            order[i:j] = sorted(order[i:j], key=lambda k: _lex_key(v[:, k]), reverse=True)
        i = j
    return EigenResult(eigenvalues=w[order], eigenvectors=v[:, order])


def numeric_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``tol.rank_rel`` times the largest.

    Relative thresholding keeps the answer scale-invariant (a uniformly tiny
    matrix still has full rank); the exact zero matrix has rank 0.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise NonSquare(f"expected a 2-d array, got shape {a.shape}")
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    if smax <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * smax))


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``m`` is Hermitian within tolerance with spectrum >= -abs_eps."""
    a = _as_square(m)
    if opnorm(a - a.conj().T) > tol.abs_eps:
        return False
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return bool(w.size == 0 or float(w[0]) >= -tol.abs_eps)


def project_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to a Hermitian ``m``.

    Clips negative eigenvalues to zero.  Fixed point on inputs that are
    already PSD, and idempotent.
    """
    a = _as_square(m)
    if opnorm(a - a.conj().T) > tol.abs_eps:
        raise NonHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0
