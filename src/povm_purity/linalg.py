"""Dense Hermitian-matrix numerics used throughout the package.

Everything is plain double-precision numpy at desk scale (dimensions up to a
few dozen).  The two knobs that matter live in :class:`Tolerance`: an absolute
epsilon for symmetry/positivity checks and a relative threshold for numeric
rank.  Eigendecompositions come back in a *fixed* convention — eigenvalues
descending (a stable sort, so equal eigenvalues keep the solver's order), each
eigenvector's first significant component made real and positive — so that
downstream factorizations are reproducible run to run; :func:`validate` keeps
the one such solve of a POVM's effect stack.  One routine is a proof rather
than an estimate: :func:`certify_min_eigenvalue` bounds the smallest
eigenvalue from below by a floating-point Cholesky factorization with a
shift that covers every rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTolerance, NonHermitian, NonSquare

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "EigenResult",
    "herm_eig",
    "project_psd",
    "certify_min_eigenvalue",
]

# Components smaller than this are ignored when picking the anchor entry for
# the eigenvector phase convention.
_PHASE_EPS = 1e-12
# Unit roundoff and smallest positive (subnormal) number of IEEE binary64.
UNIT_ROUNDOFF = 2.0**-53
SUBNORMAL_MIN = 2.0**-1074


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


def _as_square(m) -> np.ndarray:
    """``m`` as a complex square matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise NonSquare(f"expected a 2-d array, got shape {a.shape}")
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), which bounds |theta| for a product
    of k factors (1 + delta)^(+-1) with |delta| <= u."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def opnorm(m):
    """Spectral norm (largest singular value); for a (k, m, n) stack, an array
    of the k norms from one batched SVD."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 3:
        return np.linalg.norm(a, 2, axis=(-2, -1)) if a.size else np.zeros(a.shape[0])
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _hermitian_mask(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """||a_j - a_j*|| <= abs_eps in operator norm, one entry per matrix of the
    square matrix or (k, n, n) stack ``a``.

    The Frobenius norm bounds the operator norm from above, so it settles the
    common case; one batched SVD settles the rest.
    """
    d = a if a.ndim == 3 else a[None]
    d = d - d.conj().swapaxes(-1, -2)
    ok = np.linalg.norm(d, axis=(-2, -1)) <= tol.abs_eps
    if not ok.all():
        ok[~ok] = opnorm(d[~ok]) <= tol.abs_eps
    return ok


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Spectral decomposition with eigenvalues descending.

    ``eigenvectors[..., :, k]`` belongs to ``eigenvalues[..., k]``, with a
    leading stack axis when a stack was decomposed; columns are orthonormal
    and phase-fixed (first significant component real positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    if v.size == 0:  # argmax raises on an empty axis
        return v.copy()
    significant = np.abs(v) > _PHASE_EPS
    anchor = np.take_along_axis(v, np.argmax(significant, axis=-2)[..., None, :], axis=-2)
    # a column with no significant entry keeps its phase
    anchor = np.where(significant.any(axis=-2, keepdims=True), anchor, 1.0)
    return v * (np.conj(anchor) / np.abs(anchor))


def _sorted_eig(a: np.ndarray) -> EigenResult:
    """``eigh`` of the Hermitian part of a matrix or stack, in the package convention."""
    w, v = np.linalg.eigh(_hermitize(a))
    order = np.argsort(-w, axis=-1, kind="stable")
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    return EigenResult(eigenvalues=np.take_along_axis(w, order, axis=-1), eigenvectors=_fix_column_phases(v))


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
    if not _hermitian_mask(a, tol)[0]:
        raise NonHermitian("matrix is not Hermitian within tolerance")
    return _sorted_eig(a)


def project_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to a Hermitian ``m``.

    Clips negative eigenvalues to zero.  Fixed point on inputs that are
    already PSD, and idempotent.
    """
    a = _as_square(m)
    if not _hermitian_mask(a, tol)[0]:
        raise NonHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(_hermitize(a))
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


def certify_min_eigenvalue(g, tau: float) -> bool:
    """True only if every eigenvalue of the Hermitian matrix H read from the
    lower triangle of ``g`` (the real parts on its diagonal) exceeds ``tau``.

    ``tau`` must be finite and >= 0.  False means only that the proof did not
    go through.  The proof is one floating-point Cholesky factorization of a
    shifted copy of H, and rests on Demmel's backward error bound for
    Cholesky (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., Lemma 8.4 and Thm 10.3) as extended to a shift and to underflow by
    Rump, "Verification of positive definiteness", BIT 46 (2006) 433-452,
    here in this form for real or complex H of order N:

        Let H = H* have binary64 entries, 0 <= c, (3N + 2) u <= 1/3, and let
        the floating-point Cholesky factorization of T = fl(H - c I) run to
        completion with a finite factor R (rounding to nearest, gradual
        underflow; each entry of R by the standard recurrence, its inner
        product in any order, as complex operations or as real product and
        FMA chains per component, the division by a pivot possibly as a
        product with the rounded reciprocal).  Then

            lambda_min(H) >= c - u max_j |h_jj - c| - g (t + N e) - N e,

        with u = 2^-53, g = gamma_{3N+2} / (1 - gamma_{3N+2}), t the sum of
        max(h_jj, 0), and e = 2 (N + 2 + max_j max(h_jj, 0)) 2^-1074.

    Proof sketch.  Each entry of R ends a complex inner product of length
    m < N with a division by a real pivot (a square root on the diagonal).
    As in Lemma 8.4, it is off by at most gamma_{3m+5} <= gamma_{3N+2} times
    the sum of the moduli of its terms: a complex product carries at most
    sqrt(2) gamma_2 <= gamma_3 (Higham Sec. 3.6), a real FMA chain per
    component at most sqrt(2) gamma_{2m+2}.  Underflow adds at most 2^-1073
    per product and the pivot times 2^-1074 for the division.  So T = R* R +
    D entrywise with |D| <= gamma_{3N+2} |R|* |R| + e, the pivots being at
    most 2 + max_j h_jj+ by the same bound on the diagonal; then ||D||_2 <=
    gamma_{3N+2} ||R||_F^2 + N e, and the diagonal of the bound gives
    ||R||_F^2 <= (t + N e) / (1 - gamma_{3N+2}), since t_jj <= h_jj for
    c >= 0.  The shift itself is rounded by at most u |h_jj - c| per diagonal
    entry, and R* R is positive semidefinite; Weyl's inequality finishes.

    The shift used is c = tau + 2 (bound + u (max_j |h_jj| + tau)), rounded
    up by a factor 1 + 4u: the factor 2 covers the rounding in evaluating the
    bound, so lambda_min(H) > tau whenever the factorization succeeds.
    """
    a = _as_square(g)
    tau = float(tau)
    if not (0.0 <= tau < np.inf):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not np.all(np.isfinite(a)):
        return False
    n = a.shape[0]
    diag = a.diagonal().real
    h = a.copy()  # cholesky reads only the lower triangle and the diagonal
    top = float(np.max(diag, initial=0.0))
    e = 2.0 * (n + 2 + top) * SUBNORMAL_MIN
    g_n = gamma(3 * n + 2)
    bound = g_n / (1.0 - g_n) * (float(np.sum(np.clip(diag, 0.0, None))) + n * e) + n * e
    slack = bound + UNIT_ROUNDOFF * (float(np.max(np.abs(diag), initial=0.0)) + tau)
    c = (tau + 2.0 * slack) * (1.0 + 4.0 * UNIT_ROUNDOFF)
    h[np.diag_indices(n)] = diag - c
    try:
        r = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    # a NaN pivot can pass LAPACK's positivity test; any overflow shows here too
    return bool(np.all(np.isfinite(r)))
