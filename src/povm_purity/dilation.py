"""Minimal projective dilations of finite-outcome POVMs.

Each effect factors through its spectral decomposition, E = A* A with A built
from the scaled eigenvector rows sqrt(lambda_k) <v_k|; stacking the per-outcome
blocks gives an isometry J into the direct sum of outcome spaces, on which the
measurement becomes a family of coordinate projections.  The dilation is
minimal: the block sizes are exactly the effect ranks, and J is unitary
precisely when the measurement was projective to begin with.

:func:`build_dilation` is the package's only factorization of effects: the
purity map, the convex split and the pre-processing channel all read its
blocks A_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTolerance, NotPsd, UnknownLabel
from .linalg import DEFAULT_TOL, Tolerance, herm_eig, opnorm
from .povm import Povm

__all__ = [
    "NaimarkDilation",
    "build_dilation",
    "dilation_is_unitary",
]

UNITARITY_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class NaimarkDilation:
    """Stacked factorization blocks: an isometry J with J*J = identity.

    ``block_index`` maps each outcome label to its half-open row range in J;
    zero effects occupy empty ranges.
    """

    dim: int
    total_dim: int
    isometry: np.ndarray
    block_index: dict[str, tuple[int, int]]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.block_index)

    def block(self, label: str) -> np.ndarray:
        if label not in self.block_index:
            raise UnknownLabel(f"no outcome labelled {label!r}")
        lo, hi = self.block_index[label]
        return self.isometry[lo:hi]


def _factor_rows(w: np.ndarray, v: np.ndarray, tol: Tolerance, label: str) -> np.ndarray:
    """Rows sqrt(lambda_k) <v_k| of the spectral factor A of E = A* A, from
    E's eigenvalues ``w`` (descending) and eigenvectors ``v``.

    The row count is the numeric rank of E; eigenvalues at or below
    ``tol.abs_eps`` are treated as zero, so a vanishing effect yields an
    empty (0 x dim) factor.  The rows are orthogonal, with squared norms the
    retained eigenvalues in descending order.
    """
    d = w.shape[0]
    if w.size and float(w[-1]) < -tol.abs_eps:
        raise NotPsd(f"effect {label!r} has negative eigenvalue {float(w[-1]):.3e}")
    wmax = float(w[0]) if w.size else 0.0
    if wmax <= tol.abs_eps:
        rank = 0
    else:
        rank = int(np.count_nonzero(w > tol.rank_rel * wmax))
    rows = np.sqrt(np.clip(w[:rank], 0.0, None))[:, None] * v[:, :rank].conj().T
    return rows.reshape(rank, d)


def build_dilation(p: Povm, tol: Tolerance = DEFAULT_TOL) -> NaimarkDilation:
    """Stack the per-outcome factors of a validated POVM into an isometry.

    Every effect is factorized by one batched eigendecomposition of the
    effect stack.  Raises :class:`InvalidTolerance` when the eigenvalue cut
    drops so much that the blocks span fewer than ``p.dim`` dimensions: J*J
    = I is then impossible, and every verdict read off the blocks would be
    void.
    """
    eig = herm_eig(np.stack(p.effects), tol)
    blocks = [_factor_rows(w, v, tol, lab) for lab, w, v in zip(p.labels, eig.eigenvalues, eig.eigenvectors)]
    index: dict[str, tuple[int, int]] = {}
    start = 0
    for lab, a in zip(p.labels, blocks):
        index[lab] = (start, start + a.shape[0])
        start += a.shape[0]
    if start < p.dim:
        raise InvalidTolerance(
            f"eigenvalue cut (abs_eps {tol.abs_eps:g}, rank_rel {tol.rank_rel:g}) leaves a "
            f"dilation of total dimension {start} below the dimension {p.dim}"
        )
    return NaimarkDilation(dim=p.dim, total_dim=start, isometry=np.vstack(blocks), block_index=index)


def dilation_is_unitary(dilation: NaimarkDilation) -> bool:
    """True iff the dilation adds nothing: square J with JJ* = identity.

    Equivalent to the source measurement being projective.
    """
    if dilation.total_dim != dilation.dim:
        return False
    j = dilation.isometry
    return opnorm(j @ j.conj().T - np.eye(dilation.total_dim)) <= UNITARITY_EPS
