"""Minimal projective dilations of finite-outcome POVMs.

Each effect factors through its spectral decomposition, E = A* A with A built
from the scaled eigenvector rows sqrt(lambda_k) <v_k|; stacking the per-outcome
blocks gives an isometry J into the direct sum of outcome spaces, on which the
measurement becomes a family of coordinate projections.  The dilation is
minimal: the block sizes are exactly the effect ranks, and J is unitary
precisely when the measurement was projective to begin with.

:func:`build_dilation` solves no eigenproblem: it reads the spectrum that
:func:`validate` kept on the :class:`Povm`, in one vectorized pass over the
whole stack (a mask of the kept eigenvalues, then one gather of the scaled
eigenvector rows into J).  The purity map, the convex split and the
pre-processing channel all read its blocks A_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTolerance, UnknownLabel
from .linalg import DEFAULT_TOL, Tolerance, opnorm
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


def build_dilation(p: Povm, tol: Tolerance = DEFAULT_TOL) -> NaimarkDilation:
    """Stack the per-outcome factors of a validated POVM into an isometry.

    Every effect is factorized from ``p.spectrum``, the one batched
    eigendecomposition of the effect stack that :func:`validate` took, in one
    pass over the stack: effect i keeps the rows sqrt(lambda) <v| of its
    eigenvalues above ``tol.rank_rel`` times its largest, none when that is at
    most ``tol.abs_eps`` (an empty range).  The rows of a block are orthogonal,
    with squared norms the kept eigenvalues, descending.

    Raises :class:`InvalidTolerance` when the eigenvalue cut drops so much
    that the blocks span fewer than ``p.dim`` dimensions: J*J = I is then
    impossible, and every verdict read off the blocks would be void.
    """
    w, v = p.spectrum.eigenvalues, p.spectrum.eigenvectors
    top = w[:, :1]
    # eigenvalues descend, so each outcome keeps a prefix of its rows
    keep = (w > tol.rank_rel * top) & (top > tol.abs_eps)
    ends = keep.sum(axis=1).cumsum().tolist()
    start = ends[-1]
    if start < p.dim:
        raise InvalidTolerance(
            f"eigenvalue cut (abs_eps {tol.abs_eps:g}, rank_rel {tol.rank_rel:g}) leaves a "
            f"dilation of total dimension {start} below the dimension {p.dim}"
        )
    isometry = np.sqrt(w[keep])[:, None] * v.swapaxes(-1, -2)[keep].conj()
    index = {lab: (lo, hi) for lab, lo, hi in zip(p.labels, [0, *ends], ends)}
    return NaimarkDilation(dim=p.dim, total_dim=start, isometry=isometry, block_index=index)


def dilation_is_unitary(dilation: NaimarkDilation) -> bool:
    """True iff the dilation adds nothing: square J with JJ* = identity.

    Equivalent to the source measurement being projective.
    """
    if dilation.total_dim != dilation.dim:
        return False
    j = dilation.isometry
    return opnorm(j @ j.conj().T - np.eye(dilation.total_dim)) <= UNITARITY_EPS
