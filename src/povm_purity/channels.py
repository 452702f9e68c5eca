"""Pre-processing channels between measurements.

A channel Phi (Kraus operators A_k mapping states on C^in_dim to states on
C^out_dim) *connects* P to P' when its dual pulls every effect of P back to
the corresponding effect of P': Phi*(E_i) = E'_i.  This module provides

* Kraus and Choi containers, each with one dual action (:func:`apply_dual`,
  :func:`choi_dual_apply`),
* the explicit measure-and-prepare construction when P is projective
  (:func:`preprocess_from_pvm`),
* a one-sided feasibility search over Choi matrices by Dykstra alternating
  projections between the PSD cone and the affine constraint set
  (:func:`connection_feasible`): "not found within budget" is *not* an
  infeasibility proof.

Choi convention: C = sum_k |A_k>><<A_k| with |A>> the row-major vec of the
(out_dim x in_dim) Kraus block, so C acts on C^out tensor C^in and the dual
action is Phi*(B) = (tr x id)[(B tensor 1) C].  That index convention is
written once, in ``_choi_duals``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import build_dilation
from .errors import (
    DimensionMismatch,
    InvalidBudget,
    LabelMismatch,
    NotDominated,
    NotPvm,
    NotTracePreserving,
)
from .linalg import DEFAULT_TOL, Tolerance, opnorm, project_psd
from .povm import Povm, is_pvm, support_dominates

__all__ = [
    "KrausChannel",
    "ChoiMatrix",
    "FeasibilityResult",
    "kraus_channel",
    "apply_dual",
    "preprocess_from_pvm",
    "choi_from_kraus",
    "choi_dual_apply",
    "connection_feasible",
]

TP_EPS = 1e-10
FEASIBILITY_EPS = 1e-7
HISTORY_STRIDE = 100


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive trace-preserving map in Kraus form.

    ``kraus[k]`` has shape (out_dim, in_dim); trace preservation means
    sum_k A_k* A_k = identity on the input space.
    """

    in_dim: int
    out_dim: int
    kraus: tuple[np.ndarray, ...]

    def tp_defect(self) -> float:
        return opnorm(apply_dual(self, np.eye(self.out_dim)) - np.eye(self.in_dim))


def kraus_channel(in_dim: int, out_dim: int, ops) -> KrausChannel:
    """Validate shapes and trace preservation, then freeze the channel."""
    mats = []
    for k, a in enumerate(ops):
        m = np.asarray(a, dtype=np.complex128)
        if m.shape != (out_dim, in_dim):
            raise DimensionMismatch(
                f"Kraus operator {k} has shape {m.shape}, expected ({out_dim}, {in_dim})"
            )
        mats.append(m)
    if not mats:
        raise NotTracePreserving("a channel needs at least one Kraus operator")
    ch = KrausChannel(in_dim=in_dim, out_dim=out_dim, kraus=tuple(mats))
    defect = ch.tp_defect()
    if defect > TP_EPS:
        raise NotTracePreserving(f"sum_k A_k* A_k deviates from identity by {defect:.3e}")
    return ch


def apply_dual(ch: KrausChannel, b) -> np.ndarray:
    """Heisenberg action sum_k A_k* B A_k on an observable of the output space."""
    m = np.asarray(b, dtype=np.complex128)
    if m.shape != (ch.out_dim, ch.out_dim):
        raise DimensionMismatch(f"observable has shape {m.shape}, expected ({ch.out_dim}, {ch.out_dim})")
    out = np.zeros((ch.in_dim, ch.in_dim), dtype=np.complex128)
    for a in ch.kraus:
        out += a.conj().T @ m @ a
    return out


def preprocess_from_pvm(p: Povm, pprime: Povm, tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    """Measure-and-prepare channel pulling a projective P back to any dominated P'.

    Both measurements are read through their dilations.  For each outcome
    with E'_i nonzero, the rows <d_k| of its block give E'_i = sum_k
    |d_k><d_k|, and phi_i, the conjugate of the first row of the PVM's block,
    is a unit vector in the range of the projection Pi_i; the Kraus family
    is K_{i,k} = |phi_i><d_k|.  Then Phi*(Pi_i) = E'_i exactly.
    """
    if not is_pvm(p):
        raise NotPvm("source measurement is not projective")
    if not support_dominates(p, pprime, tol):
        raise NotDominated("target has an outcome outside the support of the source")
    source, target = build_dilation(p, tol), build_dilation(pprime, tol)
    ops = []
    for lab in p.labels:
        rows = target.block(lab)
        if rows.shape[0] == 0:
            continue
        phi = source.block(lab)[0].conj()
        for row in rows:
            ops.append(np.outer(phi, row))
    return kraus_channel(pprime.dim, p.dim, ops)


# ---------------------------------------------------------------------------
# Choi matrices and feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix on C^out tensor C^in (PSD, partial trace over out = identity)."""

    in_dim: int
    out_dim: int
    matrix: np.ndarray

    def tp_defect(self) -> float:
        return opnorm(choi_dual_apply(self, np.eye(self.out_dim)) - np.eye(self.in_dim))


def choi_from_kraus(ch: KrausChannel) -> ChoiMatrix:
    n = ch.out_dim * ch.in_dim
    c = np.zeros((n, n), dtype=np.complex128)
    for a in ch.kraus:
        v = a.reshape(-1)
        c += np.outer(v, v.conj())
    return ChoiMatrix(in_dim=ch.in_dim, out_dim=ch.out_dim, matrix=c)


def _choi_duals(stack: np.ndarray, c: np.ndarray, d: int, dp: int) -> np.ndarray:
    """Phi*(B_k) = (tr x id)[(B_k tensor 1) C] for each B_k of a (k, d, d) stack.

    ``c`` is the Choi matrix on C^d tensor C^dp (d the output dimension).
    """
    return np.einsum("kmM,MNmn->knN", stack, c.reshape(d, dp, d, dp))


def choi_dual_apply(choi: ChoiMatrix, b) -> np.ndarray:
    """Dual action read off the Choi matrix: Phi*(B) = (tr x id)[(B tensor 1) C]."""
    m = np.asarray(b, dtype=np.complex128)
    d = choi.out_dim
    if m.shape != (d, d):
        raise DimensionMismatch(f"observable has shape {m.shape}, expected ({d}, {d})")
    return _choi_duals(m[None], choi.matrix, d, choi.in_dim)[0]


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """One-sided verdict: ``feasible`` certifies, ``not feasible`` only means
    no certificate was found within the iteration budget."""

    feasible: bool
    choi: ChoiMatrix | None
    residual: float
    iterations: int
    residual_history: tuple[float, ...]


def connection_feasible(p: Povm, pprime: Povm, max_iter: int = 10000) -> FeasibilityResult:
    """Search for a Choi matrix whose dual maps each E_i to E'_i.

    Dykstra alternating projections between the PSD cone and the affine set
    {C : (tr x id)[(E_i tensor 1) C] = E'_i for all i}.  Trace preservation
    is implied by the constraints (the effects sum to the identity on both
    sides) and is not imposed separately.

    The affine projection is exact: with the adjoint of the constraint map
    being Y_i |-> sum_i E_i tensor Y_i, the normal equations reduce to the
    outcome Gram matrix tr(E_i E_j), which is tiny and pseudo-inverted once.

    The per-iteration gap is measured on the affine-projected iterate as
    max(constraint residual in spectral norm, PSD defect); convergence is
    declared at gap <= ``FEASIBILITY_EPS`` and the iterate returned as
    certificate.  Only the cone step carries a Dykstra correction: for an
    affine set the correction stays in the range of the adjoint, which the
    affine projection discards.
    """
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise InvalidBudget(f"iteration budget must be a non-negative integer, got {max_iter!r}")
    if p.labels != pprime.labels:
        raise LabelMismatch(f"outcome labels differ: {p.labels} vs {pprime.labels}")
    d, dp = p.dim, pprime.dim
    n = d * dp
    effects = np.stack(p.effects)  # (k, d, d)
    targets = np.stack(pprime.effects)  # (k, dp, dp)
    gram = np.real(np.einsum("iab,jba->ij", effects, effects))
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)

    def proj_affine(c: np.ndarray) -> np.ndarray:
        r = _choi_duals(effects, c, d, dp) - targets
        z = np.einsum("ij,jab->iab", gram_pinv, r)
        # adjoint of the constraint map: <(Phi_C*(E_i))_i, Y> = <C, sum_i E_i ox Y_i^T>
        corr = np.einsum("imM,iNn->mnMN", effects, z).reshape(n, n)
        out = c - corr
        return (out + out.conj().T) / 2.0

    def gap_of(c: np.ndarray) -> float:
        res = float(opnorm(_choi_duals(effects, c, d, dp) - targets).max())
        lam = float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
        return max(res, max(0.0, -lam))

    x = np.eye(n, dtype=np.complex128) / d
    pcorr = np.zeros((n, n), dtype=np.complex128)
    history: list[float] = []
    gap = gap_of(x)
    iterations = 0
    for it in range(1, max_iter + 1):
        # exactly Hermitian: every iterate is symmetrized, and so are sums of them
        y = project_psd(x + pcorr)
        pcorr = x + pcorr - y
        x = proj_affine(y)
        gap = gap_of(x)
        iterations = it
        if it % HISTORY_STRIDE == 0:
            history.append(gap)
        if gap <= FEASIBILITY_EPS:
            break
    if not history or iterations % HISTORY_STRIDE != 0:
        history.append(gap)
    feasible = gap <= FEASIBILITY_EPS
    choi = ChoiMatrix(in_dim=dp, out_dim=d, matrix=x) if feasible else None
    return FeasibilityResult(
        feasible=feasible,
        choi=choi,
        residual=gap,
        iterations=iterations,
        residual_history=tuple(history),
    )
