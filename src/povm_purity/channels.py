"""Pre-processing channels between measurements.

A channel Phi (Kraus operators A_k mapping states on C^in_dim to states on
C^out_dim) *connects* P to P' when its dual pulls every effect of P back to
the corresponding effect of P': Phi*(E_i) = E'_i.  This module provides

* the explicit measure-and-prepare construction when P is projective
  (:func:`preprocess_from_pvm`),
* Gram vectors v_n^s characterizing when a connecting channel exists
  (:func:`gram_from_kraus`) and their lift through a minimal dilation
  (:func:`lift_to_dilation`),
* a one-sided feasibility search over Choi matrices by Dykstra alternating
  projections between the PSD cone and the affine constraint set
  (:func:`connection_feasible`): "not found within budget" is *not* an
  infeasibility proof.

Choi convention: C = sum_k |A_k>><<A_k| with |A>> the row-major vec of the
(out_dim x in_dim) Kraus block, so C acts on C^out tensor C^in and the dual
action is Phi*(B) = (tr x id)[(B tensor 1) C].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import NaimarkDilation, build_dilation
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
    "GramVectors",
    "ChoiMatrix",
    "FeasibilityResult",
    "kraus_channel",
    "apply_dual",
    "preprocess_from_pvm",
    "gram_from_kraus",
    "choi_from_kraus",
    "choi_dual_apply",
    "connection_feasible",
    "dilated_dual_apply",
    "lift_to_dilation",
]

TP_EPS = 1e-10
GRAM_EPS = 1e-9
FEASIBILITY_EPS = 1e-7
HISTORY_STRIDE = 100


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map in Kraus form.

    ``kraus[k]`` has shape (out_dim, in_dim); trace preservation means
    sum_k A_k* A_k = identity on the input space.
    """

    in_dim: int
    out_dim: int
    kraus: tuple[np.ndarray, ...]

    def tp_defect(self) -> float:
        acc = np.zeros((self.in_dim, self.in_dim), dtype=np.complex128)
        for a in self.kraus:
            acc += a.conj().T @ a
        return opnorm(acc - np.eye(self.in_dim))


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
    if not is_pvm(p, tol):
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
# Gram vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramVectors:
    """Vectors v_n^s in an auxiliary space, indexed by input basis n and output basis s.

    ``vectors[n, s, :]`` holds v_n^s; for a trace-preserving channel the
    contraction sum_s <v_n^s|v_m^s> is the identity (see
    :meth:`gram_defect`), while truncated constructions may fall short of it.
    """

    vectors: np.ndarray

    @property
    def n_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def s_count(self) -> int:
        return self.vectors.shape[1]

    @property
    def aux_dim(self) -> int:
        return self.vectors.shape[2]

    def gram(self) -> np.ndarray:
        """Matrix of sum_s <v_n^s|v_m^s>."""
        return np.einsum("nsa,msa->nm", self.vectors.conj(), self.vectors)

    def gram_defect(self) -> float:
        return opnorm(self.gram() - np.eye(self.n_count))

    def pair_overlaps(self) -> np.ndarray:
        """All overlaps <v_n^s|v_m^t>, shape (n, s, n, t)."""
        return np.einsum("nsa,mta->nsmt", self.vectors.conj(), self.vectors)


def gram_from_kraus(ch: KrausChannel, aux_dim: int | None = None) -> GramVectors:
    """Gram vectors of a channel: (v_n^s)_k = <e_s| A_k |e_n>.

    The auxiliary space has one axis per Kraus operator; ``aux_dim`` may pad
    it with zero components (it is ignored below the Kraus count).
    """
    n_kraus = len(ch.kraus)
    width = max(n_kraus, aux_dim or 0)
    v = np.zeros((ch.in_dim, ch.out_dim, width), dtype=np.complex128)
    for k, a in enumerate(ch.kraus):
        # a[s, n] = <e_s| A_k |e_n>
        v[:, :, k] = a.T
    return GramVectors(vectors=v)


# ---------------------------------------------------------------------------
# Choi matrices and feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix on C^out tensor C^in (PSD, partial trace over out = identity)."""

    in_dim: int
    out_dim: int
    matrix: np.ndarray

    def tp_defect(self) -> float:
        c4 = self.matrix.reshape(self.out_dim, self.in_dim, self.out_dim, self.in_dim)
        return opnorm(np.einsum("mnmN->nN", c4) - np.eye(self.in_dim))

    def min_eigenvalue(self) -> float:
        h = (self.matrix + self.matrix.conj().T) / 2.0
        return float(np.linalg.eigvalsh(h)[0])


def choi_from_kraus(ch: KrausChannel) -> ChoiMatrix:
    n = ch.out_dim * ch.in_dim
    c = np.zeros((n, n), dtype=np.complex128)
    for a in ch.kraus:
        v = a.reshape(-1)
        c += np.outer(v, v.conj())
    return ChoiMatrix(in_dim=ch.in_dim, out_dim=ch.out_dim, matrix=c)


def choi_dual_apply(choi: ChoiMatrix, b) -> np.ndarray:
    """Dual action read off the Choi matrix: Phi*(B) = (tr x id)[(B tensor 1) C]."""
    m = np.asarray(b, dtype=np.complex128)
    d, dp = choi.out_dim, choi.in_dim
    if m.shape != (d, d):
        raise DimensionMismatch(f"observable has shape {m.shape}, expected ({d}, {d})")
    c4 = choi.matrix.reshape(d, dp, d, dp)
    return np.einsum("mM,MNmn->nN", m, c4)


@dataclass(frozen=True)
class FeasibilityResult:
    """One-sided verdict: ``feasible`` certifies, ``not feasible`` only means
    no certificate was found within the iteration budget."""

    feasible: bool
    choi: ChoiMatrix | None
    residual: float
    iterations: int
    residual_history: tuple[float, ...]


def connection_feasible(
    p: Povm,
    pprime: Povm,
    max_iter: int = 10000,
    tol: Tolerance = DEFAULT_TOL,
    feas_eps: float = FEASIBILITY_EPS,
) -> FeasibilityResult:
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
    declared at gap <= ``feas_eps`` and the iterate returned as certificate.
    """
    if max_iter < 0:
        raise InvalidBudget(f"iteration budget must be non-negative, got {max_iter}")
    if p.labels != pprime.labels:
        raise LabelMismatch(f"outcome labels differ: {p.labels} vs {pprime.labels}")
    d, dp = p.dim, pprime.dim
    n = d * dp
    effects = np.stack(p.effects)  # (k, d, d)
    targets = np.stack(pprime.effects)  # (k, dp, dp)
    gram = np.real(np.einsum("iab,jba->ij", effects, effects))
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)

    def dual_all(c: np.ndarray) -> np.ndarray:
        c4 = c.reshape(d, dp, d, dp)
        return np.einsum("kmM,MNmn->knN", effects, c4)

    def proj_affine(c: np.ndarray) -> np.ndarray:
        r = dual_all(c) - targets
        z = np.einsum("ij,jab->iab", gram_pinv, r)
        # adjoint of the constraint map: <dual_all(C), Y> = <C, sum_i E_i ox Y_i^T>
        corr = np.einsum("imM,iNn->mnMN", effects, z).reshape(n, n)
        out = c - corr
        return (out + out.conj().T) / 2.0

    def gap_of(c: np.ndarray) -> float:
        res = max(opnorm(r) for r in (dual_all(c) - targets))
        lam = float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
        return max(res, max(0.0, -lam))

    x = np.eye(n, dtype=np.complex128) / d
    pcorr = np.zeros((n, n), dtype=np.complex128)
    qcorr = np.zeros((n, n), dtype=np.complex128)
    history: list[float] = []
    gap = gap_of(x)
    iterations = 0
    for it in range(1, max_iter + 1):
        y = project_psd(x + pcorr, tol)
        pcorr = x + pcorr - y
        x = proj_affine(y + qcorr)
        qcorr = y + qcorr - x
        gap = gap_of(x)
        iterations = it
        if it % HISTORY_STRIDE == 0:
            history.append(gap)
        if gap <= feas_eps:
            break
    if not history or iterations % HISTORY_STRIDE != 0:
        history.append(gap)
    feasible = gap <= feas_eps
    choi = ChoiMatrix(in_dim=dp, out_dim=d, matrix=x) if feasible else None
    return FeasibilityResult(
        feasible=feasible,
        choi=choi,
        residual=gap,
        iterations=iterations,
        residual_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Lifting the dual through a minimal dilation
# ---------------------------------------------------------------------------


def dilated_dual_apply(v: GramVectors, dilation: NaimarkDilation, bbar) -> np.ndarray:
    """Dual of the lifted channel on an observable of the dilation space.

    Phibar*(Bbar) = sum_{n,m,s,t} <v_n^s|v_m^t> (J* Bbar J)_{s,t} |e'_n><e'_m|.
    """
    b = np.asarray(bbar, dtype=np.complex128)
    t = dilation.total_dim
    if b.shape != (t, t):
        raise DimensionMismatch(f"observable has shape {b.shape}, expected ({t}, {t})")
    j = dilation.isometry
    core = j.conj().T @ b @ j  # (dim, dim), indexed (s, t)
    if v.s_count != dilation.dim:
        raise DimensionMismatch(
            f"Gram vectors cover {v.s_count} output basis states, dilation compresses {dilation.dim}"
        )
    return np.einsum("nsa,mta,st->nm", v.vectors.conj(), v.vectors, core)


def lift_to_dilation(
    ch: KrausChannel,
    dilation: NaimarkDilation,
    pprime: Povm,
    trials: int = 100,
    rng: np.random.Generator | None = None,
) -> float:
    """Check Phi*(B) = Phibar*(J B J*) and Phibar*(block projections) = E'.

    Returns the maximum deviation over ``trials`` random Hermitian B on the
    compressed space plus the per-outcome block-projection checks; a channel
    genuinely connecting the dilated measurement to P' stays at float noise.
    """
    if ch.out_dim != dilation.dim:
        raise DimensionMismatch(f"channel output dim {ch.out_dim} != dilation base dim {dilation.dim}")
    if ch.in_dim != pprime.dim:
        raise DimensionMismatch(f"channel input dim {ch.in_dim} != target dim {pprime.dim}")
    if tuple(dilation.block_index) != pprime.labels:
        raise LabelMismatch(
            f"dilation labels {tuple(dilation.block_index)} do not match target labels {pprime.labels}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    v = gram_from_kraus(ch)
    j = dilation.isometry
    d = dilation.dim
    dev = 0.0
    for _ in range(trials):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = (g + g.conj().T) / 2.0
        lifted = dilated_dual_apply(v, dilation, j @ b @ j.conj().T)
        dev = max(dev, opnorm(apply_dual(ch, b) - lifted))
    for lab, target in pprime:
        lo, hi = dilation.block_index[lab]
        proj = np.zeros((dilation.total_dim, dilation.total_dim), dtype=np.complex128)
        proj[lo:hi, lo:hi] = np.eye(hi - lo)
        dev = max(dev, opnorm(dilated_dual_apply(v, dilation, proj) - target))
    return dev
