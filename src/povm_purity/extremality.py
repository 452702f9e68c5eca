"""Purity (extremality) analysis for finite-outcome POVMs.

A measurement is pure when it is extremal in the convex set of POVMs with its
outcome labels.  Working through the minimal dilation, purity is equivalent
to triviality of the kernel of the block perturbation map

    D = (D_1, ..., D_k)  |->  sum_i  A_i* D_i A_i,

where E_i = A_i* A_i are the dilation blocks and each D_i is Hermitian of size
rank(E_i).  The map preserves Hermiticity, so its Hermitian kernel is the real
form of its complex kernel: purity holds iff the operators |a_ir><a_is| built
from the rows of the A_i are linearly independent over C (D'Ariano, Lo Presti,
Perinotti, J. Phys. A 38, 5979 (2005)).  The map is assembled as a complex
d^2 x sum_i n_i^2 matrix on vectorized blocks and its kernel read off its
singular values; the Hermitian part of a kernel direction is a witness from
which an explicit convex split E_i -> A_i*(1 +/- D_i)A_i is produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import build_dilation
from .errors import IsPure, LabelMismatch
from .linalg import DEFAULT_TOL, Tolerance, numeric_rank, opnorm
from .povm import Povm, validate

__all__ = [
    "BlockHermitian",
    "PerturbationMap",
    "PurityVerdict",
    "ConvexSplit",
    "ScreeningReport",
    "build_perturbation_map",
    "purity_verdict",
    "convex_split",
    "screen_necessary",
]

# A smallest singular value within this factor of the rank threshold, on
# either side, makes the verdict numerically delicate.
MARGINAL_FACTOR = 10.0


@dataclass(frozen=True)
class BlockHermitian:
    """A Hermitian block per nonzero effect, keyed by outcome label."""

    labels: tuple[str, ...]
    blocks: tuple[np.ndarray, ...]

    def items(self):
        return zip(self.labels, self.blocks)

    def block(self, label: str) -> np.ndarray:
        try:
            return self.blocks[self.labels.index(label)]
        except ValueError:
            raise LabelMismatch(f"no block for label {label!r}") from None

    def sup_norm(self) -> float:
        return max((opnorm(b) for b in self.blocks), default=0.0)


@dataclass(frozen=True)
class PerturbationMap:
    """The complex matrix of D |-> sum_i A_i* D_i A_i on vectorized blocks.

    Column ``r * n_i + s`` of block i is vec(A_i* |r><s| A_i), the operator
    |a_ir><a_is| on the rows of A_i, and row ``p * dim + q`` is entry (p, q)
    of the image; so ``matrix @ concat(D_i.ravel())`` is the row-major
    vectorization of ``apply(D)``.  Domain dimension sum of n_i^2, codomain
    dimension d^2.  Zero effects contribute no blocks.
    """

    dim: int
    labels: tuple[str, ...]
    blocks: tuple[np.ndarray, ...]
    matrix: np.ndarray

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.blocks)

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.dim * self.dim

    def apply(self, d: BlockHermitian) -> np.ndarray:
        """Evaluate sum_i A_i* D_i A_i directly from the dilation blocks."""
        if d.labels != self.labels:
            raise LabelMismatch(f"witness labels {d.labels} do not match map labels {self.labels}")
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for a, b in zip(self.blocks, d.blocks):
            out += a.conj().T @ b @ a
        return out


def build_perturbation_map(p: Povm, tol: Tolerance = DEFAULT_TOL) -> PerturbationMap:
    """Assemble the perturbation matrix from the dilation blocks of ``p``."""
    dil = build_dilation(p, tol)
    d = p.dim
    labels = tuple(lab for lab, (lo, hi) in dil.block_index.items() if hi > lo)
    blocks = tuple(dil.block(lab) for lab in labels)
    cols = [
        np.einsum("rp,sq->pqrs", a.conj(), a).reshape(d * d, a.shape[0] ** 2) for a in blocks
    ]
    matrix = np.hstack(cols) if cols else np.zeros((d * d, 0), dtype=np.complex128)
    return PerturbationMap(dim=d, labels=labels, blocks=blocks, matrix=matrix)


@dataclass(frozen=True)
class PurityVerdict:
    """Outcome of the kernel test.

    ``smallest_singular_value`` is taken over the full domain (zero when the
    domain outstrips the codomain); ``marginal`` flags values within a factor
    of ten of the rank threshold on either side.  ``witness`` is present iff
    the measurement is not pure: a sup-normalized Hermitian kernel direction.
    """

    pure: bool
    kernel_dim: int
    smallest_singular_value: float
    marginal: bool
    witness: BlockHermitian | None


def _witness(pmap: PerturbationMap, x: np.ndarray) -> BlockHermitian:
    """Hermitian witness from a complex kernel vector ``x`` of the map.

    The map commutes with the adjoint, so both the Hermitian part (X + X*)/2
    and the anti-Hermitian part, as the Hermitian (X - X*)/2i, are kernel
    directions; the one with the larger sup-norm is kept (the Hermitian one
    on a tie).  Its sign makes the first significant real scalar positive,
    scanning blocks in order, each row-major with real before imaginary parts.
    """
    herm, anti = [], []
    pos = 0
    for n in pmap.block_dims:
        b = x[pos : pos + n * n].reshape(n, n)
        pos += n * n
        herm.append((b + b.conj().T) / 2.0)
        anti.append(-0.5j * (b - b.conj().T))
    sups = [max(opnorm(b) for b in part) for part in (herm, anti)]
    blocks = herm if sups[0] >= sups[1] else anti
    sup = max(sups)
    flat = np.concatenate([np.stack([b.real, b.imag], axis=-1).ravel() for b in blocks])
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-8 * np.max(np.abs(flat)))[0]]
    scale = sup if lead > 0.0 else -sup
    # Adding 0.0 turns the -0.0 a negative scale leaves into 0.0 for reports.
    return BlockHermitian(labels=pmap.labels, blocks=tuple(b / scale + 0.0 for b in blocks))


def purity_verdict(p: Povm, tol: Tolerance = DEFAULT_TOL) -> PurityVerdict:
    """Decide purity of a validated POVM via the perturbation-map kernel."""
    pmap = build_perturbation_map(p, tol)
    m = pmap.matrix
    dom, cod = pmap.domain_dim, pmap.codomain_dim
    if dom > cod:
        # More columns than rows: impure whatever the rank, and only the
        # singular values are needed, which the square triangular factor of
        # m* shares with m.  Any cod + 1 columns are dependent, so the leading
        # ones carry a kernel vector: the last column of the complete unitary
        # factor of their adjoint is orthogonal to every row of m.
        s = np.linalg.svd(np.linalg.qr(m.conj().T, mode="r"), compute_uv=False)
        q, _ = np.linalg.qr(m[:, : cod + 1].conj().T, mode="complete")
        x = np.zeros(dom, dtype=np.complex128)
        x[: cod + 1] = q[:, -1]
    else:
        _, s, vh = np.linalg.svd(m, full_matrices=False)
        x = vh[-1].conj() if dom else None
    smax = float(s[0]) if s.size else 0.0
    thr = tol.rank_rel * smax
    rank = int(np.count_nonzero(s > thr)) if smax > 0.0 else 0
    kernel_dim = dom - rank
    # The SVD returns min(dom, cod) values; past the codomain dimension the
    # smallest singular value over the whole domain is an exact zero.
    smallest = float(s[dom - 1]) if 0 < dom <= cod else 0.0
    pure = kernel_dim == 0
    marginal = bool(smax > 0.0 and thr / MARGINAL_FACTOR <= smallest <= thr * MARGINAL_FACTOR)
    return PurityVerdict(
        pure=pure,
        kernel_dim=kernel_dim,
        smallest_singular_value=smallest,
        marginal=marginal,
        witness=None if pure else _witness(pmap, x),
    )


@dataclass(frozen=True)
class ConvexSplit:
    """Two POVMs averaging back to the original: proof of non-extremality."""

    plus: Povm
    minus: Povm


def convex_split(p: Povm, verdict: PurityVerdict, tol: Tolerance = DEFAULT_TOL) -> ConvexSplit:
    """Split an impure POVM along its witness, E_i -> A_i*(1 +/- D_i)A_i.

    Zero effects stay zero on both sides.  Both halves are validated, and
    their average reproduces the input exactly (the cross terms cancel).
    """
    if verdict.pure:
        raise IsPure("measurement is extremal; no convex split exists")
    if verdict.witness is None:
        raise ValueError("impure verdict lacks a witness")
    w = verdict.witness
    dil = build_dilation(p, tol)
    plus_outcomes = []
    minus_outcomes = []
    for lab in p.labels:
        if lab not in w.labels:
            zero = np.zeros((p.dim, p.dim))
            plus_outcomes.append((lab, zero))
            minus_outcomes.append((lab, zero))
            continue
        a = dil.block(lab)
        d = w.block(lab)
        eye = np.eye(a.shape[0])
        plus_outcomes.append((lab, a.conj().T @ (eye + d) @ a))
        minus_outcomes.append((lab, a.conj().T @ (eye - d) @ a))
    return ConvexSplit(
        plus=validate(p.dim, plus_outcomes, tol),
        minus=validate(p.dim, minus_outcomes, tol),
    )


@dataclass(frozen=True)
class ScreeningReport:
    """Linear-independence screen over the nonzero effects."""

    effects_independent: bool
    max_dependent_set: tuple[str, ...] | None


def screen_necessary(p: Povm, tol: Tolerance = DEFAULT_TOL) -> ScreeningReport:
    """Necessary condition for purity: nonzero effects linearly independent.

    When they are not, ``max_dependent_set`` lists the labels whose effects
    are linear combinations of their predecessors (scanning in outcome
    order), i.e. the outcomes one could drop without shrinking the span.
    """
    labels = [lab for lab, eff in p if opnorm(eff) > tol.abs_eps]
    vecs = [p.effect(lab).reshape(-1) for lab in labels]
    if not vecs:
        return ScreeningReport(effects_independent=True, max_dependent_set=None)
    stack = np.stack(vecs, axis=1)
    total = numeric_rank(stack, tol)
    if total == len(vecs):
        return ScreeningReport(effects_independent=True, max_dependent_set=None)
    dependent = []
    rank = 0
    for k, lab in enumerate(labels):
        r = numeric_rank(stack[:, : k + 1], tol)
        if r == rank:
            dependent.append(lab)
        rank = r
    return ScreeningReport(effects_independent=False, max_dependent_set=tuple(dependent))
