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
which an explicit convex split E_i -> A_i*(1 +/- D_i)A_i is produced.  A map
with sum_i n_i^2 > d^2 is impure whatever its rank.  If a verified Cholesky
proof on one full-rank effect's d x d block shows it onto, that effect lends
a rank-one piece of its weight to another outcome, a kernel vector from one
d x d solve; any other map takes one thin SVD of the whole map.  An impure
verdict carries the dilation blocks A_i, and the split reads them there.  The
split and the witness cost grow with the outcomes the witness moves, two on
the lent-row route: the witness reads only the nonzero blocks of the kernel
vector, and an outcome whose witness block is zero keeps the input's effect
and its row of the input's spectrum in both halves.  The effects the witness
moves are decomposed for both halves in one batched solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import build_dilation
from .errors import IsPure, LabelMismatch
from .linalg import (
    DEFAULT_TOL,
    SUBNORMAL_MIN,
    UNIT_ROUNDOFF,
    EigenResult,
    Tolerance,
    _sorted_eig,
    certify_min_eigenvalue,
    gamma,
    opnorm,
)
from .povm import Povm, _validate

__all__ = [
    "BlockHermitian",
    "PerturbationMap",
    "PurityVerdict",
    "ConvexSplit",
    "build_perturbation_map",
    "purity_verdict",
    "convex_split",
]

# A smallest singular value within this factor of the rank threshold, on
# either side, makes the verdict numerically delicate.
MARGINAL_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
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


def _sup_norm(blocks) -> float:
    """Largest spectral norm over ``blocks``: one batched SVD per block shape.
    Blocks that are exactly zero, of norm exactly 0, take no SVD."""
    blocks = [b for b in blocks if b.any()]
    shapes = dict.fromkeys(b.shape for b in blocks)
    stacks = (np.stack([b for b in blocks if b.shape == s]) for s in shapes)
    return max((float(opnorm(stack).max()) for stack in stacks), default=0.0)


@dataclass(frozen=True, eq=False)
class PerturbationMap:
    """The complex matrix of D |-> sum_i A_i* D_i A_i on vectorized blocks.

    Column ``r * n_i + s`` of block i is vec(A_i* |r><s| A_i), the operator
    |a_ir><a_is| on the rows of A_i, and row ``p * dim + q`` is entry (p, q)
    of the image; so ``matrix @ concat(D_i.ravel())`` is the row-major
    vectorization of ``apply(D)``.  Domain dimension sum of n_i^2, codomain
    dimension d^2.  Zero effects contribute no blocks.  Only the blocks are
    stored: ``matrix`` builds the matrix on request.
    """

    dim: int
    labels: tuple[str, ...]
    blocks: tuple[np.ndarray, ...]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.blocks)

    @property
    def domain_dim(self) -> int:
        return sum(n * n for n in self.block_dims)

    @property
    def codomain_dim(self) -> int:
        return self.dim * self.dim

    @property
    def matrix(self) -> np.ndarray:
        """The whole d^2 x sum_i n_i^2 matrix, built anew on each access: each
        block is written once, by an einsum into a view of its column slice."""
        d = self.dim
        out = np.empty((d * d, self.domain_dim), dtype=np.complex128)
        lo = 0
        for a in self.blocks:
            n = a.shape[0]
            np.einsum("rp,sq->pqrs", a.conj(), a, out=out[:, lo : lo + n * n].reshape(d, d, n, n))
            lo += n * n
        return out

    def apply(self, d: BlockHermitian) -> np.ndarray:
        """Evaluate sum_i A_i* D_i A_i directly from the dilation blocks."""
        if d.labels != self.labels:
            raise LabelMismatch(f"witness labels {d.labels} do not match map labels {self.labels}")
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for a, b in zip(self.blocks, d.blocks):
            out += a.conj().T @ b @ a
        return out


def build_perturbation_map(p: Povm, tol: Tolerance = DEFAULT_TOL) -> PerturbationMap:
    """The perturbation map on the dilation blocks of ``p`` (its matrix unbuilt)."""
    dil = build_dilation(p, tol)
    labels = tuple(lab for lab, (lo, hi) in dil.block_index.items() if hi > lo)
    return PerturbationMap(dim=p.dim, labels=labels, blocks=tuple(dil.block(lab) for lab in labels))


@dataclass(frozen=True, eq=False)
class PurityVerdict:
    """Outcome of the kernel test.

    ``smallest_singular_value`` is taken over the full domain (zero when the
    domain outstrips the codomain); ``marginal`` flags values within a factor
    of ten of the rank threshold on either side.  ``witness`` is present iff
    the measurement is not pure: a sup-normalized Hermitian kernel direction.
    ``factors`` holds the dilation blocks A_i of the witness labels, in their
    order (empty when pure), for :func:`convex_split`.
    """

    pure: bool
    kernel_dim: int
    smallest_singular_value: float
    marginal: bool
    witness: BlockHermitian | None
    factors: tuple[np.ndarray, ...] = ()


def _witness(pmap: PerturbationMap, x: np.ndarray) -> BlockHermitian:
    """Hermitian witness from a complex kernel vector ``x`` of the map.

    The map commutes with the adjoint, so both the Hermitian part (X + X*)/2
    and the anti-Hermitian part, as the Hermitian (X - X*)/2i, are kernel
    directions; the one with the larger sup-norm is kept (the Hermitian one
    on a tie).  Its sign makes the first significant real scalar positive,
    scanning blocks in order, each row-major with real before imaginary parts.
    Only the blocks of ``x`` with a nonzero entry are read: a zero block adds
    nothing to the sup-norm or the scan, and is zero in the witness.
    """
    dims = pmap.block_dims
    starts = np.cumsum([0, *(n * n for n in dims)])
    live = np.flatnonzero(np.logical_or.reduceat(x != 0.0, starts[:-1])).tolist()
    herm, anti = [], []
    for i in live:
        n = dims[i]
        b = x[starts[i] : starts[i + 1]].reshape(n, n)
        herm.append((b + b.conj().T) / 2.0)
        anti.append(-0.5j * (b - b.conj().T))
    sups = [_sup_norm(part) for part in (herm, anti)]
    blocks = herm if sups[0] >= sups[1] else anti
    sup = max(sups)
    flat = np.concatenate([np.stack([b.real, b.imag], axis=-1).ravel() for b in blocks])
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-8 * np.max(np.abs(flat)))[0]]
    scale = sup if lead > 0.0 else -sup
    # Adding 0.0 turns the -0.0 a negative scale leaves into 0.0 for reports,
    # so a zero block comes out +0.0 in every part, whatever the scale's sign.
    out = [np.zeros((n, n), dtype=np.complex128) for n in dims]
    for i, b in zip(live, blocks):
        out[i] = b / scale + 0.0
    return BlockHermitian(labels=pmap.labels, blocks=tuple(out))


def _certified_block(pmap: PerturbationMap, rank_rel: float) -> int | None:
    """Index of the first d x d block with lambda_min(F_i) > sqrt(tau) (exact),
    F_i = A_i* A_i, tau = (MARGINAL_FACTOR rank_rel)^2 tr G; else None.

    G = m m* = sum_i F_i (x) conj(F_i) is a sum of positive semidefinite
    terms, with lambda_min(F_i (x) conj(F_i)) = lambda_min(F_i)^2, so by
    Weyl's inequality lambda_min(G) > tau and, as tr G = sum_i ||A_i||_F^4 >=
    s_max^2, the exact map is onto with every singular value above
    MARGINAL_FACTOR * rank_rel * s_max.  fl(F_i) is one complex inner product
    of length d per entry, off by at most gamma_{3d+2} times the sum over
    moduli plus 3d 2^-1074 (Higham, 2nd ed., Sec. 3.5-3.6, any order), so
    ||fl(F_i) - F_i||_2 <= form_i = gamma_{3d+2} ||A_i||_F^2 + 3d^2 2^-1074,
    also for the lower triangle read.  :func:`certify_min_eigenvalue` proves
    lambda_min(fl(F_i)) above sqrt(tau) plus twice form_i, both rounded up.
    """
    d = pmap.dim
    frob = np.array([np.vdot(a, a).real for a in pmap.blocks])
    tau = (MARGINAL_FACTOR * rank_rel) ** 2 * float(np.sum(frob**2))
    root = float(np.sqrt(tau)) * (1.0 + 4.0 * UNIT_ROUNDOFF)
    for i, a in enumerate(pmap.blocks):
        if a.shape[0] == d:
            form = gamma(3 * d + 2) * float(frob[i]) + 3 * d * d * SUBNORMAL_MIN
            if certify_min_eigenvalue(a.conj().T @ a, (root + 2.0 * form) * (1.0 + 2.0 * UNIT_ROUNDOFF)):
                return i
    return None


def _lent_row(pmap: PerturbationMap, i: int) -> np.ndarray:
    """Kernel vector in which the certified block i lends the leading row a
    of another block j, the largest leading row (rows descend in norm).

    With y A_i = a, X_i = -conj(y) y^T and X_j = |0><0| map to -a* a and a* a.
    The split halves differ by 2 ||a||^2 / max(1, ||y||^2) >= 2 min(||a||^2,
    lambda_min(F_i)), as ||y||^2 <= ||a||^2 / lambda_min(F_i), and
    lambda_min(F_i) > sqrt(tau) is certified.
    """
    lead = [-1.0 if j == i else np.vdot(a[0], a[0]).real for j, a in enumerate(pmap.blocks)]
    j = int(np.argmax(lead))
    a = pmap.blocks[j][0]
    y = np.linalg.solve(pmap.blocks[i].T, a)
    starts = np.cumsum([0, *(n * n for n in pmap.block_dims)])
    x = np.zeros(pmap.domain_dim, dtype=np.complex128)
    x[starts[i] : starts[i + 1]] = -np.outer(y.conj(), y).ravel()
    x[starts[j]] = 1.0
    return x


def purity_verdict(p: Povm, tol: Tolerance = DEFAULT_TOL) -> PurityVerdict:
    """Decide purity of a validated POVM via the perturbation-map kernel.

    A wide map with a certified block takes the :func:`_lent_row` witness.
    Any other map takes one thin SVD m = U S Vh; a wide one's witness is
    x = e_j - Vh* Vh e_j over all d^2 rows of Vh, so orthogonal to the whole
    row space, j the column of least leverage (largest ||x||).
    """
    pmap = build_perturbation_map(p, tol)
    dom, cod = pmap.domain_dim, pmap.codomain_dim
    i = _certified_block(pmap, tol.rank_rel) if dom > cod else None
    if i is not None:
        kernel_dim, smallest, marginal, x = dom - cod, 0.0, False, _lent_row(pmap, i)
    else:
        _, s, vh = np.linalg.svd(pmap.matrix, full_matrices=False)
        # the dilation spans at least d dimensions, so s holds a positive s[0]
        thr = tol.rank_rel * float(s[0])
        kernel_dim = dom - int(np.count_nonzero(s > thr))
        if dom <= cod:
            smallest = float(s[-1])
            marginal = bool(thr / MARGINAL_FACTOR <= smallest <= thr * MARGINAL_FACTOR)
            x = vh[-1].conj()
        else:
            j = int(np.argmin(np.einsum("ij,ij->j", vh.conj(), vh).real))
            smallest, marginal, x = 0.0, False, -(vh.conj().T @ vh[:, j])
            x[j] += 1.0
    pure = kernel_dim == 0
    return PurityVerdict(
        pure=pure,
        kernel_dim=kernel_dim,
        smallest_singular_value=smallest,
        marginal=marginal,
        witness=None if pure else _witness(pmap, x),
        factors=() if pure else pmap.blocks,
    )


@dataclass(frozen=True, eq=False)
class ConvexSplit:
    """Two POVMs averaging back to the original: proof of non-extremality."""

    plus: Povm
    minus: Povm


def convex_split(p: Povm, verdict: PurityVerdict, tol: Tolerance = DEFAULT_TOL) -> ConvexSplit:
    """Split an impure POVM along its witness, E_i -> A_i*(1 +/- D_i)A_i.

    The blocks A_i come from ``verdict.factors``; a verdict whose factors do
    not fit its witness raises ``ValueError``.  Zero effects stay zero on both
    sides.  An outcome whose witness block is exactly zero keeps the input's
    own effect in both halves, and its row of ``p.spectrum``: only the
    effects the witness changes are decomposed, both halves' in one batched
    solve (two outcomes on the lent-row route, whatever the number of
    outcomes).  Both halves pass :func:`validate`'s checks at ``tol``, reused
    rows included.  Their average is the input exactly on untouched outcomes;
    elsewhere the cross terms cancel, up to rounding.
    """
    if verdict.pure:
        raise IsPure("measurement is extremal; no convex split exists")
    w = verdict.witness
    if w is None:
        raise ValueError("impure verdict lacks a witness")
    if [a.shape for a in verdict.factors] != [(b.shape[0], p.dim) for b in w.blocks]:
        raise ValueError("verdict factors do not match the witness blocks")
    factors = dict(zip(w.labels, zip(verdict.factors, w.blocks)))
    moved = [i for i, lab in enumerate(p.labels) if lab not in factors or factors[lab][1].any()]
    m = len(moved)

    def effect(lab: str, sign: float) -> np.ndarray:
        if lab not in factors:
            return np.zeros((p.dim, p.dim))
        a, d = factors[lab]
        return a.conj().T @ (np.eye(a.shape[0]) + sign * d) @ a

    # Both halves' moved effects, the plus half's first, in one solve: batched
    # eigh solves each matrix on its own, so each row is the row a solve of its
    # half's stack would give, as is a kept effect's row of p.spectrum.
    fresh = np.array([effect(p.labels[i], s) for s in (1.0, -1.0) for i in moved], dtype=np.complex128)
    fresh = fresh.reshape(2 * m, p.dim, p.dim)
    eig = _sorted_eig(fresh)

    def half(rows: slice) -> Povm:
        effects = list(p.effects)
        for i, e in zip(moved, fresh[rows]):
            effects[i] = e
        values, vectors = p.spectrum.eigenvalues.copy(), p.spectrum.eigenvectors.copy()
        values[moved], vectors[moved] = eig.eigenvalues[rows], eig.eigenvectors[rows]
        return _validate(p.dim, zip(p.labels, effects), tol, EigenResult(eigenvalues=values, eigenvectors=vectors))

    return ConvexSplit(plus=half(slice(0, m)), minus=half(slice(m, 2 * m)))
