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
the lent-row route: the lent row hands the witness its two blocks, no vector
over the whole domain, and both parts of the blocks of one size take one
batched SVD for their norms.  Each half of the split is one copy of the
input's effect stack and spectrum with the moved rows written in: an outcome
whose witness block is zero keeps the input's effect and its row of the
input's spectrum.  The effects the witness moves are decomposed for both
halves in one batched solve, and both halves pass validate's checks in one
call of its stack-level core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .povm import Povm, _checked

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


def _runs(sizes):
    """(start, stop) of each run of equal consecutive entries of ``sizes``."""
    start = 0
    for stop in range(1, len(sizes) + 1):
        if stop == len(sizes) or sizes[stop] != sizes[start]:
            yield start, stop
            start = stop


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
    block_dims: tuple[int, ...] = field(init=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the sizes n_i and the column offsets of the blocks, domain_dim last
        dims = tuple(a.shape[0] for a in self.blocks)
        offsets = [0]
        for n in dims:
            offsets.append(offsets[-1] + n * n)
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "offsets", tuple(offsets))

    @property
    def domain_dim(self) -> int:
        return self.offsets[-1]

    @property
    def codomain_dim(self) -> int:
        return self.dim * self.dim

    @property
    def matrix(self) -> np.ndarray:
        """The whole d^2 x sum_i n_i^2 matrix, built anew on each access: each
        run of consecutive blocks of one size is written once, by an einsum
        into a view of its column slice."""
        d = self.dim
        out = np.empty((d * d, self.domain_dim), dtype=np.complex128)
        for start, stop in _runs(self.block_dims):
            n, a = self.block_dims[start], np.array(self.blocks[start:stop])
            view = out[:, self.offsets[start] : self.offsets[stop]].reshape(d, d, stop - start, n, n)
            np.einsum("krp,ksq->pqkrs", a.conj(), a, out=view)
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
    kept = [(lab, dil.isometry[lo:hi]) for lab, (lo, hi) in dil.block_index.items() if hi > lo]
    return PerturbationMap(dim=p.dim, labels=tuple(lab for lab, _ in kept), blocks=tuple(a for _, a in kept))


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


def _witness(pmap: PerturbationMap, live: list[tuple[int, np.ndarray]]) -> BlockHermitian:
    """Hermitian witness from the blocks of a complex kernel vector X of the map.

    ``live`` holds (i, X_i) for the blocks of X that may be nonzero, in block
    order; every other block of X is zero.  The map commutes with the
    adjoint, so both the Hermitian part (X + X*)/2 and the anti-Hermitian
    part, as the Hermitian (X - X*)/2i, are kernel directions; the one with
    the larger sup-norm is kept (the Hermitian one on a tie).  Its sign makes
    the first significant real scalar positive, scanning blocks in order, each
    row-major with real before imaginary parts.  A zero block adds nothing to
    the sup-norm or the scan, and is zero in the witness, listed or not.  Both
    parts of the live blocks of one size n_i take one batched SVD (none for
    a part that is exactly zero).
    """
    dims = pmap.block_dims
    live_dims = [dims[i] for i, _ in live]
    by_size: dict[int, list] = {}  # the live blocks of each size, in block order
    for (i, x), n in zip(live, live_dims):
        by_size.setdefault(n, []).append((i, x))
    parts, sups = {}, [0.0, 0.0]
    for n, blocks in by_size.items():
        b = np.array([x for _, x in blocks])
        bh = b.conj().swapaxes(-1, -2)
        both = np.array(((b + bh) / 2.0, -0.5j * (b - bh)))
        nonzero = both.any(axis=(-2, -1))
        norms = np.zeros(nonzero.shape)
        norms[nonzero] = opnorm(both[nonzero])
        sups = [max(s, t) for s, t in zip(sups, norms.max(axis=1).tolist())]
        parts[n] = both
    kept = 0 if sups[0] >= sups[1] else 1
    # the kept part in block order: a run of live blocks of one size is a slice of that size's stack
    pieces, taken = [], dict.fromkeys(parts, 0)
    for start, stop in _runs(live_dims):
        n, q = live_dims[start], taken[live_dims[start]]
        taken[n] = q + stop - start
        pieces.append(parts[n][kept, q : taken[n]].view(np.float64).ravel())
    flat = np.concatenate(pieces)
    magnitude = np.abs(flat)
    lead = flat[(magnitude > 1e-8 * magnitude.max()).argmax()]
    scale = sups[kept] if lead > 0.0 else -sups[kept]
    # Adding 0.0 turns the -0.0 a negative scale leaves into 0.0 for reports,
    # so a zero block comes out +0.0 in every part, whatever the scale's sign.
    out: list = [None] * len(dims)
    for n in dict.fromkeys(dims):
        index = [i for i, m in enumerate(dims) if m == n]
        stack = np.zeros((len(index), n, n), dtype=np.complex128)
        if n in parts:
            stack[[index.index(i) for i, _ in by_size[n]]] = parts[n][kept] / scale + 0.0
        for i, block in zip(index, stack):
            out[i] = block
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
    tau = (MARGINAL_FACTOR * rank_rel) ** 2 * float((frob**2).sum())
    root = float(np.sqrt(tau)) * (1.0 + 4.0 * UNIT_ROUNDOFF)
    for i, a in enumerate(pmap.blocks):
        if a.shape[0] == d:
            form = gamma(3 * d + 2) * float(frob[i]) + 3 * d * d * SUBNORMAL_MIN
            if certify_min_eigenvalue(a.conj().T @ a, (root + 2.0 * form) * (1.0 + 2.0 * UNIT_ROUNDOFF)):
                return i
    return None


def _lent_row(pmap: PerturbationMap, i: int) -> list[tuple[int, np.ndarray]]:
    """The two nonzero blocks, as (index, block) in block order, of a kernel
    vector in which the certified block i lends the leading row a of another
    block j, the largest leading row (rows descend in norm).  They go to
    :func:`_witness` as they are: no vector over the whole domain is written.

    With y A_i = a, X_i = -conj(y) y^T and X_j = |0><0| map to -a* a and a* a.
    The split halves differ by 2 ||a||^2 / max(1, ||y||^2) >= 2 min(||a||^2,
    lambda_min(F_i)), as ||y||^2 <= ||a||^2 / lambda_min(F_i), and
    lambda_min(F_i) > sqrt(tau) is certified.
    """
    lead = [-1.0 if j == i else np.vdot(a[0], a[0]).real for j, a in enumerate(pmap.blocks)]
    j = max(range(len(lead)), key=lead.__getitem__)  # the first largest, as argmax
    a = pmap.blocks[j][0]
    y = np.linalg.solve(pmap.blocks[i].T, a)
    xj = np.zeros((pmap.block_dims[j],) * 2, dtype=np.complex128)
    xj[0, 0] = 1.0
    xi = -(y.conj()[:, None] * y)  # -conj(y) y^T, an outer product
    return [(i, xi), (j, xj)] if i < j else [(j, xj), (i, xi)]


def purity_verdict(p: Povm, tol: Tolerance = DEFAULT_TOL) -> PurityVerdict:
    """Decide purity of a validated POVM via the perturbation-map kernel.

    A wide map with a certified block takes the :func:`_lent_row` witness.
    Any other map takes one thin SVD m = U S Vh; a wide one's witness is
    x = e_j - Vh* Vh e_j over all d^2 rows of Vh, so orthogonal to the whole
    row space, j the column of least leverage (largest ||x||).  The witness
    reads the blocks of x as views.
    """
    pmap = build_perturbation_map(p, tol)
    dom, cod = pmap.domain_dim, pmap.codomain_dim
    i = _certified_block(pmap, tol.rank_rel) if dom > cod else None
    if i is not None:
        kernel_dim, smallest, marginal, live = dom - cod, 0.0, False, _lent_row(pmap, i)
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
        live = [(i, x[lo : lo + n * n].reshape(n, n)) for i, (n, lo) in enumerate(zip(pmap.block_dims, pmap.offsets))]
    pure = kernel_dim == 0
    return PurityVerdict(
        pure=pure,
        kernel_dim=kernel_dim,
        smallest_singular_value=smallest,
        marginal=marginal,
        witness=None if pure else _witness(pmap, live),
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
    sides.  Each half is one copy of the input's effect stack and spectrum
    with the moved rows written in.  An outcome whose witness block is
    exactly zero keeps the input's own effect in both halves, and its row of
    ``p.spectrum``: only the effects the witness changes are decomposed, both
    halves' in one batched solve (two outcomes on the lent-row route,
    whatever the number of outcomes).  Both halves pass :func:`validate`'s
    checks at ``tol``, reused rows included, in one call of its stack-level
    core, which takes the plus half first.  Their average is the input
    exactly on untouched outcomes; elsewhere the cross terms cancel, up to
    rounding.
    """
    if verdict.pure:
        raise IsPure("measurement is extremal; no convex split exists")
    w = verdict.witness
    if w is None:
        raise ValueError("impure verdict lacks a witness")
    if [a.shape for a in verdict.factors] != [(b.shape[0], p.dim) for b in w.blocks]:
        raise ValueError("verdict factors do not match the witness blocks")
    factors = dict(zip(w.labels, zip(verdict.factors, w.blocks)))
    d, k = p.dim, len(p)
    effects = np.empty((2, k, d, d), dtype=np.complex128)
    effects[:] = p.effects
    moved, by_size = [], {}
    for i, lab in enumerate(p.labels):
        pair = factors.get(lab)
        if pair is None:  # a zero effect has no block, and is moved to zero
            moved.append(i)
            effects[:, i] = 0.0
        elif np.count_nonzero(pair[1]):
            moved.append(i)
            by_size.setdefault(len(pair[1]), []).append((i, pair))
    sign = np.array([1.0, -1.0])[:, None, None, None]
    for n, members in by_size.items():  # both halves of the moved effects of one block size
        a = np.array([f for _, (f, _) in members])
        mid = np.eye(n) + sign * np.array([b for _, (_, b) in members])
        effects[:, [i for i, _ in members]] = a.conj().swapaxes(-1, -2) @ mid @ a
    # Both halves' moved effects, the plus half's first, in one solve: batched
    # eigh solves each matrix on its own, so each row is the row a solve of its
    # half's stack would give, as is a kept effect's row of p.spectrum.
    m = len(moved)
    eig = _sorted_eig(effects[:, moved].reshape(2 * m, d, d))
    # both halves' spectra, the plus half's rows first: the input's, with the moved rows written in
    values, vectors = np.empty((2 * k, d)), np.empty((2 * k, d, d), dtype=np.complex128)
    for whole, kept, fresh in ((values, p.spectrum.eigenvalues, eig.eigenvalues), (vectors, p.spectrum.eigenvectors, eig.eigenvectors)):
        halves = whole.reshape(2, k, *kept.shape[1:])
        halves[:] = kept
        halves[:, moved] = fresh.reshape(2, m, *kept.shape[1:])
    plus, minus = _checked(d, p.labels, effects, tol, EigenResult(eigenvalues=values, eigenvectors=vectors))
    return ConvexSplit(plus=plus, minus=minus)
