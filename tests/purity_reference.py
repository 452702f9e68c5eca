"""The impure route as it was before the witness read its blocks directly.

Copies, up to names, of ``purity_verdict``, ``_witness``, ``_lent_row``,
``convex_split`` and the helpers they called: a dense kernel vector over the
whole domain, one ``_sup_norm`` pass per part, k-element lists for each half,
the eigensolve's ``take_along_axis`` phase fix, and the per-half
``_validate`` without the label and shape checks a half always passes.  The
tests compare the library against it bit for bit.  The map, its certified
block and the dilation are the library's.
"""

from __future__ import annotations

import numpy as np

from povm_purity.errors import IsPure, NonFinite, NotNormalized, NotPsd
from povm_purity.extremality import (
    MARGINAL_FACTOR,
    BlockHermitian,
    ConvexSplit,
    PerturbationMap,
    PurityVerdict,
    _certified_block,
    build_perturbation_map,
)
from povm_purity.linalg import _PHASE_EPS, DEFAULT_TOL, EigenResult, Tolerance, _hermitian_mask, _hermitize, opnorm
from povm_purity.povm import NORMALIZATION_EPS, Povm


def fix_column_phases(v: np.ndarray) -> np.ndarray:
    if v.size == 0:
        return v.copy()
    significant = np.abs(v) > _PHASE_EPS
    anchor = np.take_along_axis(v, np.argmax(significant, axis=-2)[..., None, :], axis=-2)
    anchor = np.where(significant.any(axis=-2, keepdims=True), anchor, 1.0)
    return v * (np.conj(anchor) / np.abs(anchor))


def sorted_eig(a: np.ndarray) -> EigenResult:
    w, v = np.linalg.eigh(_hermitize(a))
    if (w[..., 1:] > w[..., :-1]).all():
        w, v = w[..., ::-1], v[..., ::-1]
    else:
        order = np.argsort(-w, axis=-1, kind="stable")
        w, v = np.take_along_axis(w, order, axis=-1), np.take_along_axis(v, order[..., None, :], axis=-1)
    return EigenResult(eigenvalues=w, eigenvectors=fix_column_phases(v))


def sup_norm(blocks) -> float:
    blocks = [b for b in blocks if b.any()]
    shapes = dict.fromkeys(b.shape for b in blocks)
    stacks = (np.stack([b for b in blocks if b.shape == s]) for s in shapes)
    return max((float(opnorm(stack).max()) for stack in stacks), default=0.0)


def witness(pmap: PerturbationMap, x: np.ndarray) -> BlockHermitian:
    dims = pmap.block_dims
    starts = np.cumsum([0, *(n * n for n in dims)])
    live = np.flatnonzero(np.logical_or.reduceat(x != 0.0, starts[:-1])).tolist()
    herm, anti = [], []
    for i in live:
        n = dims[i]
        b = x[starts[i] : starts[i + 1]].reshape(n, n)
        herm.append((b + b.conj().T) / 2.0)
        anti.append(-0.5j * (b - b.conj().T))
    sups = [sup_norm(part) for part in (herm, anti)]
    blocks = herm if sups[0] >= sups[1] else anti
    sup = max(sups)
    flat = np.concatenate([np.stack([b.real, b.imag], axis=-1).ravel() for b in blocks])
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-8 * np.max(np.abs(flat)))[0]]
    scale = sup if lead > 0.0 else -sup
    out = [np.zeros((n, n), dtype=np.complex128) for n in dims]
    for i, b in zip(live, blocks):
        out[i] = b / scale + 0.0
    return BlockHermitian(labels=pmap.labels, blocks=tuple(out))


def lent_row(pmap: PerturbationMap, i: int) -> np.ndarray:
    """The dense kernel vector, over the whole domain."""
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
    pmap = build_perturbation_map(p, tol)
    dom, cod = pmap.domain_dim, pmap.codomain_dim
    i = _certified_block(pmap, tol.rank_rel) if dom > cod else None
    if i is not None:
        kernel_dim, smallest, marginal, x = dom - cod, 0.0, False, lent_row(pmap, i)
    else:
        _, s, vh = np.linalg.svd(pmap.matrix, full_matrices=False)
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
        witness=None if pure else witness(pmap, x),
        factors=() if pure else pmap.blocks,
    )


def validate_with_spectrum(dim, outcomes, tol: Tolerance, spectrum: EigenResult) -> Povm:
    """The old per-half ``_validate`` on effects of the right shape."""
    pairs = list(outcomes)
    labels = tuple(str(lab) for lab, _ in pairs)
    stack = np.stack([np.asarray(eff, dtype=np.complex128) for _, eff in pairs])
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise NonFinite(f"effect {pairs[int(np.argmin(finite))][0]!r} has a NaN or infinite entry")
    psd = _hermitian_mask(stack, tol) & (spectrum.eigenvalues[:, -1] >= -tol.abs_eps)
    if not psd.all():
        raise NotPsd(f"effect {pairs[int(np.argmin(psd))][0]!r} is not positive semidefinite within tolerance")
    effects = tuple(stack)
    gap = sum(effects) - np.eye(dim)
    residual = opnorm(gap) if np.linalg.norm(gap) > NORMALIZATION_EPS else 0.0
    if residual > NORMALIZATION_EPS:
        raise NotNormalized(f"effects sum to identity with residual {residual:.3e} > {NORMALIZATION_EPS:g}")
    return Povm(dim=dim, labels=labels, effects=effects, spectrum=spectrum)


def convex_split(p: Povm, verdict: PurityVerdict, tol: Tolerance = DEFAULT_TOL) -> ConvexSplit:
    if verdict.pure:
        raise IsPure("measurement is extremal; no convex split exists")
    w = verdict.witness
    factors = dict(zip(w.labels, zip(verdict.factors, w.blocks)))
    moved = [i for i, lab in enumerate(p.labels) if lab not in factors or factors[lab][1].any()]
    m = len(moved)

    def effect(lab: str, sign: float) -> np.ndarray:
        if lab not in factors:
            return np.zeros((p.dim, p.dim))
        a, d = factors[lab]
        return a.conj().T @ (np.eye(a.shape[0]) + sign * d) @ a

    fresh = np.array([effect(p.labels[i], s) for s in (1.0, -1.0) for i in moved], dtype=np.complex128)
    fresh = fresh.reshape(2 * m, p.dim, p.dim)
    eig = sorted_eig(fresh)

    def half(rows: slice) -> Povm:
        effects = list(p.effects)
        for i, e in zip(moved, fresh[rows]):
            effects[i] = e
        values, vectors = p.spectrum.eigenvalues.copy(), p.spectrum.eigenvectors.copy()
        values[moved], vectors[moved] = eig.eigenvalues[rows], eig.eigenvectors[rows]
        return validate_with_spectrum(p.dim, zip(p.labels, effects), tol, EigenResult(eigenvalues=values, eigenvectors=vectors))

    return ConvexSplit(plus=half(slice(0, m)), minus=half(slice(m, 2 * m)))
