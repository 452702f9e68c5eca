"""Random instances for property tests and smoke checks.

All generators take an explicit numpy Generator so runs stay reproducible;
seed policy belongs to the caller (the test suite honours POVM_PURITY_SEED).
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, kraus_channel
from .linalg import _sorted_eig
from .povm import Povm, validate

__all__ = [
    "random_unitary",
    "random_hermitian",
    "random_psd",
    "random_povm",
    "random_pvm",
    "random_channel",
]


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(rng, dim, dim))
    # fix the QR phase ambiguity so the distribution is Haar
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = _complex_gaussian(rng, dim, dim)
    return scale * (g + g.conj().T) / 2.0


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    r = dim if rank is None else rank
    g = _complex_gaussian(rng, dim, max(r, 1))
    return g @ g.conj().T


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> Povm:
    """Normalize random PSD lumps: E_i = S^(-1/2) G_i S^(-1/2), S = sum G_i."""
    lumps = [random_psd(rng, dim) for _ in range(n_outcomes)]
    eig = _sorted_eig(sum(lumps))
    inv_sqrt = (eig.eigenvectors / np.sqrt(eig.eigenvalues)) @ eig.eigenvectors.conj().T
    outcomes = [(f"o{i}", inv_sqrt @ g @ inv_sqrt) for i, g in enumerate(lumps)]
    return validate(dim, outcomes)


def random_pvm(rng: np.random.Generator, dim: int, n_outcomes: int) -> Povm:
    """Projections onto random groupings of a Haar-random basis."""
    if not 1 <= n_outcomes <= dim:
        raise ValueError(f"need 1 <= n_outcomes <= dim, got {n_outcomes} and {dim}")
    u = random_unitary(rng, dim)
    idx = rng.permutation(dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_outcomes - 1, replace=False))
    groups = np.split(idx, cuts)
    outcomes = []
    for i, grp in enumerate(groups):
        cols = u[:, grp]
        outcomes.append((f"o{i}", cols @ cols.conj().T))
    return validate(dim, outcomes)


def random_channel(rng: np.random.Generator, in_dim: int, out_dim: int, n_kraus: int | None = None) -> KrausChannel:
    """Haar isometry from C^in into C^out tensor C^kraus, sliced into blocks."""
    nk = n_kraus or max(2, -(-in_dim // out_dim))
    if out_dim * nk < in_dim:
        raise ValueError(f"need out_dim * n_kraus >= in_dim for an isometry, got {out_dim}*{nk} < {in_dim}")
    g = _complex_gaussian(rng, out_dim * nk, in_dim)
    q, _ = np.linalg.qr(g)
    return kraus_channel(in_dim, out_dim, [q[k * out_dim : (k + 1) * out_dim] for k in range(nk)])
