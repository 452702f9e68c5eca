import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.errors import InvalidTolerance, NonHermitian, NonSquare
from povm_purity.extremality import BlockHermitian, build_perturbation_map
from povm_purity.fixtures import FIXTURE_NAMES, fixture
from povm_purity.linalg import (
    DEFAULT_TOL,
    Tolerance,
    herm_eig,
    hermitize,
    is_psd,
    numeric_rank,
    opnorm,
    project_psd,
)
from povm_purity.rand import random_povm, random_pvm


def test_tolerance_defaults():
    assert DEFAULT_TOL.abs_eps == 1e-10
    assert DEFAULT_TOL.rank_rel == 1e-8


@pytest.mark.parametrize("bad", [dict(abs_eps=0.0), dict(rank_rel=0.0), dict(abs_eps=-1e-3)])
def test_tolerance_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        Tolerance(**bad)


@pytest.mark.parametrize(
    "bad",
    [dict(abs_eps=float("inf")), dict(abs_eps=float("nan")), dict(abs_eps=10.0), dict(abs_eps=1.0),
     dict(rank_rel=5.0), dict(rank_rel=float("nan")), dict(rank_rel=float("-inf"))],
)
def test_tolerance_rejects_nonfinite_and_out_of_range(bad):
    with pytest.raises(InvalidTolerance, match=next(iter(bad))):
        Tolerance(**bad)


def test_herm_eig_pauli_x():
    res = herm_eig([[0, 1], [1, 0]])
    assert_allclose(res.eigenvalues, [1.0, -1.0], atol=1e-12)


def test_herm_eig_diagonal():
    res = herm_eig(np.diag([3.0, 1.0]))
    assert_allclose(res.eigenvalues, [3.0, 1.0], atol=1e-12)
    assert_allclose(res.eigenvectors, np.eye(2), atol=1e-12)


def test_herm_eig_two_by_two_analytic():
    res = herm_eig([[2.0, 1.0], [1.0, 2.0]])
    assert_allclose(res.eigenvalues, [3.0, 1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert_allclose(res.eigenvectors[:, 0], [s, s], atol=1e-12)
    assert_allclose(res.eigenvectors[:, 1], [s, -s], atol=1e-12)


def test_herm_eig_rejects_nonsquare_and_nonhermitian():
    with pytest.raises(NonSquare):
        herm_eig(np.ones((2, 3)))
    with pytest.raises(NonHermitian):
        herm_eig([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_herm_eig_reconstructs(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = hermitize(g)
    res = herm_eig(m)
    recon = (res.eigenvectors * res.eigenvalues) @ res.eigenvectors.conj().T
    assert opnorm(m - recon) <= 1e-10 * (1.0 + opnorm(m))
    assert_allclose(
        res.eigenvectors.conj().T @ res.eigenvectors, np.eye(dim), atol=1e-12
    )
    assert np.all(np.diff(res.eigenvalues) <= 1e-12)


def test_herm_eig_phase_convention_is_deterministic(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = hermitize(g)
    a = herm_eig(m)
    b = herm_eig(m * np.complex128(1.0))
    assert_allclose(a.eigenvectors, b.eigenvectors, atol=0)
    # first significant component of every column is real positive
    for k in range(4):
        col = a.eigenvectors[:, k]
        anchor = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert anchor.real > 0 and abs(anchor.imag) < 1e-12


def test_numeric_rank_basics():
    assert numeric_rank(np.eye(3)) == 3
    assert numeric_rank(np.diag([1.0, 0.0])) == 1
    assert numeric_rank(np.zeros((4, 4))) == 0


def test_numeric_rank_scale_invariant():
    m = 1e-14 * np.eye(5)
    assert numeric_rank(m) == 5


def _mixed_basis_effects():
    zero = np.array([[1.0, 0.0], [0.0, 0.0]])
    one = np.array([[0.0, 0.0], [0.0, 1.0]])
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    return [zero / 2, one / 2, plus / 2, minus / 2]


def test_numeric_rank_mixed_basis_vectorized_effects():
    """Columns = vectorized effects of the four-outcome mixed-basis POVM.

    Oracle: every 3-subset has a nonsingular Gram matrix (so rank >= 3) while
    the full Gram of all four is singular (so rank < 4).
    """
    cols = np.stack([e.reshape(-1) for e in _mixed_basis_effects()], axis=1)
    for sub in itertools.combinations(range(4), 3):
        g = cols[:, sub].conj().T @ cols[:, sub]
        assert abs(np.linalg.det(g)) > 1e-6
    g4 = cols.conj().T @ cols
    assert abs(np.linalg.det(g4)) < 1e-12
    assert numeric_rank(cols) == 3


def test_numeric_rank_adjoint_symmetry(rng):
    for _ in range(200):
        rows, cols = rng.integers(1, 7, size=2)
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        if rng.random() < 0.3:
            m[:, cols // 2] = 0.0
        assert numeric_rank(m) == numeric_rank(m.conj().T)


def test_is_psd():
    assert is_psd(np.eye(2))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert is_psd(np.zeros((3, 3)))
    assert not is_psd([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian


def test_project_psd_clips():
    assert_allclose(project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14)
    assert_allclose(project_psd(-np.eye(2)), np.zeros((2, 2)), atol=1e-14)


def test_project_psd_fixed_point_and_idempotent(rng):
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    psd = g @ g.conj().T
    assert opnorm(project_psd(psd) - psd) <= 1e-12 * (1 + opnorm(psd))
    m = hermitize(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    once = project_psd(m)
    assert opnorm(project_psd(once) - once) <= 1e-12
    assert is_psd(once)


def test_project_psd_rejects_nonhermitian():
    with pytest.raises(NonHermitian):
        project_psd([[0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# The complex perturbation map against a real Hermitian-coordinate oracle.
#
# Test-local orthonormal basis of the Hermitian n x n matrices under
# <X, Y> = Re tr(X* Y): the diagonal matrix units, then for each pair k < l
# (row-major) (E_kl + E_lk)/sqrt(2) and i(E_kl - E_lk)/sqrt(2).  A Hermitian
# basis is also an orthonormal complex basis of all n x n matrices in which a
# Hermiticity-preserving map has a real matrix, so the map's complex and real
# singular values coincide.
# ---------------------------------------------------------------------------


def _herm_to_coords(h):
    n = h.shape[0]
    iu = np.triu_indices(n, k=1)
    off = np.sqrt(2.0) * h[iu]
    return np.concatenate([np.real(np.diag(h)), np.stack([off.real, off.imag], axis=1).ravel()])


def _coords_to_herm(c, n):
    h = np.zeros((n, n), dtype=np.complex128)
    h[np.diag_indices(n)] = c[:n]
    iu = np.triu_indices(n, k=1)
    off = (c[n::2] + 1j * c[n + 1 :: 2]) / np.sqrt(2.0)
    h[iu] = off
    h[(iu[1], iu[0])] = np.conj(off)
    return h


def _real_map(pmap):
    """The map over Hermitian coordinates, one column per basis element."""
    cols = []
    for a, n in zip(pmap.blocks, pmap.block_dims):
        for e in np.eye(n * n):
            cols.append(_herm_to_coords(a.conj().T @ _coords_to_herm(e, n) @ a))
    return np.stack(cols, axis=1)


def _assert_same_singular_values(p):
    pmap = build_perturbation_map(p)
    s_complex = np.linalg.svd(pmap.matrix, compute_uv=False)
    s_real = np.linalg.svd(_real_map(pmap), compute_uv=False)
    assert_allclose(s_complex, s_real, atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_herm_coords_roundtrip(rng, dim):
    """Real coordinates in, complex map, real coordinates out: same image."""
    p = random_povm(rng, dim, 3)
    pmap = build_perturbation_map(p)
    real = _real_map(pmap)
    for _ in range(10):
        blocks = tuple(
            hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for n in pmap.block_dims
        )
        coords = np.concatenate([_herm_to_coords(b) for b in blocks])
        image = pmap.apply(BlockHermitian(labels=pmap.labels, blocks=blocks))
        assert_allclose(_coords_to_herm(real @ coords, dim), image, atol=1e-12)
        vec = np.concatenate([b.ravel() for b in blocks])
        assert_allclose(pmap.matrix @ vec, image.ravel(), atol=1e-12)
    _assert_same_singular_values(p)


def test_herm_coords_linear(rng):
    """Complex and real-coordinate singular values agree on every fixture and
    on random POVMs and PVMs with d <= 4."""
    pool = [fixture(name) for name in FIXTURE_NAMES]
    for _ in range(6):
        d = int(rng.integers(1, 5))
        pool.append(random_povm(rng, d, int(rng.integers(1, 5))))
        pool.append(random_pvm(rng, d, int(rng.integers(1, d + 1))))
    for p in pool:
        _assert_same_singular_values(p)
