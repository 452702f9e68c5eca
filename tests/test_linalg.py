import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.errors import InvalidTolerance, NonHermitian, NonSquare
from povm_purity.linalg import (
    DEFAULT_TOL,
    Tolerance,
    _sorted_eig,
    certify_min_eigenvalue,
    herm_eig,
    opnorm,
    project_psd,
)
from povm_purity.rand import random_hermitian, random_unitary


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
    m = random_hermitian(rng, dim)
    res = herm_eig(m)
    recon = (res.eigenvectors * res.eigenvalues) @ res.eigenvectors.conj().T
    assert opnorm(m - recon) <= 1e-10 * (1.0 + opnorm(m))
    assert_allclose(
        res.eigenvectors.conj().T @ res.eigenvectors, np.eye(dim), atol=1e-12
    )
    assert np.all(np.diff(res.eigenvalues) <= 1e-12)


def test_herm_eig_phase_convention_is_deterministic(rng):
    m = random_hermitian(rng, 4)
    a = herm_eig(m)
    b = herm_eig(m * np.complex128(1.0))
    assert_allclose(a.eigenvectors, b.eigenvectors, atol=0)
    # first significant component of every column is real positive
    for k in range(4):
        col = a.eigenvectors[:, k]
        anchor = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert anchor.real > 0 and abs(anchor.imag) < 1e-12


def test_herm_eig_keeps_the_solver_order_inside_a_tie():
    m = np.diag([2.0, 1.0, 2.0, 1.0, 0.0])
    w, v = np.linalg.eigh(m)
    order = np.argsort(-w, kind="stable")
    res = herm_eig(m)
    assert res.eigenvalues.tolist() == [2.0, 2.0, 1.0, 1.0, 0.0]
    assert_allclose(res.eigenvalues, w[order], atol=0)
    # the same columns, up to the phase convention
    overlaps = np.abs(np.sum(res.eigenvectors.conj() * v[:, order], axis=0))
    assert_allclose(overlaps, np.ones(5), atol=1e-14)


def test_project_psd_clips():
    assert_allclose(project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14)
    assert_allclose(project_psd(-np.eye(2)), np.zeros((2, 2)), atol=1e-14)


def test_project_psd_fixed_point_and_idempotent(rng):
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    psd = g @ g.conj().T
    assert opnorm(project_psd(psd) - psd) <= 1e-12 * (1 + opnorm(psd))
    m = random_hermitian(rng, 5)
    once = project_psd(m)
    assert opnorm(project_psd(once) - once) <= 1e-12
    assert opnorm(once - once.conj().T) == 0.0 and np.linalg.eigvalsh(once)[0] >= -1e-10


def test_project_psd_rejects_nonhermitian():
    with pytest.raises(NonHermitian):
        project_psd([[0.0, 1.0], [0.0, 0.0]])


def _hermitian_with_spectrum(rng, w, complex_=True):
    u = random_unitary(rng, len(w)) if complex_ else np.linalg.qr(rng.standard_normal((len(w),) * 2))[0]
    return (u * np.asarray(w, dtype=float)) @ u.conj().T


@pytest.mark.parametrize("complex_", [True, False])
@pytest.mark.parametrize("n", [1, 3, 16, 64])
def test_certify_accepts_a_spectrum_well_above_its_shift(rng, n, complex_):
    w = np.linspace(0.5, 2.0, n)
    h = _hermitian_with_spectrum(rng, w, complex_)
    assert certify_min_eigenvalue(h, 0.0)
    assert certify_min_eigenvalue(h, 0.25)
    assert not certify_min_eigenvalue(h, 1.0)


@pytest.mark.parametrize("rank", [0, 1, 3])
def test_certify_refuses_an_exactly_singular_psd_gram(rng, rank):
    """kron(f, conj f) of a rank-deficient PSD f: singular, however it rounds."""
    v = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    f = v @ v.conj().T
    g = np.kron(f, f.conj())
    assert not certify_min_eigenvalue(g, 0.0)
    # the same f made definite passes
    g = np.kron(f + np.eye(4), (f + np.eye(4)).conj())
    assert certify_min_eigenvalue(g, 0.5)


@pytest.mark.parametrize("complex_", [True, False])
def test_certify_refuses_a_smallest_eigenvalue_just_below_tau(rng, complex_):
    tau = 0.1
    for lam, proven in ((tau * (1.0 - 1e-6), False), (tau, False), (tau * (1.0 + 1e-6), True)):
        w = np.concatenate([[lam], rng.uniform(0.5, 2.0, 24)])
        h = _hermitian_with_spectrum(rng, w, complex_)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(lam, abs=1e-13)
        assert certify_min_eigenvalue(h, tau) is proven


def test_certify_reads_only_the_lower_triangle(rng):
    h = _hermitian_with_spectrum(rng, np.linspace(1.0, 2.0, 8))
    garbage = h + np.triu(rng.standard_normal((8, 8)) * 1e3, 1) + 1j * np.diag(rng.standard_normal(8))
    assert certify_min_eigenvalue(garbage, 0.9)
    assert not certify_min_eigenvalue(garbage, 1.0)


def test_certify_input_checks():
    assert not certify_min_eigenvalue(np.array([[1.0, np.nan], [np.nan, 1.0]]), 0.0)
    assert not certify_min_eigenvalue(np.diag([np.inf, 1.0]), 0.0)
    assert not certify_min_eigenvalue(-np.eye(3), 0.0)
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau"):
            certify_min_eigenvalue(np.eye(2), bad)
    with pytest.raises(NonSquare):
        certify_min_eigenvalue(np.ones((2, 3)), 0.0)


def _stack_members(rng):
    """Zero, repeated-eigenvalue, random Hermitian and PSD, and not-PSD members of one size."""
    u = random_unitary(rng, 4)
    return [
        np.zeros((4, 4)),
        _hermitian_with_spectrum(rng, [0.5, 0.5, 0.5, 0.0]),
        (u * np.array([2.0, 2.0, 1.0, 1.0])) @ u.conj().T,
        random_hermitian(rng, 4),
        _hermitian_with_spectrum(rng, [1.0, 0.3, 1e-12, 0.0]),
        np.diag([1.0, 1.0, -1e-3, 0.0]),
    ]


def test_stacked_sorted_eig_equals_the_per_matrix_herm_eig(rng):
    """Each row of a batched solve is the solve of that matrix alone, bit for
    bit: the convex split copies rows of one stack's spectrum into another's.
    herm_eig itself takes one matrix."""
    members = _stack_members(rng)
    stacked = _sorted_eig(np.stack(members))
    assert stacked.eigenvalues.shape == (6, 4) and stacked.eigenvectors.shape == (6, 4, 4)
    for j, m in enumerate(members):
        one = herm_eig(m)
        assert np.array_equal(stacked.eigenvalues[j], one.eigenvalues)
        assert np.array_equal(stacked.eigenvectors[j], one.eigenvectors)
    part = _sorted_eig(np.stack(members)[[4, 1]])
    assert np.array_equal(part.eigenvalues, stacked.eigenvalues[[4, 1]])
    assert np.array_equal(part.eigenvectors, stacked.eigenvectors[[4, 1]])
    for bad in (np.stack(members[:4]), np.zeros((2, 3, 4)), np.zeros((2, 2, 2, 2))):
        with pytest.raises(NonSquare):
            herm_eig(bad)


def test_stacked_opnorm_equals_the_per_matrix_calls(rng):
    members = _stack_members(rng) + [np.triu(np.ones((4, 4))), rng.standard_normal((4, 4))]
    norms = opnorm(np.stack(members))
    assert norms.shape == (8,)
    assert np.array_equal(norms, [opnorm(m) for m in members])
    assert np.array_equal(opnorm(np.zeros((3, 0, 0))), np.zeros(3))
