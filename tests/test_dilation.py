import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.dilation import build_dilation, dilation_is_unitary, reconstruct
from povm_purity.errors import InvalidTolerance, NotPsd, UnknownLabel
from povm_purity.extremality import purity_verdict
from povm_purity.fixtures import FIXTURE_NAMES, fixture
from povm_purity.linalg import DEFAULT_TOL, Tolerance, opnorm
from povm_purity.povm import Povm, is_pvm, validate
from povm_purity.rand import random_povm, random_pvm


def _rank(m) -> int:
    """Numeric rank at the package's relative singular-value cut."""
    m = np.asarray(m)
    return int(np.linalg.matrix_rank(m, tol=DEFAULT_TOL.rank_rel * np.linalg.norm(m, 2)))


def _two_outcome(e, label="e"):
    """The POVM {E, I - E}, so that E's factor is the block ``label``."""
    e = np.asarray(e, dtype=np.complex128)
    return validate(e.shape[0], [(label, e), ("rest", np.eye(e.shape[0]) - e)])


def test_factorize_rank_one_projector():
    dil = build_dilation(_two_outcome(np.diag([1.0, 0.0])))
    assert dil.block_index["e"] == (0, 1)
    assert_allclose(dil.block("e"), [[1.0, 0.0]], atol=1e-14)


def test_factorize_half_identity():
    dil = build_dilation(_two_outcome(np.eye(2) / 2))
    assert dil.block_index["e"] == (0, 2)
    assert_allclose(dil.block("e"), np.eye(2) / np.sqrt(2.0), atol=1e-14)


def test_factorize_rank_one_analytic():
    phi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    dil = build_dilation(_two_outcome((2.0 / 3.0) * np.outer(phi, phi.conj())))
    assert dil.block("e").shape == (1, 2)
    assert_allclose(dil.block("e"), [np.sqrt(2.0 / 3.0) * phi], atol=1e-14)


def test_factorize_zero_effect():
    dil = build_dilation(_two_outcome(np.zeros((3, 3))))
    assert dil.block_index["e"] == (0, 0)
    assert dil.block("e").shape == (0, 3)


def test_factorize_rejects_negative():
    # validate would refuse this effect; a bare Povm reaches the factorization
    p = Povm(dim=2, labels=("oops", "rest"), effects=(np.diag([1.0, -0.5]), np.diag([0.0, 1.5])))
    with pytest.raises(NotPsd, match="'oops'"):
        build_dilation(p)


def test_factorize_properties(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 7))
        rank = int(rng.integers(0, dim + 1))
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        e = g @ g.conj().T
        if rank:
            e /= 2.0 * opnorm(e)
        a = build_dilation(_two_outcome(e)).block("e")
        assert a.shape == (_rank(e), dim)
        assert opnorm(a.conj().T @ a - e) <= 1e-10 * (1 + opnorm(e))
        # rows orthogonal with squared norms = nonzero eigenvalues, descending
        overlaps = a @ a.conj().T
        norms = np.real(np.diag(overlaps))
        assert_allclose(overlaps, np.diag(norms), atol=1e-10)
        assert np.all(np.diff(norms) <= 1e-10)


def test_coarse_cut_that_empties_the_dilation_is_a_typed_error():
    coin = fixture("coin")  # every eigenvalue of both effects is 0.5
    with pytest.raises(InvalidTolerance, match=r"abs_eps 0\.9.*dimension 0 below the dimension 2"):
        build_dilation(coin, Tolerance(abs_eps=0.9))
    with pytest.raises(InvalidTolerance):
        purity_verdict(coin, Tolerance(abs_eps=0.9))
    # a cut that keeps the dilation whole is still accepted
    assert build_dilation(coin, Tolerance(abs_eps=0.4)).total_dim == 4


def test_dilation_computational_pvm_is_identity():
    dil = build_dilation(fixture("computational-pvm-d2"))
    assert dil.total_dim == 2
    assert_allclose(dil.isometry, np.eye(2), atol=1e-14)
    assert dilation_is_unitary(dil)


def test_dilation_coin_stacks_half_identities():
    dil = build_dilation(fixture("coin"))
    assert dil.total_dim == 4
    expected = np.vstack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
    assert_allclose(dil.isometry, expected, atol=1e-14)
    assert not dilation_is_unitary(dil)
    assert_allclose(dil.block("0"), np.eye(2) / np.sqrt(2.0), atol=1e-14)
    with pytest.raises(UnknownLabel):
        dil.block("edge")


def test_dilation_trine_rows():
    dil = build_dilation(fixture("trine"))
    assert dil.total_dim == 3
    rows = np.stack(
        [np.array([1.0, np.exp(-2j * np.pi * k / 3)]) / np.sqrt(3.0) for k in range(3)]
    )
    assert_allclose(dil.isometry, rows, atol=1e-14)
    j = dil.isometry
    assert opnorm(j.conj().T @ j - np.eye(2)) <= 1e-14
    assert not dilation_is_unitary(dil)
    assert dil.labels == ("t0", "t1", "t2")


def test_reconstruct_fixture_subsets():
    p = fixture("trine")
    dil = build_dilation(p)
    assert_allclose(reconstruct(dil, p.labels), np.eye(2), atol=1e-12)
    for lab, eff in p:
        assert opnorm(reconstruct(dil, [lab]) - eff) <= 1e-10
    assert_allclose(reconstruct(dil, []), np.zeros((2, 2)), atol=0)
    with pytest.raises(UnknownLabel):
        reconstruct(dil, ["t9"])


def test_dilation_random_povms(rng):
    for _ in range(30):
        dim = int(rng.integers(1, 9))
        n = int(rng.integers(2, 13))
        p = random_povm(rng, dim, n)
        dil = build_dilation(p)
        j = dil.isometry
        assert opnorm(j.conj().T @ j - np.eye(dim)) <= 1e-10
        assert dil.total_dim == sum(_rank(e) for e in p.effects)
        for lab, eff in p:
            assert opnorm(reconstruct(dil, [lab]) - eff) <= 1e-9


def test_unitary_iff_pvm(rng):
    for name in FIXTURE_NAMES:
        p = fixture(name)
        assert dilation_is_unitary(build_dilation(p)) == is_pvm(p)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        p = random_pvm(rng, dim, int(rng.integers(2, dim + 1)))
        assert dilation_is_unitary(build_dilation(p))


def test_dilation_with_zero_effect_keeps_labels():
    p = validate(
        2,
        [("a", np.diag([1.0, 0.0])), ("b", np.zeros((2, 2))), ("c", np.diag([0.0, 1.0]))],
    )
    dil = build_dilation(p)
    assert dil.total_dim == 2
    assert dil.block("b").shape == (0, 2)
    assert opnorm(reconstruct(dil, ["b"])) == 0.0
