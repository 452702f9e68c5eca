import numpy as np
import pytest
from conftest import same_bits
from numpy.testing import assert_allclose

from povm_purity.dilation import build_dilation, dilation_is_unitary
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


def _compress(dil, labels) -> np.ndarray:
    """J* chi_X J: the sum of A_i* A_i over the named blocks."""
    out = np.zeros((dil.dim, dil.dim), dtype=np.complex128)
    for lab in labels:
        a = dil.block(lab)
        out += a.conj().T @ a
    return out


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
    # the factorization is validate's: a negative effect never becomes a
    # Povm, and no Povm is built without the spectrum validate keeps
    effects = (np.diag([1.0, -0.5]), np.diag([0.0, 1.5]))
    with pytest.raises(NotPsd, match="'oops'"):
        validate(2, [("oops", effects[0]), ("rest", effects[1])])
    with pytest.raises(TypeError, match="spectrum"):
        Povm(dim=2, labels=("oops", "rest"), effects=effects)


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
    assert_allclose(_compress(dil, p.labels), np.eye(2), atol=1e-12)
    for lab, eff in p:
        assert opnorm(_compress(dil, [lab]) - eff) <= 1e-10
    assert_allclose(_compress(dil, []), np.zeros((2, 2)), atol=0)
    with pytest.raises(UnknownLabel):
        dil.block("t9")


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
            assert opnorm(_compress(dil, [lab]) - eff) <= 1e-9


def test_unitary_iff_pvm(rng):
    for name in FIXTURE_NAMES:
        p = fixture(name)
        assert dilation_is_unitary(build_dilation(p)) == is_pvm(p)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        p = random_pvm(rng, dim, int(rng.integers(2, dim + 1)))
        assert dilation_is_unitary(build_dilation(p))


def _per_outcome_dilation(p, tol=DEFAULT_TOL):
    """The per-outcome factor loop that build_dilation's one pass replaced:
    (isometry, block_index), kept as its reference."""
    blocks = []
    for w, v in zip(p.spectrum.eigenvalues, p.spectrum.eigenvectors):
        wmax = float(w[0])
        rank = 0 if wmax <= tol.abs_eps else int(np.count_nonzero(w > tol.rank_rel * wmax))
        blocks.append(np.sqrt(w[:rank])[:, None] * v[:, :rank].conj().T)
    ends = np.cumsum([0] + [a.shape[0] for a in blocks]).tolist()
    return np.vstack(blocks), {lab: (lo, hi) for lab, lo, hi in zip(p.labels, ends, ends[1:])}


def test_one_pass_dilation_equals_the_per_outcome_loop(rng):
    """Bit for bit: the fixtures, a zero outcome, rank-deficient effects, both
    sides of the diag(1, eps) rank cut, and non-default tolerances."""
    pool = [(fixture(name), DEFAULT_TOL) for name in FIXTURE_NAMES]
    zero = validate(3, [("a", np.diag([1.0, 0.0, 0.0])), ("z", np.zeros((3, 3))), ("b", np.diag([0.0, 1.0, 1.0]))])
    pool.append((zero, DEFAULT_TOL))
    for eps in (1e-8, 1.5e-8):  # rank 1 at 1e-8, rank 2 at 1.5e-8
        pool.append((_two_outcome(np.diag([1.0, eps])), DEFAULT_TOL))
    for _ in range(6):
        dim = int(rng.integers(2, 7))
        g = rng.standard_normal((dim, dim - 1)) + 1j * rng.standard_normal((dim, dim - 1))
        e = g @ g.conj().T
        pool.append((_two_outcome(e / (2.0 * opnorm(e))), DEFAULT_TOL))
        pool.append((random_povm(rng, dim, int(rng.integers(2, 6))), DEFAULT_TOL))
        pool.append((random_pvm(rng, dim, int(rng.integers(1, dim + 1))), DEFAULT_TOL))
    pool += [(fixture("coin"), Tolerance(abs_eps=0.4)), (pool[-2][0], Tolerance(rank_rel=0.3))]
    for p, tol in pool:
        isometry, index = _per_outcome_dilation(p, tol)
        if isometry.shape[0] < p.dim:  # the cut left too little: refused, as before
            with pytest.raises(InvalidTolerance):
                build_dilation(p, tol)
            continue
        dil = build_dilation(p, tol)
        assert same_bits(dil.isometry, isometry)
        assert dil.block_index == index and dil.total_dim == isometry.shape[0]
    cut = [build_dilation(_two_outcome(np.diag([1.0, eps]))).block_index["e"] for eps in (1e-8, 1.5e-8)]
    assert cut == [(0, 1), (0, 2)]


def test_dilation_with_zero_effect_keeps_labels():
    p = validate(
        2,
        [("a", np.diag([1.0, 0.0])), ("b", np.zeros((2, 2))), ("c", np.diag([0.0, 1.0]))],
    )
    dil = build_dilation(p)
    assert dil.total_dim == 2
    assert dil.block("b").shape == (0, 2)
    assert opnorm(_compress(dil, ["b"])) == 0.0
