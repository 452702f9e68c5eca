import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.linalg import opnorm
from povm_purity.povm import is_pvm
from povm_purity.rand import (
    random_channel,
    random_hermitian,
    random_povm,
    random_psd,
    random_pvm,
    random_unitary,
)

from conftest import SEED


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_random_unitary(rng, dim):
    u = random_unitary(rng, dim)
    assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_random_hermitian_and_psd(rng):
    h = random_hermitian(rng, 4)
    assert opnorm(h - h.conj().T) <= 1e-15
    m = random_psd(rng, 4)
    assert opnorm(m - m.conj().T) <= 1e-14 and np.linalg.eigvalsh(m)[0] >= -1e-10
    assert np.linalg.matrix_rank(random_psd(rng, 5, rank=2)) == 2


@pytest.mark.parametrize("dim,n", [(2, 2), (3, 5), (6, 4)])
def test_random_povm_validates(rng, dim, n):
    p = random_povm(rng, dim, n)
    assert p.dim == dim and len(p) == n
    assert opnorm(sum(p.effects) - np.eye(dim)) <= 1e-12


@pytest.mark.parametrize("dim,n", [(2, 2), (4, 3), (8, 5)])
def test_random_pvm_is_projective(rng, dim, n):
    p = random_pvm(rng, dim, n)
    assert is_pvm(p)
    assert len(p) == n


def test_random_channel_trace_preserving(rng):
    ch = random_channel(rng, 3, 2)
    assert ch.tp_defect() <= 1e-12
    ch2 = random_channel(rng, 2, 4, n_kraus=3)
    assert len(ch2.kraus) == 3
    with pytest.raises(ValueError):
        random_channel(rng, 5, 2, n_kraus=1)  # isometry cannot fit


def test_reproducible_across_generators():
    a = random_povm(np.random.default_rng(SEED), 3, 4)
    b = random_povm(np.random.default_rng(SEED), 3, 4)
    for ea, eb in zip(a.effects, b.effects):
        assert_allclose(ea, eb, atol=0)
