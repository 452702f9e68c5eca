import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.errors import IsPure, LabelMismatch
from povm_purity.extremality import (
    BlockHermitian,
    PurityVerdict,
    build_perturbation_map,
    convex_split,
    purity_verdict,
    screen_necessary,
)
from povm_purity.fixtures import FIXTURE_NAMES, fixture
from povm_purity.linalg import hermitize, opnorm
from povm_purity.povm import mix, validate
from povm_purity.rand import random_povm, random_pvm, random_unitary

SIGMA_Z = np.diag([1.0, -1.0])


def _vec_effect_singular_values(p):
    """Independent oracle: singular values of the stacked vectorized effects."""
    cols = np.stack([e.reshape(-1) for e in p.effects], axis=1)
    return np.linalg.svd(cols, compute_uv=False)


def _random_blocks(rng, pmap):
    return BlockHermitian(
        labels=pmap.labels,
        blocks=tuple(
            hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for n in pmap.block_dims
        ),
    )


def _vec_blocks(d):
    return np.concatenate([b.ravel() for b in d.blocks])


def test_map_shapes_and_apply_consistency(rng):
    p = random_povm(rng, 3, 4)
    pmap = build_perturbation_map(p)
    assert pmap.codomain_dim == 9
    assert pmap.domain_dim == sum(n * n for n in pmap.block_dims) == 36
    assert pmap.matrix.shape == (pmap.codomain_dim, pmap.domain_dim)
    for _ in range(50):
        d = _random_blocks(rng, pmap)
        via_matrix = pmap.matrix @ _vec_blocks(d)
        assert np.linalg.norm(via_matrix - pmap.apply(d).ravel()) <= 1e-10


def test_blocks_coords_roundtrip(rng):
    """Column r*n+s of block i is vec(A_i* |r><s| A_i); labels are checked."""
    pmap = build_perturbation_map(fixture("trine"))
    x = rng.standard_normal(pmap.domain_dim) + 1j * rng.standard_normal(pmap.domain_dim)
    pos = 0
    blocks = []
    for n in pmap.block_dims:
        blocks.append(x[pos : pos + n * n].reshape(n, n))
        pos += n * n
    d = BlockHermitian(labels=pmap.labels, blocks=tuple(blocks))
    assert_allclose(_vec_blocks(d), x, atol=0)
    assert_allclose(pmap.matrix @ x, pmap.apply(d).ravel(), atol=1e-12)
    with pytest.raises(LabelMismatch):
        pmap.apply(BlockHermitian(labels=("x",), blocks=(np.zeros((1, 1)),)))
    with pytest.raises(LabelMismatch):
        d.block("nope")


def test_coin_kernel_is_antisymmetric_pairs():
    """Map is (D1, D2) -> (D1 + D2)/2, so the kernel is {(D, -D)}: dim 4."""
    coin = fixture("coin")
    pmap = build_perturbation_map(coin)
    assert pmap.domain_dim == 8
    pauli = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), SIGMA_Z]
    for g in pauli:
        d = BlockHermitian(labels=pmap.labels, blocks=(g, -g))
        assert opnorm(pmap.apply(d)) <= 1e-15
    v = purity_verdict(coin)
    assert not v.pure
    assert v.kernel_dim == 4


def test_computational_pvm_pure():
    v = purity_verdict(fixture("computational-pvm-d2"))
    assert v.pure
    assert v.kernel_dim == 0
    assert v.witness is None
    assert v.smallest_singular_value == pytest.approx(1.0, abs=1e-12)
    assert not v.marginal


def test_trine_pure_with_gram_oracle():
    p = fixture("trine")
    # oracle: Gram determinant of the vectorized rank-1 effects is nonzero
    cols = np.stack([e.reshape(-1) for e in p.effects], axis=1)
    assert abs(np.linalg.det(cols.conj().T @ cols)) > 1e-6
    v = purity_verdict(p)
    assert v.pure and v.kernel_dim == 0
    # for rank-1 effects the map's singular values are exactly the square
    # roots of the eigenvalues of the trace Gram matrix tr(E_k E_l)
    gram = np.real(np.einsum("iab,jba->ij", np.stack(p.effects), np.stack(p.effects)))
    expected = np.sqrt(np.linalg.eigvalsh(gram)[0])
    assert v.smallest_singular_value == pytest.approx(expected, abs=1e-12)
    assert v.smallest_singular_value == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_qubit_sic_pure_saturates_dimension_bound():
    p = fixture("qubit-sic")
    v = purity_verdict(p)
    assert v.pure
    pmap = build_perturbation_map(p)
    assert sum(n * n for n in pmap.block_dims) == 4 == p.dim**2
    assert v.smallest_singular_value == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)


def test_mixed_basis_kernel_and_witness():
    p = fixture("mixed-basis-4")
    # oracle: vectorized effects have a one-dimensional null space along
    # (1, 1, -1, -1)
    s = _vec_effect_singular_values(p)
    assert s[2] > 1e-8 and s[3] < 1e-14
    v = purity_verdict(p)
    assert not v.pure
    assert v.kernel_dim == 1
    signs = [float(np.real(v.witness.block(lab)[0, 0])) for lab in p.labels]
    assert_allclose(signs, [1.0, 1.0, -1.0, -1.0], atol=1e-10)
    assert v.witness.sup_norm() == pytest.approx(1.0, abs=1e-12)


def test_convex_split_spec_witness_on_coin():
    """Splitting the coin along D = (sigma_z, -sigma_z) yields the two
    computational PVMs in opposite outcome order."""
    coin = fixture("coin")
    verdict = PurityVerdict(
        pure=False,
        kernel_dim=4,
        smallest_singular_value=0.0,
        marginal=False,
        witness=BlockHermitian(labels=coin.labels, blocks=(SIGMA_Z, -SIGMA_Z)),
    )
    split = convex_split(coin, verdict)
    assert_allclose(split.plus.effect("0"), np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(split.plus.effect("1"), np.diag([0.0, 1.0]), atol=1e-12)
    assert_allclose(split.minus.effect("0"), np.diag([0.0, 1.0]), atol=1e-12)
    assert_allclose(split.minus.effect("1"), np.diag([1.0, 0.0]), atol=1e-12)


def test_convex_split_mixed_basis_recovers_padded_pvms():
    p = fixture("mixed-basis-4")
    split = convex_split(p, purity_verdict(p))
    zero2 = np.zeros((2, 2))
    plus_expected = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), zero2, zero2]
    minus_expected = [zero2, zero2, np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]
    for lab, pe, me in zip(p.labels, plus_expected, minus_expected):
        assert opnorm(split.plus.effect(lab) - pe) <= 1e-9
        assert opnorm(split.minus.effect(lab) - me) <= 1e-9


def test_convex_split_average_is_exact(rng):
    base = fixture("trine")
    u = random_unitary(rng, 2)
    rotated = validate(2, [(lab, u @ e @ u.conj().T) for lab, e in base])
    p = mix(base, rotated, 0.5)
    v = purity_verdict(p)
    assert not v.pure
    split = convex_split(p, v)
    for lab, eff in p:
        avg = (split.plus.effect(lab) + split.minus.effect(lab)) / 2.0
        assert opnorm(avg - eff) <= 1e-9
    assert max(
        opnorm(ep - em) for ep, em in zip(split.plus.effects, split.minus.effects)
    ) > 1e-6


def test_convex_split_requires_impurity():
    p = fixture("trine")
    with pytest.raises(IsPure):
        convex_split(p, purity_verdict(p))


def test_split_keeps_zero_effects_zero():
    p = validate(
        2,
        [("a", np.eye(2) / 2), ("b", np.zeros((2, 2))), ("c", np.eye(2) / 2)],
    )
    v = purity_verdict(p)
    split = convex_split(p, v)
    assert opnorm(split.plus.effect("b")) == 0.0
    assert opnorm(split.minus.effect("b")) == 0.0


def test_pure_map_bounded_below(rng):
    """Soundness of 'pure': no unit witness comes close to the kernel."""
    for name in ("computational-pvm-d2", "trine", "qubit-sic"):
        p = fixture(name)
        v = purity_verdict(p)
        assert v.pure
        pmap = build_perturbation_map(p)
        for _ in range(100):
            blocks = []
            for n in pmap.block_dims:
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                blocks.append(hermitize(g))
            d = BlockHermitian(labels=pmap.labels, blocks=tuple(blocks))
            sup = d.sup_norm()
            if sup == 0.0:
                continue
            d = BlockHermitian(
                labels=d.labels, blocks=tuple(b / sup for b in d.blocks)
            )
            assert opnorm(pmap.apply(d)) > v.smallest_singular_value / 2.0


def test_pvms_are_pure(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        p = random_pvm(rng, dim, int(rng.integers(2, dim + 1)))
        v = purity_verdict(p)
        assert v.pure and v.kernel_dim == 0


def test_mix_of_distinct_fixtures_impure():
    comp, smeared = fixture("computational-pvm-d2"), fixture("smeared-pvm-d2")
    assert not purity_verdict(mix(comp, smeared, 0.5)).pure


def test_screen_necessary():
    assert screen_necessary(fixture("computational-pvm-d2")).effects_independent
    assert screen_necessary(fixture("trine")).effects_independent
    report = screen_necessary(fixture("mixed-basis-4"))
    assert not report.effects_independent
    assert report.max_dependent_set == ("x-",)
    # oracle for the dependence: E_z0 + E_z1 - E_x+ - E_x- = 0
    p = fixture("mixed-basis-4")
    assert opnorm(p.effects[0] + p.effects[1] - p.effects[2] - p.effects[3]) <= 1e-15


def test_screen_never_contradicts_verdict(rng):
    pool = [fixture(name) for name in FIXTURE_NAMES]
    pool += [random_povm(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6))) for _ in range(10)]
    for p in pool:
        if purity_verdict(p).pure:
            assert screen_necessary(p).effects_independent


def test_dimension_bound_on_pure_fixtures():
    for name in FIXTURE_NAMES:
        p = fixture(name)
        if purity_verdict(p).pure:
            pmap = build_perturbation_map(p)
            assert pmap.domain_dim <= p.dim**2


def _invariance_pool(rng):
    pool = [fixture(name) for name in FIXTURE_NAMES]
    pool += [random_povm(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5))) for _ in range(4)]
    pool += [random_pvm(rng, 4, 2), random_pvm(rng, 3, 3)]
    pool.append(mix(random_pvm(rng, 4, 2), random_pvm(rng, 4, 2), 0.5))
    return pool


def test_verdict_invariant_under_unitary_permutation_and_zero_outcomes(rng):
    for p in _invariance_pool(rng):
        v = purity_verdict(p)
        u = random_unitary(rng, p.dim)
        rotated = validate(p.dim, [(lab, u @ e @ u.conj().T) for lab, e in p])
        order = rng.permutation(len(p))
        permuted = validate(p.dim, [(p.labels[i], p.effects[i]) for i in order])
        zero = np.zeros((p.dim, p.dim))
        padded = validate(p.dim, [*p, ("zero-a", zero), ("zero-b", zero)])
        for q in (rotated, permuted, padded):
            w = purity_verdict(q)
            assert (w.pure, w.kernel_dim) == (v.pure, v.kernel_dim)


def test_witness_is_a_hermitian_unit_kernel_direction(rng):
    pool = [fixture("coin"), fixture("mixed-basis-4")]
    pool += [random_povm(rng, d, k) for d, k in ((2, 3), (3, 2), (4, 4))]
    pool += [mix(random_pvm(rng, d, d // 2), random_pvm(rng, d, d // 2), 0.5) for d in (4, 6)]
    for p in pool:
        v = purity_verdict(p)
        assert not v.pure
        w = v.witness
        for b in w.blocks:
            assert np.array_equal(b, b.conj().T)
        assert w.sup_norm() == pytest.approx(1.0, abs=1e-12)
        assert opnorm(build_perturbation_map(p).apply(w)) <= 1e-10
