import tracemalloc

import numpy as np
import pytest
from conftest import SEED
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from povm_purity.dilation import build_dilation
from povm_purity.errors import IsPure, LabelMismatch, NotPsd
from povm_purity.extremality import (
    MARGINAL_FACTOR,
    BlockHermitian,
    PerturbationMap,
    PurityVerdict,
    _certified_block,
    _witness,
    build_perturbation_map,
    convex_split,
    purity_verdict,
)
from povm_purity.fixtures import FIXTURE_NAMES, fixture
from povm_purity.linalg import DEFAULT_TOL, Tolerance, _sorted_eig, opnorm
from povm_purity.povm import mix, validate
from povm_purity.rand import random_hermitian, random_povm, random_psd, random_pvm, random_unitary

SIGMA_Z = np.diag([1.0, -1.0])


def _vec_effect_singular_values(p):
    """Independent oracle: singular values of the stacked vectorized effects."""
    cols = np.stack([e.reshape(-1) for e in p.effects], axis=1)
    return np.linalg.svd(cols, compute_uv=False)


def _random_blocks(rng, pmap):
    return BlockHermitian(
        labels=pmap.labels,
        blocks=tuple(random_hermitian(rng, n) for n in pmap.block_dims),
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
    assert max(opnorm(b) for b in v.witness.blocks) == pytest.approx(1.0, abs=1e-12)


def _coin_spec_verdict(factors):
    coin = fixture("coin")
    return PurityVerdict(
        pure=False,
        kernel_dim=4,
        smallest_singular_value=0.0,
        marginal=False,
        witness=BlockHermitian(labels=coin.labels, blocks=(SIGMA_Z, -SIGMA_Z)),
        factors=factors,
    )


def test_convex_split_spec_witness_on_coin():
    """Splitting the coin along D = (sigma_z, -sigma_z) yields the two
    computational PVMs in opposite outcome order."""
    half = np.eye(2) / np.sqrt(2.0)
    split = convex_split(fixture("coin"), _coin_spec_verdict((half, half)))
    assert_allclose(split.plus.effect("0"), np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(split.plus.effect("1"), np.diag([0.0, 1.0]), atol=1e-12)
    assert_allclose(split.minus.effect("0"), np.diag([0.0, 1.0]), atol=1e-12)
    assert_allclose(split.minus.effect("1"), np.diag([1.0, 0.0]), atol=1e-12)


def test_convex_split_needs_factors_that_fit_the_witness():
    coin = fixture("coin")
    with pytest.raises(ValueError, match="factors"):
        convex_split(coin, _coin_spec_verdict(()))
    with pytest.raises(ValueError, match="factors"):
        convex_split(coin, _coin_spec_verdict((np.eye(2) / np.sqrt(2.0),)))
    with pytest.raises(ValueError, match="factors"):
        convex_split(coin, _coin_spec_verdict((np.eye(2)[:1], np.eye(2)[:1])))


def test_verdict_factors_are_the_dilation_blocks(rng):
    pool = [fixture("coin"), fixture("mixed-basis-4"), fixture("smeared-pvm-d2")]
    pool += [random_povm(rng, d, k) for d, k in ((2, 3), (3, 2))]
    zero = np.zeros((2, 2))
    pool.append(validate(2, [("a", np.eye(2) / 2), ("z", zero), ("b", np.eye(2) / 2)]))
    for p in pool:
        v = purity_verdict(p)
        assert not v.pure
        dil = build_dilation(p)
        assert len(v.factors) == len(v.witness.labels)
        for lab, a in zip(v.witness.labels, v.factors):
            assert np.array_equal(a, dil.block(lab))
    assert purity_verdict(fixture("trine")).factors == ()


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


@seed(SEED)
@settings(max_examples=40, deadline=None, database=None)
@given(
    draw=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    outcomes=st.integers(2, 6),
    mixture=st.booleans(),
    padded=st.booleans(),
)
def test_split_halves_are_valid_and_average_back(draw, dim, outcomes, mixture, padded):
    """Each half's spectrum is bit for bit a fresh solve of its whole stack,
    though only the changed effects were solved; an outcome whose witness
    block is zero is the input's effect in both halves, so it averages back
    exactly; an outcome without a block stays zero."""
    rng = np.random.default_rng(draw)
    if mixture:
        k = min(outcomes, dim)
        assume(k >= 2)
        weight = float(rng.uniform(0.2, 0.8))
        p = mix(random_pvm(rng, dim, k), random_pvm(rng, dim, k), weight)
    else:
        p = random_povm(rng, dim, outcomes)
    if padded:
        pairs = list(p)
        pairs.insert(int(rng.integers(0, len(p) + 1)), ("zero", np.zeros((dim, dim))))
        p = validate(dim, pairs)
    v = purity_verdict(p)
    assume(not v.pure)
    untouched = {lab for lab, b in v.witness.items() if not b.any()}
    if not mixture:
        # the lent-row witness moves two outcomes
        assert len(untouched) == len(v.witness.labels) - 2
    split = convex_split(p, v)
    for half in (split.plus, split.minus):
        assert validate(p.dim, list(half)).labels == p.labels
        fresh = _sorted_eig(np.stack(half.effects))
        assert np.array_equal(half.spectrum.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(half.spectrum.eigenvectors, fresh.eigenvectors)
        for lab, e in p:
            if lab in untouched:
                assert np.array_equal(half.effect(lab), e)
            elif lab not in v.witness.labels:
                assert not half.effect(lab).any()
    for lab, e in p:
        avg = (split.plus.effect(lab) + split.minus.effect(lab)) / 2.0
        if lab in untouched:
            assert np.array_equal(avg, e)
        else:
            assert opnorm(avg - e) <= 1e-9


@pytest.mark.parametrize(
    "defect",
    [np.diag([0.0, -0.5]), 0.25 * np.array([[0.0, 1.0], [0.0, 0.0]])],
    ids=["negative", "skew"],
)
def test_split_at_a_stricter_tol_refuses_as_validate_would(defect):
    """An untouched outcome keeps the input's effect, defect included, so a
    split at a tolerance stricter than the input's refuses it by name, as
    validate of the same halves at that tolerance does."""
    eps = DEFAULT_TOL.abs_eps
    p = validate(
        2,
        [("a", 0.4 * np.eye(2)), ("b", np.diag([0.3, 0.6]) - eps * defect), ("c", np.diag([0.3, 0.0]) + eps * defect)],
    )
    v = purity_verdict(p)
    assert not v.witness.block("c").any()
    split = convex_split(p, v)
    strict = Tolerance(abs_eps=0.1 * eps)
    for half in (split.plus, split.minus):
        assert np.array_equal(half.effect("c"), p.effect("c"))
        with pytest.raises(NotPsd, match="effect 'c'"):
            validate(2, list(half), strict)
    with pytest.raises(NotPsd, match="effect 'c'"):
        convex_split(p, v, strict)


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
            blocks = tuple(random_hermitian(rng, n) for n in pmap.block_dims)
            d = BlockHermitian(labels=pmap.labels, blocks=blocks)
            sup = max(opnorm(b) for b in d.blocks)
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


def test_dimension_bound_on_pure_fixtures():
    for name in FIXTURE_NAMES:
        p = fixture(name)
        if purity_verdict(p).pure:
            pmap = build_perturbation_map(p)
            assert pmap.domain_dim <= p.dim**2


def _normalized(dim, lumps):
    """The POVM S^(-1/2) G_i S^(-1/2), S = sum_i G_i, of PSD lumps G_i."""
    w, v = np.linalg.eigh(sum(lumps))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return validate(dim, [(f"o{i}", inv_sqrt @ g @ inv_sqrt) for i, g in enumerate(lumps)])


def _rank_one(dim, vectors):
    return _normalized(dim, [np.outer(v, v.conj()) for v in vectors])


def _wide_case(kind, rng, dim):
    """A POVM whose map has more columns than rows, and whether the map is
    rank deficient by construction (random mixed ranks may be deficient too:
    two effects summing to I commute)."""
    if kind == "mixed-ranks":
        lumps = []
        while sum(np.linalg.matrix_rank(g) ** 2 for g in lumps) <= dim * dim:
            lumps.append(random_psd(rng, dim, int(rng.integers(1, dim + 1))))
        return _normalized(dim, lumps), False
    if kind == "rank-one":
        k = dim * dim + int(rng.integers(1, 4))
        return _rank_one(dim, rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))), False
    if kind == "classical":
        # k > d^2 rank-one diagonal effects: the image is the diagonal matrices
        k = dim * dim + int(rng.integers(1, 4))
        w = rng.uniform(0.1, 1.0, k)
        w[:dim] += 1.0  # every basis vector is covered
        slots = np.concatenate([np.arange(dim), rng.integers(0, dim, k - dim)])
        total = np.bincount(slots, weights=w, minlength=dim)
        effects = [np.diag(np.eye(dim)[s] * wi / total[s]).astype(complex) for s, wi in zip(slots, w)]
        return validate(dim, [(f"o{i}", e) for i, e in enumerate(effects)]), True
    # "direct-sum": random full-rank POVMs on C^d1 and C^d2, each outcome on one
    # summand, so the off-diagonal blocks lie outside the image
    d1 = int(rng.integers(1, dim))
    d2 = dim - d1
    k1, k2 = (max(2, -(-dim * dim // (n * n))) for n in (d1, d2))
    a, b = random_povm(rng, d1, k1), random_povm(rng, d2, k2)
    effects = [np.pad(e, ((0, d2), (0, d2))) for e in a.effects]
    effects += [np.pad(e, ((d1, 0), (d1, 0))) for e in b.effects]
    return validate(dim, [(f"o{i}", e) for i, e in enumerate(effects)]), True


def _near_threshold(rng, dim, target):
    """Rank-one POVM from k > d^2 real vectors with small phases phi * theta.

    Real vectors span only the real symmetric matrices; the phases reach the
    rest at a scale linear in phi, tuned so that s_min / s_max ~ target.
    """
    k = dim * dim + 2
    real = rng.standard_normal((k, dim))
    theta = rng.standard_normal((k, dim))

    def ratio(p):
        s = np.linalg.svd(build_perturbation_map(p).matrix, compute_uv=False)
        return s[-1] / s[0]

    probe = _rank_one(dim, real * np.exp(1e-6j * theta))
    phi = 1e-6 * target / ratio(probe)
    p = _rank_one(dim, real * np.exp(1j * phi * theta))
    assert 0.5 * target < ratio(p) < 2.0 * target
    return p


def _independent_kernel_dim(pmap):
    s = np.linalg.svd(pmap.matrix, compute_uv=False)
    return pmap.domain_dim - int(np.count_nonzero(s > DEFAULT_TOL.rank_rel * s[0]))


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(
    draw=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["mixed-ranks", "rank-one", "classical", "direct-sum", "near-threshold"]),
    dim=st.integers(2, 5),
    exponent=st.floats(-9.0, -7.0),
)
def test_wide_map_kernel_dimension_matches_the_singular_values(draw, kind, dim, exponent):
    """Every wide map is impure; a certified block settles only maps with a
    full-rank effect that are onto with margin, and the kernel dimension is
    the independent count of singular values above the rank threshold either
    way."""
    rng = np.random.default_rng(draw)
    if kind == "near-threshold":
        assume(abs(exponent + 8.0) > 0.05)  # keep clear of the rank threshold itself
        p, deficient = _near_threshold(rng, dim, 10.0**exponent), False
    else:
        p, deficient = _wide_case(kind, rng, dim)
    pmap = build_perturbation_map(p)
    assert pmap.domain_dim > pmap.codomain_dim
    v = purity_verdict(p)
    assert not v.pure and not v.marginal and v.smallest_singular_value == 0.0
    kernel_dim = _independent_kernel_dim(pmap)
    assert v.kernel_dim == kernel_dim
    excess = pmap.domain_dim - pmap.codomain_dim
    certified = _certified_block(pmap, DEFAULT_TOL.rank_rel) is not None
    if deficient:
        assert kernel_dim > excess
    if deficient or kind in ("rank-one", "near-threshold"):  # no full-rank effect
        assert not certified
    if kind == "rank-one":  # generic, so onto with room to spare
        assert kernel_dim == excess
    if certified:
        assert kernel_dim == excess
    assert opnorm(pmap.apply(v.witness)) <= 1e-10


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(
    draw=st.integers(0, 2**32 - 1),
    source=st.sampled_from([*FIXTURE_NAMES, "povm", "pvm", "pvm-mixture"]),
    dim=st.integers(2, 4),
    outcomes=st.integers(2, 4),
)
def test_verdict_invariant_under_unitary_permutation_and_zero_outcomes(draw, source, dim, outcomes):
    """A unitary conjugation, a permutation of the outcomes and zero outcomes
    leave pure and kernel_dim alone.  Which block is certified and which row
    it lends depend on the outcome order, so each impure witness is checked
    on its own: it lies in the kernel and its split validates."""
    rng = np.random.default_rng(draw)
    if source == "povm":
        p = random_povm(rng, dim, outcomes)
    elif source == "pvm":
        p = random_pvm(rng, dim, min(dim, outcomes))
    elif source == "pvm-mixture":
        p = mix(random_pvm(rng, 4, 2), random_pvm(rng, 4, 2), 0.5)
    else:
        p = fixture(source)
    u = random_unitary(rng, p.dim)
    rotated = validate(p.dim, [(lab, u @ e @ u.conj().T) for lab, e in p])
    order = rng.permutation(len(p))
    permuted = validate(p.dim, [(p.labels[i], p.effects[i]) for i in order])
    zero = np.zeros((p.dim, p.dim))
    padded = validate(p.dim, [*p, ("zero-a", zero), ("zero-b", zero)])
    v = purity_verdict(p)
    for q in (p, rotated, permuted, padded):
        w = purity_verdict(q)
        assert (w.pure, w.kernel_dim) == (v.pure, v.kernel_dim)
        if not w.pure:
            assert opnorm(build_perturbation_map(q).apply(w.witness)) <= 1e-10
            split = convex_split(q, w)
            assert split.plus.labels == split.minus.labels == q.labels


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
        assert max(opnorm(b) for b in w.blocks) == pytest.approx(1.0, abs=1e-12)
        assert opnorm(build_perturbation_map(p).apply(w)) <= 1e-10


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
def test_map_agrees_with_hermitian_coordinate_oracle(rng, dim):
    """Real coordinates in, complex map, real coordinates out: same image."""
    p = random_povm(rng, dim, 3)
    pmap = build_perturbation_map(p)
    real = _real_map(pmap)
    for _ in range(10):
        blocks = tuple(random_hermitian(rng, n) for n in pmap.block_dims)
        coords = np.concatenate([_herm_to_coords(b) for b in blocks])
        image = pmap.apply(BlockHermitian(labels=pmap.labels, blocks=blocks))
        assert_allclose(_coords_to_herm(real @ coords, dim), image, atol=1e-12)
        vec = np.concatenate([b.ravel() for b in blocks])
        assert_allclose(pmap.matrix @ vec, image.ravel(), atol=1e-12)
    _assert_same_singular_values(p)


def test_map_singular_values_match_hermitian_coordinates(rng):
    """Complex and real-coordinate singular values agree on every fixture and
    on random POVMs and PVMs with d <= 4."""
    pool = [fixture(name) for name in FIXTURE_NAMES]
    for _ in range(6):
        d = int(rng.integers(1, 5))
        pool.append(random_povm(rng, d, int(rng.integers(1, 5))))
        pool.append(random_pvm(rng, d, int(rng.integers(1, d + 1))))
    for p in pool:
        _assert_same_singular_values(p)


# ---------------------------------------------------------------------------
# the map is built on request, and a wide map without a certified block is
# factored by one QR
# ---------------------------------------------------------------------------


def test_matrix_columns_are_the_outer_products_of_the_block_rows(rng):
    """Column r*n_i+s of block i is vec(|a_ir><a_is|), entry (p, q) being
    conj(A_i[r, p]) A_i[s, q] (to the rounding of one complex product)."""
    pool = [fixture(name) for name in FIXTURE_NAMES]
    pool += [random_povm(rng, 3, 4), random_pvm(rng, 4, 2), _rank_one(2, rng.standard_normal((6, 2)) + 0j)]
    for p in pool:
        pmap = build_perturbation_map(p)
        m = pmap.matrix
        cols = [np.outer(a[r].conj(), a[s]).ravel() for a in pmap.blocks for r in range(len(a)) for s in range(len(a))]
        assert_allclose(m, np.stack(cols, axis=1), rtol=0, atol=1e-15)


def _full_svd_witness(pmap):
    """Independent reference for a wide witness: from a full SVD m = U S Vh,
    the projection of e_j onto the span of the trailing dom - d^2 rows of Vh,
    j the column whose leading d^2 rows have the least weight."""
    cod = pmap.codomain_dim
    vh = np.linalg.svd(pmap.matrix, full_matrices=True)[2]
    j = int(np.argmin(np.sum(np.abs(vh[:cod]) ** 2, axis=0)))
    return _witness(pmap, vh[cod:].conj().T @ vh[cod:, j])


def test_uncertified_wide_witness_is_the_full_svd_projection(rng):
    """Without a certified block, the witness is e_j projected off all d^2
    rows of the thin SVD's Vh, which is the projection onto the trailing rows
    of the full SVD's Vh, to rounding."""
    pool = [_rank_one(3, rng.standard_normal((11, 3)) + 1j * rng.standard_normal((11, 3)))]
    pool += [_wide_case(kind, rng, 4)[0] for kind in ("classical", "direct-sum")]
    pool.append(mix(random_pvm(rng, 3, 3), random_pvm(rng, 3, 3), 0.5))
    pool.append(_near_threshold(rng, 3, 1e-9))
    for p in pool:
        pmap = build_perturbation_map(p)
        assert pmap.domain_dim > pmap.codomain_dim
        assert _certified_block(pmap, DEFAULT_TOL.rank_rel) is None
        expected = _full_svd_witness(pmap)
        v = purity_verdict(p)
        assert v.kernel_dim == _independent_kernel_dim(pmap)
        assert v.witness.labels == expected.labels
        for b, e in zip(v.witness.blocks, expected.blocks):
            assert_allclose(b, e, rtol=0, atol=1e-12)
        assert opnorm(pmap.apply(v.witness)) <= 1e-10


def test_wide_verdict_never_holds_the_full_map(rng):
    p = random_povm(rng, 16, 16)
    pmap = build_perturbation_map(p)
    full_bytes = pmap.codomain_dim * pmap.domain_dim * 16
    assert full_bytes == 256 * 4096 * 16  # 16.8 MB
    tracemalloc.start()
    try:
        v = purity_verdict(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.kernel_dim == pmap.domain_dim - pmap.codomain_dim
    assert peak < full_bytes / 2


# ---------------------------------------------------------------------------
# a full-rank effect's d x d block proves a wide map onto and lends a row
# ---------------------------------------------------------------------------


def _tau(pmap):
    """The threshold of the onto proof: (MARGINAL_FACTOR rank_rel)^2 tr G."""
    return (MARGINAL_FACTOR * DEFAULT_TOL.rank_rel) ** 2 * sum(np.vdot(a, a).real ** 2 for a in pmap.blocks)


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(
    draw=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["full-rank", "mixed-ranks", "direct-sum"]),
    dim=st.integers(2, 6),
)
def test_block_proof_implies_the_gram_bound(draw, kind, dim):
    rng = np.random.default_rng(draw)
    p = random_povm(rng, dim, int(rng.integers(2, 5))) if kind == "full-rank" else _wide_case(kind, rng, dim)[0]
    pmap = build_perturbation_map(p)
    tau = _tau(pmap)
    i = _certified_block(pmap, DEFAULT_TOL.rank_rel)
    if kind == "full-rank":  # effects with spectra far above sqrt(tau)
        assert i == 0
    if kind == "direct-sum":  # no block has full rank
        assert i is None
    if i is not None:
        a = pmap.blocks[i]
        assert np.linalg.eigvalsh(a.conj().T @ a)[0] > np.sqrt(tau)
        m = pmap.matrix
        assert np.linalg.eigvalsh(m @ m.conj().T)[0] > tau


def _two_outcome(rng, dim, factor):
    """{X, I - X} with both smallest eigenvalues at sqrt(tau) * factor.

    X has eigenvalues t, 1 - t and dim - 2 draws from (0.2, 0.8), so tr X,
    and with it tau, does not depend on t.
    """
    middle = rng.uniform(0.2, 0.8, dim - 2)
    tr = 1.0 + float(np.sum(middle))
    tau = (MARGINAL_FACTOR * DEFAULT_TOL.rank_rel) ** 2 * (tr**2 + (dim - tr) ** 2)
    t = np.sqrt(tau) * factor
    u = random_unitary(rng, dim)
    x = (u * np.concatenate([[t], middle, [1.0 - t]])) @ u.conj().T
    x = (x + x.conj().T) / 2.0
    return validate(dim, [("x", x), ("rest", np.eye(dim) - x)]), t


def _count_calls(monkeypatch, *names):
    """Record each call of the named ``np.linalg`` functions by name."""
    calls = []
    for name in names:
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("dim", [2, 4, 7])
@pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
def test_block_proof_at_its_threshold(rng, monkeypatch, dim, factor):
    """Just below sqrt(tau) no block is certified and the verdict takes one
    SVD of the map; just above, the block settles it with no QR or SVD."""
    p, t = _two_outcome(rng, dim, factor)
    pmap = build_perturbation_map(p)
    assert pmap.block_dims == (dim, dim)
    assert all(np.linalg.eigvalsh(a.conj().T @ a)[0] == pytest.approx(t, rel=1e-8) for a in pmap.blocks)
    assert t == pytest.approx(np.sqrt(_tau(pmap)) * factor, rel=1e-12)
    assert _certified_block(pmap, DEFAULT_TOL.rank_rel) == (0 if factor > 1.0 else None)
    kernel_dim = _independent_kernel_dim(pmap)
    calls = _count_calls(monkeypatch, "qr", "svd")
    v = purity_verdict(p)
    assert calls == ([] if factor > 1.0 else ["svd"])
    assert v.kernel_dim == kernel_dim == dim * dim
    assert opnorm(pmap.apply(v.witness)) <= 1e-10
    if factor < 1.0:
        expected = _full_svd_witness(pmap)
        for b, e in zip(v.witness.blocks, expected.blocks):
            assert_allclose(b, e, rtol=0, atol=1e-12)


def test_rank_deficient_effects_take_one_svd(rng, monkeypatch):
    """Rank-one POVMs with k > d^2 and PVM mixtures have no d x d block, so
    their verdicts take one thin SVD of the map, with the independent kernel
    dimension and the full-SVD witness."""
    pool = [_rank_one(d, rng.standard_normal((d * d + 2, d, 2)) @ [1.0, 1j]) for d in (2, 3, 4)]
    pool.append(mix(random_pvm(rng, 3, 3), random_pvm(rng, 3, 3), 0.5))
    pool.append(mix(mix(random_pvm(rng, 4, 4), random_pvm(rng, 4, 4), 0.5), random_pvm(rng, 4, 4), 1.0 / 3.0))
    for p in pool:
        pmap = build_perturbation_map(p)
        assert pmap.domain_dim > pmap.codomain_dim
        assert max(pmap.block_dims) < pmap.dim
        kernel_dim, expected = _independent_kernel_dim(pmap), _full_svd_witness(pmap)
        calls = _count_calls(monkeypatch, "qr", "svd")
        v = purity_verdict(p)
        monkeypatch.undo()
        assert calls == ["svd"]
        assert v.kernel_dim == kernel_dim
        for b, e in zip(v.witness.blocks, expected.blocks):
            assert_allclose(b, e, rtol=0, atol=1e-12)
        assert opnorm(pmap.apply(v.witness)) <= 1e-10


def test_full_rank_wide_verdict_never_builds_the_gram_matrix(rng, monkeypatch):
    """A certified block settles the verdict without the map, a QR or an SVD."""
    povms = [random_povm(rng, d, 8) for d in (16, 32)]
    pmaps = [build_perturbation_map(p) for p in povms]

    def refuse(*args, **kwargs):
        raise AssertionError("a d^2-sized factorization was asked for")

    monkeypatch.setattr(PerturbationMap, "matrix", property(refuse))
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for p, pmap in zip(povms, pmaps):
        v = purity_verdict(p)
        assert not v.pure and v.kernel_dim == pmap.domain_dim - pmap.codomain_dim
        assert opnorm(pmap.apply(v.witness)) <= 1e-10


@seed(SEED)
@settings(max_examples=40, deadline=None, database=None)
@given(draw=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), outcomes=st.integers(2, 5))
def test_lent_row_is_a_rank_one_kernel_direction(draw, dim, outcomes):
    """The closed-form witness has exactly two nonzero blocks: -y y* on the
    certified block i and |0><0| on the outcome j whose leading row a it
    lends, both over max(1, ||y||^2) up to sign.  Its residual vanishes, and
    the split halves differ in outcome j by 2 ||a||^2 / max(1, ||y||^2) >=
    2 min(||a||^2, lambda_min(F_i))."""
    rng = np.random.default_rng(draw)
    p = random_povm(rng, dim, outcomes)
    pmap = build_perturbation_map(p)
    i = _certified_block(pmap, DEFAULT_TOL.rank_rel)
    assert i is not None
    v = purity_verdict(p)
    nonzero = [j for j, b in enumerate(v.witness.blocks) if np.any(b != 0.0)]
    assert len(nonzero) == 2 and i in nonzero
    j = nonzero[1 - nonzero.index(i)]
    a = pmap.blocks[j][0]
    assert all(np.vdot(b[0], b[0]).real <= np.vdot(a, a).real for k, b in enumerate(pmap.blocks) if k != i)
    y = np.linalg.solve(pmap.blocks[i].T, a)
    scale = max(1.0, float(np.vdot(y, y).real))
    sign = 1.0 if v.witness.blocks[j][0, 0].real > 0.0 else -1.0
    dj = np.zeros_like(v.witness.blocks[j])
    dj[0, 0] = sign / scale
    assert_allclose(v.witness.blocks[j], dj, rtol=0, atol=1e-15)
    assert_allclose(v.witness.blocks[i], -sign * np.outer(y.conj(), y) / scale, rtol=0, atol=1e-12)
    assert opnorm(pmap.apply(v.witness)) <= 1e-10
    split = convex_split(p, v)
    lab = pmap.labels[j]
    gap = opnorm(split.plus.effect(lab) - split.minus.effect(lab))
    norm_a = float(np.vdot(a, a).real)
    assert gap == pytest.approx(2.0 * norm_a / scale, rel=1e-9)
    fi = pmap.blocks[i].conj().T @ pmap.blocks[i]
    assert gap >= 2.0 * min(norm_a, np.linalg.eigvalsh(fi)[0]) * (1.0 - 1e-9)
