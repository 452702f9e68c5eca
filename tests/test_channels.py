import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.channels import (
    apply_dual,
    choi_dual_apply,
    choi_from_kraus,
    connection_feasible,
    dilated_dual_apply,
    gram_from_kraus,
    kraus_channel,
    lift_to_dilation,
    preprocess_from_pvm,
)
from povm_purity.dilation import build_dilation
from povm_purity.errors import (
    DimensionMismatch,
    InvalidBudget,
    LabelMismatch,
    NotDominated,
    NotPvm,
    NotTracePreserving,
)
from povm_purity.fixtures import fixture
from povm_purity.linalg import hermitize, is_psd, opnorm
from povm_purity.povm import validate
from povm_purity.rand import random_channel, random_povm, random_pvm

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])


def test_kraus_channel_validation():
    with pytest.raises(DimensionMismatch):
        kraus_channel(2, 2, [np.eye(3)])
    with pytest.raises(NotTracePreserving):
        kraus_channel(2, 2, [np.eye(2) * 0.5])
    with pytest.raises(NotTracePreserving):
        kraus_channel(2, 2, [])
    ch = kraus_channel(2, 2, [np.eye(2)])
    assert ch.tp_defect() <= 1e-15


def test_apply_dual_identity_channel(rng):
    ch = kraus_channel(3, 3, [np.eye(3)])
    b = hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert_allclose(apply_dual(ch, b), b, atol=0)
    with pytest.raises(DimensionMismatch):
        apply_dual(ch, np.eye(2))


def test_apply_dual_damping_example():
    """Kraus {|0><0|, |0><1|} pulls |0><0| back to the identity."""
    ops = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    ch = kraus_channel(2, 2, ops)
    assert_allclose(apply_dual(ch, KET0), np.eye(2), atol=1e-15)


def test_apply_dual_unital_and_positive(rng):
    for _ in range(10):
        din, dout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        ch = random_channel(rng, din, dout)
        assert opnorm(apply_dual(ch, np.eye(dout)) - np.eye(din)) <= 1e-12
        g = rng.standard_normal((dout, dout)) + 1j * rng.standard_normal((dout, dout))
        assert is_psd(apply_dual(ch, g @ g.conj().T))


def test_preprocess_computational_to_smeared():
    comp, smeared = fixture("computational-pvm-d2"), fixture("smeared-pvm-d2")
    ch = preprocess_from_pvm(comp, smeared)
    assert ch.in_dim == 2 and ch.out_dim == 2
    # deterministic construction: |phi_i><d_k| with phi_i = e_i and the d_k
    # the weighted eigenvectors of the smeared effects, heaviest first
    r3 = np.sqrt(3.0) / 2.0
    expected = [
        [[r3, 0.0], [0.0, 0.0]],
        [[0.0, 0.5], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, r3]],
        [[0.0, 0.0], [0.5, 0.0]],
    ]
    assert len(ch.kraus) == 4
    for got, want in zip(ch.kraus, expected):
        assert_allclose(got, want, atol=1e-14)
    for (_, proj), eff in zip(comp, smeared.effects):
        assert opnorm(apply_dual(ch, proj) - eff) <= 1e-14
    assert ch.tp_defect() <= 1e-14


def test_preprocess_identity_case():
    comp = fixture("computational-pvm-d2")
    ch = preprocess_from_pvm(comp, comp)
    for _, proj in comp:
        assert opnorm(apply_dual(ch, proj) - proj) <= 1e-14


def test_preprocess_rejects_bad_inputs():
    trine, smeared = fixture("trine"), fixture("smeared-pvm-d2")
    with pytest.raises(NotPvm):
        preprocess_from_pvm(trine, trine)
    padded_pvm = validate(
        2,
        [("a", np.diag([1.0, 0.0])), ("b", np.diag([0.0, 1.0])), ("c", np.zeros((2, 2)))],
    )
    target = validate(
        2,
        [("a", np.eye(2) / 3), ("b", np.eye(2) / 3), ("c", np.eye(2) / 3)],
    )
    with pytest.raises(NotDominated):
        preprocess_from_pvm(padded_pvm, target)


def test_preprocess_skips_vanishing_targets():
    comp = fixture("computational-pvm-d2")
    target = validate(2, [("0", np.eye(2)), ("1", np.zeros((2, 2)))])
    ch = preprocess_from_pvm(comp, target)
    assert len(ch.kraus) == 2  # only the rank-2 first effect contributes
    assert opnorm(apply_dual(ch, comp.effect("1"))) <= 1e-14


def test_preprocess_random_pairs(rng):
    """PVM source, arbitrary same-label target: exact pullback, dims may differ."""
    for _ in range(10):
        d = int(rng.integers(2, 7))
        dp = int(rng.integers(2, 7))
        n = int(rng.integers(2, min(d, 4) + 1))
        p = random_pvm(rng, d, n)
        q = random_povm(rng, dp, n)
        q = validate(dp, list(zip(p.labels, q.effects)))
        ch = preprocess_from_pvm(p, q)
        assert ch.tp_defect() <= 1e-10
        dev = max(opnorm(apply_dual(ch, e) - f) for e, f in zip(p.effects, q.effects))
        assert dev <= 1e-10
        assert gram_from_kraus(ch).gram_defect() <= 1e-9


def test_gram_vectors_identity_channel():
    ch = kraus_channel(2, 2, [np.eye(2)])
    v = gram_from_kraus(ch)
    assert (v.n_count, v.s_count, v.aux_dim) == (2, 2, 1)
    expected = np.eye(2).reshape(2, 2, 1)
    assert_allclose(v.vectors, expected, atol=0)
    assert v.gram_defect() <= 1e-15


def test_gram_vectors_of_random_channels(rng):
    for _ in range(10):
        ch = random_channel(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        v = gram_from_kraus(ch)
        assert v.aux_dim == len(ch.kraus)
        assert v.gram_defect() <= 1e-9
        overlaps = v.pair_overlaps()
        assert overlaps.shape == (v.n_count, v.s_count, v.n_count, v.s_count)


def test_gram_vectors_padding():
    ch = kraus_channel(2, 2, [np.eye(2)])
    v = gram_from_kraus(ch, aux_dim=5)
    assert v.aux_dim == 5
    assert v.gram_defect() <= 1e-15


def test_choi_roundtrip(rng):
    for _ in range(5):
        din, dout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ch = random_channel(rng, din, dout)
        choi = choi_from_kraus(ch)
        assert choi.min_eigenvalue() >= -1e-10
        assert choi.tp_defect() <= 1e-10
        for _ in range(10):
            b = hermitize(
                rng.standard_normal((dout, dout)) + 1j * rng.standard_normal((dout, dout))
            )
            assert opnorm(choi_dual_apply(choi, b) - apply_dual(ch, b)) <= 1e-9
    with pytest.raises(DimensionMismatch):
        choi_dual_apply(choi_from_kraus(kraus_channel(2, 2, [np.eye(2)])), np.eye(3))


def test_feasible_identity_pair():
    p = fixture("trine")
    res = connection_feasible(p, p, max_iter=2000)
    assert res.feasible
    assert res.residual <= 1e-7
    assert res.choi is not None
    assert res.choi.min_eigenvalue() >= -1e-7


def test_feasible_computational_to_smeared():
    comp, smeared = fixture("computational-pvm-d2"), fixture("smeared-pvm-d2")
    res = connection_feasible(comp, smeared)
    assert res.feasible
    # the certificate's dual action reproduces the targets
    for e, f in zip(comp.effects, smeared.effects):
        assert opnorm(choi_dual_apply(res.choi, e) - f) <= 1e-7
    assert res.choi.tp_defect() <= 1e-6


def test_infeasible_coin_to_computational():
    """Any unital dual fixes I/2, so no channel maps the coin to a PVM."""
    coin, comp = fixture("coin"), fixture("computational-pvm-d2")
    res = connection_feasible(coin, comp, max_iter=500)
    assert not res.feasible
    assert res.choi is None
    assert res.residual > 1e-3
    assert res.iterations == 500
    assert len(res.residual_history) == 5


def test_feasible_rejects_negative_budget():
    coin, comp = fixture("coin"), fixture("computational-pvm-d2")
    with pytest.raises(InvalidBudget):
        connection_feasible(coin, comp, max_iter=-1)
    assert connection_feasible(coin, comp, max_iter=0).iterations == 0


def test_feasible_label_mismatch():
    with pytest.raises(LabelMismatch):
        connection_feasible(fixture("trine"), fixture("computational-pvm-d2"))


def test_feasible_on_pushforward_pairs(rng):
    """Pairs (P, dual(P)) generated by an actual channel are always feasible."""
    for _ in range(5):
        d = int(rng.integers(2, 4))
        dp = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        ch = random_channel(rng, dp, d)
        p = random_povm(rng, d, n)
        q = validate(dp, [(lab, apply_dual(ch, e)) for lab, e in p])
        res = connection_feasible(p, q)
        assert res.feasible, (d, dp, n, res.residual)
        assert res.residual <= 1e-7


def test_lift_identities_for_constructor_channels(rng):
    comp, smeared = fixture("computational-pvm-d2"), fixture("smeared-pvm-d2")
    ch = preprocess_from_pvm(comp, smeared)
    dil = build_dilation(comp)
    # PVM source: the dilation is unitary, so the lift is exact to rounding
    assert lift_to_dilation(ch, dil, smeared, trials=100, rng=rng) <= 1e-12


def test_lift_block_projections_reproduce_targets(rng):
    p = random_pvm(rng, 4, 3)
    q = random_povm(rng, 3, 3)
    q = validate(3, list(zip(p.labels, q.effects)))
    ch = preprocess_from_pvm(p, q)
    dil = build_dilation(p)
    v = gram_from_kraus(ch)
    for lab, target in q:
        lo, hi = dil.block_index[lab]
        proj = np.zeros((dil.total_dim, dil.total_dim), dtype=complex)
        proj[lo:hi, lo:hi] = np.eye(hi - lo)
        assert opnorm(dilated_dual_apply(v, dil, proj) - target) <= 1e-9
    assert lift_to_dilation(ch, dil, q, trials=50, rng=rng) <= 1e-9


def test_lift_dimension_checks(rng):
    comp, smeared = fixture("computational-pvm-d2"), fixture("smeared-pvm-d2")
    ch = preprocess_from_pvm(comp, smeared)
    wrong_dil = build_dilation(fixture("trine"))
    with pytest.raises((DimensionMismatch, LabelMismatch)):
        lift_to_dilation(ch, wrong_dil, smeared)
    dil = build_dilation(comp)
    with pytest.raises(DimensionMismatch):
        dilated_dual_apply(gram_from_kraus(ch), dil, np.eye(5))
