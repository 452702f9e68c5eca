import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.errors import (
    DimensionMismatch,
    DuplicateLabel,
    InvalidMixWeight,
    LabelMismatch,
    NonFinite,
    NotNormalized,
    NotPsd,
    SchemaError,
)
from povm_purity.fixtures import FIXTURE_NAMES, fixture
from povm_purity.linalg import DEFAULT_TOL, _sorted_eig, opnorm
from povm_purity.povm import (
    NORMALIZATION_EPS,
    PVM_EPS,
    is_pvm,
    mix,
    povm_from_dict,
    povm_to_dict,
    support_dominates,
    validate,
)
from povm_purity.rand import random_hermitian, random_povm, random_psd, random_pvm

ZERO = np.array([[1.0, 0.0], [0.0, 0.0]])
ONE = np.array([[0.0, 0.0], [0.0, 1.0]])
PLUS = np.full((2, 2), 0.5)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]])


def comp_pvm():
    return validate(2, [("0", ZERO), ("1", ONE)])


def hadamard_pvm():
    return validate(2, [("0", PLUS), ("1", MINUS)])


def test_validate_computational_pvm():
    p = comp_pvm()
    assert p.dim == 2
    assert p.labels == ("0", "1")
    assert len(p) == 2
    assert_allclose(p.effect("1"), ONE, atol=0)
    with pytest.raises(KeyError):
        p.effect("missing")


def test_validate_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        validate(2, [("a", np.eye(2)), ("b", np.eye(2))])


def test_normalization_is_judged_in_operator_norm():
    # I + eps(1 - 1e-3) I_4 has operator-norm residual below NORMALIZATION_EPS
    # and Frobenius residual twice it: accepted, as the spectral norm decides
    eps = NORMALIZATION_EPS
    near = np.eye(4) * (1.0 + eps * (1 - 1e-3))
    assert validate(4, [("a", near)]).dim == 4
    # a rejection reports the spectral residual, not the Frobenius one
    with pytest.raises(NotNormalized, match=r"residual 2\.000e-09 > 1e-09"):
        validate(4, [("a", np.eye(4) + np.diag([2 * eps, eps / 2, eps / 2, eps / 2]))])


def test_validate_rejects_negative_effect():
    with pytest.raises(NotPsd, match="'a'"):
        validate(2, [("a", np.diag([1.1, -0.1])), ("b", np.diag([-0.1, 1.1]))])


def test_validate_rejects_shape_and_duplicates():
    with pytest.raises(DimensionMismatch):
        validate(2, [("a", np.eye(3))])
    with pytest.raises(DuplicateLabel):
        validate(2, [("a", ZERO), ("a", ONE)])
    with pytest.raises(NotNormalized):
        validate(2, [])
    with pytest.raises(DimensionMismatch):
        validate(0, [("a", np.zeros((0, 0)))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_validate_names_a_non_finite_effect(bad):
    # a NaN or infinity would reach the eigensolver, which raises LinAlgError on it
    effect = ONE.astype(complex)
    effect[0, 1] = bad
    with pytest.raises(NonFinite, match="'1'"):
        validate(2, [("0", ZERO), ("1", effect)])
    assert issubclass(NonFinite, ValueError)


def test_effects_are_frozen():
    p = comp_pvm()
    with pytest.raises(ValueError):
        p.effects[0][0, 0] = 5.0


def test_is_pvm():
    assert is_pvm(comp_pvm())
    assert not is_pvm(fixture("trine"))  # (2/3)^2 != 2/3
    assert not is_pvm(fixture("coin"))
    assert not is_pvm(fixture("smeared-pvm-d2"))


def test_mix_arithmetic():
    m = mix(comp_pvm(), hadamard_pvm(), 0.5)
    assert_allclose(m.effect("0"), [[0.75, 0.25], [0.25, 0.25]], atol=1e-15)


def test_mix_with_itself_is_identity():
    p = fixture("trine")
    m = mix(p, p, 0.5)
    for lab, eff in p:
        assert_allclose(m.effect(lab), eff, atol=0)


def test_mix_rejects_bad_inputs():
    p, q = comp_pvm(), hadamard_pvm()
    for a in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidMixWeight):
            mix(p, q, a)
    relabeled = validate(2, [("x", PLUS), ("y", MINUS)])
    with pytest.raises(LabelMismatch):
        mix(p, relabeled, 0.5)
    bigger = validate(3, [("0", np.diag([1.0, 0, 0])), ("1", np.diag([0, 1.0, 1.0]))])
    with pytest.raises(DimensionMismatch):
        mix(p, bigger, 0.5)


def test_mix_of_distinct_pvms_is_not_projective():
    m = mix(comp_pvm(), hadamard_pvm(), 0.5)
    assert not is_pvm(m)


def test_support_dominates():
    trine = fixture("trine")
    padded = validate(2, [("t0", ZERO), ("t1", ONE), ("t2", np.zeros((2, 2)))])
    assert not support_dominates(padded, trine)
    assert support_dominates(trine, padded)  # trine has no vanishing effect
    assert support_dominates(padded, padded)
    with pytest.raises(LabelMismatch):
        support_dominates(trine, comp_pvm())


def test_support_dominates_transitive_on_fixtures():
    comp, smeared = fixture("computational-pvm-d2"), fixture("smeared-pvm-d2")
    assert support_dominates(comp, smeared)
    assert support_dominates(smeared, comp)


def test_povm_dict_roundtrip():
    p = fixture("qubit-sic")
    obj = povm_to_dict(p)
    q = povm_from_dict(obj)
    assert q.dim == p.dim and q.labels == p.labels
    for lab, eff in p:
        assert_allclose(q.effect(lab), eff, atol=0)


def test_povm_from_dict_schema_paths():
    good = povm_to_dict(comp_pvm())

    with pytest.raises(SchemaError) as exc:
        povm_from_dict({"outcomes": good["outcomes"]})
    assert exc.value.path == "/dim"

    with pytest.raises(SchemaError) as exc:
        povm_from_dict({"dim": 2})
    assert exc.value.path == "/outcomes"

    with pytest.raises(SchemaError) as exc:
        povm_from_dict({**good, "extra": 1})
    assert exc.value.path == "/extra"

    bad = povm_to_dict(comp_pvm())
    bad["outcomes"][0]["effect"] = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(SchemaError) as exc:
        povm_from_dict(bad)
    assert exc.value.path.startswith("/outcomes/0/effect")

    with pytest.raises(SchemaError) as exc:
        povm_from_dict({"dim": True, "outcomes": good["outcomes"]})
    assert exc.value.path == "/dim"

    nolabel = povm_to_dict(comp_pvm())
    del nolabel["outcomes"][1]["label"]
    with pytest.raises(SchemaError) as exc:
        povm_from_dict(nolabel)
    assert exc.value.path == "/outcomes/1/label"


@pytest.mark.parametrize("mutate, path, message", [
    (lambda good: [good], "", "expected a JSON object"),
    (lambda good: {**good, "outcomes": []}, "/outcomes", "expected a non-empty array"),
    (lambda good: {**good, "outcomes": {"0": good["outcomes"][0]}}, "/outcomes", "expected a non-empty array"),
    (lambda good: {**good, "outcomes": [good["outcomes"][0], "1"]}, "/outcomes/1",
     "expected an object with 'label' and 'effect'"),
    (lambda good: {**good, "outcomes": [{**good["outcomes"][0], "label": 0}]}, "/outcomes/0/label",
     "expected a string"),
    (lambda good: {**good, "outcomes": [good["outcomes"][0], {"label": "1"}]}, "/outcomes/1/effect", "missing"),
])
def test_povm_from_dict_refusals_name_their_path(mutate, path, message):
    with pytest.raises(SchemaError) as exc:
        povm_from_dict(mutate(povm_to_dict(comp_pvm())))
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {message}"


def test_povm_from_dict_revalidates():
    obj = povm_to_dict(comp_pvm())
    obj["outcomes"][0]["effect"][0][0] = [2.0, 0.0]  # breaks normalization
    with pytest.raises(NotNormalized):
        povm_from_dict(obj)


def test_validate_checks_each_effect_in_order_shape_before_positivity():
    """A stacked positivity check keeps the order of the per-effect checks."""
    negative, misshapen = np.diag([1.5, -0.5]), np.eye(3)
    with pytest.raises(NotPsd) as exc:
        validate(2, [("a", negative), ("b", misshapen)])
    assert str(exc.value) == "effect 'a' is not positive semidefinite within tolerance"
    with pytest.raises(DimensionMismatch) as exc:
        validate(2, [("a", misshapen), ("b", negative)])
    assert str(exc.value) == "effect 'a' has shape (3, 3), expected (2, 2)"
    with pytest.raises(NotPsd) as exc:
        validate(2, [("a", ZERO), ("b", [[0.0, 1.0], [0.0, 1.0]]), ("c", negative)])
    assert str(exc.value) == "effect 'b' is not positive semidefinite within tolerance"
    with pytest.raises(DimensionMismatch) as exc:
        validate(2, [(0, ZERO), (1, ONE), (2, misshapen)])
    assert str(exc.value) == "effect 2 has shape (3, 3), expected (2, 2)"


EPS = DEFAULT_TOL.abs_eps


def _positive(m) -> bool:
    """The positivity oracle, one effect at a time: Hermitian within abs_eps
    with smallest eigenvalue >= -abs_eps."""
    m = np.asarray(m, dtype=complex)
    return opnorm(m - m.conj().T) <= EPS and np.linalg.eigvalsh((m + m.conj().T) / 2)[0] >= -EPS


def test_validate_refuses_non_hermitian_and_negative_effects():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    accepted = [
        [("1", np.eye(2))],
        [("0", np.zeros((3, 3))), ("1", np.eye(3))],
        [("a", np.diag([1.0 + 0.5 * EPS, 0.5])), ("b", np.diag([-0.5 * EPS, 0.5]))],
        [("a", PLUS + 0.4 * EPS * skew), ("b", MINUS - 0.4 * EPS * skew)],
    ]
    for outcomes in accepted:
        p = validate(len(outcomes[0][1]), outcomes)
        assert p.spectrum.eigenvalues[:, -1].min() >= -EPS
    assert not validate(3, accepted[1]).spectrum.eigenvalues[0].any()
    refused = [
        ("b", [("a", np.diag([1.0 + 2 * EPS, 0.5])), ("b", np.diag([-2 * EPS, 0.5]))]),
        # a PSD Hermitian part, [[0.5, 0.25], [0.25, 0.5]], does not excuse the skew part
        ("a", [("a", 0.5 * np.eye(2) + 0.5 * skew), ("b", 0.5 * np.eye(2) - 0.5 * skew)]),
        ("a", [("a", PLUS + 2 * EPS * skew), ("b", MINUS - 2 * EPS * skew)]),
    ]
    for label, outcomes in refused:
        with pytest.raises(NotPsd, match=f"'{label}'"):
            validate(2, outcomes)


def test_stacked_positivity_is_the_per_effect_check(rng):
    """validate's one eigendecomposition of the stack refuses the first effect
    that fails the per-effect check, and keeps _sorted_eig of the stack."""
    members = [
        np.zeros((4, 4)),
        np.diag([0.5, 0.5, 0.5, 0.0]),
        random_psd(rng, 4, rank=2),
        random_hermitian(rng, 4),
        np.diag([1.0, 0.3, -0.5 * EPS, 0.0]),
        np.diag([1.0, 0.3, -2 * EPS, 0.0]),
        np.diag([1.0, 1.0, -1e-3, 0.0]),
        np.triu(np.ones((4, 4))),
        rng.standard_normal((4, 4)),
    ]
    verdicts = [_positive(m) for m in members]
    assert verdicts == [True, True, True, False, True, False, False, False, False]
    for m, ok in zip(members, verdicts):
        with pytest.raises(NotNormalized if ok else NotPsd):
            validate(4, [("m", m)])
    for _ in range(10):
        order = rng.permutation(len(members))
        first = next(int(j) for j in order if not verdicts[j])
        with pytest.raises(NotPsd, match=f"effect '{first}'"):
            validate(4, [(str(j), members[j]) for j in order])
        with pytest.raises(NotNormalized):
            validate(4, [(str(j), members[j]) for j in order if verdicts[j]])
    p = random_povm(rng, 4, 5)
    stacked = _sorted_eig(np.stack(p.effects))
    assert np.array_equal(p.spectrum.eigenvalues, stacked.eigenvalues)
    assert np.array_equal(p.spectrum.eigenvectors, stacked.eigenvectors)
    with pytest.raises(ValueError):
        p.spectrum.eigenvalues[0, 0] = 5.0


def _padded(p, zeros, n):
    """``p`` with zero effects at the positions ``zeros``, labelled o0 .. o{n-1}."""
    rest = iter(p.effects)
    return validate(p.dim, [(f"o{i}", np.zeros((p.dim,) * 2) if i in zeros else next(rest)) for i in range(n)])


def _far_from(values, threshold):
    return all(v <= threshold / 10 or v >= threshold * 10 for v in values)


def test_is_pvm_and_support_dominates_agree_with_the_operator_norms(rng):
    """The spectral tests read the kept eigenvalues; away from the thresholds
    they decide as ||E^2 - E|| <= PVM_EPS and ||E|| <= abs_eps did."""
    pool = [fixture(name) for name in FIXTURE_NAMES]
    # every effect's largest eigenvalue is 1, yet neither is a projection
    pool.append(validate(3, [("o0", np.diag([1.0, 0.5, 0.0])), ("o1", np.diag([0.0, 0.5, 1.0]))]))
    for _ in range(30):
        d, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        pvm = random_pvm(rng, d, min(k, d))
        pool += [random_povm(rng, d, k), pvm, mix(pvm, random_pvm(rng, d, len(pvm)), rng.uniform(0.2, 0.8))]
    for _ in range(30):
        d, k, n = int(rng.integers(1, 5)), int(rng.integers(1, 4)), 5
        for source in (random_pvm(rng, d, min(k, d)), random_povm(rng, d, k)):
            zeros = set(rng.choice(n, size=n - len(source), replace=False).tolist())
            pool.append(_padded(source, zeros, n))
    sharp = [is_pvm(p) for p in pool]
    for p, verdict in zip(pool, sharp):
        defects = [opnorm(e @ e - e) for e in p.effects]
        assert _far_from(defects, PVM_EPS)
        assert verdict == all(x <= PVM_EPS for x in defects)
    assert True in sharp and False in sharp
    padded = [p for p in pool if len(p) == 5]
    dominated = []
    for p, q in zip(padded, padded[1:] + padded[:1]):
        norms_p, norms_q = [opnorm(e) for e in p.effects], [opnorm(f) for f in q.effects]
        assert _far_from(norms_p + norms_q, EPS)
        dominated.append(support_dominates(p, q))
        assert dominated[-1] == all(g <= EPS for f, g in zip(norms_p, norms_q) if f <= EPS)
    assert True in dominated and False in dominated
