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
from povm_purity.fixtures import fixture
from povm_purity.povm import (
    is_pvm,
    mix,
    povm_from_dict,
    povm_to_dict,
    support_dominates,
    validate,
)

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
