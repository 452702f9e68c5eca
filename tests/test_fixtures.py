import numpy as np
import pytest
from numpy.testing import assert_allclose

from povm_purity.fixtures import FIXTURE_NAMES, fixture
from povm_purity.linalg import opnorm
from povm_purity.povm import is_pvm, mix, validate

SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def test_fixture_names():
    assert FIXTURE_NAMES == (
        "computational-pvm-d2",
        "coin",
        "trine",
        "qubit-sic",
        "mixed-basis-4",
        "smeared-pvm-d2",
    )
    with pytest.raises(KeyError):
        fixture("no-such-povm")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_fixture_validates(name):
    p = fixture(name)
    assert all(opnorm(e - e.conj().T) <= 1e-10 and np.linalg.eigvalsh(e)[0] >= -1e-10 for e in p.effects)
    assert opnorm(sum(p.effects) - np.eye(p.dim)) <= 1e-12
    validate(p.dim, list(p))  # revalidation is a no-op


def test_pvm_flags():
    assert is_pvm(fixture("computational-pvm-d2"))
    for name in ("coin", "trine", "qubit-sic", "mixed-basis-4", "smeared-pvm-d2"):
        assert not is_pvm(fixture(name)), name


def test_trine_effects_match_bloch_angles():
    p = fixture("trine")
    for k, lab in enumerate(("t0", "t1", "t2")):
        phi = np.array([1.0, np.exp(2j * np.pi * k / 3)]) / np.sqrt(2.0)
        assert_allclose(p.effect(lab), (2.0 / 3.0) * np.outer(phi, phi.conj()), atol=1e-15)


def test_qubit_sic_tetrahedron_overlaps():
    p = fixture("qubit-sic")
    vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    for (lab, eff), r in zip(p, vertices):
        bloch = r[0] * SIGMA["x"] + r[1] * SIGMA["y"] + r[2] * SIGMA["z"]
        assert_allclose(eff, (np.eye(2) + bloch) / 4.0, atol=1e-15)
    # pairwise trace overlaps: 1/4 on the diagonal, 1/12 off it
    for i in range(4):
        for j in range(4):
            expected = 0.25 if i == j else 1.0 / 12.0
            got = np.real(np.trace(p.effects[i] @ p.effects[j]))
            assert got == pytest.approx(expected, abs=1e-14)


def test_mixed_basis_structure():
    p = fixture("mixed-basis-4")
    assert p.labels == ("z0", "z1", "x+", "x-")
    dependence = p.effects[0] + p.effects[1] - p.effects[2] - p.effects[3]
    assert opnorm(dependence) <= 1e-15
    assert_allclose(p.effect("z0") + p.effect("z1"), np.eye(2) / 2, atol=1e-15)


def test_smeared_is_coin_mixed_with_computational():
    comp = fixture("computational-pvm-d2")
    coin = validate(2, [("0", np.eye(2) / 2), ("1", np.eye(2) / 2)])
    assert_allclose(
        np.stack(mix(comp, coin, 0.5).effects),
        np.stack(fixture("smeared-pvm-d2").effects),
        atol=1e-15,
    )
