import dataclasses

import numpy as np
import pytest
from conftest import SEED
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from povm_purity.channels import GramVectors
from povm_purity.errors import EmptyFamily, GridTooCoarse, IndexOutOfRange
from povm_purity.linalg import opnorm
from povm_purity.phase import (
    MAX_LEVEL,
    MIN_GRID,
    FourierFamily,
    _dyadic_toeplitz,
    fourier_family,
    fourier_span_certificate,
    geometric_tail_family,
    phase_truncation_demo,
    single_mode_family,
    truncate_family,
)

# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_fourier_family_cleanup():
    fam = fourier_family([{1: 1.0, 2: 0.0, -3: 2j}])
    assert fam.members == ({1: (1 + 0j), -3: 2j},)
    assert fam.truncation_order == 3
    with pytest.raises(EmptyFamily):
        fourier_family([])


def test_single_mode_family():
    fam = single_mode_family(3)
    assert fam.members == ({1: (1 + 0j)}, {2: (1 + 0j)}, {3: (1 + 0j)})
    assert single_mode_family(2, start=5).members == ({5: (1 + 0j)}, {6: (1 + 0j)})
    with pytest.raises(EmptyFamily):
        single_mode_family(0)


def test_geometric_tail_family():
    fam = geometric_tail_family(2, ratio=0.5, support=16)
    for n, m in enumerate(fam.members, start=1):
        assert max(abs(s) for s in m) == 16
        assert abs(sum(abs(v) ** 2 for v in m.values()) - 1.0) <= 1e-12
        # peak sits at the member's own mode index
        assert max(m, key=lambda s: abs(m[s])) == n
    assert fam.members[0] != fam.members[1]
    # vanishing ratio recovers the canonical single-mode members
    sharp = geometric_tail_family(2, ratio=1e-9, support=16)
    for n, m in enumerate(sharp.members, start=1):
        assert abs(m[n] - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="ratio"):
        geometric_tail_family(2, ratio=1.5)
    with pytest.raises(EmptyFamily):
        geometric_tail_family(0)


def test_truncate_family():
    fam = fourier_family([{0: 1.0, 3: 0.5, -5: 0.25}])
    cut = truncate_family(fam, 3)
    assert cut.members == ({0: (1 + 0j), 3: (0.5 + 0j)},)
    emptied = truncate_family(single_mode_family(1, start=4), 2)
    assert emptied.members == ({},)
    assert emptied.truncation_order == 0
    with pytest.raises(IndexOutOfRange):
        truncate_family(fam, -1)


# ---------------------------------------------------------------------------
# trigonometric span certificate
# ---------------------------------------------------------------------------


def test_canonical_phase_certifies_to_order_n_minus_1():
    fam = single_mode_family(4)  # e^{-i theta} .. e^{-4 i theta}
    assert fourier_span_certificate(fam, 3).certified
    cert = fourier_span_certificate(fam, 4)
    assert not cert.certified
    assert cert.missing_degrees == (-4, 4)


def test_certificate_missing_set_is_symmetric():
    fam = single_mode_family(2)
    cert = fourier_span_certificate(fam, 3)
    assert cert.missing_degrees == (-3, -2, 2, 3)


def test_single_member_covers_only_zero():
    fam = fourier_family([{0: 1.0}])
    assert fourier_span_certificate(fam, 0).certified
    cert = fourier_span_certificate(fam, 1)
    assert cert.missing_degrees == (-1, 1)


def test_repeated_support_adds_no_coverage():
    fam = fourier_family([{1: 1.0}, {1: 1j}])
    cert = fourier_span_certificate(fam, 1)
    assert cert.missing_degrees == (-1, 1)


def test_proportional_members_yield_rank_one_products():
    # every product row is proportional to the same frequency profile, so
    # only the zero slot can be covered no matter how many members enter
    profile = {s: 0.5 ** abs(s) for s in range(-8, 9)}
    fam = fourier_family([profile, {s: 0.25 * v for s, v in profile.items()}])
    cert = fourier_span_certificate(fam, 2)
    assert cert.missing_degrees == (-2, -1, 1, 2)


def test_mixed_supports_cover_their_differences():
    fam = fourier_family([{0: 1.0}, {1: 1.0}])
    assert fourier_span_certificate(fam, 1).certified
    cert = fourier_span_certificate(fam, 2)
    assert cert.missing_degrees == (-2, 2)


def test_certificate_errors():
    with pytest.raises(IndexOutOfRange):
        fourier_span_certificate(single_mode_family(2), -1)


# ---------------------------------------------------------------------------
# truncation demo
# ---------------------------------------------------------------------------


def test_demo_rejects_bad_grids():
    fam = single_mode_family(2)
    with pytest.raises(GridTooCoarse):
        phase_truncation_demo(fam, 4, 8)
    with pytest.raises(GridTooCoarse):
        phase_truncation_demo(fam, 4, 512)
    with pytest.raises(GridTooCoarse):
        phase_truncation_demo(fam, 4, MIN_GRID + 1)
    with pytest.raises(IndexOutOfRange):
        phase_truncation_demo(fam, -1, MIN_GRID)


def test_single_mode_truncation_is_exact():
    fam = single_mode_family(3)
    report = phase_truncation_demo(fam, 4, MIN_GRID)
    assert report.sup_error <= 1e-10
    assert report.unital_defect <= 1e-10
    assert report.truncated_gram.shape == (1 << MAX_LEVEL, 3, 3)
    assert report.gram_vectors.vectors.shape == (3, 9, 1)
    # member n sits at frequency n+1, stored at slot (n+1) + order
    for n in range(3):
        assert report.gram_vectors.vectors[n, (n + 1) + 4, 0] == 1.0 + 0j
    assert_allclose(report.full_circle_gram, np.eye(3), atol=1e-10)


def test_truncating_away_a_member_shows_up_in_sup_error():
    fam = single_mode_family(3)  # highest frequency is 3
    report = phase_truncation_demo(fam, 2, MIN_GRID)
    # the dropped member loses its full-circle weight of one
    assert report.sup_error >= 0.9
    assert report.unital_defect >= 0.9


def test_geometric_truncation_error_decays_with_order():
    fam = geometric_tail_family(2, ratio=0.5, support=32)
    grid = 1 << 12
    reports = {m: phase_truncation_demo(fam, m, grid) for m in (4, 6, 8)}
    assert reports[4].sup_error > reports[6].sup_error > reports[8].sup_error
    assert reports[4].sup_error > 1e-6  # genuinely truncated
    # the defect shrinks toward the exact family's own non-orthonormality
    assert reports[4].unital_defect >= reports[6].unital_defect >= reports[8].unital_defect
    assert reports[8].unital_defect > 0.5


def test_full_circle_gram_matches_coefficient_gram():
    """Summed interval integrals must reproduce the Parseval Gram."""
    fam = geometric_tail_family(3, ratio=0.6, support=24)
    report = phase_truncation_demo(fam, 8, 1 << 12)
    truncated = truncate_family(fam, 8)
    n = len(truncated.members)
    parseval = np.zeros((n, n), dtype=np.complex128)
    for i, a in enumerate(truncated.members):
        for j, b in enumerate(truncated.members):
            parseval[i, j] = sum(np.conj(v) * b.get(s, 0.0) for s, v in a.items())
    assert opnorm(report.full_circle_gram - parseval) <= 1e-8
    assert opnorm(report.gram_vectors.gram() - parseval) <= 1e-12


def test_demo_gram_vector_layout():
    fam = fourier_family([{-2: 0.5, 1: 0.25}])
    report = phase_truncation_demo(fam, 2, MIN_GRID)
    v = report.gram_vectors
    assert (v.n_count, v.s_count, v.aux_dim) == (1, 5, 1)
    assert v.vectors[0, 0, 0] == 0.5 + 0j  # s = -2 at slot 0
    assert v.vectors[0, 3, 0] == 0.25 + 0j  # s = +1 at slot 3


def test_all_zero_members_give_zero_grams():
    report = phase_truncation_demo(fourier_family([{3: 0}]), 2, MIN_GRID)
    assert report.sup_error == 0.0
    assert report.unital_defect == 1.0
    assert report.truncated_gram.shape == (1 << MAX_LEVEL, 1, 1)
    assert not report.truncated_gram.any()
    assert report.gram_vectors.vectors.shape == (1, 5, 1)
    assert not report.gram_vectors.vectors.any()

    report = phase_truncation_demo(fourier_family([{3: 0}, {1: 1.0}]), 2, MIN_GRID)
    assert report.sup_error == 0.0
    assert report.unital_defect == 1.0
    assert report.truncated_gram.shape == (1 << MAX_LEVEL, 2, 2)
    assert_allclose(report.full_circle_gram, np.diag([0.0, 1.0]), atol=1e-15)
    assert report.gram_vectors.vectors[1, 3, 0] == 1.0 + 0j  # s = +1 at slot 3


# ---------------------------------------------------------------------------
# closed-form interval integrals against independent values
# ---------------------------------------------------------------------------


def _interval_grams(fam: FourierFamily) -> np.ndarray:
    """V* T V over every dyadic interval, from the module's Toeplitz stack."""
    slots = np.array(sorted({s for m in fam.members for s in m}))
    v = np.array([[m.get(int(s), 0.0) for m in fam.members] for s in slots], dtype=np.complex128)
    return v.conj().T @ _dyadic_toeplitz(slots) @ v


def test_half_circle_gram_is_analytic():
    # psi_1 = e^{-i theta}, psi_2 = e^{-2i theta}: (1/2 pi) int_0^pi e^{-i theta} = -i/pi
    fam = single_mode_family(2)
    grams = _interval_grams(fam)
    assert abs(grams[1, 0, 1] - (-1j / np.pi)) <= 1e-15  # level 1, j = 0 is [0, pi)
    report = phase_truncation_demo(fam, 2, MIN_GRID)
    half = report.truncated_gram[: 1 << (MAX_LEVEL - 1)].sum(axis=0)
    assert abs(half[0, 1] - (-1j / np.pi)) <= 1e-15


def test_dyadic_grams_are_additive():
    grams = _interval_grams(geometric_tail_family(3, ratio=0.6, support=24))
    assert grams.shape == ((2 << MAX_LEVEL) - 1, 3, 3)
    for k in range((1 << MAX_LEVEL) - 1):
        assert np.max(np.abs(grams[k] - grams[2 * k + 1] - grams[2 * k + 2])) <= 1e-14


def test_grid_changes_no_number():
    fam = geometric_tail_family(4)
    coarse = phase_truncation_demo(fam, 4, 1 << 10)
    fine = phase_truncation_demo(fam, 4, 1 << 14)
    assert (coarse.grid, fine.grid) == (1 << 10, 1 << 14)
    for field in dataclasses.fields(coarse):
        if field.name == "grid":
            continue
        a, b = getattr(coarse, field.name), getattr(fine, field.name)
        if isinstance(a, GramVectors):
            a, b = a.vectors, b.vectors
        assert np.array_equal(a, b), field.name


def test_truncated_gram_matches_trapezoid():
    """Composite trapezoid over each finest interval, within (h^2/12) max|f''|.

    For f = conj(psi_n) psi_m, |f''| <= G^2 (max_n sum_s |v_n^s|)^2 with G the
    widest frequency gap of the truncation and h = 2 pi / grid.
    """
    fam = geometric_tail_family(3, ratio=0.6, support=24)
    order, grid = 6, 1 << 14
    report = phase_truncation_demo(fam, order, grid)
    members = truncate_family(fam, order).members
    theta = np.arange(grid + 1) * (2.0 * np.pi / grid)
    values = np.array(
        [sum(v * np.exp(-1j * s * theta) for s, v in m.items()) for m in members]
    )
    h = 2.0 * np.pi / grid
    mass = max(sum(abs(v) for v in m.values()) for m in members) ** 2
    bound = h * h * (2 * order) ** 2 * mass / 12.0 + 1e-12
    step = grid >> MAX_LEVEL
    weights = np.ones(step + 1)
    weights[0] = weights[-1] = 0.5
    for j in range(1 << MAX_LEVEL):
        part = values[:, j * step : (j + 1) * step + 1]
        trapezoid = (part.conj() * weights) @ part.T / grid
        assert np.max(np.abs(report.truncated_gram[j] - trapezoid)) <= bound


_coefficients = st.dictionaries(
    st.integers(-8, 8),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    max_size=17,
)


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(members=st.lists(_coefficients, min_size=1, max_size=4), order=st.integers(0, 8))
def test_full_circle_gram_is_parseval(members, order):
    fam = fourier_family(members)
    report = phase_truncation_demo(fam, order, MIN_GRID)
    truncated = truncate_family(fam, order).members
    parseval = np.array(
        [[sum(np.conj(v) * b.get(s, 0.0) for s, v in a.items()) for b in truncated] for a in truncated],
        dtype=np.complex128,
    )
    assert np.max(np.abs(report.full_circle_gram - parseval)) <= 1e-12
    assert phase_truncation_demo(fam, order, 1 << 14).unital_defect == report.unital_defect
