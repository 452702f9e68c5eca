import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import SEED
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from povm_purity.errors import (
    EmptyFamily,
    GridTooCoarse,
    IndexOutOfRange,
    InvalidRatio,
    NonFinite,
    NonIntegerIndex,
)
from povm_purity import phase, polycert
from povm_purity.linalg import opnorm
from povm_purity.phase import (
    _BLOCK,
    MAX_LEVEL,
    MAX_MEMBERS,
    MAX_STACK_MB,
    MIN_GRID,
    FourierFamily,
    _check_demo,
    _frequency_count,
    fourier_family,
    fourier_span_certificate,
    geometric_tail_family,
    phase_truncation_demo,
    single_mode_family,
)


def _kept(fam, order):
    """The members' coefficients with |s| <= order (members may become empty)."""
    return [{s: v for s, v in m.items() if abs(s) <= order} for m in fam.members]

# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_fourier_family_cleanup():
    fam = fourier_family([{1: 1.0, 2: 0.0, -3: 2j}])
    assert fam.members == ({1: (1 + 0j), -3: 2j},)
    assert fourier_family([{2.0: 1, np.int64(-1): 0.5}]).members == ({2: (1 + 0j), -1: (0.5 + 0j)},)
    with pytest.raises(EmptyFamily):
        fourier_family([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(np.inf, 0.0)])
def test_fourier_family_refuses_non_finite_coefficients(bad):
    with pytest.raises(NonFinite, match="member 1: coefficient .* at frequency 2 "):
        fourier_family([{0: 1.0}, {1: 1.0, 2: bad}])
    assert issubclass(NonFinite, ValueError)


@pytest.mark.parametrize("key", [1.5, -0.25, np.nan, np.inf, "1", None])
def test_fourier_family_refuses_non_integer_frequencies(key):
    # int() would silently truncate 1.5 to frequency 1
    with pytest.raises(NonIntegerIndex, match="member 0: frequency .* is not an integer"):
        fourier_family([{key: 1.0}])
    with pytest.raises(NonIntegerIndex):  # a zero coefficient is no excuse
        fourier_family([{0: 1.0}, {key: 0.0}])


def test_fourier_family_bounds_frequencies_at_2_53():
    assert fourier_family([{2**53: 1.0}, {-(2**53): 1.0}]).members == ({2**53: 1 + 0j}, {-(2**53): 1 + 0j})
    for key in (2**53 + 1, -(10**20), 2.0**60):
        with pytest.raises(IndexOutOfRange, match="member 1: frequency .* past 2\\^53"):
            fourier_family([{0: 1.0}, {key: 1.0}])


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_fourier_family_refuses_bool_frequencies(flag):
    # int(True) == True: it would pass as frequency 1
    with pytest.raises(NonIntegerIndex, match="member 0: frequency .* is not an integer"):
        fourier_family([{flag: 1.0}])


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_fourier_family_refuses_bool_coefficients(flag):
    # complex(True) is 1; a False coefficient is refused too, not dropped as a zero
    with pytest.raises(NonFinite, match=f"member 1: coefficient {flag!r} at frequency 0 is not a finite number"):
        fourier_family([{0: 1.0}, {0: flag}])


@pytest.mark.parametrize("big", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"])
def test_fourier_family_refuses_integers_past_the_double_range(big):
    # complex() overflows on them; 10**5000 has no repr within the default digit limit
    with pytest.raises(NonFinite, match="member 1: coefficient at frequency 2 is an integer past the double range"):
        fourier_family([{0: 1.0}, {2: big}])
    assert fourier_family([{0: 2**1023}]).members == ({0: complex(2.0**1023)},)


@pytest.mark.parametrize(
    "call",
    [
        lambda: polycert.orthonormal_family("hermite", 2.5),
        lambda: polycert.orthonormal_family("legendre", -1.5),
        lambda: polycert.product_span_certificate(polycert.orthonormal_family("hermite", 3), 2.5),
        lambda: fourier_span_certificate(single_mode_family(3), 2.5),
        lambda: single_mode_family(2.5),
        lambda: single_mode_family(3.0),
        lambda: geometric_tail_family(3.0),
        lambda: geometric_tail_family(3, 0.5, 8.5),
        lambda: phase_truncation_demo(single_mode_family(3), 2.5, 1024),
        lambda: phase_truncation_demo(single_mode_family(3), 2, 1024.0),
    ],
    ids=[
        "family-degree", "family-negative-degree", "product-order", "fourier-order", "single-members",
        "single-integral-float", "geometric-members", "geometric-support", "demo-order", "demo-grid",
    ],
)
def test_non_integer_sizes_and_orders_are_refused(call):
    # range() would raise a bare TypeError on them, and the demo would echo order 2.5
    with pytest.raises(NonIntegerIndex, match="must be an integer, got"):
        call()


def test_numpy_integer_sizes_and_orders_are_accepted():
    three = np.int64(3)
    assert len(single_mode_family(three).members) == 3
    assert len(geometric_tail_family(three, 0.5, np.int64(4)).members) == 3
    assert fourier_span_certificate(single_mode_family(3), three).certified_to_degree == 3
    assert len(polycert.orthonormal_family("hermite", three).members) == 4
    assert phase_truncation_demo(single_mode_family(3), three, np.int64(1024)).order == 3


@pytest.mark.parametrize("bad", ["1", "x", None, [1.0]])
def test_fourier_family_refuses_non_numeric_coefficients(bad):
    with pytest.raises(NonFinite, match="member 0: coefficient .* at frequency 3 is not a finite number"):
        fourier_family([{3: bad}])


def test_a_directly_built_family_refuses_what_fourier_family_refuses():
    """FourierFamily checks its members where it is made, with the texts of
    fourier_family, so neither the certificate nor the demo reads a bad key
    or value (1.5 through an int64 array, 0.5 as an index, True as 1)."""
    bad = [
        ({0: 1.0, 1.5: 1.0}, NonIntegerIndex, "frequency 1.5 is not an integer"),
        ({0.5: 1.0}, NonIntegerIndex, "frequency 0.5 is not an integer"),
        ({True: 1.0}, NonIntegerIndex, "frequency True is not an integer"),
        ({2**53 + 1: 1.0}, IndexOutOfRange, "frequency 9007199254740993 is past 2\\^53"),
        ({0: True}, NonFinite, "coefficient True at frequency 0 is not a finite number"),
        ({0: np.True_}, NonFinite, "coefficient np.True_ at frequency 0 is not a finite number"),
        ({0: "1"}, NonFinite, "coefficient '1' at frequency 0 is not a finite number"),
    ]
    for member, kind, text in bad:
        with pytest.raises(kind, match="member 1: " + text):
            fourier_family([{0: 1.0}, member])
        with pytest.raises(kind, match="member 1: " + text):
            FourierFamily(members=({0: 1.0}, member))
    # NaN and infinite values are left to the consumers, which refuse them typed
    for value in (np.nan, np.inf):
        fam = FourierFamily(members=({0: 1.0}, {1: value}))
        with pytest.raises(NonFinite, match="member 1: coefficient .* at index 1 is not a finite number"):
            fourier_span_certificate(fam, 1)
        with pytest.raises(NonFinite, match="double range"):
            phase_truncation_demo(fam, 1, MIN_GRID)
    # an integral float key is the integer it equals, to both consumers
    floats, ints = FourierFamily(members=({3.0: 1.0, 4: 2.0},)), FourierFamily(members=({3: 1.0, 4: 2.0},))
    assert fourier_span_certificate(floats, 2) == fourier_span_certificate(ints, 2)
    a, b = phase_truncation_demo(floats, 3, MIN_GRID), phase_truncation_demo(ints, 3, MIN_GRID)
    assert (a.sup_error, a.unital_defect) == (b.sup_error, b.unital_defect) == (4.0, 0.0)
    assert np.array_equal(a.truncated_gram, b.truncated_gram)


def test_fourier_span_certificate_refuses_a_huge_slot_plan():
    # 2 * 10^20 + 1 slots over a support of 3: refused before any slot is listed
    with pytest.raises(IndexOutOfRange, match="200000000000000000001 slots over 3 indices"):
        fourier_span_certificate(single_mode_family(3), 10**20)
    with pytest.raises(IndexOutOfRange, match="over 0 indices"):  # the slot list alone is too long
        fourier_span_certificate(fourier_family([{0: 0.0}]), 10**20)


def test_product_rows_refuse_a_support_of_2_21_before_reading(monkeypatch):
    """The float limbs of the sketch have 22 - bit_length(support) bits, none
    from 2^21 indices on: such members are refused before a coefficient is
    read, once the sketch is needed.  2^21 - 1 indices go on to the reading,
    which comes only with the sketch: these one-member families reach it
    because the one product's extremes lie outside the order-0 run, so no
    single product proves it."""

    class Read(Exception):
        pass

    def read(*args):
        raise Read

    monkeypatch.setattr(polycert, "_read_exact", read)
    wide = FourierFamily(members=(dict.fromkeys(range(2**21), 1.0),))
    with pytest.raises(IndexOutOfRange, match="over 2097152 indices; product rows take at most 2\\^21 - 1"):
        fourier_span_certificate(wide, 0)
    with pytest.raises(Read):
        fourier_span_certificate(FourierFamily(members=(dict.fromkeys(range(2**21 - 1), 1.0),)), 0)


def test_a_large_family_certifies_without_its_pairs(monkeypatch):
    # 3000 members list 9 million products; the sketch combines the members,
    # and nothing that reads the pairs runs on a certified family
    def refuse(*args):
        raise AssertionError("read the pairs")

    monkeypatch.setattr(polycert.ProductRows, "annihilate", refuse)
    assert fourier_span_certificate(single_mode_family(3000), 0).certified
    # single products prove single-mode families, so the sketch's residue
    # arrays, 269 MB for 4200 members, are never bounded, let alone built
    monkeypatch.setattr(polycert.ProductRows, "sketch", refuse)
    for n in (4200, MAX_MEMBERS):
        assert fourier_span_certificate(single_mode_family(n), 0).certified


def test_single_mode_family():
    fam = single_mode_family(3)
    assert fam.members == ({1: (1 + 0j)}, {2: (1 + 0j)}, {3: (1 + 0j)})
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
    assert issubclass(InvalidRatio, ValueError)
    for bad in (1.5, 0.0, float("nan")):
        with pytest.raises(InvalidRatio, match="ratio"):
            geometric_tail_family(2, ratio=bad)
    with pytest.raises(EmptyFamily):
        geometric_tail_family(0)
    with pytest.raises(IndexOutOfRange):
        geometric_tail_family(2, support=-1)
    with pytest.raises(EmptyFamily, match="member 1 "):  # ratio^2 underflows: L2 norm 0
        geometric_tail_family(3, ratio=1e-200, support=0)
    assert geometric_tail_family(1, support=0).members == ({0: (1 + 0j)},)


def test_geometric_members_stop_where_the_tail_underflows():
    # 0.5^1075 is 0.0: past that distance from the peak nothing is built
    near = geometric_tail_family(4, support=1100)
    assert geometric_tail_family(4, support=10**6).members == near.members
    for n, m in enumerate(near.members, start=1):
        full = {s: 0.5 ** abs(s - n) for s in range(-1100, 1101)}
        norm = np.sqrt(sum(abs(v) ** 2 for v in full.values()))
        assert m == {s: complex(v / norm) for s, v in full.items() if v != 0}


def test_family_size_is_bounded_before_building():
    # an (n, n) int64 block passes MAX_STACK_MB from MAX_MEMBERS + 1 members on
    assert MAX_MEMBERS**2 * 8 <= MAX_STACK_MB * 2**20 < (MAX_MEMBERS + 1) ** 2 * 8
    assert len(single_mode_family(MAX_MEMBERS).members) == MAX_MEMBERS
    for build in (single_mode_family, geometric_tail_family):
        with pytest.raises(IndexOutOfRange, match=f"{MAX_MEMBERS + 1} members"):
            build(MAX_MEMBERS + 1)
        with pytest.raises(IndexOutOfRange, match="3000000 members"):
            build(3_000_000)


@seed(SEED)
@settings(max_examples=80, deadline=None, database=None)
@given(
    members=st.integers(1, 6),
    ratio=st.sampled_from([1e-200, 0.1, 0.5, 0.75, 0.78, 0.9, 0.99]) | st.floats(0.01, 0.99),
    support=st.integers(0, 3000),
)
def test_frequency_count_is_a_lower_bound_on_the_built_family(members, ratio, support):
    """The count read from the arguments never exceeds the built family's,
    and matches it for N_max < 2, where every nonzero coefficient survives."""
    bound = _frequency_count(members, ratio, support)
    try:
        fam = geometric_tail_family(members, ratio, support)
    except EmptyFamily:
        assert bound is None
        return
    count = len({s for m in fam.members for s in m})
    if bound is None:
        assert members > support
        return
    assert 1 <= bound <= count <= 2 * support + 1
    if np.sqrt((1.0 + ratio**2) / (1.0 - ratio**2)) < 1.9:  # N_max < 2: exact
        assert bound == count


def test_frequency_count_reads_long_tails_from_the_arguments():
    # every coefficient of 0.999^|s - 1| on |s| <= 400000 is above N_max 2^-1000
    assert _frequency_count(1, 0.999, 400_000) == 800_001
    # 0.9^k stays above N_max 2^-1000 up to k = 6568; the built family reaches further
    assert _frequency_count(1, 0.9, 100_000) == 2 * 6568 + 1
    assert _frequency_count(3, 0.5, 10**6) == 2151
    assert _frequency_count(1100, 0.5, 0) is None
    assert _frequency_count(4) == 4


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


def test_geometric_family_misses_only_its_top_frequency():
    # a genuine deficit: the exact pass runs on the slot Gram of the rows
    cert = fourier_span_certificate(geometric_tail_family(16), 16)
    assert cert.missing_degrees == (16,)


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


def test_demo_bounds_its_stacks_before_allocating():
    # 400 members over 400 frequencies: 360 MB of demo arrays
    with pytest.raises(IndexOutOfRange, match=r"400 members over 400 frequencies need 360 MB .*\(400, 9, 400\)"):
        phase_truncation_demo(single_mode_family(400), 2, MIN_GRID)
    assert _check_demo(337, 337, 2, MIN_GRID) <= MAX_STACK_MB
    with pytest.raises(IndexOutOfRange, match="338 members"):
        _check_demo(338, 338, 2, MIN_GRID)
    # a wide frequency support costs its (S, S) float matrices: 2845 frequencies
    # for 2 members fit, 2846 do not
    assert 4 * 2845 * 2845 * 8 / 2**20 < _check_demo(2, 2845, 2, MIN_GRID) <= MAX_STACK_MB
    with pytest.raises(IndexOutOfRange, match="2846 frequencies"):
        _check_demo(2, 2846, 2, MIN_GRID)
    with pytest.raises(IndexOutOfRange, match="6001 frequencies"):
        phase_truncation_demo(geometric_tail_family(2, ratio=0.999, support=3000), 2, MIN_GRID)


@pytest.mark.parametrize("family, order", [
    (lambda: single_mode_family(40), 2),  # truncated: the sup's temporaries
    (lambda: single_mode_family(40), 100),  # nothing truncated
    (lambda: geometric_tail_family(3, support=200), 4),  # wide support: the (S, S) matrices
    (lambda: geometric_tail_family(24), 8),
])
def test_demo_peak_stays_under_its_counted_bound(family, order):
    fam = family()
    n_frequencies = len(set().union(*fam.members))
    bound = _check_demo(len(fam.members), n_frequencies, order, MIN_GRID) * 2**20
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        phase_truncation_demo(fam, order, MIN_GRID)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert bound / 2 < peak <= bound


def test_single_mode_truncation_is_exact():
    fam = single_mode_family(3)
    report = phase_truncation_demo(fam, 4, MIN_GRID)
    assert report.sup_error <= 1e-10
    assert report.unital_defect <= 1e-10
    assert report.truncated_gram.shape == (1 << MAX_LEVEL, 3, 3)
    assert report.gram_consistency_defect <= 1e-10
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
    truncated = _kept(fam, 8)
    n = len(truncated)
    parseval = np.zeros((n, n), dtype=np.complex128)
    for i, a in enumerate(truncated):
        for j, b in enumerate(truncated):
            parseval[i, j] = sum(np.conj(v) * b.get(s, 0.0) for s, v in a.items())
    assert opnorm(report.full_circle_gram - parseval) <= 1e-8
    assert report.gram_consistency_defect <= 1e-8
    assert report.gram_consistency_defect == pytest.approx(
        opnorm(parseval - report.full_circle_gram), abs=1e-12
    )


@pytest.mark.filterwarnings("error")
def test_demo_refuses_grams_past_the_double_range():
    # finite coefficients whose Grams overflow: a typed error, not an SVD failure.
    # At order 0 the kept Grams are finite and only the sup sees the overflow
    # (inf on the whole circle, NaN on every finer level)
    fam = fourier_family([{0: 1.0, 1: 1e308}, {1: 1e308}])
    for order in (0, 1, 4):
        with pytest.raises(NonFinite, match="double range"):
            phase_truncation_demo(fam, order, MIN_GRID)
    # large but representable Grams go through
    report = phase_truncation_demo(fourier_family([{0: 1e150, 1: 1e150}, {1: 1e150}]), 1, MIN_GRID)
    assert report.sup_error == 0.0 and np.isfinite(report.truncated_gram).all()


def test_demo_refuses_an_integer_past_the_double_range():
    # FourierFamily keeps the integer, which has no complex double: the demo
    # names it, and the certificate reads it exactly
    fam = FourierFamily(members=({0: 10**400},))
    with pytest.raises(NonFinite, match="member 0: coefficient at frequency 0 is an integer past the double range"):
        phase_truncation_demo(fam, 1, 1024)
    assert fourier_span_certificate(fam, 1).verdict == "inconclusive"
    with pytest.raises(NonFinite, match="member 1: coefficient at frequency -2 is an integer"):
        phase_truncation_demo(FourierFamily(members=({0: 1.0}, {3: 2, -2: -(10**400)})), 1, MIN_GRID)


def test_all_zero_members_give_zero_grams():
    report = phase_truncation_demo(fourier_family([{3: 0}]), 2, MIN_GRID)
    assert report.sup_error == 0.0
    assert report.unital_defect == 1.0
    assert report.truncated_gram.shape == (1 << MAX_LEVEL, 1, 1)
    assert not report.truncated_gram.any()
    assert report.gram_consistency_defect == 0.0

    report = phase_truncation_demo(fourier_family([{3: 0}, {1: 1.0}]), 2, MIN_GRID)
    assert report.sup_error == 0.0
    assert report.unital_defect == 1.0
    assert report.truncated_gram.shape == (1 << MAX_LEVEL, 2, 2)
    assert_allclose(report.full_circle_gram, np.diag([0.0, 1.0]), atol=1e-15)
    assert report.gram_consistency_defect <= 1e-15


# ---------------------------------------------------------------------------
# closed-form interval integrals against an independent reference
# ---------------------------------------------------------------------------


def _dyadic_toeplitz(slots: np.ndarray) -> np.ndarray:
    """Entry [k, s, t] = (1/2 pi) int_{I_k} e^{i (slots[s] - slots[t]) theta} d theta.

    I_k runs over the dyadic intervals level by level (k = 2^level - 1 + j),
    so the children of I_k are I_{2k+1} and I_{2k+2}.
    """
    counts = 1 << np.arange(MAX_LEVEL + 1)
    width = np.repeat(2.0 * np.pi / counts, counts)
    j = np.concatenate([np.arange(c) for c in counts])
    lo, hi = j * width, (j + 1) * width
    gaps = np.subtract.outer(slots, slots)
    g, where = np.unique(gaps, return_inverse=True)
    safe = np.where(g == 0, 1, g)
    moments = (np.exp(1j * np.outer(hi, g)) - np.exp(1j * np.outer(lo, g))) / (2j * np.pi * safe)
    moments[:, g == 0] = width[:, None] / (2.0 * np.pi)
    return moments[:, where.reshape(gaps.shape)]


def _interval_grams(fam: FourierFamily, order: int | None = None) -> np.ndarray:
    """V* T V over every dyadic interval from the (127, S, S) Toeplitz stack,
    with the rows of frequencies |s| > ``order`` zeroed (None keeps them all)."""
    slots = np.array(sorted({s for m in fam.members for s in m}) or [0])
    v = np.array([[m.get(int(s), 0.0) for m in fam.members] for s in slots], dtype=np.complex128)
    if order is not None:
        v[np.abs(slots) > order] = 0.0
    return v.conj().T @ _dyadic_toeplitz(slots) @ v


def _reference_demo(fam: FourierFamily, order: int) -> dict:
    """Every float field of the demo, from the Toeplitz stacks."""
    target, trunc = _interval_grams(fam), _interval_grams(fam, order)
    stack = trunc[-(1 << MAX_LEVEL) :]
    full = stack.sum(axis=0)
    kept = _kept(fam, order)
    parseval = np.array(
        [[sum(np.conj(v) * b.get(s, 0.0) for s, v in a.items()) for b in kept] for a in kept],
        dtype=np.complex128,
    ).reshape(full.shape)
    return {
        "truncated_gram": stack,
        "sup_error": float(np.max(np.abs(target - trunc))),
        "unital_defect": opnorm(full - np.eye(len(kept))),
        "gram_consistency_defect": opnorm(parseval - full),
    }


def test_half_circle_gram_is_analytic():
    # psi_1 = e^{-i theta}, psi_2 = e^{-2i theta}: (1/2 pi) int_0^pi e^{-i theta} = -i/pi
    fam = single_mode_family(2)
    grams = _interval_grams(fam)
    assert abs(grams[1, 0, 1] - (-1j / np.pi)) <= 1e-15  # level 1, j = 0 is [0, pi)
    report = phase_truncation_demo(fam, 2, MIN_GRID)
    half = report.truncated_gram[: 1 << (MAX_LEVEL - 1)].sum(axis=0)
    assert abs(half[0, 1] - (-1j / np.pi)) <= 1e-15


def test_dyadic_grams_are_additive():
    fam = geometric_tail_family(3, ratio=0.6, support=24)
    grams = _interval_grams(fam)
    assert grams.shape == ((2 << MAX_LEVEL) - 1, 3, 3)
    for k in range((1 << MAX_LEVEL) - 1):
        assert np.max(np.abs(grams[k] - grams[2 * k + 1] - grams[2 * k + 2])) <= 1e-14
    # every coarser interval of the reference is a run of the demo's finest ones
    finest = phase_truncation_demo(fam, 24, MIN_GRID).truncated_gram
    for level in range(MAX_LEVEL + 1):
        width = 1 << (MAX_LEVEL - level)
        for j in range(1 << level):
            run = finest[j * width : (j + 1) * width].sum(axis=0)
            assert np.max(np.abs(grams[(1 << level) - 1 + j] - run)) <= 1e-14


_coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
_dense = st.dictionaries(st.integers(-8, 8), _coefficient, max_size=17)
# a few frequencies far apart: gaps up to 2000 in the moments
_sparse = st.dictionaries(st.integers(-1000, 1000), _coefficient, max_size=4)
_real = st.dictionaries(st.integers(-12, 12), st.floats(-1.0, 1.0), max_size=8)


@seed(SEED)
@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_demo_agrees_with_the_toeplitz_reference(data):
    """Every field within 1e-13 of the (127, S, S) Toeplitz stacks, with the
    truncation keeping no frequency, all of them, or some."""
    coefficients = data.draw(st.sampled_from([_dense, _sparse, _real]))
    members = data.draw(st.lists(coefficients, min_size=1, max_size=4))
    fam = fourier_family(members)
    reach = [abs(s) for m in fam.members for s in m] or [0]
    keep = data.draw(st.sampled_from(["none", "all", "some"]))
    if keep == "none":
        order = max(min(reach) - 1, 0)
    elif keep == "all":
        order = max(reach) + data.draw(st.integers(0, 3))
    else:
        order = data.draw(st.integers(0, max(reach)))
    report = phase_truncation_demo(fam, order, MIN_GRID)
    expect = _reference_demo(fam, order)
    assert (report.order, report.grid) == (order, MIN_GRID)
    assert report.truncated_gram.shape == expect["truncated_gram"].shape
    assert np.max(np.abs(report.truncated_gram - expect["truncated_gram"])) <= 1e-13
    for field in ("sup_error", "unital_defect", "gram_consistency_defect"):
        assert abs(getattr(report, field) - expect[field]) <= 1e-13, field
    if order >= max(reach):
        assert report.sup_error == 0.0


@seed(SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_streamed_demo_agrees_with_the_toeplitz_reference(data):
    """The demo walks the endpoints _BLOCK at a time; every field stays within
    1e-13 of the (127, S, S) Toeplitz stacks on sparse supports whose gaps
    collide modulo 2^MAX_LEVEL (their frequencies share one phase table row),
    single-slot and all-zero members, one member, fewer frequencies than a
    block, order 0 and orders past the support."""
    residue = data.draw(st.integers(-40, 40))
    colliding = st.integers(-20, 20).map(lambda k: residue + (k << MAX_LEVEL))
    few = st.integers(-(_BLOCK // 2) + 1, _BLOCK // 2 - 1)  # at most _BLOCK - 1 frequencies
    frequency = data.draw(st.sampled_from([colliding, few]))
    member = st.one_of(
        st.dictionaries(frequency, _coefficient, max_size=6),
        st.builds(lambda s, c: {s: c}, frequency, _coefficient),
        st.dictionaries(frequency, st.just(0.0), max_size=3),
    )
    fam = fourier_family(data.draw(st.lists(member, min_size=1, max_size=5)))
    top = max([abs(s) for m in fam.members for s in m], default=0)
    order = data.draw(st.sampled_from([0, top, top + 1, 10**6]) | st.integers(0, top))
    report = phase_truncation_demo(fam, order, MIN_GRID)
    expect = _reference_demo(fam, order)
    assert report.truncated_gram.shape == expect["truncated_gram"].shape
    assert np.max(np.abs(report.truncated_gram - expect["truncated_gram"])) <= 1e-13
    for field in ("sup_error", "unital_defect", "gram_consistency_defect"):
        assert abs(getattr(report, field) - expect[field]) <= 1e-13, field
    if order >= top:
        assert report.sup_error == 0.0


@pytest.mark.parametrize("endpoint", [0, 1, 3, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 32, 63, 64])
def test_a_nan_at_one_endpoint_reaches_sup_error(monkeypatch, endpoint):
    """A NaN in the target's antiderivative at one endpoint, with the kept
    one finite, reaches only the levels whose intervals end there (just the
    finest for an odd endpoint); the running maximum of each level must keep
    it, where max(0.0, nan) would drop it."""
    fam = fourier_family([{0: 1.0, 1: 0.5}, {-1: 0.25, 0: 1.0}])  # order 0 keeps one of three rows
    antiderivatives = phase._antiderivatives

    def poisoned(u, hilbert, at, out):
        antiderivatives(u, hilbert, at, out)
        if u.shape[0] == 3:
            out[at[:, 0] * (1 << MAX_LEVEL) == endpoint] = np.nan
        return out

    assert phase_truncation_demo(fam, 0, MIN_GRID).sup_error > 0.0
    monkeypatch.setattr(phase, "_antiderivatives", poisoned)
    with pytest.raises(NonFinite, match="double range"):
        phase_truncation_demo(fam, 0, MIN_GRID)


def test_sup_error_reaches_the_finest_intervals():
    # the cross term of frequencies 0 and 32 (a quarter turn apart) integrates
    # to 0 over every dyadic interval but the finest, where it outweighs the
    # dropped mode's own weight
    fam = fourier_family([{0: 1.0, 32: 0.01j}])
    report = phase_truncation_demo(fam, 0, MIN_GRID)
    gaps = np.abs(_interval_grams(fam) - _interval_grams(fam, 0))
    coarse, finest = gaps[: (1 << MAX_LEVEL) - 1].max(), gaps[(1 << MAX_LEVEL) - 1 :].max()
    assert finest > 1.5 * coarse
    assert abs(report.sup_error - finest) <= 1e-15


def test_keeping_every_frequency_has_no_error_at_all():
    for fam in (single_mode_family(5), geometric_tail_family(3, ratio=0.6, support=24),
                fourier_family([{-700: 0.5j, 3: 1.0}, {1000: 0.25}])):
        top = max(abs(s) for m in fam.members for s in m)
        for order in (top, top + 1, 10**6):
            assert phase_truncation_demo(fam, order, MIN_GRID).sup_error == 0.0


def test_grid_changes_no_number():
    fam = geometric_tail_family(4)
    coarse = phase_truncation_demo(fam, 4, 1 << 10)
    fine = phase_truncation_demo(fam, 4, 1 << 14)
    assert (coarse.grid, fine.grid) == (1 << 10, 1 << 14)
    for field in dataclasses.fields(coarse):
        if field.name == "grid":
            continue
        a, b = getattr(coarse, field.name), getattr(fine, field.name)
        assert np.array_equal(a, b), field.name


def test_truncated_gram_matches_trapezoid():
    """Composite trapezoid over each finest interval, within (h^2/12) max|f''|.

    For f = conj(psi_n) psi_m, |f''| <= G^2 (max_n sum_s |v_n^s|)^2 with G the
    widest frequency gap of the truncation and h = 2 pi / grid.
    """
    fam = geometric_tail_family(3, ratio=0.6, support=24)
    order, grid = 6, 1 << 14
    report = phase_truncation_demo(fam, order, grid)
    members = _kept(fam, order)
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
    truncated = _kept(fam, order)
    parseval = np.array(
        [[sum(np.conj(v) * b.get(s, 0.0) for s, v in a.items()) for b in truncated] for a in truncated],
        dtype=np.complex128,
    )
    assert np.max(np.abs(report.full_circle_gram - parseval)) <= 1e-12
    defect = opnorm(parseval - report.full_circle_gram)
    assert report.gram_consistency_defect == pytest.approx(defect, abs=1e-12)
    assert phase_truncation_demo(fam, order, 1 << 14).unital_defect == report.unital_defect
