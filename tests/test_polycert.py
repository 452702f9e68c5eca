import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import SEED
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite as herm
from numpy.polynomial import laguerre as lag
from numpy.polynomial import legendre as leg
from numpy.polynomial import polynomial as poly

from povm_purity.errors import EmptyFamily, IndexOutOfRange, NonIntegerIndex
from povm_purity.phase import fourier_family, fourier_span_certificate, geometric_tail_family
from povm_purity import polycert
from povm_purity.polycert import (
    _SQRT_M1,
    BASIS_INFO,
    PRIME,
    PolyFamily,
    ProductRows,
    _hermite_member,
    orthonormal_family,
    product_span_certificate,
    span_certificate,
)

# ---------------------------------------------------------------------------
# exact-arithmetic oracle: pivot columns of the product matrix over Q
# ---------------------------------------------------------------------------


def _hermite_int(n: int) -> list[int]:
    """Physicists' Hermite coefficients (low to high), exact integers."""
    coeffs = [[1], [0, 2]]
    while len(coeffs) <= n:
        m = len(coeffs) - 1
        hm, hm1 = coeffs[m], coeffs[m - 1]
        nxt = [0] + [2 * c for c in hm]
        for i, c in enumerate(hm1):
            nxt[i] -= 2 * m * c
        coeffs.append(nxt)
    return coeffs[n]


def _conv_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pivot_columns(rows: list[list[int]], ncols: int) -> set[int]:
    """Columns where left-to-right Gaussian elimination places a pivot.

    Column j gains a pivot exactly when the rank of the first j + 1 columns
    exceeds the rank of the first j, so this is the nested-rank coverage set
    computed without floating point.
    """
    mat = [[Fraction(r[c]) if c < len(r) else Fraction(0) for c in range(ncols)] for r in rows]
    pivots: set[int] = set()
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / lead[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], lead)]
        pivots.add(col)
        rank += 1
    return pivots


def _exact_hermite_coverage(indices: list[int], check_degree: int) -> set[int]:
    """Covered degrees for products of (unnormalized) Hermite members.

    Row scaling never changes pivot columns, so dropping the normalization
    constants keeps the arithmetic in integers without changing the answer.
    """
    members = [_hermite_int(n) for n in indices]
    rows = [_conv_int(a, b) for a in members for b in members]
    return _pivot_columns(rows, check_degree + 1)


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def test_orthonormality_under_matching_weight():
    cases = {
        "hermite": herm.hermgauss(16),
        "legendre": leg.leggauss(16),
        "laguerre": lag.laggauss(16),
    }
    for basis, (nodes, weights) in cases.items():
        fam = orthonormal_family(basis, 6)
        vals = np.stack([poly.polyval(nodes, np.real(m)) for m in fam.members])
        gram = (vals * weights) @ vals.T
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-10)


def test_member_degrees_and_trimming():
    fam = orthonormal_family("monomial", 4, exclude=(1, 3))
    assert [m.size - 1 for m in fam.members] == [0, 2, 4]
    assert fam.max_degree == 4
    fam2 = orthonormal_family("legendre", 3)
    assert fam2.max_degree == 3
    assert all(m[-1] != 0 for m in fam2.members)
    fam3 = orthonormal_family("hermite", 5, exclude=(2,))
    assert [m.size - 1 for m in fam3.members] == [0, 1, 3, 4, 5]
    fam4 = orthonormal_family("hermite", 3, exclude=(0,))
    assert [m.size - 1 for m in fam4.members] == [1, 2, 3]
    assert orthonormal_family("hermite", 150).max_degree == 150


def test_constructor_errors():
    with pytest.raises(ValueError, match="unknown basis"):
        orthonormal_family("chebyshev", 3)
    with pytest.raises(ValueError, match="unknown basis"):
        PolyFamily(basis="chebyshev", members=(np.array([1.0]),), max_degree=0)
    with pytest.raises(IndexOutOfRange):
        orthonormal_family("hermite", -1)
    with pytest.raises(IndexOutOfRange):
        orthonormal_family("hermite", 3, exclude=(4,))
    for k in (7, -1):
        with pytest.raises(IndexOutOfRange):
            orthonormal_family("hermite", 5, exclude=(k,))
    # (2^n n! sqrt(pi))^(-1/2) is a positive double up to n = 150 only
    for top in (151, 171):
        with pytest.raises(IndexOutOfRange, match="index 151 "):
            orthonormal_family("hermite", top)
    with pytest.raises(IndexOutOfRange, match="index 171 "):
        _hermite_member(171)  # n! alone no longer converts to a double
    with pytest.raises(EmptyFamily):
        orthonormal_family("legendre", 0, exclude=(0,))


def test_excluded_indices_must_be_integers():
    # int() would silently turn 1.5 into index 1
    for bad in (1.5, 2.0, "1", None):
        with pytest.raises(NonIntegerIndex, match="excluded indices must be integers"):
            orthonormal_family("hermite", 3, exclude=(0, bad))
    kept = orthonormal_family("hermite", 3, exclude=(np.int64(1),))
    assert kept.scaled == orthonormal_family("hermite", 3, exclude=(1,)).scaled


def test_span_certificate_refuses_a_huge_slot_plan():
    # a (4, 10^9 + 1) int64 meet array is 30518 MB: refused before any slot is listed
    with pytest.raises(IndexOutOfRange, match="1000000001 slots over 4 indices: a 30518 MB meet array"):
        product_span_certificate(orthonormal_family("hermite", 3), 10**9)
    rows = ProductRows([dict(enumerate(m)) for m in orthonormal_family("hermite", 3).scaled], [(0, 0)], sign=1)
    limit = polycert.MAX_STACK_MB * 2**20 // (4 * 8)
    rows.check_slots(limit)
    with pytest.raises(IndexOutOfRange):
        rows.check_slots(limit + 1)


def test_basis_info_covers_all_builders():
    assert set(BASIS_INFO) == {"hermite", "legendre", "laguerre", "monomial"}
    for basis in BASIS_INFO:
        assert orthonormal_family(basis, 2).basis == basis


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_full_ladders_certify():
    for basis in BASIS_INFO:
        cert = product_span_certificate(orthonormal_family(basis, 4), 8)
        assert cert.certified, (basis, cert.missing_degrees)
        assert cert.certified_to_degree == 8
        assert cert.missing_degrees == ()


def test_dropped_mode_families_certify():
    for k in (1, 2, 5, 12):
        cert = product_span_certificate(orthonormal_family("hermite", 12, exclude=(k,)), 12)
        assert cert.certified, (k, cert.missing_degrees)


def test_dropped_mode_matches_exact_arithmetic():
    indices = [n for n in range(13) if n != 2]
    covered = _exact_hermite_coverage(indices, 12)
    assert covered == set(range(13))
    cert = product_span_certificate(orthonormal_family("hermite", 12, exclude=(2,)), 12)
    assert cert.certified


def test_gappy_family_matches_exact_arithmetic():
    # {1, x^2}: products are 1, x^2, x^4 -- odd degrees stay uncovered
    fam = orthonormal_family("monomial", 2, exclude=(1,))
    cert = product_span_certificate(fam, 4)
    assert not cert.certified
    assert cert.missing_degrees == (1, 3)
    assert _pivot_columns([[1], [0, 0, 1], [0, 0, 0, 0, 1]], 5) == {0, 2, 4}


def test_wide_window_matches_exact_arithmetic():
    indices = [n for n in range(7) if n != 5]
    covered = _exact_hermite_coverage(indices, 14)
    cert = product_span_certificate(orthonormal_family("hermite", 6, exclude=(5,)), 14)
    width = 2 * 6 + 1
    expected_missing = tuple(
        deg for deg in range(15) if deg >= width or deg not in covered
    )
    assert cert.missing_degrees == expected_missing
    assert (13, 14) == cert.missing_degrees[-2:]  # beyond every product's reach


def test_single_constant_is_inconclusive():
    fam = orthonormal_family("monomial", 0)
    cert = product_span_certificate(fam, 2)
    assert not cert.certified
    assert cert.verdict == "inconclusive"
    assert cert.missing_degrees == (1, 2)


def test_certification_is_monotone_in_degree():
    fam = orthonormal_family("hermite", 8, exclude=(2,))
    assert product_span_certificate(fam, 8).certified
    for d in range(8):
        assert product_span_certificate(fam, d).certified


def test_degree_zero_check():
    cert = product_span_certificate(orthonormal_family("monomial", 0), 0)
    assert cert.certified
    assert cert.certified_to_degree == 0


def test_negative_check_degree():
    with pytest.raises(IndexOutOfRange):
        product_span_certificate(orthonormal_family("monomial", 1), -1)


def test_duplicate_members_do_not_inflate_coverage():
    m = np.array([1.0])
    fam = PolyFamily(basis="monomial", members=(m, m, m), max_degree=0)
    cert = product_span_certificate(fam, 1)
    assert cert.missing_degrees == (1,)


# ---------------------------------------------------------------------------
# the exact ladder: modular rank, exact pass, and an independent reference
# ---------------------------------------------------------------------------


def _gaussian(v) -> tuple[Fraction, Fraction]:
    if isinstance(v, int):
        return Fraction(v), Fraction(0)
    return Fraction(complex(v).real), Fraction(complex(v).imag)


def _gaussian_pivot_columns(rows, ncols: int) -> set[int]:
    """Pivot columns over Q(i) of rows of ints and complex numbers, each read exactly.

    Entries become (re, im) pairs of Fractions; the elimination mirrors
    ``_pivot_columns`` above.
    """

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inv(x):
        n = x[0] * x[0] + x[1] * x[1]
        return (x[0] / n, -x[1] / n)

    zero = (Fraction(0), Fraction(0))
    mat = [[_gaussian(v) for v in r] + [zero] * (ncols - len(r)) for r in rows]
    pivots: set[int] = set()
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != zero), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != zero:
                f = mul(mat[i][col], inv(lead[col]))
                mat[i] = [(a[0] - fb[0], a[1] - fb[1]) for a, fb in zip(mat[i], (mul(f, b) for b in lead))]
        pivots.add(col)
        rank += 1
    return pivots


def _plain_rows(rows) -> ProductRows:
    """Product rows equal to conj(rows): each row times the constant member 1."""
    members = [dict(enumerate(r)) for r in rows] + [{0: 1}]
    return ProductRows(members, [(k, len(rows)) for k in range(len(rows))], sign=-1)


def _conj(v):
    return v if isinstance(v, int) else complex(v).conjugate()


def test_prime_and_square_root_of_minus_one():
    assert PRIME == 2**31 - 19 and PRIME % 4 == 1
    assert all(PRIME % d for d in range(2, math.isqrt(PRIME) + 1))
    assert _SQRT_M1 * _SQRT_M1 % PRIME == PRIME - 1


@pytest.mark.parametrize("lead", [PRIME, complex(PRIME, PRIME)])
def test_multiples_of_the_prime_take_the_exact_pass(lead):
    rows = _plain_rows([[lead, 1], [0, 1]])
    # modulo PRIME the first column vanishes, over Q (or Q(i)) it does not
    assert polycert._pivot_columns(rows.modular(rows.meet(range(2))), PRIME) == [False, True]
    assert span_certificate(rows, range(2), 1).certified
    cert = span_certificate(_plain_rows([[lead, 1]]), range(2), 1)
    assert cert.missing_degrees == (1,)


_small = st.integers(-3, 3)
_multiples = st.sampled_from([PRIME, -PRIME, 2 * PRIME, PRIME + 1, 3 * PRIME - 2])
_integer_entries = st.one_of(_small, _small, _multiples)
_gaussian_entries = st.one_of(
    _integer_entries,
    st.builds(complex, _small, _small),
    st.builds(complex, st.sampled_from([float(PRIME), float(-PRIME)]), _small),
)


@seed(SEED)
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_span_certificate_matches_exact_reference(data):
    ncols = data.draw(st.integers(1, 5), label="ncols")
    entries = data.draw(st.sampled_from([_integer_entries, _gaussian_entries]), label="kind")
    rows = data.draw(
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=6), label="rows"
    )
    cert = span_certificate(_plain_rows(rows), range(ncols), ncols - 1)
    covered = _gaussian_pivot_columns([[_conj(v) for v in r] for r in rows], ncols)
    missing = tuple(c for c in range(ncols) if c not in covered)
    assert cert.missing_degrees == missing
    assert cert.certified == (not missing)


@seed(SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_compressed_route_matches_exact_reference(data):
    # more rows than the S + 8 of the compression, mostly dense enough to take it
    ncols = data.draw(st.integers(1, 4), label="ncols")
    entries = data.draw(st.sampled_from([_integer_entries, _gaussian_entries]), label="kind")
    height = ncols + 8
    rows = data.draw(
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=2 * height, max_size=3 * height),
        label="rows",
    )
    cert = span_certificate(_plain_rows(rows), range(ncols), ncols - 1)
    covered = _gaussian_pivot_columns([[_conj(v) for v in r] for r in rows], ncols)
    assert cert.missing_degrees == tuple(c for c in range(ncols) if c not in covered)


def _spy_pivot_columns(monkeypatch, refuse=lambda a: False) -> list:
    """Record the (shape, dtype kind) of every elimination; raise on the refused ones."""
    seen = []
    eliminate = polycert._pivot_columns

    def spy(a, *args):
        if refuse(a):
            raise AssertionError(f"eliminated a {a.dtype} block of shape {a.shape}")
        seen.append((a.shape, a.dtype.kind))
        return eliminate(a, *args)

    monkeypatch.setattr(polycert, "_pivot_columns", spy)
    return seen


@pytest.mark.parametrize("kind", [int, complex])
def test_dense_blocks_take_the_compressed_route(monkeypatch, kind):
    rng = np.random.default_rng(SEED)
    rows = [[kind(v) for v in r] for r in rng.integers(1, 9, size=(40, 5)).tolist()]
    seen = _spy_pivot_columns(monkeypatch)
    assert span_certificate(_plain_rows(rows), range(5), 4).certified
    assert seen == [((13, 5), "i")]  # only the (S + 8) x S compression
    # a column of multiples of PRIME vanishes modulo PRIME: its lift from the
    # compression's echelon fails on the members, and Bareiss on the exact Gram
    # finds the column's rank; the 40-row block is never eliminated
    for i, r in enumerate(rows):
        r[2] = kind(PRIME * (1 + i % 3))
    seen.clear()
    assert span_certificate(_plain_rows(rows), range(5), 4).certified
    assert seen == [((13, 5), "i"), ((5, 5), "O")]


@pytest.mark.parametrize("basis, top", [("laguerre", 40), ("legendre", 24)])
def test_dense_bases_certify_without_eliminating_the_row_block(monkeypatch, basis, top):
    _spy_pivot_columns(monkeypatch, refuse=lambda a: a.shape[0] > a.shape[1] + 8)
    assert product_span_certificate(orthonormal_family(basis, top), top).certified


def _dyadic_geometric(n: int) -> list[dict]:
    """The members of ``geometric_tail_family(n)`` up to one constant each: dyadic integers."""
    return [{s: 2 ** (40 - abs(s - k)) for s in range(-32, 33)} for k in range(1, n + 1)]


def test_geometric_deficit_is_lifted_without_bareiss(monkeypatch):
    # a real family's lift is checked on its members: no exact row, no Bareiss
    def refuse(self, meet):
        raise AssertionError(f"built exact rows over {meet.shape[1]} slots")

    monkeypatch.setattr(ProductRows, "exact", refuse)
    _spy_pivot_columns(monkeypatch, refuse=lambda a: a.dtype == object)
    for family in (geometric_tail_family(8), fourier_family(_dyadic_geometric(8))):
        assert fourier_span_certificate(family, 8).missing_degrees == (8,)


def _rotated(family) -> list[dict]:
    """Coefficient s of every member times i^s: complex rows with the same ladder."""
    return [{s: v * 1j**s for s, v in m.items()} for m in family.members]


def test_each_block_is_eliminated_once(monkeypatch):
    seen = _spy_pivot_columns(monkeypatch)
    family = geometric_tail_family(8)
    assert fourier_span_certificate(family, 8).missing_degrees == (8,)
    # the 25 x 17 compression of the 64 x 17 block; its echelon lifts the deficit
    assert seen == [((25, 17), "i")]
    seen.clear()
    assert fourier_span_certificate(fourier_family(_rotated(family)), 8).missing_degrees == (8,)
    # the complex residues, then the compression of their 128 x 34 realification
    assert seen == [((25, 17), "i"), ((42, 34), "i")]


class _ZeroGenerator:
    """A generator that draws only zero bytes, so the compression C = R A is 0."""

    def __init__(self, seed):
        pass

    def randbytes(self, n: int) -> bytes:
        return bytes(n)


def test_a_vanishing_compression_still_gives_the_exact_ladder(monkeypatch):
    # C = 0 has no pivot: every column's lift claims it is zero, the members
    # refute that, and Bareiss on the exact Gram decides every slot
    monkeypatch.setattr(polycert, "random", SimpleNamespace(Random=_ZeroGenerator))
    seen = _spy_pivot_columns(monkeypatch)
    assert product_span_certificate(orthonormal_family("laguerre", 12), 12).certified
    assert seen == [((21, 13), "i"), ((13, 13), "O")]
    seen.clear()
    assert fourier_span_certificate(geometric_tail_family(8), 8).missing_degrees == (8,)
    assert seen == [((25, 17), "i"), ((17, 17), "O")]


def test_rational_reconstruction():
    assert polycert._rational(0) == (0, 1)
    assert polycert._rational(-3 * pow(7, -1, PRIME) % PRIME) == (-3, 7)
    bound = polycert._LIFT_BOUND
    assert bound == 32767 and 2 * bound * bound < PRIME < 2 * (bound + 1) ** 2
    assert polycert._rational(bound * pow(bound, -1, PRIME) % PRIME) == (1, 1)
    # 3/65537 has a denominator past the bound and no small fraction shares its residue
    assert polycert._rational(3 * pow(65537, -1, PRIME) % PRIME) is None


_SMALL_DEPENDENCY = [[1, 2, 5], [3, -1, 1], [0, 4, 8], [2, 2, 6]]  # column 2 = column 0 + 2 column 1
_LARGE_DEPENDENCY = [[65537, 3, 1], [131074, 6, 0], [-65537, -3, 2]]  # column 1 = 3/65537 column 0


@pytest.mark.parametrize(
    "rows, bareiss",
    [
        (_SMALL_DEPENDENCY, False),
        (_LARGE_DEPENDENCY, True),
        # complex rows, realified: (2 + i) and (3 + 65537 i)/65537 = 3/65537 + i times column 0
        ([[complex(1, 1), complex(1, 3), 2], [2, complex(4, 2), 1j], [3j, complex(-3, 6), 0]], False),
        ([[65537 * z, (3 + 65537j) * z, w] for z, w in ((1 + 1j, 1), (2, 1j), (3j, 0))], True),
    ],
)
def test_deficits_stay_exact_on_both_deficit_routes(monkeypatch, rows, bareiss):
    seen = _spy_pivot_columns(monkeypatch)
    cert = span_certificate(_plain_rows(rows), range(3), 2)
    covered = _gaussian_pivot_columns([[_conj(v) for v in r] for r in rows], 3)
    assert cert.missing_degrees == tuple(c for c in range(3) if c not in covered) != ()
    assert any(kind == "O" for _, kind in seen) == bareiss


def test_a_lift_holds_on_every_row_or_falls_back(monkeypatch):
    # column 1 is twice column 0 modulo PRIME, and exactly on every listed pair
    # but one, wherever it sits, for real and for complex rows
    seen = _spy_pivot_columns(monkeypatch)
    for scale in (1, 1 + 2j):
        for breaking in range(3):
            rows = [[1, 2], [3, 6], [-2, -4]]
            rows[breaking][1] += PRIME
            seen.clear()
            assert span_certificate(_plain_rows([[v * scale for v in r] for r in rows]), range(2), 1).certified
            assert seen[-1][1] == "O", (scale, breaking)


def test_former_float_ladder_defects_are_certified():
    # the float SVD ladder called all four inconclusive
    cases = (("hermite", 28, ()), ("hermite", 28, (5,)), ("laguerre", 20, ()), ("laguerre", 40, ()))
    for basis, top, exclude in cases:
        cert = product_span_certificate(orthonormal_family(basis, top, exclude=exclude), top)
        assert cert.certified, (basis, top, exclude, cert.missing_degrees)
    assert product_span_certificate(orthonormal_family("hermite", 60), 60).certified


def test_geometric_tail_at_order_8_misses_only_8():
    cert = fourier_span_certificate(geometric_tail_family(8), 8)
    assert cert.missing_degrees == (8,)
    # the doubles are dyadic multiples of one constant per member
    assert fourier_span_certificate(fourier_family(_dyadic_geometric(8)), 8).missing_degrees == (8,)


def _reference_members(basis: str, top: int) -> list[list[Fraction]]:
    """Basis polynomials 0..top by their three-term recurrences, in exact rationals."""
    if basis == "monomial":
        return [[Fraction(0)] * n + [Fraction(1)] for n in range(top + 1)]
    out = [[Fraction(1)]]

    def add(*terms):
        width = max(len(t) for t in terms)
        return [sum((t[i] for t in terms if i < len(t)), Fraction(0)) for i in range(width)]

    def times_x(p):
        return [Fraction(0)] + p

    def scale(c, p):
        return [c * v for v in p]

    out.append({"hermite": [0, 2], "legendre": [0, 1], "laguerre": [1, -1]}[basis])
    for n in range(1, top):
        p, q = out[n], out[n - 1]
        if basis == "hermite":  # H_{n+1} = 2x H_n - 2n H_{n-1}
            nxt = add(scale(2, times_x(p)), scale(-2 * n, q))
        elif basis == "legendre":  # (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}
            nxt = scale(Fraction(1, n + 1), add(scale(2 * n + 1, times_x(p)), scale(-n, q)))
        else:  # (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}
            nxt = add(scale(2 * n + 1, p), scale(-1, times_x(p)), scale(-n, q))
            nxt = scale(Fraction(1, n + 1), nxt)
        out.append(nxt)
    return out[: top + 1]


def _reference_missing(basis: str, top: int, exclude, check: int) -> tuple[int, ...]:
    members = [m for n, m in enumerate(_reference_members(basis, top)) if n not in exclude]
    rows = []
    for k, a in enumerate(members):
        for b in members[k:]:  # real members: the (b, a) product is the same row
            row = [Fraction(0)] * (check + 1)
            for i, u in enumerate(a):
                for j, v in enumerate(b):
                    if i + j <= check:
                        row[i + j] += u * v
            rows.append(row)
    covered = _pivot_columns(rows, check + 1)
    return tuple(d for d in range(check + 1) if d not in covered)


@pytest.mark.parametrize("basis", sorted(BASIS_INFO))
def test_ladder_matches_exact_reference_on_a_sweep(basis):
    for top in range(0, 13, 3):
        for exclude in ((), (0,), (top // 2,)):
            if top == 0 and exclude:
                continue
            fam = orthonormal_family(basis, top, exclude=exclude)
            for check in (0, top, 2 * top + 3):
                cert = product_span_certificate(fam, check)
                expected = _reference_missing(basis, top, exclude, check)
                assert cert.missing_degrees == expected, (top, exclude, check)
                assert cert.certified == (not cert.missing_degrees)
