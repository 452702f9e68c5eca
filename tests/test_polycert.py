from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import hermite as herm
from numpy.polynomial import laguerre as lag
from numpy.polynomial import legendre as leg
from numpy.polynomial import polynomial as poly

from povm_purity.errors import EmptyFamily, IndexOutOfRange
from povm_purity.polycert import (
    BASIS_INFO,
    PolyFamily,
    _hermite_member,
    orthonormal_family,
    product_span_certificate,
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
