import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import SEED
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite as herm
from numpy.polynomial import laguerre as lag
from numpy.polynomial import legendre as leg
from numpy.polynomial import polynomial as poly

from povm_purity.errors import EmptyFamily, IndexOutOfRange, NonFinite, NonIntegerIndex
from povm_purity.phase import FourierFamily, fourier_family, fourier_span_certificate, geometric_tail_family, single_mode_family
from povm_purity import polycert
from povm_purity.polycert import (
    _SQRT_M1,
    BASIS_INFO,
    PRIME,
    PolyFamily,
    ProductRows,
    _read_exact,
    orthonormal_family,
    product_span_certificate,
    span_certificate,
)

# the prime a failed lift from PRIME ladders the listed rows modulo next
_SECOND_PRIME = 2**31 - 99

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
    # Gauss quadrature of 16 nodes is exact on the products, of degree <= 12:
    # the integer members are orthogonal with squared norms 2^n n! sqrt(pi),
    # 4^n 2 / (2n + 1) and (n!)^2
    cases = {
        "hermite": (herm.hermgauss(16), lambda n: 2.0**n * math.factorial(n) * math.sqrt(math.pi)),
        "legendre": (leg.leggauss(16), lambda n: 4.0**n * 2.0 / (2 * n + 1)),
        "laguerre": (lag.laggauss(16), lambda n: float(math.factorial(n)) ** 2),
    }
    for basis, ((nodes, weights), norm) in cases.items():
        fam = orthonormal_family(basis, 6)
        vals = np.stack([poly.polyval(nodes, np.array(m, dtype=float)) for m in fam.members])
        scale = np.sqrt([norm(n) for n in range(7)])
        gram = (vals * weights) @ vals.T / np.outer(scale, scale)
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-10)


def test_members_are_the_exact_reference_times_their_integer_scale():
    scales = {"hermite": lambda n: 1, "legendre": lambda n: 2**n, "laguerre": math.factorial, "monomial": lambda n: 1}
    for basis, scale in scales.items():
        members = orthonormal_family(basis, 60).members
        assert all(type(c) is int for m in members for c in m)
        reference = _reference_members(basis, 60)
        assert members == tuple(tuple(scale(n) * c for c in m) for n, m in enumerate(reference)), basis


def test_member_degrees_and_trimming():
    fam = orthonormal_family("monomial", 4, exclude=(1, 3))
    assert [len(m) - 1 for m in fam.members] == [0, 2, 4]
    fam2 = orthonormal_family("legendre", 3)
    assert [len(m) - 1 for m in fam2.members] == [0, 1, 2, 3]
    assert all(m[-1] != 0 for m in fam2.members)
    fam3 = orthonormal_family("hermite", 5, exclude=(2,))
    assert [len(m) - 1 for m in fam3.members] == [0, 1, 3, 4, 5]
    fam4 = orthonormal_family("hermite", 3, exclude=(0,))
    assert [len(m) - 1 for m in fam4.members] == [1, 2, 3]
    # no double range bounds the integers: the leading terms 2^n, C(2n, n) and (-1)^n
    top = {b: orthonormal_family(b, 171).members[-1] for b in ("hermite", "legendre", "laguerre")}
    assert all(len(m) == 172 for m in top.values())
    assert (top["hermite"][-1], top["legendre"][-1], top["laguerre"][-1]) == (2**171, math.comb(342, 171), -1)


def test_constructor_errors():
    with pytest.raises(ValueError, match="unknown basis"):
        orthonormal_family("chebyshev", 3)
    with pytest.raises(IndexOutOfRange):
        orthonormal_family("hermite", -1)
    with pytest.raises(IndexOutOfRange):
        orthonormal_family("hermite", 3, exclude=(4,))
    for k in (7, -1):
        with pytest.raises(IndexOutOfRange):
            orthonormal_family("hermite", 5, exclude=(k,))
    # 8 bytes per coefficient alone pass MAX_STACK_MB: refused before any member is built
    with pytest.raises(IndexOutOfRange, match="monomial members to index 8191 hold 33558528 coefficients: at 8 bytes"):
        orthonormal_family("monomial", 8191)
    with pytest.raises(EmptyFamily):
        orthonormal_family("legendre", 0, exclude=(0,))


def test_excluded_indices_must_be_integers():
    # int() would silently turn 1.5 into index 1
    for bad in (1.5, 2.0, "1", None):
        with pytest.raises(NonIntegerIndex, match="excluded indices must be integers"):
            orthonormal_family("hermite", 3, exclude=(0, bad))
    kept = orthonormal_family("hermite", 3, exclude=(np.int64(1),))
    assert kept.members == orthonormal_family("hermite", 3, exclude=(1,)).members


@pytest.mark.parametrize(
    "call",
    [
        lambda: product_span_certificate(orthonormal_family("hermite", 3), True),
        lambda: fourier_span_certificate(single_mode_family(3), np.True_),
        lambda: single_mode_family(True),
        lambda: orthonormal_family("hermite", False),
    ],
    ids=["check-degree", "check-order", "single-members", "max-degree"],
)
def test_bools_are_not_integers(call):
    # True would pass as 1: a certificate to degree True, a family of one member
    with pytest.raises(NonIntegerIndex, match="must be an integer, got"):
        call()


@pytest.mark.parametrize("flag", [True, np.True_])
def test_excluded_indices_may_not_be_bools(flag):
    # (True,) would drop member 1
    with pytest.raises(NonIntegerIndex, match="excluded indices must be integers"):
        orthonormal_family("hermite", 3, exclude=(flag,))


@pytest.mark.parametrize("basis", ["hermite", "legendre", "laguerre", "monomial"])
def test_support_size_from_the_arguments_is_the_scanned_support(basis):
    """The count the early meet-array check reads off (basis, max, exclude)
    is the support ProductRows scans from the built members."""
    for top in range(0, 13):
        for exclude in [(), *[(k,) for k in range(top + 1)], *[(j, k) for j in range(top + 1) for k in range(j)]]:
            if len(exclude) > top:
                continue
            members = orthonormal_family(basis, top, exclude=exclude).members
            scanned = ProductRows([dict(enumerate(m)) for m in members], sign=1)._support
            assert polycert._support_size(basis, top, set(exclude)) == len(scanned), (top, exclude)


def test_certificate_rows_hold_only_nonzero_coefficients(monkeypatch):
    """The members reach ProductRows without their zero coefficients, and
    certify as before."""
    seen = []
    init = ProductRows.__init__

    def spy(self, members, *args, **kwargs):
        seen.extend(members)
        init(self, members, *args, **kwargs)

    monkeypatch.setattr(ProductRows, "__init__", spy)
    fam = orthonormal_family("legendre", 12, exclude=(5,))
    assert product_span_certificate(fam, 12).certified
    assert [sorted(m) for m in seen] == [[k for k, c in enumerate(m) if c] for m in fam.members]
    assert all(v for m in seen for v in m.values())


def test_span_certificate_refuses_a_huge_slot_plan():
    # a (4, 10^9 + 1) int64 meet array is 30518 MB: refused before any slot is listed
    with pytest.raises(IndexOutOfRange, match="1000000001 slots over 4 indices: a 30518 MB meet array"):
        product_span_certificate(orthonormal_family("hermite", 3), 10**9)
    rows = ProductRows([dict(enumerate(m)) for m in orthonormal_family("hermite", 3).members], sign=1)
    limit = polycert.MAX_STACK_MB * 2**20 // (4 * 8)
    rows.check_slots(limit)
    with pytest.raises(IndexOutOfRange):
        rows.check_slots(limit + 1)


def test_product_rows_bound_their_residue_arrays_and_limb_stack(monkeypatch):
    """The (members, support + 1) int64 residue arrays are refused past
    MAX_STACK_MB before ``_read_exact`` runs, which it first does at a sketch
    or an ``annihilate``, not at construction, and only for a family that
    single products do not prove.  The sketch goes in blocks of rows whose
    gather, limbs and member products stay near _SKETCH_BLOCK_MB, and the
    blocks leave every entry of it as it is."""

    class Built(Exception):
        pass

    def refuse(*args):
        raise Built

    def single(n):
        return [{k: 1.0} for k in range(n)]

    def pairs(n):  # no product's extremes are both 0, so order 0 takes the sketch
        return FourierFamily(members=tuple({k: 1.0, k + 1: 1.0} for k in range(n)))

    def traced(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 300 single-mode members over 81 slots: a (300, 81) float gather per sketch
    # row, 89 rows, about 17 MB at once
    rows = ProductRows(single(300), sign=-1)
    meet = rows.meet(range(-40, 41))
    blocked, peak = traced(lambda: rows.sketch(meet, PRIME, _SQRT_M1))
    assert peak < 2 * polycert._SKETCH_BLOCK_MB * 2**20, peak
    # the every-row ladder of 200 members over 21 slots: 40000 listed rows, a
    # (200, 21) float gather each; past its (40000, 21) int64 block it takes
    # about one block of rows at a time
    wide = ProductRows(single(200), sign=-1)
    listed, peak = traced(lambda: wide.sketch(wide.meet(range(-10, 11)), PRIME, _SQRT_M1, every=True))
    assert listed.shape == (40000, 21) and peak < listed.nbytes + 2 * polycert._SKETCH_BLOCK_MB * 2**20, peak
    # listed row (i, j) is conj(m_i) m_j, one at frequency i - j
    i, j = np.divmod(np.arange(40000), 200)
    near = abs(i - j) <= 10
    assert (listed.sum(axis=1) == near).all() and (listed[near, i[near] - j[near] + 10] == 1).all()
    monkeypatch.setattr(polycert, "_SKETCH_BLOCK_MB", 0)  # one row at a time
    assert blocked.shape == (89, 81) and (rows.sketch(meet, PRIME, _SQRT_M1) == blocked).all()
    monkeypatch.setattr(polycert, "_read_exact", refuse)
    # 10 members over 11 indices: 1920 B of conjugated and plain residues
    monkeypatch.setattr(polycert, "MAX_STACK_MB", 1900 / 2**20)
    with pytest.raises(IndexOutOfRange, match=r"10 members over 11 indices need an \(10, 12\) conjugated and plain int64"):
        fourier_span_certificate(pairs(10), 0)
    assert fourier_span_certificate(fourier_family(single(10)), 0).certified  # no sketch, no bound
    # 100 members: 163200 B of residues; the first sketch reads the members
    monkeypatch.setattr(polycert, "MAX_STACK_MB", 200000 / 2**20)
    with pytest.raises(Built):
        fourier_span_certificate(pairs(100), 0)
    monkeypatch.setattr(polycert, "MAX_STACK_MB", 256)
    rows = ProductRows(single(1000), sign=-1)
    with pytest.raises(Built):
        rows.annihilate(rows.meet([0]), (np.ones((1, 1), dtype=object), None))
    with pytest.raises(IndexOutOfRange, match=r"need an \(6000, 6002\) conjugated and plain int64 residue arrays of 549 MB"):
        fourier_span_certificate(pairs(6000), 0)


def test_the_every_row_sketch_is_the_listed_rows_in_order():
    # a real polynomial family lists each unordered pair once, a complex Fourier
    # family every ordered pair; each row is read under both roots of -1
    p = _SECOND_PRIME
    s = pow(2, (p - 1) // 4, p)
    # each member's content is 1, so its rows are read as they are
    members = [[1, 2, 3], [0, -1, 5, 7], [5, 0, 3], [2, 0, 0, 0, 1]]
    rows = ProductRows([dict(enumerate(m)) for m in members], sign=1)
    expected = [_conv_int(a, b) + [0] * (10 - len(a) - len(b)) for i, a in enumerate(members) for b in members[i:]]
    assert rows.sketch(rows.meet(range(9)), p, s, every=True).tolist() == [[v % p for v in r] for r in expected]
    fourier = [{0: 1 + 2j, 2: -3}, {1: 3j, 2: 2}, {-1: 1, 1: 1 - 1j}]
    rows = ProductRows(fourier, sign=-1)
    expected, slots = _fourier_rows(fourier, 3)
    for root in (s, p - s):
        image = [[(int(z.real) + int(z.imag) * root) % p for z in map(complex, r)] for r in expected]
        assert rows.sketch(rows.meet(slots), p, root, every=True).tolist() == image


def test_basis_info_covers_all_builders():
    assert set(BASIS_INFO) == {"hermite", "legendre", "laguerre", "monomial"}
    for basis, (weight, interval, step) in BASIS_INFO.items():
        assert isinstance(weight, str) and isinstance(interval, str)
        assert all(type(v) is int for v in step(3))
        assert [len(m) for m in orthonormal_family(basis, 2).members] == [1, 2, 3]


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
    fam = PolyFamily(members=(m, m, m))
    cert = product_span_certificate(fam, 1)
    assert cert.missing_degrees == (1,)


# ---------------------------------------------------------------------------
# the exact ladder: modular rank, exact pass, and an independent reference
# ---------------------------------------------------------------------------


def _gaussian(v) -> tuple[Fraction, Fraction]:
    if isinstance(v, int):
        return Fraction(v), Fraction(0)
    return Fraction(complex(v).real), Fraction(complex(v).imag)


def _gaussian_echelon(rows, ncols: int) -> tuple[list[int], list]:
    """(pivot columns, reduced row echelon form) over Q(i) of rows of ints and
    complex numbers, each read exactly.

    Entries become (re, im) pairs of Fractions; the elimination mirrors
    ``_pivot_columns`` above.  Each pivot row is scaled to 1 at its pivot,
    and row k of the returned form is the k-th pivot's.
    """

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inv(x):
        n = x[0] * x[0] + x[1] * x[1]
        return (x[0] / n, -x[1] / n)

    zero = (Fraction(0), Fraction(0))
    mat = [[_gaussian(v) for v in r] + [zero] * (ncols - len(r)) for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != zero), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank] = [mul(inv(mat[rank][col]), b) for b in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != zero:
                f = mat[i][col]
                mat[i] = [(a[0] - fb[0], a[1] - fb[1]) for a, fb in zip(mat[i], (mul(f, b) for b in lead))]
        pivots.append(col)
    return pivots, mat


def _gaussian_pivot_columns(rows, ncols: int) -> set[int]:
    """Pivot columns over Q(i) of rows of ints and complex numbers, each read exactly."""
    return set(_gaussian_echelon(rows, ncols)[0])


def _reference_weights(rows, ncols: int) -> tuple[list, list]:
    """The weights (re, im) of every pivotless column's dependency on the
    pivot columns before it, over Q(i) from the reduced echelon of ``rows``:
    its coordinates over their least common denominator den, and -den at the
    column, as Python ints [column, pivotless column]."""
    pivots, mat = _gaussian_echelon(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    re, im = ([[0] * len(free) for _ in range(ncols)] for _ in range(2))
    for f, column in enumerate(free):
        coordinates = [mat[k][column] for k in range(len(pivots))]
        den = math.lcm(*(x.denominator for z in coordinates for x in z))
        for pivot, (a, b) in zip(pivots, coordinates):
            re[pivot][f], im[pivot][f] = int(a * den), int(b * den)
        re[column][f] = -den
    return re, im


def _plain_rows(rows) -> ProductRows:
    """Product rows equal to conj(rows): each row times the constant member 1."""
    return ProductRows([dict(enumerate(r)) for r in rows], sign=-1, right=[{0: 1}])


def _conj(v):
    return v if isinstance(v, int) else complex(v).conjugate()


def test_prime_and_square_root_of_minus_one():
    assert PRIME == 2**31 - 19 and PRIME % 4 == 1
    assert all(PRIME % d for d in range(2, math.isqrt(PRIME) + 1))
    assert _SQRT_M1 * _SQRT_M1 % PRIME == PRIME - 1


def test_the_primes_of_the_lift():
    primes = list(itertools.islice(polycert._primes(), 4))
    assert [p for p, _ in primes] == [PRIME, _SECOND_PRIME, 2**31 - 171, 2**31 - 379]
    assert primes[0][1] == _SQRT_M1
    for p, root in primes:
        assert p % 8 == 5 and all(p % d for d in range(2, math.isqrt(p) + 1))
        assert root * root % p == p - 1
    # every candidate between them is composite
    for (p, _), (q, _) in zip(primes, primes[1:]):
        assert all(any(n % d == 0 for d in range(2, math.isqrt(n) + 1)) for n in range(q + 8, p, 8))


@pytest.mark.parametrize("lead", [PRIME, complex(PRIME, PRIME)])
def test_multiples_of_the_prime_take_the_next_prime(monkeypatch, lead):
    rows = _plain_rows([[lead, 1], [0, 1]])
    # modulo PRIME the first column vanishes, over Q (or Q(i)) it does not
    assert polycert._pivot_columns(rows.sketch(rows.meet(range(2)), PRIME, _SQRT_M1), PRIME) == [False, True]
    seen = _spy_pivot_columns(monkeypatch)
    assert span_certificate(rows, range(2), 1).certified
    # the lift from PRIME fails on the members; the listed rows modulo the next
    # prime have the larger ladder, full here (a complex family takes one
    # ladder per root of -1)
    roots = 1 if isinstance(lead, int) else 2
    assert seen == [((10, 2), PRIME)] * roots + [((2, 2), _SECOND_PRIME)] * roots
    cert = span_certificate(_plain_rows([[lead, 1]]), range(2), 1)
    assert cert.missing_degrees == (1,)


_small = st.integers(-3, 3)
_multiples = st.sampled_from([PRIME, -PRIME, 2 * PRIME, PRIME + 1, 3 * PRIME - 2,
                              _SECOND_PRIME, -_SECOND_PRIME, 2 * _SECOND_PRIME + 1])
_integer_entries = st.one_of(_small, _small, _multiples)
_gaussian_entries = st.one_of(
    _integer_entries,
    st.builds(complex, _small, _small),
    st.builds(complex, st.sampled_from([float(PRIME), float(-PRIME)]), _small),
)


def _live(members, sign: int, slots) -> list:
    """The slots that two member indices reach, in ladder order: the columns a
    certificate ladders, over which its dependencies are weighted."""
    support = {s for m in members for s, v in m.items() if v}
    return [g for g in slots if any(g - sign * t in support for t in support)]


def _record_dependencies(patch) -> list:
    """The weights of every ``annihilate`` call that holds, in order."""
    held, annihilate = [], ProductRows.annihilate

    def spy(self, meet, weights):
        holds = annihilate(self, meet, weights)
        if holds:
            held.append(weights)
        return holds

    patch.setattr(ProductRows, "annihilate", spy)
    return held


def _audit(held, rows, slots, live, missing) -> None:
    """Check the last dependencies that held in Fractions, on the reference
    ``rows`` over ``slots``: each column of weights over the ``live`` slots
    annihilates every row, and its last nonzero weight, -den, sits at a
    missing slot; every missing live slot has one, and a deficit on no live
    slot holds none.  The weights are the reference's coordinates over their
    least common denominator."""
    dead = [g for g in live if g in missing]
    assert bool(held) == bool(dead)
    if not dead:
        return
    re, im = held[-1]
    im = np.zeros_like(re) if im is None else im
    at = [slots.index(g) for g in live]
    ends = []
    for f in range(re.shape[1]):
        w = [(Fraction(int(a)), Fraction(int(b))) for a, b in zip(re[:, f], im[:, f])]
        last = max(k for k, z in enumerate(w) if any(z))
        assert w[last][0] < 0 and w[last][1] == 0
        ends.append(live[last])
        for row in rows:
            terms = [(x * c - y * d, x * d + y * c) for (x, y), (c, d) in zip(w, (_gaussian(row[k]) for k in at))]
            assert (sum(t[0] for t in terms), sum(t[1] for t in terms)) == (0, 0)
    assert ends == dead
    # each is the reference dependency over its least common denominator
    assert (re.tolist(), im.tolist()) == _reference_weights([[row[k] for k in at] for row in rows], len(live))


def _check_plain_rows(rows, ncols: int) -> None:
    """The certificate of ``_plain_rows(rows)`` against the exact reference,
    with its dependencies audited on the reference rows."""
    with pytest.MonkeyPatch.context() as patch:
        held = _record_dependencies(patch)
        cert = span_certificate(_plain_rows(rows), range(ncols), ncols - 1)
    reference = [[_conj(v) for v in r] for r in rows]
    covered = _gaussian_pivot_columns(reference, ncols)
    missing = tuple(c for c in range(ncols) if c not in covered)
    assert cert.missing_degrees == missing
    assert cert.certified == (not missing)
    live = _live([dict(enumerate(r)) for r in rows] + [{0: 1}], -1, range(ncols))
    _audit(held, reference, list(range(ncols)), live, missing)


@seed(SEED)
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_span_certificate_matches_exact_reference(data):
    ncols = data.draw(st.integers(1, 5), label="ncols")
    entries = data.draw(st.sampled_from([_integer_entries, _gaussian_entries]), label="kind")
    rows = data.draw(
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=6), label="rows"
    )
    _check_plain_rows(rows, ncols)


@seed(SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_tall_blocks_match_exact_reference(data):
    # more rows than the S + 8 of the sketch, so a deficit ladders a taller block
    ncols = data.draw(st.integers(1, 4), label="ncols")
    entries = data.draw(st.sampled_from([_integer_entries, _gaussian_entries]), label="kind")
    height = ncols + 8
    rows = data.draw(
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=2 * height, max_size=3 * height),
        label="rows",
    )
    _check_plain_rows(rows, ncols)


def _read_by_ratios(member) -> dict[int, tuple[int, int]]:
    """The reference reading: one float.as_integer_ratio per double part."""
    ratios = {}
    for k, v in member.items():
        if isinstance(v, (int, np.integer)):
            ratios[k] = ((int(v), 1), (0, 1))
        else:
            z = complex(v)
            ratios[k] = (z.real.as_integer_ratio(), z.imag.as_integer_ratio())
    den = max((d for parts in ratios.values() for _, d in parts), default=1)
    out = {k: (a * (den // da), b * (den // db)) for k, ((a, da), (b, db)) in ratios.items() if a or b}
    g = math.gcd(*(x for z in out.values() for x in z))
    return {k: (a // g, b // g) for k, (a, b) in out.items()} if g > 1 else out


# doubles of every binary exponent, subnormals and signed zeros included
_double = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-1000, -(2.0**1000), 2.0**1023, 1.0]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 1023)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_coefficient = st.one_of(
    _double,
    st.builds(complex, _double, _double),
    st.builds(np.complex128, st.builds(complex, _double, _double)),
    st.integers(-(2**70), 2**70),
)


@seed(SEED)
@settings(max_examples=400, deadline=None, database=None)
@given(members=st.lists(st.dictionaries(st.integers(-40, 40), _coefficient, max_size=12), max_size=5))
def test_read_exact_is_the_integer_ratio_reading(members):
    """One frexp over the members gives the very integers of as_integer_ratio."""
    got = _read_exact(members)
    assert got == [_read_by_ratios(m) for m in members]
    assert [list(row) for row in got] == [[k for k in m if k in row] for m, row in zip(members, got)]
    assert all(type(x) is int for row in got for z in row.values() for x in z)


# the values a family may hold besides those above: real complex numbers,
# numpy integers, and integers past 2^64 and past the double range
_held = st.one_of(
    _coefficient,
    st.builds(complex, _double, st.sampled_from([0.0, -0.0])),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**1100), 2**1100),
)
# and those refused with NonFinite: NaN and infinite parts, and bools
_refused = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), complex(1.0, math.nan),
                            complex(-math.inf, 0.0), np.complex128(complex(0.0, math.inf)),
                            True, False, np.True_, np.False_])


def _refusal(members) -> str | None:
    """The NonFinite text for ``members``, found value by value: the first
    bool, else the first NaN or infinite value of a member that holds a
    value other than an integer; None when there is neither."""

    def text(n, k):
        return f"member {n}: coefficient {members[n][k]!r} at index {k} is not a finite number"

    for n, m in enumerate(members):
        for k, v in m.items():
            if isinstance(v, (bool, np.bool_)):
                return text(n, k)
    integral = (int, np.integer)
    for n, m in enumerate(members):
        for k, v in m.items():
            if not isinstance(v, integral) and not cmath.isfinite(complex(v)):
                return text(n, k)
    return None


@seed(SEED)
@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_the_scan_gives_what_the_exact_reading_gives(data):
    """The support, the (least index, greatest index, member) bounds and the
    realness that ``ProductRows`` finds with no exact arithmetic are those of
    ``_read_exact``'s output, and both refuse the same values with the same
    text, whatever members mix and wherever a refused value sits."""
    members = data.draw(st.lists(st.dictionaries(st.integers(-40, 40), _held, max_size=12), max_size=5),
                        label="members")
    for _ in range(data.draw(st.integers(0, 2), label="refused") if members else 0):
        n, at = data.draw(st.integers(0, len(members) - 1), label="member"), data.draw(st.integers(-40, 40), label="at")
        items = [(k, v) for k, v in members[n].items() if k != at]
        items.insert(data.draw(st.integers(0, len(items)), label="position"), (at, data.draw(_refused, label="bad")))
        members[n] = dict(items)
    refusal = _refusal(members)
    if refusal is not None:
        for read in (lambda: _read_exact(members), lambda: ProductRows(members, sign=1)):
            with pytest.raises(NonFinite) as raised:
                read()
            assert str(raised.value) == refusal
        return
    exact = _read_exact(members)
    rows = ProductRows(members, sign=1)
    assert rows._support == sorted(set().union(*exact))
    assert rows._bounds.tolist() == [[min(m), max(m), k] for k, m in enumerate(exact) if m]
    assert rows.real is (not any(b for m in exact for _, b in m.values()))


def _spy_pivot_columns(monkeypatch, refuse=lambda a, modulus: False) -> list:
    """Record the (shape, modulus) of every elimination, each of an int64
    block; raise on the refused ones."""
    seen = []
    eliminate = polycert._pivot_columns

    def spy(a, modulus, *args):
        if a.dtype != np.int64 or refuse(a, modulus):
            raise AssertionError(f"eliminated a {a.dtype} block of shape {a.shape} modulo {modulus}")
        seen.append((a.shape, modulus))
        return eliminate(a, modulus, *args)

    monkeypatch.setattr(polycert, "_pivot_columns", spy)
    return seen


@pytest.mark.parametrize("kind", [int, complex])
def test_dense_blocks_take_the_compressed_route(monkeypatch, kind):
    rng = np.random.default_rng(SEED)
    rows = [[kind(v) for v in r] for r in rng.integers(1, 9, size=(40, 5)).tolist()]
    seen = _spy_pivot_columns(monkeypatch)
    assert span_certificate(_plain_rows(rows), range(5), 4).certified
    assert seen == [((13, 5), PRIME)]  # only the (S + 8) x S sketch
    # a column of multiples of PRIME vanishes modulo PRIME: its lift from the
    # sketch's echelon fails on the members, and the 40 listed rows modulo the
    # next prime have full rank (complex entries with no imaginary part make a
    # real family, laddered under one root of -1)
    for i, r in enumerate(rows):
        r[2] = kind(PRIME * (1 + i % 3))
    seen.clear()
    assert span_certificate(_plain_rows(rows), range(5), 4).certified
    assert seen == [((13, 5), PRIME), ((40, 5), _SECOND_PRIME)]


@pytest.mark.parametrize("basis, top", [("laguerre", 40), ("legendre", 24)])
def test_dense_bases_certify_without_eliminating_the_row_block(monkeypatch, basis, top):
    _spy_pivot_columns(monkeypatch, refuse=lambda a, modulus: a.shape[0] > a.shape[1] + 8)
    assert product_span_certificate(orthonormal_family(basis, top), top).certified


def _dyadic_geometric(n: int) -> list[dict]:
    """The members of ``geometric_tail_family(n)`` up to one constant each: dyadic integers."""
    return [{s: 2 ** (40 - abs(s - k)) for s in range(-32, 33)} for k in range(1, n + 1)]


def test_geometric_deficit_is_lifted_without_bareiss(monkeypatch):
    # a real family's lift from the sketch modulo PRIME holds on its members:
    # no listed row is laddered, modulo PRIME or any further prime
    _spy_pivot_columns(monkeypatch, refuse=lambda a, modulus: modulus != PRIME or a.shape[0] == 64)
    for family in (geometric_tail_family(8), fourier_family(_dyadic_geometric(8))):
        assert fourier_span_certificate(family, 8).missing_degrees == (8,)


def _rotated(family) -> list[dict]:
    """Coefficient s of every member times i^s: complex rows with the same ladder."""
    return [{s: v * 1j**s for s, v in m.items()} for m in family.members]


def test_each_block_is_eliminated_once(monkeypatch):
    seen = _spy_pivot_columns(monkeypatch)
    family = geometric_tail_family(8)
    assert fourier_span_certificate(family, 8).missing_degrees == (8,)
    # the 25 x 17 sketch of the 64 x 17 block; its echelon lifts the deficit
    assert seen == [((25, 17), PRIME)]
    seen.clear()
    assert fourier_span_certificate(fourier_family(_rotated(family)), 8).missing_degrees == (8,)
    # the sketches under both roots of -1 give the real and imaginary parts
    assert seen == [((25, 17), PRIME), ((25, 17), PRIME)]


class _ZeroGenerator:
    """A generator that draws only zero bytes, so the compression C = R A is 0."""

    def __init__(self, seed):
        pass

    def randbytes(self, n: int) -> bytes:
        return bytes(n)


def _powers(n: int, degree: int) -> PolyFamily:
    """Members sum_s (k + 1)^s x^s for s <= degree and k < n: every product
    ends at 2 * degree, so below that no single product leads, and only the
    sketch can certify."""
    members = tuple(np.array([float((k + 1) ** s) for s in range(degree + 1)]) for k in range(n))
    return PolyFamily(members=members)


def test_a_vanishing_compression_still_gives_the_exact_ladder(monkeypatch):
    # C = 0 has no pivot: every column's lift claims it is zero, the members
    # refute that, and the listed rows modulo the next prime, drawn from no
    # generator, give the ladder
    monkeypatch.setattr(polycert, "random", SimpleNamespace(Random=_ZeroGenerator))
    seen = _spy_pivot_columns(monkeypatch)
    assert product_span_certificate(_powers(8, 16), 14).certified
    assert seen == [((23, 15), PRIME), ((36, 15), _SECOND_PRIME)]
    seen.clear()
    assert fourier_span_certificate(geometric_tail_family(8), 8).missing_degrees == (8,)
    assert seen == [((25, 17), PRIME), ((64, 17), _SECOND_PRIME)]


def test_a_lift_over_many_primes_lifts_each_coordinate_about_once(monkeypatch):
    """A deficit whose coordinates need many primes walks each pivotless
    column through one running denominator: 8 members of degree 30 take 23
    primes and 930 coordinates, and most lifts are of residues already
    within sqrt(M/2) of 0, integer images that return at once; the others
    number fewer than the coordinates, not the coordinates again after each
    prime."""
    lifts, rational = [], polycert._rational

    def spy(r, modulus):
        bound = math.isqrt(modulus // 2)
        if bound < r < modulus - bound:
            lifts.append(r)
        return rational(r, modulus)

    monkeypatch.setattr(polycert, "_rational", spy)
    seen = _spy_pivot_columns(monkeypatch)
    held = _record_dependencies(monkeypatch)
    cert = product_span_certificate(_powers(8, 30), 62)
    # the members as the doubles they hold: (k + 1)^s is rounded past 2^53
    assert cert.missing_degrees == _poly_reference([[int(float((k + 1) ** s)) for s in range(31)] for k in range(8)], 62)
    weights = held[-1][0]
    coordinates = (weights.shape[0] - weights.shape[1]) * weights.shape[1]
    # the lift's primes, each laddered once; the dependency checks draw their own
    primes = {modulus for _, modulus in seen}
    assert (len(primes), coordinates) == (23, 930)
    assert len(lifts) < coordinates


def _plain_case(rows) -> tuple:
    """(certificate, reference rows, slots, live slots) of ``_plain_rows(rows)``."""
    ncols = len(rows[0])
    live = _live([dict(enumerate(r)) for r in rows] + [{0: 1}], -1, range(ncols))
    return (lambda: span_certificate(_plain_rows(rows), range(ncols), ncols - 1),
            [[_conj(v) for v in r] for r in rows], list(range(ncols)), live)


def _fourier_case(members, order: int) -> tuple:
    """(certificate, reference rows, slots, live slots) of the Fourier family ``members``."""
    rows, slots = _fourier_rows(members, order)
    return lambda: fourier_span_certificate(fourier_family(members), order), rows, slots, _live(members, -1, slots)


def test_each_held_dependency_is_the_reference_over_its_least_common_denominator(monkeypatch):
    # lifted over one prime, two, nine (under both roots of -1) or 23, the
    # weights that prove a deficit are the reference's dependencies in
    # Fractions over their least common denominator, the least weights that
    # prove it, on which the bound of ``annihilate`` rests
    powers = [[int(float((k + 1) ** s)) for s in range(31)] for k in range(8)]
    cases = [
        _plain_case(_SMALL_DEPENDENCY),
        _plain_case(_LARGE_DEPENDENCY),
        _plain_case([[65537 * z, (3 + 65537j) * z, w] for z, w in ((1 + 1j, 1), (2, 1j), (3j, 0))]),
        _plain_case(_NINE_PRIME_DEFICIT),
        _fourier_case(_dyadic_geometric(8), 8),
        (lambda: product_span_certificate(_powers(8, 30), 62), *_poly_rows(powers, 62),
         _live([dict(enumerate(m)) for m in powers], 1, range(63))),
    ]
    for certificate, rows, slots, live in cases:
        with pytest.MonkeyPatch.context() as patch:
            held = _record_dependencies(patch)
            missing = certificate().missing_degrees
        assert len(held) == 1
        _audit(held, rows, slots, live, missing)


def test_an_all_zero_sketch_still_gives_the_exact_answer(monkeypatch):
    # a random sketch of zero rows covers nothing: every lift claims a zero
    # column, the members refute it, and the listed rows modulo a further
    # prime decide every slot
    sketch = ProductRows.sketch

    def zero(self, meet, prime, root, every=False):
        rows = sketch(self, meet, prime, root, every)
        return rows if every else np.zeros_like(rows)

    monkeypatch.setattr(ProductRows, "sketch", zero)
    seen = _spy_pivot_columns(monkeypatch)
    cases = [
        (lambda: product_span_certificate(_powers(8, 16), 14), ()),
        (lambda: product_span_certificate(_powers(6, 12), 12), (11, 12)),
        (lambda: product_span_certificate(orthonormal_family("hermite", 6, exclude=(1,)), 14),
         _reference_missing("hermite", 6, (1,), 14)),
        (lambda: fourier_span_certificate(geometric_tail_family(8), 8), (8,)),
        (lambda: fourier_span_certificate(geometric_tail_family(8), 7), ()),
    ]
    # one row [0, 1, -1] over the frequencies (0, 1, -1): the lift that column 0
    # is zero holds, those that columns 1 and -1 are zero do not
    cases.append((lambda: span_certificate(ProductRows([{0: 1, 1: 1}], sign=-1, right=[{0: 1, 1: -1}]), [0, 1, -1], 1),
                  (-1, 0)))
    for certificate, missing in cases:
        seen.clear()
        assert certificate().missing_degrees == missing
        assert seen[-1][1] != PRIME
    # complex rows are laddered under both roots of -1, and lift from there;
    # conj(m_0) m_1 = x + i x^2 and conj(m_1) m_0 = x - i x^2 both count
    assert fourier_span_certificate(fourier_family(_rotated(geometric_tail_family(8))), 8).missing_degrees == (8,)
    fam = PolyFamily(members=(np.array([1]), np.array([0, 1, 1j])))
    assert product_span_certificate(fam, 4).missing_degrees == (3,)


def test_certifying_builds_only_the_sketch(monkeypatch):
    """A certified family that no single product proves eliminates one
    (slots + 8)-row block, lists no row or pair and checks no dependency."""

    def refuse(*args):
        raise AssertionError("built what only a deficit reads")

    monkeypatch.setattr(ProductRows, "annihilate", refuse)
    seen = _spy_pivot_columns(monkeypatch)
    assert product_span_certificate(_powers(8, 16), 14).certified
    assert fourier_span_certificate(geometric_tail_family(8), 7).certified
    assert seen == [((23, 15), PRIME), ((23, 15), PRIME)]


def _fourier_rows(members, order: int) -> tuple[list, list]:
    """(rows, slots): conj(m_i) m_j over every pair, at the frequencies in ladder order."""
    slots = [0, *(s * g for g in range(1, order + 1) for s in (-1, 1))]
    rows = [
        [sum(_conj(a) * b for s, a in mi.items() for t, b in mj.items() if s - t == g) for g in slots]
        for mi in members
        for mj in members
    ]
    return rows, slots


def _fourier_reference(members, order: int) -> tuple[int, ...]:
    """Missing frequencies of conj(m_i) m_j over every pair, laddered over Q(i)."""
    rows, slots = _fourier_rows(members, order)
    covered = _gaussian_pivot_columns(rows, len(slots))
    return tuple(sorted(g for k, g in enumerate(slots) if k not in covered))


def _poly_rows(members, check: int) -> tuple[list, list]:
    """(rows, degrees): conj(m_i) m_j, each unordered pair once for real members."""
    real = all(isinstance(v, int) for m in members for v in m)
    rows = [
        [sum(_conj(a) * b for s, a in enumerate(mi) for t, b in enumerate(mj) if s + t == g) for g in range(check + 1)]
        for i, mi in enumerate(members)
        for mj in members[i if real else 0 :]
    ]
    return rows, list(range(check + 1))


def _poly_reference(members, check: int) -> tuple[int, ...]:
    """Missing degrees of conj(m_i) m_j, each unordered pair once for real members."""
    rows, slots = _poly_rows(members, check)
    covered = _gaussian_pivot_columns(rows, len(slots))
    return tuple(g for g in slots if g not in covered)


@seed(SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_sketch_matches_exact_reference_under_other_seeds(data):
    # few members over strided indices: most families miss some slots
    entries = data.draw(st.sampled_from([_small, st.builds(complex, _small, _small)]), label="kind")
    stride = data.draw(st.integers(1, 3), label="stride")
    if data.draw(st.booleans(), label="fourier"):
        members = data.draw(st.lists(st.dictionaries(st.integers(-2, 2).map(stride.__mul__), entries, max_size=3),
                                     min_size=1, max_size=4), label="members")
        order = data.draw(st.integers(0, 6), label="order")
        certificate = lambda: fourier_span_certificate(fourier_family(members), order)  # noqa: E731
        members = [{s: v for s, v in m.items() if v} for m in members]
        missing = _fourier_reference(members, order)
        rows, slots = _fourier_rows(members, order)
        live = _live(members, -1, slots)
    else:
        spread = st.lists(entries, min_size=1, max_size=3).map(lambda c: c[:1] + [0] * (stride - 1) + c[1:])
        members = data.draw(st.lists(spread, min_size=1, max_size=4), label="members")
        check = data.draw(st.integers(0, 8), label="check")
        fam = PolyFamily(members=tuple(np.array(m, dtype=complex) for m in members))
        certificate = lambda: product_span_certificate(fam, check)  # noqa: E731
        missing = _poly_reference(members, check)
        rows, slots = _poly_rows(members, check)
        live = _live([dict(enumerate(m)) for m in members], 1, slots)
    sketched, sketch = [], ProductRows.sketch
    for compress_seed in (polycert._COMPRESS_SEED, 1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polycert, "_COMPRESS_SEED", compress_seed)
            patch.setattr(ProductRows, "sketch",
                          lambda self, meet, *args: sketched.append(meet.shape) or sketch(self, meet, *args))
            held = _record_dependencies(patch)
            cert = certificate()
        # a family that single products prove never draws a sketch, so no seed matters to it
        assume(sketched)
        assert cert.missing_degrees == missing, compress_seed
        assert cert.certified == (not missing)
        _audit(held, rows, slots, live, missing)


# ---------------------------------------------------------------------------
# the leading-term route: single products that prove the ladder
# ---------------------------------------------------------------------------


def _refuse_the_ladder(monkeypatch) -> None:
    """Make the exact reading, the sketch, the residues and every elimination
    raise when reached."""

    def refuse(*args):
        raise AssertionError("reached the sketch route")

    monkeypatch.setattr(polycert, "_read_exact", refuse)
    monkeypatch.setattr(ProductRows, "sketch", refuse)
    monkeypatch.setattr(ProductRows, "_residues", refuse)
    monkeypatch.setattr(polycert, "_pivot_columns", refuse)


def _leads(members, sign: int, slots) -> bool:
    """Whether every slot that two member indices reach is, for some pair, the
    later in ``slots`` of the two extreme slots of its product; an extreme
    outside ``slots`` counts as later than all of them.  Members are maps
    {index: nonzero value}; plain sets, independent of ``ProductRows``."""
    position = {g: k for k, g in enumerate(slots)}
    support = {s for m in members for s in m}
    reached = {s + sign * t for s in support for t in support} & set(slots)
    last = set()
    for mi, mj in itertools.product(members, repeat=2):
        if sign > 0:
            ends = (min(mi) + min(mj), max(mi) + max(mj))
        else:
            ends = (min(mi) - max(mj), max(mi) - min(mj))
        later = max(ends, key=lambda g: position.get(g, len(slots)))
        if later in position:
            last.add(later)
    return reached <= last


_nonzero = st.integers(-3, 3).filter(bool)
_gaussian_nonzero = st.builds(complex, _small, _small).filter(bool)


@seed(SEED)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_leading_terms_match_exact_reference(data):
    # polynomials of distinct degrees with some dropped, and Fourier members
    # over random supports: many are proven by single products, some are not
    gaussian = data.draw(st.booleans(), label="gaussian")
    entries, lead = (st.builds(complex, _small, _small), _gaussian_nonzero) if gaussian else (_small, _nonzero)
    if data.draw(st.booleans(), label="fourier"):
        members = data.draw(st.lists(st.dictionaries(st.integers(-4, 4), lead, min_size=1, max_size=3),
                                     min_size=1, max_size=4), label="members")
        order = data.draw(st.integers(0, 5), label="order")
        fires = _leads(members, -1, [0, *(s * g for g in range(1, order + 1) for s in (-1, 1))])
        certificate = lambda: fourier_span_certificate(fourier_family(members), order)  # noqa: E731
        missing = _fourier_reference(members, order)
    else:
        top = data.draw(st.integers(0, 6), label="top")
        dropped = data.draw(st.sets(st.integers(0, top), max_size=top), label="dropped")
        members = [data.draw(st.lists(entries, min_size=d, max_size=d), label="below") + [data.draw(lead, label="lead")]
                   for d in range(top + 1) if d not in dropped]
        check = data.draw(st.integers(0, 2 * top + 1), label="check")
        fires = _leads([{s: v for s, v in enumerate(m) if v} for m in members], 1, range(check + 1))
        kind = complex if gaussian else float
        fam = PolyFamily(members=tuple(np.array(m, dtype=kind) for m in members))
        certificate = lambda: product_span_certificate(fam, check)  # noqa: E731
        missing = _poly_reference(members, check)
    with pytest.MonkeyPatch.context() as patch:
        if fires:
            _refuse_the_ladder(patch)
        cert = certificate()
    assert cert.missing_degrees == missing
    assert cert.certified == (not missing)


_BENCH_BASES = [("hermite", 12, ()), ("hermite", 12, (2,)), ("hermite", 20, ()), ("hermite", 20, (3,)),
                ("hermite", 28, ()), ("hermite", 28, (5,)), ("laguerre", 20, ()), ("laguerre", 40, ()),
                ("legendre", 24, ()), ("monomial", 24, ())]


@pytest.mark.parametrize("basis, top, exclude", _BENCH_BASES)
def test_basis_families_are_proven_by_single_products(monkeypatch, basis, top, exclude):
    _refuse_the_ladder(monkeypatch)
    assert product_span_certificate(orthonormal_family(basis, top, exclude=exclude), top).certified


@pytest.mark.parametrize("size", [1, 8, 16, 32])
def test_single_mode_families_are_proven_by_single_products(monkeypatch, size):
    _refuse_the_ladder(monkeypatch)
    family = single_mode_family(size)
    assert fourier_span_certificate(family, size - 1).certified
    # no product reaches +-size: missing, as on the ladder
    assert fourier_span_certificate(family, size).missing_degrees == (-size, size)


def test_only_the_later_extreme_of_a_product_counts():
    # conj(m_0) m_1 reaches 1..3 and conj(m_1) m_0 reaches -3..-1, each with its
    # later extreme outside order 2; conj(m_1) m_1 reaches -2..2.  Counting both
    # extremes of every product would certify every slot, yet 2 adds no rank
    members = [{0: -2}, {-1: -1, -3: -1, -2: -2}]
    assert _fourier_reference(members, 2) == (2,)
    family = fourier_family([{s: float(v) for s, v in m.items()} for m in members])
    assert fourier_span_certificate(family, 2).missing_degrees == (2,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_coefficients_are_refused_before_either_route(monkeypatch, bad):
    # the bad value leads its member: it must never count as a nonzero term
    def refuse(*args):
        raise AssertionError("reached a route")

    monkeypatch.setattr(ProductRows, "leading", refuse)
    _refuse_the_ladder(monkeypatch)
    fam = PolyFamily(members=(np.array([1.0]), np.array([0.0, 2.0, bad])))
    with pytest.raises(NonFinite, match="member 1: coefficient .* at index 2 is not a finite number"):
        product_span_certificate(fam, 4)


@pytest.mark.parametrize("flag", [True, np.True_, False, np.False_])
def test_bool_coefficients_are_refused_before_either_route(monkeypatch, flag):
    # a bool would be read as the integer 1, among integers and among doubles alike
    def refuse(*args):
        raise AssertionError("reached a route")

    monkeypatch.setattr(ProductRows, "leading", refuse)
    _refuse_the_ladder(monkeypatch)
    fam = PolyFamily(members=((1,), (0, 2, flag)))
    with pytest.raises(NonFinite, match=f"member 1: coefficient {flag!r} at index 2 is not a finite number"):
        product_span_certificate(fam, 4)
    # a Fourier family cannot hold one: it is refused where the family is made
    with pytest.raises(NonFinite, match=f"member 1: coefficient {flag!r} at frequency 3 is not a finite number"):
        FourierFamily(members=({0: 1.0}, {-1: 0.5, 3: flag}))


def test_rational_reconstruction():
    assert polycert._rational(0, PRIME) == (0, 1)
    assert polycert._rational(-3 * pow(7, -1, PRIME) % PRIME, PRIME) == (-3, 7)
    bound = 32767  # floor(sqrt(PRIME / 2))
    assert 2 * bound * bound < PRIME < 2 * (bound + 1) ** 2
    assert polycert._rational(bound * pow(bound, -1, PRIME) % PRIME, PRIME) == (1, 1)
    assert polycert._rational(bound + 1, PRIME) is None
    # 3/65537 has a denominator past the bound and no small fraction shares its residue
    assert polycert._rational(3 * pow(65537, -1, PRIME) % PRIME, PRIME) is None
    # modulo the product of two primes the bound is past 2^30, and 3/65537 lifts
    both = PRIME * _SECOND_PRIME
    assert polycert._rational(3 * pow(65537, -1, both) % both, both) == (3, 65537)
    assert polycert._rational(-(2**30) * pow(2**30 - 1, -1, both) % both, both) == (-(2**30), 2**30 - 1)


# column 4's coordinates on columns 0 and 3 take nine primes (see the test below)
_NINE_PRIME_DEFICIT = [[0, 0, 0, 0, 0], [0, 0, PRIME, 1, 0], [1, 0, 0, 1, 1], [PRIME + 1j, 0, 1, 0, 0]]
_SMALL_DEPENDENCY = [[1, 2, 5], [3, -1, 1], [0, 4, 8], [2, 2, 6]]  # column 2 = column 0 + 2 column 1
_LARGE_DEPENDENCY = [[65537, 3, 1], [131074, 6, 0], [-65537, -3, 2]]  # column 1 = 3/65537 column 0


@pytest.mark.parametrize(
    "rows, two_primes",
    [
        (_SMALL_DEPENDENCY, False),
        (_LARGE_DEPENDENCY, True),
        # complex rows: (2 + i) and (3 + 65537 i)/65537 = 3/65537 + i times column 0
        ([[complex(1, 1), complex(1, 3), 2], [2, complex(4, 2), 1j], [3j, complex(-3, 6), 0]], False),
        ([[65537 * z, (3 + 65537j) * z, w] for z, w in ((1 + 1j, 1), (2, 1j), (3j, 0))], True),
    ],
)
def test_deficits_stay_exact_on_both_deficit_routes(monkeypatch, rows, two_primes):
    # a denominator past 32767 lifts modulo no single prime, and modulo two
    seen = _spy_pivot_columns(monkeypatch)
    cert = span_certificate(_plain_rows(rows), range(3), 2)
    covered = _gaussian_pivot_columns([[_conj(v) for v in r] for r in rows], 3)
    assert cert.missing_degrees == tuple(c for c in range(3) if c not in covered) != ()
    roots = 1 if all(isinstance(v, int) for r in rows for v in r) else 2
    primes = itertools.islice(polycert._primes(), 2 if two_primes else 1)
    assert [modulus for _, modulus in seen] == [p for p, _ in primes for _ in range(roots)]


def test_a_gaussian_deficit_takes_as_many_primes_as_its_coordinates_need(monkeypatch):
    # a multiple of PRIME under an entry P + i: the coordinates of column 4 on
    # columns 0 and 3 have numerators and denominators near P^4, so after PRIME
    # fails, eight further primes, each laddered under both roots, lift them
    rows = _NINE_PRIME_DEFICIT
    seen = _spy_pivot_columns(monkeypatch)
    cert = span_certificate(_plain_rows(rows), range(5), 4)
    covered = _gaussian_pivot_columns([[_conj(v) for v in r] for r in rows], 5)
    assert cert.missing_degrees == tuple(c for c in range(5) if c not in covered) == (1, 4)
    primes = [p for p, _ in itertools.islice(polycert._primes(), 9)]
    assert seen == [((12, 5), PRIME)] * 2 + [((4, 5), p) for p in primes[1:] for _ in range(2)]


def test_a_lift_holds_on_every_row_or_falls_back(monkeypatch):
    # column 1 is twice column 0 modulo PRIME, and exactly on every listed pair
    # but one, wherever it sits, for real and for complex rows: the lift fails
    # on that pair, and the listed rows modulo the next prime have full rank
    seen = _spy_pivot_columns(monkeypatch)
    for scale in (1, 1 + 2j):
        for breaking in range(3):
            rows = [[1, 2], [3, 6], [-2, -4]]
            rows[breaking][1] += PRIME
            seen.clear()
            assert span_certificate(_plain_rows([[v * scale for v in r] for r in rows]), range(2), 1).certified
            assert seen[-1] == ((3, 2), _SECOND_PRIME), (scale, breaking)


@pytest.mark.parametrize("complex_rows", [False, True])
def test_a_dependency_check_runs_past_the_primes_that_divide_it(monkeypatch, complex_rows):
    # one row over the slots (0, 1) whose weighted sum is PQ = PRIME *
    # _SECOND_PRIME: (PQ + 1, 1) weighted by (1, -1), or the complex row
    # conj(i, 1) = (-i, 1) weighted by (PQ, PQ) to PQ (1 - i).  The sum is zero
    # modulo the first two primes, under both roots of -1 for the complex row,
    # so the check must take the primes its bound B = max |m|_1^2 max |W| asks
    # for, whose product passes 2B, and refuse it
    pq = PRIME * _SECOND_PRIME
    rows = _plain_rows([[1j, 1] if complex_rows else [pq + 1, 1]])
    weights = np.array([[pq], [pq]] if complex_rows else [[1], [-1]], dtype=object)
    bound = 2**2 * pq if complex_rows else (pq + 2) ** 2
    drawn, each = [], polycert._primes
    monkeypatch.setattr(polycert, "_primes", lambda: (drawn.append(p) or (p, root) for p, root in each()))
    assert not rows.annihilate(rows.meet(range(2)), (weights, np.zeros_like(weights) if complex_rows else None))
    assert drawn == [p for p, _ in itertools.islice(each(), len(drawn))]
    assert len(drawn) > 2 and math.prod(drawn[:-1]) <= 2 * bound < math.prod(drawn)


def test_a_verified_dependency_changed_by_one_is_refused(monkeypatch):
    # the weights that proved the geometric deficit, real and rotated to
    # complex rows, with any one part of any one entry moved by 1
    checks, annihilate = [], ProductRows.annihilate

    def spy(self, meet, weights):
        holds = annihilate(self, meet, weights)
        checks.append((self, meet, weights, holds))
        return holds

    monkeypatch.setattr(ProductRows, "annihilate", spy)
    family = geometric_tail_family(8)
    for members in (family.members, _rotated(family)):
        checks.clear()
        assert fourier_span_certificate(fourier_family(members), 8).missing_degrees == (8,)
        rows, meet, weights, holds = checks[-1]
        assert holds
        for part in (0, 1) if weights[1] is not None else (0,):
            for at in np.ndindex(weights[part].shape):
                changed = [None if w is None else w.copy() for w in weights]
                changed[part][at] += 1
                assert not annihilate(rows, meet, tuple(changed)), (part, at)


def test_a_one_member_family_is_covered_at_frequency_zero_only():
    # coefficient 1 on frequencies 0..299: one product, 300 at frequency 0 and
    # 300 - |g| at g, so each other frequency it reaches is a multiple of
    # frequency 0's column: 598 dependencies, lifted and checked on the member,
    # and +-300 it does not reach
    n = 300
    cert = fourier_span_certificate(fourier_family([dict.fromkeys(range(n), 1.0)]), n)
    assert cert.missing_degrees == (*range(-n, 0), *range(1, n + 1))
    assert not cert.certified


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
