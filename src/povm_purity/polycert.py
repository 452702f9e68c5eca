"""Purity certificates for measurements with polynomial densities.

A measurement whose outcome densities are squares of a function family
{psi_n} is pure whenever the span of the pairwise products conj(psi_n)psi_m
contains every polynomial.  For polynomial families that span condition can
be checked exactly up to a chosen degree: assemble the product coefficient
matrix restricted to degrees 0..check_degree and demand that every degree
slot contributes new rank, i.e. the restricted row space is all of
R^{check_degree+1}.  A slot that gains rank witnesses a combination of
products vanishing on all lower degrees and hitting that one, which is the
triangular ladder the span argument needs.  The result is one-sided —
``certified`` proves coverage up to the degree, ``inconclusive`` proves
nothing.

The ladder is exact.  Members are read as integers: the orthonormal bases
keep integer multiples of their members (H_n, n! L_n, 2^n P_n, x^n; scaling
a member scales rows, which leaves coverage alone), and a family built from
floats is read exactly as the doubles it holds.  Every verdict is a proof
reached modulo the prime PRIME, where a nonzero minor is a nonzero integer,
so rank there is at most rank over Q; each block of rows is eliminated once:

* one ladder: a block A of N product rows over S slots with more than
  (S + 8) S nonzeros is compressed to C = R A by a fixed-seed random R of
  S + 8 rows (random compression for rank; Cheung, Kwok and Lau, J. ACM
  60(5) (2013)); a sparser block is its own C.  Full column rank of C
  proves every slot covered;
* lifted deficit: else the echelon of that same ladder (complex rows: of
  their realified residues, compressed alike) gives each column that gains
  no rank its coordinates on the earlier pivot columns, lifted to small
  rationals (Wang, Guy and Davenport, SIGSAM Bull. 16(2) (1982)) and
  checked in Python integers as bilinear forms conj(m_i)^T W m_j of the
  members, W the Hankel (polynomial) or Toeplitz (Fourier) matrix of the
  weights, so a real family builds no exact row.  Should any lift fail, a
  fraction-free pass over the integers (Bareiss) on the slots-by-slots
  Gram A^T A of the exact rows names the missing slots.

No tolerance enters.

The flagship family, ``orthonormal_family("hermite", m, exclude=(k,))``:
orthonormal Hermite polynomials with one index k dropped, modelling a
position measurement compressed away from its k-th mode.  Dropping k >= 1
leaves the coverage intact (products of the remaining members still reach
every degree), which is what the certificate shows.

Both span certificates, this one and the trigonometric one in ``phase``,
end in :func:`span_certificate` and its one ladder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFamily, IndexOutOfRange, NonIntegerIndex

__all__ = [
    "PolyFamily",
    "PurityCertificate",
    "orthonormal_family",
    "product_span_certificate",
]

VERDICT_CERTIFIED = "certified"
VERDICT_INCONCLUSIVE = "inconclusive"

# A prime = 1 (mod 4), so i maps to a square root of -1 modulo it; products
# of two residues stay below 2^62, inside int64.
PRIME = 2**31 - 19
# 2 is a non-residue because PRIME = 5 (mod 8), so 2^((PRIME-1)/4) squares to -1.
_SQRT_M1 = pow(2, (PRIME - 1) // 4, PRIME)

# The compression (``_compressed``): rows of A per float product (at most
# 2^21, so sums of terms below 2^32 stay below 2^53) and the seed of its
# random R.
_COMPRESS_CHUNK = 2048
_COMPRESS_SEED = 20130901
# The lifted dependencies (``_lifted``): numerators and denominators up to
# floor(sqrt(PRIME / 2)), so a residue has at most one such fraction.
_LIFT_BOUND = math.isqrt(PRIME // 2)

# Largest block one stack of intermediate rows may take (the modular row block
# here), and the most the arrays of the phase demo may take together.
MAX_STACK_MB = 256


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=np.complex128).ravel()
    nz = np.flatnonzero(np.abs(c) > 0.0)
    if nz.size == 0:
        return np.zeros(0, dtype=np.complex128)
    return c[: nz[-1] + 1]


@dataclass(frozen=True, eq=False)
class PolyFamily:
    """Polynomials as monomial coefficient vectors (low to high, trimmed).

    ``scaled`` holds integer multiples of the members, coefficient by
    coefficient; without it the certificate reads ``members`` exactly as the
    doubles they hold.
    """

    basis: str
    members: tuple[np.ndarray, ...]
    max_degree: int
    scaled: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.basis not in BASIS_INFO:
            raise ValueError(f"unknown basis {self.basis!r}; one of {sorted(BASIS_INFO)}")


def _hermite_member(n: int) -> tuple[list[int], np.ndarray]:
    # physicists' convention: H_{n+1} = 2x H_n - 2n H_{n-1}, in closed form,
    # normalized by c_n = (2^n n! sqrt(pi))^(-1/2) against weight exp(-x^2).
    try:
        cn = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    except OverflowError:  # n! or 2^n alone is past the double range
        cn = 0.0
    if cn == 0.0:
        raise IndexOutOfRange(
            f"Hermite index {n} is too large: its normalization constant is not a positive double"
        )
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        m = n - 2 * k  # H_n = sum_k (-1)^k n! / (k! m!) (2x)^m
        coeffs[m] = (-1) ** k * math.factorial(n) // (math.factorial(k) * math.factorial(m)) * 2**m
    return coeffs, cn * np.array(coeffs, dtype=float)


def _legendre_member(n: int) -> tuple[list[int], np.ndarray]:
    # 2^n P_n = sum_k (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k)
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
    return coeffs, math.sqrt((2.0 * n + 1.0) / 2.0) * np.array([c / 2**n for c in coeffs])


def _laguerre_member(n: int) -> tuple[list[int], np.ndarray]:
    # n! L_n; L_n is already orthonormal against exp(-x) on [0, inf)
    coeffs = [(-1) ** k * math.comb(n, k) * math.factorial(n) // math.factorial(k) for k in range(n + 1)]
    return coeffs, np.array([c / math.factorial(n) for c in coeffs])


def _monomial_member(n: int) -> tuple[list[int], np.ndarray]:
    coeffs = [0] * n + [1]
    return coeffs, np.array(coeffs, dtype=float)


# basis name -> (weight, interval) for reporting, and the member builder
# n -> (integer multiple of the member, low to high; the orthonormal member)
BASIS_INFO = {
    "hermite": ("exp(-x^2)", "(-inf, inf)", _hermite_member),
    "legendre": ("1", "[-1, 1]", _legendre_member),
    "laguerre": ("exp(-x)", "[0, inf)", _laguerre_member),
    "monomial": ("1", "[-1, 1]", _monomial_member),
}


def _require_integers(**values) -> None:
    """Refuse each named size or order that is not an integer, before anything is built."""
    for name, v in values.items():
        if not isinstance(v, (int, np.integer)):
            raise NonIntegerIndex(f"{name} must be an integer, got {v!r}")


def orthonormal_family(basis: str, max_degree: int, exclude=()) -> PolyFamily:
    """Members of the named basis up to ``max_degree``, minus excluded indices."""
    if basis not in BASIS_INFO:
        raise ValueError(f"unknown basis {basis!r}; one of {sorted(BASIS_INFO)}")
    _require_integers(max_degree=max_degree)
    if max_degree < 0:
        raise IndexOutOfRange(f"max_degree must be >= 0, got {max_degree}")
    exclude = tuple(exclude)
    if not all(isinstance(k, (int, np.integer)) for k in exclude):
        raise NonIntegerIndex(f"excluded indices must be integers, got {exclude!r}")
    dropped = set(int(k) for k in exclude)
    for k in dropped:
        if not 0 <= k <= max_degree:
            raise IndexOutOfRange(f"excluded index {k} outside 0..{max_degree}")
    build = BASIS_INFO[basis][2]
    built = [build(n) for n in range(max_degree + 1) if n not in dropped]
    if not built:
        raise EmptyFamily("every member was excluded")
    return PolyFamily(
        basis=basis,
        members=tuple(_trim(m) for _, m in built),
        max_degree=max(len(c) - 1 for c, _ in built),
        scaled=tuple(tuple(c) for c, _ in built),
    )


@dataclass(frozen=True)
class PurityCertificate:
    """One-sided coverage certificate.

    ``certified`` iff no degree (or frequency, for the trigonometric
    analogue) up to ``certified_to_degree`` is missing from the product span.
    """

    certified_to_degree: int
    verdict: str
    missing_degrees: tuple[int, ...]

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


def _read_exact(member) -> dict[int, tuple[int, int]]:
    """A map {index: value} times a positive rational, as Gaussian integers (re, im).

    Integers are taken as they are, floats and complex numbers as the doubles
    they hold (``float.as_integer_ratio``), so the reading is exact.  The
    common power of two and the content (gcd of every part) are divided out,
    and zero entries are dropped.
    """
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


def _residues(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return ((re + _SQRT_M1 * im) % PRIME).astype(np.int64)


class ProductRows:
    """The rows of a span certificate: conj(m_i) * m_j for (i, j) in ``pairs``.

    Entry g of a row is the sum of conj(m_i[s]) m_j[t] over s + sign * t = g:
    sign +1 multiplies polynomials (g a degree), sign -1 multiplies Fourier
    series (g a frequency).  Members are maps {index: value}, read exactly
    (integers as they are, doubles as the doubles they hold).  Rows are built
    on demand over the slots asked for, reduced modulo PRIME or exact; for
    one left member, its entries against every right member are one matrix
    product.  Members over 2^21 or more indices are refused with
    ``IndexOutOfRange`` before any coefficient is read.
    """

    def __init__(self, members, pairs, sign: int) -> None:
        indices = len(set().union(*members))
        if indices >= 2**21:  # the limbs of :meth:`modular` would have no bits
            raise IndexOutOfRange(f"members over {indices} indices; product rows take at most 2^21 - 1")
        exact = [_read_exact(m) for m in members]
        self._support = sorted(set().union(*exact))
        self._sign = sign
        pos = {s: k for k, s in enumerate(self._support)}
        # real and imaginary parts over the support, plus one zero column for "no term"
        self._re = np.zeros((len(exact), len(self._support) + 1), dtype=object)
        self._im = np.zeros_like(self._re)
        for i, m in enumerate(exact):
            for s, (a, b) in m.items():
                self._re[i, pos[s]], self._im[i, pos[s]] = a, b
        self._pairs = tuple(np.array(pairs, dtype=np.intp).reshape(-1, 2).T)
        self.real = not self._im.any()

    def check_slots(self, n_slots: int) -> None:
        """Refuse with ``IndexOutOfRange`` when the (support, slots) int64
        :meth:`meet` array over ``n_slots`` slots, counted with at least one
        row as the slot list is as long, would pass MAX_STACK_MB."""
        mb = max(len(self._support), 1) * n_slots * 8 / 2**20
        if mb > MAX_STACK_MB:
            raise IndexOutOfRange(
                f"{n_slots} slots over {len(self._support)} indices: a {mb:.0f} MB meet array, over {MAX_STACK_MB} MB"
            )

    def meet(self, slots) -> np.ndarray:
        """Entry [q, k]: the support position of s with s + sign * t = slots[k], for t
        the support index at position q; one past the last position where there is none.

        A slot whose column has no such s is zero in every row, exactly.
        """
        support = np.array(self._support, dtype=np.int64)
        target = np.array(slots, dtype=np.int64)[None, :] - self._sign * support[:, None]
        where = np.searchsorted(support, target)
        hit = where < support.size
        hit[hit] = support[where[hit]] == target[hit]
        return np.where(hit, where, support.size)

    def modular(self, meet: np.ndarray) -> np.ndarray:
        """Rows over the slots of ``meet``, reduced modulo PRIME (int64).

        Each left member gets only the rows of its own pairs.  The (pairs,
        slots) block is refused with ``IndexOutOfRange`` before allocation
        when it would pass MAX_STACK_MB.
        """
        lefts, rights = self._pairs
        n, slots = lefts.size, meet.shape[1]
        block_mb = n * slots * 8 / 2**20
        if block_mb > MAX_STACK_MB:
            raise IndexOutOfRange(
                f"{n} product rows over {slots} slots need an ({n}, {slots}) int64 row block "
                f"of {block_mb:.0f} MB, over the {MAX_STACK_MB} MB limit"
            )
        left = _residues(self._re, -self._im).astype(float)
        right = _residues(self._re[:, :-1], self._im[:, :-1])
        # right residues in ``count`` limbs of ``bits`` bits: a sum of support-many
        # residue-times-limb products stays below 2^53, so float matrix products are exact
        bits = 22 - right.shape[1].bit_length()
        count = -(-31 // bits)
        mask = (1 << bits) - 1
        limbs = np.stack([(right >> (bits * m)) & mask for m in range(count)]).astype(float)
        out = np.empty((n, slots), dtype=np.int64)
        order = np.argsort(lefts, kind="stable")
        members, starts = np.unique(lefts[order], return_index=True)
        for i, at in zip(members, np.split(order, starts[1:])):
            parts = (limbs[:, rights[at]] @ left[i][meet]).astype(np.int64) % PRIME
            acc = parts[-1]
            for part in parts[-2::-1]:
                acc = ((acc << bits) + part) % PRIME
            out[at] = acc
        return out

    def annihilate(self, meet: np.ndarray, weights: np.ndarray) -> bool:
        """Whether sum_k weights[k, f] row[k] = 0 on every pair, for each column f
        of the Python-int ``weights`` over the slots of ``meet``.

        Row (i, j) against weights w is the bilinear form conj(m_i)^T W m_j,
        W[s, t] = w_k where s + sign * t = slots[k] (Hankel for sign +1,
        Toeplitz for -1), so it is evaluated on the members, never multiplying
        out the rows: conj(m_i)^T W for every member, then its product with
        m_j on each pair.  Weights over the realified columns of complex rows
        (see :meth:`exact`) pair up as z_k = w_2k - i w_2k+1, as z . r = 0 is
        both realified rows of r vanishing.
        """
        lefts, rights = self._pairs
        complex_rows = not self.real
        z = (weights[0::2], -weights[1::2]) if complex_rows else (weights, None)
        conj = (self._re[:, meet], -self._im[:, meet] if complex_rows else None)
        form = _gaussian_matmul(conj, z)  # [i, t, f]: (conj(m_i)^T W_f)[t]
        left = tuple(None if part is None else part[lefts].transpose(0, 2, 1) for part in form)
        right = (self._re[rights, :-1, None], self._im[rights, :-1, None] if complex_rows else None)
        return not any(part is not None and part.any() for part in _gaussian_matmul(left, right))

    def exact(self, meet: np.ndarray) -> np.ndarray:
        """Rows over the slots of ``meet`` as Python ints.

        Complex rows are realified: row r gives (Re r, Im r) and i*r gives
        (-Im r, Re r), columns interleaved, so slot k gains rank over Q(i)
        exactly when real column 2k gains rank over Q.
        """
        rr, ri = self._re[:, :-1], self._im[:, :-1]
        re = np.empty((len(rr), len(rr), meet.shape[1]), dtype=object)
        im = np.empty_like(re)
        for i in range(len(rr)):
            a, b = self._re[i][meet], -self._im[i][meet]  # conj(m_i)
            re[i] = rr @ a if self.real else rr @ a - ri @ b
            im[i] = 0 if self.real else rr @ b + ri @ a
        re, im = re[self._pairs], im[self._pairs]
        if self.real:
            return re
        out = np.zeros((2 * re.shape[0], 2 * re.shape[1]), dtype=object)
        out[: re.shape[0], 0::2], out[: re.shape[0], 1::2] = re, im
        out[re.shape[0] :, 0::2], out[re.shape[0] :, 1::2] = -im, re
        return out


def _gaussian_matmul(a: tuple, b: tuple) -> tuple:
    """(re, im) @ (re, im) over Q(i); an imaginary part None is zero."""
    (ar, ai), (br, bi) = a, b
    re = ar @ br if ai is None or bi is None else ar @ br - ai @ bi
    im = [x @ y for x, y in ((ar, bi), (ai, br)) if x is not None and y is not None]
    return re, sum(im[1:], im[0]) if im else None


def _pivot_columns(a: np.ndarray, modulus: int | None = None, echelon: list | None = None) -> list[bool]:
    """Which columns gain rank as columns enter left to right.

    Column j gains rank exactly when some combination of rows vanishes on the
    columns before j and not at j, i.e. when it gets a pivot in a
    column-ordered elimination.  int64 residues are eliminated over
    GF(modulus); Python ints (``modulus`` None) fraction-free over the
    integers (Bareiss, Math. Comp. 22 (1968)), which decides the same over Q.
    Given a list ``echelon``, the modular branch appends each pivot row as
    (j, its entries past j over the pivot): a row echelon form of ``a``.
    The elimination overwrites ``a``.
    """
    prev = 1
    covered = []
    for j in range(a.shape[1]):
        nz = np.flatnonzero(a[:, j])
        covered.append(nz.size > 0)
        if nz.size == 0:
            continue
        k = nz[0]
        pivot, tail = a[k, j], a[k, j + 1 :].copy()
        a[k] = 0  # a pivot row leaves the elimination
        if modulus is None:
            # every entry stays a minor of the input, so the division is exact
            a[:, j + 1 :] = (a[:, j + 1 :] * pivot - a[:, j, None] * tail) // prev
            prev = pivot
        else:
            rest = nz[1:]  # the rows that are nonzero at j
            tail = tail * pow(int(pivot), -1, modulus) % modulus
            if echelon is not None:
                echelon.append((j, tail))
            # residues times residues stay below 2^62, so one reduction suffices
            a[rest, j + 1 :] = (a[rest, j + 1 :] - a[rest, j, None] * tail) % modulus
    return covered


def _compressed(a: np.ndarray) -> np.ndarray:
    """The block to eliminate in place of the int64 residues A (N rows, S
    columns): C = R A modulo PRIME, for a fixed-seed random R of S + 8 rows,
    when A has more than (S + 8) S nonzeros; A itself otherwise, as a sparse
    block eliminates faster than its dense compression.

    Every prefix of C's columns has modular rank at most that of A, for any R
    (random compression for rank; Cheung, Kwok and Lau, J. ACM 60(5) (2013)),
    so a full-rank C proves every slot covered and an unlucky R can only hide
    rank, never invent it.  C is exact: R has entries below 2^16 and A is
    split into 16-bit limbs, so each float product over a chunk of
    _COMPRESS_CHUNK rows sums terms below 2^32 to less than _COMPRESS_CHUNK
    2^32 < 2^53.  Each chunk of R is drawn from one generator seeded with
    _COMPRESS_SEED, so R never exists whole.  It is the standard library's:
    importing numpy.random would cost the first certificate of a process more
    than most certificates take.
    """
    n, s = a.shape
    if np.count_nonzero(a) <= (s + 8) * s:
        return a
    rng = random.Random(_COMPRESS_SEED)
    c = np.zeros((s + 8, 2 * s), dtype=np.int64)
    for start in range(0, n, _COMPRESS_CHUNK):
        chunk = a[start : start + _COMPRESS_CHUNK]
        r = np.frombuffer(rng.randbytes(2 * (s + 8) * len(chunk)), dtype="<u2").reshape(s + 8, -1).astype(float)
        limbs = np.concatenate([chunk & 0xFFFF, chunk >> 16], axis=1).astype(float)
        c = (c + (r @ limbs).astype(np.int64)) % PRIME
    return (c[:, :s] + (c[:, s:] << 16)) % PRIME


def _rational(r: int) -> tuple[int, int] | None:
    """The fraction n/d = r (mod PRIME) with |n| and d at most _LIFT_BOUND, else None.

    The half-extended Euclid of Wang, Guy and Davenport, SIGSAM Bull. 16(2)
    (1982): each remainder r_i keeps r_i = s_i r (mod PRIME).
    """
    r0, r1, s0, s1 = PRIME, r, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lifted(rows: ProductRows, meet: np.ndarray, echelon: list) -> bool:
    """Whether every column of the exact rows A over the slots of ``meet``
    (complex rows realified) that gains no rank in the ladder of ``echelon``
    is, exactly, a rational combination of the pivot columns before it.

    ``echelon`` holds the pivot rows :func:`_pivot_columns` gave for C, the
    block :func:`_compressed` made of A modulo PRIME; row operations took C
    to them, so its columns obey C's dependencies.  For every R, each prefix
    of C's columns has modular rank at most that of A, which is at most A's
    rank over Q.  A dependency that :meth:`ProductRows.annihilate` verifies
    puts a column of A in the span of the earlier pivot columns over Q, so
    once all verify, A's rank over Q on each prefix is C's pivot count there:
    C's ladder is A's ladder over Q.  An unlucky R can only make a lift fail.
    The coordinates are solved modulo PRIME from ``echelon``, lifted by
    :func:`_rational`, and each dependency, sum_k w_k col_k = 0 with w_free =
    -den, is checked on every listed pair in Python ints, on the members.
    """
    ncols = meet.shape[1] * (1 if rows.real else 2)
    pivots = [j for j, _ in echelon]
    free = sorted(set(range(ncols)) - set(pivots))
    u = np.zeros((len(pivots), ncols), dtype=np.int64)
    for k, (j, tail) in enumerate(echelon):
        u[k, j], u[k, j + 1 :] = 1, tail
    # back substitution through the unit upper triangle u[:, pivots]
    x = u[:, free]
    for k in range(len(pivots) - 1, 0, -1):
        x[:k] = (x[:k] - u[:k, pivots[k], None] * x[k]) % PRIME
    weights = np.zeros((ncols, len(free)), dtype=object)
    for f, column in enumerate(free):
        fractions = [_rational(int(v)) for v in x[:, f]]
        if None in fractions:
            return False
        den = math.lcm(*(d for _, d in fractions))
        weights[pivots, f] = [n * (den // d) for n, d in fractions]
        weights[column, f] = -den
    return rows.annihilate(meet, weights)


def span_certificate(rows: ProductRows, slots, check: int) -> PurityCertificate:
    """Certificate for product rows whose columns are ``slots``, in ladder order.

    A slot is missing when its column adds no rank; the missing slots are
    reported in ascending order.  Slots no product reaches are zero columns:
    missing, and without effect on the rest.  The modular rows A of the
    others are eliminated once, as the block C of :func:`_compressed`; each
    prefix of C's columns has modular rank at most that of A, and so at most
    A's rank over Q, for every R.  Full column rank of C proves every slot
    covered.  On a deficit C's echelon gives the dependencies that
    :func:`_lifted` verifies on the members, which makes C's ladder A's
    ladder over Q.  An unlucky R can only make a lift fail; then Bareiss on
    the Gram A^T A decides every slot, as A^T A x = 0 exactly when A x = 0
    over Q.  Complex rows are laddered modulo PRIME as they are, which may
    certify; on a deficit their realified residues, rows over Q, go through
    :func:`_compressed` and one ladder, and the lifts are checked over Q(i).
    """
    slots = list(slots)
    meet = rows.meet(slots)
    reached = (meet < meet.shape[0]).any(axis=0)
    live, meet = [s for s, r in zip(slots, reached) if r], meet[:, reached]
    echelon = []
    covered = _pivot_columns(_compressed(rows.modular(meet)), PRIME, echelon)
    if not all(covered):
        # complex rows are laddered again, realified, so their dependencies lift
        # over Q; the exact rows are built for that and for Bareiss only
        exact = None
        if not rows.real:
            exact, echelon = rows.exact(meet), []
            covered = _pivot_columns(_compressed((exact % PRIME).astype(np.int64)), PRIME, echelon)
        if not _lifted(rows, meet, echelon):
            exact = rows.exact(meet) if exact is None else exact
            covered = _pivot_columns(exact.T @ exact)
        covered = covered[:: 1 if rows.real else 2]
    hit = {s for s, c in zip(live, covered) if c}
    missing = tuple(sorted(s for s in slots if s not in hit))
    return PurityCertificate(
        certified_to_degree=check,
        verdict=VERDICT_CERTIFIED if not missing else VERDICT_INCONCLUSIVE,
        missing_degrees=missing,
    )


def product_span_certificate(fam: PolyFamily, check_degree: int) -> PurityCertificate:
    """Test whether the products conj(psi_n) psi_m reach every monomial of
    degree <= check_degree.

    The product coefficient matrix is restricted to the checked window; a
    degree is covered when its column adds rank, so cancellations between
    products count but coverage is never inferred from high-degree tails.
    Degrees beyond every product's reach simply turn up in
    ``missing_degrees``.  Real members make conj(psi_n) psi_m and
    conj(psi_m) psi_n the same row, so only the pairs n <= m enter.
    """
    if not fam.members:
        raise EmptyFamily("family has no members")
    _require_integers(check_degree=check_degree)
    if check_degree < 0:
        raise IndexOutOfRange(f"check_degree must be >= 0, got {check_degree}")
    members = fam.scaled if fam.scaled is not None else fam.members
    real = fam.scaled is not None or not any(np.any(m.imag) for m in fam.members)
    n = len(members)
    pairs = [(i, j) for i in range(n) for j in range(i if real else 0, n)]
    rows = ProductRows([dict(enumerate(m)) for m in members], pairs, sign=1)
    rows.check_slots(check_degree + 1)
    return span_certificate(rows, range(check_degree + 1), check_degree)
