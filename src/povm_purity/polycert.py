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

The ladder is exact.  Members are scanned for their nonzero entries, with
no exact arithmetic, and read as integers only when a sketch runs: the
orthonormal bases are built as integer multiples of their members (H_n,
n! L_n, 2^n P_n, x^n; scaling a member scales rows, which leaves coverage alone),
and a family built from floats is read exactly as the doubles it holds.
Every verdict is a proof, reached by the first of these steps that decides
it:

* leading terms: a product conj(m_i) * m_j is nonzero at its two extreme
  slots, each the product of one coefficient of each member, and zero
  outside them.  When every slot some product reaches is the later
  extreme, in ladder order, of a single product, those products form a
  triangle with a nonzero diagonal, which proves each such slot covered.
  No coefficient is read exactly, and no residue, sketch or elimination
  is made.  Full orthonormal bases
  (and most with one index dropped) and the single-mode phase family are
  decided here;
* one ladder: else, modulo the prime PRIME, where a nonzero minor is a
  nonzero integer, so rank there is at most rank over Q, each block of
  rows is eliminated once.  The N product rows A over S slots are not
  built.  A sketch C of S + 8 rows (N + 8 when N is smaller) takes row r
  to be conj(u_r) * w_r, for u_r and w_r fixed-seed random integer
  combinations of the members, at O(members + S) cost per row where A
  costs O(members^2).  Each row of C is a combination of the rows of A, so every
  prefix of C's columns has rank at most A's (random compression for rank;
  Cheung, Kwok and Lau, J. ACM 60(5) (2013)), and full column rank of C
  proves every slot covered;
* lifted deficit: else the echelon of that same ladder gives each column
  that gains no rank its coordinates on the earlier pivot columns, lifted
  to small rationals (Wang, Guy and Davenport, SIGSAM Bull. 16(2) (1982))
  over one running denominator per column (Bright and Storjohann, ISSAC
  2011): each coordinate times the denominator so far, mostly an integer
  already, and checked modulo primes past a proven bound as bilinear forms
  conj(m_i)^T W m_j of the members, W the Hankel (polynomial) or Toeplitz
  (Fourier) matrix of the Gaussian weights, so no row is built.  Complex
  rows are laddered under both square roots of -1, whose two images give each
  coordinate's real and imaginary part.  Should a lift fail, the listed
  rows themselves are laddered modulo further primes, the coordinates of
  the largest ladder combined by the Chinese remainder theorem and lifted
  afresh, until a lift holds, which a finite number of primes ensures: the
  running denominator divides the column's least common denominator, so
  each intermediate fraction is as small as a Cramer quotient (see
  :func:`_lifted`).

No tolerance enters.

The flagship family, ``orthonormal_family("hermite", m, exclude=(k,))``:
orthonormal Hermite polynomials with one index k dropped, modelling a
position measurement compressed away from its k-th mode.  Dropping k >= 1
leaves the coverage intact (products of the remaining members still reach
every degree), which is what the certificate shows.

Both span certificates, this one and the trigonometric one in ``phase``,
end in :func:`span_certificate`: its leading terms, then its one ladder.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bases import BASIS_INFO
from .errors import _BOOLS, EmptyFamily, IndexOutOfRange, NonFinite, NonIntegerIndex, _is_integer, _require_integers

__all__ = [
    "PolyFamily",
    "PurityCertificate",
    "orthonormal_family",
    "product_span_certificate",
]

VERDICT_CERTIFIED = "certified"
VERDICT_INCONCLUSIVE = "inconclusive"

# A prime = 5 (mod 8), so i maps to a square root of -1 modulo it; products
# of two residues stay below 2^62, inside int64.
PRIME = 2**31 - 19
# 2 is a non-residue modulo a prime = 5 (mod 8), so 2^((p-1)/4) squares to -1.
_SQRT_M1 = pow(2, (PRIME - 1) // 4, PRIME)

# The seed of the random combinations of :meth:`ProductRows.sketch`.
_COMPRESS_SEED = 20130901

# The rows of :meth:`ProductRows.sketch` go in blocks whose float gather takes
# about this many MB: a block that stays in cache is faster than one large
# product, and the sketch's peak stays below that of the rows it replaces.
_SKETCH_BLOCK_MB = 4
# Largest block one stack of intermediate rows may take (the residues of the
# listed rows, and each array of the sketch), and the most the arrays of the phase
# demo may take together.
MAX_STACK_MB = 256


@dataclass(frozen=True, eq=False)
class PolyFamily:
    """Polynomials as coefficient sequences, low to high: exact integers, or
    numbers the certificate reads exactly as the doubles they hold."""

    members: tuple


def _planned(basis: str, max_degree: int, exclude) -> tuple[set, int]:
    """The checks :func:`orthonormal_family` makes before it builds a member:
    the excluded indices, and the bytes MAX_STACK_MB leaves after 8 per kept
    coefficient."""
    if basis not in BASIS_INFO:
        raise ValueError(f"unknown basis {basis!r}; one of {sorted(BASIS_INFO)}")
    _require_integers(max_degree=max_degree)
    if max_degree < 0:
        raise IndexOutOfRange(f"max_degree must be >= 0, got {max_degree}")
    exclude = tuple(exclude)
    if not all(map(_is_integer, exclude)):
        raise NonIntegerIndex(f"excluded indices must be integers, got {exclude!r}")
    dropped = set(int(k) for k in exclude)
    for k in dropped:
        if not 0 <= k <= max_degree:
            raise IndexOutOfRange(f"excluded index {k} outside 0..{max_degree}")
    if len(dropped) > max_degree:
        raise EmptyFamily("every member was excluded")
    # member n holds n + 1 coefficients
    entries = (max_degree + 1) * (max_degree + 2) // 2 - sum(k + 1 for k in dropped)
    room = MAX_STACK_MB * 2**20 - 8 * entries
    if room < 0:
        raise IndexOutOfRange(f"{basis} members to index {max_degree} hold {entries} coefficients: "
                              f"at 8 bytes each, over the {MAX_STACK_MB} MB limit")
    return dropped, room


def orthonormal_family(basis: str, max_degree: int, exclude=()) -> PolyFamily:
    """Members of the named basis up to ``max_degree``, minus excluded indices,
    as the integer multiples H_n, 2^n P_n, n! L_n or x^n that its recurrence
    in ``BASIS_INFO`` builds (scaling a member scales rows, which leaves
    coverage alone).

    A family whose kept coefficients would pass MAX_STACK_MB, counted at 8
    bytes per entry plus each integer's magnitude bytes, is refused with
    ``IndexOutOfRange``: on the entry count before anything is built, and on
    the magnitudes at the member where they pass it.
    """
    dropped, room = _planned(basis, max_degree, exclude)
    step, before, p, members = BASIS_INFO[basis][2], (), (1,), []
    for n in range(max_degree + 1):
        if n not in dropped:
            room -= sum((x.bit_length() + 7) // 8 for x in p)
            if room < 0:
                raise IndexOutOfRange(f"{basis} members to index {max_degree} pass the {MAX_STACK_MB} MB limit "
                                      f"at member {n}, counting 8 bytes per coefficient and their magnitudes")
            members.append(p)
        if n < max_degree:
            a, b, c, d = step(n)
            before, p = p, tuple([(a * u + b * v - c * w) // d for u, v, w in zip((0, *p), (*p, 0), (*before, 0, 0))])
    return PolyFamily(members=tuple(members))


def _support_size(basis: str, max_degree: int, dropped: set) -> int:
    """How many indices hold a nonzero coefficient of some member of the
    family to ``max_degree`` minus ``dropped``, read off the basis: H_n and
    2^n P_n are nonzero at every index of the parity of n up to n, n! L_n at
    every index up to n, and x^n at n alone."""
    kept = [n for n in range(max_degree, -1, -1) if n not in dropped]
    if basis == "monomial":
        return len(kept)
    if basis == "laguerre":
        return kept[0] + 1
    # the highest kept member of each parity, -2 for none
    return sum(next((n for n in kept if n % 2 == parity), -2) // 2 + 1 for parity in (0, 1))


def _check_family_slots(basis: str, max_degree: int, exclude, check_degree: int) -> None:
    """Refuse, with the same error and before a member is built, the meet
    array :func:`product_span_certificate` would refuse for this family and
    degree; after the checks of the arguments themselves, in their order."""
    dropped, _ = _planned(basis, max_degree, exclude)
    _check_degree(check_degree)
    _check_meet(_support_size(basis, max_degree, dropped), check_degree + 1)


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


def _scan(members) -> tuple[list[list], list[int], list[int], np.ndarray]:
    """(nonzero, read, ints, parts) of the maps {index: value} ``members``,
    with no exact arithmetic: each member's nonzero indices; the members
    holding a value other than an integer, read as doubles; where integers
    sit among those members' values; and the real and imaginary parts of
    those values, flat, an integer taken as 1 if nonzero, else 0.

    A bool, which would pass as an integer, is refused with ``NonFinite``
    before any value is read, and so is a NaN or infinite part after; each
    error names the first such member and index.
    """
    nonzero, read, mixed = [], [], False
    for n, m in enumerate(members):
        types = set(map(type, m.values()))
        if not types.isdisjoint(_BOOLS):
            k = next(k for k, v in m.items() if isinstance(v, _BOOLS))
            raise NonFinite(f"member {n}: coefficient {m[k]!r} at index {k} is not a finite number")
        integral = [issubclass(t, (int, np.integer)) for t in types]
        if all(integral):
            nonzero.append([k for k, v in m.items() if v])
        else:
            nonzero.append(None)
            read.append(n)
            mixed = mixed or any(integral)
    values = [v for n in read for v in members[n].values()]
    ints = [j for j, v in enumerate(values) if isinstance(v, (int, np.integer))] if mixed else []
    if ints:  # an integer past the double range has no complex value
        values = [bool(v) if isinstance(v, (int, np.integer)) else v for v in values]
    parts = np.array(values, dtype=complex).view(float)
    bad = np.flatnonzero(~np.isfinite(parts))
    if bad.size:
        n, k = [(n, k) for n in read for k in members[n]][bad[0] // 2]
        raise NonFinite(f"member {n}: coefficient {members[n][k]!r} at index {k} is not a finite number")
    flags = iter(parts.reshape(-1, 2).any(axis=1).tolist())
    for n in read:
        nonzero[n] = list(itertools.compress(members[n], flags))
    return nonzero, read, ints, parts


def _read_exact(members, scanned=None) -> list[dict[int, tuple[int, int]]]:
    """Maps {index: value}, each times a positive rational, as Gaussian integers (re, im).

    ``scanned`` is the members' :func:`_scan`, which refuses bools and NaN or
    infinite values; it is made here when None.  A member of integers is
    taken as it is.  The others are read as the doubles their values hold (an
    integer among them as it is), so the reading is exact: one ``np.frexp``
    over the real and imaginary parts of all of them writes each part as an
    odd integer times a power of two.  Per member the common power of two and
    the content (gcd of every part) are divided out, and zero entries are
    dropped.
    """
    nonzero, read, ints, parts = scanned or _scan(members)
    doubles = set(read)
    out = []
    for n, m in enumerate(members):
        if n in doubles:
            out.append(None)
        else:
            g = max(math.gcd(*map(int, m.values())), 1)
            out.append({k: (int(m[k]) // g, 0) for k in nonzero[n]})
    if not read:
        return out
    frac, exp = np.frexp(parts)
    odd = (frac * 2.0**53).astype(np.int64)
    zeros = np.frexp((odd & -odd).astype(float))[1] - 1  # trailing zero bits, -1 for a zero part
    odd >>= np.maximum(zeros, 0)
    exp += zeros - 53
    if ints:  # the integers of mixed members, as odd Python ints times powers of two
        values = [v for n in read for v in members[n].values()]
        odd = odd.astype(object)
        for j in ints:
            n = int(values[j])
            k = (n & -n).bit_length() - 1 if n else 0
            odd[2 * j], exp[2 * j] = n >> k, k
    sizes = [2 * len(members[n]) for n in read]
    starts = np.cumsum([0] + sizes[:-1])
    member = np.repeat(np.arange(len(read)), sizes)
    nz = odd != 0
    # a member's part of least exponent is odd, so its content is the gcd of its odd parts
    low = np.minimum.reduceat(np.where(nz, exp, np.iinfo(exp.dtype).max), starts)
    odd //= np.maximum(np.gcd.reduceat(abs(odd), starts), 1)[member]
    pairs = iter((odd.astype(object) << np.where(nz, exp - low[member], 0)).reshape(-1, 2).tolist())
    for n in read:
        out[n] = {k: (a, b) for k, (a, b) in zip(members[n], pairs) if a or b}
    return out


def _check_meet(indices: int, n_slots: int) -> None:
    """Refuse with ``IndexOutOfRange`` a (support, slots) int64 meet array
    over ``indices`` support indices and ``n_slots`` slots, counted with at
    least one row as the slot list is as long, past MAX_STACK_MB."""
    mb = max(indices, 1) * n_slots * 8 / 2**20
    if mb > MAX_STACK_MB:
        raise IndexOutOfRange(f"{n_slots} slots over {indices} indices: a {mb:.0f} MB meet array, over {MAX_STACK_MB} MB")


def _check_degree(check_degree: int) -> None:
    _require_integers(check_degree=check_degree)
    if check_degree < 0:
        raise IndexOutOfRange(f"check_degree must be >= 0, got {check_degree}")


def _check_stack(who: str, what: str, shape: tuple, itemsize: int) -> None:
    """Refuse with ``IndexOutOfRange`` an array of ``shape`` past MAX_STACK_MB."""
    mb = math.prod(shape) * itemsize / 2**20
    if mb > MAX_STACK_MB:
        raise IndexOutOfRange(f"{who} need an {shape} {what} of {mb:.0f} MB, over the {MAX_STACK_MB} MB limit")


class ProductRows:
    """The rows of a span certificate: conj(m_i) * r_j for every left member
    m_i and right member r_j.  The right members are the left ones when
    ``right`` is None; a real family of polynomials (sign +1) then lists each
    unordered pair once, as conj(m_i) * m_j = conj(m_j) * m_i there.
    :attr:`count` is the number of rows listed.

    Entry g of a row is the sum of conj(m_i[s]) r_j[t] over s + sign * t = g:
    sign +1 multiplies polynomials (g a degree), sign -1 multiplies Fourier
    series (g a frequency).  Members are maps {index: value}, scanned here
    (:func:`_scan`) for the support, each member's least and greatest
    nonzero index and whether any imaginary part is nonzero, and read
    exactly (integers as they are, doubles as the doubles they hold) only
    when a sketch runs.  Certifying builds no row: :meth:`leading` reads
    only the scanned bounds, and :meth:`sketch` multiplies random
    combinations of the members' residues.  Only a deficit checks
    dependencies on the members' residues (:meth:`annihilate`), and only a
    failed lift gives :meth:`sketch` every listed row.  Bools, then NaN and
    infinite values, are refused with ``NonFinite`` by the scan; what a
    sketch could not hold, by :meth:`check_sketch` once one is needed.
    """

    def __init__(self, members, sign: int, right=None) -> None:
        left = list(members)
        both = left if right is None else left + list(right)
        self._members, self._scanned = both, _scan(both)
        nonzero, _, _, parts = self._scanned
        self._support = sorted(set().union(*nonzero))
        # (least index, greatest index, member) of every nonzero member
        self._bounds = np.array([(min(k), max(k), i) for i, k in enumerate(nonzero) if k], dtype=np.int64).reshape(-1, 3)
        self.real = not parts[1::2].any()
        self._sign = sign
        n = len(left)
        # the left and the right members: rows lo..hi - 1 of the family
        self._halves = ((0, n), (0, n) if right is None else (n, len(both)))
        self._symmetric = right is None and sign == 1 and self.real
        rlo, rhi = self._halves[1]
        self.count = n * (n + 1) // 2 if self._symmetric else n * (rhi - rlo)

    @cached_property
    def _entries(self) -> tuple:
        """(member, support position, re, im) of every entry of the members
        read exactly (:func:`_read_exact`), member by member, on first use:
        only :meth:`_residues` and :meth:`annihilate` read them."""
        exact = _read_exact(self._members, self._scanned)
        member = np.repeat(np.arange(len(exact)), [len(m) for m in exact])
        position = np.searchsorted(self._support, [s for m in exact for s in m]).astype(np.intp)
        re, im = zip(*[z for m in exact for z in m.values()]) if member.size else ((), ())
        return member, position, re, im

    def _residues(self, prime: int, root: int) -> list[np.ndarray]:
        """Per half, the members modulo ``prime`` with i taken to ``root`` (the
        conjugates for the left half) as a dense (members, support + 1) int64
        array, the last column zero for "no term"; not kept."""
        member, position, re, im = self._entries
        re = np.array([a % prime for a in re], dtype=np.int64)
        im = np.zeros_like(re) if self.real else np.array([b % prime for b in im], dtype=np.int64)
        dense = np.zeros((2, len(self._members), len(self._support) + 1), dtype=np.int64)
        dense[:, member, position] = np.array([re - root * im, re + root * im]) % prime
        return [part[lo:hi] for part, (lo, hi) in zip(dense, self._halves)]

    def check_slots(self, n_slots: int) -> None:
        """Refuse with ``IndexOutOfRange`` when the (support, slots) int64
        :meth:`meet` array over ``n_slots`` slots would pass MAX_STACK_MB."""
        _check_meet(len(self._support), n_slots)

    def check_sketch(self, n_slots: int) -> None:
        """Refuse with ``IndexOutOfRange`` a support of 2^21 or more indices,
        or a sketch over ``n_slots`` slots whose (members, support + 1)
        residue arrays or (count, slots) block of listed rows, which a
        deficit may ladder, would pass MAX_STACK_MB."""
        indices = len(self._support)
        if indices >= 2**21:  # the limbs of :meth:`sketch` would have no bits
            raise IndexOutOfRange(f"members over {indices} indices; product rows take at most 2^21 - 1, "
                                  "so that each float limb of their sketch keeps a bit")
        _check_stack(f"{len(self._members)} members over {indices} indices",
                     "conjugated and plain int64 residue arrays", (len(self._members), indices + 1), 2 * 8)
        _check_stack(f"{self.count} product rows over {n_slots} slots", "exact row block", (self.count, n_slots), 8)

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

    def leading(self, slots, reached: np.ndarray) -> bool:
        """Whether single listed rows prove every ``reached`` slot covered:
        each is the last nonzero slot, in the ladder order of ``slots``, of
        some listed row.  No coefficient is read exactly and no residue is
        taken: the rows' extremes come from the scanned bounds.

        Row conj(m_i) * r_j is nonzero at its two extreme slots, lo_i + lo_j
        and hi_i + hi_j for sign +1, lo_i - hi_j and hi_i - lo_j for sign -1
        (lo and hi a member's least and greatest index), as one term
        conj(m_i[s]) r_j[t] reaches each, and its other slots lie between
        them.  When ``slots`` is a run of consecutive integers whose ladder
        position falls, then rises, with the slot (0, 1, 2, ... or 0, -1, 1,
        -2, ...), no slot between the extremes comes after both, so the later
        extreme is the row's last nonzero slot; an extreme outside ``slots``
        counts as later than all of them, and its row is left out.  Rows with
        distinct last slots are triangular with a nonzero diagonal, so when
        their last slots take in every reached slot, the reached columns have
        full rank over Q(i) and each gains rank.  Other slot orders answer
        False.  Left members, by least index, go in blocks of about
        _SKETCH_BLOCK_MB, each against the band of right members whose rows
        with it may have both extremes in the run, until every reached slot
        is taken.  A real polynomial family lists only the pairs i <= j, but
        the unlisted row (j, i) has the two extremes of the listed (i, j), so
        every pair of a band counts.
        """
        if not reached.any():
            return True
        slots = np.asarray(slots, dtype=np.int64)
        order = np.argsort(slots)  # order[k]: the ladder position of slots.min() + k
        falling = np.diff(order) < 0
        if (np.diff(slots[order]) != 1).any() or (falling[1:] > falling[:-1]).any():
            return False
        bounds = self._bounds
        left, right = (bounds[(lo <= bounds[:, 2]) & (bounds[:, 2] < hi)] for lo, hi in self._halves)
        if not (left.size and right.size):
            return False
        room, base = slots.size - 1, slots[order[0]]
        # sign * t runs from x to y over a right member, so a row's extremes are lo_i + x_j and hi_i + y_j
        x, y = (right[:, 0], right[:, 1]) if self._sign > 0 else (-right[:, 1], -right[:, 0])
        by_x = np.argsort(x, kind="stable")
        x, y = x[by_x], y[by_x]
        left = left[np.argsort(left[:, 0], kind="stable")]

        def position(g):  # the ladder position of slot g, slots.size past the run
            k = g - base
            inside = (0 <= k) & (k <= room)
            return np.where(inside, order[np.where(inside, k, 0)], slots.size)

        taken = np.zeros(slots.size + 1, dtype=bool)
        block = max(1, int(_SKETCH_BLOCK_MB * 2**20) // (8 * len(right)))
        for start in range(0, len(left), block):
            lo, hi = left[start : start + block, :2].T
            # both extremes in the run need base <= lo_i + x_j and x_j <= y_j <= base + room - hi_i
            band = slice(np.searchsorted(x, base - lo.max()), np.searchsorted(x, base + room - hi.min(), side="right"))
            last = np.maximum(position(lo[:, None] + x[band]), position(hi[:, None] + y[band]))
            taken[last] = True
            if taken[:-1][reached].all():
                return True
        return False

    def sketch(self, meet: np.ndarray, prime: int, root: int, every: bool = False) -> np.ndarray:
        """Rows over the slots of ``meet``, modulo ``prime`` with i taken to
        ``root`` (int64): random combinations of the listed rows, or with
        ``every`` the listed rows themselves, in order.

        Row r is conj(u_r) * w_r.  With ``every``, u_r and w_r are the left
        and the right member of listed row r.  Else u_r = sum_i a[r, i] m_i
        over the left members and w_r = sum_j b[r, j] r_j over the right
        ones, a and b drawn below 2^16 from one generator seeded with
        _COMPRESS_SEED, row by row, so row r is sum_ij a[r, i] b[r, j]
        conj(m_i) * r_j, a combination of the listed rows, and every prefix
        of the sketch's columns has rank at most theirs (random compression
        for rank; Cheung, Kwok and Lau, J. ACM 60(5) (2013)).  The random
        rows number slots + 8, or count + 8 when fewer rows are listed than
        slots, so the sketch is never taller than needed.  Every product is
        a :func:`_matmul_mod`: u_r and w_r from the draws and the members'
        residues (:meth:`_residues`; a family with no ``right`` half has
        below 2^13 members once :meth:`check_sketch` bounds its listed
        rows), and row r from w_r and the gather of u_r.  Rows go in blocks
        of about _SKETCH_BLOCK_MB, one row at least, each gathering only its
        own members; one row's arrays are within MAX_STACK_MB once the
        residue arrays and the meet array are (see :meth:`check_sketch` and
        :meth:`check_slots`).
        """
        slots, support = meet.shape[1], len(self._support)
        left, right = (hi - lo for lo, hi in self._halves)
        lhs, rhs = self._residues(prime, root)
        if every:
            height = self.count
            # the first listed row of each left member; a symmetric family lists the pairs i <= j
            i = np.arange(left)
            firsts = i * right - (i * (i - 1) // 2 if self._symmetric else 0)

            def members(start: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
                listed = np.arange(start, start + rows)
                i = np.searchsorted(firsts, listed, side="right") - 1
                return lhs[i], rhs[listed - firsts[i] + (i if self._symmetric else 0)]
        else:
            height = min(slots, self.count) + 8
            rng = random.Random(_COMPRESS_SEED)  # importing numpy.random would cost more than most certificates

            def members(start: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
                draws = np.frombuffer(rng.randbytes(2 * rows * (left + right)), dtype="<u2").reshape(rows, -1)
                draws = draws.astype(np.int64)
                return _matmul_mod(draws[:, :left], lhs, prime), _matmul_mod(draws[:, left:], rhs, prime)
        block = max(1, int(_SKETCH_BLOCK_MB * 2**20) // (8 * max(support * slots, left + right)))
        out = np.empty((height, slots), dtype=np.int64)
        for start in range(0, height, block):
            rows = min(block, height - start)
            u, w = members(start, rows)
            out[start : start + rows] = _matmul_mod(w[:, None, :-1], u.astype(float)[:, meet], prime)[:, 0]
        return out

    def annihilate(self, meet: np.ndarray, weights: tuple) -> bool:
        """Whether sum_k w[k, f] row[k] = 0 on every listed row, for each
        column f of the Gaussian weights ``weights`` = (re, im) over the slots
        of ``meet``: integer object arrays, im None for a real family.

        Row (i, j) against weights w is the bilinear form conj(m_i)^T W r_j,
        W[s, t] = w_k where s + sign * t = slots[k] (Hankel for sign +1,
        Toeplitz for -1), else 0.  As a sum of conj(m_i[s]) r_j[t] W[s, t]
        over the pairs (s, t), each real and imaginary part of it is an
        integer of size at most B = max_n |m_n|_1^2 max |W| over the members
        read exactly (:attr:`_entries`), with |re| + |im| in every norm.  The
        forms are checked modulo successive primes p of :func:`_primes`, each
        = 1 (mod 4), under both square roots s of -1 (one for a real family,
        whose forms are real): x + s y = x - s y = 0 (mod p) gives x = y = 0
        (mod p).  Once the product M of the primes passes 2B, each part is a
        multiple of M below M/2 in size, so zero: the dependency holds.  The
        last of the primes goes first, as a lift's weights vanish modulo the
        primes it was laddered under, which lead :func:`_primes`.

        Each prime evaluates the forms on the members' residues
        (:meth:`_residues`), never multiplying out the rows: conj(m_i)^T W for
        a block of left members, then its product with every right member (on
        a symmetric family the pair (j, i) gives the row of (i, j)), each a
        :func:`_matmul_mod`.  The blocks keep each array that grows with them
        within MAX_STACK_MB, the limbs of a residue counted as 31.
        """
        member, _, values_re, values_im = self._entries
        norms = np.zeros(len(self._members), dtype=object)
        np.add.at(norms, member, [abs(a) + abs(b) for a, b in zip(values_re, values_im)])
        re, im = weights
        bound = int(norms.max()) ** 2 * int((abs(re) if im is None else abs(re) + abs(im)).max())
        left, right = (hi - lo for lo, hi in self._halves)
        widest = max(meet.shape[1], 31 * re.shape[1]) * max(len(self._support), right)
        block = max(1, int(MAX_STACK_MB * 2**20) // (8 * widest))
        primes, each, modulus = [], _primes(), 1
        while modulus <= 2 * bound:
            primes.append(next(each))
            modulus *= primes[-1][0]
        for prime, root in reversed(primes):
            parts = [(part % prime).astype(np.int64) for part in weights if part is not None]
            for r in (root,) if im is None else (root, prime - root):
                w = parts[0] if im is None else (parts[0] + r * parts[1]) % prime
                lhs, rhs = self._residues(prime, r)
                for start in range(0, left, block):
                    # [i, k, q]: conj(m_i)[s] with s + sign * t = slots[k], t at support position q
                    gather = lhs[start : start + block].astype(float)[:, meet].transpose(0, 2, 1)
                    form = _matmul_mod(w.T, gather, prime)  # [i, f, q]: (conj(m_i)^T W_f)[t]
                    if _matmul_mod(rhs[:, :-1], form.transpose(0, 2, 1), prime).any():
                        return False
        return True


def _matmul_mod(a: np.ndarray, b: np.ndarray, prime: int) -> np.ndarray:
    """a @ b modulo ``prime`` < 2^31, exactly, for residues ``a`` (..., m, n),
    int64, and ``b`` (..., n, k), ints or floats, n < 2^21: int64.  ``a`` is
    cut into limbs of 22 - n.bit_length() bits, so that n products of a limb
    and a residue sum below 2^53; one float matmul of the limbs, stacked
    along the rows of ``a``, is exact, and Horner's rule joins their products."""
    bits = 22 - a.shape[-1].bit_length()
    count, m = -(-31 // bits), a.shape[-2]
    limbs = np.concatenate([(a >> (bits * k)) & ((1 << bits) - 1) for k in range(count)], axis=-2)
    parts = (limbs.astype(float) @ b.astype(float, copy=False)).astype(np.int64) % prime
    acc = parts[..., (count - 1) * m :, :]
    for k in range(count - 2, -1, -1):
        acc = ((acc << bits) + parts[..., k * m : (k + 1) * m, :]) % prime
    return acc


def _pivot_columns(a: np.ndarray, modulus: int, echelon: list | None = None) -> list[bool]:
    """Which columns of the int64 residues ``a`` gain rank over GF(modulus)
    as columns enter left to right.

    Column j gains rank exactly when some combination of rows vanishes on the
    columns before j and not at j, i.e. when it gets a pivot in a
    column-ordered elimination.  Given a list ``echelon``, each pivot row is
    appended as (j, its entries past j over the pivot): a row echelon form
    of ``a``.  The elimination overwrites ``a``.
    """
    covered = []
    m = a.shape[0]  # a[:m] are the rows still in the elimination
    for j in range(a.shape[1]):
        k = int(a[:m, j].argmax()) if m else 0
        covered.append(m > 0 and a[k, j] != 0)
        if not covered[-1]:
            continue
        tail = a[k, j + 1 :] * pow(int(a[k, j]), -1, modulus) % modulus
        if echelon is not None:
            echelon.append((j, tail))
        m -= 1
        a[k] = a[m]  # a pivot row leaves the elimination; the last live row takes its place
        rest = a[:m, j + 1 :]
        # residues times residues stay below 2^62, so one reduction suffices
        rest -= a[:m, j, None] * tail
        rest %= modulus
    return covered


def _ladder(rows: ProductRows, meet: np.ndarray, prime: int, root: int, every: bool = False) -> tuple:
    """(covered, echelon) of :meth:`ProductRows.sketch` eliminated modulo ``prime``."""
    echelon = []
    return _pivot_columns(rows.sketch(meet, prime, root, every), prime, echelon), echelon


_PRIMES = [(PRIME, _SQRT_M1)]


def _primes():
    """(p, a square root of -1 modulo p): PRIME, then each prime p = 5 (mod 8)
    below it, descending, each found once and kept in _PRIMES.  With p =
    4d + 1, d = p // 4 odd, p is a strong probable prime to base a when a^d
    = +-1 or a^(2d) = -1 (mod p), and below 3,215,031,751 one to the bases
    2, 3, 5 and 7 is prime (Pomerance, Selfridge and Wagstaff, Math. Comp.
    35 (1980))."""
    for k in itertools.count():
        if k == len(_PRIMES):
            p = _PRIMES[k - 1][0] - 8
            while not all(pow(a, p // 4, p) in (1, p - 1) or pow(a, p // 2, p) == p - 1 for a in (2, 3, 5, 7)):
                p -= 8
            _PRIMES[k : k + 1] = [(p, pow(2, p // 4, p))]  # the same pair whichever caller finds it
        yield _PRIMES[k]


def _coordinates(echelon: list, ncols: int, prime: int) -> np.ndarray:
    """Each pivotless column's coordinates on the pivot columns before it,
    modulo ``prime``, from the pivot rows of :func:`_pivot_columns`:
    [pivot, pivotless column], int64."""
    pivots = [j for j, _ in echelon]
    u = np.zeros((len(pivots), ncols), dtype=np.int64)
    for k, (j, tail) in enumerate(echelon):
        u[k, j], u[k, j + 1 :] = 1, tail
    # back substitution through the unit upper triangle u[:, pivots]
    x = u[:, sorted(set(range(ncols)) - set(pivots))]
    for k in range(len(pivots) - 1, 0, -1):
        x[:k] = (x[:k] - u[:k, pivots[k], None] * x[k]) % prime
    return x


def _rational(r: int, modulus: int) -> tuple[int, int] | None:
    """The fraction n/d = r (mod ``modulus``) with |n| and d at most
    sqrt(modulus / 2), else None.

    The half-extended Euclid of Wang, Guy and Davenport, SIGSAM Bull. 16(2)
    (1982): each remainder r_i keeps r_i = s_i r (mod ``modulus``).
    """
    bound = math.isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _weights(covered: list, coordinates: list, modulus: int) -> tuple | None:
    """The Gaussian weights (re, im; im None for a real family) of the
    dependencies that the coordinates (an object array per part, [pivot,
    pivotless column]) lift to modulo ``modulus``, else None.

    Each pivotless column walks its coordinates, both parts, through one
    running denominator den, from 1: :func:`_rational` lifts den x to n/d,
    so x = n / (den d), and den becomes den d.  Each numerator, taken over
    the den of its lift, is scaled to the last den, the least common
    denominator of the column, and the column's own weight is -den.  A
    failed lift, or a den past sqrt(modulus / 2), which no dependency
    recoverable at this modulus has (see :func:`_lifted`), gives None."""
    bound = math.isqrt(modulus // 2)
    pivots = [k for k, c in enumerate(covered) if c]
    free = [k for k, c in enumerate(covered) if not c]
    out = [np.zeros((len(covered), len(free)), dtype=object) for _ in coordinates]
    for f, column in enumerate(free):
        den, lifts = 1, []
        for x in itertools.chain(*(part[:, f] for part in coordinates)):
            lift = _rational(den * x % modulus, modulus)
            if lift is None or den * lift[1] > bound:
                return None
            den *= lift[1]
            lifts.append((lift[0], den))
        numerators = [n * (den // at) for n, at in lifts]
        for k, w in enumerate(out):
            w[pivots, f] = numerators[k * len(pivots) : (k + 1) * len(pivots)]
        out[0][column, f] = -den
    return out[0], out[1] if len(out) > 1 else None


def _lifted(rows: ProductRows, meet: np.ndarray, first: tuple) -> list[bool]:
    """A's ladder over Q(i), for A the listed product rows over the slots of
    ``meet``, given ``first``, the (covered, echelon) of their sketch modulo
    PRIME with i taken to _SQRT_M1 (:func:`_ladder`).

    Each try ladders an image of A under a ring map Z[i] -> GF(p), i taken
    to a square root s of -1, or random combinations of its rows, so each
    prefix has rank at most A's over Q(i) and A's ladder is the
    lexicographically largest.  The first try lifts from ``first``, a
    complex family also sketching under p - s; each further one ladders the
    listed rows modulo the next prime of :func:`_primes`, complex ones under
    both roots.  The largest ladder on which the roots agree is kept, and
    the coordinates of its tries, each pivotless column's on the pivot
    columns before it (real part (x+ + x-)/2 and imaginary part
    (x+ - x-)/2s of the images x+ and x- under s and p - s), are combined by
    the Chinese remainder theorem and lifted afresh after each prime by
    :func:`_weights`, each pivotless column over one running denominator,
    with the bound sqrt(M/2), M the product of their primes; nothing is kept
    from the lifts of earlier primes.  Once :meth:`ProductRows.annihilate`
    proves each dependency, sum_k w_k col_k = 0 with w = -den at the column,
    on every listed row (modulo primes past a bound on the rows' weighted
    sums), A's rank on each prefix is the ladder's pivot count there.

    The loop ends.  A prime p not dividing the norm N(D) of one nonsingular
    pivot minor D of A keeps D's images nonzero under both roots, so it
    keeps A's ladder and gives p-integral coordinates, the images of A's.
    By Hadamard's bound |D| and every Cramer numerator are at most B^r, r
    the rank and B <= max_i |m_i|_2 max_j |r_j|_1 a bound on each row's norm
    (Young's inequality), so only finitely many primes miss the ladder.  By
    Cramer's rule each part of a coordinate is a numerator over D (real
    rows) or over N(D) = |D|^2 (the parts of N conj(D) / |D|^2), each of
    the two at most B^(2r).  Let d* be a column's reduced common
    denominator; it divides that D or N(D).  Once M passes 2 B^(4r), so
    that sqrt(M/2) passes B^(2r), the running denominator den of
    :func:`_weights` always divides d*: it starts at 1, and if den divides
    d*, then den x is x d* / (d* / den): a numerator no larger than x d*,
    which is no larger than x's numerator over D or N(D), as d* divides
    that, over a denominator at most d*.  Both are within sqrt(M/2), so
    :func:`_rational` recovers den x, whose reduced denominator divides d* /
    den, and den times it divides d* again, at most B^(2r).  So the lift
    holds, den never passes sqrt(M/2), and every dependency is recovered.
    """
    ncols = meet.shape[1]
    best, modulus, coordinates = None, 1, None
    for prime, root in _primes():
        tries = [first if (prime, r) == (PRIME, _SQRT_M1) else _ladder(rows, meet, prime, r, prime != PRIME)
                 for r in ((root,) if rows.real else (root, prime - root))]
        covered = tries[0][0]
        if all(covered):  # an image of full column rank proves every slot
            return covered
        if any(c != covered for c, _ in tries) or (best is not None and covered < best):
            continue  # the roots disagree, or a larger ladder is known: this prime loses rank
        x = [_coordinates(echelon, ncols, prime) for _, echelon in tries]
        if not rows.real:  # x+ and x- to the real and the imaginary part
            x = [(x[0] + x[1]) % prime * ((prime + 1) // 2) % prime,
                 (x[0] - x[1]) % prime * pow(2 * root, -1, prime) % prime]
        if covered != best:
            best, modulus, coordinates = covered, prime, [part.astype(object) for part in x]
        else:
            inverse = pow(modulus, -1, prime)
            coordinates = [a + modulus * ((b - a) * inverse % prime) for a, b in zip(coordinates, x)]
            modulus *= prime
        weights = _weights(best, coordinates, modulus)
        if weights is not None and rows.annihilate(meet, weights):
            return best


def span_certificate(rows: ProductRows, slots, check: int) -> PurityCertificate:
    """Certificate for product rows whose columns are ``slots``, in ladder order.

    A slot is missing when its column adds no rank; the missing slots are
    reported in ascending order.  Slots no product reaches are zero columns:
    missing, and without effect on the rest.  First, when single listed
    products prove every other slot covered (:meth:`ProductRows.leading`:
    their later extremes form a triangle with a nonzero diagonal), that is
    the answer, with no residue, sketch or elimination.  Else the rows A of
    the others are never built to certify: their sketch C
    (:meth:`ProductRows.sketch`) is eliminated once modulo PRIME.  Each row
    of C is an integer combination of A's rows, so each prefix of C's
    columns has modular rank at most that of A, and so at most A's rank over
    Q(i), for every draw.  Full column rank of C proves every slot covered.
    On a deficit :func:`_lifted` starts from C's echelon and returns A's
    ladder with its dependencies verified on the members.  Only a family
    that reaches the sketch is bounded by :meth:`ProductRows.check_sketch`,
    its residue arrays and the (N, slots) int64 block of the listed rows a
    deficit may ladder held within MAX_STACK_MB.
    """
    slots = list(slots)
    meet = rows.meet(slots)
    reached = (meet < meet.shape[0]).any(axis=0)
    live, meet = [s for s, r in zip(slots, reached) if r], meet[:, reached]
    if rows.leading(slots, reached):
        covered = [True] * len(live)
    else:
        rows.check_sketch(len(live))
        first = _ladder(rows, meet, PRIME, _SQRT_M1)
        covered = first[0] if all(first[0]) else _lifted(rows, meet, first)
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
    _check_degree(check_degree)
    # only the nonzero coefficients, and any bool, which the scan refuses
    rows = ProductRows([{k: v for k, v in enumerate(m) if v or isinstance(v, _BOOLS)} for m in fam.members], sign=1)
    rows.check_slots(check_degree + 1)
    return span_certificate(rows, range(check_degree + 1), check_degree)
