"""Whole-poset sweeps backing `verify-theorem`.

The per-element functions in `bruhat`, `graphs` and `patterns` are the
reference path; this module computes the same three verdicts for every
involution of a degree in one pass, in pure Python.

The degree is scanned once from its top, the open orbit, by the cover
scan `bruhat._scan` (its module docstring gives the cover rule), which
yields every element with its rank, upper covers and d↓, the number of
conjugates below it.  The tables keep the scan's order, descending rank
with the top first, and are never sorted into word order: an element is
its scan index, each rank is one contiguous range of indices, and the
scan's edge list is dropped once d↓ and its length are read.
`PosetTables.elements` is built only when read.

The up-set is U(mu) = {mu} ∪ ⋃ U(c) over the upper covers c of mu.  Each
U(mu) is a Python int used as a bitset, bit m for scan index m, so bit 0
is the top and the up-sets of rank r fit in the bits of the ranks >= r.
The sets are built from the top rank down, and each level is dropped once
the level below it is built.

No histogram is read per element.  Every column comes from bit-sliced
counters (Knuth, TAOCP 4A §7.1.3): a counter holds one small count per
element as a list of ints, bit-plane b holding bit b of every count, so a
few bitwise operations on whole planes update all the counts at once.  For
each class of elements of equal rank k and down-degree d↓ (the number of
conjugates below), one counter holds #{mu in the class : mu <= pi} at bit
pi.  The class counters are carry-save (3:2) counters, as in Harley-Seal
population counts: plane b holds up to two ints of weight 2^b.  Adding
U(mu) runs one full adder at each full plane from the bottom, whose sum
stays and whose carry moves up as the new column, until the column parks
in a free slot.  A full adder stores one int fewer, so a class runs at
most as many full adders as it adds up-sets, where a ripple increment
would walk nearly every plane per up-set, since the counts differ at
every bit.  Once every up-set is in, one ripple-carry add of the first
and the second slots turns each class into ordinary planes.  The counters
of rank k sum to the rank histogram h_k(pi) = #{mu of rank k : mu <= pi}.
The columns:

- palindromic: pi of rank r is palindromic when h_k(pi) = h_{r-k}(pi) for
  every k.  Two counters agree at pi exactly when every plane agrees there
  (the planes are the binary digits; a missing plane reads 0), so the OR
  over k and b of the XOR of the planes b of h_k and h_{r-k}, read at the
  bits of rank r, is exactly the set of non-palindromic elements;
- regular, an edge-count test: the conjugation edges inside L(pi), the
  lower set of pi, number E(pi) = Σ_{mu in L(pi)} d↓(mu) (a lower set holds
  every edge below its members).  Each such edge is also an up-edge of its
  lower end, so the same count is the sum over mu of mu's up-degree inside
  L(pi), and pi is called regular when E(pi) = Σ_{mu in L(pi)} (r - r(mu)),
  that is E(pi) + A(pi) = r T(pi) with A(pi) = Σ_{mu in L(pi)} r(mu) and
  T(pi) = |L(pi)|.  E + A is the sum of the class counters weighted by
  d↓ + rank and T the sum of all of them, both built with bit-sliced adds
  and constant multiplies; r T is compared with E + A at the bits of rank r
  by the same XOR test.  The column is exact under the inequality "the
  up-degree of mu inside L(pi) is at least r - r(mu)" for every mu <= pi:
  then equality holds exactly when every mu meets it with equality, the
  Carrell-Peterson degree condition.  The tests check the inequality over
  every pair to 2n = 10.  But every element has exactly r(mu) conjugates
  below it, d↓ = rank (the tests check this at every element to 2n = 12,
  and at 2n = 14 in a slow test), so the test reads
  Σ r(mu) = Σ (r - r(mu)): the histogram's mean rank is r/2, which every
  palindromic histogram has.  The column is implied by the
  palindromic one and cannot report a palindromic but irregular pi, so the
  sweep is in effect a two-way check.  It still weights by the tables' own
  d↓ and does not assume d↓ = rank;
- avoids: membership in `patterns.avoiders`, the avoider set of the degree
  built by arc insertion from the integer arc-deletion table of the degree
  below (`patterns._arc_deletions`), packed once per degree;
  `avoids_all_bad` stays the per-element path.

Each column is one mask over the scan indices: the counters are compared
where they sit, each rank keeping the result under the mask of its range,
and the avoids mask is one pass over the words.  `theorem_survey` returns
the three masks as a `TheoremSurvey`: its count, its smooth count (the
palindromic popcount) and its mismatches (rows only where the masks
disagree, in word order) are all `verify-theorem` reads; the row of every
element, in word order, is built only when `rows` is read.

No order matrix is stored.  `poset_tables` caches the words, ranks and upper
covers of each degree; every survey rebuilds the up-sets and counters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import accumulate, pairwise, zip_longest

from .bruhat import _scan
from .involutions import FpfInvolution, _involutions, _pack, _text, check_degree, open_orbit
from .patterns import avoiders


@dataclass(frozen=True)
class ConjugationPairs:
    """Size of the conjugation graph of a degree; its adjacency is not stored."""

    # Ordered pairs (mu, nu) with nu = t*mu*t != mu: twice the edges.
    nnz: int


@dataclass(eq=False)
class PosetTables:
    two_n: int
    # The words packed as in `involutions._pack`, in scan order: descending
    # rank, the top first.  Every other per-element list follows it.
    packed: list[int]
    ranks: list[int]
    # Number of distinct conjugates t*mu*t strictly below mu.
    down_degree: list[int]
    # Scan indices of the conjugates of rank one more.
    upper_covers: list[list[int]]
    # The scan indices of each rank, one contiguous range per rank.
    levels: tuple[range, ...]
    neighbors: ConjugationPairs
    # No order matrix is stored (up-sets are rebuilt per survey), so the
    # traced leq_bytes and leq_density read 0.
    leq = None

    @cached_property
    def elements(self) -> tuple[FpfInvolution, ...]:
        """The involutions in scan order, built on first use; a survey never uses them."""
        return _involutions(self.packed, self.two_n)


@cache
def poset_tables(two_n: int) -> PosetTables:
    """Words, ranks and upper covers of one degree, built once per process.

    A degree beyond `involutions.DEFAULT_MAX_DEGREE` is refused before any scan.
    """
    check_degree(two_n)
    lower = _scan(open_orbit(two_n // 2))
    ranks = lower.ranks
    sizes = Counter(ranks)
    # below[r] elements have rank < r; the scan meets them last, as it descends.
    below = list(accumulate((sizes[r] for r in range(ranks[0] + 1)), initial=0))
    levels = tuple(range(len(ranks) - b, len(ranks) - a) for a, b in pairwise(below))
    return PosetTables(
        two_n,
        lower.words,
        ranks,
        [end - start for start, end in pairwise(lower.offsets)],
        lower.above,
        levels,
        ConjugationPairs(2 * len(lower.edges)),
    )


def _upper_sets(tables: PosetTables):
    """Yield (scan index, up-set) in scan order, from the top rank down.

    The up-set is an int with bit m set for each member m, numbered by scan
    index, so bit 0 is the top.  Only the level above is kept.
    """
    covers = tables.upper_covers
    above: list[int] = []
    above_start = 0
    for level in reversed(tables.levels):
        current = []
        for m in level:
            upper = 0
            for c in covers[m]:
                upper |= above[c - above_start]
            # Own bit last: m is the highest bit, so the ORs above stay short.
            upper |= 1 << m
            current.append(upper)
            yield m, upper
        above, above_start = current, level.start


# Bit-sliced counters: a list of planes, plane b holding bit b of each count.
# A carry-save counter is a list of planes too, but plane b is a pair of ints
# of weight 2^b, 0 marking a free slot: the count at a bit is the weighted sum
# over every int.


def _carry_save(counter: list[list[int]], column: int) -> None:
    """Add a 0/1 column to a carry-save counter in place.

    The column parks in the lowest plane with a free slot.  Each full plane
    below it runs one full adder (3:2 compressor) on its two ints and the
    column: the sum stays, the carry moves up a plane as the new column.  A
    full adder leaves one int fewer stored, so a counter runs at most as many
    full adders as it is given columns, however deep its counts' carries go.
    """
    for slots in counter:
        a, b = slots
        if not b:
            slots[1] = column
            return
        u = a ^ b
        slots[0] = u ^ column
        slots[1] = 0
        column = a & b | u & column
    counter.append([column, 0])


def _resolved(counter: list[list[int]]) -> list[int]:
    """The ordinary planes of a carry-save counter: its first slots plus its second."""
    return _add([a for a, _ in counter], [b for _, b in counter])


def _add(x: list[int], y: list[int]) -> list[int]:
    """The counter x + y, by a ripple-carry adder over the planes."""
    total = []
    carry = 0
    for a, b in zip_longest(x, y, fillvalue=0):
        half = a ^ b
        total.append(half ^ carry)
        carry = a & b | carry & half
    if carry:
        total.append(carry)
    return total


def _times(x: list[int], c: int) -> list[int]:
    """The counter c * x for a constant c >= 0: x shifted by one plane per bit of c, summed."""
    product: list[int] = []
    shift = 0
    while c:
        if c & 1:
            product = _add(product, [0] * shift + x)
        c >>= 1
        shift += 1
    return product


def _differ(x: list[int], y: list[int]) -> int:
    """The bits where the counters x and y hold different counts."""
    diff = 0
    for a, b in zip_longest(x, y, fillvalue=0):
        diff |= a ^ b
    return diff


def _columns(tables: PosetTables) -> tuple[int, int]:
    """The masks of the palindromic and of the regular elements, bit m for scan index m."""
    ranks, down_degree, levels = tables.ranks, tables.down_degree, tables.levels
    # One counter per (rank, d↓) class, as the module docstring sets out.
    counters: dict[tuple[int, int], list[list[int]]] = {}
    for m, upper in _upper_sets(tables):
        _carry_save(counters.setdefault((ranks[m], down_degree[m]), []), upper)
    hist: list[list[int]] = [[] for _ in levels]
    weighted: list[int] = []  # E + A
    for (k, d), counter in counters.items():
        planes = _resolved(counter)
        hist[k] = _add(hist[k], planes)
        weighted = _add(weighted, _times(planes, d + k))
    total = reduce(_add, hist, [])  # T

    asymmetric = irregular = 0
    for r, level in enumerate(levels):
        at_r = (1 << len(level)) - 1 << level.start
        for k in range(r // 2 + 1):
            asymmetric |= _differ(hist[k], hist[r - k]) & at_r
        irregular |= _differ(weighted, _times(total, r)) & at_r
    everything = (1 << len(ranks)) - 1
    return everything ^ asymmetric, everything ^ irregular


@dataclass
class OrbitSurveyRow:
    """Per-involution verdicts of the three smoothness tests."""

    word: str
    rank: int
    avoids: bool
    palindromic: bool
    regular: bool

    @property
    def consistent(self) -> bool:
        return self.avoids == self.palindromic == self.regular


@dataclass(frozen=True, eq=False)
class TheoremSurvey:
    """The three verdicts of one degree as masks, bit m for scan index m of
    the tables.  Rows are built only where they are read."""

    tables: PosetTables
    avoids: int
    palindromic: int
    regular: int

    @property
    def count(self) -> int:
        return len(self.tables.packed)

    @property
    def smooth(self) -> int:
        """The number of rationally smooth (palindromic) involutions."""
        return self.palindromic.bit_count()

    @property
    def mismatches(self) -> tuple[OrbitSurveyRow, ...]:
        """The rows where the three verdicts disagree, in word order."""
        return self._rows(self.avoids ^ self.palindromic | self.palindromic ^ self.regular)

    @cached_property
    def rows(self) -> tuple[OrbitSurveyRow, ...]:
        """Every row, in word order."""
        return self._rows((1 << self.count) - 1)

    def _rows(self, mask: int) -> tuple[OrbitSurveyRow, ...]:
        """The rows of the set bits of mask, in word order; mask and each verdict mask are read as one bit string."""
        packed, ranks, two_n = self.tables.packed, self.tables.ranks, self.tables.two_n
        wanted, *verdicts = (
            format(v, f"0{self.count}b")[::-1] for v in (mask, self.avoids, self.palindromic, self.regular)
        )
        return tuple(
            OrbitSurveyRow(_text(packed[m], two_n), ranks[m], *(v[m] == "1" for v in verdicts))
            for m in sorted((m for m, bit in enumerate(wanted) if bit == "1"), key=packed.__getitem__)
        )


def theorem_survey(two_n: int) -> TheoremSurvey:
    """Avoidance, palindromicity, and regularity verdicts for all of I_2n."""
    tables = poset_tables(two_n)
    avoiding = _packed_avoiders(two_n)
    avoids = int("".join("1" if p in avoiding else "0" for p in reversed(tables.packed)), 2)
    return TheoremSurvey(tables, avoids, *_columns(tables))


@cache
def _packed_avoiders(two_n: int) -> frozenset[int]:
    return frozenset(map(_pack, avoiders(two_n)))
