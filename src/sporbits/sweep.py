"""Whole-poset sweeps backing `verify-theorem`.

The per-element functions in `bruhat`, `graphs` and `patterns` are the
reference path; this module computes the same three verdicts for every
involution of a degree in one pass, in pure Python.

The degree is scanned once from its top, the open orbit, breadth first
down its covers only.  The order is graded by rank and every cover is a
conjugation t*w*t (Richardson-Springer; Hultman), so each element lies on
a chain of covers down from the top and the scan reaches every element,
level by level.  For w, i with x = w(i) > i and j > i with y = w(j) > x,
t = (i, j) gives a distinct conjugate below w, lower in rank by
1 + 2c + [x < j < y] with c = #{i < k < j : x < w(k) < y}, as in
`bruhat._walk`.  The scan runs j = i+1, i+2, ... keeping `bound`, the
least w(k) > x over i < k < j.  If bound < y, bound itself is a w(k)
strictly between x and y; if some w(k) is, bound <= w(k) < y.  So c = 0
exactly when y < bound, and (i, j) gives a cover exactly when
x < y < bound and not x < j < y.  Each pair with y > x counts toward
d↓(w), the number of conjugates below w.  A new element takes the rank of
the element it was found from, less one.  No edge list and no
`FpfInvolution` per element is built: the scan runs on packed words, and
`PosetTables.elements` is built only when read.  The tests check the
scanned tables against the whole-degree walk at every degree to 2n = 12.

The up-set is U(mu) = {mu} ∪ ⋃ U(c) over the upper covers c of mu.  Each
U(mu) is a Python int used as a bitset, with the elements numbered in
descending rank-major order, so the up-sets of rank r fit in the bits of
the ranks >= r.  The sets are built from the top rank down, and each level
is dropped once the level below it is built.

No histogram is read per element.  Every column comes from bit-sliced
counters (Knuth, TAOCP 4A §7.1.3): a counter holds one small count per
element as a list of ints, bit-plane b holding bit b of every count, so a
few bitwise operations on whole planes update all the counts at once.  For
each class of elements of equal rank k and down-degree d↓ (the number of
conjugates below), one counter holds #{mu in the class : mu <= pi} at bit
pi; adding U(mu) into its class's counter is a ripple increment that stops
once the carry is 0.  The counters of rank k sum to the rank histogram
h_k(pi) = #{mu of rank k : mu <= pi}.  The columns:

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
  built by arc insertion, packed once per degree; `avoids_all_bad` stays
  the per-element path.

No order matrix is stored.  The tables of a degree (words, ranks, upper
covers) are memoized; every survey rebuilds the up-sets and counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import zip_longest

from .involutions import (
    FpfInvolution,
    _conjugation_masks,
    _letters,
    _pack,
    _unpack,
    check_degree,
    open_orbit,
    rank,
)
from .patterns import avoiders


@dataclass(frozen=True)
class ConjugationPairs:
    """Size of the conjugation graph of a degree; its adjacency is not stored."""

    # Ordered pairs (mu, nu) with nu = t*mu*t != mu: twice the edges.
    nnz: int


@dataclass(eq=False)
class PosetTables:
    two_n: int
    # The words packed as in `involutions._pack`, in lexicographic word
    # order; every other per-element tuple follows it.
    packed: tuple[int, ...]
    ranks: tuple[int, ...]
    # Number of distinct conjugates t*mu*t strictly below mu.
    down_degree: tuple[int, ...]
    # Indices of the conjugates of rank one more.
    upper_covers: tuple[tuple[int, ...], ...]
    # Element indices of each rank, in word order.
    levels: tuple[tuple[int, ...], ...]
    neighbors: ConjugationPairs
    # No order matrix is stored (up-sets are rebuilt per survey), so the
    # traced leq_bytes and leq_density read 0.
    leq: None = None

    @cached_property
    def elements(self) -> tuple[FpfInvolution, ...]:
        """The involutions in word order, built on first use; a survey never uses them."""
        return tuple(FpfInvolution(_unpack(p, self.two_n)) for p in self.packed)


_TABLES: dict[int, PosetTables] = {}


def poset_tables(two_n: int) -> PosetTables:
    """Words, ranks and upper covers of one degree, built once per process.

    A degree beyond `involutions.DEFAULT_MAX_DEGREE` is refused before any scan.
    """
    cached = _TABLES.get(two_n)
    if cached is not None:
        return cached
    check_degree(two_n)
    tables = _build_tables(two_n)
    _TABLES[two_n] = tables
    return tables


def _build_tables(two_n: int) -> PosetTables:
    words, ranks, down_degree, above = _scan_covers(two_n)
    # Packed words compare as the words do, so sorting them is lexicographic.
    order = sorted(range(len(words)), key=words.__getitem__)
    at = [0] * len(words)  # scan index -> word index
    for m, k in enumerate(order):
        at[k] = m
    levels: list[list[int]] = [[] for _ in range(ranks[0] + 1)]
    for m, k in enumerate(order):
        levels[ranks[k]].append(m)
    return PosetTables(
        two_n,
        tuple(words[k] for k in order),
        tuple(ranks[k] for k in order),
        tuple(down_degree[k] for k in order),
        tuple(tuple(at[c] for c in above[k]) for k in order),
        tuple(map(tuple, levels)),
        ConjugationPairs(2 * sum(down_degree)),
    )


def _scan_covers(two_n: int) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """Every involution of the degree, found from the top down its covers.

    Returns, in scan order (descending rank), the packed words, ranks,
    down-degrees and the scan indices of each element's upper covers.
    """
    masks = _conjugation_masks(two_n)
    top = open_orbit(two_n // 2)
    words = [_pack(top.word)]
    ranks = [rank(top)]
    down_degree: list[int] = []
    above: list[list[int]] = [[]]
    index = {words[0]: 0}
    for k, p in enumerate(words):  # grows as elements are found
        w = _letters(p, two_n)
        below = ranks[k] - 1
        d = 0
        for i in range(two_n - 1):
            x = w[i]
            if x < i:
                continue
            masks_ix = masks[i][x]
            bound = two_n  # the least w(l) > x over i < l < j, or two_n
            for j in range(i + 1, two_n):
                y = w[j]
                if y > x:
                    d += 1
                    if y < bound:
                        bound = y
                        if not x < j < y:
                            v = p ^ masks_ix[j][y]
                            m = index.get(v)
                            if m is None:
                                index[v] = len(words)
                                words.append(v)
                                ranks.append(below)
                                above.append([k])
                            else:
                                above[m].append(k)
        down_degree.append(d)
    return words, ranks, down_degree, above


def _upper_sets(tables: PosetTables):
    """Yield (element index, up-set) level by level, from the top rank down.

    The up-set is an int with the bit of each member set.  Bits number the
    elements in descending rank-major order, in word order within a rank, so
    bit 0 is the top.  Only the level above is kept.
    """
    covers = tables.upper_covers
    above: dict[int, int] = {}
    bit = 0
    for level in reversed(tables.levels):
        current = {}
        for m in level:
            upper = 1 << bit
            bit += 1
            for c in covers[m]:
                upper |= above[c]
            current[m] = upper
            yield m, upper
        above = current


# Bit-sliced counters: a list of planes, plane b holding bit b of each count.


def _increment(planes: list[int], column: int) -> None:
    """Add a 0/1 column to a counter in place, rippling the carry up."""
    carry = column
    for b, plane in enumerate(planes):
        planes[b] = plane ^ carry
        carry &= plane
        if not carry:
            return
    planes.append(carry)


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


def _window(planes: list[int], lo: int, mask: int) -> list[int]:
    """The counter read at bits lo, lo + 1, ... under mask, shifted down to bit 0."""
    return [plane >> lo & mask for plane in planes]


def _columns(tables: PosetTables) -> list[tuple[bool, bool]]:
    """(palindromic, regular) of every element, in word order."""
    ranks, down_degree, levels = tables.ranks, tables.down_degree, tables.levels
    # One counter per (rank, d↓) class, as the module docstring sets out.
    counters: dict[tuple[int, int], list[int]] = {}
    for m, upper in _upper_sets(tables):
        _increment(counters.setdefault((ranks[m], down_degree[m]), []), upper)
    hist: list[list[int]] = [[] for _ in levels]
    weighted: list[int] = []  # E + A
    for (k, d), planes in counters.items():
        hist[k] = _add(hist[k], planes)
        weighted = _add(weighted, _times(planes, d + k))
    total: list[int] = []  # T
    for planes in hist:
        total = _add(total, planes)

    columns: list[tuple[bool, bool]] = [(False, False)] * len(ranks)
    lo = 0
    for r in reversed(range(len(levels))):
        level = levels[r]
        mask = (1 << len(level)) - 1
        near = [_window(hist[k], lo, mask) for k in range(r + 1)]
        asymmetric = 0
        for k in range(r // 2 + 1):
            asymmetric |= _differ(near[k], near[r - k])
        irregular = _differ(_window(weighted, lo, mask), _times(_window(total, lo, mask), r))
        # Bit i of each mask, as character i.
        asymmetric_at = format(asymmetric, f"0{len(level)}b")[::-1]
        irregular_at = format(irregular, f"0{len(level)}b")[::-1]
        for m, a, i in zip(level, asymmetric_at, irregular_at):
            columns[m] = (a == "0", i == "0")
        lo += len(level)
    return columns


@dataclass(frozen=True)
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


# Packed word -> one-line text as `format_involution` writes it.  A packed
# word's first nibble is w(1) - 1 > 0, so `format(p, "x")` has all 2n digits.
_PLAIN_TEXT = str.maketrans("012345678", "123456789")
_COMMA_TEXT = str.maketrans({h: f",{v}" for v, h in enumerate("0123456789abcdef", start=1)})


def theorem_survey(two_n: int) -> tuple[OrbitSurveyRow, ...]:
    """Avoidance, palindromicity, and regularity verdicts for all of I_2n, in word order."""
    tables = poset_tables(two_n)
    avoiding = _packed_avoiders(two_n)
    if two_n <= 9:
        words = [format(p, "x").translate(_PLAIN_TEXT) for p in tables.packed]
    else:
        words = [format(p, "x").translate(_COMMA_TEXT)[1:] for p in tables.packed]
    return tuple(
        OrbitSurveyRow(word, r, p in avoiding, palindromic, regular)
        for word, p, r, (palindromic, regular) in zip(words, tables.packed, tables.ranks, _columns(tables))
    )


@lru_cache(maxsize=None)
def _packed_avoiders(two_n: int) -> frozenset[int]:
    return frozenset(map(_pack, avoiders(two_n)))
