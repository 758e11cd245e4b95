"""Whole-poset sweeps backing `verify-theorem`.

The per-element functions in `bruhat`, `graphs` and `patterns` are the
reference path; this module computes the same three verdicts for every
involution of a degree in one pass, in pure Python.

The degree is walked once from its top, the open orbit, down conjugation
edges (`bruhat._walk`; Richardson-Springer, Hultman), which gives every
element with its rank and its conjugates below it.  The covers of pi are
those conjugates whose rank is one less, and the lower set is
L(pi) = {pi} ∪ ⋃ L(c) over the covers c of pi.  Each L(pi) is a Python int
used as a bitset, with bits in rank-major order; the sets are built in
increasing rank, and each level is dropped once the level above it is
built.  The columns:

- palindromic: the rank histogram of L(pi), the popcounts of L(pi) under
  each rank mask, reads the same reversed;
- regular, an edge-count test: the conjugation edges inside L(pi) number
  Σ_{mu in L(pi)} d↓(mu), with d↓ the number of conjugates below mu (a lower
  set holds every edge below its members).  Each such edge is also an
  up-edge of its lower end, so the same count is the sum over mu of mu's
  up-degree inside L(pi), and pi is called regular when
  Σ_{mu in L(pi)} d↓(mu) = Σ_{mu in L(pi)} (r(pi) - r(mu)).  This is exact
  under the inequality "the up-degree of mu inside L(pi) is at least
  r(pi) - r(mu)" for every mu <= pi: then equality holds exactly when every
  mu meets it with equality, the Carrell-Peterson degree condition.  The
  tests check the inequality over every pair to 2n = 10.  But every element
  has exactly r(mu) conjugates below it, d↓ = rank (the tests check this at
  every element to 2n = 12), so the test reads Σ r(mu) = Σ (r(pi) - r(mu)):
  the histogram's mean rank is r(pi)/2, which every palindromic histogram
  has.  The column is implied by the palindromic one and cannot report a
  palindromic but irregular pi, so the sweep is in effect a two-way check;
- avoids: membership in `patterns.avoiders`, the avoider set of the degree
  built by arc insertion; `avoids_all_bad` stays the per-element path.

Within a rank, bits are grouped by d↓ and each (rank, d↓) class starts on a
byte, so one conversion to bytes gives the popcount of every class, and
both the histogram and the edge count are sums of class popcounts.
No order matrix is stored.  The tables of a degree (elements, ranks, covers
and bit layout) are memoized; every survey rebuilds the lower sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .bruhat import _walk
from .involutions import (
    FpfInvolution,
    InvolutionError,
    SizeLimitError,
    _unpack,
    fpf_count,
    open_orbit,
)
from .patterns import avoiders

# The largest degree a sweep covers: 135 135 involutions, about 15 s and a
# few hundred MB.  2n = 16 would walk 2 027 025.
SWEEP_MAX_DEGREE = 14


@dataclass(frozen=True)
class ConjugationPairs:
    """Size of the conjugation graph of a degree; its adjacency is not stored."""

    # Ordered pairs (mu, nu) with nu = t*mu*t != mu: twice the edges.
    nnz: int


@dataclass(eq=False)
class PosetTables:
    two_n: int
    # In lexicographic word order; every other per-element tuple follows it.
    elements: tuple[FpfInvolution, ...]
    ranks: tuple[int, ...]
    # Number of distinct conjugates t*mu*t strictly below mu.
    down_degree: tuple[int, ...]
    # Indices of the conjugates of rank one less.
    covers: tuple[tuple[int, ...], ...]
    # Bit of each element in the lower-set ints.
    bits: tuple[int, ...]
    # Element indices of each rank.
    levels: tuple[tuple[int, ...], ...]
    # Per rank, (d↓, first byte, end byte) of each class of the rank's bits.
    classes: tuple[tuple[tuple[int, int, int], ...], ...]
    neighbors: ConjugationPairs
    # No order matrix is stored (lower sets are rebuilt per survey), so the
    # traced leq_bytes and leq_density read 0.
    leq: None = None


_TABLES: dict[int, PosetTables] = {}


def check_degree(two_n: int) -> None:
    """Refuse, before any walk, a degree that is malformed or beyond the sweep's cap."""
    if two_n < 2 or two_n % 2:
        raise InvolutionError(f"a sweep needs a positive even degree, got {two_n}")
    if two_n > SWEEP_MAX_DEGREE:
        raise SizeLimitError(
            f"degree {two_n}: a sweep would walk {fpf_count(two_n // 2)} involutions;"
            f" sweeps stop at degree {SWEEP_MAX_DEGREE}"
        )


def poset_tables(two_n: int) -> PosetTables:
    """Elements, ranks, covers and bit layout of one degree, built once per process."""
    cached = _TABLES.get(two_n)
    if cached is not None:
        return cached
    check_degree(two_n)
    tables = _build_tables(two_n)
    _TABLES[two_n] = tables
    return tables


def _build_tables(two_n: int) -> PosetTables:
    ranks_by_word, edges, ends = _walk(open_orbit(two_n // 2), SWEEP_MAX_DEGREE)
    # Packed words compare as the words do, so sorting them is lexicographic.
    words = sorted(ranks_by_word)
    index = {p: m for m, p in enumerate(words)}
    ranks = [ranks_by_word[p] for p in words]
    down_degree = [0] * len(words)
    covers: list[tuple[int, ...]] = [()] * len(words)
    start = 0
    for p, end in zip(ranks_by_word, ends):  # the walk's order
        m = index[p]
        below = ranks[m] - 1
        down_degree[m] = end - start
        covers[m] = tuple(index[v] for v in edges[start:end] if ranks_by_word[v] == below)
        start = end

    levels: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for m, r in enumerate(ranks):
        levels[r].append(m)
    bits = [0] * len(words)
    classes = []
    bit = 0
    for level in levels:
        level.sort(key=down_degree.__getitem__)  # stable: words stay sorted within a class
        runs = []
        for d, group in groupby(level, key=down_degree.__getitem__):
            first_byte = -(-bit // 8)
            bit = 8 * first_byte
            for m in group:
                bits[m] = bit
                bit += 1
            runs.append((d, first_byte, -(-bit // 8)))
        classes.append(tuple(runs))

    elements = tuple(FpfInvolution(_unpack(p, two_n)) for p in words)
    return PosetTables(
        two_n,
        elements,
        tuple(ranks),
        tuple(down_degree),
        tuple(covers),
        tuple(bits),
        tuple(map(tuple, levels)),
        tuple(classes),
        ConjugationPairs(2 * len(edges)),
    )


def _lower_sets(tables: PosetTables):
    """Yield (element index, lower set) level by level, in increasing rank.

    The lower set is an int with bit ``tables.bits[m]`` set for each member m.
    Only the previous level's sets are kept.
    """
    bits, covers = tables.bits, tables.covers
    below: dict[int, int] = {}
    for level in tables.levels:
        current = {}
        for m in level:
            lower = 1 << bits[m]
            for c in covers[m]:
                lower |= below[c]
            current[m] = lower
            yield m, lower
        below = current


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


def theorem_survey(two_n: int) -> tuple[OrbitSurveyRow, ...]:
    """Avoidance, palindromicity, and regularity verdicts for all of I_2n, in word order."""
    tables = poset_tables(two_n)
    ranks, classes = tables.ranks, tables.classes
    # Byte spans (rank, d↓, first, end) of the ranks up to each rank.
    spans = [[(r, d, lo, hi) for r in range(top + 1) for d, lo, hi in classes[r]] for top in range(len(classes))]
    verdicts: list[tuple[bool, bool]] = [(False, False)] * len(ranks)
    for m, lower in _lower_sets(tables):
        top = ranks[m]
        by_class = spans[top]
        packed = lower.to_bytes(by_class[-1][3], "little")
        hist = [0] * (top + 1)
        edges = 0
        for r, d, lo, hi in by_class:
            count = int.from_bytes(packed[lo:hi], "little").bit_count()
            hist[r] += count
            edges += d * count
        gaps = sum((top - r) * h for r, h in enumerate(hist))
        verdicts[m] = (hist == hist[::-1], edges == gaps)
    avoiding = avoiders(two_n)
    return tuple(
        OrbitSurveyRow(str(el), r, el.word in avoiding, palindromic, regular)
        for el, r, (palindromic, regular) in zip(tables.elements, ranks, verdicts)
    )
