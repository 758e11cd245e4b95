"""Pattern containment for fixed-point-free involutions.

A host involution includes a pattern when some index set that the host
permutes (necessarily a union of its arcs) standardizes to the pattern's
word.  This is stricter than classical pattern containment: the indices of
an occurrence must be closed under the host involution.

The 17 obstruction patterns listed here are exactly the ones whose presence
makes an orbit closure rationally singular; everything downstream
(`avoids_all_bad`, the factorization refusal, the irregular-vertex
certificate) is driven by this list.

The search numbers the host's arcs by left endpoint.  Two arcs, the first
starting first, are aligned (the first ends before the second starts),
crossing, or nested (the second inside the first).  The C(m, 2) relations of
a union of m arcs fix its standardized word, so each pattern, and each
prefix of it (its first d arcs), is a base-3 code.  A union is grown one
arc at a time and kept only while its code starts a pattern that could
still come first; all the arcs that extend it the same way are found at
once by ANDing one bitmask per chosen arc.  At worst every union of three
arcs is visited, C(n, 3) of them; when 351624, the only three-arc pattern
and the first listed, is found, no union of four arcs is.

`avoiders` gives the whole set of avoiders of a degree at once, for the
exhaustive sweep, from a table of integers per degree.  Each avoider v of
degree 2n is ins_j(u): the arc (1, j) inserted into an avoider u of degree
2n - 2, every letter x of u becoming x + 1 + [x >= j - 1]; it is keyed by
(index of u, j).  Its row holds, for each of its arcs in left-end order,
the index of its deletion one degree down, u first.  Deleting the image of
u's arc (a, d) gives ins_j'(del_{a,d}(u)) with
j' = j - [a <= j - 2] - [d <= j - 2], so one integer dict lookup of
(u's row entry, j') in the table below tests it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .involutions import FpfInvolution, InvolutionError, check_degree

BAD_PATTERN_WORDS: tuple[str, ...] = (
    "351624",
    "64827153",
    "57681324",
    "53281764",
    "43218765",
    "65872143",
    "21654387",
    "21563487",
    "34127856",
    "43217856",
    "34128765",
    "36154287",
    "21754836",
    "63287154",
    "54821763",
    "46513287",
    "21768435",
)

BAD_PATTERNS: tuple[FpfInvolution, ...] = tuple(
    FpfInvolution(tuple(int(c) for c in s)) for s in BAD_PATTERN_WORDS
)

# The largest degree `avoiders` builds: 30 088 avoiders at 2n = 16, in about
# 0.2 s from an empty cache (medians of seven fresh processes, 0.17-0.21 s, on
# a shared 2-core Xeon VM with Python 3.11).
AVOIDERS_MAX_DEGREE = 16

# The largest host the CLI searches for patterns.  The search keeps a union of
# arcs only while it starts some pattern, so at worst it grows each of the
# C(n, 3) unions of three arcs by a few ANDs of n-bit masks: time grows at
# most as n^3 and memory as n^2.  At 2n = 128 the open orbit and w0 take a
# few milliseconds each.
SEARCH_MAX_DEGREE = 128

# Audit data for the obstruction patterns: poset rank and the labels of the
# edges incident to the bottom vertex of the full interval graph.  This is a
# frozen external reference copy, deliberately not recomputed here, so that
# `verify-table` diffs the code against an independent record.  Two rows of
# the original copy were wrong and are corrected: 53281764 gains label 26
# (83254761 = (2,6)*w0*(2,6) lies above it in Bruhat order) and 34128765
# loses label 16 (37154826 does not lie above it).  Every row is rederived
# from Bruhat order by its definition in tests/test_reference_table.py, and
# the two corrected memberships are pinned by the subword oracle in
# tests/test_bruhat.py.
BOTTOM_VERTEX_TABLE: dict[str, tuple[int, tuple[str, ...]]] = {
    "351624": (4, ("12", "13", "14", "23", "24")),
    "64827153": (5, ("12", "13", "23", "24", "25", "34", "35")),
    "57681324": (5, ("12", "13", "14", "23", "24", "34")),
    "53281764": (7, ("12", "13", "14", "23", "24", "25", "26", "34", "35")),
    "43218765": (8, ("12", "13", "14", "15", "23", "24", "25", "26", "34", "35")),
    "65872143": (4, ("12", "13", "23", "24", "34")),
    "21654387": (10, ("12", "13", "14", "15", "16", "17", "23", "24", "25", "26", "34", "35")),
    "21563487": (11, ("12", "13", "14", "15", "16", "17", "23", "24", "25", "26", "34", "35")),
    "34127856": (10, ("12", "13", "14", "15", "16", "23", "24", "25", "26", "34", "35")),
    "43217856": (9, ("12", "13", "14", "15", "23", "24", "25", "26", "34", "35")),
    "34128765": (9, ("12", "13", "14", "15", "23", "24", "25", "26", "34", "35")),
    "36154287": (9, ("12", "13", "14", "15", "16", "23", "24", "25", "26", "34", "35")),
    "21754836": (9, ("12", "13", "14", "15", "16", "23", "24", "25", "26", "34", "35")),
    "63287154": (6, ("12", "13", "23", "24", "25", "34", "35")),
    "54821763": (6, ("12", "13", "23", "24", "25", "34", "35")),
    "46513287": (8, ("12", "13", "14", "15", "23", "24", "25", "34", "35")),
    "21768435": (8, ("12", "13", "14", "15", "23", "24", "25", "34", "35")),
}


@dataclass(frozen=True)
class PatternWitness:
    """A pattern together with the invariant index set realizing it in a host."""

    pattern: FpfInvolution
    indices: tuple[int, ...]

    def to_json(self) -> dict:
        return {"pattern": str(self.pattern), "indices": list(self.indices)}

    def __str__(self) -> str:
        return f"{self.pattern} at indices {','.join(str(i) for i in self.indices)}"


def standardize(values: tuple[int, ...]) -> tuple[int, ...]:
    """Replace the i-th smallest value by i.

    >>> standardize((4, 7, 1, 8, 2, 6))
    (3, 5, 1, 6, 2, 4)
    """
    order = {v: r for r, v in enumerate(sorted(values), start=1)}
    return tuple(order[v] for v in values)


def _arcs(word: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(i, v) for i, v in enumerate(word, start=1) if i < v]


def _relation(d: int, later: tuple[int, int]) -> int:
    """How an arc ending at d relates to an arc that starts after it does:
    0 aligned (d comes first), 1 crossing, 2 nested (the later arc inside)."""
    a2, d2 = later
    return 0 if d < a2 else 1 if d < d2 else 2


def _tries(words: tuple[tuple[int, ...], ...]) -> tuple[tuple, ...]:
    """The root of a trie of prefixes for each number of arcs, fewest first,
    for patterns given in listing order.

    A node is the prefix of some patterns made of their first d arcs, as a
    tuple (digits, least, children).  ``digits`` relate the d-th arc to each
    arc before it, so the rows along a path from the root spell the prefix's
    base-3 code.  ``least`` is the least listing index of a pattern with that
    prefix.  A node without children is a whole pattern.
    """
    roots: dict[int, tuple[int, dict]] = {}
    for index, word in enumerate(words):
        arcs = _arcs(word)
        children = roots.setdefault(len(arcs), (index, {}))[1]
        for k in range(len(arcs)):
            digits = tuple(_relation(d, arcs[k]) for _, d in arcs[:k])
            children = children.setdefault(digits, (index, {}))[1]
    return tuple(_freeze((), *roots[m]) for m in sorted(roots))


# Kept apart from `_tries`: the search iterates tuples faster than dict items
# (`bad_pattern_witness` on all 945 words of degree 10, best of 7 runs on a
# shared 2-core machine: 24.2-24.4 ms frozen, 25.6-29.6 ms walking the dicts).
def _freeze(digits: tuple[int, ...], least: int, children: dict) -> tuple:
    return digits, least, tuple(_freeze(row, *entry) for row, entry in children.items())


def _first_occurrence(word: tuple[int, ...], tries: tuple[tuple, ...]) -> tuple[int, tuple[int, ...]] | None:
    """The least listing index of a pattern the host includes, with its least index set.

    Arcs are numbered by left endpoint.  A union of arcs is grown one arc at
    a time, in increasing arc order, along the trie, and only while some
    pattern below could still come before the best found.  All the arcs that
    grow it to one child are found at once, by ANDing one bitmask per chosen
    arc, and taken in increasing order.  One pattern's occurrences pass
    through the same child at every depth, so they come in lexicographic
    order of their arcs, and so of their sorted endpoint tuples: two that
    first differ at arcs k < k' agree below the left end of k, which only
    the first contains.  So a pattern's first occurrence is its least, and
    once found it and every later pattern are pruned.
    """
    arcs = _arcs(word)
    # masks[i][r]: bit j for each later arc j in relation r to arc i.
    masks = [[0, 0, 0] for _ in arcs]
    for i, (_, d) in enumerate(arcs):
        for j in range(i + 1, len(arcs)):
            masks[i][_relation(d, arcs[j])] |= 1 << j
    every = (1 << len(arcs)) - 1
    best: list = [math.inf, ()]

    def extend(children: tuple[tuple, ...], chosen: tuple[int, ...]) -> None:
        for digits, least, grandchildren in children:
            mask = every
            for c, r in zip(chosen, digits):
                mask &= masks[c][r]
            while mask and least < best[0]:
                low = mask & -mask
                mask ^= low
                grown = chosen + (low.bit_length() - 1,)
                if grandchildren:
                    extend(grandchildren, grown)
                else:
                    best[:] = least, grown

    for _, least, children in tries:
        if least < best[0]:
            extend(children, ())
    if not best[1]:
        return None
    return best[0], tuple(sorted(x for k in best[1] for x in arcs[k]))


_BAD_TRIES = _tries(tuple(pat.word for pat in BAD_PATTERNS))


def includes_pattern(host: FpfInvolution, pattern: FpfInvolution) -> PatternWitness | None:
    """Search for an invariant occurrence of the pattern inside the host.

    Returns the witness with lexicographically least index set, or None.
    Index sets permuted by the host are exactly unions of its arcs.
    """
    found = _first_occurrence(host.word, _tries((pattern.word,)))
    return None if found is None else PatternWitness(pattern, found[1])


def bad_pattern_witness(host: FpfInvolution) -> PatternWitness | None:
    """Witness for the first obstruction pattern contained in the host, if any.

    Patterns are tried in the fixed listing order of ``BAD_PATTERNS``; the
    witness index set is the lexicographically least one for that pattern.
    """
    found = _first_occurrence(host.word, _BAD_TRIES)
    return None if found is None else PatternWitness(BAD_PATTERNS[found[0]], found[1])


def avoids_all_bad(host: FpfInvolution) -> bool:
    """True iff the host contains none of the 17 obstruction patterns."""
    return bad_pattern_witness(host) is None


@cache
def avoiders(two_n: int) -> frozenset[tuple[int, ...]]:
    """The words of degree two_n that contain none of the 17 obstruction patterns.

    These are the "avoiders": the set equals filtering every involution by
    `avoids_all_bad`, which stays the per-element path.  Each degree is built
    once per process from the degree below.  An occurrence is a set of arcs,
    so deleting an arc of an avoider leaves an avoider.  Conversely, if every
    arc deletion of v is an avoider, an occurrence in v cannot miss an arc
    (it would lie in v minus that arc), so it is all of v: v is an avoider
    unless it is itself one of the patterns.  Each candidate v = ins_j(u) is
    made once, by inserting the arc (1, j) into an avoider u one degree
    lower, and kept when its other arc deletions are avoiders too: deleting
    the image of u's arc (a, d) gives ins_j'(del_{a,d}(u)) with
    j' = j - [a <= j - 2] - [d <= j - 2], one lookup of the key
    (index of del_{a,d}(u), j') in the table one degree lower
    (`_arc_deletions`, which keys each ins_j(u) by (index of u, j)).  Only a
    kept candidate's word is built.

    >>> sorted(avoiders(4))
    [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    """
    return frozenset(_arc_deletions(two_n)[0])


# A table key is index * _KEY + j, for the insertion ins_j into the avoider
# of that index; j is at most AVOIDERS_MAX_DEGREE.
_KEY = AVOIDERS_MAX_DEGREE + 1


@cache
def _arc_deletions(two_n: int) -> tuple[tuple[tuple[int, ...], ...], dict[int, int], tuple[tuple[int, ...], ...]]:
    """The avoiders of degree two_n as (words, keys, rows), each by its index.

    ``keys`` maps the key of (index of u, j) to the index of ins_j(u), and
    the row of an avoider holds the index one degree down of each of its arc
    deletions, its arcs in left-end order, so the first is u.  Words and rows
    are tuples of ints and keys an int dict, which the garbage collector stops
    tracking.
    """
    check_degree(two_n, AVOIDERS_MAX_DEGREE)
    if two_n == 2:
        return ((2, 1),), {0 * _KEY + 2: 0}, ((0,),)
    words_below, keys_below, rows_below = _arc_deletions(two_n - 2)
    get = keys_below.get
    bad = {pat.word for pat in BAD_PATTERNS}
    # Old letter x becomes x + 1 or x + 2 around the new letters 1 and j.
    shifts = [[x + 1 + (x >= j - 1) for x in range(two_n - 1)].__getitem__ for j in range(two_n + 1)]
    words: list[tuple[int, ...]] = []
    keys: dict[int, int] = {}
    rows: list[tuple[int, ...]] = []
    for i, (u, row) in enumerate(zip(words_below, rows_below)):
        # Each arc (a, d) of u as (a + 2, d + 2, its deletion's key with j' = 0).
        arcs = [(a + 2, d + 2, w * _KEY) for (a, d), w in zip(_arcs(u), row)]
        for j in range(2, two_n + 1):
            found = [i]
            for a, d, key in arcs:
                k = get(key + j - (a <= j) - (d <= j))
                if k is None:
                    break
                found.append(k)
            else:
                t = tuple(map(shifts[j], u))
                v = (j, *t[: j - 2], 1, *t[j - 2 :])
                if v not in bad:
                    keys[i * _KEY + j] = len(words)
                    words.append(v)
                    rows.append(tuple(found))
    return tuple(words), keys, tuple(rows)


def irregular_certificate(host: FpfInvolution, witness: PatternWitness) -> FpfInvolution:
    """Rewrite the witness positions so the restriction becomes decreasing.

    Position i_j receives the value at slot 2m+1-j of the witness index set,
    turning the restricted involution into the full reversal on those
    positions while leaving every other position untouched.  The result lies
    below the host in reverse order and is an irregular vertex of the graph
    on [result, host].
    """
    idx = witness.indices
    if len(idx) == 0 or len(idx) % 2 or list(idx) != sorted(set(idx)):
        raise InvolutionError(f"witness indices must be strictly increasing and even in number: {idx}")
    if idx[0] < 1 or idx[-1] > host.degree:
        raise InvolutionError(f"witness indices out of range 1..{host.degree}: {idx}")
    index_set = set(idx)
    if any(host.word[i - 1] not in index_set for i in idx):
        raise InvolutionError(f"indices {idx} are not permuted by {host}")
    if standardize(tuple(host.word[i - 1] for i in idx)) != witness.pattern.word:
        raise InvolutionError(f"indices {idx} of {host} do not realize pattern {witness.pattern}")
    w = list(host.word)
    k = len(idx)
    for j, pos in enumerate(idx):
        w[pos - 1] = idx[k - 1 - j]
    return FpfInvolution(tuple(w))
