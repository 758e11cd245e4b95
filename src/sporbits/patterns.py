"""Pattern containment for fixed-point-free involutions.

A host involution includes a pattern when some index set that the host
permutes (necessarily a union of its arcs) standardizes to the pattern's
word.  This is stricter than classical pattern containment: the indices of
an occurrence must be closed under the host involution.

The 17 obstruction patterns listed here are exactly the ones whose presence
makes an orbit closure rationally singular; everything downstream
(`avoids_all_bad`, the factorization refusal, the irregular-vertex
certificate) is driven by this list.

`avoiders` gives the whole set of avoiders of a degree at once, built from
the degree below by inserting one arc, for the exhaustive sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

# The largest degree `avoiders` builds: 30 088 avoiders at 2n = 16.
AVOIDERS_MAX_DEGREE = 16

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


def _standardized_restriction(host: FpfInvolution, indices: tuple[int, ...]) -> tuple[int, ...]:
    # On an invariant index set the values are the indices themselves, so the
    # ranking can be read off the sorted index tuple directly.
    order = {v: r for r, v in enumerate(indices, start=1)}
    return tuple(order[host.word[i - 1]] for i in indices)


def _invariant_index_sets(host: FpfInvolution, m: int) -> list[tuple[int, ...]]:
    """All unions of m arcs of the host, as sorted index tuples in lex order."""
    arcs = host.arcs()
    sets = [
        tuple(sorted(x for arc in combo for x in (arc.a, arc.d)))
        for combo in itertools.combinations(arcs, m)
    ]
    sets.sort()
    return sets


def includes_pattern(host: FpfInvolution, pattern: FpfInvolution) -> PatternWitness | None:
    """Search for an invariant occurrence of the pattern inside the host.

    Returns the witness with lexicographically least index set, or None.
    Index sets permuted by the host are exactly unions of its arcs, so the
    search runs over C(n, m) arc subsets rather than C(2n, 2m) index subsets.
    """
    if pattern.degree > host.degree:
        return None
    for idx in _invariant_index_sets(host, pattern.n):
        if _standardized_restriction(host, idx) == pattern.word:
            return PatternWitness(pattern, idx)
    return None


def bad_pattern_witness(host: FpfInvolution) -> PatternWitness | None:
    """Witness for the first obstruction pattern contained in the host, if any.

    Patterns are tried in the fixed listing order of ``BAD_PATTERNS``; the
    witness index set is the lexicographically least one for that pattern.
    """
    tables: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for pat in BAD_PATTERNS:
        if pat.degree > host.degree:
            continue
        table = tables.get(pat.n)
        if table is None:
            table = {}
            for idx in _invariant_index_sets(host, pat.n):
                table.setdefault(_standardized_restriction(host, idx), idx)
            tables[pat.n] = table
        idx = table.get(pat.word)
        if idx is not None:
            return PatternWitness(pat, idx)
    return None


def avoids_all_bad(host: FpfInvolution) -> bool:
    """True iff the host contains none of the 17 obstruction patterns."""
    return bad_pattern_witness(host) is None


_AVOIDERS: dict[int, frozenset[tuple[int, ...]]] = {2: frozenset({(2, 1)})}


def avoiders(two_n: int) -> frozenset[tuple[int, ...]]:
    """The words of degree two_n that contain none of the 17 obstruction patterns.

    These are the "avoiders": the set equals filtering every involution by
    `avoids_all_bad`, which stays the per-element path.  Each degree is built
    once per process from the degree below.  An occurrence is a set of arcs,
    so deleting an arc of an avoider leaves an avoider.  Conversely, if every
    arc deletion of v is an avoider, an occurrence in v cannot miss an arc
    (it would lie in v minus that arc), so it is all of v: v is an avoider
    unless it is itself one of the patterns.  Each candidate v is made once,
    by inserting an arc (1, j) into an avoider one degree lower, and kept
    when its other arc deletions are avoiders too.

    >>> sorted(avoiders(4))
    [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    """
    found = _AVOIDERS.get(two_n)
    if found is not None:
        return found
    check_degree(two_n, AVOIDERS_MAX_DEGREE)
    below = avoiders(two_n - 2)
    bad = {pat.word for pat in BAD_PATTERNS}
    # drop[a, d][x]: letter x renumbered once the arc (a, d) is deleted.
    drop = {
        (a, d): [x - (x > a) - (x > d) for x in range(two_n + 1)]
        for a in range(2, two_n)
        for d in range(a + 1, two_n + 1)
    }
    found = frozenset(
        v
        for v in _first_arc_insertions(below, two_n)
        if v not in bad and all(u in below for u in _other_arc_deletions(v, drop))
    )
    _AVOIDERS[two_n] = found
    return found


def _first_arc_insertions(words: frozenset[tuple[int, ...]], two_n: int):
    """Each word of degree two_n whose arc at position 1 deletes to one of the
    given words of degree two_n - 2, once."""
    for j in range(2, two_n + 1):
        # Old letter x becomes x + 1 or x + 2 around the new letters 1 and j.
        shift = [x + 1 + (x >= j - 1) for x in range(two_n - 1)]
        for w in words:
            t = tuple(map(shift.__getitem__, w))
            yield (j,) + t[: j - 2] + (1,) + t[j - 2 :]


def _other_arc_deletions(v: tuple[int, ...], drop: dict):
    """The word v with each of its arcs (a, d), a > 1, deleted in turn."""
    for a, d in enumerate(v, 1):
        if 1 < a < d:
            down = drop[a, d]
            # Positions a and d hold the values d and a, so dropping those
            # values drops those positions.
            yield tuple([down[x] for x in v if x != a and x != d])


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
    if _standardized_restriction(host, idx) != witness.pattern.word:
        raise InvolutionError(f"indices {idx} of {host} do not realize pattern {witness.pattern}")
    w = list(host.word)
    k = len(idx)
    for j, pos in enumerate(idx):
        w[pos - 1] = idx[k - 1 - j]
    return FpfInvolution(tuple(w))
