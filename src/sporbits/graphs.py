"""Graphs on reverse-order intervals of fixed-point-free involutions.

Two interval members are adjacent when one is the conjugate of the other by
a transposition; an edge carries exactly two transposition labels, t and
w*t*w, and vertex degree counts distinct neighbors.  The degree of the
bottom vertex of [mu, pi] against the rank gap r(pi) - r(mu) is the
pointwise test for rational smoothness (the Carrell-Peterson degree
criterion); vertices exceeding the gap are irregular.

Graphs are read from the one cover scan, `bruhat._walk`: [bottom, top] is
the up-closure of bottom along the scan's upper covers, each edge is a
down-edge it recorded, and both labels come from the XOR of the two packed
words.  The singular locus and `is_regular` read the same scan, the one
`rank_poly` just made for the same top, and build no graph.  A graph and a
locus keep the scan's packed words; their `FpfInvolution` fields are built
only when the Python API reads them, and the CLI renders the words.  The point
queries `local_degree_test` and `bottom_edge_labels` never scan: by the
direction rule t*mu*t != mu lies above mu exactly when mu(a) > mu(d) for
t = (a, d), a < d, so `_up_labels` lists mu's neighbors above it and only
their order against the top is tested.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import Iterator, Mapping

from .involutions import (
    FpfInvolution,
    InvolutionError,
    Transposition,
    _first_difference,
    _involutions,
    _letters,
    _pack,
    _text,
    conjugate,
    delete_pair_standardize,
    encapsulation_count,
    rank,
    w0,
)
from .bruhat import Interval, _walk, reverse_leq


@dataclass(frozen=True, eq=False)
class BruhatGraph:
    """`interval` holds the vertices' sorted packed words and scan ranks, and `edges` each
    edge once as (upper word, lower word, labels), sorted; the rest is built on first read."""

    bottom: FpfInvolution
    top: FpfInvolution
    interval: Interval
    edges: tuple[tuple[int, int, tuple[Transposition, Transposition]], ...]

    @property
    def rank_gap(self) -> int:
        return rank(self.top) - rank(self.bottom)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def vertices(self) -> tuple[FpfInvolution, ...]:
        return self.interval.members

    @cached_property
    def adjacency(self) -> Mapping[FpfInvolution, tuple[FpfInvolution, ...]]:
        vertex = dict(zip(self.interval.words, self.vertices))
        neighbors: dict[int, list[int]] = {p: [] for p in vertex}
        for u, v, _ in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return {vertex[p]: tuple(vertex[x] for x in sorted(ns)) for p, ns in neighbors.items()}

    @cached_property
    def edge_labels(self) -> Mapping[tuple[FpfInvolution, FpfInvolution], tuple[Transposition, ...]]:
        vertex = dict(zip(self.interval.words, self.vertices))
        return {(vertex[u], vertex[v]): ts for u, v, ts in self.edges}


def build_graph(bottom: FpfInvolution, top: FpfInvolution) -> BruhatGraph:
    """Graph on the interval [bottom, top]; edges join conjugate members.

    Both endpoints of an edge must lie inside the interval.  Vertices are in
    lexicographic word order, neighbor lists and label lists are sorted.
    """
    if not reverse_leq(bottom, top):
        raise InvolutionError(f"{bottom} is not below {top} in reverse order")
    lower = _walk(top)
    two_n = top.degree
    # [bottom, top] is bottom's up-closure; covers precede what they cover.
    inside = {lower.words.index(_pack(bottom.word))}
    for k in range(max(inside), 0, -1):
        if k in inside:
            inside.update(lower.above[k])
    members = {lower.words[k] for k in inside}
    label = [[Transposition(a + 1, d + 1) if a < d else None for d in range(two_n)] for a in range(two_n)]
    edges = []
    for k in inside:
        p = lower.words[k]
        w = _letters(p, two_n)
        for v in lower.edges[lower.offsets[k] : lower.offsets[k + 1]]:
            if v in members:
                # v = t*p*t, t = (i, j) with i < x = p(i) < y = p(j), differs from p
                # at i, j, x and y, first at i, where v(i) = y > x: the word v is
                # the larger, and the labels are (i, p(y)) and (x, y).
                i, y = _first_difference(p, v, two_n)
                edges.append((p, v, (label[i][w[y]], label[w[i]][y])))
    edges.sort()
    words, ranks = zip(*sorted((lower.words[k], lower.ranks[k]) for k in inside))
    return BruhatGraph(bottom, top, Interval(two_n, words, ranks), tuple(edges))


def vertex_degree(g: BruhatGraph, v: FpfInvolution) -> int:
    """Number of distinct neighbors of v (label multiplicity not counted)."""
    if v not in g.adjacency:
        raise InvolutionError(f"{v} is not a vertex of the graph on [{g.bottom}, {g.top}]")
    return len(g.adjacency[v])


def _up_labels(mu: FpfInvolution) -> Iterator[Transposition]:
    """The least label of each conjugate strictly above mu, once each, in
    lexicographic order: t = (a, d) with a < mu(d) < mu(a), by the direction
    rule.  Its other label, (mu(d), mu(a)), fails a < mu(d), as do the arcs."""
    w, m = mu.word, mu.degree
    return (Transposition(a, d) for a in range(1, m) for d in range(a + 1, m + 1) if a < w[d - 1] < w[a - 1])


def bottom_edge_labels(top: FpfInvolution) -> tuple[Transposition, ...]:
    """Canonical labels of the edges at the bottom vertex of the interval below top.

    Each edge joins w0 to a distinct conjugate t*w0*t inside the interval;
    it has two labels, t and the mirror w0*t*w0, so each edge is reported
    once, under the lesser label, as `_up_labels` gives it.  The result has
    one entry per neighbor of the bottom vertex, in lexicographic order.
    """
    bottom = w0(top.n)
    return tuple(t for t in _up_labels(bottom) if reverse_leq(conjugate(bottom, t), top))


def is_regular(top: FpfInvolution) -> bool:
    """True iff every vertex of the full interval graph has degree rank(top):
    its conjugates below it (its own edges in the scan) plus those above it
    inside the lower set (its occurrences in the others' edges)."""
    lower = _walk(top)
    up = Counter(lower.edges)
    spans = pairwise(lower.offsets)
    return all(end - start + up[p] == lower.ranks[0] for p, (start, end) in zip(lower.words, spans))


@dataclass(frozen=True)
class LocalDegreeReport:
    degree: int
    rank_gap: int
    irregular: bool


def local_degree_test(mu: FpfInvolution, pi: FpfInvolution) -> LocalDegreeReport:
    """Degree of mu in the graph on [mu, pi] against the rank gap.

    The closure of the pi-orbit is rationally smooth along the mu-orbit iff
    the two numbers agree; the degree never falls below the gap.
    """
    if not reverse_leq(mu, pi):
        raise InvolutionError(f"{mu} is not below {pi} in reverse order")
    degree = sum(1 for t in _up_labels(mu) if reverse_leq(conjugate(mu, t), pi))
    gap = rank(pi) - rank(mu)
    return LocalDegreeReport(degree, gap, degree > gap)


@dataclass(frozen=True)
class SingularLocus:
    """The singular members of a lower interval as packed words (as in
    `involutions._pack`), in lexicographic order, and which of them are
    maximal; `members` and `maximal` are built from them on first read."""

    two_n: int
    words: tuple[int, ...]
    maximal_words: frozenset[int]

    @cached_property
    def members(self) -> tuple[FpfInvolution, ...]:
        return _involutions(self.words, self.two_n)

    @cached_property
    def maximal(self) -> tuple[FpfInvolution, ...]:
        return tuple(mu for p, mu in zip(self.words, self.members) if p in self.maximal_words)


def rationally_singular_locus(pi: FpfInvolution) -> SingularLocus:
    """All mu <= pi failing the pointwise degree test, plus the maximal ones.

    The locus itself is the union of the orbit closures of the maximal
    elements; the full member list is the pointwise view.

    One scan down the interval, then one pass in its order, descending
    rank: the degree of mu is the number of its conjugates above it inside
    the interval, and mu has a singular element above it iff one of its
    upper covers is singular or has one above it, since every chain up
    from mu starts with a cover.  Each member is marked before it is
    visited, from its covers' marks.  The scan is the one `rank_poly` made
    for the same pi, if it was the last.
    """
    lower = _walk(pi)
    top_rank = lower.ranks[0]
    degree = Counter(lower.edges)
    shadow: list[bool] = []  # singular, or below a singular member
    marks = shadow.__getitem__
    singular: list[int] = []
    maximal: set[int] = set()
    for p, r, covers in zip(lower.words, lower.ranks, lower.above):
        marked = any(map(marks, covers))
        is_singular = degree[p] > top_rank - r
        if is_singular:
            singular.append(p)
            if not marked:
                maximal.add(p)
        shadow.append(is_singular or marked)
    singular.sort()
    return SingularLocus(pi.degree, tuple(singular), frozenset(maximal))


@dataclass(frozen=True)
class LemmaReport:
    rank_identity: bool
    propagation: bool


def lemma_check(mu: FpfInvolution, pi: FpfInvolution, t: Transposition) -> LemmaReport:
    """Check the two deletion facts for a shared arc t of mu <= pi.

    Deleting t from both and standardizing gives mu', pi' two letters
    shorter.  rank_identity asserts
    r(pi) - r(mu) == r(pi') - r(mu') + 2*(n(mu) - n(pi)),
    with n(.) the number of arcs encapsulating t; propagation asserts that
    irregularity of mu' in the graph on [mu', pi'] forces irregularity of mu
    in the graph on [mu, pi].
    """
    if not (mu.has_arc(t) and pi.has_arc(t)):
        raise InvolutionError(f"{t} must be an arc of both {mu} and {pi}")
    if not reverse_leq(mu, pi):
        raise InvolutionError(f"{mu} is not below {pi} in reverse order")
    if mu.n < 2:
        raise InvolutionError("deletion needs at least two arcs")
    mu2 = delete_pair_standardize(mu, t)
    pi2 = delete_pair_standardize(pi, t)
    gap = rank(pi) - rank(mu)
    identity = gap == rank(pi2) - rank(mu2) + 2 * (encapsulation_count(mu, t) - encapsulation_count(pi, t))
    small_irregular = reverse_leq(mu2, pi2) and local_degree_test(mu2, pi2).irregular
    propagation = (not small_irregular) or local_degree_test(mu, pi).irregular
    return LemmaReport(identity, propagation)


def _graph_is_gap_regular(g: BruhatGraph) -> bool:
    degree = Counter(p for u, v, _ in g.edges for p in (u, v))
    gap = g.rank_gap
    return all(degree[p] == gap for p in g.interval.words)


def _vertex_names(g: BruhatGraph) -> dict[int, str]:
    """Each vertex's text keyed by its packed word, in vertex order: no involution is built."""
    return {p: _text(p, g.interval.two_n) for p in g.interval.words}


def edge_rows(g: BruhatGraph, names: Mapping[int, str]) -> Iterator[tuple[str, str, str]]:
    """Each edge as (u, v, labels): its ends' names (by packed word), its labels joined by commas."""
    for u, v, ts in g.edges:
        yield names[u], names[v], ",".join(t.label for t in ts)


def dot_lines(g: BruhatGraph) -> Iterator[str]:
    """DOT rendering, one line at a time: vertices carry word and rank, edges their labels."""
    yield "graph interval {"
    yield (
        f'  graph [top="{g.top}", bottom="{g.bottom}", '
        f"rank_gap={g.rank_gap}, regular={str(_graph_is_gap_regular(g)).lower()}];"
    )
    names = _vertex_names(g)
    for name, r in zip(names.values(), g.interval.ranks):
        yield f'  "{name}" [label="{name}\\nr={r}"];'
    for u, v, labels in edge_rows(g, names):
        yield f'  "{u}" -- "{v}" [label="{labels}"];'
    yield "}"


def graph_to_json(g: BruhatGraph) -> dict:
    """JSON form mirroring the DOT export."""
    names = _vertex_names(g)
    return {
        "schema": "sporbits.graph/1",
        "top": str(g.top),
        "bottom": str(g.bottom),
        "rank_gap": g.rank_gap,
        "regular": _graph_is_gap_regular(g),
        "vertices": [{"involution": name, "rank": r} for name, r in zip(names.values(), g.interval.ranks)],
        "edges": [{"u": names[u], "v": names[v], "labels": [t.label for t in ts]} for u, v, ts in g.edges],
    }
