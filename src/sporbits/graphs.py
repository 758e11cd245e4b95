"""Graphs on reverse-order intervals of fixed-point-free involutions.

Two interval members are adjacent when one is the conjugate of the other by
a transposition; an edge carries exactly two transposition labels, t and
w*t*w, and vertex degree counts distinct neighbors.  The degree of the
bottom vertex of [mu, pi] against the rank gap r(pi) - r(mu) is the
pointwise test for rational smoothness (the Carrell-Peterson degree
criterion); vertices exceeding the gap are irregular.

Vertex sets come from the cover scan behind `bruhat.interval`.  By its
direction rule a conjugate t*mu*t != mu lies above mu exactly when
mu(a) > mu(d) for t = (a, d), a < d, so the neighbors of mu in [mu, pi] are
its conjugates with that property that lie in the interval below pi; no
order comparison is needed to find them.  `involutions._conjugates_above`
is the one neighbor finder here: the graph takes each edge once, from its
lower end, with that helper's least label.  The singular locus and
`is_regular` read these up-edges, the upper covers and the ranks straight
from the scan's packed words (at most 16 letters), and reuse the scan
`rank_poly` just made for the same top; neither builds a graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .involutions import (
    FpfInvolution,
    InvolutionError,
    Transposition,
    _conjugates_above,
    _unpack,
    delete_pair_standardize,
    encapsulation_count,
    rank,
    w0,
)
from .bruhat import _walk, interval, reverse_leq


@dataclass(frozen=True, eq=False)
class BruhatGraph:
    bottom: FpfInvolution
    top: FpfInvolution
    vertices: tuple[FpfInvolution, ...]
    adjacency: Mapping[FpfInvolution, tuple[FpfInvolution, ...]]
    edge_labels: Mapping[tuple[FpfInvolution, FpfInvolution], tuple[Transposition, ...]]

    @property
    def rank_gap(self) -> int:
        return rank(self.top) - rank(self.bottom)

    @property
    def edge_count(self) -> int:
        return len(self.edge_labels)


def build_graph(bottom: FpfInvolution, top: FpfInvolution) -> BruhatGraph:
    """Graph on the interval [bottom, top]; edges join conjugate members.

    Both endpoints of an edge must lie inside the interval.  Vertices are in
    lexicographic word order, neighbor lists and label lists are sorted.
    """
    if not reverse_leq(bottom, top):
        raise InvolutionError(f"{bottom} is not below {top} in reverse order")
    verts = tuple(v for v in interval(top).members if reverse_leq(bottom, v))
    by_word = {v.word: v for v in verts}
    neighbors: dict[tuple[int, ...], list[tuple[int, ...]]] = {w: [] for w in by_word}
    edges = []
    for w in by_word:
        for nu, (a, d) in _conjugates_above(w).items():
            if nu in neighbors:
                neighbors[w].append(nu)
                neighbors[nu].append(w)
                edges.append((min(w, nu), max(w, nu), a, d, w[d - 1], w[a - 1]))
    edges.sort()
    adjacency = {by_word[w]: tuple(by_word[x] for x in sorted(ns)) for w, ns in neighbors.items()}
    edge_labels = {
        (by_word[u], by_word[v]): (Transposition(a, d), Transposition(b, c)) for u, v, a, d, b, c in edges
    }
    return BruhatGraph(bottom, top, verts, adjacency, edge_labels)


def vertex_degree(g: BruhatGraph, v: FpfInvolution) -> int:
    """Number of distinct neighbors of v (label multiplicity not counted)."""
    if v not in g.adjacency:
        raise InvolutionError(f"{v} is not a vertex of the graph on [{g.bottom}, {g.top}]")
    return len(g.adjacency[v])


def bottom_edge_labels(top: FpfInvolution) -> tuple[Transposition, ...]:
    """Canonical labels of the edges at the bottom vertex of the interval below top.

    Each edge joins w0 to a distinct conjugate t*w0*t inside the interval;
    it has two labels, t and the mirror w0*t*w0, so each edge is reported
    once, under the lesser label, as `_conjugates_above` gives it.  The
    result has one entry per neighbor of the bottom vertex.
    """
    above = _conjugates_above(w0(top.n).word)
    return tuple(sorted(Transposition(*t) for nu, t in above.items() if reverse_leq(FpfInvolution(nu), top)))


def is_regular(top: FpfInvolution) -> bool:
    """True iff every vertex of the full interval graph has degree rank(top):
    its conjugates below it (its own edges in the scan) plus those above it
    inside the lower set (its occurrences in the others' edges)."""
    lower = _walk(top)
    up = Counter(lower.edges)
    starts = [0, *lower.ends]
    return all(end - start + up[p] == lower.ranks[0] for p, start, end in zip(lower.words, starts, lower.ends))


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
    degree = sum(1 for nu in _conjugates_above(mu.word) if reverse_leq(FpfInvolution(nu), pi))
    gap = rank(pi) - rank(mu)
    return LocalDegreeReport(degree, gap, degree > gap)


@dataclass(frozen=True)
class SingularLocus:
    members: tuple[FpfInvolution, ...]
    maximal: tuple[FpfInvolution, ...]


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
    singular: list[int] = []
    maximal: set[int] = set()
    for p, r, covers in zip(lower.words, lower.ranks, lower.above):
        marked = any(shadow[c] for c in covers)
        is_singular = degree[p] > top_rank - r
        if is_singular:
            singular.append(p)
            if not marked:
                maximal.add(p)
        shadow.append(is_singular or marked)
    singular.sort()
    members = tuple(FpfInvolution(_unpack(p, pi.degree)) for p in singular)
    return SingularLocus(members, tuple(mu for p, mu in zip(singular, members) if p in maximal))


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
    if reverse_leq(mu2, pi2):
        small_irregular = local_degree_test(mu2, pi2).irregular
    else:
        small_irregular = False
    propagation = (not small_irregular) or local_degree_test(mu, pi).irregular
    return LemmaReport(identity, propagation)


def _graph_is_gap_regular(g: BruhatGraph) -> bool:
    gap = g.rank_gap
    return all(len(g.adjacency[v]) == gap for v in g.vertices)


def to_dot(g: BruhatGraph) -> str:
    """DOT rendering: vertices carry word and rank, edges their labels."""
    lines = ["graph interval {"]
    lines.append(
        f'  graph [top="{g.top}", bottom="{g.bottom}", '
        f"rank_gap={g.rank_gap}, regular={str(_graph_is_gap_regular(g)).lower()}];"
    )
    for v in g.vertices:
        lines.append(f'  "{v}" [label="{v}\\nr={rank(v)}"];')
    for (u, v), ts in g.edge_labels.items():
        label = ",".join(t.label for t in ts)
        lines.append(f'  "{u}" -- "{v}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: BruhatGraph) -> dict:
    """JSON form mirroring the DOT export."""
    return {
        "schema": "sporbits.graph/1",
        "top": str(g.top),
        "bottom": str(g.bottom),
        "rank_gap": g.rank_gap,
        "regular": _graph_is_gap_regular(g),
        "vertices": [{"involution": str(v), "rank": rank(v)} for v in g.vertices],
        "edges": [
            {"u": str(u), "v": str(v), "labels": [t.label for t in ts]}
            for (u, v), ts in g.edge_labels.items()
        ],
    }
