"""Graphs on reverse-order intervals of fixed-point-free involutions.

Two interval members are adjacent when one is the conjugate of the other by
a transposition; an edge can carry several transposition labels, but vertex
degree counts distinct neighbors.  The degree of the bottom vertex of
[mu, pi] against the rank gap r(pi) - r(mu) is the pointwise test for
rational smoothness (the Carrell-Peterson degree criterion); vertices
exceeding the gap are irregular.

Vertex sets come from the downward walk of `bruhat.interval`.  By its
direction rule a conjugate t*mu*t != mu lies above mu exactly when
mu(a) > mu(d) for t = (a, d), a < d, so the neighbors of mu in [mu, pi] are
its conjugates with that property that lie in the interval below pi; no
order comparison is needed to find them.  The singular locus reads these
up-edges and the ranks straight from the walk's packed words (at most 16
letters), and reuses the walk `rank_poly` just made for the same top.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .involutions import (
    FpfInvolution,
    InvolutionError,
    Transposition,
    _conjugate_word,
    _conjugates_above,
    _unpack,
    all_transpositions,
    conjugate,
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


@lru_cache(maxsize=128)
def build_graph(bottom: FpfInvolution, top: FpfInvolution) -> BruhatGraph:
    """Graph on the interval [bottom, top]; edges join conjugate members.

    Both endpoints of an edge must lie inside the interval.  Vertices are in
    lexicographic word order, neighbor lists and label lists are sorted.
    """
    if not reverse_leq(bottom, top):
        raise InvolutionError(f"{bottom} is not below {top} in reverse order")
    verts = tuple(v for v in interval(top).members if reverse_leq(bottom, v))
    by_word = {v.word: v for v in verts}
    labels: dict[tuple[FpfInvolution, FpfInvolution], list[Transposition]] = {}
    neighbors: dict[FpfInvolution, set[FpfInvolution]] = {v: set() for v in verts}
    for u in verts:
        for t in all_transpositions(top.degree):
            v = by_word.get(_conjugate_word(u.word, t.a, t.d))
            if v is None or v is u:
                continue
            neighbors[u].add(v)
            if u.word < v.word:
                labels.setdefault((u, v), []).append(t)
    adjacency = {u: tuple(sorted(ns)) for u, ns in neighbors.items()}
    edge_labels = {e: tuple(sorted(ts)) for e, ts in sorted(labels.items())}
    return BruhatGraph(bottom, top, verts, adjacency, edge_labels)


def vertex_degree(g: BruhatGraph, v: FpfInvolution) -> int:
    """Number of distinct neighbors of v (label multiplicity not counted)."""
    if v not in g.adjacency:
        raise InvolutionError(f"{v} is not a vertex of the graph on [{g.bottom}, {g.top}]")
    return len(g.adjacency[v])


def bottom_edge_labels(top: FpfInvolution) -> tuple[Transposition, ...]:
    """Canonical labels of the edges at the bottom vertex of the interval below top.

    Each edge joins w0 to a distinct conjugate t*w0*t inside the interval;
    several transpositions can produce the same conjugate (for w0 the mirror
    t' = w0*t*w0 always does), so each edge is reported once, under its
    lexicographically least label.  The result has one entry per neighbor of
    the bottom vertex.
    """
    bottom = w0(top.n)
    canonical: dict[FpfInvolution, Transposition] = {}
    for t in all_transpositions(top.degree):
        v = conjugate(bottom, t)
        if v != bottom and v not in canonical and reverse_leq(v, top):
            canonical[v] = t
    return tuple(sorted(canonical.values()))


def is_regular(top: FpfInvolution) -> bool:
    """True iff every vertex of the full interval graph has degree rank(top)."""
    return _graph_is_gap_regular(build_graph(w0(top.n), top))


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

    One walk down the interval, then one pass in decreasing rank: the
    degree of mu is the number of its conjugates above it inside the
    interval, and mu has a singular element above it iff one of those
    conjugates is singular or has one above it, since the order inside the
    interval is generated by these edges.  The pass pushes that mark down
    the edges, so each member has it before it is visited.  The walk is
    the one `rank_poly` made for the same pi, if it was the last.
    """
    ranks, edges, ends = _walk(pi)
    top_rank = rank(pi)
    words = list(ranks)
    levels = list(ranks.values())
    degree = Counter(edges)
    shadowed: set[int] = set()  # members with a singular member above them
    singular: list[int] = []
    maximal: set[int] = set()
    for k in sorted(range(len(words)), key=levels.__getitem__, reverse=True):
        p = words[k]
        is_singular = degree[p] > top_rank - levels[k]
        if is_singular:
            singular.append(p)
            if p not in shadowed:
                maximal.add(p)
        if is_singular or p in shadowed:
            shadowed.update(edges[ends[k - 1] if k else 0 : ends[k]])
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
