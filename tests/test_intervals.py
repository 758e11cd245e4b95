"""The downward cover scan against enumerate-and-filter oracles.

Every expected value here comes from `oracles` (prefix dominance, conjugation
by composing permutations, longest-chain grading); the library's order code
is not consulted.
"""

import os
import random
from collections import Counter
from functools import lru_cache

import pytest

from sporbits import bruhat, cli
from sporbits.bruhat import _walk, interval, rank_poly
from sporbits.graphs import (
    _up_labels,
    _vertex_names,
    build_graph,
    dot_lines,
    edge_rows,
    graph_to_json,
    local_degree_test,
    rationally_singular_locus,
)
from sporbits.involutions import (
    DEFAULT_MAX_DEGREE,
    PACKED_MAX_DEGREE,
    FpfInvolution,
    SizeLimitError,
    Transposition,
    _conjugation_masks,
    _letters,
    _pack,
    _text,
    _unpack,
    conjugate,
    fpf_count,
    open_orbit,
    parse_involution,
    rank,
    w0,
)

from oracles import (
    conjugate_by,
    conjugates_below,
    dominance_leq,
    fpf_words,
    inversion_rank,
    longest_chain_ranks,
    reverse_below,
)

cached_below = lru_cache(maxsize=None)(reverse_below)
conjugates_below = lru_cache(maxsize=None)(conjugates_below)
fpf_words = lru_cache(maxsize=None)(fpf_words)


def pairs(two_n):
    return [(a, d) for a in range(1, two_n) for d in range(a + 1, two_n + 1)]


def oracle_interval(pi):
    return [mu for mu in fpf_words(len(pi)) if cached_below(mu, pi)]


@lru_cache(maxsize=None)
def conjugates_above(mu):
    """Distinct conjugates nu != mu with mu <= nu, by definition."""
    return {conjugate_by(mu, a, d) for a, d in pairs(len(mu))} - {mu}


def oracle_degree(mu, pi):
    return sum(1 for nu in conjugates_above(mu) if cached_below(mu, nu) and cached_below(nu, pi))


def oracle_locus(pi):
    members = [
        mu
        for mu in oracle_interval(pi)
        if oracle_degree(mu, pi) > inversion_rank(pi) - inversion_rank(mu)
    ]
    maximal = [
        mu for mu in members if not any(nu != mu and cached_below(mu, nu) for nu in members)
    ]
    return members, maximal


def sample(two_n, k, seed):
    return random.Random(seed).sample(fpf_words(two_n), k)


def packed_conjugate(w, a, d):
    # t = (a, d) and w*t*w = (w(a), w(d)) give the same conjugate; the
    # table holds the orientation (i, j) with i < w(i) and i < j.
    a, d, x, y = a - 1, d - 1, w[a - 1] - 1, w[d - 1] - 1
    i, j = next((i, j) for i, j in ((a, d), (d, a), (x, y), (y, x)) if i < w[i] - 1 and i < j)
    return _unpack(_pack(w) ^ _conjugation_masks(len(w))[i][w[i] - 1][j][w[j] - 1], len(w))


@pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
def test_direction_rule_exhaustive(two_n):
    for w in fpf_words(two_n):
        p = _pack(w)
        assert _unpack(p, two_n) == w
        assert list(_letters(p, two_n)) == [v - 1 for v in w]
        below, above = set(), {}
        for a, d in pairs(two_n):
            v = conjugate_by(w, a, d)
            assert conjugate(FpfInvolution(w), Transposition(a, d)).word == v
            if w[a - 1] == d:
                assert v == w
                continue
            assert packed_conjugate(w, a, d) == v
            # v != w lies on the predicted side, so not on the other one
            down = w[a - 1] < w[d - 1]
            assert v != w
            assert dominance_leq(w, v) if down else dominance_leq(v, w), (w, a, d)
            if down:
                below.add(v)
            else:
                above.setdefault(v, (a, d))
        assert conjugates_below(w) == below
        # the up-label generator gives each conjugate above once, under its least label
        up = [(t.a, t.d) for t in _up_labels(FpfInvolution(w))]
        assert {conjugate_by(w, a, d): (a, d) for a, d in up} == above and len(up) == len(above)


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_inversion_rank_is_the_longest_chain_grade(two_n):
    words = fpf_words(two_n)
    grade = longest_chain_ranks(words, cached_below)
    assert all(grade[w] == inversion_rank(w) for w in words)


def packed_ranks(pi):
    lower = _walk(FpfInvolution(pi))
    return {_unpack(p, len(pi)): r for p, r in zip(lower.words, lower.ranks)}


def check_interval(pi):
    iv = interval(FpfInvolution(pi))
    expected = oracle_interval(pi)
    assert [mu.word for mu in iv.members] == expected
    assert {mu.word: r for mu, r in iv.rank_of.items()} == {mu: inversion_rank(mu) for mu in expected}
    assert packed_ranks(pi) == {mu.word: rank(mu) for mu in iv.members}
    # each member's down-edges are its down-conjugates, each once
    lower = _walk(FpfInvolution(pi))
    words = [_unpack(p, len(pi)) for p in lower.words]
    offsets = lower.offsets
    down = {mu: [_unpack(v, len(pi)) for v in lower.edges[offsets[k] : offsets[k + 1]]] for k, mu in enumerate(words)}
    assert all(sorted(vs) == sorted(conjugates_below(mu)) for mu, vs in down.items())
    # scan order is descending rank, and each member's upper covers are the
    # members with it among their down-conjugates, one rank higher
    assert lower.ranks == sorted(lower.ranks, reverse=True)
    for mu, covers in zip(words, lower.above):
        expected_covers = [
            nu for nu in words if mu in conjugates_below(nu) and inversion_rank(nu) == inversion_rank(mu) + 1
        ]
        assert [words[c] for c in covers] == expected_covers
    hist = Counter(inversion_rank(mu) for mu in expected)
    assert rank_poly(FpfInvolution(pi)).coeffs == tuple(hist[r] for r in range(inversion_rank(pi) + 1))


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_interval_and_rank_poly_exhaustive(two_n):
    for pi in fpf_words(two_n):
        check_interval(pi)


def test_interval_and_rank_poly_sampled_at_ten():
    for pi in sample(10, 12, seed=3) + [open_orbit(5).word]:
        check_interval(pi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scanned_words_are_valid_involutions(n):
    # The CLI prints scanned words without building an FpfInvolution, so
    # nothing validates them at run time: every member and every down-edge
    # word of the whole degree must pass the validation here.
    lower = bruhat._scan(open_orbit(n))
    assert len(set(lower.words)) == len(lower.words) == fpf_count(n)
    for p in set(lower.words) | set(lower.edges):
        FpfInvolution(_unpack(p, 2 * n))


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_lazy_members_agree_with_the_printed_words(two_n):
    for pi in fpf_words(two_n):
        top = FpfInvolution(pi)
        iv = interval(top)
        printed = [(_text(p, two_n), r) for p, r in zip(iv.words, iv.ranks)]
        assert printed == [(str(mu), iv.rank_of[mu]) for mu in iv.members]
        locus = rationally_singular_locus(top)
        assert [_text(p, two_n) for p in locus.words] == [str(mu) for mu in locus.members]
        maximal = [_text(p, two_n) for p in locus.words if p in locus.maximal_words]
        assert maximal == [str(mu) for mu in locus.maximal]


def graph_pairs():
    """Every (bottom, top) pair to 2n = 6, and seeded pairs at 8."""
    for two_n in (2, 4, 6):
        words = fpf_words(two_n)
        yield from ((bottom, top) for top in words for bottom in words if cached_below(bottom, top))
    rng = random.Random(33)
    for top in rng.sample(fpf_words(8), 8) + [open_orbit(4).word]:
        below = oracle_interval(top)
        yield from ((bottom, top) for bottom in rng.sample(below, min(3, len(below))))


def test_graph_renders_from_the_words_and_builds_its_fields_lazily():
    # Text, DOT and JSON read the packed words, scan ranks and edges; no
    # render builds the API's fields, and what they print equals those fields.
    lazy = {"vertices", "adjacency", "edge_labels"}
    for bottom, top in graph_pairs():
        g = build_graph(FpfInvolution(bottom), FpfInvolution(top))
        rows = list(edge_rows(g, _vertex_names(g)))
        dot = list(dot_lines(g))
        data = graph_to_json(g)
        assert lazy.isdisjoint(vars(g)) and "members" not in vars(g.interval), (bottom, top)
        vertices = [(str(v), rank(v)) for v in g.vertices]
        labels = [(str(u), str(v), [t.label for t in ts]) for (u, v), ts in g.edge_labels.items()]
        regular = all(len(g.adjacency[v]) == g.rank_gap for v in g.vertices)
        assert rows == [(u, v, ",".join(ts)) for u, v, ts in labels]
        assert [(v["involution"], v["rank"]) for v in data["vertices"]] == vertices
        assert [(e["u"], e["v"], e["labels"]) for e in data["edges"]] == labels
        assert data["regular"] is regular and data["rank_gap"] == rank(g.top) - rank(g.bottom)
        assert dot[1].endswith(f"regular={str(regular).lower()}];")
        assert dot[2 : 2 + len(vertices)] == [f'  "{v}" [label="{v}\\nr={r}"];' for v, r in vertices]
        assert dot[2 + len(vertices) : -1] == [f'  "{u}" -- "{v}" [label="{",".join(ts)}"];' for u, v, ts in labels]


def test_walk_ranks_at_the_top_of_twelve():
    top = open_orbit(6)
    ranks = packed_ranks(top.word)
    assert len(ranks) == 10395
    assert all(r == rank(FpfInvolution(w)) for w, r in ranks.items())


def test_interval_keeps_the_degree_cap():
    with pytest.raises(SizeLimitError, match="cap 14"):
        rank_poly(w0(8))


def test_refused_degree_keeps_the_last_walk():
    # A refusal raises inside `_walk`: it counts as a miss but stores
    # nothing, so the lower set kept before it is the next query's hit.
    bruhat._walk.cache_clear()
    rank_poly(parse_involution("351624"))
    with pytest.raises(SizeLimitError, match="cap 14"):
        rank_poly(w0(8))
    rank_poly(parse_involution("351624"))
    info = bruhat._walk.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 1)


def test_walk_refuses_what_a_packed_word_cannot_hold():
    # Letters 17 and 18 would spill into the next nibble.  The bottom's walk
    # is one step, so a missing refusal fails here instead of running long.
    # The degree cap refuses them, and it lies within what a packed word holds.
    assert DEFAULT_MAX_DEGREE <= PACKED_MAX_DEGREE
    with pytest.raises(SizeLimitError, match="exceeds the cap 14"):
        interval(w0(9))
    with pytest.raises(SizeLimitError, match="exceeds the cap 14"):
        rank_poly(w0(9))


def test_analyze_walks_once(capsys):
    bruhat._walk.cache_clear()
    assert cli.main(["analyze", "351624"]) == 0
    info = bruhat._walk.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert "maximal singular orbits: 564312" in capsys.readouterr().out


def test_interval_at_fourteen_scales_with_its_size():
    # far below the 135135 elements of the degree: the walk never enumerates it
    pi = FpfInvolution((13, 14, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 1, 2))
    assert interval(pi).members == (pi, w0(7))


def check_locus(pi):
    top = FpfInvolution(pi)
    members, maximal = oracle_locus(pi)
    locus = rationally_singular_locus(top)
    assert [mu.word for mu in locus.members] == members
    assert [mu.word for mu in locus.maximal] == maximal
    return members


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_degree_test_and_locus_exhaustive(two_n):
    for pi in fpf_words(two_n):
        top = FpfInvolution(pi)
        for mu in oracle_interval(pi):
            rep = local_degree_test(FpfInvolution(mu), top)
            assert rep.degree == oracle_degree(mu, pi)
            assert rep.rank_gap == inversion_rank(pi) - inversion_rank(mu)
        check_locus(pi)


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_locus_is_closed(two_n):
    # The singular locus is a union of orbit closures: a lower set, and the
    # union of the lower intervals of its maximal elements.
    for pi in fpf_words(two_n):
        locus = rationally_singular_locus(FpfInvolution(pi))
        members = {mu.word for mu in locus.members}
        lower = oracle_interval(pi)
        for mu in members:
            assert all(nu in members for nu in lower if cached_below(nu, mu)), (pi, mu)
        assert members == {nu for nu in lower if any(cached_below(nu, m.word) for m in locus.maximal)}


def test_locus_of_obstructed_samples_at_ten():
    rng = random.Random(7)
    checked = 0
    for pi in rng.sample(fpf_words(10), 40):
        hist = Counter(inversion_rank(mu) for mu in oracle_interval(pi))
        coeffs = [hist[r] for r in range(inversion_rank(pi) + 1)]
        if coeffs != coeffs[::-1]:
            assert check_locus(pi)
            checked += 1
            if checked == 3:
                break
    assert checked == 3


def test_top_at_twelve_has_empty_locus():
    locus = rationally_singular_locus(open_orbit(6))
    assert locus.members == () and locus.maximal == ()


def check_graph(bottom, top):
    g = build_graph(FpfInvolution(bottom), FpfInvolution(top))
    verts = [v for v in fpf_words(len(top)) if cached_below(bottom, v) and cached_below(v, top)]
    labels = {}
    for u in verts:
        for a, d in pairs(len(top)):
            v = conjugate_by(u, a, d)
            if v != u and u < v and v in verts:
                labels.setdefault((u, v), []).append(f"{a}{d}" if d <= 9 else f"{a},{d}")
    assert [v.word for v in g.vertices] == verts
    assert {(u.word, v.word): [t.label for t in ts] for (u, v), ts in g.edge_labels.items()} == labels
    for u in g.vertices:
        expected = sorted({e[0] if e[1] == u.word else e[1] for e in labels if u.word in e})
        assert [v.word for v in g.adjacency[u]] == expected


@pytest.mark.parametrize("two_n", [4, 6])
def test_build_graph_all_bottoms(two_n):
    words = fpf_words(two_n)
    for top in words:
        for bottom in words:
            if cached_below(bottom, top):
                check_graph(bottom, top)


def test_build_graph_sampled_bottoms_at_eight():
    rng = random.Random(11)
    tops = rng.sample(fpf_words(8), 6) + [open_orbit(4).word]
    for top in tops:
        below = oracle_interval(top)
        for bottom in rng.sample(below, min(3, len(below))):
            check_graph(bottom, top)


@pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
def test_scan_edge_labels_are_the_oracle_labels(two_n):
    # The graph on the whole degree holds every conjugate pair, so every scan
    # edge, once each, with both labels read from the XOR of its two packed
    # words; the oracle's labels are every transposition joining its ends.
    oracle = {}
    for u in fpf_words(two_n):
        for a, d in pairs(two_n):
            v = conjugate_by(u, a, d)
            if u < v:
                oracle.setdefault((u, v), []).append((a, d))
    top = open_orbit(two_n // 2)
    g = build_graph(w0(two_n // 2), top)
    assert g.edge_count == len(_walk(top).edges)
    assert {(u.word, v.word): [(t.a, t.d) for t in ts] for (u, v), ts in g.edge_labels.items()} == oracle


@pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
def test_build_graph_whole_degree_ten():
    # The graph gives every edge the two labels t and w*t*w; matching the
    # oracle's labels by all C(10, 2) transpositions pins that there are no
    # others, over every edge of the degree.
    top = open_orbit(5).word
    bottoms = [w0(5).word] + random.Random(10).sample(fpf_words(10), 2)
    for bottom in bottoms:
        check_graph(bottom, top)
