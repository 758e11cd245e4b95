"""The downward conjugation walk against enumerate-and-filter oracles.

Every expected value here comes from `oracles` (prefix dominance, conjugation
by composing permutations, longest-chain grading); the library's order code
is not consulted.
"""

import random
from collections import Counter
from functools import lru_cache

import pytest

from sporbits import bruhat, cli
from sporbits.bruhat import _walk, interval, rank_poly
from sporbits.graphs import build_graph, local_degree_test, rationally_singular_locus
from sporbits.involutions import (
    DEFAULT_MAX_DEGREE,
    PACKED_MAX_DEGREE,
    FpfInvolution,
    SizeLimitError,
    _conjugate_word,
    _conjugates_above,
    _conjugation_masks,
    _letters,
    _pack,
    _unpack,
    open_orbit,
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
        below, above = set(), set()
        for a, d in pairs(two_n):
            v = conjugate_by(w, a, d)
            assert _conjugate_word(w, a, d) == v
            if w[a - 1] == d:
                assert v == w
                continue
            assert packed_conjugate(w, a, d) == v
            # v != w lies on the predicted side, so not on the other one
            down = w[a - 1] < w[d - 1]
            assert v != w
            assert dominance_leq(w, v) if down else dominance_leq(v, w), (w, a, d)
            (below if down else above).add(v)
        assert conjugates_below(w) == below
        assert _conjugates_above(w) == above


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_inversion_rank_is_the_longest_chain_grade(two_n):
    words = fpf_words(two_n)
    grade = longest_chain_ranks(words, cached_below)
    assert all(grade[w] == inversion_rank(w) for w in words)


def packed_ranks(pi):
    ranks = _walk(FpfInvolution(pi))[0]
    return {_unpack(p, len(pi)): r for p, r in ranks.items()}


def check_interval(pi):
    iv = interval(FpfInvolution(pi))
    expected = oracle_interval(pi)
    assert [mu.word for mu in iv.members] == expected
    assert {mu.word: r for mu, r in iv.rank_of.items()} == {mu: inversion_rank(mu) for mu in expected}
    assert packed_ranks(pi) == {mu.word: rank(mu) for mu in iv.members}
    # each member's down-edges are its down-conjugates, each once
    ranks, edges, ends = _walk(FpfInvolution(pi))
    starts = [0, *ends[:-1]]
    down = {_unpack(p, len(pi)): [_unpack(v, len(pi)) for v in edges[a:b]] for p, a, b in zip(ranks, starts, ends)}
    assert all(sorted(vs) == sorted(conjugates_below(mu)) for mu, vs in down.items())
    hist = Counter(inversion_rank(mu) for mu in expected)
    assert rank_poly(FpfInvolution(pi)).coeffs == tuple(hist[r] for r in range(inversion_rank(pi) + 1))


@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_interval_and_rank_poly_exhaustive(two_n):
    for pi in fpf_words(two_n):
        check_interval(pi)


def test_interval_and_rank_poly_sampled_at_ten():
    for pi in sample(10, 12, seed=3) + [open_orbit(5).word]:
        check_interval(pi)


def test_walk_ranks_at_the_top_of_twelve():
    top = open_orbit(6)
    ranks = packed_ranks(top.word)
    assert len(ranks) == 10395
    assert all(r == rank(FpfInvolution(w)) for w, r in ranks.items())


def test_interval_keeps_the_degree_cap():
    with pytest.raises(SizeLimitError, match="cap 14"):
        rank_poly(w0(8))


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
    bruhat._walk_from.cache_clear()
    assert cli.main(["analyze", "351624"]) == 0
    info = bruhat._walk_from.cache_info()
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
