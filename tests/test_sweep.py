import os
import random
import subprocess
import sys

import oracles
import pytest

from sporbits import bruhat, cli, sweep
from sporbits.bruhat import _walk, is_rationally_smooth, rank_poly
from sporbits.graphs import is_regular
from sporbits.involutions import (
    SizeLimitError,
    _unpack,
    enumerate_fpf,
    fpf_count,
    open_orbit,
    parse_involution,
    rank,
)
from sporbits.patterns import avoids_all_bad


def bit_order(tables):
    """Element indices by up-set bit: descending rank-major, word order within a rank."""
    return [m for level in reversed(tables.levels) for m in level]


def members(tables, upper):
    """Element indices of an up-set int."""
    return {m for b, m in enumerate(bit_order(tables)) if upper >> b & 1}


def down_covers(tables):
    """The covers below each element, from the tables' upper covers."""
    covers = [[] for _ in tables.elements]
    for m, above in enumerate(tables.upper_covers):
        for c in above:
            covers[c].append(m)
    return covers


def counter(values):
    """A bit-sliced counter holding values[i] at bit i."""
    return [sum(1 << i for i, v in enumerate(values) if v >> b & 1) for b in range(max(values).bit_length())]


def counts(planes, size):
    return [sum((plane >> i & 1) << b for b, plane in enumerate(planes)) for i in range(size)]


class TestTables:
    def test_upper_sets_match_pairwise_comparison(self):
        for two_n in (2, 4, 6, 8, 10):
            tables = sweep.poset_tables(two_n)
            words = [el.word for el in tables.elements]
            assert words == oracles.fpf_words(two_n)
            if two_n <= 8:
                expected = {m: {p for p, pi in enumerate(words) if oracles.reverse_below(mu, pi)} for m, mu in enumerate(words)}
            else:
                leq = oracles.dense_leq(words)
                expected = {m: set(leq[m].nonzero()[0].tolist()) for m in range(len(words))}
            got = dict(sweep._upper_sets(tables))
            assert got.keys() == expected.keys()
            for m, upper in got.items():
                assert members(tables, upper) == expected[m]

    def test_dense_oracle_matches_pairwise_comparison(self):
        for two_n in (4, 6, 8):
            words = oracles.fpf_words(two_n)
            leq = oracles.dense_leq(words)
            for m, mu in enumerate(words):
                for p, pi in enumerate(words):
                    assert bool(leq[m, p]) == oracles.reverse_below(mu, pi)

    def test_ranks_match(self):
        for two_n in (8, 10):
            tables = sweep.poset_tables(two_n)
            for m, el in enumerate(tables.elements):
                assert tables.ranks[m] == rank(el) == oracles.inversion_rank(el.word)
                assert m in tables.levels[tables.ranks[m]]

    def test_neighbors_match_direct_conjugation(self):
        for two_n in (2, 4, 6, 8, 10):
            tables = sweep.poset_tables(two_n)
            index = {el.word: m for m, el in enumerate(tables.elements)}
            upper_covers = [set() for _ in tables.elements]
            for m, el in enumerate(tables.elements):
                below = oracles.conjugates_below(el.word)
                assert tables.down_degree[m] == len(below)
                for v in below:
                    if oracles.inversion_rank(v) == tables.ranks[m] - 1:
                        upper_covers[index[v]].add(m)
            for m, covers in enumerate(upper_covers):
                assert set(tables.upper_covers[m]) == covers
                assert len(tables.upper_covers[m]) == len(covers)
            words = [el.word for el in tables.elements]
            assert tables.neighbors.nnz == int(oracles.dense_neighbors(words).sum())
        assert sweep.poset_tables(12).neighbors.nnz == 311_850

    def test_scanned_tables_match_the_walk(self):
        # The cover scan against the whole-degree walk down every conjugation
        # edge: the covers are the down-edges whose rank drops by 1.
        for two_n in range(2, 13, 2):
            tables = sweep.poset_tables(two_n)
            ranks, edges, ends = _walk(open_orbit(two_n // 2))
            assert len(tables.packed) == len(ranks) == fpf_count(two_n // 2)
            assert tables.packed == tuple(sorted(ranks))
            index = {p: m for m, p in enumerate(tables.packed)}
            upper_covers = [[] for _ in tables.packed]
            start = 0
            for p, end in zip(ranks, ends):
                m = index[p]
                assert tables.ranks[m] == ranks[p]
                assert tables.down_degree[m] == end - start
                for v in edges[start:end]:
                    if ranks[v] == ranks[p] - 1:
                        upper_covers[index[v]].append(m)
                start = end
            assert [sorted(c) for c in tables.upper_covers] == [sorted(c) for c in upper_covers], two_n
            assert tables.neighbors.nnz == 2 * len(edges)
            assert tables.ranks == tuple(map(rank, tables.elements))
            assert tables.levels == tuple(
                tuple(m for m, r in enumerate(tables.ranks) if r == k) for k in range(len(tables.levels))
            )

    def test_down_degree_equals_rank(self):
        # Makes the edge-count regular column a consequence of the
        # palindromic one (see the sweep module docstring).
        for two_n in range(2, 13, 2):
            tables = sweep.poset_tables(two_n)
            assert tables.down_degree == tables.ranks, two_n

    def test_bits_are_descending_rank_major(self):
        tables = sweep.poset_tables(10)
        order = bit_order(tables)
        assert sorted(order) == list(range(len(tables.elements)))
        keys = [(-tables.ranks[m], m) for m in order]
        assert keys == sorted(keys)
        # The up-sets of rank r lie in the bits of the ranks >= r.
        for m, upper in sweep._upper_sets(tables):
            assert upper.bit_length() <= sum(map(len, tables.levels[tables.ranks[m] :]))


class TestCounters:
    def test_helpers_match_integer_arithmetic(self):
        rng = random.Random(14)
        for _ in range(300):
            size = rng.randrange(1, 70)
            x = [rng.randrange(1 << rng.randrange(9)) for _ in range(size)]
            y = [rng.randrange(1 << rng.randrange(9)) for _ in range(size)]
            column = [rng.randrange(2) for _ in range(size)]
            c = rng.randrange(70)
            planes = counter(x)
            sweep._increment(planes, sum(bit << i for i, bit in enumerate(column)))
            assert counts(planes, size) == [a + b for a, b in zip(x, column)]
            assert counts(sweep._add(counter(x), counter(y)), size) == [a + b for a, b in zip(x, y)]
            assert counts(sweep._times(counter(x), c), size) == [c * a for a in x]
            assert sweep._differ(counter(x), counter(y)) == sum(1 << i for i, (a, b) in enumerate(zip(x, y)) if a != b)

    def test_increment_carries_into_a_new_plane(self):
        planes = []
        for _ in range(5):
            sweep._increment(planes, 0b101)
        assert planes == [0b101, 0, 0b101]

    def test_columns_match_byte_class_oracle(self):
        for two_n in range(2, 13, 2):
            tables = sweep.poset_tables(two_n)
            expected = oracles.byte_class_columns(tables.ranks, tables.down_degree, down_covers(tables))
            assert sweep._columns(tables) == expected, two_n


class TestSurvey:
    def test_rows_follow_enumeration_order(self):
        rows = sweep.theorem_survey(6)
        assert [r.word for r in rows] == [str(e) for e in enumerate_fpf(3)]

    def test_verdicts_match_reference_path(self):
        for two_n in (2, 4, 6, 8):
            rows = sweep.theorem_survey(two_n)
            for row, pi in zip(rows, enumerate_fpf(two_n // 2)):
                assert row.rank == rank(pi)
                assert row.avoids == avoids_all_bad(pi)
                assert row.palindromic == is_rationally_smooth(pi)
                assert row.regular == is_regular(pi)

    def test_rows_match_dense_oracle(self):
        for two_n in (2, 4, 6, 8, 10):
            rows = sweep.theorem_survey(two_n)
            words, ranks, columns = oracles.dense_survey(two_n)
            assert len(rows) == len(words)
            for row, pi, word, r, (palindromic, regular) in zip(rows, enumerate_fpf(two_n // 2), words, ranks, columns):
                assert pi.word == word
                assert (row.word, row.rank, row.palindromic, row.regular) == (str(pi), r, palindromic, regular)
                assert row.avoids == avoids_all_bad(pi)

    def test_warm_tables_give_the_same_rows(self):
        sweep._TABLES.pop(8, None)
        cold = sweep.theorem_survey(8)
        assert 8 in sweep._TABLES
        assert sweep.theorem_survey(8) == cold

    def test_smooth_counts(self):
        expected = {2: 1, 4: 3, 6: 14, 8: 68, 10: 320, 12: 1472}
        for two_n, smooth in expected.items():
            rows = sweep.theorem_survey(two_n)
            assert sum(row.palindromic for row in rows) == smooth
            assert all(row.consistent for row in rows)


@pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
def test_up_degree_at_least_rank_gap_over_every_pair(two_n):
    # The precondition of the edge-count regularity column: for mu <= pi,
    # mu has at least r(pi) - r(mu) conjugates above it inside L(pi).
    # Degrees come from the walk, membership from the oracle order.
    import numpy as np

    ranks, edges, ends = _walk(open_orbit(two_n // 2))
    words = oracles.fpf_words(two_n)
    index = {w: m for m, w in enumerate(words)}
    at = {p: index[_unpack(p, two_n)] for p in ranks}
    assert len(at) == len(words)
    rank_of = np.zeros(len(words))
    up = np.zeros((len(words), len(words)))  # up[m, v]: v is a conjugate above m
    start = 0
    for p, end in zip(ranks, ends):
        rank_of[at[p]] = ranks[p]
        for v in edges[start:end]:
            up[at[v], at[p]] = 1
        start = end
    if two_n <= 8:
        leq = np.array([[oracles.reverse_below(mu, pi) for pi in words] for mu in words])
    else:
        leq = oracles.dense_leq(words)  # reverse_below for all pairs at once
    inside = up @ leq  # inside[m, q]: conjugates above m that lie below q
    gap = rank_of[None, :] - rank_of[:, None]
    short = np.argwhere(leq & (inside < gap))
    assert not len(short), [(words[m], words[q]) for m, q in short[:5]]
    assert int(leq.sum()) == {2: 1, 4: 6, 6: 101, 8: 3490, 10: 207_738}[two_n]


@pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
def test_full_sweep_at_fourteen():
    rows = sweep.theorem_survey(14)
    assert len(rows) == 135_135
    assert sum(row.palindromic for row in rows) == 6682
    assert all(row.consistent for row in rows)
    # The edge-count regular column rests on d↓ = rank (see the sweep docstring).
    tables = sweep.poset_tables(14)
    assert len(tables.packed) == 135_135
    assert tables.down_degree == tables.ranks


def test_sweep_leaves_no_walk_kept(capsys):
    bruhat._walk_from.cache_clear()
    sweep._TABLES.pop(8, None)
    sweep.poset_tables(8)
    assert bruhat._walk_from.cache_info().currsize == 0
    # The walk an analyze query keeps survives a sweep built after it.
    assert cli.main(["analyze", "351624"]) == 0
    info = bruhat._walk_from.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    sweep._TABLES.pop(8, None)
    sweep.poset_tables(8)
    rank_poly(parse_involution("351624"))
    info = bruhat._walk_from.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert "maximal singular orbits: 564312" in capsys.readouterr().out


def test_over_cap_degree_refused_before_walk(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the size check must come before the scan")

    monkeypatch.setattr(sweep, "_scan_covers", no_scan)
    with pytest.raises(SizeLimitError, match="2027025 involutions"):
        sweep.poset_tables(16)
    assert 16 not in sweep._TABLES


def test_sweep_loads_no_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import contextlib, io, sys\n"
        "from sporbits.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify-theorem', '--degree', '6']) == 0\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
