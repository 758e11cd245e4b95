import os
import random
import subprocess
import sys
from itertools import zip_longest
from operator import add

import oracles
import pytest

from sporbits import bruhat, cli, sweep
from sporbits.bruhat import _walk, is_rationally_smooth, rank_poly
from sporbits.graphs import is_regular
from sporbits.involutions import (
    SizeLimitError,
    _pack,
    _unpack,
    enumerate_fpf,
    fpf_count,
    open_orbit,
    parse_involution,
    rank,
)
from sporbits.patterns import avoids_all_bad


def never_increase(ranks):
    return all(a >= b for a, b in zip(ranks, ranks[1:]))


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


def carry_save(x, y):
    """A carry-save counter holding x[i] + y[i] at bit i: x in the first slots, y in the second."""
    return [[a, b] for a, b in zip_longest(counter(x), counter(y), fillvalue=0)]


def counts(planes, size):
    return [sum((plane >> i & 1) << b for b, plane in enumerate(planes)) for i in range(size)]


class TestTables:
    def test_upper_sets_match_pairwise_comparison(self):
        for two_n in (2, 4, 6, 8, 10):
            tables = sweep.poset_tables(two_n)
            # The tables keep scan order; the oracle's words are sorted.
            words = oracles.fpf_words(two_n)
            at = {el.word: m for m, el in enumerate(tables.elements)}
            assert sorted(at) == words and len(at) == len(tables.elements)
            # Column p of the oracle order holds the m below words[p]; the
            # up-set of m, in scan bits, is every p whose column holds m.
            expected = dict.fromkeys(at.values(), 0)
            for p, column in enumerate(oracles.leq_columns(words)):
                bit = 1 << at[words[p]]
                for m in oracles.bit_indices(column):
                    expected[at[words[m]]] |= bit
            got = dict(sweep._upper_sets(tables))
            assert got.keys() == expected.keys()
            for m, upper in got.items():
                assert upper == expected[m]

    def test_bitset_order_matches_pairwise_comparison(self):
        pairs = {2: 1, 4: 6, 6: 101, 8: 3490, 10: 207_738}
        for two_n, count in pairs.items():
            words = oracles.fpf_words(two_n)
            columns = oracles.leq_columns(words)
            assert sum(column.bit_count() for column in columns) == count
            if two_n <= 8:
                for p, pi in enumerate(words):
                    for m, mu in enumerate(words):
                        assert (columns[p] >> m & 1 == 1) == oracles.reverse_below(mu, pi)

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
            assert tables.neighbors.nnz == sum(row.bit_count() for row in oracles.neighbor_rows(words))
        assert sweep.poset_tables(12).neighbors.nnz == 311_850

    def test_scanned_tables_match_the_oracles(self):
        # The cover scan against conjugation by composing permutations and
        # inversion counts: the covers are the down-conjugates whose rank
        # drops by 1.
        for two_n in range(2, 13, 2):
            tables = sweep.poset_tables(two_n)
            # The tables keep scan order; packed words sort as the words do.
            sorted_words = oracles.fpf_words(two_n)
            assert len(tables.packed) == len(sorted_words) == fpf_count(two_n // 2)
            assert sorted(tables.packed) == list(map(_pack, sorted_words))
            words = [_unpack(p, two_n) for p in tables.packed]
            index = {w: m for m, w in enumerate(words)}
            ranks = [oracles.inversion_rank(w) for w in words]
            upper_covers = [[] for _ in words]
            edges = 0
            for m, w in enumerate(words):
                below = oracles.conjugates_below(w)
                assert tables.down_degree[m] == len(below)
                edges += len(below)
                for v in below:
                    if ranks[index[v]] == ranks[m] - 1:
                        upper_covers[index[v]].append(m)
            assert [sorted(c) for c in tables.upper_covers] == upper_covers, two_n
            assert tables.neighbors.nnz == 2 * edges
            assert tables.ranks == ranks == list(map(rank, tables.elements))
            assert never_increase(tables.ranks), two_n
            assert tuple(map(tuple, tables.levels)) == tuple(
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
        # Bit m is scan index m: the levels, top rank first, run through every
        # index in order, and the ranks never increase along them.
        order = [m for level in reversed(tables.levels) for m in level]
        assert order == list(range(len(tables.elements)))
        assert never_increase(tables.ranks)
        keys = [(-tables.ranks[m], m) for m in order]
        assert keys == sorted(keys)
        # The up-sets of rank r lie in the bits of the ranks >= r, and an
        # element's own bit is the highest of its up-set.
        for m, upper in sweep._upper_sets(tables):
            assert upper.bit_length() <= sum(map(len, tables.levels[tables.ranks[m] :]))
            assert upper.bit_length() == m + 1


class TestCounters:
    def test_helpers_match_integer_arithmetic(self):
        rng = random.Random(14)
        for _ in range(300):
            size = rng.randrange(1, 70)
            x = [rng.randrange(1 << rng.randrange(9)) for _ in range(size)]
            y = [rng.randrange(1 << rng.randrange(9)) for _ in range(size)]
            column = [rng.randrange(2) for _ in range(size)]
            c = rng.randrange(70)
            bits = sum(bit << i for i, bit in enumerate(column))
            # x in the first slots alone, then x and y in both slots.
            for held, slots in ((x, [[a, 0] for a in counter(x)]), (list(map(add, x, y)), carry_save(x, y))):
                sweep._carry_save(slots, bits)
                assert counts(sweep._resolved(slots), size) == [a + b for a, b in zip(held, column)]
            assert counts(sweep._add(counter(x), counter(y)), size) == [a + b for a, b in zip(x, y)]
            assert counts(sweep._times(counter(x), c), size) == [c * a for a in x]
            assert sweep._differ(counter(x), counter(y)) == sum(1 << i for i, (a, b) in enumerate(zip(x, y)) if a != b)

    def test_increment_carries_into_a_new_plane(self):
        slots = []
        for _ in range(5):
            sweep._carry_save(slots, 0b101)
        # The third and fifth additions each ran one full adder.
        assert slots == [[0b101, 0], [0b101, 0b101]]
        assert sweep._resolved(slots) == [0b101, 0, 0b101]

    def test_carry_save_with_every_count_different(self):
        # 2000 columns leave every position a different count, so the carries
        # run deep at every bit, as in the sweep.
        rng = random.Random(2000)
        size = 64
        want = rng.sample(range(2001), size)
        columns = [0] * 2000
        for i, count in enumerate(want):
            for j in rng.sample(range(2000), count):
                columns[j] |= 1 << i
        slots = []
        for column in columns:
            sweep._carry_save(slots, column)
        assert len(set(want)) == size
        assert counts(sweep._resolved(slots), size) == want

    def test_carry_save_of_one_column_and_of_none(self):
        slots = []
        sweep._carry_save(slots, 0b1101)
        assert slots == [[0b1101, 0]]
        assert counts(sweep._resolved(slots), 4) == [1, 0, 1, 1]
        # An empty class resolves to the counter with no planes: every count 0.
        assert sweep._resolved([]) == []
        assert counts(sweep._resolved([]), 4) == [0, 0, 0, 0]

    def test_columns_match_byte_class_oracle(self):
        for two_n in range(2, 13, 2):
            tables = sweep.poset_tables(two_n)
            expected = oracles.byte_class_columns(tables.ranks, tables.down_degree, down_covers(tables))
            palindromic, regular = sweep._columns(tables)
            assert (palindromic | regular) >> len(expected) == 0
            got = [(palindromic >> m & 1 == 1, regular >> m & 1 == 1) for m in range(len(expected))]
            assert got == expected, two_n


class TestSurvey:
    def test_rows_follow_enumeration_order(self):
        rows = sweep.theorem_survey(6).rows
        assert [r.word for r in rows] == [str(e) for e in enumerate_fpf(3)]

    def test_verdicts_match_reference_path(self):
        for two_n in (2, 4, 6, 8):
            rows = sweep.theorem_survey(two_n).rows
            for row, pi in zip(rows, enumerate_fpf(two_n // 2)):
                assert row.rank == rank(pi)
                assert row.avoids == avoids_all_bad(pi)
                assert row.palindromic == is_rationally_smooth(pi)
                assert row.regular == is_regular(pi)

    def test_rows_match_dense_oracle(self):
        for two_n in (2, 4, 6, 8, 10):
            rows = sweep.theorem_survey(two_n).rows
            words, ranks, columns = oracles.bitset_survey(two_n)
            assert len(rows) == len(words)
            for row, pi, word, r, (palindromic, regular) in zip(rows, enumerate_fpf(two_n // 2), words, ranks, columns):
                assert pi.word == word
                assert (row.word, row.rank, row.palindromic, row.regular) == (str(pi), r, palindromic, regular)
                assert row.avoids == avoids_all_bad(pi)

    def test_warm_tables_give_the_same_rows(self):
        sweep.poset_tables.cache_clear()
        cold = sweep.theorem_survey(8).rows
        assert sweep.poset_tables.cache_info().currsize == 1
        assert sweep.theorem_survey(8).rows == cold

    def test_smooth_counts(self):
        expected = {2: 1, 4: 3, 6: 14, 8: 68, 10: 320, 12: 1472}
        for two_n, smooth in expected.items():
            survey = sweep.theorem_survey(two_n)
            assert survey.count == len(survey.rows) == fpf_count(two_n // 2)
            assert survey.smooth == sum(row.palindromic for row in survey.rows) == smooth
            assert all(row.consistent for row in survey.rows)
            assert survey.mismatches == ()

    def test_mismatches_are_the_inconsistent_rows(self):
        # Flip seeded bits of the avoids and regular masks: the mismatches
        # are then exactly the inconsistent rows, in word order.
        rng = random.Random(24)
        for two_n in (6, 8, 10):
            survey = sweep.theorem_survey(two_n)
            flips = [sum(1 << m for m in rng.sample(range(survey.count), 5)) for _ in range(2)]
            flipped = sweep.TheoremSurvey(
                survey.tables, survey.avoids ^ flips[0], survey.palindromic, survey.regular ^ flips[1]
            )
            assert flipped.mismatches == tuple(row for row in flipped.rows if not row.consistent)
            assert 5 <= len(flipped.mismatches) <= 10
            assert [row.word for row in flipped.rows] == [str(e) for e in enumerate_fpf(two_n // 2)]


@pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
def test_up_degree_at_least_rank_gap_over_every_pair(two_n):
    # The precondition of the edge-count regularity column: for mu <= pi,
    # mu has at least r(pi) - r(mu) conjugates above it inside L(pi).
    # Degrees come from the cover scan, membership from the oracle order.
    lower = _walk(open_orbit(two_n // 2))
    words = oracles.fpf_words(two_n)
    index = {w: m for m, w in enumerate(words)}
    at = {p: index[_unpack(p, two_n)] for p in lower.words}
    assert len(at) == len(words)
    rank_of = [0] * len(words)
    up = [0] * len(words)  # bit v of up[m]: v is a conjugate above m
    for k, (p, r) in enumerate(zip(lower.words, lower.ranks)):
        rank_of[at[p]] = r
        for v in lower.edges[lower.offsets[k] : lower.offsets[k + 1]]:
            up[at[v]] |= 1 << at[p]
    columns = oracles.leq_columns(words)  # bit m of columns[q]: words[m] <= words[q]
    short = [
        (words[m], words[q])
        for q, column in enumerate(columns)
        for m in oracles.bit_indices(column)
        if (up[m] & column).bit_count() < rank_of[q] - rank_of[m]
    ]
    assert not short, short[:5]
    assert sum(column.bit_count() for column in columns) == {2: 1, 4: 6, 6: 101, 8: 3490, 10: 207_738}[two_n]


@pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
def test_full_sweep_at_fourteen():
    survey = sweep.theorem_survey(14)
    assert survey.count == 135_135
    assert survey.smooth == 6682
    assert survey.avoids == survey.palindromic == survey.regular
    assert survey.mismatches == ()
    # The edge-count regular column rests on d↓ = rank (see the sweep docstring).
    tables = sweep.poset_tables(14)
    assert len(tables.packed) == 135_135
    assert tables.down_degree == tables.ranks


def test_sweep_leaves_no_walk_kept(capsys):
    bruhat._walk.cache_clear()
    sweep.poset_tables.cache_clear()
    sweep.poset_tables(8)
    assert bruhat._walk.cache_info().currsize == 0
    # The walk an analyze query keeps survives a sweep built after it.
    assert cli.main(["analyze", "351624"]) == 0
    info = bruhat._walk.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    sweep.poset_tables.cache_clear()
    sweep.poset_tables(8)
    rank_poly(parse_involution("351624"))
    info = bruhat._walk.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert "maximal singular orbits: 564312" in capsys.readouterr().out


def test_over_cap_degree_refused_before_walk(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the size check must come before the scan")

    monkeypatch.setattr(sweep, "_scan", no_scan)
    currsize = sweep.poset_tables.cache_info().currsize
    with pytest.raises(SizeLimitError, match="2027025 involutions"):
        sweep.poset_tables(16)
    assert sweep.poset_tables.cache_info().currsize == currsize


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
