import os
import subprocess
import sys

import oracles
import pytest

from sporbits import sweep
from sporbits.bruhat import _walk, is_rationally_smooth
from sporbits.graphs import is_regular
from sporbits.involutions import SizeLimitError, _unpack, enumerate_fpf, open_orbit, rank
from sporbits.patterns import avoids_all_bad


def members(tables, lower):
    """Element indices of a lower-set int."""
    return {m for m, bit in enumerate(tables.bits) if lower >> bit & 1}


class TestTables:
    def test_lower_sets_match_pairwise_comparison(self):
        for two_n in (2, 4, 6, 8, 10):
            tables = sweep.poset_tables(two_n)
            words = [el.word for el in tables.elements]
            assert words == oracles.fpf_words(two_n)
            if two_n <= 8:
                expected = {p: {m for m, mu in enumerate(words) if oracles.reverse_below(mu, pi)} for p, pi in enumerate(words)}
            else:
                leq = oracles.dense_leq(words)
                expected = {p: set(leq[:, p].nonzero()[0].tolist()) for p in range(len(words))}
            got = dict(sweep._lower_sets(tables))
            assert got.keys() == expected.keys()
            for p, lower in got.items():
                assert members(tables, lower) == expected[p]

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
            for m, el in enumerate(tables.elements):
                below = oracles.conjugates_below(el.word)
                assert tables.down_degree[m] == len(below)
                covers = {index[v] for v in below if oracles.inversion_rank(v) == tables.ranks[m] - 1}
                assert set(tables.covers[m]) == covers
                assert len(tables.covers[m]) == len(covers)
            words = [el.word for el in tables.elements]
            assert tables.neighbors.nnz == int(oracles.dense_neighbors(words).sum())
        assert sweep.poset_tables(12).neighbors.nnz == 311_850

    def test_down_degree_equals_rank(self):
        # Makes the edge-count regular column a consequence of the
        # palindromic one (see the sweep module docstring).
        for two_n in range(2, 13, 2):
            tables = sweep.poset_tables(two_n)
            assert tables.down_degree == tables.ranks, two_n

    def test_bits_are_rank_major_with_one_byte_span_per_class(self):
        tables = sweep.poset_tables(10)
        end = 0
        for r, runs in enumerate(tables.classes):
            spans = {d: range(8 * lo, 8 * hi) for d, lo, hi in runs}
            assert len(spans) == len(runs) and runs[0][1] >= end
            assert all(a[2] <= b[1] for a, b in zip(runs, runs[1:]))
            for m in tables.levels[r]:
                assert tables.bits[m] in spans[tables.down_degree[m]]
            end = runs[-1][2]
        assert len(set(tables.bits)) == len(tables.bits)


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

    ranks, edges, ends = _walk(open_orbit(two_n // 2), two_n)
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


def test_over_cap_degree_refused_before_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the size check must come before the walk")

    monkeypatch.setattr(sweep, "_walk", no_walk)
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
