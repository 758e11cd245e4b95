import numpy as np
import pytest

from sporbits import sweep
from sporbits.bruhat import is_rationally_smooth, reverse_leq
from sporbits.graphs import is_regular
from sporbits.involutions import SizeLimitError, all_transpositions, conjugate, enumerate_fpf, rank
from sporbits.patterns import avoids_all_bad


class TestTables:
    def test_leq_matrix_matches_pairwise_comparison(self):
        for two_n in (4, 6, 8):
            tables = sweep.poset_tables(two_n)
            elems = tables.elements
            for m, mu in enumerate(elems):
                for q, pi in enumerate(elems):
                    assert bool(tables.leq[m, q]) == reverse_leq(mu, pi)

    def test_ranks_match(self):
        tables = sweep.poset_tables(8)
        for m, el in enumerate(tables.elements):
            assert tables.ranks[m] == rank(el)

    def test_neighbors_match_direct_conjugation(self):
        tables = sweep.poset_tables(6)
        nb = tables.neighbors.toarray()
        for m, el in enumerate(tables.elements):
            direct = {
                tables.index[conjugate(el, t).word]
                for t in all_transpositions(6)
                if conjugate(el, t) != el
            }
            assert set(np.flatnonzero(nb[m])) == direct


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

    def test_worker_count_does_not_change_rows(self):
        # degree 8 splits into several chunks, so workers=2 really runs the pool
        serial = sweep.theorem_survey(8, workers=1)
        parallel = sweep.theorem_survey(8, workers=2)
        assert serial == parallel


def test_dense_tables_over_budget_refused_before_enumeration(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the budget check must come before enumeration")

    monkeypatch.setattr(sweep, "enumerate_fpf", no_enumeration)
    with pytest.raises(SizeLimitError, match="18.3 GB"):
        sweep.poset_tables(14)
    assert 14 not in sweep._TABLES
