import random

import pytest

from sporbits.bruhat import is_rationally_smooth, reverse_leq
from sporbits.graphs import (
    bottom_edge_labels,
    build_graph,
    dot_lines,
    graph_to_json,
    is_regular,
    lemma_check,
    local_degree_test,
    rationally_singular_locus,
    vertex_degree,
)
from sporbits.involutions import (
    InvolutionError,
    Transposition,
    conjugate,
    enumerate_fpf,
    parse_involution,
    w0,
)
from sporbits.patterns import BAD_PATTERNS, BOTTOM_VERTEX_TABLE

from oracles import graph_regular

p = parse_involution


def to_dot(g):
    return "".join(line + "\n" for line in dot_lines(g))


class TestBuildGraph:
    def test_point_graph(self):
        g = build_graph(p("4321"), p("4321"))
        assert g.vertices == (p("4321"),)
        assert g.edge_count == 0
        assert vertex_degree(g, p("4321")) == 0

    def test_full_degree_four_graph_is_a_triangle(self):
        g = build_graph(p("4321"), p("2143"))
        assert len(g.vertices) == 3
        assert g.edge_count == 3
        for v in g.vertices:
            assert vertex_degree(g, v) == 2

    def test_bottom_degree_for_351624(self):
        g = build_graph(p("654321"), p("351624"))
        assert vertex_degree(g, p("654321")) == 5

    def test_bottom_degree_for_21654387(self):
        g = build_graph(p("87654321"), p("21654387"))
        assert vertex_degree(g, p("87654321")) == 12

    def test_unknown_vertex(self):
        g = build_graph(p("4321"), p("4321"))
        with pytest.raises(InvolutionError, match="not a vertex"):
            vertex_degree(g, p("2143"))

    def test_incomparable_bounds(self):
        with pytest.raises(InvolutionError, match="not below"):
            build_graph(p("2143"), p("4321"))

    def test_edge_symmetry_and_involutive_labels(self):
        g = build_graph(w0(3), p("351624"))
        for u in g.vertices:
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]
        for (u, v), labels in g.edge_labels.items():
            for t in labels:
                assert conjugate(u, t) == v
                assert conjugate(v, t) == u


class TestBottomEdgeLabels:
    def test_examples(self):
        assert tuple(t.label for t in bottom_edge_labels(p("351624"))) == (
            "12", "13", "14", "23", "24",
        )
        assert tuple(t.label for t in bottom_edge_labels(p("65872143"))) == (
            "12", "13", "23", "24", "34",
        )
        assert bottom_edge_labels(p("4321")) == ()

    def test_all_reference_rows(self):
        for pat in BAD_PATTERNS:
            got = tuple(t.label for t in bottom_edge_labels(pat))
            assert got == BOTTOM_VERTEX_TABLE[str(pat)][1], str(pat)

    def test_one_label_per_neighbor(self):
        for pat in BAD_PATTERNS:
            g = build_graph(w0(pat.n), pat)
            assert len(bottom_edge_labels(pat)) == vertex_degree(g, w0(pat.n))


class TestRegularity:
    def test_examples(self):
        assert is_regular(p("4321"))
        assert is_regular(p("2143"))
        assert not is_regular(p("351624"))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equivalent_to_palindromic(self, n):
        for pi in enumerate_fpf(n):
            assert is_regular(pi) == is_rationally_smooth(pi)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_graph_oracle(self, n):
        for pi in enumerate_fpf(n):
            assert is_regular(pi) == graph_regular(pi.word), str(pi)


class TestLocalDegree:
    def test_self_pair(self):
        rep = local_degree_test(p("2143"), p("2143"))
        assert (rep.degree, rep.rank_gap, rep.irregular) == (0, 0, False)

    def test_table_row_one(self):
        rep = local_degree_test(p("654321"), p("351624"))
        assert (rep.degree, rep.rank_gap, rep.irregular) == (5, 4, True)

    def test_table_row_65872143(self):
        rep = local_degree_test(p("87654321"), p("65872143"))
        assert (rep.degree, rep.rank_gap, rep.irregular) == (5, 4, True)

    def test_rejects_incomparable(self):
        with pytest.raises(InvolutionError):
            local_degree_test(p("2143"), p("4321"))

    @pytest.mark.parametrize("n", [2, 3])
    def test_degree_lower_bound(self, n):
        for pi in enumerate_fpf(n):
            for mu in enumerate_fpf(n):
                if reverse_leq(mu, pi):
                    rep = local_degree_test(mu, pi)
                    assert rep.degree >= rep.rank_gap


class TestSingularLocus:
    def test_smooth_orbits_have_empty_locus(self):
        assert rationally_singular_locus(p("2143")).members == ()
        assert rationally_singular_locus(p("4321")).members == ()

    def test_351624(self):
        locus = rationally_singular_locus(p("351624"))
        assert [str(m) for m in locus.members] == ["564312", "654321"]
        assert [str(m) for m in locus.maximal] == ["564312"]
        assert p("654321") in locus.members

    def test_maximal_are_members_and_maximal(self):
        locus = rationally_singular_locus(p("64827153"))
        members = set(locus.members)
        for m in locus.maximal:
            assert m in members
            assert not any(x != m and reverse_leq(m, x) for x in members)


class TestLemma:
    def test_trivial_pair(self):
        rep = lemma_check(p("2143"), p("2143"), Transposition(1, 2))
        assert rep.rank_identity and rep.propagation

    def test_shared_arc_example(self):
        rep = lemma_check(p("654321"), p("351624"), Transposition(2, 5))
        assert rep.rank_identity and rep.propagation

    def test_requires_shared_arc(self):
        with pytest.raises(InvolutionError, match="arc of both"):
            lemma_check(p("654321"), p("351624"), Transposition(1, 6))

    def test_requires_comparable(self):
        # (1,2) is an arc of both, but 214365 sits strictly above 216543
        with pytest.raises(InvolutionError, match="not below"):
            lemma_check(p("214365"), p("216543"), Transposition(1, 2))

    def test_requires_two_arcs(self):
        with pytest.raises(InvolutionError, match="^deletion needs at least two arcs$"):
            lemma_check(p("21"), p("21"), Transposition(1, 2))


class TestExports:
    def test_dot_structure(self):
        g = build_graph(w0(3), p("351624"))
        dot = to_dot(g)
        assert dot.startswith("graph interval {")
        assert 'top="351624"' in dot and 'bottom="654321"' in dot
        assert "regular=false" in dot
        assert '"654321" [label="654321\\nr=0"];' in dot
        assert dot.count(" -- ") == g.edge_count

    def test_json_structure(self):
        g = build_graph(w0(2), p("2143"))
        data = graph_to_json(g)
        assert data["schema"] == "sporbits.graph/1"
        assert data["top"] == "2143" and data["bottom"] == "4321"
        assert data["rank_gap"] == 2 and data["regular"] is True
        assert len(data["vertices"]) == 3 and len(data["edges"]) == 3
        labels = {frozenset((e["u"], e["v"])): e["labels"] for e in data["edges"]}
        assert labels[frozenset(("2143", "4321"))] == ["13", "24"]

    def test_determinism(self):
        g1 = to_dot(build_graph(w0(3), p("456123")))
        g2 = to_dot(build_graph(w0(3), p("456123")))
        assert g1 == g2


def test_random_lemma_cases_degree_eight():
    rng = random.Random(99)
    elems = enumerate_fpf(4)
    done = 0
    attempts = 0
    while done < 120 and attempts < 50000:
        attempts += 1
        mu, pi = rng.choice(elems), rng.choice(elems)
        if not reverse_leq(mu, pi):
            continue
        shared = [t for t in mu.arcs() if pi.has_arc(t)]
        if not shared:
            continue
        rep = lemma_check(mu, pi, rng.choice(shared))
        assert rep.rank_identity and rep.propagation
        done += 1
    assert done == 120
