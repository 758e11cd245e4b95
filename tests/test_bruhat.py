import random

import pytest

from sporbits.bruhat import (
    PatternObstruction,
    RankPolynomial,
    bracket_product,
    factor_rank_poly,
    interval,
    is_palindromic,
    is_rationally_smooth,
    rank_poly,
    reverse_leq,
)
from sporbits.involutions import (
    InvolutionError,
    enumerate_fpf,
    parse_involution,
    rank,
    w0,
)

from oracles import dominance_leq, longest_chain_ranks, reverse_below, subword_leq

p = parse_involution


class TestReverseLeq:
    def test_examples(self):
        assert reverse_leq(p("4321"), p("3412"))
        assert reverse_leq(p("3412"), p("2143"))
        assert not reverse_leq(p("2143"), p("4321"))

    def test_reflexive(self):
        for pi in enumerate_fpf(3):
            assert reverse_leq(pi, pi)

    def test_bottom_below_everything(self):
        for n in (1, 2, 3, 4):
            for pi in enumerate_fpf(n):
                assert reverse_leq(w0(n), pi)

    def test_degree_mismatch(self):
        with pytest.raises(InvolutionError, match="degree mismatch"):
            reverse_leq(p("21"), p("2143"))

    def test_matches_subword_oracle_exhaustively(self):
        # reverse_leq(mu, pi) must equal "pi <= mu" in ordinary Bruhat order
        elems = enumerate_fpf(3)
        for mu in elems:
            for pi in elems:
                assert reverse_leq(mu, pi) == subword_leq(pi.word, mu.word)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_prefix_dominance_exhaustively(self, n):
        elems = enumerate_fpf(n)
        for mu in elems:
            for pi in elems:
                assert reverse_leq(mu, pi) == reverse_below(mu.word, pi.word), (str(mu), str(pi))

    def test_disputed_large_pairs_against_subword_oracle(self):
        # the two interval memberships on which the original reference
        # table was wrong (rows 53281764 and 34128765, since corrected);
        # the subword property settles both
        assert subword_leq(p("53281764").word, p("83254761").word)
        assert reverse_leq(p("83254761"), p("53281764"))
        assert not subword_leq(p("34128765").word, p("37154826").word)
        assert not reverse_leq(p("37154826"), p("34128765"))

    def test_dominance_equals_subword_on_s4(self):
        import itertools

        for u in itertools.permutations((1, 2, 3, 4)):
            for w in itertools.permutations((1, 2, 3, 4)):
                assert dominance_leq(u, w) == subword_leq(u, w)

    def test_first_letter_monotone(self):
        for n in (2, 3, 4):
            for mu in enumerate_fpf(n):
                for pi in enumerate_fpf(n):
                    if mu != pi and reverse_leq(mu, pi):
                        assert mu.word[0] >= pi.word[0]


class TestPartialOrderAxioms:
    def test_antisymmetry_and_transitivity_exhaustive(self):
        elems = enumerate_fpf(3)
        leq = {(a, b): reverse_leq(a, b) for a in elems for b in elems}
        for a in elems:
            for b in elems:
                if leq[(a, b)] and leq[(b, a)]:
                    assert a == b
                for c in elems:
                    if leq[(a, b)] and leq[(b, c)]:
                        assert leq[(a, c)]

    def test_transitivity_random_triples(self):
        rng = random.Random(20240811)
        elems = enumerate_fpf(4)
        for _ in range(2000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            if reverse_leq(a, b) and reverse_leq(b, c):
                assert reverse_leq(a, c)

    def test_rank_strictly_monotone(self):
        for n in (2, 3, 4):
            for mu in enumerate_fpf(n):
                for pi in enumerate_fpf(n):
                    if mu != pi and reverse_leq(mu, pi):
                        assert rank(mu) < rank(pi)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_equals_longest_chain_grading(self, n):
        elems = enumerate_fpf(n)
        grades = longest_chain_ranks(elems, reverse_leq)
        for pi in elems:
            assert grades[pi] == rank(pi)


class TestInterval:
    def test_examples(self):
        assert [str(m) for m in interval(p("4321")).members] == ["4321"]
        assert [str(m) for m in interval(p("3412")).members] == ["3412", "4321"]
        assert [str(m) for m in interval(p("2143")).members] == ["2143", "3412", "4321"]

    def test_rank_map(self):
        iv = interval(p("2143"))
        assert {str(m): r for m, r in iv.rank_of.items()} == {
            "4321": 0,
            "3412": 1,
            "2143": 2,
        }


class TestRankPoly:
    def test_examples(self):
        assert rank_poly(p("4321")).coeffs == (1,)
        assert rank_poly(p("2143")).coeffs == (1, 1, 1)
        # brute-force histogram over the 10-element interval below 351624
        assert rank_poly(p("351624")).coeffs == (1, 2, 3, 3, 1)
        assert not is_palindromic(rank_poly(p("351624")))

    def test_palindromic(self):
        assert is_palindromic(RankPolynomial((1,)))
        assert is_palindromic(RankPolynomial((1, 1, 1)))
        assert not is_palindromic(RankPolynomial((1, 2, 1, 1)))
        assert is_palindromic(RankPolynomial((1, 2, 1)))

    def test_smoothness(self):
        assert is_rationally_smooth(p("4321"))
        assert is_rationally_smooth(p("2143"))
        assert not is_rationally_smooth(p("351624"))

    def test_coefficients_sum_to_interval_size(self):
        for pi in enumerate_fpf(3):
            assert sum(rank_poly(pi).coeffs) == len(interval(pi).members)

    def test_validation(self):
        with pytest.raises(ValueError):
            RankPolynomial(())
        with pytest.raises(ValueError):
            RankPolynomial((2, 1))
        with pytest.raises(ValueError):
            RankPolynomial((1, -1, 1))

    def test_pretty(self):
        assert RankPolynomial((1, 1, 1)).pretty() == "1 + q + q^2"
        assert RankPolynomial((1, 2, 1)).pretty() == "1 + 2q + q^2"
        assert RankPolynomial((1,)).pretty() == "1"
        assert RankPolynomial((1, 0, 2, 1)).pretty() == "1 + 2q^2 + q^3"


class TestFactorization:
    def test_examples(self):
        assert factor_rank_poly(p("4321")) == (0, 0)
        assert factor_rank_poly(p("2143")) == (2, 0)
        assert factor_rank_poly(p("3412")) == (1, 0)
        assert factor_rank_poly(p("456123")) == (2, 1, 0)

    def test_bracket_product(self):
        assert bracket_product(()).coeffs == (1,)
        assert bracket_product((2, 0)).coeffs == (1, 1, 1)
        assert bracket_product((2, 1)).coeffs == (1, 2, 2, 1)
        with pytest.raises(ValueError):
            bracket_product((-1,))

    def test_refusal_carries_witness(self):
        with pytest.raises(PatternObstruction) as err:
            factor_rank_poly(p("351624"))
        assert str(err.value.witness.pattern) == "351624"
        with pytest.raises(PatternObstruction):
            factor_rank_poly(p("47513826"))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_factorization_matches_brute_force(self, n):
        from sporbits.patterns import avoids_all_bad

        for pi in enumerate_fpf(n):
            if not avoids_all_bad(pi):
                continue
            exps = factor_rank_poly(pi)
            assert len(exps) == n
            assert sum(exps) == rank(pi)
            assert bracket_product(exps).coeffs == rank_poly(pi).coeffs
            two_n, first, last = pi.degree, pi.word[0], pi.word[-1]
            if two_n - first <= last - 1:
                assert exps[0] == two_n - first
