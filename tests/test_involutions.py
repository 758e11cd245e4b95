import math

import pytest

from sporbits.involutions import (
    FpfInvolution,
    InvolutionError,
    SizeLimitError,
    Transposition,
    all_transpositions,
    conjugate,
    delete_pair_standardize,
    encapsulation_count,
    enumerate_fpf,
    format_involution,
    open_orbit,
    parse_involution,
    rank,
    reverse_complement,
    w0,
)
from sporbits.patterns import BAD_PATTERNS, BOTTOM_VERTEX_TABLE

from oracles import brute_force_fpf

p = parse_involution


def double_factorial(k):
    return math.prod(range(k, 0, -2))


class TestValidation:
    def test_rejects_odd_length(self):
        with pytest.raises(InvolutionError):
            FpfInvolution((2, 1, 3))

    def test_rejects_fixed_point(self):
        with pytest.raises(InvolutionError, match="fixed point at position 3"):
            FpfInvolution((2, 1, 3, 5, 4, 6))

    def test_rejects_non_involution(self):
        with pytest.raises(InvolutionError, match="not an involution"):
            FpfInvolution((2, 3, 4, 1))

    def test_rejects_non_permutation(self):
        with pytest.raises(InvolutionError, match="not a permutation"):
            FpfInvolution((2, 2, 4, 3))

    def test_transposition_needs_increasing_pair(self):
        with pytest.raises(InvolutionError):
            Transposition(3, 3)
        with pytest.raises(InvolutionError):
            Transposition(0, 2)

    def test_arcs(self):
        assert p("351624").arcs() == (
            Transposition(1, 3),
            Transposition(2, 5),
            Transposition(4, 6),
        )


class TestEnumerate:
    def test_degree_two(self):
        assert [str(x) for x in enumerate_fpf(1)] == ["21"]

    def test_degree_four_matches_brute_force(self):
        got = {x.word for x in enumerate_fpf(2)}
        assert got == brute_force_fpf(2) == {(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)}

    def test_degree_up_to_eight_matches_brute_force(self):
        for n in (1, 2, 3, 4):
            got = [x.word for x in enumerate_fpf(n)]
            assert len(got) == len(set(got))
            assert set(got) == brute_force_fpf(n)

    def test_counts_are_double_factorials(self):
        for n in range(1, 6):
            assert len(enumerate_fpf(n)) == double_factorial(2 * n - 1)

    def test_lexicographic_order(self):
        words = [x.word for x in enumerate_fpf(4)]
        assert words == sorted(words)

    def test_size_errors(self):
        with pytest.raises(InvolutionError):
            enumerate_fpf(0)
        with pytest.raises(SizeLimitError):
            enumerate_fpf(8)  # 16 letters > default cap 14


class TestRank:
    def test_examples(self):
        assert rank(p("4321")) == 0
        assert rank(p("351624")) == 4
        assert rank(p("64827153")) == 5
        assert rank(p("2143")) == 2

    def test_all_table_ranks(self):
        # re-derivation of every reference rank from the formula
        for pat in BAD_PATTERNS:
            assert rank(pat) == BOTTOM_VERTEX_TABLE[str(pat)][0], str(pat)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bounds_and_extremes(self, n):
        top = n * n - n
        assert rank(w0(n)) == 0
        assert rank(open_orbit(n)) == top
        for pi in enumerate_fpf(n):
            assert 0 <= rank(pi) <= top


class TestConjugate:
    def test_examples(self):
        assert str(conjugate(p("654321"), Transposition(1, 2))) == "564312"
        assert conjugate(p("2143"), Transposition(1, 2)) == p("2143")
        assert str(conjugate(p("2143"), Transposition(2, 3))) == "3412"

    def test_involutive(self):
        for pi in enumerate_fpf(3):
            for t in all_transpositions(6):
                assert conjugate(conjugate(pi, t), t) == pi

    def test_own_arc_fixes(self):
        for pi in enumerate_fpf(3):
            for t in pi.arcs():
                assert conjugate(pi, t) == pi

    def test_out_of_range(self):
        with pytest.raises(InvolutionError):
            conjugate(p("2143"), Transposition(2, 5))


class TestReverseComplement:
    def test_examples(self):
        assert reverse_complement(p("351624")) == p("351624")
        assert str(reverse_complement(p("63287154"))) == "54821763"
        assert reverse_complement(p("21")) == p("21")

    def test_is_involution_on_the_set(self):
        for pi in enumerate_fpf(4):
            assert reverse_complement(reverse_complement(pi)) == pi

    def test_preserves_rank(self):
        for n in (1, 2, 3, 4):
            for pi in enumerate_fpf(n):
                assert rank(reverse_complement(pi)) == rank(pi)


class TestEncapsulation:
    def test_examples(self):
        assert encapsulation_count(p("4321"), Transposition(2, 3)) == 1
        assert encapsulation_count(p("2143"), Transposition(2, 3)) == 0

    def test_full_span_never_encapsulated(self):
        for pi in enumerate_fpf(3):
            assert encapsulation_count(pi, Transposition(1, 6)) == 0


class TestDeletePair:
    def test_examples(self):
        assert str(delete_pair_standardize(p("361542"), Transposition(1, 3))) == "4321"
        assert str(delete_pair_standardize(p("2143"), Transposition(1, 2))) == "21"
        assert str(delete_pair_standardize(p("351624"), Transposition(2, 5))) == "2143"

    def test_requires_arc(self):
        with pytest.raises(InvolutionError, match="not an arc"):
            delete_pair_standardize(p("2143"), Transposition(1, 3))

    def test_requires_two_arcs(self):
        with pytest.raises(InvolutionError):
            delete_pair_standardize(p("21"), Transposition(1, 2))

    def test_always_valid_result(self):
        # constructor re-validates, so surviving the call is the assertion
        for pi in enumerate_fpf(4):
            for arc in pi.arcs():
                out = delete_pair_standardize(pi, arc)
                assert out.degree == 6


class TestTextForm:
    def test_digits_roundtrip(self):
        for n in (1, 2, 3, 4):
            for pi in enumerate_fpf(n):
                assert parse_involution(format_involution(pi)) == pi

    def test_commas_for_large_degree(self):
        pi = w0(5)
        text = format_involution(pi)
        assert text == "10,9,8,7,6,5,4,3,2,1"
        assert parse_involution(text) == pi

    def test_commas_accepted_for_small_degree(self):
        assert parse_involution("3,5,1,6,2,4") == p("351624")

    def test_parse_errors_carry_position(self):
        with pytest.raises(InvolutionError, match="position 3"):
            parse_involution("21x43a")
        with pytest.raises(InvolutionError, match="entry 2"):
            parse_involution("10,x,1")
        with pytest.raises(InvolutionError):
            parse_involution("")

    def test_str_matches_format(self):
        assert str(p("351624")) == "351624"
        assert Transposition(1, 3).label == "13"
        assert Transposition(9, 12).label == "9,12"
