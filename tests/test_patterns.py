import os
import random

import pytest

from sporbits.bruhat import reverse_leq
from sporbits.graphs import local_degree_test
from sporbits.involutions import (
    FpfInvolution,
    InvolutionError,
    SizeLimitError,
    enumerate_fpf,
    open_orbit,
    parse_involution,
    reverse_complement,
    w0,
)
from sporbits.patterns import (
    BAD_PATTERNS,
    PatternWitness,
    avoiders,
    avoids_all_bad,
    bad_pattern_witness,
    includes_pattern,
    irregular_certificate,
    standardize,
)

from oracles import fpf_words, invariant_inclusion_witnesses, tabulated_witness

p = parse_involution


class TestIncludesPattern:
    def test_worked_inclusion(self):
        w = includes_pattern(p("47513826"), p("351624"))
        assert w is not None
        assert w.indices == (1, 2, 4, 6, 7, 8)

    def test_self_inclusion(self):
        for pi in enumerate_fpf(3):
            w = includes_pattern(pi, pi)
            assert w is not None and w.indices == (1, 2, 3, 4, 5, 6)

    def test_crossing_arcs_are_a_3412_occurrence(self):
        # The host 78436512 has the crossing arcs (1,7), (2,8); their union
        # is an invariant index set standardizing to 3412, so inclusion
        # holds even though the classical occurrence 4,6,1,2 (positions
        # 3,5,7,8) is not invariant.
        w = includes_pattern(p("78436512"), p("3412"))
        assert w is not None
        assert w.indices == (1, 2, 7, 8)
        assert invariant_inclusion_witnesses((7, 8, 4, 3, 6, 5, 1, 2), (3, 4, 1, 2)) == [
            (1, 2, 7, 8)
        ]

    def test_worked_non_inclusion_of_351624(self):
        # the non-inclusion used by acceptance criterion 3
        assert includes_pattern(p("78436512"), p("351624")) is None
        assert invariant_inclusion_witnesses((7, 8, 4, 3, 6, 5, 1, 2), (3, 5, 1, 6, 2, 4)) == []

    def test_too_long_pattern(self):
        assert includes_pattern(p("2143"), p("351624")) is None

    def test_every_arc_is_a_21(self):
        for n in (1, 2, 3):
            for pi in enumerate_fpf(n):
                w = includes_pattern(pi, p("21"))
                assert w is not None

    def test_matches_index_subset_oracle(self):
        patterns = [p("21"), p("2143"), p("3412"), p("4321"), p("351624")]
        hosts = list(enumerate_fpf(3)) + list(enumerate_fpf(4))[::7]
        for host in hosts:
            for pat in patterns:
                expected = invariant_inclusion_witnesses(host.word, pat.word)
                got = includes_pattern(host, pat)
                if expected:
                    assert got is not None and got.indices == min(expected)
                else:
                    assert got is None

    def test_transitive_random(self):
        # sample sigma as a restriction of pi and tau as a restriction of
        # sigma, so both inclusions hold by construction; the content is
        # that pi then includes tau directly
        rng = random.Random(811)
        big = list(enumerate_fpf(5))

        def random_restriction(host, m):
            arcs = rng.sample(host.arcs(), m)
            idx = tuple(sorted(x for arc in arcs for x in (arc.a, arc.d)))
            order = {v: r for r, v in enumerate(idx, start=1)}
            return p("".join(str(order[host.word[i - 1]]) for i in idx))

        for _ in range(500):
            pi = rng.choice(big)
            sig = random_restriction(pi, rng.choice((3, 4)))
            tau = random_restriction(sig, 2)
            assert includes_pattern(pi, sig) is not None
            assert includes_pattern(sig, tau) is not None
            assert includes_pattern(pi, tau) is not None


class TestBadPatterns:
    def test_list_shape(self):
        assert len(BAD_PATTERNS) == 17
        assert sum(1 for b in BAD_PATTERNS if b.degree == 6) == 1
        assert sum(1 for b in BAD_PATTERNS if b.degree == 8) == 16

    def test_reverse_complement_structure(self):
        fixed = [str(b) for b in BAD_PATTERNS if reverse_complement(b) == b]
        assert fixed == [
            "351624",
            "64827153",
            "57681324",
            "53281764",
            "43218765",
            "65872143",
            "21654387",
            "21563487",
            "34127856",
        ]
        moved = {str(b): str(reverse_complement(b)) for b in BAD_PATTERNS if reverse_complement(b) != b}
        assert moved == {
            "43217856": "34128765",
            "34128765": "43217856",
            "36154287": "21754836",
            "21754836": "36154287",
            "63287154": "54821763",
            "54821763": "63287154",
            "46513287": "21768435",
            "21768435": "46513287",
        }

    def test_avoids_examples(self):
        assert avoids_all_bad(p("2143"))
        assert not avoids_all_bad(p("351624"))
        assert not avoids_all_bad(p("47513826"))

    def test_witness_determinism(self):
        w = bad_pattern_witness(p("351624"))
        assert (str(w.pattern), w.indices) == ("351624", (1, 2, 3, 4, 5, 6))
        w = bad_pattern_witness(p("47513826"))
        assert (str(w.pattern), w.indices) == ("351624", (1, 2, 4, 6, 7, 8))
        assert bad_pattern_witness(p("2143")) is None

    def test_inclusion_commutes_with_reverse_complement(self):
        for host in enumerate_fpf(4):
            rc_host = reverse_complement(host)
            for b in BAD_PATTERNS:
                if b.degree > host.degree:
                    continue
                lhs = includes_pattern(host, b) is not None
                rhs = includes_pattern(rc_host, reverse_complement(b)) is not None
                assert lhs == rhs, (str(host), str(b))

    def test_short_hosts_avoid_everything_vacuously(self):
        for n in (1, 2):
            for pi in enumerate_fpf(n):
                assert avoids_all_bad(pi)


BAD_WORDS = [b.word for b in BAD_PATTERNS]
# Every obstruction pattern, then an arc and the three two-arc involutions.
SEARCHED = BAD_WORDS + [(2, 1), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]


def random_host(rng, n):
    """Shuffle 1..2n and pair off consecutive letters."""
    letters = list(range(1, 2 * n + 1))
    rng.shuffle(letters)
    word = [0] * (2 * n)
    for a, d in zip(letters[::2], letters[1::2]):
        word[a - 1], word[d - 1] = d, a
    return tuple(word)


def noncrossing_host(rng, n):
    """A random matching without crossings.  It avoids 351624, so the search
    reaches the four-arc patterns at any degree."""
    word = [0] * (2 * n)
    opened, closed, stack = 0, 0, []
    for i in range(1, 2 * n + 1):
        if opened < n and (closed == opened or rng.random() < 0.5):
            stack.append(i)
            opened += 1
        else:
            a = stack.pop()
            word[a - 1], word[i - 1] = i, a
            closed += 1
    return tuple(word)


def found(witness):
    return None if witness is None else (witness.pattern.word, witness.indices)


def assert_search_matches_tabulation(word, each_pattern=True):
    host = FpfInvolution(word)
    assert found(bad_pattern_witness(host)) == tabulated_witness(word, BAD_WORDS), word
    if each_pattern:
        for pat in SEARCHED:
            assert found(includes_pattern(host, FpfInvolution(pat))) == tabulated_witness(word, [pat]), (word, pat)


class TestSearchMatchesTabulation:
    """The pruned search returns what standardizing every union of arcs gives."""

    def test_every_host_to_ten(self):
        for two_n in range(2, 11, 2):
            for word in fpf_words(two_n):
                assert_search_matches_tabulation(word)

    def test_seeded_random_hosts(self):
        rng = random.Random(2107)
        for two_n, count in ((12, 40), (14, 40), (20, 20), (40, 10), (128, 4)):
            for _ in range(count):
                assert_search_matches_tabulation(random_host(rng, two_n // 2), each_pattern=two_n <= 20)
            for _ in range(count if two_n < 128 else 0):
                assert_search_matches_tabulation(noncrossing_host(rng, two_n // 2), each_pattern=two_n <= 20)

    def test_both_ends_avoid_at_the_cap(self):
        assert bad_pattern_witness(open_orbit(64)) is None
        assert bad_pattern_witness(w0(64)) is None

    @pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
    def test_ends_and_noncrossing_hosts_at_the_cap(self):
        # The tabulation of each takes about a second at 2n = 128.
        rng = random.Random(128)
        for word in (open_orbit(64).word, w0(64).word, *(noncrossing_host(rng, 64) for _ in range(3))):
            assert_search_matches_tabulation(word, each_pattern=False)


class TestAvoiders:
    # "Avoiders" count the involutions that avoid all 17 patterns.  They are
    # not an independently verified count of rationally smooth orbit closures.
    AVOIDER_COUNTS = {2: 1, 4: 3, 6: 14, 8: 68, 10: 320, 12: 1472, 14: 6682}

    def test_equal_per_element_filter(self):
        for two_n in range(2, 13, 2):
            expected = {w for w in fpf_words(two_n) if avoids_all_bad(FpfInvolution(w))}
            assert avoiders(two_n) == expected, two_n

    def test_equal_raw_index_subset_filter(self):
        for two_n in (2, 4, 6, 8):
            expected = {
                w
                for w in fpf_words(two_n)
                if not any(invariant_inclusion_witnesses(w, b.word) for b in BAD_PATTERNS)
            }
            assert avoiders(two_n) == expected, two_n

    def test_avoider_counts(self):
        assert {two_n: len(avoiders(two_n)) for two_n in self.AVOIDER_COUNTS} == self.AVOIDER_COUNTS

    @pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
    def test_avoider_count_at_sixteen(self):
        # avoids_all_bad over all 2 027 025 involutions of degree 16 also
        # finds 30 088; that filter takes over ten minutes, so only the count
        # is pinned here.
        assert len(avoiders(16)) == 30_088

    def test_closed_under_reverse_complement(self):
        for two_n in range(2, 13, 2):
            found = avoiders(two_n)
            assert {reverse_complement(FpfInvolution(w)).word for w in found} == found

    def test_degree_checks(self):
        for two_n in (0, 3, -2):
            with pytest.raises(InvolutionError, match="positive even degree"):
                avoiders(two_n)
        with pytest.raises(SizeLimitError, match="exceeds the cap 16"):
            avoiders(18)

    def test_refused_degree_is_not_cached(self):
        avoiders(6)
        currsize = avoiders.cache_info().currsize
        for two_n, error in ((18, SizeLimitError), (0, InvolutionError)):
            with pytest.raises(error):
                avoiders(two_n)
            assert avoiders.cache_info().currsize == currsize, two_n


class TestCertificate:
    def test_full_witness_reverses(self):
        host = p("351624")
        w = includes_pattern(host, host)
        assert str(irregular_certificate(host, w)) == "654321"

    def test_worked_example(self):
        host = p("47513826")
        w = bad_pattern_witness(host)
        cert = irregular_certificate(host, w)
        assert str(cert) == "87563421"
        assert reverse_leq(cert, host)
        assert local_degree_test(cert, host).irregular

    @staticmethod
    def assert_defining_property(n):
        """Every pattern host of degree 2n lies above its certificate, an irregular vertex."""
        for host in enumerate_fpf(n):
            w = bad_pattern_witness(host)
            if w is None:
                continue
            cert = irregular_certificate(host, w)
            assert reverse_leq(cert, host)
            assert local_degree_test(cert, host).irregular

    def test_defining_property_exhaustive(self):
        for n in (3, 4, 5):
            self.assert_defining_property(n)

    @pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
    def test_defining_property_exhaustive_at_twelve(self):
        # All 8923 hosts of degree 12 that include a pattern, in about 3 s.
        self.assert_defining_property(6)

    def test_invalid_witness_rejected(self):
        host = p("2143")
        with pytest.raises(InvolutionError, match="not permuted"):
            irregular_certificate(host, PatternWitness(p("21"), (1, 3)))
        with pytest.raises(InvolutionError, match="do not realize"):
            irregular_certificate(host, PatternWitness(p("2143"), (1, 2)))
        with pytest.raises(InvolutionError, match="even in number"):
            irregular_certificate(host, PatternWitness(p("21"), (1, 2, 3)))
        with pytest.raises(InvolutionError, match=r"^witness indices out of range 1\.\.6: \(0, 1, 2, 3, 4, 5\)$"):
            irregular_certificate(p("214365"), PatternWitness(p("214365"), (0, 1, 2, 3, 4, 5)))


def test_standardize():
    assert standardize((4, 7, 1, 8, 2, 6)) == (3, 5, 1, 6, 2, 4)
    assert standardize((7, 8, 1, 2)) == (3, 4, 1, 2)
