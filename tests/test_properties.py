"""Property tests (hypothesis): text and packed forms of an involution, the
order test against prefix dominance, the order symmetry of reverse
complement, the facts the avoider sets rest on, the pattern search against
tabulation, and the flag classifier's invariance under the symplectic
group."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sporbits.geometry import (  # noqa: E402
    classify_flag,
    flag_to_json,
    gram_basis_flag,
    parse_flag_json,
    random_symplectic,
    transform_flag,
)
from sporbits.bruhat import reverse_leq  # noqa: E402
from sporbits.involutions import (  # noqa: E402
    FpfInvolution,
    _letters,
    _pack,
    _unpack,
    delete_pair_standardize,
    parse_involution,
    rank,
    reverse_complement,
)
from sporbits.patterns import (  # noqa: E402
    BAD_PATTERNS,
    avoiders,
    avoids_all_bad,
    bad_pattern_witness,
    includes_pattern,
)

from oracles import conjugate_by, reverse_below, tabulated_witness  # noqa: E402

# Derandomized, so the tier-1 run is reproducible and needs no example
# database; no deadline, because avoids_all_bad at 2n = 16 can run over
# hypothesis's default 200 ms on a loaded machine.
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def paired_off(order):
    """The involution pairing order[0] with order[1], order[2] with order[3], ..."""
    word = [0] * len(order)
    for a, d in zip(order[::2], order[1::2]):
        word[a - 1], word[d - 1] = d, a
    return tuple(word)


@st.composite
def involution_words(draw, min_half, max_half):
    """A fixed-point-free involution: a random permutation of 1..2n, paired off."""
    n = draw(st.integers(min_half, max_half))
    return paired_off(draw(st.permutations(range(1, 2 * n + 1))))


@st.composite
def involution_pairs(draw, min_half, max_half):
    """Two fixed-point-free involutions of one degree."""
    n = draw(st.integers(min_half, max_half))
    letters = st.permutations(range(1, 2 * n + 1))
    return paired_off(draw(letters)), paired_off(draw(letters))


@st.composite
def pairs_down_a_chain(draw, min_half, max_half):
    """(mu, pi) with mu <= pi: mu is reached from pi by conjugations t*w*t,
    t = (a, d) not an arc of w, each with w(a) < w(d), so each goes down."""
    pi = draw(involution_words(min_half, max_half))
    positions = st.integers(1, len(pi))
    mu = pi
    for a, d in draw(st.lists(st.tuples(positions, positions), max_size=8)):
        a, d = min(a, d), max(a, d)
        if a < d and mu[a - 1] != d and mu[a - 1] < mu[d - 1]:
            mu = conjugate_by(mu, a, d)
    return mu, pi


def insert_arc(word, i, j):
    """The word with a new arc at positions i < j and the old letters renumbered."""
    rename = [x for x in range(1, len(word) + 3) if x not in (i, j)]
    new = [0] * (len(word) + 2)
    for p, x in enumerate(word):
        new[rename[p] - 1] = rename[x - 1]
    new[i - 1], new[j - 1] = j, i
    return tuple(new)


@st.composite
def avoiders_with_an_arc_inserted(draw):
    """An avoider of degree 2..14 with one arc inserted: an avoider about a
    third of the time, where a random involution at 2n = 16 rarely is one."""
    two_n = draw(st.sampled_from((2, 4, 6, 8, 10, 12, 14)))
    base = draw(st.sampled_from(sorted(avoiders(two_n))))
    i, j = sorted(draw(st.lists(st.integers(1, two_n + 2), min_size=2, max_size=2, unique=True)))
    return insert_arc(base, i, j)


def test_insert_arc():
    assert insert_arc((2, 1), 1, 4) == (4, 3, 2, 1)
    assert insert_arc((2, 1), 2, 3) == (4, 3, 2, 1)
    assert insert_arc((4, 3, 2, 1), 2, 5) == (6, 5, 4, 3, 2, 1)
    assert insert_arc((2, 1, 4, 3), 1, 3) == (3, 4, 1, 2, 6, 5)


@PROPERTY
@given(involution_words(1, 8))
def test_text_parses_back_in_both_notations(word):
    pi = FpfInvolution(word)
    assert parse_involution(str(pi)) == pi
    assert parse_involution(",".join(map(str, word))) == pi
    if len(word) <= 9:
        assert parse_involution("".join(map(str, word))) == pi


@PROPERTY
@given(involution_pairs(1, 8))
def test_packed_words_unpack_and_sort_as_words(pair):
    u, w = pair
    two_n = len(w)
    assert _unpack(_pack(w), two_n) == w
    assert tuple(_letters(_pack(w), two_n)) == tuple(x - 1 for x in w)
    assert (_pack(u) < _pack(w)) == (u < w)


@PROPERTY
@given(st.one_of(involution_pairs(1, 6), pairs_down_a_chain(1, 6)))
def test_reverse_leq_matches_prefix_dominance(pair):
    mu, pi = pair
    assert reverse_leq(FpfInvolution(mu), FpfInvolution(pi)) == reverse_below(mu, pi)
    assert reverse_leq(FpfInvolution(pi), FpfInvolution(mu)) == reverse_below(pi, mu)


@PROPERTY
@given(involution_pairs(1, 7))
def test_reverse_complement_preserves_rank_and_order(pair):
    mu, pi = map(FpfInvolution, pair)
    flipped_mu, flipped_pi = reverse_complement(mu), reverse_complement(pi)
    assert rank(flipped_pi) == rank(pi)
    assert reverse_leq(flipped_mu, flipped_pi) == reverse_leq(mu, pi)
    assert reverse_leq(flipped_pi, flipped_mu) == reverse_leq(pi, mu)


@PROPERTY
@given(st.one_of(involution_words(2, 8), avoiders_with_an_arc_inserted()))
def test_deleting_an_arc_of_an_avoider_leaves_an_avoider(word):
    pi = FpfInvolution(word)
    if avoids_all_bad(pi):
        for arc in pi.arcs():
            assert avoids_all_bad(delete_pair_standardize(pi, arc)), (word, arc)


@PROPERTY
@given(st.one_of(involution_words(1, 10), avoiders_with_an_arc_inserted()), involution_words(1, 4))
def test_pattern_search_matches_tabulation(word, pattern):
    def found(witness):
        return None if witness is None else (witness.pattern.word, witness.indices)

    host = FpfInvolution(word)
    assert found(bad_pattern_witness(host)) == tabulated_witness(word, [b.word for b in BAD_PATTERNS])
    assert found(includes_pattern(host, FpfInvolution(pattern))) == tabulated_witness(word, [pattern])


@PROPERTY
@given(involution_words(1, 6))
def test_reverse_complement_preserves_avoiders(word):
    found = avoiders(len(word))
    flipped = reverse_complement(FpfInvolution(word)).word
    assert (flipped in found) == (word in found) == avoids_all_bad(FpfInvolution(word))


@PROPERTY
@given(involution_words(1, 6), st.integers(0, 2**31 - 1))
def test_classifier_is_invariant_under_the_symplectic_group(word, seed):
    mu = FpfInvolution(word)
    flag = transform_flag(gram_basis_flag(mu), random_symplectic(mu.n, seed))
    parsed = parse_flag_json(flag_to_json(flag))
    assert parsed.rows == flag.rows
    assert classify_flag(parsed) == mu
