"""Reverse Bruhat order on fixed-point-free involutions.

The closure order on orbits is the reverse of ordinary Bruhat order: the
reversal w0 = 2n...1 sits at the bottom (the closed orbit) and 2143...
at the top (the open orbit).  Comparison is by prefix dominance: mu <= pi
in reverse order iff for every prefix length i the increasing rearrangement
of pi_1..pi_i is entrywise <= that of mu_1..mu_i.

A lower interval is found by walking down conjugation edges from its top,
so its cost follows the size of the interval, not the (2n-1)!! elements of
the degree.  The walk needs no comparison to choose a direction: for
t = (a, d), a < d, not an arc of w, t*w*t lies strictly below w exactly
when w(a) < w(d) (in ordinary Bruhat order w < wt < t*w*t then), and every
mu < pi is reached from pi by such steps (Richardson-Springer; Hultman).
The walk runs on packed words, 4 bits per letter, so a step is one XOR of
an int and each member's rank follows from its parent's by a count over the
letters between a and d; words of more than 16 letters are refused.
`FpfInvolution` objects are built only for what `interval` returns.  The
last walk is kept, so `rank_poly` and the singular locus of one `analyze`
query share a single walk.  The rank polynomial is the histogram of ranks
over the interval.  For
involutions avoiding the 17 obstruction patterns the same polynomial also
factors into brackets 1 + q + ... + q^t via an independent peeling
recursion, which `factor_rank_poly` implements.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .involutions import (
    DEFAULT_MAX_DEGREE,
    PACKED_MAX_DEGREE,
    FpfInvolution,
    InvolutionError,
    SizeLimitError,
    Transposition,
    _conjugation_masks,
    _letters,
    _pack,
    _unpack,
    delete_pair_standardize,
    rank,
)
from .patterns import PatternWitness, bad_pattern_witness


class PatternObstruction(ValueError):
    """The bracket factorization only applies to obstruction-free involutions."""

    def __init__(self, witness: PatternWitness):
        self.witness = witness
        super().__init__(f"contains bad pattern {witness}")


@dataclass(frozen=True)
class RankPolynomial:
    """Coefficients of a rank generating function, lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if not c or c[0] != 1 or c[-1] != 1 or any(x < 0 for x in c):
            raise ValueError(f"not a valid rank polynomial: {c}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def pretty(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if c == 1 else f"{c}{q}")
        return " + ".join(terms)


@dataclass(frozen=True, eq=False)
class Interval:
    """A lower interval {mu : mu <= top} in reverse order, with ranks attached."""

    top: FpfInvolution
    members: tuple[FpfInvolution, ...]
    rank_of: Mapping[FpfInvolution, int]


@lru_cache(maxsize=1 << 18)
def _sorted_prefixes(word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(word[:i])) for i in range(1, len(word)))


def reverse_leq(mu: FpfInvolution, pi: FpfInvolution) -> bool:
    """True iff mu <= pi in reverse order, i.e. the mu-orbit lies in the closure
    of the pi-orbit.

    >>> from .involutions import parse_involution as p
    >>> reverse_leq(p("4321"), p("3412")), reverse_leq(p("2143"), p("4321"))
    (True, False)
    """
    if mu.degree != pi.degree:
        raise InvolutionError(f"degree mismatch: {mu.degree} vs {pi.degree}")
    if mu.word == pi.word:
        return True
    for pref_pi, pref_mu in zip(_sorted_prefixes(pi.word), _sorted_prefixes(mu.word)):
        for x, y in zip(pref_pi, pref_mu):
            if x > y:
                return False
    return True


def interval(pi: FpfInvolution, max_degree: int = DEFAULT_MAX_DEGREE) -> Interval:
    """All involutions below pi in reverse order, in lexicographic word order.

    >>> from .involutions import parse_involution as p
    >>> [str(mu) for mu in interval(p("3412")).members]
    ['3412', '4321']
    """
    ranks = _walk(pi, max_degree)[0]
    words = sorted(ranks)
    members = tuple(FpfInvolution(_unpack(p, pi.degree)) for p in words)
    return Interval(pi, members, dict(zip(members, map(ranks.__getitem__, words))))


def _walk(pi: FpfInvolution, max_degree: int = DEFAULT_MAX_DEGREE) -> tuple[dict[int, int], array, list[int]]:
    """The lower interval of pi as packed words, walked breadth first.

    Returns each member's rank, in the order the members were walked, and
    the down-edges: the k-th member's conjugates below it are
    ``edges[ends[k - 1]:ends[k]]`` (from 0 for k = 0), so a member's
    conjugates above it inside the interval are its occurrences in
    ``edges``.  Refused up front beyond ``max_degree`` or beyond what a
    packed word holds.  The last walk is kept, so the queries of one
    `analyze` call share it; callers must not modify the result.
    """
    if pi.degree > max_degree:
        raise SizeLimitError(f"degree {pi.degree} exceeds the enumeration cap {max_degree}")
    if pi.degree > PACKED_MAX_DEGREE:
        raise SizeLimitError(f"degree {pi.degree} exceeds {PACKED_MAX_DEGREE}, the most a packed word holds")
    return _walk_from(pi)


@lru_cache(maxsize=1)
def _walk_from(pi: FpfInvolution) -> tuple[dict[int, int], array, list[int]]:
    two_n = pi.degree
    masks = _conjugation_masks(two_n)
    top = _pack(pi.word)
    ranks = {top: rank(pi)}
    order = [top]
    # Flat and unboxed: one container per walk, not one per member, so a
    # kept walk adds nothing for the garbage collector to trace.
    edges = array("Q")
    ends: list[int] = []
    for p in order:  # grows as members are found
        w = _letters(p, two_n)
        r = ranks[p]
        # Each down-conjugate once: from t = (i, j) with i < w(i) = x < w(j) = y.
        for i in range(two_n - 1):
            x = w[i]
            if x < i:
                continue
            masks_ix = masks[i][x]
            for j in range(i + 1, two_n):
                y = w[j]
                if y > x:
                    v = p ^ masks_ix[j][y]
                    edges.append(v)
                    if v not in ranks:
                        # With c = #{i < k < j : x < w(k) < y}, the length
                        # rises by 1 + 2c from w to w*t and by 1 + 2c +
                        # 2[x < j < y] from w*t to t*w*t; the rank, half the
                        # length missing to the reversal, falls by half the sum.
                        ranks[v] = r - 1 - 2 * sum(x < z < y for z in w[i + 1 : j]) - (x < j < y)
                        order.append(v)
        ends.append(len(edges))
    return ranks, edges, ends


def rank_poly(pi: FpfInvolution, max_degree: int = DEFAULT_MAX_DEGREE) -> RankPolynomial:
    """Histogram of ranks over the lower interval of pi."""
    hist = Counter(_walk(pi, max_degree)[0].values())
    return RankPolynomial(tuple(hist[r] for r in range(rank(pi) + 1)))


def is_palindromic(poly: RankPolynomial | Sequence[int]) -> bool:
    """True iff the coefficient sequence reads the same reversed."""
    coeffs = tuple(poly.coeffs if isinstance(poly, RankPolynomial) else poly)
    if not coeffs:
        raise ValueError("empty coefficient sequence")
    return coeffs == coeffs[::-1]


def is_rationally_smooth(pi: FpfInvolution, max_degree: int = DEFAULT_MAX_DEGREE) -> bool:
    """True iff the closure of the pi-orbit is rationally smooth (palindromic test)."""
    return is_palindromic(rank_poly(pi, max_degree))


def factor_rank_poly(pi: FpfInvolution) -> tuple[int, ...]:
    """Bracket exponents (t_1, ..., t_n) with P_pi = prod_i (1 + q + ... + q^{t_i}).

    Peeling step: with 2n letters, if 2n - pi_1 <= pi_2n - 1 (the value 1 is
    at least as close to the right end as 2n is to the left end), emit
    t = 2n - pi_1 and delete the arc (1, pi_1); otherwise emit t = pi_2n - 1
    and delete the arc (pi_2n, 2n).  Refuses involutions containing an
    obstruction pattern, for which no such factorization is guaranteed.

    >>> from .involutions import parse_involution as p
    >>> factor_rank_poly(p("2143"))
    (2, 0)
    """
    witness = bad_pattern_witness(pi)
    if witness is not None:
        raise PatternObstruction(witness)
    exps: list[int] = []
    cur = pi
    while True:
        two_n = cur.degree
        first, last = cur.word[0], cur.word[-1]
        if two_n - first <= last - 1:
            exps.append(two_n - first)
            arc = Transposition(1, first)
        else:
            exps.append(last - 1)
            arc = Transposition(last, two_n)
        if cur.n == 1:
            break
        cur = delete_pair_standardize(cur, arc)
    return tuple(exps)


def bracket_product(exponents: Sequence[int]) -> RankPolynomial:
    """Expand prod_i (1 + q + ... + q^{t_i}) into a coefficient sequence."""
    coeffs = [1]
    for t in exponents:
        if t < 0:
            raise ValueError(f"bracket exponent must be nonnegative, got {t}")
        out = [0] * (len(coeffs) + t)
        for i, c in enumerate(coeffs):
            for k in range(t + 1):
                out[i + k] += c
        coeffs = out
    return RankPolynomial(tuple(coeffs))
