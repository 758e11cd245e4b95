"""Reverse Bruhat order on fixed-point-free involutions.

The closure order on orbits is the reverse of ordinary Bruhat order: the
reversal w0 = 2n...1 sits at the bottom (the closed orbit) and 2143...
at the top (the open orbit).  Comparison is by corner counts, the
rank-matrix form of Bruhat order (Bjorner-Brenti, 2.1): with
c_w(i, j) = #{k <= i : w(k) <= j}, mu <= pi in reverse order iff
c_pi(i, j) >= c_mu(i, j) at every corner (i, j).

Every lower set {mu : mu <= pi} comes from one engine, `_scan`, a breadth
first scan from pi down its covers only.  The order is graded and every
cover is a conjugation t*w*t (Richardson-Springer; Hultman), so the scan
reaches every member, level by level in descending rank, and gives each
new member the rank of its finder less one.  No comparison picks a
direction: for t = (a, d), a < d, not an arc of w, t*w*t lies strictly
below w exactly when w(a) < w(d) (in ordinary Bruhat order w < wt < t*w*t
then).  On 0-based letters each conjugate below w comes once, from
t = (i, j) with i < x = w(i), i < j and y = w(j) > x.  With
c = #{i < k < j : x < w(k) < y}, the length rises by 1 + 2c from w to w*t
and by 1 + 2c + 2[x < j < y] from w*t to t*w*t, so the rank, half the
length missing to the reversal, falls by 1 + 2c + [x < j < y].  The scan
runs over the values y = x+1, x+2, ... at their positions j = w(y), and
`lowest` keeps the least position w(z) > i over x < z < y: if lowest < j
it is a k between i and j with x < w(k) < y, and if some k is, then
lowest <= k < j.  So c = 0 exactly when j < lowest, and (i, j) gives a
cover exactly when i < j < lowest and not x < j < y.  Every conjugate
below is recorded as a down-edge too, for d↓ and the up-degrees inside
the lower set.

The scan runs on packed words, 4 bits per letter, so a step is one XOR of
an int; `check_degree` keeps every scan to a degree a packed word holds.
`FpfInvolution` objects are built only where the Python API hands them
out, on first read: `Interval.members` and `rank_of`, and the involution
fields of `graphs.SingularLocus` and `graphs.BruhatGraph`.  The CLI never
reads those: it prints the packed words of an interval, a locus or a graph
with `involutions._text`.
`_walk` keeps the last lower set, so one `analyze` query scans once; the
sweep of `sweep` scans the open orbit and keeps nothing here.
The rank polynomial is the histogram of ranks over the interval.  For
involutions avoiding the 17 obstruction patterns the same polynomial also
factors into brackets 1 + q + ... + q^t via an independent peeling
recursion, which `factor_rank_poly` implements.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple, Sequence

from .involutions import (
    FpfInvolution,
    InvolutionError,
    _conjugation_masks,
    _delete_arc,
    _involutions,
    _letters,
    _pack,
    check_degree,
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

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def pretty(self) -> str:
        terms = ["1"]  # __post_init__ refuses a constant term other than 1
        for i, c in enumerate(self.coeffs[1:], 1):
            if c == 0:
                continue
            q = "q" if i == 1 else f"q^{i}"
            terms.append(q if c == 1 else f"{c}{q}")
        return " + ".join(terms)


@dataclass(frozen=True, eq=False)
class Interval:
    """A lower interval {mu : mu <= pi} in reverse order, with ranks attached.

    `words` (packed as in `involutions._pack`) and `ranks` are in
    lexicographic word order; `members` and `rank_of` are built from them
    on first read."""

    two_n: int
    words: tuple[int, ...]
    ranks: tuple[int, ...]

    @cached_property
    def members(self) -> tuple[FpfInvolution, ...]:
        return _involutions(self.words, self.two_n)

    @cached_property
    def rank_of(self) -> Mapping[FpfInvolution, int]:
        return dict(zip(self.members, self.ranks))


def reverse_leq(mu: FpfInvolution, pi: FpfInvolution) -> bool:
    """True iff mu <= pi in reverse order, i.e. the mu-orbit lies in the closure
    of the pi-orbit.

    One prefix walk in O(n) memory: d[j] = c_pi(i, j) - c_mu(i, j) gains 1 on
    [pi(i), mu(i)) or loses 1 on [mu(i), pi(i)) at step i, and must stay >= 0.

    >>> from .involutions import parse_involution as p
    >>> reverse_leq(p("4321"), p("3412")), reverse_leq(p("2143"), p("4321"))
    (True, False)
    """
    if mu.degree != pi.degree:
        raise InvolutionError(f"degree mismatch: {mu.degree} vs {pi.degree}")
    d = [0] * (pi.degree + 1)
    for a, b in zip(pi.word, mu.word):
        if a < b:
            d[a:b] = [x + 1 for x in d[a:b]]
        elif 0 in d[b:a]:
            return False
        else:
            d[b:a] = [x - 1 for x in d[b:a]]
    return True


def interval(pi: FpfInvolution) -> Interval:
    """All involutions below pi in reverse order, in lexicographic word order.

    >>> from .involutions import parse_involution as p
    >>> [str(mu) for mu in interval(p("3412")).members]
    ['3412', '4321']
    """
    lower = _walk(pi)
    # Packed words compare as the words do, so sorting them is lexicographic.
    words, ranks = zip(*sorted(zip(lower.words, lower.ranks)))
    return Interval(pi.degree, words, ranks)


class LowerSet(NamedTuple):
    """A lower set in scan order (descending rank), its top first."""

    words: list[int]  # packed as in `involutions._pack`
    ranks: list[int]
    above: list[list[int]]  # scan indices of each member's upper covers
    # Member k's down-conjugates are edges[offsets[k]:offsets[k + 1]], with
    # offsets[0] = 0; its conjugates above it are its occurrences in edges.
    edges: array
    offsets: list[int]


def _scan(pi: FpfInvolution) -> LowerSet:
    """The lower set of pi, scanned down its covers as the module docstring sets out."""
    two_n = pi.degree
    masks = _conjugation_masks(two_n)
    words = [_pack(pi.word)]
    ranks = [rank(pi)]
    above: list[list[int]] = [[]]
    index = {words[0]: 0}
    edges = array("Q")
    offsets = [0]
    record, find = edges.append, index.get
    for k, p in enumerate(words):  # grows as members are found
        w = _letters(p, two_n)
        below = ranks[k] - 1
        for i, x in enumerate(w):
            if x < i:
                continue
            masks_ix = masks[i][x]
            lowest = two_n  # the least w(z) > i over x < z < y, or two_n
            y = x
            for j in w[x + 1 :]:  # j = w(y) for y = x+1, x+2, ...
                y += 1
                if j > i:
                    v = p ^ masks_ix[j][y]
                    record(v)
                    if j < lowest:
                        lowest = j
                        if not x < j < y:
                            m = find(v)
                            if m is None:
                                index[v] = len(words)
                                words.append(v)
                                ranks.append(below)
                                above.append([k])
                            else:
                                above[m].append(k)
        offsets.append(len(edges))
    return LowerSet(words, ranks, above, edges, offsets)


@lru_cache(maxsize=1)
def _walk(pi: FpfInvolution) -> LowerSet:
    """The lower set of pi, refused up front beyond the degree cap.  The last
    one is kept for the next query; callers must not modify it."""
    check_degree(pi.degree)
    return _scan(pi)


def rank_poly(pi: FpfInvolution) -> RankPolynomial:
    """Histogram of ranks over the lower interval of pi."""
    ranks = _walk(pi).ranks
    hist = Counter(ranks)
    return RankPolynomial(tuple(hist[r] for r in range(ranks[0] + 1)))


def is_palindromic(poly: RankPolynomial) -> bool:
    """True iff the coefficient sequence reads the same reversed."""
    return poly.coeffs == poly.coeffs[::-1]


def is_rationally_smooth(pi: FpfInvolution) -> bool:
    """True iff the closure of the pi-orbit is rationally smooth (palindromic test)."""
    return is_palindromic(rank_poly(pi))


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
    w = pi.word
    while True:
        two_n, first, last = len(w), w[0], w[-1]
        if two_n - first <= last - 1:
            exps.append(two_n - first)
            a, d = 1, first
        else:
            exps.append(last - 1)
            a, d = last, two_n
        if two_n == 2:
            return tuple(exps)
        w = _delete_arc(w, a, d)


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
