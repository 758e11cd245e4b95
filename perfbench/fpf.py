"""The benchmark's own involution arithmetic.

Inputs are generated and outputs checked with this module, which shares no
code with the package under test, so a defect in the package cannot hide
itself.  Words are tuples of 1-based values in one-line notation.
"""

from __future__ import annotations

import random

Word = tuple[int, ...]

# Smooth (pattern-avoiding) involution counts per degree 2n, from the paper.
SMOOTH_COUNTS = {2: 1, 4: 3, 6: 14, 8: 68, 10: 320, 12: 1472}

# Three of the 17 obstruction patterns; containing any one of them makes an
# orbit closure rationally singular.
OBSTRUCTIONS: tuple[Word, ...] = (
    (3, 5, 1, 6, 2, 4),
    (6, 4, 8, 2, 7, 1, 5, 3),
    (4, 3, 2, 1, 8, 7, 6, 5),
)


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def fmt(word: Word) -> str:
    """Text form: plain digits up to nine letters, comma-separated beyond."""
    return "".join(map(str, word)) if len(word) <= 9 else ",".join(map(str, word))


def reversal(two_n: int) -> Word:
    return tuple(range(two_n, 0, -1))


def top(two_n: int) -> Word:
    """2143...(2n)(2n-1), whose lower interval is the whole poset."""
    return tuple(k + 1 if k % 2 else k - 1 for k in range(1, two_n + 1))


def rank(word: Word) -> int:
    """n^2 minus, over arcs i < w(i), the arc length less the arcs' left ends it jumps."""
    n = len(word) // 2
    total = 0
    for i in range(1, len(word) + 1):
        v = word[i - 1]
        if v > i:
            total += v - i - sum(1 for k in range(i + 1, v) if word[k - 1] < i)
    return n * n - total


def conjugate(word: Word, a: int, d: int) -> Word:
    swap = {a: d, d: a}
    w = list(word)
    w[a - 1], w[d - 1] = w[d - 1], w[a - 1]
    return tuple(swap.get(v, v) for v in w)


def low_rank(two_n: int, max_rank: int) -> list[Word]:
    """Every involution of rank 1..max_rank, found by conjugating upward from the reversal.

    Each element has a saturated chain of conjugations down to the reversal,
    so a search that never leaves ranks <= max_rank reaches all of them.
    """
    start = reversal(two_n)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for a in range(1, two_n):
                for d in range(a + 1, two_n + 1):
                    u = conjugate(w, a, d)
                    if u not in seen and rank(u) <= max_rank:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    return sorted(w for w in seen if rank(w) >= 1)


def random_matching(rng: random.Random, positions: list[int], word: list[int]) -> None:
    """Pair the given positions at random, writing the arcs into word (1-based)."""
    pos = positions[:]
    rng.shuffle(pos)
    for a, d in zip(pos[::2], pos[1::2]):
        word[a - 1], word[d - 1] = d, a


def random_fpf(rng: random.Random, two_n: int) -> Word:
    word = [0] * two_n
    random_matching(rng, list(range(1, two_n + 1)), word)
    return tuple(word)


def with_obstruction(rng: random.Random, two_n: int) -> Word:
    """A random involution that contains an obstruction pattern by construction.

    The pattern is laid on a random position set that the result permutes, so
    the restriction to that set standardizes to the pattern.
    """
    pattern = rng.choice([p for p in OBSTRUCTIONS if len(p) <= two_n])
    spots = sorted(rng.sample(range(1, two_n + 1), len(pattern)))
    word = [0] * two_n
    for j, pos in enumerate(spots):
        word[pos - 1] = spots[pattern[j] - 1]
    random_matching(rng, [p for p in range(1, two_n + 1) if p not in spots], word)
    return tuple(word)
