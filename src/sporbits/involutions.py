"""Fixed-point-free involutions of {1, ..., 2n} in one-line notation.

Conventions used throughout the package:

- Positions and values are 1-based at every API boundary; the underlying
  ``word`` tuple is 0-indexed, so ``word[i - 1] == pi(i)``.
- The arcs of an involution are the pairs (i, pi(i)) with i < pi(i); they
  partition {1, ..., 2n} into n blocks of size two.
- Text form is plain digits for 2n <= 9 ("351624") and comma-separated
  integers otherwise ("10,2,1,...").  ``parse_involution`` accepts both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# The largest degree any walk, enumeration or sweep covers: 135 135
# involutions.  A fresh `verify-theorem --degree 14` takes about 8 s and
# 290 MB (2 cores, Python 3.11): the cover scan about 2 s and 85 MB, the
# survey's up-sets and counters the rest.  2n = 16 has 2 027 025.
DEFAULT_MAX_DEGREE = 14


class InvolutionError(ValueError):
    """Malformed involution data, or arguments outside an operation's domain."""


class SizeLimitError(RuntimeError):
    """A requested degree exceeds its cap; refused before any work."""


@dataclass(frozen=True, order=True)
class Transposition:
    """A position pair (a, d) with a < d, flipping the a-th and d-th coordinates."""

    a: int
    d: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, int) and isinstance(self.d, int) and 1 <= self.a < self.d):
            raise InvolutionError(f"transposition needs integers 1 <= a < d, got ({self.a}, {self.d})")

    def apply(self, x: int) -> int:
        if x == self.a:
            return self.d
        if x == self.d:
            return self.a
        return x

    @property
    def label(self) -> str:
        """Compact edge label: "ad" while both endpoints are single digits, else "a,d"."""
        if self.d <= 9:
            return f"{self.a}{self.d}"
        return f"{self.a},{self.d}"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True, order=True)
class FpfInvolution:
    """A fixed-point-free involution of {1, ..., 2n}, validated on construction.

    >>> FpfInvolution((2, 1, 4, 3)).arcs()
    (Transposition(a=1, d=2), Transposition(a=3, d=4))
    >>> FpfInvolution((2, 3, 1))
    Traceback (most recent call last):
    ...
    sporbits.involutions.InvolutionError: word length must be a positive even number, got 3
    """

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        w = tuple(self.word)
        object.__setattr__(self, "word", w)
        m = len(w)
        if m == 0 or m % 2:
            raise InvolutionError(f"word length must be a positive even number, got {m}")
        if set(w) != set(range(1, m + 1)):
            raise InvolutionError(f"word is not a permutation of 1..{m}: {w}")
        for i, v in enumerate(w, start=1):
            if v == i:
                raise InvolutionError(f"fixed point at position {i}")
            if w[v - 1] != i:
                raise InvolutionError(f"not an involution: position {i} maps to {v} but {v} maps to {w[v - 1]}")

    @property
    def n(self) -> int:
        return len(self.word) // 2

    @property
    def degree(self) -> int:
        """The number of letters, 2n."""
        return len(self.word)

    def apply(self, i: int) -> int:
        """pi(i), with 1-based i."""
        if not 1 <= i <= len(self.word):
            raise InvolutionError(f"position {i} out of range 1..{len(self.word)}")
        return self.word[i - 1]

    def arcs(self) -> tuple[Transposition, ...]:
        """The n arcs (i, pi(i)) with i < pi(i), ordered by left endpoint."""
        return tuple(Transposition(i, v) for i, v in enumerate(self.word, start=1) if i < v)

    def has_arc(self, t: Transposition) -> bool:
        return self.word[t.a - 1] == t.d

    def __str__(self) -> str:
        return format_involution(self)


def w0(n: int) -> FpfInvolution:
    """The reversal 2n...1: bottom of the reverse order (the closed orbit).

    >>> str(w0(3))
    '654321'
    """
    return FpfInvolution(tuple(range(2 * n, 0, -1)))


def open_orbit(n: int) -> FpfInvolution:
    """2143...(2n)(2n-1): top of the reverse order (the dense open orbit)."""
    word: list[int] = []
    for k in range(1, 2 * n, 2):
        word += [k + 1, k]
    return FpfInvolution(tuple(word))


def all_transpositions(two_n: int) -> tuple[Transposition, ...]:
    """All C(2n, 2) transpositions of {1, ..., 2n} in lexicographic order."""
    return tuple(Transposition(a, d) for a in range(1, two_n) for d in range(a + 1, two_n + 1))


def check_degree(two_n: int, cap: int = DEFAULT_MAX_DEGREE, what: str = "degree") -> None:
    """Refuse, before any work, a degree that is not positive and even or exceeds cap.

    >>> check_degree(16)
    Traceback (most recent call last):
    ...
    sporbits.involutions.SizeLimitError: degree 16 (2027025 involutions) exceeds the cap 14
    """
    if two_n < 2 or two_n % 2:
        raise InvolutionError(f"{what} must be a positive even degree, got {two_n}")
    if two_n > cap:
        hint = " (raise it with --max-degree-override)" if cap < DEFAULT_MAX_DEGREE else ""
        raise SizeLimitError(f"{what} {two_n} ({fpf_count(two_n // 2)} involutions) exceeds the cap {cap}{hint}")


def enumerate_fpf(n: int) -> tuple[FpfInvolution, ...]:
    """All fixed-point-free involutions of {1, ..., 2n}, lexicographic on words.

    The count is (2n-1)!! which grows fast; degrees beyond
    ``DEFAULT_MAX_DEGREE`` are refused.

    >>> [str(p) for p in enumerate_fpf(2)]
    ['2143', '3412', '4321']
    """
    check_degree(2 * n)
    return _enumerate_cached(n)


def fpf_count(n: int) -> int:
    """(2n-1)!!, the number of fixed-point-free involutions of {1, ..., 2n}.

    >>> fpf_count(7)
    135135
    """
    count = 1
    for k in range(3, 2 * n, 2):
        count *= k
    return count


@lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> tuple[FpfInvolution, ...]:
    words: list[tuple[int, ...]] = []
    word = [0] * (2 * n)

    def fill(free: list[int]) -> None:
        if not free:
            words.append(tuple(word))
            return
        a = free[0]
        for k in range(1, len(free)):
            d = free[k]
            word[a - 1], word[d - 1] = d, a
            fill(free[1:k] + free[k + 1 :])

    fill(list(range(1, 2 * n + 1)))
    words.sort()
    return tuple(FpfInvolution(w) for w in words)


@lru_cache(maxsize=1 << 18)
def rank(pi: FpfInvolution) -> int:
    """Poset rank of pi: the dimension of its orbit above the closed orbit.

    r(pi) = n^2 - sum over arcs (i, pi(i)) of
    (pi(i) - i - #{k : i < k < pi(i), pi(k) < i}).

    >>> rank(FpfInvolution((4, 3, 2, 1)))
    0
    >>> rank(FpfInvolution((3, 5, 1, 6, 2, 4)))
    4
    """
    w = pi.word
    total = 0
    for i, v in enumerate(w, start=1):
        if v > i:
            inner = sum(1 for k in range(i, v - 1) if w[k] < i)
            total += v - i - inner
    return pi.n * pi.n - total


def conjugate(pi: FpfInvolution, t: Transposition) -> FpfInvolution:
    """t * pi * t: swap two coordinates and simultaneously relabel the two values.

    The result is fixed-point-free again; it equals pi exactly when t is an
    arc of pi or t commutes with pi.
    """
    if t.d > pi.degree:
        raise InvolutionError(f"transposition {t} out of range for degree {pi.degree}")
    return FpfInvolution(_conjugate_word(pi.word, t.a, t.d))


def _conjugate_word(word: tuple[int, ...], a: int, d: int) -> tuple[int, ...]:
    # Unless (a, d) is an arc, x = w(a) and y = w(d) lie outside {a, d}, so
    # only the positions a, d, x and y change: a <-> d swaps the entries at
    # a and d and relabels the values a (at x) and d (at y).
    x, y = word[a - 1], word[d - 1]
    if x == d:
        return word
    w = list(word)
    w[a - 1], w[d - 1], w[x - 1], w[y - 1] = y, x, d, a
    return tuple(w)


# Packed words: letter k of a word (0-based) is the nibble at bit 4*(2n-1-k)
# and holds w(k+1) - 1, so comparing the ints compares the words
# lexicographically.  Four bits per letter hold at most 16 letters.
PACKED_MAX_DEGREE = 16
if DEFAULT_MAX_DEGREE > PACKED_MAX_DEGREE:
    raise ImportError(f"degree cap {DEFAULT_MAX_DEGREE} exceeds {PACKED_MAX_DEGREE}, the most a packed word holds")
_NIBBLES = b"0123456789abcdef"
_ZERO_BASED = bytes.maketrans(_NIBBLES, bytes(range(16)))
_ONE_BASED = bytes.maketrans(_NIBBLES, bytes(range(1, 17)))


def _pack(word: tuple[int, ...]) -> int:
    p = 0
    for v in word:
        p = p << 4 | (v - 1)
    return p


def _letters(p: int, two_n: int) -> bytes:
    """The 0-based values of a packed word, one byte per position."""
    return format(p, f"0{two_n}x").encode().translate(_ZERO_BASED)


def _unpack(p: int, two_n: int) -> tuple[int, ...]:
    return tuple(format(p, f"0{two_n}x").encode().translate(_ONE_BASED))


@lru_cache(maxsize=None)
def _conjugation_masks(two_n: int) -> tuple:
    """XOR masks of packed conjugation, indexed [i][x][j][y] (all 0-based).

    For a word w with w(i) = x and w(j) = y, where i < x, i < j and (i, j)
    is not an arc, the conjugate by t = (i, j) swaps the entries at i and j
    and relabels the values i (at x) and j (at y): with p the packed w it is
    p ^ masks[i][x][j][y], two XOR masks merged into one.  Rows outside
    i < x, i < j are None: the same conjugate comes from (j, i), (x, y) and
    (y, x), and one of the four orientations lies inside.
    """
    bit = [1 << 4 * (two_n - 1 - k) for k in range(two_n)]
    pair = [[bit[a] | bit[b] for b in range(two_n)] for a in range(two_n)]
    return tuple(
        tuple(
            None
            if x <= i
            else tuple(
                None if j <= i else tuple([pair[i][j] * (x ^ y) ^ pair[x][y] * (i ^ j) for y in range(two_n)])
                for j in range(two_n)
            )
            for x in range(two_n)
        )
        for i in range(two_n)
    )


def _conjugates_above(word: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The distinct words t*w*t strictly above w in reverse order.

    By the direction rule these come from the non-arcs t = (a, d) with
    w(a) > w(d); of t and w*t*w = (w(d), w(a)) only the pair with a < w(d)
    is used, which also leaves out the arcs (w(d) = a).
    """
    m = len(word)
    return {
        _conjugate_word(word, a, d)
        for a in range(1, m)
        for d in range(a + 1, m + 1)
        if a < word[d - 1] < word[a - 1]
    }


def reverse_complement(pi: FpfInvolution) -> FpfInvolution:
    """w0 * pi * w0: reverse the word and complement the values.

    This is the order automorphism induced by the outer symmetry of the
    ambient group; it is an involution on the set of involutions.
    """
    m = pi.degree
    return FpfInvolution(tuple(m + 1 - pi.word[m - i] for i in range(1, m + 1)))


def encapsulation_count(pi: FpfInvolution, t: Transposition) -> int:
    """Number of arcs (a, d) of pi strictly nesting over t: a < t.a < t.d < d.

    >>> encapsulation_count(FpfInvolution((4, 3, 2, 1)), Transposition(2, 3))
    1
    """
    return sum(1 for i, v in enumerate(pi.word, start=1) if i < v and i < t.a and t.d < v)


def delete_pair_standardize(pi: FpfInvolution, arc: Transposition) -> FpfInvolution:
    """Delete both positions and both values of an arc, then renumber survivors.

    The i-th smallest surviving value becomes i; the result is a valid
    fixed-point-free involution on 2n - 2 letters.

    >>> str(delete_pair_standardize(FpfInvolution((3, 6, 1, 5, 4, 2)), Transposition(1, 3)))
    '4321'
    """
    a, d = arc.a, arc.d
    if d > pi.degree or pi.word[a - 1] != d:
        raise InvolutionError(f"({a},{d}) is not an arc of {pi}")
    if pi.n < 2:
        raise InvolutionError("cannot delete the only arc of a degree-2 involution")
    survivors = [v for i, v in enumerate(pi.word, start=1) if i != a and i != d]
    renumber = {v: r for r, v in enumerate(sorted(survivors), start=1)}
    return FpfInvolution(tuple(renumber[v] for v in survivors))


def format_involution(pi: FpfInvolution) -> str:
    if pi.degree <= 9:
        return "".join(str(v) for v in pi.word)
    return ",".join(str(v) for v in pi.word)


def parse_involution(text: str) -> FpfInvolution:
    """Parse one-line notation, either "351624" or "10,2,1,...".

    >>> parse_involution("3,5,1,6,2,4") == parse_involution("351624")
    True
    """
    s = text.strip()
    if not s:
        raise InvolutionError("empty involution text")
    if "," in s:
        word = []
        for pos, part in enumerate(s.split(","), start=1):
            part = part.strip()
            if not part.isdigit():
                raise InvolutionError(f"bad integer {part!r} at entry {pos}")
            word.append(int(part))
    else:
        for pos, ch in enumerate(s, start=1):
            if not ch.isdigit():
                raise InvolutionError(f"unexpected character {ch!r} at position {pos}")
        word = [int(ch) for ch in s]
    return FpfInvolution(tuple(word))
