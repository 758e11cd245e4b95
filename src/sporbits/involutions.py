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
from functools import cache, lru_cache
from typing import Sequence

# The largest degree any walk, enumeration or sweep covers: 135 135
# involutions.  A fresh `verify-theorem --degree 14` takes 3.7-4.4 s and
# 248 MB (2 cores, Python 3.11): the cover scan about 1.5 s and 85 MB, the
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
        if not (type(self.a) is int and type(self.d) is int and 1 <= self.a < self.d):
            raise InvolutionError(f"transposition needs integers 1 <= a < d, got ({self.a}, {self.d})")

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
        for i, v in enumerate(w, start=1):
            # Before the set test, which True == 1 and 2.0 == 2 pass and a list breaks: ints only.
            if type(v) is not int:
                raise InvolutionError(f"letter {v!r} at position {i} is not an integer")
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

    def arcs(self) -> tuple[Transposition, ...]:
        """The n arcs (i, pi(i)) with i < pi(i), ordered by left endpoint."""
        return tuple(Transposition(i, v) for i, v in enumerate(self.word, start=1) if i < v)

    def has_arc(self, t: Transposition) -> bool:
        return self.word[t.a - 1] == t.d

    def __str__(self) -> str:
        return format_word(self.word)


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
        # Past 2n = 64 the count runs to 40 digits and more, and costs time.
        size = f" ({fpf_count(two_n // 2)} involutions)" if two_n <= 64 else ""
        raise SizeLimitError(f"{what} {two_n}{size} exceeds the cap {cap}{hint}")


def enumerate_fpf(n: int) -> tuple[FpfInvolution, ...]:
    """All fixed-point-free involutions of {1, ..., 2n}, lexicographic on words.

    The count is (2n-1)!! which grows fast; degrees beyond
    ``DEFAULT_MAX_DEGREE`` are refused.

    >>> [str(p) for p in enumerate_fpf(2)]
    ['2143', '3412', '4321']
    """
    return tuple(map(FpfInvolution, enumerate_words(n)))


def enumerate_words(n: int) -> list[tuple[int, ...]]:
    """The words of `enumerate_fpf`, in its order, without building involutions.

    >>> enumerate_words(2)
    [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    """
    check_degree(2 * n)
    # Every position before the first free one a is filled, and w(a) = d
    # rises through the loop, so the words come out in lexicographic order.
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
    return words


def fpf_count(n: int) -> int:
    """(2n-1)!!, the number of fixed-point-free involutions of {1, ..., 2n}.

    >>> fpf_count(7)
    135135
    """
    count = 1
    for k in range(3, 2 * n, 2):
        count *= k
    return count


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


def corner_counts(columns: Sequence[int | None]) -> tuple[tuple[int, ...], ...]:
    """grid[i][j] = #{k <= i : columns[k-1] <= j}, for 0 <= i, j <= len(columns).

    On the word of an involution pi this is pi's grid c_pi, and mu <= pi in
    reverse order iff c_pi >= c_mu at every corner.  On the pivot columns
    of a reduced matrix it is the rank grid.  A None column counts nowhere.

    >>> corner_counts((2, None)), corner_counts((2, 1))[2]
    (((0, 0, 0), (0, 0, 1), (0, 0, 1)), (0, 1, 2))
    """
    count = [0] * (len(columns) + 1)
    grid = [tuple(count)]
    for c in columns:
        if c is not None:
            for j in range(c, len(count)):
                count[j] += 1
        grid.append(tuple(count))
    return tuple(grid)


def conjugate(pi: FpfInvolution, t: Transposition) -> FpfInvolution:
    """t * pi * t: swap two coordinates and simultaneously relabel the two values.

    The result is fixed-point-free again; it equals pi exactly when t is an
    arc of pi or t commutes with pi.
    """
    a, d = t.a, t.d
    if d > pi.degree:
        raise InvolutionError(f"transposition {t} out of range for degree {pi.degree}")
    # Unless t is an arc, x = pi(a) and y = pi(d) lie outside {a, d}, so
    # only the positions a, d, x and y change: a <-> d swaps the entries at
    # a and d and relabels the values a (at x) and d (at y).
    w = list(pi.word)
    x, y = w[a - 1], w[d - 1]
    if x == d:
        return pi
    w[a - 1], w[d - 1], w[x - 1], w[y - 1] = y, x, d, a
    return FpfInvolution(tuple(w))


# Packed words: letter k of a word (0-based) is the nibble at bit 4*(2n-1-k)
# and holds w(k+1) - 1, so comparing the ints compares the words
# lexicographically.  Four bits per letter hold at most 16 letters.  No
# other module reads this layout.
PACKED_MAX_DEGREE = 16
if DEFAULT_MAX_DEGREE > PACKED_MAX_DEGREE:
    raise ImportError(f"degree cap {DEFAULT_MAX_DEGREE} exceeds {PACKED_MAX_DEGREE}, the most a packed word holds")
_NIBBLES = b"0123456789abcdef"
_ZERO_BASED = bytes.maketrans(_NIBBLES, bytes(range(16)))
_ONE_BASED = bytes.maketrans(_NIBBLES, bytes(range(1, 17)))
# Words of at most this many letters print as plain digits, longer ones with
# commas; `format_word` and its packed twin `_text` both read it.
_PLAIN_DIGITS = 9
# A nibble's letter as text: one digit up to 9 letters, else the value and a comma.
_DIGIT = str.maketrans("012345678", "123456789")
_ENTRY = str.maketrans({c: f"{v}," for v, c in enumerate(_NIBBLES.decode(), start=1)})


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


def _involutions(words: Sequence[int], two_n: int) -> tuple[FpfInvolution, ...]:
    """The involutions of packed words, in the same order, each validated."""
    return tuple(FpfInvolution(_unpack(p, two_n)) for p in words)


def _text(p: int, two_n: int) -> str:
    """The text of a packed word, equal to ``format_word(_unpack(p, two_n))``.

    >>> _text(0x2503, 4), _text(_pack(tuple(range(10, 0, -1))), 10)
    ('3614', '10,9,8,7,6,5,4,3,2,1')
    """
    if two_n <= _PLAIN_DIGITS:
        return format(p, f"0{two_n}x").translate(_DIGIT)
    return format(p, f"0{two_n}x").translate(_ENTRY)[:-1]


def _first_difference(p: int, v: int, two_n: int) -> tuple[int, int]:
    """The first position where the packed words p != v differ, and v's letter there (both 0-based)."""
    shift = (p ^ v).bit_length() - 1 & ~3
    return two_n - 1 - shift // 4, v >> shift & 15


@cache
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
    return FpfInvolution(_delete_arc(pi.word, a, d))


def _delete_arc(word: tuple[int, ...], a: int, d: int) -> tuple[int, ...]:
    """The word without the values a, d (so without the positions d, a), renumbered."""
    return tuple([v - (v > a) - (v > d) for v in word if v != a and v != d])


def format_word(word: tuple[int, ...]) -> str:
    """One-line text of a word: plain digits up to 9 letters, else comma-separated.

    `_text` is its twin for packed words."""
    return ("" if len(word) <= _PLAIN_DIGITS else ",").join(map(str, word))


def _natural(text: str) -> int | None:
    """The one reader of numbers from outside: ASCII digits only, at most 4300 (CPython's limit)."""
    return int(text) if text.isascii() and text.isdigit() and len(text) <= 4300 else None


def _excerpt(text: str) -> str:
    """Refused text as an error message shows it: its repr, cut after 20 characters.

    >>> _excerpt("2x"), _excerpt("1" * 5000)
    ("'2x'", "'11111111111111111111'… (5000 characters)")
    """
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}… ({len(text)} characters)"


def parse_involution(text: str) -> FpfInvolution:
    """Parse one-line notation, either "351624" or "10,2,1,...".

    >>> parse_involution("3,5,1,6,2,4") == parse_involution("351624")
    True
    """
    s = text.strip()
    if not s:
        raise InvolutionError("empty involution text")
    # Comma form: one integer per entry; otherwise one digit per position.
    comma = "," in s
    word = []
    for pos, part in enumerate(s.split(",") if comma else s, start=1):
        if comma:
            part = part.strip()
        if (letter := _natural(part)) is None:
            what = "bad integer" if comma else "unexpected character"
            raise InvolutionError(f"{what} {_excerpt(part)} at {'entry' if comma else 'position'} {pos}")
        word.append(letter)
    return FpfInvolution(tuple(word))
