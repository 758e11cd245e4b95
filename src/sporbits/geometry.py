"""Exact model of the flag side: skew form, flags, orbit classifier.

A complete flag is stored as an invertible matrix of rationals whose row i
spans the i-th step.  The orbit of a flag under the isometry group of the
standard skew form is read off the ranks of the pairings V_i x V_j: the
second differences of the rank grid cut out a fixed-point-free involution,
and one elimination of the pairing matrix gives it as its pivots.
All linear algebra is exact; floating point would misclassify
near-degenerate flags, since rank is discontinuous.

- **Integer kernel.**  Every product, rank and grid runs on Python ints.
  Scaling a row by a positive integer keeps the rank of every leading
  corner, so denominators are cleared row by row (and, for the right factor
  of a product, column by column).  Fractions appear only at the API's
  edges: ``FlagMatrix.rows``, the matrices public functions return, and
  JSON.  J is a signed antidiagonal, so F J is a signed column reversal of
  F, and the Gram matrix of a flag is one integer product (F J) F^T.
- **Rank-one updates.**  The transvection x -> x + c <x, v> v acts on row
  vectors as I + c u v^T with u = J v, so a product S of transvections is
  updated as S + c (S u) v^T, in O(m^2) per step instead of an O(m^3)
  product.  S is kept as an integer matrix over one common denominator,
  both divided by their gcd after every step.
- **One-pass rank grid.**  Rows are reduced top-down, each against the
  pivot rows above it only, and a row's pivot is its first nonzero column
  after reduction.  This is row reduction by a lower-triangular matrix:
  each reduced row is a nonzero multiple of its original row minus a
  combination of the rows above it, so the first i reduced rows span the
  first i original rows, corner by corner.  The reduced rows are zero
  before their pivots and the pivots are distinct; restricted to the first
  j columns, the rows with pivot <= j are independent and the rest vanish.
  So the top-left i x j corner has rank #{k <= i : pivot(k) <= j} for every
  (i, j) at once: `involutions.corner_counts` of the pivots, the grid
  `rank_grid` returns.  On the pairing matrix of a flag these pivots are
  the word of pi, so the flag's grid is pi's grid c_pi by construction and
  `classify_flag` reads pi from the pivots without building a grid.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .involutions import FpfInvolution, InvolutionError, SizeLimitError, _natural, corner_counts

Matrix = tuple[tuple[Fraction, ...], ...]

# The most rows a flag file may hold.
MAX_FLAG_ROWS = 16


class FlagError(ValueError):
    """Bad flag input: parse failure, wrong shape, or a singular matrix."""


class ConsistencyError(RuntimeError):
    """An internal self-check failed; indicates a bug, not bad input."""


def standard_form(n: int) -> Matrix:
    """The fixed skew form J: +1 at (i, 2n+1-i) for i <= n, -1 below, 0 elsewhere.

    Row i is e_i J, so `_times_form` alone holds the signs.

    >>> [[int(x) for x in row] for row in standard_form(1)]
    [[0, 1], [-1, 0]]
    """
    if n < 1:
        raise FlagError(f"half-degree must be at least 1, got {n}")
    m = 2 * n
    return tuple(tuple(map(Fraction, _times_form([int(i == j) for j in range(m)]))) for i in range(m))


def _scaled(rows) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, as ints, and those lcms.

    Row scaling by positive integers preserves the rank of every leading
    corner, so clearing denominators rowwise is safe.
    """
    ints, scales = [], []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return ints, scales


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise FlagError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    rows, row_scales = _scaled(a)
    cols, col_scales = _scaled(tuple(zip(*b)))
    return tuple(
        tuple(Fraction(sum(map(mul, row, col)), rs * cs) for col, cs in zip(cols, col_scales))
        for row, rs in zip(rows, row_scales)
    )


def _times_form(row: list[int]) -> list[int]:
    """row J: the row reversed, with its first half negated."""
    n = len(row) // 2
    rev = row[::-1]
    return [-x for x in rev[:n]] + rev[n:]


def _gram(rows: list[list[int]]) -> list[list[int]]:
    """The pairing matrix (F J) F^T of integer rows."""
    return [[sum(map(mul, x, y)) for y in rows] for x in map(_times_form, rows)]


def _pivots(rows: list[list[int]]) -> list[int | None]:
    """Each row's pivot: its first nonzero column (1-based) after reduction
    against the pivot rows above it, or None if it adds no rank."""
    pivots: list[tuple[list[int], int]] = []
    found: list[int | None] = []
    for v in rows:
        for pvec, pidx in pivots:
            if v[pidx]:
                c, p = v[pidx], pvec[pidx]
                v = [a * p - b * c for a, b in zip(v, pvec)]
        pidx = next((k for k, a in enumerate(v) if a), None)
        if pidx is not None:
            g = gcd(*v)
            pivots.append(([a // g for a in v] if g > 1 else v, pidx))
        found.append(None if pidx is None else pidx + 1)
    return found


def matrix_rank(m: Matrix) -> int:
    return sum(p is not None for p in _pivots(_scaled(m)[0]))


def rank_grid(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """grid[i][j] = rank of the top-left i x j corner of a square matrix, for 0 <= i, j <= size."""
    for i, row in enumerate(m, start=1):
        if len(row) != len(m):
            raise FlagError(f"rank grid needs a square matrix: row {i} has {len(row)} entries, expected {len(m)}")
    return corner_counts(_pivots(_scaled(m)[0]))


def _rational(x, i: int, j: int) -> Fraction:
    # Exact types only (the flag builders pass Fractions and ints, never a bool), or
    # flag_to_json's text: ASCII digits with an optional leading "-" and "/q", q nonzero.
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if type(x) is str:
        num, slash, den = x.removeprefix("-").partition("/")
        p, q = _natural(num), _natural(den) if slash else 1
        if p is not None and q:
            return Fraction(-p if x[:1] == "-" else p, q)
    raise FlagError(f"bad rational at row {i}, column {j}: {x!r}")


@dataclass(frozen=True, eq=False)
class FlagMatrix:
    """An invertible square matrix of rationals; row i spans the i-th flag step."""

    rows: Matrix

    def __post_init__(self) -> None:
        coerced = []
        for i, row in enumerate(self.rows, start=1):
            if len(row) != len(self.rows):
                raise FlagError(f"row {i} has {len(row)} entries, expected {len(self.rows)}")
            coerced.append(tuple(_rational(x, i, j) for j, x in enumerate(row, start=1)))
        rows = tuple(coerced)
        object.__setattr__(self, "rows", rows)
        size = len(rows)
        if size == 0 or size % 2:
            raise FlagError(f"flag matrix must be square of even size, got {size} rows")
        r = matrix_rank(rows)
        if r != size:
            raise FlagError(f"matrix is singular: rank {r} of {size}")


def classify_flag(flag: FlagMatrix) -> FpfInvolution:
    """The involution of the orbit containing the flag.

    pi(i) is the pivot of row i of the pairing matrix (F J) F^T reduced top
    down: the first column where row i raises the rank of the pairings
    V_i x V_j, so the flag's rank grid is pi's grid c_pi.
    """
    word = _pivots(_gram(_scaled(flag.rows)[0]))
    if None in word:
        raise ConsistencyError(f"row {word.index(None) + 1} of the pairing grid adds no rank")
    try:
        return FpfInvolution(tuple(word))
    except InvolutionError as exc:
        raise ConsistencyError(f"recovered map {word} is not a fixed-point-free involution") from exc


def gram_target(mu: FpfInvolution) -> Matrix:
    """The signed permutation matrix with +1 at (i, mu(i)) above the diagonal."""
    m = mu.degree
    rows = []
    for i in range(1, m + 1):
        row = [Fraction(0)] * m
        v = mu.word[i - 1]
        row[v - 1] = Fraction(1) if v > i else Fraction(-1)
        rows.append(tuple(row))
    return tuple(rows)


def gram_basis_flag(mu: FpfInvolution) -> FlagMatrix:
    """A flag of signed standard basis vectors whose pairing matrix is gram_target(mu).

    Arc (a, d) number k (arcs by increasing left endpoint) receives the
    hyperbolic pair e_k, e_{2n+1-k}: rows from different arcs then pair to
    zero and each arc pairs to +1/-1 exactly as required.  The construction
    is re-verified against the target before returning.
    """
    m = mu.degree
    rows = [[0] * m for _ in range(m)]
    for k, arc in enumerate(mu.arcs(), start=1):
        rows[arc.a - 1][k - 1] = 1
        rows[arc.d - 1][m - k] = 1
    flag = FlagMatrix(tuple(map(tuple, rows)))
    # The rows are integers, so their integer pairing matrix is the exact one.
    if _gram(rows) != list(map(list, gram_target(mu))):
        raise ConsistencyError(f"gram matrix of constructed flag does not match target for {mu}")
    return flag


# Each transvection coefficient c as (numerator, denominator).
_TRANSVECTION_COEFFS = ((1, 1), (-1, 1), (1, 2), (-1, 2), (2, 1), (-2, 1))


def random_symplectic(n: int, seed: int, transvections: int = 8) -> Matrix:
    """A seeded product of symplectic transvections x -> x + c <x, v> v.

    Coefficients come from {1, -1, 1/2, -1/2, 2, -2} and v from small integer
    vectors; the generator is the stdlib Mersenne Twister, so a (n, seed,
    transvections) triple fully determines the output.  The product is kept
    as num / den with num an integer matrix, and each factor is applied as a
    rank-one update.  The defining relation S J S^T = J is asserted, as
    num J num^T = den^2 J, before returning.
    """
    if n < 1:
        raise FlagError(f"half-degree must be at least 1, got {n}")
    rng = random.Random(seed)
    m = 2 * n
    num = [[int(a == b) for b in range(m)] for a in range(m)]
    den = 1
    for _ in range(transvections):
        v = [0] * m
        while not any(v):
            v = [rng.randint(-2, 2) for _ in range(m)]
        p, q = rng.choice(_TRANSVECTION_COEFFS)
        u = [-x for x in _times_form(v)]  # J v
        # S (I + c u v^T) = S + c (S u) v^T, over the common denominator q den.
        for row in num:
            k = p * sum(map(mul, row, u))
            row[:] = [q * x + k * y for x, y in zip(row, v)]
        den *= q
        g = gcd(den, *chain.from_iterable(num))
        if g > 1:
            num = [[x // g for x in row] for row in num]
            den //= g
    square = den * den
    if _gram(num) != [_times_form([square * (a == b) for b in range(m)]) for a in range(m)]:
        raise ConsistencyError("transvection product is not symplectic")
    return tuple(tuple(Fraction(x, den) for x in row) for row in num)


def transform_flag(flag: FlagMatrix, s: Matrix) -> FlagMatrix:
    """Act on a flag by a matrix on row vectors (rows of the result span the new steps)."""
    return FlagMatrix(mat_mul(flag.rows, s))


def flag_to_json(flag: FlagMatrix) -> str:
    """Serialize as a JSON array of arrays of "p/q" strings."""
    return json.dumps([[str(x) for x in row] for row in flag.rows])


def parse_flag_json(text: str) -> FlagMatrix:
    """Parse a JSON array of arrays; entries may be "p/q" strings or integers.

    More than MAX_FLAG_ROWS (16) rows is refused with SizeLimitError
    right after the JSON is read, before any entry is coerced, so the work
    a flag file can ask for is bounded up front, as every degree is.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Bad JSON and ints over CPython's digit limit raise ValueError; deep nesting recurses.
        raise FlagError(f"flag file is not valid JSON: {exc}") from exc
    if isinstance(data, list) and len(data) > MAX_FLAG_ROWS:
        raise SizeLimitError(f"flag matrix has {len(data)} rows, more than the cap {MAX_FLAG_ROWS}")
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise FlagError("flag file must be a JSON array of arrays")
    return FlagMatrix(tuple(map(tuple, data)))
