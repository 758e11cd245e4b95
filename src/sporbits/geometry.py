"""Exact-rational model of the flag side: skew form, flags, orbit classifier.

A complete flag is stored as an invertible matrix of rationals whose row i
spans the i-th step.  The orbit of a flag under the isometry group of the
standard skew form is read off the ranks of the pairings V_i x V_j: the
second differences of the rank grid cut out a fixed-point-free involution.
All linear algebra is exact (integer cross-multiplication elimination after
clearing denominators); floating point would misclassify near-degenerate
flags, since rank is discontinuous.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .involutions import FpfInvolution, InvolutionError

Matrix = tuple[tuple[Fraction, ...], ...]


class FlagError(ValueError):
    """Bad flag input: parse failure, wrong shape, or a singular matrix."""


class ConsistencyError(RuntimeError):
    """An internal self-check failed; indicates a bug, not bad input."""


def standard_form(n: int) -> Matrix:
    """The fixed skew form J: +1 at (i, 2n+1-i) for i <= n, -1 below, 0 elsewhere.

    >>> [[int(x) for x in row] for row in standard_form(1)]
    [[0, 1], [-1, 0]]
    """
    if n < 1:
        raise FlagError(f"half-degree must be at least 1, got {n}")
    m = 2 * n
    rows = []
    for i in range(1, m + 1):
        row = [Fraction(0)] * m
        j = m + 1 - i
        row[j - 1] = Fraction(1) if i < j else Fraction(-1)
        rows.append(tuple(row))
    return tuple(rows)


def identity_matrix(m: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(m)) for i in range(m)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise FlagError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _integer_rows(m: Matrix) -> list[list[int]]:
    # Row scaling by positive integers preserves the rank of every leading
    # corner, so clearing denominators rowwise is safe.
    out = []
    for row in m:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * scale) for x in row])
    return out


def _reduce_against(v: list[int], pivots: list[tuple[list[int], int]]) -> list[int]:
    for pvec, pidx in pivots:
        if v[pidx]:
            c, p = v[pidx], pvec[pidx]
            v = [a * p - b * c for a, b in zip(v, pvec)]
    return v


def _normalize(v: list[int]) -> list[int]:
    g = 0
    for a in v:
        g = gcd(g, a)
    if g > 1:
        v = [a // g for a in v]
    return v


def _rank_profile(vectors: list[list[int]]) -> list[int]:
    """Ranks of the spans of growing prefixes of a vector list."""
    pivots: list[tuple[list[int], int]] = []
    ranks = []
    for v in vectors:
        v = _reduce_against(list(v), pivots)
        pidx = next((k for k, a in enumerate(v) if a), None)
        if pidx is not None:
            pivots.append((_normalize(v), pidx))
        ranks.append(len(pivots))
    return ranks


def matrix_rank(m: Matrix) -> int:
    rows = _integer_rows(m)
    return _rank_profile(rows)[-1] if rows else 0


def rank_grid(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """grid[i][j] = rank of the top-left i x j corner, for 0 <= i, j <= size."""
    size = len(m)
    rows = _integer_rows(m)
    grid = [[0] * (size + 1)]
    for i in range(1, size + 1):
        cols = [[rows[r][j] for r in range(i)] for j in range(size)]
        grid.append([0] + _rank_profile(cols))
    return tuple(tuple(r) for r in grid)


@dataclass(frozen=True, eq=False)
class FlagMatrix:
    """An invertible square matrix of rationals; row i spans the i-th flag step."""

    rows: Matrix

    def __post_init__(self) -> None:
        coerced = []
        for i, row in enumerate(self.rows, start=1):
            coerced.append(tuple(Fraction(x) for x in row))
            if len(coerced[-1]) != len(self.rows):
                raise FlagError(f"row {i} has {len(coerced[-1])} entries, expected {len(self.rows)}")
        rows = tuple(coerced)
        object.__setattr__(self, "rows", rows)
        size = len(rows)
        if size == 0 or size % 2:
            raise FlagError(f"flag matrix must be square of even size, got {size} rows")
        r = matrix_rank(rows)
        if r != size:
            raise FlagError(f"matrix is singular: rank {r} of {size}")

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows) // 2


def classify_flag(flag: FlagMatrix) -> FpfInvolution:
    """The involution of the orbit containing the flag.

    Computes the full grid of ranks of V_i x V_j pairings and recovers
    pi(i) as the first column where row i raises the rank.  The recovered
    involution is checked against the entire grid before being returned.
    """
    m = flag.size
    form = standard_form(flag.n)
    gram = mat_mul(mat_mul(flag.rows, form), mat_transpose(flag.rows))
    grid = rank_grid(gram)
    word = []
    for i in range(1, m + 1):
        j = next((jj for jj in range(1, m + 1) if grid[i][jj] > grid[i - 1][jj]), None)
        if j is None:
            raise ConsistencyError(f"row {i} of the pairing grid adds no rank")
        word.append(j)
    try:
        pi = FpfInvolution(tuple(word))
    except InvolutionError as exc:
        raise ConsistencyError(f"recovered map {word} is not a fixed-point-free involution") from exc
    _check_grid(pi, grid)
    return pi


def _check_grid(pi: FpfInvolution, grid: tuple[tuple[int, ...], ...]) -> None:
    m = pi.degree
    count = [0] * (m + 1)
    for i in range(1, m + 1):
        v = pi.word[i - 1]
        for j in range(v, m + 1):
            count[j] += 1
        for j in range(1, m + 1):
            if grid[i][j] != count[j]:
                raise ConsistencyError(
                    f"rank grid disagrees with {pi} at ({i},{j}): {grid[i][j]} vs {count[j]}"
                )


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
    rows = [[Fraction(0)] * m for _ in range(m)]
    for k, arc in enumerate(mu.arcs(), start=1):
        rows[arc.a - 1][k - 1] = Fraction(1)
        rows[arc.d - 1][m - k] = Fraction(1)
    flag = FlagMatrix(tuple(tuple(r) for r in rows))
    gram = mat_mul(mat_mul(flag.rows, standard_form(mu.n)), mat_transpose(flag.rows))
    if gram != gram_target(mu):
        raise ConsistencyError(f"gram matrix of constructed flag does not match target for {mu}")
    return flag


_TRANSVECTION_COEFFS = (
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2),
    Fraction(-2),
)


def random_symplectic(n: int, seed: int, transvections: int = 8) -> Matrix:
    """A seeded product of symplectic transvections x -> x + c <x, v> v.

    Coefficients come from {1, -1, 1/2, -1/2, 2, -2} and v from small integer
    vectors; the generator is the stdlib Mersenne Twister, so a (n, seed,
    transvections) triple fully determines the output.  The defining relation
    S J S^T = J is asserted before returning.
    """
    rng = random.Random(seed)
    m = 2 * n
    form = standard_form(n)
    s = identity_matrix(m)
    for _ in range(transvections):
        v = [0] * m
        while not any(v):
            v = [rng.randint(-2, 2) for _ in range(m)]
        c = rng.choice(_TRANSVECTION_COEFFS)
        u = [sum(form[a][b] * v[b] for b in range(m)) for a in range(m)]
        step = tuple(
            tuple((Fraction(1) if a == b else Fraction(0)) + c * u[a] * v[b] for b in range(m))
            for a in range(m)
        )
        s = mat_mul(s, step)
    if mat_mul(mat_mul(s, form), mat_transpose(s)) != form:
        raise ConsistencyError("transvection product is not symplectic")
    return s


def transform_flag(flag: FlagMatrix, s: Matrix) -> FlagMatrix:
    """Act on a flag by a matrix on row vectors (rows of the result span the new steps)."""
    return FlagMatrix(mat_mul(flag.rows, s))


def flag_to_json(flag: FlagMatrix) -> str:
    """Serialize as a JSON array of arrays of "p/q" strings."""
    return json.dumps([[str(x) for x in row] for row in flag.rows])


def parse_flag_json(text: str) -> FlagMatrix:
    """Parse a JSON array of arrays; entries may be "p/q" strings or integers."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FlagError(f"flag file is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise FlagError("flag file must be a JSON array of arrays")
    rows = []
    for i, row in enumerate(data, start=1):
        parsed = []
        for j, entry in enumerate(row, start=1):
            try:
                # Fraction(True) == 1: JSON booleans and floats are not rationals here.
                parsed.append(None if isinstance(entry, (bool, float)) else Fraction(entry))
            except (ValueError, ZeroDivisionError, TypeError):
                parsed.append(None)
            if parsed[-1] is None:
                raise FlagError(f"bad rational at row {i}, column {j}: {entry!r}")
        rows.append(tuple(parsed))
    return FlagMatrix(tuple(rows))
