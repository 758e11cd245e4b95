"""Independent brute-force oracles.

Everything here recomputes expected values from first principles by a route
different from the library code: enumeration by filtering, Bruhat order via
the subword property and by its definition (upper sets closed under
length-raising transpositions), conjugation by composing permutations,
pattern containment over raw index subsets and by standardizing every
union of arcs, matrix rank by plain rational elimination, corner rank
grids by one elimination per row count, products of symplectic
transvections by full Fraction matrix products, poset grading by longest
chains, interval-graph regularity by conjugating every vertex by every
transposition, and the whole-degree sweep columns by dense numpy matrices
(small degrees only) and by one lower-set bitset per element read in byte
classes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm


def brute_force_fpf(n: int) -> set[tuple[int, ...]]:
    """Fixed-point-free involutions of S_2n by filtering all permutations."""
    out = set()
    for w in itertools.permutations(range(1, 2 * n + 1)):
        if all(w[i] != i + 1 and w[w[i] - 1] == i + 1 for i in range(2 * n)):
            out.add(w)
    return out


def inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def reduced_word(w: tuple[int, ...]) -> list[int]:
    """0-based simple reflection indices multiplying (left to right) to w."""
    v = list(w)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(v) - 1):
            if v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                swaps.append(i)
                changed = True
    swaps.reverse()
    return swaps


def subword_leq(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """u <= w in ordinary Bruhat order, via the subword property.

    u <= w iff u is the product of some subword of any fixed reduced word
    of w; the reachable set is built by dynamic programming.
    """
    word = reduced_word(w)
    assert len(word) == inversions(w)
    reach = {tuple(range(1, len(w) + 1))}
    for i in word:
        step = set()
        for p in reach:
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            step.add(tuple(q))
        reach |= step
    return tuple(u) in reach


def dominance_leq(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """u <= w in ordinary Bruhat order, by sorted-prefix dominance."""
    for i in range(1, len(u)):
        for a, b in zip(sorted(u[:i]), sorted(w[:i])):
            if a > b:
                return False
    return True


def compose(u: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    """The product u*w of two permutations in one-line notation: i -> u(w(i))."""
    return tuple(u[x - 1] for x in w)


def transposition(two_n: int, a: int, d: int) -> tuple[int, ...]:
    """The transposition (a, d) of {1, ..., 2n} in one-line notation."""
    t = list(range(1, two_n + 1))
    t[a - 1], t[d - 1] = d, a
    return tuple(t)


def bruhat_upper_set(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All u >= w in ordinary Bruhat order, by the definition of the order.

    u >= w iff u is reached from w by right multiplications by
    transpositions that each raise the length; w*(i,j) with i < j is longer
    than w exactly when w(i) < w(j).  The set is closed under such steps.
    """
    seen = {tuple(w)}
    frontier = [tuple(w)]
    m = len(w)
    while frontier:
        step = []
        for u in frontier:
            for i in range(m - 1):
                ui = u[i]
                for j in range(i + 1, m):
                    if ui < u[j]:
                        v = list(u)
                        v[i], v[j] = u[j], ui
                        v = tuple(v)
                        if v not in seen:
                            seen.add(v)
                            step.append(v)
        frontier = step
    return seen


def invariant_inclusion_witnesses(
    host: tuple[int, ...], pattern: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All invariant index sets realizing the pattern, over raw index subsets.

    Unlike the library, this scans all C(2n, 2m) subsets and filters for
    invariance, so it independently checks the arcs-only search space.
    """
    two_n, two_m = len(host), len(pattern)
    hits = []
    for idx in itertools.combinations(range(1, two_n + 1), two_m):
        chosen = set(idx)
        if any(host[i - 1] not in chosen for i in idx):
            continue
        values = [host[i - 1] for i in idx]
        order = {v: r for r, v in enumerate(sorted(values), start=1)}
        if tuple(order[v] for v in values) == pattern:
            hits.append(idx)
    return hits


def tabulated_witness(
    host: tuple[int, ...], patterns: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first of the patterns, in the given order, that the host includes,
    with its least index set, or None.

    Every union of m arcs is standardized once into a table per m, keeping
    the least index set of each standardized word; the patterns are then
    looked up in order.
    """
    arcs = [(i, v) for i, v in enumerate(host, start=1) if i < v]
    tables: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for pattern in patterns:
        m = len(pattern) // 2
        if m > len(arcs):
            continue
        if m not in tables:
            tables[m] = {}
            unions = sorted(tuple(sorted(x for arc in combo for x in arc)) for combo in itertools.combinations(arcs, m))
            for idx in unions:
                order = {v: r for r, v in enumerate(idx, start=1)}
                tables[m].setdefault(tuple(order[host[i - 1]] for i in idx), idx)
        idx = tables[m].get(tuple(pattern))
        if idx is not None:
            return tuple(pattern), idx
    return None


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain Gaussian elimination over Fraction."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, n_rows):
            if m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def fraction_mat_mul(a, b) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix product by Fraction multiply-adds, entry by entry."""
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
        for row in a
    )


def transpose(m) -> tuple[tuple[Fraction, ...], ...]:
    """The transpose of a matrix given as rows."""
    return tuple(zip(*m))


def identity(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """The m x m identity matrix over Fraction."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m))


def _prefix_ranks(vectors: list[list[int]]) -> list[int]:
    """Ranks of the spans of growing prefixes of a list of integer vectors."""
    pivots: list[tuple[list[int], int]] = []
    ranks = []
    for v in vectors:
        for pvec, pidx in pivots:
            if v[pidx]:
                c, p = v[pidx], pvec[pidx]
                v = [a * p - b * c for a, b in zip(v, pvec)]
        pidx = next((k for k, a in enumerate(v) if a), None)
        if pidx is not None:
            g = gcd(*v)
            pivots.append(([a // g for a in v], pidx))
        ranks.append(len(pivots))
    return ranks


def corner_rank_grid(m) -> tuple[tuple[int, ...], ...]:
    """grid[i][j] = rank of the top-left i x j corner of a square matrix.

    One elimination per i: the columns of the first i rows, cleared of
    denominators row by row, are taken in order and their prefix ranks
    give row i of the grid.
    """
    size = len(m)
    rows = []
    for row in m:
        scale = lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(Fraction(x) * scale) for x in row])
    grid = [[0] * (size + 1)]
    for i in range(1, size + 1):
        cols = [[rows[r][j] for r in range(i)] for j in range(size)]
        grid.append([0] + _prefix_ranks(cols))
    return tuple(tuple(r) for r in grid)


TRANSVECTION_COEFFS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2))


def transvection_product(n: int, seed: int, transvections: int = 8) -> tuple[tuple[Fraction, ...], ...]:
    """The seeded product of transvections I + c (J v) v^T, by full Fraction
    matrix products, drawing v and c from the generator in the same order
    as the library."""
    rng = random.Random(seed)
    m = 2 * n
    form = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        form[i][m - 1 - i] = Fraction(1) if i < m - 1 - i else Fraction(-1)
    s = tuple(tuple(Fraction(int(a == b)) for b in range(m)) for a in range(m))
    for _ in range(transvections):
        v = [0] * m
        while not any(v):
            v = [rng.randint(-2, 2) for _ in range(m)]
        c = rng.choice(TRANSVECTION_COEFFS)
        u = [sum(form[a][b] * v[b] for b in range(m)) for a in range(m)]
        step = tuple(tuple(int(a == b) + c * u[a] * v[b] for b in range(m)) for a in range(m))
        s = fraction_mat_mul(s, step)
    return s


def longest_chain_ranks(elements, leq) -> dict:
    """Grading by longest chains from the bottom of the poset.

    Works on any finite poset given as (elements, comparison); independent
    of any rank formula.
    """
    below = {
        x: [y for y in elements if y != x and leq(y, x)] for x in elements
    }
    order = sorted(elements, key=lambda x: len(below[x]))
    grade: dict = {}
    for x in order:
        grade[x] = max((grade[y] + 1 for y in below[x]), default=0)
    return grade


def fpf_words(two_n: int) -> list[tuple[int, ...]]:
    """All fixed-point-free involutions of {1, ..., 2n}, sorted, by pairing
    the least unpaired letter with each other unpaired letter in turn."""

    def pairings(free: tuple[int, ...]):
        if not free:
            yield {}
            return
        a = free[0]
        for d in free[1:]:
            rest = tuple(x for x in free if x not in (a, d))
            for pairing in pairings(rest):
                yield {**pairing, a: d, d: a}

    return sorted(tuple(p[i] for i in range(1, two_n + 1)) for p in pairings(tuple(range(1, two_n + 1))))


def reverse_below(mu: tuple[int, ...], pi: tuple[int, ...]) -> bool:
    """mu <= pi in reverse Bruhat order: pi <= mu in ordinary Bruhat order."""
    return dominance_leq(pi, mu)


def inversion_rank(w: tuple[int, ...]) -> int:
    """Half the inversions w lacks against the reversal; the tests check it
    against longest-chain grading before relying on it."""
    m = len(w)
    return (m * (m - 1) // 2 - inversions(w)) // 2


def conjugate_by(w: tuple[int, ...], a: int, d: int) -> tuple[int, ...]:
    """t*w*t for t = (a, d), by composing permutations."""
    t = transposition(len(w), a, d)
    return compose(t, compose(w, t))


def graph_regular(top: tuple[int, ...]) -> bool:
    """Every vertex of the conjugation graph on [w0, top] has degree r(top).

    The vertices are the words below top by `reverse_below`; a vertex's
    neighbours are its distinct conjugates by every transposition, by
    `conjugate_by`, that are vertices too.
    """
    m = len(top)
    vertices = {w for w in fpf_words(m) if reverse_below(w, top)}
    gap = inversion_rank(top)
    for w in vertices:
        neighbours = {conjugate_by(w, a, d) for a in range(1, m) for d in range(a + 1, m + 1)} - {w}
        if len(neighbours & vertices) != gap:
            return False
    return True


def conjugates_below(w: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The distinct conjugates t*w*t strictly below w in reverse order, by the
    direction rule: for t = (a, d), a < d, not an arc of w, t*w*t lies
    strictly below w exactly when w(a) < w(d).  The pair (w(a), w(d)) gives
    the same conjugate, and exactly one of the two pairs has a < w(a); only
    that one is taken."""
    m = len(w)
    return {
        conjugate_by(w, a, d)
        for a in range(1, m)
        if a < w[a - 1]
        for d in range(a + 1, m + 1)
        if w[a - 1] < w[d - 1]
    }


def dense_leq(words: list[tuple[int, ...]]):
    """leq[m, p] is True iff words[m] <= words[p] in reverse order, as one
    numpy matrix: each word's table c(i, v) = #{k <= i : w(k) <= v} is
    compared with every other at once.  Prefix dominance in count form:
    mu <= pi iff c_pi >= c_mu entrywise.  One byte per pair, so only for
    small degrees."""
    import numpy as np

    two_n = len(words[0])
    counts = np.empty((len(words), two_n * two_n), dtype=np.int8)
    for m, w in enumerate(words):
        hits = np.zeros((two_n, two_n), dtype=np.int16)
        hits[np.arange(two_n), np.array(w) - 1] = 1
        counts[m] = hits.cumsum(axis=0).cumsum(axis=1).astype(np.int8).ravel()
    leq = np.empty((len(words), len(words)), dtype=bool)
    for p in range(len(words)):
        leq[:, p] = (counts[p] >= counts).all(axis=1)
    return leq


def dense_neighbors(words: list[tuple[int, ...]]):
    """0/1 numpy matrix with entry (m, v) set iff words[v] = t*words[m]*t != words[m]."""
    import numpy as np

    index = {w: m for m, w in enumerate(words)}
    two_n = len(words[0])
    nb = np.zeros((len(words), len(words)), dtype=np.float64)
    for m, w in enumerate(words):
        for a in range(1, two_n):
            for d in range(a + 1, two_n + 1):
                v = conjugate_by(w, a, d)
                if v != w:
                    nb[m, index[v]] = 1
    return nb


def dense_survey(two_n: int):
    """The whole-degree columns by dense matrices, for 2n <= 10.

    Returns the sorted words, their ranks, and per word (palindromic,
    regular): the rank histogram of the lower interval reads the same
    reversed, and every vertex of the interval's conjugation graph has
    degree equal to the top's rank.
    """
    import numpy as np

    words = fpf_words(two_n)
    ranks = np.array([inversion_rank(w) for w in words])
    leq = dense_leq(words)
    nb = dense_neighbors(words)
    degrees = nb @ leq.astype(np.float64)  # exact: integers far below 2**53
    columns = []
    for p in range(len(words)):
        members = leq[:, p]
        hist = np.bincount(ranks[members])
        columns.append(
            (bool(np.array_equal(hist, hist[::-1])), bool((degrees[members, p] == ranks[p]).all()))
        )
    return words, ranks.tolist(), columns


def byte_class_columns(ranks, down_degree, covers) -> list[tuple[bool, bool]]:
    """Per element (palindromic, regular) of a graded poset, one lower set at a time.

    ``covers[m]`` are the elements covered by m.  The lower set
    L(pi) = {pi} ∪ ⋃ L(c) over the covers c is one int per element, built in
    increasing rank with bits rank-major; within a rank the bits are grouped
    by down-degree d↓ and each (rank, d↓) class starts on a byte, so one
    conversion to bytes gives every class popcount.  Palindromic: the rank
    histogram of L(pi) reads the same reversed.  Regular: Σ d↓(mu) over
    L(pi) equals Σ (r(pi) - r(mu)).  The oracle for the sweep's bit-sliced
    columns.
    """
    levels: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for m, r in enumerate(ranks):
        levels[r].append(m)
    bits = [0] * len(ranks)
    classes = []
    bit = 0
    for r, level in enumerate(levels):
        level.sort(key=down_degree.__getitem__)
        runs = []
        for d, group in itertools.groupby(level, key=down_degree.__getitem__):
            first_byte = -(-bit // 8)
            bit = 8 * first_byte
            for m in group:
                bits[m] = bit
                bit += 1
            runs.append((r, d, first_byte, -(-bit // 8)))
        classes.append(runs)
    columns: list[tuple[bool, bool]] = [(False, False)] * len(ranks)
    below: dict[int, int] = {}
    for top, level in enumerate(levels):
        spans = [span for r in range(top + 1) for span in classes[r]]
        current = {}
        for m in level:
            lower = 1 << bits[m]
            for c in covers[m]:
                lower |= below[c]
            current[m] = lower
            packed = lower.to_bytes(spans[-1][3], "little")
            hist = [0] * (top + 1)
            edges = 0
            for r, d, lo, hi in spans:
                count = int.from_bytes(packed[lo:hi], "little").bit_count()
                hist[r] += count
                edges += d * count
            gaps = sum((top - r) * h for r, h in enumerate(hist))
            columns[m] = (hist == hist[::-1], edges == gaps)
        below = current
    return columns
