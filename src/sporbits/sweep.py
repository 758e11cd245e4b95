"""Whole-poset sweeps backing the exhaustive verification pipelines.

The per-element functions in `bruhat` and `graphs` are the reference path;
this module recomputes the same predicates for every involution of a degree
at once with numpy/scipy so that full sweeps up to 2n = 12 stay in seconds.
Tables are memoized per degree and shared between pipelines.  Worker fan-out
splits column ranges; results are merged in enumeration order, so the worker
count never changes any output.
"""

from __future__ import annotations

import multiprocessing
import sys
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .involutions import (
    DEFAULT_MAX_DEGREE,
    FpfInvolution,
    SizeLimitError,
    all_transpositions,
    enumerate_fpf,
    fpf_count,
    rank,
    _conjugate_word,
)
from .patterns import avoids_all_bad


@dataclass(eq=False)
class PosetTables:
    two_n: int
    elements: tuple[FpfInvolution, ...]
    index: dict[tuple[int, ...], int]
    ranks: np.ndarray
    # leq[m, p] is True iff elements[m] <= elements[p] in reverse order.
    leq: np.ndarray
    # 0/1 matrix; entry (m, v) set iff element v is a conjugate t*m*t != m.
    neighbors: sparse.csr_matrix


_TABLES: dict[int, PosetTables] = {}
_WORK: dict = {}

# Largest dense leq matrix a sweep may allocate: one byte per pair, so
# 2n = 12 needs 108 MB and 2n = 14 would need 18.3 GB.
DENSE_BUDGET_BYTES = 2_000_000_000


def check_dense_budget(two_n: int) -> None:
    """Refuse, before anything is enumerated, a degree whose leq matrix exceeds the budget."""
    need = fpf_count(two_n // 2) ** 2
    if need > DENSE_BUDGET_BYTES:
        raise SizeLimitError(
            f"degree {two_n}: the dense order matrix needs {need / 1e9:.1f} GB,"
            f" over the {DENSE_BUDGET_BYTES / 1e9:.1f} GB budget of the sweep"
        )


def poset_tables(two_n: int, workers: int = 1, max_degree: int = DEFAULT_MAX_DEGREE) -> PosetTables:
    cached = _TABLES.get(two_n)
    if cached is not None:
        return cached
    check_dense_budget(two_n)
    elements = enumerate_fpf(two_n // 2, max_degree)
    index = {el.word: m for m, el in enumerate(elements)}
    ranks = np.array([rank(el) for el in elements], dtype=np.int16)
    counts = _prefix_count_matrix(elements, two_n)
    leq = _leq_matrix(counts, workers)
    neighbors = _neighbor_matrix(elements, index, two_n)
    tables = PosetTables(two_n, elements, index, ranks, leq, neighbors)
    _TABLES[two_n] = tables
    return tables


def _prefix_count_matrix(elements: tuple[FpfInvolution, ...], two_n: int) -> np.ndarray:
    # Row m holds the flattened table c(i, v) = #{k <= i : word[k] <= v};
    # comparison of two such tables decides prefix dominance.
    out = np.empty((len(elements), two_n * two_n), dtype=np.int8)
    for m, el in enumerate(elements):
        hits = np.zeros((two_n, two_n), dtype=np.int16)
        hits[np.arange(two_n), np.array(el.word) - 1] = 1
        out[m] = hits.cumsum(axis=0).cumsum(axis=1).astype(np.int8).ravel()
    return out


def _leq_block(bounds: tuple[int, int]) -> tuple[int, np.ndarray]:
    lo, hi = bounds
    counts = _WORK["counts"]
    block = np.empty((counts.shape[0], hi - lo), dtype=bool)
    for p in range(lo, hi):
        block[:, p - lo] = (counts[p] >= counts).all(axis=1)
    return lo, block


def _leq_matrix(counts: np.ndarray, workers: int) -> np.ndarray:
    n_elems = counts.shape[0]
    leq = np.empty((n_elems, n_elems), dtype=bool)
    chunks = _chunk_ranges(n_elems, workers)
    for lo, block in _map_ordered(_leq_block, chunks, workers, {"counts": counts}):
        leq[:, lo : lo + block.shape[1]] = block
    return leq


def _neighbor_matrix(
    elements: tuple[FpfInvolution, ...],
    index: dict[tuple[int, ...], int],
    two_n: int,
) -> sparse.csr_matrix:
    transpositions = [(t.a, t.d) for t in all_transpositions(two_n)]
    rows: list[int] = []
    cols: list[int] = []
    for m, el in enumerate(elements):
        seen = set()
        for a, d in transpositions:
            w2 = _conjugate_word(el.word, a, d)
            if w2 != el.word:
                seen.add(index[w2])
        rows.extend([m] * len(seen))
        cols.extend(sorted(seen))
    data = np.ones(len(rows), dtype=np.float64)
    n_elems = len(elements)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n_elems, n_elems))


@dataclass(frozen=True)
class OrbitSurveyRow:
    """Per-involution verdicts of the three smoothness tests."""

    word: str
    rank: int
    avoids: bool
    palindromic: bool
    regular: bool

    @property
    def consistent(self) -> bool:
        return self.avoids == self.palindromic == self.regular


def _survey_block(bounds: tuple[int, int]) -> tuple[int, list[OrbitSurveyRow]]:
    lo, hi = bounds
    tables: PosetTables = _WORK["tables"]
    block = tables.leq[:, lo:hi]
    degrees = tables.neighbors @ block.astype(np.float64)
    rows = []
    for p in range(lo, hi):
        members = block[:, p - lo]
        top_rank = int(tables.ranks[p])
        regular = bool((degrees[members, p - lo] == top_rank).all())
        hist = np.bincount(tables.ranks[members].astype(np.int64))
        palindromic = bool(np.array_equal(hist, hist[::-1]))
        avoids = avoids_all_bad(tables.elements[p])
        rows.append(
            OrbitSurveyRow(str(tables.elements[p]), top_rank, avoids, palindromic, regular)
        )
    return lo, rows


def theorem_survey(two_n: int, workers: int = 1) -> tuple[OrbitSurveyRow, ...]:
    """Avoidance, palindromicity, and regularity verdicts for all of I_2n."""
    tables = poset_tables(two_n, workers)
    n_elems = len(tables.elements)
    merged: list[OrbitSurveyRow] = []
    chunks = _chunk_ranges(n_elems, workers, target=1024)
    for _, rows in _map_ordered(_survey_block, chunks, workers, {"tables": tables}):
        merged.extend(rows)
    return tuple(merged)


def _chunk_ranges(total: int, workers: int, target: int = 4096) -> list[tuple[int, int]]:
    width = max(1, min(target, -(-total // max(1, workers))))
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


def _map_ordered(fn, chunks, workers: int, work: dict):
    """Run fn over chunks, optionally on a fork pool, yielding in chunk order."""
    _WORK.clear()
    _WORK.update(work)
    try:
        if workers > 1 and len(chunks) > 1:
            try:
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(processes=workers) as pool:
                    results = pool.map(fn, chunks)
                results.sort(key=lambda pair: pair[0])
                yield from results
                return
            except (OSError, ValueError) as exc:
                print(f"worker pool unavailable ({exc}); running serially", file=sys.stderr)
        for chunk in chunks:
            yield fn(chunk)
    finally:
        _WORK.clear()
