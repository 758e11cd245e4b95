"""Seeded op lists for the three workloads.

A session is one fresh interpreter that runs one workload's op list in order,
closed loop, as a single client.  Each op belongs to class "a" or "b", or
"w" for a warm-up op that counts only in the session's wall; the end-to-end
latency metrics are reported per class:

- sweep12: a = the exhaustive sweep to 2n = 12 on a cold interpreter,
  b = the same command again, with the package's per-degree tables warm,
  so b is the survey pass alone.
- queries: w = one first local query, which fills the enumeration cache;
  a = "local" analyze queries on low-rank involutions at 2n = 14,
  whose intervals are under 1% of the poset; b = "global" queries whose
  interval is (nearly) the whole degree: the top element at 2n = 12 plus
  involutions at 2n = 10 built around an obstruction pattern, so that the
  singular locus and its maximal-element scan are never empty.
- flags: a = build a flag in a seeded orbit, move it by a seeded symplectic
  matrix and serialize it; b = classify that flag back to its orbit.

Inputs come only from the seed; the package under test is not consulted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import fpf

SWEEP_DEGREE = 12
LOCAL_DEGREE = 14
LOCAL_MAX_RANK = 4
LOCAL_QUERIES = 20
GLOBAL_DEGREE = 12
OBSTRUCTED_DEGREE = 10
# With the whole-poset query the global class has 20 samples, so its tail
# is its maximum: the whole-poset query.
OBSTRUCTED_QUERIES = 19
# An analyze query's cost grows with the rank of its involution; one fixed
# rank keeps the global class's median from following the seed.
OBSTRUCTED_RANK = 13
FLAG_PAIRS = 45
# The CLI's default degree cap; classify reports smoothness only up to it.
CLI_DEFAULT_CAP = 10


@dataclass(frozen=True)
class Op:
    cls: str
    kind: str
    word: fpf.Word = ()
    argv: tuple[str, ...] = ()
    obstructed: bool = False
    seed: int = 0


def _analyze(cls: str, word: fpf.Word, obstructed: bool = False) -> Op:
    argv = ("analyze", fpf.fmt(word), "--output", "json")
    if len(word) > CLI_DEFAULT_CAP:
        argv += ("--max-degree-override", str(len(word)))
    return Op(cls, "analyze", word, argv, obstructed)


def sweep12(rng: random.Random) -> list[Op]:
    # Exhaustive: there is no input for the seed to choose.
    argv = ("verify-theorem", "--degree", str(SWEEP_DEGREE), "--max-degree-override", str(SWEEP_DEGREE))
    return [Op("a", "sweep", argv=argv), Op("b", "sweep", argv=argv)]


def queries(rng: random.Random) -> list[Op]:
    low = fpf.low_rank(LOCAL_DEGREE, LOCAL_MAX_RANK)
    # The first query at 2n = 14 also fills the package's enumeration cache
    # (~4x a warm query), once per session; it is timed apart, as "w".
    first, *rest = rng.choices(low, k=LOCAL_QUERIES + 1)
    ops = [_analyze("a", w) for w in rest]
    while len(ops) < LOCAL_QUERIES + OBSTRUCTED_QUERIES:
        word = fpf.with_obstruction(rng, OBSTRUCTED_DEGREE)
        if fpf.rank(word) == OBSTRUCTED_RANK:
            ops.append(_analyze("b", word, obstructed=True))
    rng.shuffle(ops)
    # Queries that follow the whole-poset query run ~30% slower than before
    # it, so it runs last: at a seeded position it would move the medians of
    # both classes with the seed.
    return [_analyze("w", first)] + ops + [_analyze("b", fpf.top(GLOBAL_DEGREE))]


def flags(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(FLAG_PAIRS):
        # Two of every three flags at 2n = 10 keep the class medians inside
        # one degree; the 2n = 12 third sits in the tails.
        two_n = 12 if k % 3 == 2 else 10
        word = fpf.random_fpf(rng, two_n)
        ops.append(Op("a", "build", word, seed=rng.randrange(1 << 31)))
        ops.append(Op("b", "classify", word))
    return ops


WORKLOADS = {"sweep12": sweep12, "queries": queries, "flags": flags}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
