"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The reference data behind criteria 1 and 3 rests on oracles that
share no code with sporbits: every row of the bottom-vertex table is
rederived from Bruhat order by its definition in test_reference_table (the
two corrected rows are also pinned by the subword oracle in test_bruhat),
and the worked inclusion examples are confirmed by the raw index-subset
search in test_patterns.
"""

import json
import math
import os
import time

import pytest

from sporbits.bruhat import (
    bracket_product,
    factor_rank_poly,
    is_rationally_smooth,
    rank_poly,
    reverse_leq,
)
from sporbits.cli import main as cli_main
from sporbits.geometry import (
    classify_flag,
    gram_basis_flag,
    random_symplectic,
    transform_flag,
)
from sporbits.graphs import is_regular, lemma_check, local_degree_test
from sporbits.involutions import (
    enumerate_fpf,
    parse_involution,
    rank,
    reverse_complement,
)
from sporbits.patterns import BAD_PATTERNS, avoids_all_bad, includes_pattern
from sporbits import sweep

p = parse_involution


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)


def test_criterion_1_table_reproduction(capsys):
    start = time.time()
    code = cli_main(["verify-table", "--output", "json"])
    elapsed = time.time() - start
    data = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        report(
            1,
            "table reproduction",
            code == 0 and data["ok"] and elapsed < 10.0,
            f"diffs={data['diffs']}",
        )
    assert elapsed < 10.0
    assert data["diffs"] == [] and code == 0, (
        "verify-table reports rows that differ from the frozen reference; "
        "tests/test_reference_table.py rederives every row from Bruhat "
        "order by its definition and says which side is wrong"
    )


def test_criterion_2_threeway_equivalence(capsys):
    timings = {}
    ok = True
    for two_n in (4, 6, 8, 10):
        start = time.time()
        rows = sweep.theorem_survey(two_n).rows
        timings[two_n] = time.time() - start
        ok = ok and all(r.consistent for r in rows)
    # spot re-check with the reference per-element path at small degrees
    for two_n in (4, 6):
        for pi in enumerate_fpf(two_n // 2):
            triple = (avoids_all_bad(pi), is_rationally_smooth(pi), is_regular(pi))
            ok = ok and triple[0] == triple[1] == triple[2]
    small_time = timings[4] + timings[6] + timings[8]
    with capsys.disabled():
        report(2, "three-way equivalence, exhaustive to degree 10", ok, str(timings))
    assert ok
    assert small_time <= 1.0, f"degrees up to 8 took {small_time:.2f}s"
    assert timings[10] <= 300.0, f"degree 10 took {timings[10]:.2f}s"


def test_criterion_3_worked_examples(capsys):
    w = includes_pattern(p("47513826"), p("351624"))
    first_ok = w is not None and w.indices == (1, 2, 4, 6, 7, 8)
    # the crossing arcs (1,7) and (2,8) of 78436512 standardize to 3412
    second = includes_pattern(p("78436512"), p("3412"))
    second_ok = second is not None and second.indices == (1, 2, 7, 8)
    third = includes_pattern(p("78436512"), p("351624"))
    third_ok = third is None
    with capsys.disabled():
        report(
            3,
            "worked inclusion examples",
            first_ok and second_ok and third_ok,
            f"witnesses {w}, {second}, {third}",
        )
    assert first_ok
    assert second_ok, (
        "78436512 includes 3412 at the invariant index set (1, 2, 7, 8), the "
        "only one the raw index-subset oracle finds (tests/test_patterns.py)"
    )
    assert third_ok, (
        "78436512 does not include 351624; the raw index-subset oracle finds "
        "no occurrence (tests/test_patterns.py)"
    )


def lemma_triples(n):
    """Every (mu, pi, t) with mu <= pi of degree 2n and t an arc of both."""
    elems = enumerate_fpf(n)
    for pi in elems:
        for mu in elems:
            if reverse_leq(mu, pi):
                yield from ((mu, pi, t) for t in mu.arcs() if pi.has_arc(t))


def lemma_failures(triples):
    reports = ((mu, pi, t, lemma_check(mu, pi, t)) for mu, pi, t in triples)
    return [(str(mu), str(pi), t.label) for mu, pi, t, rep in reports if not (rep.rank_identity and rep.propagation)]


def test_criterion_4_lemma_suite(capsys):
    failures = []
    checked = 0
    for n in (2, 3, 4):
        triples = list(lemma_triples(n))
        failures += lemma_failures(triples)
        checked += len(triples)
    # every triple at degree 8
    assert len(triples) == 2828
    ok = not failures
    with capsys.disabled():
        report(4, "deletion lemma suite", ok, f"{len(failures)} failures of {checked}")
    assert ok, failures[:5]


@pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
def test_criterion_4_lemma_exhaustive_at_ten():
    # All 157 050 triples at degree 10, in 20-40 s.
    triples = list(lemma_triples(5))
    assert len(triples) == 157_050
    assert lemma_failures(triples) == []


def test_criterion_5_degree_lower_bound(capsys):
    failures = []
    for n in (1, 2, 3, 4):
        elems = enumerate_fpf(n)
        for pi in elems:
            for mu in elems:
                if not reverse_leq(mu, pi):
                    continue
                rep = local_degree_test(mu, pi)
                if rep.degree < rep.rank_gap:
                    failures.append((str(mu), str(pi), rep))
    with capsys.disabled():
        report(5, "degree lower bound", not failures, str(failures[:3]))
    assert not failures


def test_criterion_6_factorization(capsys):
    failures = []
    total = 0
    for n in (1, 2, 3, 4, 5):
        for pi in enumerate_fpf(n):
            if not avoids_all_bad(pi):
                continue
            total += 1
            exps = factor_rank_poly(pi)
            product = bracket_product(exps)
            brute = rank_poly(pi)
            two_n, first, last = pi.degree, pi.word[0], pi.word[-1]
            ok = product.coeffs == brute.coeffs and sum(exps) == rank(pi)
            if two_n - first <= last - 1:
                ok = ok and exps[0] == two_n - first
            if not ok:
                failures.append(str(pi))
    with capsys.disabled():
        report(6, "bracket factorization to degree 10", not failures, f"{len(failures)}/{total}")
    assert total == 1 + 3 + 14 + 68 + 320
    assert not failures, failures[:5]


def test_criterion_7_automorphism_stability(capsys):
    images = {str(reverse_complement(b)) for b in BAD_PATTERNS}
    closed = images == {str(b) for b in BAD_PATTERNS}
    fixed = sum(1 for b in BAD_PATTERNS if reverse_complement(b) == b)
    swapped_pairs = (len(BAD_PATTERNS) - fixed) // 2
    structure_ok = closed and fixed == 9 and swapped_pairs == 4
    verdict_ok = True
    for two_n in (2, 4, 6, 8):
        smooth = {row.word: row.palindromic for row in sweep.theorem_survey(two_n).rows}
        for pi in enumerate_fpf(two_n // 2):
            if smooth[str(pi)] != smooth[str(reverse_complement(pi))]:
                verdict_ok = False
    ok = structure_ok and verdict_ok
    with capsys.disabled():
        report(7, "reverse-complement stability", ok, f"fixed={fixed} pairs={swapped_pairs}")
    assert ok


def test_criterion_8_geometry_round_trip(capsys):
    failures = []
    for n in (1, 2, 3, 4):
        for mu in enumerate_fpf(n):
            if classify_flag(gram_basis_flag(mu)) != mu:
                failures.append(str(mu))
    for n in (1, 2, 3):
        mats = [random_symplectic(n, seed=1000 * n + k) for k in range(100)]
        for mu in enumerate_fpf(n):
            flag = gram_basis_flag(mu)
            for s in mats:
                if classify_flag(transform_flag(flag, s)) != mu:
                    failures.append((str(mu), "symplectic action"))
    with capsys.disabled():
        report(8, "flag classifier round trip", not failures, str(failures[:3]))
    assert not failures


def test_criterion_9_enumeration_counts(capsys):
    expected = {2: 1, 4: 3, 6: 15, 8: 105, 10: 945, 12: 10395}
    got = {2 * n: len(enumerate_fpf(n)) for n in range(1, 7)}
    ok = got == expected and all(
        got[2 * n] == math.prod(range(2 * n - 1, 0, -2)) for n in range(1, 7)
    )
    with capsys.disabled():
        report(9, "enumeration counts", ok, str(got))
    assert ok
