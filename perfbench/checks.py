"""Output checks for each op; each returns the list of problems it found.

Every expected value is derived here or in `fpf` from the op's input alone;
nothing is imported from the package under test.
"""

from __future__ import annotations

import json
import re

from fpf import SMOOTH_COUNTS, Word, double_factorial, fmt, rank

_DEGREE_LINE = re.compile(
    r"degree (\d+): (\d+) involutions, (\d+) rationally smooth, (equivalence holds|.*MISMATCHES)$"
)


def bracket_product(exponents: list[int]) -> list[int]:
    """Coefficients of prod_i (1 + q + ... + q^t_i), lowest degree first."""
    coeffs = [1]
    for t in exponents:
        out = [0] * (len(coeffs) + t)
        for i, c in enumerate(coeffs):
            for k in range(t + 1):
                out[i + k] += c
        coeffs = out
    return coeffs


def rank_grid(word: Word) -> list[list[int]]:
    """grid[i-1][j-1] = #{k <= i : w(k) <= j}, the pairing ranks of the orbit of w."""
    m = len(word)
    return [[sum(1 for k in range(i) if word[k] <= j) for j in range(1, m + 1)] for i in range(1, m + 1)]


def check_sweep(text: str, rc: int, top_degree: int) -> list[str]:
    """verify-theorem text: per-degree counts, smooth counts, no mismatches, OK verdict."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    lines = text.splitlines()
    degrees = list(range(2, top_degree + 1, 2))
    if len(lines) != len(degrees) + 1:
        return problems + [f"expected {len(degrees) + 1} lines, got {len(lines)}"]
    for two_n, line in zip(degrees, lines):
        m = _DEGREE_LINE.match(line)
        if m is None:
            problems.append(f"unparsed line {line!r}")
            continue
        got = tuple(int(x) for x in m.groups()[:3])
        want = (two_n, double_factorial(two_n - 1), SMOOTH_COUNTS[two_n])
        if got != want:
            problems.append(f"degree line {got} != {want}")
        if m.group(4) != "equivalence holds":
            problems.append(f"degree {two_n}: {m.group(4)}")
    if lines[-1] != f"verify-theorem: OK (degrees 2..{top_degree})":
        problems.append(f"verdict line {lines[-1]!r}")
    return problems


def check_analyze(word: Word, text: str, rc: int, has_obstruction: bool) -> list[str]:
    """analyze --output json: the three smoothness views agree and the polynomial fits."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        d = json.loads(text)
        smooth = d["rationally_smooth"]
        witness = d["witness"]
        members = d["singular_locus"]["members"]
        maximal = d["singular_locus"]["maximal"]
        poly = d["rank_poly"]
        exps = d["factor_exponents"]
        r = d["rank"]
        head = (d["involution"], d["degree"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable analyze output: {exc!r}"]
    problems = []
    if head != (fmt(word), len(word)):
        problems.append(f"header {head} does not name the query {fmt(word)}")
    if r != rank(word):
        problems.append(f"rank {r} != {rank(word)}")
    if not (smooth == (witness is None) == (not members)):
        problems.append(f"smooth={smooth}, witness={witness is not None}, locus size {len(members)} disagree")
    if not set(maximal) <= set(members) or bool(maximal) != bool(members):
        problems.append("maximal elements are not a non-empty subset of a non-empty locus")
    if len(poly) - 1 != r or poly[0] != 1:
        problems.append(f"rank polynomial {poly} does not run from 1 up to degree {r}")
    if smooth != (poly == poly[::-1]):
        problems.append(f"smooth={smooth} but palindromic={poly == poly[::-1]}")
    if witness is None:
        if exps is None or bracket_product(exps) != poly:
            problems.append(f"bracket exponents {exps} do not expand to {poly}")
    elif exps is not None:
        problems.append("factor exponents given for an involution with an obstruction")
    if has_obstruction and witness is None:
        problems.append("no witness for an involution built around an obstruction pattern")
    return problems


def check_classify(word: Word, text: str, rc: int, smooth_cap: int) -> list[str]:
    """classify --grid --output json: the orbit is the source involution, the grid its ranks."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        d = json.loads(text)
        orbit, r, grid, smooth = d["orbit"], d["rank"], d["grid"], d["rationally_smooth"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable classify output: {exc!r}"]
    problems = []
    if orbit != fmt(word):
        problems.append(f"orbit {orbit} != source {fmt(word)}")
    if r != rank(word):
        problems.append(f"rank {r} != {rank(word)}")
    if grid != rank_grid(word):
        problems.append("pairing rank grid differs from #{k <= i : w(k) <= j}")
    if (smooth is None) != (len(word) > smooth_cap):
        problems.append(f"smoothness {smooth} at degree {len(word)} (cap {smooth_cap})")
    return problems
