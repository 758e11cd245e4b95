"""Command-line front end.

Exit codes: 0 success/verified, 1 verification mismatch, 2 input error,
3 resource cap exceeded.  All output is deterministic for fixed inputs.
Each `cmd_*` handler returns ``(code, payload, lines)``, and `main`, the
only code that writes stdout, prints the JSON payload for ``--output json``
and the text (or DOT) lines otherwise.  The lines are lazy where the
output grows with the input, and where building them would slow a JSON
query.  `verify-theorem` runs the whole-poset sweep of `sweep`; its
regularity column is the edge-count test described there.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import chain, islice
from typing import Callable, NamedTuple

from .involutions import (
    DEFAULT_MAX_DEGREE,
    InvolutionError,
    SizeLimitError,
    _excerpt,
    _natural,
    _text,
    check_degree,
    corner_counts,
    enumerate_words,
    format_word,
    parse_involution,
    rank,
    w0,
)
from .bruhat import (
    PatternObstruction,
    bracket_product,
    factor_rank_poly,
    interval,
    rank_poly,
    is_palindromic,
    is_rationally_smooth,
    reverse_leq,
)
from .patterns import BAD_PATTERNS, BOTTOM_VERTEX_TABLE, SEARCH_MAX_DEGREE, bad_pattern_witness
from .graphs import (
    _vertex_names,
    bottom_edge_labels,
    build_graph,
    dot_lines,
    edge_rows,
    graph_to_json,
    rationally_singular_locus,
)
from .geometry import FlagError, classify_flag, parse_flag_json

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAP = 3

# The CLI's degree cap; --max-degree-override raises it up to DEFAULT_MAX_DEGREE.
DEFAULT_CLI_MAX_DEGREE = 10

# The most letters `rank` and `order` read: both take time quadratic in the
# word length (about 0.7 s and 1.7 s at 8000 letters, 2 cores, Python 3.11).
WORD_MAX_DEGREE = 8192


def _involution(text: str, cap: int):
    """An involution argument, refused before any work beyond the degree cap."""
    pi = parse_involution(text)
    check_degree(pi.degree, cap)
    return pi


def _locus_json(locus) -> dict:
    """The locus as text, read from its packed words: no involution is built."""
    members = [_text(p, locus.two_n) for p in locus.words]
    maximal = [m for p, m in zip(locus.words, members) if p in locus.maximal_words]
    return {"members": members, "maximal": maximal}


def cmd_enumerate(args, cap: int):
    check_degree(args.degree, cap, "--degree")
    words = list(map(format_word, enumerate_words(args.degree // 2)))
    payload = {
        "schema": "sporbits.enumerate/1",
        "degree": args.degree,
        "count": len(words),
        "involutions": words,
    }
    return EXIT_OK, payload, words


def cmd_rank(args, cap: int):
    pi = _involution(args.involution, WORD_MAX_DEGREE)
    r = rank(pi)
    return EXIT_OK, {"schema": "sporbits.rank/1", "involution": str(pi), "rank": r}, [str(r)]


def cmd_order(args, cap: int):
    mu = _involution(args.mu, WORD_MAX_DEGREE)
    pi = _involution(args.pi, WORD_MAX_DEGREE)
    below = reverse_leq(mu, pi)
    above = reverse_leq(pi, mu)
    relation = "equal" if below and above else "mu < pi" if below else "mu > pi" if above else "incomparable"
    payload = {
        "schema": "sporbits.order/1",
        "mu": str(mu),
        "pi": str(pi),
        "mu_leq_pi": below,
        "pi_leq_mu": above,
        "relation": relation,
    }
    lines = [f"mu <= pi: {str(below).lower()}", f"pi <= mu: {str(above).lower()}"]
    return EXIT_OK, payload, lines + [f"relation: {relation}"]


def cmd_interval(args, cap: int):
    pi = _involution(args.involution, cap)
    iv = interval(pi)
    members = [{"involution": _text(p, iv.two_n), "rank": r} for p, r in zip(iv.words, iv.ranks)]
    payload = {
        "schema": "sporbits.interval/1",
        "top": str(pi),
        "count": len(members),
        "members": members,
    }
    return EXIT_OK, payload, (f"{m['involution']} {m['rank']}" for m in members)


def cmd_poly(args, cap: int):
    pi = _involution(args.involution, cap)
    poly = rank_poly(pi)
    palin = is_palindromic(poly)
    payload = {
        "schema": "sporbits.poly/1",
        "involution": str(pi),
        "coeffs": poly.to_json(),
        "palindromic": palin,
    }
    return EXIT_OK, payload, [
        f"rank polynomial of {pi}: {payload['coeffs']}",
        f"palindromic: {'yes' if palin else 'no'}",
    ]


def cmd_factor(args, cap: int):
    pi = _involution(args.involution, SEARCH_MAX_DEGREE)
    payload = {"schema": "sporbits.factor/1", "involution": str(pi)}
    try:
        exponents = factor_rank_poly(pi)
    except PatternObstruction as exc:
        # A refusal prints nothing on stdout in text mode: its reason goes to stderr.
        if args.output == "text":
            print(f"refused: {exc}", file=sys.stderr)
        return EXIT_INPUT, {**payload, "refused": True, "witness": exc.witness.to_json()}, ()
    product = bracket_product(exponents).to_json()
    payload.update(refused=False, exponents=list(exponents), product=product)
    return EXIT_OK, payload, [f"bracket exponents: {list(exponents)}", f"product: {product}"]


def cmd_graph(args, cap: int):
    pi = _involution(args.involution, cap)
    bottom = w0(pi.n) if args.bottom is None else _involution(args.bottom, cap)
    g = build_graph(bottom, pi)
    if args.output == "dot":
        return EXIT_OK, None, dot_lines(g)
    # The JSON form is as large as the graph: build it only to print it.
    payload = graph_to_json(g) if args.output == "json" else None
    header = [
        f"interval [{g.bottom}, {g.top}]: {len(g.interval.words)} vertices, {g.edge_count} edges",
        f"rank gap: {g.rank_gap}",
    ]
    edges = (f"{u} -- {v} [{labels}]" for u, v, labels in edge_rows(g, _vertex_names(g)))
    return EXIT_OK, payload, chain(header, edges)


def cmd_avoid(args, cap: int):
    pi = _involution(args.involution, SEARCH_MAX_DEGREE)
    witness = bad_pattern_witness(pi)
    payload = {
        "schema": "sporbits.avoid/1",
        "involution": str(pi),
        "avoids": witness is None,
        "witness": None if witness is None else witness.to_json(),
    }
    if witness is None:
        return EXIT_OK, payload, [f"{pi} avoids all {len(BAD_PATTERNS)} bad patterns"]
    return EXIT_OK, payload, [f"{pi} contains {witness}"]


def cmd_analyze(args, cap: int):
    pi = _involution(args.involution, cap)
    if args.output == "dot":
        return EXIT_OK, None, dot_lines(build_graph(w0(pi.n), pi))
    # One pattern search: factor_rank_poly refuses with the witness.
    try:
        exponents, witness = factor_rank_poly(pi), None
    except PatternObstruction as exc:
        exponents, witness = None, exc.witness
    poly = rank_poly(pi)
    palin = is_palindromic(poly)
    locus = _locus_json(rationally_singular_locus(pi))
    payload = {
        "schema": "sporbits.analyze/1",
        "involution": str(pi),
        "degree": pi.degree,
        "rank": rank(pi),
        "rationally_smooth": palin,
        "witness": None if witness is None else witness.to_json(),
        "rank_poly": poly.to_json(),
        "factor_exponents": None if exponents is None else list(exponents),
        "singular_locus": locus,
    }

    def lines():
        yield f"involution {pi} (degree {pi.degree})"
        yield f"rank: {payload['rank']}"
        yield f"rationally smooth: {'yes' if palin else 'no'}"
        if witness is None:
            yield "bad pattern: none"
            yield f"factorization exponents: {payload['factor_exponents']}"
        else:
            yield f"bad pattern: {witness}"
            yield "factorization: refused (contains a bad pattern)"
        yield f"rank polynomial: {payload['rank_poly']} ({poly.pretty()})"
        if not locus["members"]:
            yield "rationally singular locus: empty"
        else:
            yield f"rationally singular locus: {', '.join(locus['members'])}"
            yield f"maximal singular orbits: {', '.join(locus['maximal'])}"

    return EXIT_OK, payload, lines()


def cmd_classify(args, cap: int):
    try:
        with open(args.flag_file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FlagError(f"cannot read flag file: {exc}") from exc
    pi = classify_flag(parse_flag_json(text))
    smooth = is_rationally_smooth(pi) if pi.degree <= cap else None
    payload = {
        "schema": "sporbits.classify/1",
        "orbit": str(pi),
        "rank": rank(pi),
        "rationally_smooth": smooth,
    }
    verdict = "skipped (degree beyond cap)" if smooth is None else ("yes" if smooth else "no")
    lines = [f"orbit: {pi}", f"rank: {payload['rank']}", f"rationally smooth: {verdict}"]
    if args.grid:
        # pi's word is the pivots of the flag's pairing matrix, so c_pi is its rank grid.
        grid = corner_counts(pi.word)
        payload["grid"] = [list(row[1:]) for row in grid[1:]]
        lines = chain(lines, (" ".join(str(x) for x in row) for row in payload["grid"]))
    return EXIT_OK, payload, lines


def cmd_singular_locus(args, cap: int):
    pi = _involution(args.involution, cap)
    locus = _locus_json(rationally_singular_locus(pi))
    payload = {"schema": "sporbits.singular_locus/1", "involution": str(pi), **locus}
    if not locus["members"]:
        return EXIT_OK, payload, ["rationally singular locus: empty"]
    maximal = set(locus["maximal"])
    return EXIT_OK, payload, (f"{m} (maximal)" if m in maximal else m for m in locus["members"])


def cmd_export_bad_patterns(args, cap: int):
    patterns = [str(p) for p in BAD_PATTERNS]
    payload = {"schema": "sporbits.bad_patterns/1", "count": len(patterns), "patterns": patterns}
    return EXIT_OK, payload, patterns


def cmd_verify_table(args, cap: int):
    rows, lines = [], []
    for pat in BAD_PATTERNS:
        expected_rank, expected_labels = BOTTOM_VERTEX_TABLE[str(pat)]
        row = {
            "pattern": str(pat),
            "rank": rank(pat),
            "edges": [t.label for t in bottom_edge_labels(pat)],
            "expected_rank": expected_rank,
            "expected_edges": list(expected_labels),
        }
        row["ok"] = row["rank"] == expected_rank and row["edges"] == row["expected_edges"]
        rows.append(row)
        status = "ok" if row["ok"] else "DIFF"
        lines.append(f"{pat}  rank {row['rank']}  edges {','.join(row['edges'])}  {status}")
    diffs = [row["pattern"] for row in rows if not row["ok"]]
    payload = {"schema": "sporbits.verify_table/1", "rows": rows, "diffs": diffs, "ok": not diffs}
    if diffs:
        lines.append(f"verify-table: MISMATCH ({len(diffs)} of {len(rows)} rows differ)")
    else:
        lines.append(f"verify-table: OK ({len(rows)} rows)")
    return EXIT_OK if not diffs else EXIT_MISMATCH, payload, lines


def cmd_verify_theorem(args, cap: int):
    # Imported here, so the per-element commands do not load the sweep.
    from . import sweep

    top_degree = args.degree if args.degree is not None else cap
    check_degree(top_degree, cap, "--degree")
    degree_reports = []
    lines = []
    for two_n in range(2, top_degree + 1, 2):
        survey = sweep.theorem_survey(two_n)
        mismatches = [
            {
                "involution": row.word,
                "avoids": row.avoids,
                "palindromic": row.palindromic,
                "regular": row.regular,
            }
            for row in survey.mismatches
        ]
        count, smooth = survey.count, survey.smooth
        degree_reports.append({"degree": two_n, "count": count, "smooth": smooth, "mismatches": mismatches})
        verdict = f"{len(mismatches)} MISMATCHES" if mismatches else "equivalence holds"
        lines.append(f"degree {two_n}: {count} involutions, {smooth} rationally smooth, {verdict}")
        lines += (
            f"  counterexample {bad['involution']}: avoids={bad['avoids']} "
            f"palindromic={bad['palindromic']} regular={bad['regular']}"
            for bad in mismatches
        )
    all_ok = not any(rep["mismatches"] for rep in degree_reports)
    lines.append(f"verify-theorem: {'OK' if all_ok else 'MISMATCH'} (degrees 2..{top_degree})")
    payload = {
        "schema": "sporbits.verify_theorem/1",
        "max_degree": top_degree,
        "degrees": degree_reports,
        "ok": all_ok,
    }
    return EXIT_OK if all_ok else EXIT_MISMATCH, payload, lines


def _digits(text: str) -> int:
    """An integer option's value: ASCII digits only, never another script's."""
    if (value := _natural(text)) is None:
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {_excerpt(text)}")
    return value


class Command(NamedTuple):
    """One subcommand: `build_parser` adds its arguments, `main` calls its handler."""
    name: str
    handler: Callable
    help: str
    positionals: tuple[str, ...] = ("involution",)
    # (option string, add_argument keywords)
    options: tuple[tuple[str, dict], ...] = ()
    # Only the commands that render a graph accept --output dot.
    dot: bool = False
    # Only the commands that read the degree cap accept --max-degree-override.
    capped: bool = True


COMMANDS = (
    Command("enumerate", cmd_enumerate, "list all involutions of a degree", (),
            (("--degree", {"type": _digits, "required": True}),)),
    Command("rank", cmd_rank, "poset rank of an involution", capped=False),
    Command("order", cmd_order, "compare two involutions in reverse order", ("mu", "pi"), capped=False),
    Command("interval", cmd_interval, "all involutions below a given one"),
    Command("poly", cmd_poly, "rank generating polynomial of the lower interval"),
    Command("factor", cmd_factor, "bracket factorization of the rank polynomial", capped=False),
    Command("graph", cmd_graph, "interval graph; --output dot for DOT", options=(("--bottom", {}),),
            dot=True),
    Command("avoid", cmd_avoid, "check the 17 bad patterns", capped=False),
    Command("analyze", cmd_analyze, "full smoothness report for one involution", dot=True),
    Command("classify", cmd_classify, "orbit of a flag matrix from a JSON file", ("flag_file",),
            (("--grid", {"action": "store_true", "help": "also print the pairing rank grid"}),)),
    Command("verify-theorem", cmd_verify_theorem, "exhaustive three-way equivalence sweep", (),
            (("--degree", {"type": _digits}),)),
    Command("verify-table", cmd_verify_table, "recompute the 17-row bottom-vertex table", (),
            capped=False),
    Command("singular-locus", cmd_singular_locus, "rationally singular locus of an orbit closure"),
    Command("export-bad-patterns", cmd_export_bad_patterns, "emit the 17-pattern list for audit",
            (), capped=False),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    # Building the parser costs about as much as a small query, and its
    # garbage as much as the query's own, so one process builds it once.
    parser = argparse.ArgumentParser(
        prog="sporbits",
        description="Orbit poset, graph, pattern, and flag computations for the symplectic group "
        "acting on complete flags, parametrized by fixed-point-free involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        for name in cmd.positionals:
            p.add_argument(name)
        for option, kwargs in cmd.options:
            p.add_argument(option, **kwargs)
        formats = ("text", "json", "dot") if cmd.dot else ("text", "json")
        p.add_argument("--output", choices=formats, default="text")
        if cmd.capped:
            p.add_argument("--max-degree-override", type=_digits)
        p.set_defaults(handler=cmd.handler, max_degree_override=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cap = DEFAULT_CLI_MAX_DEGREE
        if args.max_degree_override is not None:
            check_degree(args.max_degree_override, DEFAULT_MAX_DEGREE, "--max-degree-override")
            cap = args.max_degree_override
        code, payload, lines = args.handler(args, cap)
    except (SizeLimitError, InvolutionError, FlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, SizeLimitError) else EXIT_INPUT
    if args.output == "json":
        # Written in batches of the encoder's chunks, never as one string.
        chunks = json.JSONEncoder(indent=2).iterencode(payload)
        while batch := list(islice(chunks, 1 << 14)):
            sys.stdout.write("".join(batch))
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
