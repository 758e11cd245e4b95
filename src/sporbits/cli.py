"""Command-line front end.

Exit codes: 0 success/verified, 1 verification mismatch, 2 input error,
3 resource cap exceeded.  All output is deterministic for fixed inputs.
`verify-theorem` runs the whole-poset sweep of `sweep` serially; its
regularity column is the edge-count test described there.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import lru_cache

from .involutions import (
    InvolutionError,
    SizeLimitError,
    fpf_count,
    parse_involution,
    rank,
    w0,
)
from .bruhat import (
    PatternObstruction,
    bracket_product,
    factor_rank_poly,
    rank_poly,
    is_palindromic,
    reverse_leq,
)
from .patterns import BAD_PATTERNS, BOTTOM_VERTEX_TABLE, bad_pattern_witness
from .graphs import (
    bottom_edge_labels,
    build_graph,
    graph_to_json,
    rationally_singular_locus,
    to_dot,
)
from .geometry import FlagError, _corner_counts, classify_flag, parse_flag_json

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAP = 3

DEFAULT_CLI_MAX_DEGREE = 10
HARD_MAX_DEGREE = 14


@dataclass(frozen=True)
class RunConfig:
    max_degree: int = DEFAULT_CLI_MAX_DEGREE
    output: str = "text"


def _config_from(args: argparse.Namespace) -> RunConfig:
    max_degree = DEFAULT_CLI_MAX_DEGREE
    if args.max_degree_override is not None:
        override = args.max_degree_override
        if override % 2 or override < 2:
            raise InvolutionError(f"--max-degree-override must be even and >= 2, got {override}")
        if override > HARD_MAX_DEGREE:
            raise SizeLimitError(f"--max-degree-override {override} exceeds hard maximum {HARD_MAX_DEGREE}")
        max_degree = override
    return RunConfig(max_degree, args.output)


def _check_degree(degree: int, cfg: RunConfig, what: str) -> None:
    if degree % 2 or degree < 2:
        raise InvolutionError(f"{what} must be a positive even degree, got {degree}")
    if degree > cfg.max_degree:
        raise SizeLimitError(
            f"{what} {degree} exceeds the configured cap {cfg.max_degree}"
            " (raise it with --max-degree-override)"
        )


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_enumerate(args, cfg: RunConfig) -> int:
    from .involutions import enumerate_fpf

    _check_degree(args.degree, cfg, "--degree")
    elems = enumerate_fpf(args.degree // 2, max_degree=cfg.max_degree)
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.enumerate/1",
                "degree": args.degree,
                "count": len(elems),
                "involutions": [str(p) for p in elems],
            }
        )
    else:
        for p in elems:
            print(p)
    return EXIT_OK


def cmd_rank(args, cfg: RunConfig) -> int:
    pi = parse_involution(args.involution)
    r = rank(pi)
    if cfg.output == "json":
        _emit_json({"schema": "sporbits.rank/1", "involution": str(pi), "rank": r})
    else:
        print(r)
    return EXIT_OK


def cmd_order(args, cfg: RunConfig) -> int:
    mu = parse_involution(args.mu)
    pi = parse_involution(args.pi)
    below = reverse_leq(mu, pi)
    above = reverse_leq(pi, mu)
    if below and above:
        relation = "equal"
    elif below:
        relation = "mu < pi"
    elif above:
        relation = "mu > pi"
    else:
        relation = "incomparable"
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.order/1",
                "mu": str(mu),
                "pi": str(pi),
                "mu_leq_pi": below,
                "pi_leq_mu": above,
                "relation": relation,
            }
        )
    else:
        print(f"mu <= pi: {str(below).lower()}")
        print(f"pi <= mu: {str(above).lower()}")
        print(f"relation: {relation}")
    return EXIT_OK


def cmd_interval(args, cfg: RunConfig) -> int:
    from .bruhat import interval

    pi = parse_involution(args.involution)
    _check_degree(pi.degree, cfg, "degree")
    iv = interval(pi, max_degree=cfg.max_degree)
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.interval/1",
                "top": str(pi),
                "count": len(iv.members),
                "members": [
                    {"involution": str(mu), "rank": iv.rank_of[mu]} for mu in iv.members
                ],
            }
        )
    else:
        for mu in iv.members:
            print(f"{mu} {iv.rank_of[mu]}")
    return EXIT_OK


def cmd_poly(args, cfg: RunConfig) -> int:
    pi = parse_involution(args.involution)
    _check_degree(pi.degree, cfg, "degree")
    poly = rank_poly(pi, max_degree=cfg.max_degree)
    palin = is_palindromic(poly)
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.poly/1",
                "involution": str(pi),
                "coeffs": poly.to_json(),
                "palindromic": palin,
            }
        )
    else:
        print(f"rank polynomial of {pi}: {poly.to_json()}")
        print(f"palindromic: {'yes' if palin else 'no'}")
    return EXIT_OK


def cmd_factor(args, cfg: RunConfig) -> int:
    pi = parse_involution(args.involution)
    try:
        exponents = factor_rank_poly(pi)
    except PatternObstruction as exc:
        if cfg.output == "json":
            _emit_json(
                {
                    "schema": "sporbits.factor/1",
                    "involution": str(pi),
                    "refused": True,
                    "witness": exc.witness.to_json(),
                }
            )
        else:
            print(f"refused: {exc}", file=sys.stderr)
        return EXIT_INPUT
    product = bracket_product(exponents)
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.factor/1",
                "involution": str(pi),
                "refused": False,
                "exponents": list(exponents),
                "product": product.to_json(),
            }
        )
    else:
        print(f"bracket exponents: {list(exponents)}")
        print(f"product: {product.to_json()}")
    return EXIT_OK


def cmd_graph(args, cfg: RunConfig) -> int:
    pi = parse_involution(args.involution)
    _check_degree(pi.degree, cfg, "degree")
    bottom = parse_involution(args.bottom) if args.bottom else w0(pi.n)
    g = build_graph(bottom, pi)
    if cfg.output == "dot":
        print(to_dot(g), end="")
    elif cfg.output == "json":
        _emit_json(graph_to_json(g))
    else:
        print(f"interval [{g.bottom}, {g.top}]: {len(g.vertices)} vertices, {g.edge_count} edges")
        print(f"rank gap: {g.rank_gap}")
        for (u, v), ts in g.edge_labels.items():
            print(f"{u} -- {v} [{','.join(t.label for t in ts)}]")
    return EXIT_OK


def cmd_avoid(args, cfg: RunConfig) -> int:
    pi = parse_involution(args.involution)
    witness = bad_pattern_witness(pi)
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.avoid/1",
                "involution": str(pi),
                "avoids": witness is None,
                "witness": None if witness is None else witness.to_json(),
            }
        )
    elif witness is None:
        print(f"{pi} avoids all {len(BAD_PATTERNS)} bad patterns")
    else:
        print(f"{pi} contains {witness}")
    return EXIT_OK


def cmd_analyze(args, cfg: RunConfig) -> int:
    pi = parse_involution(args.involution)
    _check_degree(pi.degree, cfg, "degree")
    if cfg.output == "dot":
        print(to_dot(build_graph(w0(pi.n), pi)), end="")
        return EXIT_OK
    witness = bad_pattern_witness(pi)
    poly = rank_poly(pi, max_degree=cfg.max_degree)
    palin = is_palindromic(poly)
    exponents = None if witness is not None else factor_rank_poly(pi)
    locus = rationally_singular_locus(pi)
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.analyze/1",
                "involution": str(pi),
                "degree": pi.degree,
                "rank": rank(pi),
                "rationally_smooth": palin,
                "witness": None if witness is None else witness.to_json(),
                "rank_poly": poly.to_json(),
                "factor_exponents": None if exponents is None else list(exponents),
                "singular_locus": {
                    "members": [str(m) for m in locus.members],
                    "maximal": [str(m) for m in locus.maximal],
                },
            }
        )
    else:
        print(f"involution {pi} (degree {pi.degree})")
        print(f"rank: {rank(pi)}")
        print(f"rationally smooth: {'yes' if palin else 'no'}")
        if witness is None:
            print("bad pattern: none")
            print(f"factorization exponents: {list(exponents)}")
        else:
            print(f"bad pattern: {witness}")
            print("factorization: refused (contains a bad pattern)")
        print(f"rank polynomial: {poly.to_json()} ({poly.pretty()})")
        if locus.members:
            print(f"rationally singular locus: {', '.join(str(m) for m in locus.members)}")
            print(f"maximal singular orbits: {', '.join(str(m) for m in locus.maximal)}")
        else:
            print("rationally singular locus: empty")
    return EXIT_OK


def cmd_classify(args, cfg: RunConfig) -> int:
    try:
        with open(args.flag_file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FlagError(f"cannot read flag file: {exc}") from exc
    flag = parse_flag_json(text)
    pi = classify_flag(flag)
    smooth = None
    if pi.degree <= cfg.max_degree:
        smooth = is_palindromic(rank_poly(pi, max_degree=cfg.max_degree))
    payload = {
        "schema": "sporbits.classify/1",
        "orbit": str(pi),
        "rank": rank(pi),
        "rationally_smooth": smooth,
    }
    if args.grid:
        # classify_flag has checked the flag's rank grid equal to pi's grid c_pi.
        grid = _corner_counts(pi.word, pi.degree)
        payload["grid"] = [list(row[1:]) for row in grid[1:]]
    if cfg.output == "json":
        _emit_json(payload)
    else:
        print(f"orbit: {pi}")
        print(f"rank: {rank(pi)}")
        if smooth is None:
            print("rationally smooth: skipped (degree beyond cap)")
        else:
            print(f"rationally smooth: {'yes' if smooth else 'no'}")
        if args.grid:
            for row in payload["grid"]:
                print(" ".join(str(x) for x in row))
    return EXIT_OK


def cmd_singular_locus(args, cfg: RunConfig) -> int:
    pi = parse_involution(args.involution)
    _check_degree(pi.degree, cfg, "degree")
    locus = rationally_singular_locus(pi)
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.singular_locus/1",
                "involution": str(pi),
                "members": [str(m) for m in locus.members],
                "maximal": [str(m) for m in locus.maximal],
            }
        )
    else:
        if not locus.members:
            print("rationally singular locus: empty")
        else:
            for m in locus.members:
                marker = " (maximal)" if m in locus.maximal else ""
                print(f"{m}{marker}")
    return EXIT_OK


def cmd_export_bad_patterns(args, cfg: RunConfig) -> int:
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.bad_patterns/1",
                "count": len(BAD_PATTERNS),
                "patterns": [str(p) for p in BAD_PATTERNS],
            }
        )
    else:
        for p in BAD_PATTERNS:
            print(p)
    return EXIT_OK


def cmd_verify_table(args, cfg: RunConfig) -> int:
    diffs = []
    rows = []
    for pat in BAD_PATTERNS:
        expected_rank, expected_labels = BOTTOM_VERTEX_TABLE[str(pat)]
        got_rank = rank(pat)
        got_labels = tuple(t.label for t in bottom_edge_labels(pat))
        ok = got_rank == expected_rank and got_labels == tuple(expected_labels)
        rows.append(
            {
                "pattern": str(pat),
                "rank": got_rank,
                "edges": list(got_labels),
                "expected_rank": expected_rank,
                "expected_edges": list(expected_labels),
                "ok": ok,
            }
        )
        if not ok:
            diffs.append(str(pat))
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.verify_table/1",
                "rows": rows,
                "diffs": diffs,
                "ok": not diffs,
            }
        )
    else:
        for row in rows:
            status = "ok" if row["ok"] else "DIFF"
            print(f"{row['pattern']}  rank {row['rank']}  edges {','.join(row['edges'])}  {status}")
        if diffs:
            print(f"verify-table: MISMATCH ({len(diffs)} of {len(rows)} rows differ)")
        else:
            print(f"verify-table: OK ({len(rows)} rows)")
    return EXIT_OK if not diffs else EXIT_MISMATCH


def cmd_verify_theorem(args, cfg: RunConfig) -> int:
    # Imported here, so the per-element commands do not load the sweep.
    from . import sweep

    top_degree = args.degree if args.degree is not None else cfg.max_degree
    _check_degree(top_degree, cfg, "--degree")
    sweep.check_degree(top_degree)
    if top_degree >= 12:
        print(
            f"warning: degree {top_degree} enumerates {fpf_count(top_degree // 2)} involutions;"
            " this may take a while",
            file=sys.stderr,
        )
    degree_reports = []
    all_ok = True
    for two_n in range(2, top_degree + 1, 2):
        survey = sweep.theorem_survey(two_n)
        mismatches = [
            {
                "involution": row.word,
                "avoids": row.avoids,
                "palindromic": row.palindromic,
                "regular": row.regular,
            }
            for row in survey
            if not row.consistent
        ]
        smooth = sum(1 for row in survey if row.palindromic)
        degree_reports.append(
            {
                "degree": two_n,
                "count": len(survey),
                "smooth": smooth,
                "mismatches": mismatches,
            }
        )
        all_ok = all_ok and not mismatches
    if cfg.output == "json":
        _emit_json(
            {
                "schema": "sporbits.verify_theorem/1",
                "max_degree": top_degree,
                "degrees": degree_reports,
                "ok": all_ok,
            }
        )
    else:
        for rep in degree_reports:
            verdict = "equivalence holds" if not rep["mismatches"] else f"{len(rep['mismatches'])} MISMATCHES"
            print(
                f"degree {rep['degree']}: {rep['count']} involutions, "
                f"{rep['smooth']} rationally smooth, {verdict}"
            )
            for bad in rep["mismatches"]:
                print(
                    f"  counterexample {bad['involution']}: avoids={bad['avoids']} "
                    f"palindromic={bad['palindromic']} regular={bad['regular']}"
                )
        print(f"verify-theorem: {'OK' if all_ok else 'MISMATCH'} (degrees 2..{top_degree})")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _add_common(sub: argparse.ArgumentParser, dot: bool = False) -> None:
    # Only the commands that render a graph accept --output dot.
    formats = ("text", "json", "dot") if dot else ("text", "json")
    sub.add_argument("--output", choices=formats, default="text")
    sub.add_argument("--max-degree-override", type=int, default=None, dest="max_degree_override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sporbits",
        description="Orbit poset, graph, pattern, and flag computations for the symplectic group "
        "acting on complete flags, parametrized by fixed-point-free involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all involutions of a degree")
    p.add_argument("--degree", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("rank", help="poset rank of an involution")
    p.add_argument("involution")
    _add_common(p)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("order", help="compare two involutions in reverse order")
    p.add_argument("mu")
    p.add_argument("pi")
    _add_common(p)
    p.set_defaults(handler=cmd_order)

    p = sub.add_parser("interval", help="all involutions below a given one")
    p.add_argument("involution")
    _add_common(p)
    p.set_defaults(handler=cmd_interval)

    p = sub.add_parser("poly", help="rank generating polynomial of the lower interval")
    p.add_argument("involution")
    _add_common(p)
    p.set_defaults(handler=cmd_poly)

    p = sub.add_parser("factor", help="bracket factorization of the rank polynomial")
    p.add_argument("involution")
    _add_common(p)
    p.set_defaults(handler=cmd_factor)

    p = sub.add_parser("graph", help="interval graph; --output dot for DOT")
    p.add_argument("involution")
    p.add_argument("--bottom", default=None)
    _add_common(p, dot=True)
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("avoid", help="check the 17 bad patterns")
    p.add_argument("involution")
    _add_common(p)
    p.set_defaults(handler=cmd_avoid)

    p = sub.add_parser("analyze", help="full smoothness report for one involution")
    p.add_argument("involution")
    _add_common(p, dot=True)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("classify", help="orbit of a flag matrix from a JSON file")
    p.add_argument("flag_file")
    p.add_argument("--grid", action="store_true", help="also print the pairing rank grid")
    _add_common(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify-theorem", help="exhaustive three-way equivalence sweep")
    p.add_argument("--degree", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_verify_theorem)

    p = sub.add_parser("verify-table", help="recompute the 17-row bottom-vertex table")
    _add_common(p)
    p.set_defaults(handler=cmd_verify_table)

    p = sub.add_parser("singular-locus", help="rationally singular locus of an orbit closure")
    p.add_argument("involution")
    _add_common(p)
    p.set_defaults(handler=cmd_singular_locus)

    p = sub.add_parser("export-bad-patterns", help="emit the 17-pattern list for audit")
    _add_common(p)
    p.set_defaults(handler=cmd_export_bad_patterns)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs about as much as a small query, and its
    # garbage as much as the query's own, so one process builds it once.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        return args.handler(args, cfg)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvolutionError, FlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
