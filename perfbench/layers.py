"""Per-layer metrics of the traced run: what is traced, how each metric is read.

The layers are the package's seven modules.  Each metric names the traced
functions it reads (``needs``); if a later refactor removes one of them, the
metric is reported missing instead of failing the run.  ``moves`` names, as
metric@workload, the end-to-end metrics the layer metric is expected to
move, with the op class in brackets; a performance claim names its
mechanism by these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from tracing import FnStats, Tracer

LAYERS = ("involutions", "bruhat", "patterns", "graphs", "geometry", "sweep", "cli")

# Functions called up to ~10^6 times per op record no spans.  The two hottest
# are only counted (a timed wrapper would add ~60% to a query); their time
# stays in their callers' self time.
_LEAVES = (
    "involutions.rank",
    "involutions.format_involution",
    "involutions.all_transpositions",
    "involutions.w0",
    "involutions.encapsulation_count",
    "involutions.delete_pair_standardize",
    "bruhat.is_palindromic",
    "patterns.standardize",
    "geometry.mat_mul",
    "geometry.mat_transpose",
    "geometry.standard_form",
    "geometry.identity_matrix",
    "geometry.matrix_rank",
)
MODES = {
    **{name: "leaf" for name in _LEAVES},
    "bruhat.reverse_leq": "count",
    "involutions.conjugate": "count",
}

BUILD_FUNCTIONS = (
    "geometry.gram_basis_flag",
    "geometry.random_symplectic",
    "geometry.transform_flag",
    "geometry.flag_to_json",
)


def _count_true(st: FnStats, args: tuple, result: Any) -> None:
    st.extra += result is True


def _count_len(st: FnStats, args: tuple, result: Any) -> None:
    st.extra += len(result)


def _count_madds(st: FnStats, args: tuple, result: Any) -> None:
    a, b = args[0], args[1]
    st.extra += len(a) * len(b) * len(b[0])


def _keep_largest(st: FnStats, args: tuple, result: Any) -> None:
    if st.extra == 0 or len(result.elements) > len(st.extra.elements):
        st.extra = result


HOOKS = {
    "bruhat.reverse_leq": _count_true,
    "involutions.enumerate_fpf": _count_len,
    "geometry.mat_mul": _count_madds,
    "sweep.poset_tables": _keep_largest,
}


def layer_of(module_name: str) -> str | None:
    package, _, layer = module_name.partition(".")
    return layer if package == "sporbits" and layer in LAYERS else None


def install(tracer: Tracer, modules: list) -> None:
    tracer.install(modules, layer_of, MODES, HOOKS)


@dataclass
class Trace:
    """What one traced session leaves behind, as the metric readers see it."""

    tracer: Tracer
    import_s: float
    # (hits, misses) added to the rank cache during the session's ops; None
    # if rank is no longer cached.
    rank_cache: tuple[int, int] | None

    def fn(self, name: str) -> FnStats:
        return self.tracer.stats[name]

    def total_s(self, *names: str) -> float:
        return sum(self.fn(n).total_ns for n in names) / 1e9

    def self_s(self, name: str) -> float:
        return self.fn(name).self_ns / 1e9

    def calls(self, name: str) -> int:
        return self.fn(name).calls

    def layer_self_s(self, layer: str) -> float:
        return self.tracer.layer_self_ns(layer) / 1e9

    def layer_busy_s(self, layer: str) -> float:
        return self.tracer.layer_busy_ns(layer) / 1e9

    def rank_cache_counts(self) -> tuple[int, int]:
        if self.rank_cache is None:
            raise LookupError("rank is no longer cached")
        return self.rank_cache

    def tables(self, attr: str):
        # Tables of the largest degree the session built; None if it built none.
        # Raises AttributeError if the tables no longer carry the attribute.
        tables = self.fn("sweep.poset_tables").extra
        return getattr(tables, attr) if tables else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _density(leq) -> float:
    return float(leq.sum()) / leq.size if leq is not None else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    needs: tuple[str, ...]
    read: Callable[[Trace], float]

    @property
    def exact(self) -> bool:
        """Counts must repeat exactly between two traced sessions of one seed."""
        return self.unit in ("count", "bytes")


def _m(name, unit, better, moves, needs, read) -> LayerMetric:
    return LayerMetric(name, unit, better, moves, tuple(needs), read)


RL, CJ, EF = "bruhat.reverse_leq", "involutions.conjugate", "involutions.enumerate_fpf"
LOCUS, LDT, BPW = "graphs.rationally_singular_locus", "graphs.local_degree_test", "patterns.bad_pattern_witness"
PT, TS, MM, RG = "sweep.poset_tables", "sweep.theorem_survey", "geometry.mat_mul", "geometry.rank_grid"

METRICS: tuple[LayerMetric, ...] = (
    _m("involutions.enumerate_s", "s", "lower", "wall_ref@sweep12, a_p50_ref (local)@queries",
       [EF], lambda t: t.total_s(EF)),
    _m("involutions.elements_scanned", "count", "lower", "wall_ref@sweep12, a_p50_ref (local)@queries",
       [EF], lambda t: t.fn(EF).extra),
    _m("involutions.rank_cache_hit_ratio", "ratio", "higher", "wall_ref@sweep12, b_tail_ref (global)@queries",
       ["involutions.rank"], lambda t: _ratio(t.rank_cache_counts()[0], sum(t.rank_cache_counts()))),
    _m("involutions.conjugate_calls", "count", "lower", "wall_ref@sweep12, b_tail_ref (global)@queries",
       [CJ], lambda t: t.calls(CJ)),
    _m("bruhat.reverse_leq_calls", "count", "lower", "a_p50_ref (local), b_tail_ref (global)@queries",
       [RL], lambda t: t.calls(RL)),
    _m("bruhat.reverse_leq_hit_ratio", "ratio", "higher", "a_p50_ref (local), b_tail_ref (global)@queries",
       [RL], lambda t: _ratio(t.fn(RL).extra, t.calls(RL))),
    _m("bruhat.rank_poly_s", "s", "lower", "a_p50_ref (local), b_tail_ref (global)@queries",
       ["bruhat.rank_poly"], lambda t: t.total_s("bruhat.rank_poly")),
    _m("graphs.locus_s", "s", "lower", "b_tail_ref (global)@queries",
       [LOCUS], lambda t: t.total_s(LOCUS)),
    _m("graphs.locus_self_s", "s", "lower", "b_tail_ref (global)@queries",
       [LOCUS], lambda t: t.self_s(LOCUS)),
    _m("graphs.local_degree_tests", "count", "lower", "b_tail_ref (global)@queries",
       [LDT], lambda t: t.calls(LDT)),
    _m("patterns.avoid_s", "s", "lower", "wall_ref@sweep12",
       [BPW], lambda t: t.layer_busy_s("patterns")),
    _m("patterns.avoid_calls", "count", "lower", "wall_ref@sweep12",
       [BPW], lambda t: t.calls(BPW)),
    _m("sweep.tables_s", "s", "lower", "wall_ref, a_p50_ref (cold)@sweep12",
       [PT], lambda t: t.total_s(PT)),
    _m("sweep.survey_self_s", "s", "lower", "wall_ref, b_p50_ref (warm)@sweep12",
       [TS], lambda t: t.self_s(TS)),
    _m("sweep.neighbor_nnz", "count", "lower", "wall_ref@sweep12",
       [PT], lambda t: t.tables("neighbors").nnz if t.tables("neighbors") is not None else 0),
    _m("sweep.leq_bytes", "bytes", "lower", "peak_rss_mb, wall_ref@sweep12",
       [PT], lambda t: t.tables("leq").nbytes if t.tables("leq") is not None else 0),
    _m("sweep.leq_density", "ratio", "lower", "peak_rss_mb, wall_ref@sweep12",
       [PT], lambda t: _density(t.tables("leq"))),
    _m("geometry.build_s", "s", "lower", "a_p50_ref (build)@flags",
       BUILD_FUNCTIONS, lambda t: t.total_s(*BUILD_FUNCTIONS)),
    _m("geometry.parse_s", "s", "lower", "b_p50_ref (classify)@flags",
       ["geometry.parse_flag_json"], lambda t: t.total_s("geometry.parse_flag_json")),
    _m("geometry.classify_self_s", "s", "lower", "b_p50_ref (classify)@flags",
       ["geometry.classify_flag"], lambda t: t.self_s("geometry.classify_flag")),
    _m("geometry.rank_grid_s", "s", "lower", "b_p50_ref (classify), a_p50_ref (build)@flags",
       [RG], lambda t: t.total_s(RG)),
    _m("geometry.rank_grid_calls", "count", "lower", "b_p50_ref (classify), a_p50_ref (build)@flags",
       [RG], lambda t: t.calls(RG)),
    _m("geometry.mat_mul_s", "s", "lower", "b_p50_ref (classify), a_p50_ref (build)@flags",
       [MM], lambda t: t.total_s(MM)),
    _m("geometry.mat_mul_madds", "count", "lower", "b_p50_ref (classify), a_p50_ref (build)@flags",
       [MM], lambda t: t.fn(MM).extra),
    _m("cli.import_s", "s", "lower", "setup_s@every workload",
       [], lambda t: t.import_s),
    _m("cli.self_s", "s", "lower", "setup_s@every workload; wall_ref@queries, flags",
       ["cli.main"], lambda t: t.layer_self_s("cli")),
)

# Reported by run.py from the traced and untraced session walls.
OVERHEAD = LayerMetric("tracing.overhead_pct", "%", "lower", "none: the cost of tracing itself", (), lambda t: 0.0)


def read_all(trace: Trace) -> tuple[dict[str, float], list[str]]:
    """Every metric whose traced functions exist, and the names of the rest."""
    values, missing = {}, []
    for metric in METRICS:
        try:
            if not all(n in trace.tracer.stats for n in metric.needs):
                raise LookupError(metric.name)
            values[metric.name] = metric.read(trace)
        except (LookupError, AttributeError):
            missing.append(metric.name)
    return values, missing
