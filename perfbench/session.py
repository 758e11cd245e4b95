"""One benchmark session: a fresh interpreter that runs one workload's op list.

    python3 perfbench/session.py --workload W --seed N --spawn-ns T [--trace] [--probe]

``--spawn-ns`` is the monotonic clock reading taken by the parent just before
it started this process; set-up time runs from there until ``sporbits.cli``
is imported.  ``--probe`` stops after the import.  While the ops run, a
reference.Sampler thread times the reference kernel, and each op's sample
carries the kernel's mean time around it.  The CLI's stdout and
stderr are captured per op, so this process's own stdout carries only the
session result: one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import fpf
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# Address-space ceiling for the session, far below the 8 GB of the reference
# box: a memory regression then fails its op with MemoryError instead of
# drawing the kernel's out-of-memory killer onto the machine.
MEMORY_CEILING = 3 << 30
MAX_REPORTED_PROBLEMS = 5


def _rank_cache(involutions) -> tuple[int, int] | None:
    """(hits, misses) of the rank cache so far; None if rank is no longer cached."""
    rank = getattr(involutions, "rank", None)
    info = getattr(getattr(rank, "__wrapped__", rank), "cache_info", None)
    return None if info is None else info()[:2]


def _cli_op(cli, argv: tuple[str, ...]) -> tuple[int, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.monotonic_ns()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.monotonic_ns() - start
    return rc, out.getvalue(), elapsed


class Runner:
    """Runs the ops of one session and checks each output."""

    def __init__(self, flag_path: str) -> None:
        from sporbits import cli, geometry, involutions

        self.cli, self.geometry, self.involutions = cli, geometry, involutions
        self.flag_path = flag_path
        self.stdout_hash = hashlib.sha256()

    def run(self, op: workloads.Op) -> tuple[int, list[str]]:
        """Latency in ns and the problems found in the op's output."""
        if op.kind == "build":
            return self._build(op)
        argv = op.argv
        if op.kind == "classify":
            argv = ("classify", self.flag_path, "--grid", "--output", "json")
        rc, text, elapsed = _cli_op(self.cli, argv)
        self.stdout_hash.update(text.encode())
        if op.kind == "sweep":
            problems = checks.check_sweep(text, rc, workloads.SWEEP_DEGREE)
        elif op.kind == "analyze":
            problems = checks.check_analyze(op.word, text, rc, op.obstructed)
        else:
            problems = checks.check_classify(op.word, text, rc, workloads.CLI_DEFAULT_CAP)
        return elapsed, problems

    def _build(self, op: workloads.Op) -> tuple[int, list[str]]:
        geometry = self.geometry
        start = time.monotonic_ns()
        mu = self.involutions.FpfInvolution(op.word)
        moved = geometry.transform_flag(
            geometry.gram_basis_flag(mu), geometry.random_symplectic(len(op.word) // 2, op.seed)
        )
        text = geometry.flag_to_json(moved)
        elapsed = time.monotonic_ns() - start
        with open(self.flag_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return elapsed, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced session's spans")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))
    # One CPU for the whole session, so the reference sampler gauges the
    # CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import_start = time.monotonic_ns()
    import sporbits.cli  # noqa: F401  (the import is what set-up time measures)

    imported = time.monotonic_ns()
    result: dict = {"setup_s": (imported - args.spawn_ns) / 1e9, "import_s": (imported - import_start) / 1e9}
    if args.probe:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    from sporbits import bruhat, geometry, graphs, involutions, patterns, sweep

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    ops = workloads.build(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    flag_path = os.path.join(OUT_DIR, f"flag-{os.getpid()}.json")
    tracer = None
    if args.trace:
        import layers
        import tracing

        tracer = tracing.Tracer()
        layers.install(tracer, [sporbits, involutions, bruhat, patterns, graphs, geometry, sweep, sporbits.cli])
        cache_before = _rank_cache(involutions)
    runner = Runner(flag_path)

    problems, failed, timed = [], 0, []
    with reference.Sampler() as sampler:
        ready = time.monotonic_ns()
        for number, op in enumerate(ops, start=1):
            if tracer is not None:
                tracer.op = number
            start = time.monotonic_ns()
            try:
                elapsed, found = runner.run(op)
            except Exception:  # an op that raises is a failed op; the session goes on
                elapsed, found = None, [traceback.format_exc(limit=3)]
            if found:
                failed += 1
                problems += [f"op {number} ({op.kind} {fpf.fmt(op.word)}): {p}" for p in found]
            timed.append((op.cls, None if found else elapsed / 1e9, start, time.monotonic_ns()))
        done = time.monotonic_ns()
        # The last ops' windows reach past the end of the loop.
        time.sleep(reference.WINDOW_S)
    # [class, latency s or None if the op failed, mean reference kernel s around the op]
    samples = [[cls, latency, sampler.around(start, end)] for cls, latency, start, end in timed]
    with contextlib.suppress(FileNotFoundError):
        os.remove(flag_path)

    result.update(
        wall_s=(done - ready) / 1e9,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        samples=samples,
        attempted=len(ops),
        failed=failed,
        problems=problems[:MAX_REPORTED_PROBLEMS],
        stdout_sha256=runner.stdout_hash.hexdigest(),
    )
    if tracer is not None:
        after = _rank_cache(involutions)
        cache = None if after is None else (after[0] - cache_before[0], after[1] - cache_before[1])
        trace = layers.Trace(tracer, result["import_s"], cache)
        result["layers"], result["missing"] = layers.read_all(trace)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
