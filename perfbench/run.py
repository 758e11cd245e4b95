"""The sporbits benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {sweep12,queries,flags,all} --seed N --seconds S --trace {0,1}

Each session is a fresh interpreter (perfbench/session.py) running one
workload's op list closed loop, as a single client.

--trace 0 runs sessions until --seconds would be exceeded by another one
(at least one session), between two halves of a set of set-up probes.  It
reports the end-to-end metrics of BENCHMARK.json as medians over the run.
Latencies are reported in ref, runs of a fixed reference kernel timed
around each op (reference.py), because on a shared machine other tenants
move raw times by a third from run to run; the report shows the raw times
beside them.

--trace 1 runs one untraced and two traced sessions, whatever --seconds
says.  It reports the per-layer metrics, the tracing overhead, and fails
if any count differs between the two traced sessions.

--workload all runs every workload untraced and traced and prints every
table; that is the one command for a full report.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record, with the environment,
sample counts and stdout hashes, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import layers
from stats import median, tail
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 8
# Everything, including a slow last session, must end within 180 s.
RUN_BUDGET_S = 165
# Child thread pools stay at one thread: one client on a 2-core box.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("a_p50_ref", "ref"),
    ("a_tail_ref", "ref"),
    ("b_p50_ref", "ref"),
    ("b_tail_ref", "ref"),
)

# What op classes a and b are on each workload, by the names the report uses.
CLASS_NAMES = {
    "sweep12": ("sweep_cold", "sweep_warm"),
    "queries": ("local", "global"),
    "flags": ("build", "classify"),
}


class RunError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one session process to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run budget exhausted")
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(
            cmd + ["--spawn-ns", str(time.monotonic_ns())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"session of {workload} exceeded the run budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"session of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def class_samples(sessions: list[dict], cls: str) -> list[tuple[float, float]]:
    """(latency s, reference kernel s around the op) of the class's successful ops."""
    return [(t, ref) for s in sessions for c, t, ref in s["samples"] if c == cls and t is not None]


def session_wall_ref(session: dict) -> float:
    """A session's successful ops summed, each in ref."""
    return sum(t / ref for _, t, ref in session["samples"] if t is not None)


def end_to_end(workload: str, probes: list[dict], sessions: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics and, for the report, the raw timings and the tails' sample counts.

    Every *_ref metric is in runs of the reference kernel (reference.py): an
    op's latency divided by the kernel's mean time around that op.
    """
    metrics = {
        "setup_s": median([r["setup_s"] for r in probes + sessions]),
        "wall_ref": median([session_wall_ref(s) for s in sessions]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in sessions]),
    }
    detail = {
        "setup_samples": len(probes) + len(sessions),
        "sessions": len(sessions),
        "wall_s": median([s["wall_s"] for s in sessions]),
        "reference_ms": median([ref for s in sessions for _, _, ref in s["samples"]]) * 1e3,
    }
    for cls in ("a", "b"):
        pairs = class_samples(sessions, cls)
        if not pairs:
            continue
        rel = [t / ref for t, ref in pairs]
        raw = [t for t, _ in pairs]
        rel_tail = tail(rel)
        metrics[f"{cls}_p50_ref"] = median(rel)
        metrics[f"{cls}_tail_ref"] = rel_tail.value
        detail[f"{cls}_tail"] = rel_tail.to_json()
        detail[f"{cls}_p50_ms"] = median(raw) * 1e3
        detail[f"{cls}_tail_ms"] = tail(raw).value * 1e3
    warmup = [t for t, _ in class_samples(sessions, "w")]
    if warmup:
        detail["warmup_ms"] = median(warmup) * 1e3
    if workload == "queries":
        detail["global_s"] = median([sum(t for c, t, _ in s["samples"] if c == "b" and t is not None) for s in sessions])
    return metrics, detail


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # Half the probes run before the sessions and half after, so the set-up
    # median samples the machine over the whole run.
    probes = [spawn(workload, seed, deadline, "--probe") for _ in range(SETUP_PROBES // 2)]
    sessions: list[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        sessions.append(spawn(workload, seed, deadline))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - started + longest > seconds:
            break
    probes += [spawn(workload, seed, deadline, "--probe") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    metrics, detail = end_to_end(workload, probes, sessions)
    return {"sessions": sessions, "metrics": metrics, "detail": detail}


def run_traced(workload: str, seed: int, deadline: float, baseline_wall_ref: float | None = None) -> dict:
    """Two traced sessions, compared count by count, and an untraced one unless its wall is given."""
    untraced = [] if baseline_wall_ref is not None else [spawn(workload, seed, deadline)]
    if untraced:
        baseline_wall_ref = session_wall_ref(untraced[0])
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = [
        spawn(workload, seed, deadline, "--trace", "--spans", os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-{k}.jsonl"))
        for k in (1, 2)
    ]
    first, second = (s["layers"] for s in traced)
    metrics = {}
    for m in layers.METRICS:
        if m.name in first and m.name in second:
            metrics[m.name] = first[m.name] if m.exact else (first[m.name] + second[m.name]) / 2
    traced_wall = median([session_wall_ref(s) for s in traced])
    metrics[layers.OVERHEAD.name] = 100.0 * (traced_wall - baseline_wall_ref) / baseline_wall_ref
    return {
        "sessions": untraced + traced,
        "metrics": metrics,
        "missing": sorted(set(traced[0]["missing"]) | set(traced[1]["missing"])),
        "unrepeated": [m.name for m in layers.METRICS if m.exact and m.name in first and first[m.name] != second.get(m.name)],
        "detail": {"untraced_wall_ref": baseline_wall_ref, "traced_wall_ref": traced_wall, "spans": traced[0]["spans"]},
    }


def git_commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, trace: bool, sessions: list[dict]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        **sessions[0].get("versions", {}),
        "commit": git_commit(),
        "seed": seed,
        "tracing": trace,
        "child_threads": CHILD_ENV["OMP_NUM_THREADS"],
    }


def outcome(sessions: list[dict]) -> tuple[int, int, list[str], list[str]]:
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    problems = [p for s in sessions for p in s["problems"]]
    hashes = sorted({s["stdout_sha256"] for s in sessions})
    return attempted, failed, problems, hashes


def report_untraced(workload: str, res: dict, env: dict) -> None:
    attempted, failed, problems, hashes = outcome(res["sessions"])
    m, d = res["metrics"], res["detail"]
    a, b = CLASS_NAMES[workload]
    print(f"== {workload}: untraced, seed {env['seed']}, {d['sessions']} session(s), commit {env['commit'][:12]}")
    print(f"   env: nproc={env['nproc']} cpu={env['cpu']!r} python={env.get('python')} "
          f"numpy={env.get('numpy')} scipy={env.get('scipy')}")
    print(f"   reference kernel: {d['reference_ms']:.4f} ms (median); 1 ref = one kernel run at the time of the op")
    print(f"   {'setup_s':<22}{m['setup_s']:>12.4f} s    median of {d['setup_samples']} spawns")
    print(f"   {'wall_ref':<22}{m['wall_ref']:>12.1f} ref  wall_s {d['wall_s']:.4f} s; median of {d['sessions']} sessions")
    print(f"   {'peak_rss_mb':<22}{m['peak_rss_mb']:>12.1f} MB")
    print(f"   {'fail_ratio':<22}{failed / attempted:>12.4f}      {failed} of {attempted} ops")
    for cls, name in (("a", a), ("b", b)):
        if f"{cls}_p50_ref" not in m:
            print(f"   {name}: no successful op")
            continue
        t = d[f"{cls}_tail"]
        print(f"   {name + '_p50':<22}{m[cls + '_p50_ref']:>12.2f} ref  ({cls}_p50_ref) {d[cls + '_p50_ms']:.3f} ms; "
              f"n={t['samples']}")
        print(f"   {name + '_tail':<22}{m[cls + '_tail_ref']:>12.2f} ref  ({cls}_tail_ref) {d[cls + '_tail_ms']:.3f} ms; "
              f"p{t['percentile']:g} n={t['samples']} beyond={t['beyond']}")
    if "warmup_ms" in d:
        print(f"   {'warmup_ms':<22}{d['warmup_ms']:>12.3f} ms   the session's first op, which fills caches")
    if "global_s" in d:
        print(f"   {'global_s':<22}{d['global_s']:>12.4f} s    global-class seconds per session")
    print(f"   stdout sha256: {', '.join(hashes)}")
    for p in problems:
        print(f"   FAILED {p}")


def report_traced(workload: str, res: dict, env: dict) -> None:
    attempted, failed, problems, hashes = outcome(res["sessions"])
    d = res["detail"]
    print(f"== {workload}: traced, seed {env['seed']}, 2 traced sessions, {d['spans']} spans each")
    for metric in layers.METRICS + (layers.OVERHEAD,):
        value = res["metrics"].get(metric.name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"   {metric.name:<36}{shown:>14} {metric.unit:<6} moves {metric.moves}")
    print(f"   tracing overhead: traced wall {d['traced_wall_ref']:.1f} ref vs untraced {d['untraced_wall_ref']:.1f} ref")
    print(f"   fail_ratio {failed / attempted:.4f} ({failed} of {attempted} ops); stdout sha256: {', '.join(hashes)}")
    for name in res["unrepeated"]:
        print(f"   FAILED count {name} differs between the two traced sessions")
    for p in problems:
        print(f"   FAILED {p}")


def save(workload: str, seed: int, trace: bool, res: dict, env: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": workload, "environment": env, **res}
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def summary(results: list[tuple[str, bool, dict]], prefix: bool) -> dict:
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload, trace, res in results:
        a, f, _, hashes = outcome(res["sessions"])
        attempted, failed = attempted + a, failed + f
        correct = correct and f == 0 and len(hashes) == 1 and not res.get("unrepeated")
        units = {m.name: m.unit for m in layers.METRICS + (layers.OVERHEAD,)} if trace else dict(END_TO_END)
        for name, value in res["metrics"].items():
            metrics[f"{workload}:{name}" if prefix else name] = {"value": value, "unit": units[name]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sporbits benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sporbits", "cli.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'sporbits')}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results: list[tuple[str, bool, dict]] = []
    try:
        for workload in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            baseline = None
            if args.workload == "all" or not args.trace:
                res = run_untraced(workload, args.seed, args.seconds, deadline)
                env = environment(args.seed, False, res["sessions"])
                report_untraced(workload, res, env)
                save(workload, args.seed, False, res, env)
                results.append((workload, False, res))
                baseline = res["metrics"]["wall_ref"]
                deadline = time.monotonic() + RUN_BUDGET_S
            if args.trace:
                res = run_traced(workload, args.seed, deadline, baseline)
                env = environment(args.seed, True, res["sessions"])
                report_traced(workload, res, env)
                save(workload, args.seed, True, res, env)
                results.append((workload, True, res))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary(results, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
