"""The benchmark's traced read-contract, checked against the package.

`perfbench/layers.py` reads each per-layer metric from the traced package:
function names, the `rank` cache, and attributes of the largest
`sweep.poset_tables` result.  A metric it cannot read is reported missing,
and a run that misses a metric listed in BENCHMARK.json is no result.  This
test installs the benchmark's own tracer over the package in a fresh
interpreter, runs one small op of each kind, and reads every metric.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SESSION = r"""
import contextlib, io, json, os, sys, tempfile, time
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "src")]
import layers, tracing
from session import _rank_cache

start = time.monotonic_ns()
import sporbits.cli
import_s = (time.monotonic_ns() - start) / 1e9
from sporbits import bruhat, geometry, graphs, involutions, patterns, sweep

tracer = tracing.Tracer()
layers.install(tracer, [sporbits, involutions, bruhat, patterns, graphs, geometry, sweep, sporbits.cli])
before = _rank_cache(involutions)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    mu = involutions.parse_involution("351624")
    flag = geometry.transform_flag(geometry.gram_basis_flag(mu), geometry.random_symplectic(3, 7))
    path = os.path.join(tmp, "flag.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(geometry.flag_to_json(flag))
    codes = [
        sporbits.cli.main(["verify-theorem", "--degree", "6"]),
        sporbits.cli.main(["analyze", "21563487", "--output", "json"]),
        sporbits.cli.main(["classify", path, "--grid", "--output", "json"]),
    ]
after = _rank_cache(involutions)
cache = None if after is None else (after[0] - before[0], after[1] - before[1])
values, missing = layers.read_all(layers.Trace(tracer, import_s, cache))
print(json.dumps({"codes": codes, "values": values, "missing": missing}))
"""


def test_every_listed_per_layer_metric_is_read():
    proc = subprocess.run(
        [sys.executable, "-c", SESSION, ROOT], capture_output=True, text=True, timeout=300, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["missing"] == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    # run.py computes the overhead from two sessions; it is no layer reading.
    assert set(result["values"]) == listed - {"tracing.overhead_pct"}
    for name, value in result["values"].items():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
    assert result["values"]["sweep.neighbor_nnz"] == 90  # 2 * 45 down-edges at 2n = 6
