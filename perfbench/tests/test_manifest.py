"""BENCHMARK.json and the code that fills its metrics name the same things."""

import json
import os

import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in _manifest()["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"]) for m in _manifest()["end_to_end"]] == list(run.END_TO_END)


def test_per_layer_metrics_match():
    code = [(m.name, m.unit, m.better) for m in layers.METRICS + (layers.OVERHEAD,)]
    assert [(m["name"], m["unit"], m["better"]) for m in _manifest()["per_layer"]] == code
