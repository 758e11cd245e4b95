import time

import pytest

import reference
import run


def _sampler(runs):
    s = reference.Sampler()
    s.runs = list(runs)
    return s


def test_kernel_result_never_changes():
    assert reference.kernel() == reference.kernel() == 50


def test_sampler_runs_the_kernel_and_stops():
    deadline = time.monotonic() + 10
    with reference.Sampler(period_s=0.001) as s:
        while len(s.runs) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert len(s.runs) >= 3
    assert not s._thread.is_alive()
    assert all(cpu > 0 for _, cpu in s.runs)


def test_around_averages_the_runs_in_the_widened_window():
    s = _sampler([(0, 1.0), (1_000_000_000, 2.0), (2_000_000_000, 4.0), (5_000_000_000, 8.0)])
    # [1.2 s, 1.6 s] widened by 0.5 s covers the runs at 1 s and 2 s.
    assert s.around(1_200_000_000, 1_600_000_000, window_s=0.5) == 3.0
    assert s.around(0, 5_000_000_000, window_s=0.0) == 15.0 / 4


def test_around_falls_back_to_the_nearest_run():
    s = _sampler([(0, 1.0), (10_000_000_000, 2.0)])
    assert s.around(8_000_000_000, 8_500_000_000, window_s=0.1) == 2.0
    with pytest.raises(LookupError):
        _sampler([]).around(0, 1)


def test_class_metrics_divide_each_op_by_its_own_reference():
    # The box halves its speed between the two sessions: raw latencies
    # double, latencies in reference runs do not.
    fast = {"samples": [["a", 0.010, 0.001], ["b", 0.5, 0.001]], "setup_s": 0.4, "wall_s": 1.0, "peak_rss_mb": 50.0}
    slow = {"samples": [["a", 0.020, 0.002], ["b", 1.0, 0.002], ["a", None, 0.002]], "setup_s": 0.6,
            "wall_s": 2.0, "peak_rss_mb": 52.0}
    metrics, detail = run.end_to_end("flags", [{"setup_s": 0.5}], [fast, slow])
    assert metrics["a_p50_ref"] == pytest.approx(10.0)
    assert metrics["b_p50_ref"] == pytest.approx(500.0)
    assert metrics["wall_ref"] == pytest.approx(510.0)
    assert (metrics["setup_s"], metrics["peak_rss_mb"]) == (0.5, 51.0)
    assert detail["a_p50_ms"] == pytest.approx(15.0) and detail["wall_s"] == 1.5
