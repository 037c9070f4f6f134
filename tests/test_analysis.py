"""Tests for FCT statistics, queue statistics, and report formatting."""

import math

import pytest

from repro.analysis.fct import (ELEPHANT_BUCKET_MIN, MICE_BUCKET_MAX,
                                FCTStats, fct_statistics, normalized_fcts)
from repro.analysis.queues import latency_statistics, queue_length_statistics
from repro.analysis.report import format_result_rows, format_table
from repro.netsim.flow import Flow


def finished_flow(fid, size, fct, src="h0", dst="h1"):
    f = Flow(fid, src, dst, size, start_time=0.0)
    f.finish_time = fct
    return f


class TestFCTStats:
    def test_empty_population(self):
        s = FCTStats.from_values([])
        assert s.count == 0
        assert math.isnan(s.avg)

    def test_percentiles(self):
        vals = list(range(1, 101))
        s = FCTStats.from_values(vals)
        assert s.count == 100
        assert s.avg == pytest.approx(50.5)
        assert s.p50 == pytest.approx(50.5)
        assert s.p99 == pytest.approx(99.01)

    def test_normalized_fcts_ideal_is_one(self):
        rate = 1e9
        size = 1_000_000
        ideal = size * 8 / rate
        f = finished_flow(1, size, ideal)
        out = normalized_fcts([f], rate)
        assert out[0] == pytest.approx(1.0)

    def test_normalized_skips_unfinished(self):
        f1 = finished_flow(1, 1000, 1.0)
        f2 = Flow(2, "h0", "h1", 1000)
        assert len(normalized_fcts([f1, f2], 1e9)) == 1

    def test_bucket_boundaries(self):
        rate = 1e9
        mice = finished_flow(1, MICE_BUCKET_MAX, 1.0)
        mid = finished_flow(2, 500_000, 1.0)
        big = finished_flow(3, ELEPHANT_BUCKET_MIN, 1.0)
        stats = fct_statistics([mice, mid, big], rate)
        assert stats["overall"].count == 3
        assert stats["mice"].count == 1
        assert stats["elephant"].count == 1

    def test_elephant_fallback_to_class_threshold(self):
        """Without any >=10MB flows, >1MB flows fill the elephant bucket."""
        rate = 1e9
        flows = [finished_flow(1, 2_000_000, 1.0),
                 finished_flow(2, 50_000, 0.1)]
        stats = fct_statistics(flows, rate)
        assert stats["elephant"].count == 1

    def test_congested_flow_has_higher_slowdown(self):
        rate = 1e9
        fast = finished_flow(1, 1_000_000, 0.008)   # ideal
        slow = finished_flow(2, 1_000_000, 0.080)   # 10x slowdown
        out = normalized_fcts([fast, slow], rate)
        assert out[1] > out[0] * 5


class TestQueueStats:
    def test_empty(self):
        s = queue_length_statistics([])
        assert s.samples == 0
        assert math.isnan(s.mean_bytes)

    def test_moments(self):
        s = queue_length_statistics([1000.0, 3000.0])
        assert s.mean_bytes == pytest.approx(2000.0)
        assert s.variance_bytes == pytest.approx(1_000_000.0)
        assert s.std_bytes == pytest.approx(1000.0)
        assert s.mean_kb == pytest.approx(2.0)
        assert s.std_kb == pytest.approx(1.0)

    def test_latency_statistics(self):
        samples = [(0.0, 1e-3), (1.0, 3e-3)]
        out = latency_statistics(samples)
        assert out["count"] == 2
        assert out["avg"] == pytest.approx(2e-3)

    def test_latency_empty(self):
        out = latency_statistics([])
        assert out["count"] == 0
        assert math.isnan(out["avg"])


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_nan_rendered_as_dash(self):
        text = format_table(["v"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_format_result_rows(self):
        results = {"pet": {"x": 1.0}, "acc": {"x": 2.0}}
        text = format_result_rows(results, ["x"])
        assert "pet" in text and "acc" in text

    def test_scientific_for_extremes(self):
        text = format_table(["v"], [[1.23e9]])
        assert "e+" in text
