"""Tests for the telemetry subsystem (repro.obs): registry, tracer,
exporters, profiling hooks, and the engine's per-task metric merge."""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.obs.export import OBS_SCHEMA, read_jsonl, write_csv, write_jsonl
from repro.obs.metrics import (MetricsRegistry, NullRegistry, get_registry)
from repro.obs.profile import hot_path_attribution, profile_table, profiled
from repro.obs.trace import NullTracer, Tracer, get_tracer


@pytest.fixture(autouse=True)
def _null_telemetry():
    """Every test starts and ends with the null defaults installed."""
    obs.disable()
    yield
    obs.disable()


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("loop.intervals")
        reg.inc("loop.intervals", 2)
        assert reg.counter_value("loop.intervals") == 3.0

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.inc("netsim.steps", 5, sim="fluid")
        reg.inc("netsim.steps", 7, sim="packet")
        assert reg.counter_value("netsim.steps", sim="fluid") == 5.0
        assert reg.counter_value("netsim.steps", sim="packet") == 7.0
        assert reg.counter_value("netsim.steps") == 0.0

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.inc("x", a=1, b=2)
        reg.inc("x", b=2, a=1)
        assert reg.counter_value("x", b=2, a=1) == 2.0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("ncm.memory_bytes", 100, switch="leaf0")
        reg.set_gauge("ncm.memory_bytes", 40, switch="leaf0")
        assert reg.gauge_value("ncm.memory_bytes", switch="leaf0") == 40.0
        assert reg.gauge_value("ncm.memory_bytes", switch="leaf1") is None

    def test_histogram_summary_stats(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("pet.reward", v)
        stat = reg.histogram_stat("pet.reward")
        assert stat.count == 3
        assert stat.mean == pytest.approx(2.0)
        assert stat.minimum == 1.0 and stat.maximum == 3.0
        assert stat.std == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_histogram_recent_tail_bounded(self):
        reg = MetricsRegistry()
        for i in range(500):
            reg.observe("x", float(i))
        stat = reg.histogram_stat("x")
        assert len(stat.recent) == stat.recent_cap
        assert stat.count == 500                  # summary still exact
        assert stat.recent[-1] == 499.0

    def test_summary_renders_labels(self):
        reg = MetricsRegistry()
        reg.inc("faults", kind="link-down")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 2.0)
        summ = reg.summary()
        assert summ["faults{kind=link-down}"]["value"] == 1.0
        assert summ["g"]["type"] == "gauge"
        assert summ["h"]["type"] == "histogram"

    def test_snapshot_merge_roundtrip(self):
        a = MetricsRegistry()
        a.inc("c", 3, sim="fluid")
        a.set_gauge("g", 9)
        a.observe("h", 1.0)
        a.observe("h", 3.0)
        b = MetricsRegistry()
        b.inc("c", 1, sim="fluid")
        b.merge(a.snapshot())
        assert b.counter_value("c", sim="fluid") == 4.0
        assert b.gauge_value("g") == 9.0
        assert b.histogram_stat("h").count == 2
        assert b.histogram_stat("h").mean == pytest.approx(2.0)

    def test_merge_extra_labels(self):
        a = MetricsRegistry()
        a.inc("loop.intervals", 20)
        b = MetricsRegistry()
        b.merge(a.snapshot(), extra_labels={"task": 3})
        assert b.counter_value("loop.intervals", task=3) == 20.0
        assert b.counter_value("loop.intervals") == 0.0

    def test_snapshot_is_picklable(self):
        import pickle
        a = MetricsRegistry()
        a.inc("c", 2, k="v")
        a.observe("h", 1.5)
        snap = pickle.loads(pickle.dumps(a.snapshot()))
        b = MetricsRegistry()
        b.merge(snap)
        assert b.counter_value("c", k="v") == 2.0

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.clear()
        assert reg.series_names() == []


class TestNullObjects:
    def test_null_registry_is_falsy_noop(self):
        reg = NullRegistry()
        assert not reg
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1.0)
        reg.merge({"counters": [(("c", ()), 5.0)]})
        assert reg.counter_value("c") == 0.0
        assert reg.series_names() == []

    def test_null_tracer_is_falsy_noop(self):
        tr = NullTracer()
        assert not tr
        with tr.span("loop.tick", interval=0):
            tr.event("fault.link-down")
        assert len(tr) == 0

    def test_defaults_are_null(self):
        assert not get_registry()
        assert not get_tracer()
        assert not obs.enabled()

    def test_enable_disable_roundtrip(self):
        reg, tr = obs.enable()
        assert get_registry() is reg and get_tracer() is tr
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_telemetry_context_restores_null(self):
        with obs.telemetry() as (reg, tr):
            reg.inc("c")
            assert obs.enabled()
        assert not obs.enabled()

    def test_telemetry_context_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.telemetry():
                raise RuntimeError("boom")
        assert not obs.enabled()


class TestTracer:
    def test_span_records_duration(self):
        tr = Tracer()
        with tr.span("net.advance", interval=2) as sp:
            pass
        assert sp.duration_s >= 0.0
        assert sp.kind == "span"
        assert sp.attrs == {"interval": 2}
        assert tr.by_name("net.advance") == [sp]

    def test_event_is_instantaneous(self):
        tr = Tracer()
        tr.event("fault.link-down", switch="leaf0")
        (ev,) = tr.spans
        assert ev.kind == "event" and ev.duration_s == 0.0

    def test_seq_monotonic(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("x"):
                pass
        assert [s.seq for s in tr.spans] == [0, 1, 2]

    def test_max_spans_drops_and_counts(self):
        tr = Tracer(max_spans=2)
        for _ in range(5):
            tr.event("e")
        assert len(tr) == 2 and tr.dropped == 3

    def test_total_duration_and_names(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        tr.event("b")
        assert tr.names() == ["a", "b"]
        assert tr.total_duration_s("a") >= 0.0


class TestExporters:
    def test_jsonl_roundtrip(self, tmp_path):
        tr = Tracer()
        reg = MetricsRegistry()
        with tr.span("loop.tick", interval=0):
            tr.event("ecn.reconfig", switch="leaf0")
        reg.inc("loop.intervals")
        reg.observe("pet.reward", 0.5, switch="leaf0")
        path = str(tmp_path / "trace.jsonl")
        lines = write_jsonl(path, tr, reg, meta={"scenario": "websearch"})
        meta, spans, metrics = read_jsonl(path)
        assert meta["schema"] == OBS_SCHEMA
        assert meta["scenario"] == "websearch"
        assert meta["spans"] == 2
        assert lines == 1 + 2 + len(reg.summary())
        assert [s.name for s in spans] == ["loop.tick", "ecn.reconfig"]
        assert spans[0].kind == "span" and spans[1].kind == "event"
        assert spans[0].attrs == {"interval": 0}
        assert metrics["loop.intervals"]["value"] == 1.0
        assert metrics["pet.reward{switch=leaf0}"]["count"] == 1

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        tr = Tracer()
        tr.event("e", k=1)
        path = str(tmp_path / "t.jsonl")
        write_jsonl(path, tr, None)
        with open(path) as f:
            recs = [json.loads(line) for line in f]
        assert recs[0]["type"] == "meta"
        assert recs[1]["type"] == "event"

    def test_csv_export(self, tmp_path):
        tr = Tracer()
        with tr.span("a", x=1):
            pass
        path = str(tmp_path / "t.csv")
        assert write_csv(path, tr.spans) == 2
        lines = open(path).read().strip().splitlines()
        assert lines[0].startswith("seq,type,name")
        assert ",a," in lines[1]


class TestProfiling:
    def test_profiled_collects_stats(self):
        with profiled() as prof:
            sum(range(1000))
        table = profile_table(prof, limit=5)
        assert isinstance(table, str) and table

    def test_hot_path_attribution(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("net.advance"):
                pass
        tr.event("fault.link-down")          # events excluded
        attr = hot_path_attribution(tr)
        assert attr["net.advance"]["count"] == 3
        assert attr["net.advance"]["total_s"] >= 0.0
        assert "fault.link-down" not in attr


class TestEngineMetricMerge:
    def test_serial_tasks_merge_with_task_labels(self):
        from repro.parallel.engine import Engine, TaskSpec

        reg, tr = obs.enable()
        rep = Engine(workers=1).run([
            TaskSpec(task_id=0, fn=_task_body, args=(4,)),
            TaskSpec(task_id=1, fn=_task_body, args=(7,)),
        ])
        assert rep.values() == [4, 7]
        assert reg.counter_value("task.work", task=0) == 4.0
        assert reg.counter_value("task.work", task=1) == 7.0
        assert reg.counter_value("engine.tasks") == 2.0
        assert reg.histogram_stat("engine.task_s").count == 2
        assert len(tr.by_name("engine.run")) == 1

    def test_outcome_carries_snapshot_when_enabled(self):
        from repro.parallel.engine import Engine, TaskSpec

        obs.enable()
        rep = Engine(workers=1).run(
            [TaskSpec(task_id=0, fn=_task_body, args=(2,))])
        assert rep.outcomes[0].metrics is not None

    def test_outcome_snapshot_none_when_disabled(self):
        from repro.parallel.engine import Engine, TaskSpec

        rep = Engine(workers=1).run(
            [TaskSpec(task_id=0, fn=_task_body, args=(2,))])
        assert rep.outcomes[0].metrics is None

    def test_task_registry_isolated_from_parent(self):
        """Task-side writes must not leak directly into the parent
        registry — they arrive only via the labelled merge."""
        from repro.parallel.engine import Engine, TaskSpec

        reg, _ = obs.enable()
        Engine(workers=1).run([TaskSpec(task_id=0, fn=_task_body, args=(3,))])
        assert reg.counter_value("task.work") == 0.0      # unlabelled: absent
        assert reg.counter_value("task.work", task=0) == 3.0


def _task_body(n: int) -> int:
    """Module-level (picklable) engine task that emits metrics."""
    get_registry().inc("task.work", n)
    return n


class TestFaultEventsOnBus:
    def test_fault_log_publishes_event_and_counter(self):
        from repro.resilience.log import FaultLog

        reg, tr = obs.enable()
        log = FaultLog()
        log.record(0.5, "link-down", switch="leaf0", detail={"ports": 2})
        (ev,) = tr.by_name("fault.link-down")
        assert ev.kind == "event"
        assert ev.attrs["switch"] == "leaf0"
        assert reg.counter_value("faults", kind="link-down") == 1.0

    def test_fault_log_unchanged_when_disabled(self):
        from repro.resilience.log import FaultLog

        log = FaultLog()
        log.record(0.1, "quarantine", switch="s0")
        assert len(log) == 1
        assert log.events[0].kind == "quarantine"
