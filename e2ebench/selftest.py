"""Self-tests of the benchmark, at tiny workload sizes.

Run from the root of a checkout under pytest::

    python -m pytest -q e2ebench/selftest.py

They check that every workload runs and passes its output checks (the
reference fingerprint included), that the
traced run's self-times add up to its wall within the stated
tolerance, that runtime wrapping leaves fingerprints unchanged and is
removed afterwards, and that the command refuses to run where it must.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = run.load_json(run.MANIFEST)
BENCH = run.load_json(run.BENCHMARK)


def _execute(workload: str, trace: int):
    from repro.devtools import sanitize
    was_on = sanitize.is_enabled()
    sanitize.disable()          # the pytest conftest turns it on
    try:
        return run.execute(argparse.Namespace(
            workload=workload, seed=MANIFEST["default_seed"], seconds=0.0,
            trace=trace, tiny=True), MANIFEST)
    finally:
        if was_on:
            sanitize.enable()


def test_untraced_workloads_pass_checks():
    names = [m["name"] for m in BENCH["end_to_end"]]
    for name in WORKLOADS:
        report = _execute(name, trace=0)
        assert not report["failures"], (name, report["failures"])
        assert list(report["metrics"]) == names, name
        for metric, value in report["metrics"].items():
            assert value > 0, (name, metric, value)
        prints = {r["fingerprint"] for r in report["reps"]}
        assert len(report["reps"]) >= run.MIN_REPS and len(prints) == 1


def test_traced_self_times_add_up_and_fingerprints_hold():
    names = [m["name"] for m in BENCH["per_layer"]]
    tol = MANIFEST["self_time_tolerance"]
    before = tracing.snapshot()
    for name in WORKLOADS:
        report = _execute(name, trace=1)
        assert not report["failures"], (name, report["failures"])
        assert list(report["metrics"]) == names, name
        assert tracing.originals_restored(before), name
        m = report["metrics"]
        layers = sum(v for k, v in m.items() if k.endswith("_s")
                     and not k.startswith("bench."))
        wall = m["bench.traced_wall_s"]
        assert abs(layers + m["bench.unattributed_s"] - wall) <= 1e-9 + 1e-9 * wall
        assert m["bench.unattributed_s"] <= tol["unattributed_share"] * wall
        prints = {r["fingerprint"] for r in report["reps"]}
        assert len(prints) == 1, (name, prints)


def test_self_time_arithmetic():
    spans = [(0, "root", 0.0, 10.0, -1, "main"),
             (1, "a", 1.0, 4.0, 0, "main"),
             (2, "b", 3.0, 6.0, 0, "worker"),      # overlaps a
             (3, "c", 2.0, 3.0, 1, "main")]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
    by_name, calls, wall = tracing.layer_times(spans, roots=("root",))
    assert wall == 10.0 and calls["a"] == 1 and by_name["root"] == 5.0
    assert tracing.tick_percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert tracing.tick_percentile([3.0, 1.0, 2.0, 4.0], 99) == 4.0


def test_wrappers_are_removed_even_on_error():
    before = tracing.snapshot()
    try:
        with tracing.SpanRecorder():
            assert not tracing.originals_restored(before)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracing.originals_restored(before)


def test_refuses_under_sanitizer_and_telemetry():
    from repro import obs
    from repro.devtools import sanitize
    was_on = sanitize.is_enabled()
    sanitize.enable()
    try:
        try:
            run.check_hygiene()
            raise AssertionError("sanitizer run was not refused")
        except run.Refused:
            pass
    finally:
        if not was_on:
            sanitize.disable()
    if was_on:
        sanitize.disable()
    obs.enable()
    try:
        try:
            run.check_hygiene()
            raise AssertionError("telemetry run was not refused")
        except run.Refused:
            pass
    finally:
        obs.disable()
        if was_on:
            sanitize.enable()


def test_refuses_without_program_source():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "PET_SANITIZE")}
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "fig4_point",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)



def test_reference_check_catches_changed_results():
    ref = MANIFEST["reference"]
    assert set(ref["fingerprints"]) == set(WORKLOADS)
    wrong = dict(MANIFEST, reference={"seed": ref["seed"],
                                      "fingerprints": {"fabric_xl": "0" * 16}})
    failures, seen = run.reference_check(WORKLOADS["fabric_xl"], wrong)
    assert failures and seen["fingerprint"] == ref["fingerprints"]["fabric_xl"]
