"""End-to-end benchmark of the PET reproduction: one command, four workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload fig4_point --seed 7 --seconds 27 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing but a tick
clock installed.  Every end-to-end time is process CPU time
(``time.process_time``: all threads of the process, the serve plane's
decider threads included), so time the host takes the CPUs away --
other tenants, hypervisor steal, thread wake-up latency -- does not
count; the wall figures are reported beside them.  ``--trace 1``
first runs one untraced repetition, then traced repetitions that
record a span at every layer entry point (see ``tracing.py``), and
reports per-layer self-times; the traced result fingerprint must
equal the untraced one.  Either way the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the metric names and units of ``BENCHMARK.json``, and the full
report (environment, probe times, every repetition, the spans of a
traced run) is written under ``.bench_out/`` in the checkout.

A shared host also changes speed for seconds to minutes at a stretch,
which CPU time does not remove.  So the untraced run samples a fixed
speed probe about every 0.1 CPU seconds, between ticks, and converts
CPU time into *reference* CPU time: each piece of work is scaled by
``probe_ref_ms`` (``manifest.json``) over the probe time around it
(see ``tracing.SpeedProbe``).  The probe's own time is left out; the
figures as measured, and the probe times, are reported beside.

Repetitions at one seed do identical work -- their fingerprints must
agree -- so the timed figures take each tick, and each repetition, at
its fastest: a host slowdown that hits some repetitions drops out,
while a slower program slows all of them.  End-to-end metrics, all in
reference CPU time:

- ``setup_s``: median time of one set-up -- fabric, traffic and
  controller construction; pretraining is work, not set-up.  Set-ups
  are repeated after every repetition, so they spread over the run.
- ``decisions_per_s``: switch-agent decisions per second of the
  fastest repetition, across every replica and policy (shadow
  included).
- ``tick_p50_ms`` / ``tick_p90_ms``: percentiles over the run's ticks
  of one tick's time (between two advances of one fabric), each tick
  at its fastest repetition; PPO-update ticks (about 1% of a training
  workload's ticks) sit above p90, so p90 is the steady tail.  p99 and
  its sample count are printed beside.
- ``fct_norm``: mean normalized FCT of the flows a repetition
  finished; deterministic at a seed.
- ``peak_rss_mb``: peak resident set size of the process.

Besides the run's own seed, every run repeats the workload once at its
tiny size at the reference seed and checks the result fingerprint
against the one recorded in ``manifest.json``: a change to the program
that changes its results fails the run, whatever the seed.

The exit code is 0 only when every output check passed; it is 2 when
the run was refused (no ``src/`` tree, sanitizer or telemetry
enabled).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(HERE, "manifest.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: after every repetition the run sets up again at least once, more
#: while those set-ups total under SETUP_SLICE_S CPU seconds (cheap
#: set-ups are noisy), at most SETUPS_PER_SLICE times
SETUP_SLICE_S = 0.3
SETUPS_PER_SLICE = 60
#: every run repeats the workload at least this many times
MIN_REPS = 2


class Refused(Exception):
    """The run cannot be measured here; exit 2 without a result."""


def load_json(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise Refused(f"cannot read {os.path.relpath(path, ROOT)}: {exc}")


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise Refused(f"no program source at {os.path.relpath(SRC, ROOT)}/")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise Refused(f"repro imported from {repro.__file__}, not {SRC}")


def check_hygiene() -> None:
    """Refuse timed runs under the sanitizer or live telemetry."""
    from repro import obs
    from repro.devtools import sanitize
    if sanitize.enabled_from_env() or sanitize.is_enabled():
        raise Refused("the runtime sanitizer is enabled "
                      "(PET_SANITIZE or the pytest conftest)")
    if obs.enabled():
        raise Refused("repro.obs telemetry is enabled")


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> Dict[str, Any]:
    import numpy as np
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit(),
            "machine": platform.machine()}


def calibrate(probe) -> float:
    """Median of 15 timings of the speed probe, in ms: reported beside
    the metrics so figures from different machines can be normalized."""
    return statistics.median(probe.sample() for _ in range(15)) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ one rep
def one_rep(workload, seed: int, tiny: bool, recorder=None,
            probe=None) -> Dict[str, Any]:
    """Set up and run one repetition; returns its timings and outcome.

    With a probe, CPU times are reference CPU times and the ``*_raw_s``
    entries hold them as measured; without one they are the same."""
    from tracing import TickClock, cpu, perf
    from workloads import flow_steps

    def call(name, fn, *args):
        if recorder is None:
            return fn(*args)
        return recorder.root(name, fn, *args)

    def span(a: float, b: float, ref: bool = True) -> float:
        return b - a if probe is None else probe.scaled(a, b, ref)

    gc.collect()                # no earlier repetition's garbage in the timing
    if probe is not None:
        probe.sample()
    c0, t0 = cpu(), perf()
    state = call("bench.setup", workload.setup, seed, tiny)
    c1, t1 = cpu(), perf()
    with TickClock(probe) as clock:
        c2, t2 = cpu(), perf()
        result = call("bench.rep", workload.run, state)
        c3, t3 = cpu(), perf()
    if probe is not None:
        probe.sample()
    ticks = len(clock.ticks) + len(clock.fabrics)
    outcome = workload.finish(state, result, ticks)
    return {"setup_s": span(c0, c1), "setup_wall_s": t1 - t0,
            "cpu_s": span(c2, c3), "cpu_raw_s": span(c2, c3, ref=False),
            "wall_s": t3 - t2, "ticks": ticks,
            "gaps": [span(a, b) for a, b in clock.ticks],
            "flow_steps": flow_steps(clock.fabrics), "outcome": outcome}


def more_setups(workload, seed: int, tiny: bool, probe) -> List[float]:
    """Reference CPU seconds of one slice of extra set-ups (see
    SETUP_SLICE_S)."""
    from tracing import cpu
    spans: List[Tuple[float, float]] = []
    probe.sample()
    while not spans or (sum(b - a for a, b in spans) < SETUP_SLICE_S
                        and len(spans) < SETUPS_PER_SLICE):
        c0 = cpu()
        state = workload.setup(seed, tiny)
        spans.append((c0, cpu()))
        workload.discard(state)
    probe.sample()
    return [probe.scaled(a, b) for a, b in spans]


def fastest_ticks(runs: List[List[float]]) -> List[float]:
    """Each tick at its fastest over repetitions with equal tick counts
    (ticks pooled when the counts differ, which the fingerprint check
    reports as a failure)."""
    if len({len(gaps) for gaps in runs}) == 1:
        return [min(ts) for ts in zip(*runs)]
    return [g for gaps in runs for g in gaps]


def keep_going(reps: List[Dict[str, Any]], start: float,
               seconds: float) -> bool:
    """Start another repetition while fewer than MIN_REPS ran, or while
    one like the last would be at least half done by the deadline."""
    if len(reps) < MIN_REPS:
        return True
    last = reps[-1]["setup_wall_s"] + reps[-1]["wall_s"]
    return time.perf_counter() - start + last / 2 < seconds


def rep_record(rep: Dict[str, Any]) -> Dict[str, Any]:
    out = rep["outcome"]
    return {"setup_s": rep["setup_s"], "setup_wall_s": rep["setup_wall_s"],
            "cpu_s": rep["cpu_s"], "wall_s": rep["wall_s"],
            "ticks": rep["ticks"], "decisions": out.decisions,
            "flow_steps": rep["flow_steps"], "fct_norm": out.fct_norm,
            "fingerprint": out.fingerprint, "ops": out.ops,
            "failed_ops": out.failed_ops, "failures": out.failures,
            "detail": out.detail}


def tally(reps: List[Dict[str, Any]]) -> Tuple[List[str], int, int]:
    """Output-check failures, operations attempted and operations failed
    over a run's repetitions; repetitions that disagree count once."""
    failures = [f for r in reps for f in r["outcome"].failures]
    prints = {r["outcome"].fingerprint for r in reps}
    disagree = len(prints) > 1
    if disagree:
        failures.append(f"repetitions disagree: fingerprints {sorted(prints)}")
    attempted = sum(r["outcome"].ops for r in reps)
    failed = disagree + sum(max(r["outcome"].failed_ops,
                                bool(r["outcome"].failures)) for r in reps)
    return failures, attempted, failed


def reference_check(workload, manifest: Dict[str, Any]
                    ) -> Tuple[List[str], Dict[str, Any]]:
    """Repeat the workload once at its tiny size at the reference seed
    and compare its result fingerprint with the recorded one."""
    ref = manifest["reference"]
    out = one_rep(workload, ref["seed"], tiny=True)["outcome"]
    want = ref["fingerprints"][workload.name]
    failures = [f"reference run: {f}" for f in out.failures]
    if out.fingerprint != want:
        failures.append(f"reference run (tiny, seed {ref['seed']}) has "
                        f"fingerprint {out.fingerprint}, recorded {want}: "
                        "the program's results changed")
    return failures, {"seed": ref["seed"], "fingerprint": out.fingerprint,
                      "fct_norm": out.fct_norm}


# ------------------------------------------------------------------ modes
def measure(workload, seed: int, seconds: float, tiny: bool,
            manifest: Dict[str, Any], probe) -> Dict[str, Any]:
    """Untraced run: end-to-end metrics over repetitions."""
    from tracing import tick_percentile
    reps: List[Dict[str, Any]] = []
    setups: List[float] = []
    first_probe = len(probe.times)
    start = time.perf_counter()
    while keep_going(reps, start, seconds):
        reps.append(one_rep(workload, seed, tiny, probe=probe))
        setups += [reps[-1]["setup_s"]] + more_setups(workload, seed, tiny,
                                                       probe)
    failures, attempted, failed = tally(reps)
    gaps = fastest_ticks([r["gaps"] for r in reps])
    med = statistics.median
    p99 = tick_percentile(gaps, 99)
    metrics = {
        "setup_s": med(setups),
        "decisions_per_s": max(r["outcome"].decisions / r["cpu_s"]
                               for r in reps),
        "tick_p50_ms": tick_percentile(gaps, 50) * 1e3,
        "tick_p90_ms": tick_percentile(gaps, 90) * 1e3,
        "fct_norm": med(r["outcome"].fct_norm for r in reps),
        "peak_rss_mb": peak_rss_mb(),
    }
    beside = {
        "reps": len(reps),
        "rep_ref_cpu_s": [r["cpu_s"] for r in reps],
        "rep_cpu_s": [r["cpu_raw_s"] for r in reps],
        "rep_wall_s": [r["wall_s"] for r in reps],
        "decisions_per_cpu_s_as_measured": max(r["outcome"].decisions
                                               / r["cpu_raw_s"] for r in reps),
        "decisions_per_wall_s_median_rep": med(r["outcome"].decisions
                                               / r["wall_s"] for r in reps),
        "probe_ms_p10_p50_p90": [
            statistics.quantiles(probe.times[first_probe:], n=10)[k] * 1e3
            for k in (0, 4, 8)],
        "probes": len(probe.times) - first_probe,
        "ticks_per_s": med(r["ticks"] / r["cpu_s"] for r in reps),
        "flow_steps_per_s": med(r["flow_steps"] / r["cpu_s"] for r in reps),
        "tick_p99_ms": p99 * 1e3,
        "tick_samples": len(gaps),
        "tick_samples_beyond_p99": sum(1 for g in gaps if g > p99),
        "setup_wall_s": med(r["setup_wall_s"] for r in reps),
        "setups": len(setups),
    }
    return {"metrics": metrics, "beside": beside, "failures": failures,
            "attempted": attempted, "failed": failed,
            "reps": [rep_record(r) for r in reps], "setups_s": setups}


def traced(workload, seed: int, seconds: float, tiny: bool,
           manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Traced run: per-layer self-times, checked against an untraced rep.

    Spans are timed in wall time: a span's self-time is the wall its
    layer held the caller, which is what sums to the traced wall."""
    from tracing import (SpanRecorder, layer_times, originals_restored,
                         snapshot)
    before = snapshot()
    start = time.perf_counter()
    base = one_rep(workload, seed, tiny)
    reps: List[Dict[str, Any]] = []
    with SpanRecorder() as rec:
        while not reps or keep_going([base] + reps, start, seconds):
            reps.append(one_rep(workload, seed, tiny, recorder=rec))
    restored = originals_restored(before)
    n = len(reps)
    by_name, calls, wall = layer_times(rec.spans,
                                       roots=("bench.setup", "bench.rep"))
    layer_sum = sum(v for k, v in by_name.items() if not k.startswith("bench."))
    unattributed = wall - layer_sum
    med = statistics.median

    def per_rep(x: float) -> float:
        return x / n

    def self_s(name: str) -> float:
        return per_rep(by_name.get(name, 0.0))

    def faults(key: str) -> float:
        return per_rep(sum(r["outcome"].detail.get(key, 0) for r in reps))

    base_wall = base["setup_wall_s"] + base["wall_s"]
    metrics = {
        "netsim.advance_s": self_s("netsim.advance"),
        "netsim.queue_stats_s": self_s("netsim.queue_stats"),
        "netsim.build_s": self_s("netsim.build"),
        "netsim.steps": per_rep(rec.counts["netsim.steps"]),
        "netsim.flow_steps": med(r["flow_steps"] for r in reps),
        "core.decide_self_s": self_s("core.decide"),
        "core.decide_calls": per_rep(calls.get("core.decide", 0)),
        "rl.act_s": self_s("rl.act"),
        "rl.act_calls": per_rep(calls.get("rl.act", 0)),
        "rl.update_s": self_s("rl.update"),
        "rl.update_calls": per_rep(calls.get("rl.update", 0)),
        "serve.tick_self_s": self_s("serve.tick"),
        "serve.decide_wait_s": self_s("serve.wait"),
        "serve.fallbacks": faults("serve.fallbacks"),
        "serve.deadline_misses": faults("serve.deadline_misses"),
        "serve.shadow_faults": faults("serve.shadow_faults"),
        "analysis.finalize_s": self_s("analysis.finalize"),
        "traffic.generate_s": self_s("traffic.generate"),
        "bench.traced_wall_s": per_rep(wall),
        "bench.untraced_wall_s": base_wall,
        "bench.trace_overhead_s": med(r["setup_wall_s"] + r["wall_s"]
                                      for r in reps) - base_wall,
        "bench.unattributed_s": per_rep(unattributed),
    }
    tol = manifest["self_time_tolerance"]
    failures, attempted, failed = tally([base] + reps)
    all_self = sum(by_name.values())
    if abs(all_self - wall) > tol["sum_abs_s"] + tol["sum_rel"] * wall:
        failures.append(f"self-times sum to {all_self:.6f}s, "
                        f"traced wall is {wall:.6f}s")
    if unattributed > tol["unattributed_share"] * wall:
        failures.append(f"unattributed {unattributed:.4f}s is more than "
                        f"{tol['unattributed_share']:.0%} of the traced "
                        f"wall {wall:.4f}s")
    if not restored:
        failures.append("runtime wrappers were not removed after the run")
    beside = {"traced_reps": n, "layer_self_sum_s": per_rep(layer_sum),
              "spans": len(rec.spans)}
    return {"metrics": metrics, "beside": beside, "failures": failures,
            "attempted": attempted, "failed": failed,
            "reps": [rep_record(r) for r in [base] + reps],
            "spans": rec.spans}


# ------------------------------------------------------------------ main
def parse_args(argv: List[str], bench: Dict[str, Any],
               manifest: Dict[str, Any]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=manifest["default_seed"])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload (self-tests; not a measurement)")
    return p.parse_args(argv)


def execute(args: argparse.Namespace, manifest: Dict[str, Any]
            ) -> Dict[str, Any]:
    """Run one benchmark invocation; returns the full report."""
    sys.path.insert(0, HERE)
    from tracing import SpeedProbe
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    env = environment()
    probe = SpeedProbe(ref_s=manifest["probe_ref_ms"] * 1e-3)
    calib = calibrate(probe)
    if args.trace:
        body = traced(workload, args.seed, args.seconds, args.tiny, manifest)
    else:
        body = measure(workload, args.seed, args.seconds, args.tiny,
                       manifest, probe)
    ref_failures, body["reference"] = reference_check(workload, manifest)
    body["failures"] += ref_failures
    body["attempted"] += 1
    body["failed"] += bool(ref_failures)
    body["beside"]["error_rate"] = body["failed"] / body["attempted"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "environment": env,
            "calibration_ms": [calib, calibrate(probe)],
            **body}


def print_report(report: Dict[str, Any], bench: Dict[str, Any]) -> None:
    env = report["environment"]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    print(f"# {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"commit={env['commit'][:12]}")
    print(f"# why: {why[report['workload']]}")
    print(f"  calibration_ms (beside, not a metric): "
          f"{report['calibration_ms'][0]:.4f} / "
          f"{report['calibration_ms'][1]:.4f}")
    for name, value, unit in report_metrics(report, bench):
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name, value in report["beside"].items():
        print(f"  ({name}) {value}")
    details = report["reps"][0]["detail"]
    if details:
        print(f"  detail: {json.dumps(details, sort_keys=True)}")
    print(f"  reference: {json.dumps(report['reference'], sort_keys=True)}")
    for f in report["failures"]:
        print(f"  CHECK FAILED: {f}")


def report_metrics(report: Dict[str, Any], bench: Dict[str, Any]
                   ) -> List[Tuple[str, float, str]]:
    """``(name, value, unit)`` of the run's metrics, in BENCHMARK.json's
    order and units."""
    key = "per_layer" if report["trace"] else "end_to_end"
    return [(m["name"], report["metrics"][m["name"]], m["unit"])
            for m in bench[key]]


def write_report(report: Dict[str, Any]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    name = (f"{report['workload']}-seed{report['seed']}"
            f"-trace{report['trace']}.json")
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    return path


def main(argv: List[str]) -> int:
    try:
        bench = load_json(BENCHMARK)
        manifest = load_json(MANIFEST)
        args = parse_args(argv, bench, manifest)
        import_program()
        check_hygiene()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    report = execute(args, manifest)
    for thread in threading.enumerate():     # serve decider workers
        if thread is not threading.main_thread():
            thread.join(timeout=5.0)
    print_report(report, bench)
    print(f"  report: {os.path.relpath(write_report(report), ROOT)}")
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in report_metrics(report, bench)}}))
    return 0 if not report["failures"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
