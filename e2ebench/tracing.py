"""Runtime instrumentation the benchmark installs from outside ``src/``.

Two instruments, both installed by patching public entry points on
their classes (or module attributes) for the duration of a run and
restoring the originals afterwards:

- :class:`TickClock` -- the only hook of an *untraced* run.  It stamps
  every fabric ``advance`` with the process CPU clock so the CPU time
  of one control interval (tick) of loops that live inside the library
  can be measured, samples the :class:`SpeedProbe` between ticks, and
  remembers each fabric it saw so flow-steps can be counted after the
  run.
- :class:`SpanRecorder` -- the traced run.  It records one span per
  call of each layer's entry point (name, wall start, wall end, parent
  id, thread) in memory; :func:`layer_times` turns them into self-times.

Self-time of a span is its duration minus the part of it that its
child spans cover.  A span opened on a worker thread with no open
span of its own is parented to the innermost span open on the main
thread: in the serve plane that is the ``serve.wait`` of the tick
that blocks on the decider thread.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

perf = time.perf_counter
#: CPU time of every thread of the process (the serve deciders included)
cpu = time.process_time


# ------------------------------------------------------------------ patching
class Patches:
    """A set of attribute replacements that can be undone exactly."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _fabric_classes():
    from repro.netsim.batchfluid import BatchFluidNetwork
    from repro.netsim.fluid import FluidNetwork
    from repro.netsim.shard import ShardedFluidNetwork
    return FluidNetwork, BatchFluidNetwork, ShardedFluidNetwork


def entry_points() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every layer entry point."""
    from repro.analysis import experiments
    from repro.core.pet import PETController
    from repro.netsim.fluid import FlowTableMixin, SwitchStatsMixin
    from repro.rl.ippo import IPPOTrainer
    from repro.serve.deadline import DeadlineDecider
    from repro.serve.plane import ControlPlane
    from repro.traffic.generator import PoissonTrafficGenerator
    from repro.traffic.incast import IncastGenerator

    fluid, batch, sharded = _fabric_classes()
    points = [(cls, "advance", "netsim.advance")
              for cls in (fluid, batch, sharded)]
    points += [(fluid, "__init__", "netsim.build"),
               (sharded, "__init__", "netsim.build"),
               (FlowTableMixin, "start_flows", "netsim.build"),
               (sharded, "start_flows", "netsim.build")]
    points += [
        (SwitchStatsMixin, "queue_stats", "netsim.queue_stats"),
        (PETController, "decide", "core.decide"),
        (IPPOTrainer, "act", "rl.act"),
        (IPPOTrainer, "update", "rl.update"),
        (ControlPlane, "tick", "serve.tick"),
        (DeadlineDecider, "submit", "serve.wait"),
        (PoissonTrafficGenerator, "generate", "traffic.generate"),
        (IncastGenerator, "generate", "traffic.generate"),
    ]
    points += [(experiments, name, "analysis.finalize")
               for name in ("fct_statistics", "queue_length_statistics",
                            "latency_statistics")]
    return points


# ------------------------------------------------------------------ speed
class SpeedProbe:
    """Host speed, sampled between pieces of work.

    On a shared host the same work can take a third more CPU time for
    seconds to minutes at a stretch (a busy sibling hyperthread, a
    neighbour's cache traffic); process CPU time does not remove that.
    The probe times a fixed kernel -- small-array NumPy and dict work,
    like the program's per-tick bookkeeping -- and :meth:`scaled`
    turns an interval of CPU time into reference CPU time: each piece
    of work between two probes is scaled by ``ref_s`` over the mean of
    those two probe times.  Probe CPU is left out.
    """

    def __init__(self, ref_s: float, every_s: float = 0.1) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(64)
        self._idx = rng.integers(0, 64, 256)
        self._w = rng.standard_normal(256)
        self.ref_s = ref_s
        #: TickClock samples again once this much CPU time has passed
        self.every_s = every_s
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.times: List[float] = []

    def _kernel(self) -> None:
        x, seen = self._x.copy(), {}
        for i in range(300):
            x = np.minimum(x * 1.01, 5.0) + 1e-3 * np.bincount(
                self._idx, weights=self._w, minlength=64)
            seen[i & 31] = float(x[i & 63])

    def sample(self) -> float:
        """Time the kernel once; returns its CPU seconds."""
        c0 = cpu()
        self._kernel()
        c1 = cpu()
        self.starts.append(c0)
        self.ends.append(c1)
        self.times.append(c1 - c0)
        return c1 - c0

    def due(self, now: float) -> bool:
        return not self.ends or now - self.ends[-1] >= self.every_s

    def scaled(self, c0: float, c1: float, ref: bool = True) -> float:
        """CPU seconds of the work in ``[c0, c1]``, probes left out:
        reference seconds, or as measured with ``ref=False``."""
        starts, ends, times = self.starts, self.ends, self.times
        n = len(times)
        total = 0.0
        # piece k lies between probe k (or the start) and probe k + 1
        k = bisect.bisect_right(ends, c0) - 1
        while True:
            lo = ends[k] if k >= 0 else c0
            hi = starts[k + 1] if k + 1 < n else c1
            a, b = max(lo, c0), min(hi, c1)
            if b > a:
                factor = 1.0
                if ref:
                    probe = (times[max(k, 0)] + times[min(k + 1, n - 1)]) / 2
                    factor = self.ref_s / probe
                total += (b - a) * factor
            if k + 1 >= n or starts[k + 1] >= c1:
                return total
            k += 1


# ------------------------------------------------------------------ ticks
class TickClock:
    """Stamps each fabric ``advance`` with the process CPU clock; the
    interval between two stamps on one fabric is one control interval
    (tick) of its loop.  With a probe, it samples the probe at a stamp
    once ``probe.every_s`` CPU seconds have passed since the last
    sample."""

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        #: (start, end) process CPU time of every tick
        self.ticks: List[Tuple[float, float]] = []
        self.fabrics: List[Any] = []
        self.probe = probe
        self._last: Dict[int, float] = {}
        self._patches = Patches()

    def _stamp(self, net: Any) -> None:
        t = cpu()
        prev = self._last.get(id(net))
        if prev is None:
            self.fabrics.append(net)
        else:
            self.ticks.append((prev, t))
        if self.probe is not None and self.probe.due(t):
            self.probe.sample()
            t = cpu()
        self._last[id(net)] = t

    def __enter__(self) -> "TickClock":
        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def advance(net, dt):
                self._stamp(net)
                return original(net, dt)
            return advance
        for cls in _fabric_classes():
            self._patches.wrap(cls, "advance", make)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.undo()


# ------------------------------------------------------------------ spans
class SpanRecorder:
    """In-memory span log over every layer entry point."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or -1, thread name)
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []
        self._patches = Patches()

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, args: tuple,
             kwargs: dict) -> Any:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else -1
        with self._lock:
            sid = self._next
            self._next += 1
        stack.append(sid)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               threading.current_thread().name))

    def root(self, name: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn`` under a benchmark-owned root span."""
        return self.span(name, fn, args, {})

    def _count_steps(self, net: Any, dt: float) -> None:
        self.counts["netsim.steps"] += max(
            1, int(round(dt / net.config.step_dt)))

    def __enter__(self) -> "SpanRecorder":
        advance_owners = set(_fabric_classes())
        for owner, attr, name in entry_points():
            def make(original: Callable, name: str = name,
                     is_advance: bool = (attr == "advance"
                                         and owner in advance_owners)
                     ) -> Callable:
                if is_advance:
                    @functools.wraps(original)
                    def wrapper(net, dt):
                        self._count_steps(net, dt)
                        return self.span(name, original, (net, dt), {})
                    return wrapper

                @functools.wraps(original)
                def wrapper(*args, **kwargs):
                    return self.span(name, original, args, kwargs)
                return wrapper
            self._patches.wrap(owner, attr, make)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.undo()


def snapshot() -> Dict[Tuple[int, str], Any]:
    """The current object behind every entry point."""
    return {(id(owner), attr): owner.__dict__[attr]
            for owner, attr, _name in entry_points()}


def originals_restored(before: Dict[Tuple[int, str], Any]) -> bool:
    """True when every entry point is again the object in ``before``."""
    return all(before[key] is obj for key, obj in snapshot().items())


# ------------------------------------------------------------------ self-time
def _covered(lo: float, hi: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Tuple[int, str, float, float, int, str]]
               ) -> Dict[int, float]:
    """Span id -> self-time (duration minus child coverage)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, t0, t1, parent, _th in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(t0, t1, children.get(sid, []))
            for sid, _name, t0, t1, _p, _th in spans}


def layer_times(spans: List[Tuple[int, str, float, float, int, str]],
                roots: Tuple[str, ...]) -> Tuple[Dict[str, float],
                                                 Dict[str, int], float]:
    """Aggregate self-times by span name.

    Returns ``(self seconds by name, calls by name, root wall)`` where
    root wall is the summed duration of the benchmark's own root spans.
    """
    selfs = self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    wall = 0.0
    for sid, name, t0, t1, parent, _th in spans:
        by_name[name] += selfs[sid]
        calls[name] += 1
        if name in roots and parent < 0:
            wall += t1 - t0
    return dict(by_name), dict(calls), wall


def tick_percentile(gaps: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile ``q`` (0-100) of ``gaps``; None if empty."""
    if not gaps:
        return None
    ordered = sorted(gaps)
    k = max(0, min(len(ordered) - 1,
                   int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]
