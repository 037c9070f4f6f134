"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed
as set-up: fabric, traffic and controller construction), runs one
fixed-size repetition in :meth:`run` (timed as work), and turns the
repetition into counts, a result fingerprint and output checks in
:meth:`finish` (not timed).  A repetition is deterministic at a seed,
so every repetition of a run must produce the same fingerprint.

``tiny=True`` shrinks every workload to a size the self-tests can run
in seconds; the timed benchmark never uses it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

DELTA_T = 1e-3          # control interval (Δt) of every workload, seconds


@dataclass
class RepOutcome:
    """What one repetition produced, besides its wall time."""

    fingerprint: str
    decisions: int
    fct_norm: float
    #: operations this repetition attempted, and how many failed
    ops: int = 1
    failed_ops: int = 0
    #: failed output checks, one line each
    failures: List[str] = field(default_factory=list)
    #: domain numbers for the report (flows finished, incumbent, ...)
    detail: Dict[str, Any] = field(default_factory=dict)


# ------------------------------------------------------------------ helpers
def fingerprint(obj: Any) -> str:
    """Order-stable digest of nested dicts/lists/arrays/scalars."""
    h = hashlib.sha256()

    def feed(o: Any) -> None:
        if isinstance(o, dict):
            h.update(b"{")
            for k in sorted(o, key=repr):
                feed(k)
                feed(o[k])
            h.update(b"}")
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        elif isinstance(o, np.ndarray):
            a = np.ascontiguousarray(o)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        elif isinstance(o, (float, np.floating)):
            h.update(float(o).hex().encode())
        else:
            h.update(repr(o).encode())
        h.update(b";")

    feed(obj)
    return h.hexdigest()[:16]


def bench_fabric():
    """The 64-host 2x4x8 leaf-spine (10/40 Gbps) of the paper benches."""
    from repro.netsim.fluid import FluidConfig
    return FluidConfig(n_spine=2, n_leaf=4, hosts_per_leaf=8,
                       host_rate_bps=10e9, spine_rate_bps=40e9)


def load_traffic(net: Any, *, workload: str, load: float, duration: float,
                 host_rate_bps: float, seed: int, incast: bool) -> int:
    """Web Search/Data Mining Poisson flows (+ incast) from ``seed``.

    The same generator calls the scenario runner makes, so a network
    built here is identical to the one ``run_scenario`` builds itself.
    """
    from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
    from repro.traffic.incast import IncastConfig, IncastGenerator
    from repro.traffic.workloads import workload_by_name

    rng = np.random.default_rng(seed)
    hosts = net.host_names()
    gen = PoissonTrafficGenerator(hosts, workload_by_name(workload), rng=rng)
    flows = gen.generate(TrafficConfig(load=load, duration=duration,
                                       host_rate_bps=host_rate_bps,
                                       start_time=0.0))
    if incast:
        inc = IncastGenerator(hosts, rng=rng, first_flow_id=gen.next_flow_id())
        flows.extend(inc.generate(IncastConfig(
            fan_in=12, response_bytes=50_000, period=20e-3,
            duration=duration)))
    net.start_flows(flows)
    return len(flows)


def normalized_fct(flows: List[Any], host_rate_bps: float,
                   base_rtt: float) -> float:
    """Mean normalized FCT of the finished flows (nan when none)."""
    from repro.analysis.fct import fct_statistics
    return float(fct_statistics(flows, host_rate_bps, base_rtt)["overall"].avg)


def _replicas(fabric: Any) -> List[Any]:
    views = getattr(fabric, "views", None)
    return views() if callable(views) else [fabric]


def flow_steps(fabrics: List[Any]) -> float:
    """Active flows summed over Δt intervals, over every fabric seen.

    Counted after the run from the flow records: each flow contributes
    the simulated time it was in flight (start to finish, or to the
    fabric's clock if unfinished), in units of Δt.
    """
    total = 0.0
    for fabric in fabrics:
        for net in _replicas(fabric):
            end = float(net.now)
            flows = list(net.flows.values())
            if not flows:
                continue
            start = np.fromiter((f.start_time for f in flows), float,
                                len(flows))
            finish = np.fromiter(
                (end if f.finish_time is None else f.finish_time
                 for f in flows), float, len(flows))
            total += float(np.clip(np.minimum(finish, end)
                                   - np.minimum(start, end), 0.0, None).sum())
    return total / DELTA_T


# ------------------------------------------------------------------ workloads
class Workload:
    name = ""

    def setup(self, seed: int, tiny: bool) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def finish(self, state: Any, result: Any, ticks: int) -> RepOutcome:
        raise NotImplementedError

    def discard(self, state: Any) -> None:
        """Release a set-up state (threads, shared buffers)."""


class Fig4Point(Workload):
    """PET, Web Search at 60% load: one paper-figure point."""

    name = "fig4_point"
    #: share of flows that must finish within the measured run + drain;
    #: the drain (24 intervals) leaves a few elephants in flight, so
    #: seeds 7-15 finish 98.1-99.7%.
    min_finished = 0.95

    def setup(self, seed: int, tiny: bool) -> Any:
        from repro.analysis.experiments import ScenarioConfig
        from repro.netsim.fluid import FluidNetwork
        cfg = ScenarioConfig(
            workload="websearch", load=0.6, seed=seed, fluid=bench_fabric(),
            duration=0.01 if tiny else 0.12,
            pretrain_intervals=30 if tiny else 1500)
        net = FluidNetwork(cfg.fluid, seed=seed)
        load_traffic(net, workload=cfg.workload, load=cfg.load,
                     duration=cfg.duration, host_rate_bps=cfg.host_rate_bps,
                     seed=seed + 1, incast=cfg.incast)
        return cfg, net

    def run(self, state: Any) -> Any:
        from repro.analysis.experiments import (clear_pretrain_cache,
                                                run_scenario)
        cfg, net = state
        clear_pretrain_cache()
        return run_scenario("pet", cfg, network=net)

    def finish(self, state: Any, result: Any, ticks: int) -> RepOutcome:
        cfg, net = state
        fct = result.fct["overall"]
        failures = []
        if not math.isfinite(fct.avg):
            failures.append(f"FCT is not finite ({fct.avg})")
        if result.flows_finished < self.min_finished * result.flows_total:
            failures.append(f"only {result.flows_finished}/"
                            f"{result.flows_total} flows finished")
        in_flight = net.active_flow_count()
        if result.flows_finished + in_flight != result.flows_total:
            failures.append(f"finished {result.flows_finished} + in flight "
                            f"{in_flight} != started {result.flows_total}")
        digest = fingerprint([result.summary_row(), result.flows_finished,
                              result.flows_total, result.queue_samples])
        return RepOutcome(
            fingerprint=digest, decisions=ticks * len(net.switch_names()),
            fct_norm=float(fct.avg), failures=failures,
            detail={"fct_norm_pet": float(fct.avg),
                    "flows_finished": result.flows_finished,
                    "flows_total": result.flows_total})


class PretrainBatch(Workload):
    """Four-seed offline pretraining stepped as one replica batch."""

    name = "pretrain_batch"
    n_seeds = 4

    def setup(self, seed: int, tiny: bool) -> Any:
        from repro.core.config import PETConfig
        from repro.netsim.fluid import FluidNetwork
        from repro.parallel.seeding import derive_seed
        intervals = 60 if tiny else 520
        seeds = [derive_seed(seed, i) for i in range(self.n_seeds)]
        fabric = bench_fabric()
        nets = {}
        for s in seeds:
            net = FluidNetwork(fabric, seed=s)
            load_traffic(net, workload="websearch", load=0.6,
                         duration=intervals * DELTA_T,
                         host_rate_bps=fabric.host_rate_bps,
                         seed=s + 1, incast=True)
            nets[s] = net
        config = PETConfig.fast(beta1=0.3, beta2=0.7, delta_t=DELTA_T)
        return config, seeds, nets, intervals

    def run(self, state: Any) -> Any:
        from repro.core.training import pretrain_multi_seed
        config, seeds, nets, intervals = state
        return pretrain_multi_seed(nets.__getitem__, config, seeds=seeds,
                                   intervals_per_episode=intervals,
                                   sim_batch=True)

    def finish(self, state: Any, result: Any, ticks: int) -> RepOutcome:
        _config, seeds, nets, _intervals = state
        failures = []
        if [r.seed for r in result] != seeds:
            failures.append("results are not one per seed, in seed order")
        states = [r.state for r in result]
        if not all(np.isfinite(a).all() for a in _arrays(states)):
            failures.append("non-finite trained weights")
        rewards = [r.mean_reward for r in result]
        if not all(math.isfinite(x) for x in rewards):
            failures.append("non-finite mean reward")
        fabric = bench_fabric()
        finished = [f for s in seeds for f in nets[s].finished_flows]
        n_switches = len(nets[seeds[0]].switch_names())
        return RepOutcome(
            fingerprint=fingerprint([states, rewards]),
            decisions=ticks * len(seeds) * n_switches,
            fct_norm=normalized_fct(finished, fabric.host_rate_bps,
                                    fabric.base_rtt),
            failures=failures,
            detail={"replicas": len(result),
                    "mean_reward": float(np.mean(rewards))})


def _arrays(obj: Any) -> List[np.ndarray]:
    """Every array in a nested state dict, in sorted-key order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        return [a for k in sorted(obj, key=repr) for a in _arrays(obj[k])]
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in _arrays(v)]
    return []


class ServeLeafSpine(Workload):
    """Closed loop, one caller: ``ControlPlane.tick()`` back-to-back."""

    name = "serve_leafspine"
    #: generous: a healthy run never falls back
    decide_budget_s = 2.0
    #: the served policies are fixed models (as a checkpoint would be);
    #: only the traffic comes from the run's seed
    policy_seeds = {"pet": 0, "pet_shadow": 1}

    def setup(self, seed: int, tiny: bool) -> Any:
        from repro.core.config import PETConfig
        from repro.core.pet import PETController
        from repro.netsim.fluid import FluidNetwork
        from repro.serve.gate import GateConfig, PromotionGate
        from repro.serve.plane import ControlPlane, ServeConfig
        ticks = 60 if tiny else 1000
        fabric = bench_fabric()
        net = FluidNetwork(fabric, seed=seed)
        load_traffic(net, workload="websearch", load=0.6,
                     duration=ticks * DELTA_T,
                     host_rate_bps=fabric.host_rate_bps,
                     seed=seed + 1, incast=True)
        plane = ControlPlane(
            lambda: net,
            config=ServeConfig(delta_t=DELTA_T,
                               decide_budget_s=self.decide_budget_s),
            gate=PromotionGate(GateConfig(canary_ticks=ticks // 4)))
        for name, s in self.policy_seeds.items():
            plane.register(name, PETController(
                plane.switches, PETConfig.fast(delta_t=DELTA_T, seed=s)))
        # A fresh plane has no baseline to regress against, so the
        # canary is promoted after canary_ticks acting ticks.
        plane.promote("pet", force=True)
        return plane, ticks, fabric

    def run(self, state: Any) -> Any:
        plane, ticks, _fabric = state
        tick = plane.tick
        for _ in range(ticks):
            tick()
        return plane

    def finish(self, state: Any, result: Any, ticks: int) -> RepOutcome:
        plane, n_ticks, fabric = state
        self.discard(state)
        records = plane.registry.records
        shadow_faults = sum(r.faults for r in records.values())
        fallbacks = plane.applied_by["fallback"]
        misses = plane.breaches_total
        failures = []
        if plane.registry.incumbent_name != "pet":
            failures.append(f"incumbent is {plane.registry.incumbent_name!r}"
                            ", not the PET policy")
        if fallbacks or misses or shadow_faults or plane.telemetry_failures:
            failures.append(f"{fallbacks} fallbacks, {misses} deadline "
                            f"misses, {shadow_faults} shadow faults, "
                            f"{plane.telemetry_failures} telemetry failures")
        decided = (plane.applied_by["incumbent"] + plane.applied_by["canary"]
                   + misses + sum(r.shadow_ticks for r in records.values()))
        net = plane.net
        digest = fingerprint([
            dict(plane.applied_by), plane.registry.incumbent_name,
            {k: (r.stage, list(r.proposal_log)) for k, r in records.items()},
            net.q_len, net.kmin, net.kmax, net.pmax,
            len(net.finished_flows)])
        return RepOutcome(
            fingerprint=digest, decisions=decided * len(plane.switches),
            fct_norm=normalized_fct(net.finished_flows,
                                    fabric.host_rate_bps, fabric.base_rtt),
            ops=n_ticks,
            failed_ops=fallbacks + misses + shadow_faults,
            failures=failures,
            detail={"ticks": n_ticks,
                    "incumbent": plane.registry.incumbent_name,
                    "serve.fallbacks": fallbacks,
                    "serve.deadline_misses": misses,
                    "serve.shadow_faults": shadow_faults})

    def discard(self, state: Any) -> None:
        state[0].close()


class FabricXL(Workload):
    """Static SECN1 on the 10 240-host fat-tree: the fluid kernel alone."""

    name = "fabric_xl"

    def setup(self, seed: int, tiny: bool) -> Any:
        from repro.baselines.static_ecn import secn1
        from repro.netsim.fattree import FatTreeConfig
        from repro.netsim.shard import ShardedFluidNetwork
        cfg = FatTreeConfig.small() if tiny else FatTreeConfig.scale_xl()
        intervals = 20 if tiny else 16
        net = ShardedFluidNetwork(cfg, shards=1, seed=seed)
        started = load_traffic(net, workload="websearch", load=0.3,
                               duration=intervals * DELTA_T,
                               host_rate_bps=cfg.host_rate_bps,
                               seed=seed + 1, incast=False)
        return net, secn1(), intervals, started

    def run(self, state: Any) -> Any:
        from repro.core.training import run_control_loop
        net, controller, intervals, _started = state
        return run_control_loop(net, controller, intervals=intervals,
                                delta_t=DELTA_T)

    def finish(self, state: Any, result: Any, ticks: int) -> RepOutcome:
        net, _controller, _intervals, started = state
        finished = len(net.finished_flows)
        active = net.active_flow_count()
        failures = []
        if finished + active != started:
            failures.append(f"finished {finished} + active {active} != "
                            f"started {started}")
        table = net.flow_table_state()
        digest = fingerprint([net.q_len, table, finished, active,
                              result.reward_trace])
        cfg = net.config
        fct = normalized_fct(net.finished_flows, cfg.host_rate_bps,
                             cfg.base_rtt)
        self.discard(state)
        return RepOutcome(
            fingerprint=digest,
            decisions=ticks * len(net.switch_names()),
            fct_norm=fct, failures=failures,
            detail={"flows_started": started, "flows_finished": finished,
                    "flows_active": active})

    def discard(self, state: Any) -> None:
        state[0].close()


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig4Point(), PretrainBatch(), ServeLeafSpine(),
                        FabricXL())}
