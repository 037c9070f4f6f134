"""Hybrid training (paper §4.4): offline pre-training + online tuning.

``run_control_loop`` is the generic drive loop shared by training,
evaluation and every benchmark: advance the simulator one Δt, read the
per-switch statistics, let the controller decide, repeat.

``pretrain_offline`` reproduces the offline phase: a PET controller is
trained against recorded/simulated traffic on a training fabric, and a
*single* agent's parameters (the best-rewarded one) are exported as the
initial model that deployment installs on every switch
(:meth:`repro.core.pet.PETController.install_pretrained`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import PETConfig
from repro.core.pet import PETController
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.parallel.seeding import current_task_seed, derive_seed, task_seed
from repro.rl.checkpoint import CheckpointManager

__all__ = ["LoopResult", "run_control_loop", "run_control_loop_batched",
           "pretrain_offline",
           "pretrain_offline_multi", "SeedRunResult", "pretrain_one_seed",
           "pretrain_multi_seed"]


@dataclass
class LoopResult:
    """Aggregates of one control-loop run."""

    intervals: int
    mean_reward: float
    rewards_per_switch: Dict[str, float]
    reward_trace: List[float] = field(default_factory=list)
    #: structured fault events (:class:`repro.resilience.log.FaultEvent`)
    #: collected from the chaos injector and/or the resilient guard.
    faults: List = field(default_factory=list)

    @property
    def fault_count(self) -> int:
        return len(self.faults)


def _collect_faults(controller, chaos) -> List:
    """Merge fault events from the injector and a guarded controller."""
    logs = []
    if chaos is not None and getattr(chaos, "log", None) is not None:
        logs.append(chaos.log)
    guard_log = getattr(controller, "log", None)
    if guard_log is not None and all(guard_log is not lg for lg in logs):
        logs.append(guard_log)
    events = [e for lg in logs for e in getattr(lg, "events", [])]
    if len(logs) > 1:
        events.sort(key=lambda e: (e.time, e.seq, e.kind, e.switch or ""))
    return events


def run_control_loop(network, controller, *, intervals: int, delta_t: float,
                     on_interval: Optional[Callable[[int, float, Dict], None]] = None,
                     chaos=None) -> LoopResult:
    """Drive a controller against a simulator for ``intervals`` tunings.

    Parameters
    ----------
    network:
        Anything with ``advance(dt)``, ``queue_stats()``, ``set_ecn`` and
        ``now`` — the packet, fluid and sharded fat-tree simulators all
        qualify, so one loop drives every substrate (and every fabric
        scale) unchanged.
    controller:
        Anything implementing :class:`repro.core.controller.Controller`.
    on_interval:
        Optional callback ``(interval_index, now, stats)`` for harness
        instrumentation (pattern switches, failure injection, probes).
    chaos:
        Optional :class:`repro.resilience.faults.ChaosInjector` — its
        ``tick`` runs at each interval boundary, and ``filter_stats``
        poisons the telemetry *the controller sees* (metrics and
        ``on_interval`` keep observing the network's ground truth).  The
        injected/handled fault events land in :attr:`LoopResult.faults`.
    """
    if intervals <= 0:
        raise ValueError("intervals must be positive")
    tr = get_tracer()
    reg = get_registry()
    trace: List[float] = []
    per_switch: Dict[str, List[float]] = {}
    for i in range(intervals):
        with tr.span("loop.tick", interval=i, now=network.now):
            if chaos is not None:
                chaos.tick(network.now)
            with tr.span("net.advance", interval=i):
                network.advance(delta_t)
            with tr.span("net.queue_stats", interval=i):
                stats = network.queue_stats()
            seen = (stats if chaos is None
                    else chaos.filter_stats(stats, network.now))
            with tr.span("controller.decide", interval=i):
                controller.decide(seen, network.now, network)
            util = [st.utilization for st in stats.values()]
            mean_util = float(np.mean(util)) if util else 0.0
            trace.append(mean_util)
            for name, st in stats.items():
                per_switch.setdefault(name, []).append(st.avg_qlen_bytes)
            if reg:
                reg.inc("loop.intervals")
                reg.observe("loop.mean_utilization", mean_util)
            if on_interval is not None:
                on_interval(i, network.now, stats)
    rewards = {k: float(np.mean(v)) for k, v in per_switch.items()}
    return LoopResult(intervals=intervals,
                      mean_reward=float(np.mean(trace)) if trace else 0.0,
                      rewards_per_switch=rewards, reward_trace=trace,
                      faults=_collect_faults(controller, chaos))


def run_control_loop_batched(batch, controllers: Sequence, *,
                             intervals: int, delta_t: float,
                             on_intervals: Optional[Sequence] = None,
                             task_seeds: Optional[Sequence] = None
                             ) -> List[LoopResult]:
    """Drive R (controller, replica) pairs against one batched simulator.

    The sim-as-batch counterpart of :func:`run_control_loop`: ``batch``
    is a :class:`repro.netsim.batchfluid.BatchFluidNetwork` whose
    replica *r* is steered by ``controllers[r]``.  All replicas advance
    with one vectorized kernel per Δt; the per-replica bookkeeping
    (stats, decide, reward trace) then runs replica-major with exactly
    :func:`run_control_loop`'s arithmetic, so each replica's
    ``LoopResult`` is bit-identical to a solo run of the same pair.

    ``task_seeds[r]`` (when given) scopes every replica-r call in
    :func:`repro.parallel.seeding.task_seed`, mirroring how the rollout
    engine seeds one task per replica on the per-process path.  Chaos
    injection is not supported here — batch replicas steer faults
    directly through ``batch.view(r)``.
    """
    if intervals <= 0:
        raise ValueError("intervals must be positive")
    R = len(batch)
    if len(controllers) != R:
        raise ValueError(f"need {R} controllers, got {len(controllers)}")
    tr = get_tracer()
    reg = get_registry()
    seeds = task_seeds if task_seeds is not None else [None] * R
    traces: List[List[float]] = [[] for _ in range(R)]
    per_switch: List[Dict[str, List[float]]] = [{} for _ in range(R)]
    for i in range(intervals):
        with tr.span("loop.tick_batched", interval=i, now=batch.now,
                     replicas=R):
            batch.advance(delta_t)
            for r in range(R):
                net = batch.view(r)
                stats = net.queue_stats()
                with task_seed(seeds[r]):
                    controllers[r].decide(stats, net.now, net)
                util = [st.utilization for st in stats.values()]
                mean_util = float(np.mean(util)) if util else 0.0
                traces[r].append(mean_util)
                for name, st in stats.items():
                    per_switch[r].setdefault(name, []).append(
                        st.avg_qlen_bytes)
                if reg:
                    reg.inc("loop.intervals")
                    reg.observe("loop.mean_utilization", mean_util)
                if on_intervals is not None and on_intervals[r] is not None:
                    on_intervals[r](i, net.now, stats)
    return [LoopResult(intervals=intervals,
                       mean_reward=float(np.mean(traces[r])) if traces[r]
                       else 0.0,
                       rewards_per_switch={k: float(np.mean(v))
                                           for k, v in per_switch[r].items()},
                       reward_trace=traces[r],
                       faults=_collect_faults(controllers[r], None))
            for r in range(R)]


def pretrain_offline(make_network: Callable[[], object],
                     config: Optional[PETConfig] = None, *,
                     episodes: int = 3, intervals_per_episode: int = 200,
                     seed: Optional[int] = None) -> Dict:
    """Offline phase: train PET on simulated traffic, export one model.

    ``make_network`` builds a fresh traffic-loaded simulator per episode
    (the caller decides workload/load — typically the historical traffic
    mix of the target data center, §4.4.1).

    Returns the state dict of the best-performing agent, ready for
    :meth:`PETController.install_pretrained`.
    """
    net = make_network()
    cfg = _resolve_config(config, seed)
    controller = PETController(net.switch_names(), cfg)
    controller.set_training(True)
    for ep in range(episodes):
        if ep > 0:
            net = make_network()
            controller.reset_episode()
        run_control_loop(net, controller, intervals=intervals_per_episode,
                         delta_t=cfg.delta_t)
    # Export the agent with the best recent reward as the initial model.
    # Note: reward magnitude tracks how congested a switch is, so the
    # single-model export picks among the *congested* (leaf) agents —
    # an idle spine earns a trivially high reward with an untrained
    # policy.  Congestion is identified by the latency term: agents
    # whose queues never built saw no learning signal.
    informative = [s for s in controller.switches
                   if controller.mean_recent_reward(s) < 0.98]
    pool = informative or controller.switches
    best = max(pool, key=lambda s: controller.mean_recent_reward(s))
    return controller.trainer.agents[best].state_dict()


def _resolve_config(config: Optional[PETConfig],
                    seed: Optional[int]) -> PETConfig:
    """Build/patch the training config, deriving a seed when none given.

    A seed-less training call inside an engine task adopts the task's
    spawn-key-derived seed (:func:`repro.parallel.seeding.current_task_seed`)
    instead of leaving ``seed=None`` — which would cascade into the
    shared ``default_rng(0)`` fallbacks and silently correlate every
    forked worker.  Outside an engine task, behaviour is unchanged.
    """
    if seed is None:
        seed = current_task_seed()
    if config is None:
        return PETConfig(seed=seed)
    if config.seed is None and seed is not None:
        return replace(config, seed=seed)
    return config


def _run_training_episodes(controller: PETController,
                           make_network: Callable[[], object],
                           first_net, *, episodes: int,
                           intervals_per_episode: int, delta_t: float,
                           checkpoints: Optional["CheckpointManager"] = None,
                           checkpoint_every: int = 500,
                           done_intervals: int = 0) -> List[LoopResult]:
    """Drive ``episodes`` training episodes; returns one LoopResult each."""
    results: List[LoopResult] = []
    tr = get_tracer()
    net = first_net
    for ep in range(episodes):
        if ep > 0:
            net = make_network()
            controller.reset_episode()
        get_registry().inc("train.episodes")
        tr.event("train.episode", episode=ep,
                 intervals=intervals_per_episode)
        on_interval = None
        if checkpoints is not None:
            base = done_intervals + ep * intervals_per_episode

            def on_interval(i: int, now: float, stats: Dict,
                            _base: int = base) -> None:
                if (i + 1) % checkpoint_every == 0:
                    checkpoints.save(controller.state_dict(), _base + i + 1)
        results.append(run_control_loop(
            net, controller, intervals=intervals_per_episode,
            delta_t=delta_t, on_interval=on_interval))
    if checkpoints is not None:
        checkpoints.save(controller.state_dict(),
                         done_intervals + episodes * intervals_per_episode)
    return results


def pretrain_offline_multi(make_network: Callable[[], object],
                           config: Optional[PETConfig] = None, *,
                           episodes: int = 1, intervals_per_episode: int = 1000,
                           seed: Optional[int] = None,
                           checkpoints: Optional["CheckpointManager"] = None,
                           checkpoint_every: int = 500) -> Dict:
    """Offline phase exporting the full per-switch model set.

    When the deployment fabric is the training fabric (every benchmark in
    this repo), carrying each switch's own offline-trained model over is
    strictly better than broadcasting one: leaf and spine agents see very
    different observation distributions.  Returns
    ``{"switches": {...state per switch...}}`` for
    :meth:`PETController.load_state_dict`.

    With a :class:`repro.rl.checkpoint.CheckpointManager`, training is
    crash-safe: model state is checkpointed every ``checkpoint_every``
    intervals (and at each episode end), and a fresh call first resumes
    weights + exploration decay from the newest *uncorrupted* rotation
    (damaged files are skipped automatically).  The simulator timeline
    restarts — only learning state survives a crash.

    When called without a seed inside a :class:`repro.parallel.Engine`
    task, the task's spawn-key-derived seed is adopted (see
    :func:`_resolve_config`).
    """
    if checkpoints is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    net = make_network()
    cfg = _resolve_config(config, seed)
    controller = PETController(net.switch_names(), cfg)
    controller.set_training(True)
    done_intervals = 0
    if checkpoints is not None:
        resumed_step = checkpoints.restore_into(controller)
        if resumed_step is not None:
            controller.advance_exploration(resumed_step)
            done_intervals = resumed_step
    _run_training_episodes(controller, make_network, net, episodes=episodes,
                           intervals_per_episode=intervals_per_episode,
                           delta_t=cfg.delta_t, checkpoints=checkpoints,
                           checkpoint_every=checkpoint_every,
                           done_intervals=done_intervals)
    return controller.state_dict()


# --------------------------------------------------------------- multi-seed
@dataclass
class SeedRunResult:
    """One seed's offline training run (picklable across workers)."""

    seed: int
    state: Dict
    episodes: List[LoopResult] = field(default_factory=list)

    @property
    def reward_trace(self) -> List[float]:
        """Per-interval mean-utilization trace, episodes concatenated."""
        return [x for ep in self.episodes for x in ep.reward_trace]

    @property
    def mean_reward(self) -> float:
        trace = self.reward_trace
        return float(np.mean(trace)) if trace else 0.0


def pretrain_one_seed(make_network: Callable[[int], object],
                      config: Optional[PETConfig] = None, *,
                      seed: int, episodes: int = 1,
                      intervals_per_episode: int = 1000,
                      checkpoint_dir: Optional[str] = None,
                      checkpoint_every: int = 500,
                      checkpoint_keep: int = 3) -> SeedRunResult:
    """One seed's offline training rollout (an engine task body).

    ``make_network(seed)`` must build a fresh traffic-loaded simulator —
    and must be picklable (module-level function or a
    :func:`functools.partial` over one) so the rollout can execute in a
    worker process.  With ``checkpoint_dir``, checkpoints rotate inside
    a per-seed subdirectory (``seed-{seed:08d}/``), so concurrent
    workers never contend for the same rotation.
    """
    cfg = _resolve_config(config, seed)
    if cfg.seed != seed:
        cfg = replace(cfg, seed=seed)
    net = make_network(seed)
    controller = PETController(net.switch_names(), cfg)
    controller.set_training(True)
    checkpoints = None
    if checkpoint_dir is not None:
        checkpoints = CheckpointManager(
            os.path.join(checkpoint_dir, f"seed-{seed:08d}"),
            keep=checkpoint_keep)
    episodes_out = _run_training_episodes(
        controller, partial(make_network, seed), net, episodes=episodes,
        intervals_per_episode=intervals_per_episode, delta_t=cfg.delta_t,
        checkpoints=checkpoints, checkpoint_every=checkpoint_every)
    return SeedRunResult(seed=seed, state=controller.state_dict(),
                         episodes=episodes_out)


def pretrain_multi_seed(make_network: Callable[[int], object],
                        config: Optional[PETConfig] = None, *,
                        seeds: Optional[Sequence[int]] = None,
                        n_seeds: Optional[int] = None, seed_root: int = 0,
                        episodes: int = 1, intervals_per_episode: int = 1000,
                        workers: int = 1,
                        checkpoint_dir: Optional[str] = None,
                        checkpoint_every: int = 500,
                        sim_batch: bool = False) -> List[SeedRunResult]:
    """Fan independent per-seed offline trainings across workers.

    The multi-seed analogue of :func:`pretrain_offline_multi`: each seed
    is one :class:`repro.parallel.TaskSpec` executed by a
    :class:`repro.parallel.Engine` with ``workers`` processes.  Seeds
    default to the spawn-key derivation ``derive_seed(seed_root, i)``;
    results come back ordered by task id, so ``workers=1`` and
    ``workers=N`` return identical lists (``tests/test_determinism.py``
    locks this down).

    ``sim_batch=True`` selects the sim-as-batch replica backend instead
    of the process pool: all seeds' simulators step as one
    :class:`repro.netsim.batchfluid.BatchFluidNetwork` tensor program
    in this process.  Results are bit-identical to the per-process path
    (``tests/test_training_helpers.py`` locks this down); it requires
    ``make_network`` to build fluid-model networks of one shared fabric
    shape and ignores ``workers``.
    """
    from repro.parallel.engine import Engine, TaskSpec
    if seeds is None:
        if n_seeds is None or n_seeds < 1:
            raise ValueError("pass seeds=... or n_seeds >= 1")
        seeds = [derive_seed(seed_root, i) for i in range(n_seeds)]
    seeds = [int(s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if sim_batch:
        return _pretrain_seeds_batched(
            make_network, config, seeds=seeds, episodes=episodes,
            intervals_per_episode=intervals_per_episode,
            checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every)
    specs = [TaskSpec(task_id=i, fn=pretrain_one_seed,
                      args=(make_network, config),
                      kwargs={"seed": s, "episodes": episodes,
                              "intervals_per_episode": intervals_per_episode,
                              "checkpoint_dir": checkpoint_dir,
                              "checkpoint_every": checkpoint_every},
                      seed=s)
             for i, s in enumerate(seeds)]
    return Engine(workers=workers).run(specs).values()


def _pretrain_seeds_batched(make_network: Callable[[int], object],
                            config: Optional[PETConfig], *,
                            seeds: Sequence[int], episodes: int,
                            intervals_per_episode: int,
                            checkpoint_dir: Optional[str],
                            checkpoint_every: int,
                            checkpoint_keep: int = 3) -> List[SeedRunResult]:
    """Sim-as-batch body of :func:`pretrain_multi_seed`.

    One replica per seed; per-replica setup/decide runs inside
    ``task_seed(seed)`` exactly as the engine scopes one task per seed,
    so every ``SeedRunResult`` is bit-identical to the per-process
    path's.
    """
    from repro.netsim.batchfluid import BatchCompatError, BatchFluidNetwork
    from repro.netsim.fluid import FluidNetwork
    tr = get_tracer()
    ctxs = []                       # (seed, cfg, controller, checkpoints)
    nets = []
    for s in seeds:
        with task_seed(s):
            cfg = _resolve_config(config, s)
            if cfg.seed != s:
                cfg = replace(cfg, seed=s)
            net = make_network(s)
            if not isinstance(net, FluidNetwork):
                raise BatchCompatError(
                    "sim_batch=True requires fluid-model networks "
                    f"(got {type(net).__name__}); use the per-process "
                    "path for other simulators")
            controller = PETController(net.switch_names(), cfg)
            controller.set_training(True)
        checkpoints = None
        if checkpoint_dir is not None:
            checkpoints = CheckpointManager(
                os.path.join(checkpoint_dir, f"seed-{s:08d}"),
                keep=checkpoint_keep)
        ctxs.append((s, cfg, controller, checkpoints))
        nets.append(net)
    delta_ts = {ctx[1].delta_t for ctx in ctxs}
    if len(delta_ts) != 1:
        raise BatchCompatError("sim_batch replicas must share delta_t")
    delta_t = delta_ts.pop()
    episodes_out: List[List[LoopResult]] = [[] for _ in seeds]
    for ep in range(episodes):
        if ep > 0:
            nets = []
            for s, cfg, controller, _ck in ctxs:
                with task_seed(s):
                    nets.append(make_network(s))
                    controller.reset_episode()
        batch = BatchFluidNetwork.from_networks(nets)
        on_intervals = []
        for s, cfg, controller, checkpoints in ctxs:
            get_registry().inc("train.episodes")
            tr.event("train.episode", episode=ep,
                     intervals=intervals_per_episode, seed=s)
            cb = None
            if checkpoints is not None:
                base = ep * intervals_per_episode

                def cb(i: int, now: float, stats: Dict, _base: int = base,
                       _ck=checkpoints, _ctrl=controller) -> None:
                    if (i + 1) % checkpoint_every == 0:
                        _ck.save(_ctrl.state_dict(), _base + i + 1)
            on_intervals.append(cb)
        results = run_control_loop_batched(
            batch, [ctx[2] for ctx in ctxs],
            intervals=intervals_per_episode, delta_t=delta_t,
            on_intervals=on_intervals, task_seeds=list(seeds))
        for r, res in enumerate(results):
            episodes_out[r].append(res)
    for s, _cfg, controller, checkpoints in ctxs:
        if checkpoints is not None:
            checkpoints.save(controller.state_dict(),
                             episodes * intervals_per_episode)
    return [SeedRunResult(seed=s, state=controller.state_dict(),
                          episodes=episodes_out[r])
            for r, (s, _cfg, controller, _ck) in enumerate(ctxs)]
