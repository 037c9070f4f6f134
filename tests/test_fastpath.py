"""Differential tests for :mod:`repro.fastpath` — fast vs reference.

The fastpath contract is *bit-identity*: every optimized implementation
(batched cross-agent inference, vectorized GAE, fused Adam, tuple-heap
event loop, scratch-buffer fluid step) must produce exactly the bytes
the pre-existing reference loops produce, across seeds and workloads.
These tests pin that contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import Simulator
from repro.rl.gae import compute_gae, discounted_returns
from repro.rl.ippo import IPPOTrainer
from repro.rl.nn import MLP, clip_gradients
from repro.rl.ppo import PPOConfig

from tests.fingerprint import _fingerprint


def _canon(x):
    """Canonical nested representation with exact float equality."""
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tobytes()
    return x


# ------------------------------------------------------------ batched IPPO
def _rollout(fastpath, seed, n_agents=4, steps=30, updates=2):
    """Drive act/record/update for a few cycles; return everything observable."""
    cfg = PPOConfig(obs_dim=6, n_actions=10, hidden=(16, 16), seed=seed,
                    minibatch_size=16, epochs=2, fastpath=fastpath)
    ids = [f"sw{i}" for i in range(n_agents)]
    trainer = IPPOTrainer(ids, cfg)
    obs_rng = np.random.default_rng(seed + 1000)
    log = []
    for u in range(updates):
        for t in range(steps):
            obs = {aid: obs_rng.normal(size=6) for aid in ids}
            eps = {aid: 0.2 if (t + i) % 3 else 0.0 for i, aid in enumerate(ids)}
            dec = trainer.act(obs, epsilons=eps)
            vals = trainer.values(obs)
            log.append((_canon(dec), _canon(vals)))
            rewards = {aid: float(obs_rng.normal()) for aid in ids}
            dones = {aid: t == steps - 1 for aid in ids}
            trainer.record(obs, dec, rewards, dones)
        last = {aid: obs_rng.normal(size=6) for aid in ids}
        stats = trainer.update(last)
        log.append(_canon(stats))
    return log, _canon(trainer.state_dict())


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_batched_ippo_bit_identical(seed):
    fast = _rollout(True, seed)
    ref = _rollout(False, seed)
    assert fast == ref


def test_heterogeneous_agents_fall_back_to_per_agent_loop():
    cfg = PPOConfig(obs_dim=5, n_actions=4, hidden=(8,), seed=3, fastpath=True)
    trainer = IPPOTrainer(["a", "b"], cfg)
    # Make agent b's actor a different shape -> stacking must fail ...
    trainer.agents["b"].actor = MLP([5, 12, 4], activation="tanh",
                                    rng=np.random.default_rng(0))
    assert trainer._stacked() is None
    # ... and the per-agent loop must still serve act()/values().
    obs = {"a": np.zeros(5), "b": np.ones(5)}
    dec = trainer.act(obs, greedy=True)
    assert set(dec) == {"a", "b"}
    vals = trainer.values(obs)
    assert vals["a"] == trainer.agents["a"].value(obs["a"])


# ------------------------------------------------------------ vectorized GAE
@given(seed=st.integers(0, 2**16), t=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_gae_fastpath_exact(seed, t):
    rng = np.random.default_rng(seed)
    rewards = rng.normal(size=t)
    values = rng.normal(size=t)
    dones = rng.random(t) < 0.2
    truncs = dones & (rng.random(t) < 0.5)
    boots = np.where(truncs, rng.normal(size=t), 0.0)
    last_value = float(rng.normal())
    a_f, r_f = compute_gae(rewards, values, dones, last_value, 0.99, 0.95,
                           truncateds=truncs, bootstrap_values=boots,
                           fastpath=True)
    a_r, r_r = compute_gae(rewards, values, dones, last_value, 0.99, 0.95,
                           truncateds=truncs, bootstrap_values=boots,
                           fastpath=False)
    assert a_f.tobytes() == a_r.tobytes()
    assert r_f.tobytes() == r_r.tobytes()
    d_f = discounted_returns(rewards, dones, last_value, 0.99, fastpath=True)
    d_r = discounted_returns(rewards, dones, last_value, 0.99, fastpath=False)
    assert d_f.tobytes() == d_r.tobytes()


# ------------------------------------------------------------ event engine
@given(st.data())
@settings(max_examples=30, deadline=None)
def test_engine_pending_counter_matches_scan(data):
    """Random schedule/cancel/run in both heap layouts: the O(1) counter
    always equals the O(n) heap scan, and both modes execute the same
    event sequence."""
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["schedule", "cancel", "run"]),
                  st.floats(0.0, 1.0, allow_nan=False)),
        min_size=1, max_size=60))
    fired = {True: [], False: []}
    pend = {True: [], False: []}
    for fastpath in (True, False):
        sim = Simulator(fastpath=fastpath)
        handles = []
        for i, (op, x) in enumerate(ops):
            if op == "schedule":
                handles.append(sim.schedule(x, fired[fastpath].append, i))
            elif op == "cancel" and handles:
                handles[int(x * (len(handles) - 1))].cancel()
            elif op == "run":
                sim.run(until=sim.now + x)
            assert sim.pending() == sim._scan_pending()
            pend[fastpath].append(sim.pending())
        sim.run()
        assert sim.pending() == sim._scan_pending() == 0
    assert fired[True] == fired[False]
    assert pend[True] == pend[False]


def test_engine_cancel_after_fire_does_not_corrupt_counter():
    sim = Simulator(fastpath=True)
    ev = sim.schedule(0.1, lambda: None)
    sim.run(until=0.2)
    assert sim.pending() == 0
    ev.cancel()           # transports re-arm timers from inside callbacks
    ev.cancel()
    assert sim.pending() == 0 == sim._scan_pending()


# ------------------------------------------------------------ clip_gradients
def test_clip_gradients_pins_pre_clip_norm():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=(24, 64)), rng.normal(size=64),
             rng.normal(size=(64, 10)), rng.normal(size=10)]
    expect = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
    copies = [g.copy() for g in grads]
    total = clip_gradients(copies, max_norm=0.5)
    # the vectorized np.dot reduction must keep the seed's exact norm
    assert total == expect
    scale = 0.5 / expect
    for before, after in zip(grads, copies):
        assert after.tobytes() == (before * scale).tobytes()
    # under the clip threshold: untouched, same norm convention
    small = [g * 1e-6 for g in grads]
    keep = [g.copy() for g in small]
    total_small = clip_gradients(small, max_norm=0.5)
    assert total_small == expect * 1e-6 or total_small == float(
        np.sqrt(sum(float((g ** 2).sum()) for g in keep)))
    for a, b in zip(small, keep):
        assert a.tobytes() == b.tobytes()


# ------------------------------------------------------------ simulators
# Each helper builds one small workload with the given ``fastpath`` flag,
# runs it, and returns everything it observed; the two legs must
# fingerprint identically.

def traffic_net(seed, duration, load=0.6, fastpath=True):
    """A small leaf-spine fluid network loaded with Poisson websearch flows."""
    from repro.netsim.fluid import FluidConfig, FluidNetwork
    from repro.traffic.generator import PoissonTrafficGenerator, TrafficConfig
    from repro.traffic.workloads import workload_by_name

    fabric = FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                         host_rate_bps=10e9, spine_rate_bps=40e9)
    net = FluidNetwork(fabric, seed=seed, fastpath=fastpath)
    gen = PoissonTrafficGenerator(net.host_names(),
                                  workload_by_name("websearch"),
                                  rng=np.random.default_rng(seed + 1))
    net.start_flows(gen.generate(TrafficConfig(
        load=load, duration=duration, host_rate_bps=fabric.host_rate_bps,
        start_time=0.0)))
    return net


def _fluid_sim(fastpath, intervals=50):
    from repro.netsim.ecn import ECNConfig

    net = traffic_net(3, intervals * 1e-3, load=0.7, fastpath=fastpath)
    net.set_ecn_all(ECNConfig(kmin_bytes=20_000, kmax_bytes=80_000,
                              pmax=0.2))
    stats = []
    for _ in range(intervals):
        net.advance(1e-3)
        stats.append(net.queue_stats())
    return {"stats": stats, "q_len": net.q_len.copy()}


def _packet_sim(fastpath, n_flows=12, intervals=20):
    from repro.netsim.flow import Flow
    from repro.netsim.network import PacketNetwork
    from repro.netsim.topology import TopologyConfig

    topo = TopologyConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                          host_rate_bps=2e8, spine_rate_bps=8e8)
    net = PacketNetwork(topo, seed=0, fastpath=fastpath)
    rng = np.random.default_rng(7)
    hosts = net.host_names()
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        flows.append(Flow(i, hosts[src], hosts[dst],
                          int(rng.integers(20_000, 300_000)),
                          start_time=float(rng.uniform(0, 2e-3))))
    net.start_flows(flows)
    stats = []
    for _ in range(intervals):
        net.advance(1e-3)
        stats.append(net.queue_stats())
    return {"stats": stats,
            "events": net.sim.events_processed,
            "latencies": list(net.latencies),
            "finished": [(f.flow_id, f.finish_time)
                         for f in net.finished_flows]}


def _tick_loop(fastpath, intervals=60):
    from repro.core.config import PETConfig
    from repro.core.pet import PETController
    from repro.core.training import run_control_loop

    net = traffic_net(0, intervals * 1e-3, fastpath=fastpath)
    cfg = PETConfig(delta_t=1e-3, update_interval=16, seed=0,
                    fastpath=fastpath)
    pet = PETController(net.switch_names(), cfg)
    res = run_control_loop(net, pet, intervals=intervals, delta_t=1e-3)
    return {"trace": res.reward_trace,
            "rewards": res.rewards_per_switch,
            "state": pet.state_dict(),
            "q_len": net.q_len.copy()}


def test_fluid_network_fastpath_bit_identical():
    assert _fingerprint(_fluid_sim(True)) == _fingerprint(_fluid_sim(False))


def test_packet_network_fastpath_bit_identical():
    assert _fingerprint(_packet_sim(True)) == _fingerprint(_packet_sim(False))


def test_control_loop_fastpath_bit_identical():
    assert _fingerprint(_tick_loop(True)) == _fingerprint(_tick_loop(False))


# The two tests below construct the twins *directly* so the reference
# legs of FluidNetwork/PacketNetwork (__init__, advance, queue_stats,
# _flow_observations with fastpath=False) are pinned by name — the
# PET103 dual-path-parity contract.

def _twin_fluid(fastpath):
    from repro.netsim.flow import Flow
    from repro.netsim.fluid import FluidConfig, FluidNetwork

    net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                   host_rate_bps=1e8, spine_rate_bps=4e8),
                       seed=5, fastpath=fastpath)
    net.start_flows([Flow(i, f"h{i}", "h3", 120_000) for i in range(3)])
    for _ in range(5):
        net.advance(0.002)
    return net


def test_fluid_network_reference_twin_direct():
    fast, ref = _twin_fluid(True), _twin_fluid(False)
    assert fast.queue_stats() == ref.queue_stats()
    assert fast._flow_observations() == ref._flow_observations()


def test_packet_network_reference_twin_direct():
    from repro.netsim.flow import Flow
    from repro.netsim.network import PacketNetwork
    from repro.netsim.topology import TopologyConfig

    stats = {}
    for fastpath in (True, False):
        net = PacketNetwork(TopologyConfig(n_spine=1, n_leaf=2,
                                           hosts_per_leaf=2,
                                           host_rate_bps=1e8,
                                           spine_rate_bps=4e8),
                            seed=5, fastpath=fastpath)
        net.start_flows([Flow(i, f"h{i}", "h3", 30_000) for i in range(3)])
        net.advance(0.02)
        stats[fastpath] = net.queue_stats()
    assert stats[True] == stats[False]



# ------------------------------------------------------------ fluid kernel
# The kernel sums over *every* slot below the flow high-water mark (an
# inactive slot adds an exact +0.0 through its stale src/path row) and
# gathers the per-hop terms behind an identity column (a padded hop
# reads x1.0 / min(., 1.0) / +0.0).  These differentials drive exactly
# those cases against the reference ``FluidNetwork._step``.

def _kernel_fabric():
    from repro.netsim.fluid import FluidConfig

    # tiny initial capacity: the flow storage grows mid-run
    return FluidConfig(n_spine=2, n_leaf=2, hosts_per_leaf=3,
                       host_rate_bps=1e9, spine_rate_bps=2e9,
                       initial_flow_capacity=4)


def _kernel_flows(seed):
    """Staggered mice and elephants: mice finish within a few steps and
    leave holes; bursts of three flows from h0 overload its NIC; every
    third burst stays inside leaf 0 (a one-hop path)."""
    from repro.netsim.flow import Flow

    rng = np.random.default_rng(seed)
    flows = []
    for burst in range(12):
        start = float(rng.uniform(0.0, 8e-3))
        for k in range(3):
            dst = "h1" if burst % 3 == 0 else f"h{3 + k}"
            flows.append(Flow(len(flows), "h0", dst,
                              int(rng.choice([3_000, 40_000, 400_000])),
                              start_time=start))
        src, dst = rng.choice(6, size=2, replace=False)
        flows.append(Flow(len(flows), f"h{src}", f"h{dst}",
                          int(rng.integers(2_000, 200_000)),
                          start_time=float(rng.uniform(0.0, 8e-3))))
    return flows


def _kernel_event(net, i):
    """Control-plane changes between advances (applied to any network)."""
    from repro.netsim.ecn import ECNConfig

    if i == 20:
        net.set_ecn("leaf0", ECNConfig(kmin_bytes=2_000, kmax_bytes=20_000,
                                       pmax=0.5))
    elif i == 35:
        net.set_fabric_capacity_factor(0.5)
    elif i == 50:
        net.fail_uplinks(0.5, rng=np.random.default_rng(3))
    elif i == 65:
        net.restore_uplinks()
        net.set_fabric_capacity_factor(1.0)


def _kernel_observe(net):
    n = net._n_flows
    return {"stats": net.queue_stats(), "q_len": net.q_len.copy(),
            "flows": [getattr(net, name)[:n].copy()
                      for name in ("f_rate", "f_alpha", "f_remaining",
                                   "f_active", "f_spine", "f_path")],
            "finished": [(f.flow_id, f.finish_time)
                         for f in net.finished_flows],
            "latencies": list(net.latencies)}


_KERNEL_ADVANCES = 100


def _kernel_solo(fastpath, seed, *, idle=False, witness=None):
    from repro.netsim.fluid import FluidNetwork

    net = FluidNetwork(_kernel_fabric(), seed=seed, fastpath=fastpath)
    if not idle:
        net.start_flows(_kernel_flows(seed))
    line = net.config.host_rate_bps / 8.0
    trace = []
    for i in range(_KERNEL_ADVANCES):
        _kernel_event(net, i)
        net.advance(2 * net.config.step_dt)
        if witness is not None:
            n = net._n_flows
            act = net.f_active[:n]
            if act.any():
                per_host = np.bincount(net.f_src[:n][act],
                                       weights=net.f_rate[:n][act])
                witness["holes"] |= bool((~act).any())
                witness["nic_over"] |= bool((per_host > line).any())
                witness["one_hop"] |= bool((net.f_path[:n][act, 1] < 0).any())
        trace.append(_kernel_observe(net))
    return trace


def test_kernel_all_slot_sums_and_identity_padding_bit_identical():
    witness = {"holes": False, "nic_over": False, "one_hop": False}
    fast = _kernel_solo(True, 11, witness=witness)
    # the kernel really stepped over free slots below the high-water
    # mark, an over-subscribed NIC and one-hop (padded) paths
    assert witness == {"holes": True, "nic_over": True, "one_hop": True}
    assert _fingerprint(fast) == _fingerprint(_kernel_solo(False, 11))


def test_batch_kernel_with_idle_replica_matches_solo_references():
    from repro.netsim.batchfluid import BatchFluidNetwork
    from repro.netsim.fluid import FluidNetwork

    seeds, idle = (11, 12, 13), 1
    nets = [FluidNetwork(_kernel_fabric(), seed=s) for s in seeds]
    for r, net in enumerate(nets):
        if r != idle:
            net.start_flows(_kernel_flows(seeds[r]))
    batch = BatchFluidNetwork.from_networks(nets)
    traces = [[] for _ in seeds]
    for i in range(_KERNEL_ADVANCES):
        for net in batch.views():
            _kernel_event(net, i)
        batch.advance(2 * batch.config.step_dt)
        for r, net in enumerate(batch.views()):
            traces[r].append(_kernel_observe(net))
    assert not traces[idle][-1]["finished"]
    for r, seed in enumerate(seeds):
        ref = _kernel_solo(False, seed, idle=r == idle)
        assert _fingerprint(traces[r]) == _fingerprint(ref), f"replica {r}"
