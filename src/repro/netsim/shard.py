"""Fluid simulation of a multi-pod fat-tree, one flow segment per pod.

The leaf–spine :class:`~repro.netsim.fluid.FluidNetwork` tops out at one
pod; production-scale fabrics are fat-trees with hundreds of switches.
:class:`ShardedFluidNetwork` steps that shape with the shared fluid
kernel (:mod:`repro.netsim.kernel`), partitioning the flow table by
**owner pod** — a flow belongs to its source edge's pod
(:meth:`~repro.netsim.fattree.FatTreeConfig.owner_pod_of_flow`):

- each pod's :class:`FlowShard` is one segment of the kernel's
  ``(n_pods, cap)`` flow storage, with its own slot maps and pending
  queue;
- all pods share one queue space, laid out in per-pod blocks (edge-down,
  edge-up, agg-up and agg-down queues) plus the core plane;
- a queue's arrival is its owner pod's partial sum plus every other
  pod's, added in pod order — the accumulation order the canonical
  fat-tree fingerprints (``tests/test_fattree_golden.py``) pin.

The partition is fixed by the topology; the ``shards`` argument is
validated for compatibility and selects nothing.

The controller-facing surface (``advance`` / ``queue_stats`` /
``set_ecn`` / ``fail_uplinks``) matches the other two simulators, so
PET, ACC and the static baselines drive a fat-tree unmodified.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.fluid import FlowTableMixin, SwitchStatsMixin
from repro.netsim.kernel import SegmentKernel
from repro.netsim.routing import ecmp_hash
from repro.obs.metrics import get_registry

__all__ = ["Subdomain", "FlowShard", "ShardedFluidNetwork"]

#: float64 arrays held per queue: the RED/state arrays, ``q_cap_nominal``
#: and the four interval accumulators (10) plus the kernel's queue
#: scratch (6), per-flow path-term table (3) and merged arrival (1); the
#: per-pod arrival partials add ``n_pods + 1`` more (see
#: :meth:`ShardedFluidNetwork.memory_report`).
_FLOAT_ARRAYS_PER_QUEUE = 20


class Subdomain:
    """One contiguous block of the global queue arrays (a pod's queues
    or the core plane's) — the unit of memory attribution."""

    def __init__(self, name: str, start: int, stop: int) -> None:
        self.name = name
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __repr__(self) -> str:
        return f"Subdomain({self.name!r}, [{self.start}, {self.stop}))"


class FlowShard(FlowTableMixin):
    """One pod's flow table — a segment of the network's flow storage.

    Owns the slot maps and pending queue for every flow whose source
    host lives in this pod (the ownership rule:
    :meth:`~repro.netsim.fattree.FatTreeConfig.owner_pod_of_flow`), so a
    host's flows are all in one table.  Routing delegates to the owning
    network, which knows the global queue layout and uplink state;
    finished flows land in the network's records.
    """

    _MAX_HOPS = 5
    _FLOW_CHOICE_1D = ("f_core",)

    def __init__(self, net: "ShardedFluidNetwork", pod: int) -> None:
        self.net = net
        self.pod = pod
        self.config = net.config
        self.now = 0.0
        self._init_flow_table(net.config.initial_flow_capacity)
        self.flow_objs = net.flow_objs
        self.finished_flows = net.finished_flows

    def _route(self, idx: int) -> None:
        self.net._route_flow(self, idx)


class ShardedFluidNetwork(SwitchStatsMixin, SegmentKernel):
    """Vectorized fluid simulation of a fat-tree, one flow segment per pod.

    Queue layout, per pod ``p`` (one contiguous block each), then core:

    - ``edge_down[e, h]`` — edge ``e`` to each local host,
    - ``edge_up[e, a]``   — edge ``e`` to agg ``a``,
    - ``agg_up[a, k]``    — agg ``a`` to its ``k``-th core,
    - ``agg_down[a, e]``  — agg ``a`` to edge ``e``,
    - ``core_down[c, p]`` — core ``c`` to pod ``p`` (core block).

    An intra-edge flow takes 1 queue, intra-pod 3, inter-pod 5.  The
    flow table is partitioned into one :class:`FlowShard` per pod (see
    the module docstring for the ownership rule and arrival order).
    """

    _MAX_HOPS = 5
    _SIM_LABEL = "fluid_shard"
    advance = SegmentKernel.advance
    #: one Δt of the shared kernel (what ``advance`` runs)
    _step = SegmentKernel._kernel_step

    def __init__(self, config: Optional[FatTreeConfig] = None, *,
                 shards: int = 1, seed: Optional[int] = None) -> None:
        self.config = config or FatTreeConfig()
        cfg = self.config
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shards > cfg.n_pods + 1:
            raise ValueError(
                f"shards={shards} exceeds the {cfg.n_pods + 1} subdomains "
                f"({cfg.n_pods} pods + core plane) of this fabric")
        #: accepted and validated for compatibility; selects nothing
        self.shards = int(shards)
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        # The stats mixin's fast observation builder is topology-generic;
        # there is no dual step path here (the reference twin is the
        # leaf–spine FluidNetwork._step; the oracle is the golden pins).
        self.fastpath = True

        # ---- queue layout: one block per pod, then the core plane --------
        n_p, n_e, n_a = cfg.n_pods, cfg.edge_per_pod, cfg.agg_per_pod
        cpa, n_c = cfg.core_per_agg, cfg.n_core
        hpp = cfg.hosts_per_pod
        self._pb_edge_down = 0
        self._pb_edge_up = hpp
        self._pb_agg_up = hpp + n_e * n_a
        self._pb_agg_down = hpp + n_e * n_a + n_a * cpa
        self._pod_block = hpp + n_e * n_a + n_a * cpa + n_a * n_e
        self._core0 = n_p * self._pod_block
        self.n_queues = self._core0 + n_c * n_p
        self.subdomains: List[Subdomain] = [
            Subdomain(f"pod{p}", p * self._pod_block, (p + 1) * self._pod_block)
            for p in range(n_p)]
        self.subdomains.append(Subdomain("core", self._core0, self.n_queues))

        # ---- queue state ---------------------------------------------------
        self.q_len = np.zeros(self.n_queues)
        self.q_cap = np.zeros(self.n_queues)

        self.q_switch = np.empty(self.n_queues, dtype=np.int64)
        sw_per_pod = n_e + n_a
        for p in range(n_p):
            b0 = p * self._pod_block
            for h in range(hpp):
                q = b0 + self._pb_edge_down + h
                self.q_cap[q] = cfg.host_rate_bps / 8.0
                self.q_switch[q] = p * sw_per_pod + h // cfg.hosts_per_edge
            for e in range(n_e):
                for a in range(n_a):
                    q = b0 + self._pb_edge_up + e * n_a + a
                    self.q_cap[q] = cfg.agg_rate_bps / 8.0
                    self.q_switch[q] = p * sw_per_pod + e
            for a in range(n_a):
                for k in range(cpa):
                    q = b0 + self._pb_agg_up + a * cpa + k
                    self.q_cap[q] = cfg.core_rate_bps / 8.0
                    self.q_switch[q] = p * sw_per_pod + n_e + a
                for e in range(n_e):
                    q = b0 + self._pb_agg_down + a * n_e + e
                    self.q_cap[q] = cfg.agg_rate_bps / 8.0
                    self.q_switch[q] = p * sw_per_pod + n_e + a
        for c in range(n_c):
            for p in range(n_p):
                q = self._core0 + c * n_p + p
                self.q_cap[q] = cfg.core_rate_bps / 8.0
                self.q_switch[q] = n_p * sw_per_pod + c
        self.q_cap_nominal = self.q_cap.copy()
        self.n_switches = cfg.n_switches
        self.kmin = np.full(self.n_queues, float(cfg.default_ecn.kmin_bytes))
        self.kmax = np.full(self.n_queues, float(cfg.default_ecn.kmax_bytes))
        self.pmax = np.full(self.n_queues, float(cfg.default_ecn.pmax))
        self._ecn_by_switch: Dict[int, ECNConfig] = {
            s: cfg.default_ecn for s in range(self.n_switches)}
        #: per-(pod, core) uplink health — one bit covers the agg_up and
        #: core_down queue pair of the agg(p, c//cpa) <-> core(c) link.
        self.uplink_up = np.ones((n_p, n_c), dtype=bool)
        self.fabric_capacity_factor = 1.0

        self._init_queue_stats()

        # ---- per-pod flow tables: the kernel's segments ------------------
        #: flow ownership follows the flow's source edge's pod
        #: (:meth:`FatTreeConfig.owner_pod_of_flow`); the core plane owns
        #: no flows and no queues of its own segment.
        self.flow_objs: Dict[int, Flow] = {}
        self.finished_flows: List[Flow] = []
        self.latencies: List[Tuple[float, float]] = []
        self.flow_shards: List[FlowShard] = [FlowShard(self, p)
                                             for p in range(n_p)]
        queue_owner = np.full(self.n_queues, -1, dtype=np.int64)
        queue_owner[:self._core0] = np.repeat(np.arange(n_p), self._pod_block)
        self._init_segments(self.flow_shards, cfg.initial_flow_capacity,
                            queue_owner=queue_owner)
        if get_registry():
            self.memory_report()

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """No-op (idempotent): the network holds no external resources."""

    # ------------------------------------------------------------ topology
    def switch_names(self) -> List[str]:
        cfg = self.config
        out: List[str] = []
        for p in range(cfg.n_pods):
            out.extend(f"pod{p}.edge{e}" for e in range(cfg.edge_per_pod))
            out.extend(f"pod{p}.agg{a}" for a in range(cfg.agg_per_pod))
        out.extend(f"core{c}" for c in range(cfg.n_core))
        return out

    def host_names(self) -> List[str]:
        return [f"h{i}" for i in range(self.config.n_hosts)]

    def _switch_id(self, name: str) -> int:
        cfg = self.config
        sw_per_pod = cfg.edge_per_pod + cfg.agg_per_pod
        try:
            if name.startswith("core"):
                c = int(name[4:])
                if 0 <= c < cfg.n_core:
                    return cfg.n_pods * sw_per_pod + c
            elif name.startswith("pod") and "." in name:
                pod_part, sw_part = name.split(".", 1)
                p = int(pod_part[3:])
                if 0 <= p < cfg.n_pods:
                    if sw_part.startswith("edge"):
                        e = int(sw_part[4:])
                        if 0 <= e < cfg.edge_per_pod:
                            return p * sw_per_pod + e
                    elif sw_part.startswith("agg"):
                        a = int(sw_part[3:])
                        if 0 <= a < cfg.agg_per_pod:
                            return p * sw_per_pod + cfg.edge_per_pod + a
        except ValueError:
            pass
        raise KeyError(f"unknown switch {name!r}")

    # -- queue ids ----------------------------------------------------------
    def _q_edge_down(self, pod: int, host_local: int) -> int:
        return pod * self._pod_block + self._pb_edge_down + host_local

    def _q_edge_up(self, pod: int, edge: int, agg: int) -> int:
        return (pod * self._pod_block + self._pb_edge_up
                + edge * self.config.agg_per_pod + agg)

    def _q_agg_up(self, pod: int, core: int) -> int:
        # agg a = core // cpa owns the uplink; its k-th core port
        return pod * self._pod_block + self._pb_agg_up + core

    def _q_agg_down(self, pod: int, agg: int, edge: int) -> int:
        return (pod * self._pod_block + self._pb_agg_down
                + agg * self.config.edge_per_pod + edge)

    def _q_core_down(self, core: int, pod: int) -> int:
        return self._core0 + core * self.config.n_pods + pod

    def _route_flow(self, tbl: FlowShard, idx: int) -> None:
        """(Re)compute the queue path of ``tbl``'s flow slot ``idx``.

        Routing needs the *global* picture — queue-id layout and uplink
        health — so it lives on the network; the flow arrays live on the
        owner pod's shard.  A reroute rewrites ``f_path`` / ``f_core``
        in place and never migrates the flow between shards (the source
        host, hence the owner pod, is immutable).
        """
        cfg = self.config
        src, dst = int(tbl.f_src[idx]), int(tbl.f_dst[idx])
        ps, pd = cfg.pod_of_host(src), cfg.pod_of_host(dst)
        es, ed = cfg.edge_of_host(src), cfg.edge_of_host(dst)
        h_local = dst % cfg.hosts_per_pod
        fid = tbl._idx_to_fid[idx]
        if ps == pd and es == ed:
            tbl.f_path[idx] = (self._q_edge_down(pd, h_local), -1, -1, -1, -1)
            tbl.f_core[idx] = -1
        elif ps == pd:
            # intra-pod: pick an aggregation switch (pod-internal links
            # have no failure bit, so every agg is live)
            a = ecmp_hash(fid, cfg.agg_per_pod)
            tbl.f_path[idx] = (self._q_edge_up(ps, es, a),
                               self._q_agg_down(pd, a, ed),
                               self._q_edge_down(pd, h_local), -1, -1)
            tbl.f_core[idx] = -1
        else:
            # inter-pod: pick a core live on both ends; the core fixes
            # the aggregation switch (a = c // core_per_agg) in each pod
            live = np.flatnonzero(self.uplink_up[ps] & self.uplink_up[pd])
            if not live.size:
                live = range(cfg.n_core)         # partitioned: keep old path
            c = int(live[ecmp_hash(fid, len(live))])
            a = c // cfg.core_per_agg
            tbl.f_path[idx] = (self._q_edge_up(ps, es, a),
                               self._q_agg_up(ps, c),
                               self._q_core_down(c, pd),
                               self._q_agg_down(pd, a, ed),
                               self._q_edge_down(pd, h_local))
            tbl.f_core[idx] = c

    # ------------------------------------------------------------ flow intake
    def start_flow(self, flow: Flow) -> None:
        """Register a flow with its owner pod's shard; it activates when
        ``now`` reaches its start time."""
        if flow.flow_id in self.flow_objs:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        try:
            src = FlowTableMixin._host_index(flow.src)
            known = 0 <= src < self.config.n_hosts
        except KeyError:
            known = False
        if not known:
            raise ValueError(f"unknown host {flow.src}")
        self.flow_objs[flow.flow_id] = flow
        sh = self.flow_shards[self.config.owner_pod_of_flow(src)]
        sh._pending.append(flow)
        sh._pending_sorted = False

    def start_flows(self, flows: List[Flow]) -> None:
        for f in flows:
            self.start_flow(f)

    def active_flow_count(self) -> int:
        return sum(int(sh.f_active[:sh._n_flows].sum()) + len(sh._pending)
                   for sh in self.flow_shards)

    @property
    def flows(self) -> Dict[int, Flow]:
        return self.flow_objs

    def flow_table_state(self) -> Dict[str, np.ndarray]:
        """Canonical aggregate of the per-pod flow tables.

        Concatenated in (owner pod, local slot) order — the partition is
        topology-determined.  This is the flow half of every fat-tree
        fingerprint; per-pod state is on ``flow_shards`` directly.
        """
        shards_ = self.flow_shards
        out: Dict[str, np.ndarray] = {
            name: np.concatenate([getattr(sh, name)[:sh._n_flows]
                                  for sh in shards_])
            for name in ("f_src", "f_dst", "f_size", "f_remaining",
                         "f_rate", "f_alpha", "f_active", "f_core")}
        out["f_path"] = np.concatenate([sh.f_path[:sh._n_flows]
                                        for sh in shards_])
        return out

    # ------------------------------------------------------------ failures
    def fail_uplinks(self, fraction: float,
                     rng: Optional[np.random.Generator] = None) -> int:
        """Disable a fraction of pod↔core links and reroute around them."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = rng or self.rng
        flat = np.flatnonzero(self.uplink_up.ravel())
        k = max(1, int(round(fraction * self.uplink_up.size)))
        chosen = rng.choice(flat, size=min(k, flat.size), replace=False)
        up = self.uplink_up.ravel()
        up[chosen] = False
        self.uplink_up = up.reshape(self.uplink_up.shape)
        self._apply_link_state()
        return int(len(chosen))

    def restore_uplinks(self) -> None:
        self.uplink_up[:] = True
        self._apply_link_state()

    def set_fabric_capacity_factor(self, factor: float) -> None:
        """Uniformly scale fabric (edge↔agg and pod↔core) link capacity."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("capacity factor must be in (0, 1]")
        self.fabric_capacity_factor = float(factor)
        self._apply_link_state()

    def _apply_link_state(self) -> None:
        cfg = self.config
        factor = self.fabric_capacity_factor
        for p in range(cfg.n_pods):
            b0 = p * self._pod_block
            # intra-pod fabric (edge<->agg) has no per-link failure bit;
            # it scales uniformly with the chaos degradation factor
            lo, hi = b0 + self._pb_edge_up, b0 + self._pb_agg_up
            self.q_cap[lo:hi] = self.q_cap_nominal[lo:hi] * factor
            lo, hi = b0 + self._pb_agg_down, b0 + self._pod_block
            self.q_cap[lo:hi] = self.q_cap_nominal[lo:hi] * factor
            for c in range(cfg.n_core):
                link = factor if self.uplink_up[p, c] else 1e-6
                qu = self._q_agg_up(p, c)
                qd = self._q_core_down(c, p)
                self.q_cap[qu] = self.q_cap_nominal[qu] * link
                self.q_cap[qd] = self.q_cap_nominal[qd] * link
        # Reroute flows whose core is unreachable on either end, owner
        # pod by owner pod.
        for sh in self.flow_shards:
            for i in np.flatnonzero(sh.f_active[:sh._n_flows]):
                c = int(sh.f_core[i])
                if c < 0:
                    continue
                ps = cfg.pod_of_host(int(sh.f_src[i]))
                pd = cfg.pod_of_host(int(sh.f_dst[i]))
                if not (self.uplink_up[ps, c] and self.uplink_up[pd, c]):
                    self._route_flow(sh, int(i))

    # ------------------------------------------------------------ capacity
    def bytes_in_flight(self) -> float:
        """Total buffered bytes across every subdomain (conservation probe)."""
        return float(self.q_len.sum())

    def memory_report(self) -> Dict[str, Dict[str, int]]:
        """Resident queue- and flow-state bytes attributed per subdomain.

        ``queue_bytes`` is the queue-sized state and scratch of the
        subdomain's queues; ``flow_bytes`` is the owner pod's flow table
        row (the core plane owns none), sized by the largest pod's flow
        high-water mark.  Mirrors — and refreshes — the
        ``netsim.shard_queue_bytes`` and ``netsim.shard_flow_bytes``
        gauges.
        """
        per_queue = 8 * (_FLOAT_ARRAYS_PER_QUEUE + self.config.n_pods + 1)
        report: Dict[str, Dict[str, int]] = {}
        reg = get_registry()
        for i, sub in enumerate(self.subdomains):
            entry = {"queue_bytes": len(sub) * per_queue,
                     "flow_bytes": (self.flow_shards[i].flow_table_bytes()
                                    if i < len(self.flow_shards) else 0)}
            report[sub.name] = entry
            if reg:
                for key, value in entry.items():
                    reg.set_gauge(f"netsim.shard_{key}", float(value),
                                  sim="fluid_shard", subdomain=sub.name)
        return report
