"""Sim-as-batch: step R fluid-model replicas as one tensor program.

Every evaluation harness in this repo — multi-seed pretraining, sweep
grids, figure matrices, chaos sweeps — runs R *independent* replicas of
the same fabric that differ only in seed, ECN configuration, traffic,
or fault plan.  Stepping them as R separate :class:`FluidNetwork`
objects pays the Python step overhead R times per Δt;
:class:`BatchFluidNetwork` runs the shared fluid kernel
(:mod:`repro.netsim.kernel`) with the replica as the segment axis, so R
replicas advance with **one** vectorized kernel per Δt over
``(R, n, H)`` flow tensors and ``(R, Q)`` queue tensors.

Every replica of a batch is **bit-identical** (canonical fingerprints)
to a solo ``FluidNetwork`` run with the same seed/config: the kernel
keeps each replica's accumulations in their solo order, and the
per-replica bookkeeping that is inherently scalar — flow activation,
slot recycling, completion, Fig. 8 latency sampling with the replica's
own RNG — runs the solo code per replica, in replica-major order,
against row views of the batch storage.

Replicas are real :class:`FluidNetwork` instances whose queue/flow
arrays are **row views** into the batch's ``(R, ...)`` storage:
``view(r)`` therefore supports the entire solo read/control surface
(``queue_stats``, ``set_ecn``, ``fail_uplinks``,
``set_fabric_capacity_factor``, ``start_flows``) unmodified and
indistinguishably from a solo network — heterogeneous per-replica ECN
configs, mid-run ``set_ecn`` divergence and chaos variants all work by
simply mutating one row.  Direct ``advance`` on an attached replica is
blocked (the batch owns time); ``split()`` detaches every replica into
a standalone network that continues bit-identically on its own.

Memory scales as ``R * flow_capacity * (H + c)`` floats plus
``R * Q`` per queue-space buffer — see docs/PERFORMANCE.md for the
sizing discussion and the ``pretrain_batch`` end-to-end workload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netsim.ecn import ECNConfig
from repro.netsim.fluid import FluidConfig, FluidNetwork
from repro.netsim.kernel import QUEUE_FIELDS, SegmentKernel
from repro.netsim.network import QueueStats

__all__ = ["BatchCompatError", "BatchFluidNetwork"]


class BatchCompatError(ValueError):
    """Replicas cannot be batched (shape/config/time mismatch)."""


def _kernel_config_key(cfg: FluidConfig) -> tuple:
    """The FluidConfig fields the batched kernel shares across replicas.

    ``default_ecn`` is excluded (it only seeds the per-replica
    kmin/kmax/pmax rows, which stay heterogeneous) and so is
    ``initial_flow_capacity`` (capacity never affects results).
    """
    return (cfg.n_spine, cfg.n_leaf, cfg.hosts_per_leaf, cfg.host_rate_bps,
            cfg.spine_rate_bps, cfg.base_rtt, cfg.step_dt, cfg.g,
            cfg.md_gain, cfg.ai_fraction, cfg.min_rate_fraction,
            cfg.start_rate_fraction, cfg.switch_buffer_bytes,
            cfg.latency_sample_cap)


class BatchFluidNetwork(SegmentKernel):
    """R fluid-model replicas advanced by one ``(R, n, H)`` kernel.

    Construct fresh replicas with ``BatchFluidNetwork(config, seeds=...)``
    or adopt existing (possibly mid-run) solo networks with
    :meth:`from_networks`.  Advance them together with :meth:`advance`;
    read or steer any replica through :meth:`view`; detach them all
    with :meth:`split`.
    """

    _REPLICA_AXIS = True
    _SIM_LABEL = "fluid_batch"

    def __init__(self, config: Optional[FluidConfig] = None, *,
                 seeds: Sequence[Optional[int]] = (0,),
                 ecn_configs: Optional[Sequence[ECNConfig]] = None) -> None:
        config = config or FluidConfig()
        if len(seeds) < 1:
            raise BatchCompatError("need at least one replica seed")
        if ecn_configs is not None and len(ecn_configs) != len(seeds):
            raise BatchCompatError("ecn_configs must match seeds length")
        nets = [FluidNetwork(config, seed=s) for s in seeds]
        if ecn_configs is not None:
            for net, ecn in zip(nets, ecn_configs):
                net.set_ecn_all(ecn)
        self._adopt(nets)

    @classmethod
    def from_networks(cls, nets: Sequence[FluidNetwork]
                      ) -> "BatchFluidNetwork":
        """Adopt existing solo networks (state is taken as-is, mid-run ok).

        All replicas must share the same fabric shape and fluid
        constants (``default_ecn``/``initial_flow_capacity`` may
        differ), the same virtual time, and must not already belong to
        another batch.
        """
        batch = cls.__new__(cls)
        batch._adopt(list(nets))
        return batch

    # ------------------------------------------------------------ adoption
    def _adopt(self, nets: List[FluidNetwork]) -> None:
        if not nets:
            raise BatchCompatError("need at least one replica")
        for net in nets:
            if not isinstance(net, FluidNetwork):
                raise BatchCompatError(
                    f"replica backend requires FluidNetwork instances, "
                    f"got {type(net).__name__}")
            if net._store is not None:
                raise BatchCompatError(
                    "network already belongs to a BatchFluidNetwork")
        ref = nets[0]
        key = _kernel_config_key(ref.config)
        for net in nets[1:]:
            if _kernel_config_key(net.config) != key:
                raise BatchCompatError(
                    "replicas must share fabric shape and fluid constants "
                    "(only ECN configs, seeds, traffic and faults may "
                    "differ)")
            # Lockstep demands *bit-identical* clocks, not merely close
            # ones — a ULP of drift would desynchronize _activate_due.
            if net.now != ref.now:  # pet: noqa-PET003
                raise BatchCompatError(
                    "replicas must share virtual time at adoption")
        self.nets = nets
        self.config = ref.config
        self.R = len(nets)
        self.n_queues = ref.n_queues
        self._detached = False

        # ---- queue-space batch storage (adopt values, re-point views) ----
        # The (R, Q) arrays go by the solo names (the kernel's view) and
        # by ``_q_<name>``.
        for name in QUEUE_FIELDS:
            batched = np.stack([getattr(net, name) for net in nets])
            setattr(self, name, batched)
            setattr(self, "_q_" + name.lstrip("_"), batched)
            for r, net in enumerate(nets):
                setattr(net, name, batched[r])
        # ---- flow-space batch storage: one segment per replica -----------
        self._init_segments(nets, max(net._cap_flows for net in nets),
                            adopt=True)
        for net in nets:
            net._release_segments()

    def _grow_flows(self) -> None:
        if self._detached:
            raise RuntimeError("batch was split(); replicas own their "
                               "arrays now")
        super()._grow_flows()

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self.R

    @property
    def now(self) -> float:
        return self.nets[0].now

    def view(self, r: int) -> FluidNetwork:
        """Replica ``r`` as a live :class:`FluidNetwork` (shared storage).

        Supports the full solo surface — ``queue_stats``,
        ``flow_observations`` (via ``queue_stats``), ``set_ecn``,
        failures, ``start_flows`` — except ``advance``, which must go
        through the batch.
        """
        return self.nets[r]

    def views(self) -> List[FluidNetwork]:
        return list(self.nets)

    def queue_stats(self) -> List[Dict[str, QueueStats]]:
        """Per-replica interval statistics (resets each replica's
        interval), replica-major."""
        return [net.queue_stats() for net in self.nets]

    def split(self) -> List[FluidNetwork]:
        """Detach every replica into a standalone solo network.

        Each replica takes ownership of copies of its rows; continuing
        to ``advance`` a detached replica is bit-identical to having
        continued the batch.  The batch itself becomes unusable.
        """
        for net in self.nets:
            for name in QUEUE_FIELDS:
                setattr(net, name, getattr(net, name).copy())
            net._init_segments([net], self._cap, adopt=True)
        self._detached = True
        return list(self.nets)

    # ------------------------------------------------------------ dynamics
    advance = SegmentKernel.advance

    def _stepper(self):
        if self._detached:
            raise RuntimeError("batch was split(); advance the replicas")
        return self._kernel_step

    # ------------------------------------------------------------ control
    def set_ecn(self, r: int, switch_name: str, config: ECNConfig) -> None:
        """Configure one replica's switch (convenience for
        ``view(r).set_ecn``)."""
        self.nets[r].set_ecn(switch_name, config)

    def set_ecn_all(self, r: int, config: ECNConfig) -> None:
        self.nets[r].set_ecn_all(config)
