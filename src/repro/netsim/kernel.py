"""The fluid model's one Δt kernel, over segment-blocked flow storage.

Every fluid front-end steps through :meth:`SegmentKernel._kernel_step`:
the leaf–spine :class:`~repro.netsim.fluid.FluidNetwork`, the replica
batch :class:`~repro.netsim.batchfluid.BatchFluidNetwork` and the
fat-tree :class:`~repro.netsim.shard.ShardedFluidNetwork`.  Flow state
lives in ``(S, cap)`` arrays (``(S, cap, H)`` for paths), one row per
*segment*:

- a solo network is a single segment (S = 1);
- a batch replica is a segment with its own queue space, clock and RNG
  (``_REPLICA_AXIS = True``; queue arrays are ``(S, Q)``);
- a fat-tree owner pod is a segment sharing the network's one queue
  space, clock and RNG.

Each row belongs to a :class:`~repro.netsim.fluid.FlowTableMixin`
instance — the replica network itself, or a pod's
:class:`~repro.netsim.shard.FlowShard` — whose ``f_*`` attributes are
views of that row, so slot allocation, activation, routing and
completion records stay per segment.

The kernel is bit-identical to the reference
:meth:`~repro.netsim.fluid.FluidNetwork._step` by construction:

- every elementwise ladder keeps the reference's operation order
  (commutative scalar products aside, which are exact in IEEE-754);
- NIC sharing sums each host's flows in slot order (one bincount;
  replica r's host h is bin ``r*n_hosts + h``, pods partition hosts);
- arrivals sum hop-major within a segment (one bincount over
  per-segment blocks, queue q of segment s at ``s*(Q+1) + q + 1``;
  padded hops (-1) land in the block's leading dummy slot);
- on a shared queue space a queue's arrival starts with its owner
  pod's partial sum, then adds every other pod's in pod order (core
  queues: pod order) — adding exact zeros for pods that do not touch
  the queue, which leaves the sums unchanged.

At S = 1 every flow view is a flat 1-D slice and no per-segment offset
work runs.  Flow scratch is sized to the flow high-water mark.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.obs.metrics import get_registry

__all__ = ["QUEUE_FIELDS", "SegmentKernel"]

#: base per-flow arrays: (name, dtype, fill).  Front-ends add their
#: table class's ``_FLOW_CHOICE_1D`` arrays, filled with -1.
_FLOW_FIELDS = (("f_src", np.int64, 0), ("f_dst", np.int64, 0),
                ("f_size", np.float64, 0), ("f_remaining", np.float64, 0),
                ("f_rate", np.float64, 0), ("f_alpha", np.float64, 0),
                ("f_active", bool, 0))
#: queue-space arrays every front-end provides (``(R, Q)`` in a batch).
QUEUE_FIELDS = ("q_cap", "q_len", "kmin", "kmax", "pmax",
                "_acc_tx", "_acc_marked", "_acc_qlen_area", "_acc_drops")


class SegmentKernel:
    """Flow storage for S segment tables plus the Δt kernel over it.

    Front-ends provide ``config``, ``n_queues``, the :data:`QUEUE_FIELDS`
    arrays and — unless ``_REPLICA_AXIS`` — ``now``, ``rng``,
    ``latencies`` and ``_acc_time``; they call :meth:`_init_segments`
    once their queue arrays exist.  Each front-end binds
    ``advance = SegmentKernel.advance`` in its own class body, so the
    per-class entry point can be wrapped (e.g. by the benchmark's
    tracer) without touching the others.
    """

    #: segments are whole networks (own queues, clock, RNG)
    _REPLICA_AXIS = False
    #: ``sim=`` label on the ``netsim.*`` metrics
    _SIM_LABEL = "fluid"

    # ------------------------------------------------------------ storage
    def _init_segments(self, tables: Sequence, cap: int, *,
                       adopt: bool = False,
                       queue_owner: Optional[np.ndarray] = None) -> None:
        """Allocate ``(S, cap)`` flow storage and point every table's
        ``f_*`` attributes at its row.

        ``adopt`` copies each table's current flow arrays in first
        (batch adoption, ``split``).  ``queue_owner`` (shared queue
        space, S > 1) gives each queue's owning segment, -1 for none.
        """
        tables = list(tables)
        kind = type(tables[0])
        self._flow_fields = _FLOW_FIELDS + tuple(
            (name, np.int64, -1) for name in kind._FLOW_CHOICE_1D)
        S = len(tables)
        for name, dtype, fill in self._flow_fields:
            store = np.full((S, cap), fill, dtype=dtype)
            if adopt:
                for s, t in enumerate(tables):
                    row = getattr(t, name)
                    store[s, :row.size] = row
            setattr(self, "_" + name, store)
        path = np.full((S, cap, kind._MAX_HOPS), -1, dtype=np.int64)
        if adopt:
            for s, t in enumerate(tables):
                path[s, :len(t.f_path)] = t.f_path
        self._f_path = path
        # A solo network is its own only table: it keeps no reference to
        # itself, so it stays cycle-free and refcounting releases it.
        self._tables = None if tables[0] is self else tables
        self._cap = cap
        for s in range(S):
            self._point_views(s)

        # ---- kernel scratch ----------------------------------------------
        nq = self.n_queues
        qshape = self.q_len.shape
        for name in ("_b_served", "_b_qlen_next", "_b_drops", "_b_span",
                     "_b_pmark", "_b_qtmp", "_b_srv", "_b_onem"):
            setattr(self, name, np.zeros(qshape))
        spaces = S if self._REPLICA_AXIS else 1
        self._b_hosts = np.ones(spaces * self.config.n_hosts)
        self._fw = 0                  # flow-scratch width (high-water)
        if self._REPLICA_AXIS and S > 1:
            self._qoff = (np.arange(S, dtype=np.int64) * nq)[:, None, None]
        if queue_owner is not None and S > 1:
            owned = np.flatnonzero(queue_owner >= 0)
            self._own_q = owned
            self._own_flat = queue_owner[owned] * (nq + 1) + owned + 1
            self._b_merged = np.zeros(nq)

    @property
    def _segments(self) -> Sequence:
        """The segment tables, in segment order."""
        return (self,) if self._tables is None else self._tables

    def _point_views(self, s: int) -> None:
        t = self._segments[s]
        for name, _, _ in self._flow_fields:
            setattr(t, name, getattr(self, "_" + name)[s])
        t.f_path = self._f_path[s]
        t._cap_flows = self._cap
        t._store = None if t is self else self

    def _grow_flows(self) -> None:
        """Double every segment's flow capacity, contents preserved
        (called from :meth:`FlowTableMixin._grow` on any table)."""
        old, new = self._cap, self._cap * 2
        for name, dtype, fill in self._flow_fields:
            cur = getattr(self, "_" + name)
            grown = np.full((cur.shape[0], new), fill, dtype=dtype)
            grown[:, :old] = cur
            setattr(self, "_" + name, grown)
        S, _, hops = self._f_path.shape
        grown_path = np.full((S, new, hops), -1, dtype=np.int64)
        grown_path[:, :old] = self._f_path
        self._f_path = grown_path
        self._cap = new
        for s in range(S):
            self._point_views(s)

    def _release_segments(self) -> None:
        """Drop this front-end's own flow storage (its tables were
        adopted into another front-end's)."""
        for name, _, _ in self._flow_fields:
            setattr(self, "_" + name, None)
        self._f_path = None
        self._fw = 0

    def _alloc_flow_scratch(self, n: int) -> None:
        S, _, hops = self._f_path.shape
        w = min(self._cap, max(n, 2 * self._fw))
        for name in ("_s_send", "_s_nomark", "_s_bneck", "_s_qdelay",
                     "_s_mark", "_s_f1", "_s_f2"):
            setattr(self, name, np.zeros((S, w)))
        self._s_m1 = np.zeros((S, w), dtype=bool)
        self._s_m2 = np.zeros((S, w), dtype=bool)
        self._s_notval = np.zeros((S, w, hops), dtype=bool)
        self._s_g2 = np.zeros((S, w, hops))
        self._s_d2 = np.zeros((S, w, hops))
        if self._REPLICA_AXIS and S > 1:
            self._s_safe = np.zeros((S, w, hops), dtype=np.int64)
        self._fw = w

    # ------------------------------------------------------------ dynamics
    def _stepper(self):
        """The Δt function :meth:`advance` runs (front-ends refuse here)."""
        return self._kernel_step

    def advance(self, dt: float) -> None:
        """Advance virtual time by ``dt`` (an integer number of steps)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        step = self._stepper()
        steps = max(1, int(round(dt / self.config.step_dt)))
        step_dt = self.config.step_dt
        for _ in range(steps):
            step(step_dt)
        reg = get_registry()
        if reg:
            per_step = len(self._segments) if self._REPLICA_AXIS else 1
            reg.inc("netsim.advance_calls", sim=self._SIM_LABEL)
            reg.inc("netsim.steps", steps * per_step, sim=self._SIM_LABEL)
            reg.inc("netsim.virtual_s", dt, sim=self._SIM_LABEL)

    def _merge_arrivals(self, blocks: np.ndarray) -> np.ndarray:
        """Shared queue space: owner pod's partial first, then pod order."""
        nq = self.n_queues
        out = self._b_merged
        out.fill(0.0)
        out[self._own_q] = blocks[self._own_flat]
        blocks[self._own_flat] = 0.0
        for block in blocks.reshape(-1, nq + 1):
            out += block[1:]
        return out

    def _kernel_step(self, dt: float) -> None:
        """One Δt for every segment — bit-identical to the reference step.

        Temporaries live in preallocated scratch, gathers happen once
        per step, ``np.clip`` becomes ``maximum``/``minimum`` pairs and
        masked updates use ``where=``/``copyto``, which leave unselected
        elements untouched like the reference's fancy-index assignments.
        """
        cfg = self.config
        tables = self._segments
        S = len(tables)
        replica = self._REPLICA_AXIS
        # -- clocks + activation, segment order (may grow the storage) --
        if replica:
            for t in tables:
                t.now += dt
                t._activate_due()
            clocks = tables
        else:
            self.now += dt
            for t in tables:
                t.now = self.now
                t._activate_due()
            clocks = (self,)
        n = max(t._n_flows for t in tables)
        q_len = self.q_len
        qtmp = self._b_qtmp
        if n == 0:
            np.multiply(q_len, dt, out=qtmp)
            self._acc_qlen_area += qtmp
            for c in clocks:
                c._acc_time += dt
            return
        # Replicas with no flow yet take the early path above on their
        # own: their queues hold and only the qlen area integrates.
        dead = None
        if replica and S > 1:
            dead = np.array([t._n_flows == 0 for t in tables])
            if not dead.any():
                dead = None
        if self._fw < n:
            self._alloc_flow_scratch(n)
        fl = (0 if S == 1 else slice(None), slice(0, n))
        active = self._f_active[fl]
        nz = active.nonzero()                 # segment-major, slot order
        rate = self._f_rate[fl]

        # --- NIC sharing: cap the sum of a host's flow rates at line rate.
        line = cfg.host_rate_bps / 8.0
        src = self._f_src[fl]
        send = self._s_send[fl]
        send.fill(0.0)
        np.copyto(send, rate, where=active)
        send_idx = send[nz]
        bins = src[nz]
        if replica and S > 1:
            bins += nz[0] * cfg.n_hosts
        scale = self._b_hosts
        per_src = np.bincount(bins, weights=send_idx, minlength=scale.size)
        over = per_src > line
        if over.any():
            scale.fill(1.0)
            scale[over] = line / per_src[over]
            # x * 1.0 is exact, so flows of hosts under the cap (and
            # replicas with none over it) are bit-unchanged.
            if replica and S > 1:
                send *= np.take_along_axis(
                    scale.reshape(S, cfg.n_hosts), src, axis=1)
            else:
                send *= scale[src]
            send_idx = send[nz]

        # --- arrivals per queue ------------------------------------------
        # One hop-major bincount: hop 0 of every flow, then hop 1, ... —
        # within each (segment, queue) bin the reference's order.
        nq = self.n_queues
        path = self._f_path[fl]
        p_idx = path[nz]
        if S > 1:
            p_idx += (nz[0] * (nq + 1) + 1)[:, None]
        else:
            p_idx += 1
        hops = path.shape[-1]
        blocks = np.bincount(p_idx.T.ravel(),
                             weights=np.tile(send_idx, hops),
                             minlength=S * (nq + 1))
        if S == 1:
            arrival = blocks[1:]
        elif replica:
            arrival = blocks.reshape(S, nq + 1)[:, 1:]
        else:
            arrival = self._merge_arrivals(blocks)

        # --- queue integration & marking -----------------------------------
        cap = self.q_cap
        served_rate = self._b_served
        np.divide(q_len, dt, out=served_rate)
        served_rate += arrival
        np.minimum(served_rate, cap, out=served_rate)
        new_qlen = self._b_qlen_next
        np.subtract(arrival, cap, out=new_qlen)
        new_qlen *= dt
        new_qlen += q_len
        np.maximum(new_qlen, 0.0, out=new_qlen)
        drops = self._b_drops
        np.subtract(new_qlen, cfg.switch_buffer_bytes, out=drops)
        np.maximum(drops, 0.0, out=drops)
        np.minimum(new_qlen, cfg.switch_buffer_bytes, out=new_qlen)
        # RED mark probability on instantaneous occupancy
        span = self._b_span
        np.subtract(self.kmax, self.kmin, out=span)
        np.maximum(span, 1.0, out=span)
        p_mark = self._b_pmark
        np.subtract(new_qlen, self.kmin, out=p_mark)
        p_mark /= span
        np.maximum(p_mark, 0.0, out=p_mark)
        np.minimum(p_mark, 1.0, out=p_mark)
        p_mark *= self.pmax
        np.copyto(p_mark, 1.0, where=new_qlen >= self.kmax)

        # --- stats ----------------------------------------------------------
        np.multiply(served_rate, dt, out=qtmp)
        if dead is not None:
            qtmp[dead] = 0.0
        self._acc_tx += qtmp
        qtmp *= p_mark
        self._acc_marked += qtmp
        np.add(q_len, new_qlen, out=qtmp)
        qtmp *= 0.5
        qtmp *= dt
        if dead is not None:
            qtmp[dead] = q_len[dead] * dt
            drops[dead] = 0.0
        self._acc_qlen_area += qtmp
        self._acc_drops += drops
        for c in clocks:
            c._acc_time += dt
        if replica:
            # copy, keeping every replica's row views
            if dead is not None:
                new_qlen[dead] = q_len[dead]
            q_len[...] = new_qlen
        else:
            # double-buffer swap: the old q_len becomes next step's scratch
            self.q_len, self._b_qlen_next = new_qlen, q_len
            q_len = new_qlen

        # --- end-to-end mark fraction per flow --------------------------------
        # Whole-path gathers + hop-sequential reductions.  Padding
        # identities are IEEE-exact: invalid hops contribute x1.0 to the
        # no-mark product, min(., 1.0) to the bottleneck (srv_ratio <= 1)
        # and +0.0 to the queueing delay.  Inactive slots compute garbage
        # that is never committed (the updates below mask on ``active``,
        # and ``send`` is exactly 0.0 for them).
        srv_ratio = self._b_srv
        np.maximum(arrival, cap, out=srv_ratio)
        np.divide(cap, srv_ratio, out=srv_ratio)   # <=1 where overloaded
        if replica and S > 1:
            safe = self._s_safe[fl]
            np.add(path, self._qoff, out=safe)
        else:
            safe = path
        notval = self._s_notval[fl]
        np.less(path, 0, out=notval)
        g2 = self._s_g2[fl]
        d2 = self._s_d2[fl]
        one_m = self._b_onem
        np.subtract(1.0, p_mark, out=one_m)
        # mode="clip": a padded hop gathers some real queue's value,
        # overwritten through ``notval`` right after.
        one_m.take(safe, out=g2, mode="clip")
        np.copyto(g2, 1.0, where=notval)
        no_mark = self._s_nomark[fl]
        np.copyto(no_mark, g2[..., 0])
        for hop in range(1, hops):
            no_mark *= g2[..., hop]
        srv_ratio.take(safe, out=d2, mode="clip")
        np.copyto(d2, 1.0, where=notval)
        bottleneck = self._s_bneck[fl]
        np.copyto(bottleneck, d2[..., 0])
        for hop in range(1, hops):
            np.minimum(bottleneck, d2[..., hop], out=bottleneck)
        q_len.take(safe, out=d2, mode="clip")
        cap.take(safe, out=g2, mode="clip")
        d2 /= g2
        np.copyto(d2, 0.0, where=notval)
        qdelay = self._s_qdelay[fl]
        np.copyto(qdelay, d2[..., 0])
        for hop in range(1, hops):
            qdelay += d2[..., hop]
        f1 = self._s_f1[fl]
        f2 = self._s_f2[fl]
        mark_frac = self._s_mark[fl]
        np.subtract(1.0, no_mark, out=mark_frac)

        # --- DCQCN-like AIMD ---------------------------------------------------
        a = self._f_alpha[fl]
        np.multiply(a, 1.0 - cfg.g, out=f1)
        np.multiply(mark_frac, cfg.g, out=f2)
        f1 += f2
        np.copyto(a, f1, where=active)
        np.multiply(a, 0.5, out=f1)
        f1 *= cfg.md_gain
        f1 *= mark_frac
        np.subtract(1.0, f1, out=f1)
        f1 *= rate                                  # rate * cut
        grow = cfg.ai_fraction * line
        np.add(rate, grow, out=f2)                  # rate + grow
        marked = self._s_m1[fl]
        np.greater(mark_frac, 1e-3, out=marked)
        np.copyto(f2, f1, where=marked)             # == where(marked, f1, f2)
        floor = cfg.min_rate_fraction * line
        np.maximum(f2, floor, out=f2)
        np.minimum(f2, line, out=f2)
        np.copyto(rate, f2, where=active)

        # --- progress & completion ---------------------------------------------
        np.multiply(send, bottleneck, out=f1)       # throughput
        f1 *= dt
        remaining = self._f_remaining[fl]
        remaining -= f1
        finished = self._s_m2[fl]
        np.less_equal(remaining, 0.0, out=finished)
        finished &= active
        if finished.any():
            fz = finished.nonzero()
            rows = fz[0].tolist() if S > 1 else [0] * fz[0].size
            for r, i, qd in zip(rows, fz[-1].tolist(), qdelay[fz]):
                t = tables[r]
                flow = t.flow_objs[t._idx_to_fid.pop(i)]
                # account residual queueing delay into the FCT
                flow.finish_time = t.now + qd
                flow.bytes_sent = flow.size_bytes
                flow.bytes_acked = flow.size_bytes
                t.finished_flows.append(flow)
                t.f_active[i] = False
                t.f_remaining[i] = 0.0
                t._free_list.append(i)

        # --- latency sampling (Fig. 8): one random active flow per step ----------
        # A replica draws from its own flows; a shared network draws once
        # over the (segment, slot)-ordered active flows.
        half_rtt = cfg.base_rtt / 2.0
        if replica:
            for r, t in enumerate(tables):
                if len(t.latencies) < cfg.latency_sample_cap:
                    act = t.f_active[:t._n_flows].nonzero()[0]
                    if act.size:
                        i = int(act[t.rng.integers(act.size)])
                        qd = qdelay[r, i] if S > 1 else qdelay[i]
                        t.latencies.append((t.now, half_rtt + qd))
        elif len(self.latencies) < cfg.latency_sample_cap:
            az = active.nonzero()
            if az[0].size:
                j = self.rng.integers(az[0].size)
                self.latencies.append(
                    (self.now, half_rtt + qdelay[tuple(a[j] for a in az)]))
