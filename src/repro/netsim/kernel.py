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

Each sub-step issues a fixed, small number of NumPy calls whatever the
flow count: sums run over every slot below the high-water mark instead
of a gathered active subset, and the per-flow path terms come from one
gather.  The kernel is bit-identical to the reference
:meth:`~repro.netsim.fluid.FluidNetwork._step` by construction:

- every elementwise ladder keeps the reference's operation order
  (commutative scalar products aside, which are exact in IEEE-754);
- all-slot sums add exact zeros: ``send`` is ``+0.0`` on every
  inactive (finished or never used) slot, so its stale ``src``/``path``
  row still lands in a valid bin but adds ``+0.0``.  Every bin starts
  at ``0.0`` and only sums non-negative terms, and ``x + 0.0 == x``,
  so each bin still holds its real contributions in slot order;
- NIC sharing sums each host's flows in slot order (one bincount;
  replica r's host h is bin ``r*n_hosts + h``, pods partition hosts);
- arrivals sum hop-major within a segment (one bincount over a
  hop-major index, queue q of segment s at ``s*(Q+1) + q + 1``; padded
  hops (-1) land in the block's leading dummy slot);
- the per-flow path terms are gathered from a per-queue-space table
  ``ext`` with rows ``1 - p_mark``, ``cap / max(arrival, cap)`` and
  ``q_len / cap`` behind an identity column 0 (``1.0``, ``1.0``,
  ``0.0``), by the same ``path + 1`` index, so a padded hop reads the
  exact identity: x1.0 in the no-mark product, min(., 1.0) in the
  bottleneck (the ratio is <= 1), +0.0 in the queueing delay.  Dividing
  ``q_len / cap`` per queue before the gather gives the values the
  reference divides after it;
- those terms are reduced over the *leading* hop axis of a C-contiguous
  ``(H, ...)`` block, which accumulates row by row, ``(h0 o h1) o h2``
  — the reference's order (over a trailing hop axis ``add.reduce`` may
  group the terms as ``h0 + (h1 + h2)``);
- on a shared queue space a queue's arrival starts with its owner
  pod's partial sum, then adds every other pod's in pod order (core
  queues: pod order) — adding exact zeros for pods that do not touch
  the queue, which leaves the sums unchanged.

At S = 1 every flow view is a flat 1-D slice and no per-segment offset
work runs.  Flow scratch is sized to the flow high-water mark, and its
width-``n`` views are built once per high-water mark.
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
        self._views = None
        for s in range(S):
            self._point_views(s)

        # ---- kernel scratch ----------------------------------------------
        nq = self.n_queues
        qshape = self.q_len.shape
        for name in ("_b_served", "_b_qlen_next", "_b_drops", "_b_span",
                     "_b_pmark", "_b_qtmp"):
            setattr(self, name, np.zeros(qshape))
        # per-flow path terms, one (Q+1)-row per queue space, identity
        # column first (see the module docstring)
        ext = np.zeros((3,) + qshape[:-1] + (nq + 1,))
        ext[:2, ..., 0] = 1.0
        self._ext = ext.reshape(3, -1)
        self._ext_nomark, self._ext_srv, self._ext_qdelay = ext[..., 1:]
        spaces = S if self._REPLICA_AXIS else 1
        self._b_hosts = np.ones(spaces * self.config.n_hosts)
        self._fw = 0                  # flow-scratch width (high-water)
        # bin offsets of segment s: its hosts (replicas only) and its
        # arrival block; on a shared queue space the gather drops the
        # block offset again
        self._arr_off = 1
        if S > 1:
            seg = np.arange(S, dtype=np.int64)[:, None]
            self._host_off = seg * self.config.n_hosts \
                if self._REPLICA_AXIS else 0
            self._block_off = seg * (nq + 1)
            self._arr_off = self._block_off + 1
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
        self._views = None
        for s in range(S):
            self._point_views(s)

    def _release_segments(self) -> None:
        """Drop this front-end's own flow storage (its tables were
        adopted into another front-end's)."""
        for name, _, _ in self._flow_fields:
            setattr(self, "_" + name, None)
        self._f_path = None
        self._fw = 0
        self._views = None

    def _alloc_flow_scratch(self, n: int) -> None:
        """Flat flow scratch for ``w >= n`` slots per segment, so that
        every width-``n`` view of it is C-contiguous."""
        S, _, hops = self._f_path.shape
        w = min(self._cap, max(n, 2 * self._fw))
        m = S * w
        self._s_float = np.zeros((6, m))
        self._s_mask = np.zeros(m, dtype=bool)
        self._s_bins = np.zeros(m, dtype=np.int64)
        self._s_idx = np.zeros(hops * m, dtype=np.int64)
        self._s_w = np.zeros(hops * m)
        self._s_g = np.zeros(3 * hops * m)
        self._fw = w

    def _flow_views(self, n: int) -> "_FlowViews":
        """Width-``n`` views of the flow storage and scratch, kept until
        ``n`` or the storage changes."""
        if self._fw < n:
            self._alloc_flow_scratch(n)
        S, _, hops = self._f_path.shape
        v = _FlowViews()
        v.n = n
        if S == 1:
            fl, shape = (0, slice(0, n)), (n,)
            v.path_t = self._f_path[0, :n].T
        else:
            fl, shape = (slice(None), slice(0, n)), (S, n)
            v.path_t = self._f_path[:, :n].transpose(2, 0, 1)
        v.active = self._f_active[fl]
        v.rate = self._f_rate[fl]
        v.src = self._f_src[fl]
        v.alpha = self._f_alpha[fl]
        v.remaining = self._f_remaining[fl]
        m = S * n
        v.send_flat = self._s_float[0, :m]
        v.qdelay_flat = self._s_float[3, :m]
        v.send, v.mark, v.bneck, v.qdelay, v.f1, v.f2 = (
            row[:m].reshape(shape) for row in self._s_float)
        v.mask_flat = self._s_mask[:m]
        v.mask = v.mask_flat.reshape(shape)
        if S == 1:                    # a storage row is contiguous already
            v.bins_flat = v.bins = v.src
        else:
            v.bins_flat = self._s_bins[:m]
            v.bins = v.bins_flat.reshape(shape)
        hshape = (hops,) + shape
        v.idx_flat = self._s_idx[:hops * m]
        v.idx = v.idx_flat.reshape(hshape)
        v.w_flat = self._s_w[:hops * m]
        v.w = v.w_flat.reshape(hshape)
        v.g = self._s_g[:3 * hops * m].reshape((3,) + hshape)
        self._views = v
        return v

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

        Temporaries live in preallocated scratch, sums run over every
        slot below the high-water mark, one gather serves all per-flow
        path terms, ``np.clip`` becomes ``maximum``/``minimum`` pairs
        and masked updates use ``where=``/``copyto``, which leave
        unselected elements untouched like the reference's fancy-index
        assignments.
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
        n = tables[0]._n_flows if S == 1 else max(t._n_flows for t in tables)
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
        v = self._views
        if v is None or v.n != n:
            v = self._flow_views(n)
        active = v.active
        rate = v.rate

        # --- NIC sharing: cap the sum of a host's flow rates at line rate.
        # Rates are finite and >= 0, so ``send`` is ``rate`` on active
        # slots and exactly +0.0 on all others.
        line = cfg.host_rate_bps / 8.0
        send = v.send
        np.multiply(rate, active, out=send)
        bins = v.bins
        if S > 1:
            np.add(v.src, self._host_off, out=bins)
        scale = self._b_hosts
        per_src = np.bincount(v.bins_flat, weights=v.send_flat,
                              minlength=scale.size)
        if np.maximum.reduce(per_src) > line:
            over = per_src > line
            scale.fill(1.0)
            scale[over] = line / per_src[over]
            # x * 1.0 is exact, so flows of hosts under the cap (and
            # replicas with none over it) are bit-unchanged.
            send *= scale[bins]

        # --- arrivals per queue ------------------------------------------
        # One hop-major bincount: hop 0 of every slot, then hop 1, ... —
        # within each (segment, queue) bin the reference's order.
        nq = self.n_queues
        idx = v.idx
        np.add(v.path_t, self._arr_off, out=idx)
        v.w[...] = send
        blocks = np.bincount(v.idx_flat, weights=v.w_flat,
                             minlength=S * (nq + 1))
        if S == 1:
            arrival = blocks[1:]
        elif replica:
            arrival = blocks.reshape(S, nq + 1)[:, 1:]
        else:
            arrival = self._merge_arrivals(blocks)
            idx -= self._block_off       # one queue space: path + 1

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
        # One gather of the three per-queue terms by ``path + 1`` (padded
        # hops read the identity column), then hop-sequential reductions
        # over the leading hop axis.  Inactive slots compute garbage that
        # is never committed (the updates below mask on ``active``, and
        # ``send`` is exactly 0.0 for them).
        np.subtract(1.0, p_mark, out=self._ext_nomark)
        srv_ratio = self._ext_srv
        np.maximum(arrival, cap, out=srv_ratio)
        np.divide(cap, srv_ratio, out=srv_ratio)   # <=1 where overloaded
        np.divide(q_len, cap, out=self._ext_qdelay)
        g = v.g
        self._ext.take(idx, axis=1, out=g, mode="clip")
        mark_frac = v.mark
        np.multiply.reduce(g[0], axis=0, out=mark_frac)     # no-mark product
        np.subtract(1.0, mark_frac, out=mark_frac)
        bottleneck = v.bneck
        np.minimum.reduce(g[1], axis=0, out=bottleneck)
        qdelay = v.qdelay
        np.add.reduce(g[2], axis=0, out=qdelay)
        f1 = v.f1
        f2 = v.f2

        # --- DCQCN-like AIMD ---------------------------------------------------
        # A ufunc's ``where=`` writes only the selected elements of
        # ``out``, like the reference's masked assignments.
        a = v.alpha
        np.multiply(a, 1.0 - cfg.g, out=f1)
        np.multiply(mark_frac, cfg.g, out=f2)
        np.add(f1, f2, out=a, where=active)
        np.multiply(a, 0.5, out=f1)
        f1 *= cfg.md_gain
        f1 *= mark_frac
        np.subtract(1.0, f1, out=f1)                # cut
        grow = cfg.ai_fraction * line
        np.add(rate, grow, out=f2)                  # rate + grow
        marked = v.mask
        np.greater(mark_frac, 1e-3, out=marked)
        np.multiply(rate, f1, out=f2, where=marked)  # rate * cut if marked
        floor = cfg.min_rate_fraction * line
        np.maximum(f2, floor, out=f2)
        np.minimum(f2, line, out=rate, where=active)

        # --- progress & completion ---------------------------------------------
        np.multiply(send, bottleneck, out=f1)       # throughput
        f1 *= dt
        remaining = v.remaining
        remaining -= f1
        finished = v.mask
        np.less_equal(remaining, 0.0, out=finished)
        finished &= active
        done = v.mask_flat.nonzero()[0]             # segment-major, slot order
        if done.size:
            for k, qd in zip(done.tolist(), v.qdelay_flat[done]):
                r, i = divmod(k, n)
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
                at = az[0][j] if S == 1 else tuple(a[j] for a in az)
                self.latencies.append((self.now, half_rtt + qdelay[at]))


class _FlowViews:
    """Width-``n`` views of one front-end's flow storage and scratch.

    1-D when S == 1, else ``(S, n)``; ``idx``/``w`` are hop-major
    ``(H, [S,] n)`` and ``g`` is the ``(3, H, [S,] n)`` gather block.
    Each ``*_flat`` array is the contiguous 1-D view of its namesake.
    """

    n: int
    # flow storage
    active: np.ndarray
    rate: np.ndarray
    src: np.ndarray
    alpha: np.ndarray
    remaining: np.ndarray
    path_t: np.ndarray
    # scratch
    send: np.ndarray
    send_flat: np.ndarray
    mark: np.ndarray
    bneck: np.ndarray
    qdelay: np.ndarray
    qdelay_flat: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    mask: np.ndarray
    mask_flat: np.ndarray
    bins: np.ndarray
    bins_flat: np.ndarray
    idx: np.ndarray
    idx_flat: np.ndarray
    w: np.ndarray
    w_flat: np.ndarray
    g: np.ndarray
