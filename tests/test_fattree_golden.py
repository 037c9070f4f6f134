"""Golden fingerprints for the fat-tree fluid model (repro.netsim.shard).

The fat-tree's correctness oracle: canonical digests of full
``FatTreeConfig.production_scale()`` runs, committed once and compared
bit for bit.  Each run drives Web-Search-like random traffic through a
mid-run per-switch ``set_ecn`` divergence and a ``fail_uplinks`` /
``restore_uplinks`` cycle, and the digest covers every interval's
``queue_stats()``, the final ``q_len`` and ``flow_table_state()``, the
finish times and the Fig. 8 latency samples.  Any change to the fluid
kernel's arithmetic or accumulation order moves a digest.

Regenerate (only for an intended change in results) with::

    PYTHONPATH=src python tests/test_fattree_golden.py
"""

import numpy as np
import pytest

from repro.netsim.ecn import ECNConfig
from repro.netsim.fattree import FatTreeConfig
from repro.netsim.flow import Flow
from repro.netsim.shard import ShardedFluidNetwork

from tests.fingerprint import _fingerprint

#: seed -> sha256 of :func:`_golden_run`'s canonical record.
GOLDEN = {
    7: "fe1ff54e2d59672b5bf5e54a071990de3248c76c9591dc88c89acd8b6b27be98",
    8: "376845d5546106a174b015a59df265c16c9511a7de798f23e9089ddb61273177",
}

_INTERVAL = 5e-4          # 10 Δt per interval
_INTERVALS = 12


def _golden_run(seed):
    """Drive one production-scale run; returns (network, record)."""
    cfg = FatTreeConfig.production_scale()
    net = ShardedFluidNetwork(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(600):
        src, dst = rng.choice(cfg.n_hosts, size=2, replace=False)
        flows.append(Flow(i, f"h{src}", f"h{dst}",
                          int(rng.integers(20_000, 3_000_000)),
                          start_time=float(rng.uniform(0, 4e-3))))
    net.start_flows(flows)
    stats = []
    for k in range(_INTERVALS):
        if k == 3:    # mid-run per-switch divergence
            net.set_ecn("pod1.agg0", ECNConfig(kmin_bytes=5_000,
                                               kmax_bytes=30_000, pmax=0.9))
            net.set_ecn("core5", ECNConfig(kmin_bytes=2_000,
                                           kmax_bytes=10_000, pmax=1.0))
        if k == 5:
            assert net.fail_uplinks(
                0.25, rng=np.random.default_rng(seed + 1)) >= 1
        if k == 8:
            net.restore_uplinks()
        net.advance(_INTERVAL)
        stats.append(net.queue_stats())
    record = {"stats": stats, "q_len": net.q_len.copy(),
              "flows": net.flow_table_state(),
              "finished": [(f.flow_id, f.finish_time)
                           for f in net.finished_flows],
              "latencies": list(net.latencies)}
    return net, record


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_production_scale_matches_golden(seed):
    net, record = _golden_run(seed)
    # the run must exercise what the digest claims to cover
    assert record["finished"] and record["latencies"]
    assert record["flows"]["f_active"].any()
    assert _fingerprint(record) == GOLDEN[seed]


if __name__ == "__main__":   # pragma: no cover - regeneration helper
    for s in sorted(GOLDEN):
        print(f"    {s}: \"{_fingerprint(_golden_run(s)[1])}\",")
