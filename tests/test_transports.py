"""Tests for the DCQCN / DCTCP / HPCC transports on the packet simulator."""

import pytest

from repro.netsim.ecn import ECNConfig
from repro.netsim.flow import Flow
from repro.netsim.network import PacketNetwork
from repro.netsim.topology import TopologyConfig


def small_net(transport="dcqcn", **topo_kwargs):
    defaults = dict(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                    host_rate_bps=1e8, spine_rate_bps=4e8,
                    host_link_delay=1e-6, fabric_link_delay=1e-6)
    defaults.update(topo_kwargs)
    return PacketNetwork(TopologyConfig(**defaults), transport=transport,
                         seed=0)


@pytest.mark.parametrize("transport", ["dcqcn", "dctcp", "hpcc"])
class TestFlowCompletion:
    def test_single_flow_completes(self, transport):
        net = small_net(transport)
        f = Flow(1, "h0", "h3", 50_000, start_time=0.0)
        net.start_flow(f)
        net.advance(0.5)
        assert f.done
        assert f.fct > 0
        # FCT must be at least the line-rate transfer time
        assert f.fct >= f.size_bytes * 8 / 1e8 * 0.99

    def test_intra_leaf_flow_completes(self, transport):
        net = small_net(transport)
        f = Flow(1, "h0", "h1", 20_000)
        net.start_flow(f)
        net.advance(0.5)
        assert f.done

    def test_two_competing_flows_complete(self, transport):
        net = small_net(transport)
        flows = [Flow(1, "h0", "h3", 100_000), Flow(2, "h1", "h3", 100_000)]
        net.start_flows(flows)
        net.advance(2.0)
        assert all(f.done for f in flows)

    def test_deferred_start_time(self, transport):
        net = small_net(transport)
        f = Flow(1, "h0", "h2", 10_000, start_time=0.01)
        net.start_flow(f)
        net.advance(0.5)
        assert f.done
        assert f.finish_time > 0.01


class TestDCQCN:
    def test_cnp_cuts_rate(self):
        net = small_net("dcqcn")
        # Aggressive marking + two senders converging on one host port
        # forces queue build-up, marking, CNPs, and rate cuts.
        net.set_ecn_all(ECNConfig(1, 2, 1.0))
        flows = [Flow(1, "h0", "h3", 500_000), Flow(2, "h1", "h3", 500_000)]
        net.start_flows(flows)
        net.advance(0.01)
        rates = [net.topology.host(i).transport.current_rate(i + 1)
                 for i in range(2)]
        assert all(r is not None for r in rates)
        assert min(rates) < 1e8 * 0.9

    def test_rate_recovers_without_marking(self):
        net = small_net("dcqcn")
        net.set_ecn_all(ECNConfig(10_000_000, 20_000_000, 0.01))  # never mark
        f = Flow(1, "h0", "h3", 2_000_000)
        net.start_flow(f)
        net.advance(0.05)
        transport = net.topology.host(0).transport
        if not f.done:
            assert transport.current_rate(1) == pytest.approx(1e8, rel=0.1)

    def test_alpha_rises_under_persistent_marking(self):
        net = small_net("dcqcn")
        net.set_ecn_all(ECNConfig(1, 2, 1.0))    # mark everything queued
        flows = [Flow(1, "h0", "h3", 300_000), Flow(2, "h1", "h3", 300_000)]
        net.start_flows(flows)
        net.advance(0.02)
        receiver = net.topology.node("h3").transport
        assert len(receiver._last_cnp_time) >= 1    # CNPs were generated
        transport = net.topology.host(0).transport
        if 1 in transport.senders and not transport.senders[1].done:
            cc = transport.senders[1].extra["cc"]
            assert cc.alpha > 0.001

    def test_marked_contention_slower_than_unmarked(self):
        def run(ecn):
            net = small_net("dcqcn")
            net.set_ecn_all(ecn)
            flows = [Flow(1, "h0", "h3", 200_000),
                     Flow(2, "h1", "h3", 200_000)]
            net.start_flows(flows)
            net.advance(3.0)
            assert all(f.done for f in flows)
            return max(f.fct for f in flows)

        fct_marked = run(ECNConfig(1, 2, 1.0))
        fct_free = run(ECNConfig(10_000_000, 20_000_000, 0.01))
        assert fct_marked > fct_free


class TestDCTCP:
    def test_window_grows_without_marks(self):
        net = small_net("dctcp")
        net.set_ecn_all(ECNConfig(10_000_000, 20_000_000, 0.01))
        f = Flow(1, "h0", "h3", 500_000)
        net.start_flow(f)
        net.advance(0.005)
        t = net.topology.host(0).transport
        if 1 in t.senders and not t.senders[1].done:
            assert t.current_cwnd(1) > t.params.init_cwnd_pkts * t.mtu * 0.9

    def test_window_shrinks_under_marking(self):
        net = small_net("dctcp")
        net.set_ecn_all(ECNConfig(1, 2, 1.0))
        flows = [Flow(1, "h0", "h3", 5_000_000),
                 Flow(2, "h1", "h3", 5_000_000)]
        net.start_flows(flows)
        net.advance(0.05)
        t = net.topology.host(0).transport
        cwnd = t.current_cwnd(1)
        assert cwnd is not None
        assert cwnd < t.params.init_cwnd_pkts * t.mtu * 5

    def test_alpha_tracks_marking(self):
        net = small_net("dctcp")
        net.set_ecn_all(ECNConfig(1, 2, 1.0))
        flows = [Flow(1, "h0", "h3", 2_000_000),
                 Flow(2, "h1", "h3", 2_000_000)]
        net.start_flows(flows)
        net.advance(0.05)
        cc = net.topology.host(0).transport.senders[1].extra["cc"]
        assert cc.alpha > 0.1


class TestHPCC:
    def test_int_enabled_automatically(self):
        net = small_net("hpcc")
        assert net.config.int_enabled

    def test_window_reacts_to_congestion(self):
        net = small_net("hpcc")
        flows = [Flow(i, f"h{i}", "h3", 2_000_000) for i in range(2)]
        net.start_flows(flows)
        net.advance(0.02)
        t = net.topology.host(0).transport
        w = t.current_window(0)
        if w is not None:
            bdp = 1e8 / 8 * t.params.base_rtt
            assert w <= bdp * 2 + t.mtu


class TestReliability:
    def test_flow_completes_despite_tiny_buffers(self):
        """Forced drops exercise the go-back-N retransmission path."""
        net = small_net("dcqcn", switch_buffer_bytes=4_000)
        flows = [Flow(i, f"h{i % 2}", "h3", 100_000) for i in range(4)]
        net.start_flows(flows)
        net.advance(5.0)
        assert net.total_drops() > 0, "scenario should actually drop"
        assert all(f.done for f in flows)

    def test_retransmission_counter_increments(self):
        net = small_net("dcqcn", switch_buffer_bytes=3_000)
        flows = [Flow(i, f"h{i % 2}", "h3", 80_000) for i in range(4)]
        net.start_flows(flows)
        net.advance(5.0)
        retrans = sum(s.retransmissions
                      for h in net.topology.hosts
                      for s in h.transport.senders.values())
        assert retrans > 0
