"""Gym bridge with caller-supplied network factories."""

import numpy as np

from repro.core.config import PETConfig
from repro.gymenv import DCNEnv, EnvConfig, MultiAgentDCNEnv
from repro.netsim.flow import Flow
from repro.netsim.fluid import FluidConfig, FluidNetwork


def custom_factory():
    """Deterministic scenario: one elephant and one mouse."""
    net = FluidNetwork(FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=2,
                                   host_rate_bps=10e9, spine_rate_bps=40e9),
                       seed=0)
    net.start_flow(Flow(1, "h0", "h2", 20_000_000))
    net.start_flow(Flow(2, "h1", "h2", 50_000, start_time=2e-3))
    return net


def env_cfg():
    return EnvConfig(pet=PETConfig(delta_t=1e-3, seed=0),
                     episode_intervals=6)


class TestCustomFactory:
    def test_single_agent_uses_factory(self):
        env = DCNEnv(env_cfg(), network_factory=custom_factory)
        env.reset()
        assert len(env.net.flows) == 2
        obs, reward, done, info = env.step(0)
        assert np.isfinite(reward)

    def test_factory_called_per_reset(self):
        calls = []

        def factory():
            calls.append(1)
            return custom_factory()

        env = DCNEnv(env_cfg(), network_factory=factory)
        env.reset()
        env.reset()
        assert len(calls) == 2

    def test_multiagent_uses_factory(self):
        env = MultiAgentDCNEnv(env_cfg(), network_factory=custom_factory)
        obs = env.reset()
        assert set(obs) == {"leaf0", "leaf1", "spine0"}
        _, rewards, _, _ = env.step({s: 0 for s in env.agents})
        assert all(np.isfinite(r) for r in rewards.values())

    def test_episode_on_factory_traffic_observes_congestion(self):
        env = DCNEnv(env_cfg(), network_factory=custom_factory,)
        env.agent_switch = "leaf1"       # destination leaf sees the queue
        env.reset()
        utils = []
        for _ in range(6):
            _, _, done, info = env.step(0)
            utils.append(info["utilization"])
        assert max(utils) > 0.05         # the elephant shows up in stats
