"""Tests for the scenario harness that drives the benchmark suite."""

import numpy as np
import pytest

from repro.analysis.experiments import (SCHEMES, ExperimentResult,
                                        ScenarioConfig, build_scheme,
                                        run_scenario)
from repro.baselines.acc import ACCController
from repro.baselines.static_ecn import StaticECNController
from repro.core.pet import PETController
from repro.netsim.fluid import FluidConfig


def tiny_scenario(**kw):
    kw.setdefault("duration", 0.02)
    kw.setdefault("pretrain_intervals", 8)
    kw.setdefault("load", 0.4)
    kw.setdefault("fluid", FluidConfig(n_spine=1, n_leaf=2, hosts_per_leaf=4,
                                       host_rate_bps=10e9,
                                       spine_rate_bps=40e9))
    kw.setdefault("seed", 0)
    return ScenarioConfig(**kw)


class TestBuildScheme:
    def test_all_names_buildable(self):
        for name in SCHEMES:
            ctrl = build_scheme(name, ["leaf0", "spine0"], seed=0)
            assert hasattr(ctrl, "decide")

    def test_types(self):
        assert isinstance(build_scheme("pet", ["s"]), PETController)
        assert isinstance(build_scheme("acc", ["s"]), ACCController)
        assert isinstance(build_scheme("secn1", ["s"]), StaticECNController)

    def test_ablated_pet_masks_features(self):
        ctrl = build_scheme("pet_ablated", ["s"], seed=0)
        assert not ctrl.config.use_incast
        assert not ctrl.config.use_flow_ratio

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_scheme("qlearning", ["s"])


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(simulator="ns3")
        with pytest.raises(KeyError):
            ScenarioConfig(workload="hadoop")

    def test_host_rate_follows_simulator(self):
        cfg = ScenarioConfig(simulator="fluid")
        assert cfg.host_rate_bps == cfg.fluid.host_rate_bps


class TestRunScenario:
    @pytest.mark.parametrize("scheme", ["secn1", "secn2"])
    def test_static_schemes(self, scheme):
        r = run_scenario(scheme, tiny_scenario())
        assert isinstance(r, ExperimentResult)
        assert r.flows_finished > 0
        assert r.fct["overall"].avg >= 1.0    # slowdown can't beat ideal
        assert 0 <= r.mean_utilization <= 1
        assert r.queue.samples > 0

    def test_pet_runs_with_pretraining(self):
        r = run_scenario("pet", tiny_scenario())
        assert r.scheme == "pet"
        assert r.flows_finished > 0
        assert np.isfinite(r.fct["overall"].avg)

    def test_acc_reports_overhead(self):
        r = run_scenario("acc", tiny_scenario())
        assert r.extra["bytes_exchanged_total"] > 0
        assert r.extra["replay_entries"] > 0

    def test_summary_row_fields(self):
        r = run_scenario("secn1", tiny_scenario())
        row = r.summary_row()
        for key in ("overall_avg_fct", "mice_avg_fct", "mice_p99_fct",
                    "elephant_avg_fct", "queue_mean_kb", "utilization"):
            assert key in row

    def test_seed_reproducibility(self):
        a = run_scenario("secn1", tiny_scenario(seed=3))
        b = run_scenario("secn1", tiny_scenario(seed=3))
        assert a.fct["overall"].avg == pytest.approx(b.fct["overall"].avg)
        assert a.flows_total == b.flows_total

    def test_different_seeds_differ(self):
        a = run_scenario("secn1", tiny_scenario(seed=3))
        b = run_scenario("secn1", tiny_scenario(seed=4))
        assert a.flows_total != b.flows_total or \
            a.fct["overall"].avg != b.fct["overall"].avg

    def test_on_interval_callback_invoked(self):
        hits = []
        run_scenario("secn1", tiny_scenario(),
                     on_interval=lambda i, now, stats: hits.append(i))
        assert len(hits) == 20     # duration / delta_t

    def test_incast_toggle(self):
        with_incast = tiny_scenario(incast=True, seed=9)
        without = tiny_scenario(incast=False, seed=9)
        a = run_scenario("secn1", with_incast)
        b = run_scenario("secn1", without)
        assert a.flows_total > b.flows_total

    def test_external_network_respected(self):
        from repro.netsim.fluid import FluidNetwork
        from repro.netsim.flow import Flow
        cfg = tiny_scenario()
        net = FluidNetwork(cfg.fluid, seed=0)
        net.start_flow(Flow(1, "h0", "h4", 100_000))
        r = run_scenario("secn1", cfg, network=net)
        assert r.flows_total == 1
