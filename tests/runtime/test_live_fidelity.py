"""Sim-vs-live fidelity: both runtimes must decide the same values.

These tests run real asyncio TCP servers on loopback; the aggressive
``time_scale`` keeps each run well under a second of wall clock while
leaving localhost latency far below every scaled protocol timeout.
"""

import pytest

from repro.adversary.schedule import NetworkSchedule, PartitionRule
from repro.core import ProtocolMode
from repro.graphs.figures import figure_4b
from repro.graphs.generators import generate_bft_cup_graph
from repro.runtime.fidelity import FidelityError, assert_fidelity, check_fidelity
from repro.runtime.harness import run_live_consensus
from repro.workloads.builders import graph_run_config

TIME_SCALE = 0.01


class TestBenignFidelity:
    def test_fig4b_decides_identically(self):
        config = graph_run_config(figure_4b(), mode=ProtocolMode.BFT_CUP)
        report = assert_fidelity(config, time_scale=TIME_SCALE)
        assert report.ok
        assert report.live.consensus_solved
        assert report.live.runtime_name == "live"
        assert report.sim.runtime_name == "sim"
        assert report.live.decisions == report.sim.decisions

    def test_generated_f1_graph(self):
        scenario = generate_bft_cup_graph(f=1, non_sink_size=3, seed=5)
        config = graph_run_config(scenario, mode=ProtocolMode.BFT_CUPFT, behaviour="silent")
        report = assert_fidelity(config, time_scale=TIME_SCALE)
        assert report.ok
        assert report.live.consensus_solved


class TestScheduledFaultFidelity:
    def test_partition_schedule_on_both_runtimes(self):
        schedule = NetworkSchedule(
            rules=(
                PartitionRule(
                    groups=(frozenset({1, 2, 3}), frozenset({5, 6, 7, 8})),
                    t_from=0.0,
                    t_to=10.0,
                    heal_delay=0.5,
                ),
            ),
            name="early-split",
        )
        config = graph_run_config(figure_4b(), mode=ProtocolMode.BFT_CUP, schedule=schedule)
        report = assert_fidelity(config, time_scale=TIME_SCALE)
        assert report.ok
        assert report.live.consensus_solved
        # The partition actually bit on the live runtime: cross-group
        # messages sent before t=10 were delayed by the rule.
        assert report.live.live.summary_entries()["live_messages_sent"] > 0


class TestLiveCounters:
    def test_live_summary_carries_socket_counters(self):
        config = graph_run_config(figure_4b(), mode=ProtocolMode.BFT_CUP)
        result = run_live_consensus(config, time_scale=TIME_SCALE)
        summary = result.summary()
        assert summary["runtime"] == "live"
        for key in (
            "live_messages_sent",
            "live_messages_received",
            "live_messages_lost",
            "live_reconnects",
            "live_timer_fires",
            "live_decide_wall_seconds",
            "live_wall_seconds",
        ):
            assert key in summary, key
        assert summary["live_messages_sent"] > 0
        assert summary["live_messages_received"] > 0
        assert summary["live_decide_wall_seconds"] is not None
        assert summary["live_wall_seconds"] > 0.0

    def test_sim_summary_stays_clean(self):
        from repro.analysis.harness import run_consensus

        config = graph_run_config(figure_4b(), mode=ProtocolMode.BFT_CUP)
        result = run_consensus(config)
        assert result.runtime_name == "sim"
        summary = result.summary()
        # Byte-stability guarantee: simulated summaries (and the committed
        # BENCH baselines built from them) carry no live-runtime keys.
        assert "runtime" not in summary
        assert not any(key.startswith("live_") for key in summary)


class TestFidelityReporting:
    def test_check_fidelity_report_shape(self):
        config = graph_run_config(figure_4b(), mode=ProtocolMode.BFT_CUP)
        report = check_fidelity(config, time_scale=TIME_SCALE)
        assert report.decisions_match
        assert report.identified_match
        assert report.properties_match
        description = report.describe()
        assert "decisions" in description and "ok" in description

    def test_assert_fidelity_raises_on_divergence(self, monkeypatch):
        import copy

        import repro.runtime.fidelity as fidelity_module
        from repro.analysis.harness import run_consensus

        config = graph_run_config(figure_4b(), mode=ProtocolMode.BFT_CUP)
        sim = run_consensus(config)
        forged = copy.copy(sim)
        forged.decisions = dict(sim.decisions)
        forged.decisions[next(iter(forged.decisions))] = "forged-divergent-value"

        monkeypatch.setattr(
            fidelity_module, "run_live_consensus", lambda config, **kwargs: forged
        )
        with pytest.raises(FidelityError):
            assert_fidelity(config, time_scale=TIME_SCALE)
