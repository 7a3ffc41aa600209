"""Tests for the property checkers, the harness, tables, Table I and Theorem 7 experiments."""

import pytest

from repro.analysis.harness import RunConfig, run_consensus
from repro.analysis.impossibility import describe, run_impossibility_experiment
from repro.analysis.properties import check_properties
from repro.analysis.table1 import (
    COMMUNICATION_MODELS,
    KNOWLEDGE_MODELS,
    build_table,
    format_table,
    run_cell,
)
from repro.analysis.tables import render_table
from repro.core.config import ProtocolConfig
from repro.adversary.spec import FaultSpec
from repro.sim.engine import Simulator


class TestPropertyChecker:
    def test_all_properties_hold(self):
        properties = check_properties(
            correct=frozenset({1, 2}),
            proposals={1: "v", 2: "v"},
            decisions={1: "v", 2: "v"},
            identified={1: frozenset({1, 2}), 2: frozenset({1, 2})},
            decision_counts={1: 1, 2: 1},
        )
        assert properties.consensus_solved
        assert properties.identification_agreement

    def test_agreement_violation(self):
        properties = check_properties(
            correct=frozenset({1, 2}),
            proposals={1: "v", 2: "u"},
            decisions={1: "v", 2: "u"},
            identified={},
            decision_counts={1: 1, 2: 1},
        )
        assert not properties.agreement
        assert properties.termination
        assert len(properties.distinct_decided_values) == 2

    def test_validity_violation(self):
        properties = check_properties(
            correct=frozenset({1}),
            proposals={1: "v"},
            decisions={1: "not-proposed"},
            identified={},
            decision_counts={1: 1},
        )
        assert not properties.validity

    def test_termination_requires_every_correct_process(self):
        properties = check_properties(
            correct=frozenset({1, 2}),
            proposals={1: "v", 2: "v"},
            decisions={1: "v"},
            identified={},
            decision_counts={1: 1},
        )
        assert not properties.termination

    def test_faulty_decisions_are_ignored(self):
        properties = check_properties(
            correct=frozenset({1}),
            proposals={1: "v", 2: "u"},
            decisions={1: "v", 2: "weird"},
            identified={2: frozenset({9})},
            decision_counts={1: 1, 2: 3},
        )
        assert properties.agreement and properties.validity and properties.integrity

    def test_integrity_from_counts(self):
        properties = check_properties(
            correct=frozenset({1}),
            proposals={1: "v"},
            decisions={1: "v"},
            identified={},
            decision_counts={1: 2},
        )
        assert not properties.integrity

    def test_a_second_decision_report_breaks_integrity(self, figures, monkeypatch):
        """Integrity is checked on what the run reported, not assumed."""
        from repro.core.node import ConsensusNode

        decide = ConsensusNode._decide

        def decide_and_report_again(node, value):
            decide(node, value)
            node.runtime.trace.on_decision(node.process_id, value, node.now)

        monkeypatch.setattr(ConsensusNode, "_decide", decide_and_report_again)
        config = RunConfig(
            graph=figures["fig1b"].graph,
            protocol=ProtocolConfig.bft_cup(1),
            faulty={4: FaultSpec("silent")},
        )
        result = run_consensus(config)
        assert result.termination and result.agreement and result.validity
        assert not result.properties.integrity
        assert not result.consensus_solved
        assert result.trace.decision_counts[1] >= 2


class TestHarness:
    def test_summary_and_latencies(self, figures):
        scenario = figures["fig1b"]
        config = RunConfig(
            graph=scenario.graph,
            protocol=ProtocolConfig.bft_cup(1),
            faulty={4: FaultSpec("silent")},
        )
        result = run_consensus(config)
        summary = result.summary()
        assert summary["terminated"] and summary["agreement"]
        assert summary["messages"] == result.messages_sent
        assert result.latency() >= result.identification_latency() > 0

    def test_default_proposals(self, figures):
        config = RunConfig(graph=figures["fig1b"].graph, protocol=ProtocolConfig.bft_cup(1))
        assert config.proposal_of(3) == "value-of-3"

    def test_participants_restriction(self, figures):
        scenario = figures["fig1b"]
        config = RunConfig(
            graph=scenario.graph,
            protocol=ProtocolConfig.bft_cup(1),
            faulty={4: FaultSpec("silent")},
            participants=frozenset(scenario.graph.processes - {8}),
            horizon=500.0,
        )
        result = run_consensus(config)
        # Process 8 never proposed, so it never decides; the others do.
        assert 8 not in result.decisions
        assert set(result.decisions) == set(result.correct) - {8}


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bbb"], [[1, True], [2.5, None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "yes" in text and "-" in text
        assert all(line.startswith(("+", "|", "T")) for line in lines)

    def test_table1_single_cells(self):
        cell = run_cell("partially synchronous", "unknown n, known f", horizon=2_000.0)
        assert cell.solved and cell.matches_paper
        async_cell = run_cell("asynchronous", "known n, known f", horizon=800.0)
        assert not async_cell.solved and async_cell.matches_paper

    def test_table1_full_matrix(self):
        cells = build_table(horizon=2_000.0)
        assert len(cells) == len(COMMUNICATION_MODELS) * len(KNOWLEDGE_MODELS)
        assert all(cell.matches_paper for cell in cells)
        text = format_table(cells)
        assert "asynchronous" in text and "✓" in text and "✗" in text

    def test_unknown_cell_parameters_rejected(self):
        with pytest.raises(ValueError):
            run_cell("carrier pigeon", "known n, known f")
        with pytest.raises(ValueError):
            run_cell("synchronous", "known everything")


class TestImpossibilityExperiment:
    def test_theorem_7_is_demonstrated(self):
        outcome = run_impossibility_experiment()
        assert outcome.a_decided_v
        assert outcome.b_decided_u
        assert outcome.ab_agreement_violated
        assert outcome.demonstrates_theorem
        text = describe(outcome)
        assert "agreement violated: True" in text

    def test_single_system_runs_terminate(self):
        outcome = run_impossibility_experiment()
        assert outcome.execution_a.termination
        assert outcome.execution_b.termination


class TestEngineTuning:
    def test_summary_exports_engine_and_locator_counters(self, figures):
        scenario = figures["fig1b"]
        config = RunConfig(
            graph=scenario.graph,
            protocol=ProtocolConfig.bft_cup(1),
            faulty={4: FaultSpec("silent")},
        )
        result = run_consensus(config)
        summary = result.summary()
        assert summary["events"] == result.events_processed > 0
        assert summary["compactions"] == result.compactions >= 0
        assert summary["pending_peak"] == result.pending_peak > 0
        assert summary["sink_searches"] == result.sink_searches > 0
        assert summary["search_skips"] == result.search_skips > 0

    def test_compaction_threshold_is_trajectory_neutral(self, figures, monkeypatch):
        """Every compaction threshold yields the identical execution.

        Compaction only rebuilds the heap's dead entries; it must never
        reorder live events.  The exported trajectory (decisions, latencies,
        messages, event and search counts) is therefore bit-identical for
        an always-compacting, a default and a never-compacting engine; only
        the ``compactions`` diagnostic itself may differ.
        """
        scenario = figures["fig1b"]

        def run(threshold):
            monkeypatch.setattr(Simulator, "COMPACTION_MIN_QUEUE", threshold)
            config = RunConfig(
                graph=scenario.graph,
                protocol=ProtocolConfig.bft_cup(1),
                faulty={4: FaultSpec("silent")},
            )
            result = run_consensus(config)
            summary = result.summary()
            del summary["compactions"]
            return (summary, result.decisions, result.decision_times, result.virtual_duration)

        reference = run(Simulator.COMPACTION_MIN_QUEUE)
        assert run(2) == reference
        assert run(10**9) == reference
