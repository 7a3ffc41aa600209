"""Property-style integration tests: consensus invariants on generated workloads.

Hypothesis generates (small) random parameters for the graph generators,
fault behaviours and schedules; every run must preserve Agreement, Validity
and Integrity, and -- because the generated graphs satisfy the model
requirements -- Termination within the horizon.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import run_consensus
from repro.core import ProtocolMode
from repro.graphs.generators import generate_bft_cup_graph, generate_bft_cupft_graph
from repro.workloads import graph_run_config

BEHAVIOURS = ["silent", "crash", "lying_pd", "wrong_value"]

RELAXED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestBftCupInvariants:
    @RELAXED
    @given(
        seed=st.integers(0, 30),
        non_sink=st.integers(0, 4),
        behaviour=st.sampled_from(BEHAVIOURS),
        schedule_seed=st.integers(0, 5),
    )
    def test_f1_workloads(self, seed, non_sink, behaviour, schedule_seed):
        scenario = generate_bft_cup_graph(f=1, non_sink_size=non_sink, seed=seed)
        config = graph_run_config(
            scenario, mode=ProtocolMode.BFT_CUP, behaviour=behaviour, seed=schedule_seed
        )
        result = run_consensus(config)
        assert result.agreement
        assert result.validity
        assert result.properties.integrity
        assert result.termination, result.summary()
        assert result.properties.identification_agreement

    @RELAXED
    @given(seed=st.integers(0, 20), behaviour=st.sampled_from(["silent", "lying_pd"]))
    def test_f2_workloads(self, seed, behaviour):
        scenario = generate_bft_cup_graph(f=2, non_sink_size=3, seed=seed)
        config = graph_run_config(
            scenario, mode=ProtocolMode.BFT_CUP, behaviour=behaviour, seed=seed
        )
        result = run_consensus(config)
        assert result.agreement and result.validity and result.termination


class TestBftCupftInvariants:
    @RELAXED
    @given(
        seed=st.integers(0, 30),
        non_core=st.integers(0, 4),
        behaviour=st.sampled_from(BEHAVIOURS),
        schedule_seed=st.integers(0, 5),
    )
    def test_f1_workloads(self, seed, non_core, behaviour, schedule_seed):
        scenario = generate_bft_cupft_graph(f=1, non_core_size=non_core, seed=seed)
        config = graph_run_config(
            scenario, mode=ProtocolMode.BFT_CUPFT, behaviour=behaviour, seed=schedule_seed
        )
        result = run_consensus(config)
        assert result.agreement
        assert result.validity
        assert result.properties.integrity
        assert result.termination, result.summary()

    @RELAXED
    @given(seed=st.integers(0, 15), behaviour=st.sampled_from(["silent", "wrong_value"]))
    def test_f2_workloads(self, seed, behaviour):
        scenario = generate_bft_cupft_graph(f=2, non_core_size=4, seed=seed)
        config = graph_run_config(
            scenario, mode=ProtocolMode.BFT_CUPFT, behaviour=behaviour, seed=seed
        )
        result = run_consensus(config)
        assert result.agreement and result.validity and result.termination

    @pytest.mark.parametrize("placement", ["sink", "non_sink", "mixed"])
    def test_byzantine_placement_variants(self, placement):
        scenario = generate_bft_cupft_graph(
            f=2, non_core_size=5, byzantine_placement=placement, seed=17
        )
        config = graph_run_config(scenario, mode=ProtocolMode.BFT_CUPFT, behaviour="silent")
        result = run_consensus(config)
        assert result.consensus_solved


class TestFaultFreeRuns:
    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_no_byzantine_processes(self, f):
        scenario = generate_bft_cupft_graph(
            f=f, non_core_size=3, byzantine_placement="none", seed=4
        )
        config = graph_run_config(scenario, mode=ProtocolMode.BFT_CUPFT)
        result = run_consensus(config)
        assert result.consensus_solved

    def test_all_propose_the_same_value(self):
        scenario = generate_bft_cupft_graph(f=1, non_core_size=3, seed=2)
        proposals = {pid: "common" for pid in scenario.graph.processes}
        config = graph_run_config(
            scenario, mode=ProtocolMode.BFT_CUPFT, behaviour="silent", proposals=proposals
        )
        result = run_consensus(config)
        assert set(result.decisions.values()) == {"common"}
