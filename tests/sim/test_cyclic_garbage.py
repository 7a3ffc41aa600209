"""A simulated run creates no reference cycles.

``Simulator.run`` pauses the cyclic collector, which is sound only while
everything a run lets go of is freed by reference counting.  Each cell runs
with ``gc.DEBUG_SAVEALL`` set, so a collection keeps what it finds in
``gc.garbage`` instead of freeing it; the stop predicate runs a full
collection every few hundred events, and one more runs when the engine
returns.  Anything found is cyclic garbage made inside the run.
"""

import gc
import itertools

import pytest

from repro.adversary.schedule import CrashRule, NetworkSchedule, PartitionRule
from repro.adversary.nodes import BEHAVIOURS
from repro.analysis.harness import run_consensus
from repro.core.config import ProtocolMode
from repro.experiments.scenario import GraphSpec, Scenario
from repro.graphs.figures import figure_4b
from repro.sim.engine import Simulator
from repro.workloads.builders import graph_run_config, scenario_run_config

COLLECT_EVERY = 300

GRAPHS = {
    ProtocolMode.BFT_CUP: GraphSpec.bft_cup(f=1, non_sink_size=4, seed=11),
    ProtocolMode.BFT_CUPFT: GraphSpec.bft_cupft(f=1, non_core_size=4, seed=11),
}


@pytest.fixture
def cyclic_garbage(monkeypatch):
    """Every object a collection inside ``Simulator.run`` found unreachable."""
    found = []
    run = Simulator.run

    def collecting_run(self, until=None):
        calls = itertools.count()

        def until_and_collect():
            if next(calls) % COLLECT_EVERY == 0:
                gc.collect()
            return until is not None and until()

        gc.collect()  # what the build left behind is not the run's
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            return run(self, until_and_collect)
        finally:
            gc.collect()
            gc.set_debug(0)
            found.extend(type(item).__name__ for item in gc.garbage)
            gc.garbage.clear()

    monkeypatch.setattr(Simulator, "run", collecting_run)
    return found


@pytest.mark.parametrize("mode", list(GRAPHS), ids=lambda mode: mode.value)
@pytest.mark.parametrize("behaviour", sorted(BEHAVIOURS))
def test_a_run_makes_no_cyclic_garbage(cyclic_garbage, mode, behaviour):
    scenario = Scenario(name="cycles", graph=GRAPHS[mode], mode=mode, behaviour=behaviour, seed=7)
    result = run_consensus(scenario_run_config(scenario))
    assert result.events_processed > COLLECT_EVERY
    assert cyclic_garbage == []


def test_a_scheduled_run_makes_no_cyclic_garbage(cyclic_garbage):
    """A healing partition and a crash rule: timers armed and fired by the schedule."""
    scenario = figure_4b()
    (faulty_id,) = scenario.faulty
    schedule = NetworkSchedule(
        rules=(
            PartitionRule(groups=(frozenset({1, 2, 3}), frozenset({5, 6, 7, 8})), t_to=5.0),
            CrashRule(process=faulty_id, at=2.0),
        )
    )
    result = run_consensus(graph_run_config(scenario, mode=ProtocolMode.BFT_CUP, schedule=schedule))
    assert result.consensus_solved
    assert result.events_processed > COLLECT_EVERY
    assert cyclic_garbage == []
