"""Table I: the (im)possibility of solving BFT consensus under different models.

The paper's Table I has nine cells: three knowledge models (known ``n`` and
``f``; unknown ``n``, known ``f``; unknown ``n`` and ``f``) crossed with
three communication models (synchronous, partially synchronous,
asynchronous).  The first two rows are possible (✓) and the asynchronous row
is impossible (✗, by FLP).

This module realises each cell as a concrete simulated workload:

* *Known n, known f* -- a complete knowledge connectivity graph (every
  process knows every other) run with the BFT-CUP protocol.
* *Unknown n, known f* -- the Fig. 1b graph (partial knowledge) run with the
  BFT-CUP protocol.
* *Unknown n, unknown f* -- the Fig. 4b graph (extended k-OSR) run with the
  BFT-CUPFT protocol.
* *Synchronous / partially synchronous* -- the corresponding synchrony
  models of :mod:`repro.sim.synchrony`.
* *Asynchronous* -- no GST: the adversarial scheduler withholds every
  message sent by one correct sink/core member forever (admissible in an
  asynchronous system), which leaves only ``2f`` correct members reachable
  and therefore prevents termination -- the empirical face of the FLP-style
  ✗ entries.

The benchmark prints the same 3x3 matrix as the paper; ✓ means every correct
process decided and all consensus properties held, ✗ means the run did not
terminate within the horizon (or a property was violated).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.schedule import DelayRule, NetworkSchedule
from repro.adversary.spec import FaultSpec
from repro.analysis.harness import RunConfig, RunResult, run_consensus
from repro.analysis.tables import render_table
from repro.core.config import ProtocolConfig
from repro.graphs.figures import figure_1b, figure_4b
from repro.graphs.knowledge_graph import KnowledgeGraph, ProcessId
from repro.sim.synchrony import (
    AsynchronousModel,
    PartialSynchronyModel,
    SynchronousModel,
)

KNOWLEDGE_MODELS = ("known n, known f", "unknown n, known f", "unknown n, unknown f")
COMMUNICATION_MODELS = ("synchronous", "partially synchronous", "asynchronous")


@dataclass(frozen=True)
class TableCell:
    """One cell of the Table I reproduction."""

    communication: str
    knowledge: str
    solved: bool
    expected_solved: bool
    result: RunResult

    @property
    def matches_paper(self) -> bool:
        return self.solved == self.expected_solved


def _complete_graph(size: int = 4) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    nodes = list(range(1, size + 1))
    for source in nodes:
        for target in nodes:
            if source != target:
                graph.add_edge(source, target)
    return graph


def _knowledge_workload(knowledge: str) -> tuple[KnowledgeGraph, dict[ProcessId, FaultSpec], ProtocolConfig, frozenset[ProcessId]]:
    """Return (graph, faulty, protocol, expected sink or core of the safe graph) for a knowledge model."""
    if knowledge == "known n, known f":
        graph = _complete_graph(4)
        faulty = {4: FaultSpec("silent")}
        protocol = ProtocolConfig.bft_cup(1)
        safe_group = frozenset({1, 2, 3})
    elif knowledge == "unknown n, known f":
        scenario = figure_1b()
        graph = scenario.graph
        faulty = {process: FaultSpec("silent") for process in scenario.faulty}
        protocol = ProtocolConfig.bft_cup(scenario.fault_threshold)
        safe_group = scenario.expected_safe_sink
    elif knowledge == "unknown n, unknown f":
        scenario = figure_4b()
        graph = scenario.graph
        faulty = {process: FaultSpec("silent") for process in scenario.faulty}
        protocol = ProtocolConfig.bft_cupft()
        safe_group = scenario.expected_safe_core
    else:
        raise ValueError(f"unknown knowledge model {knowledge!r}")
    return graph, faulty, protocol, safe_group


def run_cell(
    communication: str,
    knowledge: str,
    *,
    seed: int = 0,
    horizon: float = 3_000.0,
) -> TableCell:
    """Run the workload of one Table I cell and report whether consensus was solved."""
    graph, faulty, protocol, safe_group = _knowledge_workload(knowledge)

    schedule = None
    if communication == "synchronous":
        synchrony = SynchronousModel(delta=1.0)
        expected = True
    elif communication == "partially synchronous":
        synchrony = PartialSynchronyModel(gst=40.0, delta=1.0)
        expected = True
    elif communication == "asynchronous":
        # The asynchronous adversary withholds every message sent by one
        # correct sink/core member forever.  With a sink of exactly 2f+1
        # correct processes this prevents the inner consensus quorum, so no
        # correct process can ever decide -- which is admissible because an
        # asynchronous system has no GST (the schedule validator imposes no
        # delivery contract under the asynchronous model).
        victim = min(safe_group, key=repr)
        synchrony = AsynchronousModel(delta=1.0, starvation_probability=0.0)
        schedule = NetworkSchedule(
            name="starve-victim",
            rules=(
                DelayRule(
                    src=frozenset({victim}),
                    dst=frozenset(graph.processes) - {victim},
                ),
            ),
        )
        expected = False
    else:
        raise ValueError(f"unknown communication model {communication!r}")

    config = RunConfig(
        graph=graph,
        protocol=protocol,
        faulty=faulty,
        synchrony=synchrony,
        schedule=schedule,
        seed=seed,
        horizon=horizon,
    )
    result = run_consensus(config)
    return TableCell(
        communication=communication,
        knowledge=knowledge,
        solved=result.consensus_solved,
        expected_solved=expected,
        result=result,
    )


def build_table(seed: int = 0, horizon: float = 3_000.0) -> list[TableCell]:
    """Run all nine cells of Table I."""
    cells = []
    for communication in COMMUNICATION_MODELS:
        for knowledge in KNOWLEDGE_MODELS:
            cells.append(run_cell(communication, knowledge, seed=seed, horizon=horizon))
    return cells


def format_table(cells: list[TableCell]) -> str:
    """Render the 3x3 matrix in the same layout as the paper's Table I."""
    by_key = {(cell.communication, cell.knowledge): cell for cell in cells}
    rows = []
    for communication in COMMUNICATION_MODELS:
        row = [communication]
        for knowledge in KNOWLEDGE_MODELS:
            cell = by_key[(communication, knowledge)]
            mark = "✓" if cell.solved else "✗"
            expected = "✓" if cell.expected_solved else "✗"
            row.append(f"{mark} (paper: {expected})")
        rows.append(row)
    headers = ["communication \\ knowledge", *KNOWLEDGE_MODELS]
    return render_table(headers, rows, title="Table I: deterministic BFT consensus (measured vs paper)")
