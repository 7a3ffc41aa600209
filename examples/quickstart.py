"""Quickstart: solve consensus on the paper's Fig. 1b graph, then sweep it.

Part 1 is the paper's running example as a single run: eight processes,
each knowing only a subset of the others (the knowledge connectivity graph
of Fig. 1b), process 4 Byzantine and silent, and the fault threshold
``f = 1`` given to every process (the authenticated BFT-CUP model of
Section III).

Part 2 is the canonical experiment workflow: declare a
:class:`~repro.experiments.ScenarioMatrix` (here: both figure graphs ×
two adversary behaviours × three seed replicates), execute it through the
:class:`~repro.experiments.SuiteRunner`, and read the aggregated per-group
statistics from the :class:`~repro.experiments.SuiteResult`.

Run with::

    python examples/quickstart.py
"""

from repro.analysis import run_consensus
from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import GraphSpec, ScenarioMatrix, SuiteRunner
from repro.graphs import StaticOracle
from repro.graphs.figures import figure_1b
from repro.workloads import graph_run_config


def single_run() -> None:
    scenario = figure_1b()
    print(f"Scenario: {scenario.description}\n")

    # Static analysis: what does the knowledge connectivity graph look like?
    oracle = StaticOracle(scenario.graph, scenario.faulty)
    print("Static analysis of the knowledge connectivity graph")
    print(f"  processes:               {sorted(scenario.graph.processes)}")
    print(f"  Byzantine processes:     {sorted(scenario.faulty)}")
    print(f"  sink of Gsafe:           {sorted(oracle.safe_sink)}")
    print(f"  sink the protocol finds: {sorted(oracle.expected_sink)}")
    print(f"  max k for which Gsafe is k-OSR: {oracle.safe_osr_k}\n")

    # Dynamic run: every process proposes its own value; the silent
    # Byzantine process never takes a step.
    config = graph_run_config(
        scenario,
        mode=ProtocolMode.BFT_CUP,
        behaviour="silent",
        proposals={pid: f"block-from-{pid}" for pid in scenario.graph.processes},
    )
    result = run_consensus(config)

    rows = []
    for process in sorted(result.correct):
        rows.append(
            [
                process,
                "member" if process in result.identified.get(process, frozenset()) else "non-member",
                sorted(result.identified.get(process, frozenset())),
                result.decisions.get(process),
                f"{result.decision_times.get(process, float('nan')):.1f}",
            ]
        )
    print(
        render_table(
            ["process", "role", "identified sink", "decision", "decided at (virtual time)"],
            rows,
            title="Per-process outcome",
        )
    )
    print()
    print(f"Consensus solved: {result.consensus_solved}")
    print(f"  agreement:   {result.agreement}")
    print(f"  validity:    {result.validity}")
    print(f"  termination: {result.termination}")
    print(f"  messages:    {result.messages_sent}")
    print(f"  latency:     {result.latency():.1f} (virtual time units)")


def scenario_sweep() -> None:
    # The canonical workflow: declare the whole matrix, run it as a suite.
    # Every cell gets a deterministic derived seed, and
    # ``SuiteRunner(backend=PoolBackend(n))`` would run the same suite on a
    # pool of n worker processes with identical results.
    matrix = ScenarioMatrix(
        name="quickstart",
        graphs=(GraphSpec.figure("fig1b"), GraphSpec.figure("fig4b")),
        modes=(ProtocolMode.BFT_CUP,),
        behaviours=("silent", "crash"),
        replicates=3,
        base_seed=7,
    )
    suite = SuiteRunner().run(matrix.scenarios())

    print(f"\nSweep: {len(suite)} runs ({matrix.name} matrix), "
          f"solved rate {suite.solved_rate:.2f}\n")
    print(suite.render(group_by="graph", title="Aggregates per graph"))
    print()
    print(suite.render(group_by="behaviour", title="Aggregates per adversary behaviour"))


def main() -> None:
    single_run()
    scenario_sweep()


if __name__ == "__main__":
    main()
