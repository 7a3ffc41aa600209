"""E1 -- Table I: (im)possibility of BFT consensus under different models.

Regenerates the paper's Table I as a 3x3 matrix of ✓/✗ outcomes measured on
the simulator (see :mod:`repro.analysis.table1` for how each cell is
realised).  Each of the nine cells is one scenario of a suite whose
executor drives :func:`repro.analysis.table1.run_cell`; the suite times one
full matrix evaluation and exports ``BENCH_table1_possibility.json``.
"""

from repro.analysis.table1 import COMMUNICATION_MODELS, KNOWLEDGE_MODELS, run_cell
from repro.analysis.tables import render_table
from repro.experiments import GraphSpec, Scenario, SuiteRunner, executor_identity


@executor_identity("1")
def table1_executor(scenario: Scenario) -> dict:
    """Run one Table I cell and summarise the measured-vs-paper verdict."""
    cell = run_cell(
        scenario.label("communication"),
        scenario.label("knowledge"),
        seed=scenario.seed,
        horizon=scenario.horizon,
    )
    summary = cell.result.summary()
    summary["cell_solved"] = cell.solved
    summary["expected_solved"] = cell.expected_solved
    summary["matches_paper"] = cell.matches_paper
    return summary


def table1_scenarios(horizon: float = 2_000.0) -> list[Scenario]:
    # The executor owns the workload construction (complete graph, Fig. 1b,
    # Fig. 4b + the three synchrony models); the graph spec is an opaque
    # cell reference, which is fine for custom-executor suites that never
    # call ``GraphSpec.build``.
    return [
        Scenario(
            name=f"table1[{communication}|{knowledge}]",
            graph=GraphSpec(family="table1", params=(("knowledge", knowledge),)),
            seed=0,
            horizon=horizon,
            labels=(("communication", communication), ("knowledge", knowledge)),
        )
        for communication in COMMUNICATION_MODELS
        for knowledge in KNOWLEDGE_MODELS
    ]


def format_suite_table(suite) -> str:
    """Render the suite's 3x3 matrix in the same layout as the paper."""
    by_key = {
        (o.scenario.label("communication"), o.scenario.label("knowledge")): o for o in suite
    }
    rows = []
    for communication in COMMUNICATION_MODELS:
        row = [communication]
        for knowledge in KNOWLEDGE_MODELS:
            outcome = by_key[(communication, knowledge)]
            mark = "✓" if outcome.metric("cell_solved") else "✗"
            expected = "✓" if outcome.metric("expected_solved") else "✗"
            row.append(f"{mark} (paper: {expected})")
        rows.append(row)
    headers = ["communication \\ knowledge", *KNOWLEDGE_MODELS]
    return render_table(
        headers, rows, title="Table I: deterministic BFT consensus (measured vs paper)"
    )


def test_table1_possibility_matrix(experiment_report, suite_export):
    runner = SuiteRunner(executor=table1_executor)
    suite = runner.run(table1_scenarios())
    suite_export("table1_possibility", suite, group_by="communication")
    experiment_report("Table I (measured vs paper)", format_suite_table(suite))
    assert all(outcome.ok for outcome in suite)
    assert all(outcome.metric("matches_paper") for outcome in suite)
