"""E11 -- Heterogeneous adversary mixes as a first-class scenario axis (extension).

The paper's evidence matrix varies the adversary *behaviour*; this
benchmark varies the adversary *composition*: declarative
:class:`~repro.experiments.AdversaryMix` cells ("one equivocator + rest
silent", "one lying PD + rest crashing", "one value-poisoner + rest
silent") swept alongside the homogeneous behaviours over a paper figure and
a generated BFT-CUPFT graph with several Byzantine processes.

Beyond the sweep itself, the benchmark certifies the mix plumbing across
every execution backend: the same scenario list runs on the serial backend,
a local multiprocessing pool and the filesystem work-queue backend (whose
job files force every cell — mixes included — through the JSON codec), and
the per-scenario summaries must be identical on all three.
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import (
    AdversaryMix,
    GraphSpec,
    PoolBackend,
    ScenarioMatrix,
    SuiteRunner,
    WorkQueueBackend,
)

MIXES = (
    AdversaryMix.of("one-equivocator", equivocating_pd=1, silent="rest"),
    AdversaryMix.of("lying-scout", lying_pd=1, crash="rest"),
    AdversaryMix.of("poisoner", wrong_value=1, silent="rest"),
)


def mix_matrix() -> ScenarioMatrix:
    return ScenarioMatrix(
        name="adversary-mixes",
        graphs=(
            GraphSpec.figure("fig4b"),
            GraphSpec.bft_cupft(f=2, non_core_size=3, seed=1),
        ),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent",),  # homogeneous reference column
        mixes=MIXES,
        base_seed=23,
    )


def _comparable(suite):
    """Backend-independent view of a suite: per-cell (name, summary, error)."""
    return [
        (outcome.scenario.name, outcome.summary, outcome.error) for outcome in suite
    ]


def _sweep(tmp_path):
    scenarios = mix_matrix().scenarios()
    serial = SuiteRunner().run(scenarios)
    pool = SuiteRunner(backend=PoolBackend(2)).run(scenarios)
    queue = SuiteRunner(
        backend=WorkQueueBackend(tmp_path / "queue", workers=2, timeout=600.0)
    ).run(scenarios)
    return serial, pool, queue


def test_adversary_mix_sweep(experiment_report, suite_export, tmp_path):
    serial, pool, queue = _sweep(tmp_path)

    # The mix cells must cross every backend boundary losslessly: identical
    # summaries whether the cell was materialised in-process, in a pool
    # worker, or rebuilt from a JSON job file by a work-queue worker.
    assert _comparable(serial) == _comparable(pool) == _comparable(queue)

    suite_export("adversary_mixes", serial, group_by="behaviour")

    rows = [
        [
            key,
            stats.runs,
            f"{stats.solved_rate:.2f}",
            stats.total_messages,
            f"{stats.mean_latency:.1f}" if stats.mean_latency is not None else "-",
        ]
        for key, stats in sorted(serial.group_stats("behaviour").items(), key=lambda i: repr(i[0]))
    ]
    experiment_report(
        "Adversary mixes (BFT-CUPFT, fig4b + generated f=2), identical on 3 backends",
        render_table(["adversary", "runs", "solved", "messages", "mean latency"], rows),
    )

    # Every mix keeps consensus solvable on requirement-satisfying graphs.
    assert serial.solved_rate == 1.0, [o.scenario.name for o in serial if not o.solved]
    mixed = [outcome for outcome in serial if outcome.scenario.mix is not None]
    assert len(mixed) == len(MIXES) * 2
