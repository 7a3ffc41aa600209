"""E12 -- Declarative network fault schedules as a first-class scenario axis.

The paper's possibility results hinge on *when* and *between whom* messages
are delayed; this benchmark sweeps that dimension declaratively: three
:class:`~repro.experiments.NetworkSchedule` scripts — a core-splitting
partition that heals at GST, a "freeze every pre-GST message until just
after GST" delay, and a rule withholding everything the Byzantine processes
send — crossed with an unscripted reference column over a paper figure
(fig4b) and a generated BFT-CUPFT graph with ``f = 2``.

Beyond the sweep itself, the benchmark certifies the schedule plumbing
across every execution backend: the same scenario list runs on the serial
backend, a local multiprocessing pool and the filesystem work-queue backend
(whose job files force every cell — schedules included — through the JSON
codec), and the per-scenario summaries must be identical on all three.
"""

from repro.analysis.tables import render_table
from repro.core import ProtocolMode
from repro.experiments import (
    DelayRule,
    GraphSpec,
    NetworkSchedule,
    PartitionRule,
    PoolBackend,
    ScenarioMatrix,
    SuiteRunner,
    SynchronySpec,
    WorkQueueBackend,
)

#: The partial-synchrony GST/delta this sweep runs under (the matrix default).
GST, DELTA = 50.0, 1.0

SCHEDULES = (
    None,  # unscripted reference column
    # Split {1, 2} from the rest of the shared id range until GST: the
    # expected core (fig4b: {1,2,3}; generated: {1..5}) cannot assemble a
    # quorum before the partition heals at GST + 0.5 <= GST + delta.
    NetworkSchedule(
        name="partition-until-gst",
        rules=(
            PartitionRule(
                groups=(frozenset({1, 2}), frozenset({3, 4, 5, 6, 7, 8})),
                t_to=GST,
                heal_delay=0.5,
            ),
        ),
    ),
    # "Delay every message from X to Y until t": freeze all pre-GST traffic
    # and deliver it in one burst just after GST (still within GST + delta).
    NetworkSchedule(
        name="freeze-until-gst",
        rules=(DelayRule(t_to=GST, until=GST + 0.5),),
    ),
    # Withhold everything the Byzantine processes send, forever.  Only
    # faulty senders are matched, so no adversarial marker is needed: the
    # partial-synchrony contract covers correct→correct traffic only.
    NetworkSchedule(
        name="silence-byzantine",
        rules=(DelayRule(src="faulty"),),
    ),
)


def schedule_matrix() -> ScenarioMatrix:
    return ScenarioMatrix(
        name="network-schedules",
        graphs=(
            GraphSpec.figure("fig4b"),
            GraphSpec.bft_cupft(f=2, non_core_size=3, seed=1),
        ),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent", "lying_pd"),
        schedules=SCHEDULES,
        # A benign pre-GST network (short organic delays): what perturbs
        # these runs is the *scripted* faults, not the model's own pre-GST
        # slack, so the schedules' effects are visible in the latencies.
        synchrony=(SynchronySpec.partial(gst=GST, delta=DELTA, pre_gst_max_delay=2.0),),
        base_seed=31,
    )


def _comparable(suite):
    """Backend-independent view of a suite: per-cell (name, summary, error)."""
    return [
        (outcome.scenario.name, outcome.summary, outcome.error) for outcome in suite
    ]


def _sweep(tmp_path):
    scenarios = schedule_matrix().scenarios()
    serial = SuiteRunner().run(scenarios)
    pool = SuiteRunner(backend=PoolBackend(2)).run(scenarios)
    queue = SuiteRunner(
        backend=WorkQueueBackend(tmp_path / "queue", workers=2, timeout=600.0)
    ).run(scenarios)
    return serial, pool, queue


def test_network_schedule_sweep(experiment_report, suite_export, tmp_path):
    serial, pool, queue = _sweep(tmp_path)

    # The schedule cells must cross every backend boundary losslessly:
    # identical summaries whether the cell was materialised in-process, in a
    # pool worker, or rebuilt from a JSON job file by a work-queue worker.
    assert _comparable(serial) == _comparable(pool) == _comparable(queue)

    suite_export("network_schedules", serial, group_by="schedule")

    rows = [
        [
            key if key is not None else "unscripted",
            stats.runs,
            f"{stats.solved_rate:.2f}",
            stats.total_messages,
            f"{stats.mean_latency:.1f}" if stats.mean_latency is not None else "-",
        ]
        for key, stats in sorted(
            serial.group_stats("schedule").items(), key=lambda item: repr(item[0])
        )
    ]
    experiment_report(
        "Network fault schedules (BFT-CUPFT, fig4b + generated f=2), identical on 3 backends",
        render_table(["schedule", "runs", "solved", "messages", "mean latency"], rows),
    )

    # Every admissible schedule keeps consensus solvable on
    # requirement-satisfying graphs: partitions heal by GST + delta, frozen
    # messages thaw, and silencing Byzantine processes only helps.
    assert serial.solved_rate == 1.0, [o.scenario.name for o in serial if not o.solved]
    scheduled = [outcome for outcome in serial if outcome.scenario.schedule is not None]
    assert len(scheduled) == (len(SCHEDULES) - 1) * 2 * 2

    # Scripted cells must actually bite: with every pre-GST message frozen,
    # no process can identify the sink/core before the thaw at GST + 0.5,
    # while unscripted cells identify well before GST.
    frozen = [o for o in serial if o.scenario.label("schedule") == "freeze-until-gst"]
    unscripted = [o for o in serial if o.scenario.label("schedule") is None]
    assert all(o.summary["identification_latency"] > GST for o in frozen)
    fastest = min(o.summary["identification_latency"] for o in unscripted)
    assert fastest < GST, fastest
