"""E7 -- Authenticated vs unauthenticated BFT-CUP (the Section III claim).

The paper argues that signatures collapse the original 120-line BFT-CUP
protocol into a ~20-line one.  This benchmark quantifies the claim on the
common phase of both protocols (discovery until sink identification): number
of messages and identification latency, authenticated Discovery vs flooding
with reachable reliable broadcast.

The workloads are declarative :class:`~repro.experiments.GraphSpec` cells,
one per discovery variant (the ``variant`` label), run through the
:class:`~repro.experiments.SuiteRunner` with a *custom executor* (this phase
does not go through ``run_consensus``), showing how non-consensus harnesses
plug into the same suite machinery.  Each cell reports its variant's
``messages`` and identification ``latency``, so the exported trajectory pins
both; ``solved`` stays 0, since discovery decides nothing.

The ``auth-only`` workload adds an n=50 point that exercises the crypto
fast path.  Every authenticated cell is executed twice on the same graph and
seed — once with the default :class:`~repro.crypto.KeyRegistry` (canonical
memo + verified-signature LRU) and once with a cache-less registry — and
both runs must produce identical trajectories.  The work the caches save is
pinned by the crypto call counts of ``scripts/work_counts.py``.
Unauthenticated flooding is quadratic-ish in n and is not run at this point.
"""

import pytest

from repro.analysis.tables import render_table
from repro.baselines import (
    run_authenticated_sink_discovery,
    run_unauthenticated_sink_discovery,
)
from repro.crypto import KeyRegistry
from repro.experiments import GraphSpec, Scenario, SuiteRunner, executor_identity

WORKLOADS = {
    "fig1b": GraphSpec.figure("fig1b"),
    "random f=1, n=9": GraphSpec.bft_cup(f=1, non_sink_size=3, seed=0),
    "random f=1, n=12": GraphSpec.bft_cup(f=1, non_sink_size=6, seed=1),
}

#: Correct non-sink layer size of the auth-only point; the system size is
#: ``non_sink + 4`` (sink of ``2f + 1 = 3`` plus one Byzantine process at
#: ``f = 1``).
LARGE_NON_SINK = 46

AUTH_ONLY = f"auth-only, n={LARGE_NON_SINK + 4}"

VARIANTS = ("auth", "unauth")


@executor_identity("3")
def discovery_executor(scenario: Scenario) -> dict:
    """Run the scenario's discovery variant on its graph and report it.

    An authenticated run is repeated with a cache-less registry: the
    trajectory must not depend on the caches.
    """
    built = scenario.graph.build()
    system = (built.graph, built.fault_threshold, built.faulty)
    if scenario.label("variant") == "unauth":
        run = run_unauthenticated_sink_discovery(*system, seed=scenario.seed)
        counters = {}
    else:
        run = run_authenticated_sink_discovery(*system, seed=scenario.seed)
        slow = run_authenticated_sink_discovery(
            *system, seed=scenario.seed, registry=KeyRegistry(seed=scenario.seed, cached=False)
        )
        if (run.identified, run.identification_times, run.messages_sent) != (
            slow.identified,
            slow.identification_times,
            slow.messages_sent,
        ):
            raise AssertionError("crypto caches changed the discovery trajectory")
        counters = {
            "verify_calls": run.verify_calls,
            "verify_cache_hits": run.verify_cache_hits,
            "canonical_cache_hits": run.canonical_cache_hits,
        }
    return {
        "n": len(built.graph),
        "messages": run.messages_sent,
        "latency": max(run.identification_times.values()),
        "agreement": run.agreement_on_members,
        "all_identified": run.all_correct_identified,
        **counters,
    }


def _cells() -> list[Scenario]:
    cells = [
        Scenario(
            name=f"{workload} [{variant}]",
            graph=graph,
            seed=1,
            labels=(("variant", variant), ("workload", workload)),
        )
        for workload, graph in sorted(WORKLOADS.items())
        for variant in VARIANTS
    ]
    cells.append(
        Scenario(
            name=AUTH_ONLY,
            # Extra edges densify the knowledge graph: every record travels
            # (and is re-verified) along more paths, which is exactly the
            # repeat verification the fast path exists to absorb.
            graph=GraphSpec.bft_cup(
                f=1, non_sink_size=LARGE_NON_SINK, extra_edge_probability=0.05, seed=7
            ),
            seed=1,
            labels=(("variant", "auth"), ("workload", AUTH_ONLY)),
        )
    )
    return cells


@pytest.fixture(scope="module")
def discovery(suite_export):
    """Every cell's summary by ``(workload, variant)``; the trajectory is exported once."""
    suite = SuiteRunner(executor=discovery_executor, fail_fast=True).run(_cells())
    suite_export("auth_vs_unauth", suite, group_by=lambda scenario: scenario.name)
    return {
        (outcome.scenario.label("workload"), outcome.scenario.label("variant")): outcome.summary
        for outcome in suite.outcomes
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_auth_vs_unauth_sink_discovery(experiment_report, discovery, workload):
    auth, unauth = discovery[workload, "auth"], discovery[workload, "unauth"]
    rows = [
        ["authenticated (Algorithm 1)", auth["messages"], auth["latency"], auth["agreement"]],
        [
            "unauthenticated (reachable reliable broadcast)",
            unauth["messages"],
            unauth["latency"],
            unauth["agreement"],
        ],
        [
            "message ratio (unauth / auth)",
            round(unauth["messages"] / max(auth["messages"], 1), 2),
            "-",
            "-",
        ],
    ]
    experiment_report(
        f"Authenticated vs unauthenticated sink discovery ({workload}, n={auth['n']})",
        render_table(["variant", "messages", "identification latency", "agreement"], rows),
    )
    assert auth["all_identified"] and unauth["all_identified"]
    assert auth["messages"] < unauth["messages"]
    # The authenticated variant verifies signatures; the registry's caches
    # must have absorbed repeat verifications of the shared records.
    assert auth["verify_calls"] > 0
    assert auth["verify_cache_hits"] > 0


def test_auth_fast_path_large_n(experiment_report, discovery):
    summary = discovery[AUTH_ONLY, "auth"]
    experiment_report(
        f"Crypto fast path at n={summary['n']} (authenticated discovery)",
        render_table(
            ["verify calls", "verified-signature hits", "canonical memo hits"],
            [[summary["verify_calls"], summary["verify_cache_hits"], summary["canonical_cache_hits"]]],
        ),
    )
    assert summary["all_identified"] and summary["agreement"]
    assert summary["verify_cache_hits"] > 0
    assert summary["canonical_cache_hits"] > 0
