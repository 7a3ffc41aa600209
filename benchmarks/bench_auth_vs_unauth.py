"""E7 -- Authenticated vs unauthenticated BFT-CUP (the Section III claim).

The paper argues that signatures collapse the original 120-line BFT-CUP
protocol into a ~20-line one.  This benchmark quantifies the claim on the
common phase of both protocols (discovery until sink identification): number
of messages and identification latency, authenticated Discovery vs flooding
with reachable reliable broadcast.

The workloads are declarative :class:`~repro.experiments.GraphSpec` cells
run through the :class:`~repro.experiments.SuiteRunner` with a *custom
executor* (this phase does not go through ``run_consensus``), showing how
non-consensus harnesses plug into the same suite machinery.

The ``auth-only`` workload adds an n=50 point that exercises the crypto
fast path: the authenticated run is executed twice on the same graph and
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


def _auth_summary(auth) -> dict:
    return {
        "auth_messages": auth.messages_sent,
        "auth_latency": max(auth.identification_times.values()),
        "auth_agreement": auth.agreement_on_members,
        "auth_all_identified": auth.all_correct_identified,
        "verify_calls": auth.verify_calls,
        "verify_cache_hits": auth.verify_cache_hits,
        "canonical_cache_hits": auth.canonical_cache_hits,
    }


@executor_identity("2")
def discovery_executor(scenario: Scenario) -> dict:
    """Run both discovery variants on the scenario's graph; report both."""
    built = scenario.graph.build()
    auth = run_authenticated_sink_discovery(
        built.graph, built.fault_threshold, built.faulty, seed=scenario.seed
    )
    unauth = run_unauthenticated_sink_discovery(
        built.graph, built.fault_threshold, built.faulty, seed=scenario.seed
    )
    return {
        "n": len(built.graph),
        **_auth_summary(auth),
        "unauth_messages": unauth.messages_sent,
        "unauth_latency": max(unauth.identification_times.values()),
        "unauth_agreement": unauth.agreement_on_members,
        "unauth_all_identified": unauth.all_correct_identified,
    }


@executor_identity("2")
def auth_fast_path_executor(scenario: Scenario) -> dict:
    """Authenticated discovery: fast path vs cache-less registry.

    Runs the identical scenario twice — the trajectory must not depend on
    the caches, so everything except the cache counters is asserted equal
    between the two runs.
    """
    built = scenario.graph.build()
    system = (built.graph, built.fault_threshold, built.faulty)
    fast = run_authenticated_sink_discovery(*system, seed=scenario.seed)
    slow = run_authenticated_sink_discovery(
        *system, seed=scenario.seed, registry=KeyRegistry(seed=scenario.seed, cached=False)
    )
    if (fast.identified, fast.identification_times, fast.messages_sent) != (
        slow.identified,
        slow.identification_times,
        slow.messages_sent,
    ):
        raise AssertionError("crypto caches changed the discovery trajectory")
    return {"n": len(built.graph), **_auth_summary(fast)}


def _run(workload: str) -> dict:
    scenario = Scenario(name=workload, graph=WORKLOADS[workload], seed=1)
    suite = SuiteRunner(executor=discovery_executor, fail_fast=True).run([scenario])
    return suite.outcomes[0].summary


def _run_auth_only():
    scenario = Scenario(
        name=AUTH_ONLY,
        # Extra edges densify the knowledge graph: every record travels (and
        # is re-verified) along more paths, which is exactly the repeat
        # verification the fast path exists to absorb.
        graph=GraphSpec.bft_cup(
            f=1, non_sink_size=LARGE_NON_SINK, extra_edge_probability=0.05, seed=7
        ),
        seed=1,
    )
    return SuiteRunner(executor=auth_fast_path_executor, fail_fast=True).run([scenario])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_auth_vs_unauth_sink_discovery(experiment_report, workload):
    summary = _run(workload)
    rows = [
        [
            "authenticated (Algorithm 1)",
            summary["auth_messages"],
            summary["auth_latency"],
            summary["auth_agreement"],
        ],
        [
            "unauthenticated (reachable reliable broadcast)",
            summary["unauth_messages"],
            summary["unauth_latency"],
            summary["unauth_agreement"],
        ],
        [
            "message ratio (unauth / auth)",
            round(summary["unauth_messages"] / max(summary["auth_messages"], 1), 2),
            "-",
            "-",
        ],
    ]
    experiment_report(
        f"Authenticated vs unauthenticated sink discovery ({workload}, n={summary['n']})",
        render_table(["variant", "messages", "identification latency", "agreement"], rows),
    )
    assert summary["auth_all_identified"] and summary["unauth_all_identified"]
    assert summary["auth_messages"] < summary["unauth_messages"]
    # The authenticated variant verifies signatures; the registry's caches
    # must have absorbed repeat verifications of the shared records.
    assert summary["verify_calls"] > 0
    assert summary["verify_cache_hits"] > 0


def test_auth_fast_path_large_n(experiment_report, suite_export):
    suite = _run_auth_only()
    summary = suite.outcomes[0].summary
    suite_export("auth_vs_unauth", suite, group_by=lambda scenario: scenario.name)
    experiment_report(
        f"Crypto fast path at n={summary['n']} (authenticated discovery)",
        render_table(
            ["verify calls", "verified-signature hits", "canonical memo hits"],
            [[summary["verify_calls"], summary["verify_cache_hits"], summary["canonical_cache_hits"]]],
        ),
    )
    assert summary["auth_all_identified"] and summary["auth_agreement"]
    assert summary["verify_cache_hits"] > 0
    assert summary["canonical_cache_hits"] > 0
