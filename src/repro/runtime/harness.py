"""Run-to-decision entry point for the live asyncio runtime.

:func:`run_live_consensus` is the wall-clock twin of
:func:`repro.analysis.harness.run_consensus`: the *same*
:class:`~repro.analysis.harness.RunConfig` goes down the same run path
(same node population, key material, schedule installer and collector) on an
:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`; the returned
``RunResult`` has ``runtime_name="live"`` and the socket counters attached.
"""

from __future__ import annotations

from repro.analysis.harness import RunConfig, RunResult, drive
from repro.core.seeding import derive_seed
from repro.crypto.signatures import KeyRegistry
from repro.runtime.asyncio_runtime import AsyncioRuntime, LiveRunError


def run_live_consensus(
    config: RunConfig,
    *,
    time_scale: float = 0.02,
    host: str = "127.0.0.1",
) -> RunResult:
    """Execute one consensus run over real sockets and evaluate it.

    ``time_scale`` is wall seconds per protocol time unit: protocol timers
    (discovery/query periods, PBFT view timeouts) and the run horizon are
    scaled by it, so the default turns fig-4b's ~30-unit runs into well
    under a second of wall clock.  Raises :class:`LiveRunError` when a
    protocol handler raised during the run.
    """
    runtime = AsyncioRuntime(
        max_time=config.horizon,
        host=host,
        time_scale=time_scale,
        synchrony=config.synchrony,
        faulty=frozenset(config.faulty),
    )
    # Same key substream as the simulated harness: signatures produced live
    # verify against the registry a simulated run of the same seed builds.
    return drive(config, runtime, KeyRegistry(seed=derive_seed(config.seed, "keys")))


__all__ = ["LiveRunError", "run_live_consensus"]
