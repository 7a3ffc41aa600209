"""Lint configuration: rule scopes and the declared import-layering map.

The defaults encode *this* repository's architecture contract:

* trajectory-critical packages (the simulator, the protocol state machines,
  the graph analysis, the adversary models) must be deterministic — no
  unordered iteration, no unseeded randomness, no wall-clock reads;
* the protocol layer talks to the world only through the
  :mod:`repro.runtime` seam, never by importing the simulator engine or
  network directly; the experiment orchestration layer never imports sim
  machinery at all.

Event-loop hygiene and mutable defaults are ruff's and mypy's job
(``ruff.toml``, ``mypy.ini``); the ``slots=True`` layout of the hot-path
classes is pinned by ``tests/lint/test_slots.py``.

Everything here is plain data so tests (and future repositories) can build
narrower or wider configs without touching the checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class SeamRule:
    """One edge class of the layering map: ``scope`` may not import ``forbidden``.

    ``scope`` and every entry of ``forbidden`` are module prefixes
    (``"repro.core"`` covers ``repro.core.node`` and friends).  Modules in
    ``exceptions`` are declared adapters: they sit *on* the seam by design
    (with the justification recorded here, not silently), so imports inside
    them are not findings.  ``TYPE_CHECKING``-gated imports never violate a
    seam rule — type-only references create no runtime coupling.
    """

    scope: str
    forbidden: tuple[str, ...]
    reason: str
    exceptions: tuple[str, ...] = ()


#: The simulator machinery protocol code must reach only through the
#: ``repro.runtime`` seam.  ``repro.sim.messages`` / ``tracing`` /
#: ``synchrony`` / ``process`` / ``gate`` are deliberately *not* listed:
#: envelopes, traces, synchrony models, the ``Process`` base class and the
#: send gate are shared vocabulary used identically by the sim and the live
#: runtime.
SIM_MACHINERY = ("repro.sim.engine", "repro.sim.network")

#: Packages whose code executes inside (or deterministically derives) a
#: simulated trajectory: any nondeterminism here breaks bit-identical runs.
TRAJECTORY_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.pbft",
    "repro.graphs",
    "repro.adversary",
    "repro.crypto",
    "repro.workloads",
    "repro.analysis",
    "repro.baselines",
)

#: Packages where wall-clock reads are forbidden.  Wider than the
#: trajectory set: the experiments layer derives seeds and cell digests, so
#: a clock read there is either operational (heartbeats, lease timing —
#: fine, suppress with a reason) or a reproducibility bug.
CLOCK_PACKAGES = TRAJECTORY_PACKAGES + ("repro.experiments",)

#: Functions whose result is a sanctioned seed for ``random.Random``.
SEED_SOURCES = ("derive_seed",)


def _default_seam_rules() -> tuple[SeamRule, ...]:
    return (
        SeamRule(
            scope="repro.core",
            forbidden=SIM_MACHINERY,
            reason="protocol state machines reach the world only through the repro.runtime seam",
        ),
        SeamRule(
            scope="repro.pbft",
            forbidden=SIM_MACHINERY,
            reason="PBFT replicas are substrate-agnostic; scheduling goes through the Runtime interface",
        ),
        SeamRule(
            scope="repro.adversary",
            forbidden=SIM_MACHINERY,
            reason="faulty-node behaviours and fault schedules are plain data/behaviour; "
            "install_schedule is written against Runtime, and the compiled rules subclass "
            "NetworkRule from the shared repro.sim.gate",
        ),
        SeamRule(
            scope="repro.crypto",
            forbidden=SIM_MACHINERY + ("repro.core", "repro.pbft"),
            reason="the signature layer is base vocabulary with no scheduling or protocol knowledge",
        ),
        SeamRule(
            scope="repro.graphs",
            forbidden=SIM_MACHINERY + ("repro.core", "repro.pbft", "repro.runtime"),
            reason="graph analysis is pure structure: no simulator, protocol or runtime coupling",
        ),
        SeamRule(
            scope="repro.workloads",
            forbidden=SIM_MACHINERY,
            reason="workload builders describe scenarios; they never touch the transport directly",
        ),
        SeamRule(
            scope="repro.analysis",
            forbidden=SIM_MACHINERY,
            reason="analyses consume RunResults; the run driver executes through "
            "Runtime.run and never reaches the engine or network behind it",
        ),
        SeamRule(
            scope="repro.experiments",
            forbidden=SIM_MACHINERY + ("repro.sim.process",),
            reason="the orchestration layer schedules cells, not messages: sim internals stay behind the harness",
        ),
        SeamRule(
            scope="repro.baselines",
            forbidden=SIM_MACHINERY,
            reason="baseline protocols should run on the Runtime seam like the main stack",
        ),
        SeamRule(
            scope="repro.runtime",
            forbidden=("repro.experiments",),
            reason="a live run loads the runtime, not the sweep orchestrator: the frame format "
            "both use is repro.runtime.framing",
        ),
        # The reverse direction: the simulator must not know about the
        # protocol stack built on top of it.
        SeamRule(
            scope="repro.sim",
            forbidden=(
                "repro.core",
                "repro.pbft",
                "repro.adversary",
                "repro.analysis",
                "repro.experiments",
                "repro.runtime",
                "repro.workloads",
                "repro.baselines",
            ),
            reason="the engine is a substrate: upward imports would make the layering circular",
        ),
    )


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Scopes and maps consumed by the checker families."""

    trajectory_packages: tuple[str, ...] = TRAJECTORY_PACKAGES
    clock_packages: tuple[str, ...] = CLOCK_PACKAGES
    seam_rules: tuple[SeamRule, ...] = field(default_factory=_default_seam_rules)
    seed_sources: tuple[str, ...] = SEED_SOURCES

    def in_trajectory_scope(self, module: str) -> bool:
        return _in_scope(module, self.trajectory_packages)

    def in_clock_scope(self, module: str) -> bool:
        return _in_scope(module, self.clock_packages)


def _in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


DEFAULT_CONFIG = LintConfig()

__all__ = [
    "CLOCK_PACKAGES",
    "DEFAULT_CONFIG",
    "LintConfig",
    "SIM_MACHINERY",
    "SEED_SOURCES",
    "SeamRule",
    "TRAJECTORY_PACKAGES",
]
