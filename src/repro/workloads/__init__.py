"""Workload builders: turn graph scenarios into runnable experiment configs."""

from repro.workloads.builders import (
    core_attached_faulty,
    expected_core_of,
    fault_assignment,
    graph_run_config,
    scenario_run_config,
)

__all__ = [
    "graph_run_config",
    "scenario_run_config",
    "fault_assignment",
    "core_attached_faulty",
    "expected_core_of",
]
