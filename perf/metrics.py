"""Turn repetitions and span totals into the metrics BENCHMARK.json declares.

``BENCHMARK.json`` is the single list of metric names and units; this module
computes a value for each name and :func:`render` refuses to print when the
two disagree, so the declared and the printed metrics cannot drift apart.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

from perf.trace import SpanTotals, layer_of
from perf.workloads import Repetition, SweepBackends

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: The layers whose self time is the sink/core analysis (``graphs.*`` share).
GRAPH_SEARCH_LAYERS = ("graphs", "graphs.sink_search", "graphs.connectivity", "graphs.components")

#: Passes whose first outcome comes from an execution backend, not the lake.
BACKEND_PASSES = tuple(name for name in SweepBackends.PASSES if not name.startswith("lake"))


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; with under ten samples the 90th is the maximum."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(setup_times: Sequence[float], repetitions: Sequence[Repetition]) -> dict[str, float]:
    """The user-visible numbers: medians over repetitions, percentiles over pooled operations."""
    operations = [sample for rep in repetitions for sample in rep.ops_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(rep.run_s for rep in repetitions),
        "work_per_s": statistics.median(rep.work_per_s for rep in repetitions),
        "op_p50_ms": percentile(operations, 0.5) if operations else float("nan"),
        "op_p90_ms": percentile(operations, 0.9) if operations else float("nan"),
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    totals: Mapping[str, SpanTotals],
    counters: Mapping[str, float],
    rep: Repetition,
    untraced_run_s: float,
) -> dict[str, float]:
    """Per-layer numbers of one traced repetition.

    ``*_self_s`` sums the self time of a layer's spans; counts come from the
    same span boundaries or from the program's public counters (carried in
    ``rep.detail`` / ``rep.counts``).  A layer the workload bypasses reads 0.
    """

    def span(name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    def layer_self(*layers: str) -> float:
        return sum(entry.self_s for name, entry in totals.items() if layer_of(name) in layers)

    detail = rep.detail
    counts = rep.counts
    absorb = span("core.discovery:absorb")
    locate = span("graphs:locate")
    lake_get = span("experiments.lake:get")
    frames_read = span("experiments.transport:read_frame")
    frames_written = span("experiments.transport:write_frame")
    searches = counts.get("sink_searches", 0)
    skips = detail.get("search_skips", 0)
    memo_lookups = detail.get("memo_hits", 0) + detail.get("memo_misses", 0)
    verify_calls = counts.get("verify_calls", 0) or detail.get("verify_calls", 0)
    metrics = {
        "sim.engine.self_s": layer_self("sim.engine"),
        "sim.engine.events": counts.get("events", 0),
        "sim.engine.pending_peak": detail.get("pending_peak", 0),
        "sim.engine.compactions": detail.get("compactions", 0),
        "sim.network.self_s": layer_self("sim.network"),
        "sim.network.sends": span("sim.network:send").count,
        "core.node.self_s": layer_self("core.node"),
        "core.node.receives": span("core.node:receive").count,
        "core.discovery.self_s": layer_self("core.discovery"),
        "core.discovery.absorbs": absorb.count,
        "core.discovery.useful_absorb_ratio": _ratio(absorb.tally, absorb.count),
        "core.locators.locates": locate.count,
        "core.locators.searches": searches,
        "core.locators.skip_ratio": _ratio(skips, skips + searches),
        "graphs.self_s": layer_self(*GRAPH_SEARCH_LAYERS),
        # Against the repetition's wall time, not the sum of self times: queue
        # server threads record spans of their own beside the main thread's.
        "graphs.share_of_run": _ratio(layer_self(*GRAPH_SEARCH_LAYERS), rep.run_s),
        "graphs.sink_search.calls": span("graphs.sink_search:find").count,
        "graphs.connectivity.self_s": layer_self("graphs.connectivity"),
        "graphs.connectivity.calls": span("graphs.connectivity:is_k_strongly_connected").count,
        "graphs.components.scc_runs": span("graphs.components:scc").count,
        "graphs.search_memo.hit_ratio": _ratio(detail.get("memo_hits", 0), memo_lookups),
        "graphs.search_memo.evictions": detail.get("memo_evictions", 0),
        "crypto.self_s": layer_self("crypto"),
        "crypto.signs": span("crypto:sign").count,
        "crypto.verify_calls": verify_calls,
        "crypto.verify_cache_hit_ratio": _ratio(detail.get("verify_cache_hits", 0), verify_calls),
        "crypto.canonical_cache_hits": detail.get("canonical_cache_hits", 0),
        "pbft.self_s": layer_self("pbft"),
        "pbft.messages_handled": span("pbft:handle").count,
        "pbft.view_change_msgs": span("pbft:handle_view_change").count
        + span("pbft:handle_new_view").count,
        "analysis.harness.build_s": span("analysis.harness:build").self_s,
        "analysis.harness.collect_s": span("analysis.harness:collect").self_s,
        "workloads.builders.config_s": span("workloads.builders:config").self_s,
        "graphs.generators.build_s": span("graphs.generators:build").self_s,
        "experiments.scenario.digest_s": span("experiments.scenario:digest").self_s,
        "experiments.runner.self_s": layer_self("experiments.runner"),
        "experiments.transport.frames": frames_written.count + frames_read.tally,
        "experiments.transport.bytes": counters.get("experiments.transport.bytes", 0),
        "experiments.transport.write_s": frames_written.self_s,
        # Server threads block in read_frame until the worker's next request,
        # so this is mostly waiting, not transfer.
        "experiments.transport.read_wait_s": frames_read.self_s,
        "experiments.lake.put_s": span("experiments.lake:put").self_s,
        "experiments.lake.get_s": lake_get.self_s,
        "experiments.lake.hit_ratio": _ratio(lake_get.tally, lake_get.count),
        "runtime.codec.encode_s": span("runtime.codec:encode").self_s,
        "runtime.codec.decode_s": span("runtime.codec:decode").self_s,
        "runtime.codec.frames": span("runtime.codec:encode").count,
        "runtime.asyncio.send_self_s": layer_self("runtime.asyncio"),
        "runtime.asyncio.msgs_sent": detail.get("live_sent", 0),
        "runtime.asyncio.msgs_lost": detail.get("live_lost", 0),
        "runtime.asyncio.reconnects": detail.get("live_reconnects", 0),
        "runtime.asyncio.timer_fires": detail.get("live_timer_fires", 0),
        "runtime.asyncio.cpu_us_per_msg": detail.get("cpu_us_per_msg", 0),
        "trace.run_s": rep.run_s,
        "trace.overhead_ratio": _ratio(rep.run_s, untraced_run_s),
        "trace.spans": sum(entry.count for entry in totals.values()),
    }
    for pass_name in SweepBackends.PASSES:
        pass_s = detail.get(f"pass_s.{pass_name}", 0.0)
        cells = rep.attempted / len(SweepBackends.PASSES)
        metrics[f"experiments.backends.cells_per_s.{pass_name}"] = _ratio(cells, pass_s)
        metrics[f"experiments.runner.overhead_ms_per_cell.{pass_name}"] = detail.get(
            f"overhead_ms_per_cell.{pass_name}", 0.0
        )
    for pass_name in BACKEND_PASSES:
        metrics[f"experiments.backends.first_outcome_s.{pass_name}"] = detail.get(
            f"first_outcome_s.{pass_name}", 0.0
        )
    return metrics


def median_of(rows: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Metric-wise median over the traced repetitions."""
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def render(values: Mapping[str, float], declared: Sequence[Mapping[str, Any]]) -> dict[str, dict[str, Any]]:
    """Attach the declared units; the names must match the declaration exactly."""
    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise SystemExit(f"perf: metrics out of step with BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in declared}
