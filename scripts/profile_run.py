"""Profile one consensus run and gate the graph-analysis share of its time.

Runs a single BFT-CUP execution on a generated extended k-OSR graph (or,
with ``--mode bft-cupft``, a BFT-CUPFT execution whose nodes run the core
search instead of the sink search) under ``cProfile`` and prints the top
functions by internal time.  The script also
computes which fraction of the run's total internal time was spent in the
graph-analysis layer (``repro/graphs/`` plus the discovery/locator modules
of ``repro/core/``): with the incremental sink/core analysis this share must
stay small, because locators skip unchanged views, reuse witnesses and
replay memoised sub-searches instead of re-deriving the sink from scratch
on every discovery message.

``--max-analysis-share`` turns the share into a CI gate: the script exits
non-zero when graph analysis exceeds the pinned fraction of the run's
cumulative internal time, which catches regressions that quietly reintroduce
per-message re-analysis long before they show up as wall-clock drift.

``--max-crypto-share`` gates the signature layer (``repro/crypto/``) the
same way: with the canonical memo and the verified-signature LRU absorbing
repeat verifications, crypto stays a small fraction of the run's internal
time, and a regression that bypasses the caches (or re-encodes hot payloads
per receiver) trips the gate immediately.

Run exactly what CI runs::

    PYTHONPATH=src python scripts/profile_run.py --max-analysis-share 0.35 --max-crypto-share 0.10
    PYTHONPATH=src python scripts/profile_run.py --mode bft-cupft --f 3 --non-sink-size 35 --max-analysis-share 0.60

The second cell leans on the core search on purpose (small dense views,
every ``g`` tried; about 40% analysis, measured 39.3-39.9% over three runs,
since the exhaustive enumeration stays inside one SCC): its gate trips once
the analysis time of that cell more than doubles (0.40 -> 0.80 / 1.40 =
0.57), e.g. when the search walks subsets that span components again or
falls back to recounting in-neighbours per ``g``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.harness import run_consensus  # noqa: E402
from repro.core.config import ProtocolMode  # noqa: E402
from repro.experiments.scenario import GraphSpec, Scenario, SynchronySpec  # noqa: E402
from repro.workloads.builders import scenario_run_config  # noqa: E402

#: Path fragments that count as "graph analysis" when attributing profile
#: time: the graph predicates/search algorithms and the view/locator layer
#: that drives them.
ANALYSIS_PATH_MARKERS = (
    "repro/graphs/",
    "repro/core/discovery.py",
    "repro/core/locators.py",
)

#: Path fragments that count as "crypto" — canonical encoding, signing,
#: verification and aggregation all live under this package.
CRYPTO_PATH_MARKERS = ("repro/crypto/",)


def profile_run(
    *, mode: ProtocolMode, f: int, non_sink_size: int, synchrony: str, seed: int
) -> tuple[pstats.Stats, bool]:
    """Execute one profiled consensus run; returns the stats and solved flag."""
    if mode is ProtocolMode.BFT_CUPFT:
        spec = GraphSpec.bft_cupft(f=f, non_core_size=non_sink_size, seed=7)
    else:
        spec = GraphSpec.bft_cup(
            f=f, non_sink_size=non_sink_size, extra_edge_probability=0.0, seed=7
        )
    scenario = Scenario(
        name=f"profile-{mode.value}-{non_sink_size}",
        graph=spec,
        mode=mode,
        synchrony=(
            SynchronySpec.synchronous()
            if synchrony == "synchronous"
            else SynchronySpec(kind="partial")
        ),
        seed=seed,
    )
    config = scenario_run_config(scenario)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_consensus(config)
    profiler.disable()
    return pstats.Stats(profiler), result.consensus_solved


def layer_share(stats: pstats.Stats, markers: tuple[str, ...]) -> tuple[float, float, float]:
    """Return ``(share, layer_time, total_time)`` over internal time.

    Internal (per-function ``tottime``) attribution sums to the run's total
    time exactly once, so the share is well defined; cumulative time would
    double-count callers and callees.
    """
    total = 0.0
    layer = 0.0
    for (filename, _lineno, _name), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        total += tottime
        normalised = filename.replace("\\", "/")
        if any(marker in normalised for marker in markers):
            layer += tottime
    return (layer / total if total else 0.0), layer, total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        choices=[ProtocolMode.BFT_CUP.value, ProtocolMode.BFT_CUPFT.value],
        default=ProtocolMode.BFT_CUP.value,
        help="protocol to profile: bft-cup runs the sink search, bft-cupft the core search",
    )
    parser.add_argument("--f", type=int, default=1, help="fault threshold of the generated graph")
    parser.add_argument(
        "--non-sink-size",
        type=int,
        default=196,
        help="correct non-sink (bft-cup) or non-core (bft-cupft) layer size of the generated graph",
    )
    parser.add_argument(
        "--synchrony",
        choices=("synchronous", "partial"),
        default="partial",
        help="synchrony model of the profiled run (default: partial)",
    )
    parser.add_argument("--seed", type=int, default=1, help="run seed")
    parser.add_argument(
        "--top", type=int, default=15, help="number of top functions to print"
    )
    parser.add_argument(
        "--max-analysis-share",
        type=float,
        default=None,
        help=(
            "fail (exit 1) when the graph-analysis layer exceeds this "
            "fraction of the run's total internal time"
        ),
    )
    parser.add_argument(
        "--max-crypto-share",
        type=float,
        default=None,
        help=(
            "fail (exit 1) when the crypto layer (repro/crypto/) exceeds "
            "this fraction of the run's total internal time"
        ),
    )
    args = parser.parse_args(argv)

    stats, solved = profile_run(
        mode=ProtocolMode(args.mode),
        f=args.f,
        non_sink_size=args.non_sink_size,
        synchrony=args.synchrony,
        seed=args.seed,
    )
    stats.sort_stats("tottime").print_stats(args.top)
    share, analysis, total = layer_share(stats, ANALYSIS_PATH_MARKERS)
    crypto_share, crypto, _ = layer_share(stats, CRYPTO_PATH_MARKERS)
    print(
        f"graph-analysis share: {share:.1%} "
        f"({analysis:.3f}s of {total:.3f}s internal time, "
        f"{args.mode}, f={args.f}, size={args.non_sink_size}, {args.synchrony}, solved={solved})"
    )
    print(f"crypto share: {crypto_share:.1%} ({crypto:.3f}s of {total:.3f}s internal time)")
    if not solved:
        print("FAIL: the profiled run did not solve consensus", file=sys.stderr)
        return 1
    if args.max_analysis_share is not None and share > args.max_analysis_share:
        print(
            f"FAIL: graph analysis used {share:.1%} of the run's internal time "
            f"(gate: {args.max_analysis_share:.1%}); the incremental analysis "
            "layer is being bypassed somewhere",
            file=sys.stderr,
        )
        return 1
    if args.max_crypto_share is not None and crypto_share > args.max_crypto_share:
        print(
            f"FAIL: the crypto layer used {crypto_share:.1%} of the run's internal "
            f"time (gate: {args.max_crypto_share:.1%}); the verification fast "
            "path (canonical memo + verified-signature LRU) is being bypassed "
            "somewhere",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
