"""Command-line launcher for the live asyncio runtime.

Run the BFT-CUP/BFT-CUPFT stack over real TCP sockets on localhost::

    python -m repro.runtime.live --figure fig4b
    python -m repro.runtime.live --family bft_cupft --f 1 --layer-size 4 --behaviour crash
    python -m repro.runtime.live --figure fig4b --fidelity

``--fidelity`` runs the same topology under the discrete-event simulator
first and fails (exit code 1) unless the live run decides exactly the same
values, identifies the same sink/core members and satisfies the same
consensus properties.
"""

from __future__ import annotations

import argparse
import sys

from repro.adversary.nodes import BEHAVIOURS
from repro.analysis.harness import RunConfig, RunResult
from repro.core.config import ProtocolMode
from repro.graphs.figures import paper_figures
from repro.graphs.generators import generate_bft_cup_graph, generate_bft_cupft_graph
from repro.runtime.fidelity import check_fidelity
from repro.runtime.harness import run_live_consensus
from repro.workloads.builders import graph_run_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.live",
        description="Run one consensus execution over real asyncio TCP sockets.",
    )
    topology = parser.add_mutually_exclusive_group()
    topology.add_argument(
        "--figure",
        choices=sorted(paper_figures()),
        help="run one of the reconstructed paper figures (default: fig4b)",
    )
    topology.add_argument(
        "--family",
        choices=("bft_cup", "bft_cupft"),
        help="generate a random graph from one of the theorem-satisfying families",
    )
    parser.add_argument("--f", type=int, default=1, help="fault threshold for --family graphs")
    parser.add_argument(
        "--layer-size",
        type=int,
        default=3,
        help="size of the non-sink/non-core layer for --family graphs",
    )
    parser.add_argument("--graph-seed", type=int, default=0, help="seed for --family graphs")
    parser.add_argument(
        "--mode",
        choices=tuple(mode.value for mode in ProtocolMode),
        help="protocol mode (default: bft_cup for figures, bft_cupft for bft_cupft graphs)",
    )
    parser.add_argument(
        "--behaviour",
        default="silent",
        choices=sorted(BEHAVIOURS),
        help="behaviour of the faulty processes (default: silent)",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed (keys and proposals)")
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.02,
        help="wall seconds per protocol time unit (default: 0.02)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind (default: loopback)")
    parser.add_argument(
        "--horizon",
        type=float,
        default=500.0,
        help="protocol-time horizon; the wall-clock cap is horizon * time-scale",
    )
    parser.add_argument(
        "--fidelity",
        action="store_true",
        help="also run the simulator and fail unless live decides the same values",
    )
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    if args.family == "bft_cup":
        scenario = generate_bft_cup_graph(f=args.f, non_sink_size=args.layer_size, seed=args.graph_seed)
    elif args.family == "bft_cupft":
        scenario = generate_bft_cupft_graph(
            f=args.f, non_core_size=args.layer_size, seed=args.graph_seed
        )
    else:
        scenario = paper_figures()[args.figure or "fig4b"]
    default_mode = ProtocolMode.BFT_CUPFT if args.family == "bft_cupft" else ProtocolMode.BFT_CUP
    return graph_run_config(
        scenario,
        mode=ProtocolMode(args.mode) if args.mode else default_mode,
        behaviour=args.behaviour,
        seed=args.seed,
        horizon=args.horizon,
    )


def print_result(result: RunResult) -> None:
    summary = result.summary()
    print(f"runtime: {result.runtime_name}")
    print(
        f"solved: {result.consensus_solved}  "
        f"(agreement={result.agreement} validity={result.validity} "
        f"termination={result.termination})"
    )
    for process in sorted(result.decisions, key=repr):
        decided_at = result.decision_times.get(process)
        print(f"  {process!r} decided {result.decisions[process]!r} at t={decided_at:.2f}")
    for key in sorted(summary):
        if key.startswith("live_"):
            print(f"  {key} = {summary[key]}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = build_config(args)
    if args.fidelity:
        report = check_fidelity(config, time_scale=args.time_scale, host=args.host)
        print_result(report.live)
        print(report.describe())
        if not report.ok:
            print("FIDELITY FAILURE: live diverged from the simulator", file=sys.stderr)
            return 1
        print("fidelity: live matches the simulator")
        return 0
    result = run_live_consensus(config, time_scale=args.time_scale, host=args.host)
    print_result(result)
    return 0 if result.consensus_solved else 1


def _entry() -> None:  # pragma: no cover - exercised via subprocess in CI smoke
    raise SystemExit(main())


if __name__ == "__main__":
    _entry()


__all__: list[str] = ["build_parser", "build_config", "main"]
