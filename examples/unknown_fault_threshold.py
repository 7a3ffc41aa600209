"""From impossibility to possibility: why the extended k-OSR graphs are needed.

This example walks through the paper's core storyline:

1. **Theorem 7 (impossibility).**  On the Fig. 2 construction -- two cliques
   joined by a bridge, a graph that satisfies the BFT-CUP requirements --
   running consensus *without* knowing the fault threshold lets the two
   cliques decide different values.
2. **The BFT-CUPFT fix.**  On the Fig. 4 graphs (extended k-OSR: a unique
   strongest sink, the core), the same protocol solves consensus even though
   no process knows the fault threshold, tolerating a Byzantine core member.
3. **Fault-threshold estimation.**  The core members derive the fault
   threshold estimate ``f_Gdi`` from the core's connectivity; the example
   prints it next to the true number of Byzantine processes.

Run with::

    python examples/unknown_fault_threshold.py
"""

from repro.analysis import run_consensus
from repro.analysis.impossibility import describe, run_impossibility_experiment
from repro.core import ProtocolMode
from repro.graphs.figures import figure_4a, figure_4b
from repro.workloads import graph_run_config


def impossibility() -> None:
    print("=== 1. Unknown fault threshold on a plain BFT-CUP graph (Fig. 2) ===\n")
    outcome = run_impossibility_experiment()
    print(describe(outcome))
    print()


def cupft_possibility() -> None:
    print("=== 2. Unknown fault threshold on extended k-OSR graphs (Fig. 4) ===\n")
    for scenario, behaviour in ((figure_4a(), "silent"), (figure_4b(), "lying_pd")):
        config = graph_run_config(scenario, mode=ProtocolMode.BFT_CUPFT, behaviour=behaviour)
        result = run_consensus(config)
        cores = {tuple(sorted(members)) for members in result.identified.values()}
        estimates = {
            process: estimate
            for process, estimate in result.estimated_fault_thresholds.items()
            if estimate is not None
        }
        print(f"{scenario.name}: Byzantine {sorted(scenario.faulty)} behaving as {behaviour!r}")
        print(f"  core returned by every correct process: {cores}")
        print(f"  fault-threshold estimates f_Gdi:        {sorted(set(estimates.values()))} "
              f"(true number of Byzantine processes: {len(scenario.faulty)})")
        print(f"  decided values:                         {set(result.decisions.values())}")
        print(f"  consensus solved: {result.consensus_solved} "
              f"(agreement={result.agreement}, termination={result.termination})\n")


def main() -> None:
    impossibility()
    cupft_possibility()


if __name__ == "__main__":
    main()
