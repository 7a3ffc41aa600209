"""Reproduction of *Knowledge Connectivity Requirements for Solving BFT
Consensus with Unknown Participants and Fault Threshold* (ICDCS 2024).

The library implements, on top of a from-scratch discrete-event simulator:

* the knowledge connectivity graph machinery (k-OSR, extended k-OSR, sink
  and core predicates) -- :mod:`repro.graphs`;
* the authenticated BFT-CUP protocol (Discovery, Sink, Consensus;
  Algorithms 1-3) and the BFT-CUPFT protocol (Core algorithm; Algorithm 4)
  -- :mod:`repro.core`;
* the inner PBFT-style consensus run by sink/core members -- :mod:`repro.pbft`;
* the unauthenticated baseline built on reachable reliable broadcast --
  :mod:`repro.baselines`;
* Byzantine adversary behaviours -- :mod:`repro.adversary`;
* the single-run harness and property checkers -- :mod:`repro.analysis`,
  with scenario-to-config builders in :mod:`repro.workloads`;
* the experiment orchestration layer -- :mod:`repro.experiments`: declarative
  :class:`~repro.experiments.Scenario` cells, cartesian
  :class:`~repro.experiments.ScenarioMatrix` sweeps with deterministic
  per-cell seeding, the :class:`~repro.experiments.SuiteRunner` over
  pluggable execution backends (serial, ``multiprocessing`` pool, or the
  distributed filesystem :class:`~repro.experiments.WorkQueueBackend`
  drained by ``python -m repro.experiments.worker`` processes) with the
  content-addressable :class:`~repro.experiments.ResultStore` as checkpoint,
  and per-group :class:`~repro.experiments.SuiteResult` statistics with
  JSON export.

Quickstart
----------

The canonical workflow declares a scenario matrix and runs it as a suite
(``processes=N`` runs the same suite on a worker pool, with identical
results):

>>> from repro.core import ProtocolMode
>>> from repro.experiments import GraphSpec, ScenarioMatrix, SuiteRunner
>>> matrix = ScenarioMatrix(
...     name="quickstart",
...     graphs=(GraphSpec.figure("fig1b"),),
...     modes=(ProtocolMode.BFT_CUP,),
...     behaviours=("silent",),
...     replicates=2,
... )
>>> suite = SuiteRunner().run(matrix.scenarios())
>>> suite.solved_rate
1.0

Single executions remain available through the lower-level harness:

>>> from repro.graphs.figures import figure_1b
>>> from repro.workloads import figure_run_config
>>> from repro.analysis import run_consensus
>>> result = run_consensus(figure_run_config(figure_1b(), mode=ProtocolMode.BFT_CUP))
>>> result.consensus_solved
True
"""

from repro.analysis import RunConfig, RunResult, run_consensus
from repro.core import ConsensusNode, ProtocolConfig, ProtocolMode
from repro.graphs import KnowledgeGraph

__version__ = "1.1.0"

__all__ = [
    "KnowledgeGraph",
    "ConsensusNode",
    "ProtocolConfig",
    "ProtocolMode",
    "RunConfig",
    "RunResult",
    "run_consensus",
    "__version__",
]
