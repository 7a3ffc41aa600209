"""Tests for the execution-backend seam, cell digests and resuming from the lake."""

import json
import os
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.core import ProtocolMode
from repro.core.config import QuorumRule
from repro.experiments import (
    GraphSpec,
    PoolBackend,
    ResultStore,
    Scenario,
    ScenarioMatrix,
    SerialBackend,
    SuiteExecutionError,
    SuiteRunner,
    executor_identity,
)


def small_matrix(replicates: int = 2) -> ScenarioMatrix:
    return ScenarioMatrix(
        name="small",
        graphs=(GraphSpec.figure("fig1b"), GraphSpec.bft_cupft(f=1, non_core_size=2, seed=0)),
        modes=(ProtocolMode.BFT_CUPFT,),
        behaviours=("silent",),
        replicates=replicates,
        base_seed=3,
    )


# Module-level so they are picklable/importable across process boundaries.
def cheap_executor(scenario: Scenario) -> dict:
    return {
        "terminated": True,
        "agreement": True,
        "validity": True,
        "messages": scenario.seed % 1000,
        "latency": float(scenario.label("replicate")) + 1.0,
    }


#: Armed by the crash tests: replicate-1 cells raise while the flag is set.
CRASH = {"armed": False}

#: Names of the cells ``crashy_executor`` ran, in execution order.
EXECUTED: list[str] = []


@executor_identity("1")
def crashy_executor(scenario: Scenario) -> dict:
    EXECUTED.append(scenario.name)
    if CRASH["armed"] and scenario.label("replicate") == 1:
        raise RuntimeError("simulated mid-suite crash")
    return cheap_executor(scenario)


def dying_executor(scenario: Scenario) -> dict:
    """Kill the worker process on one cell (fig1b, replicate 1), as a crash would."""
    if scenario.label("replicate") == 1 and "fig1b" in scenario.label("graph"):
        os._exit(1)
    return cheap_executor(scenario)


#: Environment variable naming the directory ``marking_executor`` writes to.
MARK_DIR = "REPRO_TEST_MARK_DIR"


def marking_executor(scenario: Scenario) -> dict:
    """Leave one file per executed cell; replicate 0 fails, the others take a while."""
    (Path(os.environ[MARK_DIR]) / str(scenario.seed)).touch()
    if scenario.label("replicate") == 0:
        raise RuntimeError("first cell fails")
    time.sleep(0.2)
    return cheap_executor(scenario)


class DroppingBackend:
    """A backend that 'loses' the last cell."""

    name = "dropping"
    processes = 1

    def execute(self, cells, executor):
        for index, scenario in cells[:-1]:
            yield index, executor(scenario), None, 0.0


class TestCellDigest:
    def scenario(self) -> Scenario:
        return Scenario(
            name="digest-cell",
            graph=GraphSpec.bft_cup(f=1, non_sink_size=4, seed=9),
            mode=ProtocolMode.BFT_CUP,
            behaviour="lying_pd",
            seed=17,
            protocol_options=(("quorum_rule", QuorumRule.CLASSIC),),
            labels=(("matrix", "digest"), ("replicate", 0)),
        )

    def test_json_round_trip_preserves_equality(self):
        scenario = self.scenario()
        payload = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(payload) == scenario

    def test_digest_survives_json_round_trip(self):
        scenario = self.scenario()
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt.cell_digest() == scenario.cell_digest()

    def test_digest_distinguishes_cells(self):
        cells = small_matrix(replicates=2).scenarios()
        digests = {scenario.cell_digest() for scenario in cells}
        assert len(digests) == len(cells)

    def test_enum_protocol_options_round_trip(self):
        scenario = self.scenario()
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt.protocol_options == (("quorum_rule", QuorumRule.CLASSIC),)
        assert rebuilt.mode is ProtocolMode.BFT_CUP


class TestBackendSeam:
    def test_serial_backend_matches_default_runner(self):
        cells = small_matrix().scenarios()
        default = SuiteRunner(executor=cheap_executor).run(cells)
        explicit = SuiteRunner(backend=SerialBackend(), executor=cheap_executor).run(cells)
        assert default.summaries() == explicit.summaries()
        assert explicit.backend == "serial"

    def test_pool_backend_matches_serial(self):
        cells = small_matrix().scenarios()
        serial = SuiteRunner(executor=cheap_executor).run(cells)
        pooled = SuiteRunner(backend=PoolBackend(2), executor=cheap_executor).run(cells)
        assert serial.summaries() == pooled.summaries()
        assert pooled.backend == "pool"
        assert pooled.processes == 2

    def test_pool_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            PoolBackend(0)

    def test_dropped_cells_are_recorded_not_truncated(self):
        # A backend that ends short is an error naming the first missing
        # cell, never a partial suite.
        cells = small_matrix(replicates=1).scenarios()
        runner = SuiteRunner(backend=DroppingBackend(), executor=cheap_executor)
        with pytest.raises(RuntimeError, match="'dropping' finished without an outcome") as raised:
            runner.run(cells)
        assert repr(cells[-1].name) in str(raised.value)

    def test_dead_pool_worker_raises_instead_of_hanging(self):
        cells = small_matrix(replicates=3).scenarios()
        assert len(cells) == 6
        started = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            SuiteRunner(backend=PoolBackend(2), executor=dying_executor).run(cells)
        assert time.monotonic() - started < 5.0

    def test_pool_fail_fast_cancels_unstarted_cells(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MARK_DIR, str(tmp_path))
        cells = small_matrix(replicates=6).scenarios()
        runner = SuiteRunner(backend=PoolBackend(2), executor=marking_executor, fail_fast=True)
        with pytest.raises(SuiteExecutionError, match="first cell fails"):
            runner.run(cells)
        executed = len(list(tmp_path.iterdir()))
        assert 1 <= executed < len(cells)


class TestResume:
    """The result lake is the checkpoint: re-running with the same ``store=`` resumes."""

    def test_checkpoint_then_resume_skips_every_cell(self, tmp_path):
        cells = small_matrix().scenarios()
        first = SuiteRunner(executor=crashy_executor).run(cells, store=ResultStore(tmp_path / "lake"))
        assert (first.cache_hits, first.cache_misses) == (0, len(cells))
        # Second run: the executor must never fire; everything is stitched.
        EXECUTED.clear()
        second = SuiteRunner(executor=crashy_executor).run(cells, store=ResultStore(tmp_path / "lake"))
        assert EXECUTED == []
        assert (second.cache_hits, second.cache_misses) == (len(cells), 0)
        assert second.summaries() == first.summaries()
        assert [o.scenario for o in second] == [o.scenario for o in first]
        assert "resumed" not in second.to_dict()

    def test_resume_accepts_a_path(self, tmp_path):
        cells = small_matrix(replicates=1).scenarios()
        SuiteRunner(executor=crashy_executor).run(cells, store=str(tmp_path / "lake"))
        resumed = SuiteRunner(executor=crashy_executor).run(cells, store=str(tmp_path / "lake"))
        assert resumed.cache_hits == len(cells)

    def test_mid_suite_crash_resumes_to_identical_result(self, tmp_path):
        """The acceptance bar: killed mid-run + re-run == uninterrupted serial."""
        cells = small_matrix(replicates=2).scenarios()
        baseline = SuiteRunner(executor=crashy_executor).run(cells)

        lake = tmp_path / "lake"
        CRASH["armed"] = True
        try:
            with pytest.raises(SuiteExecutionError, match="simulated mid-suite crash"):
                SuiteRunner(executor=crashy_executor, fail_fast=True).run(cells, store=str(lake))
        finally:
            CRASH["armed"] = False
        checkpointed = len(ResultStore(lake))
        assert 0 < checkpointed < len(cells)

        EXECUTED.clear()
        resumed = SuiteRunner(executor=crashy_executor).run(cells, store=str(lake))
        assert resumed.cache_hits == checkpointed
        assert len(EXECUTED) == len(cells) - checkpointed
        assert resumed.summaries() == baseline.summaries()
        assert [o.scenario for o in resumed] == [o.scenario for o in baseline]

    def test_resume_retries_failed_cells(self, tmp_path):
        # Failures are never stored: the cells run again, so a transient
        # failure heals on the re-run.
        cells = small_matrix(replicates=2).scenarios()
        baseline = SuiteRunner(executor=cheap_executor).run(cells)
        CRASH["armed"] = True
        try:
            failed = SuiteRunner(executor=crashy_executor).run(cells, store=str(tmp_path / "lake"))
        finally:
            CRASH["armed"] = False
        assert len(failed.errors) == 2
        healed = SuiteRunner(executor=crashy_executor).run(cells, store=str(tmp_path / "lake"))
        assert healed.cache_hits == len(cells) - 2
        assert not healed.errors
        assert healed.summaries() == baseline.summaries()

    def test_real_simulation_resume_is_byte_identical(self, tmp_path):
        """Default executor: interrupted + re-run == uninterrupted, wall times included."""
        cells = small_matrix(replicates=1).scenarios()
        uninterrupted = SuiteRunner().run(cells)
        # "Crash" after the first cell by only running a prefix of the suite.
        first = SuiteRunner().run(cells[:1], store=str(tmp_path / "lake"))
        resumed = SuiteRunner().run(cells, store=str(tmp_path / "lake"))
        assert resumed.cache_hits == 1
        assert resumed.summaries() == uninterrupted.summaries()
        assert resumed.outcomes[0].wall_time == first.outcomes[0].wall_time
        # A second re-run is served entirely from the lake: byte-identical.
        again = SuiteRunner().run(cells, store=str(tmp_path / "lake"))
        assert [o.to_dict() for o in again] == [o.to_dict() for o in resumed]
