"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import multiprocessing
import signal
import sys

import pytest

from repro.graphs.search_memo import sink_search_memo
from repro.graphs.figures import paper_figures
from repro.graphs.knowledge_graph import KnowledgeGraph


#: Wall-clock seconds one test may run before it is failed as hung.
HANG_LIMIT_SECONDS = 120


class HangTimeout(Exception):
    """A test ran past :data:`HANG_LIMIT_SECONDS` (``signal.alarm`` fired)."""


@pytest.fixture(autouse=True)
def _fail_hung_tests():
    """Turn a hung test into a failure instead of a stalled run.

    On expiry every thread's stack goes to stderr, every ``multiprocessing``
    child is killed (a stuck worker keeps its parent waiting), and the test
    fails with :class:`HangTimeout`.
    """
    limit = HANG_LIMIT_SECONDS

    def on_alarm(signum: int, frame: object) -> None:
        del signum, frame
        print(f"test exceeded {limit}s; stacks follow", file=sys.stderr, flush=True)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
        raise HangTimeout(f"test exceeded {limit}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _fresh_sink_search_memo():
    """Isolate tests from the process-local sink-search memo.

    The memo is deliberately process-global (sweep workers share it across
    runs), but tests asserting search counts must not observe hits produced
    by earlier tests.
    """
    sink_search_memo().clear()
    yield


@pytest.fixture(scope="session")
def figures():
    """All paper-figure reconstructions, keyed by name."""
    return paper_figures()


@pytest.fixture
def triangle() -> KnowledgeGraph:
    """A strongly connected triangle (complete digraph on 3 nodes)."""
    return KnowledgeGraph({1: [2, 3], 2: [1, 3], 3: [1, 2]})


@pytest.fixture
def chain() -> KnowledgeGraph:
    """A directed chain 1 -> 2 -> 3 -> 4."""
    return KnowledgeGraph({1: [2], 2: [3], 3: [4], 4: []})


@pytest.fixture
def two_sinks() -> KnowledgeGraph:
    """Two disjoint 2-cycles: the condensation has two sink components."""
    return KnowledgeGraph({1: [2], 2: [1], 3: [4], 4: [3]})
