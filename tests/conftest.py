"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graphs.search_memo import sink_search_memo
from repro.graphs.figures import paper_figures
from repro.graphs.knowledge_graph import KnowledgeGraph


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
