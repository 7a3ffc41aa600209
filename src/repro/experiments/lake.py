"""The content-addressable result lake: a digest-keyed cross-sweep cell cache.

Every scenario cell already has a stable identity
(:meth:`~repro.experiments.scenario.Scenario.cell_digest`), but historically
each sweep recomputed every cell.  A :class:`ResultStore` caches each
outcome in a git-like object store:

* **Loose objects** — each outcome payload is canonical JSON stored under
  ``objects/<aa>/<hex38>``, named by the SHA-256 of its bytes.  Content
  addressing makes writes idempotent and corruption self-evident: an object
  whose bytes no longer hash to its name is quarantined and treated as a
  miss, so a bit-flipped cache entry re-executes instead of poisoning a
  sweep, and the re-executed :meth:`~ResultStore.put` heals it.
* **An index** — ``index.jsonl`` maps a *result key* to an object hash,
  append-only with last-writer-wins, so re-recording a cell never rewrites
  history in place.

The lake is a checkpoint, not an archive: benchmark history lives in the
committed ``benchmarks/baselines/`` and ``git log``.

**Cache identity.**  A result key is *not* the bare cell digest: cells run
with a custom ``executor=`` would otherwise collide with the default
executor's results.  :func:`result_key` therefore folds in an explicit
executor digest, declared by decorating the executor with
:func:`executor_identity` (bump the version string whenever the executor's
observable output changes).  Executors without a digest bypass the lake
entirely — :class:`~repro.experiments.runner.SuiteRunner` warns and runs
them uncached, so a hit can never return a result computed by different
code.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

#: Attribute carrying an executor's declared cache identity.
EXECUTOR_DIGEST_ATTR = "executor_digest"


def canonical_json(payload: Any) -> str:
    """The canonical (sorted, compact) JSON encoding used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def executor_identity(version: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Declare an executor's cache identity: ``module:qualname@version``.

    The version string is an explicit opt-in: bumping it invalidates every
    lake entry computed by the previous code, which is exactly what must
    happen when the executor's observable output changes.
    """
    if not version:
        raise ValueError("executor_identity needs a non-empty version string")

    def mark(executor: Callable[..., Any]) -> Callable[..., Any]:
        digest = f"{executor.__module__}:{executor.__qualname__}@{version}"
        setattr(executor, EXECUTOR_DIGEST_ATTR, digest)
        return executor

    return mark


def executor_digest_of(executor: Callable[..., Any]) -> str | None:
    """The executor's declared cache identity, or ``None`` if undeclared."""
    digest = getattr(executor, EXECUTOR_DIGEST_ATTR, None)
    return digest if isinstance(digest, str) and digest else None


def result_key(cell_digest: str, executor_digest: str) -> str:
    """The lake key of one (cell, executor) pair.

    Folding the executor digest into the key is the cache-identity
    guarantee: the same scenario run through two different executors (or two
    versions of one executor) occupies two distinct keys.
    """
    return hashlib.sha256(f"{cell_digest}\n{executor_digest}".encode()).hexdigest()


def outcome_payload(
    scenario_name: str | None,
    summary: dict[str, Any] | None,
    wall_time: float,
) -> dict[str, Any]:
    """The immutable lake object recorded for one successful outcome.

    The single owner of the payload shape, called by the coordinator
    (:class:`~repro.experiments.runner.SuiteRunner`), the lake's only
    writer.  Failures are never stored (``error`` is always ``None``), which
    is what makes a re-run retry them.
    """
    return {
        "scenario": scenario_name,
        "summary": summary,
        "error": None,
        "wall_time": wall_time,
    }


class ResultStore:
    """A content-addressable store of immutable JSON outcome objects.

    Layout (everything under ``root``)::

        objects/<aa>/<hex38>   loose objects: canonical JSON, named by SHA-256
        index.jsonl            result key -> object hash (append-only)

    The store is deliberately forgiving on read (corrupt lines and objects
    degrade to misses with a warning) and strict on write (appends are
    flushed and fsynced), mirroring the outcome journal's crash semantics.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.index_path = self.root / "index.jsonl"
        self._index: dict[str, str] | None = None

    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / digest[2:]

    def _write_object(self, digest: str, text: str) -> None:
        path = self._object_path(digest)
        if path.exists():
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # One staging file per writer: two coordinators sharing a lake (or two
        # threads of one process) may store the same object concurrently.
        staging = path.parent / f".{digest[2:]}.{os.getpid()}.{threading.get_ident()}.tmp"
        staging.write_text(text, encoding="utf-8")
        staging.replace(path)

    def _load_index(self) -> dict[str, str]:
        if self._index is None:
            self._index = dict(_read_index(self.index_path))
        return self._index

    def __len__(self) -> int:
        return len(self._load_index())

    def __contains__(self, key: str) -> bool:
        return key in self._load_index()

    def keys(self) -> list[str]:
        return sorted(self._load_index())

    def get(self, key: str) -> dict[str, Any] | None:
        """The outcome payload stored for ``key``, or ``None`` on a miss.

        Corruption anywhere on the path (index line or object) degrades to a
        miss: a corrupt object is quarantined, the caller re-executes the
        cell and the fresh :meth:`put` heals the store.
        """
        digest = self._load_index().get(key)
        if digest is None:
            return None
        path = self._object_path(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            warnings.warn(f"{path}: unreadable lake object ({error})", stacklevel=2)
            return None
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            warnings.warn(
                f"{path}: lake object is corrupt (content hash mismatch); "
                "dropping it and treating the lookup as a miss",
                stacklevel=2,
            )
            path.unlink(missing_ok=True)
            return None
        payload = json.loads(text)
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict[str, Any]) -> str | None:
        """Store ``payload`` as the outcome of ``key``; return its object hash.

        Idempotent: re-putting an identical payload writes nothing, except
        the object itself when it was quarantined as corrupt.  A payload
        that is not JSON-serialisable is refused with a warning (``None`` is
        returned) — the lake only holds exact, replayable objects, never
        ``repr``-degraded ones.
        """
        try:
            text = canonical_json(payload)
        except (TypeError, ValueError):
            warnings.warn(
                f"lake payload for key {key[:12]}… is not JSON-serialisable; "
                "not storing it (hits must be bit-identical to recomputation)",
                stacklevel=2,
            )
            return None
        digest = hashlib.sha256(text.encode()).hexdigest()
        self._write_object(digest, text)
        index = self._load_index()
        if index.get(key) != digest:
            self.index_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.index_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"key": key, "object": digest}) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            index[key] = digest
        return digest


def _read_index(path: Path) -> Iterator[tuple[str, str]]:
    """Parse the index, skipping corrupt lines (crash-truncated tails)."""
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        return
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                warnings.warn(
                    f"{path}:{line_number}: skipping corrupt lake line "
                    "(truncated write from a crashed run?)",
                    stacklevel=3,
                )
                continue
            if not isinstance(record, dict):
                continue
            key, digest = record.get("key"), record.get("object")
            if isinstance(key, str) and isinstance(digest, str):
                yield key, digest


__all__ = [
    "EXECUTOR_DIGEST_ATTR",
    "ResultStore",
    "canonical_json",
    "executor_digest_of",
    "executor_identity",
    "outcome_payload",
    "result_key",
]
