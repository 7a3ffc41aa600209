"""The content-addressable result lake: a digest-keyed cross-sweep cell cache.

Every scenario cell already has a stable identity
(:meth:`~repro.experiments.scenario.Scenario.cell_digest`), but historically
each sweep recomputed every cell and ``BENCH_*.json`` trajectory history
died with each commit.  A :class:`ResultStore` fixes both with a git-like
object store:

* **Loose objects** — each outcome payload is canonical JSON stored under
  ``objects/<aa>/<hex38>``, named by the SHA-256 of its bytes.  Content
  addressing makes writes idempotent and corruption self-evident: an object
  whose bytes no longer hash to its name is quarantined and treated as a
  miss, so a bit-flipped cache entry re-executes instead of poisoning a
  sweep.
* **An index** — ``index.jsonl`` maps a *result key* to an object hash,
  append-only with last-writer-wins, so re-recording a cell never rewrites
  history in place.
* **Pack files** — :meth:`pack` folds loose objects into JSONL packs
  (``packs/pack-*.pack``) to keep the object directory small; reads consult
  loose objects first, then packs.  A truncated pack tail (crash mid-write)
  only loses the partial line.
* **GC** — :meth:`gc` compacts the index, drops objects no index or history
  entry references, and repacks; :meth:`verify` checks every object and
  reference so a lake can be trusted after years of appends.
* **Trajectory history** — ``history.jsonl`` appends per-commit benchmark
  summaries (stored as ordinary objects), which is what
  ``scripts/bench_trends.py`` diffs and plots across commits.

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
import warnings
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

#: Attribute carrying an executor's declared cache identity.
EXECUTOR_DIGEST_ATTR = "executor_digest"


def canonical_json(payload: Any) -> str:
    """The canonical (sorted, compact) JSON encoding used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def object_hash(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


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

    The single owner of the payload shape: the coordinator and the queue
    workers both store through it, so the same cell stored from either side
    is content-identical and shares one object.  Failures are never stored
    (``error`` is always ``None``), which is what makes a re-run retry them.
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
        packs/pack-*.pack      packed objects: one {"hash", "object"} per line
        index.jsonl            result key -> object hash (append-only)
        history.jsonl          per-commit benchmark snapshots -> object hash

    The store is deliberately forgiving on read (corrupt lines and objects
    degrade to misses with a warning) and strict on write (appends are
    flushed and fsynced), mirroring the outcome journal's crash semantics.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.packs_dir = self.root / "packs"
        self.index_path = self.root / "index.jsonl"
        self.history_path = self.root / "history.jsonl"
        self._index: dict[str, str] | None = None
        self._packed: dict[str, Any] | None = None

    # Objects ---------------------------------------------------------------
    def _object_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / digest[2:]

    def _write_object(self, digest: str, text: str) -> None:
        path = self._object_path(digest)
        if path.exists():
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.parent / f".{digest[2:]}.tmp"
        staging.write_text(text, encoding="utf-8")
        staging.replace(path)

    def _load_loose(self, digest: str) -> Any | None:
        """Read one loose object, quarantining it when its content lies."""
        path = self._object_path(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            warnings.warn(f"{path}: unreadable lake object ({error})", stacklevel=3)
            return None
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            # The object's bytes no longer hash to its name: quarantine it so
            # the re-executed outcome can be stored again under this hash.
            warnings.warn(
                f"{path}: lake object is corrupt (content hash mismatch); "
                "dropping it and treating the lookup as a miss",
                stacklevel=3,
            )
            path.unlink(missing_ok=True)
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            warnings.warn(
                f"{path}: lake object is not valid JSON; dropping it", stacklevel=3
            )
            path.unlink(missing_ok=True)
            return None

    def _pack_index(self) -> dict[str, Any]:
        """Objects reachable through pack files, loaded once per instance."""
        if self._packed is None:
            packed: dict[str, Any] = {}
            for pack in sorted(self.packs_dir.glob("*.pack")):
                for entry in _read_pack_lines(pack):
                    packed[entry["hash"]] = entry["object"]
            self._packed = packed
        return self._packed

    def load_object(self, digest: str) -> Any | None:
        """Load one object by hash: loose first, then the packs."""
        payload = self._load_loose(digest)
        if payload is not None:
            return payload
        packed = self._pack_index()
        if digest in packed:
            payload = packed[digest]
            if object_hash(payload) != digest:
                warnings.warn(
                    f"lake pack entry {digest} is corrupt (content hash mismatch); "
                    "treating the lookup as a miss",
                    stacklevel=2,
                )
                return None
            return payload
        return None

    # Index -----------------------------------------------------------------
    def _load_index(self) -> dict[str, str]:
        if self._index is None:
            self._index = dict(_read_keyed_lines(self.index_path, "key", "object"))
        return self._index

    def refresh(self) -> None:
        """Drop cached index/pack state (another process may have appended)."""
        self._index = None
        self._packed = None

    def __len__(self) -> int:
        return len(self._load_index())

    def __contains__(self, key: str) -> bool:
        return key in self._load_index()

    def keys(self) -> list[str]:
        return sorted(self._load_index())

    # The core API ----------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The outcome payload stored for ``key``, or ``None`` on a miss.

        Corruption anywhere on the path (index line, loose object, pack
        entry) degrades to a miss: the caller re-executes the cell and the
        fresh :meth:`put` heals the store.
        """
        digest = self._load_index().get(key)
        if digest is None:
            return None
        payload = self.load_object(digest)
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict[str, Any]) -> str | None:
        """Store ``payload`` as the outcome of ``key``; return its object hash.

        Idempotent: re-putting an identical payload writes nothing.  A
        payload that is not JSON-serialisable is refused with a warning
        (``None`` is returned) — the lake only holds exact, replayable
        objects, never ``repr``-degraded ones.
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
        index = self._load_index()
        if index.get(key) == digest:
            if not self._object_path(digest).exists() and digest not in self._pack_index():
                # The object was quarantined as corrupt after this key was
                # indexed: rewrite it without re-appending the index line.
                self._write_object(digest, text)
            return digest
        self._write_object(digest, text)
        self._append_line(self.index_path, {"key": key, "object": digest})
        index[key] = digest
        return digest

    # History ---------------------------------------------------------------
    def append_history(
        self, benchmark: str, commit: str, payload: dict[str, Any], **meta: Any
    ) -> str:
        """Record one per-commit benchmark snapshot; return its object hash.

        ``payload`` is stored as an ordinary content-addressed object (so
        identical snapshots share storage) and the history line only carries
        the reference, plus any keyword metadata.
        """
        text = canonical_json(payload)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self._write_object(digest, text)
        record = {"benchmark": benchmark, "commit": commit, "object": digest, **meta}
        self._append_line(self.history_path, record)
        return digest

    def history(
        self, benchmark: str | None = None, *, last: int | None = None
    ) -> list[dict[str, Any]]:
        """History records (oldest first), payloads resolved, optionally tailed."""
        records: list[dict[str, Any]] = []
        for record in _read_jsonl(self.history_path):
            if benchmark is not None and record.get("benchmark") != benchmark:
                continue
            digest = record.get("object")
            payload = self.load_object(digest) if isinstance(digest, str) else None
            if payload is None:
                warnings.warn(
                    f"history entry for commit {record.get('commit')!r} references "
                    f"missing object {str(digest)[:12]}…; skipping it",
                    stacklevel=2,
                )
                continue
            records.append({**record, "payload": payload})
        if last is not None:
            records = records[-last:]
        return records

    # Maintenance -----------------------------------------------------------
    def pack(self) -> int:
        """Fold every loose object into one new pack file; return the count."""
        loose = sorted(self._loose_hashes())
        if not loose:
            return 0
        entries: list[tuple[str, str]] = []
        for digest in loose:
            payload = self._load_loose(digest)
            if payload is None:
                continue  # corrupt loose object already quarantined
            entries.append((digest, canonical_json(payload)))
        if not entries:
            return 0
        self.packs_dir.mkdir(parents=True, exist_ok=True)
        name = hashlib.sha256("\n".join(digest for digest, _ in entries).encode()).hexdigest()
        pack_path = self.packs_dir / f"pack-{name[:16]}.pack"
        staging = self.packs_dir / f".{pack_path.name}.tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            for digest, text in entries:
                handle.write(json.dumps({"hash": digest, "object": json.loads(text)}) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        staging.replace(pack_path)
        for digest, _text in entries:
            self._object_path(digest).unlink(missing_ok=True)
        self._packed = None
        return len(entries)

    def gc(self) -> dict[str, int]:
        """Compact the index, drop unreferenced objects, rewrite the packs.

        Retention rule: an object survives iff the *compacted* index (latest
        record per key) or any history entry references it.  Superseded
        outcomes — keys that were re-recorded — are the garbage this
        collects.
        """
        index = dict(_read_keyed_lines(self.index_path, "key", "object"))
        referenced = set(index.values())
        for record in _read_jsonl(self.history_path):
            if isinstance(record.get("object"), str):
                referenced.add(record["object"])

        dropped = 0
        for digest in sorted(self._loose_hashes()):
            if digest not in referenced:
                self._object_path(digest).unlink(missing_ok=True)
                dropped += 1
        for pack in sorted(self.packs_dir.glob("*.pack")):
            survivors = []
            entries = list(_read_pack_lines(pack))
            for entry in entries:
                if entry["hash"] in referenced:
                    survivors.append(entry)
                else:
                    dropped += 1
            if len(survivors) == len(entries):
                continue
            if not survivors:
                pack.unlink(missing_ok=True)
                continue
            staging = pack.parent / f".{pack.name}.tmp"
            with open(staging, "w", encoding="utf-8") as handle:
                for entry in survivors:
                    handle.write(json.dumps(entry) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            staging.replace(pack)

        # Rewrite the index compacted (order of last occurrence preserved).
        staging = self.root / ".index.jsonl.tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            for key, digest in index.items():
                handle.write(json.dumps({"key": key, "object": digest}) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        staging.replace(self.index_path)
        self._index = index
        self._packed = None
        return {
            "keys": len(index),
            "objects_kept": len(referenced),
            "objects_dropped": dropped,
        }

    def verify(self) -> list[str]:
        """Integrity-check every object and reference; return the problems."""
        problems: list[str] = []
        loose: set[str] = set()
        for digest in sorted(self._loose_hashes()):
            path = self._object_path(digest)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as error:
                problems.append(f"object {digest}: unreadable ({error})")
                continue
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                problems.append(f"object {digest}: content hash mismatch")
                continue
            loose.add(digest)
        packed: set[str] = set()
        for pack in sorted(self.packs_dir.glob("*.pack")):
            for entry in _read_pack_lines(pack):
                if object_hash(entry["object"]) != entry["hash"]:
                    problems.append(f"{pack.name}: entry {entry['hash']} content hash mismatch")
                else:
                    packed.add(entry["hash"])
        available = loose | packed
        for key, digest in _read_keyed_lines(self.index_path, "key", "object"):
            if digest not in available:
                problems.append(f"index key {key[:12]}…: missing object {digest[:12]}…")
        for record in _read_jsonl(self.history_path):
            digest = record.get("object")
            if not isinstance(digest, str) or digest not in available:
                problems.append(
                    f"history commit {record.get('commit')!r}: missing object "
                    f"{str(digest)[:12]}…"
                )
        return problems

    # Internals -------------------------------------------------------------
    def _loose_hashes(self) -> Iterator[str]:
        if not self.objects_dir.is_dir():
            return
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for path in sorted(shard.iterdir()):
                if not path.name.startswith("."):
                    yield shard.name + path.name

    def _append_line(self, path: Path, record: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())


# ---------------------------------------------------------------------------
# Forgiving JSONL readers (shared by index, history and packs)
# ---------------------------------------------------------------------------
def _read_jsonl(path: Path) -> Iterator[dict[str, Any]]:
    """Parse a JSONL file, skipping corrupt lines (crash-truncated tails)."""
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
            if isinstance(record, dict):
                yield record


def _read_keyed_lines(path: Path, key_field: str, value_field: str) -> Iterator[tuple[str, str]]:
    for record in _read_jsonl(path):
        key, value = record.get(key_field), record.get(value_field)
        if isinstance(key, str) and isinstance(value, str):
            yield key, value


def _read_pack_lines(path: Path) -> Iterator[dict[str, Any]]:
    for record in _read_jsonl(path):
        if isinstance(record.get("hash"), str) and "object" in record:
            yield record


__all__ = [
    "EXECUTOR_DIGEST_ATTR",
    "ResultStore",
    "canonical_json",
    "executor_digest_of",
    "executor_identity",
    "object_hash",
    "outcome_payload",
    "result_key",
]
