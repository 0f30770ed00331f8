"""Persistent on-disk result cache keyed by job fingerprint.

The :class:`DiskCache` is the second tier behind a
:class:`~repro.api.session.Session`'s in-memory memo: every fresh
compilation is written through as one JSON file per fingerprint, so a
restarted process (or a second process sharing the cache directory)
re-serves earlier results instead of recompiling.

Layout of a cache directory::

    <root>/
        results/
            <fingerprint>.json

The cache is content-addressed: the payload file is the only record of
an entry.  A write goes to a same-directory temp file, and its
``os.replace`` onto ``<fingerprint>.json`` is the commit, so a crashed
or killed writer can never leave a half-written payload under a live
fingerprint, and processes sharing one directory need no coordination
beyond that rename.  A payload is a live entry exactly when it
validates: it parses, carries ``version == CACHE_VERSION``, and its
``fingerprint`` equals its file stem.  Reads are corruption-tolerant: a
payload that fails to read, decode, parse or validate counts as a miss
(recorded in :meth:`DiskCache.stats`), after which the session simply
recompiles and rewrites the entry.

With ``max_bytes`` set, the cache enforces a size cap by LRU eviction:
every read hit bumps the payload file's mtime (so recency is shared
across processes), and each write evicts least-recently-accessed
entries until the payload files fit the cap again.

:meth:`DiskCache.gc_orphans` removes only what can never be served —
stray ``*.tmp`` files of interrupted writes and payloads that fail
validation — and only once they are older than an age threshold.  Every
valid payload survives it, whichever process wrote it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.result import CompilationResult

#: Payload schema version; bump on incompatible layout changes and when a
#: job's compiled output changes (2: reclamation costs drop ``S``).
CACHE_VERSION = 2

#: What reading a present-but-broken payload can raise (UnicodeDecodeError
#: and json.JSONDecodeError are ValueErrors).
_CORRUPT = (ValueError, KeyError, TypeError, AttributeError)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp file)."""
    handle, temp_name = tempfile.mkstemp(dir=str(path.parent),
                                         prefix=path.name + ".",
                                         suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _load_payload(path: Path) -> Dict[str, object]:
    """Read and validate one payload file: the rule for a live entry.

    Raises:
        OSError: The file cannot be read (absent, or evicted meanwhile).
        ValueError: It is not UTF-8 JSON, has another schema version, or
            names a fingerprint other than its file stem.
    """
    payload = json.loads(path.read_bytes().decode("utf-8"))
    if not isinstance(payload, dict) \
            or payload.get("version") != CACHE_VERSION:
        raise ValueError("payload schema mismatch")
    if payload.get("fingerprint") != path.stem:
        raise ValueError("payload fingerprint mismatch")
    return payload


class DiskCache:
    """Maps job fingerprints to persisted :class:`CompilationResult` payloads.

    Safe for concurrent use from one process (writes serialize on an
    internal lock); multiple processes may share a directory — atomic
    replace keeps payloads consistent, and last-writer-wins is correct
    because equal fingerprints mean equal jobs mean (deterministic
    compiler) equal results.

    Args:
        root: Cache directory; created (with parents) if missing.
        max_bytes: Optional size cap over the payload files; writes
            beyond it evict least-recently-accessed entries (the entry
            being written is never evicted by its own put, even when it
            alone exceeds the cap).
    """

    def __init__(self, root, *, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root).expanduser()
        self.results_dir = self.root / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.evictions = 0
        self.orphans_removed = 0
        #: Running payload-byte estimate so an under-cap put stays O(1);
        #: reconciled against a real directory scan on every eviction.
        self._bytes = self.total_bytes() if max_bytes is not None else 0

    # ------------------------------------------------------------------
    def _result_path(self, fingerprint: str) -> Path:
        return self.results_dir / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[CompilationResult]:
        """Fetch a persisted result, or None on miss or corruption.

        A hit bumps the payload file's mtime, which is the cache's
        shared last-access clock: LRU eviction (and any other process
        sharing the directory) orders entries by it.
        """
        path = self._result_path(fingerprint)
        try:
            result = CompilationResult.from_dict(_load_payload(path)["result"])
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        except _CORRUPT:
            with self._lock:
                self.corrupt += 1
            return None
        try:
            os.utime(path)  # mark recently used for LRU eviction
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return result

    def put(self, fingerprint: str, result: CompilationResult,
            job=None) -> None:
        """Persist one result under its fingerprint (atomic write-through).

        Args:
            fingerprint: The job fingerprint keying the entry.
            result: The compilation result to persist.
            job: Optional :class:`~repro.api.job.CompileJob`; when given,
                its coordinates are recorded in the payload (and listed
                by :meth:`entries`), making cache directories
                self-describing.
        """
        payload: Dict[str, object] = {
            "version": CACHE_VERSION,
            "fingerprint": fingerprint,
            "result": result.to_dict(),
        }
        if job is not None:
            payload["job"] = {
                "benchmark": job.program_label,
                "policy": job.policy_label,
                "machine": job.machine.describe(),
            }
        path = self._result_path(fingerprint)
        with self._lock:
            if self.max_bytes is not None:
                try:
                    overwritten = path.stat().st_size
                except OSError:
                    overwritten = 0
            _atomic_write_text(path, json.dumps(payload, sort_keys=True))
            self.writes += 1
            if self.max_bytes is not None:
                try:
                    written = path.stat().st_size
                except OSError:
                    written = 0
                self._bytes += written - overwritten
                if self._bytes > self.max_bytes:
                    self._evict_locked(keep=fingerprint)

    def _evict_locked(self, keep: str) -> None:
        """Drop least-recently-accessed payloads until under the cap.

        Last access is the payload file's mtime (bumped by :meth:`get`
        hits and by writes), so processes sharing the directory agree on
        recency.  The entry just written (``keep``) is never evicted by
        its own put.  Caller holds the internal lock; the directory scan
        here also reconciles the running byte estimate (which can drift
        when other processes write the same directory).
        """
        entries = []
        total = 0
        for path in self.results_dir.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            total += stat.st_size
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda entry: entry[0])
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if path.stem == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1
        self._bytes = total  # lint: unlocked (caller holds lock)

    # ------------------------------------------------------------------
    def __contains__(self, fingerprint: str) -> bool:
        return self._result_path(fingerprint).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.results_dir.glob("*.json"))

    def fingerprints(self) -> List[str]:
        """Every persisted fingerprint, sorted."""
        return sorted(path.stem for path in self.results_dir.glob("*.json"))

    def entries(self) -> Dict[str, Dict[str, object]]:
        """Job coordinates per valid payload, read from the payloads
        (an entry written without a job maps to ``{}``)."""
        entries: Dict[str, Dict[str, object]] = {}
        for path in sorted(self.results_dir.glob("*.json")):
            try:
                entries[path.stem] = dict(_load_payload(path).get("job") or {})
            except (OSError, *_CORRUPT):
                continue
        return entries

    def clear(self) -> None:
        """Delete every persisted result."""
        with self._lock:
            for path in self.results_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
            self._bytes = 0

    def gc_orphans(self, min_age_seconds: float = 60.0) -> int:
        """Remove files that can never be served; returns how many.

        Orphans are leftover ``*.tmp`` files from an interrupted atomic
        write and ``*.json`` payloads that fail validation (unreadable,
        corrupt, another schema version, or mislabelled).  Every valid
        payload survives, whichever process wrote it.  Only files older
        than ``min_age_seconds`` are candidates, so a concurrent
        writer's in-flight temp file (mkstemp done, ``os.replace``
        pending) is never yanked out from under it.  Hygiene for
        long-lived servers sharing one cache directory; safe to call
        any time.
        """
        removed = 0
        # Compared against st_mtime, which is wall-clock by definition.
        cutoff = time.time() - max(0.0, min_age_seconds)  # lint: wall-clock
        for path in sorted(self.results_dir.iterdir()):
            try:
                if not path.is_file() or path.stat().st_mtime > cutoff:
                    continue
            except OSError:
                continue
            if not self._is_orphan(path):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        with self._lock:
            self.orphans_removed += removed
            if self.max_bytes is not None:
                self._bytes = self.total_bytes()
        return removed

    @staticmethod
    def _is_orphan(path: Path) -> bool:
        """True for a stray temp file or a payload that fails validation."""
        if path.suffix == ".tmp":
            return True
        if path.suffix != ".json":
            return False
        try:
            _load_payload(path)
        except OSError:
            return False  # removed meanwhile: nothing left to collect
        except _CORRUPT:
            return True
        return False

    def total_bytes(self) -> int:
        """Current payload size on disk (what ``max_bytes`` caps)."""
        total = 0
        for path in self.results_dir.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def stats(self) -> Dict[str, object]:
        """Counters + size, JSON-compatible (for service telemetry).

        The counters are snapshotted under the cache lock so one call
        reports a mutually consistent set — a concurrent put cannot
        show up in ``writes`` but not yet in ``evictions`` — which is
        what lets ``/stats`` and ``/metrics`` agree on the disk tier.
        """
        size = len(self)
        total = self.total_bytes()
        with self._lock:
            return {
                "root": str(self.root),
                "size": size,
                "bytes": total,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "writes": self.writes,
                "evictions": self.evictions,
                "orphans_removed": self.orphans_removed,
            }

    def __repr__(self) -> str:
        return (f"DiskCache(root={str(self.root)!r}, size={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
