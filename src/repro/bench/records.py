"""Versioned benchmark records and the append-only history journal.

The four benchmark suites (``benchmarks/test_bench_*.py``) each flush a
``BENCH_<suite>.json`` snapshot at the repo root.  Historically those
were bare ``{"suite", "generated_at", "metrics"}`` dicts with no schema
marker — fine for a one-off read, useless for a trajectory.  This
module gives the snapshot a version field and a journal:

* :func:`make_record` / :func:`write_bench` produce **version-1**
  records: the legacy three keys plus ``bench_version``, so readers
  can tell what they are holding and future schema changes can
  up-convert instead of guessing.
* :func:`upconvert` accepts any historical shape — a version-1 record
  passes through, a bare legacy dict (implicit **version 0**) is
  wrapped — so ``bench compare`` works against snapshots produced
  before this module existed.
* :func:`append_history` / :func:`read_history` keep an append-only
  ``bench_history/<suite>.jsonl`` :mod:`repro.journal`, one record per
  line and no header.  The reader is torn-tail tolerant: a half-written
  final line (kill -9 mid-append) is counted, not fatal, and the next
  append cuts it, so the trajectory survives every crash.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro import journal
from repro.exceptions import BenchError

#: Schema version stamped into every record this library writes.
BENCH_VERSION = 1

#: Default journal directory name, relative to the repo root.
HISTORY_DIR = "bench_history"


def make_record(suite: str, metrics: Dict[str, object], *,
                generated_at: Optional[str] = None) -> Dict[str, object]:
    """Build a version-:data:`BENCH_VERSION` benchmark record."""
    if not suite:
        raise BenchError("benchmark record needs a non-empty suite name")
    if not isinstance(metrics, dict):
        raise BenchError(
            f"metrics must be a mapping, got {type(metrics).__name__}")
    if generated_at is None:
        import time

        generated_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return {
        "bench_version": BENCH_VERSION,
        "suite": suite,
        "generated_at": generated_at,
        "metrics": metrics,
    }


def upconvert(record: object) -> Dict[str, object]:
    """Normalise any historical record shape to the current schema.

    Version-1 records pass through (validated); bare legacy dicts
    (implicit version 0: ``{"suite", "generated_at", "metrics"}``) are
    wrapped.  Anything else — or a record claiming a *newer* version
    than this library understands — raises :class:`BenchError`.
    """
    if not isinstance(record, dict):
        raise BenchError(
            f"benchmark record must be a JSON object, "
            f"got {type(record).__name__}")
    version = record.get("bench_version", 0)
    if not isinstance(version, int) or version < 0:
        raise BenchError(f"unrecognisable bench_version: {version!r}")
    if version > BENCH_VERSION:
        raise BenchError(
            f"record is bench_version {version}, but this library only "
            f"understands <= {BENCH_VERSION}; upgrade to read it")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        raise BenchError("benchmark record has no metrics mapping")
    return {
        "bench_version": BENCH_VERSION,
        "suite": str(record.get("suite") or "unknown"),
        "generated_at": str(record.get("generated_at") or ""),
        "metrics": metrics,
    }


def load_bench(path: str) -> Dict[str, object]:
    """Read one ``BENCH_*.json`` snapshot, up-converting legacy shapes."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except OSError as error:
        raise BenchError(f"cannot read benchmark snapshot {path}: {error}")
    except ValueError as error:
        raise BenchError(f"malformed benchmark snapshot {path}: {error}")
    return upconvert(payload)


def write_bench(path: str, suite: str, metrics: Dict[str, object], *,
                history_dir: Optional[str] = None,
                generated_at: Optional[str] = None) -> Dict[str, object]:
    """Write a versioned snapshot; optionally journal it to history.

    This is the one emission helper the benchmark suites share: it
    replaces their hand-rolled ``json.dumps`` blocks, so every
    ``BENCH_*.json`` at the repo root carries ``bench_version`` and
    (when ``history_dir`` is given) lands in the append-only journal
    that ``bench compare`` / ``bench trend`` read.
    """
    record = make_record(suite, metrics, generated_at=generated_at)
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if history_dir:
        append_history(history_dir, record)
    return record


# ----------------------------------------------------------------------
# The append-only history journal.

def history_path(history_dir: str, suite: str) -> str:
    """The journal file for one suite: ``<dir>/<suite>.jsonl``."""
    return os.path.join(history_dir, f"{suite}.jsonl")


def append_history(history_dir: str, record: Dict[str, object]) -> str:
    """Append one record to its suite's journal; returns the path."""
    normalised = upconvert(record)
    path = history_path(history_dir, str(normalised["suite"]))
    history = journal.Journal(path)
    try:
        history.append(normalised)
    finally:
        history.close()
    return path


def read_history(history_dir: str, suite: str) -> Dict[str, object]:
    """Read one suite's journal, oldest first.

    Returns ``{"records": [...], "torn_lines": n}``; a missing journal
    is an empty trajectory, not an error, and unparseable lines (torn
    tail after a crash mid-append) are counted rather than fatal.
    """
    raw, torn = journal.read(history_path(history_dir, suite))
    records: List[Dict[str, object]] = []
    for record in raw:
        try:
            records.append(upconvert(record))
        except BenchError:
            torn += 1
    return {"records": records, "torn_lines": torn}


def list_suites(history_dir: str) -> List[str]:
    """Suites with a journal in ``history_dir``, sorted."""
    try:
        names = os.listdir(history_dir)
    except OSError:
        return []
    return sorted(name[:-len(".jsonl")] for name in names
                  if name.endswith(".jsonl"))
