"""Append-only JSONL journals: the one on-disk log format.

The job store WAL, the tuner's trial journal, the event sink and the
bench history: an optional header line, then one flushed JSON object
per line.  :class:`Journal` cuts a torn tail before appending, so the
next record does not fuse with it and get lost.  Lines keep insertion
order (no ``sort_keys``): DONE responses replay byte-identically.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


def encode(record: Mapping[str, object]) -> str:
    """One journal line, without its newline."""
    return json.dumps(record, separators=(",", ":"))


def read(path) -> Tuple[List[Dict[str, object]], int]:
    """Replay a journal: ``(records, torn)``; a missing file is empty.

    ``torn`` counts the lines that are not JSON objects plus a final
    line with no newline, which the next :class:`Journal` on the file
    cuts — so read *before* opening one to count it.
    """
    try:
        lines = Path(path).read_bytes().split(b"\n")
    except FileNotFoundError:
        return [], 0
    torn = 1 if lines.pop().strip() else 0
    records: List[Dict[str, object]] = []
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            torn += 1
    return records, torn


class Journal:
    """Append handle on one journal file (not thread-safe).  ``header``
    is the exact first line, written only into an empty file and kept
    first by :meth:`rewrite`; ``bytes`` tracks the file size."""

    def __init__(self, path, header: Optional[str] = None) -> None:
        self.path = Path(path)
        self.header = header
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._open()

    def _open(self) -> None:
        stream = open(self.path, "a+b")
        end = stream.seek(0, os.SEEK_END)
        if end:
            stream.seek(end - 1)
            if stream.read(1) != b"\n":
                stream.seek(0)
                end = stream.read().rfind(b"\n") + 1
                stream.truncate(end)
        self._stream, self.bytes = stream, end
        if end == 0 and self.header is not None:
            self._write(self.header)

    def _write(self, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        self._stream.write(data)
        self._stream.flush()
        self.bytes += len(data)

    def append(self, record: Mapping[str, object]) -> None:
        """Write one record as one flushed line."""
        self._write(encode(record))

    def rewrite(self, records: Iterable[Mapping[str, object]]) -> None:
        """Atomically replace the file with the header plus ``records``:
        temp file, fsync, rename — a crash leaves the old journal or the
        new one, never a half-written one."""
        lines = [] if self.header is None else [self.header]
        lines.extend(encode(record) for record in records)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as stream:
            stream.write("".join(line + "\n" for line in lines).encode())
            stream.flush()
            os.fsync(stream.fileno())
        self.close()
        os.replace(tmp, self.path)
        self._open()

    def close(self) -> None:
        """Release the file handle."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None
