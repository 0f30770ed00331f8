"""Tests for repro.journal, the one append-only JSONL log format, and
for the three logs built on it: the tenancy job store, the telemetry
event sink and the bench history."""

from __future__ import annotations

import pytest

from repro import bench, journal
from repro.queue import QueuedJob
from repro.telemetry import JsonlSink, LogEvent, read_events
from repro.tenancy import JsonlJobStore


# Each owner: the log file under a directory, "open, append record n,
# close", and "reopen and replay" -> (record ids, torn lines).
def _store_append(root, n):
    store = JsonlJobStore(root)
    store.record_submit(QueuedJob(f"job-{n}", "compile", {"n": n}))
    store.close()


def _store_replay(root):
    store = JsonlJobStore(root)
    store.close()
    return [record["job_id"] for record in store.load()], store.torn_lines


def _sink_append(root, n):
    sink = JsonlSink(root / "events.jsonl")
    sink(LogEvent("INFO", f"event-{n}"))
    sink.close()


def _sink_replay(root):
    replay = read_events(root / "events.jsonl")
    return ([event["message"] for event in replay["events"]],
            replay["torn_lines"])


def _history_append(root, n):
    bench.append_history(str(root), bench.make_record("suite", {"n": n}))


def _history_replay(root):
    history = bench.read_history(str(root), "suite")
    return ([record["metrics"]["n"] for record in history["records"]],
            history["torn_lines"])


OWNERS = {
    "job-store": ("jobs.wal", _store_append, _store_replay,
                  ["job-1", "job-2"]),
    "event-sink": ("events.jsonl", _sink_append, _sink_replay,
                   ["event-1", "event-2"]),
    "bench-history": ("suite.jsonl", _history_append, _history_replay,
                      [1, 2]),
}


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_first_record_after_a_torn_tail_survives(tmp_path, owner):
    # A writer killed mid-append leaves a fragment with no newline.  The
    # next writer must not append onto it: the fused line would be
    # unparseable and the record it carries lost on the next replay.
    name, append, replay, expected = OWNERS[owner]
    append(tmp_path, 1)
    with open(tmp_path / name, "a", encoding="utf-8") as stream:
        stream.write('{"type": "state", "job_id": "job-1", "torn')
    append(tmp_path, 2)
    assert replay(tmp_path) == (expected, 0)


class TestRead:
    def test_missing_file_reads_as_empty(self, tmp_path):
        assert journal.read(tmp_path / "absent.jsonl") == ([], 0)

    def test_non_object_lines_count_as_torn(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('[1, 2]\n{"a": 1}\n"text"\n\n{"b": 2}\n')
        assert journal.read(path) == ([{"a": 1}, {"b": 2}], 2)

    def test_unterminated_final_line_is_torn_even_if_it_parses(
            self, tmp_path):
        # The next Journal cuts it, so replaying it would resurrect a
        # record the file is about to lose.
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}')
        assert journal.read(path) == ([{"a": 1}], 1)


class TestJournal:
    def test_header_is_written_only_into_an_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for value in (1, 2):
            log = journal.Journal(path, '{"h":0}')
            log.append({"v": value})
            log.close()
        assert path.read_text() == '{"h":0}\n{"v":1}\n{"v":2}\n'

    def test_open_cuts_the_torn_tail_and_tracks_bytes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a":1}\n{"b":')
        log = journal.Journal(path, '{"h":0}')
        assert path.read_text() == '{"a":1}\n'  # no header: not empty
        log.append({"c": 3})
        log.close()
        assert path.read_text() == '{"a":1}\n{"c":3}\n'
        assert log.bytes == path.stat().st_size

    def test_encoding_keeps_insertion_order(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = journal.Journal(path)
        log.append({"b": 1, "a": [2, 3]})
        log.close()
        assert path.read_text() == '{"b":1,"a":[2,3]}\n'

    def test_rewrite_puts_the_header_first_and_leaves_no_tmp(
            self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = journal.Journal(path, '{"h":0}')
        for value in range(5):
            log.append({"v": value})
        log.rewrite([{"v": 4}])
        log.append({"v": 5})
        log.close()
        assert journal.read(path) == ([{"h": 0}, {"v": 4}, {"v": 5}], 0)
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]
        assert log.bytes == path.stat().st_size
