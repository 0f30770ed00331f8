"""Benchmark trajectory: versioned ``BENCH_*.json`` records, an
append-only history journal, and a per-metric regression comparator.

The benchmark suites under ``benchmarks/`` measure the system —
compile-path phase splits, tenancy scheduler throughput, verifier gate
rates, telemetry overhead ratios — and flush one ``BENCH_<suite>.json``
snapshot each into ``.bench_build/``.  This package turns those
point-in-time snapshots into a *trajectory*:

* :mod:`repro.bench.records` — the versioned record schema (legacy
  bare dicts up-convert as version 0), the shared :func:`write_bench`
  emission helper, and the torn-tail-tolerant
  ``bench_history/<suite>.jsonl`` journal.
* :mod:`repro.bench.compare` — :func:`compare` classifies every metric
  of a current record against a baseline with per-metric direction
  (timings down, throughputs up, ratios near zero) and noise-tolerance
  bands, so "2x slower" fails while CI-runner jitter passes.

The ``bench`` CLI (``python -m repro.experiments bench
list|compare|trend``) and the CI regression gate are thin wrappers
over these two modules.
"""

from repro.bench.compare import (
    compare,
    flatten_metrics,
    metric_policy,
    render_compare,
    render_trend,
)
from repro.bench.records import (
    BENCH_DIR,
    BENCH_VERSION,
    HISTORY_DIR,
    append_history,
    history_path,
    list_suites,
    load_bench,
    make_record,
    read_history,
    upconvert,
    write_bench,
)

__all__ = [
    "BENCH_DIR",
    "BENCH_VERSION",
    "HISTORY_DIR",
    "append_history",
    "compare",
    "flatten_metrics",
    "history_path",
    "list_suites",
    "load_bench",
    "make_record",
    "metric_policy",
    "read_history",
    "render_compare",
    "render_trend",
    "upconvert",
    "write_bench",
]
