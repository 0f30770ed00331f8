"""Benchmark-harness configuration.

Each benchmark regenerates one table or figure of the paper's evaluation
at "quick" scale (reduced register widths / round counts) so the full
sweep finishes in minutes.  Pass ``--benchmark-only`` to run them; the
reported wall-clock is the end-to-end experiment time, and every
benchmark also asserts the qualitative result ("who wins") that the
corresponding figure reports.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.bench import BENCH_DIR, write_bench

#: The repository root: emitted records go under its ``BENCH_DIR``.
ROOT = Path(__file__).resolve().parents[1]


def emit_bench(suite: str, results: dict) -> None:
    """Write ``results`` (if any) as ``BENCH_DIR/BENCH_<suite>.json``.

    ``REPRO_BENCH_HISTORY=<dir>`` also appends the record to the
    ``<dir>/<suite>.jsonl`` trajectory journal that ``bench compare`` /
    ``bench trend`` read.
    """
    if results:
        write_bench(str(ROOT / BENCH_DIR / f"BENCH_{suite}.json"), suite,
                    results,
                    history_dir=os.environ.get("REPRO_BENCH_HISTORY") or None)


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
