"""Golden compile corpus: every registry benchmark, pinned byte for byte.

``tests/golden/compile_digests.json`` maps ``benchmark|policy|machine`` to
the sha256 of the sorted-key JSON of ``CompilationResult.to_dict()``
(minus the wall-clock ``compile_seconds``) at quick scale.  A job that
does not fit its machine records the exception type instead.  Any change
to a digest must be a deliberate, explained re-baseline; regenerate the
file with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict

import pytest

from repro.api import CompileJob, MachineSpec, execute_job
from repro.exceptions import ResourceExhaustedError
from repro.workloads.registry import benchmark_names, benchmark_overrides

CORPUS = pathlib.Path(__file__).parent / "golden" / "compile_digests.json"
POLICIES = ("eager", "lazy", "square-laa", "square")
MACHINES = (
    MachineSpec.nisq_grid(5, 5),
    MachineSpec.nisq_autosize(),
    MachineSpec(kind="nisq-full", autosize=True),
    MachineSpec.ft_autosize(),
)


def result_digest(job: CompileJob) -> str:
    """Digest of one job's result, or the error type if it does not fit."""
    try:
        result = execute_job(job)
    except ResourceExhaustedError as error:
        return type(error).__name__
    data = result.to_dict()
    del data["compile_seconds"]
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def benchmark_digests(benchmark: str) -> Dict[str, str]:
    """Every corpus entry for one benchmark, keyed ``bench|policy|machine``."""
    overrides = benchmark_overrides(benchmark, "quick")
    digests = {}
    for policy in POLICIES:
        for machine in MACHINES:
            job = CompileJob.for_benchmark(benchmark, machine, policy,
                                           overrides=overrides)
            key = f"{benchmark}|{policy}|{machine.describe()}"
            digests[key] = result_digest(job)
    return digests


def _corpus() -> Dict[str, str]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_the_whole_matrix():
    expected = len(benchmark_names()) * len(POLICIES) * len(MACHINES)
    assert len(_corpus()) == expected


@pytest.mark.parametrize("name", benchmark_names())
def test_compile_output_matches_golden_digests(name):
    recorded = {key: digest for key, digest in _corpus().items()
                if key.split("|", 1)[0] == name}
    assert benchmark_digests(name) == recorded


if __name__ == "__main__":
    corpus = {}
    for name in benchmark_names():
        corpus.update(benchmark_digests(name))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(corpus)} digests to {CORPUS}")
