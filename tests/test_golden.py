"""Golden compile corpus: compile output pinned byte for byte.

``tests/golden/compile_digests.json`` maps ``benchmark|policy|machine`` to
the sha256 of the sorted-key JSON of ``CompilationResult.to_dict()``
(minus the wall-clock ``compile_seconds``).  A job that does not fit its
machine records the exception type instead.  The corpus has two slices:

* every registry benchmark at quick scale, on every machine of
  ``MACHINES``;
* the benchmark-size slice: the larger programs of ``SIZED_PROGRAMS``
  (the sizes the perfbench compile workloads run, whose swap chains are
  far longer than quick scale's), keyed ``NAME(knob=value,...)``.

Any change to a digest must be a deliberate, explained re-baseline;
regenerate both slices with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Mapping

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

#: The benchmark-size slice: benchmark -> size overrides.
SIZED_PROGRAMS: Dict[str, Dict[str, int]] = {
    "ADDER64": {"width": 64},
    "MUL32": {"width": 8},
    "MODEXP": {"width": 4, "exponent_bits": 3},
    "SHA2": {"word_width": 8, "rounds": 2},
    "SALSA20": {"word_width": 6, "rounds": 1},
    "Belle": {},
}
SIZED_POLICIES = ("eager", "lazy", "square")
SIZED_MACHINES = (MachineSpec.nisq_autosize(), MachineSpec.ft_autosize())


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


def _digests(benchmark: str, label: str, overrides: Mapping[str, int],
             policies, machines) -> Dict[str, str]:
    digests = {}
    for policy in policies:
        for machine in machines:
            job = CompileJob.for_benchmark(benchmark, machine, policy,
                                           overrides=dict(overrides))
            digests[f"{label}|{policy}|{machine.describe()}"] = result_digest(job)
    return digests


def benchmark_digests(benchmark: str) -> Dict[str, str]:
    """Every quick-scale entry for one benchmark, keyed ``bench|policy|machine``."""
    return _digests(benchmark, benchmark, benchmark_overrides(benchmark, "quick"),
                    POLICIES, MACHINES)


def sized_label(benchmark: str) -> str:
    """Corpus key prefix of a benchmark-size program, e.g. ``MUL32(width=8)``."""
    overrides = SIZED_PROGRAMS[benchmark]
    knobs = ",".join(f"{knob}={value}" for knob, value in sorted(overrides.items()))
    return f"{benchmark}({knobs})"


def sized_digests(benchmark: str) -> Dict[str, str]:
    """Every benchmark-size entry for one benchmark."""
    return _digests(benchmark, sized_label(benchmark), SIZED_PROGRAMS[benchmark],
                    SIZED_POLICIES, SIZED_MACHINES)


def _corpus() -> Dict[str, str]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def quick_corpus() -> Dict[str, str]:
    """The quick-scale slice of the corpus."""
    names = set(benchmark_names())
    return {key: digest for key, digest in _corpus().items()
            if key.split("|", 1)[0] in names}


def _recorded(label: str) -> Dict[str, str]:
    return {key: digest for key, digest in _corpus().items()
            if key.split("|", 1)[0] == label}


def test_corpus_covers_the_whole_matrix():
    quick = len(benchmark_names()) * len(POLICIES) * len(MACHINES)
    sized = len(SIZED_PROGRAMS) * len(SIZED_POLICIES) * len(SIZED_MACHINES)
    assert len(_corpus()) == quick + sized


@pytest.mark.parametrize("name", benchmark_names())
def test_compile_output_matches_golden_digests(name):
    assert benchmark_digests(name) == _recorded(name)


@pytest.mark.parametrize("name", list(SIZED_PROGRAMS))
def test_benchmark_size_output_matches_golden_digests(name):
    assert sized_digests(name) == _recorded(sized_label(name))


if __name__ == "__main__":
    corpus = {}
    for name in benchmark_names():
        corpus.update(benchmark_digests(name))
    for name in SIZED_PROGRAMS:
        corpus.update(sized_digests(name))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(corpus)} digests to {CORPUS}")
