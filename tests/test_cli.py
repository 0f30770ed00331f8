"""Parse-only tests for the ``python -m repro.experiments`` command line.

Nothing here compiles or starts a server: every case stops at
:func:`repro.experiments.__main__.parse_args`.  The tables pin

* that every command line in the CI workflow, the README and the
  perfbench service workload still parses, to the expected handler and
  values;
* that each command accepts every flag it reads;
* that a flag a command does not read, a bad count and a malformed
  positional are usage errors (exit 2) before any work starts.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from repro.experiments import __main__ as cli

ROOT = Path(__file__).resolve().parents[1]


def _command_lines(text: str) -> list:
    """Every ``python -m repro.experiments ...`` argv in ``text``."""
    found = []
    for line in text.replace("\\\n", " ").splitlines():
        if "-m repro.experiments " not in line:
            continue
        tail = line.split("-m repro.experiments ", 1)[1].split(";")[0]
        argv = []
        for token in shlex.split(tail):
            if token in ("&", "|", ">", "2>&1"):
                break
            argv.append(token)
        found.append(argv)
    return found


def _fenced(text: str) -> str:
    """The fenced code blocks of a markdown document."""
    return "\n".join(text.split("```")[1::2])


CI_LINES = _command_lines(
    (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8"))
README_LINES = _command_lines(
    _fenced((ROOT / "README.md").read_text(encoding="utf-8")))


def test_command_lines_are_found():
    assert len(CI_LINES) == 35
    assert len(README_LINES) >= 15


@pytest.mark.parametrize("argv", CI_LINES + README_LINES,
                         ids=[" ".join(argv) for argv
                              in CI_LINES + README_LINES])
def test_documented_command_lines_parse(argv):
    cli.parse_args(argv)


EP1, EP2 = "http://127.0.0.1:8771", "http://127.0.0.1:8772"

#: (command line, handler, expected values) for the CI and perfbench
#: invocations.
PARSES = [
    ("table3 --scale quick", cli._cmd_experiments,
     {"command": "table3", "scale": "quick", "jobs": 1, "cache_dir": None,
      "export": None}),
    ("table3 --scale quick --jobs 2", cli._cmd_experiments,
     {"scale": "quick", "jobs": 2}),
    ("verify --policies eager lazy square --scale quick", cli._cmd_verify,
     {"benchmarks": [], "policies": ["eager", "lazy", "square"],
      "scale": "quick", "machine": "nisq", "grid": None}),
    ("sweep RD53 ADDER4 --policies lazy square --grid 5 5 --scale quick "
     "--cache-dir /tmp/c --export /tmp/cold.json", cli._cmd_sweep,
     {"benchmarks": ["RD53", "ADDER4"], "policies": ["lazy", "square"],
      "grid": [5, 5], "scale": "quick", "cache_dir": "/tmp/c",
      "export": "/tmp/cold.json", "jobs": 1, "machine_qubits": None,
      "start_qubits": 64}),
    ("serve --port 8771", cli._cmd_serve,
     {"host": "127.0.0.1", "port": 8771, "workers": 2, "queue_size": 64,
      "jobs": 1, "cache_dir": None, "cache_max_bytes": None,
      "tenants": None, "store_dir": None, "burst_half_life": None,
      "verify": False, "log_path": None}),
    ("serve --port 0 --workers 2 --cache-dir /w/cache --tenants /w/t.json",
     cli._cmd_serve,
     {"port": 0, "workers": 2, "cache_dir": "/w/cache",
      "tenants": "/w/t.json"}),
    (f"cluster-sweep RD53 ADDER4 --policies lazy square --grid 5 5 "
     f"--scale quick --endpoint {EP1} --endpoint {EP2} "
     f"--export /tmp/cluster.json", cli._cmd_cluster_sweep,
     {"benchmarks": ["RD53", "ADDER4"], "endpoint": [EP1, EP2],
      "api_key": None, "grid": [5, 5], "export": "/tmp/cluster.json"}),
    (f"cluster-stats --endpoint {EP1} --endpoint {EP2}",
     cli._cmd_cluster_stats, {"endpoint": [EP1, EP2]}),
    (f"metrics --endpoint {EP1}", cli._cmd_metrics, {"endpoint": [EP1]}),
    (f"trace 4f2a --endpoint {EP1} --endpoint {EP2}", cli._cmd_trace,
     {"trace_id": "4f2a", "endpoint": [EP1, EP2]}),
    (f"logs --trace 4f2a --endpoint {EP1} --endpoint {EP2}", cli._cmd_logs,
     {"trace": "4f2a", "tenant": None, "level": None, "since": None,
      "limit": None}),
    ("bench list", cli._cmd_bench, {"action": "list", "suite": None}),
    ("bench compare --suite telemetry", cli._cmd_bench,
     {"action": "compare", "suite": "telemetry", "history": None}),
    ("tune RD53 ADDER4 --grid 5 5 --scales quick laptop --objective aqv "
     "--cache-dir /tmp/tune-cache --export /tmp/board.json "
     "--export-best /tmp/best.json", cli._cmd_tune,
     {"benchmarks": ["RD53", "ADDER4"], "grid": [5, 5],
      "scales": ["quick", "laptop"], "objective": ["aqv"],
      "cache_dir": "/tmp/tune-cache", "export": "/tmp/board.json",
      "export_best": "/tmp/best.json", "strategy": "halving",
      "trials": None, "seed": 0, "endpoint": None, "jobs": 1}),
    ("tune RD53 ADDER4 --grid 5 5 --scales quick laptop --objective aqv "
     "--endpoint http://127.0.0.1:8781 --endpoint http://127.0.0.1:8782 "
     "--cache-dir /tmp/tune-fleet-cache "
     "--export /tmp/leaderboard-fleet.json", cli._cmd_tune,
     {"benchmarks": ["RD53", "ADDER4"], "scales": ["quick", "laptop"],
      "endpoint": ["http://127.0.0.1:8781", "http://127.0.0.1:8782"],
      "export": "/tmp/leaderboard-fleet.json",
      "jobs": 1, "cache_dir": "/tmp/tune-fleet-cache"}),
]


@pytest.mark.parametrize("line,handler,values", PARSES,
                         ids=[line for line, _, _ in PARSES])
def test_command_lines_parse_to_handler_and_values(line, handler, values):
    args = cli.parse_args(shlex.split(line))
    assert args.func is handler
    assert {key: getattr(args, key) for key in values} == values


#: (command line, expected values): every flag each command reads.
ACCEPTS = [
    ("figure8c --shots 64 --scale quick --jobs 2 --cache-dir d "
     "--export x.csv",
     {"shots": 64, "scale": "quick", "jobs": 2, "cache_dir": "d",
      "export": "x.csv"}),
    ("all --shots 8 --scale quick", {"command": "all", "shots": 8}),
    ("figure9 --scale quick", {"command": "figure9", "scale": "quick"}),
    ("compile RD53 --policy square --machine ft --machine-qubits 40 "
     "--start-qubits 16 --scale quick --jobs 3 --cache-dir d --export x",
     {"benchmark": "RD53", "policies": ["square"], "machine": "ft",
      "machine_qubits": 40, "start_qubits": 16, "jobs": 3}),
    ("verify RD53 --grid 5 5 --cache-dir d --export v.csv",
     {"benchmarks": ["RD53"], "grid": [5, 5], "export": "v.csv"}),
    ("profile RD53 ADDER4 --policies eager square --grid 5 5 "
     "--scale quick --export h.json",
     {"benchmarks": ["RD53", "ADDER4"], "policies": ["eager", "square"],
      "export": "h.json"}),
    ("serve --host 0.0.0.0 --port 0 --workers 4 --queue-size 8 "
     "--cache-max-bytes 1000 --tenants t.json --store-dir s "
     "--burst-half-life 5 --verify --log-path l.jsonl --jobs 2 "
     "--cache-dir c",
     {"host": "0.0.0.0", "workers": 4, "queue_size": 8,
      "cache_max_bytes": 1000, "store_dir": "s", "burst_half_life": 5.0,
      "verify": True, "log_path": "l.jsonl", "jobs": 2}),
    ("cluster-sweep --endpoint e --api-key k --machine-qubits 30 "
     "--scale quick",
     {"benchmarks": [], "api_key": "k", "machine_qubits": 30}),
    ("tune RD53 --strategy random --trials 3 --seed 7 --endpoint e "
     "--api-key k --machine ft",
     {"strategy": "random", "trials": 3, "seed": 7, "endpoint": ["e"],
      "api_key": "k", "machine": "ft"}),
    ("tune RD53 --jobs 2 --cache-dir d", {"jobs": 2, "cache_dir": "d"}),
    ("tune RD53 --endpoint e --cache-dir d",
     {"endpoint": ["e"], "cache_dir": "d"}),
    ("cluster-stats --endpoint e --api-key k", {"api_key": "k"}),
    ("metrics --endpoint e --endpoint f --api-key k",
     {"endpoint": ["e", "f"]}),
    ("trace t --endpoint e --api-key k", {"trace_id": "t"}),
    ("logs --endpoint e --trace t --level INFO --tenant a --since 1.5 "
     "--limit 0",
     {"trace": "t", "level": "INFO", "tenant": "a", "since": 1.5,
      "limit": 0}),
    ("bench compare --suite s --baseline b --bench-file f --history h",
     {"baseline": "b", "bench_file": "f", "history": "h"}),
    ("bench trend --suite s --metric m --metric n",
     {"action": "trend", "metric": ["m", "n"]}),
]


@pytest.mark.parametrize("line,values", ACCEPTS,
                         ids=[line for line, _ in ACCEPTS])
def test_each_command_accepts_the_flags_it_reads(line, values):
    args = cli.parse_args(shlex.split(line))
    assert {key: getattr(args, key) for key in values} == values


REJECTS = [
    # Flags of another command.
    "table3 --port 9999",
    "table3 --workers 4",
    "sweep RD53 --queue-size 8",
    "compile RD53 --cache-max-bytes 1000",
    "sweep RD53 --verify",
    "sweep RD53 --endpoint http://x:1",
    "sweep RD53 --journal x.jsonl",
    "tune RD53 --journal x.jsonl",
    "compile RD53 --strategy grid",
    "tune RD53 --scale quick",
    "tune RD53 --policies lazy",
    "serve --export rows.json",
    "serve --grid 5 5",
    "serve --machine ft",
    "serve --scale quick",
    "serve RD53",
    "profile RD53 --jobs 2",
    "profile RD53 --cache-dir d",
    "cluster-sweep RD53 --endpoint e --jobs 4",
    "cluster-sweep RD53 --endpoint e --cache-dir d",
    "logs --endpoint e RD53",
    "table3 --trace t",
    "table3 --suite telemetry",
    "table3 RD53",
    "table3 --policies lazy",
    "table3 --grid 5 5",
    "bench list --strategy grid",
    # Flags a command silently ignored before.
    "sweep RD53 --shots 5",
    "figure8a --shots 5",
    "bench list --export x.json",
    "bench list --jobs 2",
    "metrics --endpoint e --jobs 2",
    "logs --endpoint e --cache-dir d",
    "trace t --endpoint e --scale quick",
    "cluster-stats --endpoint e --export x.json",
    # Abbreviations: `--scale` must not silently become tune's `--scales`.
    "sweep RD53 --exp x.json",
    # Bad counts.
    "compile RD53 --jobs -3",
    "compile RD53 --jobs 0",
    "compile RD53 --jobs x",
    "sweep RD53 --machine-qubits 0",
    "figure8c --shots 0",
    "serve --queue-size 0",
    "serve --workers 0",
    "tune RD53 --strategy random --trials 0",
    "logs --endpoint e --limit -1",
    # Positionals.
    "compile",
    "compile RD53 ADDER4",
    "tune",
    "trace --endpoint e",
    "trace a b --endpoint e",
    "bench",
    "bench frob",
    "bench trend compare",
    # Required fleet endpoints.
    "cluster-sweep RD53",
    "cluster-stats",
    "metrics",
    "logs --trace t",
    # Value-dependent checks.
    "tune RD53 --strategy grid --trials 5",
    "tune RD53 --endpoint e --jobs 2",
    # No command.
    "",
]


@pytest.mark.parametrize("line", REJECTS)
def test_usage_errors_exit_2(line, capsys):
    with pytest.raises(SystemExit) as raised:
        cli.parse_args(shlex.split(line))
    assert raised.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_every_command_has_help(capsys):
    _, commands = cli._build_parser()
    for name in commands.choices:
        with pytest.raises(SystemExit) as raised:
            cli.parse_args([name, "--help"])
        assert raised.value.code == 0
        assert f"python -m repro.experiments {name}" in capsys.readouterr().out
