"""Command-line entry point: ``python -m repro.experiments <command> [...]``.

Each command is an argparse subcommand that declares only the flags it
reads, so ``python -m repro.experiments <command> --help`` lists them and
a flag given to a command that would ignore it is a usage error.  The
commands:

* the nine tables/figures of the paper and ``all`` of them;
* ``sweep``, ``compile`` and ``verify`` for ad-hoc jobs (``verify``
  exits non-zero on any static-checker finding), ``profile`` for a
  per-phase profile of fresh compiles, and ``tune`` to search the
  policy space;
* ``serve`` to expose a session over HTTP (see :mod:`repro.service`),
  and ``cluster-sweep``, ``cluster-stats``, ``metrics``, ``trace`` and
  ``logs`` to drive or inspect one server or a fleet of them;
* ``bench list|compare|trend`` over the ``BENCH_*.json`` trajectory
  (``compare`` exits non-zero on a regression).

Local commands compile through one shared :class:`~repro.api.Session`, so
``--jobs N`` parallelises any experiment across N worker processes and
overlapping experiments (e.g. ``all``) reuse each other's results.  With
``--cache-dir`` the session is backed by a persistent
:class:`~repro.service.cache.DiskCache`, so rerunning a sweep after a
process restart serves repeated jobs from disk instead of recompiling.

Examples::

    python -m repro.experiments table3
    python -m repro.experiments figure9 --scale quick --jobs 4
    python -m repro.experiments all --scale quick --export rows.json
    python -m repro.experiments sweep RD53 ADDER4 --policies lazy square \\
        --grid 5 5 --export sweep.csv --cache-dir ~/.cache/repro
    python -m repro.experiments compile MODEXP --policy square --scale quick
    python -m repro.experiments serve --port 8731 --workers 4 \\
        --queue-size 128 --cache-dir ~/.cache/repro \\
        --tenants tenants.json --store-dir ~/.repro-jobs
    python -m repro.experiments cluster-sweep RD53 ADDER4 \\
        --endpoint http://127.0.0.1:8731 --endpoint http://127.0.0.1:8732 \\
        --policies lazy square --grid 5 5 --export cluster.csv
    python -m repro.experiments tune RD53 MUL32 --strategy halving \\
        --scales quick laptop --objective aqv --grid 5 5 \\
        --cache-dir ~/.cache/repro --export-best best.json
    python -m repro.experiments cluster-stats \\
        --endpoint http://127.0.0.1:8731 --endpoint http://127.0.0.1:8732
    python -m repro.experiments metrics \\
        --endpoint http://127.0.0.1:8731 --endpoint http://127.0.0.1:8732
    python -m repro.experiments trace 4f2a... \\
        --endpoint http://127.0.0.1:8731 --endpoint http://127.0.0.1:8732
    python -m repro.experiments logs --trace 4f2a... \\
        --endpoint http://127.0.0.1:8731 --endpoint http://127.0.0.1:8732
    python -m repro.experiments bench compare --suite telemetry
    python -m repro.experiments profile RD53 ADDER4 \\
        --policies eager square --grid 5 5 --scale quick
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api import MachineSpec, Session, SweepSpec
from repro.experiments import DEFAULT_POLICIES, EXPERIMENTS
from repro.workloads.registry import SCALES, benchmark_names


def _machine_spec(args: argparse.Namespace) -> MachineSpec:
    """Build the target machine spec from CLI flags."""
    if args.grid:
        if args.machine not in ("nisq", "ft"):
            raise SystemExit(
                f"--grid only applies to lattice machines (nisq, ft), "
                f"not {args.machine!r}; use --machine-qubits instead"
            )
        rows, cols = args.grid
        return MachineSpec(kind=args.machine, rows=rows, cols=cols)
    if args.machine_qubits is not None:
        return MachineSpec(kind=args.machine, num_qubits=args.machine_qubits)
    return MachineSpec(kind=args.machine, autosize=True,
                       start_qubits=args.start_qubits)


def _sweep_spec(args: argparse.Namespace) -> SweepSpec:
    """The benchmark x policy grid of `sweep`, `verify`, `cluster-sweep`."""
    return SweepSpec(
        benchmarks=tuple(args.benchmarks) or tuple(benchmark_names()),
        machines=(_machine_spec(args),),
        policies=tuple(args.policies or DEFAULT_POLICIES),
        scales=(args.scale,),
    )


def _session(args: argparse.Namespace, verify: bool = False) -> Session:
    return Session(jobs=args.jobs, cache_dir=args.cache_dir, verify=verify)


def _export(rows: list, path: str | None) -> None:
    """Write ``rows`` to ``--export PATH`` when one was given."""
    if path:
        from repro.analysis.report import export_rows

        export_rows(rows, path=path)
        print(f"[exported {len(rows)} rows to {path}]")


def _cache_note(session: Session) -> str:
    """Disk-cache telemetry suffix for command summaries."""
    if session.disk_cache is None:
        return ""
    return f", {session.disk_hits} disk hits"


def _cmd_experiments(args: argparse.Namespace) -> int:
    """Regenerate one table/figure, or `all` of them in name order."""
    session = _session(args)
    names = sorted(EXPERIMENTS) if args.command == "all" else [args.command]
    exported: list = []
    for name in names:
        runner, formatter = EXPERIMENTS[name]
        kwargs = {"session": session}
        if name in ("figure1", "figure9", "figure10"):
            kwargs["scale"] = args.scale
        if name == "figure8c":
            kwargs["shots"] = args.shots
        started = time.perf_counter()
        experiment = runner(**kwargs)
        elapsed = time.perf_counter() - started
        print(formatter(experiment)
              + f"\n[{name} completed in {elapsed:.1f}s]\n")
        exported.extend(experiment.rows)
    _export(exported, args.export)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    session = _session(args)
    spec = _sweep_spec(args)
    started = time.perf_counter()
    sweep = session.run(spec)
    elapsed = time.perf_counter() - started
    title = (f"Sweep: {len(spec.benchmarks)} benchmark(s) x "
             f"{len(spec.policies)} policy(ies) at scale {args.scale}")
    print(sweep.table(title)
          + f"\n[{len(sweep)} jobs completed in {elapsed:.1f}s, "
          f"{sweep.cache_hits} cache hits{_cache_note(session)}]\n")
    _export(sweep.rows(), args.export)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Compile and statically verify; non-zero exit on any finding."""
    session = _session(args, verify=True)
    # Gate-stream rules (RV001-RV003) need the recorded schedule; force
    # it on so `verify` never silently runs at reduced coverage.
    spec = _sweep_spec(args).with_config(record_schedule=True)
    started = time.perf_counter()
    sweep = session.run(spec)
    elapsed = time.perf_counter() - started
    bad = sweep.verification_failures()
    title = (f"Verify: {len(spec.benchmarks)} benchmark(s) x "
             f"{len(spec.policies)} policy(ies) at scale {args.scale}")
    text = sweep.table(title)
    for entry in bad:
        text += f"\n{entry.verification.summary()}\n"
        for diagnostic in entry.verification.findings:
            text += f"  {diagnostic.describe()}\n"
    checked = sum(entry.verification.checked_gates for entry in sweep
                  if entry.verification is not None)
    findings = sum(len(entry.verification.findings) for entry in bad)
    print(text + f"\n[{len(sweep)} result(s) verified in {elapsed:.1f}s: "
          f"{checked} gates checked, {findings} finding(s)"
          f"{_cache_note(session)}]\n")
    _export(sweep.rows(), args.export)
    return 1 if bad else 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_comparison
    from repro.api import CompileJob
    from repro.workloads.registry import benchmark_overrides

    session = _session(args)
    policies = tuple(args.policies or ["square"])
    machine = _machine_spec(args)
    overrides = benchmark_overrides(args.benchmark, args.scale)
    sweep = session.run([
        CompileJob.for_benchmark(args.benchmark, machine, policy,
                                 overrides=overrides)
        for policy in policies
    ])
    # Same row schema as `sweep`, so --export output from the two
    # commands concatenates and diffs cleanly.
    rows = sweep.rows()
    print(format_comparison(
        f"compile {args.benchmark} under {', '.join(policies)}", rows)
        + f"\n[{len(sweep)} jobs, {sweep.cache_hits} cache hits"
        f"{_cache_note(session)}]\n")
    _export(rows, args.export)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile fresh in-process compiles of the named benchmarks."""
    from repro.profile import profile_benchmarks

    benchmarks = tuple(args.benchmarks) or tuple(benchmark_names())
    policies = tuple(args.policies or ["square"])
    started = time.perf_counter()
    report = profile_benchmarks(benchmarks, _machine_spec(args),
                                policies=policies, scale=args.scale)
    elapsed = time.perf_counter() - started
    title = (f"Compile-path profile: {len(benchmarks)} benchmark(s) x "
             f"{len(policies)} policy(ies) at scale {args.scale}")
    print(report.table(title)
          + f"[{len(report)} fresh compile(s) profiled in "
          f"{elapsed:.1f}s]\n")
    _export(report.hotspots(), args.export)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    serve(args.host, args.port, jobs=args.jobs,
          cache_dir=args.cache_dir,
          cache_max_bytes=args.cache_max_bytes,
          workers=args.workers, queue_size=args.queue_size,
          tenants=args.tenants, store_dir=args.store_dir,
          burst_half_life=args.burst_half_life,
          verify=args.verify, log_path=args.log_path)
    return 0


def _cmd_cluster_sweep(args: argparse.Namespace) -> int:
    """Shard a sweep across the given service endpoints, streaming
    per-job progress lines as workers finish jobs."""
    from repro.cluster import FleetExecutor
    from repro.core.result import JobFailure

    spec = _sweep_spec(args)
    total = len(spec)
    arrived = []

    def progress(job, outcome) -> None:
        arrived.append(job)
        status = (f"FAILED ({outcome.error_type})"
                  if isinstance(outcome, JobFailure) else "ok")
        print(f"  [{len(arrived)}/{total}] {job.program_label} / "
              f"{job.policy_label}: {status}", flush=True)

    fleet = FleetExecutor(args.endpoint, api_key=args.api_key,
                          on_outcome=progress)
    # Announced up front so `trace` can fetch the waterfall mid-flight
    # (every shard of this sweep carries this one id).
    print(f"[trace id: {fleet.trace_id}]", flush=True)
    started = time.perf_counter()
    sweep = Session(fleet, isolate_failures=True).run(spec)
    elapsed = time.perf_counter() - started
    stats = fleet.stats()
    title = (f"Cluster sweep: {len(spec.benchmarks)} benchmark(s) x "
             f"{len(spec.policies)} policy(ies) at scale {args.scale} "
             f"across {stats['topology']['registered']} worker(s)")
    print(sweep.table(title)
          + f"\n[{len(sweep)} jobs completed in {elapsed:.1f}s, "
          f"{stats['rounds_run']} dispatch round(s), "
          f"{stats['redispatched_jobs']} re-dispatched, "
          f"{stats['topology']['alive']} worker(s) alive]\n")
    _export(sweep.rows(), args.export)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Search the policy/config space for the given benchmarks."""
    from repro.exceptions import TunerError
    from repro.tuner import (
        GridSearch,
        MultiObjective,
        RandomSearch,
        SearchSpace,
        SuccessiveHalving,
        TuningRun,
    )

    scales = tuple(args.scales or ("quick", "laptop"))
    if args.strategy == "grid":
        strategy = GridSearch(scale=scales[-1])
    elif args.strategy == "random":
        strategy = RandomSearch(trials=8 if args.trials is None
                                else args.trials,
                                seed=args.seed, scale=scales[-1])
    else:
        strategy = SuccessiveHalving(scales=scales, trials=args.trials,
                                     seed=args.seed)
    if args.endpoint:
        from repro.cluster import FleetExecutor

        session = Session(FleetExecutor(args.endpoint, api_key=args.api_key),
                          cache_dir=args.cache_dir)
        backend_label = f"{len(args.endpoint)}-worker cluster"
    else:
        session = _session(args)
        backend_label = "local session"

    def progress(record: dict) -> None:
        status = "ok" if record["ok"] else \
            f"FAILED ({record['error']['error_type']})"
        knobs = ",".join(f"{k}={v}" for k, v
                         in sorted(record["candidate"].items()))
        print(f"  [{record['benchmark']} @{record['scale']}] "
              f"{knobs}: {status}", flush=True)

    run = TuningRun(
        SearchSpace.policy_space(),
        MultiObjective(*(args.objective or ["aqv"])),
        strategy,
        args.benchmarks,
        machine=_machine_spec(args),
        session=session,
        on_trial=progress,
    )
    started = time.perf_counter()
    report = run.run()
    elapsed = time.perf_counter() - started
    stats = run.stats()
    try:
        best = report.best_config()
    except TunerError:
        # Per-trial failure is a structured outcome, not a crash: the
        # leaderboard (with its error column) is still worth printing.
        best = None
    title = (f"Tuning leaderboard: {len(args.benchmarks)} benchmark(s), "
             f"{args.strategy} over {len(run.space)} candidate(s) "
             f"via {backend_label}")
    text = (report.table(title)
            + f"\n[{stats['cache_misses']} compiled, "
            f"{stats['trials_deduped']} deduped, "
            f"{stats['disk_hits']} from the disk cache "
            f"in {elapsed:.1f}s]\n")
    if best is None:
        text += ("best config: none — every candidate failed "
                 "(see the error column above)\n")
    else:
        text += f"best config: {best}\n"
    if args.export_best:
        if best is None:
            raise SystemExit("cannot export a best config: every "
                             "candidate failed")
        import json as _json

        with open(args.export_best, "w", encoding="utf-8") as stream:
            stream.write(_json.dumps(best, indent=1, sort_keys=True))
        text += f"[best config exported to {args.export_best}]\n"
    if args.export:
        if args.export.lower().endswith(".json"):
            report.to_json(args.export)
        else:
            from repro.analysis.report import export_rows

            export_rows(report.leaderboard_rows(), path=args.export)
        text += f"[leaderboard exported to {args.export}]\n"
    print(text)
    return 0


def _cmd_cluster_stats(args: argparse.Namespace) -> int:
    """Aggregate `/stats` across a fleet of compile servers."""
    from repro.analysis.report import format_comparison
    from repro.cluster import ClusterTopology

    stats = ClusterTopology(args.endpoint,
                            api_key=args.api_key).fleet_stats()
    columns = ("worker", "up", "queue", "busy", "jobs_run", "failures",
               "cache_hits", "cache_misses", "disk_hits", "disk_entries",
               "evictions", "orphans")

    def row(label: str, up: str, source: dict) -> dict:
        return {
            "worker": label,
            "up": up,
            "queue": f"{source.get('queue_depth', 0)}/"
                     f"{source.get('queue_capacity', 0)}",
            "busy": f"{source.get('busy_workers', 0)}/"
                    f"{source.get('workers', 0)}",
            "jobs_run": source.get("jobs_run", 0),
            "failures": source.get("job_failures", 0),
            "cache_hits": source.get("cache_hits", 0),
            "cache_misses": source.get("cache_misses", 0),
            "disk_hits": source.get("disk_hits", 0),
            "disk_entries": source.get("disk_entries", 0),
            "evictions": source.get("disk_evictions", 0),
            "orphans": source.get("disk_orphans", 0),
        }

    rows = []
    for worker in stats["workers"]:
        if worker.get("reachable"):
            rows.append(row(worker["url"], "yes", worker))
        else:
            rows.append(dict.fromkeys(columns, "")
                        | {"worker": worker["url"], "up": "DOWN"})
    rows.append(row("FLEET TOTAL", "", stats["fleet"]))
    title = (f"Cluster stats: {stats['reachable']}/{stats['registered']} "
             f"worker(s) reachable")
    text = format_comparison(title, rows, columns=list(columns))
    down = [worker for worker in stats["workers"]
            if not worker.get("reachable")]
    for worker in down:
        text += f"[{worker['url']} unreachable: {worker['error']}]\n"
    print(text)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape `/metrics` from one server, or a merged fleet exposition.

    One ``--endpoint`` prints the worker's exposition verbatim (pipe it
    straight into promtool or a file_sd scrape); several endpoints
    print :meth:`~repro.cluster.ClusterTopology.fleet_metrics` — every
    sample gains a ``worker`` label plus a synthesized
    ``repro_worker_up`` gauge per endpoint.  No print()-added newline:
    the exposition already ends with exactly one.
    """
    if len(args.endpoint) == 1:
        from repro.service.client import ServiceClient

        text = ServiceClient(args.endpoint[0],
                             api_key=args.api_key).metrics_text()
    else:
        from repro.cluster import ClusterTopology

        text = ClusterTopology(args.endpoint,
                               api_key=args.api_key).fleet_metrics()
    sys.stdout.write(text)
    return 0


def _report_unreachable(payload: dict) -> None:
    for url, worker in sorted(payload.get("workers", {}).items()):
        if not worker.get("reachable"):
            print(f"[{url} unreachable: {worker.get('error')}]", flush=True)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Fetch one trace's spans + events and render the ASCII waterfall.

    One ``--endpoint`` renders that worker's view of the trace; several
    render :meth:`~repro.cluster.ClusterTopology.fleet_trace` — the
    merged fleet view, each span labelled with the worker that recorded
    it — which is the full waterfall of a ``cluster-sweep`` (its trace
    id is printed when the sweep starts).  Log events carrying the same
    trace id interleave into the waterfall as ``*`` markers.  A trace
    id no endpoint knows (no spans *and* no events) exits non-zero.
    """
    from repro.exceptions import ServiceError
    from repro.telemetry import render_waterfall

    trace_id = args.trace_id
    if len(args.endpoint) == 1:
        from repro.service.client import ServiceClient

        client = ServiceClient(args.endpoint[0], api_key=args.api_key)
        spans = client.trace(trace_id).get("spans") or []
        try:
            events = client.logs(trace_id).get("events") or []
        except ServiceError:
            events = []  # a pre-/logs server still renders its spans
    else:
        from repro.cluster import ClusterTopology

        topology = ClusterTopology(args.endpoint, api_key=args.api_key)
        payload = topology.fleet_trace(trace_id)
        spans = payload.get("spans") or []
        _report_unreachable(payload)
        events = topology.fleet_logs(trace_id).get("events") or []
    if not spans and not events:
        print(f"[trace {trace_id}: no spans or events recorded on any "
              f"endpoint]", file=sys.stderr)
        return 1
    sys.stdout.write(render_waterfall(spans, events=events))
    return 0


def _cmd_logs(args: argparse.Namespace) -> int:
    """Fetch structured log events from one server or a merged fleet.

    One ``--endpoint`` queries that worker's ``GET /logs``; several
    merge :meth:`~repro.cluster.ClusterTopology.fleet_logs` — each
    event tagged with the worker it came from, deduplicated on
    ``(worker, event_id)``, in deterministic ``(ts, event_id)`` order.
    With ``--trace`` the query is scoped to one trace id and exits
    non-zero when no endpoint has events for it.
    """
    from repro.telemetry import LogEvent, format_event

    # --trace omitted means "across all traces" (the server treats an
    # empty trace filter as a wildcard, unlike the client's default of
    # its own minted id).
    trace = args.trace if args.trace is not None else ""
    filters = {"tenant": args.tenant, "level": args.level,
               "since": args.since, "limit": args.limit}
    if len(args.endpoint) == 1:
        from repro.service.client import ServiceClient

        payload = ServiceClient(args.endpoint[0],
                                api_key=args.api_key).logs(trace, **filters)
    else:
        from repro.cluster import ClusterTopology

        payload = ClusterTopology(args.endpoint,
                                  api_key=args.api_key).fleet_logs(
                                      trace, **filters)
        _report_unreachable(payload)
    events = payload.get("events") or []
    if not events:
        scope = f"trace {args.trace}" if args.trace else "the given filters"
        print(f"[no log events recorded for {scope} on any endpoint]",
              file=sys.stderr)
        return 1 if args.trace else 0
    lines = []
    for record in events:
        line = format_event(LogEvent.from_dict(record))
        worker = record.get("worker")
        if worker:
            line += f" worker={worker}"
        lines.append(line)
    sys.stdout.write("\n".join(lines) + f"\n[{len(events)} event(s)]\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """The benchmark-trajectory commands: list, compare, trend.

    ``list`` surveys the history journal; ``compare`` gates the current
    ``BENCH_<suite>.json`` against a baseline (default: the newest
    committed history record) and exits non-zero on any regression;
    ``trend`` tabulates a suite's metric trajectory across history.
    """
    from repro import bench
    from repro.analysis.report import format_comparison
    from repro.exceptions import BenchError

    history = args.history or bench.HISTORY_DIR
    if args.action == "list":
        rows = []
        for suite in bench.list_suites(history):
            journal = bench.read_history(history, suite)
            records = journal["records"]
            rows.append({
                "suite": suite,
                "runs": len(records),
                "torn": journal["torn_lines"],
                "latest": records[-1]["generated_at"] if records else "-",
            })
        if not rows:
            sys.stdout.write(f"[no bench history under {history}]\n")
            return 0
        sys.stdout.write(format_comparison(
            f"bench history: {len(rows)} suite(s) under {history}", rows,
            columns=["suite", "runs", "torn", "latest"]))
        return 0
    if not args.suite:
        raise SystemExit(f"bench {args.action} needs --suite, e.g. "
                         f"`python -m repro.experiments bench {args.action} "
                         f"--suite telemetry`")
    if args.action == "trend":
        journal = bench.read_history(history, args.suite)
        text = bench.render_trend(args.suite, journal["records"],
                                  metrics=args.metric)
        if journal["torn_lines"]:
            text += f"[{journal['torn_lines']} torn line(s) skipped]\n"
        sys.stdout.write(text)
        return 0
    # compare: current snapshot vs the newest history record (or an
    # explicit --baseline snapshot).
    current_path = args.bench_file or f"BENCH_{args.suite}.json"
    try:
        current = bench.load_bench(current_path)
        if args.baseline:
            baseline = bench.load_bench(args.baseline)
        else:
            records = bench.read_history(history, args.suite)["records"]
            if not records:
                raise BenchError(
                    f"no baseline: history journal "
                    f"{bench.history_path(history, args.suite)} is empty "
                    f"(pass --baseline or seed the journal)")
            baseline = records[-1]
        report = bench.compare(baseline, current)
    except BenchError as error:
        print(f"[bench compare failed: {error}]", file=sys.stderr)
        return 2
    sys.stdout.write(bench.render_compare(report))
    return 0 if report["ok"] else 1


def _count(minimum: int):
    """An argparse type for integer counts of at least ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return count


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: a flag group several commands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _fleet_flags(required: bool) -> argparse.ArgumentParser:
    """``--endpoint`` (repeatable) and ``--api-key`` for fleet commands."""
    fleet = _flags()
    fleet.add_argument("--endpoint", action="append", metavar="URL",
                       required=required,
                       help="compile-server URL; repeat for each worker "
                            "in the fleet")
    fleet.add_argument("--api-key", metavar="KEY",
                       help="tenant API key sent as X-Repro-Key")
    return fleet


def _build_parser():
    """The CLI parser and its subcommand action (one per command)."""
    local = _flags()
    local.add_argument("--jobs", type=_count(1), default=1, metavar="N",
                       help="worker processes for compilation (1 = serial)")
    local.add_argument("--cache-dir", metavar="DIR",
                       help="persistent result cache directory; repeated "
                            "jobs are served from disk across runs")
    export = _flags()
    export.add_argument("--export", metavar="PATH",
                        help="write result rows to PATH (.json or .csv)")
    scale = _flags()
    scale.add_argument("--scale", default="laptop", choices=list(SCALES),
                       help="benchmark size scale for the large benchmarks")
    machine = _flags()
    machine.add_argument("--machine", default="nisq",
                         choices=["nisq", "nisq-full", "ft", "ideal"],
                         help="machine kind")
    machine.add_argument("--machine-qubits", type=_count(1), metavar="N",
                         help="fixed machine size (default: autosize)")
    machine.add_argument("--grid", nargs=2, type=int,
                         metavar=("ROWS", "COLS"),
                         help="explicit lattice dimensions (nisq, ft)")
    machine.add_argument("--start-qubits", type=int, default=64,
                         metavar="N",
                         help="initial machine size when autosizing")
    sweep = _flags(machine, scale)
    sweep.add_argument("--policies", "--policy", nargs="+", metavar="POLICY",
                      help="policy presets (default: "
                           f"{' '.join(DEFAULT_POLICIES)}; square for "
                           "`compile` and `profile`)")
    fleet = _fleet_flags(required=True)

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figures of the SQUARE paper, "
                    "or run ad-hoc sweeps, through the repro.api service. "
                    "`<command> --help` lists the flags of one command.",
    )
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    def command(name: str, func, summary: str, parents=(), **kwargs):
        sub = commands.add_parser(name, help=summary, description=summary,
                                  parents=list(parents), allow_abbrev=False,
                                  **kwargs)
        sub.set_defaults(func=func)
        return sub

    for name in sorted(EXPERIMENTS) + ["all"]:
        sub = command(name, _cmd_experiments,
                      "regenerate every table and figure" if name == "all"
                      else f"regenerate {name} of the paper",
                      (local, scale, export))
        if name in ("figure8c", "all"):
            sub.add_argument("--shots", type=_count(1), default=2048,
                             help="shots for the noise-simulation experiment")

    benchmarks = {"nargs": "*", "metavar": "BENCHMARK",
                  "help": "registered benchmark names (default: all)"}
    command("sweep", _cmd_sweep, "compile a benchmark x policy sweep",
            (local, sweep, export)).add_argument("benchmarks", **benchmarks)
    command("compile", _cmd_compile, "compile one benchmark",
            (local, sweep, export)).add_argument("benchmark")
    command("verify", _cmd_verify,
            "compile and statically verify a sweep (non-zero exit on "
            "findings)",
            (local, sweep, export)).add_argument("benchmarks", **benchmarks)
    command("profile", _cmd_profile,
            "profile fresh in-process compiles per phase",
            (sweep, export)).add_argument("benchmarks", **benchmarks)

    serve = command("serve", _cmd_serve, "expose a session over HTTP",
                    (local,))
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                       help="bind address")
    serve.add_argument("--port", type=int, default=8731, metavar="PORT",
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--workers", type=_count(1), default=2, metavar="N",
                       help="worker threads draining the job queue")
    serve.add_argument("--queue-size", type=_count(1), default=64,
                       metavar="N",
                       help="job queue capacity before submissions get a "
                            "503 back-pressure error")
    serve.add_argument("--cache-max-bytes", type=int, metavar="BYTES",
                       help="disk cache size cap; overflow evicts "
                            "least-recently-used results")
    serve.add_argument("--tenants", metavar="PATH",
                       help="tenant registry JSON file (API keys, roles, "
                            "quotas); keyless requests map to the "
                            "anonymous tenant")
    serve.add_argument("--store-dir", metavar="DIR",
                       help="durable job-journal directory; restarting on "
                            "the same directory resumes queued work and "
                            "re-serves finished results")
    serve.add_argument("--burst-half-life", type=float, metavar="SECONDS",
                       help="fair-share burst-score half-life (default 30; "
                            "lower forgives floods faster)")
    serve.add_argument("--verify", action="store_true",
                       help="run the static compilation verifier over "
                            "every result (job payloads carry the "
                            "verification report)")
    serve.add_argument("--log-path", metavar="PATH",
                       help="rotating JSONL event-log sink (the in-memory "
                            "ring and GET /logs work either way)")

    command("cluster-sweep", _cmd_cluster_sweep,
            "shard a sweep across running servers",
            (sweep, fleet, export)).add_argument("benchmarks", **benchmarks)

    tune = command("tune", _cmd_tune,
                   "search every allocation x reclamation pair",
                   (machine, local, _fleet_flags(required=False), export))
    tune.add_argument("benchmarks", nargs="+", metavar="BENCHMARK")
    tune.add_argument("--strategy", default="halving",
                      choices=["halving", "grid", "random"],
                      help="search strategy (halving races candidates up "
                           "the --scales ladder)")
    tune.add_argument("--trials", type=_count(1), metavar="N",
                      help="candidate sample size (default: the full "
                           "policy grid)")
    tune.add_argument("--seed", type=int, default=0, metavar="S",
                      help="seed for candidate sampling")
    tune.add_argument("--objective", action="append", metavar="OBJ",
                      help="tuning objective(s), e.g. `aqv`, `max:gates`, "
                           "`qubits*2` (default: aqv); repeat for "
                           "multi-objective Pareto runs")
    tune.add_argument("--scales", nargs="+", metavar="SCALE",
                      help="benchmark scale ladder (default: quick laptop)")
    tune.add_argument("--export-best", metavar="PATH",
                      help="write the winning preset-compatible config "
                           "dict to PATH")

    command("cluster-stats", _cmd_cluster_stats,
            "aggregate /stats across a fleet", (fleet,))
    command("metrics", _cmd_metrics,
            "scrape the Prometheus exposition of one server or a fleet",
            (fleet,))
    command("trace", _cmd_trace,
            "render a trace id's span waterfall, log events interleaved",
            (fleet,)).add_argument("trace_id", metavar="ID")
    logs = command("logs", _cmd_logs,
                   "query structured log events from one server or a fleet",
                   (fleet,))
    logs.add_argument("--trace", metavar="ID",
                      help="trace-id filter (omit to query events across "
                           "all traces)")
    logs.add_argument("--level", metavar="LEVEL",
                      help="minimum severity: DEBUG, INFO, WARNING or ERROR")
    logs.add_argument("--tenant", metavar="NAME", help="tenant-name filter")
    logs.add_argument("--since", type=float, metavar="TS",
                      help="only events after this wall-clock unix "
                           "timestamp")
    logs.add_argument("--limit", type=_count(0), metavar="N",
                      help="keep only the newest N events")

    bench = command("bench", _cmd_bench,
                    "list/compare/trend the BENCH_*.json trajectory "
                    "(compare exits non-zero on a regression)",
                    usage="%(prog)s {list,compare,trend} [options] "
                          "(exactly one action)")
    bench.add_argument("action", choices=["list", "compare", "trend"])
    bench.add_argument("--suite", metavar="NAME",
                       help="benchmark suite for compare / trend, e.g. "
                            "telemetry")
    bench.add_argument("--baseline", metavar="PATH",
                       help="baseline snapshot for compare (default: the "
                            "newest history record)")
    bench.add_argument("--bench-file", metavar="PATH",
                       help="current snapshot for compare (default: "
                            "BENCH_<suite>.json)")
    bench.add_argument("--history", metavar="DIR",
                       help="bench history journal directory (default: "
                            "bench_history)")
    bench.add_argument("--metric", action="append", metavar="NAME",
                       help="dotted metric name(s) for trend; repeat for "
                            "several columns")
    return parser, commands


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a command line; usage errors exit 2 before any work runs."""
    parser, commands = _build_parser()
    args, stray = parser.parse_known_args(argv)
    # Stray arguments are reported against the command's own usage line.
    command = commands.choices[args.command]
    if stray:
        command.error(f"unrecognized arguments: {' '.join(stray)}")
    if args.command == "tune":
        if args.trials is not None and args.strategy == "grid":
            command.error("--trials does not apply to --strategy grid "
                          "(the grid is exhaustive); use random or "
                          "halving to cap the candidate count")
        if args.endpoint and args.jobs != 1:
            command.error("--jobs does not apply to a cluster `tune`; "
                          "compilation happens on the servers")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
