"""Tests for repro.tuner: spaces, objectives, strategies, runs, reports.

Covers four layers:

* the declarative pieces — deterministic space expansion (grid and
  seeded sample), objective parsing/scalarization/Pareto dominance,
  and strategy round-planning (including successive-halving promotion
  and failed-candidate elimination);
* the :class:`~repro.tuner.TuningRun` driver against a local session —
  fingerprint dedup across racing rounds, mixed success/failure
  candidates, byte-identical determinism of repeated seeded runs;
* resume through the session's disk cache — a killed run resumed on
  the same ``cache_dir`` recompiles no trial that succeeded (proved by
  cache accounting), and a failed trial compiles again and still sinks;
* a session over a 2-server fleet executor, and the ``tune`` CLI
  command.
"""

import json
import math
import threading

import pytest

from repro.exceptions import TunerError
from repro.api import MachineSpec, Session
from repro.cluster import ClusterTopology, FleetExecutor, assign_endpoint
from repro.core.compiler import POLICY_PRESETS, preset
from repro.service import make_server
from repro.tuner import (
    CandidateEvaluation,
    Choice,
    FloatRange,
    GridSearch,
    IntRange,
    MultiObjective,
    Objective,
    RandomSearch,
    Round,
    RoundResult,
    SearchSpace,
    SuccessiveHalving,
    TUNER_METRICS,
    TuningReport,
    TuningRun,
    candidate_key,
    candidate_label,
    metric_values,
)
from repro.tuner.strategies import rank_candidates

GRID = MachineSpec.nisq_grid(5, 5)

#: The compact space most runner tests search: 2 x 2 policy pairs.
SMALL_SPACE = SearchSpace(
    Choice("allocation", ("laa", "lifo")),
    Choice("reclamation", ("cer", "lazy")),
)


def small_run(benchmarks=("RD53", "ADDER4"), *, space=SMALL_SPACE,
              objective="aqv", strategy=None, machine=GRID, **kwargs):
    """A fast two-round halving run over the small policy space."""
    strategy = strategy or SuccessiveHalving(scales=("quick", "laptop"))
    return TuningRun(space, objective, strategy, benchmarks,
                     machine=machine, **kwargs)


#: max_qubits=4 cannot hold RD53 on a 5x5 grid: that candidate fails
#: with ResourceExhaustedError while its sibling succeeds.
FAILING_SPACE = SearchSpace(Choice("max_qubits", (4, None)))


def failing_run(**kwargs):
    """A halving run over RD53 in which one of two candidates fails."""
    return TuningRun(FAILING_SPACE, "aqv",
                     SuccessiveHalving(scales=("quick", "laptop")),
                     ["RD53"], machine=GRID, **kwargs)


# ----------------------------------------------------------------------
# Search spaces
# ----------------------------------------------------------------------
class TestSearchSpace:
    def test_grid_is_cartesian_in_declaration_order(self):
        space = SearchSpace(Choice("allocation", ("laa", "lifo")),
                            Choice("reclamation", ("cer", "eager")))
        assert space.grid() == [
            {"allocation": "laa", "reclamation": "cer"},
            {"allocation": "laa", "reclamation": "eager"},
            {"allocation": "lifo", "reclamation": "cer"},
            {"allocation": "lifo", "reclamation": "eager"},
        ]
        assert space.size() == len(space) == 4

    def test_int_and_float_ranges(self):
        assert IntRange("max_qubits", 2, 8, step=3).grid_values() == (2, 5, 8)
        assert FloatRange("max_qubits", 0.0, 1.0,
                          steps=3).grid_values() == (0.0, 0.5, 1.0)
        assert FloatRange("max_qubits", 2.0, 9.0,
                          steps=1).grid_values() == (2.0,)

    def test_sample_is_seeded_and_without_replacement(self):
        space = SearchSpace(Choice("allocation", ("laa", "lifo")),
                            Choice("reclamation", ("cer", "eager", "lazy")))
        first = space.sample(4, seed=11)
        assert first == space.sample(4, seed=11)
        assert len(first) == 4
        keys = [candidate_key(candidate) for candidate in first]
        assert len(set(keys)) == 4, "sampling is without replacement"

    def test_sample_beyond_size_returns_shuffled_grid(self):
        space = SearchSpace(Choice("reclamation", ("cer", "eager", "lazy")))
        everything = space.sample(99, seed=3)
        assert sorted(map(candidate_key, everything)) == \
            sorted(map(candidate_key, space.grid()))

    def test_policy_space_reflects_registries(self):
        space = SearchSpace.policy_space()
        names = {param.name for param in space.params}
        assert names == {"allocation", "reclamation"}
        labels = {candidate_label(candidate) for candidate in space.grid()}
        assert "allocation=laa,reclamation=cer" in labels
        assert space.size() >= 6

    def test_config_for_overlays_base_and_clears_label(self):
        space = SearchSpace(Choice("allocation", ("lifo",)), base="square")
        config = space.config_for({"allocation": "lifo"})
        assert config.allocation == "lifo"
        assert config.reclamation == POLICY_PRESETS["square"].reclamation
        assert config.policy_name == "lifo+cer", \
            "the base preset's label must not shadow the candidate"

    def test_validation_errors(self):
        with pytest.raises(TunerError, match="at least one parameter"):
            SearchSpace()
        with pytest.raises(TunerError, match="not a CompilerConfig"):
            SearchSpace(Choice("swap_budget", (1, 2)))
        with pytest.raises(TunerError, match="appears twice"):
            SearchSpace(Choice("allocation", ("laa",)),
                        Choice("allocation", ("lifo",)))
        with pytest.raises(TunerError, match="no values"):
            Choice("allocation", ())
        with pytest.raises(TunerError, match="repeats a value"):
            Choice("allocation", ("laa", "laa"))
        with pytest.raises(TunerError, match="empty range"):
            IntRange("max_qubits", 9, 2)
        with pytest.raises(TunerError, match="unknown base preset"):
            SearchSpace(Choice("allocation", ("laa",)), base="bogus")
        with pytest.raises(TunerError, match="outside the space"):
            SMALL_SPACE.config_for({"decompose_toffoli": True})
        with pytest.raises(TunerError, match="sample size"):
            SMALL_SPACE.sample(0)


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------
class TestObjective:
    def test_parse_shorthand_forms(self):
        assert Objective.parse("aqv") == Objective("aqv")
        assert Objective.parse("max:aqv") == Objective("aqv", goal="max")
        assert Objective.parse("gates*2") == Objective("gates", weight=2.0)
        assert Objective.parse("max:qubits*0.5") == \
            Objective("qubits", goal="max", weight=0.5)

    def test_invalid_specs(self):
        with pytest.raises(TunerError, match="unknown objective metric"):
            Objective("speed")
        with pytest.raises(TunerError, match="min.*max"):
            Objective("aqv", goal="up")
        with pytest.raises(TunerError, match="weight"):
            Objective("aqv", weight=0)
        with pytest.raises(TunerError, match="non-numeric weight"):
            Objective.parse("aqv*fast")
        with pytest.raises(TunerError, match="at least one objective"):
            MultiObjective()
        with pytest.raises(TunerError, match="repeat a metric"):
            MultiObjective("aqv", "max:aqv")

    def test_scalarize_orients_and_weights(self):
        objective = MultiObjective(Objective("gates", weight=2.0),
                                  Objective("qubits", goal="max"))
        assert objective.scalarize({"gates": 10, "qubits": 4}) == 16.0
        with pytest.raises(TunerError, match="missing objective metric"):
            objective.scalarize({"gates": 10})

    def test_metric_values_cover_tuner_metrics_and_are_deterministic(self):
        result = Session().compile("RD53", machine=GRID, policy="square")
        values = metric_values(result)
        assert set(values) == set(TUNER_METRICS)
        assert values["total_gates"] == result.total_gate_count
        assert "compile_seconds" not in values, \
            "wall-clock must never leak into scores"

    def test_pareto_front_and_dominance(self):
        objective = MultiObjective("gates", "qubits")
        a = {"gates": 1, "qubits": 9}
        b = {"gates": 9, "qubits": 1}
        c = {"gates": 9, "qubits": 9}   # dominated by both
        d = {"gates": 1, "qubits": 9}   # duplicate of a
        assert objective.dominates(a, c) and objective.dominates(b, c)
        assert not objective.dominates(a, b)
        assert not objective.dominates(a, d), "equal points never dominate"
        assert objective.pareto_front([a, b, c, d]) == \
            [True, True, False, True]

    def test_max_goal_flips_dominance(self):
        objective = MultiObjective(Objective("aqv", goal="max"))
        assert objective.dominates({"aqv": 9}, {"aqv": 1})
        assert objective.scalarize({"aqv": 9}) < \
            objective.scalarize({"aqv": 1})


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
class TestStrategies:
    def test_grid_search_is_one_full_round(self):
        strategy = GridSearch(scale="quick")
        round_ = strategy.first_round(SMALL_SPACE)
        assert round_.scale == "quick" and len(round_) == 4
        assert strategy.next_round(SMALL_SPACE, round_, []) is None

    def test_random_search_samples_with_seed(self):
        strategy = RandomSearch(trials=3, seed=5, scale="quick")
        round_ = strategy.first_round(SMALL_SPACE)
        again = RandomSearch(trials=3, seed=5,
                             scale="quick").first_round(SMALL_SPACE)
        assert round_.candidates == again.candidates
        assert len(round_) == 3
        assert strategy.next_round(SMALL_SPACE, round_, []) is None

    def test_halving_promotes_best_fraction_up_the_ladder(self):
        strategy = SuccessiveHalving(scales=("quick", "laptop"), eta=2.0)
        first = strategy.first_round(SMALL_SPACE)
        assert first.scale == "quick" and len(first) == 4
        scored = [(candidate, float(index))
                  for index, candidate in enumerate(first.candidates)]
        second = strategy.next_round(SMALL_SPACE, first, scored)
        assert second.scale == "laptop" and second.number == 1
        assert list(second.candidates) == list(first.candidates[:2])
        assert strategy.next_round(SMALL_SPACE, second, scored[:2]) is None

    def test_halving_never_promotes_failed_candidates(self):
        strategy = SuccessiveHalving(scales=("quick", "laptop"), eta=2.0)
        first = strategy.first_round(SMALL_SPACE)
        scored = [(candidate, math.inf if index < 3 else 1.0)
                  for index, candidate in enumerate(first.candidates)]
        second = strategy.next_round(SMALL_SPACE, first, scored)
        assert list(second.candidates) == [first.candidates[3]]
        all_failed = [(candidate, math.inf)
                      for candidate in first.candidates]
        assert strategy.next_round(SMALL_SPACE, first, all_failed) is None

    def test_rank_candidates_breaks_ties_deterministically(self):
        tied = [({"allocation": "lifo"}, 1.0), ({"allocation": "laa"}, 1.0)]
        ranked = rank_candidates(tied)
        assert ranked == rank_candidates(list(reversed(tied)))
        assert ranked[0][0] == {"allocation": "laa"}

    def test_validation_errors(self):
        with pytest.raises(TunerError, match="unknown benchmark scale"):
            GridSearch(scale="huge")
        with pytest.raises(TunerError, match="trials"):
            RandomSearch(trials=0)
        with pytest.raises(TunerError, match="at least one scale"):
            SuccessiveHalving(scales=())
        with pytest.raises(TunerError, match="eta"):
            SuccessiveHalving(eta=1.0)
        with pytest.raises(TunerError, match="min_survivors"):
            SuccessiveHalving(min_survivors=0)


# ----------------------------------------------------------------------
# TuningRun against a local session
# ----------------------------------------------------------------------
class TestTuningRunLocal:
    def test_run_ranks_and_exports_a_preset_compatible_winner(self):
        run = small_run(session=Session())
        report = run.run()
        assert len(report.standings) == 4
        best = report.best_config()
        config = preset("square", **best)
        assert config.allocation == best["allocation"]
        assert config.reclamation == best["reclamation"]
        scores = [e.score for e in report.standings
                  if e.round_number == report.final_round.number]
        assert scores == sorted(scores), "survivors rank by score"

    def test_fingerprint_dedup_across_racing_rounds(self):
        # RD53/ADDER4 have no scale overrides, so promotion to laptop
        # re-uses the quick-round fingerprints: round two must compile
        # nothing new.
        session = Session()
        run = small_run(session=session)
        run.run()
        assert run.trials_executed == 8          # 4 candidates x 2 marks
        assert run.trials_deduped == 4           # 2 survivors x 2 marks
        assert session.cache_misses == run.trials_executed

    def test_seeded_run_is_deterministic_byte_for_byte(self):
        strategy = lambda: SuccessiveHalving(scales=("quick", "laptop"),
                                             trials=3, seed=9)
        first = small_run(strategy=strategy(), session=Session()).run()
        second = small_run(strategy=strategy(), session=Session()).run()
        assert first.to_json() == second.to_json()

    def test_failing_candidates_sink_and_are_not_promoted(self):
        report = failing_run(session=Session()).run()
        standings = report.standings
        assert [e.ok for e in standings] == [True, False]
        assert standings[0].candidate == {"max_qubits": None}
        assert standings[-1].score is None
        rows = report.leaderboard_rows()
        assert "ResourceExhaustedError" in rows[-1]["error"]
        assert rows[0]["error"] == ""
        assert report.pareto_mask() == [True, False]
        assert report.best_config() == {"max_qubits": None}

    def test_every_candidate_failing_raises_on_best(self):
        run = TuningRun(SMALL_SPACE, "aqv", GridSearch(scale="quick"),
                        ["RD53"], machine=MachineSpec.nisq(2),
                        session=Session())
        report = run.run()
        assert not any(e.ok for e in report.standings)
        with pytest.raises(TunerError, match="every candidate failed"):
            report.best()

    def test_multi_objective_pareto_flags_in_report(self):
        report = small_run(objective=MultiObjective("gates", "qubits"),
                           session=Session()).run()
        mask = report.pareto_mask()
        final = report.final_round.number
        assert any(mask), "someone is always on the front"
        for evaluation, on_front in zip(report.standings, mask):
            if evaluation.round_number != final:
                assert not on_front, "eliminated candidates never flag"

    def test_on_trial_fires_once_per_executed_trial(self):
        seen = []
        run = small_run(session=Session(), on_trial=seen.append)
        run.run()
        assert len(seen) == run.trials_executed
        assert all(record["ok"] for record in seen)
        assert {record["benchmark"] for record in seen} == \
            {"RD53", "ADDER4"}

    def test_constructor_validation(self):
        with pytest.raises(TunerError, match="at least one benchmark"):
            small_run(benchmarks=())
        with pytest.raises(TunerError, match="is not a Session"):
            TuningRun(SMALL_SPACE, "aqv", GridSearch(scale="quick"),
                      ["RD53"], session=object())

    def test_session_entry_count_mismatch_raises(self):
        class Broken(Session):
            def run(self, jobs, *, isolate_failures=None):
                return []

        run = small_run(session=Broken())
        with pytest.raises(TunerError, match="returned 0 entries"):
            run.run()


# ----------------------------------------------------------------------
# Resume through the session's disk cache
# ----------------------------------------------------------------------
class KilledMidRun(Exception):
    pass


class TestCacheDirResume:
    @staticmethod
    def killed_after(n, cache_dir):
        """Run until ``n`` trials came back, then 'crash'."""
        def killer(record):
            killer.count += 1
            if killer.count >= n:
                raise KilledMidRun()
        killer.count = 0
        run = small_run(session=Session(cache_dir=cache_dir),
                        on_trial=killer)
        with pytest.raises(KilledMidRun):
            run.run()
        return run

    def test_killed_run_resumes_without_recompiling(self, tmp_path):
        reference = small_run(session=Session()).run()
        self.killed_after(3, tmp_path)
        session = Session(cache_dir=tmp_path)
        resumed = small_run(session=session)
        report = resumed.run()
        assert report.to_json() == reference.to_json()
        # The killed batch settled every trial into the cache before
        # the callback raised: nothing is compiled again.
        assert session.cache_misses == 0
        assert resumed.stats()["disk_hits"] == resumed.trials_executed == 8

    def test_a_finished_run_resumes_with_nothing_to_compile(self, tmp_path):
        first = small_run(session=Session(cache_dir=tmp_path))
        report = first.run()
        session = Session(cache_dir=tmp_path)
        again = small_run(session=session)
        assert again.run().to_json() == report.to_json()
        assert session.cache_misses == 0
        assert session.disk_hits == first.trials_executed

    def test_failed_trial_recompiles_on_resume_and_still_sinks(
            self, tmp_path):
        first = failing_run(session=Session(cache_dir=tmp_path)).run()
        session = Session(cache_dir=tmp_path)
        report = failing_run(session=session).run()
        assert report.to_json() == first.to_json()
        assert session.disk_hits == 1, "the success is a disk hit"
        assert session.cache_misses == 1, "the failure compiles again"
        assert [e.ok for e in report.standings] == [True, False]
        assert "ResourceExhaustedError" in \
            report.leaderboard_rows()[-1]["error"]


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def evaluation(candidate, round_number, scale, score, ok=True):
    metrics = None if not ok else {"gates": score, "qubits": 1.0}
    return CandidateEvaluation(
        candidate=candidate, round_number=round_number, scale=scale,
        ok=ok, score=None if not ok else score, metrics=metrics,
        per_benchmark={"RD53": {"ok": True, "metrics": metrics} if ok
                       else {"ok": False,
                             "error": {"error_type": "CompilationError"}}})


class TestTuningReport:
    @staticmethod
    def report(rounds):
        return TuningReport(descriptor={"demo": True},
                            objective=MultiObjective("gates"),
                            benchmarks=("RD53",), rounds=rounds)

    def test_later_rounds_outrank_and_failures_sink(self):
        first = RoundResult(0, "quick", [
            evaluation({"allocation": "laa"}, 0, "quick", 5.0),
            evaluation({"allocation": "lifo"}, 0, "quick", 1.0),
            evaluation({"reclamation": "cer"}, 0, "quick", None, ok=False),
        ])
        second = RoundResult(1, "laptop", [
            evaluation({"allocation": "lifo"}, 1, "laptop", 9.0),
        ])
        standings = self.report([first, second]).standings
        assert [e.candidate for e in standings] == [
            {"allocation": "lifo"},   # final round wins despite score 9
            {"allocation": "laa"},
            {"reclamation": "cer"},   # failed: last
        ]

    def test_rows_pad_error_column_uniformly(self):
        rounds = [RoundResult(0, "quick", [
            evaluation({"allocation": "laa"}, 0, "quick", 2.0),
            evaluation({"allocation": "lifo"}, 0, "quick", None, ok=False),
        ])]
        rows = self.report(rounds).leaderboard_rows()
        assert [row["error"] for row in rows] == ["", "CompilationError"]
        assert [row["rank"] for row in rows] == [1, 2]

    def test_to_json_round_trips_and_names_best(self, tmp_path):
        rounds = [RoundResult(0, "quick", [
            evaluation({"allocation": "laa"}, 0, "quick", 2.0)])]
        report = self.report(rounds)
        path = tmp_path / "board.json"
        text = report.to_json(str(path))
        assert path.read_text(encoding="utf-8") == text
        decoded = json.loads(text)
        assert decoded["best"] == {"allocation": "laa"}
        assert decoded["leaderboard"][0]["pareto"] is True

    def test_empty_report_is_rejected(self):
        with pytest.raises(TunerError, match="at least one round"):
            self.report([])


# ----------------------------------------------------------------------
# A fleet session and the CLI
# ----------------------------------------------------------------------
def start_servers(count, tmp_path=None):
    servers, urls = [], []
    for index in range(count):
        cache_dir = str(tmp_path / f"cache-{index}") if tmp_path else None
        server = make_server("127.0.0.1", 0, workers=1, cache_dir=cache_dir)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        urls.append("http://%s:%s" % server.server_address[:2])
    return servers, urls


def stop(server):
    server.shutdown()
    server.server_close()


class TestFleetSession:
    def test_fleet_matches_local_byte_for_byte(self, tmp_path):
        local = small_run(session=Session()).run()
        servers, urls = start_servers(2, tmp_path)
        try:
            executor = FleetExecutor(urls)
            cluster_run = small_run(session=Session(executor))
            assert cluster_run.run().to_json() == local.to_json()
            fleet = executor.topology.fleet_stats()
            assert fleet["reachable"] == 2
            assert fleet["fleet"]["jobs_run"] >= 1
        finally:
            for server in servers:
                stop(server)

    def test_a_local_cache_dir_resumes_on_the_fleet(self, tmp_path):
        # Where the trials compile is not part of a run: a run killed
        # on a local session resumes on a fleet session over the same
        # cache directory and sends the fleet nothing.
        cache_dir = tmp_path / "tune-cache"
        TestCacheDirResume.killed_after(3, cache_dir)
        servers, urls = start_servers(2, tmp_path)
        try:
            session = Session(FleetExecutor(urls), cache_dir=cache_dir)
            report = small_run(session=session).run()
            assert session.cache_misses == 0
            fleet = ClusterTopology(urls).fleet_stats()["fleet"]
            assert fleet["jobs_run"] == 0
        finally:
            for server in servers:
                stop(server)
        assert report.to_json() == small_run(session=Session()).run().to_json()

    def test_tuning_trials_share_one_trace_id(self, tmp_path):
        # Every trial a fleet run pushes must land under the executor's
        # single trace id, so one `trace` command shows the whole
        # tuning run as a waterfall.
        servers, urls = start_servers(2, tmp_path)
        try:
            executor = FleetExecutor(urls)
            trials = []
            small_run(session=Session(executor),
                      on_trial=trials.append).run()
            merged = executor.topology.fleet_trace()
            assert merged["trace_id"] == executor.trace_id
            assert merged["count"] > 0
            assert {span["trace_id"] for span in merged["spans"]} == \
                {executor.trace_id}
            names = {span["name"] for span in merged["spans"]}
            assert {"server.handle", "job.run", "compile"} <= names
            # Every shard that owns a trial (rendezvous placement
            # depends on the ephemeral-port URLs) ran it under the id.
            owners = {assign_endpoint(trial["fingerprint"], urls)
                      for trial in trials}
            assert {span["worker"] for span in merged["spans"]} == owners
        finally:
            for server in servers:
                stop(server)


class TestTuneCLI:
    def test_tune_command_exports_best_and_leaderboard(self, tmp_path,
                                                       capsys):
        from repro.experiments.__main__ import main

        best_path = tmp_path / "best.json"
        board_path = tmp_path / "board.json"
        cache_dir = tmp_path / "cache"
        common = ["tune", "RD53", "ADDER4", "--grid", "5", "5",
                  "--scales", "quick", "--strategy", "grid",
                  "--objective", "aqv", "--cache-dir", str(cache_dir)]
        assert main([*common, "--export", str(board_path),
                     "--export-best", str(best_path)]) == 0
        best = json.loads(best_path.read_text(encoding="utf-8"))
        assert {"allocation", "reclamation"} <= set(best)
        board = json.loads(board_path.read_text(encoding="utf-8"))
        assert board["best"] == best
        # Rerunning over the same cache directory compiles nothing and
        # exports identical bytes.
        capsys.readouterr()
        rerun_path = tmp_path / "board2.json"
        assert main([*common, "--export", str(rerun_path)]) == 0
        assert "[0 compiled, 0 deduped, 12 from the disk cache" in \
            capsys.readouterr().out
        assert rerun_path.read_bytes() == board_path.read_bytes()

    def test_tune_over_endpoints_exports_the_local_leaderboard(
            self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        common = ["tune", "RD53", "ADDER4", "--grid", "5", "5",
                  "--scales", "quick", "--strategy", "grid",
                  "--objective", "aqv"]
        local_path = tmp_path / "local.json"
        fleet_path = tmp_path / "fleet.json"
        resumed_path = tmp_path / "resumed.json"
        cache_dir = tmp_path / "tune-cache"
        assert main([*common, "--export", str(local_path)]) == 0
        servers, urls = start_servers(2, tmp_path)
        try:
            fleet = [*common, "--endpoint", urls[0], "--endpoint", urls[1],
                     "--cache-dir", str(cache_dir)]
            assert main([*fleet, "--export", str(fleet_path)]) == 0
            # The trials compiled on the servers, not in this process.
            stats = ClusterTopology(urls).fleet_stats()["fleet"]
            assert stats["cache_misses"] > 0
            # A rerun on the same --cache-dir sends nothing to the fleet.
            capsys.readouterr()
            assert main([*fleet, "--export", str(resumed_path)]) == 0
            assert ", 0 deduped, 12 from the disk cache" in \
                capsys.readouterr().out
            after = ClusterTopology(urls).fleet_stats()["fleet"]
            assert after["jobs_run"] == stats["jobs_run"]
        finally:
            for server in servers:
                stop(server)
        assert fleet_path.read_bytes() == local_path.read_bytes()
        assert resumed_path.read_bytes() == local_path.read_bytes()

    def test_every_candidate_failing_still_prints_the_leaderboard(
            self, capsys):
        # A 3x3 grid cannot hold RD53: every trial fails under failure
        # isolation.  That is a structured outcome, not a crash — the
        # leaderboard (with its error column) must still come out.
        from repro.experiments.__main__ import main

        argv = ["tune", "RD53", "--grid", "3", "3", "--scales", "quick",
                "--strategy", "grid"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "every candidate failed" in out
        assert "ResourceExhaustedError" in out
        # ...but exporting a best config from an all-failed run is an
        # error the user must see.
        with pytest.raises(SystemExit, match="every candidate failed"):
            main(argv + ["--export-best", "best.json"])

    def test_cli_validation(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["tune"])  # no benchmarks
        with pytest.raises(SystemExit):
            main(["sweep", "RD53", "--journal", "x.jsonl"])
        with pytest.raises(SystemExit):
            main(["compile", "RD53", "--strategy", "grid"])
        with pytest.raises(SystemExit):
            main(["tune", "RD53", "--scale", "quick"])  # use --scales
        with pytest.raises(SystemExit):
            main(["tune", "RD53", "--policies", "lazy"])  # space is fixed
        with pytest.raises(SystemExit):
            main(["tune", "RD53", "--strategy", "grid", "--trials", "5"])
        with pytest.raises(SystemExit):
            main(["tune", "RD53", "--strategy", "random", "--trials", "0"])
        with pytest.raises(SystemExit):
            main(["cluster-stats"])  # no endpoints
