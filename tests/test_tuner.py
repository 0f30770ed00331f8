"""Tests for repro.tuner: spaces, objectives, strategies, runs, reports.

Covers four layers:

* the declarative pieces — deterministic space expansion (grid and
  seeded sample), objective parsing/scalarization/Pareto dominance,
  and strategy round-planning (including successive-halving promotion
  and failed-candidate elimination);
* the :class:`~repro.tuner.TuningRun` driver against a local session —
  fingerprint dedup across racing rounds, mixed success/failure
  candidates, byte-identical determinism of repeated seeded runs;
* the JSONL trial journal — kill/resume with zero repeat compilations
  (proved by cache accounting), resume idempotence, refusal to resume
  a journal belonging to a different run, torn-tail tolerance;
* the remote backends (service client and 2-server cluster
  coordinator) and the ``tune`` CLI command.
"""

import json
import math
import threading

import pytest

from repro.exceptions import TunerError
from repro.api import MachineSpec, Session
from repro.cluster import ClusterCoordinator, assign_endpoint
from repro.core.compiler import POLICY_PRESETS, preset
from repro.service import ServiceClient, make_server
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
        run = small_run(backend=Session())
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
        run = small_run(backend=session)
        run.run()
        assert run.trials_executed == 8          # 4 candidates x 2 marks
        assert run.trials_deduped == 4           # 2 survivors x 2 marks
        assert session.cache_misses == run.trials_executed

    def test_seeded_run_is_deterministic_byte_for_byte(self):
        strategy = lambda: SuccessiveHalving(scales=("quick", "laptop"),
                                             trials=3, seed=9)
        first = small_run(strategy=strategy(), backend=Session()).run()
        second = small_run(strategy=strategy(), backend=Session()).run()
        assert first.to_json() == second.to_json()

    def test_failing_candidates_sink_and_are_not_promoted(self):
        # max_qubits=4 cannot hold RD53 on a 5x5 grid -> that candidate
        # fails with ResourceExhaustedError while its sibling succeeds.
        space = SearchSpace(Choice("max_qubits", (4, None)))
        run = TuningRun(space, "aqv",
                        SuccessiveHalving(scales=("quick", "laptop")),
                        ["RD53"], machine=GRID, backend=Session())
        report = run.run()
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
                        backend=Session())
        report = run.run()
        assert not any(e.ok for e in report.standings)
        with pytest.raises(TunerError, match="every candidate failed"):
            report.best()

    def test_multi_objective_pareto_flags_in_report(self):
        report = small_run(objective=MultiObjective("gates", "qubits"),
                           backend=Session()).run()
        mask = report.pareto_mask()
        final = report.final_round.number
        assert any(mask), "someone is always on the front"
        for evaluation, on_front in zip(report.standings, mask):
            if evaluation.round_number != final:
                assert not on_front, "eliminated candidates never flag"

    def test_on_trial_fires_once_per_executed_trial(self):
        seen = []
        run = small_run(backend=Session(), on_trial=seen.append)
        run.run()
        assert len(seen) == run.trials_executed
        assert all(record["ok"] for record in seen)
        assert {record["benchmark"] for record in seen} == \
            {"RD53", "ADDER4"}

    def test_constructor_validation(self):
        with pytest.raises(TunerError, match="at least one benchmark"):
            small_run(benchmarks=())
        with pytest.raises(TunerError, match="backend"):
            TuningRun(SMALL_SPACE, "aqv", GridSearch(scale="quick"),
                      ["RD53"], backend=object())

    def test_backend_entry_count_mismatch_raises(self):
        class Broken:
            def run(self, jobs):
                return []

        run = small_run(backend=Broken())
        with pytest.raises(TunerError, match="returned 0 entries"):
            run.run()


# ----------------------------------------------------------------------
# The trial journal
# ----------------------------------------------------------------------
class KilledMidRun(Exception):
    pass


class TestJournalResume:
    @staticmethod
    def killed_after(n, journal):
        """Run until ``n`` trials are journaled, then 'crash'."""
        def killer(record):
            killer.count += 1
            if killer.count >= n:
                raise KilledMidRun()
        killer.count = 0
        run = small_run(backend=Session(), journal_path=journal,
                        on_trial=killer)
        with pytest.raises(KilledMidRun):
            run.run()
        return run

    def test_resume_performs_zero_repeat_compilations(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        reference = small_run(backend=Session()).run()
        self.killed_after(3, journal)
        session = Session()
        resumed = small_run(backend=session, journal_path=journal)
        report = resumed.run()
        assert resumed.journal_restored == 3
        assert resumed.trials_executed == 8 - 3
        assert session.cache_misses == resumed.trials_executed
        assert session.cache_hits == 0, "no journaled trial recompiled"
        assert report.to_json() == reference.to_json()

    def test_resume_is_idempotent(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        first = small_run(backend=Session(), journal_path=journal)
        report = first.run()
        session = Session()
        again = small_run(backend=session, journal_path=journal)
        assert again.run().to_json() == report.to_json()
        assert again.trials_executed == 0, \
            "a complete journal leaves nothing to compile"
        assert again.journal_restored == first.trials_executed
        assert session.cache_misses == 0

    def test_journal_of_a_different_run_is_refused(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        small_run(backend=Session(), journal_path=journal).run()
        with pytest.raises(TunerError, match="belongs to run"):
            small_run(objective="gates", journal_path=journal)

    def test_torn_tail_is_tolerated_header_garbage_is_not(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        run = small_run(backend=Session(), journal_path=journal)
        run.run()
        with open(journal, "a", encoding="utf-8") as stream:
            stream.write('{"type": "trial", "fingerpr')  # torn write
        resumed = small_run(journal_path=journal)
        assert resumed.journal_restored == run.trials_executed
        headerless = tmp_path / "bad.jsonl"
        headerless.write_text('{"type": "trial"}\n')
        with pytest.raises(TunerError, match="no header"):
            small_run(journal_path=headerless)

    def test_journal_resumes_across_backends(self, tmp_path):
        # The run fingerprint excludes the backend: a journal written
        # against one session resumes against another (or a cluster).
        journal = tmp_path / "tune.jsonl"
        self.killed_after(2, journal)
        resumed = small_run(backend=Session(), journal_path=journal)
        reference = small_run(backend=Session()).run()
        assert resumed.run().to_json() == reference.to_json()
        assert resumed.journal_restored == 2


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
# Remote backends (service + cluster) and the CLI
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


class TestRemoteBackends:
    def test_service_and_cluster_match_local_byte_for_byte(self, tmp_path):
        local = small_run(backend=Session()).run()
        servers, urls = start_servers(2, tmp_path)
        try:
            via_client = small_run(backend=ServiceClient(urls[0])).run()
            assert via_client.to_json() == local.to_json()
            coordinator = ClusterCoordinator(urls)
            cluster_run = small_run(backend=coordinator)
            assert cluster_run.backend.kind == "cluster"
            assert cluster_run.run().to_json() == local.to_json()
            fleet = coordinator.topology.fleet_stats()
            assert fleet["reachable"] == 2
            assert fleet["fleet"]["jobs_run"] >= 1
        finally:
            for server in servers:
                stop(server)

    def test_tuning_trials_share_one_trace_id(self, tmp_path):
        # Every trial a run pushes through a remote backend must land
        # under the backend's single trace id, so one `trace` command
        # shows the whole tuning run as a waterfall.
        servers, urls = start_servers(2, tmp_path)
        try:
            client = ServiceClient(urls[0])
            small_run(backend=client).run()
            payload = client.trace(client.trace_id)
            assert payload["trace_id"] == client.trace_id
            spans = payload["spans"]
            assert {span["trace_id"] for span in spans} == {client.trace_id}
            names = {span["name"] for span in spans}
            assert {"server.handle", "job.run", "compile"} <= names

            coordinator = ClusterCoordinator(urls)
            trials = []
            small_run(backend=coordinator, on_trial=trials.append).run()
            merged = coordinator.collect_trace()
            assert merged["trace_id"] == coordinator.trace_id
            assert merged["count"] > 0
            assert {span["trace_id"] for span in merged["spans"]} == \
                {coordinator.trace_id}
            # Every shard that owns a trial (rendezvous placement
            # depends on the ephemeral-port URLs) ran it under the id.
            owners = {assign_endpoint(trial["fingerprint"], urls)
                      for trial in trials}
            assert {span["worker"] for span in merged["spans"]} == owners
        finally:
            for server in servers:
                stop(server)


class TestTuneCLI:
    def test_tune_command_exports_best_and_leaderboard(self, tmp_path):
        from repro.experiments.__main__ import main

        best_path = tmp_path / "best.json"
        board_path = tmp_path / "board.json"
        journal = tmp_path / "tune.jsonl"
        argv = ["tune", "RD53", "ADDER4", "--grid", "5", "5",
                "--scales", "quick", "--strategy", "grid",
                "--objective", "aqv",
                "--journal", str(journal),
                "--export", str(board_path),
                "--export-best", str(best_path)]
        assert main(argv) == 0
        best = json.loads(best_path.read_text(encoding="utf-8"))
        assert {"allocation", "reclamation"} <= set(best)
        board = json.loads(board_path.read_text(encoding="utf-8"))
        assert board["best"] == best
        # Rerunning over the same journal restores every trial and
        # exports identical bytes.
        rerun_path = tmp_path / "board2.json"
        assert main(["tune", "RD53", "ADDER4", "--grid", "5", "5",
                     "--scales", "quick", "--strategy", "grid",
                     "--objective", "aqv", "--journal", str(journal),
                     "--export", str(rerun_path)]) == 0
        assert rerun_path.read_bytes() == board_path.read_bytes()

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
