"""Tests for the repro.api compilation service and the public registries."""

import json

import pytest

from repro.exceptions import (
    CompilationError,
    ExperimentError,
    ResourceExhaustedError,
)
from repro.api import (
    CompileJob,
    MachineSpec,
    ParallelExecutor,
    SerialExecutor,
    Session,
    SweepSpec,
    autosize_compile,
    execute_job,
)
from repro.arch.nisq import NISQMachine
from repro.core.compiler import CompilerConfig, compile_program, preset
from repro.core.policies import (
    allocation_policy_names,
    create_allocation_policy,
    reclamation_policy_names,
    register_allocation_policy,
    register_reclamation_policy,
)
from repro.core.allocation import LifoAllocation
from repro.core.reclamation import EagerReclamation
from repro.core.result import CompilationResult
from repro.workloads.registry import (
    benchmark_names,
    canonical_benchmark_name,
    load_benchmark,
    register_benchmark,
)

from tests.conftest import build_two_level_program

GRID = MachineSpec.nisq_grid(5, 5)


class TestMachineSpec:
    def test_build_matches_kind(self):
        assert MachineSpec.nisq_grid(4, 4).build().name == "nisq-grid-4x4"
        assert MachineSpec.nisq_full(9).build().topology.is_fully_connected
        assert MachineSpec.ft(16).build().communication == "braid"
        assert MachineSpec.ideal(8).build().communication == "none"

    def test_autosize_build_takes_size(self):
        spec = MachineSpec.nisq_autosize(start_qubits=16)
        assert spec.build(64).num_qubits >= 64

    def test_invalid_kind_rejected(self):
        with pytest.raises(ExperimentError):
            MachineSpec(kind="quantum-cloud", num_qubits=4)

    def test_underspecified_rejected(self):
        with pytest.raises(ExperimentError):
            MachineSpec(kind="nisq")

    def test_autosize_conflicts_with_fixed_size(self):
        with pytest.raises(ExperimentError):
            MachineSpec(kind="nisq", rows=5, cols=5, autosize=True)
        with pytest.raises(ExperimentError):
            MachineSpec(kind="nisq", num_qubits=25, autosize=True)

    def test_autosize_build_needs_explicit_size(self):
        with pytest.raises(ExperimentError):
            MachineSpec.nisq_autosize().build()


class TestCompileJob:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ExperimentError):
            CompileJob(machine=GRID)
        with pytest.raises(ExperimentError):
            CompileJob(benchmark="RD53",
                       program=build_two_level_program(), machine=GRID)

    def test_fingerprint_stable_across_instances(self):
        job_a = CompileJob.for_benchmark("RD53", GRID, "square")
        job_b = CompileJob.for_benchmark("RD53", GRID, "square")
        assert job_a.fingerprint() == job_b.fingerprint()

    def test_fingerprint_case_insensitive_benchmark(self):
        job_a = CompileJob.for_benchmark("rd53", GRID, "square")
        job_b = CompileJob.for_benchmark("RD53", GRID, "square")
        assert job_a.fingerprint() == job_b.fingerprint()

    def test_fingerprint_ignores_override_order(self):
        job_a = CompileJob(benchmark="MODEXP", machine=GRID,
                           overrides={"width": 3, "exponent_bits": 2})
        job_b = CompileJob(benchmark="MODEXP", machine=GRID,
                           overrides={"exponent_bits": 2, "width": 3})
        assert job_a.fingerprint() == job_b.fingerprint()

    def test_fingerprint_distinguishes_coordinates(self):
        base = CompileJob.for_benchmark("RD53", GRID, "square")
        fingerprints = {
            base.fingerprint(),
            CompileJob.for_benchmark("RD53", GRID, "lazy").fingerprint(),
            CompileJob.for_benchmark("6SYM", GRID, "square").fingerprint(),
            CompileJob.for_benchmark(
                "RD53", MachineSpec.nisq_grid(4, 4), "square").fingerprint(),
            CompileJob.for_benchmark(
                "RD53", GRID, "square",
                decompose_toffoli=True).fingerprint(),
        }
        assert len(fingerprints) == 5

    def test_execute_matches_compile_program(self):
        job = CompileJob.for_benchmark("RD53", GRID, "square",
                                       decompose_toffoli=True)
        via_api = execute_job(job)
        direct = compile_program(load_benchmark("RD53"),
                                 NISQMachine.grid(5, 5), policy="square",
                                 decompose_toffoli=True)
        assert via_api.summary() == direct.summary()

    def test_program_job(self):
        program = build_two_level_program()
        job = CompileJob(program=program, machine=MachineSpec.nisq_grid(4, 4))
        result = execute_job(job)
        assert result.program_name == program.name
        assert result.gate_count > 0

    def test_program_fingerprint_reflects_content(self):
        from repro.ir.program import Program, QModule

        def build(second_gate):
            module = QModule("same-name", num_inputs=2, num_outputs=1,
                             num_ancilla=0)
            module.cx(module.inputs[0], module.outputs[0])
            getattr(module, second_gate)(module.outputs[0])
            return Program(module, name="same-name")

        grid = MachineSpec.nisq_grid(4, 4)
        job_x = CompileJob(program=build("x"), machine=grid)
        job_h = CompileJob(program=build("h"), machine=grid)
        job_x2 = CompileJob(program=build("x"), machine=grid)
        assert job_x.fingerprint() != job_h.fingerprint()
        assert job_x.fingerprint() == job_x2.fingerprint()

    def test_session_compile_rejects_overrides_for_programs(self):
        with pytest.raises(ExperimentError):
            Session().compile(build_two_level_program(),
                              machine=MachineSpec.nisq_grid(4, 4),
                              overrides={"width": 99})


class TestSweepSpec:
    def test_expansion_cardinality(self):
        spec = SweepSpec(
            benchmarks=("RD53", "6SYM", "ADDER4"),
            machines=(GRID, MachineSpec.nisq_grid(4, 4)),
            policies=("lazy", "square"),
            scales=("quick", "laptop"),
        )
        assert len(spec) == 3 * 2 * 2 * 2
        assert len(spec.jobs()) == len(spec)

    def test_builder_chaining(self):
        spec = (SweepSpec()
                .with_benchmarks("RD53")
                .with_machines(GRID)
                .with_policies("lazy")
                .with_scales("quick")
                .with_config(decompose_toffoli=True))
        jobs = spec.jobs()
        assert len(jobs) == 1
        assert jobs[0].config.decompose_toffoli

    def test_scale_overrides_reach_jobs(self):
        spec = SweepSpec(benchmarks=("MUL32",), machines=(GRID,),
                         policies=("lazy",), scales=("quick",))
        job = spec.jobs()[0]
        assert dict(job.overrides)["width"] <= 8

    def test_empty_and_bad_scale_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec(benchmarks=()).jobs()
        with pytest.raises(ExperimentError):
            SweepSpec(benchmarks=("RD53",), scales=("huge",)).jobs()

    def test_explicit_config_policy(self):
        config = CompilerConfig(allocation="lifo", reclamation="lazy",
                                label="custom")
        spec = SweepSpec(benchmarks=("RD53",), machines=(GRID,),
                         policies=(config,))
        assert spec.jobs()[0].config is config


class TestSessionMemoization:
    def test_repeat_submission_hits_cache(self):
        calls = []

        class CountingExecutor:
            def run(self, jobs):
                calls.extend(jobs)
                return [execute_job(job) for job in jobs]

        session = Session(executor=CountingExecutor())
        job = CompileJob.for_benchmark("RD53", GRID, "square")
        first = session.submit(job)
        second = session.submit(job)
        assert len(calls) == 1
        assert first is second
        assert session.cache_hits == 1 and session.cache_misses == 1

    def test_duplicates_inside_batch_execute_once(self):
        calls = []

        class CountingExecutor:
            def run(self, jobs):
                calls.extend(jobs)
                return [execute_job(job) for job in jobs]

        session = Session(executor=CountingExecutor())
        job = CompileJob.for_benchmark("RD53", GRID, "square")
        sweep = session.run([job, job, job])
        assert len(calls) == 1
        assert len(sweep) == 3
        assert sweep.cache_hits == 2
        assert [entry.cached for entry in sweep] == [False, True, True]

    def test_clear_cache(self):
        session = Session()
        session.submit(CompileJob.for_benchmark("RD53", GRID, "square"))
        assert session.cache_size == 1
        session.clear_cache()
        assert session.cache_size == 0


class TestExecutorDeterminism:
    def test_parallel_matches_serial(self):
        spec = (SweepSpec()
                .with_benchmarks("RD53", "ADDER4")
                .with_machines(GRID)
                .with_policies("lazy", "eager", "square")
                .with_config(decompose_toffoli=True))
        serial = Session(executor=SerialExecutor()).run(spec)
        parallel = Session(executor=ParallelExecutor(jobs=4)).run(spec)
        for entry_s, entry_p in zip(serial, parallel):
            metrics_s = {**entry_s.result.summary(),
                         "comm": entry_s.result.total_comm_cost}
            metrics_p = {**entry_p.result.summary(),
                         "comm": entry_p.result.total_comm_cost}
            assert metrics_s == metrics_p
        assert serial.table("t") == parallel.table("t")

    def test_parallel_empty_batch(self):
        assert ParallelExecutor(jobs=2).run([]) == []

    def test_parallel_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)


class TestSweepResult:
    @pytest.fixture(scope="class")
    def sweep(self):
        spec = (SweepSpec()
                .with_benchmarks("RD53", "6SYM")
                .with_machines(GRID)
                .with_policies("lazy", "square"))
        return Session().run(spec)

    def test_filter_and_get(self, sweep):
        assert len(sweep.filter(benchmark="RD53")) == 2
        assert len(sweep.filter(policy="square")) == 2
        result = sweep.get(benchmark="rd53", policy="square")
        assert result.policy_name == "square"
        with pytest.raises(ExperimentError):
            sweep.get(benchmark="RD53")  # two matches

    def test_suite_shape(self, sweep):
        suite = sweep.suite(benchmark="6SYM")
        assert list(suite) == ["lazy", "square"]

    def test_suite_rejects_ambiguous_scope(self, sweep):
        # Two benchmarks in scope -> duplicate policy labels.
        with pytest.raises(ExperimentError):
            sweep.suite()

    def test_rows_and_table(self, sweep):
        rows = sweep.rows()
        assert len(rows) == 4
        assert {"benchmark", "policy", "gates", "aqv"} <= set(rows[0])
        assert "RD53" in sweep.table()

    def test_json_and_csv_export(self, sweep, tmp_path):
        payload = json.loads(sweep.to_json())
        assert len(payload) == 4
        full = json.loads(sweep.to_json(full=True))
        assert "fingerprint" in full[0] and "result" in full[0]
        csv_path = tmp_path / "sweep.csv"
        text = sweep.to_csv(str(csv_path))
        assert csv_path.read_text() == text
        assert text.splitlines()[0].startswith("benchmark,policy")


class TestResultRoundTrip:
    def test_to_dict_from_dict_round_trip(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="square", record_schedule=True)
        rebuilt = CompilationResult.from_dict(result.to_dict())
        assert rebuilt == result

    def test_round_trip_through_json(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="square", record_schedule=True)
        rebuilt = CompilationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert rebuilt.to_circuit().count("cx") == result.to_circuit().count("cx")

    def test_light_results_are_small(self, two_level_program):
        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="square")
        data = result.to_dict()
        assert data["scheduled_gates"] == []
        assert CompilationResult.from_dict(data).summary() == result.summary()


@pytest.fixture
def restored_registries():
    """Snapshot and restore the global registries around mutation tests."""
    from repro.core import policies as policy_registry
    from repro.workloads import registry as benchmark_registry

    snapshots = [
        (policy_registry._ALLOCATION, dict(policy_registry._ALLOCATION)),
        (policy_registry._RECLAMATION, dict(policy_registry._RECLAMATION)),
        (benchmark_registry._FACTORIES, dict(benchmark_registry._FACTORIES)),
        (benchmark_registry._CANONICAL, dict(benchmark_registry._CANONICAL)),
    ]
    yield
    for registry, snapshot in snapshots:
        registry.clear()
        registry.update(snapshot)


class TestPolicyRegistries:
    def test_builtins_registered(self):
        assert allocation_policy_names() == ["laa", "lifo"]
        assert reclamation_policy_names() == ["cer", "eager", "lazy"]

    def test_unknown_policy_error_lists_names(self):
        with pytest.raises(CompilationError) as exc_info:
            create_allocation_policy("greedy")
        assert "lifo" in str(exc_info.value)

    def test_register_and_compile_with_custom_policies(self, two_level_program,
                                                       restored_registries):
        register_allocation_policy("test-lifo", LifoAllocation, replace=True)

        @register_reclamation_policy("test-eager", replace=True)
        class TestEager(EagerReclamation):
            pass

        result = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                 policy="eager", allocation="test-lifo",
                                 reclamation="test-eager")
        reference = compile_program(two_level_program, NISQMachine.grid(4, 4),
                                    policy="eager", allocation="lifo",
                                    reclamation="eager")
        assert result.summary()["gates"] == reference.summary()["gates"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CompilationError):
            register_allocation_policy("lifo", LifoAllocation)


class TestPresetOverrides:
    def test_replace_preserves_other_fields(self):
        config = preset("square", record_schedule=True)
        assert config.record_schedule
        assert config.allocation == "laa" and config.label == "square"

    def test_unknown_override_rejected_with_field_names(self):
        with pytest.raises(CompilationError) as exc_info:
            preset("square", decompose_tofoli=True)  # typo'd field
        message = str(exc_info.value)
        assert "decompose_tofoli" in message
        assert "decompose_toffoli" in message  # valid fields listed

    def test_result_is_frozen_dataclass(self):
        config = preset("square", max_qubits=10)
        with pytest.raises(Exception):
            config.max_qubits = 20


class TestBenchmarkRegistry:
    def test_canonical_names_in_listing_and_errors(self):
        names = benchmark_names()
        assert "RD53" in names and "6SYM" in names
        with pytest.raises(ExperimentError) as exc_info:
            load_benchmark("nonexistent")
        message = str(exc_info.value)
        # The error lists the same canonical capitalisations the listing
        # uses — no leaked lowercase internal keys.
        assert "RD53" in message and "'rd53'" not in message
        assert "MODEXP" in message and "'modexp'" not in message

    def test_canonical_benchmark_name(self):
        assert canonical_benchmark_name("rd53") == "RD53"
        assert canonical_benchmark_name("Belle") == "Belle"
        with pytest.raises(ExperimentError):
            canonical_benchmark_name("anna")

    def test_register_benchmark_decorator(self, restored_registries):
        @register_benchmark("TEST-TWOLEVEL", replace=True)
        def build(width=4):
            return build_two_level_program()

        assert "TEST-TWOLEVEL" in benchmark_names()
        program = load_benchmark("test-twolevel")
        assert program.name == build_two_level_program().name
        job = CompileJob.for_benchmark("test-twolevel",
                                       MachineSpec.nisq_grid(4, 4), "square")
        assert job.benchmark == "TEST-TWOLEVEL"
        assert execute_job(job).gate_count > 0

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError):
            register_benchmark("RD53", lambda: None)


def _wide_program(num_params: int, num_ancilla: int):
    """A program whose peak-live footprint is params + ancillas."""
    from repro.ir.program import Program, QModule

    module = QModule("wide", num_inputs=num_params, num_outputs=0,
                     num_ancilla=num_ancilla)
    for ancilla in module.ancillas:
        module.cx(module.inputs[0], ancilla)
    return Program(module, name=f"wide-{num_params}-{num_ancilla}")


class TestAutosizeBoundaries:
    """The machine-size search must never build beyond max_qubits."""

    @staticmethod
    def _machine_for(attempts):
        def build(num_qubits):
            attempts.append(num_qubits)
            return NISQMachine.with_qubits(num_qubits)
        return build

    def test_cap_between_doublings_is_clamped(self):
        # Needs 80 live qubits: 64 fails, and the doubling to 128 must be
        # clamped to the 100-qubit cap instead of overshooting it.
        program = _wide_program(50, 30)
        attempts = []
        result = autosize_compile(program, self._machine_for(attempts),
                                  preset("lazy"), start_qubits=64,
                                  max_qubits=100)
        assert attempts == [64, 100]
        assert result.peak_live_qubits == 80

    def test_cap_hit_exactly_then_reraise(self):
        # Needs 120 live qubits: 25 -> 50 -> 100 all fail; the error only
        # propagates after the attempt at exactly the cap.
        program = _wide_program(20, 100)
        attempts = []
        with pytest.raises(ResourceExhaustedError):
            autosize_compile(program, self._machine_for(attempts),
                             preset("lazy"), start_qubits=25, max_qubits=100)
        assert attempts == [25, 50, 100]

    def test_start_above_cap_is_clamped(self):
        program = _wide_program(10, 10)
        attempts = []
        result = autosize_compile(program, self._machine_for(attempts),
                                  preset("lazy"), start_qubits=512,
                                  max_qubits=64)
        assert attempts == [64]
        assert result.num_qubits_used <= 64


class TestExecutorContract:
    def test_short_executor_batch_rejected(self):
        class ShortExecutor:
            def run(self, jobs):
                return [execute_job(jobs[0])]  # silently drops the rest

        session = Session(executor=ShortExecutor())
        jobs = [CompileJob.for_benchmark("RD53", GRID, "lazy"),
                CompileJob.for_benchmark("RD53", GRID, "square")]
        with pytest.raises(ExperimentError) as exc_info:
            session.run(jobs)
        assert "ShortExecutor" in str(exc_info.value)

    def test_long_executor_batch_rejected(self):
        class LongExecutor:
            def run(self, jobs):
                return [execute_job(job) for job in jobs] * 2

        session = Session(executor=LongExecutor())
        with pytest.raises(ExperimentError) as exc_info:
            session.run([CompileJob.for_benchmark("RD53", GRID, "square")])
        assert "LongExecutor" in str(exc_info.value)

    def test_parallel_error_names_the_failing_job(self):
        impossible = CompileJob.for_benchmark(
            "RD53", MachineSpec.nisq(2), "square")
        fine = CompileJob.for_benchmark("RD53", GRID, "square")
        session = Session(executor=ParallelExecutor(jobs=2))
        with pytest.raises(ResourceExhaustedError) as exc_info:
            session.run([fine, impossible])
        message = str(exc_info.value)
        assert "RD53" in message and "square" in message
        assert "nisq-2" in message


class TestCacheAccounting:
    def test_hits_accumulate_across_run_calls(self):
        spec = (SweepSpec()
                .with_benchmarks("RD53", "6SYM")
                .with_machines(GRID)
                .with_policies("lazy", "square"))
        session = Session()
        first = session.run(spec)
        assert first.cache_hits == 0
        assert session.cache_misses == 4 and session.cache_hits == 0
        second = session.run(spec)
        assert second.cache_hits == 4
        assert session.cache_misses == 4 and session.cache_hits == 4
        assert session.cache_size == 4
        # Rows are identical whether computed or recalled.
        assert first.rows() == second.rows()

    def test_stats_snapshot(self):
        session = Session()
        session.submit(CompileJob.for_benchmark("RD53", GRID, "square"))
        stats = session.stats()
        assert stats["cache_size"] == 1
        assert stats["cache_misses"] == 1
        assert stats["disk_hits"] == 0
        assert "disk_cache" not in stats
