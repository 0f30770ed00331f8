"""Integration tests for the experiment harness (quick-scale runs)."""

import pytest

from repro.api import MachineSpec, Session
from repro.experiments import EXPERIMENTS, figure1, figure5, figure8, figure9, figure10, table3, table4
from repro.experiments.runner import (
    benchmark_overrides,
    load_scaled_benchmark,
)
from repro.exceptions import ExperimentError

NISQ_QUICK = ("RD53", "belle-s")
LARGE_QUICK = ("ADDER32", "Belle")


class TestRunnerHelpers:
    def test_benchmark_overrides_scales(self):
        assert benchmark_overrides("MUL32", "paper") == {}
        assert benchmark_overrides("MUL32", "quick")["width"] <= 8
        with pytest.raises(ExperimentError):
            benchmark_overrides("MUL32", "huge")

    def test_load_scaled_benchmark(self):
        program = load_scaled_benchmark("MODEXP", "quick")
        assert program.name == "MODEXP"

    def test_autosize_grows_machine(self):
        program = load_scaled_benchmark("ADDER32", "quick")
        result = Session().compile(program, MachineSpec.nisq_autosize(
            start_qubits=8), "lazy")
        assert result.num_qubits_used > 8


class TestExperimentRegistry:
    def test_all_paper_artifacts_covered(self):
        expected = {"figure1", "figure5", "figure8a", "figure8b", "figure8c",
                    "figure9", "figure10", "table3", "table4"}
        assert expected == set(EXPERIMENTS)

    def test_experiments_share_a_session_cache(self):
        session = Session()
        first = table3.run(benchmarks=NISQ_QUICK, policies=("lazy", "square"),
                           session=session)
        assert session.cache_misses == len(NISQ_QUICK) * 2
        second = table3.run(benchmarks=NISQ_QUICK, policies=("lazy", "square"),
                            session=session)
        assert session.cache_misses == len(NISQ_QUICK) * 2  # all hits
        assert first.rows == second.rows
        # figure8a overlaps table3's (benchmark, policy, config) grid.
        figure8.run_aqv(benchmarks=NISQ_QUICK, policies=("lazy", "square"),
                        session=session)
        assert session.cache_misses == len(NISQ_QUICK) * 2


class TestTableExperiments:
    def test_table4_rows(self):
        experiment = table4.run()
        assert len(experiment.rows) == 3
        assert "Table IV" in table4.format_report(experiment)

    def test_table3_quick(self):
        experiment = table3.run(benchmarks=NISQ_QUICK, policies=("lazy", "square"))
        assert len(experiment.rows) == len(NISQ_QUICK) * 2
        for row in experiment.rows:
            assert row["gates"] > 0
            assert row["qubits"] > 0
        assert "Table III" in table3.format_report(experiment)


class TestFigureExperiments:
    def test_figure1_square_has_smallest_area(self):
        experiment = figure1.run(scale="quick")
        areas = {row["policy"]: row["area (AQV)"] for row in experiment.rows}
        assert experiment.extras["best_policy"] in areas
        assert areas[experiment.extras["best_policy"]] == min(areas.values())
        assert "Figure 1" in figure1.format_report(experiment)

    def test_figure5_reports_both_machines(self):
        experiment = figure5.run()
        assert {"lattice AQV", "fully-connected AQV"} <= set(experiment.rows[0])
        assert experiment.extras["preferred_on_full"] in ("lazy", "eager")

    def test_figure8a_quick(self):
        experiment = figure8.run_aqv(benchmarks=NISQ_QUICK,
                                     policies=("lazy", "square"))
        for row in experiment.rows:
            assert row["lazy"] > 0 and row["square"] > 0

    def test_figure8b_quick(self):
        experiment = figure8.run_success(benchmarks=NISQ_QUICK)
        for row in experiment.rows:
            for policy in ("lazy", "eager", "square"):
                assert 0.0 < row[policy] <= 1.0

    def test_figure8c_quick(self):
        experiment = figure8.run_noise(benchmarks=("RD53",), shots=128)
        row = experiment.rows[0]
        for policy in ("lazy", "eager", "square"):
            assert 0.0 <= row[policy] <= 1.0

    def test_figure9_quick_normalised_to_lazy(self):
        experiment = figure9.run(benchmarks=LARGE_QUICK, scale="quick")
        for row in experiment.rows:
            assert row["lazy"] == pytest.approx(1.0)
            assert row["square"] > 0
        assert experiment.extras["geomean_reduction_vs_lazy"] > 0
        losses = sum(1 for row in experiment.rows if row["square"] > 1.0)
        assert experiment.extras["square_losses"] == losses
        assert (f"SQUARE loses on {losses} of {len(experiment.rows)} "
                in figure9.format_report(experiment))

    def test_figure10_quick_on_ft_machines(self):
        experiment = figure10.run(benchmarks=LARGE_QUICK, scale="quick")
        for row in experiment.rows:
            assert row["lazy"] == pytest.approx(1.0)
        assert experiment.extras["geomean_reduction_vs_lazy"] > 0
        losses = sum(1 for row in experiment.rows if row["square"] > 1.0)
        assert experiment.extras["square_losses"] == losses
        assert (f"SQUARE loses on {losses} of {len(experiment.rows)} "
                in figure10.format_report(experiment))
