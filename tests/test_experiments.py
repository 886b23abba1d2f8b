"""Tests for the experiment harness (paper tables and figures)."""

import zlib

import pytest

from repro.experiments.accumulation import (
    expected_epoch_bias,
    render_table1,
    run_table1,
)
from repro.experiments.accuracy import (
    APPROACHES,
    render_figure4,
    run_figure4,
)
from repro.experiments.bottlegraphs import (
    expected_balance_class,
    render_bottlegraph,
    render_figure6,
    run_figure6,
)
from repro.experiments.cpi_stacks import render_figure5, run_figure5
from repro.experiments.design_space import (
    BOUNDS,
    render_table5,
    run_benchmark_dse,
    run_table5,
)
from repro.experiments.suites import (
    BenchmarkRef,
    RunCache,
    build_workload,
    full_suite,
    parsec_suite,
    rodinia_suite,
)
from repro.experiments.sync_counts import (
    paper_dominant,
    render_table3,
    run_table3,
)


class TestSuites:
    def test_full_suite_size(self):
        assert len(rodinia_suite()) == 16
        assert len(parsec_suite()) == 10
        assert len(full_suite()) == 26

    def test_bad_refs_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkRef("rodinia", "nonesuch")
        with pytest.raises(ValueError):
            BenchmarkRef("spec2006", "gcc")

    def test_build_workload(self):
        w = build_workload(BenchmarkRef("rodinia", "hotspot"))
        assert w.name == "rodinia.hotspot"

    @pytest.mark.parametrize("scale", [0.05, 0.25, 1.0, 2.0])
    def test_seed_is_the_built_specs(self, scale):
        for ref in full_suite():
            assert build_workload(ref, scale).seed == ref.seed
            assert ref.seed == zlib.crc32(ref.label.encode()) & 0x3FFFFFFF

    def test_cache_reuses_objects(self):
        cache = RunCache()
        ref = BenchmarkRef("rodinia", "lavaMD")
        assert cache.trace(ref) is cache.trace(ref)
        assert cache.profile(ref) is cache.profile(ref)


class TestTable1:
    def test_matches_paper_constants(self):
        """Table I: 2 threads/1% -> 0.33%, 16 threads/10% -> 8.83%."""
        result = run_table1(iterations=60_000)
        paper = {
            (1, 0.01): 0.0000, (2, 0.01): 0.0033, (4, 0.01): 0.0060,
            (8, 0.01): 0.0078, (16, 0.01): 0.0088,
            (2, 0.05): 0.0167, (4, 0.05): 0.0300,
            (8, 0.05): 0.0389, (16, 0.05): 0.0441,
            (2, 0.10): 0.0334, (4, 0.10): 0.0601,
            (8, 0.10): 0.0779, (16, 0.10): 0.0883,
        }
        for (threads, bound), expected in paper.items():
            cell = result.cell(threads, bound)
            assert cell.overall_error == pytest.approx(
                expected, abs=0.003
            ), (threads, bound)

    def test_single_thread_is_unbiased(self):
        result = run_table1(thread_counts=(1,), iterations=60_000)
        for cell in result.cells:
            assert abs(cell.overall_error) < 0.005

    def test_error_grows_with_threads(self):
        result = run_table1(bounds=(0.05,), iterations=40_000)
        errors = [e[0] for _, e in result.rows()]
        assert errors == sorted(errors)

    def test_error_grows_with_bound(self):
        result = run_table1(thread_counts=(8,), iterations=40_000)
        _, errors = result.rows()[0]
        assert errors == sorted(errors)

    def test_closed_form_matches_monte_carlo(self):
        result = run_table1(iterations=80_000)
        for cell in result.cells:
            assert cell.overall_error == pytest.approx(
                expected_epoch_bias(cell.threads, cell.bound), abs=0.004
            )

    def test_closed_form_validation(self):
        with pytest.raises(ValueError):
            expected_epoch_bias(0, 0.01)
        with pytest.raises(ValueError):
            expected_epoch_bias(4, 1.5)

    def test_render(self):
        text = render_table1(run_table1(iterations=2000))
        assert "#Threads" in text
        assert "16" in text

    def test_missing_cell_raises(self):
        result = run_table1(iterations=1000)
        with pytest.raises(KeyError):
            result.cell(3, 0.07)


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, run_cache):
        return run_table3(cache=run_cache)

    def test_all_parsec_covered(self, result):
        assert len(result.rows) == 10

    def test_dominant_categories_match_paper(self, result):
        for row in result.rows:
            assert row.dominant() == paper_dominant(row.benchmark), (
                row.benchmark
            )

    def test_sync_free_benchmarks(self, result):
        for name in ("blackscholes", "freqmine", "swaptions"):
            row = result.row(name)
            assert row.critical_sections == 0
            assert row.barriers == 0
            assert row.condition_variables == 0

    def test_fluidanimate_lock_heavy(self, result):
        row = result.row("fluidanimate")
        assert row.critical_sections > 100

    def test_streamcluster_barrier_heavy(self, result):
        row = result.row("streamcluster")
        assert row.barriers > 50

    def test_unknown_benchmark_raises(self, result):
        with pytest.raises(KeyError):
            result.row("x264")

    def test_render(self, result):
        text = render_table3(result)
        assert "fluidanimate" in text


SMALL_SUITE = [
    BenchmarkRef("rodinia", "hotspot"),
    BenchmarkRef("rodinia", "lavaMD"),
    BenchmarkRef("parsec", "swaptions"),
]


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self, run_cache):
        return run_figure4(SMALL_SUITE, cache=run_cache)

    def test_rows_and_approaches(self, result):
        assert len(result.rows) == 3
        for row in result.rows:
            assert set(row.predicted_cycles) == set(APPROACHES)

    def test_rppm_reasonably_accurate(self, result):
        assert result.average_abs_error("RPPM") < 0.25

    def test_signed_and_abs_error_consistent(self, result):
        for row in result.rows:
            for a in APPROACHES:
                assert row.abs_error(a) == abs(row.error(a))

    def test_render(self, result):
        text = render_figure4(result)
        assert "RPPM" in text and "average" in text


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self, run_cache):
        return run_figure5(SMALL_SUITE, cache=run_cache)

    def test_simulated_bars_normalized_to_one(self, result):
        for pair in result.pairs:
            assert pair.simulated_total == pytest.approx(1.0)

    def test_predicted_total_shows_error(self, result):
        for pair in result.pairs:
            assert pair.predicted_total == pytest.approx(1.0, abs=0.35)

    def test_components_non_negative(self, result):
        for pair in result.pairs:
            assert all(v >= 0 for v in pair.predicted.values())
            assert all(v >= 0 for v in pair.simulated.values())

    def test_dominant_component_named(self, result):
        from repro.core.cpi_stack import COMPONENTS
        for pair in result.pairs:
            assert pair.dominant_error_component() in COMPONENTS

    def test_render(self, result):
        assert "hotspot" in render_figure5(result)


class TestTable5:
    @pytest.fixture(scope="class")
    def row(self, run_cache):
        return run_benchmark_dse(
            BenchmarkRef("rodinia", "hotspot"), run_cache
        )

    def test_outcomes_cover_design_space(self, row):
        assert set(row.outcomes) == {
            "smallest", "small", "base", "big", "biggest",
        }

    def test_bound_zero_single_point(self, row):
        assert row.cells[0.0].shortlist == 1

    def test_shortlist_grows_with_bound(self, row):
        sizes = [row.cells[b].shortlist for b in BOUNDS]
        assert sizes == sorted(sizes)

    def test_deficiency_shrinks_with_bound(self, row):
        defs = [row.cells[b].deficiency for b in BOUNDS]
        assert defs == sorted(defs, reverse=True)
        assert all(d >= 0 for d in defs)

    def test_table_over_subset(self, run_cache):
        result = run_table5(
            benchmarks=[BenchmarkRef("rodinia", "hotspot"),
                        BenchmarkRef("rodinia", "lavaMD")],
            cache=run_cache,
        )
        assert len(result.rows) == 2
        assert result.average_deficiency(0.05) <= (
            result.average_deficiency(0.0) + 1e-12
        )
        assert "hotspot" in render_table5(result)


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self, run_cache):
        return run_figure6(
            benchmarks=[BenchmarkRef("parsec", "swaptions"),
                        BenchmarkRef("parsec", "freqmine"),
                        BenchmarkRef("parsec", "streamcluster")],
            cache=run_cache,
        )

    def test_pairs_have_both_graphs(self, result):
        for pair in result.pairs:
            assert pair.predicted.total > 0
            assert pair.simulated.total > 0

    def test_height_error_small(self, result):
        for pair in result.pairs:
            assert pair.height_error() < 0.15

    def test_predicted_classes_match_simulated(self, result):
        assert result.agreement_rate() == 1.0

    def test_classes_match_paper_groups(self, result):
        assert result.pair("swaptions").classify() == "balanced"
        assert result.pair("freqmine").classify() == "main_works"
        assert result.pair("streamcluster").classify() == "imbalanced"

    def test_expected_class_lookup(self):
        assert expected_balance_class("swaptions") == "balanced"

    def test_render(self, result):
        text = render_figure6(result)
        assert "swaptions" in text
        assert render_bottlegraph(result.pairs[0].simulated, "x")
