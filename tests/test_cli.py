"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_config_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "rodinia.nn", "--config", "gigantic"]
            )

    def test_report_artifact_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "figure9"])

    def test_report_jobs_flag(self):
        args = build_parser().parse_args(
            ["report", "figure4", "--jobs", "2"]
        )
        assert args.jobs == 2
        assert build_parser().parse_args(
            ["report", "figure4"]
        ).jobs is None

    def test_bench_check_flag(self):
        args = build_parser().parse_args(["bench", "--quick", "--check"])
        assert args.check and args.quick
        assert not build_parser().parse_args(["bench"]).check

    def test_bench_service_flags(self):
        args = build_parser().parse_args(
            ["bench", "--no-service"]
        )
        assert args.no_service
        assert args.service_output == "BENCH_service.json"
        args = build_parser().parse_args(
            ["bench", "--service-output", "/tmp/s.json"]
        )
        assert not args.no_service
        assert args.service_output == "/tmp/s.json"

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3", "--no-store"]
        )
        assert args.port == 0
        assert args.workers == 3
        assert args.no_store
        assert args.host == "127.0.0.1"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rodinia:" in out
        assert "design points:" in out

    def test_profile_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "profile.json"
        assert main(["profile", "rodinia.nn", "-o", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["name"] == "rodinia.nn"
        assert data["n_threads"] == 4

    def test_predict_from_stored_profile(self, tmp_path, capsys):
        out_file = tmp_path / "profile.json"
        main(["profile", "rodinia.nn", "-o", str(out_file)])
        capsys.readouterr()
        assert main(["predict", "--profile-json", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "rodinia.nn on base" in out
        assert "CPI stack" in out

    def test_predict_needs_input(self):
        with pytest.raises(SystemExit, match="profile-json"):
            main(["predict"])

    def test_predict_by_name(self, capsys):
        assert main(["predict", "nn", "--config", "small"]) == 0
        assert "on small" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "rodinia.nn", "--scale", "0.3"]) == 0
        assert "invalidations" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "rodinia.nn", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "RPPM" in out and "error" in out

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit, match="unknown"):
            main(["simulate", "gcc"])

    def test_unknown_suite(self):
        with pytest.raises(SystemExit, match="unknown suite"):
            main(["simulate", "spec.nn"])

    def test_parsec_shorthand(self, capsys):
        assert main(["simulate", "swaptions", "--scale", "0.2"]) == 0

    def test_report_table1(self, capsys):
        assert main(["report", "table1"]) == 0
        assert "#Threads" in capsys.readouterr().out

    def test_bench_quick_writes_record(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_profiler.json"
        assert main([
            "bench", "--quick", "--scale", "0.2", "-o", str(out_file),
            "--no-service",
        ]) == 0
        assert "reuse-distance engine" in capsys.readouterr().out
        record = json.loads(out_file.read_text())
        assert record["mode"] == "quick"
        collector = record["collector"]
        assert collector["data_accesses"] > 0
        assert collector["vectorized_aps"] > 0
        assert collector["scalar_aps"] > 0
        # Speedup *thresholds* live in the perf-marked benches
        # (benchmarks/bench_profiler.py) and `bench --check`; here
        # only record shape.
        assert collector["speedup"] > 0
        ilp = record["ilp"]
        assert ilp["pools"] > 0 and ilp["samples"] > 0
        assert ilp["speedup"] > 0
        # Equivalence is not timing-sensitive: enforce it even here.
        assert ilp["max_rel_err"] <= 1e-9
        assert record["suite"]["instructions"] > 0

    def test_bench_expand_section(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_profiler.json"
        assert main([
            "bench", "--quick", "--scale", "0.2", "-o", str(out_file),
            "--no-service",
        ]) == 0
        record = json.loads(out_file.read_text())
        assert record["schema"] >= 4
        expand = record["expand"]
        assert expand["instructions"] > 0
        assert expand["arena_bytes"] > 0
        assert expand["speedup"] > 0
        assert 0.0 <= expand["memo_hit_rate"] <= 1.0
        # Equivalence is not timing-sensitive: enforce it even here.
        assert expand["digest_mismatches"] == 0
        assert expand["key_mismatches"] == 0
        assert expand["key_ms"] > 0 and expand["key_speedup"] > 0


class TestDefaultStore:
    """``predict`` and ``compare`` by name open the default store, so
    after ``repro report`` they load the profile and the simulation."""

    SCALE = 0.1

    @pytest.mark.parametrize("command", ["predict", "compare"])
    def test_reads_what_run_cache_stored(self, command, monkeypatch, capsys):
        import repro.service.engine as engine_mod
        from repro.arch.presets import table_iv_config
        from repro.experiments.store import default_store
        from repro.experiments.suites import BenchmarkRef, RunCache
        from repro.service.engine import (
            PredictionEngine, format_compare, format_prediction,
        )

        render = {"predict": format_prediction, "compare": format_compare}
        storeless = getattr(PredictionEngine(), command)(
            "rodinia.nn", scale=self.SCALE
        )
        expected = render[command](storeless) + "\n"
        RunCache(scale=self.SCALE, store=default_store()).prefetch(
            [BenchmarkRef("rodinia", "nn")],
            configs=(table_iv_config("base"),), workers=1, simulate=True,
        )

        def boom(*args, **kwargs):  # pragma: no cover - only on failure
            raise AssertionError("the stored artifact must be read")

        monkeypatch.setattr(engine_mod, "simulate", boom)
        monkeypatch.setattr(engine_mod, "profile_workload", boom)
        assert main([command, "rodinia.nn", "--scale", str(self.SCALE)]) == 0
        assert capsys.readouterr().out == expected


class TestStoreCommand:
    def _root(self, tmp_path, monkeypatch):
        root = tmp_path / "store-root"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        return root

    def _populate(self, root):
        from repro.experiments.store import ProfileStore, TraceCache
        from tests.conftest import barrier_workload
        cache = TraceCache(store=ProfileStore(root))
        cache.get(barrier_workload(seed=5))

    def test_stats_empty(self, tmp_path, monkeypatch, capsys):
        self._root(tmp_path, monkeypatch)
        assert main(["store", "stats"]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_stats_lists_kinds(self, tmp_path, monkeypatch, capsys):
        root = self._root(tmp_path, monkeypatch)
        self._populate(root)
        assert main(["store", "stats"]) == 0
        out = capsys.readouterr().out
        assert "traces" in out and "total" in out

    def test_prune_requires_filter_or_all(
        self, tmp_path, monkeypatch
    ):
        self._root(tmp_path, monkeypatch)
        with pytest.raises(SystemExit, match="--all"):
            main(["store", "prune"])

    def test_prune_kind(self, tmp_path, monkeypatch, capsys):
        root = self._root(tmp_path, monkeypatch)
        self._populate(root)
        assert main(["store", "prune", "--kind", "traces"]) == 0
        assert "removed" in capsys.readouterr().out
        assert not list((root / "traces").glob("*.arena"))
        assert not list((root / "traces").glob("*.pkl"))

    def test_prune_dry_run(self, tmp_path, monkeypatch, capsys):
        root = self._root(tmp_path, monkeypatch)
        self._populate(root)
        assert main(["store", "prune", "--all", "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        assert list((root / "traces").glob("*.arena"))
