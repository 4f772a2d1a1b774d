"""Unit tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_reduce_defaults(self):
        args = build_parser().parse_args(["reduce"])
        assert args.benchmark == "ckt1"
        assert args.method == "bdsm"
        assert args.moments == 6
        assert args.scale == "smoke"

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reduce", "--method", "magic"])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reduce", "--benchmark", "ckt9"])


class TestBenchmarksCommand:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("ckt1", "ckt2", "ckt3", "ckt4", "ckt5"):
            assert name in out
        assert "paper ports" in out


class TestReduceCommand:
    @pytest.mark.parametrize("method", ["bdsm", "prima", "eks"])
    def test_reduce_prints_summary(self, capsys, method):
        code = main(["reduce", "--benchmark", "ckt1", "--method", method,
                     "--moments", "3", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction summary" in out
        assert method.upper() in out
        assert "ROM size" in out

    def test_reduce_reports_reusability(self, capsys):
        main(["reduce", "--method", "eks", "--moments", "3"])
        out = capsys.readouterr().out
        assert "| no" in out or "no " in out

    def test_reduce_save_writes_artifact(self, capsys, tmp_path):
        path = tmp_path / "rom.npz"
        code = main(["reduce", "--benchmark", "ckt1", "--moments", "3",
                     "--save", str(path)])
        assert code == 0
        assert path.exists()
        from repro import load_artifact
        assert load_artifact(path).size > 0
        assert "ROM artifact saved" in capsys.readouterr().out

    def test_reduce_store_miss_then_hit(self, capsys, tmp_path):
        argv = ["reduce", "--benchmark", "ckt1", "--moments", "3",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "miss (ROM saved)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "hit (reduction skipped)" in second

    def test_reduce_points_store_miss_then_hit(self, capsys, tmp_path):
        argv = ["reduce", "--benchmark", "ckt1", "--moments", "3",
                "--method", "bdsm", "--points", "0,1e9",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        assert "miss (ROM saved)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hit (reduction skipped)" in capsys.readouterr().out

    def test_reduce_one_point_hits_plain_entry(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(["reduce", "--benchmark", "ckt1", "--moments", "3",
                     "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["reduce", "--benchmark", "ckt1", "--moments", "3",
                     "--points", "0", "--store", store_dir,
                     "--from-store"]) == 0
        assert "hit (reduction skipped)" in capsys.readouterr().out

    def test_reduce_points_fan_out_over_jobs(self, capsys):
        assert main(["reduce", "--benchmark", "ckt1", "--moments", "2",
                     "--method", "bdsm", "--points", "0,1e9",
                     "--jobs", "2"]) == 0
        assert "2 points" in capsys.readouterr().out

    def test_reduce_from_store_without_store_flag(self, capsys):
        assert main(["reduce", "--from-store"]) == 1
        assert "--from-store requires --store" in capsys.readouterr().err

    def test_reduce_from_store_missing_entry_is_clean(self, capsys,
                                                      tmp_path):
        store_dir = tmp_path / "store"
        assert main(["reduce", "--benchmark", "ckt1", "--moments", "3",
                     "--store", str(store_dir)]) == 0
        capsys.readouterr()
        code = main(["reduce", "--benchmark", "ckt2", "--moments", "3",
                     "--store", str(store_dir), "--from-store"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no entry" in err

    def test_reduce_store_rejects_unmemoizable_method(self, capsys,
                                                      tmp_path):
        code = main(["reduce", "--method", "eks", "--moments", "3",
                     "--store", str(tmp_path / "store")])
        assert code == 1
        assert "only memoizes" in capsys.readouterr().err


class TestStoreCommand:
    def test_missing_store_is_clean_error(self, capsys, tmp_path):
        code = main(["store", "list", "--store",
                     str(tmp_path / "nowhere")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no model store" in err

    def test_list_and_stats_and_clear(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        main(["reduce", "--benchmark", "ckt1", "--moments", "3",
              "--store", store_dir])
        capsys.readouterr()
        assert main(["store", "list", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "ckt1-smoke" in out and "BDSM" in out
        assert main(["store", "stats", "--store", store_dir]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["store", "clear", "--store", store_dir]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["store", "list", "--store", store_dir]) == 0
        assert "is empty" in capsys.readouterr().out


class TestQueryCommand:
    def test_query_serves_stored_rom(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        main(["reduce", "--benchmark", "ckt1", "--moments", "3",
              "--store", store_dir])
        capsys.readouterr()
        code = main(["query", "--store", store_dir, "--benchmark", "ckt1",
                     "--method", "bdsm", "--moments", "3", "--points", "4",
                     "--output", "1", "--port", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no reduction performed" in out
        assert "|H| ROM" in out

    def test_query_missing_entry_is_clean(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        main(["reduce", "--benchmark", "ckt1", "--moments", "3",
              "--store", store_dir])
        capsys.readouterr()
        code = main(["query", "--store", store_dir, "--benchmark", "ckt1",
                     "--method", "bdsm", "--moments", "4"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "populate it" in err

    def test_query_missing_store_is_clean(self, capsys, tmp_path):
        code = main(["query", "--store", str(tmp_path / "nope"),
                     "--benchmark", "ckt1"])
        assert code == 1
        assert "no model store" in capsys.readouterr().err

    def test_query_rejects_zero_based_indices(self, tmp_path):
        store_dir = str(tmp_path / "store")
        main(["reduce", "--benchmark", "ckt1", "--moments", "3",
              "--store", store_dir])
        assert main(["query", "--store", store_dir, "--output", "0"]) == 2


class TestSweepCommand:
    def test_sweep_prints_series(self, capsys):
        code = main(["sweep", "--benchmark", "ckt1", "--moments", "3",
                     "--points", "5", "--output", "1", "--port", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "relerr BDSM" in out
        assert "relerr PRIMA" in out
        assert out.count("\n") >= 6

    def test_sweep_rejects_zero_based_indices(self, capsys):
        assert main(["sweep", "--output", "0", "--port", "1"]) == 2

    def test_sweep_rejects_out_of_range_port(self, capsys):
        assert main(["sweep", "--port", "9999"]) == 2

    def test_sweep_parallel_jobs_output_matches_serial(self, capsys):
        argv = ["sweep", "--benchmark", "ckt1", "--moments", "3",
                "--points", "5", "--output", "1", "--port", "2"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # identical tables: the parallel sweep is bit-identical, and the
        # formatting layer prints the exact same digits
        serial_table = [line for line in serial_out.splitlines()
                        if "solver cache" not in line]
        parallel_table = [line for line in parallel_out.splitlines()
                          if "solver cache" not in line]
        assert serial_table == parallel_table

    def test_sweep_rejects_negative_jobs(self, capsys):
        assert main(["sweep", "--jobs", "-2"]) == 2

    def test_sweep_adaptive_reports_refinement(self, capsys):
        code = main(["sweep", "--benchmark", "ckt1", "--moments", "3",
                     "--points", "12", "--output", "1", "--port", "2",
                     "--adaptive", "--target-error", "1e-2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive sweep: evaluated" in out
        assert "relerr BDSM" in out


class TestPartitionedReduceCommand:
    def test_partitioned_reduce_prints_summary(self, capsys):
        code = main(["reduce", "--benchmark", "ckt1", "--moments", "3",
                     "--partitions", "3", "--partitioner", "bfs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "P-BDSM" in out
        assert "3x bfs" in out
        assert "interface" in out

    def test_partitioned_prima_with_jobs(self, capsys):
        code = main(["reduce", "--benchmark", "ckt1", "--moments", "2",
                     "--method", "prima", "--partitions", "2",
                     "--jobs", "2"])
        assert code == 0
        assert "P-PRIMA" in capsys.readouterr().out

    def test_partitioned_natural_strategy(self, capsys):
        code = main(["reduce", "--benchmark", "ckt1", "--moments", "2",
                     "--partitions", "2", "--partitioner", "natural"])
        assert code == 0
        assert "natural" in capsys.readouterr().out

    def test_partitioned_save_exports_dense_artifact(self, capsys,
                                                     tmp_path):
        from repro.store import load_artifact
        target = tmp_path / "partitioned.npz"
        code = main(["reduce", "--benchmark", "ckt1", "--moments", "2",
                     "--partitions", "2", "--save", str(target)])
        assert code == 0
        model = load_artifact(target)
        assert model.method == "P-BDSM"

    def test_partitioned_save_stores_macromodel(self, capsys, tmp_path,
                                                monkeypatch):
        """``--partitions K --save`` stores the bordered macromodel itself,
        not a densified copy."""
        import repro.cli as cli
        from repro import PartitionedROM
        from repro.store import load_artifact
        saved, real_save = [], cli.save_artifact

        def capture(model, path):
            saved.append(model)
            return real_save(model, path)

        monkeypatch.setattr(cli, "save_artifact", capture)
        target = tmp_path / "macromodel.npz"
        assert main(["reduce", "--benchmark", "ckt2", "--moments", "3",
                     "--partitions", "4", "--save", str(target)]) == 0
        rom, = saved
        loaded = load_artifact(target)
        assert isinstance(loaded, PartitionedROM)
        assert loaded.size == rom.size
        assert loaded.nnz == rom.nnz
        assert loaded.partition_info == rom.partition_info
        for s in (0.0, 1j * 1e7, 1j * 1e9):
            assert np.array_equal(loaded.transfer_function(s),
                                  rom.transfer_function(s))

    def test_partitioned_store_hits_per_shard(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        argv = ["reduce", "--benchmark", "ckt1", "--moments", "2",
                "--partitions", "2", "--store", store_dir]
        assert main(argv) == 0
        assert "miss" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hit" in capsys.readouterr().out

    def test_partitioned_rejects_unsupported_method(self, capsys):
        code = main(["reduce", "--benchmark", "ckt1", "--moments", "2",
                     "--method", "eks", "--partitions", "2"])
        assert code == 1
        assert "--partitions" in capsys.readouterr().err

    def test_partitioned_rejects_from_store(self, capsys, tmp_path):
        code = main(["reduce", "--benchmark", "ckt1", "--moments", "2",
                     "--partitions", "2",
                     "--store", str(tmp_path / "s"), "--from-store"])
        assert code == 1
        assert "per shard" in capsys.readouterr().err

    def test_partitioned_rejects_bad_k(self, capsys):
        code = main(["reduce", "--benchmark", "ckt1", "--moments", "2",
                     "--partitions", "0"])
        assert code == 1
        assert "--partitions" in capsys.readouterr().err

    def test_multilevel_reduce_prints_levels(self, capsys):
        code = main(["reduce", "--benchmark", "ckt2", "--moments", "3",
                     "--partitions", "4", "--levels", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4x bfs" in out
        assert "2 levels" in out

    def test_multilevel_reduce_prints_depth_reached(self, capsys):
        """No ckt2-smoke shard reaches the recursion threshold, so a
        two-level request is a one-level reduce and says so."""
        code = main(["reduce", "--benchmark", "ckt2", "--moments", "3",
                     "--partitions", "4", "--levels", "2"])
        assert code == 0
        assert "2 levels requested, depth 1 reached" in capsys.readouterr().out

    def test_multilevel_rejects_zero_levels(self, capsys):
        code = main(["reduce", "--benchmark", "ckt2", "--moments", "3",
                     "--partitions", "4", "--levels", "0"])
        assert code == 1
        assert "error: --levels must be >= 1" in capsys.readouterr().err

    def test_multilevel_requires_partitions(self, capsys):
        code = main(["reduce", "--benchmark", "ckt2", "--moments", "3",
                     "--levels", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --levels")
        assert "--partitions" in err


class TestObservabilityCLI:
    @staticmethod
    def _profile(path, phases):
        import json
        total = sum(t for p, t in phases.items() if "/" not in p)
        path.write_text(json.dumps({
            "schema": 1, "kind": "trace_profile", "total_s": total,
            "phases": {p: {"count": 1, "total_s": t}
                       for p, t in phases.items()}}))
        return str(path)

    def test_trace_diff_gates_seeded_regression(self, capsys, tmp_path):
        base = self._profile(tmp_path / "base.json",
                             {"reduce": 1.0, "reduce/ortho": 0.4})
        # Seeded 50% phase regression, well past the 20% budget.
        cur = self._profile(tmp_path / "cur.json",
                            {"reduce": 1.2, "reduce/ortho": 0.6})
        code = main(["trace", "--from", cur, "--diff", base,
                     "--budget", "20%"])
        captured = capsys.readouterr()
        assert code == 1
        assert "trace regression" in captured.err
        assert "reduce/ortho" in captured.err

    def test_trace_diff_within_budget_passes(self, capsys, tmp_path):
        base = self._profile(tmp_path / "base.json",
                             {"reduce": 1.0, "reduce/ortho": 0.4})
        cur = self._profile(tmp_path / "cur.json",
                            {"reduce": 1.02, "reduce/ortho": 0.42})
        code = main(["trace", "--from", cur, "--diff", base,
                     "--budget", "20%"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace diff OK" in out

    def test_trace_budget_requires_diff(self, capsys):
        assert main(["trace", "--budget", "20%"]) == 1
        assert "--diff" in capsys.readouterr().err

    def test_trace_profile_out_self_diff_is_clean(self, capsys, tmp_path):
        profile = tmp_path / "profile.json"
        assert main(["trace", "--benchmark", "ckt1", "--method", "bdsm",
                     "--profile-out", str(profile)]) == 0
        capsys.readouterr()
        code = main(["trace", "--from", str(profile), "--diff",
                     str(profile), "--budget", "20%", "--mode", "share"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace diff OK" in out

    def test_stats_json_out_round_trips_through_from(self, capsys,
                                                     tmp_path):
        import json
        dump = tmp_path / "stats.json"
        assert main(["stats", "--json-out", str(dump)]) == 0
        capsys.readouterr()
        payload = json.loads(dump.read_text())
        assert set(payload) == {"metrics"}
        assert main(["stats", "--from", str(dump)]) == 0

    @pytest.mark.parametrize("document", [{}, {"perf": {"timers": {}}},
                                          {"metrics": []}, []])
    def test_stats_from_without_metrics_object_is_typed_error(
            self, capsys, tmp_path, document):
        # A ValidationError, reported as a clean exit 1 — not an empty
        # exposition with exit 0.
        import json
        dump = tmp_path / "stats.json"
        dump.write_text(json.dumps(document))
        assert main(["stats", "--from", str(dump)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --from:")
        assert "'metrics' object" in captured.err

    def test_ledger_flag_records_and_obs_report_reads(self, capsys,
                                                      tmp_path):
        from repro.obs.ledger import read_ledger
        ledger = tmp_path / "ledger.jsonl"
        argv = ["reduce", "--benchmark", "ckt1", "--moments", "3",
                "--ledger", str(ledger)]
        assert main(argv) == 0
        assert "ledger: recorded" in capsys.readouterr().out
        assert main(argv) == 0
        capsys.readouterr()
        records = read_ledger(ledger)
        assert len(records) == 2
        assert records[0]["kind"] == "reduce"
        assert records[0]["config"]["benchmark"] == "ckt1"
        assert records[0]["span_rollup"]
        assert main(["obs", "report", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "reduce" in out and "trend" in out
        # Reporting must not append to the ledger it reads.
        assert len(read_ledger(ledger)) == 2

    def test_health_flag_prints_verdict_and_feeds_ledger(self, capsys,
                                                         tmp_path):
        from repro.obs.ledger import read_ledger
        ledger = tmp_path / "ledger.jsonl"
        assert main(["reduce", "--benchmark", "ckt1", "--moments", "3",
                     "--health", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "health:" in out
        (record,) = read_ledger(ledger)
        assert record["health"]["status"] in ("ok", "warn")
        assert record["health"]["checks"]

    def test_obs_report_empty_ledger_is_clean(self, capsys, tmp_path):
        assert main(["obs", "report", "--ledger",
                     str(tmp_path / "none.jsonl")]) == 0
        assert "no readable records" in capsys.readouterr().out
