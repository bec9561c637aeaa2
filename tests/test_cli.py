"""Command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        for argv in (
            ["solve", "--dataset", "WordNet"],
            ["order", "--dataset", "WordNet"],
            ["bench"],
            ["datasets"],
            ["info"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_solve_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve"])

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--dataset", "WordNet", "--algorithm", "magic"]
            )

    @pytest.mark.parametrize("bad", ["0", "-4", "many", "64", "auto"])
    def test_block_size_rejects_garbage(self, bad):
        """``--block-size`` is retired (the worker count picks the sweep
        engine), so every value is rejected, garbage included."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--dataset", "WordNet", "--block-size", bad]
            )

    def test_kernel_flag_retired(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--dataset", "WordNet", "--kernel", "blocked"]
            )


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "WordNet" in out
        assert "146,005" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "parapsp" in out
        assert "fig10" in out

    def test_solve_malformed_fault_plan_names_the_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--rmat", "5", "--fault-plan", "kill:worker=x"])
        assert "--fault-plan:" in str(exc.value.code)

    def test_solve_dataset_sim(self, capsys):
        code = main(
            [
                "solve",
                "--dataset",
                "WordNet",
                "--scale",
                "150",
                "--threads",
                "8",
                "--backend",
                "sim",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parapsp" in out
        assert "work units" in out

    def test_solve_writes_matrix(self, tmp_path, capsys):
        target = tmp_path / "d.npy"
        main(
            [
                "solve",
                "--dataset",
                "WordNet",
                "--scale",
                "100",
                "--out",
                str(target),
            ]
        )
        dist = np.load(target)
        assert dist.shape == (100, 100)
        assert np.all(np.diag(dist) == 0)

    def test_solve_edgelist(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        src.write_text("0 1\n1 2\n2 3\n")
        assert main(["solve", "--edgelist", str(src)]) == 0
        assert "n=4" in capsys.readouterr().out

    def test_solve_batched_emits_kernel_batch_metrics(
        self, tmp_path, capsys
    ):
        """One worker and two threads both record the row-kernel
        counters, kernel-consistent with ops.*, and the artifact's env
        names the sweep kernel that ran."""
        from repro.core import native
        from repro.obs import load_artifact
        from repro.obs.regress import check_kernel_consistency

        def counters(name, *flags):
            target = tmp_path / name
            argv = ["solve", "--rmat", "6", "--seed", "3", *flags,
                    "--metrics", str(target)]
            assert main(argv) == 0
            art = load_artifact(str(target))
            assert art["env"]["sweep_kernel"] == native.kernel_name()
            assert art["env"].get("sweep_simd") == native.simd_name()
            assert "sweep_kernel" not in art["params"]
            assert "sweep_simd" not in art["params"]
            found = art["counters"]
            assert check_kernel_consistency(found) == []
            return found

        one = counters("BENCH_1w.json", "--threads", "1")
        two = counters("BENCH_2w.json", "--backend", "threads",
                       "--threads", "2")
        out = capsys.readouterr().out
        assert f"sweep kernel : {native.kernel_name()}" in out
        if native.simd_name() is not None:
            assert f"sweep merge  : {native.simd_name()}" in out
        for found in (one, two):
            assert found["kernel.relax.calls"] > 0
            assert not any(k.startswith("kernel.batch.") for k in found)
        assert one["ops.pops"] > 0 and two["ops.pops"] > 0

    def test_order_command(self, capsys):
        code = main(
            [
                "order",
                "--dataset",
                "WordNet",
                "--scale",
                "300",
                "--method",
                "multilists",
                "--threads",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "multilists" in out
        assert "exact=True" in out

    def test_analyze_command(self, capsys):
        assert main(
            ["analyze", "--dataset", "WordNet", "--scale", "150", "--top", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "diameter" in out
        assert "closeness" in out

    def test_paths_command(self, capsys):
        code = main(
            [
                "paths",
                "--dataset",
                "WordNet",
                "--scale",
                "150",
                "--source",
                "0",
                "--target",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "->" in out

    @pytest.mark.parametrize(("command", "expected"), [
        (["analyze", "--top", "1"], "rmat-s5-ef8"),
        (["paths", "--source", "0", "--target", "3"], "path     : 0 ->"),
    ])
    def test_analyze_and_paths_take_rmat(self, command, expected, capsys):
        assert main(command + ["--rmat", "5"]) == 0
        assert expected in capsys.readouterr().out

    def test_paths_unreachable(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        src.write_text("0 1\n2 3\n")
        code = main(
            [
                "paths",
                "--edgelist",
                str(src),
                "--source",
                "0",
                "--target",
                "3",
            ]
        )
        assert code == 1
        assert "unreachable" in capsys.readouterr().out

    def test_store_build_query_and_info(self, tmp_path, capsys):
        target = tmp_path / "g.dist"
        code = main(
            [
                "store", "--rmat", "6", "--out", str(target),
                "--shard-rows", "16", "--codec", "u16q",
                "--epsilon", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "codec     : u16q" in out
        assert "certified max abs error" in out
        assert "min" in out and "mean" in out and "max" in out

        assert main(["info", "--store", str(target)]) == 0
        out = capsys.readouterr().out
        assert "u16q" in out
        assert "repro.serve.store/2" in out

        assert main(
            ["query", "--store", str(target), "--u", "0", "--v", "5"]
        ) == 0
        assert "dist(0, 5)" in capsys.readouterr().out

        assert main(
            ["query", "--store", str(target), "--u", "0", "--v", "5",
             "--approx"]
        ) == 0
        out = capsys.readouterr().out
        assert "<= dist(0, 5) <=" in out
        assert "gap" in out

        # a generous error budget routes through the ALT short circuit
        assert main(
            ["query", "--store", str(target), "--u", "0", "--v", "5",
             "--max-error", "1000"]
        ) == 0
        assert "ALT" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["no-landmarks", "no-crc32"])
    def test_query_on_damaged_store_is_a_clean_error(self, tmp_path, damage):
        target = tmp_path / "g.dist"
        assert main(["store", "--rmat", "6", "--out", str(target),
                     "--shard-rows", "16", "--epsilon", "0"]) == 0
        if damage == "no-landmarks":
            (target / "landmarks.bin").unlink()
        else:
            manifest = json.loads((target / "manifest.json").read_text())
            del manifest["shards"][0]["crc32"]
            (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as exc_info:
            main(["query", "--store", str(target), "--u", "0", "--v", "5"])
        assert str(exc_info.value.code).startswith("repro-apsp query: error:")

    def test_store_raw_reports_no_compression(self, tmp_path, capsys):
        target = tmp_path / "raw.dist"
        assert main(
            ["store", "--rmat", "5", "--out", str(target),
             "--shard-rows", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "codec     : raw" in out
        # n=32 → 32*32*8 bytes of shard payload
        assert "8192" in out

    def test_bench_single_experiment(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "-e",
                "table2",
                "--profile",
                "quick",
                "--save",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "table2.txt").exists()

    def test_monitor_command(self, tmp_path, capsys):
        from repro.serve import (
            JsonlSink,
            TelemetryCollector,
            generate_trace,
            replay_virtual,
        )
        from repro.serve.traffic import TrafficSpec

        log = tmp_path / "events.jsonl"
        sink = JsonlSink(str(log), params={"seed": 3})
        trace = generate_trace(
            TrafficSpec(num_requests=32, rate=2000.0, zipf_s=1.1, seed=3),
            128,
        )
        replay_virtual(
            trace, n=128, shard_rows=16, cache_shards=2, optimized=True,
            telemetry=TelemetryCollector(sink=sink),
        )
        sink.close()

        assert main(["monitor", str(log), "--check"]) == 0
        out = capsys.readouterr().out
        assert "valid" in out

        assert main(["monitor", str(log), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest requests" in out
        assert "req-0000" in out

        assert main(["monitor", str(log), "--tail", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"other/9"}\n{"not an event"}\n')
        assert main(["monitor", str(bad), "--check"]) == 1

    @pytest.mark.parametrize("line", [
        b'{"dur":"x","kind":"answer","t":0.5,"trace_id":"r"}',
        b'{"attrs":[1],"dur":0.0,"kind":"answer","t":0.5,"trace_id":"r"}',
        b'{"dur":0.0,"kind":"answer","t":NaN,"trace_id":"r"}',
        b'{"dur":0.0,"kind":"answer","t":0.5,"trace_id":"\xff"}',
    ])
    @pytest.mark.parametrize("mode", [[], ["--tail", "3"]])
    def test_monitor_rejects_a_malformed_log_cleanly(self, tmp_path, line,
                                                     mode):
        log = tmp_path / "events.jsonl"
        log.write_bytes(
            b'{"params":{},"schema":"repro.serve.telemetry/1"}\n' + line
        )
        with pytest.raises(SystemExit) as exc:
            main(["monitor", str(log), *mode])
        assert str(exc.value.code).startswith(
            f"repro-apsp monitor: error: {log}:2: "
        )
        assert main(["monitor", str(log), "--check"]) == 1

    def test_monitor_takes_the_monitor_module_flags(self):
        import argparse

        from repro.serve import monitor

        def options(parser):
            return {opt for action in parser._actions
                    for opt in action.option_strings}

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert options(sub.choices["monitor"]) == options(
            monitor.build_parser()
        )
        assert {"--check", "--tail", "--top"} <= options(monitor.build_parser())

    def test_update_refuses_the_graph_of_an_earlier_generation(
        self, tmp_path, capsys
    ):
        target = str(tmp_path / "s")
        assert main(["store", "--rmat", "6", "--out", target,
                     "--shard-rows", "16"]) == 0
        update = ["update", "--store", target, "--rmat", "6"]
        assert main(update + ["--updates", "set=1,2,5.0"]) == 0
        capsys.readouterr()
        # the CLI rebuilds the original graph, which the generation-1
        # store no longer serves
        with pytest.raises(SystemExit) as exc:
            main(update + ["--updates", "del=1,5"])
        assert str(exc.value.code).startswith("repro-apsp update: error: ")
        assert "graph" in str(exc.value.code)

    def test_serve_bench_takes_the_bench_module_flags(self):
        import argparse

        from repro.serve import bench

        def options(parser):
            return {opt for action in parser._actions
                    for opt in action.option_strings}

        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        cli_options = options(sub.choices["serve-bench"])
        assert cli_options == options(bench.build_parser())
        assert {"--update", "--dist", "--epsilon", "--seed",
                "--edge-factor"} <= cli_options
        assert len(cli_options - {"-h", "--help"}) == 16

    def test_serve_bench_update_writes_update_artifact(self, tmp_path):
        out = tmp_path / "BENCH_update.json"
        assert main(["serve-bench", "--update", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["name"] == "update-smoke"

    def test_serve_bench_refuses_flags_the_scenario_ignores(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_dist.json"
        code = main(["serve-bench", "--dist", "--epsilon", "5",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro-apsp serve-bench: error: argument --epsilon" in err
        assert not out.exists()

    def test_serve_bench_flags_reach_bench(self, tmp_path, capsys):
        code = main(
            [
                "serve-bench",
                "--scale", "5",
                "--shard-rows", "8",
                "--cache-shards", "2",
                # raw's opt-vs-naive latency gate needs the CI scale;
                # the flag-plumbing check only needs a passing codec
                "--codec", "u16q",
                "--out", str(tmp_path / "BENCH_serve.json"),
                "--events", str(tmp_path / "events.jsonl"),
                "--request-trace", str(tmp_path / "req.json"),
            ]
        )
        assert code == 0
        assert (tmp_path / "BENCH_serve.json").exists()
        assert (tmp_path / "events.jsonl").exists()
        assert (tmp_path / "req.json").exists()
        assert main(
            ["monitor", str(tmp_path / "events.jsonl"), "--check"]
        ) == 0


class TestConfigFiles:
    """``--config`` file + flags: every given flag wins, and the summary
    and ``--save-config`` report the resolved run."""

    @staticmethod
    def _save(tmp_path, name, argv):
        path = tmp_path / name
        assert main(argv + ["--save-config", str(path)]) == 0
        return path

    def test_solve_flag_equal_to_default_overrides_config(
        self, tmp_path, capsys
    ):
        sim = self._save(tmp_path, "sim.json", [
            "solve", "--rmat", "5", "--backend", "sim", "--threads", "4",
        ])
        out = self._save(tmp_path, "out.json", [
            "solve", "--rmat", "5", "--config", str(sim),
            "--backend", "serial", "--threads", "1",
        ])
        saved = json.loads(out.read_text())
        assert saved["parallel"]["backend"] == "serial"
        assert saved["parallel"]["num_threads"] == 1
        assert "(serial, 1 threads" in capsys.readouterr().out

    def test_store_flag_equal_to_default_overrides_config(
        self, tmp_path, capsys
    ):
        f4 = self._save(tmp_path, "f4.json", [
            "store", "--rmat", "5", "--out", str(tmp_path / "a"),
            "--codec", "f4",
        ])
        out = self._save(tmp_path, "out.json", [
            "store", "--rmat", "5", "--out", str(tmp_path / "b"),
            "--config", str(f4), "--codec", "raw",
        ])
        assert json.loads(out.read_text())["store"]["codec"] == "raw"
        assert "codec     : raw" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "store"])
    def test_saved_config_is_a_fixed_point(self, tmp_path, command):
        argv = [command, "--rmat", "5"]
        if command == "store":
            first_argv = argv + ["--out", str(tmp_path / "a"),
                                 "--codec", "u16q", "--epsilon", "0.5"]
            again_argv = argv + ["--out", str(tmp_path / "b")]
        else:
            first_argv = argv + ["--schedule", "block", "--threads",
                                 "2", "--timeout", "30"]
            again_argv = argv
        first = self._save(tmp_path, "first.json", first_argv)
        again = self._save(tmp_path, "again.json",
                           again_argv + ["--config", str(first)])
        assert again.read_bytes() == first.read_bytes()

    def test_solve_summary_reports_the_resolved_run(
        self, tmp_path, capsys
    ):
        from repro.config import SolverConfig

        cfg = tmp_path / "cfg.json"
        cfg.write_text(SolverConfig.from_kwargs(
            backend="sim", num_threads=2,
        ).to_json())
        assert main(["solve", "--rmat", "5", "--config", str(cfg)]) == 0
        assert "work units" in capsys.readouterr().out

        cfg.write_text(SolverConfig.from_kwargs(
            on_worker_death="raise",
        ).to_json())
        assert main([
            "solve", "--rmat", "5", "--config", str(cfg),
            "--fault-plan", "stall:worker=0,for=0.01",
        ]) == 0
        out = capsys.readouterr().out
        assert "policy=raise" in out
        assert "work units" not in out

    def test_saved_config_with_retired_keys_still_loads(self, tmp_path):
        """Config files saved by earlier versions carry
        ``algorithm.delta`` and a ``batch`` group; both are dropped on
        load, and re-saving writes the current schema."""
        old = self._save(tmp_path, "old.json", [
            "solve", "--rmat", "5", "--threads", "2",
        ])
        data = json.loads(old.read_text())
        data["algorithm"]["delta"] = 0.5
        data["batch"] = {"block_size": "auto", "kernel": "blocked"}
        old.write_text(json.dumps(data))
        again = self._save(tmp_path, "again.json", [
            "solve", "--rmat", "5", "--config", str(old),
        ])
        saved = json.loads(again.read_text())
        assert "batch" not in saved and "delta" not in saved["algorithm"]
        assert saved["parallel"]["num_threads"] == 2

    def test_saved_serve_config_with_hit_cost_still_loads(self, tmp_path):
        """Serve config files saved by earlier versions carry a ``cost``
        group (``hit_cost`` included) and other groups no reader reads;
        they are dropped on load, re-saving writes the two read groups,
        and an unknown key in a read group is still an error."""
        old = self._save(tmp_path, "old.json", [
            "store", "--rmat", "5", "--out", str(tmp_path / "a"),
            "--codec", "f4",
        ])
        data = json.loads(old.read_text())
        data["cost"] = {"hit_cost": 2e-5, "load_base": 1e-3}
        data["routing"] = {"num_nodes": 4, "replication": 2}
        data["engine"]["batch_max"] = 8
        old.write_text(json.dumps(data))
        again = self._save(tmp_path, "again.json", [
            "store", "--rmat", "5", "--out", str(tmp_path / "b"),
            "--config", str(old),
        ])
        saved = json.loads(again.read_text())
        assert set(saved) == {"engine", "store"}
        assert "batch_max" not in saved["engine"]
        assert saved["store"]["codec"] == "f4"
        data["engine"]["miss_cost"] = 1
        old.write_text(json.dumps(data))
        with pytest.raises(SystemExit, match="miss_cost"):
            main(["store", "--rmat", "5", "--out", str(tmp_path / "c"),
                  "--config", str(old)])
