"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.powergrid.generators import synthetic_ibmpg_like
from repro.powergrid.spice import read_spice, write_spice


@pytest.fixture
def netlist(tmp_path):
    grid = synthetic_ibmpg_like(nx=10, ny=10, pad_pitch=5, transient=True, seed=0)
    path = tmp_path / "grid.sp"
    write_spice(grid, path)
    return path


class TestER:
    def test_all_edges_to_csv(self, tmp_path, capsys):
        out = tmp_path / "er.csv"
        code = main([
            "er", "--generator", "grid2d:8x8", "--method", "cholinv",
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,q,r_eff"
        assert len(lines) == 1 + 2 * 7 * 8  # edges of an 8x8 grid

    def test_explicit_pairs_stdout(self, capsys):
        code = main([
            "er", "--generator", "grid2d:5x5", "--method", "exact",
            "--pairs", "0,24", "0,1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        p, q, r = lines[1].split(",")
        assert (p, q) == ("0", "24")
        assert float(r) > 0

    def test_methods_agree(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["er", "--generator", "grid2d:6x6", "--method", "exact",
              "--output", str(out_a)])
        main(["er", "--generator", "grid2d:6x6", "--method", "cholinv",
              "--epsilon", "0", "--drop-tol", "0", "--output", str(out_b)])
        a = np.loadtxt(out_a, delimiter=",", skiprows=1)
        b = np.loadtxt(out_b, delimiter=",", skiprows=1)
        assert np.allclose(a, b, rtol=1e-8)

    def test_unknown_generator(self):
        with pytest.raises(SystemExit):
            main(["er", "--generator", "torus:3"])

    def test_save_and_load_engine_round_trip(self, tmp_path, capsys):
        engine_path = tmp_path / "engine.npz"
        main(["er", "--generator", "grid2d:6x6", "--pairs", "0,35",
              "--save-engine", str(engine_path)])
        built = capsys.readouterr().out.splitlines()[1]
        assert engine_path.exists()
        code = main(["er", "--load-engine", str(engine_path), "--pairs", "0,35"])
        assert code == 0
        loaded = capsys.readouterr().out.splitlines()[1]
        assert loaded == built

    def test_load_engine_rejects_graph_source(self, tmp_path, capsys):
        engine_path = tmp_path / "e.npz"
        main(["er", "--generator", "grid2d:4x4", "--pairs", "0,1",
              "--save-engine", str(engine_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="load-engine"):
            main(["er", "--generator", "grid2d:9x9",
                  "--load-engine", str(engine_path), "--pairs", "0,1"])

    def test_save_engine_refused_for_exact(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="persistence"):
            main(["er", "--generator", "grid2d:4x4", "--method", "exact",
                  "--pairs", "0,1", "--save-engine", str(tmp_path / "x.npz")])

    def test_sharded_flag(self, capsys):
        code = main(["er", "--generator", "grid2d:5x5", "--method", "exact",
                     "--max-shard-nodes", "25", "--pairs", "0,24"])
        assert code == 0
        _, _, r = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(r) > 0

    def test_partition_report_names_max_shard_nodes(self):
        with pytest.raises(SystemExit, match="--max-shard-nodes N"):
            main(["er", "--generator", "grid2d:4x4", "--method", "exact",
                  "--partition-report"])

    def test_partition_report_prints_the_cap(self, capsys):
        code = main(["er", "--generator", "grid2d:10x10", "--method", "exact",
                     "--max-shard-nodes", "40", "--partition-report",
                     "--pairs", "0,99"])
        assert code == 0
        err = capsys.readouterr().err
        assert "partition: max_shard_nodes=40 " in err
        assert "component 0: regions=" in err

    @pytest.mark.parametrize(
        "removed", ["--shard-strategy", "--separator", "--lazy-shards"]
    )
    def test_removed_sharding_flags_are_rejected(self, removed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["er", "--generator", "grid2d:4x4", removed, "component"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["er", "service"])
    @pytest.mark.parametrize(
        "flags, message",
        [(["--max-shard-nodes", "1"],
          "max_shard_nodes must be None or an integer >= 2, got 1"),
         (["--epsilon", "nan"], "epsilon"),
         (["--build-workers", "0"], "build_workers must be >= 1, got 0")],
    )
    def test_bad_engine_values_are_usage_errors(
        self, command, flags, message, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--generator", "grid2d:4x4", "--pairs", "0,1", *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error: " in err
        assert message in err
        assert "Traceback" not in err

    def test_naive_method_available(self, capsys):
        code = main(["er", "--generator", "grid2d:4x4", "--method", "naive",
                     "--pairs", "0,15"])
        assert code == 0

    @pytest.mark.parametrize("command", ["er", "service"])
    @pytest.mark.parametrize(
        "item, message",
        [("0:5", "'0:5' is not a pair of integer node ids"),
         ("0,1,2", "'0,1,2' is not a pair"),
         ("0,500", "node id 500 is out of range for a graph with 64 nodes")],
    )
    def test_bad_pairs_are_usage_errors(self, command, item, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--generator", "grid2d:8x8", "--method", "exact",
                  "--pairs", "0,1", item])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error: --pairs" in err
        assert message in err

    @pytest.mark.parametrize("command", ["er", "service"])
    @pytest.mark.parametrize("sharding", ["component", "separator"])
    def test_sla_on_sharded_engine_is_a_usage_error(
        self, command, sharding, capsys, monkeypatch
    ):
        """Rejected before any engine is built, for a cap at the mesh's 64
        nodes (one shard per component) and one that splits it."""
        cap = {"component": "64", "separator": "16"}[sharding]

        def no_build(*args, **kwargs):
            raise AssertionError("built an engine before rejecting the SLA flags")

        monkeypatch.setattr("repro.core.engine.build_engine", no_build)
        monkeypatch.setattr("repro.service.resistance_service.build_engine", no_build)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--generator", "mesh2d:8x8", "--pairs", "0,63",
                  "--rel-tol", "0.05", "--max-shard-nodes", cap])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error: " in err
        assert f"max_shard_nodes={cap}" in err


class TestService:
    def test_pairs_and_top_k(self, capsys):
        code = main([
            "service", "--generator", "grid2d:6x6",
            "--pairs", "0,35", "0,1", "--repeat", "3", "--top-k", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "0,35," in captured.out
        assert "top 2 central edges" in captured.out
        assert "hit rate" in captured.err

    def test_reference_mode_agrees(self, capsys):
        main(["service", "--generator", "grid2d:5x5", "--mode", "reference",
              "--pairs", "0,24"])
        ref = capsys.readouterr().out.splitlines()[1]
        main(["service", "--generator", "grid2d:5x5", "--mode", "blocked",
              "--pairs", "0,24"])
        blocked = capsys.readouterr().out.splitlines()[1]
        assert ref == blocked

    def test_nothing_to_do(self, capsys):
        assert main(["service", "--generator", "grid2d:4x4"]) == 1

    def test_workers_fan_out_same_answers(self, capsys):
        main(["service", "--generator", "grid2d:5x5", "--pairs", "0,24", "3,9"])
        serial = capsys.readouterr().out.splitlines()[1:3]
        code = main(["service", "--generator", "grid2d:5x5",
                     "--max-shard-nodes", "25",
                     "--workers", "3", "--pairs", "0,24", "3,9"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:3] == serial
        assert "3 worker(s)" in captured.err

    def test_batch_window_micro_batches(self, capsys):
        code = main(["service", "--generator", "grid2d:5x5",
                     "--batch-window", "0.05", "--repeat", "4",
                     "--pairs", "0,24", "0,1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "micro-batching: 4 requests coalesced" in captured.err
        assert "0,24," in captured.out

    def test_warm_start_from_saved_engine(self, tmp_path, capsys):
        engine_path = tmp_path / "warm.npz"
        main(["service", "--generator", "grid2d:6x6", "--pairs", "0,35",
              "--save-engine", str(engine_path)])
        cold = capsys.readouterr().out.splitlines()[1]
        code = main(["service", "--load-engine", str(engine_path),
                     "--pairs", "0,35", "--top-k", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == cold
        assert "top 2 central edges" in captured.out


class TestServiceSLA:
    PAIRS = ["--pairs", "0,255", "0,1", "3,200"]

    def test_rel_tol_reports_the_tier_split_with_the_exact_answers(self, capsys):
        main(["service", "--generator", "mesh2d:16x16", *self.PAIRS])
        plain = capsys.readouterr().out.splitlines()[1:4]
        code = main(["service", "--generator", "mesh2d:16x16", *self.PAIRS,
                     "--rel-tol", "0.05"])
        assert code == 0
        captured = capsys.readouterr()
        split = [line for line in captured.err.splitlines()
                 if line.startswith("tier split")]
        assert len(split) == 1
        assert "landmark=" in split[0] and "exact=" in split[0]
        assert captured.out.splitlines()[1:4] == plain

    def test_calibration_sidecar_is_saved_and_reloaded(self, tmp_path, capsys):
        engine_path = tmp_path / "engine.npz"
        sidecar = tmp_path / "engine.npz.calibration.json"
        main(["service", "--generator", "mesh2d:16x16", *self.PAIRS,
              "--rel-tol", "0.05", "--save-engine", str(engine_path)])
        first = capsys.readouterr()
        assert sidecar.exists()
        assert f"calibration saved to {sidecar}" in first.err
        code = main(["service", "--load-engine", str(engine_path), *self.PAIRS,
                     "--rel-tol", "0.05"])
        assert code == 0
        second = capsys.readouterr()
        assert f"calibration loaded from {sidecar}" in second.err
        assert second.out.splitlines()[1:4] == first.out.splitlines()[1:4]

    def test_sidecar_without_the_landmark_tier_names_the_file(
        self, tmp_path, capsys
    ):
        engine_path = tmp_path / "engine.npz"
        sidecar = tmp_path / "engine.npz.calibration.json"
        main(["service", "--generator", "mesh2d:16x16", *self.PAIRS,
              "--rel-tol", "0.05", "--save-engine", str(engine_path)])
        capsys.readouterr()
        # a sidecar calibrated for another ladder
        data = json.loads(sidecar.read_text())
        data["tiers"] = {"spanning_tree": dict(
            data["tiers"]["landmark"], tier="spanning_tree"
        )}
        sidecar.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exit_info:
            main(["service", "--load-engine", str(engine_path), *self.PAIRS,
                  "--rel-tol", "0.05"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro service: error: calibration sidecar {sidecar}" in err
        assert "'landmark'" in err and "'spanning_tree'" in err

    @pytest.mark.parametrize(
        "text, fault",
        [
            ('{"tiers": {}}', "missing key 'exact_seconds_per_pair'"),
            ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ],
    )
    def test_malformed_sidecar_is_a_usage_error_naming_the_file(
        self, tmp_path, capsys, text, fault
    ):
        engine_path = tmp_path / "engine.npz"
        sidecar = tmp_path / "engine.npz.calibration.json"
        main(["service", "--generator", "mesh2d:8x8", "--pairs", "0,63",
              "--save-engine", str(engine_path)])
        capsys.readouterr()
        sidecar.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["service", "--load-engine", str(engine_path), "--pairs", "0,63",
                  "--rel-tol", "0.05"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro service: error: calibration file {sidecar}: " in err
        assert fault in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["er", "service"])
    @pytest.mark.parametrize(
        "flag", ["--engine-tiers", "--num-trees", "--num-walks", "--walk-length"]
    )
    def test_removed_tier_flags_are_rejected(self, flag, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--generator", "mesh2d:4x4", "--pairs", "0,1",
                  flag, "1"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestPowerGridCommands:
    def test_dc(self, netlist, capsys):
        assert main(["dc", str(netlist), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "max IR drop" in out
        assert "worst 3 nodes" in out

    def test_transient(self, netlist, capsys):
        assert main(["transient", str(netlist), "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "port swings" in out

    def test_reduce_round_trip(self, netlist, tmp_path, capsys):
        out_path = tmp_path / "reduced.sp"
        code = main([
            "reduce", str(netlist), "--output", str(out_path),
            "--er-method", "cholinv",
        ])
        assert code == 0
        tred = next(line for line in capsys.readouterr().out.splitlines() if "Tred" in line)
        for stage in ("partition", "blocks", "stitch"):
            assert f"{stage} " in tred
        reduced = read_spice(out_path)
        original = read_spice(netlist)
        assert reduced.num_nodes < original.num_nodes
        assert len(reduced.vsources) == len(original.vsources)

    def test_reduce_er_method_picks_the_engine(self, netlist, tmp_path, monkeypatch):
        """``--er-method X`` reduces with ``EngineConfig(method=X)``."""
        from repro.core.engine import EngineConfig
        from repro.reduction.pipeline import PGReducer

        configs = []
        init = PGReducer.__init__

        def recording_init(reducer, grid, config=None):
            configs.append(config)
            init(reducer, grid, config)

        monkeypatch.setattr(PGReducer, "__init__", recording_init)
        code = main([
            "reduce", str(netlist), "--output", str(tmp_path / "reduced.sp"),
            "--er-method", "exact",
        ])
        assert code == 0
        assert [config.engine for config in configs] == [EngineConfig(method="exact")]


class TestBenchCommands:
    def test_fig1(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = main(["fig1", "--case", "pg2-like", "--steps", "20",
                     "--output", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "VDD node" in printed
        assert "GND node" in printed
        assert out.exists()

    def test_table1_unknown_case(self):
        with pytest.raises(SystemExit):
            main(["table1", "--case", "nope"])
