import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from raysweep.cli import cli_main
from raysweep.events import EventStream
from raysweep.geometry import PoseTrajectory
from raysweep.io import read_pfm
from raysweep.pipeline import PipelineConfig, run_pipeline
from raysweep.synth import make_scenario


@pytest.fixture(scope="module")
def small_scenario():
    sc = make_scenario("lateral_room", n_points=120, seed=4)
    return sc, sc.simulate()


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = PipelineConfig(num_planes=50, fusion="power:0.5", voting="nearest")
        p = tmp_path / "cfg.json"
        cfg.save(p)
        back = PipelineConfig.load(p)
        assert back == cfg

    @pytest.mark.parametrize("field,value", [
        ("chunk_duration", 0.0),
        ("z_min", 0.0),
        ("z_max", 0.1),
        ("num_planes", 1),
        ("fusion", "mode"),
        ("voting", "cubic"),
        ("threshold_sigma", -1.0),
        ("median_kernel", 4),
        ("nms_radius", -1),
        ("chunk_duration", math.nan),
        ("chunk_duration", math.inf),
        ("z_min", math.nan),
        ("z_max", math.nan),
        ("z_max", math.inf),
        ("threshold_sigma", math.nan),
        ("threshold_sigma", math.inf),
        ("threshold_offset", math.nan),
        ("threshold_offset", -math.inf),
        ("num_planes", "100"),  # wrong JSON types
        ("num_planes", 100.0),
        ("num_planes", True),
        ("width", "64"),
        ("median_kernel", 5.5),
        ("nms_radius", False),
        ("chunk_duration", "0.5"),
        ("z_min", None),
        ("z_max", True),
        ("threshold_offset", [-6.0]),
        ("subvoxel", "off"),
        ("subvoxel", 1),
        ("dump_dsi", "true"),
        ("fusion", 1),
        ("voting", None),
    ])
    def test_validation(self, field, value):
        cfg = PipelineConfig()
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=field):
            cfg.validate()

    def test_numeric_types_accepted(self):
        cfg = PipelineConfig(chunk_duration=1, z_max=np.float64(3.5),
                             num_planes=np.int64(40), width=None)
        assert cfg.validate() is cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"zmin": 1.0})


class TestWorkerResolution:
    def test_env_caps_explicit_request(self, monkeypatch):
        from raysweep.dsi import resolve_workers
        monkeypatch.setenv("RAYSWEEP_THREADS", "2")
        assert resolve_workers(8) == 2
        assert resolve_workers(1) == 1
        assert resolve_workers(None) == 2

    def test_zero_means_auto(self, monkeypatch):
        import os
        from raysweep.dsi import resolve_workers
        monkeypatch.setenv("RAYSWEEP_THREADS", "0")
        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3

    def test_bad_env_rejected(self, monkeypatch):
        from raysweep.dsi import resolve_workers
        monkeypatch.setenv("RAYSWEEP_THREADS", "many")
        with pytest.raises(ValueError):
            resolve_workers(2)


class TestRunPipeline:
    def test_smoke_produces_depth(self, small_scenario):
        sc, streams = small_scenario
        outs = run_pipeline(sc.config, streams=streams, rig=sc.rig, traj=sc.traj,
                            workers=1)
        assert len(outs) == 1
        res = outs[0].result
        assert res.num_valid > 30
        assert np.all(res.depth[res.mask] >= sc.config.z_min)
        assert np.all(res.depth[res.mask] <= sc.config.z_max)
        assert np.all(res.confidence[res.mask] > 0)

    def test_stats_conservation(self, small_scenario):
        sc, streams = small_scenario
        outs = run_pipeline(sc.config, streams=streams, rig=sc.rig, traj=sc.traj,
                            workers=1)
        st = outs[0].stats
        assert st["events_read"] == st["events_voted"] + st["events_skipped"]
        assert st["events_read"] == sum(len(s) for s in streams.values())

    def test_zero_event_chunk_yields_empty_result(self, pinhole_cam):
        # two bursts separated by a quiet window: the middle chunk is empty
        def burst(t0):
            n = 50
            ts = np.sort(np.random.default_rng(1).uniform(t0, t0 + 0.4, n))
            return ts
        ts = np.concatenate([burst(0.0), burst(1.2)])
        stream = EventStream("left", ts,
                             np.full(100, 120, np.int32), np.full(100, 90, np.int32),
                             np.ones(100, np.int8))
        stream2 = EventStream("right", ts,
                              np.full(100, 118, np.int32), np.full(100, 90, np.int32),
                              np.ones(100, np.int8))
        sc = make_scenario("lateral_room", n_points=10, seed=1)
        traj = PoseTrajectory(np.array([0.0, 2.0]), np.tile([0, 0, 0, 1.0], (2, 1)),
                              np.array([[0.0, 0, 0], [0.2, 0, 0]]))
        outs = run_pipeline(sc.config, streams={"left": stream, "right": stream2},
                            rig=sc.rig, traj=traj, workers=1)
        assert len(outs) == 4
        empty = outs[1]
        assert not empty.skipped
        assert empty.result.num_valid == 0

    def test_chunk_outside_trajectory_skipped(self, small_scenario, caplog):
        sc, streams = small_scenario
        short = PoseTrajectory(
            np.array([0.0, 0.2]), np.tile([0, 0, 0, 1.0], (2, 1)),
            np.array([[-0.25, 0, 0], [-0.05, 0, 0]]),
        )
        outs = run_pipeline(sc.config, streams=streams, rig=sc.rig, traj=short,
                            workers=1)
        assert all(o.skipped for o in outs)

    def test_chunks_are_independent_work_units(self, small_scenario):
        # processing a chunk on its own must reproduce its in-sequence output
        import copy
        from raysweep.events import chunk_events
        from raysweep.pipeline import process_chunk
        sc, streams = small_scenario
        ordered = [streams[cid] for cid in sc.rig.camera_ids]
        chunks = chunk_events(ordered, sc.config.chunk_duration)
        full = run_pipeline(sc.config, streams=streams, rig=sc.rig, traj=sc.traj,
                            workers=1)
        solo = process_chunk(copy.deepcopy(chunks[0]), sc.rig, sc.traj, sc.config,
                             workers=1)
        assert np.array_equal(solo.result.depth, full[0].result.depth)
        assert np.array_equal(solo.result.mask, full[0].result.mask)

    def test_numpy_fallback_when_build_fails(self, small_scenario, monkeypatch):
        # without a compiled kernel the chunk votes with numpy, says so in its
        # stats, and the failure is reported once, naming the compiler error
        import copy
        from raysweep import _sweep
        from raysweep.dsi import vote_events
        from raysweep.events import chunk_events
        from raysweep.pipeline import process_chunk
        sc, streams = small_scenario
        ordered = [streams[cid] for cid in sc.rig.camera_ids]
        chunk = chunk_events(ordered, sc.config.chunk_duration)[0]
        c_out = process_chunk(copy.deepcopy(chunk), sc.rig, sc.traj, sc.config)
        assert c_out.stats["kernel"] == "c"

        def broken_build():
            raise RuntimeError("gcc failed: cc1: error: bad value for -O3")
        monkeypatch.setattr(_sweep, "_build", broken_build)
        monkeypatch.setattr(_sweep, "_c_sweep", None)
        monkeypatch.setattr(_sweep, "_c_error", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outs = [process_chunk(copy.deepcopy(chunk), sc.rig, sc.traj, sc.config,
                                  workers=w, keep_fused=True) for w in (1, 2)]
        assert len(caught) == 1
        assert "bad value for -O3" in str(caught[0].message)
        for out in outs:
            assert out.stats["kernel"] == "numpy"
            for cid, cam, grid in zip(sc.rig.camera_ids, sc.rig.cameras,
                                      out.camera_grids):
                want = grid.copy_empty()
                vote_events(want, chunk.events[cid], cam, traj=sc.traj,
                            mode=sc.config.voting, kernel="numpy")
                assert np.array_equal(grid.votes, want.votes)

    def test_rerun_is_deterministic(self, small_scenario):
        sc, streams = small_scenario
        a = run_pipeline(sc.config, streams=streams, rig=sc.rig, traj=sc.traj,
                         workers=1)[0]
        b = run_pipeline(sc.config, streams=streams, rig=sc.rig, traj=sc.traj,
                         workers=1)[0]
        assert np.array_equal(a.result.depth, b.result.depth)
        assert np.array_equal(a.result.mask, b.result.mask)

    def test_out_of_bounds_stream_rejected(self, small_scenario):
        sc, _ = small_scenario
        bad = EventStream("left", np.array([0.1]), np.array([999], np.int32),
                          np.array([0], np.int32), np.array([1], np.int8))
        ok = EventStream("right", np.array([0.1]), np.array([0], np.int32),
                         np.array([0], np.int32), np.array([1], np.int8))
        with pytest.raises(ValueError):
            run_pipeline(sc.config, streams={"left": bad, "right": ok},
                         rig=sc.rig, traj=sc.traj, workers=1)


class TestCli:
    def test_end_to_end_synth_map_eval(self, tmp_path, capsys):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room",
                         "--out", str(out), "--points", "150", "--seed", "2"]) == 0
        assert cli_main(["map", "--config", str(out / "config.json")]) == 0
        assert cli_main(["eval",
                         "--pred", str(out / "results" / "depth_chunk000.pfm"),
                         "--gt", str(out / "gt_depth_chunk000.pfm")]) == 0
        text = capsys.readouterr().out
        assert "outlier_fraction" in text and "density" in text
        # written artifacts exist and parse
        depth = read_pfm(out / "results" / "depth_chunk000.pfm")
        assert (depth > 0).sum() > 20
        stats = json.loads((out / "results" / "stats.json").read_text())
        assert stats[0]["events_read"] > 0

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_main(["--bogus"]) == 1

    def test_unknown_subcommand_flag(self, capsys):
        assert cli_main(["map", "--config", "x", "--warp-speed", "9"]) == 1

    def test_missing_file_is_processing_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        PipelineConfig(events=["missing_a.txt", "missing_b.txt"],
                       trajectory="missing_t.txt",
                       calibration=str(tmp_path / "absent.json")).save(cfg)
        assert cli_main(["map", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "absent.json" in err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_map_flag_overrides(self, tmp_path):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room",
                         "--out", str(out), "--points", "80", "--seed", "2"]) == 0
        res2 = tmp_path / "alt"
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--out", str(res2), "--num-planes", "40",
                         "--voting", "nearest", "--fusion", "min"]) == 0
        assert (res2 / "depth_chunk000.pfm").exists()

    # config field -> (flag, its argument or None for a bare switch, value set)
    FLAG_TABLE = {
        "out_dir": ("--out", "res", "res"),
        "chunk_duration": ("--chunk-duration", "0.25", 0.25),
        "width": ("--width", "64", 64),
        "height": ("--height", "48", 48),
        "num_planes": ("--num-planes", "40", 40),
        "z_min": ("--z-min", "0.5", 0.5),
        "z_max": ("--z-max", "3.5", 3.5),
        "fusion": ("--fusion", "power:0.5", "power:0.5"),
        "voting": ("--voting", "nearest", "nearest"),
        "threshold_sigma": ("--threshold-sigma", "3.0", 3.0),
        "threshold_offset": ("--threshold-offset", "1.5", 1.5),
        "nms_radius": ("--nms-radius", "2", 2),
        "median_kernel": ("--median-kernel", "3", 3),
        "subvoxel": ("--subvoxel", "off", False),
        "dump_dsi": ("--dump-dsi", None, True),
    }

    def test_map_flag_table_covers_config(self, tmp_path, monkeypatch, capsys):
        paths = {"events", "trajectory", "calibration"}
        fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert set(self.FLAG_TABLE) == fields - paths
        captured = []
        monkeypatch.setattr("raysweep.cli.run_pipeline",
                            lambda config: captured.append(config) or [])
        cfg = tmp_path / "cfg.json"
        defaults = PipelineConfig().to_dict()
        PipelineConfig().save(cfg)
        for name, (flag, text, value) in self.FLAG_TABLE.items():
            assert value != defaults[name], name
            argv = ["map", "--config", str(cfg), flag] + ([text] if text else [])
            assert cli_main(argv) == 0, name
            got = captured.pop().to_dict()
            assert type(got[name]) is type(value), name
            assert got == dict(defaults, **{name: value}), name
        for name in paths:
            assert cli_main(["map", "--config", str(cfg), "--" + name, "x"]) == 1

    def test_removed_knobs_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(PipelineConfig().to_dict(), pose_batch_ms=1.0)))
        assert cli_main(["map", "--config", str(cfg)]) == 2
        assert "pose_batch_ms" in capsys.readouterr().err
        for flag in ("--polarity-split", "--pose-batch-ms"):  # fail before the config is read
            assert cli_main(["map", "--config", str(cfg), flag, "1"]) == 1

    def test_wrong_json_type_is_processing_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(PipelineConfig().to_dict(), num_planes="100")))
        assert cli_main(["map", "--config", str(cfg)]) == 2
        assert "num_planes" in capsys.readouterr().err

    def test_eval_shape_mismatch(self, tmp_path, capsys):
        from raysweep.io import write_pfm
        a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(np.ones((4, 4), np.float32), a)
        write_pfm(np.ones((5, 4), np.float32), b)
        assert cli_main(["eval", "--pred", str(a), "--gt", str(b)]) == 2
