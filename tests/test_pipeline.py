import copy
import dataclasses
import json
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from raysweep import pipeline
from raysweep.cli import cli_main
from raysweep.depth import (
    adaptive_threshold,
    extract_depth,
    median_filter_depth,
    refine_result,
)
from raysweep.dsi import DsiGrid, FusionOp, fuse, prepare_sweep, vote_events
from raysweep.errors import DsiTooLarge, RaysweepError
from raysweep.events import EventStream, chunk_events, select_reference_view
from raysweep.geometry import CameraModel, PoseTrajectory, Se3
from raysweep.io import RigCalibration, read_pfm
from raysweep.pipeline import PipelineConfig, process_chunk, run_pipeline
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
        # several chunks, and a second stream that starts later, so that the
        # first stream's earliest events precede the common start and drop
        sc, streams = small_scenario
        first, second = sc.rig.camera_ids
        late = streams[second]
        late = late.slice(int(np.searchsorted(late.t, late.t[0] + 0.02)), len(late))
        trimmed = {first: streams[first], second: late}
        before = int(np.searchsorted(streams[first].t, late.t[0]))
        assert before > 0
        config = dataclasses.replace(sc.config, chunk_duration=0.1)
        runs = [run_pipeline(config, streams=trimmed, rig=sc.rig, traj=sc.traj,
                             workers=workers) for workers in (1, 2)]
        for outs in runs:
            assert len(outs) >= 3 and not any(o.skipped for o in outs)
            for o in outs:
                st = o.stats
                assert st["events_read"] == st["events_voted"] + st["events_skipped"]
                for cam in st["cameras"].values():
                    assert cam["events_read"] == (cam["events_voted"]
                                                  + cam["events_skipped"])
            read = sum(o.stats["events_read"] for o in outs)
            assert read + before == sum(len(s) for s in trimmed.values())
        untimed = [[{k: v for k, v in o.stats.items() if k != "timings"} for o in outs]
                   for outs in runs]
        assert untimed[0] == untimed[1]

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
        dump = dataclasses.replace(sc.config, dump_dsi=True)  # keeps the volumes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outs = [process_chunk(copy.deepcopy(chunk), sc.rig, sc.traj, dump,
                                  workers=w) for w in (1, 2)]
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

    @pytest.mark.parametrize("keys", [["left"], ["lft", "right"],
                                      ["left", "right", "extra"]])
    def test_streams_must_name_the_rig_cameras(self, small_scenario, monkeypatch,
                                               keys):
        # a missing or misnamed camera is refused before chunking, naming
        # both sets, instead of being voted as an empty stream
        sc, streams = small_scenario
        given = {key: streams.get(key, streams["left"]) for key in keys}
        monkeypatch.setattr(pipeline, "chunk_events", None)  # not reached
        with pytest.raises(RaysweepError) as exc:
            run_pipeline(sc.config, streams=given, rig=sc.rig, traj=sc.traj,
                         workers=1)
        assert str(sorted(keys)) in str(exc.value)
        assert "['left', 'right']" in str(exc.value)

    def test_stream_filed_under_another_camera_rejected(self, small_scenario):
        sc, streams = small_scenario
        swapped = {"left": streams["right"], "right": streams["left"]}
        with pytest.raises(RaysweepError, match="given for camera 'left' is "
                                                "camera 'right'"):
            run_pipeline(sc.config, streams=swapped, rig=sc.rig, traj=sc.traj,
                         workers=1)

    def test_out_of_bounds_stream_rejected(self, small_scenario):
        sc, _ = small_scenario
        bad = EventStream("left", np.array([0.1]), np.array([999], np.int32),
                          np.array([0], np.int32), np.array([1], np.int8))
        ok = EventStream("right", np.array([0.1]), np.array([0], np.int32),
                         np.array([0], np.int32), np.array([1], np.int8))
        with pytest.raises(ValueError):
            run_pipeline(sc.config, streams={"left": bad, "right": ok},
                         rig=sc.rig, traj=sc.traj, workers=1)


def band_rig():
    """Three cameras: a left camera, one 12 cm to its right, and one inside
    the depth range turned 70 deg to look across the reference view, so
    that many of its rays run nearly parallel to the depth planes."""
    left = CameraModel(fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240,
                       height=180, dist=np.array([-0.03, 0.0, 0.0, 0.0]))
    cams = (
        left,
        dataclasses.replace(left, T_body_cam=Se3.from_axis_angle([0, 0, 1], 0.0,
                                                                 trans=[0.12, 0, 0])),
        dataclasses.replace(left, T_body_cam=Se3.from_axis_angle(
            [0, 1, 0], np.deg2rad(70), trans=[-0.3, 0.0, 0.8])),
    )
    return RigCalibration("band", ("a", "b", "c"), cams)


@pytest.fixture(scope="module")
def band_inputs():
    """(rig, trajectory, chunk) for the 3-camera band rig, random events."""
    rng = np.random.default_rng(12)
    traj = PoseTrajectory(np.array([0.0, 1.0]), np.tile([0, 0, 0, 1.0], (2, 1)),
                          np.array([[-0.2, 0.0, 0.0], [0.2, 0.05, 0.1]]))
    rig = band_rig()
    # most events in one 40 x 40 patch, so that the AND-logic means of
    # three cameras still find voxels every camera voted on
    streams = [EventStream(cid, np.sort(rng.uniform(0.0, 1.0, 1500)),
                           rng.integers(100, 140, 1500, dtype=np.int32),
                           rng.integers(70, 110, 1500, dtype=np.int32),
                           np.ones(1500, np.int8)) for cid in rig.camera_ids]
    return rig, traj, chunk_events(streams, 1.5)[0]


def whole_volume_chunk(chunk, rig, traj, config):
    """The oracle: one full volume per camera from vote_events, fused with
    fuse, then process_chunk's extraction chain."""
    ref_view = select_reference_view(chunk, traj, rig.cameras[0])
    grids = []
    for cid, cam in zip(rig.camera_ids, rig.cameras):
        grid = DsiGrid.create(ref_view, rig.cameras[0], config.z_min, config.z_max,
                              config.num_planes, config.width, config.height)
        vote_events(grid, chunk.events[cid], cam, traj=traj, mode=config.voting)
        grids.append(grid)
    op = FusionOp.from_string(config.fusion)
    fused = fuse(grids, op)
    result = extract_depth(fused)
    keep = adaptive_threshold(result.confidence, config.threshold_sigma,
                              config.threshold_offset)
    result = dataclasses.replace(result, mask=result.mask & keep)
    result = median_filter_depth(result, config.median_kernel)
    return grids, fused, refine_result(fused, result)


class TestBandLoop:
    """process_chunk votes and fuses one band of planes at a time; its
    outputs must equal voting whole per-camera volumes and fusing them."""

    def test_third_camera_has_grazing_rays(self, band_inputs):
        rig, traj, chunk = band_inputs
        grid = DsiGrid.create(Se3.identity(), rig.cameras[0], 0.45, 4.0, 13)
        rays = prepare_sweep(grid, chunk.events["c"], rig.cameras[2], traj=traj)
        assert 0 < len(rays.graze[2]) < rays.num_events

    @pytest.mark.parametrize("fusion", ["min", "harmonic", "geometric", "arithmetic",
                                        "rms", "max", "power:-2", "power:0.5"])
    @pytest.mark.parametrize("voting", ["nearest", "bilinear"])
    def test_matches_whole_volume_vote_and_fuse(self, band_inputs, fusion, voting):
        # 13 planes: bands of 4, 4, 4 and 1
        config = PipelineConfig(num_planes=13, fusion=fusion, voting=voting)
        rig, traj, chunk = band_inputs
        grids, fused, want = whole_volume_chunk(chunk, rig, traj, config)
        assert fused.votes.any()
        stats = []
        for workers in (1, 2, 3):
            volume = np.full(fused.votes.shape, np.nan)  # all overwritten
            out = process_chunk(copy.deepcopy(chunk), rig, traj, config,
                                workers=workers, volume=volume)
            assert np.array_equal(volume, fused.votes), workers
            for name in ("depth", "mask", "confidence"):
                assert np.array_equal(getattr(out.result, name),
                                      getattr(want, name)), (workers, name)
            stats.append({k: v for k, v in out.stats.items() if k != "timings"})
        assert stats[0] == stats[1] == stats[2]
        per_camera = stats[0]["cameras"]
        for cid, grid in zip(rig.camera_ids, grids):
            assert per_camera[cid]["events_skipped"] == grid.skipped_events
            assert per_camera[cid]["votes"] == pytest.approx(
                grid.votes.sum(), rel=1e-12, abs=0.0)
        assert stats[0]["fused_votes"] == pytest.approx(
            fused.votes.sum(), rel=1e-12, abs=0.0)

    def test_stress_more_workers_than_cpus_and_bands(self, band_inputs):
        # 2 and 8 threads on few CPUs with a tiny switch interval, so the
        # threads interleave as often as the interpreter allows; 5 planes
        # form 2 bands, which 8 workers outnumber. The arithmetic mean keeps
        # every camera's votes, where the AND-logic means leave 5 planes empty
        rig, traj, chunk = band_inputs
        mismatches, finished = [], []

        def run():
            for voting in ["nearest", "bilinear"]:
                for num_planes in [25, 5]:
                    config = PipelineConfig(num_planes=num_planes, voting=voting,
                                            fusion="arithmetic")
                    outs = []
                    for workers in [1, 2, 8, 8, 8]:
                        volume = np.full((num_planes, 180, 240), np.nan)
                        out = process_chunk(copy.deepcopy(chunk), rig, traj, config,
                                            workers=workers, volume=volume)
                        stats = {k: v for k, v in out.stats.items() if k != "timings"}
                        outs.append((volume, stats))
                    ref_volume, ref_stats = outs[0]
                    if not ref_volume.any():
                        mismatches.append((voting, num_planes, "no fused votes"))
                    for workers, (volume, stats) in zip([2, 8, 8, 8], outs[1:]):
                        if not (np.array_equal(volume, ref_volume)
                                and stats == ref_stats):
                            mismatches.append((voting, num_planes, workers))
            finished.append(True)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120.0)
            assert not runner.is_alive(), "voting did not finish within 120 s"
        finally:
            sys.setswitchinterval(old)
        assert finished and mismatches == []
        assert time.perf_counter() - t0 < 120.0

    @pytest.mark.parametrize("voting", ["nearest", "bilinear"])
    def test_kept_volumes_match_whole_volume_voting(self, band_inputs, voting):
        config = PipelineConfig(num_planes=13, fusion="harmonic", voting=voting,
                                dump_dsi=True)
        rig, traj, chunk = band_inputs
        grids, fused, _ = whole_volume_chunk(chunk, rig, traj, config)
        for workers in (1, 3):
            out = process_chunk(copy.deepcopy(chunk), rig, traj, config,
                                workers=workers)
            assert np.array_equal(out.fused.votes, fused.votes)
            assert out.fused.skipped_events == fused.skipped_events
            for got, want in zip(out.camera_grids, grids):
                assert np.array_equal(got.votes, want.votes)
                assert got.skipped_events == want.skipped_events

    @pytest.mark.parametrize("dump_dsi", [False, True])
    def test_later_chunks_leave_earlier_outputs_alone(self, small_scenario,
                                                      monkeypatch, tmp_path,
                                                      dump_dsi):
        # the fused volume is reused across chunks, dumped ones included; no
        # output may alias it
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, chunk_duration=0.1, dump_dsi=dump_dsi,
                                     out_dir=str(tmp_path) if dump_dsi else None)
        snapshots, volumes = [], []
        real = pipeline.process_chunk

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            volumes.append(kwargs["volume"])
            arrays = [out.result.depth, out.result.confidence, out.result.mask]
            snapshots.append([a.copy() for a in arrays])
            return out
        monkeypatch.setattr(pipeline, "process_chunk", spy)
        outs = run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                            workers=2)
        assert len(outs) >= 3 and all(not o.skipped for o in outs)
        assert volumes[0] is not None
        assert all(v is volumes[0] for v in volumes)
        for out, snap in zip(outs, snapshots):
            assert out.fused is None and out.camera_grids is None
            arrays = [out.result.depth, out.result.confidence, out.result.mask]
            for a, b in zip(arrays, snap):
                assert np.array_equal(a, b)

    def test_dumped_volumes_written_per_chunk_not_held(self, small_scenario,
                                                       tmp_path):
        from raysweep.io import read_dsi
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, chunk_duration=0.1, dump_dsi=True,
                                     out_dir=str(tmp_path))
        dumped = run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                              workers=2)
        chunks = chunk_events([streams[c] for c in sc.rig.camera_ids],
                              config.chunk_duration)
        assert len(dumped) == len(chunks) >= 3
        for d, chunk in zip(dumped, chunks):
            assert d.fused is None and d.camera_grids is None
            k = process_chunk(chunk, sc.rig, sc.traj, config, workers=2)
            tag = f"chunk{d.index:03d}"
            for name, grid in [("fused", k.fused), *zip(sc.rig.camera_ids,
                                                        k.camera_grids)]:
                votes = read_dsi(tmp_path / f"dsi_{name}_{tag}.bin")[0]
                assert np.array_equal(votes, grid.votes.astype(np.float32))

    def test_peak_allocation_is_one_volume_plus_bands(self, small_scenario,
                                                      monkeypatch):
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, chunk_duration=0.1)
        cam = sc.rig.cameras[0]
        plane = cam.width * cam.height * 8
        workers, n_cams = 2, len(sc.rig.cameras)
        # band buffers, plus a few planes for extraction and the events
        bands = (workers * n_cams * pipeline.BAND_PLANES + 12) * plane
        volume = config.num_planes * plane
        chunk = chunk_events([streams[c] for c in sc.rig.camera_ids],
                             config.chunk_duration)[1]
        peaks = []
        real = pipeline.process_chunk

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = real(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out
        monkeypatch.setattr(pipeline, "process_chunk", measured)
        tracemalloc.start()
        try:
            pipeline.process_chunk(chunk, sc.rig, sc.traj, config, workers=workers)
            run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                         workers=workers)
        finally:
            tracemalloc.stop()
        assert len(peaks) >= 3
        assert volume < peaks[0] <= volume + bands  # a chunk on its own
        assert max(peaks[2:]) <= bands  # the run's volume is reused


class TestDsiShape:
    """A DSI width/height that leaves out the reference camera's principal
    point is refused once the rig is loaded, before any event file is read."""

    @pytest.fixture
    def scenario_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        parsed = []
        real = pipeline.rio.parse_events
        monkeypatch.setattr(pipeline.rio, "parse_events",
                            lambda *a, **k: parsed.append(a) or real(*a, **k))
        return out, parsed

    @pytest.mark.parametrize("field,size", [("width", 100), ("height", 90)])
    def test_api_names_the_field_before_parsing(self, scenario_dir, field, size):
        out, parsed = scenario_dir
        config = dataclasses.replace(PipelineConfig.load(out / "config.json"),
                                     **{field: size})
        with pytest.raises(ValueError, match=rf"DSI {field} {size} excludes the "
                                             r"principal point \(cx, cy\) = \(120"):
            run_pipeline(config, workers=1)
        assert parsed == []

    def test_cli_exits_2_naming_width(self, scenario_dir, capsys):
        out, parsed = scenario_dir
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--width", "100"]) == 2
        err = capsys.readouterr().err
        assert "width 100" in err and "principal point" in err
        assert parsed == []
        assert not (out / "results" / "stats.json").exists()


class TestMemoryBudget:
    def test_oversized_dsi_refused_before_allocating(self, small_scenario):
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, num_planes=10**7)  # 3.5 TB
        need = 10**7 * 240 * 180 * 8
        tracemalloc.start()
        try:
            with pytest.raises(DsiTooLarge, match=r"the DSI needs (\d+) bytes") as exc:
                run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                             workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        asked = int(exc.value.args[0].split()[3])
        assert need < asked < need + 2**30  # the volume plus the band buffers

    def test_cli_exits_2_naming_the_bytes(self, tmp_path, capsys):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--num-planes", "10000000", "--width", "1000"]) == 2
        assert "bytes" in capsys.readouterr().err
        assert not (out / "results" / "stats.json").exists()

    def test_skipped_where_physical_memory_is_unknown(self, monkeypatch):
        shape = (10**7, 180, 240)
        with pytest.raises(DsiTooLarge):
            pipeline._check_memory(shape, 2, 1, keep=False)

        def unavailable(name):
            raise ValueError(f"unrecognized configuration name {name!r}")
        monkeypatch.setattr(pipeline.os, "sysconf", unavailable)
        assert pipeline._check_memory(shape, 2, 1, keep=False) > 10**12
        monkeypatch.setattr(pipeline.os, "sysconf", lambda name: -1)
        assert pipeline._check_memory(shape, 2, 1, keep=False) > 10**12

    def test_counts_kept_volumes_and_band_buffers(self):
        plane = 180 * 240 * 8
        assert pipeline._check_memory((100, 180, 240), 2, 1, keep=False) == \
            (100 + 2 * pipeline.BAND_PLANES) * plane
        assert pipeline._check_memory((100, 180, 240), 3, 2, keep=True) == \
            ((1 + 3) * 100 + 2 * 3 * pipeline.BAND_PLANES) * plane


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
