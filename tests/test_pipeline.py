import contextlib
import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raysweep import _sweep, depth, dsi, pipeline
from raysweep import io as rio
from raysweep.cli import cli_main
from raysweep.depth import (
    adaptive_threshold,
    extract_depth,
    median_filter_depth,
    refine_result,
)
from raysweep.dsi import (DsiGrid, FusionOp, fuse, prepare_sweep, resolve_workers,
                          sweep_band, vote_events)
from raysweep.errors import DsiTooLarge, ParseError, RaysweepError
from raysweep.events import EventStream, chunk_events, select_reference_view
from raysweep.geometry import (
    CameraModel,
    PoseTrajectory,
    Se3,
    quat_from_axis_angle,
    quat_mul,
)
from raysweep.io import RigCalibration, read_pfm
from raysweep.pipeline import PipelineConfig, process_chunk, run_pipeline
from raysweep.synth import SyntheticScene, make_scenario

from conftest import numpy_kernel


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
# objects whose keys are config fields, with values of every JSON type and
# some that pass the type checks
CONFIG_DOCUMENTS = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)]),
    JSON_VALUES | st.lists(st.text(), max_size=2) | st.sampled_from(
        ["harmonic", "power:0.5", "power:1e400", "power:x", "nearest", "cfg.json"]),
)


def untimed(stats: dict) -> dict:
    """A chunk's stats less what says how it ran rather than what it
    computed: its timings, its band step and its worker count."""
    return {k: v for k, v in stats.items()
            if k not in ("timings", "band_step", "workers")}


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
        ("fusion", "power:nan"),  # non-finite exponents lose the AND logic
        ("fusion", "power:inf"),
        ("fusion", "power:-inf"),
        pytest.param("chunk_duration", 2**1024,  # beyond float range
                     id="chunk_duration-2**1024"),
        ("events", [1, 2]),  # path fields
        ("events", "events_left.txt"),
        ("events", None),
        ("trajectory", 3),
        ("calibration", ["calibration.json"]),
        ("out_dir", True),
        ("fusion", "power:abc"),  # names the spec, not just float()'s complaint
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

    @pytest.mark.parametrize("doc", [[], None, "abc", 3, [{"num_planes": 50}]])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            PipelineConfig.from_dict(doc)

    @given(st.one_of(JSON_VALUES, CONFIG_DOCUMENTS))
    @settings(max_examples=300, deadline=None)
    def test_any_json_document_loads_or_raises_value_error(self, doc):
        try:
            PipelineConfig.from_dict(doc).validate()
        except ValueError:
            pass


    @pytest.mark.parametrize("text,message", [
        (b"{nope", "invalid JSON"),
        (b"[]", "must be a JSON object"),
        (b'{"zmin": 1.0}', "unknown config keys: ['zmin']"),
        (b'{"fusion": "min\xff"}', "can't decode byte 0xff"),
        pytest.param(b"[" * 100_000, "maximum recursion depth",
                     id="nested-100000-deep"),
    ])
    def test_config_file_errors_name_the_file(self, tmp_path, capsys, text,
                                              message):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        with pytest.raises(ParseError) as err:
            PipelineConfig.load(path)
        assert err.value.path == path and message in str(err.value)
        assert cli_main(["map", "--config", str(path)]) == 2
        assert f"{path}: " in capsys.readouterr().err

    @given(where=st.sampled_from(["", "events", "num_planes", "width", "fusion",
                                  "subvoxel", "extra"]),
           value=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_in_a_config_file_loads_or_raises(
            self, tmp_path_factory, where, value):
        doc = PipelineConfig(events=["a.txt", "b.txt"]).to_dict()
        if where:
            doc[where] = value
        else:
            doc = value
        path = tmp_path_factory.getbasetemp() / "any_config.json"
        path.write_text(json.dumps(doc))
        try:
            config = PipelineConfig.load(path)
        except RaysweepError as e:
            assert str(path) in str(e)
            return
        try:
            config.validate()
        except ValueError:
            pass


def _json_paths(doc, prefix=()):
    """The key/index path of every node of a JSON document, root first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, item in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _json_paths(item, prefix + (key,))


CALIBRATION = {"rig": "r", "cameras": [
    {"name": name, "width": 240, "height": 180, "fx": 200.0, "fy": 200,
     "cx": 120.0, "cy": 90.0, "dist": [0.0, 0.0, 0.0, 0.0],
     "T_body_cam": {"translation": [0.12 * i, 0.0, 0.0],
                    "quaternion_xyzw": [0.0, 0.0, 0.0, 1.0]}}
    for i, name in enumerate(["left", "right"])]}


class TestCalibrationValues:
    @given(where=st.sampled_from(list(_json_paths(CALIBRATION))
                                 + [("extra",), ("cameras", 1, "extra")]),
           value=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_parses_or_raises(self, tmp_path_factory, where,
                                             value):
        doc = copy.deepcopy(CALIBRATION)
        if where:
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = value
        else:
            doc = value
        path = tmp_path_factory.getbasetemp() / "any_calibration.json"
        path.write_text(json.dumps(doc))
        try:
            rig = rio.parse_calibration(path)
        except RaysweepError:
            return
        assert rig.name == doc["rig"]  # a string: the rig name is never coerced

    @pytest.mark.parametrize("rig", [7, None, ["a"], True])
    def test_rig_name_must_be_a_string(self, tmp_path, capsys, rig):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(dict(CALIBRATION, rig=rig)))
        with pytest.raises(ParseError, match=r"\$\.rig must be a string") as err:
            rio.parse_calibration(path)
        assert err.value.path == path
        config = tmp_path / "config.json"
        PipelineConfig(events=["a.txt", "b.txt"], trajectory="t.txt",
                       calibration=str(path)).save(config)
        assert cli_main(["map", "--config", str(config)]) == 2
        assert f"{path}: $.rig must be a string" in capsys.readouterr().err

    def test_missing_rig_name_is_rig(self, tmp_path):
        doc = {key: value for key, value in CALIBRATION.items() if key != "rig"}
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        assert rio.parse_calibration(path).name == "rig"


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
        assert [untimed(o.stats) for o in runs[0]] == \
            [untimed(o.stats) for o in runs[1]]

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

        # a trajectory that ends mid-run, and a second stream that starts
        # late: every event is read by a chunk, skipped or not, or dropped
        # before the common start
        first, second = sc.rig.camera_ids
        late = streams[second]
        late = late.slice(int(np.searchsorted(late.t, late.t[0] + 0.02)), len(late))
        trimmed = {first: streams[first], second: late}
        before = int(np.searchsorted(streams[first].t, late.t[0]))
        end = int(np.searchsorted(sc.traj.times, 0.25)) + 1
        partial = PoseTrajectory(sc.traj.times[:end], sc.traj.quats[:end],
                                 sc.traj.trans[:end])
        config = dataclasses.replace(sc.config, chunk_duration=0.1)
        outs = run_pipeline(config, streams=trimmed, rig=sc.rig, traj=partial,
                            workers=1)
        skipped = [o for o in outs if o.skipped]
        assert 0 < len(skipped) < len(outs)
        assert all(o.stats["events_read"] > 0 for o in skipped)
        read = sum(o.stats["events_read"] for o in outs)
        assert before > 0
        assert read + before == sum(len(s) for s in trimmed.values())

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
        # without a compiled kernel the chunk prepares and votes with numpy,
        # says so in its stats, reports the failure once, naming the
        # compiler error, and gives the C run's volumes bit for bit
        import copy
        from raysweep.events import chunk_events
        from raysweep.pipeline import process_chunk
        sc, streams = small_scenario
        ordered = [streams[cid] for cid in sc.rig.camera_ids]
        chunk = chunk_events(ordered, sc.config.chunk_duration)[0]
        dump = dataclasses.replace(sc.config, dump_dsi=True)  # keeps the volumes
        c_out = process_chunk(copy.deepcopy(chunk), sc.rig, sc.traj, dump)
        assert c_out.stats["kernel"] == "c"

        def broken_build():
            raise RuntimeError("gcc failed: cc1: error: bad value for -O3")
        monkeypatch.setattr(_sweep, "_build", broken_build)
        monkeypatch.setattr(_sweep, "_c_lib", None)
        monkeypatch.setattr(_sweep, "_c_error", None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outs = [process_chunk(copy.deepcopy(chunk), sc.rig, sc.traj, dump,
                                  workers=w) for w in (1, 2)]
        assert len(caught) == 1
        assert "bad value for -O3" in str(caught[0].message)
        for out in outs:
            assert out.stats["kernel"] == "numpy"
            for a, b in zip([c_out.fused] + c_out.camera_grids,
                            [out.fused] + out.camera_grids):
                assert np.array_equal(a.votes.view(np.uint64), b.votes.view(np.uint64))

    def test_kernels_agree_on_rotating_trajectory(self, small_scenario):
        # the scenario's body only translates; turning it a little about y
        # between samples makes every event's pose a slerp. C and numpy add
        # every vote in the same order, so in both voting modes they give
        # the same volumes, stats and depths bit for bit.
        sc, streams = small_scenario
        traj = sc.traj
        turns = np.linspace(-0.04, 0.04, len(traj))
        rot = PoseTrajectory(
            traj.times,
            np.array([quat_mul(q, quat_from_axis_angle([0, 1, 0], a))
                      for q, a in zip(traj.quats, turns)]),
            traj.trans)
        chunk = chunk_events([streams[cid] for cid in sc.rig.camera_ids],
                             sc.config.chunk_duration)[0]
        for voting in ("nearest", "bilinear"):
            config = dataclasses.replace(sc.config, voting=voting, dump_dsi=True)
            c_out = process_chunk(copy.deepcopy(chunk), sc.rig, rot, config)
            with numpy_kernel():
                np_out = process_chunk(copy.deepcopy(chunk), sc.rig, rot, config)
            assert (c_out.stats.pop("kernel"), np_out.stats.pop("kernel")) == ("c", "numpy")
            assert untimed(c_out.stats) == untimed(np_out.stats)
            assert c_out.stats["events_voted"] > 0
            for a, b in zip([c_out.fused] + c_out.camera_grids,
                            [np_out.fused] + np_out.camera_grids):
                assert np.array_equal(a.votes.view(np.uint64), b.votes.view(np.uint64))
            for field in ("depth", "confidence", "mask"):
                assert getattr(c_out.result, field).tobytes() == \
                    getattr(np_out.result, field).tobytes()

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

    def test_stats_count_the_grazing_rays(self, band_inputs):
        rig, traj, chunk = band_inputs
        config = PipelineConfig(num_planes=13)
        out = process_chunk(copy.deepcopy(chunk), rig, traj, config, workers=2)
        ref_view = select_reference_view(chunk, traj, rig.cameras[0])
        grid = DsiGrid.create(ref_view, rig.cameras[0], config.z_min, config.z_max,
                              13, allocate=False)
        grazing = {}
        for cid, cam in zip(rig.camera_ids, rig.cameras):
            rays = prepare_sweep(grid, chunk.events[cid], cam, traj=traj)
            grazing[cid] = len(rays.graze[2])
        assert grazing["c"] > 0
        assert {cid: c["events_grazing"] for cid, c in out.stats["cameras"].items()} \
            == grazing

    @pytest.mark.parametrize("fusion", ["min", "harmonic", "geometric", "arithmetic",
                                        "rms", "max", "power:-2", "power:0.5"])
    @pytest.mark.parametrize("voting", ["nearest", "bilinear"])
    def test_matches_whole_volume_vote_and_fuse(self, band_inputs, fusion, voting):
        # 13 planes: bands of 4, 4, 4 and 1
        config = PipelineConfig(num_planes=13, fusion=fusion, voting=voting)
        rig, traj, chunk = band_inputs
        grids, fused, want = whole_volume_chunk(chunk, rig, traj, config)
        assert fused.votes.any()
        # each camera's votes cast by one sweep over the whole volume
        cast = {}
        for cid, cam, grid in zip(rig.camera_ids, rig.cameras, grids):
            rays = prepare_sweep(grid, chunk.events[cid], cam, traj=traj)
            cast[cid] = sweep_band(grid, rays, np.zeros_like(grid.votes), 0,
                                   voting)[1]
            if voting == "nearest":  # one unit per vote
                assert cast[cid] == grid.votes.sum()
        assert all(cast.values())
        stats = []
        for workers in (1, 2, 3):
            volume = np.full(fused.votes.shape, np.nan)  # all overwritten
            out = process_chunk(copy.deepcopy(chunk), rig, traj, config,
                                workers=workers, volume=volume)
            assert np.array_equal(volume, fused.votes), workers
            for name in ("depth", "mask", "confidence"):
                assert np.array_equal(getattr(out.result, name),
                                      getattr(want, name)), (workers, name)
            per_camera = out.stats["cameras"]
            for cid in rig.camera_ids:
                assert type(per_camera[cid]["votes"]) is int
                assert per_camera[cid]["votes"] == cast[cid], (workers, cid)
            stats.append(untimed(out.stats))
        assert stats[0] == stats[1] == stats[2]
        for cid, grid in zip(rig.camera_ids, grids):
            assert stats[0]["cameras"][cid]["events_skipped"] == grid.skipped_events

    @pytest.mark.parametrize("fusion", ["min", "harmonic", "geometric", "arithmetic",
                                        "rms", "max", "power:-2", "power:0.5"])
    def test_compiled_band_step_matches_numpy(self, band_inputs, monkeypatch,
                                              fusion):
        # the C fuse_band against its numpy form through process_chunk: the
        # volumes, the kept per-camera volumes, the depth maps and every
        # untimed stat, bit for bit, at 1-3 workers over 13 planes (bands of
        # 4, 4, 4 and 1); on the C path the five compiled kinds make no
        # numpy fusion call and extraction scans no plane
        config = PipelineConfig(num_planes=13, fusion=fusion, dump_dsi=True)
        rig, traj, chunk = band_inputs
        calls = []
        real_fuse, real_scan = FusionOp.apply_into, dsi.update_peak
        monkeypatch.setattr(FusionOp, "apply_into", lambda *a: calls.append(
            "fusion") or real_fuse(*a))
        monkeypatch.setattr(depth, "update_peak", lambda *a: calls.append(
            "scan") or real_scan(*a))
        bands = ["fusion"] * 4
        for workers in (1, 2, 3):
            runs = []
            for ctx, want in ((contextlib.nullcontext(),
                               [] if fusion in _sweep.FUSE_KINDS else bands),
                              (numpy_kernel(), bands)):
                calls.clear()
                with ctx:
                    runs.append(process_chunk(copy.deepcopy(chunk), rig, traj,
                                              config, workers=workers))
                assert calls == want, workers
            c_out, np_out = runs
            assert (c_out.stats.pop("kernel"), np_out.stats.pop("kernel")) == \
                ("c", "numpy")
            assert untimed(c_out.stats) == untimed(np_out.stats)
            assert all(c["votes"] > 0 for c in c_out.stats["cameras"].values())
            for a, b in zip([c_out.fused] + c_out.camera_grids,
                            [np_out.fused] + np_out.camera_grids):
                assert np.array_equal(a.votes.view(np.uint64), b.votes.view(np.uint64))
            for field in ("depth", "confidence", "mask"):
                assert getattr(c_out.result, field).tobytes() == \
                    getattr(np_out.result, field).tobytes()

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
                        stats = untimed(out.stats)
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
        # lateral_room refines after a median filter of 1: a volume exists
        # only to be dumped
        assert (volumes[0] is not None) == dump_dsi
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
        # refinement after a median filter of 5 reads the volume
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, chunk_duration=0.1, median_kernel=5)
        assert pipeline._needs_volume(config)
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

    def test_volume_free_peak_allocation_is_band_scratch(self, small_scenario,
                                                         monkeypatch):
        # lateral_room refines after a median filter of 1: the band loop
        # keeps the votes beside each argmax, and no volume is allocated
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, chunk_duration=0.1)
        assert config.median_kernel == 1 and config.subvoxel
        assert not pipeline._needs_volume(config)
        cam = sc.rig.cameras[0]
        plane = cam.width * cam.height * 8
        workers, n_cams = 2, len(sc.rig.cameras)
        # per worker and chunk: the cameras' band buffer, two fused bands,
        # two peak maps, below, above and the run's first plane; plus a few
        # planes for extraction and the events
        bands = (workers * ((n_cams + 2) * pipeline.BAND_PLANES + 5) + 12) * plane
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
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                         workers=workers)
            run_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(peaks) >= 3
        volume = config.num_planes * plane
        assert peaks[0] <= bands < volume  # a chunk on its own
        assert max(peaks[1:]) <= bands  # each chunk of a run
        assert run_peak <= bands  # and no volume for the run either


FUSIONS = ["min", "harmonic", "geometric", "arithmetic", "rms", "max", "power:-2",
           "power:0.5"]


# The planes where a worker run starts or ends, at 1-4 workers over 13
# planes in bands of 4, 4, 4 and 1: runs [0, 13); [0, 8), [8, 13); [0, 4),
# [4, 8), [8, 13); [0, 4), [4, 8), [8, 12), [12, 13), the last one plane
# whose first and last fused planes coincide.
EDGE_PLANES = (0, 3, 4, 7, 8, 12)


@pytest.fixture(scope="module")
def edge_inputs():
    """(rig, trajectory, chunk) of lateral_room's rig and motion seeing
    points at the depths of EDGE_PLANES of 13 planes over [0.45, 4]."""
    sc = make_scenario("lateral_room", n_points=1, seed=3)
    points = [(x * z, y * z, z)
              for z in dsi.plane_depths(0.45, 4.0, 13)[list(EDGE_PLANES)]
              for x in (-0.25, 0.0, 0.25) for y in (-0.15, 0.15)]
    sc = dataclasses.replace(sc, scene=SyntheticScene(np.array(points)))
    streams = sc.simulate()
    return sc.rig, sc.traj, chunk_events([streams[c] for c in sc.rig.camera_ids],
                                         0.5)[0]


class TestVolumeFree:
    """Refinement after a median filter of 1 reads only the fused votes
    beside each argmax plane, which the band loop keeps: no volume exists.
    Its outputs must equal those of a volume passed in, bit for bit."""

    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("voting", ["nearest", "bilinear"])
    def test_matches_a_forced_volume(self, edge_inputs, kernel, fusion, voting,
                                     monkeypatch):
        config = PipelineConfig(num_planes=13, fusion=fusion, voting=voting,
                                median_kernel=1)
        assert config.subvoxel and not pipeline._needs_volume(config)
        rig, traj, chunk = edge_inputs
        arounds = []
        real = pipeline.refine_result
        monkeypatch.setattr(pipeline, "refine_result", lambda fused, result,
                            around: arounds.append(around) or real(fused, result,
                                                                   around))
        for workers in (1, 2, 3, 4):
            volume = np.full((13, 180, 240), np.nan)  # all overwritten
            arounds.clear()
            want = process_chunk(copy.deepcopy(chunk), rig, traj, config,
                                 workers=workers, volume=volume)
            got = process_chunk(copy.deepcopy(chunk), rig, traj, config,
                                workers=workers)
            assert want.fused is None and got.fused is None
            for name in ("depth", "confidence", "mask"):
                assert getattr(got.result, name).tobytes() == \
                    getattr(want.result, name).tobytes(), (workers, name)
            assert untimed(got.stats) == untimed(want.stats), workers
            # the masked pixels' argmax planes include the volume's first
            # and last and every run's edges, and refinement moved depths
            mask = want.result.mask
            best = np.argmax(volume, axis=0)[mask]
            assert set(EDGE_PLANES) <= set(best.tolist()), workers
            unrefined = np.take(dsi.plane_depths(0.45, 4.0, 13), best)
            assert np.any(want.result.depth[mask] != unrefined)
            # with a volume too, the band loop keeps the votes beside each
            # argmax plane, at the runs' seams (planes 4, 8 and 12) as well
            around = arounds[0]
            best = np.argmax(volume, axis=0)
            iy, ix = np.nonzero(mask & (best > 0) & (best < 12))
            i = best[iy, ix]
            assert set(EDGE_PLANES[1:-1]) <= set(i.tolist()), workers
            assert around[0][iy, ix].tobytes() == volume[i - 1, iy, ix].tobytes()
            assert around[1][iy, ix].tobytes() == volume[i + 1, iy, ix].tobytes()

    def test_process_chunk_allocates_a_volume_only_for_a_reader(self, band_inputs,
                                                                 monkeypatch):
        rig, traj, chunk = band_inputs
        created = []
        real = DsiGrid.create

        def spy(*args, **kwargs):
            grid = real(*args, **kwargs)
            created.append(grid.votes)
            return grid
        monkeypatch.setattr(DsiGrid, "create", spy)
        for median, subvoxel, dump_dsi, has_volume in [(1, True, False, False),
                                                       (1, False, False, False),
                                                       (3, True, False, True),
                                                       (3, False, False, False),
                                                       (1, True, True, True)]:
            config = PipelineConfig(num_planes=13, median_kernel=median,
                                    subvoxel=subvoxel, dump_dsi=dump_dsi)
            assert pipeline._needs_volume(config) == has_volume
            created.clear()
            process_chunk(copy.deepcopy(chunk), rig, traj, config, workers=2)
            assert [v is not None for v in created] == [has_volume]


@pytest.fixture(scope="module")
def short_chunk():
    """(scenario, chunk): a middle 0.05 s window of lateral_room, sparse
    votes as room_short maps them."""
    sc = make_scenario("lateral_room", n_points=300, seed=7)
    streams = sc.simulate()
    chunks = chunk_events([streams[c] for c in sc.rig.camera_ids], 0.05)
    return sc, chunks[len(chunks) // 2]


def force_path(monkeypatch, sparse: bool):
    """Every chunk takes the sparse band step, or none does."""
    monkeypatch.setattr(pipeline, "SPARSE_TESTS_PER_VOXEL",
                        math.inf if sparse else 0.0)


def spy_marks(monkeypatch):
    """Per worker run of the compiled band loop (one _sweep.run_sweep call
    with bands), whether it was given marks."""
    calls = []
    real = _sweep.run_sweep

    def spy(prep, inv_zs, votes, mode, offset=0, marks=None, bands=None):
        if bands is not None:
            calls.append(marks is not None)
        return real(prep, inv_zs, votes, mode, offset, marks, bands)
    monkeypatch.setattr(_sweep, "run_sweep", spy)
    return calls


def assert_same_chunk(got, want, volumes=()):
    """Two ChunkOutputs hold the same bits: depth maps, untimed stats and
    any dumped volumes; ``volumes`` are (got, want) volume pairs."""
    for name in ("depth", "confidence", "mask"):
        assert getattr(got.result, name).tobytes() == \
            getattr(want.result, name).tobytes(), name
    assert untimed(got.stats) == untimed(want.stats)
    pairs = list(volumes)
    if want.fused is not None:
        pairs += [(g.votes, w.votes) for g, w in zip(
            [got.fused] + got.camera_grids, [want.fused] + want.camera_grids)]
    for g, w in pairs:
        assert g.tobytes() == w.tobytes()


class TestSparseBandStep:
    """A chunk whose votes are sparse sweeps with marks and fuses only the
    marked segments of its bands; its outputs are the dense path's bit for
    bit."""

    def test_sparse_gate(self, monkeypatch):
        rays = [types.SimpleNamespace(plane_tests=t) for t in (10, 49)]
        harmonic = FusionOp("harmonic")
        shape = (10, 2, 5)  # 100 voxels: 0.49 tests per voxel at most
        monkeypatch.setattr(pipeline, "SPARSE_TESTS_PER_VOXEL", 0.5)
        assert pipeline._sparse(rays, harmonic, shape)
        monkeypatch.setattr(pipeline, "SPARSE_TESTS_PER_VOXEL", 0.49)
        assert not pipeline._sparse(rays, harmonic, shape)  # the busiest camera
        monkeypatch.setattr(pipeline, "SPARSE_TESTS_PER_VOXEL", math.inf)
        for kind in _sweep.FUSE_KINDS:
            assert pipeline._sparse(rays, FusionOp(kind), shape)
        # numpy fuses every voxel: marks would only cost
        assert not pipeline._sparse(rays, FusionOp("geometric"), shape)
        with numpy_kernel():
            assert not pipeline._sparse(rays, harmonic, shape)

    def test_a_short_window_takes_the_sparse_path(self, short_chunk, monkeypatch):
        sc, chunk = short_chunk
        calls = spy_marks(monkeypatch)
        process_chunk(copy.deepcopy(chunk), sc.rig, sc.traj, sc.config, workers=1)
        assert calls == [True]  # one run of all 25 bands, with marks

    @pytest.mark.parametrize("case", [*_sweep.FUSE_KINDS, "nearest", "volume",
                                      "dump"])
    def test_matches_the_dense_path(self, short_chunk, monkeypatch, case):
        # 1-3 workers; harmonic (lateral_room's), every other compiled kind,
        # nearest voting, a fused volume (median 5 and sub-plane refinement)
        # and dumped volumes: a volume passed in NaN-filled must end equal
        sc, chunk = short_chunk
        config = sc.config
        if case in _sweep.FUSE_KINDS:
            config = dataclasses.replace(config, fusion=case)
        elif case == "nearest":
            config = dataclasses.replace(config, voting="nearest")
        elif case == "volume":
            config = dataclasses.replace(config, median_kernel=5)
        else:
            config = dataclasses.replace(config, dump_dsi=True)
        assert pipeline._needs_volume(config) == (case in ("volume", "dump"))
        shape = (config.num_planes, 180, 240)
        calls = spy_marks(monkeypatch)
        for workers in (1, 2, 3):
            outs = []
            for sparse in (True, False):
                force_path(monkeypatch, sparse)
                calls.clear()
                volume = np.full(shape, np.nan) if case == "volume" else None
                outs.append((process_chunk(copy.deepcopy(chunk), sc.rig, sc.traj,
                                           config, workers=workers,
                                           volume=volume), volume))
                assert calls and set(calls) == {sparse}
            (got, got_volume), (want, want_volume) = outs
            assert got.result.confidence.any()
            assert_same_chunk(got, want, [(got_volume, want_volume)]
                              if case == "volume" else [])
            if case == "volume":
                assert not np.isnan(got_volume).any()

    @pytest.mark.parametrize("fusion", _sweep.FUSE_KINDS)
    def test_grazing_fallback_matches_the_dense_path(self, band_inputs,
                                                     monkeypatch, fusion):
        # the third camera's near-grazing rays vote through the numpy
        # sweep_direct, which marks the whole band once it votes there
        rig, traj, chunk = band_inputs
        config = PipelineConfig(num_planes=13, fusion=fusion, dump_dsi=True)
        direct = []
        real = _sweep.sweep_direct
        monkeypatch.setattr(_sweep, "sweep_direct", lambda *a, **k: direct.append(
            k["marks"] is not None) or real(*a, **k))
        for workers in (1, 2, 3):
            outs = []
            for sparse in (True, False):
                force_path(monkeypatch, sparse)
                direct.clear()
                outs.append(process_chunk(copy.deepcopy(chunk), rig, traj, config,
                                          workers=workers))
                assert direct and set(direct) == {sparse}
            assert_same_chunk(*outs)
            assert outs[0].stats["cameras"]["c"]["events_grazing"] > 0


def band_loop(inputs, config, workers, monkeypatch, python_loop=False):
    """pipeline._vote_and_fuse on the chunk of ``inputs`` with ``config``
    (a NaN-filled volume when ``_needs_volume``, NaN-filled camera volumes
    with ``dump_dsi``), in the compiled band loop or, with
    ``python_loop``, in the Python one. Returns its outputs, the volumes
    and the number of run_sweep calls with bands."""
    rig, traj, chunk = inputs
    ref_view = select_reference_view(chunk, traj, rig.cameras[0])
    shape = (config.num_planes, 180, 240)
    fused = DsiGrid.create(
        ref_view, rig.cameras[0], config.z_min, config.z_max, config.num_planes,
        votes=np.full(shape, np.nan) if pipeline._needs_volume(config) else None,
        allocate=False)
    streams = [chunk.events[cid] for cid in rig.camera_ids]
    starts = np.cumsum([0] + [len(stream) for stream in streams])
    joined = _sweep.empty_prep(starts[-1])
    rays = [prepare_sweep(fused, stream, cam, traj=traj,
                          out=[a[s:e] for a in joined])
            for stream, cam, s, e in zip(streams, rig.cameras, starts, starts[1:])]
    cameras = np.full((len(rays),) + shape, np.nan) if config.dump_dsi else None
    runs = []
    real = _sweep.run_sweep

    def spy(prep, inv_zs, votes, mode, offset=0, marks=None, bands=None):
        runs.append(bands is not None)
        return real(prep, inv_zs, votes, mode, offset, marks, bands)
    with monkeypatch.context() as m:
        m.setattr(_sweep, "run_sweep", spy)
        if python_loop:
            m.setattr(pipeline, "_compiled", lambda op: False)
        out = pipeline._vote_and_fuse(fused, rays, joined, starts, FusionOp.from_string(
            config.fusion), config.voting, workers, cameras)
    return out, fused.votes, cameras, runs


def assert_same_band_loop(got, want, num_planes):
    """Two band_loop results hold the same hit masks, vote counts, peak
    maps, volumes and votes beside each best plane where a pixel has
    them."""
    (hits, votes, (confidence, best), around), volume, cameras = got[:3]
    (w_hits, w_votes, (w_conf, w_best), w_around), w_volume, w_cameras = want[:3]
    assert len(hits) == len(w_hits)
    assert all(np.array_equal(h, w) for h, w in zip(hits, w_hits))
    assert votes == w_votes and all(type(v) is int for v in votes)
    assert confidence.tobytes() == w_conf.tobytes()
    assert best.tobytes() == w_best.tobytes()
    voted = confidence > 0.0
    for side, has in ((0, voted & (best > 0)), (1, voted & (best < num_planes - 1))):
        assert around[side][has].tobytes() == w_around[side][has].tobytes()
    for a, b in ((volume, w_volume), (cameras, w_cameras)):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()


class TestCompiledBandLoop:
    """A chunk of the compiled fusion kinds runs each worker's bands in one
    C call (one run_sweep call with bands), or in one call per band where
    rays graze; its outputs are the Python band loop's bit for bit."""

    @pytest.mark.parametrize("fusion", _sweep.FUSE_KINDS)
    @pytest.mark.parametrize("voting", ["nearest", "bilinear"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    @pytest.mark.parametrize("store", ["bands", "volume", "dump"])
    def test_matches_the_python_loop(self, edge_inputs, monkeypatch, fusion,
                                     voting, sparse, store):
        # 13 planes, bands of 4, 4, 4 and 1, runs ending at the planes where
        # edge_inputs' points lie; without a volume, with one, and with
        # every camera's volume kept
        config = PipelineConfig(num_planes=13, fusion=fusion, voting=voting,
                                median_kernel=5 if store == "volume" else 1,
                                dump_dsi=store == "dump")
        assert pipeline._needs_volume(config) == (store != "bands")
        force_path(monkeypatch, sparse)
        for workers in (1, 2, 3):
            got = band_loop(edge_inputs, config, workers, monkeypatch)
            want = band_loop(edge_inputs, config, workers, monkeypatch,
                             python_loop=True)
            assert got[3] == [True] * workers  # one C call per run
            assert want[3] and not any(want[3])
            assert_same_band_loop(got, want, 13)
            assert got[0][2][0].any()
            for volume in got[1:3]:
                assert volume is None or not np.isnan(volume).any()

    @pytest.mark.parametrize("fusion", _sweep.FUSE_KINDS)
    @pytest.mark.parametrize("voting", ["nearest", "bilinear"])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    @pytest.mark.parametrize("store", ["bands", "volume", "dump"])
    def test_grazing_chunks_step_band_by_band(self, band_inputs, monkeypatch,
                                              fusion, voting, sparse, store):
        # the third camera's near-grazing rays vote in numpy's sweep_direct
        # before each band's run_bands call: one call per band of 13 planes
        # (4, 4, 4 and 1) at any worker count, no other C sweep and no
        # numpy fusion; the outputs are numpy's Python loop's and the
        # whole-volume oracle's bit for bit
        config = PipelineConfig(num_planes=13, fusion=fusion, voting=voting,
                                median_kernel=5 if store == "volume" else 1,
                                dump_dsi=store == "dump")
        force_path(monkeypatch, sparse)
        rig, traj, chunk = band_inputs
        grids, fused, _ = whole_volume_chunk(chunk, rig, traj, config)
        calls = []
        real_sweep, real_fuse = _sweep._sweep_c, FusionOp.apply_into
        monkeypatch.setattr(_sweep, "_sweep_c", lambda *a, **k: calls.append(
            "sweep") or real_sweep(*a, **k))
        monkeypatch.setattr(FusionOp, "apply_into", lambda *a: calls.append(
            "fusion") or real_fuse(*a))
        for workers in (1, 2, 3):
            calls.clear()
            got = band_loop(band_inputs, config, workers, monkeypatch)
            assert got[3] == [True] * 4 and calls == []
            with numpy_kernel():
                want = band_loop(band_inputs, config, workers, monkeypatch)
            assert want[3] and not any(want[3])
            assert_same_band_loop(got, want, 13)
            (hits, votes, (confidence, _), _), volume, cameras = got[:3]
            assert confidence.any() and all(votes)
            if volume is not None:
                assert volume.tobytes() == fused.votes.tobytes()
            if cameras is not None:
                assert all(c.tobytes() == g.votes.tobytes()
                           for c, g in zip(cameras, grids))
            assert [len(h) - np.count_nonzero(h) for h in hits] == \
                [g.skipped_events for g in grids]

    @pytest.mark.parametrize("case", ["grazing", "geometric"])
    def test_other_chunks_take_the_python_loop(self, band_inputs, edge_inputs,
                                               monkeypatch, case):
        # numpy fuses the geometric and power means: such chunks keep the
        # band loop in Python, grazing rays or not, and its outputs are the
        # whole-volume oracle's
        inputs, fusion = ((band_inputs, "power:0.5") if case == "grazing"
                          else (edge_inputs, "geometric"))
        config = PipelineConfig(num_planes=13, fusion=fusion)
        rig, traj, chunk = inputs
        *_, want = whole_volume_chunk(chunk, rig, traj, config)
        for workers in (1, 2, 3):
            (_, votes, _, _), _, _, runs = band_loop(inputs, config, workers,
                                                     monkeypatch)
            assert runs and not any(runs) and all(votes)
            calls = []
            real = _sweep.run_sweep
            monkeypatch.setattr(_sweep, "run_sweep", lambda *a, **k: calls.append(
                k.get("bands")) or real(*a, **k))
            out = process_chunk(copy.deepcopy(chunk), rig, traj, config,
                                workers=workers)
            monkeypatch.setattr(_sweep, "run_sweep", real)
            # one sweep per band and camera
            assert calls == [None] * 4 * len(rig.cameras)
            grazing = sum(c["events_grazing"] for c in out.stats["cameras"].values())
            assert (grazing > 0) == (case == "grazing")
            for name in ("depth", "mask", "confidence"):
                assert getattr(out.result, name).tobytes() == \
                    getattr(want, name).tobytes(), (workers, name)


@pytest.fixture(scope="module", params=["lateral_room", "noisy_left"])
def scenario_chunk(request):
    """(scenario, its first 0.5 s chunk) of 300 scene points."""
    sc = make_scenario(request.param, n_points=300, seed=7)
    streams = sc.simulate()
    chunk = chunk_events([streams[c] for c in sc.rig.camera_ids], 0.5)[0]
    return sc, chunk


class TestParallelPreparation:
    @staticmethod
    def _run(sc, chunk, workers, monkeypatch):
        """process_chunk at ``workers``, with the threads that prepared each
        camera's rays and the rays and joined arrays that the band loop got."""
        threads, seen = [], []
        real_prepare, real_vote = pipeline.prepare_sweep, pipeline._vote_and_fuse

        def prepare(*args, **kwargs):
            threads.append(threading.get_ident())
            return real_prepare(*args, **kwargs)

        def vote(fused, rays, joined, *args):
            seen.append((rays, joined))
            return real_vote(fused, rays, joined, *args)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "prepare_sweep", prepare)
            m.setattr(pipeline, "_vote_and_fuse", vote)
            out = process_chunk(copy.deepcopy(chunk), sc.rig, sc.traj, sc.config,
                                workers=workers)
        return out, threads, seen[0]

    def test_workers_prepare_the_same_bits(self, scenario_chunk, monkeypatch):
        # each camera's rays are prepared on a thread of their own at two
        # workers and on the calling thread at one, into the same slices
        sc, chunk = scenario_chunk
        (one, threads1, (rays1, joined1)), (two, threads2, (rays2, joined2)) = [
            self._run(sc, chunk, workers, monkeypatch) for workers in (1, 2)]
        main = threading.get_ident()
        assert threads1 == [main, main] and main not in threads2
        assert len(threads2) == 2
        assert [a.tobytes() for a in joined1] == [a.tobytes() for a in joined2]
        for r1, r2 in zip(rays1, rays2):
            for a, b in zip(r1.affine + r1.graze, r2.affine + r2.graze):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert one.stats["workers"] == 1 and two.stats["workers"] == 2
        assert_same_chunk(two, one)
        assert one.result.num_valid > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_bad_camera_in_rig_order_raises(self, scenario_chunk, workers):
        # a pixel outside the sensor fails that camera's preparation; with
        # both cameras bad, the left one's error is raised
        sc, chunk = scenario_chunk
        left, right = sc.rig.camera_ids

        def off_sensor(stream):
            x = stream.x.copy()
            x[3] = 240
            return EventStream(stream.camera_id, stream.t, x, stream.y,
                               stream.polarity)
        for bad, named in (((right,), right), ((left, right), left)):
            broken = copy.deepcopy(chunk)
            for cid in bad:
                broken.events[cid] = off_sensor(broken.events[cid])
            with pytest.raises(ValueError, match=f"stream {named}: event 3 at "
                                                 f"\\(240, "):
                process_chunk(broken, sc.rig, sc.traj, sc.config, workers=workers)


class TestChunkStats:
    KEYS = {"chunk", "t_start", "t_end", "cameras", "events_read", "events_voted",
            "events_skipped", "valid_pixels", "kernel", "band_step", "workers",
            "timings"}

    @pytest.fixture(scope="class")
    def room(self):
        sc = make_scenario("lateral_room", n_points=500, seed=7)
        return sc, sc.simulate()

    @pytest.mark.parametrize("duration,band_step", [(0.05, "sparse"), (0.5, "dense")])
    @pytest.mark.parametrize("workers", [1, 2, 40])
    def test_schema(self, room, duration, band_step, workers):
        # 100 planes form 25 bands: 40 workers run 25 of them
        sc, streams = room
        config = dataclasses.replace(sc.config, chunk_duration=duration)
        outs = run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                            workers=workers)
        assert len(outs) == round(0.5 / duration)
        for out in outs:
            st = out.stats
            assert set(st) == self.KEYS
            assert set(st["timings"]) == {"reference", "rays", "vote_fuse",
                                          "extraction"}
            assert st["kernel"] == "c"
            assert st["band_step"] == band_step
            assert st["workers"] == min(resolve_workers(workers), 25)
            assert json.loads(json.dumps(st)) == st


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
    def test_oversized_dsi_refused_before_allocating(self, small_scenario,
                                                     monkeypatch):
        # lateral_room refines at a median filter of 1 and keeps no volume,
        # but the planes' depths grow with num_planes: 3 float64 per plane,
        # 240 MB here
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, num_planes=10**7)
        assert not pipeline._needs_volume(config)
        need = 8 * 3 * 10**7
        monkeypatch.setattr(pipeline.os, "sysconf", lambda name: {  # 128 MiB
            "SC_PHYS_PAGES": 2**15, "SC_PAGE_SIZE": 4096}[name])
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
        assert need < asked < need + 2**24  # the bookkeeping plus the band buffers
        assert "no fused volume" in exc.value.args[0]

    def test_oversized_volume_refused_before_allocating(self, small_scenario):
        sc, streams = small_scenario
        # 3.5 TB: with a median filter of 5, refinement reads the volume
        config = dataclasses.replace(sc.config, num_planes=10**7, median_kernel=5)
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

    def test_cli_exits_2_naming_the_bytes(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        # no volume at a median filter of 1; 240 MB of per-plane bookkeeping
        # and 30 MB of band buffers per worker on a machine of 256 MiB
        monkeypatch.setattr(pipeline.os, "sysconf", lambda name: {
            "SC_PHYS_PAGES": 2**16, "SC_PAGE_SIZE": 4096}[name])
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--num-planes", "10000000", "--width", "1000"]) == 2
        assert "bytes" in capsys.readouterr().err
        assert not (out / "results" / "stats.json").exists()

    def test_cli_exits_2_naming_the_volume_bytes(self, tmp_path, capsys):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--num-planes", "10000000", "--width", "1000",
                         "--median-kernel", "5"]) == 2
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

    # 100 planes' depths, inverse depths and the temporary that makes them
    BOOKKEEPING = 8 * 3 * 100
    # a camera's marks: a byte per 16 voxels of a row, 15 per row of a plane
    MARKS = pipeline.BAND_PLANES * 180 * 15

    def test_counts_the_extraction_filters(self):
        plane = 180 * 240 * 8
        volume = 100 * plane + self.BOOKKEEPING
        copies = pipeline.FILTER_COPIES
        assert pipeline._check_memory((100, 180, 240), 2, 1, keep=False,
                                      median_kernel=21) == \
            volume + copies * 21**2 * plane
        assert pipeline._check_memory((100, 180, 240), 2, 1, keep=False,
                                      threshold_sigma=1e6) == \
            volume + copies * 8 * (2 * 4_000_000 + 1)
        # filters and band buffers are never live at once: small filters
        # cost nothing beyond the buffers, the worker's five maps and marks
        assert pipeline._check_memory((100, 180, 240), 2, 1, keep=False,
                                      median_kernel=1, threshold_sigma=7.0) == \
            (100 + 2 * pipeline.BAND_PLANES + 5) * plane + 2 * self.MARKS \
            + self.BOOKKEEPING

    @pytest.mark.parametrize("flag,value,named", [
        ("--median-kernel", "101", "median_kernel 101"),
        ("--threshold-sigma", "1e8", "threshold_sigma 1e+08"),
        # beyond float range: 4 sigma, and the bytes in GiB
        ("--threshold-sigma", "1e308", "threshold_sigma 1e+308"),
        # a 162-digit kernel: counts past 10**15 in e-notation, so that the
        # message stays one short line
        pytest.param("--median-kernel", str(10**161 + 1),
                     "median_kernel 1.00e+161", id="median-kernel-10**161+1"),
    ])
    def test_unbounded_filter_refused_before_parsing(self, tmp_path, capsys,
                                                     monkeypatch, flag, value,
                                                     named):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0

        def reached(*args, **kwargs):
            raise AssertionError("the run went past the memory check")
        for name in ("median_filter_depth", "adaptive_threshold"):
            monkeypatch.setattr(pipeline, name, reached)
        monkeypatch.setattr(pipeline.rio, "parse_events", reached)
        monkeypatch.setattr(pipeline.os, "sysconf", lambda name: {  # 2 GiB
            "SC_PHYS_PAGES": 2**19, "SC_PAGE_SIZE": 4096}[name])
        assert cli_main(["map", "--config", str(out / "config.json"),
                         flag, value]) == 2
        [err] = capsys.readouterr().err.splitlines()
        need = float(re.search(r"the DSI needs ([\d.e+]+) bytes", err).group(1))
        assert need > 2**31 and named in err and len(err) < 500

    def test_kept_results_beyond_memory_refused_before_chunks(self, tmp_path,
                                                              capsys, monkeypatch):
        # every processed window keeps its depth, confidence and mask: 17 B
        # per pixel, 3.6 GB for the ~4900 windows of 0.1 ms here, on a
        # machine of 256 MiB where one chunk's 14.5 MB fit
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0

        def reached(*args, **kwargs):
            raise AssertionError("the run went past the window check")
        monkeypatch.setattr(pipeline, "process_chunk", reached)
        monkeypatch.setattr(pipeline, "chunk_events", reached)
        monkeypatch.setattr(pipeline.os, "sysconf", lambda name: {  # 256 MiB
            "SC_PHYS_PAGES": 2**16, "SC_PAGE_SIZE": 4096}[name])
        config = PipelineConfig.load(out / "config.json")
        config.chunk_duration = 1e-4
        with pytest.raises(DsiTooLarge, match="chunk_duration 0.0001 makes") as exc:
            run_pipeline(config, workers=1)
        streams = [rio.parse_events(path) for path in config.events]
        windows = pipeline.chunk_windows(streams, 1e-4)[1]
        kept = windows * pipeline.RESULT_BYTES * 240 * 180
        assert kept > 2**28 and f"{windows} windows" in str(exc.value)
        assert f"take {kept} bytes" in str(exc.value)
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--chunk-duration", "1e-4"]) == 2
        assert "use a longer chunk_duration" in capsys.readouterr().err
        assert not (out / "results" / "stats.json").exists()

    def test_window_below_the_timestamps_spacing_refused(self, tmp_path):
        # the chunker's floating-point guard once spun forever on windows
        # too short to move its end: a subprocess, so that a hang fails
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from raysweep.cli import cli_main; "
             "sys.exit(cli_main(sys.argv[1:]))", "map", "--config",
             str(out / "config.json"), "--chunk-duration", "1e-300"],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "chunk duration 1e-300 s is below the float spacing" in proc.stderr
        assert not (out / "results" / "stats.json").exists()

    def test_dump_without_out_dir_refused_before_parsing(self, tmp_path, capsys,
                                                         monkeypatch):
        # the chunk loop drops each chunk's volumes once written: without an
        # out_dir they would be built for nothing
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        config = PipelineConfig.load(out / "config.json")
        config.out_dir = None
        config.save(out / "config.json")

        def reached(*args, **kwargs):
            raise AssertionError("the run went past the dump check")
        monkeypatch.setattr(pipeline.rio, "parse_events", reached)
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--dump-dsi"]) == 2
        assert "dump_dsi writes each chunk's DSI volumes to out_dir" in \
            capsys.readouterr().err
        # an oversized config keeps its DsiTooLarge: the memory check comes first
        with pytest.raises(DsiTooLarge):
            run_pipeline(dataclasses.replace(config, dump_dsi=True,
                                             num_planes=10**7), workers=1)

    def test_threshold_sigma_beyond_the_larger_side_refused(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        # a blur this wide would take seconds per chunk
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0

        def reached(*args, **kwargs):
            raise AssertionError("the run went past the sigma check")
        monkeypatch.setattr(pipeline, "adaptive_threshold", reached)
        monkeypatch.setattr(pipeline.rio, "parse_events", reached)
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--threshold-sigma", "1e4"]) == 2
        err = capsys.readouterr().err
        assert "threshold_sigma 10000 exceeds 240, the larger side" in err
        assert not (out / "results" / "stats.json").exists()

    def test_threshold_sigma_of_the_larger_side_accepted(self, small_scenario):
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, threshold_sigma=240.0)
        outputs = run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                               workers=1)
        assert any(o.result is not None for o in outputs)

    def test_nms_radius_beyond_the_larger_side_refused(self, tmp_path, capsys,
                                                       monkeypatch):
        # a window this wide would take seconds per chunk and change nothing
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0

        def reached(*args, **kwargs):
            raise AssertionError("the run went past the radius check")
        monkeypatch.setattr(pipeline, "local_peak_mask", reached)
        monkeypatch.setattr(pipeline.rio, "parse_events", reached)
        assert cli_main(["map", "--config", str(out / "config.json"),
                         "--nms-radius", "1000000"]) == 2
        err = capsys.readouterr().err
        assert "nms_radius 1000000 exceeds 240, the larger side" in err
        assert not (out / "results" / "stats.json").exists()

    def test_nms_radius_of_the_larger_side_accepted(self, small_scenario):
        sc, streams = small_scenario
        config = dataclasses.replace(sc.config, nms_radius=240)
        outputs = run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                               workers=1)
        assert any(o.result is not None for o in outputs)

    def test_counts_kept_volumes_and_band_buffers(self):
        plane = 180 * 240 * 8
        # each worker also keeps two peak maps, confidence and best plane,
        # three for refinement (below, above and the run's first plane) and
        # each camera's marks
        assert pipeline._check_memory((100, 180, 240), 2, 1, keep=False) == \
            (100 + 2 * pipeline.BAND_PLANES + 5) * plane + 2 * self.MARKS \
            + self.BOOKKEEPING
        assert pipeline._check_memory((100, 180, 240), 3, 2, keep=True) == \
            ((1 + 3) * 100 + 2 * (3 * pipeline.BAND_PLANES + 5)) * plane \
            + 2 * 3 * self.MARKS + self.BOOKKEEPING

    def test_counts_band_outputs_without_a_volume(self):
        # no fused volume: each worker also keeps two fused bands and their
        # written masks; only the bookkeeping grows with the planes
        plane = 180 * 240 * 8
        per_worker = ((2 + 2) * pipeline.BAND_PLANES + 2 + 3) * plane \
            + (2 + 2) * self.MARKS
        for planes in (100, 10**7):
            assert pipeline._check_memory((planes, 180, 240), 2, 1, keep=False,
                                          volume=False) == \
                per_worker + 8 * 3 * planes
        assert pipeline._check_memory((100, 180, 240), 2, 2, keep=False,
                                      volume=False) == \
            2 * per_worker + self.BOOKKEEPING
        # a dump keeps the fused volume
        assert pipeline._check_memory((100, 180, 240), 2, 1, keep=True,
                                      volume=False) == \
            ((1 + 2) * 100 + 2 * pipeline.BAND_PLANES + 5) * plane \
            + 2 * self.MARKS + self.BOOKKEEPING

    def test_counts_the_marks_of_rows_of_any_width(self):
        # a row of 17 voxels holds two segments, one of them short
        plane = 3 * 17 * 8
        assert pipeline._check_memory((8, 3, 17), 2, 1, keep=False) == \
            (8 + 2 * pipeline.BAND_PLANES + 5) * plane \
            + 2 * pipeline.BAND_PLANES * 3 * 2 + 8 * 3 * 8

    def test_bookkeeping_bounds_the_growth_with_planes(self, small_scenario):
        # a volume-free run on a small DSI: what it allocates beyond the
        # check's count stays the same from 2000 planes to 10000
        sc, streams = small_scenario
        peaks, counts = [], []
        for planes in (2000, 10000):
            config = dataclasses.replace(sc.config, num_planes=planes,
                                         width=122, height=92)
            counts.append(pipeline._check_memory((planes, 92, 122), 2, 1,
                                                 keep=False, volume=False))
            tracemalloc.start()
            try:
                run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                             workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 0 < peaks[1] - peaks[0] <= counts[1] - counts[0]


class TestEventFiles:
    """run_pipeline parses the event files in parallel, one per worker."""

    @pytest.fixture
    def scenario(self, tmp_path):
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        return PipelineConfig.load(out / "config.json")

    def test_same_outputs_as_from_parsed_streams(self, scenario):
        config = dataclasses.replace(scenario, out_dir=None)
        rig = rio.parse_calibration(config.calibration)
        streams = {cid: rio.parse_events(path, cid, width=cam.width,
                                         height=cam.height)
                   for path, cid, cam in zip(config.events, rig.camera_ids,
                                             rig.cameras)}
        from_files = run_pipeline(config, workers=2)
        given = run_pipeline(config, streams=streams, workers=1)
        assert [o.stats["events_read"] for o in from_files] == \
            [o.stats["events_read"] for o in given]
        for a, b in zip(from_files, given):
            assert (a.result is None) == (b.result is None)
            if a.result is not None:
                assert np.array_equal(a.result.depth, b.result.depth)
                assert np.array_equal(a.result.mask, b.result.mask)

    def test_first_bad_file_in_rig_order_raises(self, scenario):
        for path in scenario.events:
            with open(path, "a") as fh:
                fh.write("x 1 2 1\n")
        with pytest.raises(ParseError, match="bad numeric field") as err:
            run_pipeline(scenario, workers=2)
        assert Path(err.value.path) == Path(scenario.events[0])


class TestCli:
    @pytest.mark.parametrize("text,message", [
        ("[]", "must be a JSON object"),
        ("null", "must be a JSON object"),
        ('"abc"', "must be a JSON object"),
        ('{"events": [1, 2], "calibration": "calibration.json"}',
         "events must be a list of paths"),
    ])
    def test_malformed_config_document_exits_2(self, tmp_path, capsys, text,
                                               message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli_main(["map", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("command,flag,value", [
        ("synth", "--points", "-3"), ("synth", "--points", "0"),
        ("synth", "--seed", "-1"), ("eval", "--match-radius", "-1"),
        ("eval", "--match-radius", "nan"), ("eval", "--match-radius", "inf"),
        ("eval", "--outlier-rel", "nan"), ("eval", "--outlier-rel", "-0.5"),
    ])
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, capsys, command,
                                             flag, value):
        # refused before anything is read or written, naming the flag
        out = tmp_path / "scn"
        args = (["synth", "--scenario", "lateral_room", "--out", str(out)]
                if command == "synth" else
                ["eval", "--pred", str(tmp_path / "p.pfm"), "--gt",
                 str(tmp_path / "g.pfm")])
        assert cli_main(args + [flag, value]) == 1
        assert f"argument {flag}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_non_object_camera_entry_exits_2(self, tmp_path, capsys):
        calib = tmp_path / "calibration.json"
        calib.write_text(json.dumps({"cameras": [1, 2]}))
        cfg = tmp_path / "cfg.json"
        PipelineConfig(events=["a.txt", "b.txt"], trajectory="t.txt",
                       calibration=str(calib)).save(cfg)
        assert cli_main(["map", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(calib) in err and "cameras[0] must be a JSON object" in err

    def test_repeated_camera_name_exits_2(self, tmp_path, capsys):
        # both cameras named left would map the left events twice
        out = tmp_path / "scn"
        assert cli_main(["synth", "--scenario", "lateral_room", "--out", str(out),
                         "--points", "40", "--seed", "2"]) == 0
        config = PipelineConfig.load(out / "config.json")
        calib = Path(config.calibration)
        doc = json.loads(calib.read_text())
        doc["cameras"][1]["name"] = doc["cameras"][0]["name"]
        calib.write_text(json.dumps(doc))
        assert cli_main(["map", "--config", str(out / "config.json")]) == 2
        err = capsys.readouterr().err
        assert str(calib) in err and "repeats cameras[0]" in err
        assert not (out / "results" / "stats.json").exists()

    def test_eval_bad_pfm_header_exits_2_naming_the_file(self, tmp_path, capsys):
        from raysweep.io import write_pfm
        bad, gt = tmp_path / "bad.pfm", tmp_path / "gt.pfm"
        bad.write_bytes(b"Pf\nabc 3\n-1.0\n" + b"\x00" * 12)
        write_pfm(np.ones((3, 4), np.float32), gt)
        assert cli_main(["eval", "--pred", str(bad), "--gt", str(gt)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "bad PFM header 'abc 3 -1.0'" in err

    def test_eval_shape_mismatch(self, tmp_path, capsys):
        from raysweep.io import write_pfm
        a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(np.ones((4, 4), np.float32), a)
        write_pfm(np.ones((5, 4), np.float32), b)
        assert cli_main(["eval", "--pred", str(a), "--gt", str(b)]) == 2
