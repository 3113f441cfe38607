import contextlib
import ctypes
import dataclasses
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raysweep import _sweep
from raysweep.dsi import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    MAX,
    MIN,
    RMS,
    DsiGrid,
    FusionOp,
    empty_peak,
    fuse,
    fuse_band,
    plane_depths,
    prepare_sweep,
    sweep_band,
    vote_event,
    vote_event_bruteforce,
    vote_events,
)
from raysweep.dsi import _AFFINE_COND_BOUND, _RayPrep, _pixel_bearings, _prepare_rays, _prepare_rays_c
from raysweep.errors import InvalidDepthRange, MisalignedDsi, OutOfTrajectoryRange
from raysweep.events import Event, EventStream
from raysweep.geometry import CameraModel, PoseTrajectory, Se3, quat_conjugate

from conftest import KERNELS, numpy_kernel, random_pose, random_unit_quat

positive = st.floats(min_value=1e-6, max_value=1e6)


def make_grid(cam, num_planes=4, z_min=1.0, z_max=4.0, ref=None):
    return DsiGrid.create(ref or Se3.identity(), cam, z_min, z_max, num_planes)


def random_stream(rng, n, cam):
    return EventStream(
        "r",
        np.sort(rng.uniform(0.0, 1.0, n)),
        rng.integers(0, cam.width, n, dtype=np.int32),
        rng.integers(0, cam.height, n, dtype=np.int32),
        rng.choice(np.array([-1, 1], np.int8), n),
    )


class TestPlaneDepths:
    def test_two_planes_are_endpoints(self):
        assert list(plane_depths(1.0, 3.0, 2)) == [1.0, 3.0]

    def test_three_planes_inverse_spacing(self):
        # inverse depths 1, 2/3, 1/3
        assert np.allclose(plane_depths(1.0, 3.0, 3), [1.0, 1.5, 3.0], atol=1e-12)

    def test_indoor_range_constant_inverse_spacing(self):
        zs = plane_depths(0.45, 4.0, 100)
        assert zs[0] == 0.45 and zs[-1] == 4.0
        dinv = np.diff(1.0 / zs)
        expected = (1.0 / 4.0 - 1.0 / 0.45) / 99
        assert np.max(np.abs(dinv - expected)) < 1e-12
        assert np.all(np.diff(zs) > 0)

    @pytest.mark.parametrize("bad", [(0.0, 4.0, 10), (4.0, 1.0, 10), (1.0, 4.0, 1),
                                     (-1.0, 4.0, 10)])
    def test_invalid_ranges(self, bad):
        with pytest.raises(InvalidDepthRange):
            plane_depths(*bad)


class TestVoteEvent:
    def test_principal_point_at_reference_pose(self, pinhole_cam):
        # ray down the optical axis votes (cx, cy) on every plane
        grid = make_grid(pinhole_cam, num_planes=6)
        vote_event(grid, Event(0.0, 120, 90), pinhole_cam, Se3.identity(), mode="nearest")
        assert np.all(grid.votes[:, 90, 120] == 1.0)
        assert grid.total_votes() == 6.0
        assert grid.skipped_events == 0

    def test_stereo_baseline_disparity_sweep(self):
        # camera displaced by the rig baseline along x, event ray through
        # (0, 0, 2): the z=2 plane votes (cx, cy), the others land at
        # u = cx + fx*b*(1/z - 1/2) -- all integers by construction
        b = 0.1184
        cam = CameraModel(fx=1250.0, fy=1250.0, cx=120.0, cy=90.0, width=240, height=180)
        grid = make_grid(cam, num_planes=4, z_min=1.0, z_max=4.0)
        pose = Se3(np.array([0.0, 0.0, 0.0, 1.0]), np.array([b, 0.0, 0.0]))
        assert list(grid.depths) == [1.0, pytest.approx(4.0 / 3.0), 2.0, 4.0]
        vote_event(grid, Event(0.0, 46, 90), cam, pose, mode="nearest")
        for i, z in enumerate(grid.depths):
            u = 120.0 + 1250.0 * b * (1.0 / z - 0.5)
            hits = np.nonzero(grid.votes[i])
            assert list(zip(*hits)) == [(90, int(round(u)))]
        assert grid.votes[2, 90, 120] == 1.0

    def test_ray_parallel_to_planes_is_skipped(self, pinhole_cam):
        grid = make_grid(pinhole_cam)
        # 90 deg rotation about x sends the optical axis to -y: dir_z == 0
        pose = Se3.from_axis_angle([1, 0, 0], np.pi / 2)
        vote_event(grid, Event(0.0, 120, 90), pinhole_cam, pose, mode="nearest")
        assert grid.total_votes() == 0.0
        assert grid.skipped_events == 1

    def test_bilinear_unit_mass_per_plane(self, pinhole_cam):
        # interior intersections spread exactly one vote over 4 voxels
        grid = make_grid(pinhole_cam, num_planes=3)
        pose = Se3(np.array([0, 0, 0, 1.0]), np.array([0.013, 0.007, 0.0]))
        vote_event(grid, Event(0.0, 120, 90), pinhole_cam, pose, mode="bilinear")
        per_plane = grid.votes.sum(axis=(1, 2))
        assert np.allclose(per_plane[per_plane > 0], 1.0, atol=1e-12)

    def test_vote_conservation_nearest(self, distorted_cam):
        rng = np.random.default_rng(2)
        grid = make_grid(distorted_cam, num_planes=13, z_min=0.45, z_max=4.0)
        for _ in range(200):
            q = random_unit_quat(rng)
            pose = Se3(q, rng.normal(size=3))
            before = grid.total_votes()
            vote_event(grid, Event(0.0, int(rng.integers(0, 240)),
                                   int(rng.integers(0, 180))),
                       distorted_cam, pose, mode="nearest")
            added = grid.total_votes() - before
            assert added == int(added)
            assert 0 <= added <= grid.num_planes
        assert grid.total_votes() <= 200 * grid.num_planes


class TestVotingOracle:
    # indirect: the kernel fixture sets each kernel up
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_examples_match_bruteforce(self, pinhole_cam, mode, kernel):
        grid = make_grid(pinhole_cam, num_planes=6)
        ref_ev = Event(0.0, 120, 90)
        for pose in [Se3.identity(),
                     Se3(np.array([0, 0, 0, 1.0]), np.array([0.1184, 0, 0])),
                     Se3.from_axis_angle([1, 0, 0], np.pi / 2)]:
            fast = grid.copy_empty()
            brute = grid.copy_empty()
            vote_event(fast, ref_ev, pinhole_cam, pose, mode=mode)
            vote_event_bruteforce(brute, ref_ev, pinhole_cam, pose, mode=mode)
            if mode == "nearest":
                assert np.array_equal(fast.votes, brute.votes)
            else:
                assert np.max(np.abs(fast.votes - brute.votes)) < 1e-12
            assert fast.skipped_events == brute.skipped_events

    def test_randomized_differential_nearest(self, distorted_cam, kernel):
        # cameras both outside and inside the depth range (lam sign flips)
        rng = np.random.default_rng(13)
        grid = make_grid(distorted_cam, num_planes=17, z_min=0.45, z_max=4.0)
        fast = grid.copy_empty()
        brute = grid.copy_empty()
        for _ in range(300):
            pose = Se3(random_unit_quat(rng), rng.normal(size=3) * [0.3, 0.3, 1.5])
            ev = Event(0.0, int(rng.integers(0, 240)), int(rng.integers(0, 180)))
            vote_event(fast, ev, distorted_cam, pose, mode="nearest")
            vote_event_bruteforce(brute, ev, distorted_cam, pose, mode="nearest")
        assert np.array_equal(fast.votes, brute.votes)
        assert fast.skipped_events == brute.skipped_events

    def test_empty_event_set(self, pinhole_cam):
        grid = make_grid(pinhole_cam)
        vote_events(grid, EventStream.empty("e"), pinhole_cam, pose=Se3.identity())
        assert grid.total_votes() == 0.0

    @pytest.mark.parametrize("n", [0, 400])
    def test_unknown_mode_rejected_before_any_vote(self, distorted_cam, kernel, n):
        # the pose of TestGrazingFallback: affine and near-grazing rays both
        rng = np.random.default_rng(5)
        stream = random_stream(rng, n, distorted_cam)
        pose = Se3.from_axis_angle([0, 1, 0], np.deg2rad(70), trans=[-0.3, 0.0, 0.8])
        grid = make_grid(distorted_cam, num_planes=30, z_min=0.45, z_max=4.0)
        rays = prepare_sweep(grid, stream, distorted_cam, pose=pose)
        assert n == 0 or (len(rays.affine[4]) and len(rays.graze[2]))
        with pytest.raises(ValueError, match="bilnear"):
            sweep_band(grid, rays, grid.votes, 0, mode="bilnear")
        with pytest.raises(ValueError, match="bilnear"):
            vote_events(grid, stream, distorted_cam, pose=pose, mode="bilnear")
        assert not grid.votes.any() and grid.skipped_events == 0
        traj = PoseTrajectory(np.array([0.0, 1.0]), np.array([pose.quat] * 2),
                              np.array([pose.trans] * 2))
        with pytest.raises(ValueError, match="bilnear"):
            vote_events(grid, stream, distorted_cam, traj=traj, mode="bilnear")
        with pytest.raises(ValueError, match="exactly one"):
            vote_events(grid, stream, distorted_cam, mode="nearest")
        assert not grid.votes.any() and grid.skipped_events == 0


class TestGrazingFallback:
    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_mixed_affine_and_direct_match_bruteforce(self, distorted_cam, mode,
                                                      monkeypatch):
        # a camera inside the depth range, turned 70 deg about y to look across
        # the reference view: many of its rays run nearly parallel to the
        # depth planes and take sweep_direct, the rest the affine kernel
        rng = np.random.default_rng(5)
        stream = random_stream(rng, 400, distorted_cam)
        pose = Se3.from_axis_angle([0, 1, 0], np.deg2rad(70), trans=[-0.3, 0.0, 0.8])
        grid = make_grid(distorted_cam, num_planes=30, z_min=0.45, z_max=4.0)

        voted = {}
        for name in ("run_sweep", "sweep_direct"):
            def spy(*args, _fn=getattr(_sweep, name), _name=name, **kwargs):
                hit, cast = _fn(*args, **kwargs)
                voted[_name] = voted.get(_name, 0) + int(np.count_nonzero(hit))
                return hit, cast
            monkeypatch.setattr(_sweep, name, spy)

        fast = grid.copy_empty()
        vote_events(fast, stream, distorted_cam, pose=pose, mode=mode)
        assert voted["run_sweep"] > 0 and voted["sweep_direct"] > 0

        brute = grid.copy_empty()
        for i in range(len(stream)):
            vote_event_bruteforce(brute, stream[i], distorted_cam, pose, mode=mode)
        if mode == "nearest":
            assert np.array_equal(fast.votes, brute.votes)
        else:
            assert np.max(np.abs(fast.votes - brute.votes)) <= 1e-12
        assert fast.skipped_events == brute.skipped_events


def random_ray_inputs(cam, n=300, num_planes=12, seed=8):
    """(grid, stream, quats, trans) with one random camera pose per event,
    centers spread through the depth range: forward and backward rays,
    lo > 0 and hi < num_planes all occur."""
    rng = np.random.default_rng(seed)
    stream = random_stream(rng, n, cam)
    grid = make_grid(cam, num_planes=num_planes, z_min=0.45, z_max=4.0)
    quats = np.array([random_unit_quat(rng) for _ in range(n)])
    trans = rng.normal(size=(n, 3)) * [0.3, 0.3, 0.0] + [0.0, 0.0, 1.0]
    trans[:, 2] += rng.uniform(-1.0, 1.5, n)
    return grid, stream, quats, trans


def random_rays(cam, n=300, num_planes=12, seed=8):
    """(grid, _prepare_rays output) of ``random_ray_inputs``."""
    grid, stream, quats, trans = random_ray_inputs(cam, n, num_planes, seed)
    return grid, _prepare_rays(grid, stream, cam, quats, trans)


def prepare_c_per_event(grid, stream, cam, quats, trans):
    """``_sweep.prepare_c`` of events that each take their own camera pose
    (``quats[k]``, ``trans[k]``): a trajectory of one sample per event at
    the event's own sample time, which pinning hands to C as it is, and no
    mount."""
    times = np.arange(float(len(stream)))
    bearings, index = _pixel_bearings(stream, cam)
    k = grid.ref_intrinsics
    return _RayPrep(*_sweep.prepare_c(
        times, quats, trans, times, bearings, index,
        quat_conjugate(grid.ref_pose.quat), grid.ref_pose.trans,
        (k.fx, k.fy, k.cx, k.cy), grid.depths, grid.inv_depths[0],
        _AFFINE_COND_BOUND))


def assert_same_bits(got, want):
    """Two sequences of arrays hold the same dtypes, shapes and bits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        if g.dtype == np.bool_:
            assert np.array_equal(g, w)
        else:
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def edge_rays():
    """Hand-placed hits on the edges of a 6 x 4 x 3 grid: the top half-pixel
    edge (u = W - 0.5) rounds out of the grid in nearest mode; the last
    column and row have no right/lower bilinear neighbour; u < 0, u = W,
    NaN and inf miss. Returns (width, height, a_u, a_v)."""
    w, h = 6, 4
    below = np.nextafter(w - 0.5, 0.0)
    a_u = np.array([w - 0.5, below, w - 1.0, 0.0, -0.0, -1e-300, w,
                    np.nan, np.inf, 2.5, 2.5])
    a_v = np.array([1.0, 1.0, h - 1.0, h - 0.5, 0.0, 1.0, 1.0,
                    1.0, 1.0, np.nextafter(h - 0.5, 0.0), h - 0.5])
    return w, h, a_u, a_v


# Runs in a process of its own with the library at argv[1]: the event pass on
# texts it takes and texts it refuses, then the pipeline through every
# compiled fusion kind and both voting modes, with and without a fused volume,
# on the sparse and on the dense band step, each worker's bands in one
# run_bands call, at 100 planes and at 7 (a short last band), and with every
# camera's volume kept; and the ray preparation on trajectories of one, two
# and five samples, the last rotating, with events at the first and last
# sample times, every array in a malloc block of exactly its size.
_UBSAN_RUN = r"""
import dataclasses, math, sys
from pathlib import Path
import numpy as np
from raysweep import _sweep, dsi, pipeline
from raysweep.events import EventStream, chunk_events
from raysweep.geometry import PoseTrajectory, Se3
from raysweep.pipeline import process_chunk, run_pipeline
from raysweep.synth import make_scenario

_sweep._build = lambda: Path(sys.argv[1])
assert _sweep.kernel_name() == "c"
for text, taken in [
    (b"# t x y p\n0.5 1 2 1\r\n\t.25  3\t4 -0\n0.5 5 6 +1", True),
    (b"1e-400 -2147483648 2147483647 -1\n123456789012345678e-20 0 0 1\n", True),
    (b"9" * 40 + b"e-30 0 0 1\n" + b"0." + b"1" * 40 + b" 0 0 1\n", True),
    (b"1e99999999999999999999 1 2 1\n", False),
    (b"0.1 -2147483649 2 1\n", False),
    (b"0.1 99999999999999999999 2 1\n", False),
    (b"0." + b"1" * 80 + b" 1 2 1\n", False),
    (b"0.1 1 2 1 # c\n", False),
    (b"# \xff\n", False),
]:
    assert (_sweep.parse_events_c(text, -1, -1) is not None) == taken, text
    _sweep.parse_events_c(text, 2, 2)
runs = []
run_sweep = _sweep.run_sweep
_sweep.run_sweep = lambda *a: runs.append(a[6] is not None) or run_sweep(*a)
sc = make_scenario("lateral_room", n_points=80, seed=3)
streams = sc.simulate()
cam = sc.rig.cameras[1]  # mounted off the body's origin
grid = dsi.DsiGrid.create(Se3.identity(), cam, 0.5, 4.0, 20, allocate=False)
rng = np.random.default_rng(5)
for times in ([0.5], [0.5, 1.5], [0.5, 0.75, 1.0, 1.25, 1.5]):
    m = len(times)
    quats = rng.normal(size=(m, 4))
    traj = PoseTrajectory(np.array(times), quats, rng.normal(size=(m, 3)))
    t = np.sort(np.concatenate([times[:1] * 3, times[-1:] * 3,
                                rng.uniform(times[0], times[-1], 300)]))
    stream = EventStream("c", t, rng.integers(0, cam.width, len(t)),
                         rng.integers(0, cam.height, len(t)), np.ones(len(t)))
    assert (traj.slerped_quats(t) is None) == (m == 1)
    for source in (dict(traj=traj), dict(pose=traj.pose_at(m - 1))):
        rays = dsi.prepare_sweep(grid, stream, cam, **source)
        assert rays.num_events == len(t)
for fusion in _sweep.FUSE_KINDS:
    for median, gate, planes in ((1, math.inf, 7), (5, math.inf, 100),
                                 (1, 0.0, 100), (5, 0.0, 7)):
        pipeline.SPARSE_TESTS_PER_VOXEL = gate
        voting = "nearest" if median == 1 else "bilinear"
        config = dataclasses.replace(sc.config, fusion=fusion, voting=voting,
                                     median_kernel=median, num_planes=planes)
        out, = run_pipeline(config, streams=streams, rig=sc.rig, traj=sc.traj,
                            workers=2)
        assert out.result is not None, (fusion, voting)
chunk, = chunk_events([streams[c] for c in sc.rig.camera_ids],
                      sc.config.chunk_duration)
for gate in (math.inf, 0.0):
    pipeline.SPARSE_TESTS_PER_VOXEL = gate
    config = dataclasses.replace(sc.config, num_planes=7, dump_dsi=True)
    out = process_chunk(chunk, sc.rig, sc.traj, config, workers=2)
    assert out.camera_grids[0].votes.any()
assert runs and all(runs), runs
"""


class TestCKernel:
    """The compiled kernel against the numpy kernel, its oracle."""

    @staticmethod
    def _prep(cam, n=300):
        grid, prep = random_rays(cam, n)
        keep = prep.affine_ok
        return grid, [a[keep] for a in prep[:6]]

    @pytest.mark.parametrize("planes", [None, (3, 8)])
    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_c_matches_numpy(self, distorted_cam, mode, planes):
        grid, (a_u, a_v, b_u, b_v, lo, hi) = self._prep(distorted_cam)
        assert lo.max() > 0 and hi.min() < grid.num_planes
        if planes is not None:
            lo, hi = np.clip(lo, *planes), np.clip(hi, *planes)
        prep = (a_u, a_v, b_u, b_v, lo, hi)
        v_c = np.zeros_like(grid.votes)
        v_numpy = np.zeros_like(grid.votes)
        hit_c, cast_c = _sweep.run_sweep(prep, grid.inv_depths, v_c, mode)
        with numpy_kernel():
            hit_numpy, cast_numpy = _sweep.run_sweep(prep, grid.inv_depths,
                                                     v_numpy, mode)
        assert hit_c.dtype == hit_numpy.dtype == np.bool_
        assert np.array_equal(hit_c, hit_numpy)
        assert 0 < np.count_nonzero(hit_numpy) < len(hit_numpy)
        assert_same_bits([v_c], [v_numpy])
        # the votes cast: an exact int, one unit per vote in nearest mode
        assert type(cast_c) is type(cast_numpy) is int
        assert cast_c == cast_numpy >= np.count_nonzero(hit_c)
        if mode == "nearest":
            assert cast_c == v_c.sum()
        if planes is not None:
            outside = np.ones(grid.num_planes, bool)
            outside[planes[0]:planes[1]] = False
            assert not v_numpy[outside].any() and not v_c[outside].any()
            assert v_numpy[~outside].any()

    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_grid_edges_match_numpy(self, mode):
        w, h, a_u, a_v = edge_rays()
        nz, n = 3, len(a_u)
        zeros = np.zeros(n)
        prep = (a_u, a_v, zeros, zeros, np.zeros(n, np.int64),
                np.full(n, nz, np.int64))
        inv_zs = np.array([1.0, 0.5, 0.25])
        v_c, v_numpy = np.zeros((nz, h, w)), np.zeros((nz, h, w))
        hit_c, cast_c = _sweep.run_sweep(prep, inv_zs, v_c, mode)
        with numpy_kernel():
            hit_numpy, cast_numpy = _sweep.run_sweep(prep, inv_zs, v_numpy, mode)
        assert np.array_equal(hit_c, hit_numpy)
        assert_same_bits([v_c], [v_numpy])
        want = [mode == "bilinear", True, True, mode == "bilinear", True, False,
                False, False, False, True, mode == "bilinear"]
        assert hit_c.tolist() == want
        # every hit votes on all three planes: u and v do not move with z
        assert cast_c == cast_numpy == 3 * sum(want)

    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_streams_agree_with_numpy(self, distorted_cam, mode):
        rng = np.random.default_rng(4)
        stream = random_stream(rng, 2000, distorted_cam)
        traj = PoseTrajectory(
            np.array([0.0, 1.0]),
            np.array([random_unit_quat(rng), random_unit_quat(rng)]),
            np.array([[0.0, 0, 0], [0.3, 0, 0]]),
        )
        a = make_grid(distorted_cam, num_planes=20, z_min=0.45, z_max=4.0)
        b = a.copy_empty()
        vote_events(a, stream, distorted_cam, traj=traj, mode=mode)
        with numpy_kernel():
            vote_events(b, stream, distorted_cam, traj=traj, mode=mode)
        assert_same_bits([a.votes], [b.votes])
        assert a.skipped_events == b.skipped_events
        assert a.total_votes() > 0

    def test_auto_resolves_to_c(self):
        assert _sweep.kernel_name() == "c"
        with numpy_kernel():
            assert _sweep.kernel_name() == "numpy"

    @pytest.mark.parametrize("bad", [
        "float32", "fortran", "readonly", "short_coeff", "inv_zs",
    ])
    def test_guard_rejects_unsafe_arguments(self, pinhole_cam, bad):
        grid, prep = self._prep(pinhole_cam, n=50)
        votes = np.zeros_like(grid.votes)
        inv_zs = grid.inv_depths
        if bad == "float32":
            votes = votes.astype(np.float32)
        elif bad == "fortran":
            votes = np.asfortranarray(votes)
        elif bad == "readonly":
            votes.flags.writeable = False
        elif bad == "short_coeff":
            prep[2] = prep[2][:-1]
        elif bad == "inv_zs":
            inv_zs = inv_zs[:-1]
        with pytest.raises(ValueError):
            _sweep.run_sweep(prep, inv_zs, votes, "bilinear")

    @pytest.mark.parametrize("bad", ["negative_lo", "hi_beyond"])
    def test_range_outside_volume_stays_inside(self, pinhole_cam, bad):
        # lo and hi are only compared: ranges reaching past the volume's
        # planes vote as the clipped ranges do, and write nothing outside
        # votes, here the middle planes of a sentinel-filled buffer
        grid, prep = self._prep(pinhole_cam, n=50)
        nz = grid.num_planes
        lo, hi = prep[4].copy(), prep[5].copy()
        if bad == "negative_lo":
            lo -= 3
            lo[0] = np.iinfo(np.int64).min
        else:
            hi += 3
            hi[0] = np.iinfo(np.int64).max
        wide = (*prep[:4], lo, hi)
        clipped = (*prep[:4], np.clip(lo, 0, nz), np.clip(hi, 0, nz))
        for kernel in KERNELS:
            for mode in ("nearest", "bilinear"):
                buf = np.full((nz + 2, grid.height, grid.width), -1.0)
                buf[1:-1] = 0.0
                want = np.zeros_like(grid.votes)
                with numpy_kernel() if kernel == "numpy" else contextlib.nullcontext():
                    hit, cast = _sweep.run_sweep(wide, grid.inv_depths,
                                                 buf[1:-1], mode)
                    want_hit, want_cast = _sweep.run_sweep(
                        clipped, grid.inv_depths, want, mode)
                assert (buf[[0, -1]] == -1.0).all()
                assert_same_bits([buf[1:-1], hit], [want, want_hit])
                assert want.any() and cast == want_cast

    @pytest.mark.parametrize("bad", ["float32", "fortran", "readonly"])
    def test_kernels_reject_the_same_votes(self, pinhole_cam, kernel, bad):
        # numpy scatters into a flat view of each plane, so it needs the
        # layout C needs; a copy would silently lose the votes
        grid, prep = self._prep(pinhole_cam, n=50)
        votes = np.zeros(grid.votes.shape, dtype=np.float32 if bad == "float32"
                         else np.float64, order="F" if bad == "fortran" else "C")
        votes.flags.writeable = bad != "readonly"
        with pytest.raises(ValueError, match="C-contiguous float64"):
            _sweep.run_sweep(prep, grid.inv_depths, votes, "bilinear")

    def test_compiles_without_warnings(self, tmp_path):
        out = tmp_path / "sweep.so"
        proc = subprocess.run(
            [*_sweep._COMPILE, "-Wall", "-Wextra", "-Werror", "-o", str(out),
             str(_sweep._SOURCE), *_sweep._LIBS],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.stat().st_size > 0

    def test_no_undefined_behaviour(self, tmp_path):
        # the event pass reads text from outside the program: every compiled
        # function runs under UBSan, which aborts on the first undefined
        # operation (signed overflow, a shift out of range, ...)
        lib = tmp_path / "sweep-ubsan.so"
        proc = subprocess.run(
            [*_sweep._COMPILE, "-fsanitize=undefined", "-fno-sanitize-recover=all",
             "-o", str(lib), str(_sweep._SOURCE), *_sweep._LIBS],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            pytest.skip(f"no UBSan build: {proc.stderr.strip()}")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", _UBSAN_RUN, str(lib)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_no_out_of_bounds_access(self, tmp_path):
        # UBSan does not see a read or write past an array's end; under
        # AddressSanitizer the same run stops at the first one. The run
        # entry is handed each worker's whole buffers, whose ends ASan
        # guards, and the numpy arrays come from ASan's malloc
        lib = tmp_path / "sweep-asan.so"
        proc = subprocess.run(
            ["gcc", "-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off",
             "-fPIC", "-shared", "-fsanitize=address", "-o", str(lib),
             str(_sweep._SOURCE), *_sweep._LIBS],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            pytest.skip(f"no ASan build: {proc.stderr.strip()}")
        runtime = subprocess.run(["gcc", "-print-file-name=libasan.so"],
                                 capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(runtime):  # gcc echoes a name it cannot find
            pytest.skip("no libasan.so")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}
        proc = subprocess.run([sys.executable, "-c", _UBSAN_RUN, str(lib)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_build_is_cached_by_source_and_flags(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        lib = _sweep._build()
        assert lib.parent == tmp_path / "raysweep"
        assert [p.name for p in lib.parent.iterdir()] == [lib.name]  # no temp file
        mtime = lib.stat().st_mtime_ns
        assert _sweep._build() == lib and lib.stat().st_mtime_ns == mtime
        monkeypatch.setattr(_sweep, "_COMPILE", (*_sweep._COMPILE, "-g"))
        other = _sweep._build()
        assert other != lib and other.parent == lib.parent

    def test_import_builds_nothing(self, tmp_path):
        # the kernel is built on first use, so importing starts no compiler
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", "import raysweep"], env=env,
                       check=True, timeout=120)
        assert not (tmp_path / "raysweep").exists()

    def test_requested_c_without_library_raises(self, monkeypatch, pinhole_cam):
        # the C entry points raise; the dispatchers fall back to numpy
        monkeypatch.setattr(_sweep, "_c_lib", None)
        monkeypatch.setattr(_sweep, "_c_error", "OSError: no compiler")
        grid, prep = self._prep(pinhole_cam, n=10)
        with pytest.raises(RuntimeError, match="no compiler"):
            _sweep._sweep_c(*prep, grid.inv_depths, grid.votes, bilinear=False)
        _, stream, quats, trans = random_ray_inputs(pinhole_cam, n=10)
        with pytest.raises(RuntimeError, match="no compiler"):
            prepare_c_per_event(grid, stream, pinhole_cam, quats, trans)
        assert _sweep.kernel_name() == "numpy"
        assert _sweep.run_sweep(prep, grid.inv_depths, grid.votes, "nearest")[0].any()
        traj = PoseTrajectory(stream.t, quats, trans)
        assert prepare_sweep(grid, stream, pinhole_cam, traj=traj).num_events == 10


_C_KINDS = {"int64_t": ctypes.c_int64, "int": ctypes.c_int, "double": ctypes.c_double}


def c_exports(source):
    """{name: (return type, ctypes type per parameter)} of each function that
    the C ``source`` defines without ``static``: a pointer is c_void_p."""
    source = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    exports = {}
    for ret, name, params in re.findall(r"^(\w+) (\w+)\(([^)]*)\)\s*\{", source, re.M):
        kinds = []
        for param in params.split(","):
            words = param.replace("*", " * ").split()
            kinds.append(ctypes.c_void_p if "*" in words else _C_KINDS[words[-2]])
        exports[name] = (ret, kinds)
    return exports


def abi_mismatches(exports, argtypes, restypes):
    """Where the ctypes declarations disagree with the C definitions."""
    problems = []
    if set(exports) != set(argtypes):
        problems.append(f"exported {sorted(exports)}, typed {sorted(argtypes)}")
    for name in set(exports) & set(argtypes):
        ret, kinds = exports[name]
        if len(kinds) != len(argtypes[name]):
            problems.append(f"{name}: {len(kinds)} parameters, "
                            f"{len(argtypes[name])} argtypes")
        for i, (kind, argtype) in enumerate(zip(kinds, argtypes[name])):
            if kind is not argtype:
                problems.append(f"{name} argument {i}: {kind.__name__} in C, "
                                f"{argtype.__name__} in argtypes")
        if restypes[name] is not (None if ret == "void" else _C_KINDS[ret]):
            problems.append(f"{name}: returns {ret}, restype "
                            f"{getattr(restypes[name], '__name__', None)}")
    return problems


class TestCAbi:
    """The ctypes declarations in _sweep against the definitions in
    _sweep.c: a mismatch there reads or writes memory silently."""

    def test_argtypes_match_the_c_definitions(self):
        exports = c_exports(_sweep._SOURCE.read_text())
        assert set(exports) == {"sweep", "prepare", "fuse_band", "parse_events",
                                "run_bands"}
        lib = _sweep._require_c()
        restypes = {name: getattr(lib, name).restype for name in exports}
        assert all(getattr(lib, name).argtypes == _sweep._ARGTYPES[name]
                   for name in exports)
        assert restypes == _sweep._RESTYPES
        assert abi_mismatches(exports, _sweep._ARGTYPES, restypes) == []

    def test_a_swapped_argtype_is_caught(self):
        exports = c_exports(_sweep._SOURCE.read_text())
        restypes = dict(_sweep._RESTYPES)
        swapped = {name: list(types_) for name, types_ in _sweep._ARGTYPES.items()}
        bilinear = swapped["sweep"].index(ctypes.c_int)
        swapped["sweep"][bilinear] = ctypes.c_int64
        assert abi_mismatches(exports, swapped, restypes) == [
            f"sweep argument {bilinear}: c_int in C, "
            f"{ctypes.c_int64.__name__} in argtypes"]
        assert abi_mismatches(exports, _sweep._ARGTYPES,
                              {**restypes, "parse_events": ctypes.c_int}) == [
            "parse_events: returns int64_t, restype c_int"]
        # a dropped restype would read parse_events' count as None
        assert abi_mismatches(exports, _sweep._ARGTYPES,
                              {**restypes, "parse_events": None}) == [
            "parse_events: returns int64_t, restype None"]
        # and ctypes' default, c_int, would cut sweep's count of votes
        assert abi_mismatches(exports, _sweep._ARGTYPES,
                              {**restypes, "sweep": ctypes.c_int}) == [
            "sweep: returns int64_t, restype c_int"]


    def test_fuse_band_tracking_arguments(self):
        # prev, below and above are pointers, then the width, the marks,
        # their camera stride and the written mask; fuse_band returns
        # nothing; a narrowed or dropped argument and a read return are caught
        exports = c_exports(_sweep._SOURCE.read_text())
        ret, kinds = exports["fuse_band"]
        assert ret == "void" and kinds[10:] == [ctypes.c_void_p] * 3 + [
            ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
        restypes = dict(_sweep._RESTYPES)
        argtypes = {name: list(types_) for name, types_ in _sweep._ARGTYPES.items()}
        argtypes["fuse_band"][7] = ctypes.c_int  # p0
        assert abi_mismatches(exports, argtypes, restypes) == [
            f"fuse_band argument 7: {ctypes.c_int64.__name__} in C, c_int in "
            f"argtypes"]
        argtypes["fuse_band"] = list(_sweep._ARGTYPES["fuse_band"][:-1])
        assert abi_mismatches(exports, argtypes, restypes) == [
            "fuse_band: 17 parameters, 16 argtypes"]
        assert abi_mismatches(exports, _sweep._ARGTYPES,
                              {**restypes, "fuse_band": ctypes.c_int64}) == [
            f"fuse_band: returns void, restype {ctypes.c_int64.__name__}"]

    def test_run_bands_arguments(self):
        # the run's plane counts and sizes are int64, the voting mode and
        # the fusion kind int, the strides int64 beside their pointers;
        # run_bands returns nothing: a narrowed or dropped argument is caught
        exports = c_exports(_sweep._SOURCE.read_text())
        ret, kinds = exports["run_bands"]
        assert ret == "void" and len(kinds) == 32
        assert kinds[7:18] == [ctypes.c_int64, ctypes.c_void_p] + [
            ctypes.c_int64] * 5 + [ctypes.c_int] * 2 + [ctypes.c_void_p,
                                                         ctypes.c_int64]
        assert kinds[19] is kinds[29] is ctypes.c_int64  # mark and camera strides
        restypes = dict(_sweep._RESTYPES)
        argtypes = {name: list(types_) for name, types_ in _sweep._ARGTYPES.items()}
        argtypes["run_bands"][15] = ctypes.c_int64  # kind
        assert abi_mismatches(exports, argtypes, restypes) == [
            f"run_bands argument 15: c_int in C, {ctypes.c_int64.__name__} in "
            f"argtypes"]
        argtypes["run_bands"] = list(_sweep._ARGTYPES["run_bands"][:-1])
        assert abi_mismatches(exports, argtypes, restypes) == [
            "run_bands: 32 parameters, 31 argtypes"]

    def test_segment_matches_the_c_definition(self):
        # the Python checks size the marks with _sweep.SEGMENT and the C
        # kernels index them with their own SEGMENT: the two must agree
        defines = re.findall(r"^#define SEGMENT (\d+)$",
                             _sweep._SOURCE.read_text(), flags=re.MULTILINE)
        assert defines == [str(_sweep.SEGMENT)]


def segment_marks(votes):
    """The segments of _sweep.SEGMENT voxels of each row that hold a
    nonzero voxel of ``votes`` (..., H, W), as booleans (..., H, segs)."""
    width, seg = votes.shape[-1], _sweep.SEGMENT
    segs = -(-width // seg)
    padded = np.zeros(votes.shape[:-1] + (segs * seg,), dtype=bool)
    padded[..., :width] = votes != 0.0
    return padded.reshape(votes.shape[:-1] + (segs, seg)).any(axis=-1)


def covers(marks, votes):
    """Whether the uint8 ``marks`` set every segment where ``votes`` holds
    a vote."""
    return not (segment_marks(votes) & (marks == 0)).any()


class TestMarks:
    """A sweep given marks sets at least the segment of every voxel that it
    writes (C: each vote's segments; numpy: the whole band once it votes),
    and casts the same votes and count as a sweep without."""

    @staticmethod
    def both(prep, inv_zs, shape, mode, offset=0):
        """run_sweep into zeroed ``shape`` votes without marks and with;
        returns (votes, hit, cast) and (votes, hit, cast, marks)."""
        plain = np.zeros(shape)
        hit, cast = _sweep.run_sweep(prep, inv_zs, plain, mode, offset)
        marked = np.zeros(shape)
        marks = np.zeros(_sweep.mark_shape(*shape), np.uint8)
        m_hit, m_cast = _sweep.run_sweep(prep, inv_zs, marked, mode, offset,
                                         marks=marks)
        assert_same_bits([marked, m_hit], [plain, hit])
        assert m_cast == cast
        return (plain, hit, cast), (marked, m_hit, m_cast, marks)

    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    @pytest.mark.parametrize("shape", [(3, 37, 53), (2, 16, 48), (4, 5, 17),
                                       (1, 90, 7)])
    def test_marks_cover_every_vote(self, distorted_cam, kernel, mode, shape):
        # random rays into bands whose widths are and are not multiples of 16
        grid, prep = random_rays(distorted_cam, n=3000)
        prep = [a[prep.affine_ok] for a in prep[:6]]
        (votes, _, cast), (_, _, _, marks) = self.both(
            prep, grid.inv_depths, shape, mode, offset=3)
        assert cast > 0 and covers(marks, votes)
        if kernel == "numpy":
            assert marks.all()
        elif shape[2] > 16:
            assert not marks.all()  # C marks no more than the votes' rows

    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_edges_and_segment_boundaries(self, kernel, mode):
        # hits on a 37 x 5 grid (segments [0, 16), [16, 32), [32, 37)) at
        # x = W - 1, at y = H - 1 and either side of segment edges; u and v
        # do not move with the plane. C marks, per hit, the nearest voxel's
        # segment, or rows y0 and y0 + 1 (in the grid) and the segments of
        # x0 and x0 + 1 (in the grid)
        w, h = 37, 5
        a_u = np.array([w - 1.0, w - 0.75, 15.0, 15.5, 16.0, 31.9, 0.0, 20.0,
                        w - 0.5, 47.0])
        a_v = np.array([0.0, h - 1.0, 2.0, h - 1.0, 1.5, 3.25, h - 0.6, h - 0.7,
                        1.0, 1.0])
        n, nz = len(a_u), 3
        zeros = np.zeros(n)
        prep = (a_u, a_v, zeros, zeros, np.zeros(n, np.int64), np.full(n, nz))
        (votes, hit, cast), (_, _, _, marks) = self.both(
            prep, np.array([1.0, 0.5, 0.25]), (nz, h, w), mode)
        assert cast == nz * np.count_nonzero(hit) > 0
        assert covers(marks, votes)
        if kernel == "numpy":
            assert marks.all()
            return
        want = np.zeros(marks.shape[1:], np.uint8)
        for u, v in zip(a_u[hit], a_v[hit]):
            if mode == "nearest":
                want[int(v + 0.5), int(u + 0.5) // 16] = 1
            else:
                x0, y0 = int(u), int(v)
                for y in {y0, min(y0 + 1, h - 1)}:
                    for x in {x0, min(x0 + 1, w - 1)}:
                        want[y, x // 16] = 1
        assert np.array_equal(marks, np.broadcast_to(want, marks.shape))

    def test_no_vote_marks_nothing(self, kernel):
        # rays that miss the band set no mark in either kernel
        n = 4
        prep = (np.full(n, -5.0), np.zeros(n), np.zeros(n), np.zeros(n),
                np.zeros(n, np.int64), np.full(n, 2))
        _, (votes, hit, cast, marks) = self.both(prep, np.array([1.0, 0.5]),
                                                 (2, 3, 20), "bilinear")
        assert cast == 0 and not hit.any() and not marks.any()

    @pytest.mark.parametrize("bad", ["shape", "dtype", "readonly", "fortran"])
    def test_kernels_reject_the_same_marks(self, pinhole_cam, kernel, bad):
        grid, prep = random_rays(pinhole_cam, n=50)
        prep = [a[prep.affine_ok] for a in prep[:6]]
        votes = np.zeros((2, 20, 40))
        marks = np.zeros(_sweep.mark_shape(2, 20, 40), np.uint8)
        if bad == "shape":
            marks = np.zeros((2, 20, 2), np.uint8)  # one segment short
        elif bad == "dtype":
            marks = marks.astype(bool)
        elif bad == "readonly":
            marks.flags.writeable = False
        else:
            marks = np.asfortranarray(marks)
        with pytest.raises(ValueError, match="marks"):
            _sweep.run_sweep(prep, grid.inv_depths, votes, "bilinear", marks=marks)
        assert not votes.any()


class TestCPrepare:
    """The compiled ray preparation, which interpolates and mounts the
    camera poses too, against ``camera_poses`` and numpy's
    ``_prepare_rays``, its oracle: every output array bit for bit."""

    @staticmethod
    def _same_prep(got, want):
        """C's prepared arrays are numpy's, but for origins and dirs, which
        C keeps for the grazing rays only."""
        assert_same_bits([*got[:6], got.affine_ok], [*want[:6], want.affine_ok])
        graze = ~want.affine_ok
        assert_same_bits([got.origins, got.dirs],
                         [want.origins[graze], want.dirs[graze]])

    def _check(self, grid, stream, cam, traj):
        """The C preparation of ``stream`` on ``traj`` against numpy's, also
        through ``prepare_sweep``; returns numpy's ``_prepare_rays``."""
        with numpy_kernel():
            want = _prepare_rays(grid, stream, cam,
                                 *traj.camera_poses(stream.t, cam.T_body_cam))
            want_rays = prepare_sweep(grid, stream, cam, traj=traj)
        self._same_prep(_prepare_rays_c(grid, stream, cam, traj, None), want)
        got_rays = prepare_sweep(grid, stream, cam, traj=traj)
        assert_same_bits(got_rays.affine + got_rays.graze,
                         want_rays.affine + want_rays.graze)
        return want

    def test_random_rays(self, distorted_cam):
        # one trajectory sample per event, at the event's time: pinning hands
        # C each random pose as it is
        grid, stream, quats, trans = random_ray_inputs(distorted_cam, n=3000)
        traj = PoseTrajectory(stream.t, quats, trans)
        prep = self._check(grid, stream, distorted_cam, traj)
        d_z = prep.dirs[:, 2]
        assert (d_z > 0).any() and (d_z < 0).any()
        assert prep.lo.max() > 0 and prep.hi.min() < grid.num_planes
        assert 0 < np.count_nonzero(~prep.affine_ok) < len(stream)  # grazing

    def test_slerped_trajectory_and_rotated_mount(self, distorted_cam):
        # a rotating 21-sample trajectory, events also at its first, interior
        # and last sample times, a rotated and offset camera mount, random
        # reference views
        rng = np.random.default_rng(21)
        times = np.linspace(0.0, 1.0, 21)
        traj = PoseTrajectory(times, np.array([random_unit_quat(rng) for _ in times]),
                              rng.normal(size=(21, 3)) * 0.3)
        cam = dataclasses.replace(
            distorted_cam, T_body_cam=Se3(random_unit_quat(rng), [0.1, -0.05, 0.02]))
        stream = self._stream(rng, cam, np.concatenate([rng.uniform(0.0, 1.0, 4000),
                                                        times]))
        assert traj.slerped_quats(stream.t) is not None
        for _ in range(5):
            grid = make_grid(cam, num_planes=20, z_min=0.45, z_max=4.0,
                             ref=random_pose(rng, 0.3))
            prep = self._check(grid, stream, cam, traj)
            assert 0 < np.count_nonzero(~prep.affine_ok)  # grazing rays

    @staticmethod
    def _stream(rng, cam, t):
        n = len(t)
        return EventStream("r", np.sort(t), rng.integers(0, cam.width, n, dtype=np.int32),
                           rng.integers(0, cam.height, n, dtype=np.int32),
                           np.ones(n, np.int8))

    @pytest.mark.parametrize("rotating", [False, True])
    def test_translating_and_turning_trajectories(self, distorted_cam, rotating):
        # pure translation, one rotation throughout: no slerp; or a turn in
        # the middle segment, which every event then slerps across
        rng = np.random.default_rng(23)
        times = np.array([0.0, 0.3, 0.5, 0.9, 1.2])
        quats = np.tile(random_unit_quat(rng), (5, 1))
        if rotating:
            quats[2:] = random_unit_quat(rng)
        traj = PoseTrajectory(times, quats, rng.normal(size=(5, 3)) * 0.3)
        cam = dataclasses.replace(distorted_cam, T_body_cam=Se3(random_unit_quat(rng),
                                                                [0.1184, 0.0, 0.0]))
        stream = self._stream(rng, cam, np.concatenate([rng.uniform(0.0, 1.2, 3000),
                                                        times, times]))
        assert (traj.slerped_quats(stream.t) is None) == (not rotating)
        grid = make_grid(cam, num_planes=20, z_min=0.45, z_max=4.0,
                         ref=random_pose(rng, 0.3))
        self._check(grid, stream, cam, traj)

    @pytest.mark.parametrize("reach", ["untouched", "at_its_start"])
    def test_slerp_only_where_a_touched_segment_turns(self, distorted_cam, reach):
        # segments [0, 1] and [2, 3] keep one rotation, [1, 2] turns: events
        # in the still segments only take the sampled rotation, but one event
        # at t = 1 falls in the turning segment and makes numpy slerp every
        # event, which moves the still segments' rotations by some ulps
        rng = np.random.default_rng(24)
        q0, q1 = random_unit_quat(rng), random_unit_quat(rng)
        traj = PoseTrajectory(np.arange(4.0), np.array([q0, q0, q1, q1]),
                              rng.normal(size=(4, 3)) * 0.3)
        t = np.concatenate([rng.uniform(0.0, 1.0, 1500), rng.uniform(2.0, 3.0, 1500),
                            [0.0, 2.0, 3.0] + ([1.0] if reach == "at_its_start" else [])])
        stream = self._stream(rng, distorted_cam, t)
        slerped = traj.slerped_quats(stream.t)
        assert (slerped is None) == (reach == "untouched")
        if slerped is not None:
            still = (stream.t != 1.0)
            assert not np.array_equal(slerped[still], np.take(
                traj.quats, np.floor(stream.t[still]).astype(int).clip(0, 2), axis=0))
        grid = make_grid(distorted_cam, num_planes=20, z_min=0.45, z_max=4.0,
                         ref=random_pose(rng, 0.3))
        self._check(grid, stream, distorted_cam, traj)

    @pytest.mark.parametrize("samples", [1, 2])
    def test_one_and_two_sample_trajectories(self, distorted_cam, samples):
        rng = np.random.default_rng(25 + samples)
        times = np.array([0.25, 0.75])[:samples]
        traj = PoseTrajectory(times, [random_unit_quat(rng) for _ in times],
                              rng.normal(size=(samples, 3)) * 0.3)
        cam = dataclasses.replace(distorted_cam, T_body_cam=random_pose(rng, 0.1))
        t = (np.full(500, 0.25) if samples == 1 else
             np.concatenate([rng.uniform(0.25, 0.75, 2000), times, times]))
        stream = self._stream(rng, cam, t)
        grid = make_grid(cam, num_planes=20, z_min=0.45, z_max=4.0,
                         ref=random_pose(rng, 0.3))
        self._check(grid, stream, cam, traj)

    def test_backward_parallel_and_on_plane_origins(self):
        # fx = fy = 2, cx = cy = 0: pixel (x, y) has the exact bearing
        # (x/2, y/2). Quaternions (arrays, not poses, so unnormalized is
        # fine): identity looks forward (d_z = 1); (0, 1, 0, 0) turns about
        # y (d_z = -1); (1, 0, 0, 1) gives d_z = y - 1, zero on row 1.
        cam = CameraModel(fx=2.0, fy=2.0, cx=0.0, cy=0.0, width=4, height=4)
        grid = make_grid(cam, num_planes=5, z_min=1.0, z_max=4.0)
        zs = grid.depths
        quats = np.array([[0, 0, 0, 1.0], [0, 1.0, 0, 0], [1.0, 0, 0, 1.0]])
        # an infinite height makes the origin NaN, which searchsorted sorts
        # after every plane
        heights = np.array([zs[0], zs[2], zs[4], 0.0, 0.5 * (zs[1] + zs[2]), 5.0,
                            np.inf])
        x, y, qi, zi = (a.ravel() for a in np.meshgrid(
            np.arange(4), np.arange(4), np.arange(3), np.arange(7), indexing="ij"))
        n = len(x)
        stream = EventStream("r", np.zeros(n), x.astype(np.int32), y.astype(np.int32),
                             np.ones(n, np.int8))
        trans = np.zeros((n, 3))
        trans[:, 2] = heights[zi]
        with np.errstate(invalid="ignore"):  # 0 * inf
            prep = _prepare_rays(grid, stream, cam, quats[qi], trans)
        self._same_prep(prepare_c_per_event(grid, stream, cam, quats[qi], trans), prep)

        finite = zi < 6
        assert np.array_equal(prep.origins[finite, 2], trans[finite, 2])
        d_z = prep.dirs[:, 2]
        fwd, bwd, flat = d_z > 0, d_z < 0, d_z == 0
        assert fwd.any() and bwd.any() and flat.any()
        assert not prep.affine_ok[flat].any() and not prep.hi[flat].any()
        # an origin on plane 2: forward rays start past it, backward ones
        # end before it (searchsorted side="right" and side="left")
        on2 = zi == 1
        assert (prep.lo[on2 & fwd] == 3).all() and (prep.hi[on2 & fwd] == 5).all()
        assert (prep.lo[on2 & bwd] == 0).all() and (prep.hi[on2 & bwd] == 2).all()
        assert (prep.lo[(zi == 0) & fwd] == 1).all() and (prep.hi[(zi == 2) & bwd] == 4).all()
        assert np.isnan(prep.origins[~finite, 2]).all()
        assert (prep.lo[~finite & fwd] == 5).all() and (prep.hi[~finite & bwd] == 5).all()

    def test_empty_stream(self, distorted_cam, kernel):
        # a camera silent for one chunk
        grid = make_grid(distorted_cam)
        empty = EventStream.empty("r")
        prep = _prepare_rays(grid, empty, distorted_cam,
                             np.empty((0, 4)), np.empty((0, 3)))
        assert [a.shape for a in prep] == [(0,)] * 6 + [(0, 3)] * 2 + [(0,)]
        traj = PoseTrajectory([0.0, 1.0], [[0, 0, 0, 1.0]] * 2, np.eye(3)[:2])
        for source in (dict(pose=Se3.identity()), dict(traj=traj)):
            rays = prepare_sweep(grid, empty, distorted_cam, **source)
            assert rays.num_events == 0
            assert [a.shape for a in rays.affine + rays.graze] == \
                [(0,)] * 6 + [(0, 3)] * 2 + [(0,)] * 2
        if kernel == "c":
            prep = _prepare_rays_c(grid, empty, distorted_cam, traj, None)
            assert [a.shape for a in prep] == [(0,)] * 6 + [(0, 3)] * 2 + [(0,)]

    def test_fixed_pose(self, distorted_cam):
        rng = np.random.default_rng(22)
        stream = random_stream(rng, 3000, distorted_cam)
        grid = make_grid(distorted_cam, num_planes=20, z_min=0.45, z_max=4.0)
        # inverse() conjugates: the first pose's x, y and z are -0.0, which
        # the fixed pose keeps, as it is not composed with any mount
        poses = [Se3.identity().inverse(), random_pose(rng, 0.5),
                 Se3.from_axis_angle([0, 1, 0], 0.3, trans=[0.1, 0.0, 0.2]).inverse()]
        assert np.signbit(poses[0].quat[:3]).all()
        for pose in poses:
            got = prepare_sweep(grid, stream, distorted_cam, pose=pose)
            with numpy_kernel():
                want = prepare_sweep(grid, stream, distorted_cam, pose=pose)
            assert_same_bits(got.affine + got.graze, want.affine + want.graze)
            assert got.num_events == len(stream)

    @pytest.mark.parametrize("bad", [
        "index_high", "index_negative", "index_2d", "quat_shape", "short_trans",
        "bearings_shape", "intr", "depths_2d", "out_count", "out_short",
        "out_dtype", "out_strided", "times_2d", "no_samples", "times_unsorted",
        "times_repeated", "ts_short", "ts_missing", "mount_shape", "q_body_shape",
    ])
    def test_guard_rejects_unsafe_arguments(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(_sweep, "_c_lib",
                            types.SimpleNamespace(prepare=lambda *a: calls.append(a) or 0))
        monkeypatch.setattr(_sweep, "_c_error", None)
        n, m, s = 6, 4, 3  # events, distinct pixels, trajectory samples
        args = self._guard_args(n, m, s)
        _sweep.prepare_c(**args)
        assert len(calls) == 1
        if bad == "index_high":
            args["index"] = np.full(n, m)
        elif bad == "index_negative":
            args["index"] = np.full(n, -1)
        elif bad == "index_2d":
            args["index"] = np.zeros((n, 1), np.int64)
        elif bad == "quat_shape":
            args["quats"] = np.zeros((s, 3))
        elif bad == "short_trans":
            args["trans"] = np.zeros((s - 1, 3))
        elif bad == "bearings_shape":
            args["bearings"] = np.zeros((m, 3))
        elif bad == "intr":
            args["intr"] = (1.0, 1.0, 0.0)
        elif bad == "depths_2d":
            args["depths"] = np.ones((2, 2))
        elif bad == "out_count":
            args["out"] = _sweep.empty_prep(n)[:5]
        elif bad == "out_short":
            args["out"] = _sweep.empty_prep(n - 1)
        elif bad == "out_dtype":
            args["out"] = _sweep.empty_prep(n)[::-1]  # lo, hi first
        elif bad == "out_strided":
            args["out"] = [a[::2] for a in _sweep.empty_prep(2 * n)]
        elif bad == "times_2d":
            args["times"] = args["times"][:, None]
        elif bad == "no_samples":
            args.update(times=np.empty(0), quats=np.empty((0, 4)), trans=np.empty((0, 3)))
        elif bad == "times_unsorted":
            args["times"] = np.array([0.0, 2.0, 1.0])
        elif bad == "times_repeated":
            args["times"] = np.array([0.0, 1.0, 1.0])
        elif bad == "ts_short":
            args["ts"] = args["ts"][1:]
        elif bad == "ts_missing":
            args["ts"] = None
        elif bad == "mount_shape":
            args["mount"] = (np.array([0, 0, 0, 1.0]), np.zeros(2))
        elif bad == "q_body_shape":
            args["q_body"] = np.zeros((n - 1, 4))
        with pytest.raises(ValueError):
            _sweep.prepare_c(**args)
        assert len(calls) == 1

    @staticmethod
    def _guard_args(n, m, s):
        return dict(times=np.arange(float(s)), quats=np.tile([0, 0, 0, 1.0], (s, 1)),
                    trans=np.zeros((s, 3)), ts=np.linspace(0.0, s - 1.0, n),
                    bearings=np.zeros((m, 2)), index=np.arange(n) % m,
                    q_ref_inv=np.array([0, 0, 0, 1.0]), t_ref=np.zeros(3),
                    intr=(1.0, 1.0, 0.0, 0.0), depths=np.array([1.0, 2.0]),
                    inv_max=1.0, bound=1e3,
                    mount=(np.array([0, 0, 0, 1.0]), np.zeros(3)),
                    q_body=np.tile([0, 0, 0, 1.0], (n, 1)))

    @pytest.mark.parametrize("t, message", [
        (np.nan, r"time nan \(index 2\) is not finite"),
        (np.inf, r"time inf \(index 2\) is not finite"),
        (-np.inf, r"time -inf \(index 2\) is not finite"),
        (2.5, r"time range \[0\.000000, 2\.500000\] outside trajectory span "
              r"\[0\.000000, 2\.000000\]"),
        (-1e-9, r"time range \[-0\.000000, 2\.000000\] outside trajectory span"),
    ])
    def test_guard_rejects_times_outside_the_trajectory(self, monkeypatch, t, message):
        calls = []
        monkeypatch.setattr(_sweep, "_c_lib",
                            types.SimpleNamespace(prepare=lambda *a: calls.append(a) or 0))
        monkeypatch.setattr(_sweep, "_c_error", None)
        args = self._guard_args(6, 4, 3)
        args["ts"][2] = t
        with pytest.raises(OutOfTrajectoryRange, match=message):
            _sweep.prepare_c(**args)
        assert not calls

    def test_times_outside_the_trajectory_raise_as_numpy(self, distorted_cam):
        # the error that numpy's interpolate_batch raises, word for word
        rng = np.random.default_rng(27)
        traj = PoseTrajectory([0.1, 0.6], [random_unit_quat(rng) for _ in range(2)],
                              rng.normal(size=(2, 3)))
        grid = make_grid(distorted_cam)
        for t in ([0.05, 0.3], [0.3, 0.6000001], [0.6, 0.7]):
            stream = self._stream(rng, distorted_cam, np.array(t))
            message = (f"time range [{min(t):.6f}, {max(t):.6f}] outside trajectory "
                       f"span [0.100000, 0.600000]")
            for kernel in (contextlib.nullcontext(), numpy_kernel()):
                with kernel, pytest.raises(OutOfTrajectoryRange) as err:
                    prepare_sweep(grid, stream, distorted_cam, traj=traj)
                assert str(err.value) == message

    def test_prepared_into_given_arrays(self, distorted_cam, kernel):
        # rays prepared into views of larger arrays, as the pipeline joins
        # every camera's: the same bits, and without grazing rays (a camera
        # at the reference pose) the affine rays are those views
        rng = np.random.default_rng(11)
        stream = random_stream(rng, 500, distorted_cam)
        grid = make_grid(distorted_cam, num_planes=12, z_min=0.45, z_max=4.0)
        turned = Se3.from_axis_angle([0, 1, 0], np.deg2rad(70), trans=[-0.3, 0.0, 0.8])
        for pose, grazing in ((Se3.identity(), False), (turned, True)):
            want = prepare_sweep(grid, stream, distorted_cam, pose=pose)
            out = [a[3:-4] for a in _sweep.empty_prep(len(stream) + 7)]
            got = prepare_sweep(grid, stream, distorted_cam, pose=pose, out=out)
            assert_same_bits([*got.affine, *got.graze], [*want.affine, *want.graze])
            assert (len(got.graze[2]) > 0) == grazing
            shared = [np.shares_memory(a, b) for a, b in zip(got.affine, out)]
            assert shared == [not grazing] * 6
            if not grazing:
                assert_same_bits(out, want.affine)

    def test_out_of_bounds_pixel_rejected(self, distorted_cam):
        stream = EventStream("r", np.zeros(2), np.array([3, distorted_cam.width], np.int32),
                             np.zeros(2, np.int32), np.ones(2, np.int8))
        for kernel in (contextlib.nullcontext(), numpy_kernel()):
            with kernel, pytest.raises(ValueError, match="outside"):
                prepare_sweep(make_grid(distorted_cam), stream, distorted_cam,
                              pose=Se3.identity())


class TestBandSweep:
    """A sweep into a band buffer holding planes [p0, p0 + band) of the
    volume, with the plane offset p0, equals the same planes of a sweep
    into the whole volume, in every kernel."""

    @staticmethod
    def _rays(case, cam):
        """(width, height, nz, sweep) where sweep(votes, offset, p0, p1,
        kernel, mode) votes the case's events, clipped to [p0, p1), into
        ``votes`` and returns the hit mask and the votes cast."""
        if case == "random":
            grid, prep = random_rays(cam)
            w, h, inv_zs, zs = grid.width, grid.height, grid.inv_depths, grid.depths
            coeffs, lo, hi = prep[:4], prep.lo, prep.hi
            origins, dirs, intr = prep.origins, prep.dirs, (cam.fx, cam.fy, cam.cx, cam.cy)
        else:
            # the direct kernel meets the same (u, v): from the origin along
            # (u, v, 1), at power-of-two depths z, fx = 1 and cx = 0
            w, h, a_u, a_v = edge_rays()
            n = len(a_u)
            zs = np.array([1.0, 2.0, 4.0])
            inv_zs = 1.0 / zs
            coeffs = (a_u, a_v, np.zeros(n), np.zeros(n))
            lo, hi = np.zeros(n, np.int64), np.full(n, 3, np.int64)
            origins = np.zeros((n, 3))
            dirs = np.stack([a_u, a_v, np.ones(n)], axis=-1)
            intr = (1.0, 1.0, 0.0, 0.0)

        def sweep(votes, offset, p0, p1, kernel, mode):
            lo_b, hi_b = np.clip(lo, p0, p1), np.clip(hi, p0, p1)
            if kernel == "direct":
                return _sweep.sweep_direct(origins, dirs, lo_b, hi_b, zs, intr, votes,
                                           mode == "bilinear", offset=offset)
            with numpy_kernel() if kernel == "numpy" else contextlib.nullcontext():
                return _sweep.run_sweep((*coeffs, lo_b, hi_b), inv_zs, votes, mode,
                                        offset=offset)

        return w, h, len(zs), sweep

    @pytest.mark.parametrize("band", [1, 3, None])
    @pytest.mark.parametrize("case", ["random", "edges"])
    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    @pytest.mark.parametrize("kernel", ["c", "numpy", "direct"])
    def test_bands_equal_whole_volume(self, distorted_cam, kernel, mode, case, band):
        w, h, nz, sweep = self._rays(case, distorted_cam)
        band = band or nz
        whole = np.zeros((nz, h, w))
        want_hit, want_cast = sweep(whole, 0, 0, nz, kernel, mode)
        assert whole.any() and want_hit.any()
        got, hits, casts = np.zeros_like(whole), [], []
        for p0 in range(0, nz, band):
            p1 = min(p0 + band, nz)
            buf = np.full((band, h, w), 0.0)
            hit, cast = sweep(buf[:p1 - p0], p0, p0, p1, kernel, mode)
            hits.append(hit)
            casts.append(cast)
            assert not buf[p1 - p0:].any()
            got[p0:p1] = buf[:p1 - p0]
        assert np.array_equal(got, whole)
        assert np.array_equal(np.logical_or.reduce(hits), want_hit)
        # the bands' counts add up to the whole volume's, in every kernel
        assert sum(casts) == want_cast >= np.count_nonzero(want_hit)
        if mode == "nearest":
            assert want_cast == whole.sum()

    @pytest.mark.parametrize("bad", ["below", "beyond"])
    @pytest.mark.parametrize("kernel", ["c", "numpy", "direct"])
    def test_range_outside_band_stays_inside(self, distorted_cam, kernel, bad):
        # lo and hi are only compared: events whose ranges reach past the
        # band [4, 8) vote as with their ranges clipped to it, and write
        # nothing outside it, here planes 1-4 of a sentinel-filled buffer
        w, h, nz, sweep = self._rays("random", distorted_cam)
        p0, p1 = {"below": (3, 8), "beyond": (4, 9)}[bad]
        for mode in ("nearest", "bilinear"):
            buf = np.full((6, h, w), -1.0)
            buf[1:5] = 0.0
            hit, cast = sweep(buf[1:5], 4, p0, p1, kernel, mode)
            want = np.zeros((4, h, w))
            want_hit, want_cast = sweep(want, 4, 4, 8, kernel, mode)
            assert (buf[[0, 5]] == -1.0).all()
            assert_same_bits([buf[1:5], hit], [want, want_hit])
            assert want.any() and cast == want_cast

    @pytest.mark.parametrize("bad", ["negative_offset", "past_inv_zs"])
    @pytest.mark.parametrize("kernel", ["c", "numpy", "direct"])
    def test_range_outside_band_rejected_before_any_write(self, distorted_cam,
                                                          monkeypatch, kernel, bad):
        w, h, nz, sweep = self._rays("random", distorted_cam)
        calls = []
        lib = types.SimpleNamespace(sweep=lambda *a: calls.append(a))
        monkeypatch.setattr(_sweep, "_load_c", lambda: lib)
        votes = np.zeros((4, h, w))
        offset, p0, p1 = {
            "negative_offset": (-1, 0, 3),
            "past_inv_zs": (nz - 2, nz - 2, nz),  # buffer reaches plane nz + 1
        }[bad]
        with pytest.raises(ValueError):
            sweep(votes, offset, p0, p1, kernel, "bilinear")
        assert calls == []
        assert not votes.any()


class TestMerge:
    """Disjoint event slices voted into one grid in turn add up to a single
    vote over the whole stream."""

    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_random_partitions_equal_sequential(self, distorted_cam, kernel, mode):
        rng = np.random.default_rng(31)
        stream = random_stream(rng, 1200, distorted_cam)
        pose = Se3(np.array([0, 0, 0, 1.0]), np.array([0.15, 0.02, -0.1]))
        seq = make_grid(distorted_cam, num_planes=12, z_min=0.45, z_max=4.0)
        vote_events(seq, stream, distorted_cam, pose=pose, mode=mode)
        cuts = sorted(rng.integers(0, len(stream), 3))
        merged = seq.copy_empty()
        for i0, i1 in zip([0, *cuts], [*cuts, len(stream)]):
            vote_events(merged, stream.slice(i0, i1), distorted_cam, pose=pose,
                        mode=mode)
        assert_same_bits([merged.votes], [seq.votes])
        assert merged.skipped_events == seq.skipped_events


def whole_stack_fusion(op, stack):
    """Frozen copy of the whole-stack fusion formulas (np.where masks, fresh
    temporaries): the oracle that FusionOp.apply_into must match exactly."""
    n = stack.shape[0]
    if op.kind == "min":
        return np.min(stack, axis=0)
    if op.kind == "max":
        return np.max(stack, axis=0)
    if op.kind == "arithmetic":
        return np.mean(stack, axis=0)
    if op.kind == "rms":
        return np.sqrt(np.mean(np.square(stack), axis=0))
    all_pos = np.all(stack > 0.0, axis=0)
    if op.kind == "harmonic":
        with np.errstate(divide="ignore"):
            inv_sum = np.sum(1.0 / np.where(stack > 0.0, stack, 1.0), axis=0)
        return np.where(all_pos, n / inv_sum, 0.0)
    if op.kind == "geometric":
        logs = np.sum(np.log(np.where(stack > 0.0, stack, 1.0)), axis=0)
        return np.where(all_pos, np.exp(logs / n), 0.0)
    p = float(op.p)
    if abs(p) < 1e-4:
        return whole_stack_fusion(GEOMETRIC, stack)
    if p > 0.0:
        return np.power(np.mean(np.power(stack, p), axis=0), 1.0 / p)
    powered = np.mean(np.power(np.where(stack > 0.0, stack, 1.0), p), axis=0)
    return np.where(all_pos, np.power(powered, 1.0 / p), 0.0)


class TestFusionOp:
    def test_known_pair_values(self, pinhole_cam):
        a = make_grid(pinhole_cam, num_planes=2)
        b = a.copy_empty()
        a.votes[:] = 2.0
        b.votes[:] = 8.0
        expected = {
            MIN: 2.0, HARMONIC: 3.2, GEOMETRIC: 4.0, ARITHMETIC: 5.0,
            RMS: np.sqrt(34.0), MAX: 8.0,
        }
        values = {}
        for op, want in expected.items():
            got = float(fuse([a, b], op).votes[0, 0, 0])
            assert got == pytest.approx(want, rel=1e-12)
            values[op.kind] = got
        chain = [values[k] for k in ["min", "harmonic", "geometric",
                                     "arithmetic", "rms", "max"]]
        assert all(x <= y + 1e-12 for x, y in zip(chain, chain[1:]))

    def test_and_logic_zero_handling(self, pinhole_cam):
        a = make_grid(pinhole_cam, num_planes=2)
        b = a.copy_empty()
        a.votes[:] = 0.0
        b.votes[:] = 100.0
        assert fuse([a, b], HARMONIC).votes[0, 0, 0] == 0.0
        assert fuse([a, b], GEOMETRIC).votes[0, 0, 0] == 0.0
        assert fuse([a, b], MIN).votes[0, 0, 0] == 0.0
        assert fuse([a, b], ARITHMETIC).votes[0, 0, 0] == 50.0

    def test_idempotence_on_identical_grids(self, pinhole_cam):
        rng = np.random.default_rng(40)
        g = make_grid(pinhole_cam, num_planes=3)
        g.votes[:] = rng.uniform(0.5, 10.0, g.votes.shape)
        for op in [MIN, HARMONIC, GEOMETRIC, ARITHMETIC, RMS, MAX]:
            fused = fuse([g, g.copy()], op)
            assert np.allclose(fused.votes, g.votes, rtol=1e-12)

    def test_symmetry_exact(self, pinhole_cam):
        rng = np.random.default_rng(41)
        a = make_grid(pinhole_cam, num_planes=3)
        b = a.copy_empty()
        a.votes[:] = rng.uniform(0.0, 5.0, a.votes.shape)
        b.votes[:] = rng.uniform(0.0, 5.0, b.votes.shape)
        for op in [MIN, HARMONIC, GEOMETRIC, ARITHMETIC, RMS, MAX]:
            assert np.array_equal(fuse([a, b], op).votes, fuse([b, a], op).votes)

    def test_monotone_in_each_input(self, pinhole_cam):
        a = make_grid(pinhole_cam, num_planes=2)
        b = a.copy_empty()
        a.votes[:] = 3.0
        b.votes[:] = 5.0
        for op in [MIN, HARMONIC, GEOMETRIC, ARITHMETIC, RMS, MAX]:
            base = fuse([a, b], op).votes.copy()
            bumped = a.copy()
            bumped.votes[0, 0, 0] += 1.0
            after = fuse([bumped, b], op).votes
            assert np.all(after >= base - 1e-15)

    @given(st.lists(positive, min_size=2, max_size=2), st.floats(-4, 4))
    @settings(max_examples=200, deadline=None)
    def test_power_mean_interpolates_named_means(self, pair, p):
        stack = np.array(pair).reshape(2, 1)
        got = FusionOp("power", p).apply(stack)[0]
        if abs(p) < 1e-4:  # implementation routes tiny p to the p->0 limit
            ref = GEOMETRIC.apply(stack)[0]
        else:
            ref = np.power(np.mean(np.power(stack, p)), 1.0 / p)
        assert got == pytest.approx(ref, rel=1e-12)
        # pow() over extreme value/exponent ranges is less accurate than the
        # named ops, so betweenness gets a practical bound; the 1e-12 chain
        # guarantee is asserted for the named ops elsewhere
        lo, hi = MIN.apply(stack)[0], MAX.apply(stack)[0]
        assert lo * (1 - 1e-9) <= got <= hi * (1 + 1e-9)

    @given(st.lists(positive, min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_ordering_chain_on_positive_triples(self, vals):
        stack = np.array(vals).reshape(3, 1)
        chain = [op.apply(stack)[0]
                 for op in (MIN, HARMONIC, GEOMETRIC, ARITHMETIC, RMS, MAX)]
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi * (1 + 1e-12) + 1e-300

    def test_generalized_mean_matches_named_ops(self):
        rng = np.random.default_rng(50)
        stack = rng.uniform(0.1, 20.0, (3, 1000))
        for p, op in [(-1.0, HARMONIC), (1.0, ARITHMETIC), (2.0, RMS)]:
            a = FusionOp("power", p).apply(stack)
            b = op.apply(stack)
            assert np.max(np.abs(a - b) / b) < 1e-12

    def test_fuse_matches_whole_stack_apply_exactly(self, pinhole_cam):
        # fuse() works one plane at a time in a reused buffer, and apply() and
        # the band loop's apply_into on an (n, 4, H, W) band share that code;
        # all must equal the whole-stack formulas bit for bit (compared as
        # uint64, so the sign of a zero counts), zeros (AND logic) included
        rng = np.random.default_rng(51)
        shape = (4, 4, pinhole_cam.height, pinhole_cam.width)
        stack = np.where(rng.random(shape) < 0.5,
                         10.0 ** rng.uniform(-3.0, 3.0, shape),  # 1e-3 to 1e3
                         rng.integers(1, 6, shape).astype(float))
        stack[rng.random(shape) < 0.3] = 0.0
        width = np.arange(pinhole_cam.width)
        stack[:, 0, 0] = 0.0  # every input 0
        stack[:, 0, 1] = rng.uniform(1e-3, 1e3, (4, pinhole_cam.width))
        stack[:, 0, 2] = stack[:, 0, 1]  # every input positive ...
        stack[width % 4, 0, 2, width] = 0.0  # ... but exactly one
        grids = [make_grid(pinhole_cam, num_planes=4) for _ in range(4)]
        for g, votes in zip(grids, stack):
            g.votes[:] = votes
        ops = [MIN, HARMONIC, GEOMETRIC, ARITHMETIC, RMS, MAX,
               FusionOp("power", -7.0), FusionOp("power", -2.0),
               FusionOp("power", -1.5), FusionOp("power", -0.5),
               FusionOp("power", 0.5), FusionOp("power", 3.0),
               FusionOp("power", 1e-5)]

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)
        for op in ops:
            for n in (2, 3, 4):
                want = bits(whole_stack_fusion(op, stack[:n]))
                assert np.array_equal(bits(fuse(grids[:n], op).votes), want), op
                assert np.array_equal(bits(op.apply(stack[:n])), want), op
                volume = np.full((6,) + shape[2:], np.nan)
                band = stack[:n].copy()
                assert op.apply_into(band, volume[1:5]).base is volume
                assert np.array_equal(bits(volume[1:5]), want), (op, n)
                assert np.isnan(volume[[0, 5]]).all()

    def test_fuse_peak_memory_one_volume_and_few_planes(self, pinhole_cam):
        # the output volume plus an (n, H, W) buffer;
        # no stacked inputs and no volume- or plane-sized temporaries per op
        rng = np.random.default_rng(52)
        grids = [make_grid(pinhole_cam, num_planes=100, z_min=0.45) for _ in range(2)]
        for g in grids:
            g.votes[:] = rng.poisson(0.5, g.votes.shape)
        plane = grids[0].votes[0].nbytes
        for op in (HARMONIC, GEOMETRIC, FusionOp("power", -1.5), RMS):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fused = fuse(grids, op)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= fused.votes.nbytes + 4 * plane, (op, peak / plane)

    def test_from_string(self):
        assert FusionOp.from_string("harmonic") == HARMONIC
        assert FusionOp.from_string("power:0.5") == FusionOp("power", 0.5)
        with pytest.raises(ValueError):
            FusionOp.from_string("median")
        for spec in ("power:nan", "power:inf", "power:-inf", "power:abc"):
            with pytest.raises(ValueError, match=f"fusion '{spec}'"):
                FusionOp.from_string(spec)

    def test_fuse_checks_alignment(self, pinhole_cam):
        a = make_grid(pinhole_cam, num_planes=4)
        b = make_grid(pinhole_cam, num_planes=4, z_min=0.9)
        with pytest.raises(MisalignedDsi):
            fuse([a, b], HARMONIC)

    def test_votes_bounded_by_events_times_planes(self, distorted_cam):
        rng = np.random.default_rng(60)
        grid = make_grid(distorted_cam, num_planes=10, z_min=0.45, z_max=4.0)
        stream = random_stream(rng, 500, distorted_cam)
        vote_events(grid, stream, distorted_cam,
                    pose=Se3(np.array([0, 0, 0, 1.0]), np.array([0.1, 0, 0])),
                    mode="nearest")
        voted = len(stream) - grid.skipped_events
        assert grid.total_votes() <= voted * grid.num_planes


def random_band(rng, shape):
    """Votes of a (cameras, planes, height, width) band: zeros (the AND
    logic), small integer counts (ties) and fractions over six decades."""
    stack = np.where(rng.random(shape) < 0.5,
                     10.0 ** rng.uniform(-3.0, 3.0, shape),
                     rng.integers(1, 6, shape).astype(float))
    stack[rng.random(shape) < 0.4] = 0.0
    return stack


def random_peak(rng, height, width, p0):
    """A running maximum partway through a volume: some pixels still at 0
    and plane 0, others with a vote and an earlier plane."""
    confidence, best = empty_peak(height, width)
    seen = rng.random((height, width)) < 0.7
    confidence[seen] = rng.integers(0, 6, seen.sum()).astype(float)
    best[seen] = rng.integers(0, max(p0, 1), seen.sum())
    return confidence, best


def sparse_band(rng, shape):
    """``random_band`` votes of which whole row segments of each camera are
    empty, as in a short window: 30-95% of them."""
    stack = random_band(rng, shape)
    segs = _sweep.mark_shape(*shape[1:])[2]
    empty = rng.random(shape[:3] + (segs,)) < rng.choice([0.3, 0.7, 0.95])
    stack[np.repeat(empty, _sweep.SEGMENT, axis=-1)[..., :shape[3]]] = 0.0
    return stack


class TestFuseBand:
    """The C fuse_band against its numpy form, the oracle: the fused band
    and the running peak and the votes beside it, compared as uint64
    bits."""

    @staticmethod
    def run_both(op, stack, p0, peak):
        """fuse_band on copies of ``stack`` and ``peak`` with a NaN-filled
        ``around``, compiled and with numpy; returns each side's (stack,
        out, peak, around)."""
        sides = []
        for ctx in (contextlib.nullcontext(), numpy_kernel()):
            band = stack.copy()
            out = np.full(stack.shape[1:], np.nan)
            state = tuple(a.copy() for a in peak)
            around = np.full((2,) + stack.shape[2:], np.nan)
            with ctx:
                assert fuse_band(op, band, out, p0, state, around) is None
            sides.append((band, out, state, around))
        return sides

    def assert_same(self, op, stack, p0, peak):
        (c_band, c_out, c_peak, c_around), (n_band, n_out, n_peak, n_around) = \
            self.run_both(op, stack, p0, peak)
        assert_same_bits([c_out, c_peak[0], c_around],
                         [n_out, n_peak[0], n_around])
        assert np.array_equal(c_peak[1], n_peak[1])
        assert not c_band.any() and not n_band.any()
        return c_out, c_peak

    @pytest.mark.parametrize("kind", _sweep.FUSE_KINDS)
    def test_every_length_up_to_300(self, kind):
        # bands of 1-300 voxels: one short block of 1-128 voxels, a full
        # one and a short one, or more; three planes put plane ends inside
        # blocks
        rng = np.random.default_rng(70)
        op = FusionOp(kind)
        for planes, widths in ((1, range(1, 301)), (3, range(1, 101))):
            for width in widths:
                for n in (1, 2, 3):
                    stack = random_band(rng, (n, planes, 1, width))
                    self.assert_same(op, stack, 5, random_peak(rng, 1, width, 5))

    @pytest.mark.parametrize("kind", _sweep.FUSE_KINDS)
    @pytest.mark.parametrize("planes", [1, 4])
    def test_full_size_plane_and_band(self, kind, planes):
        rng = np.random.default_rng(71)
        for n in (2, 3):
            stack = random_band(rng, (n, planes, 180, 240))
            stack[:, :, 0] = stack[:, :1, 0]  # ties across planes
            out, (confidence, best) = self.assert_same(
                FusionOp(kind), stack, 8, empty_peak(180, 240))
            # from an empty peak: np.argmax's first maximum where a fused
            # vote is positive; an all-zero column keeps the empty peak's 0
            voted = out.max(axis=0) > 0.0
            assert not voted.all() and voted.any()
            assert np.array_equal(best, np.where(voted, 8 + np.argmax(out, axis=0),
                                                 0))
            assert np.array_equal(confidence, out.max(axis=0))

    @pytest.mark.parametrize("kind", _sweep.FUSE_KINDS)
    def test_short_last_band_of_the_buffer(self, kind):
        # 13 planes in bands of 4 end with buf[:, :1]: each camera's plane
        # is contiguous, but the cameras lie a whole band buffer apart
        rng = np.random.default_rng(72)
        buf = np.full((3, 4, 18, 24), 7.0)
        stack = buf[:, :1]
        assert not stack.flags.c_contiguous
        stack[:] = random_band(rng, stack.shape)
        c_peak = random_peak(rng, 18, 24, 12)
        n_peak = tuple(a.copy() for a in c_peak)
        c_out, n_out = np.full((2, 1, 18, 24), np.nan)
        c_around, n_around = np.full((2, 2, 18, 24), np.nan)
        with numpy_kernel():
            fuse_band(FusionOp(kind), stack.copy(), n_out, 12, n_peak, n_around)
        _sweep.fuse_band_c(kind, stack, c_out, 12, *c_peak, None, c_around)
        assert_same_bits([c_out, c_peak[0], c_around],
                         [n_out, n_peak[0], n_around])
        assert np.array_equal(c_peak[1], n_peak[1])
        assert not stack.any() and (buf[:, 1:] == 7.0).all()

    @pytest.mark.parametrize("kind", _sweep.FUSE_KINDS)
    @pytest.mark.parametrize("p0,p1", [(0, 13), (8, 13), (4, 8), (0, 1)])
    def test_tracked_neighbors_match_numpy_and_the_volume(self, kind, p0, p1):
        # one worker's run of bands of 4 over planes [p0, p1) from an empty
        # peak, the outputs in two alternating buffers: below and above,
        # bit for bit between C and numpy, are the run's fused votes at
        # every voted pixel's best plane -1 and +1 where the run holds them
        rng = np.random.default_rng(74)
        op = FusionOp(kind)
        height, width = 18, 24
        stacks = [random_band(rng, (2, min(4, p1 - b), height, width))
                  for b in range(p0, p1, 4)]
        for k in range(0, len(stacks), 2):  # a sparse band now and then
            stacks[k][:, :, rng.random((height, width)) < 0.9] = 0.0
        sides = []
        for ctx in (contextlib.nullcontext(), numpy_kernel()):
            peak = empty_peak(height, width)
            around = np.full((2, height, width), np.nan)
            outs, volume, prev = np.empty((2, 4, height, width)), [], None
            with ctx:
                for k, stack in enumerate(stacks):
                    out = outs[k % 2, :stack.shape[1]]
                    fuse_band(op, stack.copy(), out, p0 + 4 * k, peak, around, prev)
                    volume.append(out.copy())
                    prev = out[-1]
            sides.append((peak, *around, np.concatenate(volume)))
        (c_peak, *c_maps), (n_peak, *n_maps) = sides
        assert_same_bits([c_peak[0], *c_maps], [n_peak[0], *n_maps])
        assert np.array_equal(c_peak[1], n_peak[1])
        confidence, best = c_peak
        below, above, volume = c_maps
        iy, ix = np.nonzero(confidence > 0.0)
        assert iy.size
        i = best[iy, ix] - p0  # index into the run's volume
        assert_same_bits([confidence[iy, ix]], [volume[i, iy, ix]])
        has = i > 0
        assert_same_bits([below[iy[has], ix[has]]],
                         [volume[i[has] - 1, iy[has], ix[has]]])
        has = i + 1 < p1 - p0
        assert_same_bits([above[iy[has], ix[has]]],
                         [volume[i[has] + 1, iy[has], ix[has]]])
        # without a previous band, a best at the run's first plane has no
        # below; the merge fills it in, as it does above at the last plane
        assert np.isnan(below[iy[i == 0], ix[i == 0]]).all()
        if p1 - p0 > 4:  # a best at a band's last plane, resolved by the next
            assert np.any(i % 4 == 3) and np.any((i % 4 == 0) & (i > 0))

    @given(kind=st.sampled_from(_sweep.FUSE_KINDS), cameras=st.integers(1, 3),
           bands=st.lists(st.tuples(st.integers(1, 4),
                                    st.sampled_from([0.0, 0.5, 0.95, 1.0]),
                                    st.booleans()), min_size=1, max_size=5),
           height=st.integers(1, 4), width=st.integers(1, 9),
           p0=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_tracking_matches_numpy_over_random_runs(self, kind, cameras, bands,
                                                     height, width, p0, seed):
        # a run of bands of 1-4 planes (planes, share of votes zeroed, first
        # plane a copy of the band before's last: a tie at the seam) from
        # any p0, on odd widths too (the SSE2 fold's tail): the C pass keeps
        # the peak and the votes beside it bit for bit as numpy does
        rng = np.random.default_rng(seed)
        stacks = []
        for planes, sparse, tie in bands:
            stack = random_band(rng, (cameras, planes, height, width))
            stack[rng.random(stack.shape) < sparse] = 0.0
            if tie and stacks:
                stack[:, 0] = stacks[-1][:, -1]
            stacks.append(stack)
        sides = []
        for ctx in (contextlib.nullcontext(), numpy_kernel()):
            peak = empty_peak(height, width)
            around = np.full((2, height, width), np.nan)
            prev, start = None, p0
            with ctx:
                for stack in stacks:
                    out = np.empty(stack.shape[1:])
                    fuse_band(FusionOp(kind), stack.copy(), out, start, peak,
                              around, prev)
                    prev, start = out[-1], start + len(out)
            sides.append([*peak, around])
        assert_same_bits(*sides)

    @pytest.mark.parametrize("kind", _sweep.FUSE_KINDS)
    def test_marked_segments_match_the_dense_pass_and_numpy(self, kind):
        # sparse bands of widths 1-40 (one to three segments per row, the
        # last one short), 1-3 cameras, a whole band buffer or its short last
        # band, with and without prev and a written mask, every combination
        # of the three at each camera count: on the marked segments the C
        # pass gives the dense C pass's and numpy's out, peak and around bit
        # for bit, zeroes the band, clears its marks and leaves written
        # marking the fused segments
        rng = np.random.default_rng(75)
        flags = list(itertools.product((False, True), repeat=3))
        for width in range(1, 41):
            for n in (1, 2, 3):
                self.check_marked(rng, FusionOp(kind), n, width,
                                  *flags[(width + n) % len(flags)])

    def check_marked(self, rng, op, n, width, short, with_prev, with_written):
        height = int(rng.integers(1, 5))
        planes = int(rng.integers(1, 4)) if short else 4
        buf = np.full((n, 4, height, width), 7.0)  # a worker's band buffer
        stack = buf[:, :planes]
        stack[:] = sparse_band(rng, stack.shape)
        segs = _sweep.mark_shape(4, height, width)
        mark_buf = np.full((n,) + segs, 9, np.uint8)
        marks = mark_buf[:, :planes]
        # every segment holding a vote, and some that do not
        marks[:] = segment_marks(stack) | (rng.random(marks.shape) < 0.1)
        before, votes = marks.astype(bool), stack.copy()
        every = op.kind in ("min", "harmonic")
        fused = before.all(axis=0) if every else before.any(axis=0)
        p0 = int(rng.integers(0, 20))
        peak = random_peak(rng, height, width, p0)
        prev = rng.integers(0, 4, (height, width)) * 0.5 if with_prev else None
        written_buf = out_c = None
        if with_written:
            # segments of a reused output that may hold a value, and do
            written_buf = (rng.random(segs) < 0.5).astype(np.uint8)
            out_c = rng.uniform(1.0, 2.0, (planes, height, width))
            out_c[~np.repeat(written_buf[:planes].astype(bool), _sweep.SEGMENT,
                             axis=-1)[..., :width]] = 0.0
        else:
            out_c = np.full((planes, height, width), np.nan)
        sides = []
        for ctx, marked in ((contextlib.nullcontext(), True),
                            (contextlib.nullcontext(), False),
                            (numpy_kernel(), True)):  # numpy ignores marks
            band = votes.copy() if sides else stack
            out = out_c if not sides else np.full(out_c.shape, np.nan)
            state = tuple(a.copy() for a in peak)
            around = np.full((2, height, width), np.nan)
            written = None
            if marked and with_written:
                written = written_buf[:planes] if not sides else written_buf.copy()
            with ctx:
                fuse_band(op, band, out, p0, state, around, prev,
                          (marks if not sides else before.astype(np.uint8))
                          if marked else None, written)
            assert not band.any()
            sides.append((out, state, around))
        (c_out, c_peak, c_around), *others = sides
        for out, peak_, around in others:
            assert_same_bits([c_out, c_peak[0], c_around],
                             [out, peak_[0], around])
            assert np.array_equal(c_peak[1], peak_[1])
        # the short band's buffer beyond it is untouched
        assert (buf[:, planes:] == 7.0).all() and (mark_buf[:, planes:] == 9).all()
        assert not marks.any()
        if with_written:
            assert np.array_equal(written_buf[:planes], fused)

    @pytest.mark.parametrize("bad", ["marks_dtype", "marks_shape", "marks_order",
                                     "marks_overlap", "marks_readonly",
                                     "written_shape", "written_dtype",
                                     "written_without_marks"])
    def test_rejects_marks_it_cannot_index(self, bad):
        stack = np.zeros((2, 3, 4, 20))
        out = np.zeros((3, 4, 20))
        segs = _sweep.mark_shape(3, 4, 20)
        marks = np.zeros((2,) + segs, np.uint8)
        written = np.zeros(segs, np.uint8)
        confidence, best = empty_peak(4, 20)
        around = np.zeros((2, 4, 20))
        _sweep.fuse_band_c("min", stack, out, 0, confidence, best, None, around,
                           marks, written)
        if bad == "marks_dtype":
            marks = marks.astype(bool)
        elif bad == "marks_shape":
            marks = np.zeros((2, 3, 4, 1), np.uint8)  # one segment short
        elif bad == "marks_order":
            marks = np.zeros((2, 3, 2, 4), np.uint8).transpose(0, 1, 3, 2)
        elif bad == "marks_overlap":
            marks = np.lib.stride_tricks.as_strided(
                marks, marks.shape, (1,) + marks.strides[1:])
        elif bad == "marks_readonly":
            marks.flags.writeable = False
        elif bad == "written_shape":
            written = np.zeros((3, 4, 1), np.uint8)
        elif bad == "written_dtype":
            written = written.astype(np.int64)
        else:
            marks = None
        with pytest.raises(ValueError, match="marks|written"):
            _sweep.fuse_band_c("min", stack, out, 0, confidence, best, None,
                               around, marks, written)

    @pytest.mark.parametrize("op", [GEOMETRIC, FusionOp("power", -2.0),
                                    FusionOp("power", 0.5), *map(
                                        FusionOp, _sweep.FUSE_KINDS)],
                             ids=str)
    def test_only_the_compiled_kinds_leave_numpy(self, op, monkeypatch):
        # numpy's SIMD log, exp and pow are not libm's bit for bit, so the
        # geometric and power means keep numpy's fusion with C loaded
        calls = []
        real_apply, real_c = FusionOp.apply_into, _sweep.fuse_band_c
        monkeypatch.setattr(FusionOp, "apply_into", lambda *a: calls.append(
            "numpy") or real_apply(*a))
        monkeypatch.setattr(_sweep, "fuse_band_c", lambda *a: calls.append(
            "c") or real_c(*a))
        assert _sweep.kernel_name() == "c"
        stack = random_band(np.random.default_rng(73), (2, 2, 6, 8))
        fuse_band(op, stack, np.empty((2, 6, 8)), 0, empty_peak(6, 8),
                  np.empty((2, 6, 8)))
        assert calls == ["c" if op.kind in _sweep.FUSE_KINDS else "numpy"]

    @pytest.mark.parametrize("bad", ["kind", "dtype", "plane_stride",
                                     "overlap", "out_shape", "out_order",
                                     "peak_dtype", "peak_shape", "empty",
                                     "around_missing", "around_shape",
                                     "around_order", "prev_order"])
    def test_rejects_what_it_cannot_index(self, bad):
        stack = np.zeros((2, 3, 4, 5))
        out = np.zeros((3, 4, 5))
        confidence, best = empty_peak(4, 5)
        track = [np.zeros((4, 5)), np.zeros((2, 4, 5))]  # prev, around: valid
        _sweep.fuse_band_c("harmonic", stack.copy(), out.copy(), 0,
                           confidence.copy(), best.copy(), *track)
        kind = "harmonic"
        if bad == "kind":
            kind = "geometric"
        elif bad == "dtype":
            stack = stack.astype(np.float32)
        elif bad == "plane_stride":
            stack = np.zeros((2, 3, 4, 10))[..., ::2]
        elif bad == "overlap":
            stack = np.lib.stride_tricks.as_strided(
                stack, stack.shape, (8,) + stack.strides[1:])
        elif bad == "out_shape":
            out = np.zeros((2, 4, 5))
        elif bad == "out_order":
            out = np.zeros((3, 4, 5), order="F")
        elif bad == "peak_dtype":
            best = best.astype(np.int32)
        elif bad == "peak_shape":
            confidence = np.full((5, 4), -np.inf)
        elif bad == "empty":
            stack, out = np.zeros((2, 0, 4, 5)), np.zeros((0, 4, 5))
        elif bad == "around_missing":
            track[1] = None
        elif bad == "around_shape":
            track[1] = np.zeros((2, 5, 4))
        elif bad == "around_order":
            track[1] = np.zeros((2, 4, 5), order="F")
        elif bad == "prev_order":
            track[0] = np.zeros((4, 5), order="F")[:, ::-1]
        with pytest.raises(ValueError):
            _sweep.fuse_band_c(kind, stack, out, 0, confidence, best, *track)



def run_inputs(kind="harmonic", sparse=True, volume=False, dump=False,
               starts=(0, 300, 500)):
    """Valid arguments of a run_sweep call with bands over the 7 planes
    [2, 9) of 11 in bands of 3 (3, 3 and a short 1): random rays, camera
    c's from ``starts[c]``. Returns (prep, inv_zs, stack, marks, Bands)."""
    rng = np.random.default_rng(3)
    n, band, planes, nz, h, w = len(starts) - 1, 3, 7, 11, 5, 37
    count = starts[-1]
    lo = rng.integers(0, nz, count)
    prep = (rng.uniform(-2.0, w + 2.0, count), rng.uniform(-2.0, h + 2.0, count),
            rng.normal(size=count), rng.normal(size=count), lo,
            lo + rng.integers(0, nz, count))
    inv_zs = np.linspace(2.0, 0.25, nz)
    stack = np.zeros((n, band, h, w))
    marks = np.zeros((n,) + _sweep.mark_shape(band, h, w), np.uint8) if sparse \
        else None
    bands = _sweep.Bands(
        np.array(starts), planes, kind, *empty_peak(h, w),
        np.full((2, h, w), np.nan),
        volume=np.full((planes, h, w), np.nan) if volume else None,
        outs=None if volume else np.full((2, band, h, w), np.nan),
        written=(np.ones((2,) + _sweep.mark_shape(band, h, w), np.uint8)
                 if sparse and not volume else None),
        first=np.full((h, w), np.nan),
        cameras=np.full((n, nz, h, w), np.nan)[:, 2:9] if dump else None)
    return prep, inv_zs, stack, marks, bands


def run_one_by_one(prep, inv_zs, stack, mode, offset, marks, bands):
    """The oracle of a run_sweep call with bands: the same sweeps and
    fuse_band_c calls, made one by one from Python; returns the hit mask
    and each camera's votes cast."""
    n, band = stack.shape[:2]
    hit, casts = np.zeros(bands.starts[-1], bool), [0] * n
    prev = None
    for q in range(offset, offset + bands.planes, band):
        m = min(band, offset + bands.planes - q)
        for c in range(n):
            s, e = bands.starts[c:c + 2]
            voted, cast = _sweep._sweep_c(
                *(a[s:e] for a in prep), inv_zs, stack[c, :m], mode == "bilinear",
                offset=q, marks=None if marks is None else marks[c, :m])
            hit[s:e] |= voted
            casts[c] += cast
        if bands.cameras is not None:
            bands.cameras[:, q - offset:q - offset + m] = stack[:, :m]
        turn = q // band % 2
        out = (bands.volume[q - offset:q - offset + m] if bands.volume is not None
               else bands.outs[turn, :m])
        _sweep.fuse_band_c(
            bands.kind, stack[:, :m], out, q, bands.confidence, bands.best, prev,
            bands.around, None if marks is None else marks[:, :m],
            None if bands.written is None else bands.written[turn, :m])
        if q == offset:
            bands.first[...] = out[0]
        prev = out[-1]
    return hit, casts


class TestRunBands:
    """run_sweep with bands: a worker's run of band steps in one C call,
    the same bit for bit as its sweeps and fuse_band_c calls made one by
    one, and every argument checked before the call."""

    @pytest.mark.parametrize("kind", _sweep.FUSE_KINDS)
    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    @pytest.mark.parametrize("case", ["sparse", "dense", "volume", "dump"])
    @pytest.mark.parametrize("starts", [(0, 300, 500), (0, 500),
                                        (0, 200, 200, 500)])
    def test_matches_the_calls_one_by_one(self, kind, mode, case, starts):
        # 1-3 cameras, the third of them without events
        sides = []
        for run in (_sweep.run_sweep, run_one_by_one):
            prep, inv_zs, stack, marks, bands = run_inputs(
                kind, sparse=case == "sparse", volume=case in ("volume", "dump"),
                dump=case == "dump", starts=starts)
            hit, casts = run(prep, inv_zs, stack, mode, 2, marks, bands)
            sides.append(([np.array(casts), stack, *bands[3:6],
                           *(a for a in bands[6:] if a is not None
                             and a.dtype != np.uint8)],
                          [hit] + [a for a in (marks, bands.written)
                                   if a is not None]))
        (got, got_masks), (want, want_masks) = sides
        assert_same_bits(got, want)
        # hits, marks and written masks
        assert all(np.array_equal(g, w) for g, w in zip(got_masks, want_masks))
        casts, stack, confidence = got[:3]
        assert list(casts > 0) == list(np.diff(starts) > 0)
        assert 0 < np.count_nonzero(got_masks[0]) < starts[-1]
        assert not stack.any()
        if len(starts) < 4 or kind in ("max", "arithmetic", "rms"):
            assert confidence.any()  # the peak moved

    def test_returns_a_list_of_ints(self):
        prep, inv_zs, stack, marks, bands = run_inputs()
        hit, casts = _sweep.run_sweep(prep, inv_zs, stack, "bilinear", 2, marks,
                                      bands)
        assert hit.dtype == np.bool_ and [type(c) for c in casts] == [int] * 2

    @pytest.mark.parametrize("bad", [
        "mode", "kind", "coeff_length", "coeff_2d", "stack_dtype", "stack_order",
        "stack_overlap", "starts_count", "starts_first", "starts_descending",
        "starts_end", "offset_negative", "planes_beyond", "planes_zero",
        "peak_dtype", "around_shape", "first_shape", "marks_shape",
        "marks_overlap", "volume_and_outs", "neither_output", "volume_shape",
        "outs_shape", "written_without_marks", "written_shape",
        "cameras_shape", "cameras_overlap", "cameras_order"])
    def test_rejects_before_any_c_call(self, bad, monkeypatch):
        calls = []
        monkeypatch.setattr(_sweep, "_c_lib", types.SimpleNamespace(
            run_bands=lambda *a: calls.append(a)))
        prep, inv_zs, stack, marks, bands = run_inputs(dump=True)
        _sweep.run_sweep(prep, inv_zs, stack, "nearest", 2, marks, bands)
        assert len(calls) == 1  # valid arguments reach C
        prep, inv_zs, stack, marks, bands = run_inputs(dump=True)
        mode, offset, prep = "nearest", 2, list(prep)
        n, band, h, w = stack.shape
        change = {}
        if bad == "mode":
            mode = "bilnear"
        elif bad == "kind":
            change["kind"] = "geometric"
        elif bad == "coeff_length":
            prep[3] = prep[3][:-1]
        elif bad == "coeff_2d":
            prep[0] = prep[0].reshape(20, 25)
        elif bad == "stack_dtype":
            stack = stack.astype(np.float32)
        elif bad == "stack_order":
            stack = np.zeros((n, band, w, h)).transpose(0, 1, 3, 2)
        elif bad == "stack_overlap":
            stack = np.lib.stride_tricks.as_strided(
                stack, stack.shape, (8 * h * w,) + stack.strides[1:])
        elif bad == "starts_count":
            change["starts"] = np.array([0, 300, 400, 500])  # 3 cameras
        elif bad == "starts_first":
            change["starts"] = np.array([1, 300, 500])
        elif bad == "starts_descending":
            change["starts"] = np.array([0, 501, 500])
        elif bad == "starts_end":
            change["starts"] = np.array([0, 300, 499])
        elif bad == "offset_negative":
            offset = -1
        elif bad == "planes_beyond":
            offset = 5  # planes [5, 12) of 11
        elif bad == "planes_zero":
            change["planes"] = 0
        elif bad == "peak_dtype":
            change["best"] = bands.best.astype(np.int32)
        elif bad == "around_shape":
            change["around"] = bands.around[:1]
        elif bad == "first_shape":
            change["first"] = bands.first[1:]
        elif bad == "marks_shape":
            marks = marks[:, :2]
        elif bad == "marks_overlap":
            marks = np.lib.stride_tricks.as_strided(
                marks, marks.shape, (1,) + marks.strides[1:])
        elif bad == "volume_and_outs":
            change["volume"] = np.zeros((bands.planes, h, w))
        elif bad == "neither_output":
            change["outs"] = None
        elif bad == "volume_shape":
            change.update(outs=None, written=None,
                          volume=np.zeros((bands.planes - 1, h, w)))
        elif bad == "outs_shape":
            change["outs"] = bands.outs[:, :2]
        elif bad == "written_without_marks":
            marks = None
        elif bad == "written_shape":
            change["written"] = bands.written[:1]
        elif bad == "cameras_shape":
            change["cameras"] = bands.cameras[:, 1:]
        elif bad == "cameras_overlap":
            change["cameras"] = np.lib.stride_tricks.as_strided(
                bands.cameras, bands.cameras.shape,
                (8 * h * w,) + bands.cameras.strides[1:])
        elif bad == "cameras_order":
            change["cameras"] = bands.cameras[..., ::-1]
        with pytest.raises(ValueError):
            _sweep.run_sweep(prep, inv_zs, stack, mode, offset, marks,
                             bands._replace(**change))
        assert len(calls) == 1
