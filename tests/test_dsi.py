import os
import subprocess
import sys
import tracemalloc

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
    fuse,
    plane_depths,
    vote_event,
    vote_event_bruteforce,
    vote_events,
)
from raysweep.dsi import _prepare_rays
from raysweep.errors import InvalidDepthRange, MisalignedDsi
from raysweep.events import Event, EventStream
from raysweep.geometry import CameraModel, PoseTrajectory, Se3

from conftest import random_unit_quat

KERNELS = ["c", "numpy"]

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
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_examples_match_bruteforce(self, pinhole_cam, mode, kernel):
        grid = make_grid(pinhole_cam, num_planes=6)
        ref_ev = Event(0.0, 120, 90)
        for pose in [Se3.identity(),
                     Se3(np.array([0, 0, 0, 1.0]), np.array([0.1184, 0, 0])),
                     Se3.from_axis_angle([1, 0, 0], np.pi / 2)]:
            fast = grid.copy_empty()
            brute = grid.copy_empty()
            vote_event(fast, ref_ev, pinhole_cam, pose, mode=mode, kernel=kernel)
            vote_event_bruteforce(brute, ref_ev, pinhole_cam, pose, mode=mode)
            if mode == "nearest":
                assert np.array_equal(fast.votes, brute.votes)
            else:
                assert np.max(np.abs(fast.votes - brute.votes)) < 1e-12
            assert fast.skipped_events == brute.skipped_events

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_randomized_differential_nearest(self, distorted_cam, kernel):
        # cameras both outside and inside the depth range (lam sign flips)
        rng = np.random.default_rng(13)
        grid = make_grid(distorted_cam, num_planes=17, z_min=0.45, z_max=4.0)
        fast = grid.copy_empty()
        brute = grid.copy_empty()
        for _ in range(300):
            pose = Se3(random_unit_quat(rng), rng.normal(size=3) * [0.3, 0.3, 1.5])
            ev = Event(0.0, int(rng.integers(0, 240)), int(rng.integers(0, 180)))
            vote_event(fast, ev, distorted_cam, pose, mode="nearest", kernel=kernel)
            vote_event_bruteforce(brute, ev, distorted_cam, pose, mode="nearest")
        assert np.array_equal(fast.votes, brute.votes)
        assert fast.skipped_events == brute.skipped_events

    def test_empty_event_set(self, pinhole_cam):
        grid = make_grid(pinhole_cam)
        vote_events(grid, EventStream.empty("e"), pinhole_cam, pose=Se3.identity())
        assert grid.total_votes() == 0.0


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
                hit = _fn(*args, **kwargs)
                voted[_name] = voted.get(_name, 0) + int(np.count_nonzero(hit))
                return hit
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


def random_rays(cam, n=300, num_planes=12, seed=8):
    """(grid, _prepare_rays output) for one random pose per event, centers
    spread through the depth range: forward and backward rays, lo > 0 and
    hi < num_planes both occur."""
    rng = np.random.default_rng(seed)
    stream = random_stream(rng, n, cam)
    grid = make_grid(cam, num_planes=num_planes, z_min=0.45, z_max=4.0)
    quats = np.array([random_unit_quat(rng) for _ in range(n)])
    trans = rng.normal(size=(n, 3)) * [0.3, 0.3, 0.0] + [0.0, 0.0, 1.0]
    trans[:, 2] += rng.uniform(-1.0, 1.5, n)
    return grid, _prepare_rays(grid, stream, cam, quats, trans)


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
        hit_c = _sweep.run_sweep(prep, grid.inv_depths, v_c, mode, "c")
        hit_numpy = _sweep.run_sweep(prep, grid.inv_depths, v_numpy, mode, "numpy")
        assert hit_c.dtype == hit_numpy.dtype == np.bool_
        assert np.array_equal(hit_c, hit_numpy)
        assert 0 < np.count_nonzero(hit_numpy) < len(hit_numpy)
        if mode == "nearest":
            assert np.array_equal(v_c, v_numpy)
        else:
            assert np.max(np.abs(v_c - v_numpy)) <= 1e-12
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
        hit_c = _sweep.run_sweep(prep, inv_zs, v_c, mode, "c")
        hit_numpy = _sweep.run_sweep(prep, inv_zs, v_numpy, mode, "numpy")
        assert np.array_equal(hit_c, hit_numpy)
        # at most two weights meet in a voxel, and a sum of two is order-free
        assert np.array_equal(v_c, v_numpy)
        want = [mode == "bilinear", True, True, mode == "bilinear", True, False,
                False, False, False, True, mode == "bilinear"]
        assert hit_c.tolist() == want

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
        vote_events(a, stream, distorted_cam, traj=traj, mode=mode, kernel="c")
        vote_events(b, stream, distorted_cam, traj=traj, mode=mode, kernel="numpy")
        if mode == "nearest":
            assert np.array_equal(a.votes, b.votes)
        else:
            assert np.max(np.abs(a.votes - b.votes)) <= 1e-12
        assert a.skipped_events == b.skipped_events
        assert a.total_votes() > 0

    def test_auto_resolves_to_c(self):
        assert _sweep.resolve_kernel("auto") == "c"
        with pytest.raises(ValueError, match="unknown kernel"):
            _sweep.resolve_kernel("numba")

    @pytest.mark.parametrize("bad", [
        "float32", "fortran", "readonly", "short_coeff", "negative_lo", "hi_beyond", "inv_zs",
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
        elif bad == "negative_lo":
            prep[4] = prep[4] - 1
            prep[4][0] = -1
        elif bad == "hi_beyond":
            prep[5] = prep[5].copy()
            prep[5][0] = grid.num_planes + 1
        elif bad == "inv_zs":
            inv_zs = inv_zs[:-1]
        with pytest.raises(ValueError):
            _sweep.run_sweep(prep, inv_zs, votes, "bilinear", "c")

    def test_compiles_without_warnings(self, tmp_path):
        out = tmp_path / "sweep.so"
        proc = subprocess.run(
            [*_sweep._COMPILE, "-Wall", "-Wextra", "-Werror", "-o", str(out),
             str(_sweep._SOURCE)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.stat().st_size > 0

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
        monkeypatch.setattr(_sweep, "_c_sweep", None)
        monkeypatch.setattr(_sweep, "_c_error", "OSError: no compiler")
        grid, prep = self._prep(pinhole_cam, n=10)
        with pytest.raises(RuntimeError, match="no compiler"):
            _sweep.run_sweep(prep, grid.inv_depths, grid.votes, "nearest", "c")
        assert _sweep.resolve_kernel("auto") == "numpy"


class TestBandSweep:
    """A sweep into a band buffer holding planes [p0, p0 + band) of the
    volume, with the plane offset p0, equals the same planes of a sweep
    into the whole volume, in every kernel."""

    @staticmethod
    def _rays(case, cam):
        """(width, height, nz, sweep) where sweep(votes, offset, p0, p1,
        kernel, mode) votes the case's events, clipped to [p0, p1), into
        ``votes`` and returns the hit mask."""
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
            return _sweep.run_sweep((*coeffs, lo_b, hi_b), inv_zs, votes, mode,
                                    kernel, offset=offset)

        return w, h, len(zs), sweep

    @pytest.mark.parametrize("band", [1, 3, None])
    @pytest.mark.parametrize("case", ["random", "edges"])
    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    @pytest.mark.parametrize("kernel", ["c", "numpy", "direct"])
    def test_bands_equal_whole_volume(self, distorted_cam, kernel, mode, case, band):
        w, h, nz, sweep = self._rays(case, distorted_cam)
        band = band or nz
        whole = np.zeros((nz, h, w))
        want_hit = sweep(whole, 0, 0, nz, kernel, mode)
        assert whole.any() and want_hit.any()
        got, hits = np.zeros_like(whole), []
        for p0 in range(0, nz, band):
            p1 = min(p0 + band, nz)
            buf = np.full((band, h, w), 0.0)
            hits.append(sweep(buf[:p1 - p0], p0, p0, p1, kernel, mode))
            assert not buf[p1 - p0:].any()
            got[p0:p1] = buf[:p1 - p0]
        assert np.array_equal(got, whole)
        assert np.array_equal(np.logical_or.reduce(hits), want_hit)

    @pytest.mark.parametrize("kernel,bad", [
        (kernel, bad) for kernel in ("c", "numpy", "direct")
        for bad in ("below", "beyond", "negative_offset")
    ] + [("c", "past_inv_zs")])  # numpy reads inv_zs/zs only at swept planes
    def test_range_outside_band_rejected_before_any_write(self, distorted_cam,
                                                          monkeypatch, kernel, bad):
        calls = []
        monkeypatch.setattr(_sweep, "_load_c", lambda: lambda *a: calls.append(a))
        w, h, nz, sweep = self._rays("random", distorted_cam)
        votes = np.zeros((4, h, w))
        offset, p0, p1 = {
            "below": (4, 3, 8),        # events reach plane 3 < offset
            "beyond": (4, 4, 9),       # plane 8 is past the buffer
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

    @pytest.mark.parametrize("mode,tol", [("nearest", 0.0), ("bilinear", 1e-9)])
    def test_random_partitions_equal_sequential(self, distorted_cam, mode, tol):
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
        if tol == 0.0:
            assert np.array_equal(merged.votes, seq.votes)
        else:
            assert np.max(np.abs(merged.votes - seq.votes)) <= tol
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
