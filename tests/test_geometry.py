import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from raysweep.errors import NonConvergedUndistortion, OutOfTrajectoryRange
from raysweep.geometry import (
    CameraModel,
    PoseTrajectory,
    Se3,
    intersect_ray_with_depth_plane,
    quat_from_axis_angle,
    quat_rotate,
    quat_slerp,
    relative_pose,
    rotation_angle,
)

from conftest import random_pose, random_unit_quat


class TestUndistortion:
    def test_principal_point_maps_to_optical_axis(self, distorted_cam):
        u, v = distorted_cam.undistort_pixel((distorted_cam.cx, distorted_cam.cy))
        assert u == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_pure_pinhole_unit_offset(self, pinhole_cam):
        u, v = pinhole_cam.undistort_pixel((pinhole_cam.cx + pinhole_cam.fx, pinhole_cam.cy))
        assert (u, v) == (1.0, 0.0)

    def test_roundtrip_through_forward_model(self):
        # pix built with the forward model must undistort back to the
        # normalized coords it came from
        cam = CameraModel(fx=200, fy=200, cx=120, cy=90, width=240, height=180,
                          dist=np.array([0.1, 0.0, 0.0, 0.0]))
        pix = cam.distort_to_pixel(np.array([0.3, -0.2]))
        u, v = cam.undistort_pixel(pix)
        back = cam.distort_to_pixel(np.array([u, v]))
        assert np.max(np.abs(back - pix)) < 1e-6
        assert u == pytest.approx(0.3, abs=1e-6)
        assert v == pytest.approx(-0.2, abs=1e-6)

    def test_random_roundtrips_small_distortion(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dist = np.array([
                rng.uniform(-0.2, 0.2), rng.uniform(-0.05, 0.05),
                rng.uniform(-0.005, 0.005), rng.uniform(-0.005, 0.005),
            ])
            cam = CameraModel(fx=200, fy=210, cx=119.5, cy=90.5,
                              width=240, height=180, dist=dist)
            pix = np.stack([rng.uniform(0, 239, 100), rng.uniform(0, 179, 100)], axis=-1)
            norm = cam.undistort_pixels(pix)
            back = cam.distort_to_pixel(norm)
            assert np.max(np.abs(back - pix)) < 1e-6

    def test_extreme_distortion_raises(self):
        cam = CameraModel(fx=200, fy=200, cx=120, cy=90, width=240, height=180,
                          dist=np.array([-5.0, 0.0, 0.0, 0.0]))
        with pytest.raises(NonConvergedUndistortion):
            cam.undistort_pixel((239.0, 179.0))


class TestCameraValidation:
    def test_negative_focal_rejected(self):
        with pytest.raises(ValueError):
            CameraModel(fx=-1.0, fy=200, cx=120, cy=90, width=240, height=180)

    def test_principal_point_outside_rejected(self):
        with pytest.raises(ValueError):
            CameraModel(fx=200, fy=200, cx=240.0, cy=90, width=240, height=180)

    @pytest.mark.parametrize("field,value", [
        ("fx", np.inf), ("fy", np.inf), ("fx", np.nan),
        ("dist", [0.0, np.nan, 0.0, 0.0]), ("dist", [0.0, 0.0, 0.0, -np.inf]),
    ])
    def test_non_finite_intrinsics_rejected(self, field, value):
        args = dict(fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180)
        with pytest.raises(ValueError, match="finite"):
            CameraModel(**{**args, field: value})


class TestPoseInterpolation:
    def _traj(self):
        poses = [
            (0.0, Se3.identity()),
            (1.0, Se3.from_axis_angle([0, 0, 1], np.pi / 2, (2.0, 0.0, 0.0))),
        ]
        return PoseTrajectory.from_poses(poses)

    def test_exact_sample_returned(self):
        traj = self._traj()
        p = traj.interpolate(1.0)
        assert np.array_equal(p.quat, traj.quats[1])
        assert np.array_equal(p.trans, traj.trans[1])

    def test_translation_midpoint(self):
        traj = self._traj()
        p = traj.interpolate(0.5)
        assert np.allclose(p.trans, [1.0, 0.0, 0.0], atol=1e-12)

    def test_rotation_midpoint_matches_axis_angle_halving(self):
        # slerp between identity and a 90 deg z-rotation must land on the
        # 45 deg z-rotation computed directly from the axis-angle form
        traj = self._traj()
        p = traj.interpolate(0.5)
        expected = quat_from_axis_angle([0, 0, 1], np.pi / 4)
        assert np.max(np.abs(p.quat - expected)) < 1e-9

    def test_matches_scipy_slerp(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q0, q1 = random_unit_quat(rng), random_unit_quat(rng)
            alpha = rng.uniform()
            ours = quat_slerp(q0, q1, alpha)
            ref = Slerp([0, 1], Rotation.from_quat([q0, q1]))(alpha).as_quat()
            # quaternions are sign-ambiguous
            err = min(np.max(np.abs(ours - ref)), np.max(np.abs(ours + ref)))
            assert err < 1e-12

    def test_angle_monotone_along_constant_axis(self):
        traj = self._traj()
        ts = np.linspace(0.0, 1.0, 33)
        angles = [rotation_angle(traj.interpolate(t).quat) for t in ts]
        assert np.all(np.diff(angles) > 0)
        assert angles[0] == 0.0
        assert angles[-1] == pytest.approx(np.pi / 2, abs=1e-12)

    @staticmethod
    def _gather_form(traj, ts):
        # interpolate_batch as written before it gathered with np.take and
        # lerped in place: fancy indexing and an (N, 3) broadcast
        hi = np.clip(np.searchsorted(traj.times, ts, side="right"), 1, len(traj) - 1)
        lo = hi - 1
        t0, t1 = traj.times[lo], traj.times[hi]
        alpha = (ts - t0) / (t1 - t0)
        q_lo, q_hi = traj.quats[lo], traj.quats[hi]
        q = q_lo.copy() if np.array_equal(q_lo, q_hi) else quat_slerp(q_lo, q_hi, alpha)
        p = traj.trans[lo] + alpha[:, None] * (traj.trans[hi] - traj.trans[lo])
        for exact, idx in ((ts == t0, lo), (ts == t1, hi)):
            q[exact] = traj.quats[idx[exact]]
            p[exact] = traj.trans[idx[exact]]
        return q, p

    @pytest.mark.parametrize("rotating", [True, False])
    def test_batch_bit_identical_to_gather_form(self, rotating):
        rng = np.random.default_rng(12)
        times = np.sort(rng.uniform(0.0, 2.0, 21))
        quats = (np.array([random_unit_quat(rng) for _ in times]) if rotating
                 else np.tile(random_unit_quat(rng), (len(times), 1)))
        traj = PoseTrajectory(times, quats, rng.normal(size=(len(times), 3)))
        ts = np.sort(np.concatenate([rng.uniform(times[0], times[-1], 5000),
                                     times, times[3:5]]))
        got, want = traj.interpolate_batch(ts), self._gather_form(traj, ts)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.flags.c_contiguous
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_out_of_range_raises(self):
        traj = self._traj()
        with pytest.raises(OutOfTrajectoryRange):
            traj.interpolate(1.0001)
        with pytest.raises(OutOfTrajectoryRange):
            traj.interpolate(-0.0001)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_raise(self, bad):
        # a NaN compares False with the span's ends: it once came back as a
        # NaN pose, and interpolate(nan) failed in Se3 instead
        traj = self._traj()
        with pytest.raises(OutOfTrajectoryRange, match=rf"time {bad} \(index 1\) is not finite"):
            traj.interpolate_batch([0.1, bad, 0.2])
        with pytest.raises(OutOfTrajectoryRange, match=f"time {bad} "):
            traj.interpolate(bad)
        with pytest.raises(OutOfTrajectoryRange, match=f"time {bad} "):
            traj.slerped_quats([0.1, bad])

    @pytest.mark.parametrize("rotating", [True, False])
    def test_slerped_quats_are_those_of_interpolate_batch(self, rotating):
        # the rotations that interpolate_batch slerps, before it pins exact
        # sample hits: where no time is one, the same bits
        rng = np.random.default_rng(13)
        times = np.sort(rng.uniform(0.0, 2.0, 9))
        quats = (np.array([random_unit_quat(rng) for _ in times]) if rotating
                 else np.tile(random_unit_quat(rng), (len(times), 1)))
        traj = PoseTrajectory(times, quats, rng.normal(size=(len(times), 3)))
        ts = np.sort(rng.uniform(times[0], times[-1], 500))
        got = traj.slerped_quats(ts)
        if rotating:
            assert np.array_equal(got.view(np.uint64),
                                  traj.interpolate_batch(ts)[0].view(np.uint64))
        else:
            assert got is None
        with pytest.raises(ValueError, match="non-decreasing"):
            traj.slerped_quats(ts[::-1])

    def test_timestamps_must_increase(self):
        with pytest.raises(ValueError):
            PoseTrajectory.from_poses([(0.0, Se3.identity()), (0.0, Se3.identity())])

    @pytest.mark.parametrize("column,index", [
        ("times", 1), ("quats", (1, 2)), ("quats", (1, slice(None))), ("trans", (1, 0)),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, column, index, bad):
        arrays = {"times": np.arange(3.0), "quats": np.tile([0.0, 0, 0, 1], (3, 1)),
                  "trans": np.zeros((3, 3))}
        arrays[column][index] = bad
        with pytest.raises(ValueError, match="trajectory sample 1"):
            PoseTrajectory(**arrays)

    def test_double_cover_takes_short_arc(self):
        q = quat_from_axis_angle([0, 1, 0], 0.3)
        ours = quat_slerp(q, -q, 0.5)  # same rotation, negated representation
        assert rotation_angle(ours) == pytest.approx(0.3, abs=1e-12)


class TestrelativePose:
    def test_self_is_identity(self):
        rng = np.random.default_rng(5)
        T = random_pose(rng)
        rel = relative_pose(T, T)
        assert rel.is_close(Se3.identity(), tol=1e-12)

    def test_identity_base_passes_through(self):
        rng = np.random.default_rng(6)
        T = random_pose(rng)
        rel = relative_pose(Se3.identity(), T)
        assert np.allclose(rel.quat, T.quat) and np.allclose(rel.trans, T.trans)

    def test_composition_roundtrip_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b = random_pose(rng), random_pose(rng)
            assert (a @ relative_pose(a, b)).is_close(b, tol=1e-9)


class TestSe3:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_compose_inverse_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        T = random_pose(rng, trans_scale=10.0)
        assert (T @ T.inverse()).is_close(Se3.identity(), tol=1e-9)

    def test_apply_matches_matrix_form(self):
        rng = np.random.default_rng(8)
        T = random_pose(rng)
        pts = rng.normal(size=(20, 3))
        expected = pts @ T.rotation_matrix().T + T.trans
        assert np.allclose(T.apply(pts), expected, atol=1e-12)

    def test_bad_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Se3(np.array([1.0, 1.0, 0.0, 1.0]), np.zeros(3))

    @given(st.lists(st.floats(), min_size=4, max_size=4),
           st.lists(st.floats(), min_size=3, max_size=3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_holds_a_finite_unit_quaternion_or_raises(self, q, t, normalize):
        # any floats, nan and inf included; normalizing first lets many
        # draws through, huge and tiny ones still overflow or vanish
        q = np.array(q)
        if normalize:
            with np.errstate(all="ignore"):
                q = q / np.linalg.norm(q)
        try:
            pose = Se3(q, np.array(t))
        except ValueError:
            return
        assert np.isfinite(pose.quat).all() and np.isfinite(pose.trans).all()
        assert abs(np.linalg.norm(pose.quat) - 1.0) <= 1e-12


class TestQuatRotate:
    @staticmethod
    def _cross_form(q, v):
        # the np.cross form quat_rotate had before it was written per component
        qv, w = q[..., :3], q[..., 3:4]
        t = 2.0 * np.cross(qv, v)
        return v + w * t + np.cross(qv, t)

    def test_bit_identical_to_cross_form(self):
        rng = np.random.default_rng(31)
        q = rng.normal(size=(5000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        v = rng.normal(size=(5000, 3)) * rng.uniform(1e-3, 1e3, (5000, 1))
        for qq, vv in ((q, v), (q[7], v), (q[7], v[3]), (q, v[3])):
            got = quat_rotate(qq, vv)
            want = self._cross_form(qq, vv)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_matches_rotation_matrix(self):
        rng = np.random.default_rng(32)
        q = random_unit_quat(rng)
        v = rng.normal(size=(10, 3))
        assert np.allclose(quat_rotate(q, v), v @ Rotation.from_quat(q).as_matrix().T,
                           atol=1e-12)


class TestRayPlaneIntersection:
    def test_optical_axis(self):
        assert intersect_ray_with_depth_plane((0, 0, 0), (0, 0, 1), 2.0) == (0.0, 0.0)

    def test_baseline_offset(self):
        assert intersect_ray_with_depth_plane((0.1, 0, 0), (0, 0, 1), 2.0) == (0.1, 0.0)

    def test_oblique_ray_scalar_arithmetic(self):
        d = np.array([1.0, 0.0, 1.0])
        d = d / np.linalg.norm(d)
        pt = intersect_ray_with_depth_plane((0, 0, 0), d, 3.0)
        lam = 3.0 / d[2]
        assert pt == pytest.approx((lam * d[0], 0.0))
        assert pt[0] == pytest.approx(3.0, abs=1e-12)

    def test_behind_camera(self):
        assert intersect_ray_with_depth_plane((0, 0, 5.0), (0, 0, 1), 2.0) is None

    def test_parallel_ray(self):
        assert intersect_ray_with_depth_plane((0, 0, 0), (1, 0, 0), 2.0) is None

    def test_zero_lambda_is_behind(self):
        assert intersect_ray_with_depth_plane((0, 0, 2.0), (0, 0, 1), 2.0) is None
