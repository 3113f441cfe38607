import numpy as np
import pytest

from raysweep.errors import MotionTooFastForStep
from raysweep.events import EventStream
from raysweep.geometry import PoseTrajectory, Se3, quat_rotate
from raysweep.io import RigCalibration
from raysweep.synth import (
    SyntheticScene,
    ground_truth_depth,
    inject_uniform_noise,
    make_scenario,
    segment_points,
    simulate_events,
)


def mono_rig(cam):
    # simulator accepts any rig; RigCalibration insists on >= 2 cameras,
    # so duplicate the camera for single-view checks
    return RigCalibration("mono", ("a", "b"), (cam, cam))


def linear_traj(start, end, duration, n=5):
    ts = np.linspace(0.0, duration, n)
    a = np.asarray(start, float)
    b = np.asarray(end, float)
    trans = a + (ts / duration)[:, None] * (b - a)
    return PoseTrajectory(ts, np.tile([0, 0, 0, 1.0], (n, 1)), trans)


class TestSimulator:
    def test_static_trajectory_emits_nothing(self, pinhole_cam):
        scene = SyntheticScene(np.array([[0.0, 0.0, 2.0]]))
        traj = linear_traj((0, 0, 0), (0, 0, 0), 1.0)
        streams = simulate_events(scene, mono_rig(pinhole_cam), traj, dt=0.01)
        assert all(len(s) == 0 for s in streams.values())

    def test_lateral_displacement_event_count(self, pinhole_cam):
        # camera moves 10*theta*z/fx metres laterally: the projection
        # travels exactly 10*theta pixels, so each camera sees 10 events
        # (give or take the final boundary crossing)
        z, theta = 2.0, 1.0
        d = 10.0 * theta * z / pinhole_cam.fx
        scene = SyntheticScene(np.array([[0.0, 0.0, z]]), theta=theta)
        traj = linear_traj((0, 0, 0), (d, 0, 0), 1.0)
        streams = simulate_events(scene, mono_rig(pinhole_cam), traj, dt=1e-3)
        for s in streams.values():
            assert abs(len(s) - 10) <= 1

    def test_double_speed_same_pixels_compressed_times(self, pinhole_cam):
        rng = np.random.default_rng(30)
        pts = np.stack([rng.uniform(-0.3, 0.3, 40), rng.uniform(-0.2, 0.2, 40),
                        rng.uniform(1.0, 3.0, 40)], axis=-1)
        scene = SyntheticScene(pts)
        rig = mono_rig(pinhole_cam)
        slow = simulate_events(scene, rig, linear_traj((0, 0, 0), (0.3, 0, 0), 1.0), dt=1e-3)
        fast = simulate_events(scene, rig, linear_traj((0, 0, 0), (0.3, 0, 0), 0.5), dt=5e-4)
        for cid in slow:
            assert np.array_equal(slow[cid].x, fast[cid].x)
            assert np.array_equal(slow[cid].y, fast[cid].y)
            assert np.allclose(fast[cid].t * 2.0, slow[cid].t, atol=1e-12)

    def test_too_coarse_step_raises(self, pinhole_cam):
        scene = SyntheticScene(np.array([[0.0, 0.0, 0.8]]))
        traj = linear_traj((0, 0, 0), (0.5, 0, 0), 0.1)  # 5 m/s at 0.8 m
        with pytest.raises(MotionTooFastForStep):
            simulate_events(scene, mono_rig(pinhole_cam), traj, dt=0.02)

    def test_timestamps_non_decreasing_and_polarity(self, pinhole_cam):
        rng = np.random.default_rng(31)
        pts = np.stack([rng.uniform(-0.3, 0.3, 30), rng.uniform(-0.2, 0.2, 30),
                        rng.uniform(1.0, 3.0, 30)], axis=-1)
        scene = SyntheticScene(pts)
        streams = simulate_events(scene, mono_rig(pinhole_cam),
                                  linear_traj((0, 0, 0), (0.4, 0, 0), 1.0), dt=1e-3)
        for s in streams.values():
            assert np.all(np.diff(s.t) >= 0)
            # camera moves +x so projections move -x: all polarities -1
            assert np.all(s.polarity == -1)

    def test_determinism(self):
        a = make_scenario("lateral_room", n_points=100, seed=5)
        b = make_scenario("lateral_room", n_points=100, seed=5)
        sa, sb = a.simulate(), b.simulate()
        for cid in sa:
            assert np.array_equal(sa[cid].t, sb[cid].t)
            assert np.array_equal(sa[cid].x, sb[cid].x)
            assert np.array_equal(sa[cid].y, sb[cid].y)
            assert np.array_equal(sa[cid].polarity, sb[cid].polarity)


class TestGroundTruth:
    def test_point_on_axis(self, pinhole_cam):
        scene = SyntheticScene(np.array([[0.0, 0.0, 2.0]]))
        gt = ground_truth_depth(scene, Se3.identity(), pinhole_cam)
        assert gt.depth[90, 120] == 2.0
        assert gt.mask.sum() == 1

    def test_front_surface_wins(self, pinhole_cam):
        scene = SyntheticScene(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0]]))
        gt = ground_truth_depth(scene, Se3.identity(), pinhole_cam)
        assert gt.depth[90, 120] == 2.0
        assert gt.confidence[90, 120] == 2.0  # both points hit the pixel

    def test_empty_scene(self, pinhole_cam):
        scene = SyntheticScene(np.empty((0, 3)))
        gt = ground_truth_depth(scene, Se3.identity(), pinhole_cam)
        assert not gt.mask.any()

    def test_points_behind_reference_ignored(self, pinhole_cam):
        scene = SyntheticScene(np.array([[0.0, 0.0, -2.0]]))
        gt = ground_truth_depth(scene, Se3.identity(), pinhole_cam)
        assert not gt.mask.any()


class TestScenarios:
    def test_lateral_room_both_cameras_active(self):
        sc = make_scenario("lateral_room", n_points=120, seed=3)
        streams = sc.simulate()
        assert set(streams) == {"left", "right"}
        assert all(len(s) > 0 for s in streams.values())

    def test_forward_produces_fewer_events(self):
        lat = make_scenario("lateral_room", n_points=200, seed=3)
        fwd = make_scenario("forward_corridor", n_points=200, seed=3)
        n_lat = sum(len(s) for s in lat.simulate().values())
        n_fwd = sum(len(s) for s in fwd.simulate().values())
        assert n_fwd < n_lat

    def test_noisy_left_exact_injection_count(self):
        clean = make_scenario("lateral_room", n_points=150, seed=9)
        noisy = make_scenario("noisy_left", n_points=150, seed=9)
        sc, sn = clean.simulate(), noisy.simulate()
        n_clean = len(sc["left"])
        assert len(sn["left"]) == n_clean + int(round(0.2 * n_clean))
        assert np.array_equal(sn["right"].t, sc["right"].t)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            make_scenario("underwater")

    def test_injected_noise_in_bounds_and_sorted(self):
        rng = np.random.default_rng(33)
        base = EventStream("c", np.sort(rng.uniform(0, 1, 200)),
                           rng.integers(0, 240, 200, dtype=np.int32),
                           rng.integers(0, 180, 200, dtype=np.int32),
                           np.ones(200, np.int8))
        noisy = inject_uniform_noise(base, 0.5, 240, 180, seed=1)
        assert len(noisy) == 300
        assert np.all(np.diff(noisy.t) >= 0)
        assert noisy.x.max() < 240 and noisy.y.max() < 180

    def test_segment_points_endpoints(self):
        pts = segment_points((0, 0, 1), (1, 0, 1), 5)
        assert np.array_equal(pts[0], [0, 0, 1])
        assert np.array_equal(pts[-1], [1, 0, 1])
        assert len(pts) == 5


class TestSimulatorVotingConsistency:
    def test_event_rays_hit_generating_point(self):
        # every clean event, back-projected at the generating point's true
        # depth plane, must land within a pixel of that point's reference
        # projection (couples the simulator to the sweep geometry)
        from raysweep.events import chunk_events, select_reference_view

        sc = make_scenario("lateral_room", n_points=1, seed=13)
        # single point so provenance is unambiguous
        streams = sc.simulate()
        chunks = chunk_events([streams["left"], streams["right"]],
                              sc.config.chunk_duration)
        ref = select_reference_view(chunks[0], sc.traj, sc.rig.cameras[0])
        ref_cam = sc.rig.cameras[0]
        point = sc.scene.points[0]
        p_ref = ref.inverse().apply(point)
        z_true = p_ref[2]
        u_ref = ref_cam.fx * p_ref[0] / z_true + ref_cam.cx
        v_ref = ref_cam.fy * p_ref[1] / z_true + ref_cam.cy

        for cid, cam in zip(sc.rig.camera_ids, sc.rig.cameras):
            s = chunks[0].events[cid]
            q, t = sc.traj.interpolate_batch(s.t)
            for i in range(0, len(s), 37):
                T_w_cam = Se3(q[i], t[i]) @ cam.T_body_cam
                b = cam.undistort_pixel((float(s.x[i]), float(s.y[i])))
                T_rv_cam = ref.inverse() @ T_w_cam
                d = quat_rotate(T_rv_cam.quat, np.array([b[0], b[1], 1.0]))
                o = T_rv_cam.trans
                lam = (z_true - o[2]) / d[2]
                u = ref_cam.fx * (o[0] + lam * d[0]) / z_true + ref_cam.cx
                v = ref_cam.fy * (o[1] + lam * d[1]) / z_true + ref_cam.cy
                assert np.hypot(u - u_ref, v - v_ref) < 1.0


class TestDepthRangeWarning:
    def test_counts_out_of_range_pairs(self, pinhole_cam, caplog):
        import logging
        from raysweep.synth import warn_outside_depth_range
        scene = SyntheticScene(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 9.0]]))
        traj = linear_traj((0, 0, 0), (0, 0, 0.5), 1.0, n=3)
        with caplog.at_level(logging.WARNING):
            bad = warn_outside_depth_range(scene, traj, 0.5, 4.0)
        assert bad == 3  # the z=9 point from all three sample poses
        assert "outside the reconstructable depth range" in caplog.text

    def test_silent_when_everything_in_range(self, pinhole_cam, caplog):
        import logging
        from raysweep.synth import warn_outside_depth_range
        scene = SyntheticScene(np.array([[0.0, 0.0, 2.0]]))
        traj = linear_traj((0, 0, 0), (0.3, 0, 0), 1.0, n=3)
        with caplog.at_level(logging.WARNING):
            assert warn_outside_depth_range(scene, traj, 0.5, 4.0) == 0
        assert caplog.text == ""
