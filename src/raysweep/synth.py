"""Synthetic stereo event-rig simulator: geometric event streams from a
moving rig observing a 3D point scene, plus matching ground-truth depth.

Brightness is not modeled. An event fires each time a point's image
projection has accumulated ``theta`` pixels of travel since its previous
event, standing in for the contrast threshold of a real sensor: the
downstream mapper only consumes event geometry, so geometric fidelity is
all the oracle needs.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .depth import DepthResult
from .errors import MotionTooFastForStep
from .events import EventStream
from .geometry import (
    CameraModel,
    PoseTrajectory,
    Se3,
    quat_conjugate,
    quat_rotate,
)
from .io import RigCalibration
from .pipeline import PipelineConfig

log = logging.getLogger(__name__)

SCENARIO_NAMES = ("lateral_room", "forward_corridor", "noisy_left")


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    """World 3D points plus the pixel-displacement quantum that triggers
    events (one event per ``theta`` pixels of image travel)."""

    points: np.ndarray
    theta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64).reshape(-1, 3)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")


def segment_points(a, b, n: int) -> np.ndarray:
    """n points uniformly spaced on the segment from a to b (inclusive)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a + np.linspace(0.0, 1.0, n)[:, None] * (b - a)


def warn_outside_depth_range(scene: SyntheticScene, traj: PoseTrajectory,
                             z_min: float, z_max: float) -> int:
    """Warn when scene points leave [z_min, z_max] for some trajectory pose.

    Such points still simulate fine but cannot be reconstructed; returns
    how many (point, pose) pairs are out of range.
    """
    bad = 0
    for i in range(len(traj)):
        z = traj.pose_at(i).inverse().apply(scene.points)[:, 2]
        bad += int(np.count_nonzero((z < z_min) | (z > z_max)))
    if bad:
        log.warning(
            "%d point/pose pairs fall outside the reconstructable depth "
            "range [%.3g, %.3g]", bad, z_min, z_max,
        )
    return bad


def simulate_events(scene: SyntheticScene, rig: RigCalibration,
                    traj: PoseTrajectory, dt: float) -> dict[str, EventStream]:
    """Simulate per-camera event streams over the trajectory span.

    Points are projected (with forward distortion) at every step; a point
    emits an event whenever its accumulated image travel since its last
    event reaches ``scene.theta`` pixels. Event pixels are the rounded
    current projection, polarity is the sign of the horizontal image
    motion (+1 rightward), timestamps are the step time. Raises
    MotionTooFastForStep if any visible point moves >= 2 px in one step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    times = np.arange(traj.t_start, traj.t_end, dt)
    out = {}
    for cid, cam in zip(rig.camera_ids, rig.cameras):
        q_wc, t_wc = traj.camera_poses(times, cam.T_body_cam)
        q_cw = quat_conjugate(q_wc)

        ev_t, ev_x, ev_y, ev_p = [], [], [], []
        accum = np.zeros(len(scene.points))
        prev_pix = None
        prev_ok = None
        for s in range(len(times)):
            pts_cam = quat_rotate(q_cw[s], scene.points - t_wc[s])
            pix, ok = cam.project_points(pts_cam)
            xr = np.floor(pix[:, 0] + 0.5)
            yr = np.floor(pix[:, 1] + 0.5)
            ok &= (xr >= 0) & (xr < cam.width) & (yr >= 0) & (yr < cam.height)
            if prev_pix is not None:
                both = ok & prev_ok
                du = np.where(both, pix[:, 0] - prev_pix[:, 0], 0.0)
                dv = np.where(both, pix[:, 1] - prev_pix[:, 1], 0.0)
                disp = np.hypot(du, dv)
                if np.any(disp >= 2.0):
                    worst = float(disp.max())
                    raise MotionTooFastForStep(
                        f"{worst:.2f} px in one step of {dt:.6f} s; reduce dt"
                    )
                accum = np.where(both, accum + disp, 0.0)
                n_emit = np.floor(accum / scene.theta).astype(np.int64)
                fire = np.nonzero(both & (n_emit > 0))[0]
                if fire.size:
                    rep = np.repeat(fire, n_emit[fire])
                    ev_t.append(np.full(rep.size, times[s]))
                    ev_x.append(xr[rep].astype(np.int32))
                    ev_y.append(yr[rep].astype(np.int32))
                    ev_p.append(np.where(du[rep] >= 0.0, 1, -1).astype(np.int8))
                    accum[fire] -= n_emit[fire] * scene.theta
            prev_pix, prev_ok = pix, ok

        if ev_t:
            out[cid] = EventStream(
                cid,
                np.concatenate(ev_t),
                np.concatenate(ev_x),
                np.concatenate(ev_y),
                np.concatenate(ev_p),
            )
        else:
            out[cid] = EventStream.empty(cid)
    return out


def inject_uniform_noise(stream: EventStream, fraction: float,
                         width: int, height: int, seed: int) -> EventStream:
    """Add round(fraction * n) spurious events, uniform over the stream's
    time span and the full pixel area, with random polarity."""
    n_noise = int(round(fraction * len(stream)))
    if n_noise == 0 or len(stream) == 0:
        return stream
    rng = np.random.default_rng(seed)
    t = rng.uniform(float(stream.t[0]), float(stream.t[-1]), n_noise)
    x = rng.integers(0, width, n_noise, dtype=np.int32)
    y = rng.integers(0, height, n_noise, dtype=np.int32)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), n_noise)
    t_all = np.concatenate([stream.t, t])
    order = np.argsort(t_all, kind="stable")
    return EventStream(
        stream.camera_id,
        t_all[order],
        np.concatenate([stream.x, x])[order],
        np.concatenate([stream.y, y])[order],
        np.concatenate([stream.polarity, p])[order],
    )


def ground_truth_depth(scene: SyntheticScene, ref_pose: Se3,
                       ref_intrinsics: CameraModel) -> DepthResult:
    """Project the scene into the reference view (ideal pinhole), keeping
    the smallest depth per pixel. Confidence counts the points per pixel."""
    k = ref_intrinsics
    pts = ref_pose.inverse().apply(scene.points)
    z = pts[:, 2]
    ok = z > 1e-9
    zs = np.where(ok, z, 1.0)
    u = k.fx * pts[:, 0] / zs + k.cx
    v = k.fy * pts[:, 1] / zs + k.cy
    ix = np.floor(u + 0.5).astype(np.int64)
    iy = np.floor(v + 0.5).astype(np.int64)
    ok &= (ix >= 0) & (ix < k.width) & (iy >= 0) & (iy < k.height)

    depth = np.full((k.height, k.width), np.inf)
    counts = np.zeros((k.height, k.width))
    np.minimum.at(depth, (iy[ok], ix[ok]), z[ok])
    np.add.at(counts, (iy[ok], ix[ok]), 1.0)
    mask = np.isfinite(depth)
    zvals = depth[mask]
    return DepthResult(
        depth=np.where(mask, depth, 0.0),
        confidence=counts,
        mask=mask,
        ref_pose=ref_pose,
        ref_intrinsics=dataclasses.replace(k, dist=np.zeros(4)),
        z_min=float(zvals.min()) if zvals.size else 0.0,
        z_max=float(zvals.max()) if zvals.size else 0.0,
    )


# ---------------------------------------------------------------------------
# named scenarios

@dataclass
class Scenario:
    """A ready-to-run synthetic setup: scene, rig, trajectory, pipeline
    defaults, and the simulation step. ``noise_fraction`` applies spurious
    events to the left stream only."""

    name: str
    scene: SyntheticScene
    rig: RigCalibration
    traj: PoseTrajectory
    config: PipelineConfig
    sim_dt: float
    noise_fraction: float = 0.0

    def simulate(self) -> dict[str, EventStream]:
        warn_outside_depth_range(self.scene, self.traj,
                                 self.config.z_min, self.config.z_max)
        streams = simulate_events(self.scene, self.rig, self.traj, self.sim_dt)
        if self.noise_fraction > 0.0:
            left = self.rig.camera_ids[0]
            streams[left] = inject_uniform_noise(
                streams[left], self.noise_fraction,
                self.rig.cameras[0].width, self.rig.cameras[0].height,
                seed=self.scene.seed + 1,
            )
        return streams


def _stereo_rig(baseline: float) -> RigCalibration:
    left = CameraModel(
        fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180,
        dist=np.array([-0.03, 0.0, 0.0, 0.0]),
    )
    right = dataclasses.replace(
        left,
        dist=np.array([-0.02, 0.0, 0.0, 0.0]),
        T_body_cam=Se3(np.array([0.0, 0.0, 0.0, 1.0]), np.array([baseline, 0.0, 0.0])),
    )
    return RigCalibration("synthetic_stereo", ("left", "right"), (left, right))


def _linear_trajectory(start, end, duration: float, n_samples: int = 11) -> PoseTrajectory:
    ts = np.linspace(0.0, duration, n_samples)
    alphas = ts / duration
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    trans = start + alphas[:, None] * (end - start)
    quats = np.tile([0.0, 0.0, 0.0, 1.0], (n_samples, 1))
    return PoseTrajectory(ts, quats, trans)


def _room_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Two wall edges plus a random cloud, all inside the 0.45-4 m range
    and the reference frustum (with margin for the lateral sweep)."""
    n_seg = max(min(40, n // 10), 0)
    segs = []
    if n >= 80:
        segs.append(segment_points((-0.4, -0.35, 1.2), (0.4, -0.35, 1.2), n_seg))
        segs.append(segment_points((-0.8, 0.3, 2.6), (0.8, 0.3, 2.6), n_seg))
    n_cloud = n - sum(len(s) for s in segs)
    z = rng.uniform(0.7, 3.5, n_cloud)
    x = rng.uniform(-0.33, 0.33, n_cloud) * z
    y = rng.uniform(-0.27, 0.27, n_cloud) * z
    return np.concatenate(segs + [np.stack([x, y, z], axis=-1)])


def _corridor_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Side-wall points of a long corridor (forward-motion regime)."""
    half = n // 2
    z = rng.uniform(2.8, 10.0, n)
    y = rng.uniform(-0.5, 0.5, n)
    x = np.where(np.arange(n) < half, -0.8, 0.8)
    return np.stack([x, y, z], axis=-1)


def make_scenario(name: str, n_points: int = 500, seed: int = 7) -> Scenario:
    """Build one of the named verification scenarios.

    lateral_room: stereo rig (11.84 cm baseline) sweeping 0.5 m laterally
    through a 0.45-4 m room. forward_corridor: the same rig driving
    forward 0.5 m in a 1-20 m corridor (low-parallax regime).
    noisy_left: lateral_room with 20% spurious events injected into the
    left stream only (uncorrelated across cameras).
    """
    rng = np.random.default_rng(seed)
    duration = 0.5
    if name in ("lateral_room", "noisy_left"):
        rig = _stereo_rig(0.1184)
        traj = _linear_trajectory((-0.25, 0.0, 0.0), (0.25, 0.0, 0.0), duration)
        scene = SyntheticScene(_room_points(n_points, rng), theta=1.0, seed=seed)
        config = PipelineConfig(
            chunk_duration=duration, z_min=0.45, z_max=4.0, num_planes=100,
            fusion="harmonic", voting="bilinear",
            threshold_sigma=7.0, threshold_offset=8.0, nms_radius=1,
            median_kernel=1, subvoxel=True,
        )
        noise = 0.2 if name == "noisy_left" else 0.0
        if name == "noisy_left":
            # Permissive mask so camera-specific ghosts reach the output and
            # the fusion operators differ where it matters.
            config.threshold_offset = -2.0
            config.nms_radius = 0
            config.median_kernel = 5
        return Scenario(name, scene, rig, traj, config, sim_dt=1e-3,
                        noise_fraction=noise)
    if name == "forward_corridor":
        rig = _stereo_rig(0.1184)
        traj = _linear_trajectory((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), duration)
        scene = SyntheticScene(_corridor_points(n_points, rng), theta=1.0, seed=seed)
        config = PipelineConfig(
            chunk_duration=duration, z_min=1.0, z_max=20.0, num_planes=100,
            fusion="harmonic", voting="bilinear",
            threshold_sigma=7.0, threshold_offset=8.0, nms_radius=1,
            median_kernel=1, subvoxel=True,
        )
        return Scenario(name, scene, rig, traj, config, sim_dt=1e-3)
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
