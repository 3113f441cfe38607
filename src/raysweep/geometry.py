"""Rigid-body poses, pinhole cameras with radial-tangential distortion, and
the ray / depth-plane primitives used by the space sweep.

Conventions: quaternions are scalar-last ``(x, y, z, w)``; a pose maps child
coordinates into the parent frame (``T_w_b`` takes body points to world);
camera frames are OpenCV-style (+x right, +y down, +z forward, looking +z).
All quaternion helpers broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergedUndistortion, OutOfTrajectoryRange

_QUAT_NORM_TOL = 1e-6
_UNDISTORT_MAX_ITER = 20
_UNDISTORT_STEP_TOL = 1e-10
_RAY_PARALLEL_EPS = 1e-12


# ---------------------------------------------------------------------------
# quaternion helpers

def quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_mul(a, b):
    """Hamilton product of scalar-last quaternions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ax, ay, az, aw = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx, by, bz, bw = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
            aw * bw - ax * bx - ay * by - az * bz,
        ],
        axis=-1,
    )


def quat_conjugate(q):
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([-1.0, -1.0, -1.0, 1.0])


def quat_rotate(q, v):
    """Rotate vectors ``v`` (...,3) by unit quaternions ``q`` (...,4)."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    # v + w t + qv x t with t = 2 qv x v, written out per component: the
    # same products and differences as np.cross, so bit-identical, without
    # its (..., 3) temporaries.
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    out = np.empty(np.broadcast_shapes(q.shape[:-1], v.shape[:-1]) + (3,))
    out[..., 0] = vx + w * tx + (y * tz - z * ty)
    out[..., 1] = vy + w * ty + (z * tx - x * tz)
    out[..., 2] = vz + w * tz + (x * ty - y * tx)
    return out


def quat_to_matrix(q):
    """3x3 rotation matrix (or stack thereof) from unit quaternions."""
    q = np.asarray(q, dtype=np.float64)
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    m = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    m[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    m[..., 0, 1] = 2.0 * (xy - wz)
    m[..., 0, 2] = 2.0 * (xz + wy)
    m[..., 1, 0] = 2.0 * (xy + wz)
    m[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    m[..., 1, 2] = 2.0 * (yz - wx)
    m[..., 2, 0] = 2.0 * (xz - wy)
    m[..., 2, 1] = 2.0 * (yz + wx)
    m[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return m


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * float(angle)
    return np.concatenate([axis * np.sin(half), [np.cos(half)]])


def rotation_angle(q):
    """Magnitude of the rotation encoded by a unit quaternion, in [0, pi]."""
    q = np.asarray(q, dtype=np.float64)
    return 2.0 * np.arctan2(np.linalg.norm(q[..., :3], axis=-1), np.abs(q[..., 3]))


def quat_slerp(q0, q1, alpha):
    """Spherical-linear interpolation, shortest arc (double cover resolved
    by negating ``q1`` when the quaternion dot product is negative)."""
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    dot = np.sum(q0 * q1, axis=-1)
    q1 = np.where(dot[..., None] < 0.0, -q1, q1)
    dot = np.abs(dot)

    # Nearly identical rotations: fall back to normalized lerp.
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    sin_theta = np.sin(theta)
    safe = sin_theta > 1e-9
    sin_safe = np.where(safe, sin_theta, 1.0)
    w0 = np.where(safe, np.sin((1.0 - alpha) * theta) / sin_safe, 1.0 - alpha)
    w1 = np.where(safe, np.sin(alpha * theta) / sin_safe, alpha)
    out = w0[..., None] * q0 + w1[..., None] * q1
    return quat_normalize(out)


# ---------------------------------------------------------------------------
# rigid transforms

def _readonly(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Se3:
    """Rigid transform: scalar-last unit quaternion + translation (meters)."""

    quat: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=np.float64).reshape(4)
        t = np.asarray(self.trans, dtype=np.float64).reshape(3)
        if not (np.isfinite(q).all() and np.isfinite(t).all()):
            raise ValueError(f"quaternion {q} and translation {t} must be finite")
        with np.errstate(over="ignore"):  # a norm past float range is inf
            n = np.linalg.norm(q)
        if abs(n - 1.0) > _QUAT_NORM_TOL:
            raise ValueError(f"quaternion norm {n:.6g} too far from 1")
        object.__setattr__(self, "quat", _readonly(q / n))
        object.__setattr__(self, "trans", _readonly(t))

    @classmethod
    def identity(cls):
        return cls(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))

    @classmethod
    def from_axis_angle(cls, axis, angle, trans=(0.0, 0.0, 0.0)):
        return cls(quat_from_axis_angle(axis, angle), np.asarray(trans, dtype=np.float64))

    def __matmul__(self, other: "Se3") -> "Se3":
        return Se3(
            quat_mul(self.quat, other.quat),
            self.trans + quat_rotate(self.quat, other.trans),
        )

    def inverse(self) -> "Se3":
        qc = quat_conjugate(self.quat)
        return Se3(qc, -quat_rotate(qc, self.trans))

    def apply(self, points):
        """Transform points (...,3) from the child frame into the parent."""
        return quat_rotate(self.quat, points) + self.trans

    def rotation_matrix(self):
        return quat_to_matrix(self.quat)

    def is_close(self, other: "Se3", tol: float = 1e-9) -> bool:
        dq = quat_mul(quat_conjugate(self.quat), other.quat)
        return (
            rotation_angle(dq) <= tol
            and float(np.max(np.abs(self.trans - other.trans))) <= tol
        )

    def __repr__(self):
        q = np.array2string(self.quat, precision=6, suppress_small=True)
        t = np.array2string(self.trans, precision=6, suppress_small=True)
        return f"Se3(quat={q}, trans={t})"


def relative_pose(T_w_a: Se3, T_w_b: Se3) -> Se3:
    """Frame-b pose expressed in frame a: ``inverse(T_w_a) ∘ T_w_b``."""
    return T_w_a.inverse() @ T_w_b


# ---------------------------------------------------------------------------
# camera model

@dataclass(frozen=True, eq=False)
class CameraModel:
    """Pinhole camera with radial-tangential distortion ``(k1, k2, p1, p2)``
    and a rig extrinsic ``T_body_cam`` (camera pose in the body frame)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    dist: np.ndarray = field(default_factory=lambda: np.zeros(4))
    T_body_cam: Se3 = field(default_factory=Se3.identity)

    def __post_init__(self):
        if not (0.0 < self.fx < np.inf and 0.0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError("principal point outside image bounds")
        d = np.asarray(self.dist, dtype=np.float64).reshape(4)
        if not np.isfinite(d).all():
            raise ValueError(f"distortion coefficients {d} must be finite")
        object.__setattr__(self, "dist", _readonly(d))
        R = self.T_body_cam.rotation_matrix()
        if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-9 or np.linalg.det(R) < 0.0:
            raise ValueError("extrinsic rotation is not a proper rotation")

    @property
    def has_distortion(self) -> bool:
        return bool(np.any(self.dist != 0.0))

    def forward_distort(self, xy):
        """Apply the distortion model to normalized image coords (...,2)."""
        xy = np.asarray(xy, dtype=np.float64)
        x, y = xy[..., 0], xy[..., 1]
        k1, k2, p1, p2 = self.dist
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + k2 * r2)
        xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        return np.stack([xd, yd], axis=-1)

    def distort_to_pixel(self, xy):
        """Normalized coords -> pixel coords through distortion + intrinsics."""
        d = self.forward_distort(xy)
        return np.stack(
            [self.fx * d[..., 0] + self.cx, self.fy * d[..., 1] + self.cy], axis=-1
        )

    def project_points(self, pts_cam):
        """Project camera-frame points (...,3); returns (pixels, valid).

        ``valid`` is False for points at or behind the camera plane.
        """
        pts = np.asarray(pts_cam, dtype=np.float64)
        z = pts[..., 2]
        valid = z > 1e-9
        zs = np.where(valid, z, 1.0)
        norm = np.stack([pts[..., 0] / zs, pts[..., 1] / zs], axis=-1)
        return self.distort_to_pixel(norm), valid

    def undistort_pixels(self, pix):
        """Pixel coords (...,2) -> undistorted normalized coords (...,2).

        Fixed-point iteration seeded with the distorted normalized coords;
        verified by pushing the result back through the forward model
        (must land within 1e-6 px). Raises NonConvergedUndistortion.
        """
        pix = np.asarray(pix, dtype=np.float64)
        xd = (pix[..., 0] - self.cx) / self.fx
        yd = (pix[..., 1] - self.cy) / self.fy
        if not self.has_distortion:
            return np.stack([xd, yd], axis=-1)

        k1, k2, p1, p2 = self.dist
        x, y = xd.copy(), yd.copy()
        # Each element freezes once its own step drops below tolerance, so
        # a pixel's result never depends on what else shares the batch.
        active = np.ones(np.shape(x), dtype=bool)
        for _ in range(_UNDISTORT_MAX_ITER):
            r2 = x * x + y * y
            radial = 1.0 + r2 * (k1 + k2 * r2)
            dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
            dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
            x_new = np.where(active, (xd - dx) / radial, x)
            y_new = np.where(active, (yd - dy) / radial, y)
            step = np.maximum(np.abs(x_new - x), np.abs(y_new - y))
            x, y = x_new, y_new
            active = active & (step >= _UNDISTORT_STEP_TOL)
            if not active.any():
                break
        out = np.stack([x, y], axis=-1)
        back = self.distort_to_pixel(out)
        err = np.max(np.abs(back - pix), initial=0.0)
        if not np.isfinite(err) or err > 1e-6:
            raise NonConvergedUndistortion(
                f"undistortion residual {err:.3g} px after {_UNDISTORT_MAX_ITER} iterations"
            )
        return out

    def undistort_pixel(self, pix):
        """Single-pixel convenience wrapper; returns ``(u, v)`` floats."""
        out = self.undistort_pixels(np.asarray(pix, dtype=np.float64).reshape(1, 2))
        return float(out[0, 0]), float(out[0, 1])


# ---------------------------------------------------------------------------
# pose trajectory

def check_span(ts, times):
    """Raise OutOfTrajectoryRange unless every time of ``ts`` is finite and
    within [times[0], times[-1]]."""
    if ts.size == 0:
        return
    t_min, t_max = ts.min(), ts.max()  # NaN where a time is NaN
    if times[0] <= t_min and t_max <= times[-1]:
        return
    finite = np.isfinite(ts)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise OutOfTrajectoryRange(
            f"time {ts[bad]} (index {bad}) is not finite; trajectory span "
            f"[{times[0]:.6f}, {times[-1]:.6f}]"
        )
    raise OutOfTrajectoryRange(
        f"time range [{t_min:.6f}, {t_max:.6f}] outside trajectory span "
        f"[{times[0]:.6f}, {times[-1]:.6f}]"
    )


@dataclass(frozen=True, eq=False)
class PoseTrajectory:
    """Time-indexed world-from-body poses with slerp/lerp interpolation."""

    times: np.ndarray
    quats: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64).reshape(-1)
        if t.size == 0:
            raise ValueError("trajectory must contain at least one sample")
        q = np.asarray(self.quats, dtype=np.float64).reshape(-1, 4)
        p = np.asarray(self.trans, dtype=np.float64).reshape(-1, 3)
        if not (len(t) == len(q) == len(p)):
            raise ValueError("trajectory arrays must share one length")
        for name, arr in (("timestamp", t), ("quaternion", q), ("translation", p)):
            finite = np.isfinite(arr).reshape(len(arr), -1).all(axis=1)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise ValueError(f"trajectory sample {bad}: non-finite {name}")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("trajectory timestamps must be strictly increasing")
        q = quat_normalize(q)
        object.__setattr__(self, "times", _readonly(t))
        object.__setattr__(self, "quats", _readonly(q))
        object.__setattr__(self, "trans", _readonly(p))

    @classmethod
    def from_poses(cls, samples):
        """Build from an iterable of ``(t, Se3)`` pairs."""
        samples = list(samples)
        return cls(
            np.array([s[0] for s in samples]),
            np.array([s[1].quat for s in samples]),
            np.array([s[1].trans for s in samples]),
        )

    def __len__(self):
        return len(self.times)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def covers(self, t0: float, t1: float) -> bool:
        return self.t_start <= t0 and t1 <= self.t_end

    def pose_at(self, i: int) -> Se3:
        return Se3(self.quats[i], self.trans[i])

    def interpolate(self, t: float) -> Se3:
        q, p = self.interpolate_batch(np.array([t]))
        return Se3(q[0], p[0])

    def _segments(self, ts):
        """Each time's segment [lo, hi = lo + 1] of samples, clipped to the
        first and last, its bounds' times t0 and t1, and its fraction
        alpha = (t - t0) / (t1 - t0); for two or more samples."""
        hi = np.searchsorted(self.times, ts, side="right")
        hi = np.clip(hi, 1, len(self.times) - 1)
        lo = hi - 1
        t0, t1 = self.times[lo], self.times[hi]
        return lo, hi, t0, t1, (ts - t0) / (t1 - t0)

    def interpolate_batch(self, ts):
        """Vectorized interpolation; returns ``(quats (N,4), trans (N,3))``.

        Exact samples are returned verbatim; times outside the span, and
        times that are not finite, raise OutOfTrajectoryRange.
        """
        ts = np.asarray(ts, dtype=np.float64).reshape(-1)
        check_span(ts, self.times)
        if len(self.times) == 1:
            return (
                np.repeat(self.quats, ts.size, axis=0),
                np.repeat(self.trans, ts.size, axis=0),
            )
        lo, hi, t0, t1, alpha = self._segments(ts)

        # np.take gathers rows faster than fancy indexing, into fresh arrays
        q_lo = np.take(self.quats, lo, axis=0)
        q_hi = np.take(self.quats, hi, axis=0)
        if np.array_equal(q_lo, q_hi):  # pure-translation segments: no slerp
            q = q_lo
        else:
            q = quat_slerp(q_lo, q_hi, alpha)
        # p_lo + alpha * (p_hi - p_lo), in place
        p_lo = np.take(self.trans, lo, axis=0)
        p = np.take(self.trans, hi, axis=0)
        p -= p_lo
        p *= alpha[:, None]
        p += p_lo

        # Pin exact sample hits to the stored values.
        exact_lo = ts == t0
        exact_hi = ts == t1
        q[exact_lo] = self.quats[lo[exact_lo]]
        p[exact_lo] = self.trans[lo[exact_lo]]
        q[exact_hi] = self.quats[hi[exact_hi]]
        p[exact_hi] = self.trans[hi[exact_hi]]
        return q, p

    def slerped_quats(self, ts):
        """The rotations that ``interpolate_batch`` slerps at the
        non-decreasing ``ts``, before it pins exact sample hits; None where
        it slerps none: no segment that ``ts`` reach rotates.

        This is the part of interpolation that the compiled ray preparation
        leaves to numpy. The segments that ``ts`` reach come from one search
        per sample, not per time: segment j takes the times from the first
        at or after ``times[j]`` to the first at or after ``times[j + 1]``,
        the last one also those at ``times[-1]``.
        """
        ts = np.asarray(ts, dtype=np.float64).reshape(-1)
        check_span(ts, self.times)
        if len(self.times) == 1:
            return None
        if (ts[1:] < ts[:-1]).any():
            raise ValueError("times must be non-decreasing")
        first = np.searchsorted(ts, self.times[:-1])
        reached = np.diff(first, append=ts.size) > 0
        turns = (self.quats[:-1] != self.quats[1:]).any(axis=1)
        if not (reached & turns).any():
            return None
        lo, hi, _, _, alpha = self._segments(ts)
        return quat_slerp(np.take(self.quats, lo, axis=0),
                          np.take(self.quats, hi, axis=0), alpha)

    def camera_poses(self, ts, T_body_cam: Se3):
        """World-from-camera poses at ``ts`` of a camera mounted at
        ``T_body_cam`` on the body: ``(quats (N,4), trans (N,3))``."""
        q_wb, t_wb = self.interpolate_batch(ts)
        q_wc = quat_mul(q_wb, np.broadcast_to(T_body_cam.quat, q_wb.shape))
        t_wc = t_wb + quat_rotate(q_wb, np.broadcast_to(T_body_cam.trans, t_wb.shape))
        return q_wc, t_wc


# ---------------------------------------------------------------------------
# ray / depth-plane intersection

def intersect_ray_with_depth_plane(origin, direction, z):
    """Intersect the ray ``origin + lam*direction`` with the plane ``Z = z``.

    Returns the in-plane point ``(X, Y)`` or None when the intersection lies
    behind the ray origin (lam <= 0) or the ray is parallel to the plane.
    """
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    dz = float(direction[2])
    if abs(dz) < _RAY_PARALLEL_EPS:
        return None
    lam = (float(z) - float(origin[2])) / dz
    if lam <= 0.0:
        return None
    return (
        float(origin[0]) + lam * float(direction[0]),
        float(origin[1]) + lam * float(direction[1]),
    )
