"""Ray-density volumes (DSIs) anchored at a shared reference view, the
voting engine that fills them, and the element-wise fusion operators.

A DSI counts, per reference-view pixel and depth plane, how many event
rays pass through that voxel. Depth planes are sampled uniformly in
inverse depth so disparity resolution is constant across the range.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _sweep
from .errors import InvalidDepthRange, MisalignedDsi
from .events import Event, EventStream
from .geometry import (
    CameraModel,
    PoseTrajectory,
    Se3,
    intersect_ray_with_depth_plane,
    quat_conjugate,
    quat_mul,
    quat_rotate,
    relative_pose,
)

VOTING_MODES = ("nearest", "bilinear")

# Above this coefficient magnitude the affine sweep form loses more than
# ~1e-13 px to cancellation; such rays are intersected directly instead.
_AFFINE_COND_BOUND = 1e3

_RayPrep = namedtuple(
    "_RayPrep",
    ["a_u", "a_v", "b_u", "b_v", "lo", "hi", "origins", "dirs", "affine_ok"],
)


def inverse_depth_samples(z_min: float, z_max: float, num_planes: int) -> np.ndarray:
    """Inverse depths, uniformly spaced from 1/z_min down to 1/z_max."""
    if not (0.0 < z_min < z_max) or num_planes < 2:
        raise InvalidDepthRange(
            f"need 0 < z_min < z_max and num_planes >= 2, got "
            f"({z_min}, {z_max}, {num_planes})"
        )
    return np.linspace(1.0 / z_min, 1.0 / z_max, num_planes)


def plane_depths(z_min: float, z_max: float, num_planes: int) -> np.ndarray:
    """Depth-plane positions: uniform in inverse depth, endpoints exact."""
    zs = 1.0 / inverse_depth_samples(z_min, z_max, num_planes)
    zs[0] = z_min
    zs[-1] = z_max
    return zs


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count; RAYSWEEP_THREADS caps it (0 = auto)."""
    env = os.environ.get("RAYSWEEP_THREADS", "0")
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"RAYSWEEP_THREADS must be an integer, got {env!r}")
    if cap < 0:
        raise ValueError("RAYSWEEP_THREADS must be >= 0")
    if workers is None:
        workers = cap
    if workers < 0:
        raise ValueError("worker count must be >= 0")
    if workers == 0:
        workers = os.cpu_count() or 1
    if cap > 0:
        workers = min(workers, cap)
    return workers


# ---------------------------------------------------------------------------
# grid

@dataclass(eq=False)
class DsiGrid:
    """W x H x Nz nonnegative ray-density volume at a reference view.

    ``votes`` is stored as (num_planes, height, width), or is None in a
    grid of geometry only; the reference view is an ideal
    (distortion-free) pinhole at the left camera's intrinsics.
    """

    width: int
    height: int
    z_min: float
    z_max: float
    inv_depths: np.ndarray
    depths: np.ndarray
    ref_pose: Se3
    ref_intrinsics: CameraModel
    votes: np.ndarray | None
    skipped_events: int = 0

    @classmethod
    def create(
        cls,
        ref_pose: Se3,
        ref_intrinsics: CameraModel,
        z_min: float,
        z_max: float,
        num_planes: int,
        width: int | None = None,
        height: int | None = None,
        votes: np.ndarray | None = None,
        *,
        allocate: bool = True,
    ) -> "DsiGrid":
        """A grid at the reference view; ``width``/``height`` default to the
        camera's. ``votes`` is an existing (num_planes, height, width)
        float64 array to hold the volume, contents kept; None allocates a
        zeroed one, or, with ``allocate=False``, leaves ``votes`` None: a
        grid of geometry only, as the pipeline uses when no step reads the
        fused volume."""
        width = int(width if width is not None else ref_intrinsics.width)
        height = int(height if height is not None else ref_intrinsics.height)
        shape = (int(num_planes), height, width)
        if votes is None:
            votes = np.zeros(shape) if allocate else None
        elif votes.shape != shape or votes.dtype != np.float64:
            raise ValueError(f"votes must be a float64 array of shape {shape}, "
                             f"got {votes.dtype} {votes.shape}")
        if ref_intrinsics.has_distortion or width != ref_intrinsics.width \
                or height != ref_intrinsics.height:
            ref_intrinsics = dataclasses.replace(
                ref_intrinsics, dist=np.zeros(4), width=width, height=height
            )
        return cls(
            width=width,
            height=height,
            z_min=float(z_min),
            z_max=float(z_max),
            inv_depths=inverse_depth_samples(z_min, z_max, num_planes),
            depths=plane_depths(z_min, z_max, num_planes),
            ref_pose=ref_pose,
            ref_intrinsics=ref_intrinsics,
            votes=votes,
        )

    @property
    def num_planes(self) -> int:
        return len(self.inv_depths)

    def copy_empty(self) -> "DsiGrid":
        return dataclasses.replace(
            self, votes=np.zeros(self.votes.shape), skipped_events=0
        )

    def copy(self) -> "DsiGrid":
        return dataclasses.replace(self, votes=self.votes.copy())

    def total_votes(self) -> float:
        return float(self.votes.sum())


def _check_aligned(grids):
    ref = grids[0]
    for g in grids[1:]:
        same = (
            g.width == ref.width
            and g.height == ref.height
            and g.num_planes == ref.num_planes
            and np.array_equal(g.inv_depths, ref.inv_depths)
            and np.array_equal(g.ref_pose.quat, ref.ref_pose.quat)
            and np.array_equal(g.ref_pose.trans, ref.ref_pose.trans)
            and (g.ref_intrinsics.fx, g.ref_intrinsics.fy,
                 g.ref_intrinsics.cx, g.ref_intrinsics.cy)
            == (ref.ref_intrinsics.fx, ref.ref_intrinsics.fy,
                ref.ref_intrinsics.cx, ref.ref_intrinsics.cy)
        )
        if not same:
            raise MisalignedDsi("grids differ in shape, sampling, or reference view")


# ---------------------------------------------------------------------------
# voting

def _pixel_bearings(events: EventStream, cam: CameraModel):
    """The undistorted bearings (m, 2) of the distinct pixels of ``events``
    in ascending pixel order, and each event's index into them.

    Streams revisit pixels heavily, so each pixel is undistorted once. An
    occupancy table over the W*H pixels lists them without sorting: the
    same pixels and indices as ``np.unique(code, return_inverse=True)``.
    """
    events.check_bounds(cam)
    width = cam.width
    code = np.multiply(events.y, width, dtype=np.int64)
    code += events.x
    seen = np.zeros(width * cam.height, dtype=bool)
    seen[code] = True
    uniq = np.flatnonzero(seen)
    index = np.empty(seen.size, dtype=np.int64)
    index[uniq] = np.arange(uniq.size)
    upix = np.empty((uniq.size, 2))
    upix[:, 1], upix[:, 0] = np.divmod(uniq, width)
    return cam.undistort_pixels(upix), index[code]


def _prepare_rays(grid: DsiGrid, events: EventStream, cam: CameraModel,
                  q_wc: np.ndarray, t_wc: np.ndarray, out=None) -> "_RayPrep":
    """Per-event sweep coefficients and ray geometry of events whose
    cameras sit at (``q_wc``, ``t_wc``); a_u, a_v, b_u, b_v, lo and hi go
    into ``out`` (``_sweep.empty_prep``) where given.

    The ray is expressed in the reference frame: origin = camera center,
    direction = rotated undistorted bearing (u, v, 1). Projection onto
    plane z is then affine in 1/z, and the planes in front of the ray
    origin (lam > 0) form the contiguous index range [lo, hi).

    This numpy form, after ``PoseTrajectory.camera_poses``, is the
    fallback and test oracle of ``_prepare_rays_c``, which interpolates
    the poses too: with the same operations in the same order, every
    output is bit-identical.
    """
    bearings, index = _pixel_bearings(events, cam)
    q_ref_inv = quat_conjugate(grid.ref_pose.quat)
    k = grid.ref_intrinsics
    dirs_cam = np.ones((len(events), 3))
    dirs_cam[:, :2] = bearings[index]

    q_rv_cam = quat_mul(np.broadcast_to(q_ref_inv, q_wc.shape), q_wc)
    origins = quat_rotate(q_ref_inv, t_wc - grid.ref_pose.trans)
    dirs = quat_rotate(q_rv_cam, dirs_cam)

    with np.errstate(divide="ignore", invalid="ignore"):
        dxz = dirs[:, 0] / dirs[:, 2]
        dyz = dirs[:, 1] / dirs[:, 2]
        a_u = k.fx * dxz + k.cx
        a_v = k.fy * dyz + k.cy
        b_u = k.fx * (origins[:, 0] - origins[:, 2] * dxz)
        b_v = k.fy * (origins[:, 1] - origins[:, 2] * dyz)

    o_z = origins[:, 2]
    d_z = dirs[:, 2]
    n = len(events)
    nz = grid.num_planes
    lo = np.zeros(n, dtype=np.int64)
    hi = np.zeros(n, dtype=np.int64)
    fwd = d_z > 0.0
    bwd = d_z < 0.0
    # lam = (z_i - o_z) / d_z > 0: planes strictly beyond the origin along
    # the ray; zs is sorted ascending, so the set is one index interval.
    lo[fwd] = np.searchsorted(grid.depths, o_z[fwd], side="right")
    hi[fwd] = nz
    hi[bwd] = np.searchsorted(grid.depths, o_z[bwd], side="left")

    # The affine u = a + b/z form cancels badly for near-grazing rays; flag
    # events whose coefficients dwarf the pixel range for direct evaluation.
    inv_max = float(grid.inv_depths[0])
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(
            np.maximum(np.abs(a_u), np.abs(a_v)),
            np.maximum(np.abs(b_u), np.abs(b_v)) * inv_max,
        )
    affine_ok = scale < _AFFINE_COND_BOUND  # False also for NaN/inf
    coeffs = (a_u, a_v, b_u, b_v, lo, hi)
    if out is not None:
        for dst, src in zip(out, coeffs):
            dst[...] = src
        coeffs = out
    return _RayPrep(*coeffs, origins, dirs, affine_ok)


@dataclass(frozen=True)
class SweepRays:
    """One camera's events prepared for sweeps into any range of planes.

    ``affine`` holds every event's sweep coefficients (a_u, a_v, b_u, b_v,
    lo, hi), in stream order, with an empty plane range (hi = lo) for each
    near-grazing ray; ``graze`` holds those rays' (origins, dirs, lo, hi,
    index), ``index`` being each one's event index. Hit masks list the
    events in stream order.
    """

    affine: tuple
    graze: tuple

    @property
    def num_events(self) -> int:
        return len(self.affine[4])

    @property
    def plane_tests(self) -> int:
        """The ray-plane tests of a sweep over the whole volume: the sum of
        every ray's hi - lo."""
        return int(np.sum(self.affine[5] - self.affine[4])
                   + np.sum(self.graze[3] - self.graze[2]))


def _prepare_rays_c(grid: DsiGrid, events: EventStream, cam: CameraModel,
                    traj: PoseTrajectory | None, pose: Se3 | None,
                    out=None) -> "_RayPrep":
    """``_prepare_rays`` after the camera poses, from the event times, in
    one compiled pass (``_sweep.prepare_c``), except that ``origins`` and
    ``dirs`` hold only the rays where ``affine_ok`` is False.

    With ``traj``, the C pass interpolates and mounts each event's pose;
    numpy slerps the rotations where the trajectory turns. A fixed
    ``pose`` is a one-sample trajectory that C takes as it is, with no
    mount to compose.
    """
    if traj is not None:
        samples = (traj.times, traj.quats, traj.trans)
        ts, mount = events.t, (cam.T_body_cam.quat, cam.T_body_cam.trans)
        q_body = traj.slerped_quats(ts)
    else:
        samples = (np.zeros(1), pose.quat[None], pose.trans[None])
        ts = mount = q_body = None
    bearings, index = _pixel_bearings(events, cam)
    k = grid.ref_intrinsics
    return _RayPrep(*_sweep.prepare_c(
        *samples, ts, bearings, index, quat_conjugate(grid.ref_pose.quat),
        grid.ref_pose.trans, (k.fx, k.fy, k.cx, k.cy), grid.depths,
        grid.inv_depths[0], _AFFINE_COND_BOUND, mount=mount, q_body=q_body,
        out=out,
    ))


def prepare_sweep(grid: DsiGrid, events: EventStream, cam: CameraModel, *,
                  traj: PoseTrajectory | None = None,
                  pose: Se3 | None = None, out=None) -> SweepRays:
    """Per-event camera poses and rays of ``events`` in ``grid``'s reference
    view: every ray in affine form, the near-grazing ones also for direct
    intersection (``SweepRays``).

    Camera poses come either from ``traj`` (per-event interpolation) or a
    single fixed ``pose``. With the C library, one compiled pass
    (``_prepare_rays_c``) interpolates the poses and prepares the rays;
    only slerp and undistortion run in numpy. Without it, numpy's
    ``camera_poses`` and ``_prepare_rays`` give the same bits. This is the
    part of voting that does not depend on the planes: do it once per
    camera, then sweep any plane ranges with ``sweep_band``. ``out``, the
    six arrays of ``_sweep.empty_prep(len(events))`` (or views of larger
    ones), receives every event's affine coefficients, which ``affine``
    then holds.
    """
    if (traj is None) == (pose is None):
        raise ValueError("pass exactly one of traj= or pose=")
    if _sweep.kernel_name() == "c":
        prep = _prepare_rays_c(grid, events, cam, traj, pose, out)
    else:
        if traj is not None:
            q_wc, t_wc = traj.camera_poses(events.t, cam.T_body_cam)
        else:
            q_wc = np.broadcast_to(pose.quat, (len(events), 4))
            t_wc = np.broadcast_to(pose.trans, (len(events), 3))
        prep = _prepare_rays(grid, events, cam, q_wc, t_wc, out)
        graze = ~prep.affine_ok  # as C: the grazing rays' origins and dirs
        prep = prep._replace(origins=prep.origins[graze], dirs=prep.dirs[graze])
    # Near-grazing rays are intersected plane by plane, and their range in
    # the affine arrays is emptied, so that the affine kernels skip them.
    index = np.flatnonzero(~prep.affine_ok)
    lo, hi = prep.lo, prep.hi
    graze = (prep.origins, prep.dirs, lo[index], hi[index], index)
    hi[index] = lo[index]
    return SweepRays(affine=prep[:6], graze=graze)


def sweep_band(grid: DsiGrid, rays: SweepRays, votes: np.ndarray, p0: int,
               mode: str = "bilinear") -> tuple[np.ndarray, int]:
    """Vote prepared rays into planes [p0, p0 + len(votes)) of ``grid``'s
    volume, held by the (planes, height, width) array ``votes``
    (accumulates); ``grid.votes`` itself is not touched unless passed.
    An unknown ``mode`` raises ValueError before any vote is written.

    Returns the hit mask over the events in stream order, whether each
    voted on at least one plane of the band, and the number of (event,
    plane) votes cast. The votes of a plane depend only on the events,
    never on the band, so any split of the planes into bands gives the
    same volume bit for bit, and band counts that add up to the whole
    volume's. The near-grazing rays vote first (``sweep_direct_band``),
    then every other ray: the order of the compiled band loop's votes.

    The pipeline calls this per band and camera only in its Python band
    loop: for the geometric and power means, and without the C library.
    Other chunks sweep and fuse in C (``_sweep.run_sweep`` with
    ``bands``), with the same votes bit for bit.
    """
    if mode not in VOTING_MODES:
        raise ValueError(f"unknown voting mode {mode!r}")
    hit = np.zeros(rays.num_events, dtype=bool)
    cast = sweep_direct_band(grid, rays, votes, p0, mode, hit)
    p1 = p0 + votes.shape[0]
    *coeffs, lo, hi = rays.affine
    # clipped only so that bench/layers.py counts the band's ray-plane tests
    affine_hit, affine_cast = _sweep.run_sweep(
        (*coeffs, np.clip(lo, p0, p1), np.clip(hi, p0, p1)),
        grid.inv_depths, votes, mode, offset=p0)
    hit |= affine_hit
    return hit, cast + affine_cast


def sweep_direct_band(grid: DsiGrid, rays: SweepRays, votes: np.ndarray,
                      p0: int, mode: str, hit: np.ndarray,
                      marks: np.ndarray | None = None) -> int:
    """Vote the near-grazing rays of ``rays`` into planes [p0, p0 +
    len(votes)) of ``grid``'s volume, held by ``votes``, with numpy's
    ``_sweep.sweep_direct``; sets ``hit`` (over every event, in stream
    order) where one voted and returns the votes cast. ``marks``
    (``_sweep.mark_shape`` of ``votes``, or None) is set whole once a vote
    is cast."""
    origins, dirs, lo, hi, index = rays.graze
    if not len(index):
        return 0
    k = grid.ref_intrinsics
    voted, cast = _sweep.sweep_direct(
        origins, dirs, lo, hi, grid.depths, (k.fx, k.fy, k.cx, k.cy), votes,
        bilinear=(mode == "bilinear"), offset=p0, marks=marks)
    hit[index] |= voted
    return cast


def vote_events(
    grid: DsiGrid,
    events: EventStream,
    cam: CameraModel,
    *,
    traj: PoseTrajectory | None = None,
    pose: Se3 | None = None,
    mode: str = "bilinear",
) -> DsiGrid:
    """Back-project a stream slice into ``grid`` (accumulates in place).

    Camera poses come either from ``traj`` (per-event interpolation) or a
    single fixed ``pose``. This is ``prepare_sweep`` and one ``sweep_band``
    over the whole volume, on the calling thread: the plain reference for
    the pipeline's band loop, which splits the planes into bands and the
    bands across workers and gives the same volume bit for bit.
    """
    rays = prepare_sweep(grid, events, cam, traj=traj, pose=pose)
    hit = sweep_band(grid, rays, grid.votes, 0, mode)[0]
    grid.skipped_events += len(events) - int(np.count_nonzero(hit))
    return grid


def vote_event(grid: DsiGrid, event: Event, cam: CameraModel, T_w_cam: Se3,
               mode: str = "bilinear") -> DsiGrid:
    """Vote a single event whose camera sits at ``T_w_cam``."""
    stream = EventStream.from_events("single", [event])
    return vote_events(grid, stream, cam, pose=T_w_cam, mode=mode)


def vote_event_bruteforce(grid: DsiGrid, event: Event, cam: CameraModel,
                          T_w_cam: Se3, mode: str = "bilinear") -> DsiGrid:
    """Reference voter: explicit per-plane ray intersection and projection.

    Shares no sweep math with vote_event (ray built via rotation matrix and
    normalized direction; every plane intersected and projected from the 3D
    point). Used as the differential-testing oracle.
    """
    if mode not in VOTING_MODES:
        raise ValueError(f"unknown voting mode {mode!r}")
    u0, v0 = cam.undistort_pixel((float(event.x), float(event.y)))
    T_rv_cam = relative_pose(grid.ref_pose, T_w_cam)
    d = T_rv_cam.rotation_matrix() @ np.array([u0, v0, 1.0])
    d = d / np.linalg.norm(d)
    origin = T_rv_cam.trans
    k = grid.ref_intrinsics

    hits = 0
    for i in range(grid.num_planes):
        z = float(grid.depths[i])
        pt = intersect_ray_with_depth_plane(origin, d, z)
        if pt is None:
            continue
        u = k.fx * pt[0] / z + k.cx
        v = k.fy * pt[1] / z + k.cy
        if not (0.0 <= u < grid.width and 0.0 <= v < grid.height):
            continue
        if mode == "nearest":
            ix = int(math.floor(u + 0.5))
            iy = int(math.floor(v + 0.5))
            if ix < grid.width and iy < grid.height:
                grid.votes[i, iy, ix] += 1.0
                hits += 1
        else:
            x0 = int(math.floor(u))
            y0 = int(math.floor(v))
            wx = u - x0
            wy = v - y0
            grid.votes[i, y0, x0] += (1.0 - wx) * (1.0 - wy)
            if x0 + 1 < grid.width:
                grid.votes[i, y0, x0 + 1] += wx * (1.0 - wy)
            if y0 + 1 < grid.height:
                grid.votes[i, y0 + 1, x0] += (1.0 - wx) * wy
                if x0 + 1 < grid.width:
                    grid.votes[i, y0 + 1, x0 + 1] += wx * wy
            hits += 1
    if hits == 0:
        grid.skipped_events += 1
    return grid


# ---------------------------------------------------------------------------
# fusion

_FUSION_KINDS = ("min", "harmonic", "geometric", "arithmetic", "rms", "max", "power")


@dataclass(frozen=True)
class FusionOp:
    """Element-wise n-ary mean used to fuse aligned per-camera DSIs.

    ``power`` is the generalized (power) mean with exponent ``p``; p = -1,
    1, 2 coincide with harmonic, arithmetic, and rms, and p = 0 with the
    geometric mean. Harmonic, geometric, min, and power means with p <= 0
    return 0 wherever any input voxel is 0 (AND logic): a fused voxel is
    high only when every camera saw high ray density there.

    ``apply_into`` holds the one implementation, in place and without
    volume-sized temporaries; ``apply`` and ``fuse`` call it.
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _FUSION_KINDS:
            raise ValueError(f"unknown fusion kind {self.kind!r}")
        if self.kind == "power" and self.p is None:
            raise ValueError("power mean needs an exponent p")
        if self.kind == "power" and not math.isfinite(self.p):
            # p = +-inf turns a voxel one camera never voted on into 1
            raise ValueError("the power mean's exponent must be finite")

    @classmethod
    def from_string(cls, spec: str) -> "FusionOp":
        spec = spec.strip().lower()
        if spec.startswith("power:"):
            try:
                return cls("power", float(spec.split(":", 1)[1]))
            except ValueError as e:  # a bad or non-finite exponent
                raise ValueError(f"fusion {spec!r}: {e}") from None
        return cls(spec)

    def __str__(self):
        return f"power:{self.p:g}" if self.kind == "power" else self.kind

    def apply(self, stack: np.ndarray) -> np.ndarray:
        """Fuse along axis 0 of ``stack`` (n_grids, ...); inputs >= 0."""
        return self.apply_into(np.array(stack, dtype=np.float64),
                               np.empty(stack.shape[1:]))

    def apply_into(self, stack: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fuse along axis 0 of the float64 ``stack`` (n_grids, ...) into
        ``out``; inputs >= 0. ``stack`` is overwritten as workspace.

        The AND logic of harmonic, geometric and p < 0 power means comes
        from IEEE arithmetic, with no masks: a zero input turns into
        1/0 = +inf, log 0 = -inf or 0**p = +inf, so that voxel's sum is
        infinite and its result n/inf, exp(-inf) or inf**(1/p) is exactly
        +0.0. Every other voxel goes through the same operations, in the
        same order, as in the whole-stack form (zeros replaced by 1, then
        the result multiplied by the all-positive mask), so each result is
        bit-identical to it.
        """
        n = stack.shape[0]
        if self.kind == "min":
            return np.min(stack, axis=0, out=out)
        if self.kind == "max":
            return np.max(stack, axis=0, out=out)
        if self.kind == "arithmetic":
            return np.mean(stack, axis=0, out=out)
        if self.kind == "rms":
            np.square(stack, out=stack)
            np.mean(stack, axis=0, out=out)
            return np.sqrt(out, out=out)

        kind = self.kind
        if kind == "power" and abs(self.p) < 1e-4:
            kind = "geometric"  # x**p degenerates numerically; use the p->0 limit
        with np.errstate(divide="ignore"):
            if kind == "harmonic":
                np.divide(1.0, stack, out=stack)
                np.sum(stack, axis=0, out=out)
                return np.divide(n, out, out=out)
            if kind == "geometric":
                np.log(stack, out=stack)
                np.sum(stack, axis=0, out=out)
                np.divide(out, n, out=out)
                return np.exp(out, out=out)
            p = float(self.p)
            np.power(stack, p, out=stack)
            np.mean(stack, axis=0, out=out)
            return np.power(out, 1.0 / p, out=out)


MIN = FusionOp("min")
HARMONIC = FusionOp("harmonic")
GEOMETRIC = FusionOp("geometric")
ARITHMETIC = FusionOp("arithmetic")
RMS = FusionOp("rms")
MAX = FusionOp("max")


def fuse(grids, op: FusionOp) -> DsiGrid:
    """Fuse n >= 2 aligned per-camera DSIs into one, voxel-wise.

    Fuses one depth plane at a time: plane i of every grid is copied into
    one reused (n, H, W) buffer, which ``op.apply_into`` turns into plane
    i of the output volume in place. Apart from the output, the call
    allocates n planes, no volume-sized temporaries. Every operator is
    element-wise over the planes and sums along the grid axis in the same
    order, so the result is bit-identical to fusing the whole stack at
    once.
    """
    grids = list(grids)
    if len(grids) < 2:
        raise ValueError("fusion needs at least two grids")
    _check_aligned(grids)
    fused = grids[0].copy_empty()
    planes = np.empty((len(grids),) + fused.votes.shape[1:])
    for i in range(fused.num_planes):
        for k, g in enumerate(grids):
            planes[k] = g.votes[i]
        op.apply_into(planes, fused.votes[i])
    fused.skipped_events = sum(g.skipped_events for g in grids)
    return fused


def empty_peak(height: int, width: int):
    """The running per-pixel maximum before any plane: confidence 0 and
    plane 0. Votes are >= 0, so a pixel whose votes are all 0 keeps plane
    0, as ``np.argmax`` gives it, and only a positive vote moves a best."""
    return (np.zeros((height, width)), np.zeros((height, width), dtype=np.int64))


def update_peak(planes, p0: int, confidence: np.ndarray, best: np.ndarray):
    """Fold ``planes``, the planes p0, p0 + 1, ... of a volume, into the
    running per-pixel maximum ``confidence`` and its plane ``best``, where
    strictly greater. Over every plane in order that is the first maximum,
    as ``np.argmax(votes, axis=0)`` gives it on NaN-free votes, in a few
    planes of memory."""
    greater = np.empty(confidence.shape, dtype=bool)
    for i, plane in enumerate(planes, p0):
        np.greater(plane, confidence, out=greater)
        np.copyto(confidence, plane, where=greater)
        np.copyto(best, i, where=greater)


def _track_band(out, p0: int, confidence, best, around, prev):
    """The numpy form of the C pass's tracking, after ``update_peak``: the
    fused votes beside each pixel's best plane, ``around[0]`` at best - 1
    and ``around[1]`` at best + 1, kept band by band so that sub-plane
    refinement needs no volume. With i = best - p0, a pixel with a vote
    and i in [-1, len(out)) takes ``around[0]`` from ``out`` at i - 1, or
    from ``prev``, the previous band's last plane, for i = 0 when given,
    and ``around[1]`` at i + 1 where ``out`` holds it: for i = -1, a best
    on the previous band's last plane, that is the band's first. After a
    run of bands, in plane order from an ``empty_peak``, ``around`` holds
    both wherever the run holds those planes."""
    i = best - p0
    iy, ix = np.nonzero((confidence > 0.0) & (i >= -1) & (i < len(out)))
    i = i[iy, ix]
    has = i > 0
    around[0, iy[has], ix[has]] = out[i[has] - 1, iy[has], ix[has]]
    if prev is not None:
        has = i == 0
        around[0, iy[has], ix[has]] = prev[iy[has], ix[has]]
    has = i + 1 < len(out)
    around[1, iy[has], ix[has]] = out[i[has] + 1, iy[has], ix[has]]


def fuse_band(op: FusionOp, stack: np.ndarray, out: np.ndarray, p0: int, peak,
              around: np.ndarray, prev: np.ndarray | None = None):
    """Fuse one band of every camera's votes and zero them, in numpy.

    ``stack`` (cameras, planes, H, W) holds the votes on the planes
    [p0, p0 + planes) of the volume, ``out`` receives their fusion and
    ``peak``, an ``empty_peak`` pair, is updated with the fused planes
    (``update_peak``); ``stack`` is then all zeros, ready for the next
    band. The bands of one run come in plane order from an
    ``empty_peak``, and each call also keeps in ``around``, a (2, H, W)
    array, the fused votes beside each best plane (``_track_band``);
    ``prev`` is the previous band's last fused plane, None for the run's
    first band.

    For the kinds in ``_sweep.FUSE_KINDS`` the C ``run_bands`` takes this
    step with the same IEEE operations in numpy's order, so every output is
    bit-identical. This numpy form is its fallback and test oracle, and the
    only form of the geometric and power means.
    """
    op.apply_into(stack, out)  # overwrites stack
    update_peak(out, p0, *peak)
    _track_band(out, p0, *peak, around, prev)
    stack.fill(0.0)
