"""End-to-end orchestration: chunk the streams, vote every camera's rays
into a shared reference view, fuse, and extract semi-dense depth.

Chunks are independent work units. Within a chunk, voting and fusion run
one band of depth planes at a time, so the per-camera volumes never exist
as a whole; workers take whole bands (worker count capped by
RAYSWEEP_THREADS).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import numbers
import os
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as rio
from ._sweep import resolve_kernel
from .depth import (
    DepthResult,
    adaptive_threshold,
    extract_depth,
    local_peak_mask,
    median_filter_depth,
    refine_result,
)
# vote_events and fuse, the whole-volume API, stay importable here: the
# traced benchmark wraps them in this namespace by name.
from .dsi import (  # noqa: F401
    VOTING_MODES,
    DsiGrid,
    FusionOp,
    fuse,
    prepare_sweep,
    resolve_workers,
    sweep_band,
    vote_events,
)
from .errors import DsiTooLarge, RaysweepError
from .events import Chunk, EventStream, chunk_events, select_reference_view
from .geometry import PoseTrajectory

log = logging.getLogger(__name__)

# Depth planes voted and fused per step. A worker's voting memory is one
# (cameras, BAND_PLANES, H, W) buffer; chunk times on lateral_room were the
# same at bands of 1 to 16 planes.
BAND_PLANES = 4

# Config fields holding file paths (str or path-like); the others are
# type-checked against their annotations by PipelineConfig.validate.
_PATH_FIELDS = ("events", "trajectory", "calibration", "out_dir")

# Annotation -> accepted value types; bool, an int subclass, is accepted
# only where the annotation is bool.
_FIELD_TYPES = {
    int: (numbers.Integral, "an int"),
    float: (numbers.Real, "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


@dataclass
class PipelineConfig:
    """Everything the pipeline needs; every field maps 1:1 to a config-file
    key and, except the input paths (events, trajectory, calibration), to a
    ``raysweep map`` flag (flags win)."""

    events: list[str] = field(default_factory=list)  # per camera, rig order
    trajectory: str | None = None
    calibration: str | None = None
    out_dir: str | None = None

    chunk_duration: float = 0.5
    width: int | None = None     # DSI size; None = reference camera size
    height: int | None = None
    num_planes: int = 100
    z_min: float = 0.45
    z_max: float = 4.0
    fusion: str = "harmonic"
    voting: str = "bilinear"
    threshold_sigma: float = 7.0
    threshold_offset: float = -6.0
    nms_radius: int = 0          # 0 = off; >0 keeps local confidence maxima
    median_kernel: int = 5
    subvoxel: bool = True
    dump_dsi: bool = False

    def validate(self):
        self._check_types()
        for name in ("chunk_duration", "z_min", "z_max", "threshold_sigma",
                     "threshold_offset"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.chunk_duration <= 0.0:
            raise ValueError("chunk_duration must be positive")
        if not (0.0 < self.z_min < self.z_max):
            raise ValueError("need 0 < z_min < z_max")
        if self.num_planes < 2:
            raise ValueError("num_planes must be >= 2")
        if self.voting not in VOTING_MODES:
            raise ValueError(f"voting must be one of {VOTING_MODES}")
        FusionOp.from_string(self.fusion)  # raises on bad spec
        if self.threshold_sigma <= 0.0:
            raise ValueError("threshold_sigma must be positive")
        if self.median_kernel < 1 or self.median_kernel % 2 == 0:
            raise ValueError("median_kernel must be odd and >= 1")
        if self.nms_radius < 0:
            raise ValueError("nms_radius must be >= 0")
        for dim in (self.width, self.height):
            if dim is not None and dim < 1:
                raise ValueError("DSI dimensions must be positive")
        return self

    def _check_types(self):
        """Reject a value whose type the field's annotation does not allow,
        e.g. a JSON string or bool where a number or a bool belongs."""
        hints = typing.get_type_hints(type(self))
        for f in dataclasses.fields(self):
            if f.name in _PATH_FIELDS:
                continue
            value = getattr(self, f.name)
            kind = hints[f.name]
            if type(None) in typing.get_args(kind):  # int | None -> int
                if value is None:
                    continue
                kind = typing.get_args(kind)[0]
            accepted, text = _FIELD_TYPES[kind]
            if not isinstance(value, accepted) or (
                    isinstance(value, bool) and kind is not bool):
                raise ValueError(f"{f.name} must be {text}, got {value!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        with open(path, "r") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ChunkOutput:
    """Result of one chunk: the (post-processed) depth result plus stats.

    ``stats`` records events read/voted/skipped per camera, vote totals,
    and per-stage timings in seconds. ``fused`` and ``camera_grids`` are
    set only with ``config.dump_dsi``, and ``run_pipeline`` drops them
    once written.
    """

    index: int
    t_start: float
    t_end: float
    result: DepthResult | None
    stats: dict
    skipped: bool = False
    fused: DsiGrid | None = None
    camera_grids: list[DsiGrid] | None = None


def process_chunk(
    chunk: Chunk,
    rig: rio.RigCalibration,
    traj: PoseTrajectory,
    config: PipelineConfig,
    workers: int = 1,
    volume: np.ndarray | None = None,
) -> ChunkOutput:
    """Run reference-view selection, per-camera voting, fusion, and depth
    extraction for one chunk. Assumes trajectory coverage was checked.

    The fused DSI is written into ``volume``, a (num_planes, height, width)
    float64 array whose contents are overwritten (``run_pipeline`` passes
    one for all its chunks); None allocates one. With ``config.dump_dsi``
    the chunk also gets fresh per-camera volumes, and its output holds
    them and the fused DSI (which wraps ``volume``) for writing.
    """
    timings = {}
    t0 = time.perf_counter()
    ref_view = select_reference_view(chunk, traj, rig.cameras[0])
    fused = DsiGrid.create(
        ref_view, rig.cameras[0], config.z_min, config.z_max,
        config.num_planes, config.width, config.height, votes=volume,
    )
    timings["reference"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    streams = [chunk.events[cid] for cid in rig.camera_ids]
    rays = [prepare_sweep(fused, stream, cam, traj=traj)
            for stream, cam in zip(streams, rig.cameras)]
    timings["rays"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    kernel = resolve_kernel("auto")
    cameras = np.empty((len(rays),) + fused.votes.shape) if config.dump_dsi else None
    hits, votes, fused_votes = _vote_and_fuse(
        fused, rays, FusionOp.from_string(config.fusion), config.voting, kernel,
        workers, cameras,
    )
    timings["vote_fuse"] = time.perf_counter() - t0

    per_camera = {}
    skipped = []
    for cid, stream, hit, total in zip(rig.camera_ids, streams, hits, votes):
        skipped.append(len(stream) - int(np.count_nonzero(hit)))
        per_camera[cid] = {
            "events_read": len(stream),
            "events_voted": len(stream) - skipped[-1],
            "events_skipped": skipped[-1],
            "votes": total,
        }
    fused.skipped_events = sum(skipped)

    t0 = time.perf_counter()
    result = extract_depth(fused)
    keep = adaptive_threshold(
        result.confidence, config.threshold_sigma, config.threshold_offset
    )
    if config.nms_radius > 0:
        keep &= local_peak_mask(result.confidence, config.nms_radius)
    result = dataclasses.replace(result, mask=result.mask & keep)
    result = median_filter_depth(result, config.median_kernel)
    if config.subvoxel:
        result = refine_result(fused, result)
    timings["extraction"] = time.perf_counter() - t0

    stats = {
        "chunk": chunk.index,
        "t_start": chunk.t_start,
        "t_end": chunk.t_end,
        "cameras": per_camera,
        "events_read": sum(c["events_read"] for c in per_camera.values()),
        "events_voted": sum(c["events_voted"] for c in per_camera.values()),
        "events_skipped": sum(c["events_skipped"] for c in per_camera.values()),
        "fused_votes": fused_votes,
        "valid_pixels": result.num_valid,
        "kernel": kernel,
        "timings": timings,
    }
    log.info(
        "chunk %d [%.3f, %.3f): %d events -> %.0f fused votes -> %d pixels",
        chunk.index, chunk.t_start, chunk.t_end,
        stats["events_read"], stats["fused_votes"], stats["valid_pixels"],
    )
    out = ChunkOutput(chunk.index, chunk.t_start, chunk.t_end, result, stats)
    if cameras is not None:
        out.fused = fused
        out.camera_grids = [dataclasses.replace(fused, votes=v, skipped_events=n)
                            for v, n in zip(cameras, skipped)]
    return out


def _vote_and_fuse(fused: DsiGrid, rays, op: FusionOp, mode: str, kernel: str,
                   workers: int, cameras: np.ndarray | None = None):
    """Vote every camera's prepared rays and fuse them into ``fused.votes``,
    one band of BAND_PLANES planes at a time.

    Each band of every camera is swept into a zeroed (cameras, band, H, W)
    buffer, summed, copied into ``cameras`` (the per-camera volumes, when
    kept) and fused into the band's planes of ``fused.votes``; the buffer
    is then reused for the next band. Workers take contiguous runs of whole
    bands, each with its own buffer, so fusion runs in parallel too. A
    plane's votes depend only on the events and every fusion operator is
    element-wise, so the result is bit-identical to voting whole volumes
    with ``vote_events`` and fusing them with ``fuse``, at any worker
    count.

    Returns, per camera, the hit mask (events that voted on any plane) and
    the vote total, and the fused vote total. A total is the sum of the
    band sums in plane order: the same at any worker count, but not
    bit-equal to ``votes.sum()`` over the whole volume.
    """
    nz, n = fused.num_planes, len(rays)
    bands = [(p0, min(p0 + BAND_PLANES, nz)) for p0 in range(0, nz, BAND_PLANES)]
    workers = max(1, min(workers, len(bands)))
    runs = [bands[len(bands) * j // workers:len(bands) * (j + 1) // workers]
            for j in range(workers)]

    def run(my_bands):
        buf = np.empty((n, BAND_PLANES, fused.height, fused.width))
        hits = [np.zeros(r.num_events, dtype=bool) for r in rays]
        sums = []
        for p0, p1 in my_bands:
            stack = buf[:, :p1 - p0]
            stack.fill(0.0)
            for k, r in enumerate(rays):
                hits[k] |= sweep_band(fused, r, stack[k], p0, mode, kernel)
            if cameras is not None:
                cameras[:, p0:p1] = stack
            band_sums = [float(stack[k].sum()) for k in range(n)]
            out = op.apply_into(stack, fused.votes[p0:p1])  # overwrites stack
            sums.append((band_sums, float(out.sum())))
        return hits, sums

    if workers == 1:
        results = [run(runs[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, runs))
    hits = [np.logical_or.reduce([h[k] for h, _ in results]) for k in range(n)]
    band_sums = [s for _, sums in results for s in sums]  # in plane order
    votes = [sum(cams[k] for cams, _ in band_sums) for k in range(n)]
    return hits, votes, sum(f for _, f in band_sums)


def _check_memory(shape: tuple, n_cameras: int, workers: int, keep: bool) -> int:
    """Bytes one chunk needs for its volumes of ``shape`` (planes, H, W) and
    band buffers: the fused volume, one band buffer per worker and, when
    dumped, the per-camera volumes. Raises DsiTooLarge when that exceeds
    physical memory, before anything is allocated; where the system does
    not report physical memory, nothing is checked."""
    num_planes, height, width = shape
    plane = width * height * 8
    workers = min(workers, -(-num_planes // BAND_PLANES))
    buffers = workers * n_cameras * BAND_PLANES * plane
    need = (1 + (n_cameras if keep else 0)) * num_planes * plane + buffers
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):  # no sysconf, or no such name
        return need
    physical = pages * page_size
    if pages > 0 and page_size > 0 and physical < need:
        raise DsiTooLarge(
            f"the DSI needs {need} bytes ({need / 2**30:.1f} GiB: "
            f"{num_planes} planes of {plane} bytes, {n_cameras} cameras, "
            f"{workers} workers) but the machine has {physical} bytes of "
            f"physical memory; use fewer planes or a smaller width/height"
        )
    return need


def run_pipeline(
    config: PipelineConfig,
    *,
    streams: dict[str, EventStream] | None = None,
    rig: rio.RigCalibration | None = None,
    traj: PoseTrajectory | None = None,
    workers: int | None = None,
) -> list[ChunkOutput]:
    """Run the full mapper. Inputs come from config paths unless given
    in-memory. Chunks not covered by the trajectory are skipped with a
    warning. Returns one ChunkOutput per chunk, empty chunks included.
    """
    config.validate()
    workers = resolve_workers(workers)

    if rig is None:
        if config.calibration is None:
            raise RaysweepError("no calibration provided")
        rig = rio.parse_calibration(config.calibration)
    cam = rig.cameras[0]
    shape = (config.num_planes, config.height or cam.height, config.width or cam.width)
    for name, size, c in (("width", shape[2], cam.cx), ("height", shape[1], cam.cy)):
        if not 0.0 <= c < size:
            raise ValueError(
                f"DSI {name} {size} excludes the principal point (cx, cy) = "
                f"({cam.cx}, {cam.cy}) of the reference camera, which the DSI "
                f"keeps; {name} must exceed {c}"
            )
    _check_memory(shape, len(rig.cameras), workers, config.dump_dsi)
    if traj is None:
        if config.trajectory is None:
            raise RaysweepError("no trajectory provided")
        traj = rio.parse_trajectory(config.trajectory)
    if streams is None:
        if len(config.events) != len(rig.cameras):
            raise RaysweepError(
                f"{len(config.events)} event files for {len(rig.cameras)} cameras"
            )
        streams = {}
        for path, cid, cam in zip(config.events, rig.camera_ids, rig.cameras):
            streams[cid] = rio.parse_events(
                path, cid, width=cam.width, height=cam.height
            )
    else:
        if sorted(streams) != sorted(rig.camera_ids):
            raise RaysweepError(
                f"event streams for cameras {sorted(streams)}, but the rig "
                f"has cameras {sorted(rig.camera_ids)}"
            )
        for cid, cam in zip(rig.camera_ids, rig.cameras):
            if streams[cid].camera_id != cid:
                raise RaysweepError(
                    f"the stream given for camera {cid!r} is camera "
                    f"{streams[cid].camera_id!r}"
                )
            streams[cid].check_bounds(cam)

    ordered = [streams[cid] for cid in rig.camera_ids]
    chunks = chunk_events(ordered, config.chunk_duration)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    volume = np.empty(shape)  # the fused DSI of every chunk
    outputs = []
    for chunk in chunks:
        lo = min(
            (float(s.t[0]) for s in chunk.events.values() if len(s)),
            default=chunk.t_mid,
        )
        hi = max(
            (float(s.t[-1]) for s in chunk.events.values() if len(s)),
            default=chunk.t_mid,
        )
        if not traj.covers(min(lo, chunk.t_mid), max(hi, chunk.t_mid)):
            log.warning(
                "chunk %d [%.3f, %.3f): outside trajectory span, skipped",
                chunk.index, chunk.t_start, chunk.t_end,
            )
            outputs.append(ChunkOutput(
                chunk.index, chunk.t_start, chunk.t_end, None,
                {"chunk": chunk.index, "skipped": "trajectory coverage"},
                skipped=True,
            ))
            continue
        try:
            result = process_chunk(chunk, rig, traj, config, workers=workers,
                                   volume=volume)
        except RaysweepError as e:
            raise RaysweepError(
                f"chunk {chunk.index} [{chunk.t_start:.3f}, {chunk.t_end:.3f}): {e}"
            ) from e
        outputs.append(result)
        if out_dir and result.result is not None:
            _write_outputs(result, out_dir, rig.camera_ids)
        # the next chunk overwrites the fused volume; dumped ones are on disk
        result.fused = result.camera_grids = None

    if out_dir:
        with open(out_dir / "stats.json", "w") as fh:
            json.dump([o.stats for o in outputs], fh, indent=2, default=float)
            fh.write("\n")
    return outputs


def _write_outputs(out: ChunkOutput, out_dir: Path, camera_ids):
    tag = f"chunk{out.index:03d}"
    rio.write_depth_pfm(out.result, out_dir / f"depth_{tag}.pfm")
    rio.write_confidence_pgm(out.result, out_dir / f"confidence_{tag}.pgm")
    rio.write_ply(out.result, out_dir / f"cloud_{tag}.ply")
    if out.fused is not None:  # config.dump_dsi
        rio.write_dsi(out.fused, out_dir / f"dsi_fused_{tag}.bin")
        for cid, grid in zip(camera_ids, out.camera_grids):
            rio.write_dsi(grid, out_dir / f"dsi_{cid}_{tag}.bin")
