"""End-to-end orchestration: chunk the streams, build one DSI per camera
at a shared reference view, fuse, and extract semi-dense depth.

Chunks are independent work units; within a chunk, voting splits the
depth planes across workers (worker count capped by RAYSWEEP_THREADS).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import numbers
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

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
from .dsi import VOTING_MODES, DsiGrid, FusionOp, fuse, resolve_workers, vote_events
from .errors import OutOfTrajectoryRange, RaysweepError
from .events import Chunk, EventStream, chunk_events, select_reference_view
from .geometry import PoseTrajectory

log = logging.getLogger(__name__)

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
    and per-stage timings in seconds.
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
    keep_fused: bool = False,
) -> ChunkOutput:
    """Run reference-view selection, per-camera voting, fusion, and depth
    extraction for one chunk. Assumes trajectory coverage was checked."""
    timings = {}
    t0 = time.perf_counter()
    ref_view = select_reference_view(chunk, traj, rig.cameras[0])
    chunk.reference_view = ref_view
    ref_grid = DsiGrid.create(
        ref_view, rig.cameras[0], config.z_min, config.z_max,
        config.num_planes, config.width, config.height,
    )
    timings["reference"] = time.perf_counter() - t0

    op = FusionOp.from_string(config.fusion)
    kernel = resolve_kernel("auto")
    per_camera = {}
    t0 = time.perf_counter()
    grids = []
    for cid, cam in zip(rig.camera_ids, rig.cameras):
        stream = chunk.events.get(cid, EventStream.empty(cid))
        grid = ref_grid.copy_empty()
        vote_events(grid, stream, cam, traj=traj, mode=config.voting,
                    kernel=kernel, workers=workers)
        grids.append(grid)
        per_camera[cid] = {
            "events_read": len(stream),
            "events_voted": len(stream) - grid.skipped_events,
            "events_skipped": grid.skipped_events,
            "votes": grid.total_votes(),
        }
    timings["voting"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    fused = fuse(grids, op) if len(grids) >= 2 else grids[0]
    timings["fusion"] = time.perf_counter() - t0

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
        "fused_votes": fused.total_votes(),
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
    if keep_fused or config.dump_dsi:
        out.fused = fused
        out.camera_grids = grids
    return out


def run_pipeline(
    config: PipelineConfig,
    *,
    streams: dict[str, EventStream] | None = None,
    rig: rio.RigCalibration | None = None,
    traj: PoseTrajectory | None = None,
    workers: int | None = None,
    keep_fused: bool = False,
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
        for cid, cam in zip(rig.camera_ids, rig.cameras):
            if cid in streams:
                streams[cid].check_bounds(cam)

    ordered = [streams[cid] for cid in rig.camera_ids if cid in streams]
    chunks = chunk_events(ordered, config.chunk_duration)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

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
            result = process_chunk(
                chunk, rig, traj, config, workers=workers,
                keep_fused=keep_fused,
            )
        except (RaysweepError, OutOfTrajectoryRange) as e:
            raise RaysweepError(
                f"chunk {chunk.index} [{chunk.t_start:.3f}, {chunk.t_end:.3f}): {e}"
            ) from e
        outputs.append(result)
        if out_dir and result.result is not None:
            _write_outputs(result, out_dir, config, rig.camera_ids)

    if out_dir:
        with open(out_dir / "stats.json", "w") as fh:
            json.dump([o.stats for o in outputs], fh, indent=2, default=float)
            fh.write("\n")
    return outputs


def _write_outputs(out: ChunkOutput, out_dir: Path, config: PipelineConfig,
                   camera_ids=()):
    tag = f"chunk{out.index:03d}"
    rio.write_depth_pfm(out.result, out_dir / f"depth_{tag}.pfm")
    rio.write_confidence_pgm(out.result, out_dir / f"confidence_{tag}.pgm")
    rio.write_ply(out.result, out_dir / f"cloud_{tag}.ply")
    if config.dump_dsi and out.fused is not None:
        rio.write_dsi(out.fused, out_dir / f"dsi_fused_{tag}.bin")
        for cid, grid in zip(camera_ids, out.camera_grids or ()):
            rio.write_dsi(grid, out_dir / f"dsi_{cid}_{tag}.bin")
