"""End-to-end orchestration: chunk the streams, vote every camera's rays
into a shared reference view, fuse, and extract semi-dense depth.

Chunks are independent work units. Within a chunk, voting and fusion run
one band of depth planes at a time, so the per-camera volumes never exist
as a whole, and the fused volume exists only where a step reads it
(``_needs_volume``); workers prepare one camera's rays each, then take
whole bands (worker count capped by RAYSWEEP_THREADS).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import _sweep
from . import io as rio
from ._sweep import FUSE_KINDS, kernel_name, mark_shape
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
    empty_peak,
    fuse,
    fuse_band,
    prepare_sweep,
    resolve_workers,
    sweep_band,
    sweep_direct_band,
    vote_events,
)
from .errors import DsiTooLarge, ParseError, RaysweepError
from .events import (Chunk, EventStream, chunk_events, chunk_windows,
                     select_reference_view)
from .geometry import PoseTrajectory

log = logging.getLogger(__name__)

# Depth planes voted and fused per step. A worker's voting memory is one
# (cameras, BAND_PLANES, H, W) buffer; chunk times on lateral_room were the
# same at bands of 1 to 16 planes.
BAND_PLANES = 4

# A chunk's band step visits only the marked segments of its bands (see
# _sparse) when its rays' expected ray-plane tests per voxel lie below this.
# Marking costs the sweep ~20-30% and saves the band step up to ~40%.
# Measured on lateral_room (seed 7, 1 worker, 2 vCPUs), median time of a
# run_pipeline call on the sparse path over the dense one, 13 calls each,
# interleaved in one process, at (scene points, chunk seconds): tests per
# voxel 0.066 (500, 0.05) 0.86; 0.106 (2000, 0.02) 0.95; 0.265 (500, 0.2)
# 0.96 and (2000, 0.05) 0.97; 0.525 (2000, 0.1) 1.03; 0.657 (500, 0.5)
# 1.05; 1.058 (2000, 0.2) 1.10.
SPARSE_TESTS_PER_VOXEL = 0.4

# Config fields holding file paths (str or path-like; events a list of
# them), checked apart from the others, whose annotations give their types.
_PATH_FIELDS = ("events", "trajectory", "calibration", "out_dir")


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
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond float range
                finite = False
            if not finite:
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
        path = (str, os.PathLike)
        if not isinstance(self.events, list) or not all(
                isinstance(p, path) for p in self.events):
            raise ValueError(f"events must be a list of paths, got {self.events!r}")
        for name in _PATH_FIELDS[1:]:
            value = getattr(self, name)
            if value is not None and not isinstance(value, path):
                raise ValueError(f"{name} must be a path or null, got {value!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, optional = CONFIG_TYPES[f.name]
            if f.name not in _PATH_FIELDS and not (optional and value is None):
                rio.check_json_type(f.name, value, kind)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            return cls.from_dict(rio.read_json(path))
        except ValueError as e:  # from_dict's, which name no file
            raise ParseError(str(e), path=path) from None


# Each config field's (type, whether it may be None): ``X | None`` is (X, True).
CONFIG_TYPES = {
    name: (typing.get_args(kind)[0], True) if type(None) in typing.get_args(kind)
    else (kind, False)
    for name, kind in typing.get_type_hints(PipelineConfig).items()
}


@dataclass
class ChunkOutput:
    """Result of one chunk: the (post-processed) depth result plus stats.

    ``stats`` records events read/voted/skipped and votes cast per camera,
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


def _needs_volume(config: PipelineConfig) -> bool:
    """Whether a step of the chunk reads the fused volume: the DSI dump,
    or sub-plane refinement after a median filter, which may move a depth
    off its argmax plane. Otherwise all that refinement reads is the votes
    beside each argmax plane, which the band loop always keeps, and no
    chunk allocates a volume."""
    return config.dump_dsi or (config.subvoxel and config.median_kernel > 1)


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
    one for all its chunks when ``_needs_volume``). None allocates one only
    if ``_needs_volume(config)``; otherwise the chunk's fused grid has
    ``votes`` None and no volume exists, and refinement reads the votes
    beside each argmax plane that the band loop keeps. With
    ``config.dump_dsi`` the chunk also gets fresh per-camera volumes, and
    its output holds them and the fused DSI (which wraps ``volume``) for
    writing. With ``workers`` > 1 each camera's rays are prepared on a
    thread of their own; the outputs are the same bits at any count.
    """
    timings = {}
    t0 = time.perf_counter()
    ref_view = select_reference_view(chunk, traj, rig.cameras[0])
    fused = DsiGrid.create(
        ref_view, rig.cameras[0], config.z_min, config.z_max,
        config.num_planes, config.width, config.height, votes=volume,
        allocate=_needs_volume(config),
    )
    timings["reference"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    streams = [chunk.events[cid] for cid in rig.camera_ids]
    # every camera's affine coefficients in one set of arrays, camera k's
    # from starts[k], which the compiled band loop sweeps as they are
    starts = np.cumsum([0] + [len(stream) for stream in streams])
    joined = _sweep.empty_prep(starts[-1])

    def prepare(stream, cam, s, e):
        return prepare_sweep(fused, stream, cam, traj=traj,
                             out=[a[s:e] for a in joined])

    # C prepare, most of a camera's preparation, releases the GIL: the
    # cameras are prepared in parallel, each into its own slices of joined
    rays = _in_parallel(prepare, workers, streams, rig.cameras, starts, starts[1:])
    timings["rays"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    shape = (fused.num_planes, fused.height, fused.width)
    cameras = np.empty((len(rays),) + shape) if config.dump_dsi else None
    op = FusionOp.from_string(config.fusion)
    hits, votes, peak, around = _vote_and_fuse(
        fused, rays, joined, starts, op, config.voting, workers, cameras,
    )
    timings["vote_fuse"] = time.perf_counter() - t0

    per_camera = {}
    skipped = []
    for cid, stream, r, hit, cast in zip(rig.camera_ids, streams, rays, hits,
                                         votes):
        skipped.append(len(stream) - int(np.count_nonzero(hit)))
        per_camera[cid] = {
            "events_read": len(stream),
            "events_voted": len(stream) - skipped[-1],
            "events_skipped": skipped[-1],
            "events_grazing": len(r.graze[2]),
            "votes": cast,
        }
    fused.skipped_events = sum(skipped)

    t0 = time.perf_counter()
    result = extract_depth(fused, peak)
    keep = adaptive_threshold(
        result.confidence, config.threshold_sigma, config.threshold_offset
    )
    if config.nms_radius > 0:
        keep &= local_peak_mask(result.confidence, config.nms_radius)
    result = dataclasses.replace(result, mask=result.mask & keep)
    result = median_filter_depth(result, config.median_kernel)
    if config.subvoxel:
        result = refine_result(fused, result, around)
    timings["extraction"] = time.perf_counter() - t0

    stats = {
        "chunk": chunk.index,
        "t_start": chunk.t_start,
        "t_end": chunk.t_end,
        "cameras": per_camera,
        "events_read": sum(c["events_read"] for c in per_camera.values()),
        "events_voted": sum(c["events_voted"] for c in per_camera.values()),
        "events_skipped": sum(c["events_skipped"] for c in per_camera.values()),
        "valid_pixels": result.num_valid,
        "kernel": kernel_name(),  # the one that prepared and swept the rays
        "band_step": "sparse" if _sparse(rays, op, shape) else "dense",
        "workers": len(_runs(fused.num_planes, workers)),  # band runs
        "timings": timings,
    }
    log.info(
        "chunk %d [%.3f, %.3f): %d events -> %d votes -> %d pixels",
        chunk.index, chunk.t_start, chunk.t_end, stats["events_read"],
        sum(votes), stats["valid_pixels"],
    )
    out = ChunkOutput(chunk.index, chunk.t_start, chunk.t_end, result, stats)
    if cameras is not None:
        out.fused = fused
        out.camera_grids = [dataclasses.replace(fused, votes=v, skipped_events=n)
                            for v, n in zip(cameras, skipped)]
    return out


def _in_parallel(fn, workers: int, *iterables) -> list:
    """``list(map(fn, *iterables))``, run on up to ``workers`` threads when
    that is more than one and there is more than one item, else in a plain
    loop. Either way the error raised is the first failing item's, in
    order."""
    items = list(zip(*iterables))
    if workers <= 1 or len(items) <= 1:
        return [fn(*args) for args in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(lambda args: fn(*args), items))


def _sparse(rays, op: FusionOp, shape: tuple) -> bool:
    """Whether the chunk's sweeps mark the segments they write and its band
    steps visit only those (``_sweep.run_sweep``'s marks): for the compiled
    fusion kinds, when every camera's ray-plane tests over the ``shape``
    volume are fewer than SPARSE_TESTS_PER_VOXEL per voxel. Denser votes
    fill most segments, and marking them costs more than it skips."""
    if op.kind not in FUSE_KINDS or kernel_name() != "c":
        return False
    tests = max((r.plane_tests for r in rays), default=0)
    return tests < SPARSE_TESTS_PER_VOXEL * math.prod(shape)


def _compiled(op: FusionOp) -> bool:
    """Whether a chunk's band loop runs in C (``_sweep.run_sweep`` with
    ``bands``): for the compiled fusion kinds when the library loads."""
    return op.kind in FUSE_KINDS and kernel_name() == "c"


def _runs(num_planes: int, workers: int) -> list:
    """The volume's bands of BAND_PLANES planes, band b being the planes
    [b * BAND_PLANES, min((b + 1) * BAND_PLANES, num_planes)), split into
    contiguous runs of band indices, one per worker and at most one per
    band."""
    bands = -(-num_planes // BAND_PLANES)
    workers = max(1, min(workers, bands))
    return [range(bands * j // workers, bands * (j + 1) // workers)
            for j in range(workers)]


def _vote_and_fuse(fused: DsiGrid, rays, joined, starts, op: FusionOp, mode: str,
                   workers: int, cameras: np.ndarray | None = None):
    """Vote every camera's prepared rays and fuse them, one band of
    BAND_PLANES planes at a time, into ``fused.votes`` or, where that is
    None, into band-sized buffers only.

    Workers take the contiguous runs of bands of ``_runs``, each with its
    own buffers and running maximum, so fusion runs in parallel too. Each
    band of every camera is swept into the worker's zeroed (cameras, band,
    H, W) stack and copied into ``cameras`` (the per-camera volumes, when
    kept). The band step then fuses it into the band's planes of
    ``fused.votes`` (without a volume, into the worker's two band outputs
    in turn, so that the previous band's last plane stays readable),
    folds the fused planes into a running per-pixel maximum, keeps the
    votes beside it in the worker's (2, H, W) array, and zeroes the stack
    for the next band.

    Where ``_compiled`` (min, max, arithmetic, rms or harmonic, and the C
    library loaded), the C ``run_bands`` (``_sweep.run_sweep`` with a
    ``_sweep.Bands``) sweeps, fuses and tracks without the GIL. It takes
    every camera's rays from ``joined``, the ``_sweep.empty_prep`` arrays
    that ``prepare_sweep`` filled, camera k's from ``starts[k]`` in rig
    order. Each worker's whole run is one call, or, where some camera has
    near-grazing rays, one call per band, after numpy's ``sweep_direct``
    has voted those rays into the band (``dsi.sweep_direct_band``). A
    sparse chunk (``_sparse``) sweeps with each worker's marks and fuses
    only the marked segments, keeping a written mask per band output; its
    results are the dense pass's bit for bit. Any other chunk runs the
    same steps from Python, band by band: ``dsi.sweep_band`` per camera,
    then numpy's ``dsi.fuse_band``; this loop is the fallback and the
    oracle of the compiled one, whose outputs are the same bit for bit. A
    plane's votes depend only on the events and every fusion operator is
    element-wise, so the result is bit-identical to voting whole volumes
    with ``vote_events`` and fusing them with ``fuse``, at any worker
    count.

    Returns, per camera, the hit mask (events that voted on any plane) and
    the number of (event, plane) votes cast, the (confidence, best) peak
    maps that ``extract_depth`` takes, and the (2, H, W) votes below and
    above each best plane that ``refine_result`` takes where no volume
    exists. The workers' maps are merged in plane order with a strict >,
    which keeps ``np.argmax``'s first maximum; at each seam between two
    runs the earlier run's last fused plane and the later one's first fill
    in the votes beside a best plane that lies at the seam. The counts are
    exact integers, the same at any worker count as over the whole volume.
    """
    n, nz = len(rays), fused.num_planes
    runs = _runs(nz, workers)
    band = (BAND_PLANES, fused.height, fused.width)
    compiled = _compiled(op)
    sparse = compiled and _sparse(rays, op, (nz,) + band[1:])
    grazing = any(len(r.graze[2]) for r in rays)
    prep, live, live_starts = joined, slice(None), starts
    if compiled and grazing:
        # C would test every grazing ray's empty range on every plane, a
        # branch that mispredicts where such rays interleave with the
        # others: it sweeps the rays with planes in range only
        live = np.flatnonzero(joined[5] > joined[4])
        prep = [a[live] for a in joined]
        live_starts = np.searchsorted(live, starts)

    def run(j):
        stack = np.zeros((n,) + band)
        outs = np.empty((2,) + band) if fused.votes is None else None
        around = np.empty((2,) + band[1:])
        peak = empty_peak(*band[1:])
        start, stop = runs[j].start * BAND_PLANES, min(runs[j].stop * BAND_PLANES, nz)
        bands = map(lambda b: (b * BAND_PLANES, min((b + 1) * BAND_PLANES, nz)),
                    runs[j])  # (p0, p1) of each band, made one at a time
        hit = np.zeros(starts[-1], dtype=bool)  # every camera's events
        votes = [0] * n
        first = np.empty(band[1:]) if j else None  # the merge reads it at the seam
        prev = None

        def out(p0, p1):  # where the band step fuses the planes [p0, p1) of a band
            if outs is None:
                return fused.votes[p0:p1]
            return outs[p0 // BAND_PLANES % 2, p0 % BAND_PLANES:][:p1 - p0]

        if not compiled:
            for p0, p1 in bands:
                planes = stack[:, :p1 - p0]
                for k, r in enumerate(rays):
                    voted, cast = sweep_band(fused, r, planes[k], p0, mode)
                    hit[starts[k]:starts[k + 1]] |= voted
                    votes[k] += cast
                if cameras is not None:
                    cameras[:, p0:p1] = planes
                fuse_band(op, planes, out(p0, p1), p0, peak, around, prev)
                if first is not None and p0 == start:
                    first[...] = out(p0, p1)[0]
                prev = out(p0, p1)[-1]
            return hit, peak, around, first, prev, votes
        # each camera's marks, and the segments of each band output that may
        # hold a nonzero value: all of them at first (np.empty)
        marks = np.zeros((n,) + mark_shape(*band), np.uint8) if sparse else None
        written = (np.ones((2,) + mark_shape(*band), np.uint8)
                   if sparse and outs is not None else None)
        swept = np.zeros(len(prep[4]), dtype=bool)  # prep's rays that voted
        # one call per band where numpy votes the grazing rays into it first
        for p0, p1 in bands if grazing else [(start, stop)]:
            for k, r in enumerate(rays if grazing else []):
                votes[k] += sweep_direct_band(
                    fused, r, stack[k, :p1 - p0], p0, mode,
                    hit[starts[k]:starts[k + 1]],
                    None if marks is None else marks[k, :p1 - p0])
            lo, hi = prep[4:]
            if (p0, p1) != (0, nz):
                # clipped only so that bench/layers.py counts the call's
                # ray-plane tests; C only compares lo and hi
                lo, hi = np.clip(lo, p0, p1), np.clip(hi, p0, p1)
            voted, casts = _sweep.run_sweep(
                (*prep[:4], lo, hi), fused.inv_depths, stack, mode, p0, marks,
                _sweep.Bands(
                    live_starts, p1 - p0, op.kind, *peak, around,
                    volume=fused.votes[p0:p1] if outs is None else None,
                    outs=outs, written=written,
                    first=first if p0 == start else None,
                    cameras=None if cameras is None else cameras[:, p0:p1],
                    prev=prev))
            swept |= voted
            votes = [v + cast for v, cast in zip(votes, casts)]
            prev = out(p1 - 1, p1)[0]
        hit[live] |= swept
        return hit, peak, around, first, prev, votes

    results = _in_parallel(run, len(runs), range(len(runs)))
    hits = np.split(np.logical_or.reduce([r[0] for r in results]), starts[1:-1])
    votes = [sum(r[5][k] for r in results) for k in range(n)]
    (confidence, best), around = results[0][1:3]
    greater = np.empty(confidence.shape, dtype=bool)
    for j in range(1, len(runs)):  # later planes win only if greater
        _, (conf, plane), later, first, _, _ = results[j]
        seam = runs[j].start * BAND_PLANES
        np.copyto(around[1], first, where=best == seam - 1)
        np.copyto(later[0], results[j - 1][4], where=plane == seam)
        np.greater(conf, confidence, out=greater)
        np.copyto(confidence, conf, where=greater)
        np.copyto(best, plane, where=greater)
        np.copyto(around, later, where=greater)
    return hits, votes, (confidence, best), around


# The extraction filters' temporaries peak at up to 5 float64 copies of
# their largest array (tracemalloc and ru_maxrss, 80x60 and 240x180 maps):
# the threshold Gaussian's 2*int(4 sigma + 0.5) + 1 weights (3.0-4.7x),
# and median_filter_depth's windows, at most H*W*k^2 (1.1-1.4x with
# every pixel masked, tracemalloc, k = 5 and 21).
FILTER_COPIES = 5


def _check_memory(shape: tuple, n_cameras: int, workers: int, keep: bool,
                  median_kernel: int = 1, threshold_sigma: float = 0.0,
                  volume: bool = True) -> int:
    """Bytes one chunk needs for its volumes of ``shape`` (planes, H, W),
    per-plane bookkeeping, band buffers and extraction filters: the fused
    volume (unless ``volume`` is False, which ``_needs_volume`` decides)
    and, when dumped (``keep``), the per-camera volumes; three float64 per
    plane (the planes' depths and inverse depths, and the temporary that
    makes them); plus the largest of the
    workers' band buffers (voting), the median filter's and the
    threshold's temporaries, which are never live at once. Each worker
    keeps one band buffer per camera, two peak maps (confidence and best
    plane) and three maps for refinement (below, above and the run's first
    plane); without a volume also two fused bands. A sparse chunk's worker
    also keeps one byte of marks per SEGMENT voxels of each row of each
    camera's band buffer and, without a volume, of each fused band (the
    written masks); they are counted for every chunk. Raises
    DsiTooLarge when that exceeds physical memory, before anything is
    allocated; where the system does not report physical memory, nothing
    is checked."""
    num_planes, height, width = shape
    plane = width * height * 8
    bands = -(-num_planes // BAND_PLANES)
    workers = min(workers, bands)
    volume = volume or keep
    per_worker = n_cameras * BAND_PLANES + 5
    if not volume:
        per_worker += 2 * BAND_PLANES
    marks = (n_cameras if volume else n_cameras + 2) * math.prod(
        mark_shape(BAND_PLANES, height, width))
    buffers = workers * (per_worker * plane + marks)
    median = FILTER_COPIES * plane * median_kernel**2
    # scipy's radius, int(4 sigma + 0.5); from 2**52 on a float sigma is
    # whole, 4 sigma + 0.5 rounds to 4 sigma, and 4 sigma may overflow
    radius = (int(4 * threshold_sigma + 0.5) if threshold_sigma < 2**52
              else 4 * int(threshold_sigma))
    gaussian = FILTER_COPIES * 8 * (2 * radius + 1)
    volumes = (int(volume) + (n_cameras if keep else 0)) * num_planes * plane
    bookkeeping = 8 * 3 * num_planes
    need = volumes + bookkeeping + max(buffers, median, gaussian)
    physical = _physical_memory()
    if physical is not None and physical < need:
        r = _readable
        raise DsiTooLarge(
            f"the DSI needs {r(need)} bytes ({r(Decimal(need) / 2**30, '.1f')} "
            f"GiB: {r(num_planes)} planes of {r(plane)} bytes, "
            f"{'a' if volume else 'no'} fused volume, {r(bookkeeping)} bytes "
            f"for the planes' depths, {r(n_cameras)} cameras, {r(workers)} "
            f"workers; {r(median)} bytes for median_kernel {r(median_kernel)} "
            f"and {r(gaussian)} bytes for threshold_sigma {threshold_sigma:g}) "
            f"but the machine has {r(physical)} bytes of physical memory; use "
            f"fewer planes, a smaller width/height, median_kernel or "
            f"threshold_sigma"
        )
    return need


def _readable(value, spec: str = "d") -> str:
    """``value`` as the ``DsiTooLarge`` messages print it: formatted with
    ``spec`` up to 10**15, in e-notation with 3 significant digits beyond,
    so that an absurd setting cannot flood the message with digits."""
    return format(value, spec) if value <= 10**15 else f"{Decimal(value):.2e}"


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):  # no sysconf, or no such name
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


# Bytes per DSI pixel that run_pipeline keeps of every processed window: its
# float64 depth and confidence maps and its boolean mask.
RESULT_BYTES = 17


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
    need = _check_memory(shape, len(rig.cameras), workers, config.dump_dsi,
                         config.median_kernel, config.threshold_sigma,
                         _needs_volume(config))
    if config.dump_dsi and not config.out_dir:
        raise ValueError("dump_dsi writes each chunk's DSI volumes to out_dir, "
                         "which is not set: set out_dir, or turn dump_dsi off")
    side = max(shape[1:])
    # the blur's and the NMS window's times grow with these; past the larger
    # side the blur's background barely moves and the window covers the map
    for name in ("threshold_sigma", "nms_radius"):
        value = getattr(config, name)
        if value > side:
            raise ValueError(
                f"{name} {value:.15g} exceeds {side}, the larger side of the "
                f"{shape[2]}x{shape[1]} DSI; use at most {side}"
            )
    if traj is None:
        if config.trajectory is None:
            raise RaysweepError("no trajectory provided")
        traj = rio.parse_trajectory(config.trajectory)
    if streams is None:
        if len(config.events) != len(rig.cameras):
            raise RaysweepError(
                f"{len(config.events)} event files for {len(rig.cameras)} cameras"
            )

        def parse(path, cid, cam):
            return rio.parse_events(path, cid, width=cam.width, height=cam.height)

        # the compiled parser and file reads release the GIL: the files
        # are parsed in parallel, and the first bad one in rig order raises
        streams = dict(zip(rig.camera_ids, _in_parallel(
            parse, workers, config.events, rig.camera_ids, rig.cameras)))
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
    windows = chunk_windows(ordered, config.chunk_duration)[1]
    kept = windows * RESULT_BYTES * shape[1] * shape[2]
    physical = _physical_memory()
    if physical is not None and physical < need + kept:
        r = _readable
        raise DsiTooLarge(
            f"chunk_duration {config.chunk_duration:g} makes {r(windows)} "
            f"windows, whose depth, confidence and mask maps take {r(kept)} "
            f"bytes beside the {r(need)} bytes of one chunk, but the machine "
            f"has {r(physical)} bytes of physical memory; use a longer "
            f"chunk_duration"
        )
    chunks = chunk_events(ordered, config.chunk_duration)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    # the fused DSI of every chunk, where a step reads it
    volume = np.empty(shape) if _needs_volume(config) else None
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
                {"chunk": chunk.index, "skipped": "trajectory coverage",
                 "events_read": chunk.total_events()},
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
