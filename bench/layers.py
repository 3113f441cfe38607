"""Where the traced run wraps raysweep, and the per-layer metrics it
derives from the spans and counters.

Every wrap point is a public function or method of one module, patched
where its caller looks it up: ``pipeline`` imports most stage functions
by name, so those are patched in the ``pipeline`` namespace; ``dsi``
calls the sweep through the ``_sweep`` module and ``pipeline`` calls the
readers and writers through the ``io`` module.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from spans import Tracer, layer_totals

WRITERS = ("write_depth_pfm", "write_confidence_pgm", "write_ply", "write_dsi")
THRESHOLD = ("depth.adaptive_threshold", "depth.local_peak_mask")

# name, unit, and whether it goes into the result's metrics (layer times
# that are exactly zero on some workloads are printed only).
PER_LAYER = [
    ("sweep.run_sweep.s", "s", True),
    ("sweep.ray_plane_tests", "count", True),
    ("sweep.ns_per_test", "ns", True),
    ("sweep.hit_ratio", "ratio", True),
    ("sweep.sweep_direct.events", "count", True),
    ("sweep.sweep_direct.s", "s", False),
    ("geometry.interpolate_batch.s", "s", True),
    ("geometry.undistort_pixels.s", "s", True),
    ("geometry.undistort_pixels.pixels", "count", True),
    ("dsi.vote_events.s", "s", True),
    ("dsi.vote_events.self_s", "s", True),
    ("dsi.vote_events.events", "count", True),
    ("dsi.voted_ratio", "ratio", True),
    ("dsi.fuse.s", "s", True),
    ("dsi.fuse.bytes_in", "B", True),
    ("dsi.grid_bytes", "B", True),
    ("depth.extract_depth.s", "s", True),
    ("depth.threshold.s", "s", True),
    ("depth.median_filter_depth.s", "s", True),
    ("depth.refine_result.s", "s", True),
    ("depth.valid_pixels", "count", True),
    ("io.parse_events.s", "s", False),
    ("io.parse_events.ev_per_s", "1/s", False),
    ("io.parse_events.bytes", "B", True),
    ("io.write.s", "s", False),
    ("io.write.bytes", "B", True),
    ("events.chunk_events.s", "s", True),
    ("events.chunks", "count", True),
    ("events.dropped", "count", True),
    ("pipeline.process_chunk.s", "s", True),
    ("pipeline.process_chunk.self_s", "s", True),
    ("pipeline.run_pipeline.self_s", "s", True),
    ("trace.overhead_frac", "ratio", True),
]


def _count_sweep(tr, args, kwargs, result):
    lo, hi = args[0][4], args[0][5]
    tr.count("sweep.ray_plane_tests", float(np.sum(hi - lo)))


def _count_direct(tr, args, kwargs, result):
    tr.count("sweep.sweep_direct.events", len(args[0]))


def _count_undistort(tr, args, kwargs, result):
    tr.count("geometry.undistort_pixels.pixels", np.asarray(args[1]).size // 2)


def _count_vote(tr, args, kwargs, result):
    n = len(args[1])
    tr.count("dsi.vote_events.events", n)
    workers = min(kwargs.get("workers", 1), n)
    if workers > 1:  # one private partial grid per worker block
        tr.count("dsi.volumes", workers)


def _count_volume(tr, args, kwargs, result):
    tr.count("dsi.volumes")


def _count_fuse(tr, args, kwargs, result):
    tr.count("dsi.fuse.bytes_in", sum(g.votes.nbytes for g in args[0]))


def _count_chunking(tr, args, kwargs, result):
    n_in = sum(len(s) for s in args[0])
    n_out = sum(c.total_events() for c in result)
    tr.count("events.chunks", len(result))
    tr.count("events.dropped", n_in - n_out)


def _count_parse(tr, args, kwargs, result):
    tr.count("io.parse_events.bytes", os.path.getsize(args[0]))
    tr.count("io.parse_events.events", len(result))


def _count_write(tr, args, kwargs, result):
    tr.count("io.write.bytes", os.path.getsize(args[1]))


def install(tracer: Tracer, rs) -> None:
    """Wrap the public functions of every layer; ``rs`` is the raysweep
    package. ``tracer.restore()`` undoes it."""
    pipe, dsi, depth = rs.pipeline, rs.dsi, rs.depth
    w = tracer.wrap
    w(pipe, "process_chunk", "pipeline.process_chunk")
    w(pipe, "chunk_events", "events.chunk_events", _count_chunking)
    w(rs.geometry.PoseTrajectory, "interpolate_batch", "geometry.interpolate_batch")
    w(rs.geometry.CameraModel, "undistort_pixels", "geometry.undistort_pixels",
      _count_undistort)
    w(dsi.DsiGrid, "create", "dsi.DsiGrid.create", _count_volume)
    w(dsi.DsiGrid, "copy_empty", "dsi.DsiGrid.copy_empty", _count_volume)
    w(pipe, "vote_events", "dsi.vote_events", _count_vote)
    w(pipe, "fuse", "dsi.fuse", _count_fuse)
    w(rs._sweep, "run_sweep", "sweep.run_sweep", _count_sweep)
    w(rs._sweep, "sweep_direct", "sweep.sweep_direct", _count_direct)
    for name in ("extract_depth", "adaptive_threshold", "local_peak_mask",
                 "median_filter_depth", "refine_result"):
        w(pipe, name, f"depth.{name}")
    w(rs.io, "parse_events", "io.parse_events", _count_parse)
    for name in WRITERS:
        w(rs.io, name, "io.write", _count_write)


def call_metrics(spans, counters, outputs, vol_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced mapper call.

    ``counters`` are that call's counter deltas; ``outputs`` its
    ChunkOutputs; ``vol_bytes`` the size of one W*H*Nz float64 volume.
    """
    tot = layer_totals(spans)

    def get(name, key="busy"):
        return tot.get(name, {}).get(key, 0.0)

    tests = counters.get("sweep.ray_plane_tests", 0.0)
    votes = sum(c["votes"] for o in outputs for c in o.stats["cameras"].values())
    read = sum(o.stats["events_read"] for o in outputs)
    voted = sum(o.stats["events_voted"] for o in outputs)
    parse_s = get("io.parse_events")
    n_chunks = max(1, len(outputs))
    return {
        "sweep.run_sweep.s": get("sweep.run_sweep"),
        "sweep.ray_plane_tests": tests,
        "sweep.ns_per_test": get("sweep.run_sweep") / tests * 1e9 if tests else 0.0,
        "sweep.hit_ratio": votes / tests if tests else 0.0,
        "sweep.sweep_direct.events": counters.get("sweep.sweep_direct.events", 0.0),
        "sweep.sweep_direct.s": get("sweep.sweep_direct"),
        "geometry.interpolate_batch.s": get("geometry.interpolate_batch"),
        "geometry.undistort_pixels.s": get("geometry.undistort_pixels"),
        "geometry.undistort_pixels.pixels":
            counters.get("geometry.undistort_pixels.pixels", 0.0),
        "dsi.vote_events.s": get("dsi.vote_events"),
        "dsi.vote_events.self_s": get("dsi.vote_events", "self"),
        "dsi.vote_events.events": counters.get("dsi.vote_events.events", 0.0),
        "dsi.voted_ratio": voted / read if read else 0.0,
        "dsi.fuse.s": get("dsi.fuse"),
        "dsi.fuse.bytes_in": counters.get("dsi.fuse.bytes_in", 0.0),
        # Computed, not measured: volumes created or copied per chunk plus
        # per-worker partial grids, times W*H*Nz*8 bytes.
        "dsi.grid_bytes": counters.get("dsi.volumes", 0.0) / n_chunks * vol_bytes,
        "depth.extract_depth.s": get("depth.extract_depth"),
        "depth.threshold.s": sum(get(n) for n in THRESHOLD),
        "depth.median_filter_depth.s": get("depth.median_filter_depth"),
        "depth.refine_result.s": get("depth.refine_result"),
        "depth.valid_pixels": float(sum(o.stats["valid_pixels"] for o in outputs)),
        "io.parse_events.s": parse_s,
        "io.parse_events.ev_per_s":
            counters.get("io.parse_events.events", 0.0) / parse_s if parse_s else 0.0,
        "io.parse_events.bytes": counters.get("io.parse_events.bytes", 0.0),
        "io.write.s": get("io.write"),
        "io.write.bytes": counters.get("io.write.bytes", 0.0),
        "events.chunk_events.s": get("events.chunk_events"),
        "events.chunks": counters.get("events.chunks", 0.0),
        "events.dropped": counters.get("events.dropped", 0.0),
        "pipeline.process_chunk.s": get("pipeline.process_chunk"),
        "pipeline.process_chunk.self_s": get("pipeline.process_chunk", "self"),
        "pipeline.run_pipeline.self_s": get("pipeline.run_pipeline", "self"),
    }


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median of each figure over the traced calls."""
    return {k: statistics.median(c[k] for c in per_call) for k in per_call[0]}
