"""File formats: event text, TUM-style trajectories, rig calibration JSON,
and the depth / confidence / point-cloud / DSI writers.

All multi-byte binary output is little-endian. Event files may hold tens
of millions of lines, so the parser streams them in blocks.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .depth import DepthResult, to_point_cloud
from .dsi import DsiGrid
from .errors import (
    InsufficientCameras,
    NonMonotonicTimestamps,
    ParseError,
    QuaternionNormError,
)
from .events import EventStream
from .geometry import CameraModel, PoseTrajectory, Se3

_TIME_JITTER = 1e-6  # tolerated backward step in event timestamps (s)
_QUAT_PARSE_TOL = 1e-3
_PARSE_BLOCK = 1 << 16
_PARSE_CHARS = 1 << 22  # text read per vectorized block (~160k event lines)
_EVENT_ROW = np.dtype([("t", np.float64), ("x", np.int32), ("y", np.int32),
                       ("p", np.int8)])
_I32 = np.iinfo(np.int32)


@dataclass(frozen=True)
class RigCalibration:
    """Ordered cameras of one rig; camera 0 is the left/reference camera."""

    name: str
    camera_ids: tuple[str, ...]
    cameras: tuple[CameraModel, ...]

    def __post_init__(self):
        if len(self.cameras) < 2:
            raise InsufficientCameras(
                f"rig {self.name!r} has {len(self.cameras)} camera(s), need >= 2"
            )
        if len(self.camera_ids) != len(self.cameras):
            raise ValueError("camera_ids and cameras must align")
        if len(set(self.camera_ids)) != len(self.camera_ids):
            # streams are keyed by camera id: one would be mapped twice
            raise ValueError(f"rig {self.name!r} repeats a camera id: "
                             f"{list(self.camera_ids)}")

    def __len__(self):
        return len(self.cameras)


# ---------------------------------------------------------------------------
# event text:  "t x y p"  (t seconds; p in {0, 1} or {-1, +1}; '#' comments)

def parse_events(path, camera_id: str | None = None, *,
                 width: int | None = None, height: int | None = None) -> EventStream:
    """Stream-parse an event text file into an EventStream.

    Polarity 0 is normalized to -1. When ``width``/``height`` are given,
    out-of-bounds coordinates are rejected with their line number. Tiny
    timestamp jitter (<= 1e-6 s backward) is repaired by a stable sort;
    larger regressions raise NonMonotonicTimestamps.

    A well-formed file is parsed in vectorized blocks. A file the
    vectorized pass turns down (a bad or out-of-range field, an inline
    comment, a timestamp regression, a non-finite timestamp, no events) is
    re-read line by line, which returns the same arrays or raises the error
    for the first bad line.
    """
    path = Path(path)
    if camera_id is None:
        camera_id = path.stem
    if (width is None) != (height is None):
        raise ValueError("pass both width and height, or neither")
    cols = _parse_events_blocks(path, width, height)
    if cols is None:
        cols = _parse_events_lines(path, width, height)
    return EventStream(camera_id, *cols)


def _whole_line_comments(text: str) -> bool:
    """Whether every '#' in ``text`` starts a comment line: only whitespace
    before it on its line, as the line parser requires."""
    pos = text.find("#")
    while pos >= 0:
        if text[text.rfind("\n", 0, pos) + 1:pos].strip():
            return False
        end = text.find("\n", pos)
        pos = -1 if end < 0 else text.find("#", end)
    return True


def _parse_events_blocks(path: Path, width, height):
    """Vectorized parse of a well-formed event file into (t, x, y, p), or
    None if the line parser must decide. Everything this accepts, the line
    parser accepts with the same values: numpy's number parsing takes a
    subset of what float()/int() take and rounds floats the same way."""
    blocks = []
    try:
        with open(path, "r") as fh:
            while True:
                text = fh.read(_PARSE_CHARS)
                if not text:
                    break
                text += fh.readline()
                if not _whole_line_comments(text):
                    return None
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    blocks.append(np.loadtxt(StringIO(text), dtype=_EVENT_ROW,
                                             comments="#", ndmin=1))
    except ValueError:  # bad field, field count or encoding
        return None
    if not blocks:
        return None
    t, x, y, p = (np.concatenate([b[f] for b in blocks]) for f in _EVENT_ROW.names)
    if len(t) == 0 or not np.isfinite(t).all():
        return None
    if not ((p == 1) | (p == 0) | (p == -1)).all():
        return None
    if width is not None and not ((x >= 0) & (x < width) & (y >= 0) & (y < height)).all():
        return None
    # back[i]: how far event i+1 lies before the latest earlier timestamp
    back = np.maximum.accumulate(t)[:-1] - t[1:]
    if (back > _TIME_JITTER).any():
        return None
    p[p == 0] = -1
    if (back > 0.0).any():
        order = np.argsort(t, kind="stable")
        t, x, y, p = t[order], x[order], y[order], p[order]
    return t, x, y, p


def _parse_events_lines(path: Path, width, height):
    """Line-by-line parse into (t, x, y, p); raises on the first bad line."""
    ts, xs, ys, ps = [], [], [], []
    t_blocks, x_blocks, y_blocks, p_blocks = [], [], [], []

    def flush():
        if ts:
            t_blocks.append(np.array(ts, dtype=np.float64))
            x_blocks.append(np.array(xs, dtype=np.int32))
            y_blocks.append(np.array(ys, dtype=np.int32))
            p_blocks.append(np.array(ps, dtype=np.int8))
            ts.clear(), xs.clear(), ys.clear(), ps.clear()

    prev_t = -np.inf
    needs_sort = False
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(
                    f"expected 't x y p', got {line!r}", path=path, line=lineno
                )
            try:
                t = float(parts[0])
                x = int(parts[1])
                y = int(parts[2])
                p = int(parts[3])
            except ValueError:
                raise ParseError(f"bad numeric field in {line!r}", path=path, line=lineno)
            if not math.isfinite(t):
                raise ParseError(f"non-finite timestamp in {line!r}",
                                 path=path, line=lineno)
            if p == 0:
                p = -1
            if p not in (-1, 1):
                raise ParseError(f"polarity must be 0/1 or -1/+1, got {p}",
                                 path=path, line=lineno)
            if width is not None and not (0 <= x < width and 0 <= y < height):
                raise ParseError(
                    f"event at ({x}, {y}) outside {width}x{height} sensor",
                    path=path, line=lineno,
                )
            if not (_I32.min <= x <= _I32.max and _I32.min <= y <= _I32.max):
                raise ParseError(f"coordinate outside int32 in {line!r}",
                                 path=path, line=lineno)
            if t < prev_t:
                if prev_t - t > _TIME_JITTER:
                    raise NonMonotonicTimestamps(
                        f"timestamp {t:.9f} after {prev_t:.9f}", path=path, line=lineno
                    )
                needs_sort = True
            prev_t = max(prev_t, t)
            ts.append(t), xs.append(x), ys.append(y), ps.append(p)
            if len(ts) >= _PARSE_BLOCK:
                flush()
    flush()

    if t_blocks:
        t = np.concatenate(t_blocks)
        x = np.concatenate(x_blocks)
        y = np.concatenate(y_blocks)
        p = np.concatenate(p_blocks)
    else:
        t = np.empty(0)
        x = y = np.empty(0, np.int32)
        p = np.empty(0, np.int8)
    if needs_sort:
        order = np.argsort(t, kind="stable")
        t, x, y, p = t[order], x[order], y[order], p[order]
    return t, x, y, p


def write_events(stream: EventStream, path):
    """Write "t x y p" lines; timestamps keep nanosecond precision."""
    with open(path, "w") as fh:
        fh.write("# t[s] x y polarity\n")
        for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.polarity):
            fh.write(f"{t:.9f} {x} {y} {1 if p > 0 else 0}\n")


# ---------------------------------------------------------------------------
# trajectory text:  "t tx ty tz qx qy qz qw"  (world-from-body, scalar-last)

def parse_trajectory(path) -> PoseTrajectory:
    path = Path(path)
    times, quats, trans = [], [], []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise ParseError(
                    f"expected 't tx ty tz qx qy qz qw', got {line!r}",
                    path=path, line=lineno,
                )
            try:
                vals = [float(v) for v in parts]
            except ValueError:
                raise ParseError(f"bad numeric field in {line!r}", path=path, line=lineno)
            if not all(map(math.isfinite, vals)):
                raise ParseError(f"non-finite value in {line!r}", path=path, line=lineno)
            q = np.array(vals[4:8])
            norm = float(np.linalg.norm(q))
            if abs(norm - 1.0) > _QUAT_PARSE_TOL:
                raise QuaternionNormError(
                    f"quaternion norm {norm:.6f} too far from 1", path=path, line=lineno
                )
            times.append(vals[0])
            trans.append(vals[1:4])
            quats.append(q / norm)
    try:
        return PoseTrajectory(np.array(times), np.array(quats), np.array(trans))
    except ValueError as e:
        raise ParseError(str(e), path=path)


def write_trajectory(traj: PoseTrajectory, path):
    with open(path, "w") as fh:
        fh.write("# t[s] tx ty tz qx qy qz qw\n")
        for t, q, p in zip(traj.times, traj.quats, traj.trans):
            fields = [f"{t:.9f}"] + [f"{v:.17g}" for v in (*p, *q)]
            fh.write(" ".join(fields) + "\n")


# ---------------------------------------------------------------------------
# rig calibration (JSON)

def _require(obj, key, ctx, path):
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx} must be a JSON object, got {type(obj).__name__}",
                         path=path)
    if key not in obj:
        raise ParseError(f"missing field {ctx}.{key}", path=path)
    return obj[key]


def parse_calibration(path) -> RigCalibration:
    """Read a rig calibration document.

    Schema: {"rig": str, "cameras": [{"name", "width", "height", "fx",
    "fy", "cx", "cy", "dist" (4 floats), "T_body_cam": {"translation"
    (3), "quaternion_xyzw" (4)}}, ...]}; camera 0 is the reference.
    """
    path = Path(path)
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", path=path)

    cams_doc = _require(doc, "cameras", "$", path)
    if not isinstance(cams_doc, list):
        raise ParseError("cameras must be a list", path=path)
    if len(cams_doc) < 2:
        raise InsufficientCameras(f"{path}: found {len(cams_doc)} camera(s), need >= 2")

    ids, cams = [], []
    for i, c in enumerate(cams_doc):
        ctx = f"cameras[{i}]"
        name = str(_require(c, "name", ctx, path))
        if name in ids:
            raise ParseError(f"{ctx}: camera name {name!r} repeats "
                             f"cameras[{ids.index(name)}]", path=path)
        ext = _require(c, "T_body_cam", ctx, path)
        try:
            extrinsic = Se3(
                np.array(_require(ext, "quaternion_xyzw", ctx + ".T_body_cam", path)),
                np.array(_require(ext, "translation", ctx + ".T_body_cam", path)),
            )
            cam = CameraModel(
                fx=float(_require(c, "fx", ctx, path)),
                fy=float(_require(c, "fy", ctx, path)),
                cx=float(_require(c, "cx", ctx, path)),
                cy=float(_require(c, "cy", ctx, path)),
                width=int(_require(c, "width", ctx, path)),
                height=int(_require(c, "height", ctx, path)),
                dist=np.array(_require(c, "dist", ctx, path), dtype=np.float64),
                T_body_cam=extrinsic,
            )
        except (ValueError, TypeError) as e:
            raise ParseError(f"{ctx}: {e}", path=path)
        ids.append(name)
        cams.append(cam)
    return RigCalibration(str(doc.get("rig", "rig")), tuple(ids), tuple(cams))


def write_calibration(rig: RigCalibration, path):
    doc = {
        "rig": rig.name,
        "cameras": [
            {
                "name": cid,
                "width": cam.width,
                "height": cam.height,
                "fx": cam.fx,
                "fy": cam.fy,
                "cx": cam.cx,
                "cy": cam.cy,
                "dist": list(cam.dist),
                "T_body_cam": {
                    "translation": list(cam.T_body_cam.trans),
                    "quaternion_xyzw": list(cam.T_body_cam.quat),
                },
            }
            for cid, cam in zip(rig.camera_ids, rig.cameras)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# depth / confidence / cloud writers

def write_pfm(data, path):
    """Grayscale PFM: 'Pf', W H, scale -1 (little-endian), bottom-up rows."""
    data = np.asarray(data, dtype="<f4")
    if data.ndim != 2:
        raise ValueError("PFM writer expects a 2D map")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.flipud(data).tobytes())


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM written by write_pfm; returns float32 (H, W)."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"Pf":
            raise ParseError(f"not a grayscale PFM (magic {magic!r})", path=path)
        header = (fh.readline() + fh.readline()).decode(errors="replace").split()
        try:  # W H, then the scale
            w, h, scale = int(header[0]), int(header[1]), float(header[2])
        except (ValueError, IndexError):
            w = h = scale = 0
        if len(header) != 3 or min(w, h) < 1 or not 0.0 < abs(scale) < math.inf:
            raise ParseError(f"bad PFM header {' '.join(header)!r}: need a positive "
                             f"integer width and height and a nonzero scale", path=path)
        dtype = "<f4" if scale < 0 else ">f4"
        if path.stat().st_size - fh.tell() < 4 * w * h:  # before allocating
            raise ParseError("truncated PFM payload", path=path)
        payload = fh.read(4 * w * h)
        data = np.frombuffer(payload, dtype=dtype).reshape(h, w)
    return np.flipud(data).astype(np.float32)


def write_depth_pfm(result: DepthResult, path):
    """Depth map as 32-bit PFM; unmasked pixels are written as 0.0."""
    write_pfm(result.masked_depth(0.0), path)


def write_confidence_pgm(result: DepthResult, path):
    """8-bit binary PGM of the min-max normalized confidence map."""
    c = result.confidence
    lo, hi = float(c.min()), float(c.max())
    if hi > lo:
        scaled = (c - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(c)
    img = np.floor(scaled * 255.0 + 0.5).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def write_ply(result: DepthResult, path):
    """ASCII PLY point cloud with per-vertex confidence."""
    points, conf = to_point_cloud(result)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(points)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("property float confidence\n")
        fh.write("end_header\n")
        rows = np.column_stack([points, conf])
        fh.write(("%.17g %.17g %.17g %.17g\n" * len(rows)) % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# raw DSI dump

def write_dsi(grid: DsiGrid, path):
    """Flat binary dump: header (W, H, Nz int32; z_min, z_max float32; two
    reserved zeros), then votes as float32, x fastest, then y, then plane."""
    with open(path, "wb") as fh:
        fh.write(np.array([grid.width, grid.height, grid.num_planes], "<i4").tobytes())
        fh.write(np.array([grid.z_min, grid.z_max, 0.0, 0.0], "<f4").tobytes())
        fh.write(grid.votes.astype("<f4").ravel(order="C").tobytes())


def read_dsi(path):
    """Read a DSI dump; returns (votes float32 (Nz, H, W), z_min, z_max)."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(28)
        if len(head) != 28:
            raise ParseError("truncated DSI header", path=path)
        w, h, nz = (int(v) for v in np.frombuffer(head[:12], "<i4"))
        if min(w, h, nz) < 1:
            raise ParseError(f"bad DSI header {w} x {h} x {nz}: need a positive "
                             f"width, height and plane count", path=path)
        z_min, z_max = (float(v) for v in np.frombuffer(head[12:20], "<f4"))
        if path.stat().st_size - fh.tell() < 4 * w * h * nz:  # before allocating
            raise ParseError("truncated DSI payload", path=path)
        votes = np.frombuffer(fh.read(4 * w * h * nz), dtype="<f4")
    return votes.reshape(nz, h, w).copy(), z_min, z_max
