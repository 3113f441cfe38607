"""File formats: event text, TUM-style trajectories, rig calibration JSON,
and the depth / confidence / point-cloud / DSI writers, with readers for
the depth, point-cloud and DSI files.

All multi-byte binary output is little-endian. Event files may hold tens
of millions of lines, so the parser streams them in blocks, each parsed in
one compiled pass (``_sweep.parse_events_c``); the line parser takes what
that pass refuses, and every file where the C library is unavailable.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _sweep
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
_PARSE_CHARS = 1 << 22  # bytes read per compiled block (~200k event lines)
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
# text records and JSON documents: the rules every input file is read by

def _records(path: Path, fields: str, types: tuple):
    """Yield (line number, stripped line, values) for each record of a UTF-8
    text file, skipping blank lines and whole-line ``#`` comments: the
    fields that ``fields`` names (e.g. ``"t x y p"``), read by ``types``.
    Anything else raises ParseError naming the file and line; so does a
    byte that is not UTF-8, which surrogateescape keeps as U+DC80-U+DCFF."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
                raise ParseError(f"byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8",
                                 path=path, line=lineno)
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != len(types):
                raise ParseError(f"expected '{fields}', got {line!r}",
                                 path=path, line=lineno)
            try:
                values = [kind(v) for kind, v in zip(types, parts)]
            except ValueError:
                raise ParseError(f"bad numeric field in {line!r}", path=path,
                                 line=lineno) from None
            yield lineno, line, values


def read_json(path):
    """The JSON document in ``path``, read as UTF-8. A syntax error, nesting
    deeper than the decoder recurses or a byte that is not UTF-8 raises
    ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as e:  # ValueError: JSON or UTF-8
        raise ParseError(f"invalid JSON: {e}", path=path) from None


# JSON type -> the Python types that hold it (numpy's too), and its name
_JSON_TYPES = {str: (str, "a string"), int: (numbers.Integral, "an integer"),
               float: (numbers.Real, "a number"), bool: (bool, "true or false")}


def check_json_type(name, value, kind, length=None):
    """``value`` if it has the JSON type ``kind`` (str, int, float or bool)
    or, with ``length``, is a list of that many numbers, else ValueError
    naming ``name``. A bool is never an int or a number; an int is a number."""
    accepted, what = _JSON_TYPES[kind]
    items = [value] if length is None else value
    if not (isinstance(items, list) and len(items) == (length or 1) and all(
            isinstance(v, accepted) and (kind is bool or not isinstance(v, bool))
            for v in items)):
        what = what if length is None else f"a list of {length} numbers"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# event text:  "t x y p"  (t seconds; p in {0, 1} or {-1, +1}; '#' comments)

def parse_events(path, camera_id: str | None = None, *,
                 width: int | None = None, height: int | None = None) -> EventStream:
    """Stream-parse an event text file into an EventStream.

    Polarity 0 is normalized to -1. When ``width``/``height`` are given,
    out-of-bounds coordinates are rejected with their line number. Tiny
    timestamp jitter (<= 1e-6 s behind the latest earlier stamp) is
    repaired by a stable sort; larger regressions raise
    NonMonotonicTimestamps.

    A well-formed file is parsed in compiled blocks, line by line with no
    state, and its time order is checked once over the whole file. A file
    that pass turns down (a bad or out-of-range field, an inline comment,
    a timestamp regression, a non-finite timestamp, a byte or whitespace
    outside its ASCII grammar, no events), or any file when the C library
    is unavailable, is re-read line by line, which returns the same arrays
    or raises the error for the first bad line.
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


def _parse_events_blocks(path: Path, width, height):
    """Parse a well-formed event file in compiled blocks into (t, x, y, p),
    or return None if the line parser must decide. Each block is
    ``_PARSE_CHARS`` bytes read up to the end of a line, so memory stays
    bounded by the events, not the text. The blocks' lines are read on
    their own; the time order is then checked once over the whole file,
    by the line parser's rule. Everything this accepts, the line parser
    accepts with the same values (see ``_sweep.parse_events_c``)."""
    if _sweep.kernel_name() != "c":
        return None
    bounds = (-1, -1) if width is None else (max(width, 0), max(height, 0))
    blocks = []
    with open(path, "rb") as fh:
        while text := fh.read(_PARSE_CHARS):
            cols = _sweep.parse_events_c(text + fh.readline(), *bounds)
            if cols is None:
                return None
            blocks.append(cols)
    if not blocks:  # an empty file
        return None
    if len(blocks) == 1:  # most files: no copy
        t, x, y, p = blocks[0]
    else:
        t, x, y, p = (np.concatenate(col) for col in zip(*blocks))
    if len(t) == 0:
        return None
    # the line parser's rule, once over the whole file: no event may lie
    # more than the jitter before the latest earlier one. A file in order,
    # the common case, needs no running maximum.
    unsorted = bool(np.any(t[1:] < t[:-1]))
    if unsorted and np.any(np.maximum.accumulate(t) - t > _TIME_JITTER):
        return None  # the line parser names the line
    return _time_sorted(t, x, y, p, unsorted)


def _parse_events_lines(path: Path, width, height):
    """Line-by-line parse into (t, x, y, p); raises on the first bad line."""
    ts, xs, ys, ps = array("d"), array("i"), array("i"), array("b")
    prev_t = -np.inf
    needs_sort = False
    for lineno, line, (t, x, y, p) in _records(path, "t x y p",
                                               (float, int, int, int)):
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
    return _time_sorted(np.frombuffer(ts, np.float64), np.frombuffer(xs, np.intc),
                        np.frombuffer(ys, np.intc), np.frombuffer(ps, np.int8),
                        needs_sort)


def _time_sorted(t, x, y, p, unsorted):
    """(t, x, y, p), stably sorted by t when ``unsorted``, so that equal
    stamps keep their file order."""
    if unsorted:
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
    for lineno, line, vals in _records(path, "t tx ty tz qx qy qz qw", (float,) * 8):
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"non-finite value in {line!r}", path=path, line=lineno)
        q = np.array(vals[4:8])
        with np.errstate(over="ignore"):  # an inf norm is refused below
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

# A camera entry's scalar values and their JSON types.
_CAMERA_KEYS = (("width", int), ("height", int), ("fx", float), ("fy", float),
                ("cx", float), ("cy", float))


def _field(obj, key, ctx, path, kind=None, length=None):
    """``obj[key]``, where ``obj`` must be a JSON object holding ``key`` and,
    with ``kind``, the value must pass ``check_json_type``; raises
    ParseError naming the field otherwise."""
    try:
        if not isinstance(obj, dict):
            raise ValueError(f"{ctx} must be a JSON object, got {type(obj).__name__}")
        if key not in obj:
            raise ValueError(f"missing field {ctx}.{key}")
        if kind is None:
            return obj[key]
        return check_json_type(f"{ctx}.{key}", obj[key], kind, length)
    except ValueError as e:
        raise ParseError(str(e), path=path) from None


def parse_calibration(path) -> RigCalibration:
    """Read a rig calibration document.

    Schema: {"rig": str, "cameras": [{"name", "width", "height", "fx",
    "fy", "cx", "cy", "dist" (4 floats), "T_body_cam": {"translation"
    (3), "quaternion_xyzw" (4)}}, ...]}; camera 0 is the reference. Names
    are strings ("rig" if the rig has none), width and height integers and
    the other camera values numbers."""
    path = Path(path)
    doc = read_json(path)
    cams_doc = _field(doc, "cameras", "$", path)
    if not isinstance(cams_doc, list):
        raise ParseError("cameras must be a list", path=path)
    if len(cams_doc) < 2:
        raise InsufficientCameras(f"{path}: found {len(cams_doc)} camera(s), need >= 2")
    rig = _field({"rig": "rig", **doc}, "rig", "$", path, str)  # "rig" if missing

    ids, cams = [], []
    for i, c in enumerate(cams_doc):
        ctx = f"cameras[{i}]"
        name = _field(c, "name", ctx, path, str)
        if name in ids:
            raise ParseError(f"{ctx}: camera name {name!r} repeats "
                             f"cameras[{ids.index(name)}]", path=path)
        ext = _field(c, "T_body_cam", ctx, path)
        ext_ctx = ctx + ".T_body_cam"
        try:
            extrinsic = Se3(
                np.array(_field(ext, "quaternion_xyzw", ext_ctx, path, float, 4)),
                np.array(_field(ext, "translation", ext_ctx, path, float, 3)),
            )
            cam = CameraModel(
                **{key: kind(_field(c, key, ctx, path, kind))
                   for key, kind in _CAMERA_KEYS},
                dist=np.array(_field(c, "dist", ctx, path, float, 4), dtype=np.float64),
                T_body_cam=extrinsic,
            )
        except (ValueError, TypeError, OverflowError) as e:
            raise ParseError(f"{ctx}: {e}", path=path)
        ids.append(name)
        cams.append(cam)
    return RigCalibration(rig, tuple(ids), tuple(cams))


def write_calibration(rig: RigCalibration, path):
    doc = {
        "rig": rig.name,
        "cameras": [
            {
                "name": cid,
                **{key: getattr(cam, key) for key, _ in _CAMERA_KEYS},
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


# The lines of write_ply's header; {} is the vertex count.
_PLY_HEADER = ("ply", "format binary_little_endian 1.0", "element vertex {}",
               "property double x", "property double y", "property double z",
               "property double confidence", "end_header")


def write_ply(result: DepthResult, path):
    """Binary PLY point cloud with per-vertex confidence: the header of
    ``_PLY_HEADER`` (little-endian, one vertex element of four doubles x,
    y, z, confidence), then one row of four little-endian float64 per
    vertex, the exact values of ``to_point_cloud``, 32 bytes each."""
    points, conf = to_point_cloud(result)
    header = "\n".join(_PLY_HEADER).format(len(points)) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.column_stack([points, conf]).astype("<f8").tobytes())


def read_ply(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a point cloud written by write_ply; returns (points float64
    (N, 3), confidence float64 (N,)). Any other layout (another format,
    element or property, a truncated or overlong payload) raises
    ParseError naming the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        for i, want in enumerate(_PLY_HEADER):
            line = fh.readline(80)
            got = line.decode("ascii", errors="replace").rstrip("\n")
            if i == 2 and re.fullmatch(r"element vertex (0|[1-9][0-9]{0,17})", got):
                count = int(got.split()[-1])
            elif got != want or not line.endswith(b"\n"):
                raise ParseError(f"PLY header line {i + 1} is {got!r}, need "
                                 f"{want.format('<count>')!r}", path=path)
        size = path.stat().st_size - fh.tell()
        if size != 32 * count:  # before allocating
            raise ParseError(f"PLY payload of {size} bytes, need {32 * count} "
                             f"for {count} vertices", path=path)
        rows = np.frombuffer(fh.read(size), dtype="<f8").reshape(count, 4)
    return rows[:, :3].astype(np.float64), rows[:, 3].astype(np.float64)


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
