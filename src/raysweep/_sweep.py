"""Inner voting kernels for the depth sweep.

Each event's viewing ray, expressed in the reference view, projects onto
plane ``z`` at pixel coordinates that are affine in inverse depth:

    u(z) = a_u + b_u / z,    v(z) = a_v + b_v / z

with per-event coefficients precomputed from the ray origin and direction.
Planes behind the ray origin are excluded up front: because the planes are
depth-sorted, the forward planes form one contiguous index range [lo, hi)
per event. The kernels scatter one vote per valid (event, plane) pair into
a ``(planes, height, width)`` array holding the planes [offset, offset +
planes) of the volume (the whole volume at offset 0, or one band of it)
and return a per-event mask of the events that voted on at least one
plane and the number of (event, plane) votes they cast, an exact integer;
an intersection must land inside [0, W) x [0, H), and the nearest voxel
must exist (the top half-pixel edge rounds out of the grid). Plane
indices ``lo``, ``hi`` and the depth samples are those of the whole
volume. The kernels loop over the planes that the array holds and only
compare ``lo`` and ``hi``, so an event's range may reach past them: the
array and its offset alone bound every memory access.

Two kernels keep this contract: ``_sweep.c``, and numpy (blocks of events
per step), its fallback and test oracle. Both sweep plane-major, as the
space sweep does: for each plane they project every event, in ascending
order, and scatter the hits into that plane's W x H slice alone, which
stays in cache. A plane's votes therefore depend only on the events and
their order, never on which other planes the same call sweeps, so callers
may split the planes across threads or bands (one array and offset per
range) and get the same volume bit for bit at any worker count or band
size. Both add every vote in the same order, so their votes are
bit-identical in both modes: C is only an accelerator. A count of votes
cast is the same in every kernel and adds up over any split of the
planes; under nearest voting it is the sum of the votes.

``_sweep.c`` also holds ``prepare``, the compiled
``PoseTrajectory.camera_poses`` and ``dsi._prepare_rays``: from each
event's time it interpolates and mounts the camera pose and computes these
coefficients (and the ray's plane range and conditioning flag, and the
origin and direction of a near-grazing ray) in one pass per event, with
numpy's operations in numpy's order, so its outputs are bit-identical to
the numpy form's.

Its third function, ``fuse_band``, is the compiled ``dsi.fuse_band``: the
band step that follows the sweep. In one pass over a band of every
camera's votes it fuses them (min, max, arithmetic, rms or harmonic,
voxel by voxel, with numpy's IEEE operations in numpy's axis-0 order),
folds the fused planes into a running per-pixel maximum (strict >, so the
first maximum, as ``np.argmax``) and zeroes the votes for the next band,
block by block of at most 128 voxels, so that each block stays in cache
from its fusion to its zeroing. The C library allocates nothing. Every
call also keeps the fused votes at each pixel's best
plane -1 and +1 (one ``(2, H, W)`` array) with ``dsi._track_band``'s
rule: after the fold, one scan of the peak maps reads them for each
pixel whose best lies in the band, from the band or the previous band's
last plane, and reads the band's first plane as the votes above a best
on the previous band's last plane. The geometric and power means are not
compiled: numpy's SIMD ``log``, ``exp`` and ``pow`` are not libm's bit
for bit.

A short window's votes fill few voxels of the volume, so the two compiled
steps can skip the empty ones. Given marks, one byte per ``SEGMENT`` (16)
voxels of each row of each plane of a band (``mark_shape``), the C sweep
sets the segment of every voxel it writes, and ``fuse_band`` then visits
only marked segments: it fuses, folds and zeroes a segment that every
camera marked (min, harmonic: a zero input fuses to +0.0) or any camera
did (max, arithmetic, rms), zeroes the cameras' other marked segments and
clears the marks. A ``written`` mask per band output says which segments
of it may hold a nonzero value from an earlier band, so that the call
zeroes only those of the unfused segments and the output ends exact
everywhere; a volume gets zeros wherever nothing was fused. Every output
is bit-identical to the dense pass. The numpy sweeps set the whole mark
array once they vote (only the rare near-grazing rays go there when C
runs), and the numpy ``fuse_band`` ignores marks: numpy stays the dense
fallback and the oracle. The sweep's body is compiled twice, with and
without marking, so an unmarked sweep runs the same machine code as
before marks existed; ``pipeline._sparse`` decides per chunk.

Its fourth, ``parse_events``, is the compiled pass of
``io._parse_events_blocks``: one pass over a block of event text that
reads ``t x y p`` lines, skips blank lines and whole-line ``#`` comments,
checks every field (``t`` finite, ``x``/``y`` in int32 and on the sensor
when bounds are given, ``p`` in {0, 1, -1, +1}) and maps polarity 0 to
-1. It reads each line on its own: the caller checks the time order once
over the whole file. Its grammar is a strict 7-bit ASCII subset of what
``float()`` and ``int()`` take after ``str.split()``: fields are
``[+-]?digits`` and ``[+-]?(digits[.digits*] | .digits)([eE][+-]?digits)?``
split by spaces and tabs, and lines end in ``\n`` or ``\r\n``. A
timestamp of at most 15 significant digits and a power of ten up to 22 is
one correctly rounded IEEE multiply or divide of exact operands; any other
goes to ``strtod``, which must consume the whole field. Both round as
``float()`` does, so the values are the line parser's bit for bit. Anything
else (an inline comment, ``1_0``, another whitespace or byte, ``nan``,
``1e400``, an out-of-range field) refuses the whole block, and the line
parser decides with the same values or the error for the first bad line.

Its fifth, ``run_bands``, is a worker's whole run of the pipeline's band
loop in one call, reached through ``run_sweep`` with a ``Bands``: every
camera's affine rays in one set of arrays with per-camera start offsets,
and for each band of the run in plane order, each camera's ``sweep``
(marked or not) into the worker's stack, then ``fuse_band`` (over marked
segments or dense) with its tracking, into the fused volume or the two
band outputs in turn. It also copies each band to the per-camera volumes
when they are kept and the run's first fused plane to a buffer for the
seam merge, and returns each camera's vote count. It calls the same two
functions that Python would call band by band, so every output is the
same bit for bit; Python checks the arguments once per run instead of
once per band and camera. ``pipeline._compiled`` decides per chunk: the
compiled fusion kinds, the library loaded, and no near-grazing ray.

The C source is compiled on first use (not at import), once per source and
flag set, with ``gcc -O3 -ffp-contract=off -fPIC -shared ... -lm`` into
``$XDG_CACHE_HOME/raysweep`` (default ``~/.cache/raysweep``), and loaded with
ctypes, which releases the GIL for each call: a worker's run of bands is
one call, so the pipeline's workers hold the GIL only to set their runs up
and run in parallel for the rest. Without the library, ``run_sweep``,
``camera_poses`` with ``dsi._prepare_rays``, and ``dsi.fuse_band`` run
numpy, event files are parsed line by line, and one warning names the
error; ``kernel_name`` says which kernel runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import check_span

# Read by the benchmark's environment record; ROADMAP item 1 replaces it
# with kernel_name(), the kernel that actually runs.
HAVE_NUMBA = False

_BLOCK = 1 << 16  # events projected per step; bounds the temporaries

_SOURCE = Path(__file__).with_name("_sweep.c")
_COMPILE = ("gcc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")
_LIBS = ("-lm",)  # after the source, so that the linker keeps libm for sqrt
_I64, _PTR, _F64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
_ARGTYPES = {
    # sweep(a_u, a_v, b_u, b_v, lo, hi, n, inv_zs, votes, planes, offset,
    #       width, height, bilinear, hit, marks)
    "sweep": [_PTR] * 6 + [_I64, _PTR, _PTR, _I64, _I64, _I64, _I64,
                           ctypes.c_int, _PTR, _PTR],
    # prepare(times, quats, trans, m, ts, q_body, mount, bearings, index, n,
    #         q_ref_inv, t_ref, intr, depths, nz, inv_max, bound, a_u, a_v,
    #         b_u, b_v, lo, hi, origins, dirs, affine_ok)
    "prepare": [_PTR] * 3 + [_I64] + [_PTR] * 5 + [_I64] + [_PTR] * 4
               + [_I64, _F64, _F64] + [_PTR] * 9,
    # fuse_band(stack, n, stride, planes, plane, kind, out, p0, confidence,
    #           best, prev, below, above, width, marks, mark_stride, written)
    "fuse_band": [_PTR, _I64, _I64, _I64, _I64, ctypes.c_int, _PTR, _I64]
                 + [_PTR] * 5 + [_I64, _PTR, _I64, _PTR],
    # parse_events(text, len, width, height, t, x, y, p, cap)
    "parse_events": [_PTR, _I64, _I64, _I64] + [_PTR] * 4 + [_I64],
    # run_bands(a_u, a_v, b_u, b_v, lo, hi, starts, n, inv_zs, p0, planes,
    #           band, width, height, bilinear, kind, stack, stride, marks,
    #           mark_stride, volume, outs, written, confidence, best, below,
    #           above, first, cameras, cam_stride, hit, casts)
    "run_bands": [_PTR] * 7 + [_I64, _PTR] + [_I64] * 5
                 + [ctypes.c_int] * 2 + [_PTR, _I64, _PTR, _I64] + [_PTR] * 9
                 + [_I64, _PTR, _PTR],
}
# what each returns; None is void
_RESTYPES = {"sweep": _I64, "prepare": _I64, "fuse_band": None,
             "parse_events": _I64, "run_bands": None}

# The fusion kinds that fuse_band compiles, in _sweep.c's numbering. The
# others (geometric, power) stay with numpy: its SIMD log, exp and pow are
# not libm's bit for bit.
FUSE_KINDS = ("min", "max", "arithmetic", "rms", "harmonic")

# Voxels per mark: a band's marks hold one byte per SEGMENT voxels of each
# row of each plane (_sweep.c's SEGMENT).
SEGMENT = 16

_lock = threading.Lock()
_c_lib = None  # the loaded library, its functions typed, once built
_c_error = None  # why it could not be built or loaded


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return Path(base) / "raysweep"


def _build() -> Path:
    """Compile ``_sweep.c`` unless the cache already holds it; returns the
    library path. The name hashes the source and the compile command, and
    the library is compiled to a temporary file and renamed into place, so
    a concurrent process never loads a partly written file."""
    src = _SOURCE.read_bytes()
    flags = " ".join((*_COMPILE, *_LIBS)).encode()
    key = hashlib.sha256(src + flags).hexdigest()[:16]
    cache = _cache_dir()
    lib = cache / f"_sweep-{key}.so"
    if lib.is_file():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{lib.name}.", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE), *_LIBS],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(_COMPILE)} failed: {proc.stderr.strip()}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load_c():
    """The compiled library, built and loaded on first call, with its
    ``sweep``, ``prepare``, ``fuse_band`` and ``parse_events`` functions
    typed; None if that failed, in which case the first call warned once."""
    global _c_lib, _c_error
    with _lock:
        if _c_lib is None and _c_error is None:
            try:
                lib = ctypes.CDLL(str(_build()))
                for name, argtypes in _ARGTYPES.items():
                    fn = getattr(lib, name)
                    fn.argtypes = argtypes
                    fn.restype = _RESTYPES[name]
                _c_lib = lib
            except Exception as exc:  # no compiler, no cache, bad library...
                _c_error = f"{type(exc).__name__}: {exc}"
                warnings.warn(f"raysweep: C kernels unavailable, preparing, "
                              f"sweeping and fusing with numpy and parsing "
                              f"line by line ({_c_error})",
                              RuntimeWarning, stacklevel=2)
    return _c_lib


def _require_c():
    """The compiled library; raises RuntimeError if it is unavailable."""
    lib = _load_c()
    if lib is None:
        raise RuntimeError(f"C kernel requested but unavailable ({_c_error})")
    return lib


def kernel_name() -> str:
    """The kernel that prepares and sweeps rays: "c" if the library loads."""
    return "c" if _load_c() is not None else "numpy"


def _check_votes(votes):
    """Both kernels index ``votes`` flat, as a C-contiguous array."""
    if not (isinstance(votes, np.ndarray) and votes.dtype == np.float64
            and votes.ndim == 3 and votes.flags.c_contiguous
            and votes.flags.writeable):
        raise ValueError("votes must be a writable C-contiguous float64 "
                         "(planes, height, width) array")


def mark_shape(planes: int, height: int, width: int) -> tuple:
    """The shape of the marks of a (planes, height, width) band: one byte
    per SEGMENT voxels of each row, the last segment of a row maybe short."""
    return (planes, height, -(-width // SEGMENT))


def _check_band(votes, offset, depths, marks=None):
    """Both kernels sweep the planes [offset, offset + len(votes)) of the
    volume, reading their depth samples ``depths[i]``; raises ValueError
    unless ``votes`` passes ``_check_votes``, those planes exist and
    ``marks``, unless None, is a writable C-contiguous uint8 array of
    ``mark_shape(*votes.shape)``."""
    _check_votes(votes)
    if offset < 0 or np.ndim(depths) != 1 or len(depths) < offset + len(votes):
        raise ValueError(f"planes [{offset}, {offset + len(votes)}) of votes "
                         f"outside the {np.size(depths)} depth samples")
    if marks is not None:
        _check_map(marks, np.uint8, mark_shape(*votes.shape), "marks")


def _sweep_c(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, bilinear, offset=0,
             marks=None):
    """Call the C kernel after checking every bound it relies on, so that
    no argument can make it read or write outside its arrays. Returns the
    hit mask and the number of votes cast; ``marks`` (``mark_shape`` of
    ``votes``, or None) gets the segment of every voxel a vote wrote."""
    lib = _require_c()
    rays, inv_zs = _contiguous_rays(a_u, a_v, b_u, b_v, lo, hi, inv_zs)
    offset = int(offset)
    _check_band(votes, offset, inv_zs, marks)
    n = len(rays[4])
    hit = np.zeros(n, dtype=bool)
    planes, height, width = votes.shape
    cast = lib.sweep(*(a.ctypes.data for a in rays), n, inv_zs.ctypes.data,
                     votes.ctypes.data, planes, offset, width, height,
                     int(bilinear), hit.ctypes.data, _data(marks))
    return hit, cast


def _contiguous_rays(a_u, a_v, b_u, b_v, lo, hi, inv_zs):
    """The rays (a_u, a_v, b_u, b_v as float64, lo, hi as int64) and the
    inverse depths (float64) as C-contiguous arrays; raises ValueError
    unless the rays are 1-D and of equal length."""
    rays = [np.ascontiguousarray(a, dtype=np.float64) for a in (a_u, a_v, b_u, b_v)]
    rays += [np.ascontiguousarray(a, dtype=np.int64) for a in (lo, hi)]
    if any(a.shape != (rays[4].size,) for a in rays):
        raise ValueError("coefficient and plane-range arrays must be 1-D and "
                         "of equal length")
    return rays, np.ascontiguousarray(inv_zs, dtype=np.float64)


def empty_prep(n: int) -> list:
    """Room for the affine rays of n events: a_u, a_v, b_u, b_v (float64)
    and lo, hi (int64), uninitialised."""
    return [np.empty(n) for _ in range(4)] + [np.empty(n, np.int64)
                                              for _ in range(2)]


def prepare_c(times, quats, trans, ts, bearings, index, q_ref_inv, t_ref, intr,
              depths, inv_max, bound, mount=None, q_body=None, out=None):
    """Run the C ``prepare``, the compiled ``PoseTrajectory.camera_poses``
    and ``dsi._prepare_rays``, after checking every dtype, shape and index
    it relies on, so that no argument can make it read or write outside its
    arrays.

    Event k's body pose is interpolated at ``ts[k]`` in the trajectory
    samples ``times`` (m,), strictly increasing, ``quats`` (m, 4) and
    ``trans`` (m, 3), as ``PoseTrajectory.interpolate_batch`` does it, with
    ``q_body`` (n, 4), where given, as the slerped rotations that it pins
    exact sample hits over; a time that is not finite or lies outside the
    samples' span raises OutOfTrajectoryRange, as there. ``ts`` None (m
    must be 1) gives every event the one sample. ``mount`` (q (4,), t (3,))
    is the camera's pose on the body, as ``camera_poses`` composes it;
    None takes the body pose as the camera's. The event's undistorted
    bearing is ``bearings[index[k]]``; ``q_ref_inv``/``t_ref`` are the
    inverse rotation and position of the reference view, ``intr`` its (fx,
    fy, cx, cy).

    Returns (a_u, a_v, b_u, b_v, lo, hi, origins, dirs, affine_ok), as
    ``_prepare_rays`` does, bit for bit, except that ``origins`` and
    ``dirs`` hold only the rays where ``affine_ok`` is False, in event
    order: ``_prepare_rays``' ``origins[~affine_ok]``. a_u ... hi are
    written into ``out``, arrays as ``empty_prep`` makes them, where given.
    """
    lib = _require_c()
    times, quats, trans, bearings, q_ref_inv, t_ref, intr, depths = (
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (times, quats, trans, bearings, q_ref_inv, t_ref, intr, depths))
    index = np.ascontiguousarray(index, dtype=np.int64)
    n, m = len(index), len(times)
    if not (index.ndim == 1 and times.ndim == 1 and m >= 1
            and quats.shape == (m, 4) and trans.shape == (m, 3)):
        raise ValueError("index, times, quats and trans must be (n,), (m,), "
                         "(m, 4) and (m, 3), m >= 1")
    if not (np.diff(times) > 0.0).all():
        raise ValueError("trajectory times must be strictly increasing")
    if ts is None:
        if m != 1:
            raise ValueError(f"event times needed for {m} trajectory samples")
    else:
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        if ts.shape != (n,):
            raise ValueError(f"ts must be an ({n},) array")
        check_span(ts, times)
    if mount is not None:
        mount = np.concatenate([np.asarray(a, dtype=np.float64).reshape(-1)
                                for a in mount])
        if mount.shape != (7,):
            raise ValueError("mount must be a (4,) rotation and a (3,) offset")
    if q_body is not None:
        q_body = np.ascontiguousarray(q_body, dtype=np.float64)
        if q_body.shape != (n, 4):
            raise ValueError(f"q_body must be an ({n}, 4) array")
    if bearings.ndim != 2 or bearings.shape[1] != 2:
        raise ValueError("bearings must be a (pixels, 2) array")
    if (q_ref_inv.shape, t_ref.shape, intr.shape) != ((4,), (3,), (4,)) \
            or depths.ndim != 1:
        raise ValueError("q_ref_inv, t_ref and intr must be (4,), (3,) and "
                         "(4,), depths 1-D")
    if n and (index.min() < 0 or index.max() >= len(bearings)):
        raise ValueError(f"pixel index outside the {len(bearings)} bearings")
    if out is None:
        out = empty_prep(n)
    elif len(out) != 6:
        raise ValueError("out must hold six arrays: a_u, a_v, b_u, b_v, lo, hi")
    for a, dtype in zip(out, [np.float64] * 4 + [np.int64] * 2):
        _check_map(a, dtype, (n,), "out")
    a_u, a_v, b_u, b_v, lo, hi = out
    # room for every ray, but C writes only the grazing ones, so the pages
    # past them are never touched
    origins, dirs = np.empty((n, 3)), np.empty((n, 3))
    affine_ok = np.empty(n, dtype=bool)
    grazing = lib.prepare(
        times.ctypes.data, quats.ctypes.data, trans.ctypes.data, m, _data(ts),
        _data(q_body), _data(mount), bearings.ctypes.data, index.ctypes.data, n,
        q_ref_inv.ctypes.data, t_ref.ctypes.data, intr.ctypes.data,
        depths.ctypes.data, len(depths), float(inv_max), float(bound),
        *(a.ctypes.data for a in (a_u, a_v, b_u, b_v, lo, hi, origins, dirs,
                                  affine_ok)))
    return (a_u, a_v, b_u, b_v, lo, hi, origins[:grazing].copy(),
            dirs[:grazing].copy(), affine_ok)


def _check_map(a, dtype, shape, what):
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{what} must be writable C-contiguous "
                         f"{np.dtype(dtype).name} arrays of shape {shape}")


def fuse_band_c(kind, stack, out, p0, confidence, best, prev, around,
                marks=None, written=None):
    """Run the C ``fuse_band`` after checking every dtype, shape, stride and
    index it relies on, so that no argument can make it read or write
    outside its arrays.

    ``stack`` (cameras, planes, H, W) holds each camera's votes on the
    planes [p0, p0 + planes) of the volume; each camera's planes must be
    contiguous, but the cameras may lie any stride apart (a short band of a
    larger buffer). It is fused with ``kind`` (one of FUSE_KINDS) into the
    C-contiguous ``out`` (planes, H, W), folded into the running per-pixel
    maximum ``confidence`` (float64) and its plane ``best`` (int64), both
    C-contiguous (H, W), and zeroed. The call also keeps in ``around``, a
    C-contiguous float64 (2, H, W) array that the bands of one run share,
    the fused votes at each pixel's best plane -1 and +1 (see
    ``dsi._track_band``); ``prev`` (H, W) is the previous band's last
    fused plane, None for a run's first band.

    With ``marks`` (cameras, planes, H, segs) uint8, ``mark_shape`` per
    camera (each camera's marks contiguous, the cameras any stride apart),
    which set at least every segment that holds a vote, the call visits
    only the marked segments: it fuses, folds and zeroes a segment that
    every camera marked (min, harmonic) or any camera did (max,
    arithmetic, rms), zeroes the other marked ones, and clears the marks.
    Every other segment of ``out`` is set to zero, except where
    ``written`` (``mark_shape`` of ``out``, or None: everywhere), the
    segments of ``out`` that may hold a nonzero value, says that it
    already is; ``written`` is left marking the fused segments. Every
    output is the same bit for bit as without marks.
    """
    lib = _require_c()
    _check_kind(kind)
    stride = _check_stack(stack, "stack")
    n, planes, height, width = stack.shape
    _check_votes(out)
    if out.shape != (planes, height, width):
        raise ValueError(f"out must have shape {(planes, height, width)}")
    _check_peak(confidence, best, around, (height, width))
    if prev is not None:
        _check_map(prev, np.float64, (height, width), "prev")
    mark_stride = _check_marks(marks, stack.shape)
    if written is not None:
        if marks is None:
            raise ValueError("written needs marks: without them every "
                             "segment of out is written")
        _check_map(written, np.uint8, mark_shape(planes, height, width),
                   "written")
    lib.fuse_band(stack.ctypes.data, n, stride, planes, height * width,
                  FUSE_KINDS.index(kind), out.ctypes.data, int(p0),
                  confidence.ctypes.data, best.ctypes.data, _data(prev),
                  around[0].ctypes.data, around[1].ctypes.data, width,
                  _data(marks), mark_stride, _data(written))


def _data(a):
    """The address that C is given for ``a``: NULL for None."""
    return None if a is None else a.ctypes.data


def _check_kind(kind):
    if kind not in FUSE_KINDS:
        raise ValueError(f"fuse_band compiles {FUSE_KINDS}, not {kind!r}")


def _check_stack(stack, what):
    """``stack`` (cameras, planes, H, W) float64, writable, each camera's
    planes non-empty and C-contiguous, the cameras any stride apart but
    not overlapping; returns that stride in float64 items."""
    if not (isinstance(stack, np.ndarray) and stack.dtype == np.float64
            and stack.ndim == 4 and stack.flags.writeable):
        raise ValueError(f"{what} must be a writable float64 (cameras, "
                         f"planes, height, width) array")
    n, planes, height, width = stack.shape
    item = stack.itemsize
    if stack.size == 0 or stack.strides[1:] != (height * width * item,
                                                width * item, item):
        raise ValueError(f"each camera's planes of {what} must be non-empty "
                         f"and C-contiguous")
    if n > 1 and (stack.strides[0] % item
                  or stack.strides[0] < planes * height * width * item):
        raise ValueError(f"the cameras' planes of {what} must not overlap")
    return stack.strides[0] // item


def _check_peak(confidence, best, around, shape):
    _check_map(confidence, np.float64, shape, "the peak maps")
    _check_map(best, np.int64, shape, "the peak maps")
    _check_map(around, np.float64, (2,) + shape, "around")


def _check_marks(marks, shape):
    """``marks`` None, or the uint8 (cameras, planes, H, segs) marks of a
    stack of ``shape``, each camera's C-contiguous and the cameras not
    overlapping; returns their camera stride in bytes (0 for None)."""
    if marks is None:
        return 0
    n, planes, height, width = shape
    segs = mark_shape(planes, height, width)
    if not (isinstance(marks, np.ndarray) and marks.dtype == np.uint8
            and marks.shape == (n,) + segs and marks.flags.writeable
            and marks.strides[1:] == (height * segs[2], segs[2], 1)):
        raise ValueError(f"marks must be writable uint8 arrays of shape "
                         f"{(n,) + segs}, each camera's C-contiguous")
    if n > 1 and marks.strides[0] < planes * height * segs[2]:
        raise ValueError("the cameras' marks must not overlap")
    return marks.strides[0]


def parse_events_c(text, width, height):
    """Run the C ``parse_events`` on the event text ``text`` (bytes).

    ``width``/``height`` bound x and y when both are >= 0. Returns (t, x,
    y, p): the events in file order, with polarity 0 as -1, their time
    order unchecked. Returns None where the pass refuses the text (see
    ``_sweep.c``): the line parser decides.
    """
    lib = _require_c()
    if not isinstance(text, bytes):
        raise TypeError("text must be bytes")
    # An event line takes at least 8 bytes with its newline ("0 0 0 0\n").
    # Pages the events never reach are never touched.
    cap = len(text) // 8 + 1
    t, x, y, p = (np.empty(cap, dtype) for dtype in (np.float64, np.int32,
                                                     np.int32, np.int8))
    n = lib.parse_events(text, len(text), int(width), int(height),
                         t.ctypes.data, x.ctypes.data, y.ctypes.data,
                         p.ctypes.data, cap)
    if n < 0:
        return None
    return t[:n], x[:n], y[:n], p[:n]


def _scatter_plane(u, v, ok, plane, bilinear):
    """Add the votes of intersections ``(u, v)`` where ``ok`` into one
    (height, width) plane; returns ``ok`` narrowed to the events that voted.

    Nearest adds a unit at the rounded voxel, which must exist. Bilinear
    adds each hit's four corner weights in ``_sweep.c``'s order: one
    unbuffered ``np.add.at`` over the corners, event by event, so every
    voxel sums the same values in the same order as in C.
    """
    height, width = plane.shape
    if not bilinear:
        # floor(u + 0.5) < width <=> fl(u + 0.5) < width, which implies u < width
        with np.errstate(invalid="ignore"):
            u = u + 0.5
            v = v + 0.5
            ok &= (u < width) & (v < height)
    x, y = u[ok], v[ok]
    if x.size == 0:
        return ok
    x0 = np.floor(x)
    y0 = np.floor(y)
    idx = (y0 * width + x0).astype(np.int64)  # an exact integer in float
    flat = plane.reshape(-1)  # a view: votes are C-contiguous
    if not bilinear:
        np.add.at(flat, idx, 1.0)
        return ok
    x -= x0
    y -= y0
    rx = 1.0 - x
    ry = 1.0 - y
    corners = np.empty((x.size, 4), dtype=np.int64)
    weights = np.empty((x.size, 4))
    for k, (step, wx, wy) in enumerate(
            [(0, rx, ry), (1, x, ry), (width, rx, y), (width + 1, x, y)]):
        np.add(idx, step, out=corners[:, k])
        np.multiply(wx, wy, out=weights[:, k])
    # A corner past the last column or row adds +0.0 to a voxel of the grid
    # instead, which changes no bit (a vote is never -0.0).
    last = np.flatnonzero(x0 == width - 1)
    corners[last, 1::2] -= 1
    weights[last, 1::2] = 0.0
    last = np.flatnonzero(y0 == height - 1)
    corners[last, 2:] -= width
    weights[last, 2:] = 0.0
    np.add.at(flat, corners.ravel(), weights.ravel())
    return ok


def _sweep_planes(project, lo, hi, votes, bilinear, offset, depths, marks):
    """Plane-major numpy sweep shared by the affine and the direct kernel.

    ``project(i, s, e)`` returns the pixel coordinates (u, v) where the rays
    of events s:e meet plane i, which is ``votes[i - offset]``, at the depth
    sample ``depths[i]``. Returns the per-event hit mask and the number of
    votes cast. ``marks``, unless None, is set whole once a vote is cast.
    """
    _check_band(votes, offset, depths, marks)
    n_events = lo.shape[0]
    hit = np.zeros(n_events, dtype=bool)
    cast = 0
    height, width = votes.shape[1:]
    for i, plane in enumerate(votes, offset):
        for s in range(0, n_events, _BLOCK):
            e = min(s + _BLOCK, n_events)
            u, v = project(i, s, e)
            with np.errstate(invalid="ignore"):
                ok = (lo[s:e] <= i) & (hi[s:e] > i)
                ok &= (u >= 0.0) & (u < width) & (v >= 0.0) & (v < height)
            voted = _scatter_plane(u, v, ok, plane, bilinear)
            hit[s:e] |= voted
            cast += int(np.count_nonzero(voted))
    if marks is not None and cast:
        marks.fill(1)
    return hit, cast


def _sweep_numpy(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, bilinear, offset=0,
                 marks=None):
    def project(i, s, e):
        inv_z = inv_zs[i]
        with np.errstate(invalid="ignore", over="ignore"):
            u = b_u[s:e] * inv_z
            v = b_v[s:e] * inv_z
            u += a_u[s:e]
            v += a_v[s:e]
        return u, v

    return _sweep_planes(project, lo, hi, votes, bilinear, offset, inv_zs, marks)


def sweep_direct(origins, dirs, lo, hi, zs, intr, votes, bilinear, offset=0,
                 marks=None):
    """Vote near-grazing rays by direct per-plane intersection.

    The affine u = a + b/z form cancels catastrophically when the ray runs
    nearly parallel to the planes (|a|, |b/z| >> |u|); evaluating the
    intersection point explicitly stays well conditioned. Vectorized numpy;
    only the rare ill-conditioned events take this route. Same plane-major
    sweep, plane offset and (hit mask, votes cast) return as the affine
    kernels; ``marks`` (or None) is set whole once a vote is cast, as these
    rays are too few to mark one by one.
    """
    fx, fy, cx, cy = intr

    def project(i, s, e):
        z = zs[i]
        o = origins[s:e]
        d = dirs[s:e]
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            lam = (z - o[:, 2]) / d[:, 2]
            u = fx * (o[:, 0] + lam * d[:, 0]) / z + cx
            v = fy * (o[:, 1] + lam * d[:, 1]) / z + cy
        return u, v

    return _sweep_planes(project, lo, hi, votes, bilinear, offset, zs, marks)


class Bands(NamedTuple):
    """The band step of a worker's run of bands, for ``run_sweep``.

    Camera c's rays are the events ``starts[c]:starts[c + 1]`` of the
    sweep's ``prep`` (``starts`` ascends from 0 to the event count); the
    run is the planes [offset, offset + ``planes``) of the volume. Each
    band is fused with ``kind``, one of FUSE_KINDS, into its planes of
    ``volume`` (``planes``, H, W) or, where that is None, into ``outs``
    (2, band planes, H, W), the two band outputs in turn, with
    ``written``, their ``mark_shape`` written masks (2, ...) or None, as
    ``fuse_band_c`` takes them. ``confidence``, ``best`` and ``around``
    are the worker's running maximum and the votes beside it, from
    ``dsi.empty_peak``. ``first`` (H, W), unless None, gets the run's first
    fused plane, and ``cameras`` (cameras, ``planes``, H, W), unless None,
    every camera's votes on the run's planes.
    """

    starts: np.ndarray
    planes: int
    kind: str
    confidence: np.ndarray
    best: np.ndarray
    around: np.ndarray
    volume: np.ndarray | None = None
    outs: np.ndarray | None = None
    written: np.ndarray | None = None
    first: np.ndarray | None = None
    cameras: np.ndarray | None = None


def _run_c(a_u, a_v, b_u, b_v, lo, hi, inv_zs, stack, mode, offset, marks,
           bands: Bands):
    """Run the C ``run_bands`` after checking every dtype, shape, stride,
    offset and plane range it relies on, so that no argument can make it
    read or write outside its arrays. Returns the hit mask over every
    camera's events and each camera's number of votes cast."""
    lib = _require_c()
    if mode not in ("nearest", "bilinear"):
        raise ValueError(f"unknown voting mode {mode!r}")
    _check_kind(bands.kind)
    rays, inv_zs = _contiguous_rays(a_u, a_v, b_u, b_v, lo, hi, inv_zs)
    count = len(rays[4])
    stride = _check_stack(stack, "stack")
    n, band, height, width = stack.shape
    starts = np.ascontiguousarray(bands.starts, dtype=np.int64)
    if not (starts.shape == (n + 1,) and starts[0] == 0
            and starts[-1] == count and (np.diff(starts) >= 0).all()):
        raise ValueError(f"starts must ascend from 0 to the {count} events, "
                         f"one per camera of the stack and then the end")
    offset, planes = int(offset), int(bands.planes)
    if not (offset >= 0 and planes >= 1 and inv_zs.ndim == 1
            and offset + planes <= len(inv_zs)):
        raise ValueError(f"planes [{offset}, {offset + planes}) of the run "
                         f"outside the {inv_zs.size} depth samples")
    shape = (height, width)
    _check_peak(bands.confidence, bands.best, bands.around, shape)
    if bands.first is not None:
        _check_map(bands.first, np.float64, shape, "first")
    mark_stride = _check_marks(marks, stack.shape)
    if (bands.volume is None) == (bands.outs is None):
        raise ValueError("pass exactly one of volume and outs")
    if bands.volume is not None:
        _check_map(bands.volume, np.float64, (planes,) + shape, "volume")
    else:
        _check_map(bands.outs, np.float64, (2, band) + shape, "outs")
    if bands.written is not None:
        if marks is None or bands.outs is None:
            raise ValueError("written needs marks and outs")
        _check_map(bands.written, np.uint8, (2,) + mark_shape(band, *shape),
                   "written")
    cam_stride = 0
    if bands.cameras is not None:
        cam_stride = _check_stack(bands.cameras, "cameras")
        if bands.cameras.shape != (n, planes) + shape:
            raise ValueError(f"cameras must have shape {(n, planes) + shape}")
    hit = np.zeros(count, dtype=bool)
    casts = np.zeros(n, dtype=np.int64)
    around = bands.around
    lib.run_bands(*(a.ctypes.data for a in rays), starts.ctypes.data, n,
                  inv_zs.ctypes.data, offset, planes, band, width, height,
                  int(mode == "bilinear"), FUSE_KINDS.index(bands.kind),
                  stack.ctypes.data, stride,
                  _data(marks), mark_stride, _data(bands.volume),
                  _data(bands.outs), _data(bands.written),
                  bands.confidence.ctypes.data, bands.best.ctypes.data,
                  around[0].ctypes.data, around[1].ctypes.data,
                  _data(bands.first), _data(bands.cameras), cam_stride,
                  hit.ctypes.data, casts.ctypes.data)
    return hit, casts.tolist()


def run_sweep(prep, inv_zs, votes, mode, offset=0, marks=None, bands=None):
    """Sweep a prepared event batch with the C kernel, or with numpy when
    the library is unavailable; the votes are the same bit for bit.

    ``prep`` is the (a_u, a_v, b_u, b_v, lo, hi) tuple of affine-form
    coefficients; an event votes only on the planes of its [lo, hi) that
    ``votes`` holds, and plane i is ``votes[i - offset]``; ``dsi.sweep_band``
    checks ``mode``. Returns the boolean mask of events that voted on at
    least one plane and the number of (event, plane) votes cast.

    ``marks``, a ``mark_shape(*votes.shape)`` uint8 array or None, gets a 1
    at least for every segment of SEGMENT voxels of a row that a vote
    wrote: C marks each vote's segments, numpy the whole array once a vote
    is cast. The votes and the count are the same with or without marks.

    With ``bands`` (a ``Bands``, C only), the call is a worker's whole run
    of band steps in one C call, which holds no GIL: ``prep`` holds every
    camera's rays, ``votes`` is the worker's zeroed (cameras, band planes,
    H, W) stack and ``marks`` its (cameras, ...) marks or None, and band by
    band of the run, each camera is swept into its band of the stack and
    the band is fused, folded, tracked and zeroed with ``fuse_band_c``.
    Every output is that of those calls made one by one. The hit mask then
    covers every camera's events, and the count is a list, one per camera.
    """
    if bands is not None:
        return _run_c(*prep, inv_zs, votes, mode, offset, marks, bands)
    sweep = _sweep_c if kernel_name() == "c" else _sweep_numpy
    return sweep(*prep, inv_zs, votes, bilinear=(mode == "bilinear"), offset=offset,
                 marks=marks)
