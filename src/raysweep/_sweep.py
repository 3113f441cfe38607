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
plane; an intersection must land inside [0, W) x [0, H), and the nearest
voxel must exist (the top half-pixel edge rounds out of the grid). Plane
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
bit-identical in both modes: C is only an accelerator.

``_sweep.c`` also holds ``prepare``, the compiled ``dsi._prepare_rays``
that computes these coefficients (and each ray's origin, direction and
conditioning flag) in one pass per event, with numpy's operations in
numpy's order, so its outputs are bit-identical to the numpy form's.

Its third function, ``fuse_band``, is the compiled ``dsi.fuse_band``: the
band step that follows the sweep. In one pass over a band of every
camera's votes it fuses them (min, max, arithmetic, rms or harmonic,
voxel by voxel, with numpy's IEEE operations in numpy's axis-0 order),
totals each camera and the fused band, folds the fused planes into a
running per-pixel maximum (strict >, so the first maximum, as
``np.argmax``) and zeroes the votes for the next band. The totals follow
numpy's own pairwise ``sum`` of a contiguous array: halves split at
``n/2 - (n/2) % 8`` down to leaves of at most 128 elements, each summed
with eight accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
plus its tail (a leaf under 8 elements is a plain loop from 0.0). Fusion
runs inside those leaves, so each total is ``float(x.sum())`` of its band
bit for bit. The recursion keeps its partial totals in rows of a
workspace that ``fuse_band_c`` allocates: the C library allocates
nothing. The geometric and power means are not compiled: numpy's SIMD
``log``, ``exp`` and ``pow`` are not libm's bit for bit.

The C source is compiled on first use (not at import), once per source and
flag set, with ``gcc -O3 -ffp-contract=off -fPIC -shared ... -lm`` into
``$XDG_CACHE_HOME/raysweep`` (default ``~/.cache/raysweep``), and loaded with
ctypes, which releases the GIL for the call, so plane ranges split across
threads still run in parallel. Without the library, ``run_sweep``,
``dsi._prepare_rays`` and ``dsi.fuse_band`` run numpy and one warning
names the error; ``kernel_name`` says which kernel runs.
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

import numpy as np

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
    #       width, height, bilinear, hit)
    "sweep": [_PTR] * 6 + [_I64, _PTR, _PTR, _I64, _I64, _I64, _I64,
                           ctypes.c_int, _PTR],
    # prepare(q_wc, t_wc, bearings, index, n, q_ref_inv, t_ref, intr, depths,
    #         nz, inv_max, bound, a_u, a_v, b_u, b_v, lo, hi, origins, dirs,
    #         affine_ok)
    "prepare": [_PTR] * 4 + [_I64] + [_PTR] * 4 + [_I64, _F64, _F64]
               + [_PTR] * 9,
    # fuse_band(stack, n, stride, planes, plane, kind, out, p0, confidence,
    #           best, work)
    "fuse_band": [_PTR, _I64, _I64, _I64, _I64, ctypes.c_int, _PTR, _I64]
                 + [_PTR] * 3,
}

# The fusion kinds that fuse_band compiles, in _sweep.c's numbering. The
# others (geometric, power) stay with numpy: its SIMD log, exp and pow are
# not libm's bit for bit.
FUSE_KINDS = ("min", "max", "arithmetic", "rms", "harmonic")

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
    ``sweep``, ``prepare`` and ``fuse_band`` functions typed; None if that
    failed, in which case the first call warned once."""
    global _c_lib, _c_error
    with _lock:
        if _c_lib is None and _c_error is None:
            try:
                lib = ctypes.CDLL(str(_build()))
                for name, argtypes in _ARGTYPES.items():
                    fn = getattr(lib, name)
                    fn.argtypes = argtypes
                    fn.restype = None
                _c_lib = lib
            except Exception as exc:  # no compiler, no cache, bad library...
                _c_error = f"{type(exc).__name__}: {exc}"
                warnings.warn(f"raysweep: C kernels unavailable, preparing, "
                              f"sweeping and fusing with numpy ({_c_error})",
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


def _check_band(votes, offset, depths):
    """Both kernels sweep the planes [offset, offset + len(votes)) of the
    volume, reading their depth samples ``depths[i]``; raises ValueError
    unless ``votes`` passes ``_check_votes`` and those planes exist."""
    _check_votes(votes)
    if offset < 0 or np.ndim(depths) != 1 or len(depths) < offset + len(votes):
        raise ValueError(f"planes [{offset}, {offset + len(votes)}) of votes "
                         f"outside the {np.size(depths)} depth samples")


def _sweep_c(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, bilinear, offset=0):
    """Call the C kernel after checking every bound it relies on, so that
    no argument can make it read or write outside its arrays."""
    lib = _require_c()
    coeffs = [np.ascontiguousarray(c, dtype=np.float64) for c in (a_u, a_v, b_u, b_v)]
    lo = np.ascontiguousarray(lo, dtype=np.int64)
    hi = np.ascontiguousarray(hi, dtype=np.int64)
    inv_zs = np.ascontiguousarray(inv_zs, dtype=np.float64)
    offset = int(offset)
    _check_band(votes, offset, inv_zs)
    n = lo.size
    if any(a.shape != (n,) for a in (*coeffs, lo, hi)):
        raise ValueError("coefficient and plane-range arrays must be 1-D and "
                         "of equal length")
    hit = np.zeros(n, dtype=bool)
    planes, height, width = votes.shape
    lib.sweep(*(c.ctypes.data for c in coeffs), lo.ctypes.data, hi.ctypes.data,
              n, inv_zs.ctypes.data, votes.ctypes.data, planes, offset, width,
              height, int(bilinear), hit.ctypes.data)
    return hit


def prepare_c(q_wc, t_wc, bearings, index, q_ref_inv, t_ref, intr, depths,
              inv_max, bound):
    """Run the C ``prepare``, the compiled ``dsi._prepare_rays``, after
    checking every dtype, shape and index it relies on, so that no argument
    can make it read or write outside its arrays.

    Event k's camera pose is (``q_wc[k]``, ``t_wc[k]``) and its undistorted
    bearing ``bearings[index[k]]``; ``q_ref_inv``/``t_ref`` are the inverse
    rotation and position of the reference view, ``intr`` its (fx, fy, cx,
    cy). Returns (a_u, a_v, b_u, b_v, lo, hi, origins, dirs, affine_ok), as
    ``_prepare_rays`` does, bit for bit.
    """
    lib = _require_c()
    q_wc, t_wc, bearings, q_ref_inv, t_ref, intr, depths = (
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (q_wc, t_wc, bearings, q_ref_inv, t_ref, intr, depths))
    index = np.ascontiguousarray(index, dtype=np.int64)
    n = len(index)
    if not (index.ndim == 1 and q_wc.shape == (n, 4) and t_wc.shape == (n, 3)):
        raise ValueError("index, q_wc and t_wc must be (n,), (n, 4) and (n, 3)")
    if bearings.ndim != 2 or bearings.shape[1] != 2:
        raise ValueError("bearings must be an (m, 2) array")
    if (q_ref_inv.shape, t_ref.shape, intr.shape) != ((4,), (3,), (4,)) \
            or depths.ndim != 1:
        raise ValueError("q_ref_inv, t_ref and intr must be (4,), (3,) and "
                         "(4,), depths 1-D")
    if n and (index.min() < 0 or index.max() >= len(bearings)):
        raise ValueError(f"pixel index outside the {len(bearings)} bearings")
    a_u, a_v, b_u, b_v = (np.empty(n) for _ in range(4))
    lo, hi = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    origins, dirs = np.empty((n, 3)), np.empty((n, 3))
    affine_ok = np.empty(n, dtype=bool)
    lib.prepare(q_wc.ctypes.data, t_wc.ctypes.data, bearings.ctypes.data,
                index.ctypes.data, n, q_ref_inv.ctypes.data, t_ref.ctypes.data,
                intr.ctypes.data, depths.ctypes.data, len(depths),
                float(inv_max), float(bound),
                *(a.ctypes.data for a in (a_u, a_v, b_u, b_v, lo, hi, origins,
                                          dirs, affine_ok)))
    return a_u, a_v, b_u, b_v, lo, hi, origins, dirs, affine_ok


def fuse_band_c(kind, stack, out, p0, confidence, best):
    """Run the C ``fuse_band`` after checking every dtype, shape and stride
    it relies on, so that no argument can make it read or write outside
    its arrays.

    ``stack`` (cameras, planes, H, W) holds each camera's votes on the
    planes [p0, p0 + planes) of the volume; each camera's planes must be
    contiguous, but the cameras may lie any stride apart (a short band of a
    larger buffer). It is fused with ``kind`` (one of FUSE_KINDS) into the
    C-contiguous ``out`` (planes, H, W), folded into the running per-pixel
    maximum ``confidence`` (float64) and its plane ``best`` (int64), both
    C-contiguous (H, W), and zeroed. Returns the cameras' vote totals and
    the fused total, each ``float(x.sum())`` of its band bit for bit.
    """
    lib = _require_c()
    if kind not in FUSE_KINDS:
        raise ValueError(f"fuse_band compiles {FUSE_KINDS}, not {kind!r}")
    if not (isinstance(stack, np.ndarray) and stack.dtype == np.float64
            and stack.ndim == 4 and stack.flags.writeable):
        raise ValueError("stack must be a writable float64 (cameras, planes, "
                         "height, width) array")
    n, planes, height, width = stack.shape
    item = stack.itemsize
    if stack.size == 0 or stack.strides[1:] != (height * width * item,
                                                width * item, item):
        raise ValueError("each camera's planes must be non-empty and "
                         "C-contiguous")
    if n > 1 and (stack.strides[0] % item
                  or stack.strides[0] < planes * height * width * item):
        raise ValueError("the cameras' bands must not overlap")
    _check_votes(out)
    if out.shape != (planes, height, width):
        raise ValueError(f"out must have shape {(planes, height, width)}")
    for a, dtype in ((confidence, np.float64), (best, np.int64)):
        if not (isinstance(a, np.ndarray) and a.dtype == dtype
                and a.shape == (height, width) and a.flags.c_contiguous
                and a.flags.writeable):
            raise ValueError(f"the peak maps must be writable C-contiguous "
                             f"float64 and int64 arrays of shape "
                             f"{(height, width)}")
    # one row of n + 1 partial totals per level of the pairwise recursion;
    # row 0 receives the totals
    work = np.empty(((planes * height * width).bit_length(), n + 1))
    lib.fuse_band(stack.ctypes.data, n, stack.strides[0] // item, planes,
                  height * width, FUSE_KINDS.index(kind), out.ctypes.data,
                  int(p0), confidence.ctypes.data, best.ctypes.data,
                  work.ctypes.data)
    return [float(t) for t in work[0, :n]], float(work[0, n])


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


def _sweep_planes(project, lo, hi, votes, bilinear, offset, depths):
    """Plane-major numpy sweep shared by the affine and the direct kernel.

    ``project(i, s, e)`` returns the pixel coordinates (u, v) where the rays
    of events s:e meet plane i, which is ``votes[i - offset]``, at the depth
    sample ``depths[i]``. Returns the per-event hit mask.
    """
    _check_band(votes, offset, depths)
    n_events = lo.shape[0]
    hit = np.zeros(n_events, dtype=bool)
    height, width = votes.shape[1:]
    for i, plane in enumerate(votes, offset):
        for s in range(0, n_events, _BLOCK):
            e = min(s + _BLOCK, n_events)
            u, v = project(i, s, e)
            with np.errstate(invalid="ignore"):
                ok = (lo[s:e] <= i) & (hi[s:e] > i)
                ok &= (u >= 0.0) & (u < width) & (v >= 0.0) & (v < height)
            hit[s:e] |= _scatter_plane(u, v, ok, plane, bilinear)
    return hit


def _sweep_numpy(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, bilinear, offset=0):
    def project(i, s, e):
        inv_z = inv_zs[i]
        with np.errstate(invalid="ignore", over="ignore"):
            u = b_u[s:e] * inv_z
            v = b_v[s:e] * inv_z
            u += a_u[s:e]
            v += a_v[s:e]
        return u, v

    return _sweep_planes(project, lo, hi, votes, bilinear, offset, inv_zs)


def sweep_direct(origins, dirs, lo, hi, zs, intr, votes, bilinear, offset=0):
    """Vote near-grazing rays by direct per-plane intersection.

    The affine u = a + b/z form cancels catastrophically when the ray runs
    nearly parallel to the planes (|a|, |b/z| >> |u|); evaluating the
    intersection point explicitly stays well conditioned. Vectorized numpy;
    only the rare ill-conditioned events take this route. Same plane-major
    sweep, plane offset and hit-mask return as the affine kernels.
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

    return _sweep_planes(project, lo, hi, votes, bilinear, offset, zs)


def run_sweep(prep, inv_zs, votes, mode, offset=0):
    """Sweep a prepared event batch with the C kernel, or with numpy when
    the library is unavailable; the votes are the same bit for bit.

    ``prep`` is the (a_u, a_v, b_u, b_v, lo, hi) tuple of affine-form
    coefficients; an event votes only on the planes of its [lo, hi) that
    ``votes`` holds, and plane i is ``votes[i - offset]``; ``dsi.sweep_band`` checks ``mode``.
    Returns the boolean mask of events that voted on at least one plane.
    """
    sweep = _sweep_c if kernel_name() == "c" else _sweep_numpy
    return sweep(*prep, inv_zs, votes, bilinear=(mode == "bilinear"), offset=offset)
