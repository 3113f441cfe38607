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
volume; every event's [lo, hi) must lie within the array's planes.

Both kernels sweep plane-major, as the space sweep does: for each plane
they project every event, in ascending order, and scatter the hits into
that plane's W x H slice alone, which stays in cache. A plane's votes
therefore depend only on the events and their order, never on which other
planes the same call sweeps, so callers may split the planes [lo, hi)
across threads or bands (clip ``lo``/``hi`` to each range) and get the
same volume bit for bit at any worker count or band size.

Two kernels keep this contract: ``_sweep.c``, and numpy (blocks of events
per step), which is the fallback and the test oracle. Nearest-mode votes
are integral adds, so both produce bit-identical grids; bilinear differs
only in summation order.

The C source is compiled on first use (not at import), once per source and
flag set, with ``gcc -O3 -ffp-contract=off -fPIC -shared`` into
``$XDG_CACHE_HOME/raysweep`` (default ``~/.cache/raysweep``), and loaded with
ctypes, which releases the GIL for the call, so plane ranges split across
threads still run in parallel. If the library cannot be built or loaded,
``kernel="auto"`` runs the numpy kernel and one warning names the error.
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

# Read by the benchmark's environment record; ROADMAP item 5 replaces it
# with the kernel that actually ran.
HAVE_NUMBA = False

KERNELS = ("c", "numpy")

_BLOCK = 1 << 16  # events projected per step; bounds the temporaries

_SOURCE = Path(__file__).with_name("_sweep.c")
_COMPILE = ("gcc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")
_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
# sweep(a_u, a_v, b_u, b_v, lo, hi, n, inv_zs, p0, p1, votes, offset, width,
#       height, bilinear, hit)
_ARGTYPES = [_PTR] * 6 + [_I64, _PTR, _I64, _I64, _PTR, _I64, _I64, _I64,
                          ctypes.c_int, _PTR]

_lock = threading.Lock()
_c_sweep = None  # the loaded C function, once built
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
    key = hashlib.sha256(src + " ".join(_COMPILE).encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib = cache / f"_sweep-{key}.so"
    if lib.is_file():
        return lib
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{lib.name}.", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(_COMPILE)} failed: {proc.stderr.strip()}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load_c():
    """The compiled sweep function, built and loaded on first call; None
    if that failed, in which case the first call warned once."""
    global _c_sweep, _c_error
    with _lock:
        if _c_sweep is None and _c_error is None:
            try:
                fn = ctypes.CDLL(str(_build())).sweep
                fn.argtypes = _ARGTYPES
                fn.restype = None
                _c_sweep = fn
            except Exception as exc:  # no compiler, no cache, bad library...
                _c_error = f"{type(exc).__name__}: {exc}"
                warnings.warn(f"raysweep: C sweep kernel unavailable, using the "
                              f"numpy kernel ({_c_error})", RuntimeWarning,
                              stacklevel=2)
    return _c_sweep


def resolve_kernel(kernel: str) -> str:
    """The kernel that ``kernel`` selects: ``"auto"`` is ``"c"`` when the
    compiled kernel loads and ``"numpy"`` otherwise."""
    if kernel == "auto":
        return "c" if _load_c() is not None else "numpy"
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    return kernel


def _plane_range(lo, hi, offset, votes):
    """The planes [p0, p1) that the events' ranges span; raises ValueError
    unless they lie within the planes [offset, offset + len(votes)) that
    ``votes`` holds, so that no plane index wraps or overruns."""
    p0, p1 = int(lo.min()), int(hi.max())
    if offset < 0 or p0 < offset or p1 > offset + votes.shape[0]:
        raise ValueError(f"plane range [{p0}, {p1}) outside the planes "
                         f"[{offset}, {offset + votes.shape[0]}) of votes")
    return p0, p1


def _sweep_c(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, width, height, bilinear,
             offset=0):
    """Call the C kernel after checking every bound it relies on, so that
    no argument can make it read or write outside its arrays."""
    fn = _load_c()
    if fn is None:
        raise RuntimeError(f"C kernel requested but unavailable ({_c_error})")
    if not (isinstance(votes, np.ndarray) and votes.dtype == np.float64
            and votes.ndim == 3 and votes.flags.c_contiguous
            and votes.flags.writeable):
        raise ValueError("votes must be a writable C-contiguous float64 "
                         "(planes, height, width) array")
    if votes.shape[1:] != (height, width):
        raise ValueError(f"votes shape {votes.shape} does not match "
                         f"height {height} x width {width}")
    coeffs = [np.ascontiguousarray(c, dtype=np.float64) for c in (a_u, a_v, b_u, b_v)]
    lo = np.ascontiguousarray(lo, dtype=np.int64)
    hi = np.ascontiguousarray(hi, dtype=np.int64)
    inv_zs = np.ascontiguousarray(inv_zs, dtype=np.float64)
    n = lo.size
    if any(a.shape != (n,) for a in (*coeffs, lo, hi)):
        raise ValueError("coefficient and plane-range arrays must be 1-D and "
                         "of equal length")
    offset = int(offset)
    if inv_zs.ndim != 1 or inv_zs.size < offset + votes.shape[0]:
        raise ValueError("inv_zs must hold an inverse depth for every plane "
                         "of votes")
    hit = np.zeros(n, dtype=bool)
    if n == 0:
        return hit
    p0, p1 = _plane_range(lo, hi, offset, votes)
    fn(*(c.ctypes.data for c in coeffs), lo.ctypes.data, hi.ctypes.data, n,
       inv_zs.ctypes.data, p0, p1, votes.ctypes.data, offset, width, height,
       int(bilinear), hit.ctypes.data)
    return hit


def _scatter_plane(u, v, ok, plane, bilinear):
    """Add the votes of intersections ``(u, v)`` where ``ok`` into one
    (height, width) plane; returns ``ok`` narrowed to the events that voted.

    Nearest rounds to a voxel that must exist. Bilinear splits each vote
    over the four voxels around (u, v): four bincounts on the shared
    top-left index, the three shifted ones added with the cell beyond the
    last row/column dropped. The bincounts span only the rows the votes
    reach, so a block with few hits costs little.
    """
    height, width = plane.shape
    if not bilinear:
        # floor(u + 0.5) < width <=> fl(u + 0.5) < width, which implies u < width
        with np.errstate(invalid="ignore"):
            u = u + 0.5
            v = v + 0.5
            ok &= (u < width) & (v < height)
    sel = np.flatnonzero(ok)
    if sel.size == 0:
        return ok
    # In-place arithmetic keeps the block's temporaries few enough to stay
    # in cache; the float index (y0 - r0) * width + x0 is an exact integer.
    wx, wy = u[sel], v[sel]
    x0 = np.floor(wx)
    y0 = np.floor(wy)
    r0 = int(y0.min())
    r1 = int(y0.max()) + 1
    rows = plane[r0:r1]
    idx = ((y0 - r0) * width + x0).astype(np.int64)
    if not bilinear:
        rows += np.bincount(idx, minlength=rows.size).reshape(rows.shape)
        return ok
    wx -= x0
    wy -= y0
    rx = 1.0 - wx
    ry = 1.0 - wy
    c00, c10, c01, c11 = (
        np.bincount(idx, weights=w, minlength=rows.size).reshape(rows.shape)
        for w in (rx * ry, wx * ry, rx * wy, wx * wy)
    )
    rows += c00
    rows[:, 1:] += c10[:, :-1]
    below = plane[r0 + 1:r1 + 1]  # one row short when r1 == height
    below += c01[:len(below)]
    below[:, 1:] += c11[:len(below), :-1]
    return ok


def _sweep_planes(project, lo, hi, votes, width, height, bilinear, offset):
    """Plane-major numpy sweep shared by the affine and the direct kernel.

    ``project(i, s, e)`` returns the pixel coordinates (u, v) where the rays
    of events s:e meet plane i, which is ``votes[i - offset]``. Returns the
    per-event hit mask.
    """
    n_events = lo.shape[0]
    hit = np.zeros(n_events, dtype=bool)
    if n_events == 0:
        return hit
    p0, p1 = _plane_range(lo, hi, offset, votes)
    for i in range(p0, p1):
        plane = votes[i - offset]
        for s in range(0, n_events, _BLOCK):
            e = min(s + _BLOCK, n_events)
            u, v = project(i, s, e)
            with np.errstate(invalid="ignore"):
                ok = (lo[s:e] <= i) & (hi[s:e] > i)
                ok &= (u >= 0.0) & (u < width) & (v >= 0.0) & (v < height)
            hit[s:e] |= _scatter_plane(u, v, ok, plane, bilinear)
    return hit


def _sweep_numpy(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, width, height, bilinear,
                 offset=0):
    def project(i, s, e):
        inv_z = inv_zs[i]
        with np.errstate(invalid="ignore", over="ignore"):
            u = b_u[s:e] * inv_z
            v = b_v[s:e] * inv_z
            u += a_u[s:e]
            v += a_v[s:e]
        return u, v

    return _sweep_planes(project, lo, hi, votes, width, height, bilinear, offset)


def sweep_direct(origins, dirs, lo, hi, zs, intr, votes, width, height, bilinear,
                 offset=0):
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

    return _sweep_planes(project, lo, hi, votes, width, height, bilinear, offset)


def run_sweep(prep, inv_zs, votes, width, height, mode, kernel, offset=0):
    """Dispatch a prepared event batch to the selected kernel.

    ``prep`` is the (a_u, a_v, b_u, b_v, lo, hi) tuple of affine-form
    coefficients; only planes in each event's [lo, hi) are touched, and
    plane i is ``votes[i - offset]``. Returns the boolean mask of events
    that voted on at least one plane.
    """
    sweep = _sweep_c if resolve_kernel(kernel) == "c" else _sweep_numpy
    return sweep(*prep, inv_zs, votes, width, height,
                 bilinear=(mode == "bilinear"), offset=offset)
