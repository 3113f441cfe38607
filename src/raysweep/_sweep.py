"""Inner voting kernels for the depth sweep.

Each event's viewing ray, expressed in the reference view, projects onto
plane ``z`` at pixel coordinates that are affine in inverse depth:

    u(z) = a_u + b_u / z,    v(z) = a_v + b_v / z

with per-event coefficients precomputed from the ray origin and direction.
Planes behind the ray origin are excluded up front: because the planes are
depth-sorted, the forward planes form one contiguous index range [lo, hi)
per event. The kernels scatter one vote per valid (event, plane) pair into
a ``(num_planes, height, width)`` array and return a per-event mask of the
events that voted on at least one plane; an intersection must land inside
[0, W) x [0, H), and the nearest voxel must exist (the top half-pixel edge
rounds out of the grid).

The numpy kernel sweeps plane-major, as the space sweep does: for each
plane it projects every event, block by block, and scatters the hits into
that plane's W x H slice alone, which stays in cache. A plane's votes
therefore depend only on the events and their order, never on which other
planes the same call sweeps, so callers may split the planes [lo, hi)
across threads (clip ``lo``/``hi`` to each thread's range) and get the
same volume bit for bit at any worker count.

Two interchangeable implementations: numba-compiled loops (fast path, same
contract) and plane-major numpy (fallback). Nearest-mode votes are integral
adds, so both produce bit-identical grids; bilinear differs only in
summation order.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional accelerator
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


_BLOCK = 1 << 16  # events projected per step; bounds the temporaries


def _sweep_nearest_loops(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, width, height):
    n_events = a_u.shape[0]
    hit = np.zeros(n_events, dtype=np.bool_)
    for k in range(n_events):
        for i in range(lo[k], hi[k]):
            u = a_u[k] + b_u[k] * inv_zs[i]
            v = a_v[k] + b_v[k] * inv_zs[i]
            if 0.0 <= u < width and 0.0 <= v < height:
                ix = int(np.floor(u + 0.5))
                iy = int(np.floor(v + 0.5))
                if ix < width and iy < height:
                    votes[i, iy, ix] += 1.0
                    hit[k] = True
    return hit


def _sweep_bilinear_loops(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, width, height):
    n_events = a_u.shape[0]
    hit = np.zeros(n_events, dtype=np.bool_)
    for k in range(n_events):
        for i in range(lo[k], hi[k]):
            u = a_u[k] + b_u[k] * inv_zs[i]
            v = a_v[k] + b_v[k] * inv_zs[i]
            if 0.0 <= u < width and 0.0 <= v < height:
                x0 = int(np.floor(u))
                y0 = int(np.floor(v))
                wx = u - x0
                wy = v - y0
                votes[i, y0, x0] += (1.0 - wx) * (1.0 - wy)
                if x0 + 1 < width:
                    votes[i, y0, x0 + 1] += wx * (1.0 - wy)
                if y0 + 1 < height:
                    votes[i, y0 + 1, x0] += (1.0 - wx) * wy
                    if x0 + 1 < width:
                        votes[i, y0 + 1, x0 + 1] += wx * wy
                hit[k] = True
    return hit


if HAVE_NUMBA:
    _sweep_nearest_numba = njit(cache=True, nogil=True)(_sweep_nearest_loops)
    _sweep_bilinear_numba = njit(cache=True, nogil=True)(_sweep_bilinear_loops)


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


def _sweep_planes(project, lo, hi, votes, width, height, bilinear):
    """Plane-major sweep shared by both numpy paths.

    ``project(i, s, e)`` returns the pixel coordinates (u, v) where the rays
    of events s:e meet plane i. Returns the per-event hit mask.
    """
    n_events = lo.shape[0]
    hit = np.zeros(n_events, dtype=bool)
    if n_events == 0:
        return hit
    for i in range(int(lo.min()), int(hi.max())):
        plane = votes[i]
        for s in range(0, n_events, _BLOCK):
            e = min(s + _BLOCK, n_events)
            u, v = project(i, s, e)
            with np.errstate(invalid="ignore"):
                ok = (lo[s:e] <= i) & (hi[s:e] > i)
                ok &= (u >= 0.0) & (u < width) & (v >= 0.0) & (v < height)
            hit[s:e] |= _scatter_plane(u, v, ok, plane, bilinear)
    return hit


def _sweep_numpy(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, width, height, bilinear):
    def project(i, s, e):
        inv_z = inv_zs[i]
        with np.errstate(invalid="ignore", over="ignore"):
            u = b_u[s:e] * inv_z
            v = b_v[s:e] * inv_z
            u += a_u[s:e]
            v += a_v[s:e]
        return u, v

    return _sweep_planes(project, lo, hi, votes, width, height, bilinear)


def sweep_direct(origins, dirs, lo, hi, zs, intr, votes, width, height, bilinear):
    """Vote near-grazing rays by direct per-plane intersection.

    The affine u = a + b/z form cancels catastrophically when the ray runs
    nearly parallel to the planes (|a|, |b/z| >> |u|); evaluating the
    intersection point explicitly stays well conditioned. Vectorized numpy;
    only the rare ill-conditioned events take this route. Same plane-major
    sweep and hit-mask return as the affine kernels.
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

    return _sweep_planes(project, lo, hi, votes, width, height, bilinear)


def run_sweep(prep, inv_zs, votes, width, height, mode, kernel):
    """Dispatch a prepared event batch to the selected kernel.

    ``prep`` is the (a_u, a_v, b_u, b_v, lo, hi) tuple of affine-form
    coefficients; only planes in each event's [lo, hi) are touched.
    Returns the boolean mask of events that voted on at least one plane.
    """
    a_u, a_v, b_u, b_v, lo, hi = prep
    if kernel == "auto":
        kernel = "numba" if HAVE_NUMBA else "numpy"
    if kernel == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba kernel requested but numba is unavailable")
        fn = _sweep_bilinear_numba if mode == "bilinear" else _sweep_nearest_numba
        return fn(a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, width, height)
    if kernel == "numpy":
        return _sweep_numpy(
            a_u, a_v, b_u, b_v, lo, hi, inv_zs, votes, width, height,
            bilinear=(mode == "bilinear"),
        )
    raise ValueError(f"unknown kernel {kernel!r}")
