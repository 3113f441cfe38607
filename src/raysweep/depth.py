"""Depth / confidence extraction from a fused DSI and the semi-dense
post-processing chain (adaptive threshold, median cleanup, sub-plane
refinement, point-cloud export).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dsi import DsiGrid, empty_peak, update_peak
from .geometry import CameraModel, Se3


@dataclass(eq=False)
class DepthResult:
    """Semi-dense depth and confidence maps at the reference view.

    ``depth`` holds the best-plane depth for every pixel; only entries
    where ``mask`` is set are meaningful. ``confidence`` is the raw peak
    ray density (vote units).
    """

    depth: np.ndarray
    confidence: np.ndarray
    mask: np.ndarray
    ref_pose: Se3
    ref_intrinsics: CameraModel
    z_min: float
    z_max: float

    @property
    def num_valid(self) -> int:
        return int(np.count_nonzero(self.mask))

    def masked_depth(self, fill: float = 0.0) -> np.ndarray:
        return np.where(self.mask, self.depth, fill)


def extract_depth(fused: DsiGrid, peak=None) -> DepthResult:
    """Per pixel, take the depth plane with the highest fused ray density.

    Ties break toward the nearest plane (smallest index). Pixels whose
    whole column is zero are left unmasked.

    ``peak`` is the (confidence, best) pair that ``dsi.update_peak`` left
    after every plane of ``fused``, as the pipeline's band loop keeps it;
    without it the planes are scanned here. Either way ``best`` is the
    first maximum exactly as ``np.argmax(votes, axis=0)`` gives it on
    NaN-free votes, in a few planes of memory instead of volume-sized
    temporaries.
    """
    if peak is None:
        peak = empty_peak(fused.height, fused.width)
        update_peak(fused.votes, 0, *peak)
    confidence, best = peak
    return DepthResult(
        depth=fused.depths[best],
        confidence=confidence,
        mask=confidence > 0.0,
        ref_pose=fused.ref_pose,
        ref_intrinsics=fused.ref_intrinsics,
        z_min=fused.z_min,
        z_max=fused.z_max,
    )


def _parabola_vertex(x1, y1, x2, y2, x3, y3):
    """Vertex abscissa of the parabola through three points; x2 where the
    fit degenerates (collinear / flat)."""
    d21 = x2 - x1
    d23 = x2 - x3
    num = d21 * d21 * (y2 - y3) - d23 * d23 * (y2 - y1)
    den = d21 * (y2 - y3) - d23 * (y2 - y1)
    with np.errstate(invalid="ignore", divide="ignore"):
        vertex = x2 - 0.5 * num / den
    return np.where(den != 0.0, vertex, x2)


def _nearest_plane(inv, cur):
    """Index of the plane of ``inv`` nearest each inverse depth ``cur``:
    ``np.argmin(np.abs(inv[:, None] - cur[None]), axis=0)`` without its
    (Nz, n) temporary.

    ``inv`` is evenly spaced, as ``DsiGrid.create`` samples it, so the
    nearest plane is the rounded position of ``cur`` or a neighbor of it.
    Of those three planes the first of the nearest is taken, as argmin
    takes the first minimum, so ties at midpoints, ``inf`` and 0 give
    argmin's plane too.
    """
    last = len(inv) - 1
    pos = np.rint((inv[0] - cur) * (last / (inv[0] - inv[-1])))
    k = np.clip(np.nan_to_num(pos), 0, last).astype(np.intp)
    best = np.maximum(k - 1, 0)
    gap = np.abs(inv[best] - cur)
    for j in (k, np.minimum(k + 1, last)):
        d = np.abs(inv[j] - cur)
        closer = d < gap  # strict: an equal gap keeps the earlier plane
        best[closer] = j[closer]
        gap[closer] = d[closer]
    return best


def refine_result(fused: DsiGrid, result: DepthResult, around=None) -> DepthResult:
    """Sub-plane refinement of every masked pixel of ``result``.

    Each pixel is refined around the plane nearest its current depth (the
    argmax plane when extraction output is passed straight through; the
    consensus plane after median filtering). Only interior planes that are
    local vote maxima are refined; anything else keeps its depth.

    The nearest plane is found for the masked pixels only, by
    ``_nearest_plane``. The three fused votes around it come from
    ``fused.votes`` whenever the grid holds a volume. Otherwise they come
    from ``result.confidence`` and ``around``, the (2, H, W) votes at each
    pixel's argmax plane -1 and +1 that the band loop keeps
    (``dsi.fuse_band``); ``result``'s masked depths must then still be
    their argmax planes' (extraction output, or a median filter of kernel
    1), so that the nearest plane is the argmax plane.
    """
    inv = fused.inv_depths  # decreasing with plane index
    iy, ix = np.nonzero(result.mask)
    with np.errstate(divide="ignore"):
        cur = 1.0 / result.depth[iy, ix]
    best = _nearest_plane(inv, cur)
    interior = (best > 0) & (best < fused.num_planes - 1)
    if not interior.any():
        return replace(result, depth=result.depth.copy())

    iy, ix, i = iy[interior], ix[interior], best[interior]
    if fused.votes is not None:
        y1 = fused.votes[i - 1, iy, ix]
        y2 = fused.votes[i, iy, ix]
        y3 = fused.votes[i + 1, iy, ix]
    else:
        y1 = around[0][iy, ix]
        y2 = result.confidence[iy, ix]
        y3 = around[1][iy, ix]
    peak = (y2 >= y1) & (y2 >= y3)
    x1 = inv[i - 1]
    x2 = inv[i]
    x3 = inv[i + 1]
    vertex = _parabola_vertex(x1, y1, x2, y2, x3, y3)
    vertex = np.clip(vertex, np.minimum(x1, x3), np.maximum(x1, x3))

    depth = result.depth.copy()
    refined = np.where(peak, 1.0 / vertex, depth[iy, ix])
    depth[iy, ix] = refined
    return replace(result, depth=depth)


def adaptive_threshold(confidence, sigma: float, offset: float) -> np.ndarray:
    """Keep pixels whose confidence tops a Gaussian-blurred background.

    mask = c > blur(c, sigma) + offset, restricted to c > 0 so that empty
    pixels can never pass on a negative offset. Reflective borders.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    # imported here, not at module level: scipy.ndimage takes longer to
    # import than the rest of raysweep, and only depth extraction uses it
    from scipy.ndimage import gaussian_filter

    confidence = np.asarray(confidence, dtype=np.float64)
    background = gaussian_filter(confidence, sigma=sigma, mode="reflect")
    return (confidence > background + offset) & (confidence > 0.0)


def local_peak_mask(confidence, radius: int = 1) -> np.ndarray:
    """Keep pixels that are maxima of their (2r+1)^2 neighborhood.

    Depth is only trustworthy where the ray bundle actually converges; a
    pixel beaten by a neighbor carries that neighbor's ridge, sampled off
    center. Plateaus are kept whole. Zero-confidence pixels never pass.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    from scipy.ndimage import maximum_filter  # as in adaptive_threshold

    confidence = np.asarray(confidence, dtype=np.float64)
    peak = confidence == maximum_filter(confidence, size=2 * radius + 1)
    return peak & (confidence > 0.0)


def median_filter_depth(result: DepthResult, kernel: int) -> DepthResult:
    """Median-smooth masked depths over a k x k neighborhood.

    Each masked pixel's depth becomes the median of the masked depths in
    its neighborhood (truncated at borders); pixels supported by fewer
    than 3 masked neighbors are unmasked. The mask never grows.

    Only the masked pixels' windows are gathered and sorted (unmasked
    neighbors are NaN, which sorts last); the median of s values is the
    mean of sorted values (s - 1) // 2 and s // 2, as ``np.nanmedian``
    takes it, bit for bit.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError("kernel must be odd and >= 1")
    if kernel == 1 or not result.mask.any():
        return replace(result, depth=result.depth.copy(), mask=result.mask.copy())

    pad = kernel // 2
    padded = np.pad(
        np.where(result.mask, result.depth, np.nan),
        pad, mode="constant", constant_values=np.nan,
    )
    iy, ix = np.nonzero(result.mask)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel))
    windows = windows[iy, ix].reshape(len(iy), -1)  # a copy, k^2 per pixel
    # every window holds its own pixel: support >= 1
    support = kernel * kernel - np.count_nonzero(np.isnan(windows), axis=1)
    windows.sort(axis=1)
    rows = np.arange(len(windows))
    medians = (windows[rows, (support - 1) // 2] + windows[rows, support // 2]) / 2

    kept = support >= 3
    keep = np.zeros_like(result.mask)
    keep[iy, ix] = kept
    depth = result.depth.copy()
    depth[keep] = medians[kept]  # row-major, as np.nonzero lists the pixels
    return replace(result, depth=depth, mask=keep)


def to_point_cloud(result: DepthResult):
    """Back-project masked pixels into world-frame points.

    Returns ``(points (N, 3), confidence (N,))`` in row-major pixel order.
    """
    iy, ix = np.nonzero(result.mask)
    z = result.depth[iy, ix]
    k = result.ref_intrinsics
    pts_ref = np.stack(
        [(ix - k.cx) / k.fx * z, (iy - k.cy) / k.fy * z, z], axis=-1
    )
    return result.ref_pose.apply(pts_ref), result.confidence[iy, ix]
