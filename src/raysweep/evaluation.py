"""Semi-dense depth map comparison against (sparse) ground truth.

Ground truth from a point scene only covers the pixels the points project
to, while the estimator marks pixels around confidence peaks, so each
predicted pixel is matched to the nearest ground-truth pixel within a
small radius. Predictions with no ground truth nearby count as outliers:
they are exactly the spurious structures fusion is meant to suppress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt


@dataclass(frozen=True)
class DepthMetrics:
    n_pred: int
    n_gt: int
    n_matched: int
    mean_abs_rel: float       # mean |z - z_gt| / z_gt over matched pixels
    outlier_fraction: float   # rel err > threshold, or unmatched, over pred
    inlier_fraction: float    # within inv-depth tolerance, over pred (NaN if no tol)
    density: float            # gt pixels with a prediction within the radius


def compare_depth(
    pred_depth,
    pred_mask,
    gt_depth,
    gt_mask,
    *,
    match_radius: float = 2.0,
    outlier_rel: float = 0.10,
    inv_depth_tol: float | None = None,
) -> DepthMetrics:
    pred_depth = np.asarray(pred_depth, dtype=np.float64)
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    pred_mask = np.asarray(pred_mask, dtype=bool)
    gt_mask = np.asarray(gt_mask, dtype=bool)
    n_pred = int(pred_mask.sum())
    n_gt = int(gt_mask.sum())
    if n_pred == 0 or n_gt == 0:
        return DepthMetrics(n_pred, n_gt, 0, float("nan"),
                            1.0 if n_pred else 0.0, 0.0, 0.0)

    dist, (ny, nx) = distance_transform_edt(~gt_mask, return_indices=True)
    matched = pred_mask & (dist <= match_radius)
    n_matched = int(matched.sum())

    ref = gt_depth[ny[matched], nx[matched]]
    est = pred_depth[matched]
    rel = np.abs(est - ref) / ref
    mean_abs_rel = float(rel.mean()) if n_matched else float("nan")
    outliers = (n_pred - n_matched) + int((rel > outlier_rel).sum())

    if inv_depth_tol is not None:
        inv_err = np.abs(1.0 / est - 1.0 / ref)
        inliers = int((inv_err <= inv_depth_tol).sum())
        inlier_fraction = inliers / n_pred
    else:
        inlier_fraction = float("nan")

    pred_dist = distance_transform_edt(~pred_mask)
    density = float((pred_dist[gt_mask] <= match_radius).mean())

    return DepthMetrics(
        n_pred=n_pred,
        n_gt=n_gt,
        n_matched=n_matched,
        mean_abs_rel=mean_abs_rel,
        outlier_fraction=outliers / n_pred,
        inlier_fraction=inlier_fraction,
        density=density,
    )


def compare_depth_results(pred, gt, **kwargs) -> DepthMetrics:
    """Convenience wrapper over two DepthResult-shaped objects."""
    return compare_depth(pred.depth, pred.mask, gt.depth, gt.mask, **kwargs)
