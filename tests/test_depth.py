import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from raysweep.depth import (
    DepthResult,
    _nearest_plane,
    _parabola_vertex,
    adaptive_threshold,
    extract_depth,
    local_peak_mask,
    median_filter_depth,
    refine_result,
    to_point_cloud,
)
from raysweep.dsi import DsiGrid, inverse_depth_samples
from raysweep.geometry import CameraModel, Se3
from raysweep.pipeline import PipelineConfig
from raysweep.synth import SCENARIO_NAMES, make_scenario


@pytest.fixture
def small_grid(pinhole_cam):
    return DsiGrid.create(Se3.identity(), pinhole_cam, 1.0, 4.0, 8)


def result_from(depth, mask, cam, conf=None, z_min=0.5, z_max=10.0):
    depth = np.asarray(depth, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if conf is None:
        conf = mask.astype(np.float64)
    return DepthResult(depth, np.asarray(conf, np.float64), mask,
                       Se3.identity(), cam, z_min, z_max)


def argmax_extraction(fused):
    """Volume-wide argmax extraction: the oracle of extract_depth."""
    best = np.argmax(fused.votes, axis=0)
    confidence = np.take_along_axis(fused.votes, best[None], axis=0)[0]
    return fused.depths[best], confidence, confidence > 0.0


def volume_refinement(fused, result):
    """Frozen copy of the sub-plane refinement that searches the nearest
    plane of every pixel at once: the oracle of refine_result."""
    inv = fused.inv_depths
    with np.errstate(divide="ignore"):
        cur = np.where(result.mask, 1.0 / result.depth, inv[0])
    best = np.argmin(np.abs(inv[:, None, None] - cur[None]), axis=0)
    interior = result.mask & (best > 0) & (best < fused.num_planes - 1)
    depth = result.depth.copy()
    iy, ix = np.nonzero(interior)
    i = best[iy, ix]
    y1, y2, y3 = (fused.votes[i + k, iy, ix] for k in (-1, 0, 1))
    x1, x2, x3 = inv[i - 1], inv[i], inv[i + 1]
    vertex = np.clip(_parabola_vertex(x1, y1, x2, y2, x3, y3),
                     np.minimum(x1, x3), np.maximum(x1, x3))
    peak = (y2 >= y1) & (y2 >= y3)
    depth[iy, ix] = np.where(peak, 1.0 / vertex, depth[iy, ix])
    return depth


class TestExtract:
    def test_single_voxel(self, small_grid):
        small_grid.votes[3, 50, 60] = 7.0
        res = extract_depth(small_grid)
        assert res.mask.sum() == 1
        assert res.mask[50, 60]
        assert res.depth[50, 60] == small_grid.depths[3]
        assert res.confidence[50, 60] == 7.0

    def test_all_zero_grid(self, small_grid):
        res = extract_depth(small_grid)
        assert not res.mask.any()
        assert np.all(res.confidence == 0.0)

    def test_monotone_transform_leaves_depth_identical(self, small_grid):
        rng = np.random.default_rng(9)
        small_grid.votes[:] = rng.poisson(1.5, small_grid.votes.shape)
        base = extract_depth(small_grid)
        warped = small_grid.copy()
        warped.votes = 2.0 * warped.votes + 1.0
        after = extract_depth(warped)
        assert np.array_equal(base.depth, after.depth)

    def test_tie_breaks_toward_nearest_plane(self, small_grid):
        small_grid.votes[2, 10, 10] = 5.0
        small_grid.votes[6, 10, 10] = 5.0
        res = extract_depth(small_grid)
        assert res.depth[10, 10] == small_grid.depths[2]

    def test_masked_depths_within_range(self, small_grid):
        rng = np.random.default_rng(10)
        small_grid.votes[:] = rng.poisson(0.3, small_grid.votes.shape)
        res = extract_depth(small_grid)
        assert np.all(res.depth[res.mask] >= small_grid.z_min)
        assert np.all(res.depth[res.mask] <= small_grid.z_max)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 3.0])
    def test_matches_volume_argmax_bit_for_bit(self, small_grid, lam):
        # Poisson counts tie often, within a column and across planes
        rng = np.random.default_rng(11)
        small_grid.votes[:] = rng.poisson(lam, small_grid.votes.shape)
        small_grid.votes[:, :20] *= 0.5  # non-integer ties too
        res = extract_depth(small_grid)
        depth, confidence, mask = argmax_extraction(small_grid)
        assert np.array_equal(res.depth, depth)
        assert np.array_equal(res.confidence, confidence)
        assert np.array_equal(res.mask, mask)

    def test_peak_memory_few_planes(self, pinhole_cam):
        grid = DsiGrid.create(Se3.identity(), pinhole_cam, 0.45, 4.0, 100)
        grid.votes[:] = np.random.default_rng(12).poisson(0.3, grid.votes.shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            extract_depth(grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * grid.votes[0].nbytes, peak / grid.votes[0].nbytes


def refine_column(cam, col, i_star):
    """refine_result on a grid whose one voted pixel holds the column
    ``col`` and sits at plane ``i_star``; returns the refined depth and the
    grid, whose inverse depths are ``np.linspace(2.0, 0.5, len(col))``."""
    grid = DsiGrid.create(Se3.identity(), cam, 0.5, 2.0, len(col))
    assert np.array_equal(grid.inv_depths, np.linspace(2.0, 0.5, len(col)))
    y, x = 50, 60
    grid.votes[:, y, x] = col
    res = extract_depth(grid)
    depth = np.zeros_like(res.depth)
    depth[y, x] = grid.depths[i_star]
    mask = np.zeros_like(res.mask)
    mask[y, x] = True
    refined = refine_result(grid, replace(res, depth=depth, mask=mask))
    return refined.depth[y, x], grid


class TestSubvoxelRefine:
    def test_symmetric_neighbors_stay_centered(self, pinhole_cam):
        col = np.array([0, 1.0, 4.0, 1.0, 0, 0, 0])
        got, grid = refine_column(pinhole_cam, col, 2)
        assert got == grid.depths[2]

    def test_boundary_peak_unrefined(self, pinhole_cam):
        col = np.array([5.0, 1.0, 0.5, 0.2, 0.1])
        got, grid = refine_column(pinhole_cam, col, 0)
        assert got == grid.depths[0]
        got, grid = refine_column(pinhole_cam, col[::-1], 4)
        assert got == grid.depths[4]

    def test_recovers_parabola_vertex(self, pinhole_cam):
        # sample an exact parabola in inverse depth; the vertex sits
        # between planes and must be recovered to 1e-9
        inv = np.linspace(2.0, 0.5, 11)
        vertex = inv[5] + 0.37 * (inv[6] - inv[5])
        col = 10.0 - 50.0 * (inv - vertex) ** 2
        got, _ = refine_column(pinhole_cam, col, int(np.argmax(col)))
        assert 1.0 / got == pytest.approx(vertex, abs=1e-9)

    def test_flat_column_unrefined(self, pinhole_cam):
        got, grid = refine_column(pinhole_cam, np.ones(5), 2)
        assert got == grid.depths[2]

    def test_clamped_to_neighbor_interval(self, pinhole_cam):
        # nearly flat top: vertex formula could overshoot, must clamp
        col = np.array([0.0, 10.0, 10.0 + 1e-12, 0.0, 0.0])
        got, grid = refine_column(pinhole_cam, col, 2)
        assert grid.depths[1] <= got <= grid.depths[3]

    def test_matches_volume_wide_nearest_plane_search(self, small_grid):
        rng = np.random.default_rng(79)
        small_grid.votes[:] = rng.poisson(2.0, small_grid.votes.shape).astype(float)
        res = extract_depth(small_grid)
        filtered = median_filter_depth(res, 5)  # depths between planes
        edges = res.mask.copy()
        edges[::2] = False
        at_bounds = replace(res, depth=np.where(  # planes 0 and Nz-1 exactly
            edges, np.where(np.arange(res.depth.shape[1]) % 2, small_grid.z_min,
                            small_grid.z_max), res.depth))
        for result in (res, filtered, at_bounds):
            want = volume_refinement(small_grid, result)
            got = refine_result(small_grid, result)
            assert np.array_equal(got.depth, want)
            assert np.array_equal(got.mask, result.mask)
        assert np.any(filtered.depth[filtered.mask] != res.depth[filtered.mask])

    def test_refined_depth_stays_bracketed(self, small_grid):
        rng = np.random.default_rng(78)
        small_grid.votes[:] = rng.poisson(2.0, small_grid.votes.shape).astype(float)
        res = extract_depth(small_grid)
        refined = refine_result(small_grid, res)
        assert np.all(refined.depth[res.mask] >= small_grid.z_min)
        assert np.all(refined.depth[res.mask] <= small_grid.z_max)


class TestNearestPlane:
    """The direct nearest-plane search of refine_result against the
    argmin over every plane, its oracle, index for index."""

    @staticmethod
    def argmin(inv, cur):
        return np.argmin(np.abs(inv[:, None] - cur[None]), axis=0)

    @pytest.mark.parametrize("z_min,z_max,planes", [
        (1.0, 20.0, 100), (1.0, 20.0, 37), (0.45, 4.0, 100), (1.0, 20.0, 2),
        (0.5, 2.0, 4),  # inverse depths 2, 1.5, 1, 0.5: exact midpoints
    ])
    def test_matches_argmin(self, z_min, z_max, planes):
        inv = inverse_depth_samples(z_min, z_max, planes)
        rng = np.random.default_rng(planes)
        with np.errstate(divide="ignore"):
            cur = np.concatenate([
                inv,                                  # on the planes
                (inv[1:] + inv[:-1]) / 2,             # at the midpoints
                np.nextafter(inv, 0.0), np.nextafter(inv, 9.0),
                1.0 / rng.uniform(z_min, z_max, 20000),
                1.0 / rng.uniform(0.5 * z_min, 2.0 * z_max, 20000),
                1.0 / np.array([0.0, np.inf]),        # depth 0 and inf
            ])
        assert np.array_equal(_nearest_plane(inv, cur), self.argmin(inv, cur))

    @pytest.mark.parametrize("z_min,z_max,planes", sorted(
        {(c.z_min, c.z_max, c.num_planes)
         for c in [PipelineConfig()] + [make_scenario(name, n_points=1).config
                                        for name in SCENARIO_NAMES]}
        | {(0.45, 4.0, n) for n in (2, 5, 13, 25)}))
    def test_argmax_depth_maps_back_to_its_plane(self, z_min, z_max, planes):
        # the depth of plane k, inverted again, is nearest plane k: so the
        # votes beside the argmax plane, which the band loop keeps when no
        # volume exists, are those that refinement reads around the
        # nearest plane (the configs in use and the tests' grids)
        grid = DsiGrid.create(Se3.identity(), CameraModel(
            fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1),
            z_min, z_max, planes, allocate=False)
        k = np.arange(planes)
        assert np.array_equal(_nearest_plane(grid.inv_depths, 1.0 / grid.depths), k)

    def test_exact_midpoint_ties_take_the_nearer_plane_first(self):
        inv = inverse_depth_samples(0.5, 2.0, 4)
        assert inv.tolist() == [2.0, 1.5, 1.0, 0.5]
        assert _nearest_plane(inv, np.array([1.75, 1.25, 0.75])).tolist() == \
            [0, 1, 2]


class TestAdaptiveThreshold:
    def test_uniform_map_empty_with_positive_offset(self):
        conf = np.full((40, 60), 3.0)
        assert not adaptive_threshold(conf, sigma=2.0, offset=0.5).any()

    def test_impulse_kept(self):
        conf = np.zeros((41, 41))
        conf[20, 20] = 100.0
        mask = adaptive_threshold(conf, sigma=1.0, offset=1.0)
        assert mask[20, 20]
        assert mask.sum() == 1

    def test_impulse_against_discrete_kernel(self):
        # blurred impulse peak value from an explicitly computed 5x5-ish
        # Gaussian: center survives iff v > v*k00 + C
        v, sigma, C = 50.0, 1.0, 1.0
        xs = np.arange(-20, 21)
        k1d = np.exp(-0.5 * (xs / sigma) ** 2)
        k1d /= k1d.sum()
        k00 = float(k1d[20] ** 2)  # center weight of the separable kernel
        conf = np.zeros((41, 41))
        conf[20, 20] = v
        mask = adaptive_threshold(conf, sigma=sigma, offset=C)
        assert bool(mask[20, 20]) == (v > v * k00 + C)
        assert mask[20, 20]

    def test_huge_negative_offset_keeps_all_positive(self):
        rng = np.random.default_rng(12)
        conf = rng.uniform(0, 5, (30, 30)) * (rng.uniform(size=(30, 30)) > 0.5)
        mask = adaptive_threshold(conf, sigma=3.0, offset=-1e9)
        assert np.array_equal(mask, conf > 0)

    def test_never_masks_zero_confidence(self):
        rng = np.random.default_rng(13)
        conf = rng.uniform(0, 5, (30, 30)) * (rng.uniform(size=(30, 30)) > 0.7)
        mask = adaptive_threshold(conf, sigma=2.0, offset=-3.0)
        assert not np.any(mask & (conf == 0.0))

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            adaptive_threshold(np.zeros((4, 4)), sigma=0.0, offset=1.0)


class TestLocalPeakMask:
    def test_isolated_peaks_survive_neighbors_dont(self):
        conf = np.zeros((20, 20))
        conf[5, 5] = 10.0
        conf[5, 6] = 7.0  # shoulder of the peak
        conf[15, 15] = 2.0
        mask = local_peak_mask(conf, radius=1)
        assert mask[5, 5] and mask[15, 15]
        assert not mask[5, 6]

    def test_zero_background_not_masked(self):
        mask = local_peak_mask(np.zeros((8, 8)), radius=1)
        assert not mask.any()


def test_import_loads_no_scipy():
    # scipy.ndimage takes longer to import than the rest of raysweep, and
    # only depth extraction needs it: the filters import it on first use
    code = (
        "import sys, numpy, raysweep\n"
        "def scipy(): return sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'scipy')\n"
        "assert scipy() == [], scipy()\n"
        "raysweep.adaptive_threshold(numpy.ones((4, 4)), 1.0, 0.0)\n"
        "assert 'scipy.ndimage' in scipy()\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def nanmedian_filter(result, kernel):
    """Frozen copy of the median filter over every pixel's window with
    np.nanmedian: the oracle of median_filter_depth."""
    pad = kernel // 2
    padded = np.pad(np.where(result.mask, result.depth, np.nan), pad,
                    mode="constant", constant_values=np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel))
    windows = windows.reshape(*result.depth.shape, -1)
    support = np.count_nonzero(~np.isnan(windows), axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN windows
        medians = np.nanmedian(windows, axis=-1)
    keep = result.mask & (support >= 3)
    depth = result.depth.copy()
    depth[keep] = medians[keep]
    return depth, keep


class TestMedianFilter:
    @pytest.mark.parametrize("kernel", [3, 5, 7])
    def test_matches_nanmedian_over_every_window(self, pinhole_cam, kernel):
        # random masks of every density, with depths drawn from a few values
        # (ties) or continuous ones; windows hold odd and even supports
        rng = np.random.default_rng(16)
        supports = set()
        for trial in range(20):
            shape = (int(rng.integers(5, 40)), int(rng.integers(5, 40)))
            mask = rng.random(shape) < rng.uniform(0.05, 0.95)
            if trial % 2:
                depth = rng.choice([0.5, 1.25, 2.0, 3.5], shape)
            else:
                depth = rng.uniform(0.45, 4.0, shape)
            res = result_from(depth, mask, pinhole_cam)
            out = median_filter_depth(res, kernel)
            want_depth, want_mask = nanmedian_filter(res, kernel)
            assert np.array_equal(out.mask, want_mask)
            assert np.array_equal(out.depth.view(np.uint64),
                                  want_depth.view(np.uint64))
            padded = np.pad(mask, kernel // 2)
            counts = np.lib.stride_tricks.sliding_window_view(
                padded, (kernel, kernel)).sum(axis=(2, 3))
            supports |= set(counts[want_mask] % 2)
        assert supports == {0, 1}

    def test_kernel_one_is_identity(self, pinhole_cam):
        rng = np.random.default_rng(14)
        depth = rng.uniform(1, 4, (10, 12))
        mask = rng.uniform(size=(10, 12)) > 0.4
        res = result_from(depth, mask, pinhole_cam)
        out = median_filter_depth(res, 1)
        assert np.array_equal(out.depth, depth)
        assert np.array_equal(out.mask, mask)

    def test_isolated_pixel_unmasked(self, pinhole_cam):
        depth = np.zeros((9, 9))
        mask = np.zeros((9, 9), bool)
        depth[4, 4] = 2.0
        mask[4, 4] = True
        out = median_filter_depth(result_from(depth, mask, pinhole_cam), 3)
        assert not out.mask.any()

    def test_outlier_center_replaced_by_median(self, pinhole_cam):
        depth = np.zeros((5, 5))
        mask = np.zeros((5, 5), bool)
        vals = np.array([[2.0, 2.1, 2.2], [2.0, 9.0, 2.1], [1.9, 2.0, 2.2]])
        depth[1:4, 1:4] = vals
        mask[1:4, 1:4] = True
        out = median_filter_depth(result_from(depth, mask, pinhole_cam), 3)
        assert out.depth[2, 2] == np.median(vals)
        assert out.mask[2, 2]

    def test_mask_never_grows(self, pinhole_cam):
        rng = np.random.default_rng(15)
        depth = rng.uniform(1, 4, (20, 20))
        mask = rng.uniform(size=(20, 20)) > 0.5
        out = median_filter_depth(result_from(depth, mask, pinhole_cam), 5)
        assert not np.any(out.mask & ~mask)

    def test_even_kernel_rejected(self, pinhole_cam):
        res = result_from(np.ones((4, 4)), np.ones((4, 4), bool), pinhole_cam)
        with pytest.raises(ValueError):
            median_filter_depth(res, 4)


class TestPointCloud:
    def test_principal_point_maps_to_axis(self, pinhole_cam):
        depth = np.zeros((180, 240))
        mask = np.zeros((180, 240), bool)
        depth[90, 120] = 2.5
        mask[90, 120] = True
        pts, conf = to_point_cloud(result_from(depth, mask, pinhole_cam))
        assert pts.shape == (1, 3)
        assert np.allclose(pts[0], [0.0, 0.0, 2.5], atol=1e-12)

    def test_reprojection_roundtrip(self, pinhole_cam):
        rng = np.random.default_rng(16)
        depth = rng.uniform(1, 4, (180, 240))
        mask = rng.uniform(size=(180, 240)) > 0.98
        res = result_from(depth, mask, pinhole_cam)
        pts, _ = to_point_cloud(res)
        iy, ix = np.nonzero(mask)
        u = pinhole_cam.fx * pts[:, 0] / pts[:, 2] + pinhole_cam.cx
        v = pinhole_cam.fy * pts[:, 1] / pts[:, 2] + pinhole_cam.cy
        assert np.max(np.abs(u - ix)) < 1e-6
        assert np.max(np.abs(v - iy)) < 1e-6

    def test_world_transform_applied(self, pinhole_cam):
        pose = Se3.from_axis_angle([0, 0, 1], np.pi / 2, trans=(1.0, 0.0, 0.0))
        depth = np.zeros((180, 240))
        mask = np.zeros((180, 240), bool)
        depth[90, 120] = 2.0
        mask[90, 120] = True
        res = DepthResult(depth, mask.astype(float), mask, pose, pinhole_cam, 0.5, 5.0)
        pts, _ = to_point_cloud(res)
        assert np.allclose(pts[0], pose.apply(np.array([0.0, 0.0, 2.0])), atol=1e-12)

    def test_empty_mask(self, pinhole_cam):
        res = result_from(np.zeros((8, 8)), np.zeros((8, 8), bool), pinhole_cam)
        pts, conf = to_point_cloud(res)
        assert pts.shape == (0, 3) and conf.shape == (0,)

    def test_point_count_equals_mask_count(self, pinhole_cam):
        rng = np.random.default_rng(17)
        mask = rng.uniform(size=(180, 240)) > 0.9
        res = result_from(np.full((180, 240), 2.0), mask, pinhole_cam)
        pts, conf = to_point_cloud(res)
        assert len(pts) == mask.sum() == len(conf)
