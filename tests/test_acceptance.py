"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured numbers next to its stated threshold.
"""

import dataclasses
import time

import numpy as np
import pytest

from raysweep.depth import extract_depth
from raysweep.dsi import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    MAX,
    MIN,
    RMS,
    DsiGrid,
    prepare_sweep,
    vote_event_bruteforce,
    vote_events,
)
from raysweep.events import EventStream, chunk_events
from raysweep.evaluation import compare_depth_results
from raysweep.geometry import CameraModel, PoseTrajectory, Se3
from raysweep.io import parse_events, read_pfm, write_events, write_pfm
from raysweep.pipeline import _vote_and_fuse, process_chunk, run_pipeline
from raysweep.synth import ground_truth_depth, make_scenario

from conftest import random_unit_quat


def report(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS  ({detail})")


@pytest.fixture(scope="module")
def lateral():
    """Reference run of the lateral_room scenario (criteria 3, 5, 6, 7): its
    one chunk, with the fused volume kept."""
    sc = make_scenario("lateral_room", n_points=500, seed=7)
    streams = sc.simulate()
    out = process_chunk(first_chunk(sc, streams), sc.rig, sc.traj,
                        dataclasses.replace(sc.config, dump_dsi=True), workers=1)
    gt = ground_truth_depth(sc.scene, out.result.ref_pose, sc.rig.cameras[0])
    return sc, streams, out, gt


def first_chunk(sc, streams):
    return chunk_events([streams[cid] for cid in sc.rig.camera_ids],
                        sc.config.chunk_duration)[0]


def inv_tolerance(config):
    """One inverse-depth plane spacing of the configured volume."""
    return (1.0 / config.z_min - 1.0 / config.z_max) / (config.num_planes - 1)


def test_criterion_1_mean_ordering_on_1e6_tuples():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for n in (2, 3):
        stack = rng.uniform(1e-3, 1e3, size=(n, 1_000_000))
        chain = [op.apply(stack) for op in (MIN, HARMONIC, GEOMETRIC,
                                            ARITHMETIC, RMS, MAX)]
        for lo, hi in zip(chain, chain[1:]):
            violation = np.max((lo - hi) / hi)
            worst = max(worst, float(violation))
            assert violation <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"worst relative violation {worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


def test_criterion_2_voting_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(321)
    n_configs, per_config = 20, 500
    max_bilinear = 0.0
    for _ in range(n_configs):
        w, h = int(rng.integers(80, 260)), int(rng.integers(60, 200))
        cam = CameraModel(
            fx=float(rng.uniform(80, 400)), fy=float(rng.uniform(80, 400)),
            cx=float(rng.uniform(0.3, 0.7) * w), cy=float(rng.uniform(0.3, 0.7) * h),
            width=w, height=h,
            dist=np.array([rng.uniform(-0.15, 0.15), rng.uniform(-0.03, 0.03),
                           rng.uniform(-0.003, 0.003), rng.uniform(-0.003, 0.003)]),
        )
        ref = Se3(random_unit_quat(rng), rng.normal(size=3) * 0.2)
        pose = Se3(random_unit_quat(rng), rng.normal(size=3) * [0.4, 0.4, 1.5])
        grid_f = DsiGrid.create(ref, cam, 0.45, 4.0, 40)
        grid_b = grid_f.copy_empty()
        stream = EventStream(
            "a", np.zeros(per_config),
            rng.integers(0, w, per_config, dtype=np.int32),
            rng.integers(0, h, per_config, dtype=np.int32),
            np.ones(per_config, np.int8),
        )
        for mode in ("nearest", "bilinear"):
            grid_f.votes[:] = 0.0
            grid_b.votes[:] = 0.0
            grid_f.skipped_events = grid_b.skipped_events = 0
            vote_events(grid_f, stream, cam, pose=pose, mode=mode)
            for i in range(len(stream)):
                vote_event_bruteforce(grid_b, stream[i], cam, pose, mode=mode)
            if mode == "nearest":
                assert np.array_equal(grid_f.votes, grid_b.votes)
            else:
                diff = float(np.max(np.abs(grid_f.votes - grid_b.votes)))
                max_bilinear = max(max_bilinear, diff)
                assert diff <= 1e-12
            assert grid_f.skipped_events == grid_b.skipped_events
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"{n_configs * per_config} events bit-exact (nearest), "
              f"bilinear max diff {max_bilinear:.2e} <= 1e-12, {elapsed:.1f}s < 30s")


def test_criterion_3_synthetic_accuracy_lateral_room(lateral):
    t0 = time.perf_counter()
    sc, _, out, gt = lateral
    metrics = compare_depth_results(out.result, gt, inv_depth_tol=inv_tolerance(sc.config))
    assert metrics.inlier_fraction >= 0.90
    assert metrics.density >= 0.50
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"inliers {metrics.inlier_fraction:.3f} >= 0.90, "
              f"density {metrics.density:.3f} >= 0.50 "
              f"({metrics.n_pred} px vs {metrics.n_gt} gt)")


def test_criterion_4_and_logic_outlier_suppression():
    t0 = time.perf_counter()
    sc = make_scenario("noisy_left", n_points=500, seed=7)
    streams = sc.simulate()
    outliers = {}
    for op in ("arithmetic", "harmonic", "geometric", "min"):
        cfg = dataclasses.replace(sc.config, fusion=op)
        out = run_pipeline(cfg, streams=streams, rig=sc.rig, traj=sc.traj,
                           workers=1)[0]
        gt = ground_truth_depth(sc.scene, out.result.ref_pose, sc.rig.cameras[0])
        outliers[op] = compare_depth_results(out.result, gt).outlier_fraction
    assert outliers["harmonic"] < outliers["arithmetic"]
    assert outliers["geometric"] < outliers["arithmetic"]
    assert outliers["min"] < outliers["arithmetic"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, "outliers: " + " ".join(f"{k}={v:.4f}" for k, v in outliers.items())
              + f", {elapsed:.1f}s < 60s")


def test_criterion_5_argmax_invariance(lateral):
    _, _, out, _ = lateral
    fused = out.fused
    base = extract_depth(fused)
    warped = fused.copy()
    warped.votes = 2.0 * warped.votes + 1.0
    after = extract_depth(warped)
    assert np.array_equal(base.depth, after.depth)
    report(5, "depth map bit-identical under v -> 2v + 1")


def test_criterion_6_parallel_determinism(lateral, tmp_path):
    sc, streams, _, _ = lateral

    # nearest: byte-identical output files
    cfg = dataclasses.replace(sc.config, voting="nearest")
    o1 = run_pipeline(cfg, streams=streams, rig=sc.rig, traj=sc.traj, workers=1)[0]
    o8 = run_pipeline(cfg, streams=streams, rig=sc.rig, traj=sc.traj, workers=8)[0]
    f1, f8 = tmp_path / "w1.pfm", tmp_path / "w8.pfm"
    write_pfm(o1.result.masked_depth(), f1)
    write_pfm(o8.result.masked_depth(), f8)
    assert f1.read_bytes() == f8.read_bytes()

    # bilinear: votes within 1e-9, extracted depth maps identical
    dump = dataclasses.replace(sc.config, dump_dsi=True)  # keeps the volumes
    b1, b8 = (process_chunk(first_chunk(sc, streams), sc.rig, sc.traj, dump,
                            workers=w) for w in (1, 8))
    max_diff = max(
        float(np.max(np.abs(a.votes - b.votes)))
        for a, b in zip(b1.camera_grids, b8.camera_grids)
    )
    assert max_diff <= 1e-9
    e1, e8 = extract_depth(b1.fused), extract_depth(b8.fused)
    assert np.array_equal(e1.depth, e8.depth)
    assert np.array_equal(e1.mask, e8.mask)
    report(6, f"nearest files byte-identical; bilinear vote diff {max_diff:.2e} <= 1e-9, "
              "extracted depths identical")


def test_criterion_7_forward_motion_degrades_accuracy(lateral):
    t0 = time.perf_counter()
    sc_l, streams_l, _, _ = lateral
    sc_f = make_scenario("forward_corridor", n_points=500, seed=7)
    streams_f = sc_f.simulate()
    counts = {cid: len(s) for cid, s in streams_f.items()}

    # identical permissive post-processing for both regimes, event counts
    # matched by uniform subsampling of the lateral streams
    shared = dict(threshold_offset=2.0)
    cfg_f = dataclasses.replace(sc_f.config, **shared)
    out_f = run_pipeline(cfg_f, streams=streams_f, rig=sc_f.rig, traj=sc_f.traj,
                         workers=1)[0]
    gt_f = ground_truth_depth(sc_f.scene, out_f.result.ref_pose, sc_f.rig.cameras[0])
    acc_f = compare_depth_results(out_f.result, gt_f,
                                  inv_depth_tol=inv_tolerance(cfg_f)).inlier_fraction

    matched = {}
    for cid, s in streams_l.items():
        idx = np.unique(np.linspace(0, len(s) - 1, counts[cid]).astype(int))
        matched[cid] = s.select(idx)
    cfg_l = dataclasses.replace(sc_l.config, **shared)
    out_l = run_pipeline(cfg_l, streams=matched, rig=sc_l.rig, traj=sc_l.traj,
                         workers=1)[0]
    gt_l = ground_truth_depth(sc_l.scene, out_l.result.ref_pose, sc_l.rig.cameras[0])
    acc_l = compare_depth_results(out_l.result, gt_l,
                                  inv_depth_tol=inv_tolerance(cfg_l)).inlier_fraction

    assert acc_f < acc_l
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"forward {acc_f:.3f} < lateral {acc_l:.3f} at "
              f"{sum(counts.values())} matched events, {elapsed:.1f}s < 60s")


def test_criterion_8_throughput_reported():
    # soft target (reported, not gated): >= 1e6 events/s into a
    # 240x180x100 volume single-worker with vote_events, and the scaling of
    # the pipeline's band loop at 8 workers over the same prepared rays
    rng = np.random.default_rng(55)
    cam = CameraModel(fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180,
                      dist=np.array([-0.03, 0.01, 0.001, -0.001]))
    n = 200_000
    stream = EventStream(
        "bench", np.sort(rng.uniform(0.0, 1.0, n)),
        rng.integers(0, 240, n, dtype=np.int32),
        rng.integers(0, 180, n, dtype=np.int32),
        rng.choice(np.array([-1, 1], np.int8), n),
    )
    traj = PoseTrajectory(np.array([0.0, 1.0]), np.tile([0, 0, 0, 1.0], (2, 1)),
                          np.array([[-0.25, 0, 0], [0.25, 0, 0]]))

    def run():
        grid = DsiGrid.create(Se3.identity(), cam, 0.45, 4.0, 100)
        t0 = time.perf_counter()
        vote_events(grid, stream, cam, traj=traj, mode="bilinear")
        return n / (time.perf_counter() - t0)

    grid = DsiGrid.create(Se3.identity(), cam, 0.45, 4.0, 100)
    rays = [prepare_sweep(grid, stream, cam, traj=traj)]

    def run_bands(workers):
        t0 = time.perf_counter()
        _vote_and_fuse(grid, rays, HARMONIC, "bilinear", workers)
        return n / (time.perf_counter() - t0)

    run()  # warm the caches
    rate1 = max(run() for _ in range(3))
    band1 = max(run_bands(1) for _ in range(3))
    band8 = max(run_bands(8) for _ in range(3))
    assert rate1 > 0 and band1 > 0 and band8 > 0
    import os
    report(8, f"single-worker {rate1 / 1e6:.2f} Mev/s (soft target 1.0), "
              f"8-worker band-loop scale {band8 / band1:.2f}x on "
              f"{os.cpu_count()} cpus "
              "(reported, not gated)")


def test_criterion_9_io_round_trips(tmp_path):
    rng = np.random.default_rng(77)
    depth = (rng.uniform(0.5, 4.0, (180, 240))
             * (rng.uniform(size=(180, 240)) > 0.6)).astype(np.float32)
    pfm = tmp_path / "d.pfm"
    write_pfm(depth, pfm)
    assert np.array_equal(read_pfm(pfm), depth)

    n = 20_000
    stream = EventStream(
        "c", np.sort(rng.uniform(0.0, 500.0, n)),
        rng.integers(0, 240, n, dtype=np.int32),
        rng.integers(0, 180, n, dtype=np.int32),
        rng.choice(np.array([-1, 1], np.int8), n),
    )
    path = tmp_path / "events.txt"
    write_events(stream, path)
    back = parse_events(path, width=240, height=180)
    t_err = float(np.max(np.abs(back.t - stream.t)))
    assert t_err <= 1e-9
    assert np.array_equal(back.x, stream.x)
    assert np.array_equal(back.y, stream.y)
    assert np.array_equal(back.polarity, stream.polarity)
    report(9, f"PFM bit-exact; event text worst timestamp error {t_err:.2e}s <= 1e-9")
