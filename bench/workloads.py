"""The benchmark's workloads and the inputs they generate from a seed.

Each workload is one synthetic scenario from ``raysweep.synth`` mapped with
one configuration. Only the generated streams (or the files written from
them) reach the mapper; the scene and ground truth stay with the harness.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    n_points: int
    chunk_duration: float
    workers: int
    from_files: bool = False
    voting: str | None = None   # None keeps the scenario's setting
    fusion: str | None = None
    quality_gate: bool = False  # criterion 3: inliers >= 0.90, density >= 0.50
    why: str = ""


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "room_dense", "lateral_room", 2000, 0.5, workers=1, quality_gate=True,
            why="headline lateral_room case, one 0.5 s chunk of ~226k events: "
                "event-bound, the sweep kernel dominates; single-threaded baseline",
        ),
        Workload(
            "room_short", "lateral_room", 500, 0.05, workers=1,
            why="10 chunks of ~5.7k events: volume-bound, per-chunk sweep "
                "set-up, fusion and extraction dominate; gives per-chunk samples",
        ),
        Workload(
            "noisy_files", "noisy_left", 2000, 0.5, workers=2, from_files=True,
            voting="nearest", fusion="min",
            why="the raysweep map path: ~249k events parsed from files, outputs "
                "written, median filter, nearest voting, min fusion, 2 workers",
        ),
    )
}


@dataclass
class Inputs:
    """What one run maps, plus what the harness keeps to check it."""

    workload: Workload
    seed: int
    scenario: object          # raysweep.synth.Scenario (scene, rig, traj)
    config: object            # raysweep.PipelineConfig
    streams: dict             # generated per-camera EventStreams
    events_generated: int
    events_before_start: int  # events earlier than the common start
    work_dir: Path | None

    def volume_bytes(self) -> int:
        """Size of one W*H*Nz float64 vote volume."""
        cfg, cam = self.config, self.scenario.rig.cameras[0]
        return (cfg.width or cam.width) * (cfg.height or cam.height) * cfg.num_planes * 8

    def call_kwargs(self) -> dict:
        """Keyword arguments of ``run_pipeline`` besides the config."""
        kw = {"workers": self.workload.workers}
        if not self.workload.from_files:
            kw.update(streams=self.streams, rig=self.scenario.rig,
                      traj=self.scenario.traj)
        return kw


def generate(rs, wl: Workload, seed: int, n_points: int | None,
             work_dir: Path) -> Inputs:
    """Simulate the workload's scenario; for file workloads also write the
    events, trajectory and calibration under ``work_dir``."""
    sc = rs.synth.make_scenario(wl.scenario, n_points=n_points or wl.n_points,
                                seed=seed)
    streams = sc.simulate()
    config = dataclasses.replace(sc.config, chunk_duration=wl.chunk_duration)
    if wl.voting:
        config.voting = wl.voting
    if wl.fusion:
        config.fusion = wl.fusion

    ordered = [streams[cid] for cid in sc.rig.camera_ids]
    t0 = max(float(s.t[0]) for s in ordered)
    before = sum(int(np.count_nonzero(s.t < t0)) for s in ordered)

    if wl.from_files:
        work_dir.mkdir(parents=True, exist_ok=True)
        config.events = []
        for cid in sc.rig.camera_ids:
            path = work_dir / f"events_{cid}.txt"
            rs.io.write_events(streams[cid], path)
            config.events.append(str(path))
        config.trajectory = str(work_dir / "trajectory.txt")
        config.calibration = str(work_dir / "calibration.json")
        config.out_dir = str(work_dir / "out")
        rs.io.write_trajectory(sc.traj, config.trajectory)
        rs.io.write_calibration(sc.rig, config.calibration)

    return Inputs(
        workload=wl, seed=seed, scenario=sc, config=config, streams=streams,
        events_generated=sum(len(s) for s in ordered),
        events_before_start=before,
        work_dir=work_dir if wl.from_files else None,
    )
