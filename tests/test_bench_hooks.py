"""The names that the benchmark under bench/ wraps, reads and calls exist in
the program, so that renaming one fails here and not only in a benchmark
run (bench/ is outside this suite's test paths)."""

import importlib
import operator
from pathlib import Path

import numpy as np
import pytest

import raysweep
from raysweep.synth import make_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"

# read or called by bench/run.py, setup_probe.py, checks.py and workloads.py
USED_NAMES = [
    "__version__", "CameraModel", "DsiGrid.create", "DsiGrid.total_votes",
    "Event", "Se3.identity", "vote_event",
    "_sweep.HAVE_NUMBA", "dsi.resolve_workers",
    "evaluation.compare_depth_results", "io.read_pfm", "io.write_calibration",
    "io.write_events", "io.write_trajectory", "pipeline.run_pipeline",
    "synth.ground_truth_depth", "synth.make_scenario",
    # wrapped by bench/layers.py install, or called by its counters
    "DsiGrid.copy_empty", "pipeline.vote_events", "pipeline.fuse",
    "Chunk.total_events", "_sweep.run_sweep", "_sweep.sweep_direct",
    "pipeline.extract_depth",
]


@pytest.fixture
def bench(monkeypatch):
    """bench/'s layers and spans modules."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


@pytest.mark.parametrize("name", USED_NAMES)
def test_used_name_exists(name):
    importlib.import_module("raysweep.evaluation")
    operator.attrgetter(name)(raysweep)


def test_layers_install_trace_and_restore(bench, monkeypatch):
    layers, spans = bench
    sc = make_scenario("lateral_room", n_points=60, seed=4)
    streams = sc.simulate()
    prepared = []  # every camera's rays, as the chunk loop prepares them
    prepare = raysweep.pipeline.prepare_sweep

    def spy(*args, **kwargs):
        prepared.append(prepare(*args, **kwargs))
        return prepared[-1]
    monkeypatch.setattr(raysweep.pipeline, "prepare_sweep", spy)
    original = raysweep.pipeline.process_chunk
    tracer = spans.Tracer()
    layers.install(tracer, raysweep)
    try:
        assert raysweep.pipeline.process_chunk is not original
        raysweep.pipeline.run_pipeline(sc.config, streams=streams, rig=sc.rig,
                                       traj=sc.traj, workers=1)
    finally:
        tracer.restore()
    assert raysweep.pipeline.process_chunk is original
    names = {s.name for s in tracer.spans}
    # every chunk still extracts through pipeline.extract_depth, so the
    # benchmark's depth.extract_depth.s cannot silently read 0
    assert {"pipeline.process_chunk", "sweep.run_sweep",
            "geometry.interpolate_batch", "depth.extract_depth"} <= names
    # The counter reads lo and hi from run_sweep's first argument. Each band
    # clips them to its planes, so over the bands a ray adds up to hi - lo.
    want = sum(float(np.sum(r.affine[5] - r.affine[4])) for r in prepared)
    assert len(prepared) == len(sc.rig) * tracer.counters["events.chunks"]
    assert tracer.counters["sweep.ray_plane_tests"] == want > 0
    assert tracer.counters["events.chunks"] >= 1
