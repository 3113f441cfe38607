#!/usr/bin/env python3
"""raysweep mapper benchmark.

    python3 bench/run.py --workload room_dense --seed 7 --seconds 30 --trace 0

Generates the workload's inputs from the seed with ``raysweep.synth``,
then calls ``run_pipeline`` repeatedly for ``--seconds`` and checks every
call's outputs. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it first times untraced calls for half the time, then traced
calls with spans and counters around every layer, and reports the
per-layer metrics. The report goes to stdout; its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A record of the run
with its environment is written to bench/results/.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with an error and no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# Set-up is timed in this many fresh interpreters, half just before the
# mapper calls and half just after, and the fastest counts: other load on
# the machine only ever adds to an import's time, and it comes in phases
# of some seconds in which every probe runs up to ~50% slow.
SETUP_REPEATS = 10
P90_MIN_SAMPLES = 100  # the 90th percentile needs ten samples beyond it

END_TO_END = [  # name, unit, in the result's metrics
    ("setup_s", "s", True),
    ("map_s", "s", True),
    ("events_per_s", "1/s", True),
    ("chunk_s_p50", "s", True),
    ("chunk_s_p90", "s", False),
    ("peak_rss_mb", "MB", True),
    ("inlier_frac", "ratio", False),
    ("outlier_frac", "ratio", False),
    ("density", "ratio", False),
    ("failed_frac", "ratio", False),
]


def load_program():
    """Import raysweep from this checkout's src/, or exit."""
    if not (SRC / "raysweep" / "__init__.py").is_file():
        sys.exit(f"error: raysweep sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    rs = importlib.import_module("raysweep")
    importlib.import_module("raysweep.evaluation")
    if Path(rs.__file__).resolve().parent != SRC / "raysweep":
        sys.exit(f"error: raysweep imported from {rs.__file__}, not {SRC}")
    return rs


def measure_setup(mode: str, repeats: int) -> list[float]:
    """Seconds of import + one-event vote, in fresh interpreters."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


@dataclass
class Call:
    """One mapper call: wall time, error if it raised, its chunk latencies
    and, when traced, its per-layer figures. Outputs are checked as soon
    as the call returns and are not kept."""

    traced: bool
    error: str | None = None
    seconds: float = 0.0
    chunk_s: list = field(default_factory=list)
    layer: dict | None = None


class Checker:
    """Applies every output check to each call as it returns, counting
    attempted and failed chunks and appending what failed to ``report``.

    The first good call's outputs are held to the stored reference and to
    ground-truth quality; every call must reproduce its digests, so what
    is wrong with the first call's outputs is wrong in every call.
    """

    def __init__(self, rs, inputs):
        self.rs, self.inputs = rs, inputs
        self.report: list[str] = []
        self.attempted = self.failed = 0
        self.want: list[str] | None = None  # the first good call's digests
        self.always_bad: set[int] = set()
        self.quality: dict | None = None

    def _first(self, outputs):
        rs, inputs, wl = self.rs, self.inputs, self.inputs.workload
        self.want = [checks.digest(o.result) for o in outputs]
        self.quality = checks.quality(outputs, inputs, rs)
        if checks.check_accounting(outputs, inputs)[0]:
            return  # failed in every call below; no further checks apply
        n_points = inputs.scenario.scene.points.shape[0]
        ref = checks.load_reference(wl, n_points, inputs.seed)
        if ref is None:
            self.report.append(f"reference: none stored for seed {inputs.seed} at "
                               f"{n_points} points, other checks only")
        else:
            exact = inputs.config.voting == "nearest"
            bad, info = checks.compare_reference(outputs, inputs.config, ref, exact)
            line = f"reference: {info['exact_chunks']}/{info['chunks']} chunks bit-exact"
            if not exact:
                line += (f", {info['differing_pixels']} of {info['masked_pixels']} "
                         f"pixels differ (<= {checks.MAX_TIE_SHARE:.1%} allowed), "
                         f"depth error {info['max_rel_depth_err']:.1e} where the plane "
                         f"holds (<= {checks.DEPTH_RTOL:.0e})")
            self.report.append(line)
            self.always_bad |= set(bad)
        if wl.quality_gate and n_points == wl.n_points:
            low = checks.quality_failures(self.quality)
            if low:
                self.report.append(f"quality: chunks {low} below inliers >= "
                                   f"{checks.MIN_INLIERS} or density >= {checks.MIN_DENSITY}")
            self.always_bad |= set(low)

    def check(self, n: int, call: Call, outputs) -> None:
        if call.error is not None:
            self.report.append(f"call {n} raised:\n{call.error}")
            chunks = len(self.want) if self.want else 1
            self.attempted += chunks
            self.failed += chunks
            return
        if self.want is None:
            self._first(outputs)
        problems, bad = checks.check_accounting(outputs, self.inputs)
        self.report.extend(f"call {n} accounting: {p}" for p in problems)
        got = [checks.digest(o.result) for o in outputs]
        if got != self.want:
            self.report.append(f"call {n}: outputs differ from the first call's")
            bad |= {o.index for i, o in enumerate(outputs)
                    if len(got) != len(self.want) or got[i] != self.want[i]}
        if self.inputs.workload.from_files:
            written = checks.check_written(outputs, self.inputs.config, self.rs)
            if written:
                self.report.append(f"call {n}: written outputs wrong in chunks {written}")
            bad |= set(written)
        self.attempted += len(outputs)
        self.failed += len(bad | self.always_bad)


def map_once(rs, inputs, traced: bool, checker: Checker, n: int) -> Call:
    call = Call(traced)
    outputs = None
    if inputs.work_dir is not None:
        shutil.rmtree(inputs.config.out_dir, ignore_errors=True)
    with Tracer() as tr:
        if traced:
            layers.install(tr, rs)
        else:  # untraced: per-chunk latency only
            tr.wrap(rs.pipeline, "process_chunk", "pipeline.process_chunk")
        t0 = time.perf_counter()
        try:
            outputs = tr.call("pipeline.run_pipeline", rs.pipeline.run_pipeline,
                              inputs.config, **inputs.call_kwargs())
        except Exception:  # a failed call is counted, not fatal
            call.error = traceback.format_exc(limit=3)
        call.seconds = time.perf_counter() - t0
    call.chunk_s = [s.duration for s in tr.spans if s.name == "pipeline.process_chunk"]
    checker.check(n, call, outputs)
    if traced and call.error is None:
        call.layer = layers.call_metrics(tr.spans, tr.counters, outputs,
                                         inputs.volume_bytes())
    return call


def run_calls(rs, inputs, budget_s: float, traced: bool, checker: Checker,
              calls: list[Call]) -> None:
    """Call the mapper until the next call would overrun ``budget_s``."""
    deadline = time.perf_counter() + budget_s
    first = len(calls)
    while True:
        calls.append(map_once(rs, inputs, traced, checker, len(calls)))
        typical = statistics.median(c.seconds for c in calls[first:])
        if time.perf_counter() + typical > deadline:
            return


def end_to_end(rs, inputs, calls, setup, q, failed_frac) -> tuple[dict, dict]:
    ok = [c for c in calls if c.error is None]
    map_s = statistics.median(c.seconds for c in ok)
    chunk_s = [d for c in ok for d in c.chunk_s]
    values = {
        "setup_s": min(setup),
        "map_s": map_s,
        "events_per_s": inputs.events_generated / map_s,
        "chunk_s_p50": statistics.median(chunk_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inlier_frac": q["inlier_frac"],
        "outlier_frac": q["outlier_frac"],
        "density": q["density"],
        "failed_frac": failed_frac,
    }
    if len(chunk_s) >= P90_MIN_SAMPLES:
        values["chunk_s_p90"] = float(np.percentile(chunk_s, 90))
    notes = {
        "setup_s": f"fastest of {len(setup)} fresh interpreters, "
                   f"half before and half after the calls",
        "map_s": f"median of {len(ok)} calls",
        "events_per_s": f"{inputs.events_generated} events / map_s",
        "chunk_s_p50": f"median of {len(chunk_s)} chunks",
        "chunk_s_p90": f"{len(chunk_s)} chunks",
        "peak_rss_mb": "max resident set of this process",
        "inlier_frac": f"of {q['n_pred']} output pixels, within one plane spacing",
        "outlier_frac": f"of {q['n_pred']} output pixels, unmatched or >10% off",
        "density": f"of {q['n_gt']} ground-truth pixels",
        "failed_frac": "failed chunks / attempted chunks",
    }
    return values, notes


def per_layer(calls) -> tuple[dict, dict]:
    untraced = [c for c in calls if not c.traced and c.error is None]
    traced = [c for c in calls if c.traced and c.error is None]
    values = layers.median_metrics([c.layer for c in traced])
    base = statistics.median(c.seconds for c in untraced)
    values["trace.overhead_frac"] = statistics.median(c.seconds for c in traced) / base - 1.0
    notes = {name: f"median of {len(traced)} traced calls" for name in values}
    notes["dsi.grid_bytes"] = "computed: DSI volumes allocated per chunk x W*H*Nz*8"
    notes["trace.overhead_frac"] = (f"traced vs untraced map_s, "
                                    f"{len(traced)} vs {len(untraced)} calls")
    return values, notes


def environment(rs, inputs) -> dict:
    import scipy

    cfg = inputs.config
    cam = inputs.scenario.rig.cameras[0]
    have_numba = bool(rs._sweep.HAVE_NUMBA)
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "raysweep": rs.__version__,
        "have_numba": have_numba,
        "kernel": "numba" if have_numba else "numpy",  # what kernel="auto" runs
        "workers_requested": inputs.workload.workers,
        "workers": rs.dsi.resolve_workers(inputs.workload.workers),
        "RAYSWEEP_THREADS": os.environ.get("RAYSWEEP_THREADS"),
        "volume_whn": [cfg.width or cam.width, cfg.height or cam.height, cfg.num_planes],
        "seed": inputs.seed,
        "scene_points": int(inputs.scenario.scene.points.shape[0]),
        "events": {cid: len(s) for cid, s in inputs.streams.items()},
        "events_before_start": inputs.events_before_start,
        "voting": cfg.voting,
        "fusion": cfg.fusion,
        "chunk_duration": cfg.chunk_duration,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--points", type=int,
                    help="scene points instead of the workload's (smoke tests)")
    args = ap.parse_args(argv)

    rs = load_program()
    wl = WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    try:
        inputs = generate(rs, wl, args.seed, args.points, work_dir)
        # lazy set-up in this process is paid before timing starts
        cam = inputs.scenario.rig.cameras[0]
        grid = rs.DsiGrid.create(rs.Se3.identity(), cam, 0.45, 4.0, 2)
        rs.vote_event(grid, rs.Event(0.0, 1, 1), cam, rs.Se3.identity(),
                      mode=inputs.config.voting)

        checker, calls = Checker(rs, inputs), []
        if args.trace:
            setup = []
            run_calls(rs, inputs, args.seconds / 2, False, checker, calls)
            run_calls(rs, inputs, args.seconds / 2, True, checker, calls)
        else:
            setup = measure_setup(inputs.config.voting, SETUP_REPEATS // 2)
            run_calls(rs, inputs, args.seconds, False, checker, calls)
            setup += measure_setup(inputs.config.voting, SETUP_REPEATS - len(setup))

        report, q = checker.report, checker.quality
        attempted, failed = checker.attempted, checker.failed
        env = environment(rs, inputs)
        if env["workers"] != wl.workers:
            report.append(f"warning: {env['workers']} workers ran, not {wl.workers} "
                          f"(RAYSWEEP_THREADS={env['RAYSWEEP_THREADS']})")
        if q is None or (args.trace and not any(c.traced and c.error is None
                                                for c in calls)):
            print("\n".join(report), file=sys.stderr)
            print("error: no mapper call succeeded; nothing to measure", file=sys.stderr)
            return 1
        if args.trace:
            values, notes = per_layer(calls)
            spec = layers.PER_LAYER
        else:
            values, notes = end_to_end(rs, inputs, calls, setup, q, failed / attempted)
            spec = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if work_dir.parent.exists() and not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()

    print(f"raysweep benchmark: workload {wl.name}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print(f"why: {wl.why}")
    print("env: " + json.dumps(env))
    for name, unit, _ in spec:
        if name in values:
            print(f"  {name:34s} {values[name]:>16.6g} {unit:6s} {notes.get(name, '')}")
    if not args.trace and "chunk_s_p90" not in values:
        print(f"  {'chunk_s_p90':34s} {'-':>16s} {'s':6s} "
              f"not reported: fewer than {P90_MIN_SAMPLES} chunk samples")
    print("checks: " + ("; ".join(report) if report else "all passed")
          + f" ({attempted - failed}/{attempted} chunks correct)")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, in_result in spec if in_result}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, all_metrics=values, notes=notes,
                  checks=report, call_seconds=[c.seconds for c in calls],
                  setup_seconds=setup)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
