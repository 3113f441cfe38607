#!/usr/bin/env python3
"""Store the reference outputs the benchmark checks against.

    python3 bench/make_reference.py --workload room_dense --seeds 0-31

For each seed, maps the workload once and stores per chunk the digest of
depth and mask and the depth-plane map in bench/reference/. Run it only
on code whose outputs are known good; entries for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from checks import fingerprint, reference_path
from run import ROOT, load_program
from workloads import WORKLOADS, generate


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="a seed or a range, e.g. 0-31")
    args = ap.parse_args(argv)

    rs = load_program()
    wl = WORKLOADS[args.workload]
    path = reference_path(wl, wl.n_points)
    doc = json.loads(path.read_text()) if path.exists() else {
        "workload": wl.name, "n_points": wl.n_points, "seeds": {}}
    work_dir = ROOT / ".bench_work" / f"reference-{wl.name}"
    try:
        for seed in parse_seeds(args.seeds):
            inputs = generate(rs, wl, seed, None, work_dir)
            outputs = rs.pipeline.run_pipeline(inputs.config, **inputs.call_kwargs())
            doc["seeds"][str(seed)] = fingerprint(outputs, inputs.config)
            print(f"{wl.name} seed {seed}: {len(outputs)} chunks", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path.parent.mkdir(exist_ok=True)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
