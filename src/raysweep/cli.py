"""Command-line interface.

Subcommands: ``synth`` (generate a named scenario to disk), ``map`` (run
the mapper from a config file; flags override config keys), and ``eval``
(compare a predicted depth map against ground truth). Exit codes: 0 on
success, 1 on usage errors, 2 on processing errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import evaluation
from . import io as rio
from .dsi import VOTING_MODES
from .errors import RaysweepError
from .events import chunk_events, select_reference_view
from .pipeline import CONFIG_TYPES, PipelineConfig, run_pipeline
from .synth import SCENARIO_NAMES, ground_truth_depth, make_scenario


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for
    processing errors, so route usage problems through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


# Config keys with no `map` flag: the inputs always come from the config.
_PATH_KEYS = ("events", "trajectory", "calibration")

# argparse settings of the override flags beyond the derived name and type.
_FLAG_SETTINGS = {
    "out_dir": {"flag": "--out", "metavar": "OUT", "help": "override output directory"},
    "width": {"help": "DSI width (default: reference camera)"},
    "height": {"help": "DSI height (default: reference camera)"},
    "fusion": {"help": "min|harmonic|geometric|arithmetic|rms|max|power:P"},
    "voting": {"choices": VOTING_MODES},
    "nms_radius": {"help": "keep only local confidence maxima (0 = off)"},
}


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from on, off)")
    return text == "on"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One override flag per PipelineConfig field except the path keys:
    ``--field-name``, typed like the field. A bool field that defaults to
    off is a bare switch; one that defaults to on takes ``on|off``. Every
    flag defaults to None, meaning "keep the config's value"."""
    for f in dataclasses.fields(PipelineConfig):
        if f.name in _PATH_KEYS:
            continue
        kw = dict(_FLAG_SETTINGS.get(f.name, {}))
        flag = kw.pop("flag", "--" + f.name.replace("_", "-"))
        kind = CONFIG_TYPES[f.name][0]
        if kind is bool and not f.default:
            kw["action"] = "store_true"
        elif kind is bool:
            kw.update(type=_on_off, metavar="{on,off}")
        else:
            kw["type"] = kind
        parser.add_argument(flag, dest=f.name, default=None, **kw)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log per-stage progress")
    parser = _Parser(
        prog="raysweep",
        parents=[common],
        description="Multi-camera event-stream depth mapping via fused "
                    "back-projected ray densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_synth = sub.add_parser("synth", parents=[common],
                             help="generate a synthetic scenario to disk")
    p_synth.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.add_argument("--points", type=int, default=500,
                         help="number of scene points")

    p_map = sub.add_parser("map", parents=[common],
                           help="run the depth mapper from a config file")
    p_map.add_argument("--config", required=True, help="pipeline config JSON")
    _add_config_flags(p_map)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="compare predicted depth against ground truth")
    p_eval.add_argument("--pred", required=True, help="predicted depth PFM")
    p_eval.add_argument("--gt", required=True, help="ground-truth depth PFM")
    p_eval.add_argument("--match-radius", type=float, default=2.0)
    p_eval.add_argument("--outlier-rel", type=float, default=0.10)
    return parser


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario = make_scenario(args.scenario, n_points=args.points, seed=args.seed)
    streams = scenario.simulate()

    event_paths = []
    for cid in scenario.rig.camera_ids:
        path = out / f"events_{cid}.txt"
        rio.write_events(streams[cid], path)
        event_paths.append(str(path))
    rio.write_trajectory(scenario.traj, out / "trajectory.txt")
    rio.write_calibration(scenario.rig, out / "calibration.json")

    config = scenario.config
    config.events = event_paths
    config.trajectory = str(out / "trajectory.txt")
    config.calibration = str(out / "calibration.json")
    config.out_dir = str(out / "results")
    config.save(out / "config.json")

    # Ground truth per chunk, at the same reference view the mapper will use.
    ordered = [streams[cid] for cid in scenario.rig.camera_ids]
    for chunk in chunk_events(ordered, config.chunk_duration):
        ref = select_reference_view(chunk, scenario.traj, scenario.rig.cameras[0])
        gt = ground_truth_depth(scenario.scene, ref, scenario.rig.cameras[0])
        rio.write_depth_pfm(gt, out / f"gt_depth_chunk{chunk.index:03d}.pfm")

    print(f"wrote scenario '{args.scenario}' to {out}")
    print(f"  events: {', '.join(Path(p).name for p in event_paths)}")
    print(f"  config: {out / 'config.json'}")
    return 0


def _cmd_map(args) -> int:
    config = PipelineConfig.load(args.config)
    for f in dataclasses.fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)

    outputs = run_pipeline(config)
    for o in outputs:
        if o.skipped:
            print(f"chunk {o.index:3d} [{o.t_start:.3f}, {o.t_end:.3f}): skipped "
                  f"({o.stats.get('skipped')})")
        else:
            print(f"chunk {o.index:3d} [{o.t_start:.3f}, {o.t_end:.3f}): "
                  f"{o.stats['events_read']} events, "
                  f"{o.stats['valid_pixels']} depth pixels")
    if config.out_dir:
        print(f"outputs in {config.out_dir}")
    return 0


def _cmd_eval(args) -> int:
    pred = rio.read_pfm(args.pred).astype(np.float64)
    gt = rio.read_pfm(args.gt).astype(np.float64)
    if pred.shape != gt.shape:
        raise RaysweepError(
            f"shape mismatch: pred {pred.shape} vs gt {gt.shape}"
        )
    metrics = evaluation.compare_depth(
        pred, pred > 0.0, gt, gt > 0.0,
        match_radius=args.match_radius, outlier_rel=args.outlier_rel,
    )
    print(f"pred_pixels      {metrics.n_pred}")
    print(f"gt_pixels        {metrics.n_gt}")
    print(f"matched_pixels   {metrics.n_matched}")
    print(f"mean_abs_rel     {metrics.mean_abs_rel:.6f}")
    print(f"outlier_fraction {metrics.outlier_fraction:.6f}  (rel > {args.outlier_rel:g})")
    print(f"density          {metrics.density:.6f}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as e:  # --help lands here with code 0
        return int(e.code or 0)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "map":
            return _cmd_map(args)
        if args.command == "eval":
            return _cmd_eval(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RaysweepError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
