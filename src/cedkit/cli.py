"""Command-line interface: detection, evaluation, ablation, benchmarking,
and synthetic-scene generation.

Subcommands: ``detect``, ``repeat``, ``ablate``, ``bench``, ``synth``. Data
goes to the output file (or stdout when ``-o`` is omitted where that makes
sense); diagnostics go to stderr. Exit codes: 0 success, 2 usage or parameter
error, 1 runtime failure. Seeds default to fixed constants so runs are
reproducible; pass ``--seed random`` to opt into entropy. Set the CED_LOG
environment variable (DEBUG, INFO, ...) to control log verbosity; an unknown
level name is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .baseline import detect_random
from .cloud import ColoredPointCloud
from .cloudio import CloudFormat, parse_cloud, sniff_format, write_cloud
from .detector import (
    DetectorMode,
    DetectorParams,
    detect_with_fields,
    export_keypoints_csv,
    export_keypoints_ply,
)
from .errors import CedkitError, InvalidParamsError, InvalidSpecError
from .evaluation import (
    RepeatabilityConfig,
    ablation_csv,
    ablation_sweep,
    ced_detector,
    evaluate_repeatability,
    measure_runtime,
    random_detector,
    repeatability_csv,
    runtime_csv,
)
from .scenes import SceneKind, SceneSpec, generate_scene

logger = logging.getLogger("cedkit")

DEFAULT_SEED = 7

_FORMATS = {f.value: f for f in CloudFormat}
_MODES = {"ced": DetectorMode.CED, "ced3d": DetectorMode.CED_3D}
_KINDS = {k.value: k for k in SceneKind}


def _parse_seed(text: str) -> int | None:
    if text == "random":
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer or 'random': {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc


def _add_input_flags(parser):
    parser.add_argument("-i", "--input", required=True, help="input cloud file")
    parser.add_argument(
        "--format",
        choices=sorted(_FORMATS),
        default=None,
        help="input format; default sniffs the file header",
    )


def _add_detector_flags(parser, scalar_thresholds=True):
    parser.add_argument("--radius", type=float, default=None,
                        help="search radius in meters (default 5 x cloud resolution)")
    if scalar_thresholds:
        parser.add_argument("--tg", type=float, default=0.2,
                            help="geometric threshold in [0, 1] (default 0.2)")
        parser.add_argument("--tc", type=float, default=0.1,
                            help="color threshold in [0, 3] (default 0.1)")
    parser.add_argument("--mode", choices=["ced", "ced3d", "random"], default="ced",
                        help="detector (default ced)")
    parser.add_argument("--min-neighbors", type=int, default=5,
                        help="validity floor for neighborhood size (default 5)")
    parser.add_argument("--count", type=int, default=100,
                        help="keypoint count for --mode random (default 100)")
    parser.add_argument("--seed", type=_parse_seed, default=str(DEFAULT_SEED),
                        help="integer seed or 'random' (default 7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedkit",
        description="Keypoint detection and evaluation for colored point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect keypoints in a cloud")
    _add_input_flags(p_detect)
    _add_detector_flags(p_detect)
    p_detect.add_argument("-o", "--output", default=None,
                          help="output .csv or .ply path (default CSV to stdout)")

    p_repeat = sub.add_parser("repeat", help="repeatability under rigid motion")
    _add_input_flags(p_repeat)
    _add_detector_flags(p_repeat)
    p_repeat.add_argument("--epsilon", type=float, default=None,
                          help="match radius in meters (default 2 x resolution)")
    p_repeat.add_argument("--sigma", type=float, default=None,
                          help="noise sigma in meters (default 0.5 x resolution)")
    p_repeat.add_argument("--trials", type=int, default=10,
                          help="number of random transforms (default 10)")
    p_repeat.add_argument("-o", "--output", default=None, help="report CSV path")

    p_ablate = sub.add_parser("ablate", help="threshold sweep")
    _add_input_flags(p_ablate)
    _add_detector_flags(p_ablate, scalar_thresholds=False)
    p_ablate.add_argument("--epsilon", type=float, default=None)
    p_ablate.add_argument("--sigma", type=float, default=0.0,
                          help="noise sigma for sweep rows (default 0)")
    p_ablate.add_argument("--trials", type=int, default=10)
    p_ablate.add_argument("--tg", dest="tg_values", type=_parse_float_list,
                          default=[0.2], help="comma-separated geometric thresholds")
    p_ablate.add_argument("--tc", dest="tc_values", type=_parse_float_list,
                          default=[0.1], help="comma-separated color thresholds")
    p_ablate.add_argument("-o", "--output", default=None, help="sweep CSV path")

    p_bench = sub.add_parser("bench", help="single-thread runtime measurement")
    _add_input_flags(p_bench)
    _add_detector_flags(p_bench)
    p_bench.add_argument("--trials", type=int, default=5,
                         help="repetitions (default 5)")
    p_bench.add_argument("-o", "--output", default=None, help="runtime CSV path")

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p_synth.add_argument("--extent", type=float, default=1.0, help="scene size in meters")
    p_synth.add_argument("--pitch", type=float, default=0.01, help="sampling pitch in meters")
    p_synth.add_argument("--tile", type=float, default=0.2, help="checker tile size in meters")
    p_synth.add_argument("--jitter", type=float, default=0.0,
                         help="per-axis jitter as a fraction of pitch (default 0)")
    p_synth.add_argument("--seed", type=_parse_seed, default=str(DEFAULT_SEED))
    p_synth.add_argument("--format", choices=sorted(_FORMATS), default=None,
                         help="output format (default from -o extension)")
    p_synth.add_argument("-o", "--output", required=True, help="output cloud path")

    return parser


def _load_cloud(args) -> ColoredPointCloud:
    data = Path(args.input).read_bytes()
    fmt = _FORMATS[args.format] if args.format else sniff_format(data)
    return parse_cloud(data, fmt)


def _detector_params(args, cloud: ColoredPointCloud) -> DetectorParams:
    overrides = {
        "geo_threshold": getattr(args, "tg", 0.2),
        "color_threshold": getattr(args, "tc", 0.1),
        "mode": _MODES.get(args.mode, DetectorMode.CED),
        "min_neighbors": args.min_neighbors,
    }
    if args.radius is not None:
        overrides["radius"] = args.radius
    return DetectorParams.for_cloud(cloud, **overrides)


def _effective_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    return int(np.random.SeedSequence().entropy % (2**32))


def _detector_for(args, cloud: ColoredPointCloud):
    if args.mode == "random":
        return random_detector(args.count, _effective_seed(args.seed))
    return ced_detector(_detector_params(args, cloud))


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="")


def _cmd_detect(args) -> int:
    cloud = _load_cloud(args)
    if args.mode == "random":
        keys = detect_random(cloud, args.count, _effective_seed(args.seed))
        geo = photo = None
    else:
        result = detect_with_fields(cloud, _detector_params(args, cloud))
        keys, geo, photo = result.keypoints, result.geometric, result.photometric
    logger.info("detected %d keypoints in %d points", len(keys), len(cloud))
    if args.output and args.output.lower().endswith(".ply"):
        Path(args.output).write_bytes(export_keypoints_ply(cloud, keys))
    else:
        _emit(export_keypoints_csv(cloud, keys, geo, photo), args.output)
    return 0


def _cmd_repeat(args) -> int:
    cloud = _load_cloud(args)
    config = RepeatabilityConfig(
        epsilon=args.epsilon,
        sigma=args.sigma,
        transform_seed=_effective_seed(args.seed),
        noise_seed=_effective_seed(args.seed) + 1000,
        trials=args.trials,
    )
    report = evaluate_repeatability(cloud, _detector_for(args, cloud), config)
    if report.empty_keypoint_set:
        logger.warning("detector produced no keypoints; repeatability reported as 0")
    _emit(repeatability_csv(report), args.output)
    return 0


def _cmd_ablate(args) -> int:
    if args.mode == "random":
        raise InvalidParamsError("ablate sweeps detector thresholds; --mode random has none")
    cloud = _load_cloud(args)
    config = RepeatabilityConfig(
        epsilon=args.epsilon,
        sigma=args.sigma,
        transform_seed=_effective_seed(args.seed),
        noise_seed=_effective_seed(args.seed) + 1000,
        trials=args.trials,
    )
    rows = ablation_sweep(
        cloud, args.tg_values, args.tc_values, _detector_params(args, cloud), config
    )
    _emit(ablation_csv(rows, config), args.output)
    return 0


def _cmd_bench(args) -> int:
    cloud = _load_cloud(args)
    stats = measure_runtime(cloud, _detector_for(args, cloud), repetitions=args.trials)
    _emit(runtime_csv(stats), args.output)
    return 0


def _cmd_synth(args) -> int:
    spec = SceneSpec(
        kind=_KINDS[args.kind],
        extent=args.extent,
        pitch=args.pitch,
        tile=args.tile,
        jitter=args.jitter,
        seed=_effective_seed(args.seed),
    )
    cloud = generate_scene(spec)
    logger.info("generated %d points", len(cloud))
    if args.format:
        fmt = _FORMATS[args.format]
    elif args.output.lower().endswith(".pcd"):
        fmt = CloudFormat.PCD_ASCII
    else:
        fmt = CloudFormat.PLY_ASCII
    Path(args.output).write_bytes(write_cloud(cloud, fmt))
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "repeat": _cmd_repeat,
    "ablate": _cmd_ablate,
    "bench": _cmd_bench,
    "synth": _cmd_synth,
}


def _configure_logging():
    name = os.environ.get("CED_LOG") or "WARNING"
    # getLevelName maps a registered level name to its number, anything else to a str
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise InvalidParamsError(
            f"unknown CED_LOG level {name!r}; use DEBUG, INFO, WARNING, ERROR or CRITICAL"
        )
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return _COMMANDS[args.command](args)
    except (InvalidParamsError, InvalidSpecError) as exc:
        print(f"cedkit: parameter error: {exc}", file=sys.stderr)
        return 2
    except (CedkitError, OSError) as exc:
        print(f"cedkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
