"""Command-line interface: detection, evaluation, ablation, benchmarking,
and synthetic-scene generation.

Subcommands: ``detect``, ``repeat``, ``ablate``, ``bench``, ``synth``. Data
goes to the output file (or stdout when ``-o`` is omitted where that makes
sense); diagnostics go to stderr. Exit codes: 0 success, 2 usage or parameter
error, 1 runtime failure. Seeds default to fixed constants so runs are
reproducible; a seed is a non-negative integer, or ``random`` to opt into
entropy. Set the CED_LOG environment variable (DEBUG, INFO, ...) to control
log verbosity; main reads it on every call, so in-process calls can differ,
and an unknown level name is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .cloud import ColoredPointCloud
from .cloudio import CloudFormat, parse_cloud, sniff_format, write_cloud
from .detector import (
    DEFAULT_COLOR_THRESHOLD,
    DEFAULT_GEO_THRESHOLD,
    DEFAULT_MIN_NEIGHBORS,
    DetectorMode,
    DetectorParams,
    detect_with_fields,
    export_keypoints_csv,
    export_keypoints_ply,
)
from .errors import CedkitError, InvalidParamsError
from .evaluation import (
    DEFAULT_TRIALS,
    RepeatabilityConfig,
    ablation_csv,
    ablation_sweep,
    evaluate_repeatability,
    measure_runtime,
    random_detector,
    repeatability_csv,
    runtime_csv,
)
from .scenes import SceneKind, SceneSpec, generate_scene

logger = logging.getLogger("cedkit")

DEFAULT_SEED = 7

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
    parser.add_argument("-i", "--input", required=True,
                        help="input cloud file; its header declares its format")


def _add_detector_flags(parser, sweep=False):
    """Detector flags; a threshold sweep takes lists of thresholds and no random mode."""
    parser.add_argument("--radius", type=float, default=None,
                        help="search radius in meters (default 5 x cloud resolution)")
    if not sweep:
        parser.add_argument("--tg", type=float, default=DEFAULT_GEO_THRESHOLD,
                            help="geometric threshold in [0, 1] (default %(default)s)")
        parser.add_argument("--tc", type=float, default=DEFAULT_COLOR_THRESHOLD,
                            help="color threshold in [0, 3] (default %(default)s)")
    modes = [m.value for m in DetectorMode] + ([] if sweep else ["random"])
    parser.add_argument("--mode", choices=modes,
                        default=DetectorMode.CED.value, help="detector (default %(default)s)")
    parser.add_argument("--min-neighbors", type=int, default=DEFAULT_MIN_NEIGHBORS,
                        help="validity floor for neighborhood size (default %(default)s)")
    if not sweep:
        parser.add_argument("--count", type=int, default=100,
                            help="keypoint count for --mode random (default %(default)s)")
    parser.add_argument("--seed", type=_parse_seed, default=str(DEFAULT_SEED),
                        help="non-negative integer seed or 'random' (default %(default)s)")


def _add_evaluation_flags(parser, **sigma):
    """--epsilon, --sigma and --trials; sigma holds --sigma's default and help."""
    parser.add_argument("--epsilon", type=float, default=None,
                        help="match radius in meters (default 2 x resolution)")
    parser.add_argument("--sigma", type=float, **sigma)
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="number of random transforms (default %(default)s)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
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
    _add_evaluation_flags(p_repeat, default=None,
                          help="noise sigma in meters (default 0.5 x resolution)")
    p_repeat.add_argument("-o", "--output", default=None, help="report CSV path")

    p_ablate = sub.add_parser("ablate", help="threshold sweep")
    _add_input_flags(p_ablate)
    _add_detector_flags(p_ablate, sweep=True)
    _add_evaluation_flags(p_ablate, default=0.0,
                          help="noise sigma for sweep rows (default %(default)s)")
    p_ablate.add_argument("--tg", dest="tg_values", type=_parse_float_list,
                          default=str(DEFAULT_GEO_THRESHOLD),
                          help="comma-separated geometric thresholds (default %(default)s)")
    p_ablate.add_argument("--tc", dest="tc_values", type=_parse_float_list,
                          default=str(DEFAULT_COLOR_THRESHOLD),
                          help="comma-separated color thresholds (default %(default)s)")
    p_ablate.add_argument("-o", "--output", default=None, help="sweep CSV path")

    p_bench = sub.add_parser("bench", help="single-thread runtime measurement")
    _add_input_flags(p_bench)
    _add_detector_flags(p_bench)
    p_bench.add_argument("--trials", type=int, default=5,
                         help="repetitions (default %(default)s)")
    p_bench.add_argument("-o", "--output", default=None, help="runtime CSV path")

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p_synth.add_argument("--extent", type=float, default=1.0, help="scene size in meters")
    p_synth.add_argument("--pitch", type=float, default=0.01, help="sampling pitch in meters")
    p_synth.add_argument("--tile", type=float, default=0.2, help="checker tile size in meters")
    p_synth.add_argument("--jitter", type=float, default=0.0,
                         help="per-axis jitter as a fraction of pitch (default 0)")
    p_synth.add_argument("--seed", type=_parse_seed, default=str(DEFAULT_SEED))
    p_synth.add_argument("--format", choices=sorted(f.value for f in CloudFormat), default=None,
                         help="output format (default from -o extension)")
    p_synth.add_argument("-o", "--output", required=True, help="output cloud path")

    return parser


def _load_cloud(args) -> ColoredPointCloud:
    data = Path(args.input).read_bytes()
    return parse_cloud(data, sniff_format(data))


def _detector_params(args, cloud: ColoredPointCloud) -> DetectorParams:
    overrides = {"mode": DetectorMode(args.mode), "min_neighbors": args.min_neighbors}
    if "tg" in args:  # ablate sweeps lists of thresholds instead
        overrides.update(geo_threshold=args.tg, color_threshold=args.tc)
    if args.radius is not None:
        overrides["radius"] = args.radius
    return DetectorParams.for_cloud(cloud, **overrides)


def _repeat_config(args) -> RepeatabilityConfig:
    seed = _effective_seed(args.seed)
    return RepeatabilityConfig(epsilon=args.epsilon, sigma=args.sigma, trials=args.trials,
                               transform_seed=seed, noise_seed=seed + 1000)


def _effective_seed(seed: int | None) -> int:
    return seed if seed is not None else int(np.random.SeedSequence().entropy % (2**32))


def _detector_for(args, cloud: ColoredPointCloud):
    if args.mode == "random":
        return random_detector(args.count, _effective_seed(args.seed))
    return _detector_params(args, cloud)


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="")


def _cmd_detect(args) -> int:
    cloud = _load_cloud(args)
    detector = _detector_for(args, cloud)
    if isinstance(detector, DetectorParams):
        result = detect_with_fields(cloud, detector)
        keys, geo, photo = result.keypoints, result.geometric, result.photometric
    else:
        keys, geo, photo = detector(cloud), None, None
    logger.info("detected %d keypoints in %d points", len(keys), len(cloud))
    if args.output and args.output.lower().endswith(".ply"):
        Path(args.output).write_bytes(export_keypoints_ply(cloud, keys))
    else:
        _emit(export_keypoints_csv(cloud, keys, geo, photo), args.output)
    return 0


def _cmd_repeat(args) -> int:
    cloud = _load_cloud(args)
    config = _repeat_config(args)
    report = evaluate_repeatability(cloud, _detector_for(args, cloud), config)
    if report.empty_keypoint_set:
        logger.warning("detector produced no keypoints; repeatability reported as 0")
    _emit(repeatability_csv(report), args.output)
    return 0


def _cmd_ablate(args) -> int:
    cloud = _load_cloud(args)
    config = _repeat_config(args)
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
        fmt = CloudFormat(args.format)
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


class _StderrHandler(logging.StreamHandler):
    """Writes each record to sys.stderr as it is when the record is emitted."""

    def __init__(self):
        logging.Handler.__init__(self)
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))

    @property
    def stream(self):
        return sys.stderr


_log_handler = _StderrHandler()


def _configure_logging():
    """Set the cedkit loggers' level from CED_LOG, on every call of main."""
    name = os.environ.get("CED_LOG") or "WARNING"
    # getLevelName maps a registered level name to its number, anything else to a str
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise InvalidParamsError(
            f"unknown CED_LOG level {name!r}; use DEBUG, INFO, WARNING, ERROR or CRITICAL"
        )
    logger.setLevel(level)
    logger.addHandler(_log_handler)  # a no-op once added


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return _COMMANDS[args.command](args)
    except InvalidParamsError as exc:
        print(f"cedkit: parameter error: {exc}", file=sys.stderr)
        return 2
    except (CedkitError, OSError) as exc:
        print(f"cedkit: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the array it could not allocate; scipy's C++ says std::bad_alloc
        detail = f" ({exc})" if str(exc) else ""
        print(f"cedkit: error: out of memory{detail}; try a smaller radius", file=sys.stderr)
        return 1
