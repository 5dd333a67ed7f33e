"""The benchmark's workloads: inputs, timed operations, checks and probes.

A workload is a set-up (scene generation, input file, warm-up) and a cycle
of operations that one caller repeats in a closed loop until the timed calls
add up to the requested seconds. Each operation is one call into cedkit,
timed alone; its output is checked after the clock stops.

Every workload reports every end-to-end metric. The operations a workload is
built around give its own metrics; the remaining end-to-end metrics come from
probes: the same operations on a small room (extent 0.2, 1,442 points),
in rounds spread over the timed loop, never traced.
"""

from __future__ import annotations

import resource
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

from cedkit import cli, cloudio, evaluation, scenes
from cedkit.cloud import ColoredPointCloud

import checks
from tracer import FORMATS, Tracer, install, layer_metrics

SETUPS = 5
# Small enough that every probe kind gets a sample in many rounds of a run;
# its repeatability (about 0.93) varies little between seeds.
PROBE_EXTENT = 0.2
# Points checked against the oracle beyond the selected ones, per CSV.
ORACLE_SAMPLE = 256
# Probe rounds spread over the timed loop; repeat and ablate, which average
# many detections each, join every third round.
PROBE_ROUNDS = 36
PROBE_EVAL_EVERY = 3
# End-to-end metrics that are the fastest successful call of an operation.
TIMED_METRICS = ("detect_s", "repeat_s", "ablate_s") + tuple(
    f"{kind}_s.{fmt}" for kind in ("write", "parse") for fmt in FORMATS)

DETECT_RADIUS, DETECT_TG, DETECT_TC, DETECT_MIN_NEIGHBORS = 0.04, 0.2, 0.1, 5
EPSILON, SIGMA, TRIALS = 0.02, 0.005, 10
EVAL_FLAGS = ["--radius", "0.052", "--epsilon", str(EPSILON)]
REPEAT_FLAGS = EVAL_FLAGS + ["--sigma", str(SIGMA), "--tg", "0.4", "--tc", "0.6",
                             "--trials", str(TRIALS)]
ABLATE_TG = (0.2, 0.4, 0.6)
ABLATE_TC = (0.3, 0.6, 0.9)
ABLATE_FLAGS = EVAL_FLAGS + ["--sigma", "0", "--trials", "1",
                             "--tg", ",".join(map(str, ABLATE_TG)),
                             "--tc", ",".join(map(str, ABLATE_TC))]


def room(extent: float, seed: int) -> ColoredPointCloud:
    """The acceptance room family: pitch 0.01, tile 0.4, jitter 0.35."""
    spec = scenes.SceneSpec(kind=scenes.SceneKind.ROOM_COMPOSITE, extent=extent,
                            pitch=0.01, tile=0.4, jitter=0.35, seed=seed)
    return scenes.generate_scene(spec)


class Inputs:
    """A scene as generated, and as the program reads it back from a file."""

    def __init__(self, extent: float, seed: int, path: Path):
        self.cloud = room(extent, seed)
        self.path = path
        path.write_bytes(cloudio.write_cloud(self.cloud, cloudio.CloudFormat.PLY_BINARY_LE))
        self.xyz = checks.snap_xyz(self.cloud.xyz)
        self.rgb_bytes = checks.color_bytes(self.cloud.rgb)
        self.rgb = self.rgb_bytes / 255.0


@dataclass
class Op:
    """One timed call, and the check its result gets after the clock stops."""

    metric: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _first_then_equal(read, full_check) -> Callable[[object], None]:
    """Fully check the first output; every later one must equal it.

    A later output equal to a first one that failed fails the same way.
    """
    first = []

    def check(result) -> None:
        output = read(result)
        if not first:
            try:
                full_check(output)
            except Exception as exc:
                first.append((output, f"{type(exc).__name__}: {exc}"))
                raise
            first.append((output, None))
            return
        expected, error = first[0]
        checks.expect(output == expected, "output differs from the first call's")
        checks.expect(error is None, f"same output as the first call, which failed: {error}")

    return check


def _cli(argv: list[str]) -> None:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    if code != 0:
        raise checks.CheckFailed(f"cedkit {argv[0]} exited with code {code}")


def detect_op(inputs: Inputs, out: Path, seed: int, found: dict) -> Op:
    """In-process ``cedkit detect`` from binary PLY to CSV, default thresholds.

    found gets the keypoint count and the oracle's ties within rounding.
    """
    argv = ["detect", "-i", str(inputs.path), "--radius", str(DETECT_RADIUS), "-o", str(out)]

    def full_check(text: str) -> None:
        found["keypoints"] = text.count("\n") - 1
        found["oracle_ties"] = checks.check_detect_csv(
            text, inputs.xyz, inputs.rgb, radius=DETECT_RADIUS, geo_threshold=DETECT_TG,
            color_threshold=DETECT_TC, min_neighbors=DETECT_MIN_NEIGHBORS,
            sample=ORACLE_SAMPLE, seed=seed)

    return Op("detect_s", lambda: _cli(argv),
              _first_then_equal(lambda _: out.read_text(), full_check))


def eval_ops(inputs: Inputs, out_dir: Path, seed: int, found: dict) -> list[Op]:
    """In-process ``cedkit repeat`` and ``cedkit ablate``; found gets the repeatability."""
    seed_flag = ["--seed", str(seed)]
    repeat_out, ablate_out = out_dir / "repeat.csv", out_dir / "ablate.csv"
    repeat_argv = ["repeat", "-i", str(inputs.path), *REPEAT_FLAGS, *seed_flag, "-o", str(repeat_out)]
    ablate_argv = ["ablate", "-i", str(inputs.path), *ABLATE_FLAGS, *seed_flag, "-o", str(ablate_out)]

    def read_repeat(_) -> dict:
        report = checks.parse_repeat_csv(repeat_out.read_text())
        del report["detect_time_seconds"]
        return report

    def check_repeat(report: dict) -> None:
        count = int(report["total_keypoints"])
        checks.check_repeat(report, random_repeatability(inputs, seed, count))
        found["repeatability"] = report["relative_repeatability"]

    def check_ablate(rows) -> None:
        checks.check_ablate(rows, ABLATE_TG, ABLATE_TC)

    return [
        Op("repeat_s", lambda: _cli(repeat_argv), _first_then_equal(read_repeat, check_repeat)),
        Op("ablate_s", lambda: _cli(ablate_argv),
           _first_then_equal(lambda _: checks.parse_ablate_csv(ablate_out.read_text()),
                             check_ablate)),
    ]


def random_repeatability(inputs: Inputs, seed: int, count: int) -> float:
    """The random baseline at the CED count, under the repeat's motions and noise."""
    cloud = ColoredPointCloud(inputs.xyz, inputs.rgb, inputs.cloud.resolution, True)
    config = evaluation.RepeatabilityConfig(
        epsilon=EPSILON, sigma=SIGMA, transform_seed=seed, noise_seed=seed + 1000,
        trials=TRIALS)
    detector = evaluation.random_detector(count, seed)
    return evaluation.evaluate_repeatability(cloud, detector, config).relative_repeatability


def io_ops(inputs: Inputs) -> list[Op]:
    """write_cloud then parse_cloud of the scene in each format, in memory."""
    ops = []
    for fmt in FORMATS:
        layout = cloudio.CloudFormat(fmt)
        written: list[bytes] = []

        def write(layout=layout, written=written) -> bytes:
            data = cloudio.write_cloud(inputs.cloud, layout)
            written[:] = [data]
            return data

        def parse(layout=layout, written=written):
            return cloudio.parse_cloud(written[0], layout)

        def check_write(data: bytes, fmt=fmt) -> None:
            checks.check_written(fmt, data, inputs.xyz, inputs.rgb_bytes)

        def check_parse(cloud) -> None:
            checks.check_parsed(cloud, inputs.xyz, inputs.rgb_bytes)

        ops += [Op(f"write_s.{fmt}", write, _first_then_equal(lambda data: data, check_write)),
                Op(f"parse_s.{fmt}", parse, check_parse)]
    return ops


# ---------------------------------------------------------------------------
# one run


@dataclass(frozen=True)
class Workload:
    main_extent: float
    main: str  # "detect" or "eval": the operations of the cycle


WORKLOADS = {
    "detect-room99k": Workload(1.66, "detect"),
    "eval-room23k": Workload(0.8, "eval"),
}


class Run:
    """Samples, failures and span bookkeeping of one benchmark run."""

    def __init__(self, seed: int, out_dir: Path, tracer: Tracer | None):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.found: dict = {}
        self.next_op = 0

    def begin_op(self) -> int:
        op = self.next_op
        self.next_op += 1
        if self.tracer is not None:
            self.tracer.op = op
        return op

    def execute(self, op: Op) -> float:
        """Time op.call, then check its result untraced; returns the timed seconds.

        Only a call that returned and passed its check adds a sample: a
        failure counts in the failures alone, never as a timing.
        """
        self.attempted += 1
        self.begin_op()
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # counted as a failure; the loop goes on
            self.failures.append(f"{op.metric}: {traceback.format_exc()}")
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            self.tracer.enabled = False
        try:
            op.check(result)
        except Exception:
            self.failures.append(f"{op.metric}: {traceback.format_exc()}")
        else:
            self.samples.setdefault(op.metric, []).append(seconds)
        if traced:
            self.tracer.enabled = True
        return seconds

    def ops_for(self, kind: str, inputs: Inputs, tag: str) -> list[Op]:
        out_dir = self.out_dir / tag
        out_dir.mkdir(exist_ok=True)
        found = self.found.setdefault(tag, {})
        if kind == "detect":
            return [detect_op(inputs, out_dir / "keypoints.csv", self.seed, found)]
        if kind == "eval":
            return eval_ops(inputs, out_dir, self.seed, found)
        return io_ops(inputs)


def _setup(run: Run, workload: Workload) -> tuple[Inputs, Inputs]:
    """Generate and write both scenes, then warm up on the probe scene."""
    main = Inputs(workload.main_extent, run.seed, run.out_dir / "room.ply")
    probe = Inputs(PROBE_EXTENT, run.seed, run.out_dir / "probe.ply")
    _cli(["detect", "-i", str(probe.path), "--radius", str(DETECT_RADIUS),
          "-o", str(run.out_dir / "warmup.csv")])
    for fmt in FORMATS:
        layout = cloudio.CloudFormat(fmt)
        cloudio.parse_cloud(cloudio.write_cloud(probe.cloud, layout), layout)
    return main, probe


def run_workload(name: str, seed: int, seconds: float, out_dir: Path,
                 tracer: Tracer | None) -> dict:
    """Set up, loop, check and probe; returns metrics, counts and failures."""
    workload = WORKLOADS[name]
    run = Run(seed, out_dir, tracer)
    if tracer is not None:
        install(tracer)
        tracer.enabled = True

    setup_seconds, setup_ops = [], set()
    for _ in range(SETUPS):
        setup_ops.add(run.begin_op())
        start = time.perf_counter()
        main, probe = _setup(run, workload)
        setup_seconds.append(time.perf_counter() - start)

    cycle = run.ops_for(workload.main, main, "main")
    # Untraced runs also take probe rounds, spread over the loop so that
    # probe samples meet the same slow and fast spells of a shared machine.
    # Probe calls count towards the run's seconds like the cycle's own, so
    # a run's length does not depend on its workload's mix.
    probe_ops = {} if tracer is not None else {
        kind: run.ops_for(kind, probe, "probe")
        for kind in ("detect", "eval", "io") if kind != workload.main
    }
    probe_rounds = [
        [op for kind, ops in probe_ops.items()
         if kind != "eval" or r % PROBE_EVAL_EVERY == 0 for op in ops]
        for r in range(PROBE_ROUNDS if probe_ops else 0)
    ]
    rounds = 0
    cycle_of_op: dict[int, int] = {}
    cycle_seconds: dict[bool, list[float]] = {True: [], False: []}
    measured = 0.0
    done = False
    index = -1
    while not done:
        index += 1
        # Traced runs: an uncounted warm-up cycle, then untraced, traced,
        # traced, untraced, ... so that drift falls on both sides alike.
        warm_up = tracer is not None and index == 0
        traced = tracer is not None and index % 4 in (2, 3)
        if tracer is not None:
            tracer.enabled = traced
        spent = 0.0
        for op in cycle:
            while rounds < len(probe_rounds) and measured >= rounds * seconds / PROBE_ROUNDS:
                for probe_op in probe_rounds[rounds]:
                    measured += run.execute(probe_op)
                rounds += 1
            seconds_op = run.execute(op)
            spent += seconds_op
            measured += seconds_op
            if traced:
                cycle_of_op[run.next_op - 1] = index
            # Untraced runs may stop inside a cycle once one cycle is whole.
            if tracer is None and index > 0 and measured >= seconds:
                done = True
                break
        if not warm_up:
            cycle_seconds[traced].append(spent)
        if measured >= seconds and (tracer is None or all(cycle_seconds.values())):
            done = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for probe_round in probe_rounds[rounds:]:
        for probe_op in probe_round:
            run.execute(probe_op)

    if tracer is not None:
        tracer.enabled = False
        tracer.restore()
        metrics = layer_metrics(tracer.spans, cycle_of_op, setup_ops)
        metrics["trace.overhead_frac"] = min(cycle_seconds[True]) / min(cycle_seconds[False]) - 1.0
        # Beside detector.n_selected: how many of the detect check's decisions
        # were ties that either answer satisfies.
        metrics["detector.oracle_ties"] = run.found["main"].get("oracle_ties", 0)
    else:
        # Other tenants of a shared machine can slow this process by half,
        # in CPU time as in wall time, for spells from seconds to minutes.
        # Whether a run's median or quartile falls in such a spell is chance;
        # its fastest call reads the unhindered speed unless the whole run
        # is slowed.
        # A metric none of whose calls succeeded reads 0; such a run has
        # failures, so it is never reported correct.
        metrics = {metric: 0.0 for metric in TIMED_METRICS}
        metrics.update({metric: min(values) for metric, values in run.samples.items()})
        run.samples["setup_s"] = setup_seconds
        metrics["setup_s"] = median(setup_seconds)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["repeatability"] = next(
            (f["repeatability"] for f in run.found.values() if "repeatability" in f), 0.0)
        metrics["success_rate"] = 1.0 - len(run.failures) / run.attempted

    return {
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "found": run.found,
        "samples": run.samples,
        "cycles": index + 1,
    }
