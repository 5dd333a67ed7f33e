"""Run one cedkit benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload detect-room99k --seed 3 --seconds 20 --trace 0

The workload's inputs are generated from --seed; the timed loop runs until
its calls add up to --seconds (default: BENCHMARK.json's run_seconds). With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it carries the per-layer metrics, from a run that records a
span around each call into cedkit's modules. Earlier lines give every
metric with its unit, the environment and any failures. Spans and the full
result go to .perfbench_out/ under the repository root.
"""

import os
import sys

# Pin BLAS and OpenMP pools to one thread before numpy is imported: the
# detector is single-threaded, and spare pool threads would only add noise.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 3  # the acceptance ROOM_SPEC seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(repeats: int = 5) -> float:
    """Median seconds for a fresh interpreter to import cedkit's CLI and its dependencies."""
    code = "import time; t = time.perf_counter(); import cedkit.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return median(
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(repeats)
    )


def git_commit(root: Path) -> str:
    """HEAD's commit, or 'unknown' when root is not the top of a git repository."""
    # The ceiling keeps git from reporting a repository that merely encloses root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "thread_pools": os.environ["OMP_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import cedkit
        import oracles
    except ImportError as exc:
        print(f"perfbench: cannot import cedkit and its oracles from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    # Measure this checkout's source, never an installed copy.
    for module, home in ((cedkit, ROOT / "src"), (oracles, ROOT / "tests")):
        if not Path(module.__file__).resolve().is_relative_to(home.resolve()):
            print(f"perfbench: {module.__name__} comes from {module.__file__}, not {home}",
                  file=sys.stderr)
            return 2
    import tracer
    import workloads

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = tracer.Tracer() if args.trace else None
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    result = workloads.run_workload(args.workload, args.seed, args.seconds, out_dir, spans)
    if not args.trace:
        result["import_s"] = import_seconds()
        result["metrics"]["setup_s"] += result["import_s"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(result["metrics"][m["name"]]), "unit": m["unit"]}
               for m in wanted}
    env = environment(args)
    (out_dir / "result.json").write_text(json.dumps(
        {"environment": env, **result, "metrics": metrics}, indent=1) + "\n")
    if spans is not None:
        (out_dir / "spans.json").write_text(json.dumps(spans.to_json()) + "\n")

    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# environment {json.dumps(env)}")
    print(f"# {result['attempted']} operations in {result['cycles']} cycles, "
          f"{result['failed']} failed (error_rate {result['failed'] / result['attempted']:.4g})")
    print(f"# outputs {json.dumps(result['found'])}")
    for name, metric in metrics.items():
        note = (f"  (computed: {tracer.GRAPH_BYTES_PER_PAIR} B x pairs)"
                if name == "index.graph_bytes" else "")
        print(f"{name:28s} {metric['value']:.10g} {metric['unit']}{note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
