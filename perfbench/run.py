"""vopol benchmark: seeded workloads through the public loaders and engine.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

BENCHMARK.json gates policy-storm, rewire and bulk-validate; chain, the
200-task baseline probe, runs here and in ``all`` without a gate: 3% of
its events hit a full collection and its p95 falls in the gap between
those and the rest, so it moves by a fifth between runs.

``--trace 0`` measures the end-to-end metrics with tracing off, in
reference seconds (see bench.py), and prints the wall-clock figures too;
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics (see layers.py). Every run first checks the pinned
golden trace, then checks each repeat's outputs. The report lines name
every metric with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import gen

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "event_p50_ms": "ms",
    "event_p95_ms": "ms",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

RATIOS = ("per_event", "per_applied", "fire_ratio", "tracing_overhead")


def layer_unit(name: str) -> str:
    if name.endswith("tokens_per_s"):
        return "1/s"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith(RATIOS):
        return "ratio"
    return "count"


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload, args, result, stamp: str, units) -> dict:
    """Print the stamp, notes and every metric with its unit; return the
    metrics for the JSON line."""
    name = workload.name
    sizes = ",".join(f"{k}={v}" for k, v in workload.sizes.items())
    print(f"# workload={name} seed={args.seed} trace={args.trace} sizes={sizes} {stamp}")
    for key, value in result.notes.items():
        print(f"#   {key} = {value}")
    metrics = {}
    for key, value in result.metrics.items():
        unit = units(key)
        if value is None:
            print(f"{name} {key} absent {unit}")
            continue
        print(f"{name} {key} {value:.6g} {unit}")
        metrics[key] = {"value": value, "unit": unit}
    for problem in result.problems:
        print(f"FAILED CHECK [{name}]: {problem}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller workloads for the smoke check; the benchmark runs at 1.0
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "vopol" / "__init__.py").is_file():
        print(f"no vopol sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import bench  # needs the checkout's vopol on the path

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    stamp = f"python={platform.python_version()} git={git_sha(root)} nproc={cpus}"
    measure = bench.measure_layers if args.trace else bench.measure
    units = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    workload = gen.GENERATORS[args.workload](args.seed, args.scale)
    result = measure(workload, args.seconds, root)
    metrics = report(workload, args, result, stamp, units)
    print(json.dumps({"correct": not result.problems, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process so peak memory is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in gen.GENERATORS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)],
            capture_output=True, text=True,
        )
        *lines, last = proc.stdout.splitlines() or [""]
        print("\n".join(lines))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        result = json.loads(last)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
