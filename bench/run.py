"""Benchmark entry point.

    python3 bench/run.py --workload crosswalk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root; the program is imported from ``src/``.  One
workload prints a table of its metrics with units and sample counts, then,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs each
workload in its own process, one after another.  The exit code is 0 when
every check passed, 1 when a check failed and 2 when the program cannot be
found.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("crosswalk", "news", "query")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="scenamine benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(result: dict) -> None:
    mode = "per-layer (traced)" if result["traced"] else "end-to-end"
    print(f"# {result['workload']}: {mode} metrics, seed {result['env']['seed']}")
    samples = result["samples"]
    sample_of = {"query_p50_ms": "query_s", "query_p99_ms": "query_s", "query_per_s": "query_s"}
    for name, metric in result["metrics"].items():
        n = samples.get(sample_of.get(name, name))
        count = f"n={n}" if n else ""
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} {count}")
    if result["unscaled"]:
        print("# unscaled " + json.dumps(result["unscaled"]))
    print(f"# attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {result['failed'] / max(result['attempted'], 1):.4g}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print("# counts " + json.dumps(result["counts"], sort_keys=True))
    for failure in result["failures"]:
        print(f"# CHECK FAILED: {failure}")


def run_one(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "scenamine" / "__init__.py").is_file():
        print(f"bench: the program's sources are missing: {src / 'scenamine'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import harness

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result["env"] = harness.environment(ROOT, args.seed)
    _print_table(result)
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a child process, so peak memory stays per workload."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, check=False)
        status = max(status, child.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
