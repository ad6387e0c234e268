"""Benchmark entry point.

    python3 perfbench/run.py --workload clustered --seed 1 --seconds 10 --trace 0

Run from the repository root. It imports the library from ./src, runs one
workload, prints the environment and every metric with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. A run that passes its wall-clock limit exits with code 3
and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the benchmark is one client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import signal
import sys
from pathlib import Path

ROOT = Path.cwd()
WORKDIR = ROOT / ".perfbench_work"
LIMIT_S = 170  # a run that hangs counts as failed instead of blocking


class WorkloadTimeout(BaseException):
    """Raised by the alarm; a BaseException so per-query handlers let it through."""


def _import_library():
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent.parent)]
    try:
        import gridneighbors
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gridneighbors from {ROOT / 'src'}: {exc}")
    if not Path(gridneighbors.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        sys.exit(f"perfbench: gridneighbors imported from {gridneighbors.__file__}, not ./src")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(workload: str, seed: int, splits) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "splits": splits,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from perfbench.harness import run_workload

    def alarm(signum, frame):
        raise WorkloadTimeout

    signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORKDIR)
    except WorkloadTimeout:
        print(f"perfbench: {args.workload} passed its {LIMIT_S} s limit", file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    print("env " + json.dumps(environment(args.workload, args.seed, out.splits)))
    print(f"queries asked: {out.samples}; p50/p99 rank {out.ranked} pool queries")
    print(f"failed {out.failed} of {out.attempted} attempted")
    print(f"failed_frac {out.failed / out.attempted:.6g}")
    for why in out.problems:
        print(f"failure: {why}")
    for name, (calls, busy) in out.spans.items():
        print(f"span {name:30s} {calls:8d} calls {busy:12.6f} s")
    for name, (value, unit) in out.metrics.items():
        print(f"{name:32s} {value:16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in out.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
