"""Benchmark entry: measure one workload (or all four) and print the result.

    python3 perfbench/run.py --workload chain --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  Each measurement runs in fresh worker
processes (``worker.py``) with the BLAS thread count pinned to 1 and the
allocator's mmap threshold fixed (``PINNED_ENV``).  With
``--trace 0`` the set-up is timed in three fresh processes (two that stop
after set-up, plus the measuring worker) and the median is reported with the
end-to-end metrics; with ``--trace 1`` the per-layer metrics are reported.
The metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every measurement ran, whether or not its checks passed; a run that
could not be made (no ``src/hugint``, a crash, a time-out) exits 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow-reference", "exploration", "chain", "highdim")
SETUP_ONLY_PROCESSES = 2
#: Wall-clock budget of one measurement, below the 180 s a run may take.
TIME_LIMIT_S = 170.0
#: One BLAS thread, and glibc's mmap threshold fixed at its default of
#: 128 KiB.  Left dynamic, the threshold rises after the first large free, so
#: n x n arrays may come from the heap instead, and `highdim`'s peak RSS then
#: read one such array (8 MB) higher in about a third of the runs.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


class RunError(Exception):
    """A measurement could not be made."""


def spawn(workload: str, seed: int, extra: list[str], deadline: float) -> dict:
    """Start one worker and return the JSON object it prints last."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(
            cmd, env={**os.environ, **PINNED_ENV}, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} worker timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_ONLY_PROCESSES):
            setups.append(spawn(workload, seed, ["--setup-only"], deadline)["setup_s"])
    report = spawn(
        workload, seed, ["--seconds", str(seconds), "--trace", str(trace)], deadline
    )
    report["setup_s"] = statistics.median(setups + [report["setup_s"]])
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, seconds, args.trace)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, report in results.items():
        values = report.get("layers", {}) if args.trace else report
        prefix = f"{name}." if len(results) > 1 else ""
        for metric in wanted:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"]
            }
            print(f"{name:15s} {metric['name']:45s} {values[metric['name']]:.6g} {metric['unit']}")
        print(f"{name:15s} {'failed_frac':45s} {report['failed'] / report['attempted']:.6g} "
              f"({report['failed']} of {report['attempted']} operations)")
        print(f"{name:15s} {'run_s (information)':45s} {report['run_s']:.6g} s")
        print(json.dumps({"workload": name, "passes": report["passes"], "ops": report["ops"],
                          "info": report["info"]}))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
