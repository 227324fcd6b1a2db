"""One benchmark process: set up a workload, run its passes, check them.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
pinned.  ``--t0`` is the starter's ``time.monotonic()`` just before the spawn
(the clock is system-wide on Linux), so set-up time covers interpreter
start-up, the imports and the input build.  ``--setup-only`` stops there.

Otherwise the worker runs passes of fixed work until ``--seconds`` would be
exceeded (at least the workload's ``min_passes``) and prints one JSON line.
Each operation of a pass is timed on its own, between two runs of the
workload's reference loop (``reference.py``).  ``run_ref`` is the sum over
the operations of each one's median ratio of its time to the reference
loops around it, so it stays put when the host slows both alike; ``run_s``,
the sum of each operation's fastest time, is reported as information.  With
``--trace 1`` the passes alternate between plain and traced, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class Stopwatch:
    """Times each operation of a pass, with the reference loop on either side.

    Every repetition is kept by label, as the wall time and as the ratio of
    the wall time to the mean of the two reference loops around it.
    """

    def __init__(self, reference):
        self.reference = reference
        self.times: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}

    def _reference_s(self) -> float:
        began = time.perf_counter()
        self.reference()
        return time.perf_counter() - began

    def __call__(self, label: str, fn, *args):
        before = self._reference_s()
        began = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - began
            after = self._reference_s()
            self.times.setdefault(label, []).append(elapsed)
            self.ratios.setdefault(label, []).append(2.0 * elapsed / (before + after))

    def pass_ref(self) -> float:
        """One pass in reference loops: the sum of each operation's median ratio."""
        return sum(statistics.median(ratios) for ratios in self.ratios.values())

    def fastest_pass_s(self) -> float:
        """One pass in seconds, each operation taken at its fastest repetition."""
        return sum(min(times) for times in self.times.values())

    def summary(self) -> dict[str, dict]:
        return {
            label: {
                "reps": len(times),
                "median_ref": statistics.median(self.ratios[label]),
                "fastest_s": min(times),
                "slowest_s": max(times),
            }
            for label, times in self.times.items()
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import_start = time.perf_counter()
    import hugint  # imported first and alone, so import_s is the package's import time

    import_s = time.perf_counter() - import_start
    if not Path(hugint.__file__).resolve().is_relative_to(src.resolve()):
        print(f"hugint imported from {hugint.__file__}, not from {src}", file=sys.stderr)
        return 1
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    plain, traced_watch = Stopwatch(workload.reference), Stopwatch(workload.reference)
    pass_s: list[float] = []
    traced_passes = 0
    results = []
    try:
        start = time.monotonic()
        k = 0
        while True:
            traced = tracer is not None and k % 2 == 1
            out = scratch / f"pass{k}"
            if traced:
                tracer.install()
            began = time.perf_counter()
            try:
                raw = workload.run(k, out, traced_watch if traced else plain)
            finally:
                pass_s.append(time.perf_counter() - began)
                if traced:
                    tracer.uninstall()
                    traced_passes += 1
            results.append(workload.check(k, out, raw))
            shutil.rmtree(out, ignore_errors=True)
            k += 1
            if k >= workload.min_passes and time.monotonic() - start + max(pass_s) > args.seconds:
                break
        run_failures = workload.finish(results, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in results)
    failed = min(attempted, sum(r.failed for r in results) + len(run_failures))
    failures = [msg for r in results for msg in r.failures] + run_failures
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    report = {
        "setup_s": setup_s,
        "run_ref": plain.pass_ref(),
        "run_s": plain.fastest_pass_s(),
        "passes": len(pass_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "info": workloads.provenance(ROOT),
        "ops": plain.summary(),
    }
    if tracer is not None:
        layers = tracer.metrics(traced_passes)
        layers["setup.import_s"] = import_s
        layers["trace.pass_s"] = traced_watch.fastest_pass_s()
        layers["trace.overhead_frac"] = traced_watch.pass_ref() / report["run_ref"] - 1.0
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
