"""The benchmark's four workloads.

Each workload builds its inputs from the seed once (set-up), then runs one
*pass* of fixed work per call of :meth:`Workload.run`.  A pass is a short
list of operations of tens of milliseconds each, and each is timed on its
own through the ``timed(label, fn, *args)`` callback the worker passes in,
between two runs of the workload's reference loop.
Three workloads drive the public CLI entry ``hugint.cli.main(argv)``
in-process; ``highdim`` calls the library's ``hug_trajectory``.  Every caller
is a single closed loop in one process, with the default ``workers=1``.

:meth:`Workload.check` holds a pass's outputs to the acceptance tolerances of
``tests/test_acceptance.py``, unchanged, and counts failed operations; a
failed check counts as one failed operation.  :meth:`Workload.finish` runs
the checks that need every pass of a run: the statistical checks, pooled over
the passes, and byte-identical outputs when pass 0 runs again.

Package functions are looked up at call time (``cli.main``,
``hugint.hug_trajectory``), so a traced run sees the wrapped bindings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hugint
import reference as reference_loops
from hugint import cli


@dataclass
class PassResult:
    """Checked outcome of one pass."""

    attempted: int
    failed: int
    digests: dict[str, str]
    failures: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + operations)
        self.failures.append(message)


def run_cli(argv: list[str]) -> int:
    """Call the CLI entry in-process, discarding the summary it prints."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # An escaped exception fails the operation, not the whole run.
            traceback.print_exc()
            return -1


def untimed(label: str, fn, *args):
    return fn(*args)


def summary(out: Path, experiment: str) -> dict:
    with open(out / f"{experiment}.manifest.json") as fh:
        return json.load(fh)["summary"]


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 of every CSV a pass wrote, by path below ``out``."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }


def derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


class Workload:
    name = ""
    #: Passes a run makes at least, whatever ``--seconds`` says; two give a
    #: traced run one plain and one traced pass.
    min_passes = 2
    #: Reference loop timed around every operation; see ``reference.py``.
    reference = staticmethod(reference_loops.small)

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, k: int, out: Path, timed):
        """Run pass ``k``, timing each operation as ``timed(label, fn, *args)``."""
        raise NotImplementedError

    def check(self, k: int, out: Path, raw) -> PassResult:
        raise NotImplementedError

    def pooled_failures(self, results: list[PassResult], scratch: Path) -> list[str]:
        """Checks over all passes of a run; may append untimed passes."""
        return []

    def finish(self, results: list[PassResult], scratch: Path) -> list[str]:
        """Run-level checks: the pooled ones, then pass 0 again, byte for byte."""
        failures = self.pooled_failures(results, scratch)
        out = scratch / "repeat"
        again = self.check(0, out, self.run(0, out, untimed))
        if again.failed or again.digests != results[0].digests:
            failures.append("pass 0 run again gives different outputs")
        return failures


class FlowReference(Workload):
    """Reference-solve experiments; the seed is unused.

    A pass runs ``table1`` at desk defaults and ``convergence`` and
    ``phase-portrait`` over horizons of 0.01 and 0.05 instead of 1.0 and 6.0,
    which keeps each operation at or under 0.2 s; criterion 02's fitted
    orders are the same at these horizons.  ``foldback`` takes about 1.5 s at
    desk defaults, where criterion 08 holds, so it runs once per run for that
    check, untimed.
    """

    name = "flow-reference"
    experiments = {
        "table1": [],
        "convergence": ["--t-end", "0.01"],
        "phase-portrait": ["--t-end", "0.05"],
    }

    def run(self, k, out, timed):
        return [
            timed(name, run_cli, [name, "--out", str(out), "--seed", str(self.seed), *extra])
            for name, extra in self.experiments.items()
        ]

    def check(self, k, out, codes):
        result = PassResult(attempted=len(self.experiments), failed=0, digests=csv_digests(out))
        for name, code in zip(self.experiments, codes):
            if code != 0:
                result.fail(f"{name} exited {code}")
        if codes[1] == 0:
            orders = summary(out, "convergence")
            # criterion 02
            if not (
                1.8 <= orders["one_step_order"] <= 2.2
                and 2.6 <= orders["two_step_order"] <= 3.4
                and 1.8 <= orders["global_order"] <= 2.2
            ):
                result.fail(f"convergence orders out of range: {orders}")
        return result

    def pooled_failures(self, results, scratch):
        out = scratch / "foldback"
        code = run_cli(["foldback", "--out", str(out), "--seed", str(self.seed)])
        if code != 0:
            return [f"foldback exited {code}"]
        fold = summary(out, "foldback")
        # criterion 08
        if fold["classification"] != "libration" or fold["tangential_sign_changes"] != 2:
            return [
                f"foldback is {fold['classification']} with "
                f"{fold['tangential_sign_changes']} tangential sign changes"
            ]
        return []


class Exploration(Workload):
    """Criterion 09's studies: the 3-D ellipsoid scatter and the 3-D/6-D ECDF.

    Each pass runs both studies with 10 replicates and its own seed, derived
    from the run's seed and the pass.  The rank correlation and the showcase
    are checked per pass.  The ECDF gap is checked on the mean over the
    passes against twice its pooled standard error: criterion 09's single
    call with 500 replicates puts the gap near 8 standard errors, and a run
    pools several thousand.
    """

    name = "exploration"
    steps = 100
    replicates = 10

    def run(self, k, out, timed):
        common = ["--out", str(out), "--seed", str(derived_seed(self.seed, k)),
                  "--steps", str(self.steps), "--replicates", str(self.replicates)]
        return (
            timed("ellipsoid", run_cli, ["ellipsoid", "--dim", "3", *common]),
            timed("ecdf", run_cli, ["ecdf", *common]),
        )

    def check(self, k, out, codes):
        result = PassResult(attempted=3 * self.replicates, failed=0, digests=csv_digests(out))
        ellipsoid_code, ecdf_code = codes
        if ellipsoid_code != 0:
            result.fail(f"ellipsoid exited {ellipsoid_code}", self.replicates)
        else:
            ell = summary(out, "ellipsoid")
            if ell["failed_replicates"]:
                result.fail("ellipsoid replicates failed", ell["failed_replicates"])
            if not ell["spearman_rank_correlation"] <= -0.5:
                result.fail(f"rank correlation {ell['spearman_rank_correlation']}")
            showcase = ell["showcase_d_max"]
            if not all(a > b for a, b in zip(showcase, showcase[1:])):
                result.fail(f"showcase excursions not strictly decreasing: {showcase}")
        if ecdf_code != 0:
            result.fail(f"ecdf exited {ecdf_code}", 2 * self.replicates)
        else:
            dims = summary(out, "ecdf")["dims"]
            for dim in ("3", "6"):
                if dims[dim]["failed_replicates"]:
                    result.fail(f"ecdf n={dim} replicates failed", dims[dim]["failed_replicates"])
            result.data = {
                "gap": dims["6"]["mean_fraction"] - dims["3"]["mean_fraction"],
                "variance": dims["3"]["stderr"] ** 2 + dims["6"]["stderr"] ** 2,
            }
        return result

    def pooled_failures(self, results, scratch):
        passes = [r.data for r in results if r.data]
        if not passes:
            return ["no ECDF study completed"]
        gap = np.mean([d["gap"] for d in passes])
        noise = np.sqrt(sum(d["variance"] for d in passes)) / len(passes)
        if not gap > 2.0 * noise:
            return [f"mean ECDF gap {gap} within 2 sigma ({noise}) over {len(passes)} passes"]
        return []


class Chain(Workload):
    """Sampling chains on the 2-D Gaussian with interleaved random walks.

    Each pass runs one 1000-iteration chain with its own seed, derived from
    the run's seed and the pass, and the run holds the pooled chains to
    criterion 10's 5% second-moment tolerance.  One 20 000-iteration chain
    alone is not a sound test of that tolerance: the relative standard error
    of the x1 second moment is about 2.4% there (batch means over a
    10^5-iteration chain).  So the run pools at least ``min_samples``
    samples, running untimed passes after the measured ones when these fall
    short.  Over 100 chains of 1000 iterations (90 100 samples) the x1
    moment came out 0.5% low with a standard error of 1.3%, which puts 5% at
    3.8 standard errors.  Shorter chains are biased: 300 chains of 300
    iterations came out 5.3% low.
    """

    name = "chain"
    iterations = 1000
    min_samples = 90000
    tolerance = 0.05

    def run(self, k, out, timed):
        return timed("chain", run_cli, [
            "chain", "--out", str(out), "--seed", str(derived_seed(self.seed, k)),
            "--iterations", str(self.iterations),
        ])

    def check(self, k, out, code):
        result = PassResult(attempted=self.iterations, failed=0, digests=csv_digests(out))
        if code != 0:
            result.fail(f"chain exited {code}", self.iterations)
            return result
        chain = summary(out, "chain")
        if chain["singular_rejections"]:
            result.fail("singular rejections", chain["singular_rejections"])
        result.data = {
            "samples": chain["iterations"] + 1 - chain["burn_in"],
            "second_moments": chain["second_moments"],
            "target": chain["target_second_moments"],
        }
        return result

    def pooled_failures(self, results, scratch):
        k = len(results)
        while sum(r.data.get("samples", 0) for r in results) < self.min_samples:
            out = scratch / f"extra{k}"
            results.append(self.check(k, out, self.run(k, out, untimed)))
            k += 1
        pooled = [r.data for r in results if r.data]
        weights = np.array([d["samples"] for d in pooled], dtype=float)
        moments = np.array([d["second_moments"] for d in pooled])
        got = weights @ moments / weights.sum()
        want = np.asarray(pooled[0]["target"])
        rel = np.abs(got - want) / want
        if rel.max() > self.tolerance:
            return [f"pooled second moments {got} vs {want} ({rel.max():.2%} off)"]
        return []


class HighDim(Workload):
    """Forward and velocity-flipped trajectories at n = 1000, codim 1 and 2.

    20 steps each way keep each of the four operations under 0.2 s.
    """

    name = "highdim"
    reference = staticmethod(reference_loops.dense)
    dim = 1000
    delta = 0.05
    steps = 20

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.params = hugint.HugParams(self.delta, self.steps)
        self.cases = []
        for constraint in (
            hugint.SphereConstraint(self.dim),
            hugint.SphereSlicedConstraint(self.dim),
        ):
            x0, v0 = (g / np.linalg.norm(g) for g in rng.standard_normal((2, self.dim)))
            self.cases.append((constraint, x0, v0))

    def run(self, k, out, timed):
        runs = []
        for constraint, x0, v0 in self.cases:
            label = type(constraint).__name__
            try:
                forward = timed(f"{label}.forward", hugint.hug_trajectory,
                                constraint, hugint.PhaseState(x0, v0), self.params)
                back = timed(f"{label}.back", hugint.hug_trajectory, constraint,
                             hugint.PhaseState(forward.final.x, -forward.final.v), self.params)
            except Exception as exc:
                traceback.print_exc()
                runs.append(exc)
                continue
            runs.append((forward, back))
        return runs

    def check(self, k, out, runs):
        digest = hashlib.sha256()
        result = PassResult(attempted=2 * len(self.cases), failed=0, digests={})
        for (constraint, x0, v0), run in zip(self.cases, runs):
            label = type(constraint).__name__
            if isinstance(run, Exception):
                result.fail(f"{label}: {run}", 2)
                continue
            speed0 = np.linalg.norm(v0)
            for direction, t in zip(("forward", "back"), run):
                for array in (t.xs, t.vs):
                    digest.update(array.tobytes())
                errors = {
                    # criterion 03
                    "speed": (np.max(np.abs(t.speeds - speed0)), 1e-12),
                    "segment": (
                        np.max(np.abs(np.linalg.norm(t.midpoints - t.xs[:-1], axis=1)
                                      - 0.5 * self.delta * speed0)),
                        1e-12,
                    ),
                }
                if isinstance(constraint, hugint.SphereConstraint):
                    # criterion 04
                    errors["drift"] = (t.level_drift.max(), 1e-11)
                if direction == "back":
                    errors["reverse"] = (
                        max(np.linalg.norm(t.final.x - x0), np.linalg.norm(t.final.v + v0)),
                        1e-10,
                    )
                bad = {key: float(err) for key, (err, tol) in errors.items() if not err <= tol}
                if bad:
                    result.fail(f"{label} {direction}: {bad}")
        result.digests = {"trajectories": digest.hexdigest()}
        return result


WORKLOADS = {w.name: w for w in (FlowReference, Exploration, Chain, HighDim)}


def provenance(root: Path) -> dict:
    """Versions and machine facts recorded next to the results."""
    import platform
    import subprocess

    import scipy

    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in (root / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "commit": commit,
        "src_lines": src_lines,
    }
