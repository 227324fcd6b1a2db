"""Layer rows of the hug step, written as one JSON file.

    python bench/run.py --out BENCH_<n>.json
    python bench/run.py --before OTHER/src --before-label <commit> --out BENCH_<n>.json
    python bench/run.py --quick --out bench.json

Run from anywhere; it measures the package in this checkout's ``src/`` and,
with ``--before``, the ``src/`` of another checkout beside it.  Each of
``ROUNDS`` rounds measures every row in a fresh interpreter per run, BLAS
pinned to one thread: this checkout twice and the other checkout between
the two, the order reversed every other round.  A row records the median
over the rounds.  ``--quick`` is one round of short timings, to check that
the script runs.

Each row is the cost of one call or one step in µs, the best of ``timeit``
repeats, and its ratio to a reference loop of ``perfbench/reference.py``,
timed just before and just after the row: ``dense`` (about 10 ms of n = 1000
reflection work) for the n = 1000 rows and the R = 10,004 rows step,
``small`` (about 1 ms of small-array numpy calls) for the others.  The
ratio is what to compare across runs: on a shared host numpy code slows by
up to 2x for seconds at a time, and the reference slows with it.  Beside
the two sides each row records, per round, the after side's ratio over the before side's
(``after/before``) and the second after run's ratio over the first
(``A/A``), each as a median with its quartiles over the rounds: the A/A
spread is the noise of the row on code that is the same on both sides, and
a change in ``after/before`` is a finding only outside it.  Each row
resolves the functions it times inside its timer, so a row that the measured package cannot run (a
function it does not have, or has with another signature: ``AttributeError``,
``ImportError`` or ``TypeError``) records null and the other rows run on.  Beside each median
the row records the first and third quartiles over the rounds, so a run
whose rounds spread widely shows as one.  The rows:

- ``hug_steps_rows.step``: one step inside a ``hug_steps_rows`` stream on
  R = 14 rows of the 3-D ellipsoid preset, all from e1, the replicated
  studies' shape (10 replicates, 4 showcase): the stream's blocks of the
  whole run divided by its step count (null for a stream that takes no step
  count);
- ``hug_steps_rows.step.rows10004``: one step inside a ``hug_steps_rows``
  stream on R = 10,004 rows of that preset from e1, the paper-size
  ``ellipsoid`` study's shape (10,000 replicates, 4 showcase), where every
  step is a block of its own;
- ``scatter_study.step``: one step of ``experiments._scatter_study`` on the
  same rows with its d_max bookkeeping, as the difference of two step counts;
- ``value.quadric2``: one ``QuadricConstraint.value`` on the 2-D benchmark
  quadric at the benchmark start ``BENCH_X0``;
- ``jacobian.sliced3``: one ``SphereSlicedConstraint.jacobian`` at n = 3, at
  CI's codim-2 start;
- ``reference_solve.quadric2``: one ``dynamics.reference_solve`` on the 2-D
  benchmark quadric from (``BENCH_X0``, ``BENCH_V0``) at 11 times from 0 to
  0.01;
- ``hug_step``: one step as one call, ``next(hug_steps(...))``, on the 2-D
  benchmark quadric;
- ``hug_steps.step``: one step inside a ``hug_steps`` stream on that quadric;
- ``hug_steps.step.sliced3``: one step inside a ``hug_steps`` stream on the
  sliced sphere at n = 3, from CI's codim-2 start, a reflection through
  ``normal_qr``'s basis;
- ``normal_qr.sliced3`` and ``normal_qr.sliced1000``: one checked QR
  factorization of the sliced sphere's Jacobian, at CI's codim-2 start
  (n = 3) and at perfbench ``highdim``'s seed-0 start (n = 1000);
- ``hug_trajectory.sphere1000`` and ``hug_trajectory.sliced1000``: one
  20-step trajectory at delta = 0.05 on the sphere and the sliced sphere at
  n = 1000, from perfbench ``highdim``'s seed-0 start;
- ``phase_field.quadric2``: one evaluation of the flow field
  ``dynamics.phase_field`` on the 2-D benchmark quadric at the benchmark
  start (``BENCH_X0``, ``BENCH_V0``);
- ``phase_field.sliced3``: one evaluation of the flow field on the sliced
  sphere at n = 3, at CI's codim-2 start;
- ``reduced_field.portrait63``: one evaluation of the stacked reduced field
  ``ellipse.reduced_field`` on diag(1, 4) at the ``phase-portrait``
  experiment's start, its 63 orbits of speed sqrt(2);
- ``hug_kernel.move``: one ``sampling.hug_kernel`` move on the 2-D
  benchmark quadric at the chain experiment's desk settings (delta 0.1,
  K = 10 steps, an isotropic unit Gaussian velocity), from its start e1 with
  ell(e1) passed in, as ``run_chain`` calls it;
- ``run_chain.iteration``: one iteration of ``sampling.run_chain`` on that
  quadric at those settings with the random walk of scale 0.5 interleaved,
  a chain from e1 divided by its iteration count;
- ``cli.main.sphere_tail``: one in-process ``cli.main`` call of
  ``sphere-tail --h 0.3 --dim 3`` into a temporary directory, the CLI's
  fixed cost (parse, config, runner, CSV, manifest, summary).

The ``e2e`` group (each CLI experiment at desk defaults) is not measured yet
and reads null.  The provenance block names the OpenBLAS kernel that numpy's
bundled scipy-openblas runs on (``SkylakeX``, ``Haswell``, ...; it follows
``OPENBLAS_CORETYPE``), or null where numpy bundles no such library.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import timeit
from itertools import islice
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROUNDS = 7
#: CI's codim-2 start on the sliced sphere at n = 3 (the tier1 workflow's sliced config).
SLICED_X0, SLICED_V0 = (0.73907151, 0.54626892, 0.39413414), (0.2, -0.4, 0.5)


def _best_us(fn, number: int, repeat: int, per_call: int = 1) -> float:
    """Best of ``repeat`` timings of ``number`` calls, in µs per unit."""
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / (number * per_call) * 1e6


def measure(quick: bool) -> dict:
    """Every row of the ``hugint`` on ``sys.path``: {name: {"us", "ratio"} or None}."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from reference import dense, small

    from hugint import cli, dynamics, ellipse, experiments, integrator, projectors, sampling
    from hugint.constraints import QuadricConstraint, SphereConstraint, SphereSlicedConstraint
    from hugint.experiments import (
        BENCH_DIAG, BENCH_V0, BENCH_X0, ELLIPSOID_DIAGS, SHOWCASE_NORMAL_SPEEDS, ExperimentConfig,
    )

    repeat, scale = (2, 0.05) if quick else (7, 1.0)
    preset = QuadricConstraint(np.diag(ELLIPSOID_DIAGS[3]))
    e1 = np.eye(3)[0]
    quadric = QuadricConstraint(np.diag(BENCH_DIAG))
    x, v = np.array(BENCH_X0), np.array(BENCH_V0)
    start, solve_times = integrator.PhaseState(x, v), np.linspace(0.0, 0.01, 11)
    sliced3 = SphereSlicedConstraint(3)
    sliced_x, sliced_v = np.array(SLICED_X0), np.array(SLICED_V0)
    steps = max(10, int(2000 * scale))

    def stream(make):
        def run():
            for _ in islice(make(), steps):
                pass
        return run

    def study(k):
        config = ExperimentConfig(experiment="ellipsoid", delta=0.01, steps=k, replicates=10)
        return lambda: experiments._scatter_study(preset, e1, config, 0, SHOWCASE_NORMAL_SPEEDS)

    def scatter_step():
        short, long = study(steps // 10), study(steps // 10 + steps)
        return (_best_us(long, 1, repeat) - _best_us(short, 1, repeat)) / steps

    x1000, v1000 = (g / np.linalg.norm(g) for g in np.random.default_rng(0).standard_normal((2, 1000)))
    high = integrator.PhaseState(x1000, v1000)
    sliced1000 = SphereSlicedConstraint(1000)
    high_params = integrator.HugParams(0.05, 20)

    def trajectory(constraint):
        return lambda: _best_us(
            lambda: integrator.hug_trajectory(constraint, high, high_params),
            max(2, int(50 * scale)), repeat)

    def field(constraint, x, v):
        def timer():
            f, y = dynamics.phase_field(constraint), np.concatenate([x, v])
            return _best_us(lambda: f(0.0, y), 2 * steps, repeat)
        return timer

    def portrait_field():
        # run_phase_portrait's 63 starts, stacked as reduced_orbits stacks them
        speed = float(np.sqrt(2.0))
        phis, ps = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 7), np.linspace(-speed, speed, 9)
        f = ellipse.reduced_field(ellipse.EllipseModel(*BENCH_DIAG), speed)
        y = np.concatenate([np.tile(phis, ps.size), np.repeat(ps, phis.size)])
        return _best_us(lambda: f(0.0, y), 2 * steps, repeat)

    # the chain experiment at desk settings: its start e1, delta 0.1, K 10, walk 0.5
    chain_x, chain_params = np.eye(2)[0], integrator.HugParams(0.1, 10)
    velocity, iterations = sampling.IsotropicGaussian(dim=2), steps // 10

    def kernel_move():
        rng, ell = np.random.default_rng(0), sampling.log_density_of(quadric, chain_x)
        return _best_us(lambda: sampling.hug_kernel(
            quadric, chain_x, chain_params, velocity, rng, log_density=ell), iterations, repeat)

    def chain_iteration():
        rng = np.random.default_rng(0)
        return _best_us(lambda: sampling.run_chain(
            quadric, chain_x, chain_params, velocity, rng, iterations, walk_scale=0.5),
            1, repeat, iterations)

    def cli_main():
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            argv = ["sphere-tail", "--h", "0.3", "--dim", "3", "--out", out]
            return _best_us(lambda: cli.main(argv), max(2, int(200 * scale)), repeat)

    def rows_step(rows, steps):
        def timer():
            rng = np.random.default_rng(0)
            V = np.array([experiments.uniform_sphere(rng, 3) for _ in range(rows)])
            X = np.broadcast_to(e1, V.shape)

            def run():
                for _ in integrator.hug_steps_rows(preset, X, V, 0.01, steps):
                    pass
            return _best_us(run, 1, repeat, steps)
        return timer

    # every row: its reference loop and its timer, in the order the JSON is written
    table = {
        "hug_steps_rows.step": (small, rows_step(14, steps)),
        "hug_steps_rows.step.rows10004": (dense, rows_step(10_004, max(10, steps // 20))),
        "scatter_study.step": (small, scatter_step),
        "value.quadric2": (small, lambda: _best_us(lambda: quadric.value(x), 2 * steps, repeat)),
        "jacobian.sliced3": (small, lambda: _best_us(
            lambda: sliced3.jacobian(sliced_x), 2 * steps, repeat)),
        "reference_solve.quadric2": (small, lambda: _best_us(
            lambda: dynamics.reference_solve(quadric, start, solve_times),
            max(2, int(50 * scale)), repeat)),
        "hug_step": (small, lambda: _best_us(
            lambda: next(integrator.hug_steps(quadric, x, v, 0.1)), 2 * steps, repeat)),
        "hug_steps.step": (small, lambda: _best_us(
            stream(lambda: integrator.hug_steps(quadric, x, v, 0.1)), 1, repeat, steps)),
        "hug_steps.step.sliced3": (small, lambda: _best_us(stream(
            lambda: integrator.hug_steps(sliced3, sliced_x, sliced_v, 0.1)), 1, repeat, steps)),
        "normal_qr.sliced3": (small, lambda: _best_us(
            lambda: projectors.normal_qr(sliced3, sliced_x), 2 * steps, repeat)),
        "normal_qr.sliced1000": (dense, lambda: _best_us(
            lambda: projectors.normal_qr(sliced1000, x1000), max(2, int(200 * scale)), repeat)),
        "hug_trajectory.sphere1000": (dense, trajectory(SphereConstraint(1000))),
        "hug_trajectory.sliced1000": (dense, trajectory(sliced1000)),
        "phase_field.quadric2": (small, field(quadric, x, v)),
        "phase_field.sliced3": (small, field(sliced3, sliced_x, sliced_v)),
        "reduced_field.portrait63": (small, portrait_field),
        "hug_kernel.move": (small, kernel_move),
        "run_chain.iteration": (small, chain_iteration),
        "cli.main.sphere_tail": (small, cli_main),
    }
    numbers = {small: max(2, int(20 * scale)), dense: max(2, int(2 * scale))}
    result = {}
    for name, (reference, timer) in table.items():
        number = numbers[reference]
        before = _best_us(reference, number, repeat)
        try:
            us = timer()
        except (AttributeError, ImportError, TypeError):  # no such function, or another signature
            result[name] = None
            continue
        reference_us = 0.5 * (before + _best_us(reference, number, repeat))
        result[name] = {"us": us, "ratio": us / reference_us}
    return result


def openblas_kernel() -> str | None:
    """The kernel name that numpy's bundled scipy-openblas reports, or None
    where numpy bundles no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _spawn(src: str, quick: bool) -> dict:
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": src}
    argv = [sys.executable, __file__, "--measure", *(["--quick"] if quick else [])]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_quartiles(values: list[float]) -> tuple[float, list[float]]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), [float(q1), float(q3)]


def _summary_rows(rounds: list[dict]) -> dict:
    """Per row, the median over the rounds of its µs and ratio, each with
    its first and third quartiles beside it."""
    summary = {}
    for name in rounds[0]:
        if rounds[0][name] is None:
            summary[name] = None
            continue
        summary[name] = {}
        for key in ("us", "ratio"):
            median, quartiles = _median_quartiles([r[name][key] for r in rounds])
            summary[name][key], summary[name][key + "_quartiles"] = median, quartiles
    return summary


def _paired_rows(top: list[dict], bottom: list[dict]) -> dict:
    """Per row, the median and quartiles over the rounds of one run's ratio
    over another's in the same round, or None where either run reads null."""
    paired = {}
    for name in top[0]:
        if any(r[name] is None for r in (*top, *bottom)):
            paired[name] = None
            continue
        median, quartiles = _median_quartiles(
            [t[name]["ratio"] / b[name]["ratio"] for t, b in zip(top, bottom)])
        paired[name] = {"median": median, "quartiles": quartiles}
    return paired


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--before", help="src/ of another checkout to measure beside it")
    parser.add_argument("--before-label", default="before", help="what --before is, e.g. a commit")
    parser.add_argument("--quick", action="store_true", help="one round of short timings")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:  # a child: the hugint on PYTHONPATH
        print(json.dumps(measure(args.quick)))
        return 0
    if not args.out:
        parser.error("--out is required")
    # this checkout twice, as "after" and "again", with the other checkout between
    sources = {"after": str(ROOT / "src"), **({"before": args.before} if args.before else {}),
               "again": str(ROOT / "src")}
    rounds: dict[str, list[dict]] = {side: [] for side in sources}
    for i in range(1 if args.quick else ROUNDS):
        for side in (list(sources) if i % 2 else list(sources)[::-1]):
            rounds[side].append(_spawn(sources[side], args.quick))
    summaries = {side: _summary_rows(rounds[side]) for side in ("before", "after")
                 if side in rounds}
    paired = {"A/A": _paired_rows(rounds["again"], rounds["after"])}
    if args.before:
        paired["after/before"] = _paired_rows(rounds["after"], rounds["before"])
    payload = {
        "schema": "bench/3",
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
            "openblas_kernel": openblas_kernel(),
        },
        "method": "per row: median over rounds of the best-of-repeats µs per call or step, "
                  "and of its ratio to perfbench/reference.py's dense loop (n = 1000 and "
                  "R = 10,004 rows) or small loop (the others), each with its first and "
                  "third quartiles over the rounds (linear interpolation); after/before and "
                  "A/A: median and quartiles over the rounds of the after ratio over the "
                  "before ratio, and of the second after run's ratio over the first, in the "
                  "same round",
        "rounds": len(rounds["after"]),
        "quick": args.quick,
        "before_label": args.before_label if args.before else None,
        "layer": {name: {**{side: summaries[side][name] for side in summaries},
                         **{key: rows[name] for key, rows in paired.items()}}
                  for name in summaries["after"]},
        "e2e": None,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
