"""Benchmark of the TT filter.

    python3 perfbench/run.py --workload acceptance --seed 7 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``ttfilter`` from its
``src`` directory.  One process runs one workload with BLAS pinned to one
thread.  Setup builds the workload's inputs from the seed (several times;
the median counts).  The timed phase then repeats whole rounds of the same
tracks until another round would overrun ``--seconds``.  The program's
outputs are checked against the benchmark's own computations, and the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run times one untraced round, then the same round with every layer
function wrapped, and reports per-layer self times and exact counts for one
round, plus the tracing overhead.  See README.md in this directory.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# pin BLAS before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "avg_omat_m": "m",
    "peak_rss_mb": "MB",
}

# name -> unit for every per-layer metric, in report order
PER_LAYER_UNITS = {
    "tracker.step.calls": "count",
    "tracker.step.ms": "ms",
    "nll.propagate_prior.ms": "ms",
    "nll.combined_nll.calls": "count",
    "nll.measurement_nll.calls": "count",
    "nll.measurement_nll.ms": "ms",
    "nll.combined_value_batch.points": "count",
    "nll.combined_value_batch.ms": "ms",
    **{
        f"optimize.minimize.{caller}.{field}": unit
        for caller in ("main", "init", "recovery", "hessfix")
        for field, unit in (
            ("calls", "count"), ("ms", "ms"), ("iters", "count"), ("evals", "count"),
        )
    },
    "consistency.is_consistent.calls": "count",
    "consistency.is_consistent.rejects": "count",
    "consistency.one_by_one_recovery.calls": "count",
    "consistency.one_by_one_recovery.total_ms": "ms",
    "consistency.one_by_one_recovery.adopted": "count",
    "consistency.square_hopping_recovery.calls": "count",
    "consistency.square_hopping_recovery.total_ms": "ms",
    "consistency.square_hopping_recovery.attempts": "count",
    "consistency.square_hopping_recovery.passed": "count",
    "hessfix.repair_hessian.calls": "count",
    "hessfix.repair_hessian.total_ms": "ms",
    "hessfix.repair_hessian.repaired": "count",
    "quadrature.build_sigma_points.ms": "ms",
    "quadrature.polar_sigma_adjust.calls": "count",
    "quadrature.polar_sigma_adjust.applied": "count",
    "quadrature.polar_sigma_adjust.ms": "ms",
    "moments.spatial_moments.ms": "ms",
    "moments.velocity_moments.ms": "ms",
    "moments.assemble.ms": "ms",
    "model.simulate.ms": "ms",
    "metrics.omat.ms": "ms",
    "ratio.gate_rejects_per_call": "ratio",
    "ratio.one_by_one_adopted_per_call": "ratio",
    "ratio.hopping_passes_per_call": "ratio",
    "ratio.polar_applied_per_call": "ratio",
    "ratio.newton_evals_per_iter": "ratio",
    "trace.overhead_s": "s",
    "trace.top_level_share": "ratio",
}

# (metric, numerator, denominator) for the useful-to-attempted ratios
RATIOS = (
    ("ratio.gate_rejects_per_call",
     "consistency.is_consistent.rejects", "consistency.is_consistent.calls"),
    ("ratio.one_by_one_adopted_per_call",
     "consistency.one_by_one_recovery.adopted", "consistency.one_by_one_recovery.calls"),
    ("ratio.hopping_passes_per_call",
     "consistency.square_hopping_recovery.passed",
     "consistency.square_hopping_recovery.calls"),
    ("ratio.polar_applied_per_call",
     "quadrature.polar_sigma_adjust.applied", "quadrature.polar_sigma_adjust.calls"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_rounds(inputs, seconds: float, run_round):
    """Whole rounds until the next one would overrun ``seconds`` (at least one).

    Only the first round keeps its step outputs for the checks.
    """
    rounds, ends = [], []
    tic = time.perf_counter()
    while True:
        rounds.append(run_round(inputs, keep_outputs=not rounds))
        ends.append(time.perf_counter() - tic)
        if ends[-1] * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, ends


def layer_metrics(trace_round, setup_trace, round_s: float, ref_round_s: float) -> dict:
    counts = dict(trace_round.counts)
    times = trace_round.times_ms()
    values = {**counts, **times}
    values["model.simulate.ms"] = setup_trace.times_ms().get("model.simulate.ms", 0.0)
    for name, num, den in RATIOS:
        values[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    iters = sum(v for k, v in counts.items() if k.endswith(".iters"))
    evals = sum(v for k, v in counts.items() if k.endswith(".evals"))
    values["ratio.newton_evals_per_iter"] = evals / iters if iters else 0.0
    values["trace.overhead_s"] = round_s - ref_round_s
    values["trace.top_level_share"] = trace_round.top_level_s() / round_s
    return {
        name: {"value": float(values.get(name, 0)), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ttfilter" / "__init__.py").is_file():
        print(f"error: no ttfilter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START

    build_s = []
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        inputs = workloads.build_inputs(wl, args.seed)
        build_s.append(time.perf_counter() - tic)
    setup_s = import_s + statistics.median(build_s)

    RESULTS.mkdir(exist_ok=True)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "import_s": import_s, "build_s": build_s}
    if args.trace == 0:
        rounds, ends = timed_rounds(inputs, args.seconds, workloads.run_round)
        elapsed = ends[-1]
        detail["round_ends_s"] = ends
    else:
        tic = time.perf_counter()
        rounds = [workloads.run_round(inputs)]
        ref_round_s = time.perf_counter() - tic
        with tracing.Tracer() as setup_trace:
            workloads.build_inputs(wl, args.seed)
        with tracing.Tracer() as round_trace:
            tic = time.perf_counter()
            rounds.append(workloads.run_round(inputs, keep_outputs=False))
            elapsed = time.perf_counter() - tic
        metrics = layer_metrics(round_trace, setup_trace, elapsed, ref_round_s)
        round_trace.write(RESULTS / f"{wl.name}-seed{args.seed}-spans.csv.gz")

    first = rounds[0]
    data = checks.step_data(inputs.trajectories, first.outputs, first.omat)
    problems = checks.run_all(data, wl.sigma_s2)
    problems["rounds_identical"] = [
        f"round {i} OMAT differs from round 0"
        for i, r in enumerate(rounds[1:], start=1)
        if not np.array_equal(np.asarray(r.omat), np.asarray(first.omat), equal_nan=True)
    ]
    correct = not any(problems.values())
    for name, found in problems.items():
        for line in found[:5]:
            print(f"check {name}: {line}", file=sys.stderr)

    attempted = sum(r.steps for r in rounds)
    failed = sum(sum(r.failed) for r in rounds)
    if args.trace == 0:
        samples = [s for r in rounds for s in r.step_s]
        values = {
            "setup_s": setup_s,
            "steps_per_s": attempted / elapsed,
            "step_ms_p50": float(1e3 * np.percentile(samples, 50)),
            "step_ms_p99": float(1e3 * np.percentile(samples, 99)),
            "avg_omat_m": float(np.nanmean(first.omat)),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail["latency_samples"] = len(samples)
    detail.update(rounds=len(rounds), timed_s=elapsed,
                  checks={k: len(v) for k, v in problems.items()})
    detail["repaired_steps"] = int(data.repaired.sum())
    detail["errors"] = first.errors[:20]
    for line in first.errors[:5]:
        print(f"failed: {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
