"""The repository benchmark: one workload per call, untraced or traced.

Run from the repository root::

    python3 perfbench/run.py --workload line_to_alpha --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with in-memory
spans, each for half of ``--seconds``, and reports the per-layer
metrics, each layer's self time and the tracing overhead.  Every run
checks the outputs.  The last line of
standard output is the result object; the line before it is the run's
record (per-metric median and quartiles over the run's samples, core
count, Python and numpy versions, git revision); the copy written under
``perfbench/out/records/`` also holds the raw samples.  ``--size tiny``
shrinks every input for the smoke test.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for entry in packed.read_text().splitlines():
            if entry.endswith(" " + name):
                return entry.split()[0]
    return "unknown"


def summary(samples):
    ordered = sorted(samples)
    if len(ordered) < 2:
        return {"median": ordered[0], "q1": ordered[0], "q3": ordered[0], "n": len(ordered)}
    q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered)}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_values(outcome, tracer, untraced_s: float) -> dict:
    """Per-layer metrics of a traced pass: span totals plus workload counters."""

    def median_ms(name):
        spans = tracer.named(name)
        return statistics.median(s.duration for s in spans) * 1000.0 if spans else 0.0

    values = {
        f"{name}_s": tracer.total(name)
        for name in (
            "lattice.start_build", "lattice.is_connected", "lattice.holes",
            "lattice.edge_count", "core.construct", "core.run", "rng.refill",
            "io.trace_append", "io.trace_flush", "runtime.checkpoint_store",
            "service.start",
        )
    }
    values["rng.refill_calls"] = tracer.count("rng.refill")
    for name in ("service.submit", "service.wait", "service.fetch"):
        values[f"{name}_ms"] = median_ms(name)
    for layer, seconds in tracer.self_times().items():
        values[f"{layer}.self_s"] = seconds
    values["trace_overhead_ratio"] = outcome.values["time_to_result_s"] / untraced_s - 1.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "benchmarks" / "_starts.py"
    ).is_file():
        fail(f"{ROOT} holds no repro sources (src/repro, benchmarks/_starts.py); "
             f"run from the repository root")
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy
    import workloads
    from tracing import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    def run_pass(name, tracer, setups, seconds=args.seconds, tiny=args.size == "tiny"):
        ctx = workloads.Context(
            seed=args.seed, seconds=seconds, tiny=tiny,
            tracer=tracer, work=work / name, setups=setups,
        )
        return workload(ctx)

    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        if args.trace == 0:
            outcome = run_pass("untraced", NullTracer(), setups=workloads.SETUPS[args.workload])
            attempted, failed = outcome.attempted, outcome.failed
            outcome.put("peak_rss_mb", peak_rss_mb())
            wanted = spec["end_to_end"]
            values, samples = outcome.values, outcome.samples
        else:
            # A tiny pass first, so neither timed pass pays first-call costs;
            # the two timed passes share --seconds.
            run_pass("warmup", NullTracer(), setups=1, tiny=True)
            baseline = run_pass("untraced", NullTracer(), setups=1, seconds=args.seconds / 2)
            tracer = Tracer()
            workloads.install_wrappers(tracer)
            try:
                outcome = run_pass("traced", tracer, setups=1, seconds=args.seconds / 2)
            finally:
                tracer.restore()
            attempted = baseline.attempted + outcome.attempted
            failed = baseline.failed + outcome.failed
            wanted = spec["per_layer"]
            values = dict(outcome.values)
            samples = dict(outcome.samples)
            if "time_to_result_s" in baseline.values and "time_to_result_s" in values:
                values.update(layer_values(outcome, tracer, baseline.values["time_to_result_s"]))
                values["failed_fraction"] = failed / attempted
            tracer.dump(OUT / "spans" / f"{args.workload}-seed{args.seed}.json")
            outcome.problems.update(baseline.problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, record_metrics, problems = {}, {}, dict(outcome.problems)
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            # Layers a workload does not reach report zero work; an
            # end-to-end metric is missing only when the run failed.
            if args.trace == 1 and not problems:
                values[name] = 0
            else:
                problems.setdefault("metrics", []).append(f"{name} not measured")
                continue
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        record_metrics[name] = dict(
            metrics[name], samples=samples.get(name, [values[name]]),
            **summary(samples.get(name, [values[name]])),
        )
    correct = not problems
    if problems and not failed:
        failed = 1  # a metric the run could not measure fails the run
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "started_utc": started_utc,
        "nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "git_revision": git_revision(),
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": record_metrics,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1))
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>18.6g} {metric['unit']}")
    for operation, messages in problems.items():
        print(f"FAILED {operation}: {'; '.join(messages)}")
    # Standard output gets the record without the raw samples, which can
    # run to tens of thousands of run blocks; the file keeps them.
    compact = dict(record, metrics={
        name: {k: v for k, v in metric.items() if k != "samples"}
        for name, metric in record_metrics.items()
    })
    print("record " + json.dumps(compact))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
