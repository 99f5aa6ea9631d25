"""Benchmark of the equilines certifier.

    python3 certbench/run.py --workload certify_all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its src/.
One client runs iterations of the workload back to back (a closed loop),
at least one, and starts another only while it would still end within
--seconds. With --trace 0 it prints the end-to-end metrics; with --trace 1
it alternates untraced and traced iterations and prints the per-layer
metrics. Every metric is printed with its unit, the last line is one JSON
object, and the run's samples, inputs and spans go to .certbench/ in the
checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import PER_LAYER, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS, run_iteration, setup_seconds

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
# set-ups per run; iterations that did not happen are made up by set-ups alone
SETUP_SAMPLES = 15


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024     # ru_maxrss is KiB on Linux


def machine_facts():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "system": platform.system()}


def closed_loop(seconds, iterate):
    """Call iterate(index) back to back, at least once, and start another
    call only while the slowest one so far would still end within seconds,
    so that a run ends within its measuring time."""
    results, longest = [], 0.0
    start = time.perf_counter()
    while not results or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        results.append(iterate(len(results)))
        longest = max(longest, time.perf_counter() - t0)
    return results


def fastest_half(values):
    """Mean of the faster half of values, or the fastest of fewer than four.

    Other tenants of a shared host slow the program in blocks of tens of
    seconds, and contention only ever adds time. A block rarely covers the
    faster half of a run's iterations, so their mean moves less from
    run to run than the median does.
    """
    values = sorted(values)
    return statistics.fmean(values[:max(1, len(values) // 2)])


def measure(workload, src, seed, seconds):
    samples = closed_loop(seconds, lambda i: run_iteration(workload, src, seed, i))
    setups = [s.setup_s for s in samples]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds(src, workload.config))
    metrics = {
        "wall_s": fastest_half(s.wall_s for s in samples),
        "setup_s": statistics.median(setups),
        "cpu_s": fastest_half(s.cpu_s for s in samples),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }
    return metrics, samples, {"setup_samples_s": setups}


def measure_traced(workload, src, seed, seconds):
    plain, traced, per_iteration, traces = [], [], [], []

    def pair(index):
        plain.append(run_iteration(workload, src, seed, index))
        tracer = Tracer()
        traced.append(run_iteration(workload, src, seed, index, tracer))
        m = layer_metrics(tracer)
        m["trace.overhead_s"] = traced[-1].wall_s - plain[-1].wall_s
        per_iteration.append(m)
        traces.append(tracer.to_dict())

    closed_loop(seconds, pair)
    metrics = {name: statistics.median(m[name] for m in per_iteration)
               for name in per_iteration[0]}
    metrics["peak_rss_workers_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    return metrics, plain + traced, {"traces": traces}


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "equilines" / "__init__.py").is_file():
        print(f"certbench: no equilines package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in WORKLOADS:
        print(f"certbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    facts = machine_facts()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))

    measure_fn = measure_traced if args.trace else measure
    values, samples, extra = measure_fn(workload, src, args.seed, args.seconds)
    checked = sum(s.verdicts.checked for s in samples)
    errors = [e for s in samples for e in s.verdicts.errors]
    if args.trace:
        values["verdicts_checked"] = checked
        values["verdict_errors"] = len(errors)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"iterations={len(samples)}{' (half of them traced)' if args.trace else ''} verdicts_checked={checked} verdict_errors={len(errors)}"
          + (f" failed={sorted(set(errors))}" if errors else ""))
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")

    out_dir = root / ".certbench"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "metrics": metrics,
        "samples": [{"setup_s": s.setup_s, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                     "verdicts_checked": s.verdicts.checked,
                     "verdict_errors": s.verdicts.errors, "inputs": s.inputs}
                    for s in samples],
        **extra,
    }
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": not errors, "attempted": checked,
                      "failed": len(errors), "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
