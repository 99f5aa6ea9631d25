"""The benchmark's --trace 1 run hooks package functions by name
(certbench/layers.py); every hooked name must still exist, and one traced
iteration must read the per-layer metrics the benchmark reports."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent("""
    import sys
    sys.path[:0] = ["src", "certbench"]
    from layers import COUNTED, TIMED, instrumented
    from tracer import Tracer
    from workloads import fresh_import

    mods = fresh_import("src")
    hooked = [(getattr(mods, m), a) for table in (TIMED, COUNTED)
              for m, attrs in table.items() for a in attrs]
    hooked += [(mods.search, "check_extendibility"), (mods.search, "subseidel_scan")]
    plain = [getattr(module, attr) for module, attr in hooked]
    tracer = Tracer()
    with instrumented(tracer, mods):
        assert all(getattr(m, a) is not f for (m, a), f in zip(hooked, plain))
        s = mods.seidel.SeidelMatrix([[0, 1, -1], [1, 0, 1], [-1, 1, 0]])
        mods.seidel.switching_canonical_form(s)
    assert all(getattr(m, a) is f for (m, a), f in zip(hooked, plain))
    assert tracer.counts["seidel.canonical_graph_form.calls"] > 0
""")

# one traced certify_all iteration, as `certbench/run.py --trace 1` runs it:
# every verdict holds, the scan confirms one order-52 survivor, and no
# spectral fact needs a nullity
TRACED_CERTIFY_ALL = textwrap.dedent("""
    import sys
    sys.path[:0] = ["src", "certbench"]
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS, run_iteration

    tracer = Tracer()
    sample = run_iteration(WORKLOADS["certify_all"], "src", 7, 0, tracer)
    metrics = layer_metrics(tracer)
    assert sample.verdicts.checked > 0 and sample.verdicts.errors == [], sample.verdicts.errors
    assert metrics["search.subscan.o52.survivors"] == 1, metrics
    assert metrics["exactlin.nullity_at.calls"] == 0, metrics
""")

# untraced perturbed iterations, as `certbench/run.py --workload perturbed`
# runs them: every seeded control holds
PERTURBED = textwrap.dedent("""
    import sys
    sys.path[:0] = ["src", "certbench"]
    from workloads import WORKLOADS, run_iteration

    for seed in (1, 2, 3):
        sample = run_iteration(WORKLOADS["perturbed"], "src", seed, 0)
        assert sample.verdicts.checked > 0 and sample.verdicts.errors == [], sample.verdicts.errors
""")

# every benchmark workload's config is a RunConfig the package accepts
WORKLOAD_CONFIGS = textwrap.dedent("""
    import sys
    sys.path[:0] = ["src", "certbench"]
    from equilines.cli import RunConfig
    from workloads import WORKLOADS

    assert {"certify_all", "certify_core", "perturbed"} <= WORKLOADS.keys(), WORKLOADS
    for workload in WORKLOADS.values():
        RunConfig(**workload.config)
""")


def test_trace_hooks_enter_and_exit_on_fresh_modules():
    subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, check=True)


def test_traced_certify_all_iteration_makes_no_nullity():
    subprocess.run([sys.executable, "-c", TRACED_CERTIFY_ALL], cwd=ROOT, check=True)


def test_perturbed_iterations_hold_every_verdict():
    subprocess.run([sys.executable, "-c", PERTURBED], cwd=ROOT, check=True)


def test_every_workload_config_is_accepted():
    subprocess.run([sys.executable, "-c", WORKLOAD_CONFIGS], cwd=ROOT, check=True)
