"""The benchmark's --trace 1 run hooks package functions by name
(certbench/layers.py); every hooked name must still exist."""

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
        s = mods.seidel.SeidelMatrix.from_rows([[0, 1, -1], [1, 0, 1], [-1, 1, 0]])
        mods.seidel.switching_canonical_form(s)
    assert all(getattr(m, a) is f for (m, a), f in zip(hooked, plain))
    assert tracer.counts["seidel.canonical_graph_form.calls"] > 0
""")


def test_trace_hooks_enter_and_exit_on_fresh_modules():
    subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, check=True)
