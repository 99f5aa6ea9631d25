"""Tracing hooks around the public functions of each equilines layer, and
the per-layer metrics read back from a finished trace.

Hooks replace module attributes, so every call made through the module
(which is how cli, search and seidel call each other) is seen. Work done
inside pool workers is not traced: the sub-matrix screen shows up as the
parent's wait for each order.
"""

import inspect
from contextlib import contextmanager

from tracer import covered

ORDERS = (50, 51, 52, 53)
CLAIM_IDS = ("golay.gates", "theorem1.count", "remark.cliques", "spectrum.S",
             "aut.order", "maximality", "subscan.unique")
SETUP_STAGES = ("import", "code", "asche", "final", "seidel_matrix")
PERTURBED_CASES = ("drop_line", "relabel", "wrong_claim", "flipped_generator")

# functions that get a span (and a call count) of their own
TIMED = {
    "golay": ("generate_code", "validation_gates"),
    "construct": ("asche_system", "final_system", "verify_remark"),
    "seidel": ("seidel_from", "certify_spectrum", "compute_spectrum",
               "automorphism_order", "signed_automorphism_group",
               "switching_canonical_form"),
    "exactlin": ("char_poly", "nullity_at"),
}
# functions called too often, or too deep in recursion, for a span
COUNTED = {
    "exactlin": ("bareiss_det", "rank"),
    "seidel": ("find_isomorphism", "enumerate_isomorphisms", "canonical_graph_form"),
}
# spans the benchmark opens around whole certificates or control cases;
# the trace's unaccounted time is the part of them no stage span covers
CONTAINERS = ("iteration",) + tuple(f"cli.{c}" for c in CLAIM_IDS) + tuple(
    f"perturbed.{c}" for c in PERTURBED_CASES)

SPAN_METRICS = tuple(f"{m}.{a}" for m, attrs in TIMED.items() for a in attrs) + (
    "search.check_extendibility",)
CALL_METRICS = tuple(f"{m}.{a}" for m, attrs in COUNTED.items() for a in attrs) + (
    "exactlin.nullity_at",)

PER_LAYER = (
    tuple((f"cli.{c}_s", "s") for c in CLAIM_IDS)
    + tuple((f"perturbed.{c}_s", "s") for c in PERTURBED_CASES)
    + tuple((f"setup.{s}_s", "s") for s in SETUP_STAGES)
    + tuple((f"{n}_s", "s") for n in SPAN_METRICS)
    + tuple((f"{n}.calls", "count") for n in CALL_METRICS)
    + (("search.maximality.patterns", "count"),
       ("search.maximality.patterns_per_s", "1/s"),
       ("search.maximality.witnesses", "count"))
    + tuple(
        (f"search.subscan.o{o}.{field}", unit)
        for o in ORDERS
        for field, unit in (("subsets", "count"), ("screen_s", "s"),
                            ("subsets_per_s", "1/s"), ("survivors", "count"),
                            ("hits", "count"))
    )
    + (("search.subscan.confirm_s", "s"), ("search.subscan.classify_s", "s"),
       ("search.subscan.ambiguous", "count"), ("search.subscan.hit_ratio", "ratio"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.unaccounted_s", "s"), ("peak_rss_workers_mb", "MiB"),
       ("verdicts_checked", "count"), ("verdict_errors", "count"))
)


@contextmanager
def instrumented(tracer, mods):
    """Hook every traced function of the modules in mods; undo on exit.

    With tracer None nothing is hooked.
    """
    if tracer is None:
        yield
        return
    saved = []

    def hook(module_name, attr, wrap):
        module = getattr(mods, module_name)
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, wrap(f"{module_name}.{attr}", fn))

    for module_name, attrs in TIMED.items():
        for attr in attrs:
            hook(module_name, attr, tracer.timed)
    for module_name, attrs in COUNTED.items():
        for attr in attrs:
            hook(module_name, attr, tracer.counted)
    hook("search", "check_extendibility", lambda _, fn: _traced_extendibility(tracer, fn))
    hook("search", "subseidel_scan", lambda _, fn: _traced_subscan(tracer, fn))
    try:
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _traced_extendibility(tracer, fn):
    def wrapper(*args, **kwargs):
        with tracer.span("search.check_extendibility"):
            report = fn(*args, **kwargs)
        tracer.count("search.maximality.patterns", report.patterns_examined)
        tracer.count("search.maximality.witnesses", len(report.witnesses))
        return report
    return wrapper


def _traced_subscan(tracer, fn):
    """Split the scan into one span per order, then one for classification.

    The boundaries come from the scan's own progress callback, which fires
    after each order's screen and exact confirmation; the confirmations
    (compute_spectrum spans) are children of the order span, so the order
    span's self time is its screen.
    """
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        caller_progress = bound.arguments["progress"]
        phases = iter([f"search.subscan.o{o}" for o in sorted(bound.arguments["orders"], reverse=True)]
                      + ["search.subscan.classify"])
        current = []

        def progress(order, total):
            if current[-1].name != f"search.subscan.o{order}":
                raise RuntimeError(f"scan reported order {order} during {current[-1].name}")
            tracer.end(current.pop())
            tracer.count(f"search.subscan.o{order}.subsets", total)
            current.append(tracer.begin(next(phases)))
            if caller_progress:
                caller_progress(order, total)

        bound.arguments["progress"] = progress
        with tracer.span("search.subseidel_scan"):
            current.append(tracer.begin(next(phases)))
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                tracer.end(current.pop())
        for order, _removed, _claim in result.hits:
            tracer.count(f"search.subscan.o{order}.hits")
        tracer.count("search.subscan.ambiguous", result.screened_ambiguous)
        return result
    return wrapper


def layer_metrics(tracer):
    """Per-layer metrics of one traced iteration (every PER_LAYER name that
    the trace alone determines)."""
    own = tracer.self_times()
    counts = tracer.counts
    m = {f"cli.{c}_s": tracer.total(f"cli.{c}") for c in CLAIM_IDS}
    m.update({f"perturbed.{c}_s": tracer.total(f"perturbed.{c}") for c in PERTURBED_CASES})
    m.update({f"setup.{s}_s": tracer.total(f"setup.{s}") for s in SETUP_STAGES})
    m.update({f"{n}_s": tracer.total(n) for n in SPAN_METRICS})
    m.update({f"{n}.calls": counts[f"{n}.calls"] for n in CALL_METRICS})

    patterns = counts["search.maximality.patterns"]
    extend_s = m["search.check_extendibility_s"]
    m["search.maximality.patterns"] = patterns
    m["search.maximality.patterns_per_s"] = patterns / extend_s if extend_s else 0.0
    m["search.maximality.witnesses"] = counts["search.maximality.witnesses"]

    survivors_total = hits_total = 0
    confirm_s = 0.0
    for order in ORDERS:
        prefix = f"search.subscan.o{order}"
        phase_ids = {s.id for s in tracer.spans if s.name == prefix}
        confirms = [s for s in tracer.spans
                    if s.name == "seidel.compute_spectrum" and s.parent in phase_ids]
        screen_s = sum(own[i] for i in phase_ids)
        subsets = counts[f"{prefix}.subsets"]
        hits = counts[f"{prefix}.hits"]
        m[f"{prefix}.subsets"] = subsets
        m[f"{prefix}.screen_s"] = screen_s
        m[f"{prefix}.subsets_per_s"] = subsets / screen_s if screen_s else 0.0
        m[f"{prefix}.survivors"] = len(confirms)
        m[f"{prefix}.hits"] = hits
        survivors_total += len(confirms)
        hits_total += hits
        confirm_s += sum(s.duration for s in confirms)
    m["search.subscan.confirm_s"] = confirm_s
    m["search.subscan.classify_s"] = tracer.total("search.subscan.classify")
    m["search.subscan.ambiguous"] = counts["search.subscan.ambiguous"]
    m["search.subscan.hit_ratio"] = hits_total / survivors_total if survivors_total else 0.0

    (root,) = [s for s in tracer.spans if s.name == "iteration"]
    stages = [s for s in descendants(tracer, root) if s.name not in CONTAINERS]
    m["trace.wall_s"] = root.duration
    m["trace.unaccounted_s"] = root.duration - covered(root, stages)
    return m


def descendants(tracer, span):
    below = {span.id}
    out = []
    for s in tracer.spans:          # spans are stored in start order
        if s.parent in below:
            below.add(s.id)
            out.append(s)
    return out
