"""The three workloads, the perturbed-input generator and the fact checks.

Each workload iteration imports equilines afresh, forces the shared
Pipeline stages (set-up), then runs its body (the timed wall). Checks
compare facts of the paper against what the program reports, never report
bytes; each failed check is a verdict error.
"""

import gc
import importlib
import random
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

from layers import CLAIM_IDS, instrumented
from tracer import span_of

MODULES = ("cli", "golay", "construct", "seidel", "exactlin", "search")
PIPELINE_STAGES = ("code", "asche", "final", "seidel_matrix")
N_LINES = 54
SCALED_NORM = 80
SCALED_ANGLE = 16


@dataclass(frozen=True)
class Facts:
    """What a correct run must report, as stated by the paper."""

    s54_spectrum: dict = field(default_factory=lambda: {
        "integer_eigs": [[-5, 36], [7, 6], [11, 8], [13, 2]], "quadratic": [-24, 107]})
    t52_spectrum: dict = field(default_factory=lambda: {
        "integer_eigs": [[-5, 34], [3, 1], [5, 1], [7, 6], [11, 7], [13, 2], [17, 1]],
        "quadratic": None})
    t52_hits: int = 9
    signed_aut_order: int = 216
    patterns: int = 1 << 18
    subset_counts: dict = field(default_factory=lambda: {
        53: 54, 52: 1431, 51: 24804, 50: 316251})


FACTS = Facts()


class Verdicts:
    """Counts checks made and names the ones that failed."""

    def __init__(self):
        self.checked = 0
        self.errors = []

    def check(self, name, ok):
        self.checked += 1
        if not ok:
            self.errors.append(name)
        return bool(ok)


@dataclass
class Sample:
    setup_s: float
    wall_s: float
    cpu_s: float
    verdicts: Verdicts
    inputs: dict = None


def fresh_import(src):
    """Import the equilines modules under src anew, dropping cached copies,
    so that every set-up pays the package import."""
    for name in [n for n in sys.modules if n == "equilines" or n.startswith("equilines.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module(f"equilines.{n}") for n in MODULES})
    origin = Path(mods.cli.__file__).resolve()
    if not origin.is_relative_to(Path(src).resolve()):
        raise ImportError(f"equilines was imported from {origin}, not from {src}")
    return mods


def cpu_seconds():
    """User plus system time of this process and its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_seconds(src, config):
    """Seconds for one set-up alone: the package import plus every shared
    Pipeline stage."""
    t0 = time.perf_counter()
    force_stages(fresh_import(src), config)
    return time.perf_counter() - t0


def force_stages(mods, config, tracer=None):
    """Build each shared Pipeline stage in its own span, so that no
    certificate is billed for it."""
    pipeline = mods.cli.Pipeline(mods.cli.RunConfig(**config))
    for stage in PIPELINE_STAGES:
        with span_of(tracer, f"setup.{stage}"):
            getattr(pipeline, stage)
    return pipeline


def run_iteration(workload, src, seed, index, tracer=None):
    """One closed-loop iteration: set-up, then the body, then its checks."""
    inputs = workload.inputs(seed, index) if workload.inputs else None
    t0 = time.perf_counter()
    with span_of(tracer, "setup.import"):
        mods = fresh_import(src)
    with instrumented(tracer, mods):
        pipeline = force_stages(mods, workload.config, tracer)
        setup_s = time.perf_counter() - t0
        verdicts = Verdicts()
        gc.collect()            # the previous iteration's garbage is not this one's cost
        cpu0 = cpu_seconds()
        t1 = time.perf_counter()
        with span_of(tracer, "iteration"):
            workload.body(mods, pipeline, verdicts, tracer, inputs)
        wall_s = time.perf_counter() - t1
        cpu_s = cpu_seconds() - cpu0
    return Sample(setup_s, wall_s, cpu_s, verdicts,
                  asdict(inputs) if inputs is not None else None)


# ---------------------------------------------------------------------------
# certify_all / certify_core: every certificate, as `equilines all` runs them
# ---------------------------------------------------------------------------

def certify(mods, pipeline, verdicts, tracer, _inputs):
    certs = []
    for fn in mods.cli.ALL_FNS:
        with span_of(tracer, "cli") as span:
            cert = fn(pipeline)
        if span is not None:
            span.name = f"cli.{cert.claim_id}"
        certs.append(cert)
    check_certificates(verdicts, certs, pipeline.config.orders)


def check_certificates(verdicts, certs, orders, facts=FACTS):
    by_id = {c.claim_id: c for c in certs}
    verdicts.check("claim_ids", tuple(c.claim_id for c in certs) == CLAIM_IDS)
    for claim_id in CLAIM_IDS:
        verdicts.check(f"{claim_id}.passes", claim_id in by_id and by_id[claim_id].passed)

    def details(claim_id):
        return by_id[claim_id].details if claim_id in by_id else {}

    verdicts.check("spectrum.S.claim",
                   details("spectrum.S").get("claim") == facts.s54_spectrum)
    verdicts.check("aut.signed_order",
                   details("aut.order").get("signed_order") == facts.signed_aut_order)
    verdicts.check("maximality.patterns",
                   details("maximality").get("patterns_examined") == facts.patterns)
    scan = details("subscan.unique")
    verdicts.check("subscan.subsets", scan.get("subsets_examined") == {
        str(o): facts.subset_counts[o] for o in orders})
    hits = scan.get("hits", [])
    with_52 = 52 in orders
    verdicts.check("subscan.t52_hits",
                   len(hits) == (facts.t52_hits if with_52 else 0)
                   and all(h["order"] == 52 and h["spectrum"] == facts.t52_spectrum
                           for h in hits))
    verdicts.check("subscan.one_class",
                   scan.get("equivalence_class_count") == (1 if with_52 else 0))


# ---------------------------------------------------------------------------
# perturbed: seeded controls that take the other path through each layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbedInputs:
    seed: int
    index: int
    drop_line: int          # 0-based member removed before the maximality search
    perm: tuple             # relabelling of S54 ...
    signs: tuple            # ... followed by this switching
    wrong_claim: dict       # a spectrum claim for S54 that must fail
    flip: tuple             # (generator row, bit) flipped before building the code


def perturbed_inputs(seed, index=0):
    """The index-th set of perturbed inputs for a seed; same seed, same inputs."""
    rng = random.Random(f"certbench-perturbed:{seed}:{index}")
    drop_line = rng.randrange(N_LINES)
    perm = list(range(N_LINES))
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(N_LINES))
    wrong_claim = perturb_claim(FACTS.s54_spectrum, rng)
    flip = (rng.randrange(12), rng.randrange(24))
    return PerturbedInputs(seed, index, drop_line, tuple(perm), signs, wrong_claim, flip)


def perturb_claim(claim, rng):
    """A claim with the same total multiplicity but another characteristic
    polynomial, so certification runs its full course and must fail."""
    eigs = {v: m for v, m in claim["integer_eigs"]}
    quadratic = claim["quadratic"]
    kinds = ["move", "shift"] + (["quadratic"] if quadratic else [])
    kind = rng.choice(kinds)
    if kind == "move":                  # one unit of multiplicity elsewhere
        src, dst = rng.sample(sorted(eigs), 2)
        eigs[src] -= 1
        eigs[dst] += 1
        eigs = {v: m for v, m in eigs.items() if m}
    elif kind == "shift":               # one eigenvalue replaced by another
        old = rng.choice(sorted(eigs))
        new = rng.choice([v for v in range(-5, 19) if v not in eigs])
        eigs[new] = eigs.pop(old)
    else:                               # constant term of the quadratic moved
        quadratic = [quadratic[0], quadratic[1] + rng.choice((-3, -2, -1, 1, 2, 3))]
    return {"integer_eigs": sorted([v, m] for v, m in eigs.items()), "quadratic": quadratic}


def relabel(mods, s, inputs):
    """S permuted by inputs.perm, then switched by inputs.signs."""
    return mods.seidel.switch(mods.seidel.permute(s, inputs.perm), inputs.signs)


def claim_of(mods, claim):
    return mods.seidel.SpectrumClaim.make(
        {v: m for v, m in claim["integer_eigs"]}, quadratic=claim["quadratic"])


def is_witness(w, kept):
    """Exact re-check: scaled norm 80 and |<w, v>| = 16 for every kept line."""
    if sum(x * x for x in w) != SCALED_NORM:
        return False
    return all(abs(sum(a * b for a, b in zip(v.coords, w))) == SCALED_ANGLE for v in kept)


def same_line(w, coords):
    return tuple(w) in (tuple(coords), tuple(-x for x in coords))


def generator_rejected(mods, flip):
    row, bit = flip
    generator = list(mods.golay.build_generator())
    generator[row] ^= 1 << bit
    try:
        code = mods.golay.generate_code(tuple(generator))
    except mods.golay.CodeValidationError:
        return True
    return not all(mods.golay.validation_gates(code).values())


def perturbed(mods, pipeline, verdicts, tracer, inputs):
    final = pipeline.final
    s = pipeline.seidel_matrix

    with span_of(tracer, "perturbed.drop_line"):
        kept = [v for i, v in enumerate(final.vectors) if i != inputs.drop_line]
        rank = mods.exactlin.rank([list(v.coords) for v in kept])
        report = mods.search.check_extendibility(
            mods.construct.LineSystem(vectors=tuple(kept), ambient_dim=rank))
        verdicts.check("drop_line.extendible", report.extendible and report.witnesses)
        verdicts.check("drop_line.patterns", report.patterns_examined == 1 << rank)
        verdicts.check("drop_line.witnesses_exact",
                       all(is_witness(w, kept) for w in report.witnesses))
        verdicts.check("drop_line.own_line_found",
                       any(same_line(w, final.vectors[inputs.drop_line].coords)
                           for w in report.witnesses))

    with span_of(tracer, "perturbed.relabel"):
        t = relabel(mods, s, inputs)
        seidel = mods.seidel
        verdicts.check("relabel.spectrum",
                       seidel.certify_spectrum(t, claim_of(mods, FACTS.s54_spectrum)).passed)
        verdicts.check("relabel.signed_order",
                       seidel.signed_automorphism_group(t).order == FACTS.signed_aut_order)
        verdicts.check("relabel.switching_class",
                       seidel.switching_canonical_form(t) == seidel.switching_canonical_form(s))

    with span_of(tracer, "perturbed.wrong_claim"):
        cert = mods.seidel.certify_spectrum(s, claim_of(mods, inputs.wrong_claim))
        verdicts.check("wrong_claim.fails",
                       not cert.passed and cert.details["checks"].get("char_poly_matches") is False)

    with span_of(tracer, "perturbed.flipped_generator"):
        verdicts.check("flipped_generator.rejected", generator_rejected(mods, inputs.flip))


@dataclass(frozen=True)
class Workload:
    config: dict            # RunConfig fields
    body: object            # body(mods, pipeline, verdicts, tracer, inputs)
    inputs: object = None   # inputs(seed, index), or None for fixed input


WORKLOADS = {
    "certify_all": Workload(config={"command": "all", "jobs": 2}, body=certify),
    "certify_core": Workload(config={"command": "all", "orders": (52, 53), "jobs": 1},
                             body=certify),
    "perturbed": Workload(config={}, body=perturbed, inputs=perturbed_inputs),
}
