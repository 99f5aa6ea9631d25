"""Command-line front end: human summaries plus machine-readable certificates."""

import argparse
import json
import math
import sys
import traceback
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import construct, exactlin, golay, search, seidel
from .certificate import CertificateBuilder

ARTIFACT_VERSION = "1.0"

# the claimed exact spectrum of the 54-line Seidel matrix
S54_SPECTRUM = seidel.SpectrumClaim.make(
    {-5: 36, 7: 6, 11: 8, 13: 2}, quadratic=(-24, 107)
)
S54_AUT_ORDER = 216
ORDERS = (50, 51, 52, 53)        # the sub-matrix orders of the paper's scan
T52_SPECTRUM = seidel.SpectrumClaim.make(
    {-5: 34, 3: 1, 5: 1, 7: 6, 11: 7, 13: 2, 17: 1}
)


@dataclass
class RunConfig:
    """A run's inputs; ValueError for the orders, drop_line or jobs the CLI refuses."""
    command: str = "all"
    orders: tuple = ORDERS       # a non-empty subset of ORDERS; stored sorted, once each
    jobs: int = 1                # must be >= 1; every search runs in one process
    output_path: str = None
    emit_vectors: bool = False
    corrupt_generator: bool = False
    drop_line: int = None        # maximality control: 0-based member to remove, below 54

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        orders = set(self.orders)
        if not orders or not orders <= set(ORDERS):
            raise ValueError(f"orders must be a non-empty subset of {ORDERS}: {self.orders!r}")
        self.orders = tuple(sorted(orders))
        if self.drop_line is not None and self.drop_line not in range(54):
            raise ValueError(f"drop_line must be in range(54), not {self.drop_line!r}")


class Pipeline:
    """Caches the construction stages shared by the certificate commands;
    a stage whose build raises is not cached."""

    def __init__(self, config):
        self.config = config
        self.filters = construct.FilterSet.standard()

    @cached_property
    def gated_code(self):
        """The code and its validation gates, each computed once; the
        corrupted control flips bit 13 of row 0 before either."""
        rows = golay.build_generator()
        if self.config.corrupt_generator:
            rows = (rows[0] ^ 1 << 13,) + rows[1:]
        code = golay.generate_code(rows)
        return code, golay.validation_gates(code)

    @property
    def code(self):
        return self.gated_code[0]

    @cached_property
    def asche(self):
        return construct.asche_system(self.code, self.filters)

    @cached_property
    def final(self):
        return construct.final_system(self.asche, self.filters)

    @cached_property
    def seidel_matrix(self):
        return seidel.seidel_from(self.final)

    @cached_property
    def spectrum(self):
        """The spectrum.S certificate: S54_SPECTRUM checked against S."""
        cert = seidel.certify_spectrum(self.seidel_matrix, S54_SPECTRUM)
        cert.claim_id = "spectrum.S"
        return cert


def claim_inputs(claim_id, config):
    """The inputs a claim's certificate digests, for its command and for a
    certificate that a stage error fails. remark.cliques and spectrum.S
    digest the systems and the matrix they check (construct.verify_remark,
    seidel.certify_spectrum); a stage error leaves those unbuilt, None."""
    return {
        "golay.gates": {"command": "golay", "corrupt": config.corrupt_generator},
        # "stage" is a fixed input, kept so that the certificate's digest holds
        "theorem1.count": {"command": "construct", "stage": "final"},
        "remark.cliques": {"full": None, "final": None},
        "spectrum.S": {"matrix": None, "claim": S54_SPECTRUM.as_dict()},
        "aut.order": {"command": "aut"},
        "maximality": {"command": "maximality", "drop_line": config.drop_line},
        "subscan.unique": {"command": "subscan", "orders": list(config.orders)},
    }[claim_id]


def cmd_golay(pipeline):
    b = CertificateBuilder("golay.gates", claim_inputs("golay.gates", pipeline.config))
    code, gates = pipeline.gated_code
    for name, ok in gates.items():
        b.check(name, ok)
    b.note("weight_distribution", {str(k): v for k, v in golay.weight_distribution(code).items()})
    b.note("octad_count", len(code.octads))
    octad_counts = [len(golay.octads_through(code, c)) for c in (1, 24)]
    b.check("octads_through_each_coordinate_253", octad_counts == [253, 253], octad_counts)
    return b.build()


def cmd_construct(pipeline):
    b = CertificateBuilder("theorem1.count", claim_inputs("theorem1.count", pipeline.config))
    full, final = pipeline.asche, pipeline.final
    b.check("asche_count_72", len(full) == 72, len(full))
    b.check("asche_rank_19", full.ambient_dim == 19, full.ambient_dim)
    b.check("final_count_54", len(final) == 54, len(final))
    b.check("final_rank_18", final.ambient_dim == 18, final.ambient_dim)
    removed = construct.removed_indices(full, final)
    b.check("removed_count_18", len(removed) == 18, len(removed))
    gram = final.gram
    offdiag = set(gram[np.triu_indices(len(final), 1)].tolist())
    b.check("pairwise_scaled_angle_pm16", offdiag <= {16, -16}, sorted(offdiag))
    norms = set(np.diagonal(gram).tolist())
    b.check("scaled_norms_80", norms == {80}, sorted(norms))
    if pipeline.config.emit_vectors:
        b.note("vectors", [list(v.coords) for v in final.vectors])
        b.note("octads_1based", [golay.coords_from_mask(v.source) for v in final.vectors])
    return b.build()


def cmd_remark(pipeline):
    return construct.verify_remark(
        pipeline.asche, pipeline.final, pipeline.filters.m
    )


def cmd_spectrum(pipeline):
    return pipeline.spectrum


def cmd_aut(pipeline):
    """Automorphism group certificate.

    Computes the group under both definitions: signed permutation matrices
    first, then the plain permutations (P^T S P = S), which are read off
    the signed group as its elements with all signs +1. The claimed order
    216 is attained by the signed group; when the permutation group order
    differs from 216 the discrepancy is flagged in the details rather
    than hidden, and the certificate passes iff the signed order is 216
    and all generators verify.
    """
    b = CertificateBuilder("aut.order", claim_inputs("aut.order", pipeline.config))
    s = pipeline.seidel_matrix
    signed_result = seidel.signed_automorphism_group(s)
    perm_result = seidel.automorphism_order(s)
    b.note("permutation_order", perm_result.order)
    b.note(
        "permutation_generators_1based",
        [[i + 1 for i in g] for g in perm_result.generators],
    )
    b.check(
        "permutation_generators_preserve_matrix",
        all(np.array_equal(s.array[np.ix_(g, g)], s.array) for g in perm_result.generators),
    )
    b.note("signed_order", signed_result.order)
    b.note(
        "signed_generators_1based",
        [[[t + 1, sign] for t, sign in seidel.signed_pairs(g)]
         for g in signed_result.generators],
    )
    b.check(
        "signed_generators_preserve_matrix",
        all(seidel._signed_preserves(s, g) for g in signed_result.generators),
    )
    b.note(
        "definition_mismatch_flag",
        perm_result.order != S54_AUT_ORDER,
    )
    b.check("signed_order_216", signed_result.order == S54_AUT_ORDER,
            signed_result.order)
    return b.build()


def cmd_maximality(pipeline):
    config = pipeline.config
    b = CertificateBuilder("maximality", claim_inputs("maximality", config))
    system = pipeline.final
    if config.drop_line is not None:
        keep = np.arange(len(system)) != config.drop_line
        system = construct.LineSystem(
            vectors=tuple(v for v, k in zip(system.vectors, keep) if k),
            ambient_dim=exactlin.rank(system.coords[keep]),
        )
    report = search.check_extendibility(system)
    b.note("patterns_examined", report.patterns_examined)
    b.note("basis_indices_1based", [i + 1 for i in report.basis_indices])
    if config.drop_line is None:
        b.check("not_extendible", not report.extendible,
                [str(x) for x in report.witness] if report.witness else None)
        b.check("patterns_2_pow_18", report.patterns_examined == 1 << 18,
                report.patterns_examined)
    else:
        b.check("control_extendible", report.extendible)
        b.note("witnesses", [[str(x) for x in w] for w in report.witnesses])
    return b.build()


def cmd_subscan(pipeline):
    config = pipeline.config
    b = CertificateBuilder("subscan.unique", claim_inputs("subscan.unique", config))
    s = pipeline.seidel_matrix
    spectrum = pipeline.spectrum
    if not spectrum.passed:
        raise seidel.SpectrumNotCertifiedError(
            f"spectrum.S failed {spectrum.details['first_failure']['check']}, "
            "so S has no certified interlacing window")
    result = search.subseidel_scan(s, S54_SPECTRUM.integer_window(), orders=config.orders)
    b.note("subsets_examined", {str(k): v for k, v in sorted(result.subsets_examined.items())})
    b.note("orbit_representatives",
           {str(k): v for k, v in sorted(result.orbit_representatives.items())})
    uncovered = {str(order): [count, math.comb(s.n, s.n - order)]
                 for order, count in sorted(result.subsets_examined.items())
                 if count != math.comb(s.n, s.n - order)}
    b.check("subsets_covered", not uncovered, uncovered)
    b.note(
        "hits",
        [
            {
                "order": order,
                "removed_1based": [i + 1 for i in removed],
                "spectrum": claim.as_dict(),
            }
            for order, removed, claim in result.hits
        ],
    )
    b.note("equivalence_class_count", len(result.equivalence_classes))
    b.note("equivalence_definition", "switching + permutation of Seidel matrices")
    b.note("screened_ambiguous", result.screened_ambiguous)
    if config.orders == ORDERS:
        b.check("unique_equivalence_class", len(result.equivalence_classes) == 1,
                len(result.equivalence_classes))
        b.check("hits_exist", bool(result.hits))
        b.check(
            "representative_order_52",
            all(order == 52 for order, _, _ in result.hits),
            sorted({order for order, _, _ in result.hits}),
        )
        b.check(
            "representative_spectrum",
            all(claim == T52_SPECTRUM for _, _, claim in result.hits),
        )
    else:
        b.check("scan_completed", True)
        if 52 not in config.orders:
            b.check(
                "no_hits_outside_order_52",
                not result.hits,
                [(order, removed) for order, removed, _ in result.hits],
            )
    return b.build()


CLAIM_IDS = {cmd_golay: "golay.gates", cmd_construct: "theorem1.count",
             cmd_remark: "remark.cliques", cmd_spectrum: "spectrum.S",
             cmd_aut: "aut.order", cmd_maximality: "maximality",
             cmd_subscan: "subscan.unique"}
ALL_FNS = list(CLAIM_IDS)
# what a Pipeline stage raises when its input is not what the claims need
STAGE_ERRORS = (golay.CodeValidationError, construct.ConstructionError,
                seidel.NotEquiangularError, seidel.SpectrumNotCertifiedError)

COMMANDS = {
    "golay": [cmd_golay],
    "construct": [cmd_construct, cmd_remark],
    "spectrum": [cmd_spectrum],
    "aut": [cmd_aut],
    "maximality": [cmd_maximality],
    "subscan": [cmd_subscan],
    "all": ALL_FNS,
}


def run_command(config):
    """The command's certificates. One whose Pipeline stage raises fails,
    with the stage error as its witness."""
    pipeline = Pipeline(config)
    certificates = []
    for fn in COMMANDS[config.command]:
        try:
            certificates.append(fn(pipeline))
        except STAGE_ERRORS as exc:
            claim_id = CLAIM_IDS[fn]
            b = CertificateBuilder(claim_id, claim_inputs(claim_id, config))
            b.check("stages_built", False, f"{type(exc).__name__}: {exc}")
            certificates.append(b.build())
    return certificates


def report_dict(certificates):
    return {
        "artifact_version": ARTIFACT_VERSION,
        "certificates": [c.to_dict() for c in certificates],
    }


def report_without_timings(report):
    """Copy of a report with runtime fields removed, for determinism checks."""
    out = json.loads(json.dumps(report))
    for cert in out["certificates"]:
        cert.pop("runtime_ms", None)
    return out


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="equilines",
        description="Build the 54-line equiangular system in R^18 and "
        "certify every claim about it exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "golay": "validate the [24,12,8] code and its 759 octads",
        "construct": "build the 72- and 54-line systems and certify the "
                     "structure of the 18 removed lines",
        "spectrum": "certify the exact Seidel spectrum",
        "aut": "certify the order-216 signed automorphism group",
        "maximality": "exhaustive non-extendibility search",
        "subscan": "integral-spectrum scan over sub-Seidel matrices",
        "all": "run every certificate in dependency order",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); every "
                            "search runs in one process, so it changes neither "
                            "the report nor the run time")
        p.add_argument("--out", dest="output_path")
        if name in ("golay", "all"):
            p.add_argument("--corrupt-generator", action="store_true",
                           help="negative control: flip one generator bit")
        if name == "construct":
            p.add_argument("--emit-vectors", action="store_true")
        if name == "maximality":
            p.add_argument("--drop-line", type=int, default=None,
                           help="control run: remove this member (1-based) first")
        if name in ("subscan", "all"):
            p.add_argument("--orders", default="50,51,52,53")
    args = parser.parse_args(argv)
    try:                                        # "", "52," and "x" are usage errors
        orders = tuple(int(x) for x in getattr(args, "orders", "50,51,52,53").split(","))
    except ValueError:
        parser.error(f"--orders must be a comma-separated subset of 50,51,52,53, "
                     f"not {args.orders!r}")
    drop = getattr(args, "drop_line", None)
    return RunConfig(
        command=args.command,
        orders=orders,
        jobs=args.jobs,
        output_path=args.output_path,
        emit_vectors=getattr(args, "emit_vectors", False),
        corrupt_generator=getattr(args, "corrupt_generator", False),
        drop_line=None if drop is None else drop - 1,
    )


def main(argv=None):
    try:
        config = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        certificates = run_command(config)
    except Exception as exc:  # internal error, not a failed certificate
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"error: {type(exc).__name__}: {exc}\n"
              f"  raised at {where.filename}:{where.lineno} in {where.name}", file=sys.stderr)
        return 2
    report = report_dict(certificates)
    for cert in certificates:
        print(f"[{cert.status.upper():4}] {cert.claim_id} ({cert.runtime_ms} ms)")
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write report to {config.output_path}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    return 0 if all(c.passed for c in certificates) else 1


if __name__ == "__main__":
    sys.exit(main())
