"""Command-line front end: human summaries plus machine-readable certificates."""

import argparse
import json
import math
import sys
import traceback
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import construct, golay, search, seidel
from .certificate import CertificateBuilder

ARTIFACT_VERSION = "1.0"

# the claimed exact spectrum of the 54-line Seidel matrix
S54_SPECTRUM = seidel.SpectrumClaim.make(
    {-5: 36, 7: 6, 11: 8, 13: 2}, quadratic=(-24, 107)
)
S54_AUT_ORDER = 216
ORDERS = (50, 51, 52, 53)        # the sub-matrix orders of the paper's scan
LINES = range(54)                # the members of S54, 0-based: drop_line's values
T52_SPECTRUM = seidel.SpectrumClaim.make(
    {-5: 34, 3: 1, 5: 1, 7: 6, 11: 7, 13: 2, 17: 1}
)


def _orders_arg(text):
    try:                                        # "", "52," and "x" are usage errors
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated subset of 50,51,52,53, not {text!r}") from None


def one_based_int(text):
    try:
        line = int(text) - 1                    # --drop-line counts from 1, drop_line from 0
        if line in LINES:
            return line
    except ValueError:                          # "x" is worded like "0"
        pass
    raise argparse.ArgumentTypeError(f"must be a line from 1 to {len(LINES)}, not {text}")


# A RunConfig field other than command: its default, ok(value), true of the
# values that `wants` names, and its CLI flag with the flag's argparse
# keywords. `type(x) is int` refuses a bool, a float and a numpy integer.
Option = NamedTuple("Option", [("default", object), ("ok", object), ("wants", str),
                               ("flag", str), ("kwargs", dict)])
OPTIONS = {
    "output_path": Option(None, lambda path: True, "a path", "--out", {}),
    "jobs": Option(
        1, lambda jobs: type(jobs) is int and jobs >= 1, "an int >= 1",
        "--jobs", {"type": int,
                   "help": "accepted for compatibility (must be >= 1); every search runs in "
                           "one process, so it changes neither the report nor the run time"}),
    "corrupt_generator": Option(
        False, lambda flag: type(flag) is bool, "True or False",
        "--corrupt-generator", {"action": "store_true",
                                "help": "negative control: flip one generator bit"}),
    "emit_vectors": Option(
        False, lambda flag: type(flag) is bool, "True or False",
        "--emit-vectors", {"action": "store_true"}),
    "drop_line": Option(
        None, lambda line: line is None or type(line) is int and line in LINES,
        f"None or an int in range({len(LINES)})",
        "--drop-line", {"type": one_based_int,
                        "help": "control run: remove this member (1-based) first"}),
    "orders": Option(
        ORDERS, lambda orders: isinstance(orders, (tuple, list))
        and {type(o) for o in orders} == {int} and set(orders) <= set(ORDERS),
        f"a non-empty subset of {ORDERS}",
        "--orders", {"type": _orders_arg}),
}
SHARED_OPTIONS = ("output_path", "jobs")        # taken by every command


@dataclass(frozen=True)
class RunConfig:
    """A run's inputs, checked once: ValueError for an unknown command, for
    a value that its option does not allow, and for a value other than the
    default of an option that the command does not take (orders compared
    once sorted)."""
    command: str = "all"
    orders: tuple = OPTIONS["orders"].default          # stored sorted, once each
    jobs: int = OPTIONS["jobs"].default
    output_path: str = OPTIONS["output_path"].default
    emit_vectors: bool = OPTIONS["emit_vectors"].default
    corrupt_generator: bool = OPTIONS["corrupt_generator"].default
    drop_line: int = OPTIONS["drop_line"].default      # maximality control: 0-based member

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name, option in OPTIONS.items():
            if not option.ok(getattr(self, name)):
                raise ValueError(f"{name} must be {option.wants}, not {getattr(self, name)!r}")
        object.__setattr__(self, "orders", tuple(sorted(set(self.orders))))
        takes = SHARED_OPTIONS + COMMANDS[self.command].options
        for name, option in OPTIONS.items():
            if name not in takes and getattr(self, name) != option.default:
                raise ValueError(f"{name} is not an option of {self.command}")


class Pipeline:
    """Caches the construction stages shared by the certificate commands;
    a stage whose build raises is not cached."""

    def __init__(self, config):
        self.config = config

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
        return construct.asche_system(self.code)

    @cached_property
    def final(self):
        return construct.final_system(self.asche)

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
        system = construct.LineSystem(
            vectors=tuple(v for i, v in enumerate(system.vectors) if i != config.drop_line))
    report = search.check_extendibility(system)
    b.note("patterns_examined", report.patterns_examined)
    b.note("basis_indices_1based", [i + 1 for i in report.basis_indices])
    if config.drop_line is None:
        b.check("not_extendible", not report.extendible,
                [str(x) for x in report.witnesses[0]] if report.witnesses else None)
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


CLAIMS = {"golay.gates": cmd_golay, "theorem1.count": cmd_construct,
          "remark.cliques": lambda p: construct.verify_remark(p.asche, p.final),
          "spectrum.S": lambda p: p.spectrum, "aut.order": cmd_aut,
          "maximality": cmd_maximality, "subscan.unique": cmd_subscan}
ALL_FNS = list(CLAIMS.values())
# what a Pipeline stage raises when its input is not what the claims need
STAGE_ERRORS = (golay.CodeValidationError, construct.ConstructionError,
                seidel.NotEquiangularError, seidel.SpectrumNotCertifiedError)


# a command: its help text, the OPTIONS it takes besides SHARED_OPTIONS,
# and the CLAIMS it certifies, in this order
Command = NamedTuple("Command", [("help", str), ("options", tuple), ("claims", tuple)])
COMMANDS = {
    "golay": Command("validate the [24,12,8] code and its 759 octads",
                     ("corrupt_generator",), ("golay.gates",)),
    "construct": Command("build the 72- and 54-line systems and certify the structure "
                         "of the 18 removed lines", ("emit_vectors",),
                         ("theorem1.count", "remark.cliques")),
    "spectrum": Command("certify the exact Seidel spectrum", (), ("spectrum.S",)),
    "aut": Command("certify the order-216 signed automorphism group", (), ("aut.order",)),
    "maximality": Command("exhaustive non-extendibility search", ("drop_line",), ("maximality",)),
    "subscan": Command("integral-spectrum scan over sub-Seidel matrices", ("orders",),
                       ("subscan.unique",)),
    "all": Command("run every certificate in dependency order",
                   ("corrupt_generator", "orders"), tuple(CLAIMS)),
}


def run_command(config):
    """The command's certificates. One whose Pipeline stage raises fails,
    with the stage error as its witness."""
    pipeline = Pipeline(config)
    certificates = []
    for claim_id in COMMANDS[config.command].claims:
        try:
            certificates.append(CLAIMS[claim_id](pipeline))
        except STAGE_ERRORS as exc:
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
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for name in SHARED_OPTIONS + spec.options:
            option = OPTIONS[name]
            p.add_argument(option.flag, dest=name, default=option.default, **option.kwargs)
    return RunConfig(**vars(parser.parse_args(argv)))


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
