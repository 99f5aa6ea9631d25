import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from equilines import cli, construct, exactlin, golay, search, seidel
from equilines.certificate import digest_of
from conftest import SRC, clear_switching_caches, subprocess_report
from test_search import masked_calls
from test_seidel import bfs_generate


def run(args):
    return cli.main(args)


def test_golay_command_passes(tmp_path):
    out = tmp_path / "golay.json"
    assert run(["golay", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["artifact_version"] == cli.ARTIFACT_VERSION
    (cert,) = report["certificates"]
    assert cert["claim_id"] == "golay.gates"
    assert cert["status"] == "pass"
    assert cert["details"]["octad_count"] == 759


def test_python_m_equilines_runs_the_cli(tmp_path):
    # the package runs as a module, with cli.main's exit code: 0 for a
    # passing certificate, 1 for a failing one, 2 for bad input
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for argv, code in [(["golay"], 0), (["golay", "--corrupt-generator"], 1), (["--bogus"], 2)]:
        done = subprocess.run([sys.executable, "-m", "equilines", *argv, "--out",
                               str(tmp_path / "report.json")], env=env, capture_output=True)
        assert done.returncode == code, done.stderr


def test_golay_corrupt_generator_fails(tmp_path):
    out = tmp_path / "bad.json"
    assert run(["golay", "--corrupt-generator", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    (cert,) = report["certificates"]
    assert cert["status"] == "fail"
    failed = {name for name, ok in cert["details"]["checks"].items() if not ok}
    assert failed == {"min_weight_8", "octad_count_759", "self_dual_generator",
                      "weight_distribution", "octads_through_each_coordinate_253"}
    assert cert["details"]["first_failure"]["check"] == "min_weight_8"


def test_golay_digest_stable():
    config = cli.RunConfig(command="golay")
    a = cli.cmd_golay(cli.Pipeline(config))
    b = cli.cmd_golay(cli.Pipeline(config))
    assert a.inputs_digest == b.inputs_digest
    assert a.details == b.details


def test_digest_refuses_values_json_cannot_serialise():
    assert digest_of({"m": 1}) == digest_of({"m": 1})
    with pytest.raises(TypeError):
        digest_of({"m": np.int64(1)})


def test_construct_command(tmp_path):
    out = tmp_path / "construct.json"
    assert run(["construct", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    ids = [c["claim_id"] for c in report["certificates"]]
    assert ids == ["theorem1.count", "remark.cliques"]
    checks = report["certificates"][0]["details"]["checks"]
    assert checks["final_count_54"] and checks["final_rank_18"]


def test_construct_emit_vectors(tmp_path):
    out = tmp_path / "vectors.json"
    assert run(["construct", "--emit-vectors", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    vectors = report["certificates"][0]["details"]["vectors"]
    assert len(vectors) == 54
    assert all(len(v) == 24 for v in vectors)
    octads = report["certificates"][0]["details"]["octads_1based"]
    assert all(len(o) == 8 and 1 in o for o in octads)


def test_emit_vectors_only_for_construct():
    assert run(["golay", "--emit-vectors"]) == 2


def test_report_round_trip(tmp_path):
    out = tmp_path / "r.json"
    assert run(["construct", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("argv", [["bogus"], ["construct", "--corrupt-generator"]],
                         ids=["unknown_command", "corrupt_construct"])
def test_unknown_command_and_misplaced_option_rejected(argv):
    assert run(argv) == 2


def test_bad_orders_rejected():
    assert run(["subscan", "--orders", "49"]) == 2


@pytest.mark.parametrize("line", ["0", "55", "-1", "x"])
def test_drop_line_out_of_range_rejected(line, capsys):
    # worded in the flag's terms: what was typed and the 1-based range
    assert run(["maximality", "--drop-line", line]) == 2
    err = capsys.readouterr().err
    assert f"argument --drop-line: must be a line from 1 to 54, not {line}\n" in err


def test_invalid_jobs_rejected():
    assert run(["golay", "--jobs", "0"]) == 2


@pytest.mark.parametrize("fields", [
    {"command": "subscan", "orders": (49,)},
    {"command": "subscan", "orders": ()},
    {"command": "all", "orders": (52, 54)},
    {"command": "maximality", "drop_line": -1},
    {"command": "maximality", "drop_line": 54},
    {"command": "maximality", "drop_line": 99},
    {"command": "golay", "jobs": 0},
    {"command": "bogus"},
    {"command": "golay", "emit_vectors": True},
    {"command": "construct", "corrupt_generator": True},
], ids=["order_49", "no_orders", "order_54", "drop_minus_1", "drop_54", "drop_99", "jobs_0",
        "unknown_command", "emit_vectors_golay", "corrupt_construct"])
def test_run_config_refuses_what_the_cli_refuses(fields):
    with pytest.raises(ValueError):
        cli.RunConfig(**fields)


@pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "maximality"])
def test_drop_line_refused_off_maximality(command):
    # with drop_line, maximality certifies control_extendible in place of
    # not_extendible, so `all` would pass without its non-extendibility claim
    with pytest.raises(ValueError, match=f"drop_line is not an option of {command}"):
        cli.RunConfig(command=command, drop_line=3)


@pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c not in ("subscan", "all")])
def test_orders_refused_off_subscan_and_all(command):
    with pytest.raises(ValueError, match=f"orders is not an option of {command}"):
        cli.RunConfig(command=command, orders=(52,))
    # compared once sorted: the default orders in another order are the default
    assert cli.RunConfig(command=command, orders=(53, 52, 51, 50, 50)).orders == cli.ORDERS


def test_run_config_cannot_be_changed_after_its_checks():
    config = cli.RunConfig(command="maximality", drop_line=3)
    with pytest.raises(AttributeError):
        config.command = "all"
    assert config.command == "maximality"


# one value other than the default per option: the CLI arguments that give
# it and the RunConfig value they stand for
NON_DEFAULT = {
    "output_path": (["--out", "r.json"], "r.json"),
    "jobs": (["--jobs", "2"], 2),
    "corrupt_generator": (["--corrupt-generator"], True),
    "emit_vectors": (["--emit-vectors"], True),
    "drop_line": (["--drop-line", "4"], 3),
    "orders": (["--orders", "53,52"], (52, 53)),
}


def test_cli_takes_a_flag_iff_run_config_takes_its_value():
    assert NON_DEFAULT.keys() == cli.OPTIONS.keys()
    taken = 0
    for command in cli.COMMANDS:
        for name, (argv, value) in NON_DEFAULT.items():
            try:
                parsed = cli._parse_args([command, *argv])
            except SystemExit as exc:
                assert exc.code == 2
                parsed = None
            try:
                config = cli.RunConfig(command=command, **{name: value})
            except ValueError:
                config = None
            assert parsed == config, (command, name)
            taken += config is not None
    # jobs and --out on all seven commands, and the six command options
    assert taken == 2 * 7 + 6


@pytest.mark.parametrize("fields", [
    {"command": "maximality", "drop_line": True},
    {"command": "maximality", "drop_line": 4.0},
    {"command": "maximality", "drop_line": np.int64(4)},
    {"command": "subscan", "orders": (53.0,)},
    {"command": "subscan", "orders": (52, 53.0)},
    {"command": "subscan", "orders": np.array([52])},
    {"command": "subscan", "orders": "52"},
    {"command": "subscan", "orders": 53},
    {"jobs": 1.5},
    {"jobs": True},
    {"command": "golay", "corrupt_generator": 1},
    {"command": "construct", "emit_vectors": "yes"},
], ids=["drop_true", "drop_float", "drop_numpy", "orders_float", "orders_mixed",
        "orders_numpy", "orders_str", "orders_int", "jobs_float", "jobs_true", "corrupt_int",
        "emit_str"])
def test_run_config_refuses_values_of_the_wrong_type(fields):
    # drop_line=True once dropped member 1, drop_line=4.0 ran with another
    # digest than 4, and orders=(53.0,) raised TypeError inside the scan;
    # orders=53 raised TypeError from the check itself
    (name,) = fields.keys() - {"command"}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cli.RunConfig(**fields)


def test_run_config_stores_orders_sorted_once_each():
    assert cli.RunConfig(orders=[53, 52, 53]).orders == (52, 53)
    reports = [cli.report_without_timings(cli.report_dict(cli.run_command(
        cli.RunConfig(command="subscan", orders=orders)))) for orders in ((52, 52), (52,))]
    assert reports[0] == reports[1]
    assert len(reports[0]["certificates"][0]["details"]["hits"]) == 9


@pytest.mark.parametrize("orders", ["", "52,", "x"],
                         ids=["empty", "trailing_comma", "non_integer"])
def test_empty_orders_rejected(capsys, orders):
    for command in ("subscan", "all"):
        assert run([command, "--orders", orders]) == 2
        out, err = capsys.readouterr()
        assert "[PASS]" not in out
        assert "--orders" in err and "50,51,52,53" in err


def test_failed_stage_build_is_not_cached():
    # the corrupted code builds but fails its gates; the line system built
    # from it raises, and each access must try again
    pipeline = cli.Pipeline(cli.RunConfig(command="all", corrupt_generator=True))
    for _ in range(2):
        with pytest.raises(construct.ConstructionError):
            pipeline.asche
    assert "asche" not in vars(pipeline)


def test_maximality_fails_on_an_extendible_system():
    # S54 less one member, checked as the claim and not as the control:
    # the sweep still covers 2^18 patterns, and it finds the lost line
    pipeline = cli.Pipeline(cli.RunConfig(command="maximality"))
    final = pipeline.final
    pipeline.__dict__["final"] = dataclasses.replace(final, vectors=final.vectors[1:])
    cert = cli.cmd_maximality(pipeline)
    checks = cert.details["checks"]
    assert checks["not_extendible"] is False and checks["patterns_2_pow_18"] is True
    assert cert.details["first_failure"]["check"] == "not_extendible"


def test_maximality_fails_on_a_system_of_rank_17():
    # the first 17 members of S54's basis: the sweep covers 2^17 patterns
    # and finds 106 witnesses in their span. On this input the two checks
    # fail together: no input of rank 18 fails patterns_2_pow_18, and this
    # one of rank 17 is extendible
    pipeline = cli.Pipeline(cli.RunConfig(command="maximality"))
    final = pipeline.final
    basis = search.greedy_basis(final.gram)[:17]
    pipeline.__dict__["final"] = dataclasses.replace(
        final, vectors=tuple(final.vectors[i] for i in basis))
    cert = cli.cmd_maximality(pipeline)
    failed = {name for name, ok in cert.details["checks"].items() if not ok}
    assert failed == {"not_extendible", "patterns_2_pow_18"}
    assert cert.details["first_failure"]["check"] == "not_extendible"
    assert cert.details["patterns_examined"] == 1 << 17


def test_construct_fails_on_a_changed_coordinate():
    # one coordinate of one member moved by 1: its norm and its angles to
    # the other 53 members change, and only the checks that read them fail
    pipeline = cli.Pipeline(cli.RunConfig(command="construct"))
    final = pipeline.final
    v = final.vectors[0]
    moved = dataclasses.replace(v, coords=(v.coords[0] + 1,) + v.coords[1:])
    pipeline.__dict__["final"] = dataclasses.replace(
        final, vectors=(moved,) + final.vectors[1:])
    cert = cli.cmd_construct(pipeline)
    failed = {name for name, ok in cert.details["checks"].items() if not ok}
    assert failed == {"pairwise_scaled_angle_pm16", "scaled_norms_80"}
    assert cert.details["first_failure"] == {
        "check": "pairwise_scaled_angle_pm16", "witness": [-17, -16, 15, 16]}


def test_spectrum_fails_on_a_multiplicity_moved_from_13_to_11(s54, monkeypatch):
    # S54's spectrum with one eigenvalue 13 claimed as 11: the chain over
    # -5, 7, 11, 13 after the quadratic still vanishes and reads the exact
    # multiplicities, so no nullity is computed, and each premise the move
    # breaks is named with its witness
    nullities = []
    monkeypatch.setattr(exactlin, "nullity_at", lambda m, lam: nullities.append(lam))
    claim = seidel.SpectrumClaim.make({-5: 36, 7: 6, 11: 9, 13: 1},
                                      quadratic=cli.S54_SPECTRUM.quadratic)
    cert = seidel.certify_spectrum(s54, claim)
    failed = {"nullity_at_11": {"claimed": 9, "exact": 8},
              "nullity_at_13": {"claimed": 1, "exact": 2},
              "trace_identity": -2, "trace_square_identity": 2814}
    assert nullities == []
    assert failed_checks(cert) == {"char_poly_matches", *failed}
    assert cert.details["first_failure"] == {
        "check": "char_poly_matches", "witness": {"failed_premises": failed}}


def test_aut_fails_on_a_sign_flipped_pair():
    # S54 with S[0, 1] and S[1, 0] negated: every generator found for it
    # preserves it, and its signed group has order 4
    pipeline = cli.Pipeline(cli.RunConfig(command="aut"))
    flipped = pipeline.seidel_matrix.array.copy()
    flipped[0, 1] = flipped[1, 0] = -flipped[0, 1]
    pipeline.__dict__["seidel_matrix"] = seidel.SeidelMatrix(flipped)
    cert = cli.cmd_aut(pipeline)
    failed = {name for name, ok in cert.details["checks"].items() if not ok}
    assert failed == {"signed_order_216"}
    assert cert.details["first_failure"] == {"check": "signed_order_216", "witness": 4}


def aut_with_recorded_generator_off(monkeypatch, name, off):
    """cmd_aut on S54 with the group that seidel.<name> returns, its first
    generator replaced by off(generator)."""
    real = getattr(seidel, name)

    def recorded(s):
        result = real(s)
        first, *rest = result.generators
        return dataclasses.replace(result, generators=(off(first), *rest))

    monkeypatch.setattr(seidel, name, recorded)
    cert = cli.cmd_aut(cli.Pipeline(cli.RunConfig(command="aut")))
    return {name for name, ok in cert.details["checks"].items() if not ok}


def test_aut_fails_on_a_signed_generator_with_one_sign_off(monkeypatch):
    # the sign of column 0 negated: the points (0, -1) and (0, +1) swap
    # images, and row 0 of M^T S M changes sign off the diagonal
    failed = aut_with_recorded_generator_off(
        monkeypatch, "signed_automorphism_group", lambda g: (g[1], g[0], *g[2:]))
    assert failed == {"signed_generators_preserve_matrix"}


def test_aut_fails_on_a_permutation_generator_with_one_target_off(monkeypatch):
    # vertex 0 sent where vertex 1 goes: rows 0 and 1 of the relabelled
    # matrix coincide, so it has a 0 off its diagonal
    failed = aut_with_recorded_generator_off(
        monkeypatch, "automorphism_order", lambda g: (g[1], *g[1:]))
    assert failed == {"permutation_generators_preserve_matrix"}


GOLDEN_ALL = Path(__file__).parent / "data" / "all_report.json"


def golden_details(claim_id):
    """The details of claim_id's certificate in the golden whole-run report."""
    (details,) = [c["details"] for c in json.loads(GOLDEN_ALL.read_text())["certificates"]
                  if c["claim_id"] == claim_id]
    return details


def failed_checks(cert):
    return {name for name, ok in cert.details["checks"].items() if not ok}


def golay_certificate(code):
    """cmd_golay on a pipeline whose gated code is code and its gates."""
    pipeline = cli.Pipeline(cli.RunConfig(command="golay"))
    pipeline.__dict__["gated_code"] = (code, golay.validation_gates(code))
    return cli.cmd_golay(pipeline)


def test_golay_fails_on_a_dependent_generator_row(code):
    # a GolayCode built directly, row 11 replaced by rows 0 + 1, with the
    # true words and octads: the sum of two rows of a self-orthogonal set
    # keeps every intersection even, so only the rank reads false
    rows = code.generator[:11] + (code.generator[0] ^ code.generator[1],)
    cert = golay_certificate(dataclasses.replace(code, generator=rows))
    assert failed_checks(cert) == {"rank_12"}
    assert cert.details["first_failure"] == {"check": "rank_12", "witness": None}


@pytest.mark.parametrize("words", [lambda w: w[:-1], lambda w: w + w[-1:]],
                         ids=["dropped", "repeated"])
def test_golay_fails_on_a_dropped_or_repeated_word(code, words):
    # the all-ones word dropped or listed twice: weight_distribution counts
    # the same list of words, so its count of weight 24 changes with the
    # word count and it always fails alongside word_count_4096
    cert = golay_certificate(dataclasses.replace(code, words=words(code.words)))
    assert code.words[-1] == (1 << 24) - 1
    assert failed_checks(cert) == {"word_count_4096", "weight_distribution"}
    assert cert.details["first_failure"] == {"check": "word_count_4096", "witness": None}


def construct_with_asche(vectors, count, rank):
    """cmd_construct with the run's final stage kept and its asche stage
    replaced by the system of vectors, its count and rank proved by
    construct._system_from."""
    pipeline = cli.Pipeline(cli.RunConfig(command="construct"))
    pipeline.final                              # built from the true asche first
    pipeline.__dict__["asche"] = construct._system_from(vectors, count, rank)
    return cli.cmd_construct(pipeline)


def test_construct_fails_on_an_asche_stage_of_71_lines(asche, final54):
    # one of the 54 kept lines dropped from the 72: the other 71 span the
    # same 19 dimensions and the 18 removed lines stay removed
    vectors = [v for v in asche.vectors if v.source != final54.vectors[0].source]
    cert = construct_with_asche(vectors, 71, 19)
    assert failed_checks(cert) == {"asche_count_72"}
    assert cert.details["first_failure"] == {"check": "asche_count_72", "witness": 71}


def test_construct_fails_on_an_asche_stage_of_rank_20(code, asche, final54):
    # a removed line replaced by the lift of the first octad through
    # coordinate 1 that the filters reject: still 72 lines and 18 removed,
    # but they span 20 dimensions
    sources = {v.source for v in asche.vectors}
    other = next(d for d in code.octads if d & 1 and d not in sources)
    vectors = list(asche.vectors)
    vectors[construct.removed_indices(asche, final54)[0]] = construct.lift(other)
    cert = construct_with_asche(vectors, 72, 20)
    assert failed_checks(cert) == {"asche_rank_19"}
    assert cert.details["first_failure"] == {"check": "asche_rank_19", "witness": 20}


def test_subscan_fails_on_a_sign_flipped_pair():
    # S54 with S[0, 1] and S[1, 0] negated, scanned in the window of S54's
    # passing spectrum certificate: the screen rejects every representative,
    # so there is no hit and no class
    pipeline = cli.Pipeline(cli.RunConfig(command="subscan"))
    spectrum = pipeline.spectrum
    flipped = pipeline.seidel_matrix.array.copy()
    flipped[0, 1] = flipped[1, 0] = -flipped[0, 1]
    pipeline.__dict__["seidel_matrix"] = seidel.SeidelMatrix(flipped)
    pipeline.__dict__["spectrum"] = spectrum
    cert = cli.cmd_subscan(pipeline)
    assert failed_checks(cert) == {"hits_exist", "unique_equivalence_class"}
    assert cert.details["first_failure"] == {"check": "unique_equivalence_class", "witness": 0}
    assert cert.details["hits"] == [] and cert.details["screened_ambiguous"] == 0


def subscan_with_recorded_hit_off(monkeypatch, off):
    """cmd_subscan on S54 with the result that search.subseidel_scan
    returns, its first hit (order, removed, claim) replaced by off(*hit)."""
    real = search.subseidel_scan

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        first, *rest = result.hits
        return dataclasses.replace(result, hits=[off(*first), *rest])

    monkeypatch.setattr(search, "subseidel_scan", recorded)
    return cli.cmd_subscan(cli.Pipeline(cli.RunConfig(command="subscan")))


def test_subscan_fails_on_a_recorded_hit_of_order_51(monkeypatch):
    cert = subscan_with_recorded_hit_off(monkeypatch, lambda order, removed, claim:
                                         (51, removed, claim))
    assert failed_checks(cert) == {"representative_order_52"}
    assert cert.details["first_failure"] == {"check": "representative_order_52",
                                             "witness": [51, 52]}


def test_subscan_fails_on_a_recorded_hit_with_the_spectrum_of_s54(monkeypatch):
    cert = subscan_with_recorded_hit_off(monkeypatch, lambda order, removed, claim:
                                         (order, removed, cli.S54_SPECTRUM))
    assert failed_checks(cert) == {"representative_spectrum"}
    assert cert.details["first_failure"]["check"] == "representative_spectrum"


def relabelled_copies(final):
    """(perm, signs, copy) for three copies of a line system: member i of
    the copy is member perm[i] of final, negated where signs[i] is -1. A
    pure permutation, a pure sign switch, and one of each from
    random.Random(5)."""
    n = len(final.vectors)
    rng = random.Random(5)
    pure_perm = list(range(n))
    rng.shuffle(pure_perm)
    mixed = list(range(n))
    rng.shuffle(mixed)
    for perm, signs in [(pure_perm, [1] * n),
                        (list(range(n)), [rng.choice([1, -1]) for _ in range(n)]),
                        (mixed, [rng.choice([1, -1]) for _ in range(n)])]:
        vectors = tuple(dataclasses.replace(final.vectors[j], coords=tuple(
            sign * x for x in final.vectors[j].coords)) for j, sign in zip(perm, signs))
        yield perm, signs, dataclasses.replace(final, vectors=vectors)


def test_spectrum_and_subscan_agree_on_relabelled_and_switched_copies(fresh_switching_caches):
    # relabelling and negating members changes no claim: spectrum.S and
    # subscan.unique pass with the golden notes, and the hits are the golden
    # hits carried over by the relabelling
    golden_spectrum, golden_scan = golden_details("spectrum.S"), golden_details("subscan.unique")
    notes = ("subsets_examined", "orbit_representatives", "screened_ambiguous",
             "equivalence_class_count")
    base = cli.Pipeline(cli.RunConfig(command="all"))
    final, s54 = base.final, base.seidel_matrix
    for perm, _signs, copy in relabelled_copies(final):
        clear_switching_caches()
        pipeline = cli.Pipeline(cli.RunConfig(command="all"))
        pipeline.__dict__["final"] = copy
        assert pipeline.seidel_matrix != s54
        spectrum, scan = pipeline.spectrum, cli.cmd_subscan(pipeline)
        assert spectrum.passed and scan.passed
        assert spectrum.details == golden_spectrum
        assert {k: scan.details[k] for k in notes} == {k: golden_scan[k] for k in notes}
        position = {j: i for i, j in enumerate(perm)}       # member j of final is member i
        expected = {(h["order"], frozenset(position[j - 1] + 1 for j in h["removed_1based"]),
                     json.dumps(h["spectrum"])) for h in golden_scan["hits"]}
        assert {(h["order"], frozenset(h["removed_1based"]), json.dumps(h["spectrum"]))
                for h in scan.details["hits"]} == expected


def test_aut_and_maximality_agree_on_relabelled_and_switched_copies(fresh_switching_caches):
    # the signed group of each copy is the golden group carried over by the
    # relabelling, and the maximality search examines 2^18 patterns over
    # 18 independent members of the copy
    base = cli.Pipeline(cli.RunConfig(command="all"))
    golden = seidel.signed_automorphism_group(base.seidel_matrix).elements
    for perm, signs, copy in relabelled_copies(base.final):
        clear_switching_caches()
        pipeline = cli.Pipeline(cli.RunConfig(command="all"))
        pipeline.__dict__["final"] = copy
        aut, maximality = cli.cmd_aut(pipeline), cli.cmd_maximality(pipeline)
        assert aut.passed and maximality.passed
        assert aut.details["signed_order"] == cli.S54_AUT_ORDER
        assert maximality.details["patterns_examined"] == 1 << 18
        # point (i, s) of the copy is point (perm[i], signs[i] s) of final
        onto = seidel._on_points(perm, signs)
        back = seidel._inverse(onto)
        carried = {seidel._compose(back, seidel._compose(m, onto)) for m in golden}
        elements = seidel.signed_automorphism_group(pipeline.seidel_matrix).elements
        assert len(carried) == cli.S54_AUT_ORDER and set(elements) == carried
        basis = maximality.details["basis_indices_1based"]
        assert len(basis) == 18
        assert exactlin.rank([copy.vectors[i - 1].coords for i in basis]) == 18


def test_permutation_group_on_relabelled_and_switched_copies(s54, fresh_switching_caches):
    # the plain group is not a switching invariant. On a relabelled S54,
    # also switched on an orbit of the plain group, it is the golden group
    # carried over; on copies switched at random it is the part of the
    # copy's signed group with every sign +1 (on these ten, the identity)
    golden = seidel.automorphism_order(s54).elements
    orbit = {g[0] for g in golden}
    rng = random.Random(5)
    perm = rng.sample(range(54), 54)
    carried = {seidel._compose(seidel._inverse(perm), seidel._compose(g, perm)) for g in golden}
    moved = seidel.permute(s54, perm)
    for s in (moved, seidel.switch(moved, [-1 if j in orbit else 1 for j in perm])):
        clear_switching_caches()
        plain = seidel.automorphism_order(s)
        assert plain.order == 36 and set(plain.elements) == carried
        assert bfs_generate(tuple(range(54)), plain.generators, seidel._compose) == carried
    for _ in range(10):
        perm = rng.sample(range(54), 54)
        s = seidel.switch(seidel.permute(s54, perm), [rng.choice((1, -1)) for _ in range(54)])
        clear_switching_caches()
        plain = seidel.automorphism_order(s)
        signed = map(seidel.signed_pairs, seidel.signed_automorphism_group(s).elements)
        expected = [tuple(t for t, _ in pairs) for pairs in signed
                    if all(sign == 1 for _, sign in pairs)]
        assert list(plain.elements) == expected == sorted(expected)
        assert all(seidel.permute(s, g) == s for g in expected)
        assert bfs_generate(tuple(range(54)), plain.generators, seidel._compose) == set(expected)


def test_aut_generators_generate_the_carried_groups_on_ten_copies(s54, fresh_switching_caches):
    # on each relabelled copy, switched at random or not at all, the
    # reported generators of aut.order generate the golden signed group
    # carried over, and its part with every sign +1 (order 36 unswitched)
    golden = seidel.signed_automorphism_group(s54).elements
    rng = random.Random(163)
    for k in range(10):
        perm = rng.sample(range(54), 54)
        signs = [rng.choice((1, -1)) if k % 2 else 1 for _ in range(54)]
        clear_switching_caches()
        pipeline = cli.Pipeline(cli.RunConfig(command="aut"))
        pipeline.__dict__["seidel_matrix"] = seidel.switch(seidel.permute(s54, perm), signs)
        aut = cli.cmd_aut(pipeline)
        assert aut.passed
        # point (i, s) of the copy is point (perm[i], signs[i] s) of S54
        onto = seidel._on_points(perm, signs)
        back = seidel._inverse(onto)
        carried = {seidel._compose(back, seidel._compose(m, onto)) for m in golden}
        signed = [tuple(2 * (t - 1) + (sign * side > 0) for t, sign in g for side in (-1, 1))
                  for g in aut.details["signed_generators_1based"]]
        assert bfs_generate(tuple(range(108)), signed, seidel._compose) == carried
        plain = {tuple(x // 2 for x in m[1::2]) for m in carried if all(x % 2 for x in m[1::2])}
        reported = [tuple(i - 1 for i in g) for g in aut.details["permutation_generators_1based"]]
        assert bfs_generate(tuple(range(54)), reported, seidel._compose) == plain
        assert k % 2 or len(plain) == 36


def test_construct_and_remark_agree_on_a_relabelled_copy():
    # a pure permutation of the 54 members keeps their octads: theorem1.count
    # passes with the golden details and digest, remark.cliques with the
    # golden details; remark.cliques digests the final octads in order, so
    # its digest differs from the golden one, which the unpermuted run gives
    golden = {c["claim_id"]: c for c in json.loads(GOLDEN_ALL.read_text())["certificates"]}
    base = cli.Pipeline(cli.RunConfig(command="all"))
    perm, signs, copy = next(relabelled_copies(base.final))
    assert perm != sorted(perm) and set(signs) == {1}
    pipeline = cli.Pipeline(cli.RunConfig(command="all"))
    pipeline.__dict__["final"] = copy
    count, remark = cli.cmd_construct(pipeline), construct.verify_remark(pipeline.asche, copy)
    assert count.passed and remark.passed
    expected = golden["theorem1.count"]
    assert (count.details, count.inputs_digest) == (expected["details"], expected["inputs_digest"])
    expected = golden["remark.cliques"]
    assert json.loads(json.dumps(remark.details)) == expected["details"]
    assert remark.inputs_digest != expected["inputs_digest"]
    assert construct.verify_remark(base.asche, base.final).inputs_digest == expected["inputs_digest"]


def test_subscan_restricted_orders(tmp_path):
    out = tmp_path / "s.json"
    assert run(["subscan", "--orders", "53", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    (cert,) = report["certificates"]
    assert cert["details"]["hits"] == []
    assert cert["details"]["subsets_examined"] == {"53": 54}


def test_subscan_coverage_fails_for_non_group(monkeypatch):
    # a 3-cycle without its square is not closed: orbit counts overshoot
    cycle = (1, 2, 0) + tuple(range(3, 54))
    monkeypatch.setattr(search, "switching_automorphisms",
                        lambda s: [tuple(range(54)), cycle])
    cert = cli.cmd_subscan(cli.Pipeline(cli.RunConfig(command="subscan", orders=(53,))))
    assert not cert.passed
    assert cert.details["checks"]["subsets_covered"] is False
    assert cert.details["first_failure"] == {
        "check": "subsets_covered", "witness": {"53": [55, 54]}}


def test_subscan_coverage_fails_for_non_group_pairs(monkeypatch):
    # the same 3-cycle at k = 2: {0, 1} and {0, 2}, {1, 2} overlap, so the
    # distinct-image counts overshoot C(54, 2) = 1431
    cycle = (1, 2, 0) + tuple(range(3, 54))
    monkeypatch.setattr(search, "switching_automorphisms",
                        lambda s: [tuple(range(54)), cycle])
    cert = cli.cmd_subscan(cli.Pipeline(cli.RunConfig(command="subscan", orders=(52,))))
    assert not cert.passed
    assert cert.details["checks"]["subsets_covered"] is False
    assert cert.details["first_failure"] == {
        "check": "subsets_covered", "witness": {"52": [1481, 1431]}}


def test_signed_group_computed_once_per_pipeline(fresh_switching_caches):
    pipeline = cli.Pipeline(cli.RunConfig(command="all", orders=(53,)))
    assert cli.cmd_aut(pipeline).passed
    assert cli.cmd_subscan(pipeline).passed
    info = seidel.signed_automorphism_group.cache_info()
    # one search; read back by automorphism_order and the scan
    assert (info.misses, info.hits) == (1, 2)


def test_duplicate_orders_are_scanned_once(tmp_path):
    reports = []
    for orders in ("52,52", "52"):
        out = tmp_path / "subscan.json"
        assert run(["subscan", "--orders", orders, "--out", str(out)]) == 0
        reports.append(cli.report_without_timings(json.loads(out.read_text())))
    assert reports[0] == reports[1]
    assert len(reports[0]["certificates"][0]["details"]["hits"]) == 9


def test_uncertified_spectrum_stops_the_scan_before_any_screen(tmp_path, monkeypatch):
    # the quadratic's constant term moved: lambda_max would be
    # 12 + sqrt(19) = 16.36..., a window that drops the eigenvalue 17 of
    # every order-52 hit
    wrong = seidel.SpectrumClaim.make(dict(cli.S54_SPECTRUM.integer_eigs),
                                      quadratic=(-24, 125))
    assert wrong.integer_window() == range(-5, 17)
    screened = []

    def no_screen(x, factors, p, stride, mask):
        screened.append(len(x))
        raise AssertionError("screened with an uncertified window")

    monkeypatch.setattr(cli, "S54_SPECTRUM", wrong)
    masked_calls(monkeypatch, no_screen)
    out = tmp_path / "r.json"
    assert run(["all", "--out", str(out)]) == 1
    certs = {c["claim_id"]: c for c in json.loads(out.read_text())["certificates"]}
    assert certs["spectrum.S"]["details"]["first_failure"]["check"] == "char_poly_matches"
    assert certs["subscan.unique"]["details"]["first_failure"] == {
        "check": "stages_built",
        "witness": "SpectrumNotCertifiedError: spectrum.S failed char_poly_matches, "
                   "so S has no certified interlacing window"}
    assert [c for c, cert in certs.items() if cert["status"] == "fail"] == [
        "spectrum.S", "subscan.unique"]
    assert not screened


def test_subscan_alone_matches_the_whole_run(tmp_path):
    out = tmp_path / "s.json"
    assert run(["subscan", "--out", str(out)]) == 0
    alone = cli.report_without_timings(json.loads(out.read_text()))["certificates"]
    whole = cli.report_without_timings(cli.report_dict(cli.run_command(cli.RunConfig())))
    assert alone == [c for c in whole["certificates"] if c["claim_id"] == "subscan.unique"]


def test_exact_spectral_work_of_a_whole_run_is_annihilator_chains(monkeypatch):
    # spectrum.S is proved by one chain over -5, 7, 11, 13 after its
    # quadratic (4 nullities before), and the one order-52 representative
    # by one compute_spectrum call, whose chain vanishes: no nullity at all
    nullities, spectra = [], []
    real_nullity, real_spectrum = exactlin.nullity_at, seidel.compute_spectrum

    def counted_nullity(m, lam):
        nullities.append(len(m))
        return real_nullity(m, lam)

    def counted_spectrum(s, candidates):
        spectra.append(s.n)
        return real_spectrum(s, candidates)

    monkeypatch.setattr(exactlin, "nullity_at", counted_nullity)
    monkeypatch.setattr(seidel, "compute_spectrum", counted_spectrum)
    assert all(c.passed for c in cli.run_command(cli.RunConfig()))
    assert nullities == []
    assert spectra == [52]
    assert not hasattr(exactlin, "positive_definite")
    assert not hasattr(seidel, "integer_window")


def test_a_whole_run_makes_one_float64_chain_pass_per_spectrum(monkeypatch):
    # spectrum.S and the order-52 survivor each take one float64 chain
    # pass over p0 = PRIMES[-1] and the fewest further primes whose
    # product exceeds the bound on the chain's entries: (53 + 24 + 107)
    # prod (53 + |lam|) after S's quadratic x^2 - 24x + 107, and
    # prod (51 + |lam|) over the odd window members for the survivor
    real, passes = exactlin.product_chain, []

    def spy(x, factors, p, stride, mask=1.0):
        if x.dtype == np.float64:
            passes.append((x.shape[-1], [-int(f[0, 0]) for f in factors],
                           [int(q) for q in np.ravel(p)]))
        return real(x, factors, p, stride, mask)

    monkeypatch.setattr(exactlin, "product_chain", spy)
    assert all(c.passed for c in cli.run_command(cli.RunConfig()))
    odd = [lam for lam in cli.S54_SPECTRUM.integer_window() if lam % 2]
    assert [pass_[:2] for pass_ in passes] == [(54, [-5, 7, 11, 13]), (52, odd)]
    b, c = cli.S54_SPECTRUM.quadratic
    for (n, lams, primes), q_bound in zip(passes, (53 + abs(b) + abs(c), 1)):
        bound = q_bound * math.prod(n - 1 + abs(lam) for lam in lams)
        assert primes[0] == exactlin.PRIMES[-1] and len(set(primes)) == len(primes)
        assert set(primes) <= set(exactlin.PRIMES)
        assert math.prod(primes) > bound >= math.prod(primes[:-1])


def test_maximality_control_run(tmp_path):
    out = tmp_path / "m.json"
    assert run(["maximality", "--drop-line", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    (cert,) = report["certificates"]
    assert cert["details"]["checks"]["control_extendible"]


def test_drop_line_reports_match_golden():
    # tests/data/drop_line_reports.json: `equilines maximality --drop-line N`
    # after report_without_timings, keyed by N = 1..54
    golden = json.loads((Path(__file__).parent / "data" / "drop_line_reports.json").read_text())
    assert list(golden) == sorted(str(n) for n in range(1, 55))
    for n, expected in golden.items():
        config = cli._parse_args(["maximality", "--drop-line", n])
        assert cli.report_without_timings(cli.report_dict(cli.run_command(config))) == expected, n


def test_determinism_across_hash_seeds(tmp_path):
    # --jobs is accepted; the reports of two fresh interpreters under
    # different hash seeds are identical
    reports = [subprocess_report(tmp_path / f"{seed}.json", seed,
                                 "all", "--orders", "53", "--jobs", "2")
               for seed in (0, 12345)]
    assert reports[0] == reports[1]
    assert [c["status"] for c in reports[0]["certificates"]] == ["pass"] * 7


def test_exit_code_one_on_certificate_failure():
    config = cli.RunConfig(command="golay", corrupt_generator=True)
    certs = cli.run_command(config)
    assert not certs[0].passed


def test_whole_run_negative_control_reports(tmp_path):
    # the corrupted code builds and fails its gates; every later stage raises
    out = tmp_path / "r.json"
    assert run(["all", "--corrupt-generator", "--out", str(out)]) == 1
    certs = json.loads(out.read_text())["certificates"]
    assert [c["claim_id"] for c in certs] == list(cli.CLAIMS)
    assert all(c["status"] == "fail" for c in certs)
    gates = certs[0]["details"]["checks"]
    assert not all(gates.values()) and "stages_built" not in gates
    for cert in certs[1:]:
        assert cert["details"]["first_failure"] == {
            "check": "stages_built",
            "witness": "ConstructionError: expected 72 lines, got 0"}


def test_code_error_fails_every_certificate(monkeypatch):
    def reject(generator):
        raise golay.CodeValidationError("no code")
    monkeypatch.setattr(golay, "generate_code", reject)
    certs = cli.run_command(cli.RunConfig(command="all"))
    assert [c.claim_id for c in certs] == list(cli.CLAIMS)
    assert all(c.details["first_failure"] == {
        "check": "stages_built", "witness": "CodeValidationError: no code"}
        for c in certs)


def test_stage_error_keeps_each_claims_digest(monkeypatch):
    # a certificate failed by a stage error digests the inputs its claim
    # digests in a run that builds every stage; remark.cliques and
    # spectrum.S digest the systems and the matrix, which are never built
    configs = [cli.RunConfig(command="all"),
               cli.RunConfig(command="golay", corrupt_generator=True),
               cli.RunConfig(command="maximality", drop_line=4),
               cli.RunConfig(command="subscan", orders=(52, 53))]
    built = [cli.run_command(config) for config in configs]

    def reject(generator):
        raise golay.CodeValidationError("no code")
    monkeypatch.setattr(golay, "generate_code", reject)
    unbuilt = {"remark.cliques": {"full": None, "final": None},
               "spectrum.S": {"matrix": None, "claim": cli.S54_SPECTRUM.as_dict()}}
    for config, certs in zip(configs, built):
        failed = cli.run_command(config)
        assert [c.claim_id for c in failed] == [c.claim_id for c in certs]
        for cert, passing in zip(failed, certs):
            assert cert.details["first_failure"]["check"] == "stages_built"
            if cert.claim_id in unbuilt:
                assert cert.inputs_digest == digest_of(unbuilt[cert.claim_id])
                assert cert.inputs_digest != passing.inputs_digest
            else:
                assert cert.inputs_digest == passing.inputs_digest
    digests = [c.inputs_digest for c in cli.run_command(configs[0])]
    assert len(set(digests)) == len(cli.CLAIMS)


def test_certify_all_builds_the_code_and_asche_system_once(monkeypatch):
    calls = Counter()
    for module, name in ((golay, "generate_code"), (construct, "asche_system")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert all(c.passed for c in cli.run_command(cli.RunConfig()))
    assert calls == {"generate_code": 1, "asche_system": 1}
    # the corrupted control generates one code too, from the flipped rows
    calls.clear()
    (cert,) = cli.run_command(cli.RunConfig(command="golay", corrupt_generator=True))
    assert not cert.passed
    assert calls == {"generate_code": 1}


def test_certify_all_gates_the_code_once(monkeypatch):
    # golay.gates reads the gates the pipeline computed; the corrupted
    # control gates only the code of the flipped rows
    real, gated, generator = golay.validation_gates, [], golay.build_generator()

    def counted(code):
        gated.append(code.generator)
        return real(code)

    monkeypatch.setattr(golay, "validation_gates", counted)
    assert all(c.passed for c in cli.run_command(cli.RunConfig()))
    assert gated == [generator]
    gated.clear()
    (cert,) = cli.run_command(cli.RunConfig(command="golay", corrupt_generator=True))
    assert not cert.passed
    assert gated == [(generator[0] ^ 1 << 13,) + generator[1:]]


def test_no_certificate_runs_bareiss(monkeypatch):
    # the maximality basis and every rank come from the modular kernel
    def fail(*args):
        raise RuntimeError("Bareiss elimination run")
    monkeypatch.setattr(exactlin, "pivots", fail)
    monkeypatch.setattr(exactlin, "bareiss_det", fail)
    assert all(c.passed for c in cli.run_command(cli.RunConfig()))
    (cert,) = cli.run_command(cli.RunConfig(command="maximality", drop_line=4))
    assert cert.passed and cert.details["witnesses"]


def test_readme_cli_lines_parse():
    # every equilines line of README's CLI block, comment stripped, parses
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
             if line.startswith("equilines ")]
    assert len(lines) >= 7
    for args in lines:
        cli._parse_args(args)


def test_readme_command_table_matches_commands():
    # README's table of each command's options and claims, read back; its
    # `all` row names no claim but says "all seven, in the order above"
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = [line.split("|")[1:4] for line in text.splitlines() if line.startswith("| `")]
    table = {command.strip(" `"): (re.findall(r"--[a-z-]+", options),
                                   re.findall(r"`([\w.]+)`", claims))
             for command, options, claims in rows}
    assert table == {command: ([cli.OPTIONS[name].flag for name in spec.options],
                               [] if command == "all" else list(spec.claims))
                     for command, spec in cli.COMMANDS.items()}
    assert cli.COMMANDS["all"].claims == tuple(c for _, claims in table.values() for c in claims)


def test_unwritable_out_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run(["golay", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report to {out}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_internal_error_names_type_and_place(monkeypatch, capsys):
    def fail(config):
        raise KeyError("stage")
    monkeypatch.setattr(cli, "run_command", fail)
    assert run(["golay"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: KeyError: 'stage'\n")
    line = fail.__code__.co_firstlineno + 1
    assert f"raised at {__file__}:{line} in fail" in err
