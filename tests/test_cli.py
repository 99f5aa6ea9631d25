import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from equilines import cli, construct, exactlin, golay, search, seidel
from equilines.certificate import digest_of


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


def test_golay_corrupt_generator_fails(tmp_path):
    out = tmp_path / "bad.json"
    assert run(["golay", "--corrupt-generator", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    (cert,) = report["certificates"]
    assert cert["status"] == "fail"
    assert cert["details"]["first_failure"]["check"]


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


def test_bad_orders_rejected():
    assert run(["subscan", "--orders", "49"]) == 2


@pytest.mark.parametrize("line", ["0", "55", "-1"])
def test_drop_line_out_of_range_rejected(line):
    assert run(["maximality", "--drop-line", line]) == 2


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
], ids=["order_49", "no_orders", "order_54", "drop_minus_1", "drop_54", "drop_99", "jobs_0"])
def test_run_config_refuses_what_the_cli_refuses(fields):
    with pytest.raises(ValueError):
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


def test_signed_group_computed_once_per_pipeline():
    seidel.signed_automorphism_group.cache_clear()
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

    def no_screen(factors, v, removed):
        screened.append(len(removed))
        raise AssertionError("screened with an uncertified window")

    monkeypatch.setattr(cli, "S54_SPECTRUM", wrong)
    monkeypatch.setattr(search, "_screen", no_screen)
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


def test_maximality_control_run(tmp_path):
    out = tmp_path / "m.json"
    assert run(["maximality", "--drop-line", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    (cert,) = report["certificates"]
    assert cert["details"]["checks"]["control_extendible"]


def test_determinism_across_job_counts(tmp_path):
    reports = []
    for jobs in (1, 2):
        config = cli.RunConfig(command="all", orders=(53,), jobs=jobs)
        certs = cli.run_command(config)
        reports.append(cli.report_without_timings(cli.report_dict(certs)))
    assert reports[0] == reports[1]


def test_exit_code_one_on_certificate_failure():
    config = cli.RunConfig(command="golay", corrupt_generator=True)
    certs = cli.run_command(config)
    assert not certs[0].passed


def test_whole_run_negative_control_reports(tmp_path):
    # the corrupted code builds and fails its gates; every later stage raises
    out = tmp_path / "r.json"
    assert run(["all", "--corrupt-generator", "--out", str(out)]) == 1
    certs = json.loads(out.read_text())["certificates"]
    assert [c["claim_id"] for c in certs] == list(cli.CLAIM_IDS.values())
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
    assert [c.claim_id for c in certs] == list(cli.CLAIM_IDS.values())
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
    assert len(set(digests)) == len(cli.CLAIM_IDS)


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
