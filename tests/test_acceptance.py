"""Acceptance gate: every top-level claim checked at its exact tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from equilines import cli, construct, exactlin, golay, search, seidel
from conftest import dot, subprocess_report
from test_seidel import brute_force_automorphism_count, claim_poly


@pytest.fixture(scope="module")
def full_scan(s54, s54_window):
    return search.subseidel_scan(s54, s54_window, orders=(50, 51, 52, 53))


def report(number, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_golay_gates(code):
    t0 = time.monotonic()
    dist = golay.weight_distribution(code)
    gates = golay.validation_gates(code)
    ok = (
        len(code.words) == 4096
        and dist == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
        and min(w for w in dist if w > 0) == 8
        and gates["c1_in_code"]
        and gates["c2_in_code"]
        and all(gates.values())
    )
    report(1, ok, f"golay gates, weight distribution {dist} "
                  f"({time.monotonic() - t0:.2f}s)")


def test_criterion_2_construction_counts(asche, final54):
    t0 = time.monotonic()
    inners = {
        dot(asche.vectors[i], asche.vectors[j])
        for i in range(72)
        for j in range(i + 1, 72)
    }
    ok = (
        len(asche) == 72
        and asche.ambient_dim == 19
        and len(final54) == 54
        and final54.ambient_dim == 18
        and inners <= {16, -16}
    )
    report(2, ok, f"72 lines rank 19 -> 54 lines rank 18, scaled angles "
                  f"{sorted(inners)} ({time.monotonic() - t0:.2f}s)")


def test_criterion_3_remark(asche, final54):
    t0 = time.monotonic()
    cert = construct.verify_remark(asche, final54)
    report(3, cert.passed,
           f"removed 18 lines split into two 9-cliques, two cross-partners "
           f"each ({time.monotonic() - t0:.2f}s)")


def test_criterion_4_spectrum(s54):
    t0 = time.monotonic()
    cert = seidel.certify_spectrum(s54, cli.S54_SPECTRUM)
    claimed = claim_poly(cli.S54_SPECTRUM)
    explicit = exactlin.poly_from_roots([-5] * 36 + [7] * 6 + [11] * 8 + [13] * 2)
    explicit = exactlin.poly_mul(explicit, [107, -24, 1])
    ok = (cert.passed and claimed == explicit
          and exactlin.char_poly(s54.rows) == claimed)
    report(4, ok, f"char poly = (x+5)^36 (x-7)^6 (x-11)^8 (x-13)^2 "
                  f"(x^2-24x+107), by nullities and trace identities, "
                  f"cross-checked by interpolation "
                  f"({time.monotonic() - t0:.2f}s)")


def test_criterion_5_automorphism_order(s54):
    # The permutation group {P : P^T S P = S} has order 36, not 216; the
    # claimed 216 is attained by the group of signed permutation matrices
    # preserving S (216 = 2 * 4 * 27 by descendant counting). The signed
    # group is computed with verified generators; the permutation group is
    # read off it as its elements with all signs +1, and the definition
    # mismatch is flagged rather than hidden.
    t0 = time.monotonic()
    perm = seidel.automorphism_order(s54)
    signed = seidel.signed_automorphism_group(s54)
    perm_ok = all(seidel.permute(s54, g).rows == s54.rows for g in perm.generators)
    signed_ok = all(seidel._signed_preserves(s54, g) for g in signed.generators)
    ok = (
        perm_ok
        and signed_ok
        and signed.order == 216
        and perm.order == 36
        and signed.order % perm.order == 0
    )
    report(5, ok, f"|Aut(S)| = 216 as signed permutation matrices "
                  f"(plain permutation subgroup has order {perm.order}; "
                  f"mismatch flagged) ({time.monotonic() - t0:.2f}s)")


def test_criterion_6_non_extendibility(final54):
    t0 = time.monotonic()
    main = search.check_extendibility(final54)
    kept = [v for i, v in enumerate(final54.vectors) if i != 0]
    control_system = construct.LineSystem(
        vectors=tuple(kept),
        ambient_dim=exactlin.rank([list(v.coords) for v in kept]),
    )
    control = search.check_extendibility(control_system)
    ok = (
        not main.extendible
        and main.patterns_examined == 1 << 18
        and control.extendible
    )
    report(6, ok, f"no 55th line among {main.patterns_examined} sign "
                  f"patterns; drop-one control finds a witness "
                  f"({time.monotonic() - t0:.2f}s)")


def test_criterion_7_subseidel_scan(full_scan):
    t0 = time.monotonic()
    result = full_scan
    expected_counts = {50: math.comb(54, 4), 51: math.comb(54, 3),
                       52: math.comb(54, 2), 53: 54}
    expected_spectrum = seidel.SpectrumClaim.make(
        {-5: 34, 3: 1, 5: 1, 7: 6, 11: 7, 13: 2, 17: 1}
    )
    ok = (
        result.subsets_examined == expected_counts
        and sum(expected_counts.values()) == 342540
        and len(result.equivalence_classes) == 1
        and result.hits
        and all(order == 52 for order, _, _ in result.hits)
        and all(claim == expected_spectrum for _, _, claim in result.hits)
    )
    report(7, ok, f"unique integral-spectrum class: order 52, "
                  f"{len(result.hits)} representatives, spectrum "
                  f"{{-5:34, 3:1, 5:1, 7:6, 11:7, 13:2, 17:1}} "
                  f"({time.monotonic() - t0:.2f}s)")


def test_criterion_8a_octad_intersections(code):
    t0 = time.monotonic()
    octads = code.octads
    ok = all(
        golay.weight(a & b) in (0, 2, 4)
        for i, a in enumerate(octads)
        for b in octads[i + 1:]
    )
    report("8a", ok, f"all octad pair intersections in {{0,2,4}} "
                     f"({time.monotonic() - t0:.2f}s)")


def test_criterion_8b_inner_product_formula(asche):
    t0 = time.monotonic()
    vecs = asche.vectors
    ok = all(
        dot(vecs[i], vecs[j]) == 16 * golay.weight(vecs[i].source & vecs[j].source) - 48
        for i in range(72)
        for j in range(i + 1, 72)
    )
    report("8b", ok, f"scaled inner product = 16|d∩d'| - 48 across the "
                     f"72-system ({time.monotonic() - t0:.2f}s)")


def test_s54_hits_share_one_switching_form(s54, full_scan):
    # the scan classifies its one hit orbit without a form; check it here
    forms = {seidel.switching_canonical_form(
                s54.principal_submatrix(i for i in range(54) if i not in removed))
             for _, removed, _ in full_scan.hits}
    assert len(full_scan.hits) == 9 and len(forms) == 1
    assert full_scan.equivalence_classes == [list(range(9))]


def test_criterion_8c_trace_identities(full_scan):
    t0 = time.monotonic()
    claims = [(54, cli.S54_SPECTRUM)] + [
        (order, claim) for order, _, claim in full_scan.hits
    ]
    ok = all(
        claim.eig_sum() == 0 and claim.eig_square_sum() == n * (n - 1)
        for n, claim in claims
    )
    report("8c", ok, f"trace and trace-square identities for "
                     f"{len(claims)} certified spectra "
                     f"({time.monotonic() - t0:.2f}s)")


def test_criterion_8d_automorphism_brute_force():
    t0 = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    ok = True
    for _ in range(100):
        n = rng.randint(2, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice([1, -1])
        s = seidel.SeidelMatrix(rows)
        if seidel.automorphism_order(s).order != brute_force_automorphism_count(s):
            ok = False
            break
        checked += 1
    report("8d", ok, f"automorphism engine matches brute force on "
                     f"{checked} random matrices of order <= 7 "
                     f"({time.monotonic() - t0:.2f}s)")


def test_criterion_8e_switching_form_invariance():
    t0 = time.monotonic()
    rng = random.Random(4096)
    ok = True
    perturbations = 0
    while perturbations < 1000 and ok:
        n = rng.randint(2, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice([1, -1])
        s = seidel.SeidelMatrix(rows)
        form = seidel.switching_canonical_form(s)
        for _ in range(10):
            signs = [rng.choice([1, -1]) for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            t = seidel.permute(seidel.switch(s, signs), perm)
            if seidel.switching_canonical_form(t) != form:
                ok = False
                break
            perturbations += 1
    report("8e", ok, f"switching canonical form invariant under "
                     f"{perturbations} random switch/permute perturbations "
                     f"({time.monotonic() - t0:.2f}s)")


@pytest.fixture(scope="module")
def all_reports(tmp_path_factory):
    """The report of `equilines all`, without timings, from two fresh
    interpreters under PYTHONHASHSEED 0 and 12345, and the seconds the
    two runs took."""
    out = tmp_path_factory.mktemp("all")
    t0 = time.monotonic()
    reports = {seed: subprocess_report(out / f"{seed}.json", seed, "all") for seed in (0, 12345)}
    return reports, time.monotonic() - t0


def test_criterion_9_determinism_across_hash_seeds(all_reports):
    reports, seconds = all_reports
    ok = reports[0] == reports[12345] and all(
        c["status"] == "pass" for c in reports[0]["certificates"]
    )
    report(9, ok, f"full certificate report identical under PYTHONHASHSEED 0 "
                  f"and 12345, all 7 certificates pass ({seconds:.2f}s)")


def test_whole_run_report_matches_golden(all_reports):
    # tests/data/all_report.json: `equilines all` after report_without_timings
    reports, _ = all_reports
    golden = json.loads((Path(__file__).parent / "data" / "all_report.json").read_text())
    assert reports[0] == golden
