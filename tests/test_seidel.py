import dataclasses
import math
import random
from collections import deque
from itertools import permutations
from operator import itemgetter

import numpy as np
import pytest

from equilines import construct, exactlin, search, seidel
from equilines.certificate import CertificateBuilder
from conftest import clear_switching_caches, dot
from test_exactlin import reference_mat_mul


def matrix_of(rows):
    """The SeidelMatrix of n rows of n ints, n = 0 included."""
    return seidel.SeidelMatrix(np.array(rows, dtype=np.int64).reshape(len(rows), len(rows)))


def random_seidel(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice([1, -1])
    return matrix_of(rows)


def clique_seidel(n):
    return seidel.SeidelMatrix(
        [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    )


def preserves(s, perm):
    n = s.n
    return all(
        s.rows[perm[i]][perm[j]] == s.rows[i][j]
        for i in range(n)
        for j in range(i + 1, n)
    )


def brute_force_automorphism_count(s):
    """Reference count by enumerating all n! permutations; small n only."""
    return sum(1 for p in permutations(range(s.n)) if preserves(s, p))


def cycle_seidel(n):
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0
        rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = -1
    return seidel.SeidelMatrix(rows)


def claim_poly(claim):
    """prod (x - v)^m over the claim's values v with multiplicities m,
    times x^2 + bx + c for its quadratic (b, c): the polynomial that
    certify_spectrum proves is det(xI - S)."""
    p = exactlin.poly_from_roots([v for v, m in claim.integer_eigs for _ in range(m)])
    if claim.quadratic:
        b, c = claim.quadratic
        p = exactlin.poly_mul(p, [c, b, 1])
    return p


def test_seidel_matrix_rejects_bad_entries():
    bad = ([[1, 1], [1, 0]], [[0, 2], [2, 0]], [[0, 1], [-1, 0]],
           [[0, 1, 5], [1, 0, 7]], [[0, 1], [1]], [[]], [[0, 1], [1, 0], [1, 1]],
           [[0, 1.0], [1.0, 0]], [[False, True], [True, False]], [[0, True], [True, 0]],
           [[0, np.True_], [np.True_, 0]],
           [[0, 2 ** 70], [2 ** 70, 0]])
    for rows in bad:
        with pytest.raises(ValueError):
            seidel.SeidelMatrix(rows)
    for array in (np.zeros(()), np.zeros(3, dtype=np.int64),
                  np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2, dtype=bool)):
        with pytest.raises(ValueError):
            seidel.SeidelMatrix(array)
    for n in (0, 1):
        s = seidel.SeidelMatrix(np.zeros((n, n), dtype=np.int64))
        assert s.n == n and s.array.shape == (n, n) and s.rows == ((0,) * n,) * n


def reference_validate(rows):
    """The pair loop that SeidelMatrix's array comparisons replaced:
    ValueError unless rows are square, symmetric, zero on the diagonal and
    +/-1 off it."""
    n = len(rows)
    for i in range(n):
        if len(rows[i]) != n or rows[i][i] != 0:
            raise ValueError("not square with a zero diagonal")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i] or abs(rows[i][j]) != 1:
                raise ValueError("not a symmetric +/-1 off-diagonal matrix")
    return rows


def reference_principal_submatrix(s, keep):
    return reference_validate([[s.rows[i][j] for j in keep] for i in keep])


def reference_permute(s, perm):
    return reference_validate(
        [[s.rows[perm[i]][perm[j]] for j in range(s.n)] for i in range(s.n)])


def reference_switch(s, signs):
    return reference_validate(
        [[signs[i] * signs[j] * s.rows[i][j] if i != j else 0 for j in range(s.n)]
         for i in range(s.n)])


def test_validation_matches_pair_loop_oracle():
    rng = random.Random(139)
    accepted = 0
    for _ in range(3000):
        n = rng.randint(0, 6)
        rows = [list(r) for r in random_seidel(rng, n).rows]
        for _ in range(rng.randint(0, 2) if n else 0):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-2, 2)
        try:
            reference_validate(rows)
        except ValueError:
            with pytest.raises(ValueError):
                matrix_of(rows)
        else:
            assert matrix_of(rows).rows == tuple(map(tuple, rows))
            accepted += 1
    assert 1000 < accepted < 2000


def test_array_copies_match_entry_by_entry_oracles(s54, moved_s54):
    # equal rows of Python ints, equal == and hash (the lru_cache keys)
    # and a read-only int64 array, on S54, a relabelled S54 and n = 0..9
    rng = random.Random(131)
    matrices = [s54, moved_s54] + [random_seidel(rng, n) for n in range(10) for _ in range(5)]
    for s in matrices:
        n = s.n
        perm = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        keep = rng.sample(range(n), rng.randint(0, n))
        for copy, expected in ((seidel.permute(s, perm), reference_permute(s, perm)),
                               (seidel.switch(s, signs), reference_switch(s, signs)),
                               (s.principal_submatrix(iter(keep)),
                                reference_principal_submatrix(s, keep))):
            assert copy.rows == tuple(map(tuple, expected))
            assert all(type(x) is int for row in copy.rows for x in row)
            reference = matrix_of(expected)
            assert copy == reference and hash(copy) == hash(reference)
            assert copy.array.dtype == np.int64 and not copy.array.flags.writeable
            assert copy.array.tolist() == expected
    group = seidel.signed_automorphism_group(s54)
    assert seidel.signed_automorphism_group(seidel.permute(s54, range(54))) is group


def test_array_copies_refuse_what_the_oracles_refuse(s54):
    repeated = [0] + list(range(53))
    cases = [(seidel.permute, reference_permute, repeated),
             (seidel.switch, reference_switch, [2] + [1] * 53),
             (seidel.SeidelMatrix.principal_submatrix, reference_principal_submatrix, repeated)]
    for copy, reference, argument in cases:
        for make in (copy, reference):
            with pytest.raises(ValueError):
                make(s54, argument)
    for perm in range(53), list(range(53)) + [-1], list(range(53)) + [54]:
        with pytest.raises(ValueError):             # -1 would read as 53, 54 is beyond
            seidel.permute(s54, perm)
    with pytest.raises(ValueError):                 # (2^63 - 1)^2 = 1 modulo 2^64
        seidel.switch(s54, [2 ** 63 - 1] * 54)


def test_seidel_from_two_vectors(final54):
    pair = None
    vecs = final54.vectors
    for j in range(1, 54):
        if dot(vecs[0], vecs[j]) == 16:
            pair = construct.LineSystem(vectors=(vecs[0], vecs[j]), ambient_dim=2)
            break
    s = seidel.seidel_from(pair)
    assert s.rows == ((0, 1), (1, 0))


def test_seidel_from_rejects_non_equiangular():
    a = construct.LineVector(coords=tuple([80] + [0] * 23), source=0)
    b = construct.LineVector(coords=tuple([0, 80] + [0] * 22), source=1)
    bad = construct.LineSystem(vectors=(a, b), ambient_dim=2)
    with pytest.raises(seidel.NotEquiangularError):
        seidel.seidel_from(bad)


def test_s54_trace_identities(s54):
    assert sum(s54.rows[i][i] for i in range(54)) == 0
    sq = reference_mat_mul(s54.rows, s54.rows)
    assert sum(sq[i][i] for i in range(54)) == 54 * 53


def test_compute_spectrum_order_one():
    s = seidel.SeidelMatrix([[0]])
    claim = seidel.compute_spectrum(s, [0])
    assert claim.integer_eigs == ((0, 1),) and claim.quadratic is None
    assert seidel.compute_spectrum(s, [1]) is None


def test_compute_spectrum_triangle():
    claim = seidel.compute_spectrum(clique_seidel(3), range(-2, 3))
    assert claim.integer_eigs == ((-1, 2), (2, 1))
    assert seidel.compute_spectrum(clique_seidel(3), [-1, 1]) is None


def test_certify_spectrum_triangle():
    cert = seidel.certify_spectrum(
        clique_seidel(3), seidel.SpectrumClaim.make({2: 1, -1: 2})
    )
    assert cert.passed


def test_certify_spectrum_rejects_perturbed_claim():
    cert = seidel.certify_spectrum(
        clique_seidel(3), seidel.SpectrumClaim.make({2: 2, -1: 1})
    )
    assert not cert.passed


def test_s54_spectrum(s54):
    claim = nullity_spectrum(s54)
    assert claim.integer_eigs == ((-5, 36), (7, 6), (11, 8), (13, 2))
    assert claim.quadratic == (-24, 107)
    cert = seidel.certify_spectrum(s54, claim)
    assert cert.passed
    assert certificate_fields(cert) == certificate_fields(
        reference_certify_spectrum(s54, claim))
    # not integral: one chain over every candidate proves it
    assert seidel.compute_spectrum(s54, range(-53, 54)) is None


def test_s54_perturbed_multiplicity_fails(s54):
    bad = seidel.SpectrumClaim.make(
        {-5: 35, 7: 7, 11: 8, 13: 2}, quadratic=(-24, 107)
    )
    cert = seidel.certify_spectrum(s54, bad)
    assert certificate_fields(cert) == certificate_fields(
        reference_certify_spectrum(s54, bad))
    assert not cert.passed
    assert cert.details["checks"]["nullity_at_-5"] is False
    assert cert.details["checks"]["char_poly_matches"] is False
    assert cert.details["first_failure"] == {
        "check": "char_poly_matches",
        "witness": {"failed_premises": {"nullity_at_-5": {"claimed": 35, "exact": 36},
                                        "nullity_at_7": {"claimed": 7, "exact": 6},
                                        "trace_identity": 12,
                                        "trace_square_identity": 2886}},
    }


@pytest.mark.parametrize("eigs, quadratic, failed", [
    ({-5: 36, 3: 2, 7: 6, 11: 8}, (-24, 107),
     {"nullity_at_3": {"claimed": 2, "exact": 0}, "trace_identity": -20,
      "trace_square_identity": 2542}),
    ({-5: 36, 7: 6, 11: 8, 13: 2}, (-24, 106), {"trace_square_identity": 2864}),
], ids=["replaced_eigenvalue", "shifted_quadratic_constant"])
def test_s54_wrong_claim_names_failed_premise(s54, eigs, quadratic, failed):
    claim = seidel.SpectrumClaim.make(eigs, quadratic)
    cert = seidel.certify_spectrum(s54, claim)
    assert certificate_fields(cert) == certificate_fields(
        reference_certify_spectrum(s54, claim))
    assert cert.details["checks"]["char_poly_matches"] is False
    assert cert.details["first_failure"] == {
        "check": "char_poly_matches", "witness": {"failed_premises": failed}}


def reference_certify_spectrum(s, claim):
    """Oracle for certify_spectrum: the same checks, with the exact
    multiplicity of every claimed value from exactlin.nullity_at alone."""
    b = CertificateBuilder(
        "spectrum", {"matrix": s.rows, "claim": claim.as_dict()}
    )
    b.note("claim", claim.as_dict())
    n = s.n
    trace_square = sum(x * x for row in s.rows for x in row)
    b.note("trace_square", trace_square)
    b.check("matrix_trace_square", trace_square == n * (n - 1), trace_square)
    if not b.check("multiplicities_sum_to_n", claim.total_multiplicity == n,
                   claim.total_multiplicity):
        return b.build()
    if claim.quadratic:
        bq, cq = claim.quadratic
        disc = bq * bq - 4 * cq
        b.check("quadratic_irreducible", disc < 0 or math.isqrt(disc) ** 2 != disc,
                disc)
    m = s.rows
    exact = {value: exactlin.nullity_at(m, value) for value, _ in claim.integer_eigs}
    premises = [(f"nullity_at_{value}", exact[value] == mult,
                 {"claimed": mult, "exact": exact[value]})
                for value, mult in claim.integer_eigs]
    premises += [("trace_identity", claim.eig_sum() == 0, claim.eig_sum()),
                 ("trace_square_identity", claim.eig_square_sum() == n * (n - 1),
                  claim.eig_square_sum())]
    failed = {name: witness for name, ok, witness in premises if not ok}
    b.check("char_poly_matches", not failed,
            {"failed_premises": failed} if failed else None)
    for premise in premises:
        b.check(*premise)
    return b.build()


def certificate_fields(cert):
    """cert.to_dict() without runtime_ms."""
    fields = cert.to_dict()
    del fields["runtime_ms"]
    return fields


def spectrum_routes(monkeypatch):
    """Spy on certify_spectrum's two sources of exact multiplicities: the
    returned set gains "chain" when _multiplicities gives them without a
    nullity and "nullity" when exactlin.nullity_at is called."""
    used = set()
    real_chain, real_nullity = seidel._multiplicities, exactlin.nullity_at

    def chain(*args, **kwargs):
        mults = real_chain(*args, **kwargs)
        if mults is not None and "nullity" not in used:
            used.add("chain")
        return mults

    def nullity(m, lam):
        used.add("nullity")
        return real_nullity(m, lam)

    monkeypatch.setattr(seidel, "_multiplicities", chain)
    monkeypatch.setattr(exactlin, "nullity_at", nullity)
    return used


def nonzero_claim(eigs, quadratic):
    return seidel.SpectrumClaim.make({v: m for v, m in eigs.items() if m}, quadratic)


def perturbed_claims(rng, claim, n):
    """Wrong claims near a true one, plus a random claim of total n."""
    eigs = dict(claim.integer_eigs)
    out = []
    if len(eigs) > 1:                                   # move one multiplicity
        src, dst = rng.sample(sorted(eigs), 2)
        out.append(nonzero_claim({**eigs, src: eigs[src] - 1, dst: eigs[dst] + 1},
                                 claim.quadratic))
    if eigs:                                            # replace one value
        old = rng.choice(sorted(eigs))
        new = rng.choice([v for v in range(-n, n + 1) if v not in eigs])
        replaced = dict(eigs)
        replaced[new] = replaced.pop(old)
        out.append(nonzero_claim(replaced, claim.quadratic))
    if claim.quadratic:                                 # shift b or c
        b, c = claim.quadratic
        shift = rng.choice([-2, -1, 1, 2])
        out.append(nonzero_claim(
            eigs, (b + shift, c) if rng.random() < 0.5 else (b, c + shift)))
    elif sum(eigs.values()) >= 2:                       # two eigenvalues as a quadratic
        a, b = rng.sample([v for v, m in eigs.items() for _ in range(m)], 2)
        rest = dict(eigs)
        rest[a] -= 1
        rest[b] -= 1
        out.append(nonzero_claim(rest, (-(a + b), a * b)))
    d = rng.choice([0, 2]) if n >= 2 else 0
    values = rng.sample(range(-n, n + 1), rng.randint(1, 3))
    random_eigs = dict.fromkeys(values, 0)
    for _ in range(n - d):
        random_eigs[rng.choice(values)] += 1
    out.append(nonzero_claim(
        random_eigs, (rng.randint(-6, 6), rng.randint(-12, 12)) if d else None))
    return out


def test_char_poly_matches_agrees_with_interpolation_oracle(monkeypatch):
    # char_poly_matches implies the interpolated characteristic polynomial;
    # the converse needs a quadratic that is absent or irreducible. Every
    # certificate equals the nullity-only oracle's, by either route.
    rng = random.Random(404)
    outcomes = {True: 0, False: 0}
    quadratic_matches = 0
    routes = {"chain": 0, "nullity": 0}
    used = spectrum_routes(monkeypatch)
    for _ in range(1000):
        n = rng.randint(1, 7)
        s = random_seidel(rng, n)
        cp = exactlin.char_poly(s.rows)
        true = nullity_spectrum(s)
        if true is None:
            claims = perturbed_claims(rng, seidel.SpectrumClaim.make({}), n)
        else:
            claims = [true] + perturbed_claims(rng, true, n)
        for claim in claims:
            used.clear()
            cert = seidel.certify_spectrum(s, claim)
            for route in used:
                routes[route] += 1
            assert certificate_fields(cert) == certificate_fields(
                reference_certify_spectrum(s, claim)), claim
            checks = cert.details["checks"]
            matches = checks.get("char_poly_matches", False)
            equal = claim_poly(claim) == cp
            if matches:
                assert equal, claim
            if equal and checks.get("quadratic_irreducible", True):
                assert matches, claim
            outcomes[matches] += 1
            quadratic_matches += matches and claim.quadratic is not None
    assert min(outcomes.values()) > 800 and quadratic_matches > 200
    assert min(routes.values()) > 100, routes


def test_certify_spectrum_edge_claims_match_reference(s54, monkeypatch):
    # a reducible quadratic with a root among the claimed values (q(v) = 0
    # stops the chain) and a quadratic whose entry bound no set of PRIMES
    # covers take the nullities. A value beyond n - 1, which no eigenvalue
    # reaches, is dropped before the chain, which then runs on the rest;
    # where the rest miss an eigenvalue (2 of J - I) the chain proves it,
    # and a second chain, over the rest completed by 2, names the failed
    # premises. Each claim gives the oracle's certificate
    claims = [
        (clique_seidel(3), seidel.SpectrumClaim.make({-1: 1}, quadratic=(-1, -2))),
        (clique_seidel(3), seidel.SpectrumClaim.make({-1: 0, 2: 1}, quadratic=(2, 1))),
        (clique_seidel(3), seidel.SpectrumClaim.make({-1: 2, 2: 1, 1 << 40: 0})),
        (clique_seidel(3), seidel.SpectrumClaim.make({-1: 2, 1 << 40: 1})),
        (clique_seidel(3), seidel.SpectrumClaim.make({-1: 1, 2: 0}, quadratic=(0, 1 << 800))),
        (s54, seidel.SpectrumClaim.make({-5: 36, 7: 6, 11: 8, 13: 2, 1 << 40: 0},
                                        quadratic=(-24, 107))),
    ]
    used, routes = spectrum_routes(monkeypatch), []
    for s, claim in claims:
        used.clear()
        cert = seidel.certify_spectrum(s, claim)
        routes.append(set(used))
        assert certificate_fields(cert) == certificate_fields(
            reference_certify_spectrum(s, claim)), claim
    assert routes == [{"nullity"}, {"nullity"}, {"chain"}, {"chain"}, {"nullity"}, {"chain"}]
    passed = [seidel.certify_spectrum(s, claim).passed for s, claim in claims]
    assert passed == [False, False, True, False, False, True]


def test_compute_spectrum_agrees_with_certify_random():
    rng = random.Random(33)
    integral = 0
    for _ in range(60):
        s = random_seidel(rng, rng.randint(1, 6))
        claim = seidel.compute_spectrum(s, range(1 - s.n, s.n))
        if claim is None:
            continue
        assert claim.total_multiplicity == s.n
        assert seidel.certify_spectrum(s, claim).passed
        integral += 1
    assert integral > 10


def test_automorphisms_four_clique():
    result = seidel.automorphism_order(clique_seidel(4))
    assert result.order == 24


def test_automorphisms_pentagon():
    s = cycle_seidel(5)
    result = seidel.automorphism_order(s)
    assert result.order == 10
    assert brute_force_automorphism_count(s) == 10


def test_automorphisms_match_brute_force_random():
    rng = random.Random(55)
    for _ in range(110):
        n = rng.randint(2, 7)
        s = random_seidel(rng, n)
        got = seidel.automorphism_order(s)
        assert got.order == brute_force_automorphism_count(s)
        assert all(seidel.permute(s, g).rows == s.rows for g in got.generators)


def test_generators_generate_whole_group():
    s = cycle_seidel(6)
    result = seidel.automorphism_order(s)
    closure = seidel._greedy_generators(tuple(range(s.n)), list(result.generators))[1]
    assert len(closure) == result.order


def minus_graph_automorphisms(s):
    """Reference: Aut of the graph {ij : S_ij = -1} by a graph search."""
    adj = [sum(1 << j for j in range(s.n) if s.rows[i][j] == -1) for i in range(s.n)]
    return set(seidel.canonical_graph_form(s.n, adj).automorphisms)


def petersen_seidel():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    rows = [[0 if i == j else 1 for j in range(10)] for i in range(10)]
    for a, b in outer + inner + spokes:
        rows[a][b] = rows[b][a] = -1
    return seidel.SeidelMatrix(rows)


def test_plain_group_matches_minus_graph_search(s54):
    rng = random.Random(7)
    matrices = [s54, petersen_seidel()]
    matrices += [random_seidel(rng, rng.randint(1, 9)) for _ in range(100)]
    for s in matrices:
        expected = minus_graph_automorphisms(s)
        got = seidel.automorphism_order(s)
        assert set(got.elements) == expected and got.order == len(expected)
        assert list(got.generators) == seidel._greedy_generators(tuple(range(s.n)),
                                                                 sorted(expected))[0]
    assert seidel.automorphism_order(s54).order == 36
    assert seidel.automorphism_order(petersen_seidel()).order == 120


def test_plain_group_does_no_graph_search_of_its_own(s54, monkeypatch):
    seidel.signed_automorphism_group(s54)
    calls = []
    search = seidel.canonical_graph_form
    monkeypatch.setattr(seidel, "canonical_graph_form",
                        lambda *args: calls.append(args) or search(*args))
    assert seidel.automorphism_order(s54).order == 36
    assert calls == []


def test_switching_canonical_form_small_classes():
    # order 3: 0 edges and 2 edges are switching-equivalent; 1 edge is not
    def from_edges(n, edges):
        rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
        for a, b in edges:
            rows[a][b] = rows[b][a] = -1
        return seidel.SeidelMatrix(rows)

    empty = from_edges(3, [])
    two = from_edges(3, [(0, 1), (1, 2)])
    one = from_edges(3, [(0, 1)])
    assert seidel.switching_canonical_form(empty) == seidel.switching_canonical_form(two)
    assert seidel.switching_canonical_form(empty) != seidel.switching_canonical_form(one)


def test_switching_canonical_form_invariance_random():
    rng = random.Random(77)
    for _ in range(250):
        n = rng.randint(2, 7)
        s = random_seidel(rng, n)
        form = seidel.switching_canonical_form(s)
        for _ in range(4):
            signs = [rng.choice([1, -1]) for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            t = seidel.permute(seidel.switch(s, signs), perm)
            assert seidel.switching_canonical_form(t) == form


def test_switching_canonical_form_separates_classes():
    # two-graphs on 4 vertices fall into distinct classes by odd-triple count
    def odd_triples(s):
        n = s.n
        return sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
            if s.rows[i][j] * s.rows[j][k] * s.rows[i][k] == -1
        )

    rng = random.Random(99)
    seen = {}
    for _ in range(200):
        s = random_seidel(rng, 4)
        form = seidel.switching_canonical_form(s)
        seen.setdefault(form, set()).add(odd_triples(s))
    for forms in seen.values():
        assert len(forms) == 1


def to_points(pairs):
    """A signed permutation given as (target, sign) pairs, on the 2n points:
    (i, side) is point 2i + (side > 0) and goes to (target, sign side)."""
    return tuple(2 * t + (sign * side > 0) for t, sign in pairs for side in (-1, 1))


def as_pairs(m):
    """The inverse of to_points, checking that m moves each pair of points
    (i, -1), (i, +1) onto one pair."""
    assert all(m[2 * i] == m[2 * i + 1] ^ 1 for i in range(len(m) // 2))
    return tuple((x // 2, 1 if x % 2 else -1) for x in m[1::2])


def reference_signed_preserves(s, pairs):
    """Oracle for _signed_preserves: one entry at a time, on the pairs."""
    n = s.n
    return all(
        s.rows[pairs[i][0]][pairs[j][0]] * pairs[i][1] * pairs[j][1] == s.rows[i][j]
        for i in range(n)
        for j in range(i + 1, n)
    )


def test_signed_automorphism_group_consistency():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randint(2, 6)
        s = random_seidel(rng, n)
        result = seidel.signed_automorphism_group(s)
        perm_order = seidel.automorphism_order(s).order
        # {+/-P : P a permutation automorphism} is a subgroup
        assert result.order % (2 * perm_order) == 0
        assert all(seidel._signed_preserves(s, g) for g in result.generators)
        # brute force over all signed matrices for tiny n
        if n <= 4:
            from itertools import permutations, product

            count = 0
            for p in permutations(range(n)):
                for signs in product([1, -1], repeat=n):
                    pairs = tuple((p[i], signs[i]) for i in range(n))
                    preserved = seidel._signed_preserves(s, to_points(pairs))
                    assert preserved == reference_signed_preserves(s, pairs)
                    count += preserved
            assert count == result.order


def test_signed_preserves_matches_entrywise_oracle(s54):
    rng = random.Random(103)
    cases = [(s54, gen) for gen in seidel._switching_search(s54)[2]]
    for _ in range(200):
        s = random_seidel(rng, rng.randint(0, 9))
        p = rng.sample(range(s.n), s.n)
        cases.append((s, to_points((t, rng.choice((1, -1))) for t in p)))
    cases += [(s, seidel._on_points(range(s.n), [-1] * s.n)) for s, _ in cases[:50]]
    preserved = 0
    for s, m in cases:
        expected = reference_signed_preserves(s, as_pairs(m))
        assert seidel._signed_preserves(s, m) == expected
        assert seidel.signed_pairs(m) == as_pairs(m)
        preserved += expected
    assert 50 < preserved < len(cases)


def random_graph(rng, n, density):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def relabel_graph(adj, perm):
    """The image of a graph under the vertex map v -> perm[v]."""
    out = [0] * len(adj)
    for v, mask in enumerate(adj):
        for u in range(len(adj)):
            if mask >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def brute_force_isomorphisms(n, src, dst):
    return sorted(
        p for p in permutations(range(n))
        if all((src[i] >> j & 1) == (dst[p[i]] >> p[j] & 1)
               for i in range(n) for j in range(n))
    )


def test_isomorphisms_match_brute_force_random():
    rng = random.Random(61)
    hexagon = [0b100010, 0b000101, 0b001010, 0b010100, 0b101000, 0b010001]
    triangles = [0b000110, 0b000101, 0b000011, 0b110000, 0b101000, 0b011000]
    pairs = [(6, hexagon, triangles), (6, hexagon, relabel_graph(hexagon, (3, 1, 4, 0, 5, 2)))]
    for _ in range(80):
        n = rng.randint(1, 6)
        src = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        pairs.append((n, src, relabel_graph(src, perm)))
        pairs.append((n, src, random_graph(rng, n, 0.5)))
    isomorphic = 0
    for n, src, dst in pairs:
        expected = brute_force_isomorphisms(n, src, dst)
        assert sorted(seidel.enumerate_isomorphisms(n, src, dst)) == expected
        found = seidel.find_isomorphism(n, src, dst)
        assert found in expected if expected else found is None
        isomorphic += bool(expected)
    assert 0 < isomorphic < len(pairs)
    assert not seidel.enumerate_isomorphisms(6, hexagon, triangles)


def reference_refine(n, adj, cells):
    """Oracle for _refine: test every cell against every cell as a
    splitter and start over after each split, until nothing splits."""
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        for splitter_cell in list(cells):
            splitter = 0
            for v in splitter_cell:
                splitter |= 1 << v
            new_cells = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & splitter).bit_count(), []).append(v)
                if len(groups) > 1:
                    changed = True
                for key in sorted(groups):
                    new_cells.append(groups[key])
            cells = new_cells
            if changed:
                break
    return cells


def vertices(cell):
    """The vertices of a cell held as a bitmask, in increasing order."""
    return [v for v in range(cell.bit_length()) if cell >> v & 1]


def as_mask(vertex_list):
    return sum(1 << v for v in vertex_list)


def mask_reference_refine(adj, cells):
    """reference_refine on cells held as bitmasks."""
    lists = reference_refine(len(adj), adj, [vertices(c) for c in cells])
    return [as_mask(c) for c in lists]


def is_equitable(adj, cells):
    return all(len({(adj[v] & m).bit_count() for v in vertices(cell)}) == 1
               for cell in cells for m in cells)


def cell_set(cells):
    return {frozenset(vertices(c)) for c in cells}


def test_splitter_queue_refinement_matches_reference_oracle(monkeypatch):
    real = seidel._refine

    def equitable_refine(adj, cells, splitters):
        refined = real(adj, cells, splitters)
        assert is_equitable(adj, refined)
        return refined

    rng = random.Random(67)
    for _ in range(110):
        for density in (0.2, 0.5, 0.8):
            n = rng.randint(1, 10)
            adj = random_graph(rng, n, density)
            unit = [(1 << n) - 1]
            root = seidel._refine(adj, unit, unit)
            assert is_equitable(adj, root)
            assert cell_set(root) == cell_set(mask_reference_refine(adj, unit))
            targets = [i for i, c in enumerate(root) if c & (c - 1)]
            if targets:
                i = rng.choice(targets)
                single = 1 << rng.choice(vertices(root[i]))
                child = root[:i] + [single, root[i] ^ single] + root[i + 1:]
                got = seidel._refine(adj, child, [single])
                assert is_equitable(adj, got)
                assert cell_set(got) == cell_set(mask_reference_refine(adj, child))

            with monkeypatch.context() as m:
                m.setattr(seidel, "_refine", equitable_refine)
                form = seidel.canonical_graph_form(n, adj)
            perm = list(range(n))
            rng.shuffle(perm)
            assert seidel.canonical_graph_form(n, relabel_graph(adj, perm)).bits == form.bits
            with monkeypatch.context() as m:
                m.setattr(seidel, "_refine", lambda adj, cells, splitters:
                          mask_reference_refine(adj, cells))
                oracle = seidel.canonical_graph_form(n, adj)
            assert set(form.automorphisms) == set(oracle.automorphisms)


@pytest.mark.parametrize("n, adj, bits", [
    (0, [], 0),
    (1, [0], 0),
    (4, [0] * 4, 0),
    (5, [0b11111 ^ 1 << v for v in range(5)], (1 << 10) - 1),
])
def test_canonical_graph_form_of_equitable_root(n, adj, bits, monkeypatch):
    refined = []
    real = seidel._refine

    def spy(adj, cells, splitters):
        out = real(adj, cells, splitters)
        refined.append((cells, out))
        return out

    monkeypatch.setattr(seidel, "_refine", spy)
    form = seidel.canonical_graph_form(n, adj)
    root_in, root_out = ([vertices(c) for c in cells] for cells in refined[0])
    assert root_out == root_in == ([list(range(n))] if n else [])
    assert form.bits == bits
    assert form.labelling == tuple(range(n))
    assert form.automorphisms[0] == tuple(range(n))
    assert sorted(form.automorphisms) == sorted(permutations(range(n)))


def reference_list_refine(adj, cells, splitters):
    """Oracle for _refine on cells held as vertex lists: McKay's splitter
    queue keyed by the identity of each list, with each cell's neighbour
    counts taken vertex by vertex."""
    queue = deque(splitters)
    queued = {id(c) for c in queue}     # queued cells stay alive, so ids are unique
    while queue and len(cells) < len(adj):
        splitter = queue.popleft()
        if id(splitter) not in queued:
            continue                    # a queued cell that has since split
        queued.remove(id(splitter))
        mask = as_mask(splitter)
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            counts = [(adj[v] & mask).bit_count() for v in cell]
            keys = set(counts)
            if len(keys) == 1:
                refined.append(cell)
                continue
            pieces = [[v for v, c in zip(cell, counts) if c == k] for k in sorted(keys)]
            refined += pieces
            if id(cell) in queued:
                queued.remove(id(cell))
            else:
                largest = max(pieces, key=len)
                pieces = [p for p in pieces if p is not largest]
            queue.extend(pieces)
            queued.update(map(id, pieces))
        cells = refined
    return cells


def adjacency_rows(adj):
    """Row v of the graph as a string: character u is '1' iff u ~ v."""
    n = len(adj)
    return [format(a, f"0{n}b")[::-1] for a in adj]


def adjacency_bits(rows, perm):
    """String oracle for _leaf_bits: the upper triangle of the relabeled
    graph, row i being rows[perm[i]] read in the order perm, joined row
    by row and read as a binary number, pair 0 lowest. rows are
    adjacency_rows of the graph."""
    if len(perm) < 2:
        return 0
    relabel = itemgetter(*perm)
    upper = "".join("".join(relabel(rows[v]))[i + 1:] for i, v in enumerate(perm))
    return int(upper[::-1], 2)


def reference_canonical_graph_form(n, adj):
    """Oracle for canonical_graph_form: the same search on vertex-list
    cells, refined by reference_list_refine, branching on the target
    cell's vertices in sorted order, leaves read by adjacency_bits."""
    best_bits, best_leaves = None, []
    rows = adjacency_rows(adj)

    def rec(cells, splitters):
        nonlocal best_bits, best_leaves
        cells = reference_list_refine(adj, cells, splitters)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            leaf = tuple(c[0] for c in cells)
            bits = adjacency_bits(rows, leaf)
            if best_bits is None or bits < best_bits:
                best_bits, best_leaves = bits, [leaf]
            elif bits == best_bits:
                best_leaves.append(leaf)
            return
        cell = cells[target]
        for v in sorted(cell):
            single = [v]
            rec(cells[:target] + [single, [w for w in cell if w != v]] + cells[target + 1:],
                [single])

    root = [list(range(n))] if n else []
    rec(root, root)
    first = best_leaves[0]
    automorphisms = []
    for leaf in best_leaves:
        g = [0] * n
        for a, b in zip(first, leaf):
            g[a] = b
        automorphisms.append(tuple(g))
    return seidel.CanonicalLabelling(best_bits, first, tuple(automorphisms),
                                     generators=tuple(automorphisms))


@pytest.fixture(scope="module")
def moved_s54(s54):
    """S54 relabelled and switched by a seeded permutation and signs."""
    rng = random.Random(113)
    perm = rng.sample(range(54), 54)
    signs = [rng.choice((1, -1)) for _ in range(54)]
    return seidel.switch(seidel.permute(s54, perm), signs)


def complete_graph(n):
    return [((1 << n) - 1) ^ 1 << v for v in range(n)]


def cycle_graph(n):
    return [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)]


def petersen_graph():
    adj = [0] * 10
    for i in range(5):
        for a, b in ((i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, i + 5)):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def disjoint_union(*graphs):
    adj, shift = [], 0
    for g in graphs:
        adj += [mask << shift for mask in g]
        shift += len(g)
    return adj


def random_regular_graph(rng, n, d):
    """A d-regular graph on n vertices: random pairings of n d stubs until
    one has no loop and no repeated edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        adj = [0] * n
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or adj[a] >> b & 1:
                break
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        else:
            return adj


def structured_graphs():
    """Graphs with large groups, many leaves of equal bits and orbits
    that split late: complete, empty and cycle graphs, the Petersen
    graph and disjoint unions; and random regular graphs, whose root is
    not split, so their trees hold many leaves that are not equivalent."""
    graphs = [complete_graph(n) for n in range(7)] + [[0] * n for n in range(1, 7)]
    graphs += [cycle_graph(n) for n in range(3, 11)] + [petersen_graph()]
    graphs += [disjoint_union(complete_graph(3), complete_graph(3)),
               disjoint_union(complete_graph(2), complete_graph(2), complete_graph(2)),
               disjoint_union(cycle_graph(5), cycle_graph(5)),
               disjoint_union(complete_graph(3), cycle_graph(4), [0]),
               disjoint_union(cycle_graph(4), complete_graph(4)),
               disjoint_union(petersen_graph(), complete_graph(2))]
    rng = random.Random(139)
    graphs += [random_regular_graph(rng, n, 3) for n in (10,) * 30 + (12,) * 10]
    return graphs


def test_mask_cells_match_list_cell_oracle(s54, moved_s54):
    # the whole labelling: form, first least leaf and the sorted
    # automorphisms, on random and structured graphs and every descendant
    # of S54 and of a relabelled and switched S54; the refinement of the
    # root and of one child, as ordered partitions
    rng = random.Random(109)
    graphs = [random_graph(rng, rng.randint(0, 16), density)
              for density in (0.2, 0.5, 0.8) for _ in range(40)]
    graphs += structured_graphs()
    for adj in graphs:
        unit = [list(range(len(adj)))] if adj else []
        root = seidel._refine(adj, [as_mask(c) for c in unit], [as_mask(c) for c in unit])
        oracle_root = reference_list_refine(adj, unit, unit)
        assert [vertices(c) for c in root] == [sorted(c) for c in oracle_root]
        targets = [i for i, c in enumerate(oracle_root) if len(c) > 1]
        if targets:
            i = rng.choice(targets)
            v = rng.choice(oracle_root[i])
            single = [v]
            child = (oracle_root[:i] + [single, [w for w in oracle_root[i] if w != v]]
                     + oracle_root[i + 1:])
            masks = [as_mask(c) for c in child]
            got = seidel._refine(adj, masks, [1 << v])
            assert masks == [as_mask(c) for c in child]          # left unmodified
            assert ([vertices(c) for c in got]
                    == [sorted(c) for c in reference_list_refine(adj, child, [single])])
    graphs += [seidel._descendant(s, v)[1] for s in (s54, moved_s54) for v in range(54)]
    for adj in graphs:
        got = seidel.canonical_graph_form(len(adj), adj)
        oracle = reference_canonical_graph_form(len(adj), adj)
        assert (got.bits, got.labelling) == (oracle.bits, oracle.labelling)
        assert got.automorphisms == tuple(sorted(oracle.automorphisms))
        # the generators taken are each new, and generate the whole group
        identity = tuple(range(len(adj)))
        assert (regenerating_greedy_generators(identity, got.generators, seidel._compose)
                == list(got.generators))
        assert bfs_generate(identity, got.generators, seidel._compose) == set(got.automorphisms)


def all_descendants_form(s):
    """The switching form from every descendant, with no pruning."""
    best = min(seidel.canonical_graph_form(s.n - 1, seidel._descendant(s, v)[1]).bits
               for v in range(s.n))
    return f"{s.n}:{best:x}"


def test_pruned_switching_form_matches_all_descendants_random():
    rng = random.Random(63)
    for _ in range(150):
        s = random_seidel(rng, rng.randint(2, 8))
        assert seidel.switching_canonical_form(s) == all_descendants_form(s)


def test_switching_search_labels_few_descendants(s54, monkeypatch, fresh_switching_caches):
    # 3 descendants labelled, one per orbit (0, 2, 9); their pruned
    # searches refine 14 partitions and read 9 leaves, against 27 and 22
    # with no pruning
    calls = {"canonical_graph_form": 0, "_refine": 0, "_leaf_bits": 0}
    for name in calls:
        def counted(*args, real=getattr(seidel, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(seidel, name, counted)
    assert seidel.signed_automorphism_group(s54).order == 216
    form = seidel.switching_canonical_form(s54)
    assert calls == {"canonical_graph_form": 3, "_refine": 14, "_leaf_bits": 9}
    monkeypatch.undo()
    assert form == all_descendants_form(s54)


def test_dropped_descendant_automorphism_fails_orbit_stabilizer(
        s54, monkeypatch, fresh_switching_caches):
    real = seidel.canonical_graph_form
    adj0 = seidel._descendant(s54, 0)[1]

    def lossy(n, adj):
        result = real(n, adj)
        if adj == adj0:
            return dataclasses.replace(result, automorphisms=result.automorphisms[:-1])
        return result

    monkeypatch.setattr(seidel, "canonical_graph_form", lossy)
    with pytest.raises(AssertionError, match="orbit-stabilizer"):
        seidel.signed_automorphism_group(s54)


def test_dropped_found_automorphism_fails_orbit_product(s54, monkeypatch):
    # the closure of all found generators but the last is a proper
    # subgroup: each generator moves a first-path vertex outside the
    # orbit of those found before it
    adj0 = seidel._descendant(s54, 0)[1]
    assert len(seidel.canonical_graph_form(53, adj0).automorphisms) == 4
    real = seidel._greedy_generators
    monkeypatch.setattr(seidel, "_greedy_generators",
                        lambda identity, elements: real(identity, list(elements)[:-1]))
    with pytest.raises(AssertionError, match="first-path orbits give 4"):
        seidel.canonical_graph_form(53, adj0)


def reference_descendant(s, v):
    """Oracle for _descendant: one product of three entries per pair."""
    rest = [j for j in range(s.n) if j != v]
    adj = []
    for a in rest:
        mask = 0
        for b_pos, b in enumerate(rest):
            if a != b and s.rows[a][b] * s.rows[v][a] * s.rows[v][b] == -1:
                mask |= 1 << b_pos
        adj.append(mask)
    return rest, adj


def test_descendant_matches_double_loop_oracle(s54, moved_s54):
    rng = random.Random(127)
    matrices = [s54, moved_s54] + [random_seidel(rng, n) for n in range(1, 10) for _ in range(5)]
    for s in matrices:
        for v in range(s.n):
            assert seidel._descendant(s, v) == reference_descendant(s, v)


def reference_class_heads(s):
    """Oracle for _class_heads: the least vertex of each class of the
    descendants' sorted degree sequences, counted from the
    reference_descendant masks, in increasing order."""
    heads = {}
    for v in range(s.n):
        degrees = tuple(sorted(bin(a).count("1") for a in reference_descendant(s, v)[1]))
        heads.setdefault(degrees, v)
    return sorted(heads.values())


def reference_switching_search(s, index_order=False):
    """Oracle for _switching_search: the orbits of the labelled vertices
    rebuilt by a breadth-first search before each w, descendants from
    reference_descendant, and the generators that canonical_graph_form
    took for every labelled descendant's group extended to generators.
    The walk visits the reference_class_heads first, then every vertex
    in index order; with index_order, in index order only. Returns its
    (best, aut0, gens) and the labelled vertices."""
    n = s.n
    gens = [seidel._on_points(range(n), [-1] * n)]
    labelled = []
    first = best = None
    heads = [] if index_order else reference_class_heads(s)
    for w in heads + list(range(n)):
        reached, frontier = set(labelled), list(labelled)
        while frontier:
            v = frontier.pop()
            for g in gens:
                u = g[2 * v + 1] >> 1
                if u not in reached:
                    reached.add(u)
                    frontier.append(u)
        if w in reached:
            continue
        labelled.append(w)
        rest, adj = reference_descendant(s, w)
        form = seidel.canonical_graph_form(n - 1, adj)
        for g in form.generators:
            perm = list(range(n))
            for pos, v in enumerate(rest):
                perm[v] = rest[g[pos]]
            gens.append(seidel._extend_to_signed(s, tuple(perm)))
        if first is None:
            first, rest0, best = form, rest, form.bits
            continue
        best = min(best, form.bits)
        if form.bits == first.bits:
            perm = [0] * n
            perm[0] = w
            for a, b in zip(first.labelling, form.labelling):
                perm[rest0[a]] = rest[b]
            gens.append(seidel._extend_to_signed(s, tuple(perm)))
    return (best, len(first.automorphisms), tuple(gens)), tuple(labelled)


def test_switching_search_matches_per_vertex_closure_oracle(
        s54, moved_s54, monkeypatch, fresh_switching_caches):
    real, described = seidel._descendant, []

    def spy(s, v):
        described.append(v)
        return real(s, v)

    monkeypatch.setattr(seidel, "_descendant", spy)
    rng = random.Random(131)
    matrices = [s54, moved_s54] + [random_seidel(rng, rng.randint(2, 8)) for _ in range(80)]
    for s in matrices:
        described.clear()
        clear_switching_caches()
        got = seidel._switching_search(s)
        expected, labelled = reference_switching_search(s)
        assert seidel._class_heads(s) == reference_class_heads(s)
        assert got == expected
        assert tuple(described) == labelled
        if s is s54:
            assert labelled == (0, 2, 9) and got[1] == 4
        if s is moved_s54:
            assert len(labelled) == 3


def test_switching_search_labels_three_descendants_of_relabelled_s54(
        s54, monkeypatch, fresh_switching_caches):
    # each switched and relabelled copy labels one descendant per orbit
    # and finds what the index-order walk finds: the least form,
    # |Aut(descendant_0)| and the signed group
    real, described = seidel._descendant, []
    monkeypatch.setattr(seidel, "_descendant", lambda s, v: described.append(v) or real(s, v))
    rng = random.Random(1)
    identity = tuple(range(2 * 54))
    for _ in range(60):
        perm = rng.sample(range(54), 54)
        signs = [rng.choice((1, -1)) for _ in range(54)]
        s = seidel.switch(seidel.permute(s54, perm), signs)
        described.clear()
        clear_switching_caches()
        best, aut0, gens = seidel._switching_search(s)
        assert len(described) == 3
        (old_best, old_aut0, old_gens), _ = reference_switching_search(s, index_order=True)
        assert (best, aut0) == (old_best, old_aut0)
        group = seidel._greedy_generators(identity, gens)[1]
        assert group == seidel._greedy_generators(identity, old_gens)[1]
        assert len(group) == 216


def test_extend_to_signed_refuses_a_non_switching_automorphism(s54):
    # no signs d make the transposition (0 1) preserve S54: up to the
    # sign of all of d, d_0 = 1, and then row 0 forces d_j = S[0, j]
    # S[1, swap j], which fails some entry
    swap = (1, 0, *range(2, 54))
    d = [1] + [s54.rows[0][j] * s54.rows[1][swap[j]] for j in range(1, 54)]
    assert not all(s54.rows[swap[i]][swap[j]] * d[i] * d[j] == s54.rows[i][j]
                   for i in range(54) for j in range(54))
    with pytest.raises(AssertionError, match="claimed switching automorphism does not extend"):
        seidel._extend_to_signed(s54, swap)


def test_minus_identity_preserves_every_seidel_matrix():
    # the one generator of the switching search that no check verifies
    rng = random.Random(151)
    for n in range(10):
        for _ in range(5):
            s = random_seidel(rng, n)
            minus = seidel._on_points(range(n), [-1] * n)
            assert seidel._signed_preserves(s, minus)
            assert reference_signed_preserves(s, [(i, -1) for i in range(n)])


def reference_seidel_from(system):
    """S from LineVector.dot, entry by entry with the diagonal: the oracle
    for seidel_from's Gram-matrix path."""
    vecs = system.vectors
    rows = []
    for i, u in enumerate(vecs):
        if dot(u, u) != construct.SCALED_NORM:
            raise seidel.NotEquiangularError(f"norm of {i}")
        row = []
        for j, v in enumerate(vecs):
            ip = dot(u, v)
            if j != i and abs(ip) != construct.SCALED_ANGLE:
                raise seidel.NotEquiangularError(f"inner product {ip}")
            row.append(0 if j == i else ip // construct.SCALED_ANGLE)
        rows.append(row)
    return seidel.SeidelMatrix(rows)


def seidel_outcome(fn, system):
    try:
        return fn(system)
    except seidel.NotEquiangularError:
        return None


def test_seidel_from_matches_dot_oracle(asche, final54):
    from test_construct import random_systems

    assert seidel.seidel_from(final54) == reference_seidel_from(final54)
    assert seidel.seidel_from(asche) == reference_seidel_from(asche)
    outcomes = [(seidel_outcome(seidel.seidel_from, system),
                 seidel_outcome(reference_seidel_from, system))
                for system in random_systems(final54, 200, 22)]
    assert all(new == old for new, old in outcomes)
    assert 50 < sum(new is None for new, _ in outcomes) < 150


def test_seidel_from_rejects_angle_16_at_wrong_norm():
    # inner product 16 between the two, but scaled norms 16 and 20
    a = construct.LineVector(coords=tuple([4] + [0] * 23), source=0)
    b = construct.LineVector(coords=tuple([4, 2] + [0] * 22), source=1)
    pair = construct.LineSystem(vectors=(a, b), ambient_dim=2)
    assert dot(a, b) == 16
    with pytest.raises(seidel.NotEquiangularError, match="scaled norm 16 of member 0"):
        seidel.seidel_from(pair)


def nullity_spectrum(s, candidates=None):
    """The spectrum of s by a nullity sweep over the candidates (default
    range(1 - n, n)), then the quadratic from the two trace identities;
    None if what is left is not a quadratic with integer coefficients and
    no integer root."""
    n = s.n
    m = s.rows
    if candidates is None:
        candidates = range(1 - n, n)
    eigs = {}
    for lam in sorted(set(candidates)):
        mult = exactlin.nullity_at(m, lam)
        if mult:
            eigs[lam] = mult
            if sum(eigs.values()) == n:
                break
    deficit = n - sum(eigs.values())
    if deficit == 0:
        return seidel.SpectrumClaim.make(eigs)
    if deficit != 2:
        return None
    known = seidel.SpectrumClaim.make(eigs)
    b = known.eig_sum()
    rest_sq = n * (n - 1) - known.eig_square_sum()
    if (b * b - rest_sq) % 2:
        return None
    c = (b * b - rest_sq) // 2
    disc = b * b - 4 * c
    if disc >= 0 and math.isqrt(disc) ** 2 == disc:
        return None
    return seidel.SpectrumClaim.make(eigs, quadratic=(b, c))


@pytest.fixture(scope="module")
def t52(s54, s54_window):
    """An order-52 hit of S54 (the T52 class) and the odd window members."""
    (_, removed, _), *_ = search.subseidel_scan(s54, s54_window, orders=(52,)).hits
    sub = s54.principal_submatrix(i for i in range(54) if i not in removed)
    return sub, [lam for lam in s54_window if lam % 2]


def test_compute_spectrum_matches_nullity_sweep_oracle(s54, t52):
    # equal to the sweep where every eigenvalue is a candidate, else None
    rng = random.Random(83)
    cases = [(random_seidel(rng, rng.randint(0, 8)), None) for _ in range(300)]
    cases += [(clique_seidel(n), None) for n in range(1, 11)]
    cases += [(petersen_seidel(), None), (cycle_seidel(5), None), (cycle_seidel(7), None), t52,
              (s54, range(-5, 19))]          # S54: not integral
    kinds = {"integral": 0, "quadratic": 0, "irrational": 0}
    for s, candidates in cases:
        expected = nullity_spectrum(s, candidates)
        got = seidel.compute_spectrum(s, range(1 - s.n, s.n) if candidates is None else candidates)
        kind = ("irrational" if expected is None else
                "quadratic" if expected.quadratic else "integral")
        assert got == (expected if kind == "integral" else None), s
        kinds[kind] += 1
    assert min(kinds.values()) > 20
    assert seidel.compute_spectrum(*t52) == seidel.SpectrumClaim.make(
        {-5: 34, 3: 1, 5: 1, 7: 6, 11: 7, 13: 2, 17: 1})
    assert seidel.compute_spectrum(s54, range(-5, 19)) is None


def test_chain_primes_exceed_the_entry_bound(s54, t52, monkeypatch):
    # a vanishing chain modulo p0 alone proves nothing: the primes used
    # must multiply to more than the bound on every entry of the chain,
    # prod (n - 1 + |lam|) for T52, times 53 + 24 + 107 for S54's chain
    # after its quadratic x^2 - 24x + 107 (how many passes a whole run
    # makes is pinned by test_a_whole_run_makes_one_float64_chain_pass_per_spectrum)
    real, calls = exactlin.product_chain, []

    def spy(x, factors, p, stride, mask=1.0):
        calls.append(tuple(int(q) for q in np.ravel(p)))
        return real(x, factors, p, stride, mask)

    monkeypatch.setattr(exactlin, "product_chain", spy)
    for s, lams, quadratic, q_bound in [(*t52, None, 1),
                                        (s54, [-5, 7, 11, 13], (-24, 107), 53 + 24 + 107)]:
        calls.clear()
        assert seidel._multiplicities(s, lams, quadratic) is not None
        bound = q_bound * math.prod(s.n - 1 + abs(lam) for lam in lams)
        used = [p for primes in calls for p in primes]
        assert used[0] == exactlin.PRIMES[-1]
        assert len(set(used)) == len(used) and set(used) <= set(exactlin.PRIMES)
        assert math.prod(used) > bound >= math.prod(used[:-1])


def counted_nullities(monkeypatch):
    """Spy on exactlin.nullity_at and exactlin.product_chain: the returned
    dict counts the calls of each."""
    counts = {"nullity_at": 0, "product_chain": 0}
    for name in counts:
        real = getattr(exactlin, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(exactlin, name, counted)
    return counts


def test_chain_without_enough_primes_takes_nullities(monkeypatch):
    # J - I of order 10 over range(-9, 10): the chain vanishes, but its
    # entry bound 9 (18! / 9!)^2 > 2^71 needs three primes; with two left
    # no chain runs and the nullities give the same exact answer
    s = clique_seidel(10)
    counts = counted_nullities(monkeypatch)
    assert seidel.compute_spectrum(s, range(-9, 10)) == seidel.SpectrumClaim.make({-1: 9, 9: 1})
    assert counts == {"nullity_at": 0, "product_chain": 1}
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[-2:])
    assert seidel.compute_spectrum(s, range(-9, 10)) == seidel.SpectrumClaim.make({-1: 9, 9: 1})
    assert counts == {"nullity_at": 19, "product_chain": 1}
    # nor can a chain that does not vanish run: its nullities sum below n
    assert seidel.compute_spectrum(s, range(-9, 9)) is None
    assert counts == {"nullity_at": 37, "product_chain": 1}


def reference_chain(s, lams, p, quadratic=None):
    """Oracle for _annihilator_chain modulo one prime p: whether X vanishes
    modulo p, and tr X_k mod p for every k, with exactlin.float_mod after
    q(S), formed with b mod p and c mod p, and after every product."""
    a = s.array.astype(float)
    x = np.eye(s.n)
    if quadratic:
        b, c = quadratic
        x = exactlin.float_mod(a @ a + b % p * a + c % p * x, p)
    traces = [int(np.trace(x)) % p]
    for lam in lams:
        x = exactlin.float_mod(x @ (a - lam * np.eye(s.n)), p)
        traces.append(int(np.trace(x)) % p)
    return not x.any(), traces


def test_chain_matches_per_product_reference(s54, t52):
    # random Seidel matrices, with and without a quadratic (big coefficients
    # too), lams in any order up to the edge where the chain may take one
    # product between reductions, and chains that vanish: every lane of three
    # primes is read as lane 0 in turn, and the vanishing of all three is
    # compared
    p0 = exactlin.PRIMES[-1]
    rng = random.Random(31)
    cases = [(s54, [-5, 7, 11, 13], (-24, 107)), (*t52, None), (clique_seidel(9), [-1, 8], None),
             (cycle_seidel(5), [0], (0, -5)), (cycle_seidel(5), [0], (0, -5 + 7 * p0))]
    for _ in range(60):
        n = rng.randint(1, 20)
        edge = (2 ** 52 - 1) // (n * p0) - (n - 1)      # k = 1 for max |lam| = edge
        wide = [edge, -edge, edge - 1, 1 - edge, rng.randint(n, edge)]
        lams = list(set(rng.sample(range(1 - n, n), rng.randint(0, min(6, 2 * n - 1)))
                        + rng.sample(wide, rng.randint(0, 4))))
        rng.shuffle(lams)                               # wide factors anywhere in the chain
        quadratic = rng.choice([None, (rng.randint(-9, 9), rng.randint(-9, 9)),
                                (rng.randint(-10 ** 12, 10 ** 12), rng.randint(-10 ** 12, 10 ** 12))])
        cases.append((random_seidel(rng, n), lams, quadratic))
    strides, vanished = set(), 0
    for s, lams, quadratic in cases:
        norm = s.n - 1 + max(map(abs, lams), default=0)
        stride = exactlin.product_stride(s.n, p0, norm, np.float64)
        strides.add(stride)
        primes = exactlin.PRIMES[-3:][::-1]
        expected = [reference_chain(s, lams, p, quadratic) for p in primes]
        for lane in range(3):
            order = primes[lane:] + primes[:lane]
            vanishes, traces = seidel._annihilator_chain(s, lams, order, stride, quadratic)
            assert traces == expected[lane][1], (s.n, lams, quadratic, lane)
            assert vanishes == all(v for v, _ in expected), (s.n, lams, quadratic)
        vanished += expected[0][0]
    assert {1, 2} <= strides and vanished >= 5


def test_chain_beyond_exact_float64_takes_nullities(monkeypatch):
    # a candidate beyond n - 1 = 2 is no eigenvalue of J - I of order 3,
    # so it gets 0 and the chain runs on the rest, however far it is (at
    # 699,049 the chain over it would take no product between reductions:
    # 3 p0 (2 + 699,049) >= 2^52). With a stride of 0, which over
    # candidates up to n - 1 needs n (2n - 2) p0 >= 2^52, about 1,025
    # points, no chain runs and the nullities of the rest give the answer
    counts = counted_nullities(monkeypatch)
    expected = seidel.SpectrumClaim.make({-1: 2, 2: 1})
    for far in (1 << 21, 699_049, 699_048):
        assert seidel.compute_spectrum(clique_seidel(3), candidates=[-1, 2, far]) == expected
    assert seidel.compute_spectrum(clique_seidel(3), candidates=[-1, 699_049]) is None
    assert counts == {"nullity_at": 0, "product_chain": 4}
    monkeypatch.setattr(exactlin, "product_stride", lambda *args: 0)
    assert seidel.compute_spectrum(clique_seidel(3), candidates=[-1, 2, 1 << 21]) == expected
    assert seidel.compute_spectrum(clique_seidel(3), candidates=[-1, 699_049]) is None
    assert counts == {"nullity_at": 3, "product_chain": 4}


def test_candidates_beyond_n_minus_1_cost_no_work(s54, monkeypatch):
    # all but 107 of these 2^16 candidates lie beyond n - 1 = 53 and get 0
    # with no bound, chain or nullity; the chain over the 107 others finds
    # the eigenvalues outside them, the quadratic's roots: None
    counts = counted_nullities(monkeypatch)
    assert seidel.compute_spectrum(s54, range(-2 ** 15, 2 ** 15)) is None
    assert counts == {"nullity_at": 0, "product_chain": 1}


S72_SPECTRUM = seidel.SpectrumClaim.make({-5: 53, 13: 16, 19: 3})


@pytest.fixture(scope="module")
def s72(asche):
    """The Seidel matrix of Asche's 72 lines, a second real input."""
    return seidel.seidel_from(asche)


def test_s72_spectrum_is_forced_by_an_int64_annihilator(s72, monkeypatch):
    # (S + 5I)(S - 13I)(S - 19I) = 0 (every entry of the first two factors'
    # product is at most 6 in absolute value) puts every eigenvalue in
    # {-5, 13, 19}; n = 72, tr S = 0 and tr S^2 = 72 * 71 then force the
    # multiplicities (a Vandermonde system), and the chain proves them
    # with no nullity
    a, i = s72.array, np.eye(72, dtype=np.int64)
    assert not ((a + 5 * i) @ (a - 13 * i) @ (a - 19 * i)).any()
    assert np.trace(a) == 0 and np.trace(a @ a) == 72 * 71
    assert S72_SPECTRUM.total_multiplicity == 72
    assert S72_SPECTRUM.eig_sum() == 0 and S72_SPECTRUM.eig_square_sum() == 72 * 71
    counts = counted_nullities(monkeypatch)
    assert seidel.certify_spectrum(s72, S72_SPECTRUM).passed
    assert seidel.compute_spectrum(s72, range(-5, 20)) == S72_SPECTRUM
    assert counts == {"nullity_at": 0, "product_chain": 2}


def test_s72_moved_multiplicity_names_its_premises(s72, monkeypatch):
    counts = counted_nullities(monkeypatch)
    cert = seidel.certify_spectrum(s72, seidel.SpectrumClaim.make({-5: 53, 13: 15, 19: 4}))
    failed = {"nullity_at_13": {"claimed": 15, "exact": 16},
              "nullity_at_19": {"claimed": 4, "exact": 3},
              "trace_identity": 6, "trace_square_identity": 5304}
    assert {name for name, ok in cert.details["checks"].items() if not ok} == {
        "char_poly_matches", *failed}
    assert cert.details["first_failure"] == {
        "check": "char_poly_matches", "witness": {"failed_premises": failed}}
    assert counts == {"nullity_at": 0, "product_chain": 1}


def test_s72_shifted_value_is_proved_by_a_completed_chain(s72, monkeypatch):
    # 19 claimed as 17: the chain over -5, 13, 17 proves an eigenvalue
    # outside them, the minimal polynomial of a Krylov vector (its second
    # chain) adds 19, and a third chain, over -5, 13, 17, 19, names the
    # oracle's failed premises with no nullity
    claim = seidel.SpectrumClaim.make({-5: 53, 13: 16, 17: 3})
    expected = certificate_fields(reference_certify_spectrum(s72, claim))
    counts = counted_nullities(monkeypatch)
    cert = seidel.certify_spectrum(s72, claim)
    assert counts == {"nullity_at": 0, "product_chain": 3}
    assert certificate_fields(cert) == expected
    assert cert.details["first_failure"] == {"check": "char_poly_matches", "witness": {
        "failed_premises": {"nullity_at_17": {"claimed": 3, "exact": 0},
                            "trace_identity": -6, "trace_square_identity": 4896}}}


def test_failed_s54_claims_are_proved_by_a_completed_chain(s54, monkeypatch):
    # the three kinds of wrong claim the benchmark draws: a moved
    # multiplicity keeps the values, so the claim's chain vanishes; a
    # shifted value (each of the four in turn, -5 among them) or a moved
    # quadratic constant leaves an eigenvalue outside the claim, which the
    # Krylov chain finds, and a third chain proves: no nullity, and the
    # nullity oracle's certificate
    rng = random.Random(40)
    eigs, (b, c) = {-5: 36, 7: 6, 11: 8, 13: 2}, (-24, 107)
    claims = []
    for _ in range(3):
        src, dst = rng.sample(sorted(eigs), 2)
        claims.append((1, {**eigs, src: eigs[src] - 1, dst: eigs[dst] + 1}, (b, c)))
    for old in sorted(eigs):
        shifted = {v: m for v, m in eigs.items() if v != old}
        shifted[rng.choice([v for v in range(-5, 19) if v not in eigs])] = eigs[old]
        claims.append((3, shifted, (b, c)))
    for shift in rng.sample([-3, -2, -1, 1, 2, 3], 3):
        claims.append((3, eigs, (b, c + shift)))
    claims = [(chains, seidel.SpectrumClaim.make(e, q)) for chains, e, q in claims]
    expected = [certificate_fields(reference_certify_spectrum(s54, claim)) for _, claim in claims]
    counts = counted_nullities(monkeypatch)
    for (chains, claim), fields in zip(claims, expected):
        counts.update(nullity_at=0, product_chain=0)
        cert = seidel.certify_spectrum(s54, claim)
        assert counts == {"nullity_at": 0, "product_chain": chains}, claim
        assert certificate_fields(cert) == fields and not cert.passed, claim


def test_the_completed_chain_refuses_a_wrong_guess(s54, monkeypatch):
    # the guess proves nothing: one that misses an eigenvalue, leaves its
    # quadratic unlifted, names another quadratic or none, or stops its
    # chain (q(13) = 0) is refused, and the nullities of the claimed values,
    # never more, give the oracle's certificate; the right guess needs none
    p0 = exactlin.PRIMES[-1]
    claim = seidel.SpectrumClaim.make({-5: 36, 7: 6, 11: 8, 15: 2}, quadratic=(-24, 107))
    expected = certificate_fields(reference_certify_spectrum(s54, claim))
    lams = [-5, 7, 11, 13, 15]
    guesses = [([-5, 7, 11, 15], (-24, 107), 4, 2), (lams, (p0 - 24, 107), 4, 2),
               (lams, (-24, 106), 4, 2), (lams, None, 4, 2), (lams, (-14, 13), 4, 1),
               (lams, (-24, 107), 0, 2)]
    counts = counted_nullities(monkeypatch)
    for guess_lams, quadratic, nullities, chains in guesses:
        monkeypatch.setattr(seidel, "_completion",
                            lambda *args, guess=(guess_lams, quadratic): guess)
        counts.update(nullity_at=0, product_chain=0)
        cert = seidel.certify_spectrum(s54, claim)
        assert certificate_fields(cert) == expected, (guess_lams, quadratic)
        assert counts == {"nullity_at": nullities, "product_chain": chains}


def test_a_completion_that_cannot_run_takes_only_the_claims_nullities(s72, monkeypatch):
    # {-5: 70} after (x - 1)(x - 13): the chain over -5 proves 19 outside
    # it; the completion adds 13 and 19 and keeps the quadratic, whose
    # root 13 stops the completed chain, so only -5's nullity is taken
    claim = seidel.SpectrumClaim.make({-5: 70}, quadratic=(-14, 13))
    expected = certificate_fields(reference_certify_spectrum(s72, claim))
    assert seidel._completion(s72, [-5], (-14, 13)) == ([-5, 13, 19], (-14, 13))
    counts = counted_nullities(monkeypatch)
    assert certificate_fields(seidel.certify_spectrum(s72, claim)) == expected
    assert counts == {"nullity_at": 1, "product_chain": 2}


def test_a_completion_beyond_a_quadratic_takes_the_nullities(monkeypatch):
    # a random S of order 6 (seed 1) has the eigenvalue 1 three times and
    # the roots of x^3 + 3x^2 - 9x - 19, none an integer: over the claimed
    # 1 and 3, the Krylov vector's minimal polynomial leaves that cubic, so
    # no chain runs after the Krylov chain, and the two nullities give the
    # oracle's certificate
    s = random_seidel(random.Random(1), 6)
    assert [exactlin.nullity_at(s.rows, lam) for lam in range(-5, 6)] == [0] * 6 + [3] + [0] * 4
    claim = seidel.SpectrumClaim.make({1: 3, 3: 3})
    expected = certificate_fields(reference_certify_spectrum(s, claim))
    counts = counted_nullities(monkeypatch)
    assert certificate_fields(seidel.certify_spectrum(s, claim)) == expected
    assert counts == {"nullity_at": 2, "product_chain": 2}


def test_s72_subscan_refuses_more_than_63_points(s72, fresh_switching_caches):
    # among the input checks, before the signed group is searched
    with pytest.raises(ValueError, match="72 points do not fit in int64 subset masks"):
        search.subseidel_scan(s72, S72_SPECTRUM.integer_window(), (71,))
    assert seidel.signed_automorphism_group.cache_info().misses == 0


def test_s72_signed_group_is_the_closure_of_generators_that_preserve_it(s72,
                                                                         fresh_switching_caches):
    # the order needs no search. Lower bound: each reported generator
    # preserves S72 entry by entry, and the 5,184 elements are their
    # closure, breadth first, so every element preserves S72 too. Upper
    # bound: an element fixing the point (0, +1) has signs S[0, j] S[0, t_j],
    # so its permutation, which preserves descendant_0, determines it; in
    # descendant_0 an automorphism keeps each cell of the coarsest
    # equitable partition, and fixing a vertex of its 36-vertex cell
    # refines to a discrete partition, so |Aut(descendant_0)| <= 36 and
    # |group| <= 72 * 2 * 36 = 5,184
    group = seidel.signed_automorphism_group(s72)
    assert all(reference_signed_preserves(s72, as_pairs(g)) for g in group.generators)
    assert bfs_generate(tuple(range(144)), group.generators, seidel._compose) == set(group.elements)
    adj0 = reference_descendant(s72, 0)[1]
    cell = max(reference_refine(71, adj0, [list(range(71))]), key=len)
    assert len(cell) == 36
    rest = [u for u in range(71) if u != cell[0]]
    assert len(reference_refine(71, adj0, [[cell[0]], rest])) == 71
    assert group.order == 5184 == 72 * 2 * len(cell)
    # orbit-stabilizer at vertex 0: S72 is vertex-transitive, and its
    # stabilizer is +/- Aut(descendant_0)
    orbit = {as_pairs(m)[0][0] for m in group.elements}
    stabilizer = [m for m in group.elements if as_pairs(m)[0][0] == 0]
    descendant = seidel.canonical_graph_form(71, seidel._descendant(s72, 0)[1])
    assert len(orbit) == 72 and len(stabilizer) == 2 * len(descendant.automorphisms) == 72
    assert group.order == len(orbit) * len(stabilizer)


def test_s72_plain_group_is_the_signed_elements_with_all_signs_plus(s72, fresh_switching_caches):
    plain = seidel.automorphism_order(s72)
    expected = [tuple(t for t, _ in pairs)
                for pairs in map(as_pairs, seidel.signed_automorphism_group(s72).elements)
                if all(sign == 1 for _, sign in pairs)]
    assert plain.order == 864 and list(plain.elements) == expected == sorted(expected)
    assert all(preserves(s72, g) for g in plain.generators)
    assert bfs_generate(tuple(range(72)), plain.generators, seidel._compose) == set(expected)


def test_s72_switching_form_is_equal_on_a_relabelled_and_switched_copy(s72,
                                                                        fresh_switching_caches):
    rng = random.Random(157)
    moved = seidel.switch(seidel.permute(s72, rng.sample(range(72), 72)),
                          [rng.choice((1, -1)) for _ in range(72)])
    assert moved != s72
    form = seidel.switching_canonical_form(s72)
    clear_switching_caches()
    assert seidel.switching_canonical_form(moved) == form


@pytest.mark.parametrize("name, refinements, leaves, descendants", [
    ("moved_s54", 14, 9, 3), ("s72", 232, 146, 2)])
def test_cold_signed_group_work(name, refinements, leaves, descendants, request, monkeypatch,
                                fresh_switching_caches):
    # as test_switching_search_labels_few_descendants pins S54's: a cold
    # signed group labels one descendant per orbit of the signed elements
    # found so far, 3 on a relabelled and switched S54 and 2 on the
    # vertex-transitive S72, and their pruned searches refine and read
    # leaves this often
    s = request.getfixturevalue(name)
    calls = {"_refine": 0, "_leaf_bits": 0, "canonical_graph_form": 0}
    for spied in calls:
        def counted(*args, real=getattr(seidel, spied), spied=spied):
            calls[spied] += 1
            return real(*args)
        monkeypatch.setattr(seidel, spied, counted)
    seidel.signed_automorphism_group(s)
    assert tuple(calls.values()) == (refinements, leaves, descendants)


def reference_signed_compose(a, b):
    """Oracle for _compose on the 2n points: apply b, then a, on (target,
    sign) pairs."""
    return tuple((a[tb][0], sb * a[tb][1]) for tb, sb in b)


def test_compose_of_short_tuples():
    # itemgetter of a single index returns a scalar, not a tuple
    assert seidel._compose((), ()) == ()
    assert seidel._compose((0,), (0,)) == (0,)
    assert seidel._compose((1, 0), (1, 0)) == (0, 1)
    assert seidel._compose((1, 0), (0, 1)) == (1, 0)
    assert seidel._compose((0, 1), (1, 0)) == (1, 0)
    rng = random.Random(107)
    for n in range(8):
        for _ in range(10):
            p, q = rng.sample(range(n), n), rng.sample(range(n), n)
            assert seidel._compose(p, q) == tuple(p[q[i]] for i in range(n))


def bfs_generate(identity, gens, compose):
    """Oracle for the group _greedy_generators yields: breadth first from the identity, every
    element times every generator."""
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                p = compose(h, g)
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt
    return group


def regenerating_greedy_generators(identity, elements, compose):
    """Oracle for _greedy_generators: the whole group regenerated from the
    identity after each generator taken, in the order given."""
    gens, group = [], {identity}
    for p in elements:
        if p not in group:
            gens.append(p)
            group = bfs_generate(identity, gens, compose)
    return gens


def test_group_closure_and_greedy_generators_match_bfs_oracles(s54):
    rng = random.Random(89)
    matrices = [s54, petersen_seidel(), clique_seidel(5), cycle_seidel(6)]
    matrices += [random_seidel(rng, rng.randint(1, 8)) for _ in range(60)]
    for s in matrices:
        result = seidel.signed_automorphism_group(s)
        signed = result.elements
        identity = tuple(range(2 * s.n))
        gens = list(seidel._switching_search(s)[2]) if s.n else []
        for some in (gens, gens[::-1], list(result.generators), signed[:3]):
            assert (seidel._greedy_generators(identity, some)[1]
                    == bfs_generate(identity, some, seidel._compose))
        assert (seidel._greedy_generators(identity, signed)[0]
                == regenerating_greedy_generators(identity, signed, seidel._compose))
        # on (target, sign) pairs, the reference composition closes the same
        # group: the elements in sorted order and the greedy generators
        # taken in that order are those on the 2n points
        pair_identity = tuple((i, 1) for i in range(s.n))
        closure = sorted(bfs_generate(pair_identity, [as_pairs(g) for g in gens],
                                      reference_signed_compose))
        assert [as_pairs(m) for m in signed] == closure
        assert [as_pairs(g) for g in result.generators] == regenerating_greedy_generators(
            pair_identity, closure, reference_signed_compose)
        plain = seidel.automorphism_order(s).elements
        assert [tuple(t for t, _ in pairs) for pairs in closure
                if all(sign == 1 for _, sign in pairs)] == list(plain)
        assert (list(seidel.automorphism_order(s).generators)
                == regenerating_greedy_generators(tuple(range(s.n)), sorted(plain),
                                                  seidel._compose))
    symmetric = list(permutations(range(5)))
    assert (seidel._greedy_generators(tuple(range(5)), sorted(symmetric))[0]
            == regenerating_greedy_generators(tuple(range(5)), sorted(symmetric),
                                              seidel._compose))


def double_loop_bits(adj, perm):
    """Oracle for _leaf_bits: one bit test per pair of positions."""
    n = len(perm)
    bits = 0
    k = 0
    for i in range(n):
        vi = perm[i]
        for j in range(i + 1, n):
            if adj[vi] >> perm[j] & 1:
                bits |= 1 << k
            k += 1
    return bits


def test_adjacency_bits_match_double_loop_oracle(s54):
    # the packed leaf bits against the string and double-loop oracles,
    # on random graphs of every n in 0..12 and on every descendant of S54
    rng = random.Random(97)
    graphs = [random_graph(rng, n, density) for n in range(13)
              for density in (0.2, 0.5, 0.8) for _ in range(8)]
    graphs += [seidel._descendant(s54, v)[1] for v in range(54)]
    for adj in graphs:
        matrix = seidel._adjacency_matrix(len(adj), adj)
        assert matrix.tolist() == [[bool(a >> u & 1) for u in range(len(adj))] for a in adj]
        rows = adjacency_rows(adj)
        for _ in range(3):
            perm = list(range(len(adj)))
            rng.shuffle(perm)
            bits = seidel._leaf_bits(matrix, tuple(perm))
            assert bits == adjacency_bits(rows, perm) == double_loop_bits(adj, perm)


def test_claim_value_beyond_int64_fails_its_premise(s54):
    # S54 - 10^20 I does not fit int64, yet it is strictly diagonally
    # dominant, so its nullity is 0 without a rank
    claim = seidel.SpectrumClaim.make({-5: 36, 7: 6, 11: 8, 10 ** 20: 2}, quadratic=(-24, 107))
    cert = seidel.certify_spectrum(s54, claim)
    assert certificate_fields(cert) == certificate_fields(
        reference_certify_spectrum(s54, claim))
    assert exactlin.nullity_at(s54.array, 10 ** 20) == 0
    checks = cert.details["checks"]
    assert not cert.passed and checks["char_poly_matches"] is False
    assert checks["nullity_at_100000000000000000000"] is False
    assert cert.details["first_failure"] == {
        "check": "char_poly_matches",
        "witness": {"failed_premises": {
            "nullity_at_100000000000000000000": {"claimed": 2, "exact": 0},
            "trace_identity": 2 * 10 ** 20 - 26,
            "trace_square_identity": 2 * 10 ** 40 + 2524}}}
