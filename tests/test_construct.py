import random

import numpy as np
import pytest

from equilines import construct, exactlin, golay, seidel
from equilines.certificate import CertificateBuilder
from conftest import dot
from test_exactlin import reference_mat_mul, transpose


def test_lift_zero_codeword():
    v = construct.lift(0)
    assert v.coords[0] == -5
    assert all(x == -1 for x in v.coords[1:])


def test_lift_c1():
    v = construct.lift(golay.C1)
    assert v.coords[0] == -5
    for c in range(2, 25):
        expected = 3 if c in golay.coords_from_mask(golay.C1) else -1
        assert v.coords[c - 1] == expected


def test_lift_norm_through_coordinate_1(code):
    for d in golay.octads_through(code, 1)[:40]:
        v = construct.lift(d)
        assert dot(v, v) == 80
        threes = sum(1 for x in v.coords if x == 3)
        assert threes == 7
        assert set(v.coords) == {-1, 3}
        assert v.coords[0] == -1


def test_scaled_inner_matches_intersection_rule(asche):
    # <u, v> = 16|d ∩ d'| - 48 for octads through coordinate 1
    vecs = asche.vectors
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            inter = golay.weight(vecs[i].source & vecs[j].source)
            assert dot(vecs[i], vecs[j]) == 16 * inter - 48


def test_asche_counts(asche):
    assert len(asche) == 72
    assert asche.ambient_dim == 19


def test_asche_orthogonal_to_4e1_plus_all(asche):
    four_e1_plus_all = (5,) + (1,) * 23
    assert all(dot(v, four_e1_plus_all) == 0 for v in asche.vectors)


def test_final_counts(final54):
    assert len(final54) == 54
    assert final54.ambient_dim == 18


def test_final_rank_via_exact_stack(final54):
    assert exactlin.rank(final54.coords.tolist()) == 18


def test_final_equiangular(final54):
    vecs = final54.vectors
    for i in range(54):
        assert dot(vecs[i], vecs[i]) == 80
        for j in range(i + 1, 54):
            assert dot(vecs[i], vecs[j]) in (16, -16)


def test_final_is_m_kernel_of_asche(asche, final54):
    expected = {v.source for v in asche.vectors if dot(v, construct.M) == 0}
    assert {v.source for v in final54.vectors} == expected


def test_removed_count(asche, final54):
    assert len(construct.removed_indices(asche, final54)) == 18


def gram(system):
    rows = system.coords.tolist()
    return reference_mat_mul(rows, transpose(rows))


def test_gram_is_80I_plus_16S(final54):
    from equilines import seidel

    s = seidel.seidel_from(final54)
    gram_matrix = gram(final54)
    for i in range(54):
        for j in range(54):
            expected = 80 if i == j else 16 * s.rows[i][j]
            assert gram_matrix[i][j] == expected


def test_ordering_deterministic(code, final54):
    again = construct.final_system(construct.asche_system(code))
    assert [v.source for v in again.vectors] == [v.source for v in final54.vectors]


def test_filter_vector_entries():
    m = construct.M
    assert len(m) == 24
    nonzero = {c: m[c - 1] for c in range(1, 25) if m[c - 1] != 0}
    assert nonzero == {4: 2, 5: -1, 6: -1, 7: 2, 8: -1, 10: -1,
                       17: 2, 18: -1, 20: -1, 22: -3, 23: 3}


def test_filter_octads_avoid_coordinate_1():
    assert not golay.C1 & 1 and not golay.C2 & 1
    assert golay.weight(golay.C1) == 8 and golay.weight(golay.C2) == 8


def test_verify_remark_passes(asche, final54):
    cert = construct.verify_remark(asche, final54)
    assert cert.passed
    assert len(cert.details["clique_u_octads"]) == 9
    assert len(cert.details["clique_v_octads"]) == 9


def test_verify_remark_fails_with_wrong_m(asche, final54, monkeypatch):
    monkeypatch.setattr(construct, "M", tuple(-x for x in construct.M[:-1]) + (1,))
    cert = construct.verify_remark(asche, final54)
    assert not cert.passed
    assert "first_failure" in cert.details


def test_construction_error_on_wrong_filters(code, monkeypatch):
    # swapping C1 for an octad containing coordinate 1 breaks the counts
    monkeypatch.setattr(construct, "C1", golay.octads_through(code, 1)[0])
    with pytest.raises(construct.ConstructionError):
        construct.asche_system(code)


def dot_gram(system):
    """The Gram matrix from dot: the oracle for LineSystem.gram."""
    return [[dot(u, v) for v in system.vectors] for u in system.vectors]


def reference_first_defect(system):
    """The dot loop that first_defect replaced, as oracle."""
    vecs = system.vectors
    for i in range(len(vecs)):
        if dot(vecs[i], vecs[i]) != construct.SCALED_NORM:
            return (f"scaled norm {dot(vecs[i], vecs[i])} of member {i}, "
                    f"not {construct.SCALED_NORM}")
        for j in range(i + 1, len(vecs)):
            if abs(dot(vecs[i], vecs[j])) != construct.SCALED_ANGLE:
                return f"scaled inner product {dot(vecs[i], vecs[j])} between members {i},{j}"
    return None


def random_systems(pool, count, seed):
    """Small systems of members of pool, each negated at random; in about
    half of them one coordinate is moved, so most of those are no longer
    equiangular."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        vectors = []
        for v in rng.sample(pool.vectors, rng.randint(1, 8)):
            sign = rng.choice((1, -1))
            vectors.append(construct.LineVector(tuple(sign * x for x in v.coords), v.source))
        if rng.random() < 0.5:
            i, c = rng.randrange(len(vectors)), rng.randrange(24)
            coords = list(vectors[i].coords)
            coords[c] += rng.choice((-4, -1, 1, 4))
            vectors[i] = construct.LineVector(tuple(coords), vectors[i].source)
        systems.append(construct.LineSystem(vectors=tuple(vectors), ambient_dim=0))
    return systems


def test_gram_and_equiangular_check_match_dot_oracle(asche, final54):
    systems = [final54, asche] + random_systems(asche, 200, 21)
    failures = 0
    for system in systems:
        assert system.gram.dtype == np.int64
        assert system.gram.tolist() == dot_gram(system)
        expected = reference_first_defect(system)
        assert construct.first_defect(system.gram) == expected
        failures += expected is not None
    assert 50 < failures < 150
    with pytest.raises(ValueError):
        final54.gram[0, 0] = 0                  # the cached matrix is read-only


def test_coords_are_one_read_only_int64_array(asche):
    coords = asche.coords
    assert coords.dtype == np.int64 and coords.shape == (72, 24)
    assert coords.tolist() == [list(v.coords) for v in asche.vectors]
    assert asche.coords is coords
    with pytest.raises(ValueError):
        coords[0, 0] = 0
    empty = construct.LineSystem(vectors=(), ambient_dim=0)
    assert empty.coords.shape == (0, 24) and empty.gram.shape == (0, 0)


def test_gram_int64_bound():
    # |G_ij| <= 24 c^2 fits int64 for c <= 2^29 and is refused beyond it
    edge = construct.LineVector(tuple([1 << 29] * 24), 0)
    system = construct.LineSystem(vectors=(edge, edge), ambient_dim=1)
    assert system.gram.tolist() == dot_gram(system) == [[24 << 58] * 2] * 2
    low = construct.LineVector(tuple([-(1 << 29)] * 24), 0)
    assert construct.LineSystem(vectors=(low,), ambient_dim=1).gram.tolist() == [[24 << 58]]
    # -2^63 is its own absolute value in int64; 2^64 does not fit at all
    for c in (1 << 29) + 1, -(1 << 29) - 1, 1 << 30, -(1 << 63), 1 << 64:
        beyond = construct.LineVector(tuple([c] + [0] * 23), 0)
        with pytest.raises(ValueError, match="int64"):
            construct.LineSystem(vectors=(beyond,), ambient_dim=1).coords


def test_final_system_checks_the_rank_before_the_angles(final54):
    # 54 copies of one member pass the count; the rank-18 check stops them
    v = final54.vectors[0]
    full = construct.LineSystem(vectors=(v,) * 54, ambient_dim=1)
    with pytest.raises(construct.ConstructionError, match="expected span of rank 18, got 1"):
        construct.final_system(full)


def reference_verify_remark(full, final, m):
    """verify_remark by dot loops over the members, the oracle for its
    array reads."""
    b = CertificateBuilder(
        "remark.cliques",
        {"full": [v.source for v in full.vectors], "final": [v.source for v in final.vectors]},
    )
    final_sources = {v.source for v in final.vectors}
    removed = [v for v in full.vectors if v.source not in final_sources]
    b.check("removed_count_18", len(removed) == 18, len(removed))

    pairings = [dot(v, m) for v in removed]
    b.check(
        "m_pairings_pm24",
        all(p in (24, -24) for p in pairings),
        sorted(set(pairings)),
    )
    kept_ok = all(dot(v, m) == 0 for v in final.vectors)
    b.check("final_orthogonal_to_m", kept_ok)

    side_u = [v for v, p in zip(removed, pairings) if p > 0]
    side_v = [v for v, p in zip(removed, pairings) if p < 0]
    b.check("split_9_9", (len(side_u), len(side_v)) == (9, 9), (len(side_u), len(side_v)))
    b.note("clique_u_octads", [golay.coords_from_mask(v.source) for v in side_u])
    b.note("clique_v_octads", [golay.coords_from_mask(v.source) for v in side_v])

    for name, clique in (("u", side_u), ("v", side_v)):
        bad = [
            (i, j)
            for i in range(len(clique))
            for j in range(i + 1, len(clique))
            if dot(clique[i], clique[j]) != construct.SCALED_ANGLE
        ]
        b.check(f"intra_{name}_all_plus", not bad, bad[:3])

    cross = [[dot(u, v) for v in side_v] for u in side_u]
    row_counts = [row.count(construct.SCALED_ANGLE) for row in cross]
    col_counts = [col.count(construct.SCALED_ANGLE) for col in zip(*cross)]
    b.check("each_u_two_plus_partners", all(c == 2 for c in row_counts), row_counts)
    b.check("each_v_two_plus_partners", all(c == 2 for c in col_counts), col_counts)
    return b.build()


def remark_outcomes(full, final):
    """The certificate dicts, without runtime_ms, of verify_remark and of
    its oracle."""
    dicts = [construct.verify_remark(full, final).to_dict(),
             reference_verify_remark(full, final, construct.M).to_dict()]
    for d in dicts:
        del d["runtime_ms"]
    return dicts


def with_coords(full, final, changes):
    """(full, final) with member i of full given the coordinates c, its
    source kept, for each (i, c) in changes; final is the members of the
    new full with final's sources."""
    vecs = list(full.vectors)
    for i, c in changes:
        vecs[i] = construct.LineVector(tuple(c), vecs[i].source)
    sources = {v.source for v in final.vectors}
    kept = tuple(v for v in vecs if v.source in sources)
    return (construct.LineSystem(vectors=tuple(vecs), ambient_dim=19),
            construct.LineSystem(vectors=kept, ambient_dim=18))


def perturbed_systems(full, final, count, seed):
    """with_coords of full and final with one member negated, two
    members' coordinates swapped, or one member moved by the difference
    of two others, each about a third of the time."""
    rng = random.Random(seed)
    coords = [v.coords for v in full.vectors]
    pairs = []
    for _ in range(count):
        i, j, k = rng.sample(range(len(coords)), 3)
        changes = rng.choice([
            [(i, [-x for x in coords[i]])],
            [(i, coords[j]), (j, coords[i])],
            [(i, [x + y - z for x, y, z in zip(coords[i], coords[j], coords[k])])],
        ])
        pairs.append(with_coords(full, final, changes))
    return pairs


def test_verify_remark_matches_dot_loop_oracle(asche, final54):
    cases = [(asche, final54)] + perturbed_systems(asche, final54, 60, 24)
    cases.append((asche, construct.LineSystem(vectors=final54.vectors[1:], ambient_dim=18)))
    # a removed line moved by the difference of two kept ones keeps its
    # pairing and breaks its clique; a kept line moved by a removed one
    # leaves m's kernel
    gone = construct.removed_indices(asche, final54)
    kept = [i for i in range(72) if i not in gone]
    for i, j, k in (gone[0], kept[0], kept[1]), (kept[0], gone[0], kept[1]):
        moved = [x + y - z for x, y, z in zip(*(asche.vectors[t].coords for t in (i, j, k)))]
        cases.append(with_coords(asche, final54, [(i, moved)]))
    failed, first = set(), set()
    for full, final in cases:
        new, old = remark_outcomes(full, final)
        assert new == old
        failed.update(name for name, ok in new["details"]["checks"].items() if not ok)
        first.add(new["details"].get("first_failure", {}).get("check"))
    assert remark_outcomes(asche, final54)[0]["status"] == "pass"
    assert failed == set(remark_outcomes(asche, final54)[0]["details"]["checks"])
    assert {"final_orthogonal_to_m", "intra_u_all_plus"} <= first


def test_remark_fails_on_a_v_line_moved_out_of_its_clique(asche, final54):
    # removed line 6, on the v side, moved by c_1 - c_31, the difference of
    # two kept lines: its M pairing stays -24 (kept lines are orthogonal to
    # M) and it stays at +16 with the same two u-side lines, so only its
    # inner products inside the v clique change
    coords, m = asche.coords, np.array(construct.M, dtype=np.int64)
    gone = construct.removed_indices(asche, final54)
    u_side = [i for i in gone if coords[i] @ m > 0]
    moved = coords[6] + coords[1] - coords[31]
    assert 6 in gone and coords[6] @ m == moved @ m == -24 and {1, 31}.isdisjoint(gone)
    assert ((coords[u_side] @ moved == 16) == (coords[u_side] @ coords[6] == 16)).all()
    new, old = remark_outcomes(*with_coords(asche, final54, [(6, moved)]))
    assert new == old
    assert {name for name, ok in new["details"]["checks"].items() if not ok} == {
        "intra_v_all_plus"}
    assert new["details"]["first_failure"] == {
        "check": "intra_v_all_plus", "witness": [(0, 1), (0, 5), (0, 6)]}


def test_final_system_and_seidel_from_word_a_defect_alike(asche, final54):
    kept = [i for i in range(72) if i not in construct.removed_indices(asche, final54)]
    words = []
    for k in (0, 5):                    # 2v keeps the count, the rank and v.m = 0
        doubled = [2 * x for x in asche.vectors[kept[k]].coords]
        full, sub = with_coords(asche, final54, [(kept[k], doubled)])
        with pytest.raises(construct.ConstructionError) as built:
            construct.final_system(full)
        with pytest.raises(seidel.NotEquiangularError) as read:
            seidel.seidel_from(sub)
        assert str(built.value) == str(read.value) == reference_first_defect(sub)
        words.append(str(built.value))
    assert words[0] == "scaled norm 320 of member 0, not 80"
    assert words[1] in (f"scaled inner product {ip} between members 0,5" for ip in (32, -32))
