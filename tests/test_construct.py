import random

import numpy as np
import pytest

from equilines import construct, exactlin, golay
from test_exactlin import transpose


def test_lift_zero_codeword():
    v = construct.lift(0)
    assert v.coords[0] == -5
    assert all(x == -1 for x in v.coords[1:])


def test_lift_c1():
    c1 = golay.mask_from_coords(golay.C1_COORDS)
    v = construct.lift(c1)
    assert v.coords[0] == -5
    for c in range(2, 25):
        expected = 3 if c in golay.C1_COORDS else -1
        assert v.coords[c - 1] == expected


def test_lift_norm_through_coordinate_1(code):
    for d in golay.octads_through(code, 1)[:40]:
        v = construct.lift(d)
        assert v.dot(v) == 80
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
            assert vecs[i].dot(vecs[j]) == 16 * inter - 48


def test_asche_counts(asche):
    assert len(asche) == 72
    assert asche.ambient_dim == 19


def test_asche_orthogonal_to_4e1_plus_all(asche):
    aux = construct.FilterSet.standard().aux["4e1+eS"]
    assert all(v.dot(aux) == 0 for v in asche.vectors)


def test_final_counts(final54):
    assert len(final54) == 54
    assert final54.ambient_dim == 18


def test_final_rank_via_exact_stack(final54):
    assert exactlin.rank(final54.matrix()) == 18


def test_final_equiangular(final54):
    vecs = final54.vectors
    for i in range(54):
        assert vecs[i].dot(vecs[i]) == 80
        for j in range(i + 1, 54):
            assert vecs[i].dot(vecs[j]) in (16, -16)


def test_final_is_m_kernel_of_asche(asche, final54):
    m = construct.FilterSet.standard().m
    expected = {v.source for v in asche.vectors if v.dot(m) == 0}
    assert {v.source for v in final54.vectors} == expected


def test_removed_count(asche, final54):
    assert len(construct.removed_vectors(asche, final54)) == 18


def gram(system):
    rows = system.matrix()
    return exactlin.mat_mul(rows, transpose(rows))


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
    m = construct.FilterSet.standard().m
    nonzero = {c: m[c - 1] for c in range(1, 25) if m[c - 1] != 0}
    assert nonzero == {4: 2, 5: -1, 6: -1, 7: 2, 8: -1, 10: -1,
                       17: 2, 18: -1, 20: -1, 22: -3, 23: 3}


def test_filter_octads_avoid_coordinate_1():
    f = construct.FilterSet.standard()
    assert not f.c1 & 1 and not f.c2 & 1
    assert golay.weight(f.c1) == 8 and golay.weight(f.c2) == 8


def test_verify_remark_passes(asche, final54):
    cert = construct.verify_remark(asche, final54, construct.FilterSet.standard().m)
    assert cert.passed
    assert len(cert.details["clique_u_octads"]) == 9
    assert len(cert.details["clique_v_octads"]) == 9


def test_verify_remark_fails_with_wrong_m(asche, final54):
    wrong_m = tuple(-x for x in construct.FilterSet.standard().m[:-1]) + (1,)
    cert = construct.verify_remark(asche, final54, wrong_m)
    assert not cert.passed
    assert "first_failure" in cert.details


def test_construction_error_on_wrong_filters(code):
    # swapping c1 for an octad containing coordinate 1 breaks the counts
    bad = construct.FilterSet.standard()
    octad_with_1 = golay.octads_through(code, 1)[0]
    broken = construct.FilterSet(c1=octad_with_1, c2=bad.c2, m=bad.m, aux=bad.aux)
    with pytest.raises(construct.ConstructionError):
        construct.asche_system(code, broken)


def dot_gram(system):
    """The Gram matrix from LineVector.dot: the oracle for LineSystem.gram."""
    return [[u.dot(v) for v in system.vectors] for u in system.vectors]


def reference_check_equiangular(system):
    """The LineVector.dot loop that _check_equiangular replaced, as oracle."""
    vecs = system.vectors
    for i in range(len(vecs)):
        if vecs[i].dot(vecs[i]) != construct.SCALED_NORM:
            raise construct.ConstructionError(
                f"member {i} has scaled norm != {construct.SCALED_NORM}")
        for j in range(i + 1, len(vecs)):
            if abs(vecs[i].dot(vecs[j])) != construct.SCALED_ANGLE:
                raise construct.ConstructionError(
                    f"members {i},{j} have scaled inner product "
                    f"{vecs[i].dot(vecs[j])}, not +/-{construct.SCALED_ANGLE}")


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


def outcome(check, system):
    try:
        check(system)
    except construct.ConstructionError as exc:
        return str(exc)
    return None


def test_gram_and_equiangular_check_match_dot_oracle(asche, final54):
    systems = [final54, asche] + random_systems(asche, 200, 21)
    failures = 0
    for system in systems:
        assert system.gram.dtype == np.int64
        assert system.gram.tolist() == dot_gram(system)
        expected = outcome(reference_check_equiangular, system)
        assert outcome(construct._check_equiangular, system) == expected
        failures += expected is not None
    assert 50 < failures < 150
    with pytest.raises(ValueError):
        final54.gram[0, 0] = 0                  # the cached matrix is read-only


def test_gram_int64_bound():
    # |G_ij| <= 24 c^2 fits int64 for c <= 2^29 and is refused beyond it
    edge = construct.LineVector(tuple([1 << 29] * 24), 0)
    system = construct.LineSystem(vectors=(edge, edge), ambient_dim=1)
    assert system.gram.tolist() == dot_gram(system) == [[24 << 58] * 2] * 2
    beyond = construct.LineVector(tuple([1 << 30] + [0] * 23), 0)
    with pytest.raises(ValueError, match="int64"):
        construct.LineSystem(vectors=(beyond,), ambient_dim=1).gram


def test_final_system_checks_the_rank_before_the_angles(final54):
    # 54 copies of one member pass the count; the rank-18 check stops them
    v = final54.vectors[0]
    full = construct.LineSystem(vectors=(v,) * 54, ambient_dim=1)
    with pytest.raises(construct.ConstructionError, match="expected span of rank 18, got 1"):
        construct.final_system(full)
