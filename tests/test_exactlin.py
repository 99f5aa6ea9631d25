import random

import pytest

from equilines import exactlin


def random_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_rank_identity_and_ones():
    assert exactlin.rank(exactlin.identity(3)) == 3
    assert exactlin.rank([[1] * 4 for _ in range(4)]) == 1


def test_rank_rectangular():
    assert exactlin.rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert exactlin.rank([[1, 0, 0], [0, 1, 0]]) == 2


def test_nullity_at_identity():
    assert exactlin.nullity_at(exactlin.identity(3), 1) == 3
    assert exactlin.nullity_at(exactlin.identity(3), 0) == 0


def test_positive_definite():
    assert exactlin.positive_definite(exactlin.identity(3))
    assert exactlin.positive_definite([[2, -1], [-1, 2]])
    assert not exactlin.positive_definite([[1, 1], [1, 1]])          # singular
    assert not exactlin.positive_definite([[-2, 1], [1, -2]])        # negative definite
    assert not exactlin.positive_definite([[1, 2], [2, 1]])          # indefinite


def test_char_poly_swap():
    assert exactlin.char_poly([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_char_poly_triangle_clique():
    # (x - 2)(x + 1)^2 = x^3 - 3x - 2
    m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert exactlin.char_poly(m) == [-2, -3, 0, 1]


def test_char_poly_empty_and_single():
    assert exactlin.char_poly([]) == [1]
    assert exactlin.char_poly([[5]]) == [-5, 1]


def test_adjugate_known():
    assert exactlin.adjugate([[2, -1], [-1, 2]]) == (3, [[2, 1], [1, 2]])
    assert exactlin.adjugate([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == (
        4, [[3, -2, 1], [-2, 4, -2], [1, -2, 3]])


def test_adjugate_random_positive_definite():
    rng = random.Random(3)
    for _ in range(30):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        b = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)]
        m = exactlin.mat_mul(b, exactlin.transpose(b))
        for i in range(n):
            m[i][i] += 1
        det, adj = exactlin.adjugate(m)
        assert exactlin.mat_mul(m, adj) == [[det * (i == j) for j in range(n)]
                                            for i in range(n)]
        assert det == exactlin.bareiss_det(m)


@pytest.mark.parametrize("m", [
    [[1, 1], [1, 1]],
    [[1, 2], [2, 1]],
    [[-2, 1], [1, -2]],
    [[0, 1], [1, 0]],                # a row swap would hide the zero pivot
], ids=["singular", "indefinite", "negative_definite", "zero_pivot"])
def test_adjugate_rejects_non_positive_definite(m):
    with pytest.raises(ValueError):
        exactlin.adjugate(m)


def test_char_poly_trace_det_identities_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        p = exactlin.char_poly(m)
        assert len(p) == n + 1 and p[-1] == 1
        assert p[n - 1] == -exactlin.trace(m)
        assert p[0] == (-1) ** n * exactlin.bareiss_det(m)


def test_rank_plus_nullity_random():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, -2, 2)
        assert exactlin.rank(m) + exactlin.nullity_at(m, 0) == n


def test_symmetric_nullity_matches_char_poly_root_multiplicity():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        p = exactlin.char_poly(m)
        for lam in range(-10, 11):
            mult = 0
            q = list(p)
            while exactlin.poly_eval(q, lam) == 0 and len(q) > 1:
                q = exactlin._synthetic_div(q, lam)
                mult += 1
            assert exactlin.nullity_at(m, lam) == mult


def test_bareiss_det_known():
    assert exactlin.bareiss_det([[1, 2], [3, 4]]) == -2
    assert exactlin.bareiss_det([[0, 1], [1, 0]]) == -1
    assert exactlin.bareiss_det([[2]]) == 2
    assert exactlin.bareiss_det([[1, 1], [1, 1]]) == 0
