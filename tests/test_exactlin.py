import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from equilines import cli, exactlin, search, seidel


I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def transpose(m):
    return [list(col) for col in zip(*m)]


def reference_mat_mul(a, b):
    """Product of two matrices given as rows of Python ints, entry by entry."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def reference_adjugate(m):
    """Oracle for exactlin.adjugate: the same fraction-free Gauss-Jordan
    elimination of [m | I] without row swaps, entry by entry on rows of
    Python ints, certified by reference_mat_mul. Returns (det m, adj m)
    with adj as rows; ValueError on a pivot <= 0."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        rowk = a[k]
        pivot = rowk[k]
        if pivot <= 0:
            raise ValueError(f"leading minor {k + 1} is {pivot}: not positive definite")
        for i in range(n):
            if i != k:
                rowi = a[i]
                aik = rowi[k]
                for j in range(2 * n):
                    rowi[j] = (rowi[j] * pivot - aik * rowk[j]) // prev
        prev = pivot
    adj = [row[n:] for row in a]
    assert reference_mat_mul(m, adj) == [[prev * (i == j) for j in range(n)] for i in range(n)]
    return prev, adj


def swap_free_pivots(a, primes):
    """Gaussian elimination of the square int64 matrix a without row swaps
    modulo every prime in primes at once, one (P, n, n) array for the P
    primes. Yields (pivots, primes) per step k before its elimination:
    pivot k is the entry (k, k), which the caller must stop at if it is 0
    modulo some prime. Row i becomes row i - (a_ik / pivot) row k, all mod
    p: residues are below 2^31, so each product is below 2^62."""
    p = np.array(primes, dtype=np.int64)[:, None, None]
    x = a % p
    for k in range(len(a)):
        pivot, q = x[:, k, k], p[:, 0, 0]
        yield pivot, q
        inverse = np.array([pow(v, -1, m) for v, m in zip(pivot.tolist(), q.tolist())])
        factor = x[:, k + 1:, k] * inverse[:, None] % p[:, 0]
        block = x[:, k + 1:, k + 1:]
        block -= factor[:, :, None] * x[:, k, None, k + 1:]
        np.remainder(block, p, out=block)


def fewest_primes(product, bound, start):
    """The fewest primes PRIMES[start:stop] with (product times their
    product)^2 > bound; AssertionError if PRIMES runs out first."""
    stop = start
    while product * product <= bound:
        if stop == len(exactlin.PRIMES):
            raise AssertionError("PRIMES is too short for the Hadamard bound")
        product *= exactlin.PRIMES[stop]
        stop += 1
    return exactlin.PRIMES[start:stop]


def positive_definite(m):
    """True iff the symmetric integer matrix m is positive definite, from
    its leading principal minors modulo exactlin.PRIMES: the definiteness
    oracle of the tests.

    By Sylvester's criterion m is positive definite iff every leading
    principal minor D_1, ..., D_n is positive. Gaussian elimination
    without swaps modulo p has pivot k equal to D_(k+1) / D_k, so the
    running product of the pivots is D_(k+1) mod p. Each D_k is a minor
    through the first k rows, so Hadamard's inequality bounds |D_k| by H,
    the product of the (at least 1) row norms of m. With the fewest
    primes whose product P has P^2 > 4 H^2, D_k is the residue of the
    Chinese remainder theorem taken in (-P/2, P/2). The minors are
    recovered in order and the call stops at the first that is <= 0.
    A pivot that vanishes mod p, with D_(k+1) > 0, makes p unlucky: the
    elimination cannot go on modulo p, so p is replaced by the next prime
    and the elimination starts again. AssertionError if PRIMES runs out.
    """
    n, c = exactlin.dims(m)
    if n != c:
        raise ValueError("definiteness of non-square matrix")
    a = exactlin._int64(m)
    bound = 4 * math.prod(max(1, q) for q in (a.astype(object) ** 2).sum(axis=1))
    kept, used = (), 0
    while True:
        primes = kept + fewest_primes(math.prod(kept), bound, used)
        used += len(primes) - len(kept)
        modulus = math.prod(primes)
        crt = [modulus // q * pow(modulus // q, -1, q) for q in primes]
        minors = 1
        for pivot, p in swap_free_pivots(a, primes):
            minors = minors * pivot % p
            minor = sum(r * e for r, e in zip(minors.tolist(), crt)) % modulus
            if minor == 0 or minor > modulus // 2:
                return False
            if not pivot.all():
                break
        else:
            return True
        kept = tuple(q for q, v in zip(primes, pivot.tolist()) if v)


def random_matrix(rng, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_rank_identity_and_ones():
    assert exactlin.rank(I3) == 3
    assert exactlin.rank([[1] * 4 for _ in range(4)]) == 1


def test_rank_rectangular():
    assert exactlin.rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert exactlin.rank([[1, 0, 0], [0, 1, 0]]) == 2


def test_nullity_at_identity():
    assert exactlin.nullity_at(I3, 1) == 3
    assert exactlin.nullity_at(I3, 0) == 0


def test_nullity_beyond_the_largest_row_sum_is_zero():
    # |lam| > 2, the largest absolute row sum, makes m - lam I strictly
    # diagonally dominant; at |lam| = 2 it is not, and the rank decides
    m = [[1, 1], [1, 1]]
    assert [exactlin.nullity_at(m, lam) for lam in (-3, -2, 0, 2, 3)] == [0, 0, 1, 1, 0]
    assert exactlin.nullity_at(m, 10 ** 20) == exactlin.nullity_at(m, -10 ** 20) == 0
    assert exactlin.nullity_at([[2 ** 63 - 1]], 2 ** 64) == 0


def test_positive_definite():
    assert positive_definite(I3)
    assert positive_definite([[2, -1], [-1, 2]])
    assert not positive_definite([[1, 1], [1, 1]])          # singular
    assert not positive_definite([[-2, 1], [1, -2]])        # negative definite
    assert not positive_definite([[1, 2], [2, 1]])          # indefinite


def test_char_poly_swap():
    assert exactlin.char_poly([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_char_poly_triangle_clique():
    # (x - 2)(x + 1)^2 = x^3 - 3x - 2
    m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert exactlin.char_poly(m) == [-2, -3, 0, 1]


def test_char_poly_empty_and_single():
    assert exactlin.char_poly([]) == [1]
    assert exactlin.char_poly([[5]]) == [-5, 1]


def reduced_adjugate(m):
    """(adj / g, det / g) as rows and an int, g = gcd(det, adj), from
    reference_adjugate: the exact inverse of a positive definite m in
    lowest terms, the oracle for exactlin.inverse."""
    det, adj = reference_adjugate(m)
    g = math.gcd(det, *(x for row in adj for x in row))
    return [[x // g for x in row] for row in adj], det // g


def inverse_rows(m):
    """exactlin.inverse(m) with a as rows, after checking its types."""
    a, d = exactlin.inverse(m)
    assert a.dtype == np.int64 and type(d) is int
    return a.tolist(), d


def inverse_or_raise(m, expected):
    """exactlin.inverse(m) must equal expected, (a as rows, d), or raise
    AssertionError; never return anything else. It must return if every
    entry of a / d has both parts within the reconstruction bound of
    PRIMES[-1]. True if it returned."""
    a, d = expected
    bound = math.isqrt(exactlin.PRIMES[-1] // 2)
    within = all(abs(f.numerator) <= bound and f.denominator <= bound
                 for f in (Fraction(x, d) for row in a for x in row))
    try:
        got = inverse_rows(m)
    except AssertionError:
        assert not within
        return False
    assert got == expected
    return True


def test_adjugate_known():
    assert inverse_rows([[2, -1], [-1, 2]]) == ([[2, 1], [1, 2]], 3) == reduced_adjugate(
        [[2, -1], [-1, 2]])
    assert inverse_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == (
        [[3, -2, 1], [-2, 4, -2], [1, -2, 3]], 4)
    assert inverse_rows([[4, 2], [2, 4]]) == ([[2, -1], [-1, 2]], 6)   # det 12, adj content 2


def test_adjugate_random_positive_definite():
    rng = random.Random(3)
    returned = 0
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        b = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)]
        m = reference_mat_mul(b, transpose(b))
        for i in range(n):
            m[i][i] += 1
        returned += inverse_or_raise(m, reduced_adjugate(m))
        assert reference_adjugate(m)[0] == exactlin.bareiss_det(m)
    assert returned > 35


@pytest.mark.parametrize("m, expected", [
    ([[1, 1], [1, 1]], None),
    ([[1, 2], [2, 1]], ([[-1, 2], [2, -1]], 3)),
    ([[-2, 1], [1, -2]], ([[-2, -1], [-1, -2]], 3)),
    ([[0, 1], [1, 0]], ([[0, 1], [1, 0]], 1)),       # needs a row swap
], ids=["singular", "indefinite", "negative_definite", "zero_pivot"])
def test_adjugate_rejects_non_positive_definite(m, expected):
    # the adjugate oracle needs a positive definite m; the inverse needs
    # only an invertible one, and raises on a singular one
    with pytest.raises(ValueError):
        reference_adjugate(m)
    if expected is None:
        with pytest.raises(AssertionError):
            exactlin.inverse(m)
    else:
        assert inverse_rows(m) == expected


def test_inverse_beyond_the_reconstruction_bound_raises():
    # 1 / 65537 has its denominator beyond isqrt(p // 2) = 32767 for every
    # prime, yet 23 primes reconstruct some other fraction within the
    # bound; the identity rejects each. 1 / PRIMES[-1] also has its first
    # prime divide det
    for g in (65537, exactlin.PRIMES[-1]):
        wrong = 0
        for p in exactlin.PRIMES:
            if g % p:
                num, den = exactlin.rational_reconstruction(
                    np.array([pow(g, -1, p)], dtype=np.int64), p)
                wrong += int(den[0] != 0)
                assert (num[0], den[0]) != (1, g)
        assert wrong > 20
        with pytest.raises(AssertionError):
            exactlin.inverse([[g]])
    # random Gram matrices of larger vectors: an exact answer or a raise
    rng = random.Random(41)
    returned = 0
    for _ in range(30):
        n = rng.randint(2, 5)
        b = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        m = reference_mat_mul(b, transpose(b))
        if exactlin.rank(m) == n:
            returned += inverse_or_raise(m, reduced_adjugate(m))
    assert 0 < returned < 25


def test_inverse_escalates_past_a_prime_dividing_det(monkeypatch):
    # det = 101: with 101 first, the next prime gives the inverse
    m = [[2, 1], [1, 51]]
    monkeypatch.setattr(exactlin, "PRIMES", (exactlin.PRIMES[0], 101))
    assert inverse_rows(m) == ([[51, -1], [-1, 2]], 101) == reduced_adjugate(m)
    monkeypatch.setattr(exactlin, "PRIMES", (101,))
    with pytest.raises(AssertionError):
        exactlin.inverse(m)


def test_inverse_lifts_entries_at_both_ends_of_the_range():
    # a = d m^-1 holds +-(p // 2) for p = PRIMES[-1]: 1 / 693, 1 / 151
    # and +-10261 reconstruct, d = 693 * 151 and 10261 d = 2^30 - 1. Every
    # other prime is below 2^31 - 1, so only the first can lift them
    p = exactlin.PRIMES[-1]
    m = np.diag([693, 151, 1, 1, 1, 1])
    m[2, 3], m[4, 5] = -10261, 10261
    a, d = inverse_rows(m)
    assert d == 693 * 151
    assert a[2][3] == p // 2 and a[4][5] == -(p // 2)
    assert (np.array(m) @ np.array(a, dtype=object) == d * np.identity(6, dtype=object)).all()


def test_rational_reconstruction_finds_fractions_within_the_bound():
    rng = random.Random(43)
    for p in (101, 1_048_573, exactlin.PRIMES[-1]):
        bound = math.isqrt(p // 2)
        fractions = {Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                     for _ in range(200)} | {Fraction(0), Fraction(bound), Fraction(-bound, bound)}
        u = np.array([f.numerator * pow(f.denominator, -1, p) % p for f in fractions])
        num, den = exactlin.rational_reconstruction(u, p)
        assert [Fraction(int(x), int(y)) for x, y in zip(num, den)] == list(fractions)
        assert (den > 0).all() and (np.gcd(num, den) == 1).all()


def test_char_poly_trace_det_identities_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        p = exactlin.char_poly(m)
        assert len(p) == n + 1 and p[-1] == 1
        assert p[n - 1] == -sum(m[i][i] for i in range(n))
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


def fraction_echelon(m):
    """Reference: Gaussian elimination over Fractions, taking the first
    nonzero entry of each column as pivot. Returns the pivot columns and,
    for a square m, its determinant."""
    a = [[Fraction(x) for x in row] for row in m]
    cols, det = [], Fraction(1)
    for col in range(len(a[0]) if a else 0):
        r = len(cols)
        row = next((i for i in range(r, len(a)) if a[i][col]), None)
        if row is None:
            continue
        if row != r:
            a[r], a[row] = a[row], a[r]
            det = -det
        det *= a[r][col]
        for i in range(r + 1, len(a)):
            f = a[i][col] / a[r][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        cols.append(col)
    return cols, det if len(cols) == len(a) else 0


def leading_minors_positive(m):
    """Reference for Sylvester's criterion: every leading principal minor,
    each by its own Fraction elimination, is positive."""
    return all(fraction_echelon([row[:k] for row in m[:k]])[1] > 0
               for k in range(1, len(m) + 1))


def random_oracle_matrix(rng):
    """A random integer matrix, square or not, symmetric a third of the
    time, often rank deficient or with zero leading entries."""
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    if rng.random() < 1 / 3:
        b = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        m = reference_mat_mul(b, transpose(b))
        shift = rng.randint(-2, 2)
        for i in range(nr):
            m[i][i] += shift
    else:
        m = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
    nr, nc = exactlin.dims(m)
    if nr > 1 and rng.random() < 0.5:           # a row combined from others
        i, j, k = (rng.randrange(nr) for _ in range(3))
        m[i] = [rng.randint(-2, 2) * x + y for x, y in zip(m[j], m[k])]
    if rng.random() < 0.3:                      # zero leading entries
        for row in m[:rng.randint(1, nr)]:
            row[0] = 0
    return m


def test_pivots_match_fraction_elimination():
    rng = random.Random(17)
    for _ in range(300):
        m = random_oracle_matrix(rng)
        n, c = exactlin.dims(m)
        cols, det = fraction_echelon(m)
        assert [col for _, col, _ in exactlin.pivots(m)] == cols
        assert exactlin.rank(m) == len(cols)
        if n == c:
            assert exactlin.bareiss_det(m) == det
            assert exactlin.nullity_at(m, 0) == n - len(cols)
            if m == transpose(m):
                assert positive_definite(m) == leading_minors_positive(m)


@pytest.mark.parametrize("m, steps, det", [
    ([[0, 1], [1, 0]], [(1, 0, 1), (1, 1, 1)], -1),    # one swap
    ([[0, 0], [0, 1]], [(1, 1, 1)], 0),                 # column 0 skipped
    ([[1, 0], [0, 0]], [(0, 0, 1)], 0),                 # no last pivot
], ids=["swap", "skipped_column", "missing_last_pivot"])
def test_pivots_fixed_cases(m, steps, det):
    assert list(exactlin.pivots(m)) == steps
    assert exactlin.rank(m) == len(steps)
    assert exactlin.bareiss_det(m) == det
    assert not positive_definite(m)


# ---------------------------------------------------------------------------
# rank and nullity modulo PRIMES, and the tests' definiteness oracle,
# against the pivots oracle
# ---------------------------------------------------------------------------

P0, P1 = exactlin.PRIMES[:2]


def pivots_rank(m):
    return sum(1 for _ in exactlin.pivots(m))


def pivots_positive_definite(m):
    """Sylvester's criterion read off the Bareiss pivots: pivot k sits at
    (k, k) with no swap and is positive for every k < n."""
    steps = list(exactlin.pivots(m))
    return len(steps) == len(m) and all(
        (row, col) == (k, k) and pivot > 0 for k, (row, col, pivot) in enumerate(steps))


def wide_oracle_matrix(rng):
    """A random integer matrix with entries large enough that the Hadamard
    bound needs several primes: rectangular, rank deficient (a product
    through a narrow middle), symmetric (a Gram matrix, definite when
    shifted up, singular when narrow, or indefinite) or plain."""
    nr, nc = rng.randint(1, 9), rng.randint(1, 9)
    big = 10 ** rng.choice((1, 3, 6))
    kind = rng.choice(("plain", "deficient", "gram", "symmetric"))
    if kind == "plain":
        return [[rng.randint(-big, big) for _ in range(nc)] for _ in range(nr)]
    if kind == "deficient":
        r = rng.randint(0, min(nr, nc))
        b = [[rng.randint(-big, big) for _ in range(r)] for _ in range(nr)]
        c = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(r)]
        return reference_mat_mul(b, c) if r else [[0] * nc for _ in range(nr)]
    if kind == "gram":
        width = rng.randint(1, nc)
        b = [[rng.randint(-big, big) for _ in range(width)] for _ in range(nr)]
        m = reference_mat_mul(b, transpose(b))
        shift = rng.choice((0, 1, -1))
        return [[x + shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    m = [[0] * nr for _ in range(nr)]
    for i in range(nr):
        for j in range(i, nr):
            m[i][j] = m[j][i] = rng.randint(-big, big)
    for i in range(nr):
        m[i][i] = abs(m[i][i]) + rng.choice((0, nr * big))
    return m


def test_modular_rank_nullity_definiteness_match_pivots():
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for _ in range(300):
        m = wide_oracle_matrix(rng)
        n, c = exactlin.dims(m)
        assert exactlin.rank(m) == pivots_rank(m)
        if n == c:
            lam = rng.randint(-3, 3)
            shifted = [[x - lam * (i == j) for j, x in enumerate(row)]
                       for i, row in enumerate(m)]
            assert exactlin.nullity_at(m, lam) == n - pivots_rank(shifted)
            if m == transpose(m):
                definite = pivots_positive_definite(m)
                assert positive_definite(m) == definite
                seen[definite] += 1
    assert min(seen.values()) > 20


def test_list_and_int64_array_inputs_agree():
    rng = random.Random(29)
    definite = 0
    for _ in range(150):
        m = wide_oracle_matrix(rng)
        a = np.array(m, dtype=np.int64).reshape(exactlin.dims(m))
        assert exactlin.rank(a) == exactlin.rank(m)
        n, c = exactlin.dims(m)
        if n == c:
            lam = rng.randint(-3, 3)
            assert exactlin.nullity_at(a, lam) == exactlin.nullity_at(m, lam)
            if pivots_positive_definite(m):
                assert inverse_or_raise(a, reduced_adjugate(m)) == inverse_or_raise(
                    m, reduced_adjugate(m))
                definite += 1
    assert definite > 10


def test_modular_edge_cases():
    assert exactlin.rank([]) == 0
    assert exactlin.rank([[]]) == 0
    assert exactlin.rank([[0, 0], [0, 0]]) == 0
    assert positive_definite([])
    assert not positive_definite([[0]])


def test_rank_survives_a_prime_that_drops_it():
    # below rank modulo PRIMES[0], whose kernel fails; the next prime decides
    assert exactlin.rank([[1, 0], [0, P0]]) == 2
    assert exactlin.nullity_at([[1, 0], [0, P0]], 0) == 0
    assert exactlin.rank([[P0, P0], [P0, P0]]) == 1


def test_definite_despite_a_minor_divisible_by_the_first_prime():
    assert positive_definite([[P0, 1], [1, 1]])
    assert not positive_definite([[P0, 1], [1, 0]])
    assert not positive_definite([[-P0, 1], [1, 1]])


def test_lower_rank_prime_is_counted(monkeypatch):
    # rows 0 + 1 = row 2 and column 2 = column 0 + 10^6 column 1: rank 2,
    # and rank 1 modulo P1. The kernel vector (-1, -10^6, 1) has an entry
    # beyond isqrt(P0 // 2), with no fraction within the bound congruent
    # to it modulo P0, and P1's kernel of two columns fails m N = 0, so the
    # Hadamard bound decides. Four primes meet it only if P1, of rank 1,
    # counts among them
    c = 10 ** 6
    m = [[1, 0, 1], [0, P1, c * P1], [1, P1, 1 + c * P1]]
    assert exactlin.rational_reconstruction(np.array([-c % P0]), P0)[1][0] == 0
    assert [len(exactlin._echelon(np.array(m), p)[0]) for p in exactlin.PRIMES[:4]] == [2, 1, 2, 2]
    squares = sorted((sum(x * x for x in row) for row in m), reverse=True)
    assert (math.prod(exactlin.PRIMES[:3]) ** 2 <= 4 * math.prod(squares)
            < math.prod(exactlin.PRIMES[:4]) ** 2)
    assert exactlin.rank(m) == 2 == pivots_rank(m)
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[:4])
    assert exactlin.rank(m) == 2
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[:3])
    with pytest.raises(AssertionError):
        exactlin.rank(m)


def first_kernel(m):
    """The kernel rank guesses modulo P0 for the int64 matrix m, and the
    rank modulo P0."""
    cols, x = exactlin._echelon(m, P0)
    return exactlin._kernel(x, cols, P0), len(cols)


@pytest.mark.parametrize("m, rank_p0, rank_q", [
    ([[1, 2], [3, 6 + P0]], 1, 2),
    ([[2 ** 61, 2 ** 62], [2 ** 61, 2 ** 62]], 1, 1),
], ids=["p0_divides_a_minor", "bound_refused"])
def test_rank_falls_back_to_the_bound_when_the_kernel_fails(monkeypatch, m, rank_p0, rank_q):
    # each guess reconstructs, and the kernel check rejects it: P0 divides
    # a minor, so m N != 0, or m N could pass 2^63, so int64_product
    # refuses it. Only more primes give the rank: P1's full rank, or for
    # the refused kernel the Hadamard bound over five primes
    a = np.array(m, dtype=np.int64)
    kernel, r = first_kernel(a)
    assert r == rank_p0 and kernel is not None
    if rank_p0 < rank_q:
        assert (exactlin.int64_product(a, kernel) != 0).any()
    else:
        with pytest.raises(AssertionError):
            exactlin.int64_product(a, kernel)
    assert exactlin.rank(m) == rank_q == pivots_rank(m)
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[:5])
    assert exactlin.rank(m) == rank_q
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[:1])
    with pytest.raises(AssertionError):
        exactlin.rank(m)


def hadamard_beyond(m, primes):
    """True if the Hadamard bound over primes cannot decide the rank of m:
    their product squared is at most 4 times the product of the rank + 1
    largest squared row norms."""
    squares = sorted((sum(x * x for x in row) for row in m), reverse=True)
    return math.prod(primes) ** 2 <= 4 * math.prod(squares[:pivots_rank(m) + 1])


def refuse_later_primes(monkeypatch):
    """Make _echelon refuse every prime but PRIMES[0], and PRIMES[-1], at
    which inverse and search.greedy_basis start: a rank that PRIMES[0]
    does not decide raises."""
    echelon = exactlin._echelon

    def first_prime_only(a, p):
        if p in exactlin.PRIMES[1:-1]:
            raise AssertionError(f"rank went on to the prime {p}")
        return echelon(a, p)
    monkeypatch.setattr(exactlin, "_echelon", first_prime_only)


def test_full_rank_needs_no_kernel(monkeypatch):
    # square, tall and wide: the first prime's full rank is the answer
    def no_kernel(*args):
        raise AssertionError("rank guessed a kernel")
    monkeypatch.setattr(exactlin, "_kernel", no_kernel)
    refuse_later_primes(monkeypatch)
    rng = random.Random(37)
    for shape in [(5, 5), (7, 3), (3, 7)] * 10:
        m = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(shape[1])] for _ in range(shape[0])]
        assert exactlin.rank(m) == min(shape) == pivots_rank(m)


def test_rank_deficiency_is_proved_by_the_kernel_alone(monkeypatch):
    # one prime: each kernel below verifies. For the deficient products
    # with large entries the Hadamard bound over one prime is out of reach,
    # so the kernel alone decides them
    refuse_later_primes(monkeypatch)
    rng = random.Random(31)
    for _ in range(100):
        m = random_oracle_matrix(rng)
        assert exactlin.rank(m) == pivots_rank(m)
    beyond = 0
    for _ in range(40):
        nr, nc, r = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 4)
        b = [[rng.randint(-10 ** 4, 10 ** 4) for _ in range(r)] for _ in range(nr)]
        c = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(r)]
        m = reference_mat_mul(b, c)
        if pivots_rank(m) < min(nr, nc) and hadamard_beyond(m, (P0,)):
            beyond += 1
            assert exactlin.rank(m) == pivots_rank(m)
    assert beyond > 20
    assert exactlin.rank([[0, 0], [0, 0]]) == 0
    # column f of the kernel is D_f at free column f: 1/2 scales it by 2
    kernel, r = first_kernel(np.array([[2, 1], [4, 2]]))
    assert r == 1 and kernel.tolist() == [[-1], [2]]


@pytest.mark.parametrize("m, rank_q", [
    ([[1, 2], [3, 6 + P0]], 2),
    ([[P0, P0], [P0, P0]], 1),
    ([[P0, 2 * P0, 3 * P0], [2 * P0, 4 * P0, 6 * P0]], 1),
], ids=["full_rank", "kernel", "kernel_of_a_wide_matrix"])
def test_a_later_prime_decides_where_the_first_divides_a_minor(monkeypatch, m, rank_q):
    # rank_q - 1 modulo P0, whose kernel fails. P1's full rank decides, or
    # for a deficient m its verified kernel: two primes are too few for the
    # Hadamard bound
    assert len(exactlin._echelon(np.array(m), P0)[0]) == rank_q - 1
    assert rank_q == min(exactlin.dims(m)) or hadamard_beyond(m, exactlin.PRIMES[:2])
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[:2])
    assert exactlin.rank(m) == rank_q == pivots_rank(m)


def test_int64_product_accepts_a_bound_just_below_2_pow_63():
    x = np.array([[2 ** 62, 2 ** 62 - 1]], dtype=np.int64)
    assert exactlin.int64_product(x, np.array([[1], [1]])).tolist() == [[2 ** 63 - 1]]
    with pytest.raises(AssertionError):
        exactlin.int64_product(x + [[0, 1]], np.array([[1], [0]]))
    with pytest.raises(AssertionError):
        exactlin.int64_product(np.array([[-2 ** 63]]), np.array([[1]]))


def reference_row_sum(x):
    """Oracle for _row_sum: every row of |x| summed in Python ints."""
    return max((sum(abs(v) for v in row) for row in x.tolist()), default=0)


@pytest.mark.parametrize("x", [
    [[(2 ** 63 - 1) // 7] * 3 + [-((2 ** 63 - 1) // 7)] * 4],      # 7 max|x| = 2^63 - 1
    [[2 ** 63 - 1], [-(2 ** 63 - 1)]],
    [[2 ** 62, -2 ** 62]],                                          # 2 max|x| = 2^63
    [[-2 ** 63]],
    [[2 ** 62, 2 ** 62 - 1], [1, 2]],
    [[0, 0, 0]],
    np.zeros((0, 3)),
    np.zeros((3, 0)),
], ids=["7_cols_at_2_pow_63_less_1", "one_col_at_2_pow_63_less_1", "2_cols_at_2_pow_63",
        "minus_2_pow_63", "bound_above_a_sum_below", "zeros", "no_rows", "no_cols"])
def test_row_sum_at_the_int64_boundary(x):
    # cols max|x| = 2^63 - 1 is summed in int64, exactly; at 2^63 the sum
    # itself or the |entry| of -2^63 would wrap, so Python ints take over
    x = np.array(x, dtype=np.int64)
    assert exactlin._row_sum(x) == reference_row_sum(x)
    assert type(exactlin._row_sum(x)) is int
    assert exactlin._max_abs(x) == max((abs(v) for v in x.ravel().tolist()), default=0)


def test_int64_product_bound_matches_python_int_oracle():
    # the same products and refusals as the bound in Python ints
    rng = random.Random(137)
    scales = [1, 2 ** 20, 2 ** 31, 2 ** 40, 2 ** 62, 2 ** 63 - 1]
    refused = 0
    for _ in range(300):
        rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        sx, sy = rng.choice(scales), rng.choice(scales)
        x = np.array([[rng.randint(-sx, sx) for _ in range(inner)] for _ in range(rows)],
                     dtype=np.int64)
        y = np.array([[rng.randint(-sy, sy) for _ in range(cols)] for _ in range(inner)],
                     dtype=np.int64)
        bound = reference_row_sum(x) * max(abs(v) for row in y.tolist() for v in row)
        if bound < 2 ** 63:
            assert exactlin.int64_product(x, y).tolist() == reference_mat_mul(
                x.tolist(), y.tolist())
        else:
            refused += 1
            with pytest.raises(AssertionError, match=f"could reach {bound}$"):
                exactlin.int64_product(x, y)
    assert 50 < refused < 250


def test_unlucky_prime_is_replaced_not_used(monkeypatch):
    # two primes meet the bound, but P0 divides the first minor, so a
    # third must replace it
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[:2])
    with pytest.raises(AssertionError):
        positive_definite([[P0, 1], [1, 1]])


def test_too_few_primes_raise(monkeypatch):
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[:1])
    with pytest.raises(AssertionError):
        exactlin.rank([[P0, P0], [P0, P0]])
    with pytest.raises(AssertionError):
        positive_definite([[P1, 1], [1, P1]])
    assert exactlin.rank([[1, 2], [3, 4]]) == 2     # full rank needs no bound


@pytest.mark.parametrize("m", [[[2 ** 63]], [[1, -2 ** 63 - 1]]], ids=["high", "low"])
def test_entries_beyond_int64_raise(m):
    with pytest.raises(ValueError):
        exactlin.rank(m)
    with pytest.raises(ValueError):
        positive_definite([[m[0][-1]]])
    with pytest.raises(ValueError):
        exactlin.nullity_at([[2 ** 63 - 1]], -1)


def test_primes_are_distinct_sorted_word_size_primes():
    primes = exactlin.PRIMES
    assert list(primes) == sorted(set(primes))
    assert all(p < 2 ** 31 for p in primes)
    assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in primes)


@pytest.mark.parametrize("p, dtype", [
    *(pytest.param(p, np.float64, id=str(p)) for p in (3, 1_048_573, exactlin.PRIMES[-1])),
    *(pytest.param(p, np.float32, id=f"{p}-float32") for p in (3, 1_663, 4_194_301))])
def test_float_mod_is_an_exact_representative_in_the_open_range(p, dtype):
    # values at and around +-multiples of p, small and near the 2^m limit
    m = np.finfo(dtype).nmant
    rng = random.Random(p)
    ks = [0, 1, 2, 7] + [rng.randrange(1, ((1 << m) - 4) // p + 1) for _ in range(50)]
    ks.append(((1 << m) - 4) // p)
    ys = sorted({sign * (k * p + d) for k in ks for d in range(-3, 4) for sign in (1, -1)
                 if abs(k * p + d) < 1 << m})
    got = exactlin.float_mod(np.array(ys, dtype=dtype), p)
    assert got.dtype == dtype
    for y, r in zip(ys, got.tolist()):
        assert r == int(r) and -p < r < p and (y - int(r)) % p == 0, (y, r)
    # a broadcast array of primes reduces each slice by its own prime
    primes = np.array([3.0, float(p)], dtype=dtype)[:, None]
    both = exactlin.float_mod(np.array(ys, dtype=dtype)[None, :], primes)
    assert (both[1] == got).all()
    assert all((y - int(r)) % 3 == 0 and -3 < r < 3 for y, r in zip(ys, both[0].tolist()))


def test_product_stride_is_the_largest_exact_stride():
    # terms p w^k < 2^m <= terms p w^(k+1), m = 52 for float64 and 23 for
    # float32, for terms 1 (the screen) and n (the chain's traces), over
    # word-size and small primes and wide widths
    rng = random.Random(52)
    cases = [(terms, p, w) for terms in (1, 54)
             for p in (3, 1_663, 1_048_573, exactlin.PRIMES[-1])
             for w in (2, 3, 54, 66, 71, 72, 1000, 5044, 5045, 1 << 20)]
    cases += [(rng.choice([1, rng.randint(2, 63)]), rng.randrange(2, 1 << 31),
               rng.randrange(2, 1 << 24)) for _ in range(300)]
    for dtype, m, seen in ((np.float64, 52, {0, 1, 2, 5}), (np.float32, 23, {0, 1, 2})):
        strides = set()
        for terms, p, w in cases:
            k = exactlin.product_stride(terms, p, w, dtype)
            assert k >= 0 and terms * p * w ** (k + 1) >= 1 << m, (terms, p, w, dtype)
            assert k == 0 or terms * p * w ** k < 1 << m, (terms, p, w, dtype)
            strides.add(k)
        assert strides >= seen
    # widths below 2 count as 2, so k stays finite, and a sum of no terms as
    # one term; none when terms p >= 2^m
    assert exactlin.product_stride(1, 3, 0, np.float64) == 50
    assert exactlin.product_stride(1, 3, 2, np.float64) == 50
    assert exactlin.product_stride(0, 3, -1, np.float64) == 50
    assert exactlin.product_stride(1 << 21, 1 << 31, 2, np.float64) == 0
    assert exactlin.product_stride(0, 3, -1, np.float32) == 21
    assert exactlin.product_stride(1, 1 << 23, 2, np.float32) == 0


def test_s54_screen_and_chain_strides(s54, s54_window, monkeypatch):
    # S54's screen reduces every 2 float32 products (P 71^2 < 2^23) and its
    # chains every 2 float64 ones (54 p0 66^2 < 2^52 <= 54 p0 66^3; 52 p0
    # 68^2 for T52)
    real, strides = exactlin.product_chain, []

    def spy(x, factors, p, stride, mask=1.0):
        strides.append(("screen" if isinstance(mask, np.ndarray) else "chain", stride))
        return real(x, factors, p, stride, mask)

    monkeypatch.setattr(exactlin, "product_chain", spy)
    assert seidel.certify_spectrum(s54, cli.S54_SPECTRUM).passed
    assert set(strides) == {("chain", 2)}
    search.subseidel_scan(s54, s54_window, cli.ORDERS)
    assert set(strides) == {("chain", 2), ("screen", 2)}
    assert exactlin.product_stride(1, search.SCREEN_PRIME, 71, np.float32) == 2
    assert exactlin.product_stride(54, exactlin.PRIMES[-1], 66, np.float64) == 2


def test_screen_runs_in_float32_and_the_chain_in_float64(s54, s54_window, monkeypatch):
    # a NumPy promotion (a float64 scalar P, an int64 lam times a float32
    # array) must not switch the screen back to float64, nor run float64
    # arrays at the float32 stride or float32 arrays at the float64 one
    real, calls = exactlin.product_chain, []

    def spy(x, factors, p, stride, mask=1.0):
        screen = isinstance(mask, np.ndarray)
        dtype = np.float32 if screen else np.float64
        terms = 1 if screen else x.shape[-1]
        width = max(int(np.abs(f).sum(axis=0).max()) for f in factors)
        top = max(np.ravel(p).tolist())
        assert x.dtype == dtype and all(f.dtype == dtype for f in factors)
        assert not screen or (mask.dtype == dtype and p == search.SCREEN_PRIME)
        assert 0 < stride == exactlin.product_stride(terms, top, width, dtype)
        calls.append("screen" if screen else "chain")
        for y in real(x, factors, p, stride, mask):
            assert y.dtype == dtype
            yield y

    monkeypatch.setattr(exactlin, "product_chain", spy)
    assert seidel.certify_spectrum(s54, cli.S54_SPECTRUM).passed
    assert set(calls) == {"chain"}
    result = search.subseidel_scan(s54, s54_window, cli.ORDERS)
    assert len(result.hits) == 9 and result.screened_ambiguous == 0
    assert {"screen", "chain"} == set(calls)


def signed_factor(rng, n, w, sign=None):
    """An n x n float32 factor whose every absolute column sum is exactly
    w: off-diagonal entries +-1 (all sign, if given) and a diagonal entry
    +-(w - n + 1), like a column of S - lam I."""
    pick = (lambda: sign) if sign else (lambda: rng.choice((1, -1)))
    rows = [[pick() * (w - n + 1 if i == j else 1) for j in range(n)] for i in range(n)]
    return np.array(rows, dtype=np.float32)


def test_float32_chain_at_the_stride_edge_matches_python_ints():
    # entries +-(P - 1) and factors with absolute column sums of exactly w,
    # at the largest w with k = 2 (P 71^2 < 2^23 <= P 72^2) and with k = 1
    # (P 5,044 < 2^23 <= P 5,045): the chain agrees with Python ints reduced
    # after every product, and one stride more rounds on the all-positive
    # input, whose entries reach (P - 1) w^(k+1) >= 2^23
    p, n = search.SCREEN_PRIME, 8
    rng = random.Random(23)
    for w, k in ((71, 2), (5_044, 1)):
        stride = exactlin.product_stride(1, p, w, np.float32)
        assert stride == k and exactlin.product_stride(1, p, w + 1, np.float32) == k - 1
        rows = [[p - 1] * n, [1 - p] * n] + [[rng.choice((1 - p, p - 1)) for _ in range(n)]
                                             for _ in range(30)]
        x = np.array(rows, dtype=np.float32)
        for factors in ([signed_factor(rng, n, w, 1) for _ in range(2 * k + 1)],
                        [signed_factor(rng, n, w) for _ in range(2 * k + 1)]):
            expected = np.array(rows, dtype=object)
            for factor in factors:
                expected = expected @ factor.astype(int).astype(object) % p
            got = list(exactlin.product_chain(x, factors, p, stride))[-1]
            assert got.dtype == np.float32 and (abs(got) < p).all()
            assert ((got.astype(np.int64) - expected.astype(np.int64)) % p == 0).all()
        # row 0 by all-positive factors at one stride more: every residue is wrong
        positive = [signed_factor(rng, n, w, 1)] * (k + 1)
        rounded = list(exactlin.product_chain(x[:1], positive, p, k + 1))[-1]
        assert (p - 1) * w ** (k + 1) >= 1 << 23
        assert ((rounded.astype(np.int64) - (p - 1) * w ** (k + 1)) % p != 0).all(), rounded


def name_uses(tree, name):
    """The innermost enclosing def (None at module level) of each use of
    name in tree: a Name, an attribute or an imported alias."""
    uses = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            uses.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return uses


def test_float_mod_is_used_only_by_the_product_chain():
    # one exact float chain with one proof: a second loop reducing by
    # float_mod would need a proof of its own
    src = Path(exactlin.__file__).parent
    uses = {(path.name, owner) for path in sorted(src.glob("*.py"))
            for owner in name_uses(ast.parse(path.read_text()), "float_mod")}
    assert uses == {("exactlin.py", "product_chain")}
    second = "from .exactlin import float_mod\ndef f(x):\n    return exactlin.float_mod(x, 3)\n"
    assert name_uses(ast.parse(second), "float_mod") == [None, "f"]


def test_the_programs_ranks_need_no_hadamard_bound(monkeypatch):
    # every rank of the program's own inputs is proved by PRIMES[0], by
    # full rank or a verified kernel: the construction ranks, the 54
    # drop-line systems and the nullities of a wrong claim of each kind the
    # benchmark draws (a moved multiplicity, a replaced value, a changed
    # quadratic constant), whose exact values the failure's witness shows
    refuse_later_primes(monkeypatch)
    pipeline = cli.Pipeline(cli.RunConfig(command="all"))
    final = pipeline.final
    assert (pipeline.asche.ambient_dim, final.ambient_dim) == (19, 18)
    assert {exactlin.rank(np.delete(final.coords, i, axis=0)) for i in range(54)} == {18}
    for eigs, quadratic, failed in [
        ({-5: 35, 7: 7, 11: 8, 13: 2}, (-24, 107),
         {"nullity_at_-5": {"claimed": 35, "exact": 36},
          "nullity_at_7": {"claimed": 7, "exact": 6},
          "trace_identity": 12, "trace_square_identity": 2886}),
        ({-5: 36, 3: 2, 7: 6, 11: 8}, (-24, 107),
         {"nullity_at_3": {"claimed": 2, "exact": 0},
          "trace_identity": -20, "trace_square_identity": 2542}),
        ({-5: 36, 7: 6, 11: 8, 13: 2}, (-24, 106), {"trace_square_identity": 2864}),
    ]:
        cert = seidel.certify_spectrum(pipeline.seidel_matrix,
                                       seidel.SpectrumClaim.make(eigs, quadratic))
        assert cert.details["first_failure"] == {
            "check": "char_poly_matches", "witness": {"failed_premises": failed}}
