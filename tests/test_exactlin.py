import math
import random
from fractions import Fraction

import numpy as np
import pytest

from equilines import exactlin


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
        primes = kept + exactlin._more_primes(math.prod(kept), bound, used)
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


def adjugate_rows(m):
    """exactlin.adjugate(m) with adj as rows, after checking that every
    entry is a Python int."""
    det, adj = exactlin.adjugate(m)
    assert type(det) is int and set(map(type, adj.flat)) <= {int}
    return det, adj.tolist()


def test_adjugate_known():
    assert adjugate_rows([[2, -1], [-1, 2]]) == (3, [[2, 1], [1, 2]])
    assert adjugate_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == (
        4, [[3, -2, 1], [-2, 4, -2], [1, -2, 3]])


def test_adjugate_random_positive_definite():
    rng = random.Random(3)
    for _ in range(30):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        b = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)]
        m = reference_mat_mul(b, transpose(b))
        for i in range(n):
            m[i][i] += 1
        det, adj = adjugate_rows(m)
        assert (det, adj) == reference_adjugate(m)
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
    with pytest.raises(ValueError):
        reference_adjugate(m)


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
                assert adjugate_rows(a) == adjugate_rows(m) == reference_adjugate(m)
                definite += 1
    assert definite > 10


def test_modular_edge_cases():
    assert exactlin.rank([]) == 0
    assert exactlin.rank([[]]) == 0
    assert exactlin.rank([[0, 0], [0, 0]]) == 0
    assert positive_definite([])
    assert not positive_definite([[0]])


def test_rank_survives_a_prime_that_drops_it():
    # rank 1 modulo PRIMES[0]; the Hadamard bound calls for more primes
    assert exactlin.rank([[1, 0], [0, P0]]) == 2
    assert exactlin.nullity_at([[1, 0], [0, P0]], 0) == 0
    assert exactlin.rank([[P0, P0], [P0, P0]]) == 1


def test_definite_despite_a_minor_divisible_by_the_first_prime():
    assert positive_definite([[P0, 1], [1, 1]])
    assert not positive_definite([[P0, 1], [1, 0]])
    assert not positive_definite([[-P0, 1], [1, 1]])


def test_dropped_prime_is_not_counted(monkeypatch):
    # rows 0 + 1 = row 2: rank 2, and rank 1 modulo P1. The batch after P0
    # drops P1, and P0 P2 alone is below the bound, so three primes are
    # not enough and a fourth is
    m = [[1, 0, 1], [0, P1, P1], [1, P1, 1 + P1]]
    assert exactlin.rank(m) == 2
    monkeypatch.setattr(exactlin, "PRIMES", exactlin.PRIMES[:3])
    with pytest.raises(AssertionError):
        exactlin.rank(m)


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


@pytest.mark.parametrize("p", [3, 1_048_573, exactlin.PRIMES[-1]])
def test_float_mod_is_an_exact_representative_in_the_open_range(p):
    # values at and around +-multiples of p, small and near the 2^52 limit
    rng = random.Random(p)
    ks = [0, 1, 2, 7] + [rng.randrange(1, ((1 << 52) - 4) // p) for _ in range(50)]
    ks.append(((1 << 52) - 4) // p)
    ys = sorted({sign * (k * p + d) for k in ks for d in range(-3, 4) for sign in (1, -1)
                 if abs(k * p + d) < 1 << 52})
    got = exactlin.float_mod(np.array(ys, dtype=float), p)
    for y, r in zip(ys, got.tolist()):
        assert r == int(r) and -p < r < p and (y - int(r)) % p == 0, (y, r)
    # a broadcast array of primes reduces each slice by its own prime
    primes = np.array([3.0, float(p)])[:, None]
    both = exactlin.float_mod(np.array(ys, dtype=float)[None, :], primes)
    assert (both[1] == got).all()
    assert all((y - int(r)) % 3 == 0 and -3 < r < 3 for y, r in zip(ys, both[0].tolist()))
