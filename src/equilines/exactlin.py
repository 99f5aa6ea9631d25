"""Exact integer/rational linear algebra.

Matrices are plain lists of rows of Python ints. Rank (hence nullity)
is decided over the rationals from numpy int64 eliminations modulo the
word-size primes PRIMES, each answer certified by a Hadamard bound on
the minors it rests on; the same modular kernel gives the pivot columns
from which search picks an independent basis. The adjugate has its own
fraction-free elimination on Python ints. Determinants (hence the
characteristic polynomial) come from the fraction-free (Bareiss)
elimination pivots, which no certificate runs: the tests use it as the
oracle for the modular answers. No floating point, so results can serve
as certificates.
"""

import math
from fractions import Fraction

import numpy as np

# the 24 largest primes below 2^31, ascending: residues are below 2^31,
# so every product of two and every difference of such products is below
# 2^62 in absolute value and int64 arithmetic is exact
PRIMES = (
    2147483059, 2147483069, 2147483077, 2147483123, 2147483137, 2147483171,
    2147483179, 2147483237, 2147483249, 2147483269, 2147483323, 2147483353,
    2147483399, 2147483423, 2147483477, 2147483489, 2147483497, 2147483543,
    2147483549, 2147483563, 2147483579, 2147483587, 2147483629, 2147483647,
)


def dims(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    return rows, cols


def mat_mul(a, b):
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise ValueError("dimension mismatch")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def pivots(m):
    """Fraction-free (Bareiss) row echelon form of the integer matrix m.

    Yields (row, col, pivot) for pivot k = 0, 1, ...: col is the first
    column with a nonzero entry at or below row k, and row >= k is where
    that entry's row was before it was swapped into place k (row == k: no
    swap). Each step is yielded before its elimination, so a caller that
    stops early pays for no further step. By Sylvester's determinant
    identity every entry left after step k is a minor of order k+2 of the
    row-permuted m, so each division by the previous pivot is exact. With
    no swap and no skipped column before step k, pivot k is the leading
    principal minor of order k+1; a swap or a skipped column at step k
    means that minor is 0.
    """
    nr, nc = dims(m)
    a = [list(row) for row in m]
    prev, k = 1, 0
    for col in range(nc):
        row = next((i for i in range(k, nr) if a[i][col]), None)
        if row is None:
            continue
        a[k], a[row] = a[row], a[k]
        rowk = a[k]
        pivot = rowk[col]
        yield row, col, pivot
        for rowi in a[k + 1:]:
            aic = rowi[col]
            for j in range(col + 1, nc):
                rowi[j] = (rowi[j] * pivot - aic * rowk[j]) // prev
        prev = pivot
        k += 1


def bareiss_det(m):
    """Determinant: 0 below full rank, else the last pivot times
    (-1)^(number of swaps)."""
    n, c = dims(m)
    if n != c:
        raise ValueError("determinant of non-square matrix")
    steps = list(pivots(m))
    if len(steps) < n:
        return 0
    swaps = sum(row != k for k, (row, _, _) in enumerate(steps))
    return (-1) ** swaps * steps[-1][2] if steps else 1


def adjugate(m):
    """(det m, adj m) for a symmetric positive definite integer matrix m.

    One fraction-free (Bareiss) Gauss-Jordan elimination of [m | I]
    without row swaps: after step k every entry is, up to sign, a minor
    of order k+1 of [m | I], so each division by the previous pivot is
    exact (Sylvester's determinant identity), and at the end [m | I] has
    become [det I | adj m]. The pivot of step k is the leading principal
    minor of order k+1, which Sylvester's criterion requires to be
    positive; a pivot <= 0 raises ValueError. The result is certified by
    check_adjugate before it is returned. Kept apart from pivots: it also
    eliminates above each pivot, which a determinant does not need.
    """
    n, c = dims(m)
    if n != c:
        raise ValueError("adjugate of non-square matrix")
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
    check_adjugate(m, prev, adj)
    return prev, adj


def check_adjugate(m, det, adj):
    """Raise AssertionError unless det != 0 and m @ adj == det I, which
    makes adj / det the inverse of m."""
    if det == 0 or mat_mul(m, adj) != [[det * (i == j) for j in range(len(m))]
                                        for i in range(len(m))]:
        raise AssertionError("m @ adj != det I")


def _int64(m):
    """m as an int64 array of its shape; ValueError if an entry does not fit."""
    try:
        return np.array(m, dtype=np.int64).reshape(dims(m))
    except OverflowError:
        raise ValueError("matrix entry does not fit in int64") from None


def float_mod(y, p):
    """y - floor(y / p) p: congruent to y modulo p and in (-p, p), for a
    float64 array y of integers with |y| < 2^52 and integers 0 < p < 2^52
    (or an array of them that broadcasts against y).

    Let q = floor(y / p) over the reals. y / p is correctly rounded,
    rounding is monotone and q, q + 1 are exact floats, so floor(fl(y / p))
    is q or q + 1, and it is q when p divides y, as fl(y / p) = q then.
    The product by p is an integer below |y| + p < 2^53 in absolute
    value, so it is exact, and so is the difference: y - q p in [0, p), or
    y - (q + 1) p in (-p, 0). A fraction of the cost of np.mod on float64.
    """
    return y - np.floor(y / p) * p


def _squared_row_norms(a):
    return [sum(x * x for x in row) for row in a.tolist()]


def _more_primes(product, bound, start):
    """The fewest primes PRIMES[start:stop] with (product times their
    product)^2 > bound; AssertionError if PRIMES runs out first."""
    stop = start
    while product * product <= bound:
        if stop == len(PRIMES):
            raise AssertionError("PRIMES is too short for the Hadamard bound")
        product *= PRIMES[stop]
        stop += 1
    return PRIMES[start:stop]


def _modular_pivots(a, primes):
    """Gaussian elimination of the int64 matrix a modulo every prime in
    primes at once, one (P, rows, cols) array for the P primes.

    Yields (pivots, primes, col) per pivot, the first two arrays over the
    primes still eliminated and col the pivot's column, before that
    step's elimination. Row i becomes row i - (a_ic / pivot) row k, all
    mod p: residues are below 2^31, so each product is below 2^62. Each
    prime takes as pivot the first nonzero entry of the column at or
    below row k; a prime with none there while another prime has one is
    dropped (that column depends on the leading ones modulo it alone), so
    the primes kept share one pivot count.
    """
    p = np.array(primes, dtype=np.int64)[:, None, None]
    x = a % p
    nr, nc = a.shape
    k = 0
    for col in range(nc):
        if k == nr:
            return
        if not x[:, k, col].all():
            nonzero = x[:, k:, col] != 0
            found = nonzero.any(axis=1)
            if not found.any():
                continue
            if not found.all():
                x, p, nonzero = x[found], p[found], nonzero[found]
            lanes, row = np.arange(len(p)), k + nonzero.argmax(axis=1)
            top = x[lanes, row]
            x[lanes, row] = x[:, k]
            x[:, k] = top
        pivot, q = x[:, k, col], p[:, 0, 0]
        yield pivot, q, col
        inverse = np.array([pow(v, -1, m) for v, m in zip(pivot.tolist(), q.tolist())])
        factor = x[:, k + 1:, col] * inverse[:, None] % p[:, 0]
        block = x[:, k + 1:, col + 1:]
        block -= factor[:, :, None] * x[:, k, None, col + 1:]
        np.remainder(block, p, out=block)
        k += 1


def rank(m):
    """Rank over the rationals, from ranks modulo PRIMES.

    Reducing mod p keeps every vanishing minor vanishing, so rank_p <=
    rank_Q for every prime p. Let r be the largest rank_p seen; then
    rank_Q >= r. If r is full, min(rows, cols), it is rank_Q, and the
    first prime usually decides there. Otherwise every prime seen
    divides every (r + 1)-minor M, since none has rank above r, so their
    product P divides M. Hadamard's inequality bounds |M| by the product
    H of the norms of its rows, each at most the norm of the whole row,
    so H^2 <= the product of the r + 1 largest squared row norms. Once
    P^2 > 4 H^2 (compared as exact integers), |M| < P forces M = 0 for
    every such M, and rank_Q = r. Primes are added, fewest first, until
    that holds; a prime dropped by _modular_pivots (its rank is not
    known) does not count and is replaced by the next one. AssertionError
    if PRIMES runs out.
    """
    a = _int64(m)
    full = min(a.shape)
    r, product, used, batch, squares = 0, 1, 0, PRIMES[:1], None
    while full and batch:
        steps, kept = 0, batch
        for _, kept, _ in _modular_pivots(a, batch):
            steps += 1
        r, product, used = max(r, steps), product * math.prod(map(int, kept)), used + len(batch)
        if r == full:
            break
        squares = squares or sorted(_squared_row_norms(a), reverse=True)
        batch = _more_primes(product, 4 * math.prod(squares[:r + 1]), used)
    return r


def nullity_at(m, lam):
    """dim ker(m - lam*I) over the rationals; m must be square."""
    n, c = dims(m)
    if n != c:
        raise ValueError("nullity of non-square matrix")
    shifted = [[m[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
    return n - rank(shifted)


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_from_roots(roots):
    """Monic polynomial with the given integer roots (with multiplicity)."""
    p = [1]
    for r in roots:
        p = poly_mul(p, [-r, 1])
    return p


def _synthetic_div(p, r):
    """Divide polynomial p (ascending coeffs) by (x - r); remainder must be 0."""
    n = len(p) - 1
    out = [0] * n
    acc = p[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = p[i] + acc * r
    if acc != 0:
        raise ArithmeticError("nonzero remainder in synthetic division")
    return out


def char_poly(m):
    """Monic characteristic polynomial det(xI - m), ascending integer coeffs.

    Evaluates det(kI - m) at n+1 consecutive integers with Bareiss
    determinants, then interpolates exactly with rational arithmetic.
    """
    n, c = dims(m)
    if n != c:
        raise ValueError("characteristic polynomial of non-square matrix")
    if n == 0:
        return [1]
    # symmetric sample window keeps the determinant values small
    points = [k - n // 2 for k in range(n + 1)]
    values = []
    for k in points:
        shifted = [[(k if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        values.append(bareiss_det(shifted))
    # Lagrange interpolation: master = prod (x - x_i); basis_i = master/(x - x_i)
    master = poly_from_roots(points)
    coeffs = [Fraction(0)] * (n + 1)
    for xi, yi in zip(points, values):
        basis = _synthetic_div(master, xi)
        denom = poly_eval(basis, xi)
        w = Fraction(yi, denom)
        for j, b in enumerate(basis):
            coeffs[j] += w * b
    out = []
    for f in coeffs:
        if f.denominator != 1:
            raise ArithmeticError("interpolated characteristic polynomial not integral")
        out.append(int(f))
    if out[-1] != 1:
        raise ArithmeticError("characteristic polynomial not monic")
    return out
