"""Exact integer/rational linear algebra on numpy arrays, in word-size
arithmetic: int64 where a checked bound keeps every value in range, or
float64 where every value is an integer below 2^52 (rank, nullity_at and
inverse also take rows of ints). The modular elimination reduces int64
matrices modulo the word-size primes PRIMES, and rank (hence nullity) is
decided over the rationals from it. A rank below full modulo the first
prime is proved by a verified kernel: a null-space basis read off the
echelon form, reconstructed as fractions and checked by an exact int64
product. A Hadamard bound on the minors over more primes decides only
where that kernel fails. The same elimination gives the pivot columns
from which search picks an independent basis. inverse guesses a matrix's
inverse modulo one prime by the same kind of elimination, recovers each
entry by rational reconstruction and accepts only what the exact int64
identity m a = d I verifies. float_mod reduces exact float64 integers
modulo a prime for the spectral screens. The Bareiss pivots of rows of
Python ints, behind determinants and the characteristic polynomial, run
in no certificate: the tests use them as the oracle for the modular
answers. Nothing is decided by rounding, so results can serve as
certificates.
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


def inverse(m):
    """(a, d) with m a = d I, d > 0 and gcd(d, a) = 1: a / d = m^-1 in
    lowest terms, a an int64 array, for a square invertible matrix m of
    int64 entries (or rows of ints). Guess, then verify, one prime p at a
    time from PRIMES[-1] down:

    - Guess. _inverse_mod gives m^-1 modulo p, or None if p divides
      det m. rational_reconstruction turns each entry into the fraction
      it must be if its reduced numerator and denominator are at most
      isqrt(p // 2). d is the lcm of their denominators and a = d m^-1
      mod p, lifted to (-p/2, p/2).
    - Verify. m a == d I in int64, its bound checked by int64_product
      (for a basis Gram matrix of the 54 lines, 18 terms |m| <= 80 times
      |a| < p/2 stay far below 2^63), with 0 < d < 2^62 and
      gcd(d, a) = 1. That identity alone proves a / d = m^-1, whatever
      the guess did; with the gcd, d is the least d > 0 that makes
      d m^-1 integral, which is det m / gcd(det m, adj m).

    A prime that divides det m, or whose reconstruction fails or gives a
    failing identity, is replaced by the next one. AssertionError if no
    prime works, as for an inverse with an entry beyond the bound, so
    the result is never wrong. ValueError if m is not square.
    """
    m = _int64(m)
    n, c = m.shape
    if n != c:
        raise ValueError("inverse of non-square matrix")
    for p in reversed(PRIMES):
        u = _inverse_mod(m, p)
        if u is None:
            continue
        den = rational_reconstruction(u, p)[1]
        if not den.all():
            continue
        d = math.lcm(*den.ravel().tolist())
        a = d % p * u % p
        a[a > p // 2] -= p
        if (0 < d < 1 << 62 and np.gcd.reduce(a.ravel(), initial=d) == 1
                and (int64_product(m, a) == d * np.identity(n, dtype=np.int64)).all()):
            return a, d
    raise AssertionError("no prime in PRIMES gives a verified inverse")


def _inverse_mod(m, p):
    """m^-1 modulo the prime p < 2^31 for a square int64 matrix m, by
    Gauss-Jordan elimination of [m | I] in int64, or None if p divides
    det m (no pivot is left in some column). Residues are below 2^31, so
    each product is below 2^62."""
    n = len(m)
    x = np.hstack([m % p, np.identity(n, dtype=np.int64)])
    for k in range(n):
        rows = np.flatnonzero(x[k:, k])
        if not len(rows):
            return None
        x[[k, k + rows[0]]] = x[[k + rows[0], k]]
        rowk = x[k] * pow(int(x[k, k]), -1, p) % p
        x -= np.outer(x[:, k], rowk)
        x %= p
        x[k] = rowk                 # the step maps row k to zeros; it stays
    return x[:, n:]


def rational_reconstruction(u, p):
    """(num, den), int64 arrays of u's shape: for each residue u modulo
    the prime p < 2^31, the fraction num / den = u (mod p) in lowest
    terms with |num| <= N and 0 < den <= N, N = isqrt(p // 2); den = 0
    where there is none.

    2 N^2 < p, so two such fractions congruent to one residue are equal:
    the one found is the entry's true value whenever that value has both
    parts within N (Wang, SYMSAC 1981; von zur Gathen and Gerhard, Modern
    Computer Algebra, 5.10). It is read off the extended Euclidean
    algorithm on (p, u), run for every entry at once: each remainder is
    r = t u (mod p) for its cofactor t, and at the first r <= N the
    fraction is r / t, sign moved to the numerator, if |t| <= N and
    gcd(r, t) = 1. Every value stays below p in absolute value.
    """
    bound = math.isqrt(p // 2)
    r0, r1 = np.full_like(u, p), u % p
    t0, t1 = np.zeros_like(u), np.ones_like(u)
    while (live := r1 > bound).any():
        q = r0 // np.maximum(r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, r1)
        t0, t1 = np.where(live, t1, t0), np.where(live, t0 - q * t1, t1)
    den = abs(t1)
    ok = (den <= bound) & (np.gcd(r1, den) == 1)
    return np.where(ok, np.sign(t1) * r1, 0), np.where(ok, den, 0)


def int64_product(x, y):
    """x @ y for int64 arrays x and y, exact: AssertionError before the
    product unless the largest absolute row sum of x times the largest
    |y| entry, computed in Python ints, is below 2^63. That bounds every
    partial sum, so int64 never wraps."""
    bound = (max(abs(x.astype(object)).sum(axis=1), default=0)
             * max(abs(y.astype(object)).ravel(), default=0))
    if bound >= 1 << 63:
        raise AssertionError(f"an int64 product could reach {bound}")
    return x @ y


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

    Yields (pivots, primes, col, x) per pivot, the first two arrays over
    the primes still eliminated, col the pivot's column and x the
    residues, before that step's elimination. Row i becomes row i -
    (a_ic / pivot) row k, all mod p: residues are below 2^31, so each
    product is below 2^62. Each prime takes as pivot the first nonzero
    entry of the column at or below row k; a prime with none there while
    another prime has one is dropped (that column depends on the leading
    ones modulo it alone), so the primes kept share one pivot count.

    x is eliminated in place, so once the generator is exhausted the
    last x yielded holds a row echelon form: row k, for k below the
    pivot count, is pivot row k, exact from its pivot column on and zero
    before it except at earlier pivot columns, which no step clears.
    """
    p = np.array(primes, dtype=np.int64)[:, None, None]
    x = a % p
    nr, nc = a.shape
    k = 0
    for col in range(nc):
        if k == nr:
            return
        if 0 in x[:, k, col].tolist():        # cheaper than .all() on a few entries
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
        yield pivot, q, col, x
        inverse = np.array([pow(v, -1, m) for v, m in zip(pivot.tolist(), q.tolist())])
        factor = x[:, k + 1:, col] * inverse[:, None] % p[:, 0]
        block = x[:, k + 1:, col + 1:]
        block -= factor[:, :, None] * x[:, k, None, col + 1:]
        np.remainder(block, p, out=block)
        k += 1


def rank(m):
    """Rank over the rationals, from its rank modulo PRIMES[0], proved by
    a verified kernel or else by a Hadamard bound over more primes.

    Reducing mod p keeps every vanishing minor vanishing, so rank_p <=
    rank_Q for every prime p: some r-minor, r = rank_p, is nonzero mod p,
    hence nonzero over Q. If r is full, min(rows, cols), it is rank_Q,
    and the first prime decides.

    - Kernel. Otherwise _kernel guesses from the echelon form modulo
      p = PRIMES[0] an int64 (c, c - r) matrix N, c the number of
      columns, whose rows at the c - r free columns form diag(D_f), every
      D_f > 0. If m N = 0 holds in int64, its bound checked by
      int64_product, the columns of N are c - r independent vectors of
      the kernel over Q, so rank_Q <= r, and rank_Q = r. Only that
      identity is trusted, not the guess.
    - Bound. If there is no guess, the bound check refuses, or the
      identity fails (as it must when p divides a minor and rank_p <
      rank_Q), primes are added to p. Let r be the largest rank_p seen;
      then rank_Q >= r. Every prime seen divides every (r + 1)-minor M,
      since none has rank above r, so their product P divides M.
      Hadamard's inequality bounds |M| by the product H of the norms of
      its rows, each at most the norm of the whole row, so H^2 <= the
      product of the r + 1 largest squared row norms. Once P^2 > 4 H^2
      (compared as exact integers), |M| < P forces M = 0 for every such
      M, and rank_Q = r. Primes are added, fewest first, until that
      holds; a prime dropped by _modular_pivots (its rank is not known)
      does not count and is replaced by the next one. AssertionError if
      PRIMES runs out.
    """
    a = _int64(m)
    full = min(a.shape)
    cols, x = [], None
    for _, _, col, x in _modular_pivots(a, PRIMES[:1]):
        cols.append(col)
    r = len(cols)
    if r == full:
        return r
    kernel = _kernel(x[0, :r] if r else a[:0], cols, PRIMES[0])
    try:
        if kernel is not None and not int64_product(a, kernel).any():
            return r
    except AssertionError:          # the bound check refused: fall back
        pass
    squares = sorted((a.astype(object) ** 2).sum(axis=1), reverse=True)
    product, used = PRIMES[0], 1
    while batch := _more_primes(product, 4 * math.prod(squares[:r + 1]), used):
        steps, kept = 0, batch
        for _, kept, _, _ in _modular_pivots(a, batch):
            steps += 1
        r, product, used = max(r, steps), product * math.prod(map(int, kept)), used + len(batch)
        if r == full:
            break
    return r


def _kernel(upper, cols, p):
    """A guess at a kernel basis over Q of a matrix whose row echelon form
    modulo the prime p < 2^31 has the r pivot rows upper (as
    _modular_pivots leaves them) with pivot columns cols: an int64
    (c, c - r) matrix N, c the number of columns, or None.

    Column f of the basis modulo p is 1 at free column f, -R[i, f] at
    pivot column cols[i] and 0 elsewhere, for R the reduced echelon form;
    R's free columns are T^-1 B for T the pivot columns of upper
    (triangular, its stale entries below the diagonal cleared) and B its
    free columns, by back substitution mod p after each row is divided by
    its pivot. Each entry becomes rational_reconstruction's fraction, and
    column f is scaled by the lcm D_f of its denominators, so N's row at
    free column f is D_f e_f. None if an entry has no fraction or some
    D_f >= 2^48, so that every entry, below 2^15 D_f in absolute value,
    fits int64.
    """
    r, c = upper.shape
    free = [j for j in range(c) if j not in set(cols)]
    inverse = np.array([pow(v, -1, p) for v in upper[range(r), cols].tolist()],
                       dtype=np.int64)[:, None]
    # t[k]: column k of T above the diagonal, each row divided by its
    # pivot; step k leaves rows k and below of y as they are
    t = np.ascontiguousarray((np.triu(upper[:, cols], 1) * inverse % p).T)[:, :, None]
    y = upper[:, free] * inverse % p
    for k in range(r - 1, 0, -1):
        y -= t[k] * y[k]
        y %= p
    num, den = rational_reconstruction(-y % p, p)
    if not den.all():
        return None
    scale = [math.lcm(*column) for column in den.T.tolist()]
    if max(scale) >= 1 << 48:
        return None
    kernel = np.zeros((c, c - r), dtype=np.int64)
    kernel[cols] = num * (np.array(scale, dtype=np.int64) // den)
    kernel[free, range(c - r)] = scale
    return kernel


def nullity_at(m, lam):
    """dim ker(m - lam I) over the rationals, m square; m - lam I is
    formed in Python ints.

    0 without a rank when |lam| exceeds R, the largest absolute row sum of
    m: then |m_ii - lam| >= |lam| - |m_ii| > R - |m_ii| >= sum over j != i
    of |m_ij| for every row i, so m - lam I is strictly diagonally
    dominant, hence nonsingular (Levy-Desplanques), however large lam is.
    """
    n, c = dims(m)
    if n != c:
        raise ValueError("nullity of non-square matrix")
    m = np.array(m, dtype=object).reshape(n, n)
    if abs(lam) > max(abs(m).sum(axis=1), default=0):
        return 0
    m[range(n), range(n)] -= lam
    return n - rank(m)


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
