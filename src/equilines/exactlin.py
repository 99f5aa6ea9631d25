"""Exact integer/rational linear algebra on numpy arrays, in word-size
arithmetic: int64 where a checked bound keeps every value in range, or
floats whose every value is an integer below 2^mantissa (rank, nullity_at
and inverse also take rows of ints). One modular elimination, _echelon,
reduces an int64 matrix to its reduced row echelon form modulo one of the
word-size primes PRIMES at a time, and every exact answer is read off it:

- rank (hence nullity_at) over the rationals: a full rank modulo a prime
  is the rank, a rank below full is proved by a verified kernel (a
  null-space basis read off the reduced form, reconstructed as fractions
  and checked by an exact int64 product), and where no kernel verifies, a
  Hadamard bound on the minors over the primes seen decides;
- inverse: [m | I] reduced modulo one prime gives m^-1 modulo it, each
  entry is recovered by rational reconstruction, and only what the exact
  int64 identity m a = d I verifies is accepted;
- the pivot columns from which search picks an independent basis.

product_chain runs both spectral tests modulo primes, the sub-scan
screen in float32 and the annihilator chain in float64, and holds the
one proof that none of its values rounds. The two spectral callers share
one multiplicity source (seidel._multiplicities), which takes nullity_at
only where the chain cannot run or, for certify_spectrum alone, proves
an eigenvalue outside the claim. The Bareiss pivots of rows of
Python ints, behind determinants and the characteristic polynomial, run
in no certificate: the tests use them as the oracle for the modular
answers. Nothing is decided by rounding, so results can serve as certificates.
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
    swap). By Sylvester's determinant identity every entry left after
    step k is a minor of order k+2 of the row-permuted m, so each division
    by the previous pivot is exact. With no swap and no skipped column
    before step k, pivot k is the leading principal minor of order k+1; a
    swap or a skipped column at step k means that minor is 0.
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


def _echelon(a, p):
    """(cols, x): the pivot columns and the reduced row echelon form of the
    int64 matrix a modulo the prime p < 2^31, by Gauss-Jordan elimination.

    Column by column, the pivot is the first nonzero entry at or below row
    k, k the number of pivots so far; its row is swapped into row k and
    divided by the pivot, and every other row i becomes row i - x_i,col
    row k, all mod p. Residues are below 2^31, so each product is below
    2^62 and every value fits int64. Row k is zero before the pivot
    column, as every earlier pivot column is cleared in every row but its
    own and a skipped column is zero from row k down, so each step touches
    only the columns from the pivot column on. So cols are the columns
    independent modulo p of the ones before them, x[:len(cols)] is the
    reduced form R (1 at (i, cols[i]), its pivot columns unit vectors) and
    the rows below are zero.
    """
    x = a % p
    nr, nc = x.shape
    cols = []
    for col in range(nc):
        k = len(cols)
        if k == nr:
            break
        if not x[k, col]:
            rows = np.flatnonzero(x[k:, col])
            if not len(rows):
                continue
            x[[k, k + rows[0]], col:] = x[[k + rows[0], k], col:]
        rowk = x[k, col:] * pow(int(x[k, col]), -1, p) % p
        block = x[:, col:]
        block -= x[:, col, None] * rowk
        block %= p
        x[k, col:] = rowk               # the step maps row k to zeros; it stays
        cols.append(col)
    return cols, x


def inverse(m):
    """(a, d) with m a = d I, d > 0 and gcd(d, a) = 1: a / d = m^-1 in
    lowest terms, a an int64 array, for a square invertible matrix m of
    int64 entries (or rows of ints). Guess, then verify, one prime p at a
    time from PRIMES[-1] down:

    - Guess. _echelon reduces [m | I] modulo p. Its rank is n, so its
      reduced form is [I | m^-1 mod p] if its pivot columns are 0..n-1;
      otherwise m is singular modulo p, and p divides det m.
      rational_reconstruction turns each entry of m^-1 mod p into the
      fraction it must be if its reduced numerator and denominator are at
      most isqrt(p // 2). d is the lcm of their denominators and a =
      d m^-1 mod p, lifted to (-p/2, p/2).
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
    identity = np.identity(n, dtype=np.int64)
    for p in reversed(PRIMES):
        cols, x = _echelon(np.hstack([m, identity]), p)
        if cols[:n] != list(range(n)):
            continue
        u = x[:, n:]
        den = rational_reconstruction(u, p)[1]
        if not den.all():
            continue
        d = math.lcm(*den.ravel().tolist())
        a = d % p * u % p
        a[a > p // 2] -= p
        if (0 < d < 1 << 62 and np.gcd.reduce(a.ravel(), initial=d) == 1
                and (int64_product(m, a) == d * identity).all()):
            return a, d
    raise AssertionError("no prime in PRIMES gives a verified inverse")


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


def _max_abs(x):
    """The largest |entry| of the int64 array x as a Python int (0 if
    empty): -2^63 gives 2^63, which np.abs would wrap."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _row_sum(x):
    """The largest absolute row sum of the (rows, cols) int64 array x, as
    a Python int (0 for no rows). In int64 when cols max|x| < 2^63: no
    |entry| is then 2^63 and no partial sum can wrap. Else in Python ints."""
    if x.shape[1] * _max_abs(x) < 1 << 63:
        return int(np.abs(x).sum(axis=1).max(initial=0))
    return max(abs(x.astype(object)).sum(axis=1), default=0)


def int64_product(x, y):
    """x @ y for int64 arrays x and y, exact: AssertionError before the
    product unless the largest absolute row sum of x times the largest
    |y| entry, computed in Python ints, is below 2^63. That bounds every
    partial sum, so int64 never wraps."""
    bound = _row_sum(x) * _max_abs(y)
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
    float array y of integers |y| < 2^m, m = np.finfo(y.dtype).nmant, and
    integers 0 < p < 2^m (or an array of them that broadcasts against y).

    Let q = floor(y / p) over the reals. y / p is correctly rounded,
    rounding is monotone and q, q + 1 are exact floats, so floor(fl(y / p))
    is q or q + 1, and it is q when p divides y, as fl(y / p) = q then.
    The product by p is an integer below |y| + p < 2^(m+1) in absolute
    value, so it is exact, and so is the difference: y - q p in [0, p), or
    y - (q + 1) p in (-p, 0). A fraction of the cost of np.mod.
    """
    return y - np.floor(y / p) * p


def product_stride(terms, p, width, dtype):
    """The largest k >= 0 with t p w^k < 2^m, t = max(1, terms), w =
    max(2, width) and m = np.finfo(dtype).nmant (so k <= m), or 0 if there
    is none: how many products product_chain may take, in the float dtype,
    between reductions modulo primes up to p by factors of absolute column
    sums up to width, a caller summing terms entries of a product (n for a
    trace, else 1). 0: no product is exact."""
    t, w, m = max(1, terms), max(2, width), np.finfo(dtype).nmant
    return next(k for k in range(m + 1) if t * p * w ** (k + 1) >= 1 << m)


def product_chain(x, factors, p, stride, mask=1.0):
    """Yield x, x F_1, ..., x F_1 ... F_m for the factors F_i, modulo p:
    after every product the array is multiplied by mask, and after every
    stride products and after the last it is reduced by float_mod, to
    (-p, p), where it is 0 modulo p iff it is 0. x is a batch of row
    vectors, or lanes of matrices with p an array of one prime per lane.

    Exact for integer entries of x in (-p, p), w at least every absolute
    column sum of a factor, 0 < stride <= product_stride(terms, max p, w,
    dtype) and x, mask, factors and p of that float dtype (or Python
    numbers), m its mantissa bits. If |y| < B entrywise, every partial sum
    of y F in any summation order is an integer below B w in absolute
    value, and masking only zeroes entries. So after j <= stride products
    since the last reduction every value is an integer below p w^j < 2^m /
    terms: no product rounds, float_mod (which needs |y| < 2^m) is exact,
    and so is a sum of terms entries of a yielded array, such as a trace.
    """
    for i, factor in enumerate(factors, 1):
        yield x
        x = x @ factor * mask
        if i % stride == 0 or i == len(factors):
            x = float_mod(x, p)
    yield x


def rank(m):
    """Rank over the rationals of a matrix of int64 entries (or rows of
    ints), from its rank modulo one prime of PRIMES at a time, in order.

    Reducing mod p keeps every vanishing minor vanishing, so rank_p <=
    rank_Q for every prime p: some r-minor, r = rank_p, is nonzero mod p,
    hence nonzero over Q. Each prime's _echelon ends the search at one of
    three exits, checked in this order:

    - Full rank. If rank_p is min(rows, cols), it is rank_Q.
    - Kernel. Otherwise _kernel guesses from the reduced echelon form an
      int64 (c, c - r) matrix N, c the number of columns and r = rank_p,
      whose rows at the c - r free columns form diag(D_f), every D_f > 0.
      If m N = 0 holds in int64, its bound checked by int64_product, the
      columns of N are c - r independent vectors of the kernel over Q, so
      rank_Q <= r, and rank_Q = r. Only that identity is trusted, not the
      guess.
    - Bound. Let r be the largest rank_p over the primes seen; then
      rank_Q >= r. Every (r + 1)-minor M vanishes modulo each prime seen,
      since none has rank above r, so their product P divides M.
      Hadamard's inequality bounds |M| by the product H of the norms of
      its rows, each at most the norm of the whole row, so H^2 <= the
      product of the r + 1 largest squared row norms. Once P^2 > 4 H^2
      (compared as exact integers), |M| < P forces M = 0 for every such
      M, and rank_Q = r.

    No exit is reached, as where p divides a minor and the kernel check
    fails or its bound check refuses: the next prime is taken.
    AssertionError if PRIMES runs out.
    """
    a = _int64(m)
    full, product, r = min(a.shape), 1, 0
    for p in PRIMES:
        cols, x = _echelon(a, p)
        if len(cols) == full:
            return full
        kernel = _kernel(x, cols, p)
        try:
            if kernel is not None and not int64_product(a, kernel).any():
                return len(cols)
        except AssertionError:          # the bound check refused the product
            pass
        r, product = max(r, len(cols)), product * p
        squares = sorted((a.astype(object) ** 2).sum(axis=1), reverse=True)
        if product * product > 4 * math.prod(squares[:r + 1]):
            return r
    raise AssertionError("PRIMES is too short for the Hadamard bound")


def _kernel(x, cols, p):
    """A guess at a kernel basis over Q of a matrix whose reduced row
    echelon form modulo the prime p < 2^31 is x with pivot columns cols,
    as _echelon returns them: an int64 (c, c - r) matrix N, c the number
    of columns and r = len(cols), or None.

    Column f of the basis modulo p is 1 at free column f, -R[i, f] at
    pivot column cols[i] and 0 elsewhere, for R = x[:r]. Each entry
    becomes rational_reconstruction's fraction, and column f is scaled by
    the lcm D_f of its denominators, so N's row at free column f is
    D_f e_f. None if an entry has no fraction or some D_f >= 2^48, so that
    every entry, below 2^15 D_f in absolute value, fits int64.
    """
    r, c = len(cols), x.shape[1]
    free = sorted(set(range(c)) - set(cols))
    num, den = rational_reconstruction(-x[:r, free] % p, p)
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
    """dim ker(m - lam I) over the rationals, m square of int64 entries (or
    rows of ints).

    0 without a rank when |lam| exceeds R, the largest absolute row sum of
    m: then |m_ii - lam| >= |lam| - |m_ii| > R - |m_ii| >= sum over j != i
    of |m_ij| for every row i, so m - lam I is strictly diagonally
    dominant, hence nonsingular (Levy-Desplanques), however large lam is.
    Otherwise m - lam I is formed in int64, its n diagonal entries
    computed in Python ints; ValueError if one does not fit.
    """
    a = _int64(m)
    n, c = a.shape
    if n != c:
        raise ValueError("nullity of non-square matrix")
    if abs(lam) > _row_sum(a):
        return 0
    a[range(n), range(n)] = _int64([[x - lam for x in a.diagonal().tolist()]])[0]
    return n - rank(a)


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
