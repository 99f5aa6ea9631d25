"""Exact integer/rational linear algebra.

Matrices are plain lists of rows of Python ints (arbitrary precision).
One fraction-free (Bareiss) elimination, pivots, answers every rank,
nullity, determinant and definiteness question; the adjugate is the only
other. No floating point, so results can serve as certificates.
"""

from fractions import Fraction


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


def transpose(m):
    return [list(col) for col in zip(*m)]


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


def positive_definite(m):
    """True iff the symmetric integer matrix m is positive definite: by
    Sylvester's criterion, iff every leading principal minor is positive,
    that is, iff pivot k sits at (k, k) with no swap and is positive for
    every k < n. Stops at the first pivot that fails."""
    n, c = dims(m)
    if n != c:
        raise ValueError("definiteness of non-square matrix")
    k = 0
    for row, col, pivot in pivots(m):
        if row != k or col != k or pivot <= 0:
            return False
        k += 1
    return k == n


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
    eliminates above each pivot, which would roughly double every rank's cost.
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


def rank(m):
    """Rank over the rationals: the number of pivots."""
    return sum(1 for _ in pivots(m))


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
