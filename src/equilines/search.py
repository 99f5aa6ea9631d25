"""Exhaustive searches: non-extendibility and the integral-spectrum sub-scan.

Both run in one process. The extendibility search reads an independent
basis and every inner product it needs off the members' int64 Gram
matrix, tests all 2^rank sign patterns at once in exact int64
arithmetic, after dividing the exact adjugate by its content, and
re-checks every hit in integers. The adjugate, inner products and hits
are object arrays of Python ints; the scan casts to int64 only after a
bound check. The sub-scan examines the lexicographically least
removed-index set of each orbit of the automorphism group, generated
level by level, screens each with an exact annihilator test modulo a
prime, and confirms every survivor with the same test over the
integers, run modulo enough word-size primes. Neither search decides
anything by floating point: where they compute in float64, every value
is an exact integer.
"""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice

import numpy as np

from . import exactlin, seidel
from .construct import SCALED_ANGLE, SCALED_NORM

SCREEN_PRIME = 1_048_573        # prime, below 2^20
SCREEN_SEED = 54                # fixes the screen vector v
SCREEN_BATCH = 128              # subsets per batch; small keeps memory flat
SCAN_BLOCK = 1 << 14            # int64 entries per pattern-scan or orbit-level block (128 KiB)


@dataclass
class ExtendibilityReport:
    extendible: bool
    witness: tuple               # Fractions, span coordinates in R^24; or None
    patterns_examined: int
    basis_indices: tuple
    witnesses: list = field(default_factory=list)


@dataclass
class SubScanResult:
    hits: list                   # (order, removed indices, SpectrumClaim)
    equivalence_classes: list    # hit positions of each switching class
    subsets_examined: dict       # order -> subsets covered by the orbits
    orbit_representatives: dict  # order -> removed-index sets examined
    screened_ambiguous: int = 0  # subsets whose orbit passed the screen, failed confirmation


def greedy_basis(gram, target_rank):
    """Indices of target_rank independent members: the first target_rank
    pivot columns of their Gram matrix gram = V V^T, eliminated modulo
    PRIMES[-1] by exactlin._modular_pivots.

    - The pivot columns C are independent modulo p, so some |C|-minor of
      gram[:, C] is nonzero modulo p, hence nonzero: they are independent
      over Q.
    - Column j of V V^T is V v_j, so a dependency sum c_j v_j = 0 among
      members would be one among their columns: the members in C are
      independent too.

    check_extendibility needs only that, and exactlin.adjugate asserts
    once more that their Gram matrix is positive definite. (Over Q the
    pivot columns are the greedy basis, each member independent of those
    before it: V u = 0 for u in the row space of V forces u^T u = 0.
    Modulo p they can differ only where p divides a minor.)
    """
    steps = islice(exactlin._modular_pivots(gram, exactlin.PRIMES[-1:]), target_rank)
    chosen = [col for _, _, col in steps]
    if len(chosen) < target_rank:
        raise ValueError(f"gram has rank {len(chosen)} < {target_rank} "
                         f"modulo {exactlin.PRIMES[-1]}")
    return chosen


def _sign_rows(bits):
    """Row p holds s_j = +1 where bit j of p is set, else -1: shape (2^bits, bits)."""
    p = np.arange(1 << bits)
    return np.where(p[:, None] >> np.arange(bits) & 1, 1, -1).astype(np.int64)


def _pattern_scan(a, d, inner):
    """The sign vectors s in {+1, -1}^r, r = len(a), that pass the
    reduced norm and angle tests below, as bit masks g (bit j set means
    s_j = +1) in the order of a Gray-code walk: by increasing k with
    g = k ^ (k >> 1). a and inner are object arrays of Python ints, d > 0.

    The norm test: SCALED_ANGLE^2 s^T a s = SCALED_NORM d. For integer
    q = s^T a s that is q = top and rem = 0, with top, rem the quotient
    and remainder of SCALED_NORM d by SCALED_ANGLE^2 (if rem != 0 no
    pattern passes). The angle test: every entry of inner @ s is +d or -d.

    q is computed for all 2^r patterns at once from a split into the
    low r // 2 coordinates and the rest:
    q = s_lo^T a_ll s_lo + 2 s_lo^T a_lh s_hi + s_hi^T a_hh s_hi,
    in blocks of SCAN_BLOCK entries. Every value computed, partial sums
    included, is a signed sum of entries of a, of a row of inner, or d,
    so its absolute value is at most the bound checked before the int64
    cast, below 2^62: int64 never wraps. (The cross term's factor 2 is
    covered because a is symmetric: 2 sum |a_lh| = sum |a_lh| + sum |a_hl|.)
    """
    r = len(a)
    top, rem = divmod(SCALED_NORM * d, SCALED_ANGLE ** 2)
    bound = max(d, abs(a).sum(), abs(inner).sum(axis=1).max())
    if bound >= 1 << 62:
        raise AssertionError(f"reduced entries reach {bound}, beyond the int64 scan")
    a, inner = a.astype(np.int64), inner.astype(np.int64)
    lo = r // 2
    s_lo, s_hi = _sign_rows(lo), _sign_rows(r - lo)
    q_lo = ((s_lo @ a[:lo, :lo]) * s_lo).sum(axis=1)
    q_hi = ((s_hi @ a[lo:, lo:]) * s_hi).sum(axis=1)
    x_lo = 2 * (s_lo @ a[:lo, lo:])
    step = max(1, SCAN_BLOCK >> (r - lo))
    hits = []
    for b in range(0, len(s_lo), step):
        q = x_lo[b:b + step] @ s_hi.T
        q += q_lo[b:b + step, None]
        q += q_hi
        i, j = np.nonzero((q == top) & (rem == 0))
        signs = np.hstack([s_lo[b + i], s_hi[j]])
        angles_ok = (np.abs(signs @ inner.T) == d).all(axis=1)
        hits.extend((j[angles_ok] << lo | (b + i[angles_ok])).tolist())
    return sorted(hits, key=_gray_index)


def _gray_index(g):
    """The k with k ^ (k >> 1) == g."""
    k = 0
    while g:
        k ^= g
        g >>= 1
    return k


def check_extendibility(system):
    """Exhaustively decide whether one more line at the common angle fits.

    Any valid new line w must satisfy <w, b> in {+16, -16} for each member
    b of an independent basis B, so sweeping all 2^rank sign patterns and
    solving the exact Gram system for each is a complete search. The
    ambient space is the span of the system, so a new line lies in it and
    its scaled norm is exactly 80.

    For a pattern eps = 16 s, s in {+1, -1}^r, the candidate is
    w = B^T G^-1 eps, where G = B B^T is positive definite: G is
    gram[basis][:, basis], with gram = V V^T the members' Gram matrix.
    exactlin.adjugate gives det = det G > 0 and adj = det G^-1, certified
    by G @ adj = det I. Let g be the gcd of det and every entry of adj, so
    g divides each of them: a = adj / g and d = det / g > 0 are integers,
    a is symmetric and a / d = G^-1. Then d w = B^T a eps, its scaled
    norm is eps^T a eps / d and its scaled inner products with the
    members V are inner @ eps / d, where inner = V B^T a =
    gram[:, basis] @ a is an integer matrix. Multiplying by d > 0 and
    dividing by 16, the norm test eps^T G^-1 eps = 80 is
    256 s^T a s = 80 d, and the angle test V w = +-16 is inner @ s = +-d
    in every entry. _pattern_scan runs these tests exactly, in int64.
    Every pattern it returns is rebuilt as the integer vector
    d w = B^T (a eps) and re-checked against every member's coordinates
    by _verify_witness; only then is w made exact Fractions for the report.
    """
    coords, gram, r = system.coords, system.gram, system.ambient_dim
    basis = greedy_basis(gram, r)
    det, adj = exactlin.adjugate(gram[np.ix_(basis, basis)])
    g = math.gcd(det, *adj.flat)
    a, d = adj // g, det // g
    inner = gram[:, basis] @ a                              # members x r
    witnesses = []
    for pattern in _pattern_scan(a, d, inner):
        eps = np.where(pattern >> np.arange(r) & 1, SCALED_ANGLE, -SCALED_ANGLE)
        dw = a @ eps @ coords[basis]
        _verify_witness(coords, dw, d)
        witnesses.append(tuple(Fraction(x, d) for x in dw))
    return ExtendibilityReport(
        extendible=bool(witnesses),
        witness=witnesses[0] if witnesses else None,
        patterns_examined=1 << r,
        basis_indices=tuple(basis),
        witnesses=witnesses,
    )


def _verify_witness(coords, dw, d):
    """AssertionError unless w = dw / d, with d > 0, has scaled norm
    SCALED_NORM and a scaled inner product of +-SCALED_ANGLE with every
    row of coords: for dw an object array, |dw|^2 = SCALED_NORM d^2 and
    |coords @ dw| = SCALED_ANGLE d, which also rules out a parallel row."""
    if dw @ dw != SCALED_NORM * d * d:
        raise AssertionError("witness failed the norm re-check")
    off = np.flatnonzero(abs(coords @ dw) != SCALED_ANGLE * d)
    if len(off):
        raise AssertionError(f"witness not at the common angle with member {off[0]}")


def switching_automorphisms(s):
    """The permutation parts of the signed automorphisms of s, a group."""
    return set(seidel.permutation_parts(seidel.signed_automorphism_group(s).elements, s.n))


def orbit_representatives(perms, n, k):
    """The k-subsets of range(n) that are lexicographically least among
    their images under perms, in combinations order, and how many distinct
    images each has.

    For a permutation group G these are one subset per G-orbit, and each
    count is the orbit size, so the counts sum to C(n, k). Counting
    distinct images needs no division: a set that is not a group gives a
    wrong total, never a truncated quotient.

    - Masks. A set T is the int64 sum of 2^(n-1-t), t in T, so n <= 63.
      For A != B of equal size, sorted A and sorted B first differ at the
      least element i of their symmetric difference; if i is in A then
      A <lex B, and bit n-1-i, the highest one that differs, is set in A's
      mask: mask(A) > mask(B). Lex-least among the images is greatest
      mask among them.
    - Heredity. Let T = {t1 < ... < tk} be lex-least among its images and
      T' = T minus tk. For g in perms, sorted g(T) is sorted g(T') with
      g(tk) inserted, which can only lower each of its first k-1 entries.
      So g(T') <lex T' would give g(T) <lex T: T' is lex-least too. The
      k-subsets kept are therefore the lex-least extensions R + {x},
      x > max R, of the (k-1)-subsets R kept, each reached once, from its
      own R = T'. _orbit_levels builds them so, for any perms.
    """
    if k < 0:
        raise ValueError(f"negative subset size {k}")
    return next(islice(_orbit_levels(perms, n), k, None))


def _orbit_levels(perms, n):
    """orbit_representatives(perms, n, k) for k = 0, 1, 2, ..., level k
    built from level k - 1 only when it is asked for.

    Level k is built from all its parents R at once. The candidates are
    the pairs (R, x), x > max R, in parent-major order, which is
    combinations order. Candidate c = (R, x) has the image masks
    images[c, g] = mask(g(R)) + bits[x, g], one per g in perms; it is kept
    iff none exceeds its own mask, and its orbit size is the number of
    steps in its sorted row, plus one. The candidates run in blocks of at
    most SCAN_BLOCK image masks (one candidate if its row is longer), and
    each block sums the masks of only the parents it touches. Every
    parent kept has a candidate, so a block touches at most as many
    parents as it holds candidates, and its arrays hold at most k
    SCAN_BLOCK entries, whatever the level's size."""
    if n > 63:
        raise ValueError(f"{n} points do not fit in int64 subset masks (at most 63)")
    bits = np.left_shift(np.int64(1), n - 1 - np.array(list(perms), dtype=np.int64).T)
    own = np.left_shift(np.int64(1), n - 1 - np.arange(n, dtype=np.int64))
    width = max(1, SCAN_BLOCK // bits.shape[1])             # candidates per block
    empty = np.zeros(0, dtype=np.int64)
    reps, sizes = np.zeros((1, 0), dtype=np.int64), [1]
    while True:
        yield list(map(tuple, reps.tolist())), sizes
        start = reps[:, -1] + 1 if reps.shape[1] else np.zeros(len(reps), dtype=np.int64)
        reps, start = reps[start < n], start[start < n]     # parents with a candidate
        count = n - start
        parent = np.repeat(np.arange(len(reps)), count)
        x = np.arange(len(parent)) + np.repeat(n - np.cumsum(count), count)  # start..n-1 each
        blocks = [(empty, empty, empty)]
        for lo in range(0, len(parent), width):
            p, y = parent[lo:lo + width], x[lo:lo + width]
            rows, local = reps[p[0]:p[-1] + 1], p - p[0]
            images = bits[y]
            images += bits[rows].sum(axis=1)[local]
            keep = images.max(axis=1) <= own[rows].sum(axis=1)[local] + own[y]
            kept = images[keep]
            kept.sort(axis=1)
            blocks.append((p[keep], y[keep], 1 + (kept[:, 1:] != kept[:, :-1]).sum(axis=1)))
        p, y, size = (np.concatenate(part) for part in zip(*blocks))
        reps, sizes = np.column_stack([reps[p], y]), size.tolist()


def _orbit(perms, removed):
    """The images of one removed-index set under perms, sorted."""
    return sorted({tuple(sorted(p[i] for i in removed)) for p in perms})


def _screen(factors, v, removed):
    """Which rows of removed, an array of removed-index sets, pass
    p_L(M) v = 0 (mod P). Row b of x is set b's vector, zero off the kept
    indices, so masked x @ (S - lam I) applies M - lam I to each row.

    Each product is reduced by exactlin.float_mod to a representative in
    (-P, P), which is 0 modulo P iff it is 0, so the final test needs no
    further reduction. Exactness is proved in subseidel_scan."""
    mask = np.ones((len(removed), len(v)))
    mask[np.arange(len(removed))[:, None], removed] = 0.0
    x = mask * v
    for factor in factors:
        x = exactlin.float_mod(x @ factor, SCREEN_PRIME) * mask
    return ~x.any(axis=1)


def subseidel_scan(s, window, orders=(50, 51, 52, 53), progress=None):
    """Find all principal submatrices of the given orders with fully
    integral spectrum, grouped into switching-equivalence classes.

    Precondition: window holds every integer in [lambda_min(s),
    lambda_max(s)] and none outside [1 - n, n - 1], as
    SpectrumClaim.integer_window of a claim certified for s does; the
    scan proves nothing about the spectrum of s itself.

    Only one removed-index set per orbit of switching_automorphisms(s) is
    screened, confirmed and classified.

    - Orbits. A signed automorphism (pi, d) has S[pi(i), pi(j)] =
      d_i d_j S[i, j]. So the submatrix kept after removing pi(K) is a
      signed permutation conjugate of the one kept after removing K: the
      two have the same spectrum and lie in the same switching class.
      The lex-least representative from orbit_representatives therefore
      decides its whole orbit: a confirmed one contributes every member,
      with its spectrum. Orders run in descending order, so k = n - order
      rises, and level k is built from level k - 1 just before order
      n - k is screened. Hits are sorted by order descending, then in
      combinations order, as a scan of every subset would list them.
      Orbits partition the k-subsets, so subsets_examined, the sum of the
      orbit sizes, must be C(n, k); the certificate checks it.
    - Classes. equivalence_classes lists the hit positions of each
      switching class (up to permutation), in order of first hit. By the
      orbit argument every member of one hit orbit lies in the class of
      its representative, so a single hit orbit is a single class and
      needs no canonical form. Only when two or more orbits hit does each
      representative get one switching_canonical_form, and orbits merge
      iff their forms are equal, as equal forms mean the same class.

    A submatrix M of order m survives the screen iff p_L(M) v = 0 (mod P),
    where p_L(x) = prod_{lam in L} (x - lam), v is a fixed vector and L is
    window, keeping only its odd members when m is even.

    - No false negatives. M is symmetric, hence diagonalisable, so its
      minimal polynomial is prod (x - lam) over its distinct eigenvalues.
      Cauchy interlacing puts them in [lambda_min(s), lambda_max(s)]; if
      they are integers (odd ones for even m, see parity) they lie in L,
      so the minimal polynomial divides p_L and p_L(M) = 0.
    - Parity. Off-diagonal entries are odd, so M = J - I (mod 2) and
      det(xI - M) = (x - m + 1)(x + 1)^(m-1) = (x + 1)^m (mod 2) for even
      m. An integer root of this monic integer polynomial is therefore a
      root of (x + 1)^m over GF(2), that is, odd.
    - Exact float64. Entries of x lie in (-P, P): v's are in [1, P),
      and exactlin.float_mod returns that range. A column of S - lam I
      has n - 1 entries +-1 and one -lam, |lam| <= n - 1, so every
      partial sum of x @ (S - lam I) is an integer below 2(n - 1)P < 2^52
      in absolute value (n <= 63): no BLAS summation order can round,
      and float_mod of it is exact.
    - Survivors are not trusted. Each goes to compute_spectrum, which
      proves p_L(M) = 0 over the integers with one annihilator chain
      modulo enough primes and reads the multiplicities off the chain's
      traces. A survivor whose chain does not vanish (the residue vanished
      only modulo P, or only for this v) has an eigenvalue outside L, so
      no integral spectrum: it adds its orbit size to screened_ambiguous,
      so that field counts subsets, as a scan of every subset would.

    progress(order, subsets covered) is called after each order's screen
    and confirmation, before classification.
    """
    n = s.n
    perms = switching_automorphisms(s)
    rng = random.Random(SCREEN_SEED)
    v = np.array([rng.randrange(1, SCREEN_PRIME) for _ in range(n)], dtype=float)
    found = []
    subsets_examined = {}
    representatives = {}
    rejected = 0
    levels = _orbit_levels(perms, n)
    depth, (reps, sizes) = 0, next(levels)
    for order in sorted(set(orders), reverse=True):
        k = n - order
        while depth < k:
            depth, (reps, sizes) = depth + 1, next(levels)
        subsets_examined[order] = sum(sizes)
        representatives[order] = len(reps)
        lams = [lam for lam in window if order % 2 or lam % 2]
        factors = [s.array - lam * np.eye(n) for lam in lams]
        for lo in range(0, len(reps), SCREEN_BATCH):
            batch = reps[lo:lo + SCREEN_BATCH]
            passed = _screen(factors, v, np.array(batch, dtype=np.intp).reshape(len(batch), k))
            for removed, size in compress(zip(batch, sizes[lo:lo + SCREEN_BATCH]), passed):
                sub = s.principal_submatrix(i for i in range(n) if i not in removed)
                claim = seidel.compute_spectrum(sub, lams)
                if claim is not None:
                    found.append((order, removed, claim))
                else:
                    rejected += size
        if progress:
            progress(order, subsets_examined[order])

    forms = [None] * len(found)
    if len(found) > 1:
        forms = [seidel.switching_canonical_form(
            s.principal_submatrix(i for i in range(n) if i not in rep)) for _, rep, _ in found]
    members = []
    for (order, rep, claim), form in zip(found, forms):
        members.extend((order, removed, claim, form) for removed in _orbit(perms, rep))
    members.sort(key=lambda hit: (-hit[0], hit[1]))
    classes = {}
    for pos, (_order, _removed, _claim, form) in enumerate(members):
        classes.setdefault(form, []).append(pos)
    return SubScanResult(
        hits=[(order, removed, claim) for order, removed, claim, _form in members],
        equivalence_classes=list(classes.values()),
        subsets_examined=subsets_examined,
        orbit_representatives=representatives,
        screened_ambiguous=rejected,
    )
