"""Exhaustive searches: non-extendibility and the integral-spectrum sub-scan.

Both run in one process, on word-size arithmetic whose exactness each
step proves by a checked bound or a verified identity. The extendibility
search reads an independent basis and every inner product it needs off
the members' int64 Gram matrix, inverts the basis Gram matrix by
exactlin.inverse (a modular guess that the int64 identity G a = d I
verifies), tests all 2^rank sign patterns at once in float64 whose
every value is an integer below 2^52, and re-checks every hit in Python
ints. The sub-scan examines the lexicographically least removed-index
set of each orbit of the automorphism group, generated level by level,
screens each with an exact annihilator test modulo a prime and confirms
every survivor with the same test over the integers, run modulo enough
word-size primes; both tests run on exactlin.product_chain, which proves
itself exact. Neither search decides anything by rounding: where they
compute in floats, every value is an exact integer.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactlin, seidel
from .construct import SCALED_ANGLE, SCALED_NORM

SCREEN_PRIME = 1_663            # the largest prime with P 71^2 < 2^23 (float32, S54: k = 2)
SCREEN_SEED = 54                # fixes the screen vector v
SCREEN_BATCH = 256              # subsets per batch: 55 KiB of float32 rows on S54, memory flat
SCAN_BLOCK = 1 << 14            # 8-byte entries per pattern-scan or orbit-level block (128 KiB)


@dataclass
class ExtendibilityReport:
    extendible: bool
    patterns_examined: int
    basis_indices: tuple
    witnesses: list              # each exact rationals in R^24, int where integral


@dataclass
class SubScanResult:
    hits: list                   # (order, removed indices, SpectrumClaim)
    equivalence_classes: list    # hit positions of each switching class
    subsets_examined: dict       # order -> subsets covered by the orbits
    orbit_representatives: dict  # order -> removed-index sets examined
    screened_ambiguous: int = 0  # subsets whose orbit passed the screen, failed confirmation


def greedy_basis(gram):
    """Indices of independent members: every pivot column of their Gram
    matrix gram = V V^T reduced modulo p = PRIMES[-1] by
    exactlin._echelon, each the first column independent modulo p of the
    ones before it.

    - The pivot columns C are independent modulo p, so some |C|-minor of
      gram[:, C] is nonzero modulo p, hence nonzero: they are independent
      over Q.
    - Column j of V V^T is V v_j, so a dependency sum c_j v_j = 0 among
      members would be one among their columns: the members in C are
      independent too.

    So |C| is at most the members' rank, and below it only where p
    divides a minor; check_extendibility proves that it is the rank.
    (Over Q the pivot columns are the greedy basis, each member
    independent of those before it: V u = 0 for u in the row space of V
    forces u^T u = 0. Modulo p they can differ only where p divides a
    minor.)
    """
    return exactlin._echelon(gram, exactlin.PRIMES[-1])[0]


def _sign_rows(bits):
    """Row p holds s_j = +1 where bit j of p is set, else -1: float64, shape (2^bits, bits)."""
    p = np.arange(1 << bits)
    return np.where(p[:, None] >> np.arange(bits) & 1, 1.0, -1.0)


def _pattern_scan(a, d, inner):
    """The sign vectors s in {+1, -1}^r, r = len(a), that pass the
    reduced norm and angle tests below, as the int64 rows of one (hits, r)
    array in ascending order of their masks sum_{s_j = +1} 2^j, so
    s_{r-1} is the most significant sign. a (symmetric) and inner are
    integer arrays, d > 0.

    The norm test: SCALED_ANGLE^2 s^T a s = SCALED_NORM d. For integer
    q = s^T a s that is q = top and rem = 0, with top, rem the quotient
    and remainder of SCALED_NORM d by SCALED_ANGLE^2 (if rem != 0 no
    pattern passes, nor for r = 0, where q = 0 < top). The angle test:
    every entry of inner @ s is +d or -d.

    q is computed for all 2^r patterns at once from a split into the
    low r // 2 coordinates and the rest:
    q = s_lo^T a_ll s_lo + 2 s_lo^T a_lh s_hi + s_hi^T a_hh s_hi,
    in blocks of SCAN_BLOCK entries, in float64. Every value computed,
    partial sums included, is an integer and a signed sum of entries of
    a, of a row of inner, or d, so its absolute value is at most the
    bound, checked exactly by exactlin._row_sum before the float64 cast:
    below 2^52, so in any BLAS summation order every value is exact and
    nothing rounds. (The cross term's factor 2 is covered because a is
    symmetric: 2 sum |a_lh| = sum |a_lh| + sum |a_hl|.) A block with no
    norm hit is skipped before its hits are listed.
    """
    r = len(a)
    top, rem = divmod(SCALED_NORM * d, SCALED_ANGLE ** 2)
    bound = max(d, exactlin._row_sum(a.reshape(1, -1)), exactlin._row_sum(inner))
    if bound >= 1 << 52:
        raise AssertionError(f"reduced entries reach {bound}, beyond the exact float64 scan")
    hits = [np.zeros((0, r), dtype=np.int64)]
    if rem or not r:
        return hits[0]
    a, inner = a.astype(float), inner.astype(float)
    lo = r // 2
    s_lo, s_hi = _sign_rows(lo), _sign_rows(r - lo)
    q_lo = ((s_lo @ a[:lo, :lo]) * s_lo).sum(axis=1)
    q_hi = ((s_hi @ a[lo:, lo:]) * s_hi).sum(axis=1)
    x_lo = 2 * (s_lo @ a[:lo, lo:])
    step = max(1, SCAN_BLOCK >> (r - lo))
    for b in range(0, len(s_lo), step):
        q = x_lo[b:b + step] @ s_hi.T
        q += q_lo[b:b + step, None]
        q += q_hi
        norm_ok = q == top
        if not norm_ok.any():
            continue
        i, j = np.nonzero(norm_ok)
        signs = np.hstack([s_lo[b + i], s_hi[j]])
        hits.append(signs[(np.abs(signs @ inner.T) == d).all(axis=1)])
    hits = np.concatenate(hits).astype(np.int64)
    return hits[np.lexsort(hits.T)]


def check_extendibility(system):
    """Exhaustively decide whether one more line at the common angle fits.

    Any valid new line w must satisfy <w, b> in {+16, -16} for each member
    b of an independent basis B, so sweeping all 2^rank sign patterns and
    solving the exact Gram system for each is a complete search. The
    ambient space is the span of the system, so a new line lies in it and
    its scaled norm is exactly 80.

    B is every pivot column of greedy_basis, independent over Q, and
    r = len(B) is proved to be the members' rank: B spans every member.
    The projection of a member v onto span(B) is P v = B^T G^-1 B v, and
    v lies in span(B) iff |P v|^2 = |v|^2. Row v of inner (below) is
    d (B v)^T G^-1, so d |P v|^2 is row v of inner times row v of
    gram[:, basis], summed; the identity
    (inner * gram[:, basis]).sum(axis=1) == d * diag(gram), computed in
    Python ints, holds iff every member lies in span(B). It fails only if
    r is below the rank, that is, if PRIMES[-1] divides a minor that
    greedy_basis needed: AssertionError, before any pattern is scanned.

    For a pattern eps = 16 s, s in {+1, -1}^r, the candidate is
    w = B^T G^-1 eps, where G = B B^T is invertible, the rows of B being
    independent: G is gram[basis][:, basis], with gram = V V^T the
    members' Gram matrix. exactlin.inverse gives an int64 matrix a and an
    integer d > 0 with G a = d I, verified exactly in int64: a / d = G^-1,
    so a is symmetric. Then d w = B^T a eps, its scaled norm is
    eps^T a eps / d and its scaled inner products with the members V are
    inner @ eps / d, where inner = V B^T a = gram[:, basis] @ a is an
    integer matrix, formed by exactlin.int64_product after its bound
    check. Multiplying by d > 0 and dividing by 16, the norm test
    eps^T G^-1 eps = 80 is 256 s^T a s = 80 d, and the angle test
    V w = +-16 is inner @ s = +-d in every entry. _pattern_scan runs
    these tests exactly, in float64 below 2^52, and returns the sign rows
    s that pass in ascending mask order (s_{r-1} most significant), the
    order of the witnesses. Each is rebuilt as the integer vector
    d w = B^T (a eps), an object-array product of Python ints, and
    re-checked against every member's coordinates by _verify_witness;
    only then is each coordinate x / d of w reported, as an int where d
    divides x and otherwise as a Fraction in lowest terms, so that a
    receiver re-checks the witness in the cheapest exact type.

    The search decides only where exactlin.inverse can reconstruct G^-1
    modulo one prime: every entry, in lowest terms, needs numerator and
    denominator of at most isqrt(p // 2) = 32,767 for every p in PRIMES.
    The basis Gram matrices of S54 and its drop-line systems have d = 576;
    some 9- to 13-member subsystems of the 72 lines reach denominators of
    136,480, and for them inverse raises AssertionError, so the search
    stops without an answer and never gives a wrong one.
    """
    coords, gram = system.coords, system.gram
    basis = greedy_basis(gram)
    r = len(basis)
    a, d = exactlin.inverse(gram[np.ix_(basis, basis)])
    inner = exactlin.int64_product(gram[:, basis], a)     # members x r
    projected = (inner.astype(object) * gram[:, basis]).sum(axis=1)
    outside = np.flatnonzero(projected != d * np.diagonal(gram).astype(object))
    if len(outside):
        raise AssertionError(f"member {outside[0]} is outside the span of the {r}-member "
                             f"basis: {exactlin.PRIMES[-1]} divides a minor")
    witnesses = []
    for signs in _pattern_scan(a, d, inner):
        dw = a.astype(object) @ (SCALED_ANGLE * signs) @ coords[basis]
        _verify_witness(coords, dw, d)
        witnesses.append(tuple(Fraction(x, d) if x % d else x // d for x in dw))
    return ExtendibilityReport(
        extendible=bool(witnesses),
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


def _orbit_levels(perms, n):
    """Level k = 0, 1, 2, ..., each built from level k - 1 only when it is
    asked for: int64 arrays reps, (m, k), whose rows are the k-subsets of
    range(n) lexicographically least among their images under perms, in
    combinations order, and sizes, (m,), how many distinct images each has.

    For a permutation group G these are one subset per G-orbit, and each
    count is the orbit size, so the counts sum to C(n, k). Counting
    distinct images needs no division: a set that is not a group gives a
    wrong total, never a truncated quotient.

    - Masks. A set T is the int64 sum of 2^(n-1-t), t in T, so n <= 63
      (subseidel_scan refuses more).
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
      own R = T'. Each level is built so from the one before, for any
      perms.

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
    bits = np.left_shift(np.int64(1), n - 1 - np.array(list(perms), dtype=np.int64).T)
    own = np.left_shift(np.int64(1), n - 1 - np.arange(n, dtype=np.int64))
    width = max(1, SCAN_BLOCK // bits.shape[1])             # candidates per block
    empty = np.zeros(0, dtype=np.int64)
    reps, sizes = np.zeros((1, 0), dtype=np.int64), np.ones(1, dtype=np.int64)
    while True:
        yield reps, sizes
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
        p, y, sizes = (np.concatenate(part) for part in zip(*blocks))
        reps = np.column_stack([reps[p], y])


def _orbit(perms, removed):
    """The images of one removed-index set under perms, sorted."""
    return sorted({tuple(sorted(p[i] for i in removed)) for p in perms})


def subseidel_scan(s, window, orders, progress=None):
    """Find all principal submatrices of the given orders with fully
    integral spectrum, grouped into switching-equivalence classes.
    ValueError, before the signed group is searched, for an order outside
    1..n, and for n > 63, which the subset masks of _orbit_levels cannot
    hold.

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
      Each row of the (m, k) int64 array reps that _orbit_levels yields
      is lex-least in its orbit (one per orbit, proved there), so it
      decides the whole orbit: a confirmed one contributes every member,
      with its spectrum. Orders run in descending order, so k = n - order
      rises, and level k is built from level k - 1 just before order
      n - k is screened. Hits are sorted by order descending, then in
      combinations order, as a scan of every subset would list them.
      Orbits partition the k-subsets, so subsets_examined, the sum of the
      level's (m,) int64 sizes, must be C(n, k); the certificate checks it.
    - Classes. equivalence_classes lists the hit positions of each
      switching class (up to permutation), in order of first hit. By the
      orbit argument every member of one hit orbit lies in the class of
      its representative, so a single hit orbit is a single class and
      needs no canonical form. Only when two or more orbits hit does the
      M kept from each confirmation get one switching_canonical_form, and
      orbits merge iff their forms are equal, as equal forms mean one class.

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
    - The screen. Each slice of SCREEN_BATCH rows of reps zeroes a mask
      at each row's indices; exactlin.product_chain multiplies v, masked
      by a mask row before and after every product, by each S - lam I,
      lam in L, which applies M - lam I, in float32, reducing modulo P
      every k = product_stride(1, P, w, float32) products, w = n - 1 +
      max |lam| over L (k = 2 for S54: P < 2^11 and w <= 71), exact as
      proved there. The precondition and n <= 63 give w <= 124 < 2^23 / P,
      so k >= 1; a window so wide that k = 0 raises AssertionError first.
    - Survivors are not trusted. Each M, on the nonzero indices of its
      mask row, goes to compute_spectrum, which proves p_L(M) = 0 over
      the integers with one annihilator chain modulo enough primes and
      reads the multiplicities off the chain's traces. A survivor whose
      chain does not vanish (the residue vanished only modulo P, or only
      for this v) has an eigenvalue outside L, so no integral spectrum:
      it adds its orbit size to screened_ambiguous, which counts subsets.

    progress(order, subsets covered) is called after each order's screen
    and confirmation, before classification.
    """
    n = s.n
    outside = sorted(set(orders) - set(range(1, n + 1)))
    if outside:
        raise ValueError(f"orders {outside} are not sub-matrix orders of a {n} x {n} matrix")
    if n > 63:
        raise ValueError(f"{n} points do not fit in int64 subset masks (at most 63)")
    perms = switching_automorphisms(s)
    rng = random.Random(SCREEN_SEED)
    v = np.array([rng.randrange(1, SCREEN_PRIME) for _ in range(n)], dtype=np.float32)
    found = []
    subsets_examined = {}
    representatives = {}
    rejected = 0
    levels = _orbit_levels(perms, n)
    reps, sizes = next(levels)
    for order in sorted(set(orders), reverse=True):
        while reps.shape[1] < n - order:
            reps, sizes = next(levels)
        subsets_examined[order] = int(sizes.sum())
        representatives[order] = len(reps)
        lams = [lam for lam in window if order % 2 or lam % 2]
        factors = [(s.array - lam * np.eye(n)).astype(np.float32) for lam in lams]
        width = n - 1 + max(map(abs, lams), default=0)
        stride = exactlin.product_stride(1, SCREEN_PRIME, width, np.float32)
        if not stride:
            raise AssertionError(f"width {width} leaves no exact float32 screen product")
        for lo in range(0, len(reps), SCREEN_BATCH):
            batch = reps[lo:lo + SCREEN_BATCH]
            mask = np.ones((len(batch), n), dtype=np.float32)
            mask[np.arange(len(batch))[:, None], batch] = 0.0
            for x in exactlin.product_chain(mask * v, factors, SCREEN_PRIME, stride, mask):
                pass                    # the screen reads the last array only
            for i in np.flatnonzero(~x.any(axis=1)):
                sub = s.principal_submatrix(np.flatnonzero(mask[i]))
                claim = seidel.compute_spectrum(sub, lams)
                if claim is not None:
                    found.append((order, batch[i], claim, sub))
                else:
                    rejected += int(sizes[lo + i])
        if progress:
            progress(order, subsets_examined[order])

    forms = [None] * len(found)
    if len(found) > 1:
        forms = [seidel.switching_canonical_form(sub) for *_, sub in found]
    members = []
    for (order, rep, claim, _sub), form in zip(found, forms):
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
