"""Exhaustive searches: non-extendibility and the integral-spectrum sub-scan.

The extendibility search is range-partitioned for parallel execution by
_range_map; chunk results are merged in a fixed order so the report never
depends on worker count. The sub-scan runs in one process: it examines one
removed-index set per orbit of the automorphism group, screens each with
an exact annihilator test modulo a prime, and confirms every survivor with
exact nullities. Neither search decides anything by floating point.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress, islice
from multiprocessing import Pool

import numpy as np

from . import exactlin, seidel
from .construct import SCALED_ANGLE, SCALED_NORM

SCREEN_PRIME = 1_048_573        # prime, below 2^20
SCREEN_SEED = 54                # fixes the screen vector v
SCREEN_BATCH = 128              # subsets per batch; small keeps memory flat


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
    equivalence_classes: dict    # canonical form -> list of hit positions
    subsets_examined: dict       # order -> subsets covered by the orbits
    orbit_representatives: dict  # order -> removed-index sets examined
    screened_ambiguous: int = 0  # subsets whose orbit passed the screen, failed confirmation


def _range_map(fn, total, jobs, *args):
    """[fn((lo, hi, *args)) for consecutive slices [lo, hi) of range(total)],
    one slice per job, in slice order; a Pool runs them when jobs > 1."""
    jobs = max(jobs, 1)
    bounds = [total * i // jobs for i in range(jobs + 1)]
    tasks = [(lo, hi, *args) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if jobs > 1 and len(tasks) > 1:
        with Pool(jobs) as pool:
            return pool.map(fn, tasks)
    return [fn(t) for t in tasks]


def greedy_basis(rows, target_rank):
    """First linearly independent subset of the rows, in given order."""
    chosen = []
    for i, row in enumerate(rows):
        if exactlin.rank([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
            if len(chosen) == target_rank:
                return chosen
    raise ValueError(f"rows span rank {len(chosen)} < {target_rank}")


def _gray_flip_bit(k):
    """Bit flipped when stepping from Gray code of k-1 to Gray code of k."""
    return (k & -k).bit_length() - 1


def _gray_signs(index, r):
    g = index ^ (index >> 1)
    return [SCALED_ANGLE if g >> j & 1 else -SCALED_ANGLE for j in range(r)]


def _extend_scan_range(args):
    """Scan sign-pattern indices [lo, hi) over the basis.

    adjugate is det * Gram(B)^-1, inner is V * B^T * adjugate, so for a
    pattern eps the candidate's scaled norm is eps^T adjugate eps / det
    and its scaled inner products with all members are inner @ eps / det.
    """
    lo, hi, r, det, adjugate, inner, allow_slack = args
    eps = _gray_signs(lo, r)
    z = [sum(adjugate[i][j] * eps[j] for j in range(r)) for i in range(r)]
    norm_target = SCALED_NORM * det
    hits = []
    k = lo
    while k < hi:
        norm_num = sum(e * zi for e, zi in zip(eps, z))
        if norm_num == norm_target or (allow_slack and 0 < norm_num <= norm_target):
            prods = [sum(row[j] * eps[j] for j in range(r)) for row in inner]
            target = SCALED_ANGLE * det
            if all(p == target or p == -target for p in prods):
                hits.append((k, tuple(eps)))
        k += 1
        if k < hi:
            b = _gray_flip_bit(k)
            delta = -2 * eps[b]
            eps[b] += delta
            for i in range(r):
                z[i] += delta * adjugate[i][b]
    return hits


def check_extendibility(system, ambient_dim=None, jobs=1, progress=None):
    """Exhaustively decide whether one more line at the common angle fits.

    Any valid new line w must satisfy <w, b> in {+16, -16} for each member
    b of an independent basis B, so sweeping all 2^rank sign patterns and
    solving the exact Gram system for each is a complete search. With
    ambient_dim equal to the span rank (the default) the candidate's
    scaled norm must be exactly 80; with ambient_dim above the rank a
    norm deficit can be absorbed by an orthogonal component, so any
    pattern with norm at most 80 extends.
    """
    rows = system.matrix()
    r = system.ambient_dim
    ambient_dim = r if ambient_dim is None else ambient_dim
    if ambient_dim < r:
        raise ValueError("ambient dimension below the span rank")
    allow_slack = ambient_dim > r
    basis = greedy_basis(rows, r)
    bmat = [rows[i] for i in basis]
    gram = exactlin.mat_mul(bmat, exactlin.transpose(bmat))
    det = exactlin.bareiss_det(gram)
    if det <= 0:
        raise AssertionError("basis Gram matrix not positive definite")
    cols = [exactlin.solve_rational(gram, [det * (i == j) for i in range(r)])
            for j in range(r)]
    if any(x.denominator != 1 for col in cols for x in col):
        raise AssertionError("adjugate entry is not an integer")
    adjugate = [[x.numerator for x in row] for row in zip(*cols)]
    # inner[i] @ eps = det * <v_i, candidate>
    lift_mat = exactlin.mat_mul(exactlin.transpose(bmat), adjugate)  # 24 x r
    inner = exactlin.mat_mul(rows, lift_mat)                         # members x r

    total = 1 << r
    chunk_hits = _range_map(_extend_scan_range, total, jobs,
                            r, det, adjugate, inner, allow_slack)
    if progress:
        progress(total)

    witnesses = []
    for hits in chunk_hits:
        for k, eps in hits:
            w = [Fraction(sum(lift_mat[i][j] * eps[j] for j in range(r)), det)
                 for i in range(24)]
            _verify_witness(rows, w, allow_slack)
            witnesses.append(tuple(w))
    return ExtendibilityReport(
        extendible=bool(witnesses),
        witness=witnesses[0] if witnesses else None,
        patterns_examined=total,
        basis_indices=tuple(basis),
        witnesses=witnesses,
    )


def _verify_witness(rows, w, allow_slack):
    norm = sum(x * x for x in w)
    if not (norm == SCALED_NORM or (allow_slack and 0 < norm <= SCALED_NORM)):
        raise AssertionError("witness failed the norm re-check")
    for i, row in enumerate(rows):
        ip = sum(a * b for a, b in zip(row, w))
        if abs(ip) != SCALED_ANGLE:
            raise AssertionError(f"witness not at the common angle with member {i}")
        # parallel would force |ip| = 80; +/-16 already rules it out


def switching_automorphisms(s):
    """The permutation parts of the signed automorphisms of s, as a group:
    the closure of the parts of the verified generators."""
    parts = [tuple(t for t, _ in g)
             for g in seidel.signed_automorphism_group(s).generators]
    return seidel._closure(s.n, parts)


def orbit_representatives(perms, n, k):
    """The k-subsets of range(n) whose bitmask is least among its images
    under perms, in combinations order, and how many distinct images each
    has.

    For a permutation group G these are one subset per G-orbit, and each
    count is the orbit size |G| / |Stab|, so the counts sum to C(n, k).
    Counting distinct images needs no division: a set that is not a group
    gives a wrong total, never a truncated quotient. The subsets are
    streamed in batches of SCREEN_BATCH.
    """
    bits = np.left_shift(np.int64(1), np.array(list(perms), dtype=np.int64).T)
    subsets = combinations(range(n), k)
    reps, sizes = [], []
    while batch := list(islice(subsets, SCREEN_BATCH)):
        idx = np.array(batch, dtype=np.intp).reshape(len(batch), k)
        images = np.zeros((len(batch), bits.shape[1]), dtype=np.int64)
        for j in range(k):                      # row b: the masks of p(K_b)
            images += bits[idx[:, j]]
        least = np.flatnonzero(images.min(axis=1) == (1 << idx).sum(axis=1))
        steps = np.diff(np.sort(images[least], axis=1), axis=1)
        reps.extend(batch[b] for b in least)
        sizes.extend((1 + np.count_nonzero(steps, axis=1)).tolist())
    return reps, sizes


def _orbit(perms, removed):
    """The images of one removed-index set under perms, sorted."""
    return sorted({tuple(sorted(p[i] for i in removed)) for p in perms})


def _screen(factors, v, removed):
    """Which rows of removed, an array of removed-index sets, pass
    p_L(M) v = 0 (mod P). Row b of x is set b's vector, zero off the kept
    indices, so masked x @ (S - lam I) applies M - lam I to each row."""
    mask = np.ones((len(removed), len(v)))
    mask[np.arange(len(removed))[:, None], removed] = 0.0
    x = mask * v
    for factor in factors:
        x = np.mod(x @ factor, SCREEN_PRIME) * mask
    return ~x.any(axis=1)


def subseidel_scan(s, orders=(50, 51, 52, 53), progress=None):
    """Find all principal submatrices of the given orders with fully
    integral spectrum, grouped into switching-equivalence classes.

    Only one removed-index set per orbit of switching_automorphisms(s) is
    screened, confirmed and classified.

    - Orbits. A signed automorphism (pi, d) has S[pi(i), pi(j)] =
      d_i d_j S[i, j]. So the submatrix kept after removing pi(K) is a
      signed permutation conjugate of the one kept after removing K: the
      two have the same spectrum and lie in the same switching class.
      The representative from orbit_representatives therefore decides
      its whole orbit: a confirmed one contributes every member, with
      its spectrum, and one canonical form classifies them all. Hits are
      sorted by order descending, then in combinations order, as a scan
      of every subset would list them. Orbits partition the k-subsets,
      so subsets_examined, the sum of the orbit sizes, must be C(n, k);
      the certificate checks it.

    A submatrix M of order m survives the screen iff p_L(M) v = 0 (mod P),
    where p_L(x) = prod_{lam in L} (x - lam), v is a fixed vector and L is
    seidel.integer_window(s), keeping only its odd members when m is even.

    - No false negatives. M is symmetric, hence diagonalisable, so its
      minimal polynomial is prod (x - lam) over its distinct eigenvalues.
      Cauchy interlacing puts them in [lambda_min(s), lambda_max(s)]; if
      they are integers (odd ones for even m, see parity) they lie in L,
      so the minimal polynomial divides p_L and p_L(M) = 0.
    - Parity. Off-diagonal entries are odd, so M = J - I (mod 2) and
      det(xI - M) = (x - m + 1)(x + 1)^(m-1) = (x + 1)^m (mod 2) for even
      m. An integer root of this monic integer polynomial is therefore a
      root of (x + 1)^m over GF(2), that is, odd.
    - Exact float64. Entries of x lie in [0, P) and those of S - lam I
      are at most max(1, |lam|) <= n - 1 in absolute value, so every
      partial sum of x @ (S - lam I) is an integer below 2nP < 2^53 in
      absolute value: no BLAS summation order can round, and np.mod of
      an exact integer is exact.
    - Survivors are not trusted. Each goes to compute_spectrum with L as
      a proven superset of its integer eigenvalues, whose exact
      nullities must sum to m. A survivor it rejects (the residue vanished
      only modulo P, or only for this v) adds its orbit size to
      screened_ambiguous, so that field counts subsets, as a scan of every
      subset would.

    progress(order, subsets covered) is called after each order's screen
    and confirmation, before classification.
    """
    n = s.n
    perms = switching_automorphisms(s)
    window = seidel.integer_window(s)
    s_float = np.array(s.as_lists(), dtype=float)
    rng = random.Random(SCREEN_SEED)
    v = np.array([rng.randrange(1, SCREEN_PRIME) for _ in range(n)], dtype=float)
    found = []
    subsets_examined = {}
    representatives = {}
    rejected = 0
    for order in sorted(orders, reverse=True):
        k = n - order
        reps, sizes = orbit_representatives(perms, n, k)
        subsets_examined[order] = sum(sizes)
        representatives[order] = len(reps)
        lams = [lam for lam in window if order % 2 or lam % 2]
        factors = [s_float - lam * np.eye(n) for lam in lams]
        for lo in range(0, len(reps), SCREEN_BATCH):
            batch = reps[lo:lo + SCREEN_BATCH]
            passed = _screen(factors, v, np.array(batch, dtype=np.intp).reshape(len(batch), k))
            for removed, size in compress(zip(batch, sizes[lo:lo + SCREEN_BATCH]), passed):
                sub = s.principal_submatrix(i for i in range(n) if i not in removed)
                try:
                    claim = seidel.compute_spectrum(sub, candidates=lams)
                except seidel.IrrationalPartError:
                    claim = None
                if claim is not None and claim.quadratic is None:
                    found.append((order, removed, claim))
                else:
                    rejected += size
        if progress:
            progress(order, subsets_examined[order])

    members = []
    for order, rep, claim in found:
        keep = [i for i in range(n) if i not in rep]
        form = seidel.switching_canonical_form(s.principal_submatrix(keep))
        members.extend((order, removed, claim, form) for removed in _orbit(perms, rep))
    members.sort(key=lambda hit: (-hit[0], hit[1]))
    classes = {}
    for pos, (_order, _removed, _claim, form) in enumerate(members):
        classes.setdefault(form, []).append(pos)
    return SubScanResult(
        hits=[(order, removed, claim) for order, removed, claim, _form in members],
        equivalence_classes=classes,
        subsets_examined=subsets_examined,
        orbit_representatives=representatives,
        screened_ambiguous=rejected,
    )
