"""Seidel matrices: exact spectra, automorphism groups, switching classes.

A Seidel matrix is symmetric with zero diagonal and +/-1 off-diagonal.
Both spectral callers, certify_spectrum and compute_spectrum, take exact
multiplicities from one source, _multiplicities: one annihilator chain
pass over every prime it needs, or nullities where the chain cannot run;
where it proves an eigenvalue outside a claim, a second chain proves the
claim completed by a guess (_completion), or, failing that, nullities.
Every graph question goes to one engine, canonical_graph_form: an
individualization-refinement search, pruned by the automorphisms it
finds (McKay), that returns a graph's canonical form, a canonical
labelling and its whole automorphism group.
Isomorphisms are composed from two labellings. The signed group and the
switching canonical form come from one search over the descendants of S
(switch row v to all +1, drop v), which labels one vertex per orbit of
the signed automorphisms found so far, extended from the labelled
descendants' automorphisms and isomorphisms (_switching_search), and
visits one vertex of each class of a switching invariant first: on S54
it labels 3 descendants, refining 14 partitions and reading 9 leaves.
The permutation group of S is the part of the signed group with all
signs +1.
A signed permutation is a permutation of 2n points, (i, s) being the
point 2i + (s > 0), so the signed and the plain groups share one
composition (_compose) and one closure (_greedy_generators, which takes
generators greedily and yields the group they generate).
Refinement is McKay's splitter queue (_refine) on cells held as vertex
bitmasks, the representation of nauty and Traces: each splitter's
neighbour counts are bit-sliced, one int per bit of the count, and a
cell splits by masking it against the slices, with no loop over its
vertices. canonical_graph_form proves that refinement yields the
coarsest equitable partition, in an order that commutes with
relabelling. A descendant's adjacency masks are packed from S's array
(_descendant), and a leaf's form from the graph's boolean matrix
(_leaf_bits), both with np.packbits.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from . import construct, exactlin
from .certificate import CertificateBuilder


class NotEquiangularError(ValueError):
    """Input line system is not at the expected scaled angle."""


class SpectrumNotCertifiedError(ValueError):
    """A spectrum claim that facts are read from failed its certificate."""


class SeidelMatrix:
    """One read-only (n, n) int64 array, copied and checked once: square,
    integer (if not empty; no bool in rows), symmetric and |S| + I = 1,
    which is a zero diagonal and +/-1 off it. rows, the entries as tuples
    of Python ints, keys == and hash (so the lru_caches) and the spectrum
    digest."""

    def __init__(self, array):
        a = np.array(array)
        self.n = n = len(a) if a.ndim else 0
        if a.shape != (n, n) or (a.size and not np.issubdtype(a.dtype, np.integer)):
            raise ValueError(f"not a square integer matrix: {a.dtype} of shape {a.shape}")
        if not isinstance(array, np.ndarray) and {bool, np.bool_} & set(map(type, chain(*array))):
            raise ValueError("a bool is not a Seidel matrix entry")
        if (a != a.T).any() or (np.abs(a) + np.eye(n, dtype=np.int64) != 1).any():
            raise ValueError("not a symmetric +/-1 matrix with zero diagonal")
        self.array = a.astype(np.int64, copy=False)
        self.array.flags.writeable = False

    @functools.cached_property
    def rows(self):
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other):
        return isinstance(other, SeidelMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def principal_submatrix(self, keep):
        """Rows and columns keep; a repeated index puts 0 off the diagonal."""
        keep = list(keep)
        return SeidelMatrix(self.array[np.ix_(keep, keep)])


@dataclass(frozen=True)
class SpectrumClaim:
    """Integer eigenvalues with multiplicities, plus at most one monic
    integer quadratic x^2 + b*x + c contributing two irrational eigenvalues."""

    integer_eigs: tuple          # ((value, multiplicity), ...) sorted by value
    quadratic: tuple = None      # (b, c) or None

    def __post_init__(self):         # certify_spectrum relies on distinct values
        if [v for v, _ in self.integer_eigs] != sorted({v for v, _ in self.integer_eigs}):
            raise ValueError("integer eigenvalues must be distinct and sorted")

    @classmethod
    def make(cls, eigs, quadratic=None):
        items = tuple(sorted((int(v), int(m)) for v, m in dict(eigs).items()))
        return cls(integer_eigs=items, quadratic=tuple(quadratic) if quadratic else None)

    @property
    def total_multiplicity(self):
        return sum(m for _, m in self.integer_eigs) + (2 if self.quadratic else 0)

    def eig_sum(self):
        s = sum(v * m for v, m in self.integer_eigs)
        if self.quadratic:
            s -= self.quadratic[0]
        return s

    def eig_square_sum(self):
        s = sum(v * v * m for v, m in self.integer_eigs)
        if self.quadratic:
            b, c = self.quadratic
            s += b * b - 2 * c
        return s

    def integer_window(self):
        """range(lo, hi + 1) holding every integer in [lambda_min,
        lambda_max] of a matrix with this spectrum.

        The extremes are integer values or roots (-b +- sqrt(d)) / 2 of
        the quadratic, d = b^2 - 4c. For real x, floor(x / 2) =
        floor(floor(x) / 2), so with r = isqrt(d) = floor(sqrt(d)) the
        greater root has floor (r - b) // 2 and the smaller root, the
        negative of (b + sqrt(d)) / 2, has ceiling -((b + r) // 2).
        ValueError if d < 0: the roots are not real. (A certified claim
        has d = (mu1 - mu2)^2 >= 0 for the two real eigenvalues with its
        sum and product.)
        """
        values = [v for v, _ in self.integer_eigs]
        if self.quadratic:
            b, c = self.quadratic
            d = b * b - 4 * c
            if d < 0:
                raise ValueError(f"quadratic x^2 + {b}x + {c} has no real roots")
            r = math.isqrt(d)
            values += [-((b + r) // 2), (r - b) // 2]
        return range(min(values, default=0), max(values, default=-1) + 1)

    def as_dict(self):
        return {
            "integer_eigs": [[v, m] for v, m in self.integer_eigs],
            "quadratic": list(self.quadratic) if self.quadratic else None,
        }


def seidel_from(system):
    """Seidel matrix of an equiangular system at scaled angle 16, norm 80:
    S = (G - 80 I) / 16 for the Gram matrix G, once every entry of G is
    checked, the diagonal included (construct.first_defect)."""
    g = system.gram
    defect = construct.first_defect(g)
    if defect is not None:
        raise NotEquiangularError(defect)
    identity = np.eye(len(g), dtype=np.int64)
    return SeidelMatrix((g - construct.SCALED_NORM * identity) // construct.SCALED_ANGLE)


def _annihilator_chain(s, lams, primes, stride, quadratic=None):
    """Whether X = q(S) prod_{lam in lams} (S - lam I) vanishes modulo
    every prime, and tr X_k modulo primes[0] for the partial products X_k
    of q(S) and the first k of lams, k = 0..len(lams). q(x) = x^2 + bx + c
    for quadratic = (b, c), else q = 1.

    exactlin.product_chain computes X_k modulo every prime at once, one
    float64 lane per prime, reducing every stride products, which must be
    at most product_stride(n, max(primes), w, float64) (n: a trace sums n
    entries), as a column of S - lam I has n - 1 entries +-1 and one -lam:
    w = n - 1 + max |lam|. X_0 = S^2 + bS + cI, with b and c reduced to
    (-p/2, p/2), has integer entries below n - 1 + p/2 < p.
    """
    n, p0 = s.n, primes[0]
    p = np.array(primes, dtype=float)[:, None, None]
    a = s.array.astype(float)
    x = np.eye(n)[None]
    if quadratic:
        b, c = (np.array([(v + q // 2) % q - q // 2 for q in primes], dtype=float)[:, None, None]
                for v in quadratic)
        x = a @ a + b * a + c * x
    traces = []
    for x in exactlin.product_chain(x, [a - lam * np.eye(n) for lam in lams], p, stride):
        traces.append(int(np.trace(x[0])) % p0)
    return not x.any(), traces


def _multiplicities(s, lams, quadratic=None, *, nullities=True):
    """The exact multiplicity in S of each of lams, a sorted list of
    distinct integers, or None where the chain proves that some eigenvalue
    of S is neither in lams nor a root of q, with q as in
    _annihilator_chain, and, with nullities=False, where it cannot run.
    The one source of multiplicities for both spectral callers,
    certify_spectrum and compute_spectrum.

    - Far values. Every eigenvalue mu of S has |mu| <= n - 1, its largest
      absolute row sum, so each lam with |lam| > n - 1 has multiplicity 0;
      everything below runs on the other values only.
    - Chain or nullities. p0 = PRIMES[-1], the largest prime, then the
      fewest further PRIMES whose product with p0 exceeds the entry bound
      below, prove X = 0; the chain runs once, over all of them, p0 in
      lane 0, reducing every k = product_stride(n, p0, n - 1 + max |lam|,
      float64) products. Where it cannot prove anything (k = 0, PRIMES is
      too short for the bound, or q(lam) = 0 modulo p0 for some lam), the
      multiplicities are exactlin.nullity_at(S, lam): S is symmetric, so
      the nullity at lam is the multiplicity of lam.
    - Vanishing. Every entry of a product A B is at most max|A| times the
      largest column sum of |B|, n - 1 + |lam| for B = S - lam I. S^2 has
      diagonal n - 1 and off-diagonal entries of at most n - 2, so
      |entries of q(S)| <= n - 1 + |b| + |c|, and |entries of X| is at
      most (n - 1 + |b| + |c|) prod (n - 1 + |lam|) with quadratic = (b,
      c), or prod (n - 1 + |lam|) without. A nonzero residue in any lane
      means X != 0: None. If X vanishes modulo every prime, every entry is
      a multiple of their product, which exceeds the bound, hence 0. S is
      symmetric, so its minimal polynomial divides q(x) prod (x - lam):
      every eigenvalue of S is in lams or a root of q.
    - Multiplicities. Then t_k = tr X_k = sum_mu q(mu) prod_{i<k} (mu -
      lam_i) over the eigenvalues mu of S, with multiplicity, read exactly
      modulo p0 (exactlin.product_chain). The roots of q add 0, so t_k =
      sum_j m_j q(lam_j) prod_{i<k} (lam_j - lam_i) over the
      multiplicities m_j of lams in S, and the terms j < k vanish: a
      triangular system with diagonal d_k = q(lam_k) prod_{i<k} (lam_k -
      lam_i). It is solved from k = len - 1 down modulo p0. q(lam_k) is
      not 0 modulo p0, and each other factor of d_k is nonzero and below
      p0 in absolute value: k >= 1 needs p0 max |lam| < 2^52, so
      |lam_k - lam_i| <= 2^22. So p0 does not divide d_k, and the
      residues are unique; as 0 <= m_j <= n < p0, the residues in [0, p0)
      are the m_j. That they lie in [0, n] and sum to at most n, and to n
      without q, is asserted.
    """
    n, p0 = s.n, exactlin.PRIMES[-1]
    near = [lam for lam in lams if abs(lam) < n]
    if len(near) < len(lams):
        mults = _multiplicities(s, near, quadratic, nullities=nullities)
        return None if mults is None else [dict(zip(near, mults)).get(lam, 0) for lam in lams]
    column = [1] * len(lams)            # column j: q(lam_j) prod_{i<k} (lam_j - lam_i)
    bound = math.prod(n - 1 + abs(lam) for lam in lams)
    if quadratic:
        b, c = quadratic
        column = [(lam * lam + b * lam + c) % p0 for lam in lams]
        bound *= n - 1 + abs(b) + abs(c)
    primes = exactlin.PRIMES[-1:] + exactlin.PRIMES[:-1]
    count = next((k for k in range(1, len(primes) + 1) if math.prod(primes[:k]) > bound), 0)
    stride = exactlin.product_stride(n, p0, n - 1 + max(map(abs, lams), default=0), np.float64)
    if not count or not stride or 0 in column:
        return [exactlin.nullity_at(s.array, lam) for lam in lams] if nullities else None
    vanishes, traces = _annihilator_chain(s, lams, primes[:count], stride, quadratic)
    if not vanishes:
        return None
    rows = []
    for lam in lams:
        rows.append(column)
        column = [f * (mu - lam) % p0 for f, mu in zip(column, lams)]
    mults = [0] * len(lams)
    for k in reversed(range(len(lams))):
        rest = traces[k] - sum(f * m for f, m in zip(rows[k][k + 1:], mults[k + 1:]))
        mults[k] = rest * pow(rows[k][k], -1, p0) % p0
    if max(mults, default=0) > n or sum(mults) > n or not quadratic and sum(mults) != n:
        raise AssertionError(f"chain multiplicities {mults} do not sum to {n}")
    return mults


def _completion(s, values, quadratic):
    """A guess (lams, quadratic) at S's spectrum where the chain over a
    claim's sorted distinct values, after its quadratic q (or None), did
    not vanish: the values and the integer roots found, sorted, and a
    quadratic; or None. certify_spectrum's chain proves it or refuses it.

    y = prod (S - vI) w over the values with |v| < n, w_i = 3^i mod p0,
    p0 = PRIMES[-1]: one product_chain (terms 1) gives y, Sy, ..., S^n y
    mod p0, their number doubled until, with them as columns, _echelon's
    reduced form R has the pivots 0..k-1 and not k: then S^k y =
    sum_{i<k} R[i, k] S^i y, so r(x) = x^k - sum R[i, k] x^i is y's
    minimal polynomial mod p0 (Wiedemann). Its roots in [1 - n, n - 1],
    which holds every integer eigenvalue, are divided out; the rest must
    be 1 (q is kept) or a quadratic, lifted to (-p0/2, p0/2) (it replaces
    q). q(S) is left out of y, as no exact product takes it.
    """
    n, p0 = s.n, exactlin.PRIMES[-1]
    near = [v for v in values if abs(v) < n]
    # not 0: at least the stride of the claim's chain, which ran (terms n, same width)
    stride = exactlin.product_stride(1, p0, n - 1 + max(map(abs, near), default=0), np.float64)
    a = s.array.astype(float)
    w = np.array([[pow(3, i, p0) for i in range(n)]], dtype=float)
    vectors = exactlin.product_chain(w, [a - v * np.eye(n) for v in near] + [a] * n, p0, stride)
    krylov, cols, vectors = [], [], islice(vectors, len(near), None)
    while len(cols) == len(krylov):     # independent so far: twice as many vectors
        krylov += islice(vectors, max(1, len(krylov)))
        cols, x = exactlin._echelon(np.concatenate(krylov).T.astype(np.int64), p0)
    r = [1] + [-int(c) % p0 for c in x[:len(cols), len(cols)][::-1]]      # x^k first
    t = np.arange(1 - n, n)
    roots = t[functools.reduce(lambda at, c: (at * t + c) % p0, r, 0) == 0].tolist()
    for root in roots:                  # r / (x - root), by synthetic division
        for i in range(1, len(r)):
            r[i] = (r[i] + root * r[i - 1]) % p0
        r.pop()
    if len(r) == 3:
        quadratic = tuple((c + p0 // 2) % p0 - p0 // 2 for c in r[1:])
    elif len(r) != 1:
        return None
    return sorted(set(values) | set(roots)), quadratic


def compute_spectrum(s, candidates):
    """The spectrum of a Seidel matrix whose eigenvalues are all among
    candidates, integers, as a SpectrumClaim with no quadratic; None if
    some eigenvalue is not a candidate: _multiplicities gives no
    multiplicities, or ones that do not sum to n.
    """
    lams = sorted(set(candidates))
    mults = _multiplicities(s, lams)
    if mults is None or sum(mults) != s.n:
        return None
    return SpectrumClaim.make({lam: m for lam, m in zip(lams, mults) if m})


def certify_spectrum(s, claim):
    """Exact check that det(xI - S) = prod (x - v)^m (x^2 + bx + c) over the
    claim's values v, multiplicities m and quadratic (b, c), if any, by the
    exact multiplicities of the values and the two trace identities. Once
    multiplicities_sum_to_n holds, char_poly_matches holds iff every
    nullity_at_<v> and both trace identities do; otherwise its witness
    maps each failed premise to that premise's own witness (claimed and
    exact multiplicity, or the trace sum).

    - Multiplicities. _multiplicities(S, values, q) gives the exact
      multiplicity of each value: from one annihilator chain over the
      values after q(S) for the claim's quadratic q where it vanishes, as
      for a true claim, and from nullities where the chain cannot run.
      Where the chain proves an eigenvalue outside the values and the
      roots of q, it gives None, and a chain over _completion's guess
      proves them, as for any claim; where it cannot (taking no nullity),
      the multiplicity is nullity_at(S, v): S is symmetric, so the
      nullity at v is the multiplicity of v. Each way gives one number.
    - If the claimed multiplicities equal the exact ones (nullity_at_<v>)
      and sum to n - d (multiplicities_sum_to_n), with d = 2 for a
      quadratic and 0 without, the claim's values (distinct) hold n - d
      eigenvalues, and the d others, mu, avoid them. For d = 0 that is
      the claim.
    - A Seidel matrix has tr S = 0 (zero diagonal) and tr S^2 = sum S_ij^2
      = n(n-1), as matrix_trace_square re-checks. So sum mu = -sum m lam
      and sum mu^2 = n(n-1) - sum m lam^2.
    - For d = 2, trace_identity and trace_square_identity say that the
      roots of x^2 + bx + c have that sum and sum of squares, hence the
      product (sum^2 - sum of squares) / 2 = mu1 mu2. So they are mu1
      and mu2, and det(xI - S) is the polynomial above.

    exactlin.char_poly (interpolation) is not used; the tests compare
    this check against it.
    """
    b = CertificateBuilder(
        "spectrum", {"matrix": s.rows, "claim": claim.as_dict()}
    )
    b.note("claim", claim.as_dict())
    n = s.n
    trace_square = int((s.array * s.array).sum())
    b.note("trace_square", trace_square)
    b.check("matrix_trace_square", trace_square == n * (n - 1), trace_square)
    if not b.check("multiplicities_sum_to_n", claim.total_multiplicity == n,
                   claim.total_multiplicity):
        return b.build()
    if claim.quadratic:
        bq, cq = claim.quadratic
        disc = bq * bq - 4 * cq
        b.check("quadratic_irreducible", disc < 0 or math.isqrt(disc) ** 2 != disc,
                disc)
    values = [value for value, _ in claim.integer_eigs]
    mults = _multiplicities(s, values, claim.quadratic)
    if mults is None and (guess := _completion(s, values, claim.quadratic)):
        proved = _multiplicities(s, *guess, nullities=False)
        mults = None if proved is None else [dict(zip(guess[0], proved))[v] for v in values]
    if mults is None:
        mults = [exactlin.nullity_at(s.array, value) for value in values]
    exact = dict(zip(values, mults))
    premises = [(f"nullity_at_{value}", exact[value] == mult,
                 {"claimed": mult, "exact": exact[value]})
                for value, mult in claim.integer_eigs]
    premises += [("trace_identity", claim.eig_sum() == 0, claim.eig_sum()),
                 ("trace_square_identity", claim.eig_square_sum() == n * (n - 1),
                  claim.eig_square_sum())]
    failed = {name: witness for name, ok, witness in premises if not ok}
    b.check("char_poly_matches", not failed,
            {"failed_premises": failed} if failed else None)
    for premise in premises:
        b.check(*premise)
    return b.build()


# ---------------------------------------------------------------------------
# graph machinery: one individualization-refinement search
# ---------------------------------------------------------------------------

def _refine(adj, cells, splitters):
    """Coarsest equitable refinement of an ordered partition, a list of
    cells held as vertex bitmasks, left unmodified. splitters are cells of
    it such that any refinement stable against them is stable against
    every cell.

    McKay's splitter queue: pop a queued cell C and split every cell, in
    partition order, by its vertices' neighbour counts in C, pieces in
    increasing count order in its place. The pieces join the queue in
    that order: all of them if the cell was queued (its entry is dropped),
    else all but the first largest. Stop when the queue is empty or the
    partition is discrete. A singleton never splits, so only the open
    cells, those of two or more vertices, kept in partition order, are
    tested.

    The counts are bit-sliced: bit v of slices[i] is bit i of the count
    of vertex v. Adding C's vertices u one at a time, each adds adj[u], a
    1 at every neighbour of u, by ripple carry: slice i becomes slice i
    XOR carry, and the carry into slice i + 1 is slice i AND carry, a new
    top slice taking what is left. This is binary addition done for every
    vertex at once, so the slices hold each count exactly. Splitting a
    cell by the slices, most significant first, each piece into its part
    with the bit clear and then its part with the bit set, orders the
    pieces lexicographically by their bits from the top down: by
    increasing count.

    The queue is keyed by mask. A cell that splits leaves the set of
    queued masks, and a partition only refines, so every later cell is a
    proper subset of it: a stale mask never equals a live cell and is
    skipped when popped. canonical_graph_form proves the result and its
    order.
    """
    cells = list(cells)
    open_cells = [c for c in cells if c & (c - 1)]
    queue = deque(splitters)
    queued = set(splitters)
    while queue and open_cells:
        splitter = queue.popleft()
        if splitter not in queued:
            continue                    # a stale mask: its cell has since split
        queued.remove(splitter)
        slices = []
        for low in _singles(splitter):
            carry = adj[low.bit_length() - 1]
            for i, bits in enumerate(slices):
                if not carry:
                    break
                slices[i] = bits ^ carry
                carry &= bits
            if carry:
                slices.append(carry)
        slices.reverse()
        still_open = []
        for cell in open_cells:
            pieces = None
            for bits in slices:
                high = cell & bits
                if high and high != cell:
                    pieces = [q for p in pieces or (cell,) for q in (p & ~bits, p & bits) if q]
            if pieces is None:
                still_open.append(cell)
                continue
            i = cells.index(cell)
            cells[i:i + 1] = pieces
            still_open += [p for p in pieces if p & (p - 1)]
            if cell in queued:
                queued.remove(cell)
            else:
                pieces.remove(max(pieces, key=int.bit_count))
            queue.extend(pieces)
            queued.update(pieces)
        open_cells = still_open
    return cells


def _adjacency_matrix(n, adj):
    """The graph's boolean adjacency matrix, row v unpacked little-endian
    from the mask adj[v]: entry (v, u) is set iff u ~ v."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(a.to_bytes(width, "little") for a in adj), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n,
                         bitorder="little").astype(bool)


def _leaf_bits(matrix, leaf):
    """Upper-triangle adjacency bits of the relabeled graph, as an int:
    bit k is pair k of (0, 1), (0, 2), ..., (1, 2), ... in positions, set
    iff leaf[i] ~ leaf[j]. matrix is _adjacency_matrix of the graph; the
    relabeled matrix's upper triangle, read row by row, is that order,
    and packbits puts pair k at bit k % 8 of byte k // 8."""
    p = np.array(leaf, dtype=np.intp)
    positions = np.arange(len(p))
    upper = matrix[p][:, p][positions[:, None] < positions]
    return int.from_bytes(np.packbits(upper, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class CanonicalLabelling:
    bits: int                    # adjacency bits of the least leaf: the form
    labelling: tuple             # least leaf: position i holds vertex labelling[i]
    automorphisms: tuple         # all of Aut, as tuples of images of 0..n-1
    generators: tuple            # greedy ones among those found, generating Aut


def _singles(mask):
    """The vertices of a cell held as a bitmask, as one-bit masks in
    increasing order."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _root(forest, v):
    """The root of v in a union-find forest of parents, halving its path."""
    while forest[v] != v:
        forest[v] = v = forest[forest[v]]
    return v


def _join(forest, images):
    """Merge the trees of v and images[v] in forest, for every v."""
    for v, u in enumerate(images):
        forest[_root(forest, v)] = _root(forest, u)


def canonical_graph_form(n, adj):
    """Canonical form, canonical labelling and automorphism group of a graph,
    from one individualization-refinement search pruned by the
    automorphisms it finds (McKay, "Practical graph isomorphism", 1981).

    Each node refines its ordered partition, a list of cells held as
    vertex bitmasks, to the coarsest equitable one and branches on every
    vertex of the first non-singleton cell, lowest bit first, so the
    leaves come in lexicographic order of their paths; a discrete leaf is
    a labelling. A cell X is stable against a vertex set C if all
    vertices of X have equally many neighbours in C, and the partition is
    equitable if every cell is stable against every cell. Stability
    passes to subsets of X. _refine (a splitter queue) is right:

    - Its counts are exact and its pieces come in increasing count order
      (the bit slices of _refine), and its mask-keyed queue holds exactly
      the live cells queued and not yet popped: a popped mask whose cell
      has split is skipped, and no mask is made twice. So the queue, the
      order of the pieces and the positions they take depend only on
      neighbour counts, cell positions and sizes, and refining phi(P)
      with splitters phi(Q) gives phi of the refinement of P, cell by
      cell, for any relabelling phi.
    - If X is stable against C and against every piece of C but one, it
      is stable against that one too: its count there is the count in C
      less the others (Hopcroft). So the invariant "a refinement of the
      current partition stable against every queued cell is stable
      against every current cell" survives a pass against C: the
      partition is then stable against C, a split queued cell has all its
      pieces queued, an unqueued one all but one. When the queue is
      empty the partition itself is such a refinement, so it is equitable
      (a discrete one always is).
    - The invariant holds at the start. At the root the whole vertex set
      is queued. A child replaces a cell T of its equitable parent by {v}
      and T - v. Its refinements are stable against every parent cell,
      T included, so those stable against {v} are stable against T - v:
      the child queues only {v}.
    - Every split is forced. By induction every cell, the splitters
      included, is a union of cells of any equitable refinement E of the
      input, and the vertices of an E-cell have equal counts in it, so no
      split divides an E-cell. The result is the coarsest equitable
      refinement, unique as a set of cells.

    Refinement and the choice of cell use adjacency counts and cell
    positions only, so an isomorphism phi maps the tree of a graph onto the
    tree of its image, node with path (v_1, ..) to node (phi v_1, ..), leaf
    q to leaf phi.q, with equal adjacency bits. Hence the least bits over
    the whole tree are a canonical form, and a leaf q with the bits of the
    first leaf z gives the automorphism z[i] -> q[i].

    The search is one depth-first walk in leaf order. Its first path is
    z_0, .., z_m = z, z_{k+1} the child of z_k at its least vertex
    v_{k+1}, so it reaches z first, then the other children of z_k for
    k = m - 1 down to 0, each subtree in leaf order. Two rules prune it.

    - Backjump. Below a child w of z_k, the first leaf with z's bits
      gives g with g(z) below w; g fixes v_1..v_k and maps v_{k+1} to w,
      so it maps the subtree of z_{k+1} onto that of w, and the rest of
      w's subtree is left.
    - Orbits. Every automorphism found so far came from below z_k, so it
      fixes v_1..v_k. A child w in the orbit of an explored child u under
      them (the union-find forest orbit) is skipped: the subtree of w is
      the image of that of u.

    Either way each unvisited leaf is the image of an earlier leaf with
    the same bits, so the least bits and the first leaf that has them
    (labelling) are those of the whole tree. Let A_k, the stabilizer of
    z_k, be the automorphisms fixing v_1..v_k. The ones found below z_k
    reach the orbit of v_{k+1} under A_k: below an explored w in it lies
    g(z) for a g in A_k, so a leaf with z's bits is found there, and a
    skipped w is the image under found ones of an explored child, then
    in the orbit. By induction down from A_m = 1 (z_m is discrete), they
    generate A_k: they hold generators of A_{k+1}, the stabilizer of
    v_{k+1} in A_k, and reach its orbit. So the found automorphisms
    generate Aut = A_0, of order the product over k of the orbit sizes.
    automorphisms is their closure, sorted, generators the greedy subset
    (_greedy_generators); AssertionError unless its order is that product.
    """
    matrix = _adjacency_matrix(n, adj)
    orbit = list(range(n))              # a forest: the orbits of the automorphisms found
    gens = []
    first = best = None                 # (labelling, bits) of the first leaf and of the least
    order = 1

    def search(cells, on_path):
        """Walk the subtree of an equitable partition in leaf order: whether
        it has a leaf with the first leaf's bits, each recorded when found.
        Off the first path the walk stops at the first such leaf."""
        nonlocal first, best, order
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            leaf = tuple(c.bit_length() - 1 for c in cells)
            bits = _leaf_bits(matrix, leaf)
            if on_path:
                first = best = leaf, bits
                return True
            if bits < best[1]:
                best = leaf, bits
            if bits != first[1]:
                return False
            g = _compose(leaf, _inverse(first[0]))
            gens.append(g)
            _join(orbit, g)
            return True
        cell = cells[target]
        explored = []
        for single in _singles(cell):
            w = single.bit_length() - 1
            if on_path and _root(orbit, w) in {_root(orbit, u) for u in explored}:
                continue
            child = cells[:target] + [single, cell ^ single] + cells[target + 1:]
            if search(_refine(adj, child, [single]), on_path and not explored) and not on_path:
                return True
            explored.append(w)
        if on_path:
            r = _root(orbit, explored[0])
            order *= sum(_root(orbit, single.bit_length() - 1) == r for single in _singles(cell))
        return on_path

    cells = [(1 << n) - 1] if n else []
    search(_refine(adj, cells, cells), True)
    generators, group = _greedy_generators(tuple(range(n)), gens)
    if len(group) != order:
        raise AssertionError(
            f"automorphisms found generate {len(group)}, first-path orbits give {order}")
    return CanonicalLabelling(best[1], best[0], tuple(sorted(group)), tuple(generators))


def enumerate_isomorphisms(n, adj_src, adj_dst):
    """All edge-preserving bijections from one graph onto another: none if
    the canonical forms differ, else phi.g over g in Aut(src), with phi
    taking the canonical labelling of src onto that of dst."""
    src = canonical_graph_form(n, adj_src)
    dst = canonical_graph_form(n, adj_dst)
    if src.bits != dst.bits:
        return []
    phi = _compose(dst.labelling, _inverse(src.labelling))
    return [_compose(phi, g) for g in src.automorphisms]


def find_isomorphism(n, adj_src, adj_dst):
    """One isomorphism between two graphs, or None."""
    found = enumerate_isomorphisms(n, adj_src, adj_dst)
    return found[0] if found else None


def _compose(p, q):
    """Apply q, then p: position i holds p[q[i]]."""
    if len(q) < 2:                          # itemgetter of one index returns a scalar
        return tuple(p[i] for i in q)
    return itemgetter(*q)(p)


def _inverse(p):
    """The permutation taking p[i] to i."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _extend(group, gens):
    """Grow group, the set of elements generated by gens[:-1], into the
    group generated by gens, and return it: Dimino's algorithm.

    With H the elements given, the set grows by whole cosets H.r: first
    for r = gens[-1], then for each product r.g of a coset's
    representative r and a g in gens that is not in the set yet. At the
    end it is a union of cosets H.r holding r.g for every r and g, so for
    x = h.r, x.g = h.(r.g) is in it. A finite set with the identity closed
    under right multiplication by gens is the group they generate. Each
    new element costs one product and each coset one per generator:
    |G| + (|G| / |H|) |gens| products in all.
    """
    coset = list(group)
    reps = [gens[-1]]
    group.update(_compose(h, gens[-1]) for h in coset)
    for r in reps:                          # reps grows while it is read
        for g in gens:
            q = _compose(r, g)
            if q not in group:
                reps.append(q)
                group.update(_compose(h, q) for h in coset)
    return group


def _greedy_generators(identity, elements):
    """(gens, group): the generators taken, in the order given, from
    elements that are not yet generated by those taken before, and the
    group they generate, which grows with each. Every element given is in
    the group, so it is also the closure of elements."""
    gens = []
    group = {identity}
    for p in elements:
        if p not in group:
            gens.append(p)
            _extend(group, gens)
    return gens, group


def _on_points(perm, signs):
    """The signed permutation i -> signs[i] perm[i] on the 2n points:
    (i, side) goes to (perm[i], signs[i] side)."""
    return tuple(2 * t + (sign * side > 0) for t, sign in zip(perm, signs) for side in (-1, 1))


def permutation_parts(elements, n):
    """The permutation part of each signed permutation on the 2n points:
    the target of each i is half the image of the point (i, +1)."""
    halves = tuple(x >> 1 for x in range(2 * n))
    return [_compose(halves, m[1::2]) for m in elements]


# the order of the signed elements: m[1::2] is monotone in the (target,
# sign) pairs, as (t, -1) and (t, +1) are the points 2t and 2t + 1
_SIGNED_ORDER = itemgetter(slice(1, None, 2))


def signed_pairs(m):
    """A signed permutation on the 2n points as (target, sign) pairs: column
    i of its matrix has the nonzero entry sign at row target."""
    return tuple((x >> 1, 1 if x & 1 else -1) for x in m[1::2])


def automorphism_order(s):
    """Permutation automorphism group {P : P^T S P = S} of a Seidel matrix,
    read off signed_automorphism_group(s) with no search of its own.

    P preserves S iff the signed matrix (P, all signs +1) does, so the
    group is the permutation parts (permutation_parts) of the signed
    elements whose signs are all +1, in their order, which is ascending:
    the signed elements are sorted by m[1::2], and with every sign +1,
    m[2i + 1] = 2 pi(i) + 1 rises with pi(i). It is complete
    because the signed group is (its order is checked by
    orbit-stabilizer), and it is a subgroup: products and inverses of
    permutation matrices are permutation matrices. The greedy generators
    generate it by construction: an element is taken whenever those taken
    before do not generate it.
    """
    # the targets are a permutation, so sum(g[1::2]) is n(n - 1) plus the
    # number of signs +1
    plain = permutation_parts([g for g in signed_automorphism_group(s).elements
                               if sum(g[1::2]) == s.n * s.n], s.n)
    generators = _greedy_generators(tuple(range(s.n)), plain)[0]
    return AutGroupResult(generators=tuple(generators), elements=tuple(plain))


def _descendant(s, v):
    """Switch row v to all +1, drop v, return the {-1}-graph on the rest
    as (vertex list, adjacency bitmasks over positions): positions a, b
    of vertices x, y are adjacent iff S[x, y] S[v, x] S[v, y] = -1, which
    the zero diagonal excludes for a = b. Row a's mask is its adjacency
    row packed little-endian, bit b for position b."""
    rest = [j for j in range(s.n) if j != v]
    row = s.array[v, rest]
    minus = s.array[np.ix_(rest, rest)] * np.outer(row, row) == -1
    packed = np.packbits(minus, axis=1, bitorder="little")
    return rest, [int.from_bytes(r.tobytes(), "little") for r in packed]


@dataclass(frozen=True)
class AutGroupResult:
    """A group preserving S: permutations P (tuples of the images of
    0..n-1) with P^T S P = S, or signed permutation matrices M with
    M^T S M = S. Column i of M has its nonzero entry sign at row target;
    M is the permutation of the 2n points that takes (i, side) to
    (target, sign side), the point (i, s) being 2i + (s > 0). So m[2i + 1]
    is 2 target + (sign > 0), and m[2i] is m[2i + 1] ^ 1 (signed_pairs
    reads the pairs back). Permutations are sorted as tuples, signed
    ones by m[1::2], which sorts them as tuples of (target, sign) pairs."""

    generators: tuple
    elements: tuple              # the whole group, sorted

    @property
    def order(self):
        return len(self.elements)


def _signed_preserves(s, m):
    """Whether the signed permutation m on the 2n points preserves S:
    S[t_i, t_j] s_i s_j = S[i, j] for every i, j, with (t_i, s_i) the
    image of the point (i, +1), checked as one int64 array comparison."""
    up = np.array(m[1::2], dtype=np.int64)
    t, sign = up >> 1, 2 * (up & 1) - 1
    return bool((s.array[t][:, t] * np.outer(sign, sign) == s.array).all())


def _extend_to_signed(s, perm):
    """Extend a switching automorphism (a permutation for which some +/-1
    diagonal makes it preserve S) to a signed permutation on the 2n points."""
    signs = (s.array[:, 0] * s.array[list(perm), perm[0]]).tolist()
    signs[0] = 1
    m = _on_points(perm, signs)
    if not _signed_preserves(s, m):
        raise AssertionError("claimed switching automorphism does not extend")
    return m


def _class_heads(s):
    """The least vertex of each class of a switching invariant, in
    increasing order, 0 first: v's class is its descendant's degree
    sequence, as a multiset. The degree of u in descendant v is the
    number of x != u, v with S[u, x] S[v, u] S[v, x] = -1; the n - 2
    terms sum to S[u, v] (S^2)[u, v], so it is (n - 2 - S[u, v]
    (S^2)[u, v]) / 2. The classes are therefore those of the rows of the
    symmetric S o S^2 (entrywise) as multisets; every row holds 0 at
    u = v, which sets no two apart. Its entries are integers in
    [-(n - 1), n - 1], as |S^2| <= n - 1, so float64 computes them
    exactly, and np.bincount counts each row's values in its own 2n - 1
    bins."""
    n = s.n
    a = s.array.astype(float)
    width = 2 * n - 1
    bins = (a * (a @ a)).astype(np.int64) + (n - 1) + width * np.arange(n)[:, None]
    counts = np.bincount(bins.ravel(), minlength=n * width).reshape(n, width)
    heads = {}
    for v, row in enumerate(counts):
        heads.setdefault(row.tobytes(), v)
    return list(heads.values())


@functools.lru_cache(maxsize=1)
def _switching_search(s):
    """Canonical labellings of the descendants of S (n >= 1), pruned by the
    switching automorphisms they reveal; read by signed_automorphism_group
    and switching_canonical_form. Returns (least descendant form,
    |Aut(descendant_0)|, generators of the signed group).

    A signed automorphism taking v to w carries the descendant at v
    (_descendant) onto the one at w. Conversely an isomorphism of the
    descendants matches their all-+1 switched rows, so with v -> w it
    extends to a signed automorphism, unique up to sign (_extend_to_signed
    builds and verifies it). The generators are -I, the extensions of the
    generators of Aut(descendant_w) (which fixes w) that its search took
    for every labelled w, and one extended isomorphism 0 -> w for each
    labelled w whose descendant has descendant_0's form. -I preserves
    every S and the others are verified, so all are signed automorphisms.

    The walk visits 0, then the least vertex of each other class of the
    descendants' sorted degree sequences (_class_heads), then every
    vertex in index order. Isomorphic descendants have equal sequences,
    so each orbit lies in one class, and the heads reach every class
    before the rest. The proof below holds for any order that starts at
    0 and visits every vertex: the classes order the walk and decide
    nothing. On S54 they are its three orbits, of 27, 18 and 9 vertices
    with heads 0, 2 and 9, and the generators of those three descendants
    already reach every vertex.

    w is skipped if the generators found so far map a labelled u onto it,
    that is, if w has u's root in the forest of their orbits (each
    generator's vertex map joined by _join, as in canonical_graph_form);
    then its descendant has u's form. So (a) the least form over the
    labelled vertices is the least over all vertices, and (b) every w
    with descendant_0's form is in the orbit of 0 under the generators: a
    labelled one is 0 or got a generator 0 -> w, and a skipped one is the
    image of a labelled u with that form.
    With the stabilizer of 0 (+/- the extensions of Aut(descendant_0))
    the generators therefore generate the whole group, of order
    2 |Aut(descendant_0)| |orbit of 0|. The other descendants' extensions
    only fill the orbits sooner, so fewer vertices are labelled.
    """
    n = s.n
    gens = [_on_points(range(n), [-1] * n)]
    orbit = list(range(n))              # a forest: the orbits of the vertices under gens
    labelled = []

    def add(perm):
        gens.append(_extend_to_signed(s, perm))
        _join(orbit, perm)

    for w in chain(_class_heads(s), range(n)):
        if _root(orbit, w) in {_root(orbit, u) for u in labelled}:
            continue
        labelled.append(w)
        rest, adj = _descendant(s, w)
        form = canonical_graph_form(n - 1, adj)
        for g in form.generators:
            images = _compose(rest, g)
            add((*images[:w], w, *images[w:]))
        if w == 0:
            first = form
        elif form.bits == first.bits:
            add((w, *_compose(rest, _compose(form.labelling, _inverse(first.labelling)))))
        least = form.bits if w == 0 else min(least, form.bits)
    return least, len(first.automorphisms), tuple(gens)


@functools.lru_cache(maxsize=1)
def signed_automorphism_group(s):
    """The group of signed permutation matrices preserving S, with all of
    its elements, as permutations of the 2n points (AutGroupResult).

    Its generators come from _switching_search, which proves that they
    generate the whole group and verifies each (but -I, which preserves
    every S). The closure is enumerated, and its order is checked by
    orbit-stabilizer at vertex 0: |group| = 2 * |Aut(descendant_0)| *
    |orbit of 0|, where the image of the point (0, +1), m[1], is in the
    pair of points of vertex m[1] >> 1.
    The elements are sorted by m[1::2], the greedy generators taken in
    that order: as m[1::2] is monotone in the (target, sign) pairs, both
    are those of the group on the pairs. The result for the
    last (frozen) matrix is cached, and every other group is read off it:
    the permutation group (automorphism_order) and the sub-matrix scan's
    group (search.switching_automorphisms).
    """
    n = s.n
    if n == 0:
        return AutGroupResult(generators=(), elements=((),))
    _, aut0, gens = _switching_search(s)
    identity = tuple(range(2 * n))
    group = _greedy_generators(identity, gens)[1]
    expected = 2 * aut0 * len({g[1] >> 1 for g in group})
    if len(group) != expected:
        raise AssertionError(
            f"signed closure has order {len(group)}, orbit-stabilizer gives {expected}"
        )
    elements = tuple(sorted(group, key=_SIGNED_ORDER))
    return AutGroupResult(generators=tuple(_greedy_generators(identity, elements)[0]),
                          elements=elements)


def switching_canonical_form(s):
    """Canonical invariant of the switching class of a Seidel matrix.

    For each distinguished vertex v, switch so that row v becomes all +1,
    drop v, and canonically label the graph {ij : switched S_ij = -1} on
    the rest; the form is the least of these over v, which
    _switching_search finds from one vertex per orbit. Two Seidel matrices
    are switching-plus-permutation equivalent iff their forms are equal.
    """
    if s.n < 2:
        return f"{s.n}:"
    return f"{s.n}:{_switching_search(s)[0]:x}"


def switch(s, signs):
    """Conjugate by the +/-1 diagonal given by signs; any other sign, clipped
    first so that no int64 product wraps, puts a non-unit off the diagonal."""
    signs = np.clip(signs, -2, 2)
    return SeidelMatrix(s.array * np.outer(signs, signs))


def permute(s, perm):
    """Relabel: entry (i, j) of the result is S[perm[i]][perm[j]];
    ValueError unless perm is a permutation of range(n)."""
    if sorted(perm) != list(range(s.n)):
        raise ValueError(f"perm is not a permutation of range({s.n})")
    return s.principal_submatrix(perm)
