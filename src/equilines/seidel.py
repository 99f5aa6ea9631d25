"""Seidel matrices: exact spectra, automorphism groups, switching classes.

A Seidel matrix is symmetric with zero diagonal and +/-1 off-diagonal.
Every graph question goes to one engine, canonical_graph_form: an
individualization-refinement search that returns a graph's canonical
form, a canonical labelling and its whole automorphism group.
Isomorphisms are composed from two labellings. The signed group and the
switching canonical form come from one search over the descendants of S
(switch row v to all +1, drop v), which labels one vertex per orbit of
the signed automorphisms found so far (_switching_search); the
permutation group of S is the part of the signed group with all signs +1.
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
(_descendant).
"""

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
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
    integer (if not empty), symmetric and |S| + I = 1, which is a zero
    diagonal and +/-1 off it. rows, the entries as tuples of Python ints,
    keys == and hash (so the lru_caches) and the spectrum digest."""

    def __init__(self, array):
        a = np.array(array)
        self.n = n = len(a) if a.ndim else 0
        if a.shape != (n, n) or (a.size and not np.issubdtype(a.dtype, np.integer)):
            raise ValueError(f"not a square integer matrix: {a.dtype} of shape {a.shape}")
        if (a != a.T).any() or (np.abs(a) + np.eye(n, dtype=np.int64) != 1).any():
            raise ValueError("not a symmetric +/-1 matrix with zero diagonal")
        self.array = a.astype(np.int64, copy=False)
        self.array.flags.writeable = False

    @classmethod
    def from_rows(cls, rows):
        """From rows of Python ints; numpy would read a bool as 0 or 1."""
        if set(map(type, chain.from_iterable(rows))) - {int}:
            raise ValueError("a Seidel matrix's rows hold Python ints only")
        return cls(np.array(rows) if len(rows) else np.zeros((0, 0), dtype=np.int64))

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


def _annihilator_chain(s, lams, primes, quadratic=None):
    """Whether X = q(S) prod_{lam in lams} (S - lam I) vanishes modulo
    every prime, and tr X_k modulo primes[0] for the partial products X_k
    of q(S) and the first k of lams, k = 0..len(lams). q(x) = x^2 + bx + c
    for quadratic = (b, c), else q = 1.

    One (primes, n, n) float64 array holds X_k modulo every prime, each
    entry in (-p, p) by exactlin.float_mod. X_0 is float_mod of S^2 +
    (b mod p) S + (c mod p) I, whose entries are integers below
    n - 1 + 2p in absolute value. A column of S - lam I has n - 1
    entries +-1 and one -lam, so every partial sum of X_k (S - lam I) is
    an integer below p (n - 1 + |lam|) in absolute value, checked below
    2^52 first (ValueError): no summation order can round, and float_mod
    of it is exact. A trace sums n entries, below n p < 2^52.
    """
    n, p0 = s.n, primes[0]
    norm = n - 1 + max(map(abs, lams), default=0)
    if max(primes) * norm >= 1 << 52:
        raise ValueError(f"column sums up to {norm} overflow the exact float64 chain")
    p = np.array(primes, dtype=float)[:, None, None]
    a = s.array.astype(float)
    x = np.eye(n)[None]
    if quadratic:
        b, c = (np.array([v % prime for prime in primes], dtype=float)[:, None, None]
                for v in quadratic)
        x = exactlin.float_mod(a @ a + b * a + c * x, p)
    traces = [int(np.trace(x[0])) % p0]
    for lam in lams:
        x = exactlin.float_mod(x @ (a - lam * np.eye(n)), p)
        traces.append(int(np.trace(x[0])) % p0)
    return not x.any(), traces


def _chain_primes(n, lams, quadratic=None):
    """The primes that prove the chain of _annihilator_chain vanishes over
    the integers: p0 = PRIMES[-1], then the fewest further PRIMES whose
    product with p0 exceeds the entry bound of _chain_multiplicities,
    (n - 1 + |b| + |c|) prod (n - 1 + |lam|) with quadratic = (b, c), or
    prod (n - 1 + |lam|) without. None if PRIMES is too short for it, or
    if some |lam| puts the chain beyond exact float64.
    """
    if max(exactlin.PRIMES) * (n - 1 + max(map(abs, lams), default=0)) >= 1 << 52:
        return None
    bound = math.prod(n - 1 + abs(lam) for lam in lams)
    if quadratic:
        bound *= n - 1 + abs(quadratic[0]) + abs(quadratic[1])
    primes = [exactlin.PRIMES[-1]]
    for p in exactlin.PRIMES[:-1]:
        if math.prod(primes) > bound:
            break
        primes.append(p)
    return primes if math.prod(primes) > bound else None


def _chain_multiplicities(s, lams, quadratic=None):
    """The multiplicity in S of each of lams, a sorted list of distinct
    integers, if X = q(S) prod_{lam in lams} (S - lam I) = 0 over the
    integers, with q as in _annihilator_chain; None if X != 0, or if
    q(lam) = 0 (mod p0) for some lam, p0 = PRIMES[-1]. AssertionError if
    PRIMES is too short to prove X = 0.

    - Vanishing. The chain modulo p0 decides most cases: a nonzero
      residue means X != 0. Every entry of a product A B is at most max|A|
      times the largest column sum of |B|, n - 1 + |lam| for B = S - lam I.
      S^2 has diagonal n - 1 and off-diagonal entries of at most n - 2,
      so |entries of q(S)| <= n - 1 + |b| + |c|, and |entries of X| is at
      most the bound of _chain_primes. The chain is run again modulo its
      further primes; if it vanishes modulo all of them, every entry is a
      multiple of their product, which exceeds the bound, hence 0. S is
      symmetric, so its minimal polynomial divides q(x) prod (x - lam):
      every eigenvalue of S is in lams or a root of q.
    - Multiplicities. Then t_k = tr X_k = sum_mu q(mu) prod_{i<k} (mu -
      lam_i) over the eigenvalues mu of S, with multiplicity. The roots
      of q add 0, so t_k = sum_j m_j q(lam_j) prod_{i<k} (lam_j - lam_i)
      over the multiplicities m_j of lams in S, and the terms j < k
      vanish: a triangular system with diagonal d_k = q(lam_k)
      prod_{i<k} (lam_k - lam_i). It is solved from k = len - 1 down
      modulo p0. q(lam_k) is not 0 modulo p0 (checked first), and each
      other factor of d_k is nonzero and, by the check in
      _annihilator_chain, below p0 in absolute value, so p0 does not
      divide d_k, and the residues are unique; as 0 <= m_j <= n < p0, the
      residues in [0, p0) are the m_j. That they lie in [0, n] and sum to
      at most n, and to n without q, is asserted.
    """
    n, p0 = s.n, exactlin.PRIMES[-1]
    column = [1] * len(lams)            # column j: q(lam_j) prod_{i<k} (lam_j - lam_i)
    if quadratic:
        b, c = quadratic
        column = [(lam * lam + b * lam + c) % p0 for lam in lams]
        if 0 in column:
            return None
    vanishes, traces = _annihilator_chain(s, lams, (p0,), quadratic)
    if not vanishes:
        return None
    primes = _chain_primes(n, lams, quadratic)
    if primes is None:
        raise AssertionError("PRIMES is too short for the chain's entry bound")
    if len(primes) > 1 and not _annihilator_chain(s, lams, primes[1:], quadratic)[0]:
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


def compute_spectrum(s, candidates):
    """The spectrum of a Seidel matrix whose eigenvalues are all among
    candidates, integers, as a SpectrumClaim with no quadratic; None if
    p_L(S) != 0 for L = candidates, that is, if some eigenvalue is not a
    candidate. _chain_multiplicities proves p_L(S) = 0 and reads the
    multiplicities off the chain's traces.
    """
    lams = sorted(set(candidates))
    mults = _chain_multiplicities(s, lams)
    if mults is None:
        return None
    return SpectrumClaim.make({lam: m for lam, m in zip(lams, mults) if m})


def certify_spectrum(s, claim):
    """Exact check that det(xI - S) = prod (x - v)^m (x^2 + bx + c) over the
    claim's values v, multiplicities m and quadratic (b, c), if any, by the
    exact multiplicities of the values and the two trace identities. Once
    multiplicities_sum_to_n holds, char_poly_matches holds iff every
    nullity_at_<v> and both trace identities do; otherwise its witness
    names the failed premises.

    - Multiplicities. One annihilator chain over the claim's values, after
      q(S) for its quadratic q (_chain_multiplicities), gives the exact
      multiplicity of each value whenever the values and the roots of q
      hold every eigenvalue of S, as for a true claim. Otherwise (the
      chain does not vanish, q(v) = 0 modulo p0 for some value v, or
      _chain_primes finds the chain beyond its exact range) it is
      nullity_at(S, v): S is symmetric, so the nullity at v is the
      multiplicity of v. nullity_at_<v> compares the same number either
      way.
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
    mults = None
    if _chain_primes(n, values, claim.quadratic):
        mults = _chain_multiplicities(s, values, claim.quadratic)
    if mults is None:
        mults = [exactlin.nullity_at(s.array, value) for value in values]
    exact = dict(zip(values, mults))
    premises = [(f"nullity_at_{value}", exact[value] == mult,
                 {"claimed": mult, "exact": exact[value]})
                for value, mult in claim.integer_eigs]
    premises += [("trace_identity", claim.eig_sum() == 0, claim.eig_sum()),
                 ("trace_square_identity", claim.eig_square_sum() == n * (n - 1),
                  claim.eig_square_sum())]
    failed = [name for name, ok, _ in premises if not ok]
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
        rest = splitter
        while rest:
            low = rest & -rest
            rest ^= low
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
            pieces = [cell]
            for bits in slices:
                high = cell & bits
                if high and high != cell:
                    pieces = [q for p in pieces for q in (p & ~bits, p & bits) if q]
            if len(pieces) == 1:
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


def _adjacency_rows(adj):
    """Row v of the graph as a string: character u is '1' iff u ~ v."""
    n = len(adj)
    return [format(a, f"0{n}b")[::-1] for a in adj]


def _adjacency_bits(rows, perm):
    """Upper-triangle adjacency bits of the relabeled graph, as an int:
    bit k is pair k of (0, 1), (0, 2), ..., (1, 2), ... in positions, set
    iff perm[i] ~ perm[j]. rows are _adjacency_rows of the graph; row i of
    the relabeled graph is rows[perm[i]] read in the order perm."""
    if len(perm) < 2:
        return 0
    relabel = itemgetter(*perm)
    upper = "".join("".join(relabel(rows[v]))[i + 1:] for i, v in enumerate(perm))
    return int(upper[::-1], 2)


@dataclass(frozen=True)
class CanonicalLabelling:
    bits: int                    # adjacency bits of the least leaf: the form
    labelling: tuple             # least leaf: position i holds vertex labelling[i]
    automorphisms: tuple         # all of Aut, as tuples of images of 0..n-1


def canonical_graph_form(n, adj):
    """Canonical form, canonical labelling and automorphism group of a graph,
    from one individualization-refinement search with no pruning.

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
    tree of its image, leaf q to leaf phi.q, with equal adjacency bits.
    Hence the least bits are a canonical form, and for the first least
    leaf b the automorphisms are exactly b[i] -> q[i] over the leaves q
    with the least bits: every such map preserves adjacency, and each g in
    Aut arises from the leaf g.b alone (two leaves differ at the position
    where their paths first individualize different vertices).
    """
    best_bits, best_leaves = None, []
    rows = _adjacency_rows(adj)

    def rec(cells, splitters):
        nonlocal best_bits, best_leaves
        cells = _refine(adj, cells, splitters)
        target = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if target is None:
            leaf = tuple(c.bit_length() - 1 for c in cells)
            bits = _adjacency_bits(rows, leaf)
            if best_bits is None or bits < best_bits:
                best_bits, best_leaves = bits, [leaf]
            elif bits == best_bits:
                best_leaves.append(leaf)
            return
        cell = cells[target]
        head, tail = cells[:target], cells[target + 1:]
        rest = cell
        while rest:                     # the vertices of the cell, in increasing order
            single = rest & -rest
            rest ^= single
            rec(head + [single, cell ^ single] + tail, [single])

    root = [(1 << n) - 1] if n else []
    rec(root, root)
    first = best_leaves[0]
    inverse = _inverse(first)
    return CanonicalLabelling(best_bits, first,
                              tuple(_compose(leaf, inverse) for leaf in best_leaves))


def enumerate_isomorphisms(n, adj_src, adj_dst, limit=None):
    """All edge-preserving bijections from one graph onto another: none if
    the canonical forms differ, else phi.g over g in Aut(src), with phi
    taking the canonical labelling of src onto that of dst."""
    src = canonical_graph_form(n, adj_src)
    dst = canonical_graph_form(n, adj_dst)
    if src.bits != dst.bits:
        return []
    phi = _compose(dst.labelling, _inverse(src.labelling))
    return [_compose(phi, g) for g in src.automorphisms[:limit]]


def find_isomorphism(n, adj_src, adj_dst):
    """One isomorphism between two graphs, or None."""
    found = enumerate_isomorphisms(n, adj_src, adj_dst, limit=1)
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


def minimal_generators(n, elements):
    """Greedy generating subset of a permutation group given all elements,
    taken in sorted order."""
    return _greedy_generators(tuple(range(n)), sorted(elements))[0]


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
    elements whose signs are all +1, in their order. It is complete
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
    return AutGroupResult(generators=tuple(minimal_generators(s.n, plain)),
                          elements=tuple(plain))


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


def _orbit_union(vertices, gens):
    """The union of the orbits of vertices under the group generated by
    gens, signed permutations on the 2n points: vertex v goes to the
    vertex of the image of the point (v, +1)."""
    reached, frontier = set(vertices), list(vertices)
    while frontier:
        v = frontier.pop()
        for g in gens:
            u = g[2 * v + 1] >> 1
            if u not in reached:
                reached.add(u)
                frontier.append(u)
    return reached


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
    builds and verifies it). The generators are -I, the extensions of
    Aut(descendant_0), and one extended isomorphism 0 -> w for each
    labelled w whose descendant has descendant_0's form.

    w is skipped if the generators found so far map a labelled u onto it;
    then its descendant has u's form. The generators and the labelled
    vertices change only when a vertex is labelled, so the union of the
    labelled vertices' orbits (_orbit_union) is rebuilt only then. So (a)
    the least form over the labelled vertices is the least over all
    vertices, and (b) every w with descendant_0's form is in the orbit of
    0 under the generators: a labelled one is 0 or got a generator 0 -> w,
    and a skipped one is the image of a labelled u with that form. With the stabilizer of 0 (+/-
    the extensions of Aut(descendant_0)) the generators therefore generate
    the whole group, of order 2 |Aut(descendant_0)| |orbit of 0|.
    """
    n = s.n
    rest0, adj0 = _descendant(s, 0)      # rest0[a] = a + 1
    first = canonical_graph_form(n - 1, adj0)
    gens = [_on_points(range(n), [-1] * n)]
    for g in minimal_generators(n - 1, first.automorphisms):
        gens.append(_extend_to_signed(s, (0, *_compose(rest0, g))))
    labelled = [0]
    best = first.bits
    reached = _orbit_union(labelled, gens)
    for w in range(1, n):
        if w in reached:
            continue
        labelled.append(w)
        rest, adj = _descendant(s, w)
        form = canonical_graph_form(n - 1, adj)
        best = min(best, form.bits)
        if form.bits == first.bits:
            matching = _compose(form.labelling, _inverse(first.labelling))
            gens.append(_extend_to_signed(s, (w, *_compose(rest, matching))))
        reached = _orbit_union(labelled, gens)
    return best, len(first.automorphisms), tuple(gens)


@functools.lru_cache(maxsize=1)
def signed_automorphism_group(s):
    """The group of signed permutation matrices preserving S, with all of
    its elements, as permutations of the 2n points (AutGroupResult).

    Its generators come from _switching_search, which proves that they
    generate the whole group. Each is re-verified, the closure is
    enumerated, and its order is checked by orbit-stabilizer at vertex 0:
    |group| = 2 * |Aut(descendant_0)| * |orbit of 0|, where the image of
    the point (0, +1), m[1], is in the pair of points of vertex m[1] >> 1.
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
    for g in gens:
        if not _signed_preserves(s, g):
            raise AssertionError("signed generator fails to preserve S")
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
