"""Lift octads to scaled line vectors and carve out the 72- and 54-line systems.

All geometry is done in scaled integers: a unit vector of the system is
(scaled coords)/sqrt(80), so squared norms are 80 and the common angle
1/5 shows up as pairwise inner products of exactly +/-16. A line
system's coordinates are one read-only int64 array (LineSystem.coords),
bounded once so that its Gram matrix cannot wrap; every inner product,
rank and angle check is read off the two, and first_defect words the
one way a Gram matrix can fail to be equiangular.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exactlin
from .certificate import CertificateBuilder
from .golay import C1, C2, N_COORDS, coords_from_mask, weight

SCALED_NORM = 80
SCALED_ANGLE = 16
GRAM_COORD_BOUND = 1 << 29      # largest |coordinate| LineSystem.coords accepts

# The separating vector m, coordinate 1 first. final_system and
# verify_remark pair it with coordinates in int64, which |M_i| <= 3 keeps exact.
M = (0, 0, 0, 2, -1, -1, 2, -1, 0, -1, 0, 0, 0, 0, 0, 0, 2, -1, 0, -1, 0, -3, 3, 0)


class ConstructionError(RuntimeError):
    """A construction-stage count, rank, or identity check failed."""


@dataclass(frozen=True)
class LineVector:
    """Scaled representative 4d - 4*e1 - e_all of the line lifted from octad d."""

    coords: tuple               # 24 integers
    source: int                 # octad bitmask


@dataclass(frozen=True)
class LineSystem:
    vectors: tuple              # LineVector, canonical octad order
    ambient_dim: int = None     # rank of the span, as _system_from proved it; else None

    def __len__(self):
        return len(self.vectors)

    @cached_property
    def coords(self):
        """The members' coordinates, one read-only (members, 24) int64 array;
        ValueError for a coordinate beyond 2^29 in absolute value. Every
        entry of coords @ coords.T, and every partial sum of one, is then at
        most 24 * 2^58 < 2^63 in absolute value, so int64 cannot wrap.
        """
        v = np.array([u.coords for u in self.vectors], dtype=object).reshape(len(self), N_COORDS)
        if (abs(v) > GRAM_COORD_BOUND).any():
            raise ValueError("a coordinate beyond 2^29, the int64 Gram bound")
        v = v.astype(np.int64)
        v.flags.writeable = False
        return v

    @cached_property
    def gram(self):
        """The int64 Gram matrix V V^T of the members, computed once, read-only."""
        gram = self.coords @ self.coords.T
        gram.flags.writeable = False
        return gram


def lift(d):
    """Scaled lift of a codeword mask: 4d - 4*e1 - e_all, as integers."""
    coords = [4 * (d >> j & 1) - 1 for j in range(N_COORDS)]
    coords[0] -= 4
    return LineVector(coords=tuple(coords), source=d)


def _system_from(vectors, expected_count, expected_rank):
    if len(vectors) != expected_count:
        raise ConstructionError(f"expected {expected_count} lines, got {len(vectors)}")
    system = LineSystem(vectors=tuple(vectors), ambient_dim=expected_rank)
    r = exactlin.rank(system.coords)
    if r != expected_rank:
        raise ConstructionError(f"expected span of rank {expected_rank}, got {r}")
    return system


def asche_system(code):
    """The 72-line system: octads through coordinate 1 passing the four filters.

    Each filter condition is evaluated both as a bit/intersection test and
    as the literal inner-product-zero condition on the lifted vector; the
    two must agree. The orthogonality of every member to 4*e1 + e_all is
    an identity for octads through coordinate 1 and is asserted, never
    filtered on. The inner products are one int64 product of the lifts'
    coords with the five test vectors e1 - e2, e1 - e3, the indicators of
    C1 and C2, and 4*e1 + e_all; every entry is at most 24 * 5 * 5 in
    absolute value.
    """
    lifts = LineSystem(vectors=tuple(lift(d) for d in code.octads if d & 1))
    e, bits = np.eye(N_COORDS, dtype=np.int64), np.arange(N_COORDS)
    tests = np.array([e[0] - e[1], e[0] - e[2], C1 >> bits & 1, C2 >> bits & 1, 4 * e[0] + 1])
    dots = (lifts.coords @ tests.T).tolist()
    picked = []
    for v, row in zip(lifts.vectors, dots):
        d = v.source
        bit_tests = (
            not d & 0b010,
            not d & 0b100,
            weight(d & C1) == 2,
            weight(d & C2) == 2,
        )
        if bit_tests != tuple(x == 0 for x in row[:4]):
            raise ConstructionError(
                f"filter reformulation mismatch on octad {coords_from_mask(d)}"
            )
        if row[4] != 0:
            raise ConstructionError(
                f"octad through coordinate 1 violates the 4e1+eS identity: "
                f"{coords_from_mask(d)}"
            )
        if all(bit_tests):
            picked.append(v)
    return _system_from(picked, 72, 19)


def final_system(full):
    """The 54-line subsystem: members of the 72-line system full that are
    orthogonal to M, checked equiangular (ConstructionError). The
    pairings are one int64 product: |M_i| <= 3 and LineSystem.coords
    bounds every coordinate by 2^29, so each is below 24 * 3 * 2^29 <
    2^37 in absolute value."""
    orthogonal = (full.coords @ np.array(M, dtype=np.int64) == 0).tolist()
    system = _system_from([v for v, ok in zip(full.vectors, orthogonal) if ok], 54, 18)
    defect = first_defect(system.gram)
    if defect is not None:
        raise ConstructionError(defect)
    return system


def first_defect(gram):
    """Where gram is not equiangular, in words, or None: the first (i, j),
    i <= j, row by row, with a diagonal entry other than SCALED_NORM or an
    off-diagonal one other than +/-SCALED_ANGLE."""
    bad = np.abs(gram) != SCALED_ANGLE
    np.fill_diagonal(bad, np.diagonal(gram) != SCALED_NORM)
    found = np.argwhere(np.triu(bad))
    if not len(found):
        return None
    i, j = found[0].tolist()
    if i == j:
        return f"scaled norm {int(gram[i, i])} of member {i}, not {SCALED_NORM}"
    return f"scaled inner product {int(gram[i, j])} between members {i},{j}"


def removed_indices(full, final):
    """Indices of the members of the 72-system that are not in the 54-system."""
    final_sources = {v.source for v in final.vectors}
    return [i for i, v in enumerate(full.vectors) if v.source not in final_sources]


def verify_remark(full, final):
    """Certify the structure of the 18 removed lines.

    They split 9/9 by the sign of the M-pairing (scaled values +/-24,
    i.e. 6/sqrt(5) on unit vectors), each 9-set is a clique at cosine
    +1/5, and every member of one clique has exactly two partners at
    +1/5 in the other. The pairings are int64 products of the members'
    coordinates with M: |M_i| <= 3 and LineSystem.coords bounds every
    coordinate by 2^29, so each is below 24 * 3 * 2^29 < 2^37 in
    absolute value. The clique and cross inner products are blocks of
    full.gram.
    """
    b = CertificateBuilder(
        "remark.cliques",
        {"full": [v.source for v in full.vectors], "final": [v.source for v in final.vectors]},
    )
    removed = removed_indices(full, final)
    b.check("removed_count_18", len(removed) == 18, len(removed))

    m = np.array(M, dtype=np.int64)
    pairings = (full.coords[removed] @ m).tolist()
    b.check("m_pairings_pm24", all(p in (24, -24) for p in pairings), sorted(set(pairings)))
    b.check("final_orthogonal_to_m", not (final.coords @ m).any())

    side_u = [i for i, p in zip(removed, pairings) if p > 0]
    side_v = [i for i, p in zip(removed, pairings) if p < 0]
    b.check("split_9_9", (len(side_u), len(side_v)) == (9, 9), (len(side_u), len(side_v)))
    b.note("clique_u_octads", [coords_from_mask(full.vectors[i].source) for i in side_u])
    b.note("clique_v_octads", [coords_from_mask(full.vectors[i].source) for i in side_v])

    gram = full.gram
    for name, clique in (("u", side_u), ("v", side_v)):
        off = np.triu(gram[np.ix_(clique, clique)] != SCALED_ANGLE, 1)
        bad = [tuple(pair) for pair in np.argwhere(off).tolist()]
        b.check(f"intra_{name}_all_plus", not bad, bad[:3])

    plus = gram[np.ix_(side_u, side_v)] == SCALED_ANGLE
    row_counts, col_counts = plus.sum(axis=1).tolist(), plus.sum(axis=0).tolist()
    b.check("each_u_two_plus_partners", all(c == 2 for c in row_counts), row_counts)
    b.check("each_v_two_plus_partners", all(c == 2 for c in col_counts), col_counts)
    return b.build()
