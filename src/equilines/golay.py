"""Extended binary [24,12,8] Golay code: generator assembly and octad enumeration.

build_generator assembles the one bordered-circulant generator; a run
generates its code once with generate_code and gates it once with
validation_gates. Codewords are stored as 24-bit integer masks; bit j
(LSB-first) holds coordinate j+1, so coordinate 1 is bit 0. The
canonical ordering of codewords is lexicographic on the bit string read
coordinate 1 first (coordinate 1 most significant).
"""

from collections import Counter
from dataclasses import dataclass

N_COORDS = 24
N_WORDS = 4096
N_OCTADS = 759

CIRCULANT_FIRST_ROW = (0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1)


class CodeValidationError(ValueError):
    """Generated code violates a structural requirement."""


def mask_from_coords(coords):
    """Bitmask with the given 1-based coordinates set."""
    m = 0
    for c in coords:
        if not 1 <= c <= N_COORDS:
            raise ValueError(f"coordinate {c} out of range")
        m |= 1 << (c - 1)
    return m


def coords_from_mask(mask):
    """Sorted 1-based coordinates of the set bits."""
    return tuple(c for c in range(1, N_COORDS + 1) if mask >> (c - 1) & 1)


# The two octads that filter the line system downstream, as masks.
C1 = mask_from_coords((2, 3, 14, 15, 16, 19, 22, 23))
C2 = mask_from_coords((2, 3, 9, 11, 12, 13, 21, 24))


def weight(mask):
    return mask.bit_count()


@dataclass(frozen=True)
class GolayCode:
    """The full code: generator rows, all 4096 words, and the 759 octads."""

    generator: tuple            # 12 row masks
    words: tuple                # 4096 masks in canonical order
    octads: tuple               # 759 weight-8 masks in canonical order


def build_generator():
    """The bordered-circulant generator [I12 | B] as 12 row masks.

    B is the 12x12 block with B[0] = (0, 1,...,1), first column below the
    corner all ones, and in the lower right the 11x11 circulant whose row
    i is CIRCULANT_FIRST_ROW shifted right by i. The shift is not a
    convention to choose: the left-shift circulant spans a [24,12,8] code
    too, but one without the filter octads C1 and C2, so it fails exactly
    the gates c1_in_code and c2_in_code. validation_gates confirms the code
    of these rows on every run.
    """
    n = len(CIRCULANT_FIRST_ROW)
    b_rows = [(0,) + (1,) * n] + [
        (1,) + tuple(CIRCULANT_FIRST_ROW[(j - i) % n] for j in range(n)) for i in range(n)]
    return tuple(1 << i | sum(bit << 12 + j for j, bit in enumerate(row))
                 for i, row in enumerate(b_rows))


def gf2_rank(row_masks):
    """Rank over GF(2) of a list of bitmask rows."""
    basis = []
    for row in row_masks:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def _span(generator):
    """Every combination of the rows: entry c is the XOR of the rows at the
    set bits of c, built by doubling, one XOR per word."""
    words = [0]
    for row in generator:
        words += [w ^ row for w in words]
    return words


def generate_code(generator):
    """The row span of a systematic generator [I12 | B] and its octads,
    in canonical order. CodeValidationError unless there are 12 rows and
    bits 0-11 of row i are exactly 1 << i.

    Entry c of _span(generator[::-1]) is the XOR of rows 11 - j over the
    set bits j of c, so coordinate i + 1 is set iff bit 11 - i of c is.
    For c < c', the first of coordinates 1-12 where the entries differ is
    that of the highest bit where c and c' differ, set in c' only. So the
    4096 entries are distinct (the rows have rank 12), and ascending c is
    canonical order.
    """
    if [row & 0xFFF for row in generator] != [1 << i for i in range(12)]:
        raise CodeValidationError("generator is not of the form [I12 | B]")
    words = _span(generator[::-1])
    octads = tuple(w for w in words if weight(w) == 8)
    return GolayCode(generator=tuple(generator), words=tuple(words), octads=octads)


def weight_distribution(code):
    return dict(sorted(Counter(weight(w) for w in code.words).items()))


def validation_gates(code):
    """Structural gates that pin down the intended code.

    Returns {gate_name: bool}. All must hold for the correctly assembled
    generator: rank 12, self-duality, minimum weight 8, octad count 759,
    and membership of the two filter octads.
    """
    dist = weight_distribution(code)
    words = set(code.words)
    nonzero_weights = [w for w in dist if w > 0]
    rows = code.generator
    self_dual = all(
        weight(rows[i] & rows[j]) % 2 == 0
        for i in range(12)
        for j in range(i, 12)
    )
    return {
        "rank_12": gf2_rank(rows) == 12,
        "word_count_4096": len(code.words) == N_WORDS,
        "min_weight_8": min(nonzero_weights) == 8,
        "octad_count_759": len(code.octads) == N_OCTADS,
        "self_dual_generator": self_dual,
        "weight_distribution": dist == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1},
        "c1_in_code": C1 in words,
        "c2_in_code": C2 in words,
    }


def octads_through(code, coordinate):
    """All octads containing the given 1-based coordinate, canonical order."""
    if not 1 <= coordinate <= N_COORDS:
        raise ValueError(f"coordinate {coordinate} out of range")
    bit = 1 << (coordinate - 1)
    return [d for d in code.octads if d & bit]
