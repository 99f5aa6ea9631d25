import dataclasses
import random

import pytest

from equilines import cli, golay


def row_bits(mask, lo, hi):
    return [mask >> j & 1 for j in range(lo, hi)]


def test_generator_shape_and_row_weights():
    gen = golay.build_generator()
    assert len(gen) == 12
    assert all(g < (1 << 24) for g in gen)
    assert all(golay.weight(g) >= 8 for g in gen)


def test_circulant_rows_are_right_shifts():
    gen = golay.build_generator()
    first = row_bits(gen[1], 13, 24)
    assert tuple(first) == golay.CIRCULANT_FIRST_ROW
    for i in range(2, 12):
        shifted = [first[(j - (i - 1)) % 11] for j in range(11)]
        assert row_bits(gen[i], 13, 24) == shifted
    # row 2 of the circulant block is the first row shifted right by one
    assert row_bits(gen[2], 13, 24) == [1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1]


def test_weight_distribution(code):
    assert golay.weight_distribution(code) == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert len(code.words) == 4096
    assert len(code.octads) == 759


def test_weight_enumerator_symmetric(code):
    dist = golay.weight_distribution(code)
    for w, count in dist.items():
        assert dist[24 - w] == count


def test_zero_word_present(code):
    assert code.words[0] == 0


def test_validation_gates_all_pass(code):
    assert all(golay.validation_gates(code).values())


def test_c1_c2_membership_and_symmetric_difference(code):
    c1, c2 = golay.C1, golay.C2
    words = set(code.words)
    assert c1 in words
    assert c2 in words
    diff = c1 ^ c2
    assert golay.weight(diff) == 12
    assert diff in words


@pytest.mark.parametrize("gate, octad", [("c1_in_code", golay.C1), ("c2_in_code", golay.C2)],
                         ids=["C1", "C2"])
def test_each_filter_octad_gate_reads_its_own_octad(code, gate, octad):
    # the code's words less one filter octad fail that octad's gate alone
    words = tuple(w for w in code.words if w != octad)
    gates = golay.validation_gates(dataclasses.replace(code, words=words))
    assert gates[gate] is False
    assert gates["c1_in_code"] is not gates["c2_in_code"]


def test_closure_under_symmetric_difference_sampled(code):
    rng = random.Random(7)
    words, members = code.words, set(code.words)
    for _ in range(2000):
        a, b = rng.choice(words), rng.choice(words)
        assert a ^ b in members


def test_pairwise_even_intersections_sampled(code):
    rng = random.Random(11)
    words = code.words
    for _ in range(2000):
        a, b = rng.choice(words), rng.choice(words)
        assert golay.weight(a & b) % 2 == 0


def test_octad_pairwise_intersections(code):
    octads = code.octads
    for i, a in enumerate(octads):
        for b in octads[i + 1:]:
            assert golay.weight(a & b) in (0, 2, 4)


def test_every_coordinate_in_253_octads(code):
    for c in range(1, 25):
        through = golay.octads_through(code, c)
        assert len(through) == 253
        assert all(golay.weight(d) == 8 and d >> (c - 1) & 1 for d in through)


def test_every_pair_of_coordinates_in_77_octads(code):
    for a in range(1, 25):
        bit_a = 1 << (a - 1)
        for b in range(a + 1, 25):
            bit_b = 1 << (b - 1)
            count = sum(1 for d in code.octads if d & bit_a and d & bit_b)
            assert count == 77


def test_octads_through_rejects_bad_coordinate(code):
    with pytest.raises(ValueError):
        golay.octads_through(code, 0)
    with pytest.raises(ValueError):
        golay.octads_through(code, 25)


def test_generation_deterministic(code):
    again = golay.generate_code(golay.build_generator())
    assert again.words == code.words
    assert again.octads == code.octads


def test_pipeline_returns_the_gates_it_validated(code):
    again, gates = cli.Pipeline(cli.RunConfig()).gated_code
    assert again.words == code.words
    assert gates == golay.validation_gates(again) and all(gates.values())


def test_build_generator_generates_no_code(monkeypatch, code):
    def fail(*args):
        raise RuntimeError("code generated")
    monkeypatch.setattr(golay, "generate_code", fail)
    monkeypatch.setattr(golay, "validation_gates", fail)
    assert golay.build_generator() == code.generator


def test_left_shift_circulant_fails_only_the_filter_octads(code):
    # the same bordered circulant with each row of the 11x11 block shifted
    # left instead of right: a [24,12,8] code without the octads C1 and C2
    first, n = golay.CIRCULANT_FIRST_ROW, len(golay.CIRCULANT_FIRST_ROW)
    rows = [code.generator[0]] + [
        1 << i | 1 << 12 | sum(first[(j + i - 1) % n] << 13 + j for j in range(n))
        for i in range(1, 12)]
    assert rows[1] == code.generator[1] and rows[2] != code.generator[2]
    gates = golay.validation_gates(golay.generate_code(rows))
    assert {name for name, ok in gates.items() if not ok} == {"c1_in_code", "c2_in_code"}


NOT_SYSTEMATIC = r"not of the form \[I12 \| B\]"


def test_rank_deficient_generator_rejected(code):
    rows = list(code.generator)
    rows[11] = rows[0] ^ rows[1]
    with pytest.raises(golay.CodeValidationError, match=NOT_SYSTEMATIC):
        golay.generate_code(rows)


def test_permuted_rows_rejected(code):
    # the same span, listed in another order than canonical
    rows = [code.generator[1], code.generator[0], *code.generator[2:]]
    with pytest.raises(golay.CodeValidationError, match=NOT_SYSTEMATIC):
        golay.generate_code(rows)


def test_flipped_identity_bit_rejected(code):
    rows = list(code.generator)
    rows[5] ^= 1 << 5
    with pytest.raises(golay.CodeValidationError, match=NOT_SYSTEMATIC):
        golay.generate_code(rows)


def test_every_single_bit_flip_of_the_generator_rejected(code):
    # 12 rows x 24 bits: a flip in bits 0-11 breaks the identity block, and
    # one in B spans another code, which fails a gate
    refused = 0
    for row in range(12):
        for bit in range(golay.N_COORDS):
            rows = list(code.generator)
            rows[row] ^= 1 << bit
            try:
                gates = golay.validation_gates(golay.generate_code(rows))
            except golay.CodeValidationError:
                assert bit < 12
                refused += 1
            else:
                assert bit >= 12
                refused += not all(gates.values())
    assert refused == 288


def reference_lex_key(mask):
    """Coordinate 1 as the most significant bit, one coordinate per step:
    the canonical order's sort key, an oracle for generate_code's order."""
    key = 0
    for c in range(golay.N_COORDS):
        key = (key << 1) | (mask >> c & 1)
    return key


def test_canonical_order_is_lexicographic(code):
    keys = [reference_lex_key(w) for w in code.words]
    assert keys == sorted(keys)


def reference_span(generator):
    """Word c is the XOR of the rows at the set bits of c, decoded bit by
    bit: the oracle for the doubling _span."""
    words = []
    for comb in range(1 << len(generator)):
        w, g, i = 0, comb, 0
        while g:
            if g & 1:
                w ^= generator[i]
            g >>= 1
            i += 1
        words.append(w)
    return words


def random_systematic_generators(count, seed):
    """count generators [I12 | B] with B uniformly random."""
    rng = random.Random(seed)
    return [tuple(1 << i | rng.getrandbits(12) << 12 for i in range(12)) for _ in range(count)]


def test_span_and_sort_match_reference_loops(code):
    # the span in generate_code's order is the span sorted by the oracle key
    generators = [code.generator] + random_systematic_generators(50, 5)
    for generator in generators:
        span = golay._span(generator)
        assert span == reference_span(generator)
        words = tuple(sorted(set(span), key=reference_lex_key))
        assert golay.generate_code(generator).words == words
