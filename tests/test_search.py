import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest

from equilines import cli, construct, exactlin, search, seidel
from test_exactlin import positive_definite, reference_adjugate, reference_mat_mul, transpose
from test_seidel import nullity_spectrum


def drop_member(system, index):
    kept = [v for i, v in enumerate(system.vectors) if i != index]
    return construct.LineSystem(
        vectors=tuple(kept),
        ambient_dim=exactlin.rank([list(v.coords) for v in kept]),
    )


def test_greedy_basis_is_independent(final54):
    rows = final54.coords.tolist()
    basis = search.greedy_basis(final54.gram, 18)
    assert len(basis) == 18
    assert exactlin.rank([rows[i] for i in basis]) == 18


def incremental_rank_basis(rows, target_rank):
    """Reference for greedy_basis: keep each row that raises the rank."""
    chosen = []
    for i, row in enumerate(rows):
        if exactlin.rank([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
            if len(chosen) == target_rank:
                return chosen
    raise ValueError(f"rows span rank {len(chosen)} < {target_rank}")


@pytest.mark.parametrize("drop", [None, *range(54)])
def test_greedy_basis_matches_incremental_rank(final54, drop):
    system = final54 if drop is None else drop_member(final54, drop)
    rows = system.coords.tolist()
    r = system.ambient_dim
    assert search.greedy_basis(system.gram, r) == incremental_rank_basis(rows, r)
    with pytest.raises(ValueError):
        search.greedy_basis(system.gram, r + 1)


def test_not_extendible(final54):
    report = search.check_extendibility(final54)
    assert not report.extendible
    assert report.witness is None
    assert report.patterns_examined == 1 << 18


def gray_loop_witnesses(system):
    """The witnesses of check_extendibility by the pure-Python reference:
    a Gray-code walk over all 2^r sign patterns eps that keeps
    z = adj @ eps up to date with one column per step and tests each
    pattern on the unreduced adjugate, in increasing Gray index. The basis,
    its Gram matrix and the inner products come from the members'
    coordinates, not from system.gram."""
    rows = system.coords.tolist()
    r = system.ambient_dim
    bmat = [rows[i] for i in incremental_rank_basis(rows, r)]
    det, adj = reference_adjugate(reference_mat_mul(bmat, transpose(bmat)))
    lift = reference_mat_mul(transpose(bmat), adj)
    inner = reference_mat_mul(rows, lift)
    eps = [-16] * r
    z = [sum(adj[i][j] * eps[j] for j in range(r)) for i in range(r)]
    witnesses = []
    for k in range(1 << r):
        if k:
            b = (k & -k).bit_length() - 1      # bit flipped from Gray(k - 1)
            delta = -2 * eps[b]
            eps[b] += delta
            for i in range(r):
                z[i] += delta * adj[i][b]
        norm = sum(e * zi for e, zi in zip(eps, z))
        if norm == 80 * det:
            prods = [sum(row[j] * eps[j] for j in range(r)) for row in inner]
            if all(abs(p) == 16 * det for p in prods):
                witnesses.append(tuple(Fraction(sum(lift[i][j] * eps[j] for j in range(r)), det)
                                       for i in range(24)))
    return witnesses


def test_pattern_scan_matches_gray_loop_oracle(final54):
    # S54 and the drop-line systems of three seeded lines: (system, count)
    cases = ([(final54, 0)]
             + [(drop_member(final54, i), 2) for i in random.Random(5).sample(range(54), 3)])
    for system, count in cases:
        expected = gray_loop_witnesses(system)
        report = search.check_extendibility(system)
        assert report.witnesses == expected
        assert report.patterns_examined == 1 << system.ambient_dim
        assert len(expected) == count


def reference_check_extendibility(system):
    """Oracle for check_extendibility: its steps on rows of Python ints,
    with the basis from incremental_rank_basis and the adjugate from
    reference_adjugate; only the pattern scan is search's own. Returns
    the adjugate of the basis Gram matrix and the report's fields."""
    rows, r = system.coords.tolist(), system.ambient_dim
    basis = incremental_rank_basis(rows, r)
    bmat = [rows[i] for i in basis]
    det, adj = reference_adjugate(reference_mat_mul(bmat, transpose(bmat)))
    g = math.gcd(det, *(x for row in adj for x in row))
    a, d = [[x // g for x in row] for row in adj], det // g
    inner = reference_mat_mul(reference_mat_mul(rows, transpose(bmat)), a)
    witnesses = []
    for pattern in search._pattern_scan(np.array(a, dtype=object), d,
                                        np.array(inner, dtype=object)):
        eps = [16 if pattern >> j & 1 else -16 for j in range(r)]
        a_eps = [sum(x * e for x, e in zip(row, eps)) for row in a]
        dw = [sum(x * y for x, y in zip(col, a_eps)) for col in zip(*bmat)]
        assert sum(x * x for x in dw) == 80 * d * d
        assert all(abs(sum(x * y for x, y in zip(row, dw))) == 16 * d for row in rows)
        witnesses.append(tuple(Fraction(x, d) for x in dw))
    return (det, adj), (tuple(basis), witnesses, 1 << r)


@pytest.fixture(scope="module")
def drop_line_systems(final54):
    return [drop_member(final54, i) for i in range(54)]


def test_check_extendibility_matches_python_int_reference(final54, drop_line_systems):
    # S54 and all 54 drop-line systems: the array adjugate of the basis
    # Gram matrix and every report field against the list-of-rows oracle
    for system in [final54, *drop_line_systems]:
        (det, adj), fields = reference_check_extendibility(system)
        basis = search.greedy_basis(system.gram, system.ambient_dim)
        got_det, got_adj = exactlin.adjugate(system.gram[np.ix_(basis, basis)])
        assert (got_det, got_adj.tolist()) == (det, adj)
        report = search.check_extendibility(system)
        assert (report.basis_indices, report.witnesses, report.patterns_examined) == fields
        assert report.extendible == bool(fields[1]) == (system is not final54)
        assert all(type(x.numerator) is int for w in report.witnesses for x in w)


def test_adjugate_off_by_one_entry_fails_check(final54):
    basis = search.greedy_basis(final54.gram, 18)
    gram = final54.gram[np.ix_(basis, basis)].tolist()
    det, adj = exactlin.adjugate(gram)
    assert det.bit_length() > 64          # the raw adjugate is beyond int64
    exactlin.check_adjugate(gram, det, adj)
    adj[3][11] += 1
    with pytest.raises(AssertionError):
        exactlin.check_adjugate(gram, det, adj)


def test_int64_bound_raises_before_any_scan(monkeypatch):
    # each entry is below 2^62 but s^T a s reaches 4 * 2^61 = 2^63, which
    # wraps; so does a row of inner @ s at 2 * 2^61
    def no_scan(bits):
        raise RuntimeError("scan started")
    monkeypatch.setattr(search, "_sign_rows", no_scan)
    big, half = 1 << 62, 1 << 61
    for a, inner in (([[half, half], [half, half]], [[1, 1]]),
                     ([[1, 0], [0, 1]], [[half, half]])):
        with pytest.raises(AssertionError):
            search._pattern_scan(np.array(a, dtype=object), 5, np.array(inner, dtype=object))
    with pytest.raises(RuntimeError):          # just below the bound it scans
        search._pattern_scan(np.array([[big - 1]], dtype=object), 5,
                             np.array([[1]], dtype=object))


def test_drop_one_control_finds_removed_member(final54):
    index = 7
    removed = final54.vectors[index]
    report = search.check_extendibility(drop_member(final54, index))
    assert report.extendible
    v = tuple(Fraction(x) for x in removed.coords)
    neg = tuple(-x for x in v)
    assert v in report.witnesses or neg in report.witnesses


def test_verify_witness_checks_the_scaled_integer_vector(final54):
    # the removed member, scaled by d = 3, re-checks against the kept ones
    coords = drop_member(final54, 0).coords
    dw = 3 * final54.coords[0].astype(object)
    search._verify_witness(coords, dw, 3)
    bent = dw.copy()
    bent[5] += 1
    for bad_dw, bad_d in ((dw, 1), (bent, 3)):
        with pytest.raises(AssertionError):
            search._verify_witness(coords, bad_dw, bad_d)
    # the removed member itself is parallel, not at the angle: the first
    # of its two copies is named
    own = final54.coords[0]
    with pytest.raises(AssertionError, match="member 10$"):
        search._verify_witness(np.vstack([coords[:10], own, coords[10:], own]), dw, 3)


def test_every_hit_is_rechecked(final54, monkeypatch):
    checked = []
    verify = search._verify_witness

    def recorded(coords, dw, d):
        checked.append(tuple(Fraction(x, d) for x in dw))
        verify(coords, dw, d)
    monkeypatch.setattr(search, "_verify_witness", recorded)
    report = search.check_extendibility(drop_member(final54, 0))
    assert checked == report.witnesses and len(checked) == 2


def test_witnesses_verified_exactly(final54):
    report = search.check_extendibility(drop_member(final54, 0))
    rows = drop_member(final54, 0).coords.tolist()
    for w in report.witnesses:
        assert sum(x * x for x in w) == 80
        for row in rows:
            assert abs(sum(a * b for a, b in zip(row, w))) == 16


def test_subscan_order_53_has_no_hits(s54, s54_window):
    result = search.subseidel_scan(s54, s54_window, orders=(53,))
    assert result.subsets_examined == {53: 54}
    assert result.hits == []
    assert result.equivalence_classes == []


def test_subscan_order_52(s54, s54_window):
    result = search.subseidel_scan(s54, s54_window, orders=(52,))
    assert search.subseidel_scan(s54, s54_window, orders=(52, 52)) == result
    assert result.subsets_examined == {52: math.comb(54, 2)}
    assert len(result.hits) == 9
    expected = seidel.SpectrumClaim.make(
        {-5: 34, 3: 1, 5: 1, 7: 6, 11: 7, 13: 2, 17: 1}
    )
    for order, removed, claim in result.hits:
        assert order == 52
        assert len(removed) == 2
        assert claim == expected
        assert claim.total_multiplicity == 52
    assert result.equivalence_classes == [list(range(9))]


def test_one_hit_orbit_is_classified_without_a_form(s54, s54_window, monkeypatch):
    def no_form(s):
        raise AssertionError("a single hit orbit needs no canonical form")
    monkeypatch.setattr(seidel, "switching_canonical_form", no_form)
    result = search.subseidel_scan(s54, s54_window, orders=(52, 53))
    assert len(result.hits) == 9
    assert result.equivalence_classes == [list(range(9))]


def test_each_order_builds_only_its_own_orbit_level(s54, s54_window, monkeypatch):
    # orders run 53, 52, 51, so level k = 54 - order is the deepest one
    # built when order 54 - k reports
    perms = search.switching_automorphisms(s54)
    expected = [search.orbit_representatives(perms, 54, k) for k in range(4)]
    built = []
    levels = search._orbit_levels

    def recorded(perms, n):
        for level in levels(perms, n):
            built.append(level)
            yield level
    monkeypatch.setattr(search, "_orbit_levels", recorded)
    reported = []

    def progress(order, total):
        assert len(built) - 1 == 54 - order
        reported.append(order)
    result = search.subseidel_scan(s54, s54_window, orders=(51, 52, 53), progress=progress)
    assert reported == [53, 52, 51]
    assert result.orbit_representatives == {51: 279, 52: 25, 53: 3}
    assert built == expected


def screen_all(s, window, order):
    """Every removed-index set of one order that passes the screen, and the
    members L of window used for it."""
    lams = [lam for lam in window if order % 2 or lam % 2]
    factors = [np.array(s.rows, dtype=float) - lam * np.eye(s.n) for lam in lams]
    subsets = list(combinations(range(s.n), s.n - order))
    passed = search._screen(factors, np.arange(1, s.n + 1, dtype=float),
                            np.array(subsets).reshape(len(subsets), -1))
    return [r for r, ok in zip(subsets, passed) if ok], lams


def full_scan(s, window, orders):
    """The screen and exact confirmation run on every removed-index set."""
    hits = []
    for order in sorted(orders, reverse=True):
        survivors, lams = screen_all(s, window, order)
        for removed in survivors:
            sub = s.principal_submatrix(i for i in range(s.n) if i not in removed)
            claim = seidel.compute_spectrum(sub, lams)
            if claim is not None:
                hits.append((order, removed, claim))
    return hits


def mod_screen(factors, v, removed):
    """Oracle for search._screen: np.mod after every product."""
    mask = np.ones((len(removed), len(v)))
    mask[np.arange(len(removed))[:, None], removed] = 0.0
    x = mask * v
    for factor in factors:
        x = np.mod(x @ factor, search.SCREEN_PRIME) * mask
    return ~x.any(axis=1)


def test_screen_matches_np_mod_oracle(s54, s54_window):
    p = search.SCREEN_PRIME
    cases = []
    for s, window, order in ((s54, s54_window, 52), (s54, s54_window, 53),
                             (petersen_seidel(flip=True), None, 8),
                             (petersen_seidel(), None, 6)):
        window = window or integer_window(s)
        lams = [lam for lam in window if order % 2 or lam % 2]
        subsets = list(combinations(range(s.n), s.n - order))
        cases.append((s, lams, np.arange(1, s.n + 1, dtype=float), subsets))
    rng = random.Random(71)
    for _ in range(80):
        n = rng.randint(7, 54)
        rows = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            rows[i][j] = rows[j][i] = rng.choice([1, -1])
        s = seidel.SeidelMatrix.from_rows(rows)
        lams = sorted(rng.sample(range(1 - n, n), rng.randint(1, 12)))
        # v near 0 and near P, so products land near +-multiples of P
        v = np.array([rng.choice([1, 2, p - 1, p - 2, rng.randrange(1, p)])
                      for _ in range(n)], dtype=float)
        k = rng.randint(1, n // 2)
        subsets = [tuple(rng.sample(range(n), k)) for _ in range(rng.randint(1, 300))]
        cases.append((s, lams, v, subsets))
    passed = 0
    for s, lams, v, subsets in cases:
        factors = [np.array(s.rows, dtype=float) - lam * np.eye(s.n) for lam in lams]
        removed = np.array(subsets, dtype=np.intp).reshape(len(subsets), -1)
        expected = mod_screen(factors, v, removed)
        assert (search._screen(factors, v, removed) == expected).all()
        passed += int(expected.sum())
    assert passed > 50


def test_subscan_orbit_scan_agrees_with_full_scan(s54, s54_window):
    result = search.subseidel_scan(s54, s54_window, orders=(52, 53))
    assert result.orbit_representatives == {52: 25, 53: 3}
    assert result.subsets_examined == {52: 1431, 53: 54}
    expected = full_scan(s54, s54_window, (52, 53))
    assert len(expected) == 9
    assert result.hits == expected


def test_orbit_representatives_s54(s54):
    perms = search.switching_automorphisms(s54)
    assert len(perms) == 108
    for k, count in zip((1, 2, 3, 4), (3, 25, 279, 3111)):
        reps, sizes = search.orbit_representatives(perms, 54, k)
        assert len(reps) == len(sizes) == count
        assert reps == sorted(reps)
        assert sum(sizes) == math.comb(54, k)
        assert all(108 % size == 0 for size in sizes)


def least_bitmask_representatives(perms, n, k):
    """Reference for orbit_representatives: image every k-subset under
    perms, in batches, and keep those whose mask (bit i for element i) is
    least among their images, with their number of distinct images."""
    bits = np.left_shift(np.int64(1), np.array(list(perms), dtype=np.int64).T)
    subsets = combinations(range(n), k)
    reps, sizes = [], []
    while batch := list(islice(subsets, 128)):
        idx = np.array(batch, dtype=np.intp).reshape(len(batch), k)
        images = np.zeros((len(batch), bits.shape[1]), dtype=np.int64)
        for j in range(k):
            images += bits[idx[:, j]]
        least = np.flatnonzero(images.min(axis=1) == (1 << idx).sum(axis=1))
        steps = np.diff(np.sort(images[least], axis=1), axis=1)
        reps.extend(batch[b] for b in least)
        sizes.extend((1 + np.count_nonzero(steps, axis=1)).tolist())
    return reps, sizes


def images_of(perms, subset):
    return {tuple(sorted(p[i] for i in subset)) for p in perms}


def random_groups(count, seed, cap=1000):
    """Closures of 1-3 random generators, each moving at most 5 of n <= 10
    points; a closure passing cap elements is dropped and drawn again."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(1, 10)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(n), rng.randint(1, min(n, 5)))
            g = list(range(n))
            for i, j in zip(moved, rng.sample(moved, len(moved))):
                g[i] = j
            gens.append(tuple(g))
        group, frontier = {tuple(range(n))}, [tuple(range(n))]
        while frontier and len(group) <= cap:
            frontier = [p for p in {seidel._compose(h, g) for g in frontier for h in gens}
                        if p not in group]
            group.update(frontier)
        if len(group) <= cap:
            count -= 1
            yield n, group


def group_cases(s54):
    yield 54, search.switching_automorphisms(s54), 4
    for flip in (False, True):
        yield 10, search.switching_automorphisms(petersen_seidel(flip)), 4
    for n, group in random_groups(50, seed=31):
        yield n, group, min(n, 5)


def test_orbit_representatives_match_least_bitmask_oracle(s54):
    for n, perms, top in group_cases(s54):
        for k in range(1, top + 1):
            reps, sizes = search.orbit_representatives(perms, n, k)
            orbits = [images_of(perms, rep) for rep in reps]
            assert all(rep == min(orbit) for rep, orbit in zip(reps, orbits))
            assert sizes == [len(orbit) for orbit in orbits]
            expected, expected_sizes = least_bitmask_representatives(perms, n, k)
            assert ({frozenset(orbit) for orbit in orbits}
                    == {frozenset(images_of(perms, rep)) for rep in expected})
            assert sorted(sizes) == sorted(expected_sizes)
            assert sum(sizes) == math.comb(n, k)


def random_perm_sets():
    """50 sets of 1-4 random permutations of n <= 8 points, rarely groups."""
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(1, 8)
        yield n, [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 4))]


def test_orbit_representatives_of_any_perm_set():
    # heredity holds for any set of permutations, group or not: the kept
    # subsets are all those with no lexicographically smaller image, and
    # each size is a count of distinct images, not |perms| / |stabiliser|
    for n, perms in random_perm_sets():
        for k in range(n + 1):
            kept = [t for t in combinations(range(n), k) if min(images_of(perms, t)) >= t]
            assert search.orbit_representatives(perms, n, k) == (
                kept, [len(images_of(perms, t)) for t in kept])


def reference_orbit_levels(perms, n):
    """Oracle for _orbit_levels: one parent R at a time, with one
    (n - start, |perms|) array of the image masks of its candidates
    R + {x}, x >= start = max R + 1."""
    bits = np.left_shift(np.int64(1), n - 1 - np.array(list(perms), dtype=np.int64).T)
    own = np.left_shift(np.int64(1), n - 1 - np.arange(n, dtype=np.int64))
    reps, sizes = [()], [1]
    while True:
        yield reps, sizes
        parents, reps, sizes = reps, [], []
        for rep in parents:
            start = rep[-1] + 1 if rep else 0
            candidates = bits[list(rep)].sum(axis=0) + bits[start:]  # row x - start: g(rep + {x})
            keep = np.flatnonzero(candidates.max(axis=1) <= own[list(rep)].sum() + own[start:])
            steps = np.diff(np.sort(candidates[keep], axis=1), axis=1)
            sizes.extend((1 + np.count_nonzero(steps, axis=1)).tolist())
            reps.extend(rep + (x,) for x in (start + keep).tolist())


def test_orbit_levels_match_per_parent_oracle(s54, monkeypatch):
    cases = list(group_cases(s54))
    cases += [(n, perms, n) for n, perms in random_perm_sets()]
    cases.append((0, [()], 2))
    for n, perms, top in cases:
        expected = list(islice(reference_orbit_levels(perms, n), top + 1))
        assert list(islice(search._orbit_levels(perms, n), top + 1)) == expected
        # blocks of one group's width hold one candidate each, so the
        # candidates of one parent span several blocks
        monkeypatch.setattr(search, "SCAN_BLOCK", len(perms))
        assert list(islice(search._orbit_levels(perms, n), top + 1)) == expected
        monkeypatch.undo()


def test_orbit_levels_memory_budget(s54):
    # tracemalloc sees numpy's buffers: building level 4 of S54 in blocks
    # of SCAN_BLOCK masks peaks near 1 MiB, all its candidates at once
    # would take 6 MiB
    perms = search.switching_automorphisms(s54)
    tracemalloc.start()
    try:
        search.orbit_representatives(perms, 54, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_switching_search_memory_budget(s54):
    # a cold switching search of S54 peaks near 150 KiB: bitmask cells,
    # and descendants packed from the int64 array
    seidel._switching_search.cache_clear()
    tracemalloc.start()
    try:
        seidel._switching_search(s54)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 << 10


def test_orbit_representatives_mask_width():
    mirror = tuple(range(62, -1, -1))
    reps, sizes = search.orbit_representatives([tuple(range(63)), mirror], 63, 1)
    assert reps == [(i,) for i in range(32)]
    assert sizes == [2] * 31 + [1]
    with pytest.raises(ValueError):
        search.orbit_representatives([tuple(range(64))], 64, 1)
    with pytest.raises(ValueError):
        search.orbit_representatives([tuple(range(5))], 5, -1)


def test_automorphisms_map_hits_to_hits(s54, s54_window):
    result = search.subseidel_scan(s54, s54_window, orders=(52,))
    hit_sets = {frozenset(removed) for _, removed, _ in result.hits}
    aut = seidel.automorphism_order(s54)
    for g in aut.generators:
        for removed in hit_sets:
            image = frozenset(g[i] for i in removed)
            assert image in hit_sets


def test_hit_trace_identities(s54, s54_window):
    result = search.subseidel_scan(s54, s54_window, orders=(52,))
    for order, _removed, claim in result.hits:
        assert claim.eig_sum() == 0
        assert claim.eig_square_sum() == order * (order - 1)


def test_screen_accepts_true_integral_submatrix(s54, s54_window):
    # every known order-52 hit must survive the mod-p screen on its own
    result = search.subseidel_scan(s54, s54_window, orders=(52,))
    survivors, _ = screen_all(s54, s54_window, 52)
    assert {removed for _, removed, _ in result.hits} <= set(survivors)
    assert len(survivors) < math.comb(54, 2)


def integer_window(s):
    """Oracle for SpectrumClaim.integer_window: range(lo, hi + 1) holding
    every integer in [lambda_min(s), lambda_max(s)], by definiteness tests.

    m - cI is positive definite iff c < lambda_min(m), a test monotone in
    c. Bisection on [-n, 0], keeping the test true at the left end and
    false at the right, finds the greatest integer c where it holds, and
    lo = c + 1 is at most every integer >= lambda_min. Both ends are valid
    for a Seidel matrix of order n >= 1: s + nI has diagonal n above its
    off-diagonal row sums n - 1, so it is strictly diagonally dominant,
    hence positive definite; tr s = 0 makes lambda_min <= 0, so s is not.
    hi is found the same way on -s, also a Seidel matrix.
    """
    def least(m):
        good, bad = -len(m), 0
        while bad - good > 1:
            c = (good + bad) // 2
            if positive_definite([[x - c * (i == j) for j, x in enumerate(row)]
                                  for i, row in enumerate(m)]):
                good = c
            else:
                bad = c
        return bad

    return range(least(s.rows), 1 - least([[-x for x in row] for row in s.rows]))


def j_minus_i(n):
    return seidel.SeidelMatrix.from_rows([[0 if i == j else 1 for j in range(n)]
                                          for i in range(n)])


def random_seidel_matrices(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        rows = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            rows[i][j] = rows[j][i] = rng.choice([1, -1])
        yield seidel.SeidelMatrix.from_rows(rows)


def certified_window(s, claim=None):
    """The window of a claim (default the nullity sweep's) that certifies
    for s."""
    claim = claim or nullity_spectrum(s)
    assert seidel.certify_spectrum(s, claim).passed
    return claim.integer_window()


def test_integer_window_j_minus_i():
    # J - I of order 8 has spectrum {7, -1}
    assert integer_window(j_minus_i(8)) == range(-1, 8)


def test_integer_window_s54(s54, s54_window):
    # spectrum of S54: -5 up to 12 + sqrt(37) = 18.08...
    assert integer_window(s54) == s54_window == range(-5, 19)


def linear_window(s):
    """Reference for integer_window: step down from 0 one integer at a
    time until the shifted matrix is positive definite, on s and on -s."""
    def least(m):
        lo = 0
        while not positive_definite(
                [[x - (lo - 1) * (i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(m)]):
            lo -= 1
        return lo

    return range(least(s.rows), 1 - least([[-x for x in row] for row in s.rows]))


def test_integer_window_bisection_matches_linear_scan(s54):
    matrices = [s54, j_minus_i(8), petersen_seidel()]
    for s in matrices + list(random_seidel_matrices(200, seed=23)):
        assert integer_window(s) == linear_window(s)


def test_claim_window_matches_integer_window_oracle(s54):
    claims = [(s54, cli.S54_SPECTRUM), (j_minus_i(8), None), (petersen_seidel(), None)]
    for s in random_seidel_matrices(300, seed=23):
        claim = nullity_spectrum(s)
        if claim is not None:
            claims.append((s, claim))
    assert len(claims) > 100 and sum(c is not None and c.quadratic is not None
                                     for _, c in claims) > 30
    for s, claim in claims:
        assert certified_window(s, claim) == integer_window(s)
    assert nullity_spectrum(petersen_seidel()) == seidel.SpectrumClaim.make({-3: 5, 3: 5})


def test_claim_window_rounds_irrational_extremes_inwards():
    # x^2 - 24x + 107 has roots 12 -+ sqrt(37) = 5.91..., 18.08...;
    # x^2 + 3x - 1 has roots (-3 -+ sqrt(13)) / 2 = -3.30..., 0.30...;
    # x^2 - x - 1 has roots (1 -+ sqrt(5)) / 2 = -0.61..., 1.61...
    assert seidel.SpectrumClaim.make({7: 1}, quadratic=(-24, 107)).integer_window() == range(6, 19)
    assert seidel.SpectrumClaim.make({}, quadratic=(3, -1)).integer_window() == range(-3, 1)
    assert seidel.SpectrumClaim.make({}, quadratic=(-1, -1)).integer_window() == range(0, 2)
    assert seidel.SpectrumClaim.make({2: 3}).integer_window() == range(2, 3)
    with pytest.raises(ValueError):
        seidel.SpectrumClaim.make({0: 1}, quadratic=(1, 1)).integer_window()


def test_compute_spectrum_default_matches_oracle_window_sweep():
    # range(1 - n, n), the candidates any Seidel matrix may take by
    # default (|lambda| <= n - 1), against the window's own candidates
    claims = 0
    for s in random_seidel_matrices(300, seed=29):
        expected = seidel.compute_spectrum(s, integer_window(s))
        assert seidel.compute_spectrum(s, range(1 - s.n, s.n)) == expected
        claims += expected is not None
    assert claims > 100


def petersen_seidel(flip=False):
    """Seidel matrix (-1 on edges) of the Petersen graph; with flip, entry
    (0,1) negated."""
    edges = ({(i, (i + 1) % 5) for i in range(5)}
             | {(i, i + 5) for i in range(5)}
             | {(5 + i, 5 + (i + 2) % 5) for i in range(5)})
    rows = [[0 if i == j else -1 if (i, j) in edges or (j, i) in edges else 1
             for j in range(10)] for i in range(10)]
    if flip:
        rows[0][1] = rows[1][0] = -rows[0][1]
    return seidel.SeidelMatrix.from_rows(rows)


def brute_force_hits(s, orders):
    """The nullity sweep over every removed-index set, no screen, no orbits."""
    hits = []
    for order in sorted(orders, reverse=True):
        for removed in combinations(range(s.n), s.n - order):
            sub = s.principal_submatrix([i for i in range(s.n) if i not in removed])
            claim = nullity_spectrum(sub)
            if claim is not None and claim.quadratic is None:
                hits.append((order, removed, claim))
    return hits


def hit_counts(hits, orders):
    return {o: sum(1 for order, _, _ in hits if order == o) for o in orders}


def test_subscan_matches_brute_force_oracle():
    s = petersen_seidel(flip=True)
    orders = (6, 7, 8, 9)
    expected = brute_force_hits(s, orders)
    counts = hit_counts(expected, orders)
    assert counts == {6: 20, 7: 64, 8: 17, 9: 2}
    assert all(counts[o] < math.comb(10, 10 - o) for o in orders)
    result = search.subseidel_scan(s, integer_window(s), orders=orders)
    assert result.hits == expected
    assert result.screened_ambiguous == 0


def test_orbit_scan_matches_brute_force_on_petersen():
    # unflipped, the Petersen switching class has a large group: the
    # scan examines 7 representatives for 385 subsets
    s = petersen_seidel()
    assert seidel.signed_automorphism_group(s).order == 1440
    orders = (6, 7, 8, 9)
    expected = brute_force_hits(s, orders)
    assert hit_counts(expected, orders) == {6: 30, 7: 120, 8: 45, 9: 10}
    result = search.subseidel_scan(s, certified_window(s), orders=orders)
    assert result.orbit_representatives == {6: 3, 7: 2, 8: 1, 9: 1}
    assert result.subsets_examined == {o: math.comb(10, 10 - o) for o in orders}
    assert result.hits == expected
    assert result.screened_ambiguous == 0
    # six hit orbits in six switching classes, though orders 6 and 7
    # have two orbits each
    assert len(hit_orbits(s, result.hits)) == 6
    assert_classes_are_switching_classes(s, result)
    assert len(result.equivalence_classes) == 6


def hit_orbits(s, hits):
    perms = search.switching_automorphisms(s)
    return {tuple(search._orbit(perms, removed)) for _, removed, _ in hits}


def assert_classes_are_switching_classes(s, result):
    """The classes partition the hit positions, the members of each share
    one switching_canonical_form, computed here, and no two classes do."""
    assert sorted(p for c in result.equivalence_classes for p in c) == list(
        range(len(result.hits)))
    forms = [{seidel.switching_canonical_form(s.principal_submatrix(
                i for i in range(s.n) if i not in result.hits[pos][1]))
              for pos in positions}
             for positions in result.equivalence_classes]
    assert all(len(f) == 1 for f in forms)
    assert len(set().union(*forms)) == len(forms)


def test_hit_orbits_merge_by_form_on_flipped_petersen():
    # the flipped matrix leaves a scan group of order 16: its 16 hit
    # orbits lie in 6 switching classes, so orbits of one order must merge
    s = petersen_seidel(flip=True)
    result = search.subseidel_scan(s, integer_window(s), orders=(6, 7, 8, 9))
    assert len(hit_orbits(s, result.hits)) == 16
    assert_classes_are_switching_classes(s, result)
    assert len(result.equivalence_classes) == 6


def test_screened_ambiguous_counts_subsets(monkeypatch):
    # a screen that passes everything sends every representative to exact
    # confirmation; each one rejected counts its whole orbit
    s = petersen_seidel()
    orders = (6, 7, 8, 9)
    monkeypatch.setattr(search, "_screen",
                        lambda factors, v, removed: np.ones(len(removed), dtype=bool))
    result = search.subseidel_scan(s, certified_window(s), orders=orders)
    assert result.hits == brute_force_hits(s, orders)
    assert result.screened_ambiguous == 385 - 205


def test_progress_callback_invoked(s54, s54_window):
    calls = []
    search.subseidel_scan(s54, s54_window, orders=(53,),
                          progress=lambda o, t: calls.append((o, t)))
    assert calls == [(53, 54)]
