"""Census pipeline: enumeration, canonical forms, weak classes, audits."""

import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from zeropat import classify
from zeropat.classify import (
    EXCEPTIONAL_4,
    canonical_form,
    classify_all,
    enumerate_strict,
    offdiag_cells,
    scan_extremal,
    strict_count,
    weak_canonical_form,
)
from zeropat.patterns import Pattern, j_family, lam, mu
from zeropat.polynomials import (
    chi,
    in_coinvariant_ideal,
    norm_squared,
    pair_with_vandermonde,
)
from zeropat.stabdim import constraint_rows, integer_rank
from zeropat.verify import (
    check_complexity_one,
    complexity_one_case_a,
    complexity_one_case_b,
    load_expected,
    random_strict,
    suite_exceptional4,
    suite_hessenberg,
)

from oracles import random_permutation, weak_classes_by_flip_bfs

# sha256 of the compact, key-sorted JSON list of ClassRecord.to_json() in
# census order; the benchmark's reference file records the same digests
CENSUS_RECORDS_SHA256 = {
    4: "e41d124944e2445cc2c3e4dd3a8c1eff2d84f1c46d063fd8422acf06dfceafc1",
    5: "4355924840fb3ab90ad91140e0b15bd3fc6b9c6b2ef490e46f0df26e93ba2b70",
}


@pytest.fixture(scope="module")
def census5():
    return classify_all(5)


# -- oracles: per-pattern loops over the group, independent of the orbit engine


def canonical_form_by_permutation_loop(I, n):
    """Oracle for canonical_form: the pattern of least mask among all
    relabelings of I and their transposes."""
    best = None
    best_pat = None
    for sigma in itertools.permutations(range(1, n + 1)):
        J = I.apply_perm(sigma)
        for K in (J, J.transpose()):
            m = K.mask(n)
            if best is None or m < best:
                best = m
                best_pat = K
    return best_pat


def weak_canonical_form_by_permutation_loop(I, n):
    """Oracle for weak_canonical_form: the least pair-multiplicity tuple
    among all relabelings of I."""
    I.check_within(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    best = None
    for sigma in itertools.permutations(range(1, n + 1)):
        J = I.apply_perm(sigma)
        v = tuple(
            (1 if (i, j) in J else 0) + (1 if (j, i) in J else 0)
            for (i, j) in pairs
        )
        if best is None or v < best:
            best = v
    return best


def strict_masks_by_combinations(n):
    """Oracle for _unrank: the sorted masks of every mu(n)-subset of the
    off-diagonal cells, listed by itertools.combinations."""
    cells = [(i - 1) * n + (j - 1) for i, j in offdiag_cells(n)]
    flat = itertools.chain.from_iterable(itertools.combinations(cells, mu(n)))
    combos = np.fromiter(flat, dtype=np.uint64).reshape(-1, mu(n))
    return np.sort((np.uint64(1) << combos).sum(axis=1))


def orbit_images_by_gather(mask, n):
    """Oracle for the image-power matrix: the images of a mask gathered cell
    by cell through the group table, in the same group order."""
    powers = np.uint64(1) << np.arange(n * n, dtype=np.uint64)
    return classify._cell_bits(mask, n)[classify._group_table(n)] @ powers


def class_walk_by_entry_loop(n):
    """Oracle for _class_walk: every strict mask in turn, and for each one
    not yet visited its gathered orbit, deduplicated by np.unique."""
    masks = strict_masks_by_combinations(n)
    visited = np.zeros(masks.size, dtype=bool)
    classes = []
    for k in range(masks.size):
        if not visited[k]:
            orbit = np.unique(orbit_images_by_gather(int(masks[k]), n))
            visited[np.searchsorted(masks, orbit)] = True
            classes.append((int(masks[k]), int(orbit.size)))
    return classes


def colex_rank_by_comb(mask, n):
    """Oracle for _rank: the sum of C(c, t) over the off-diagonal cells of a
    strict mask, c the index of the t-th of them in the order of
    offdiag_cells, counting t from 1."""
    cells = [(i - 1) * n + (j - 1) for i, j in offdiag_cells(n)]
    held = [c for c, bit in enumerate(cells) if mask >> bit & 1]
    return sum(math.comb(c, t) for t, c in enumerate(held, 1))


def class_count_by_burnside(n):
    """Oracle for the class totals: by Burnside's lemma, the average over the
    2 n! relabelings and their transposes of the number of strict patterns
    each one fixes, that is of size-mu(n) unions of its cycles on the
    off-diagonal cells, counted by a knapsack over the cycle lengths."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {c: k for k, c in enumerate(cells)}
    fixed = 0
    for sigma in itertools.permutations(range(n)):
        for transpose in (False, True):
            image = [
                index[(sigma[j], sigma[i]) if transpose else (sigma[i], sigma[j])]
                for (i, j) in cells
            ]
            seen = [False] * len(cells)
            ways = [1] + [0] * mu(n)
            for start in range(len(cells)):
                if seen[start]:
                    continue
                length, k = 0, start
                while not seen[k]:
                    seen[k] = True
                    k = image[k]
                    length += 1
                for size in range(mu(n), length - 1, -1):
                    ways[size] += ways[size - length]
            fixed += ways[mu(n)]
    classes, rest = divmod(fixed, 2 * math.factorial(n))
    assert rest == 0
    return classes


def scan_extremal_by_pattern_loop(n):
    """Oracle for the exhaustive scan_extremal: every strict pattern of size
    mu(n) in turn, from its own combination of cells, with |pairing| and norm
    computed on the pattern itself and the extremes kept as running lists."""
    nfact = math.factorial(n)
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    max_pair = min_norm = counterexample = None
    argmax, argmin = [], []
    scanned = 0
    for combo in itertools.combinations(cells, mu(n)):
        I = Pattern(combo)
        scanned += 1
        p, q = abs(pair_with_vandermonde(I, n)), norm_squared(I, n)
        if p > nfact or q < nfact:
            counterexample = I
        if max_pair is None or p > max_pair:
            max_pair, argmax = p, [I]
        elif p == max_pair:
            argmax.append(I)
        if min_norm is None or q < min_norm:
            min_norm, argmin = q, [I]
        elif q == min_norm:
            argmin.append(I)
    simple = all(I.is_simple() for I in argmax + argmin)
    return {
        "n": n,
        "scanned": scanned,
        "max_abs_pairing": max_pair,
        "min_norm": min_norm,
        "num_argmax": len(argmax),
        "num_argmin": len(argmin),
        "counterexample": counterexample.to_json() if counterexample else None,
        "extremes_attained_only_at_signed_vandermonde": simple,
        "passed": counterexample is None
        and max_pair == min_norm == nfact
        and len(argmax) == len(argmin) == 2 ** mu(n)
        and simple,
    }


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_strict(2)) == 2
    assert sum(1 for _ in enumerate_strict(3)) == 20
    assert sum(1 for _ in enumerate_strict(4)) == math.comb(12, 6) == 924
    assert strict_count(5) == 184756
    with pytest.raises(ValueError):
        next(enumerate_strict(6))


@pytest.mark.parametrize("entry, message", [
    (enumerate_strict, "full enumeration is budgeted for 2 <= n <= 5, got {n}"),
    (classify_all, "full classification is budgeted for 2 <= n <= 5, got {n}"),
    (scan_extremal,
     "an exhaustive scan is budgeted for 2 <= n <= 5, got {n}; pass a sample"),
], ids=["enumerate_strict", "classify_all", "scan_extremal"])
@pytest.mark.parametrize("n", [1, 6])
def test_enumeration_budget_is_checked_before_any_work(monkeypatch, entry, message, n):
    def no_work(ranks, n):
        raise AssertionError("the strict masks were built")

    monkeypatch.setattr(classify, "_unrank", no_work)
    with pytest.raises(ValueError) as exc:
        entry(n)
    assert str(exc.value) == message.format(n=n)


def test_strict_masks_match_the_combinations():
    for n in (2, 3, 4, 5):
        masks = classify._unrank(np.arange(strict_count(n)), n)
        assert masks.dtype == np.uint64
        assert np.array_equal(masks, strict_masks_by_combinations(n))


def test_image_matrices_match_the_gather_table():
    rng = random.Random(5)
    for n in range(2, 9):
        P, W = classify._image_matrices(n)
        assert P.shape == W.shape == (n * n, 2 * math.factorial(n))
        masks = [rng.getrandbits(n * n) for _ in range(2 if n == 8 else 12)]
        for m in masks + [0, (1 << n * n) - 1]:
            images = orbit_images_by_gather(m, n)
            assert np.array_equal(classify._cell_bits(m, n) @ P, images)
            # the flip code of the mask alone is the least weak code over its
            # gathered orbit
            weak = classify._cell_bits(images, n) @ classify._weak_weights(n)
            assert classify._weak_code(m, n) == int(weak.min())


def test_rank_of_the_strict_masks_is_their_index():
    for n in (2, 3, 4, 5):
        masks = classify._unrank(np.arange(strict_count(n)), n)
        ranks = classify._rank(masks, n)
        assert np.array_equal(ranks, np.arange(strict_count(n)))
        # enumerate_strict lists the patterns in the same order
        assert [I.mask(n) for I in enumerate_strict(n)] == masks.tolist()


@pytest.mark.parametrize("n", [6])
def test_rank_matches_the_colex_sum(n):
    rng = random.Random(n)
    cells = [(i - 1) * n + (j - 1) for i, j in offdiag_cells(n)]
    # the first and the last strict mask, then seeded random ones
    masks = [sum(1 << c for c in cells[:mu(n)]), sum(1 << c for c in cells[mu(n):])]
    masks += [random_strict(rng, n).mask(n) for _ in range(200)]
    ranks = classify._rank(masks, n)
    assert ranks.tolist() == [colex_rank_by_comb(m, n) for m in masks]
    assert ranks[0] == 0 and ranks[1] == strict_count(n) - 1
    # the two end ranks and seeded random ones round-trip through _unrank
    ranks = [0, strict_count(n) - 1]
    ranks += [rng.randrange(strict_count(n)) for _ in range(200)]
    masks = classify._unrank(ranks, n).tolist()
    assert classify._rank(masks, n).tolist() == ranks
    assert [colex_rank_by_comb(m, n) for m in masks] == ranks


def test_rank_tables_at_n6_are_two_within_4_mb():
    _, low, high = classify._rank_tables(6)
    with pytest.raises(ValueError, match="n <= 6, got 7"):
        classify._rank_tables(7)
    assert low.nbytes + high.nbytes <= 4 * 2**20
    assert not low.flags.writeable and not high.flags.writeable


def test_class_walk_matches_the_entry_loop(monkeypatch):
    for n in (2, 3, 4, 5):
        assert list(classify._class_walk(n)) == class_walk_by_entry_loop(n)
    # chunk boundaries everywhere: an orbit met earlier in a chunk must not
    # be walked again from a later entry of the same chunk
    monkeypatch.setattr(classify, "_WALK_CHUNK", 7)
    assert list(classify._class_walk(4)) == class_walk_by_entry_loop(4)


def test_census_checks_that_the_orbits_cover_every_pattern(monkeypatch):
    walk = classify._class_walk
    # drop the first class, an orbit of 12 of the 20 patterns
    monkeypatch.setattr(classify, "_class_walk", lambda n: list(walk(n))[1:])
    with pytest.raises(AssertionError, match="the class orbits cover 8 of the 20 "):
        classify_all(3)


def test_enumeration_is_strict_and_unique():
    seen = set(enumerate_strict(3))
    assert len(seen) == 20
    assert all(I.is_strict() and len(I) == 3 for I in seen)


def test_canonical_form_constant_on_orbits():
    rng = random.Random(0)
    for _ in range(20):
        I = random_strict(rng, 4)
        c = canonical_form(I, 4)
        p = random_permutation(rng, 4)
        assert canonical_form(I.apply_perm(p), 4) == c
        assert canonical_form(I.transpose(), 4) == c


def test_canonical_forms_match_the_permutation_loops():
    rng = random.Random(2)
    grid3 = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    cases = [
        (Pattern(c for c, bit in zip(grid3, bits) if bit), 3)
        for bits in itertools.product((0, 1), repeat=9)
    ]
    cases += [(I, 4) for I in enumerate_strict(4)]
    cases += [(random_strict(rng, 5), 5) for _ in range(200)]
    # non-strict patterns of sizes up to the 64-bit mask limit
    for n, k in ((4, 9), (5, 12), (6, 10), (7, 8), (8, 5)):
        grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        cases.append((Pattern(rng.sample(grid, k - 1) + [(2, 2)]), n))
    assert sum(not I.is_strict() for I, _ in cases) > 400
    for I, n in cases:
        assert canonical_form(I, n) == canonical_form_by_permutation_loop(I, n)
        assert weak_canonical_form(I, n) == weak_canonical_form_by_permutation_loop(I, n)
    # a mask past 64 bits is refused before its bits are taken
    for I in (Pattern([(1, 9)]), Pattern([(9, 9)])):
        with pytest.raises(ValueError):
            canonical_form(I, 9)
        with pytest.raises(ValueError):
            weak_canonical_form(I, 9)


def test_canonical_form_distinct_count_n3():
    forms = {canonical_form(I, 3) for I in enumerate_strict(3)}
    assert len(forms) == 3


def test_weak_form_counts():
    forms3 = {weak_canonical_form(I, 3) for I in enumerate_strict(3)}
    assert len(forms3) == 2
    forms4 = {weak_canonical_form(I, 4) for I in enumerate_strict(4)}
    assert len(forms4) == 12


def test_weak_form_matches_flip_bfs():
    # the multiplicity encoding partitions exactly like exhaustive flip closure
    for n in (3, 4):
        roots = weak_classes_by_flip_bfs(n)
        by_key = {}
        for I in enumerate_strict(n):
            by_key.setdefault(weak_canonical_form(I, n), set()).add(roots[I.mask(n)])
        # every encoding class is one closure class, and counts agree
        assert all(len(v) == 1 for v in by_key.values())
        assert len(by_key) == len(set(roots.values()))


def test_census_flip_key_count_matches_the_weak_forms(census5, monkeypatch):
    # the census counts flip keys over blocks of representatives, 880 at n = 5
    for n in (2, 3, 4, 5):
        census, records = census5 if n == 5 else classify_all(n)
        forms = {weak_canonical_form(r.canonical, n) for r in records}
        assert census.num_weak_classes == len(forms), n
    monkeypatch.setattr(classify, "_KEY_CHUNK", 7)
    census, records = classify_all(4)
    assert census.num_weak_classes == len(
        {weak_canonical_form(r.canonical, 4) for r in records}
    ) == 12


def test_census_small():
    expected = load_expected()["census"]
    for n in (2, 3, 4):
        census, records = classify_all(n)
        got = census.to_json()
        for key, val in expected[str(n)].items():
            assert got[key] == val, (n, key)
        assert sum(r.orbit_size for r in records) == census.total_patterns


def test_class_totals_match_burnside(census5):
    for n in (2, 3, 4):
        assert classify_all(n)[0].num_classes == class_count_by_burnside(n)
    assert census5[0].num_classes == class_count_by_burnside(5) == 880
    assert class_count_by_burnside(6) == 111_256


def test_census_class_invariants_n4():
    census, records = classify_all(4)
    for r in records:
        assert (r.status == "nonsingular") == (r.pairing != 0)
        if r.status == "defective":
            assert r.pairing == 0 and r.stab_dim > 4
        if r.status == "exceptional":
            assert r.pairing == 0 and r.stab_dim <= 4
        assert r.stab_dim >= 4


def test_census_stabilizer_dims_match_bareiss(census5):
    for n in (2, 3, 4, 5):
        records = census5[1] if n == 5 else classify_all(n)[1]
        for r in records:
            rank = integer_rank(constraint_rows(r.canonical, n), n * n)
            assert r.stab_dim == n * n - rank, (n, r.canonical)


def test_census_records_are_pinned(census5):
    for n, (_, records) in ((4, classify_all(4)), (5, census5)):
        blob = json.dumps(
            [r.to_json() for r in records], sort_keys=True, separators=(",", ":")
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == CENSUS_RECORDS_SHA256[n]


def test_pairing_magnitude_and_norm_constant_on_classes(census5):
    # the extremal scan computes both once per class
    rng = random.Random(1)
    for n, records, step in ((4, classify_all(4)[1], 5), (5, census5[1], 40)):
        for r in records[::step]:
            v = abs(r.pairing)
            q = norm_squared(r.canonical, n)
            for _ in range(5):
                p = random_permutation(rng, n)
                J = r.canonical.apply_perm(p)
                if rng.random() < 0.5:
                    J = J.transpose()
                assert abs(pair_with_vandermonde(J, n)) == v
                assert norm_squared(J, n) == q


def test_nonsingularity_constant_on_weak_classes_n4():
    by_weak = {}
    for I in enumerate_strict(4):
        key = weak_canonical_form(I, 4)
        by_weak.setdefault(key, set()).add(pair_with_vandermonde(I, 4) != 0)
    assert all(len(v) == 1 for v in by_weak.values())


def test_exceptional4_audit():
    rep = suite_exceptional4()
    assert rep["passed"], rep
    assert rep["num_distinct_classes"] == 7


def test_exceptional4_values():
    from zeropat.stabdim import stabilizer_dim

    for I in EXCEPTIONAL_4:
        assert pair_with_vandermonde(I, 4) == 0
        assert stabilizer_dim(I, 4) <= 4


def test_complexity_one():
    rep4 = check_complexity_one(4)
    assert rep4["passed"], rep4
    assert abs(rep4["case_a_pairing"]) == 12
    assert rep4["num_weak_classes"] == 2
    rep5 = check_complexity_one(5)
    assert rep5["passed"], rep5
    assert abs(rep5["case_a_pairing"]) == 60


def test_complexity_one_representatives():
    a = complexity_one_case_a(4)
    b = complexity_one_case_b(4)
    assert a.complexity() == 1 and b.complexity() == 1
    assert weak_canonical_form(a, 4) != weak_canonical_form(b, 4)


def test_hessenberg_small():
    rep = suite_hessenberg(max_n=6)
    assert rep["passed"]
    by_nk = {(r["n"], r["k"]): r["pairing"] for r in rep["rows"]}
    assert by_nk[(3, 1)] == 3
    assert by_nk[(4, 2)] == -12
    assert by_nk[(5, 1)] == 5


def test_extremal_exhaustive_small():
    for n in (2, 3):
        rep = scan_extremal(n)
        assert rep["passed"], rep
        assert rep["max_abs_pairing"] == math.factorial(n)
        assert rep["min_norm"] == math.factorial(n)
        assert rep["num_argmax"] == 2 ** mu(n)


def test_extremal_scan_matches_the_pattern_loop():
    for n in (2, 3, 4):
        assert scan_extremal(n) == scan_extremal_by_pattern_loop(n)
    # beyond the census walk only a sample is scanned
    with pytest.raises(ValueError):
        scan_extremal(6)


def test_extremal_sampled():
    rep = scan_extremal(5, sample=500, seed=0)
    assert rep["passed"]
    assert rep["counterexample"] is None
    # a sample of distinct patterns can take all of them, but no more
    assert scan_extremal(3, sample=20)["scanned"] == 20
    with pytest.raises(ValueError):
        scan_extremal(3, sample=21)
    for sample in (0, -1):
        with pytest.raises(ValueError, match="at least one pattern"):
            scan_extremal(3, sample=sample)


def search_nonsingular_extension(I, n):
    """Extend a nonsingular pattern to a nonsingular strict pattern of size
    mu(n) by depth-first search that only walks through nonsingular partial
    patterns.  Exhaustion would contradict the extension theorem and raises.
    """
    I.check_within(n)
    if not I.is_strict():
        raise ValueError("only strict patterns are nonsingular")
    if in_coinvariant_ideal(chi(I, n), n):
        raise ValueError("pattern is singular; nothing to extend")
    start = sorted(I)
    remaining = [c for c in offdiag_cells(n) if c not in I]

    def dfs2(extra, lo):
        cand = start + extra
        if len(cand) == mu(n):
            return Pattern(cand)
        for k in range(lo, len(remaining)):
            c = remaining[k]
            trial = cand + [c]
            if in_coinvariant_ideal(chi(Pattern(trial), n), n):
                continue
            found = dfs2(extra + [c], k + 1)
            if found is not None:
                return found
        return None

    found = dfs2([], 0)
    if found is None:
        raise RuntimeError(
            "search exhausted without a nonsingular completion; this "
            "contradicts the extension theorem and should be reported"
        )
    return found


def test_search_extension():
    found = search_nonsingular_extension(Pattern(), 3)
    assert len(found) == 3 and pair_with_vandermonde(found, 3) != 0
    found = search_nonsingular_extension(Pattern([(1, 2), (2, 1)]), 3)
    assert len(found) == 3
    assert Pattern([(1, 2), (2, 1)]).positions[0] in found
    assert pair_with_vandermonde(found, 3) != 0
    # removing one position from a nonsingular pattern stays extendable
    I = Pattern(list(lam(4))[:-1])
    found = search_nonsingular_extension(I, 4)
    assert len(found) == mu(4)
    assert pair_with_vandermonde(found, 4) != 0
    with pytest.raises(ValueError):
        search_nonsingular_extension(EXCEPTIONAL_4[0], 4)


def j_family_class_report(n):
    """Number of equivalence classes met by the staircase family J(sigma, i)."""
    if not 2 <= n <= 5:
        raise ValueError("budgeted for 2 <= n <= 5")
    seen_patterns = set()
    for sigma in itertools.permutations(range(1, n + 1)):
        stack = [((), ())]
        while stack:
            ivec, used = stack.pop()
            k = len(ivec) + 1
            if k == n:
                seen_patterns.add(j_family(sigma, ivec))
                continue
            for v in sigma[:k]:
                for s in (v, -v):
                    if s not in used:
                        stack.append((ivec + (s,), used + (s,)))
    classes = {canonical_form(I, n).mask(n) for I in seen_patterns}
    return {
        "n": n,
        "num_patterns": len(seen_patterns),
        "num_classes": len(classes),
    }


def test_staircase_class_counts():
    expected = load_expected()["staircase_family_class_counts"]
    for n in (2, 3, 4, 5):
        rep = j_family_class_report(n)
        assert rep["num_classes"] == expected[str(n)], rep
