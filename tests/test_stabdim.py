"""Exact stabilizer dimensions and the defectiveness predicate."""

import itertools
import random

import pytest

from zeropat.patterns import Pattern, delta, mu, ne
from zeropat.stabdim import (
    constraint_rows,
    float_system_rank,
    integer_rank,
    is_defective,
    stabilizer_dim,
    traceless_basis,
)
from zeropat.verify import random_strict

from oracles import random_permutation, transposition


def bareiss_dim(I, n):
    """The stabilizer dimension from the kernel of the commutator system."""
    return n * n - integer_rank(constraint_rows(I, n), n * n)


def twin_pairs(I, n):
    """Pairs {p, q} with neither (p, q) nor (q, p) in I whose swap fixes I."""
    return [
        (p, q)
        for p, q in itertools.combinations(range(1, n + 1), 2)
        if (p, q) not in I and (q, p) not in I
        and I.apply_perm(transposition(n, p, q)) == I
    ]


def strict_with_twin(rng, n):
    """A strict size-mu(n) pattern fixed by swapping two labels p and q and
    avoiding (p, q) and (q, p): a union of cell orbits under the swap."""
    p, q = rng.sample(range(1, n + 1), 2)
    swap = transposition(n, p, q)
    orbits = {
        frozenset({(i, j), (swap[i - 1], swap[j - 1])})
        for i in range(1, n + 1) for j in range(1, n + 1)
        if i != j and {i, j} != {p, q}
    }
    cells = []
    for orbit in rng.sample(sorted(orbits, key=sorted), len(orbits)):
        if len(cells) + len(orbit) <= mu(n):
            cells += orbit
    return Pattern(cells)


def test_basis_dimension():
    for n in (3, 4, 5):
        rng = random.Random(n)
        I = random_strict(rng, n)
        assert len(traceless_basis(I, n)) == n * n - 1 - len(I)


def test_whole_algebra_for_empty_pattern():
    assert stabilizer_dim(Pattern(), 3) == 9


def test_triangular_pattern_has_torus_stabilizer():
    assert stabilizer_dim(ne(4), 4) == 4
    assert not is_defective(ne(4), 4)


def test_known_defective_representative():
    for n in (4, 5):
        I = Pattern([p for p in ne(n) if p != (1, 2)] + [(4, 3)])
        assert stabilizer_dim(I, n) > n
        assert is_defective(I, n)


def test_improper_pattern_rejected():
    message = "^stabilizer dimension needs a proper pattern$"
    for I, n in [(delta(3), 3), (Pattern([(1, 1)]), 1), (Pattern([(1, 1), (2, 2), (1, 2)]), 2)]:
        with pytest.raises(ValueError, match=message):
            stabilizer_dim(I, n)


def test_diagonal_positions_of_a_proper_pattern_are_accepted():
    assert stabilizer_dim(Pattern([(1, 1), (1, 2), (2, 1)]), 2) == 4
    assert stabilizer_dim(Pattern([(1, 1)]), 11) == 101


@pytest.mark.parametrize("positions, n, message", [
    ([(1, 2), (3, 1)], 2, r"position \(3, 1\) outside the 2 x 2 grid"),
    ([(1, 1), (2, 2), (4, 1)], 2, r"position \(4, 1\) outside the 2 x 2 grid"),
    ([(1, 2), (2, 5)], 4, r"position \(2, 5\) outside the 4 x 4 grid"),
    ([], 0, "grid size must be at least 1, got 0"),
    ([(1, 2)], 0, "grid size must be at least 1, got 0"),
    ([], -3, "grid size must be at least 1, got -3"),
])
def test_stabilizer_dim_checks_the_grid_first(positions, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        stabilizer_dim(Pattern(positions), n)


def test_torus_lower_bound():
    rng = random.Random(0)
    for n in (3, 4, 5):
        for _ in range(15):
            assert stabilizer_dim(random_strict(rng, n), n) >= n


def test_invariance_under_relabeling_and_transpose():
    rng = random.Random(1)
    for n in (4, 5):
        for _ in range(15):
            I = random_strict(rng, n)
            d = stabilizer_dim(I, n)
            p = random_permutation(rng, n)
            assert stabilizer_dim(I.apply_perm(p), n) == d
            assert stabilizer_dim(I.transpose(), n) == d


def test_exact_rank_matches_float_oracle():
    # same system, independent rank computations
    rng = random.Random(2)
    for n in (4, 5):
        for _ in range(100):
            I = random_strict(rng, n)
            rows = constraint_rows(I, n)
            assert integer_rank(rows, n * n) == float_system_rank(I, n)


def test_integer_rank_small_matrices():
    assert integer_rank([(1, 0), (0, 1)], 2) == 2
    assert integer_rank([(1, 2), (2, 4)], 2) == 1
    assert integer_rank([], 3) == 0
    # regression: zero-multiplier rows must still be rescaled during the
    # fraction-free sweep, otherwise later divisions truncate
    m = [
        (2, 0, 1, 0),
        (0, 3, 0, 1),
        (0, 5, 0, 7),
        (3, 0, 5, 0),
    ]
    assert integer_rank(m, 4) == 4


def test_count_matches_bareiss_on_every_small_pattern():
    for n in (1, 2, 3):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for k in range(len(cells) + 1):
            for combo in itertools.combinations(cells, k):
                I = Pattern(combo)
                if I.is_proper(n):
                    assert stabilizer_dim(I, n) == bareiss_dim(I, n), I


def test_count_matches_bareiss_on_nonstrict_patterns():
    rng = random.Random(3)
    for n in (4, 5, 6):
        off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for t in range(50):
            # every third draw leaves exactly one diagonal cell free
            free = 1 if t % 3 == 0 else rng.randint(1, n)
            diag = [(i, i) for i in rng.sample(range(1, n + 1), n - free)]
            I = Pattern(diag + rng.sample(off, rng.randint(0, len(off))))
            assert stabilizer_dim(I, n) == bareiss_dim(I, n), (n, I)


def test_count_is_the_twin_count_on_strict_patterns():
    rng = random.Random(4)
    for n in (6, 7):
        for t in range(100):
            I = strict_with_twin(rng, n) if t % 2 else random_strict(rng, n)
            assert len(I) == mu(n) and I.is_strict()
            d = stabilizer_dim(I, n)
            assert d == bareiss_dim(I, n), (n, I)
            assert d == n + 2 * len(twin_pairs(I, n)), (n, I)
            if t % 2:
                assert is_defective(I, n)
