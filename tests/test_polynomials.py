"""Exact polynomial arithmetic, pairings, and the differential identities."""

import itertools
import math
import random

import numpy as np
import pytest

import zeropat.verify
from zeropat.classify import offdiag_cells
from zeropat.patterns import (
    Pattern,
    j_family,
    lam,
    mu,
    ne,
    perm_sign,
    pi_family,
)
from zeropat.polynomials import (
    MAX_PAIR_N,
    Poly,
    chi,
    complete,
    derivative_chain_matches,
    diff_apply,
    elementary,
    in_coinvariant_ideal,
    inner,
    norm_squared,
    pair_with_vandermonde,
    permutation_table,
    shift,
    vandermonde,
)
from zeropat.verify import (
    MAX_CHAIN_N,
    double_factorial,
    lambda_expected,
    random_homogeneous,
    random_strict,
    run_suite,
)

from oracles import (
    chi_by_products,
    in_coinvariant_ideal_by_pairing,
    pair_with_vandermonde_naive,
    random_permutation,
)


def test_poly_ring_basics():
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert (x1 - x1).is_zero()
    assert (2 * x1).terms == {(1, 0): 2}
    assert (x1 + 1) ** 2 == x1 * x1 + 2 * x1 + 1
    with pytest.raises(ValueError):
        x1 + Poly.variable(3, 1)


def test_poly_str_graded_lex():
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    assert str(x1 * x1 - x2 + 3) == "x1^2 -x2 +3"


def test_vandermonde():
    assert vandermonde(1) == Poly.const(1, 1)
    assert vandermonde(2) == Poly.variable(2, 1) - Poly.variable(2, 2)
    assert len(vandermonde(5).terms) == 120
    assert all(c in (1, -1) for c in vandermonde(4).terms.values())
    assert vandermonde(4).total_degree() == mu(4)


def chi_inputs():
    """Seeded strict patterns for the packed expansion: random ones of size
    mu(n) and of other sizes for n = 2..6, the empty pattern, and one row
    full at n = 2..9, where the exponent of x_1 reaches |I| (1, 2, 4 and 8
    fill the top bit of their field)."""
    rng = random.Random(5)
    cases = [(Pattern(), n) for n in (1, 2, 4)]
    for n in range(2, 7):
        cells = offdiag_cells(n)
        sizes = [k for k in range(1, min(len(cells), mu(n) + 2) + 1) if k != mu(n)]
        cases += [(random_strict(rng, n), n) for _ in range(8)]
        cases += [(Pattern(rng.sample(cells, rng.choice(sizes))), n) for _ in range(8)]
    cases += [(Pattern((1, j) for j in range(2, n + 1)), n) for n in range(2, 10)]
    return cases


def test_chi():
    assert chi(ne(3), 3) == vandermonde(3)
    assert chi(Pattern(), 3) == Poly.const(3, 1)
    for I, n in chi_inputs():
        assert chi(I, n) == chi_by_products(I, n), (I, n)
    two = chi(Pattern([(2, 1)]), 2)
    assert two == Poly.variable(2, 2) - Poly.variable(2, 1)
    I = Pattern([(1, 2), (2, 3)])
    assert chi(I.transpose(), 3) == chi(I, 3)  # (-1)^2
    J = Pattern([(1, 2), (2, 3), (1, 3)])
    assert chi(J.transpose(), 3) == -chi(J, 3)
    with pytest.raises(ValueError):
        chi(Pattern([(1, 1)]), 2)


def test_inner():
    V = vandermonde(3)
    assert inner(V, V) == 6
    assert inner(Poly.variable(2, 1), Poly.variable(2, 2)) == 0
    x1x2 = Poly.monomial(2, (1, 1))
    assert inner(2 * x1x2, 3 * x1x2) == 6
    for n in (2, 3, 4, 5):
        assert inner(vandermonde(n), vandermonde(n)) == math.factorial(n)


def permute_vars(f, p):
    out = {}
    for e, c in f.terms.items():
        e2 = [0] * len(e)
        for i, exp in enumerate(e):
            e2[p[i] - 1] = exp
        out[tuple(e2)] = c
    return Poly(f.nvars, out)


def test_inner_bilinear_symmetric_invariant():
    rng = random.Random(0)
    n = 4
    V = vandermonde(n)
    for _ in range(10):
        I = random_strict(rng, n)
        J = random_strict(rng, n)
        f, g = chi(I, n), chi(J, n)
        assert inner(f, g) == inner(g, f)
        assert inner(f + g, V) == inner(f, V) + inner(g, V)
        assert inner(3 * f, V) == 3 * inner(f, V)
        p = random_permutation(rng, n)
        assert inner(permute_vars(f, p), permute_vars(g, p)) == inner(f, g)


def test_pairing_matches_naive_exhaustive_small():
    for n in (2, 3, 4):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for combo in itertools.combinations(cells, mu(n)):
            I = Pattern(combo)
            assert pair_with_vandermonde(I, n) == pair_with_vandermonde_naive(I, n)


def test_pairing_matches_naive_random_n5():
    rng = random.Random(1)
    for _ in range(1000):
        I = random_strict(rng, 5)
        assert pair_with_vandermonde(I, 5) == pair_with_vandermonde_naive(I, 5)


def test_pairing_sum_is_exact_in_int64_up_to_n6():
    # |sum| <= n! (n-1)^mu(n), below 2^63 up to n = 6, where the pairing is
    # one int64 sum and a division; from n = 7 on it runs on residues
    for n in range(1, MAX_PAIR_N + 1):
        exact = math.factorial(n) * (n - 1) ** mu(n) < 2**63
        assert exact == (n <= 6) == (zeropat.polynomials._pair_constants(n)[1] is not None)
    rng = random.Random(63)
    for _ in range(40):
        I = random_strict(rng, 6)
        assert pair_with_vandermonde(I, 6) == pair_with_vandermonde_naive(I, 6)


def test_pairing_matches_naive_across_groups():
    # on the residue path, n >= 7, the mu(n) factors span more than one
    # exact int64 group
    assert zeropat.polynomials._pair_constants(7)[2] < mu(7)
    rng = random.Random(6)
    for _ in range(5):
        I = random_strict(rng, 7)
        assert pair_with_vandermonde(I, 7) == pair_with_vandermonde_naive(I, 7)


def test_pairing_sums_across_row_blocks(monkeypatch):
    # 997 rows a block: the 5040 permutations of n = 7 end in a partial block
    monkeypatch.setattr(zeropat.polynomials, "_PAIR_CHUNK", 997)
    rng = random.Random(7)
    for _ in range(3):
        I = random_strict(rng, 7)
        assert pair_with_vandermonde(I, 7) == pair_with_vandermonde_naive(I, 7)


def test_pairing_of_the_empty_pattern_at_n1():
    # mu(1) = 0: no factors, one permutation of sign +1
    assert pair_with_vandermonde(Pattern([]), 1) == 1


def test_permutation_table():
    for n in range(7):
        perms, signs = permutation_table(n)
        assert perms.tolist() == [list(p) for p in itertools.permutations(range(n))]
        assert signs.tolist() == [perm_sign([v + 1 for v in p]) for p in perms]
        assert not perms.flags.writeable and not signs.flags.writeable


def test_permutation_table_budget():
    # rejected before a row is built: 11! rows would take gigabytes
    message = f"budgeted for n <= {MAX_PAIR_N}, got {MAX_PAIR_N + 1}"
    with pytest.raises(ValueError, match=message):
        permutation_table(MAX_PAIR_N + 1)
    with pytest.raises(ValueError, match=message):
        vandermonde(MAX_PAIR_N + 1)


def test_pairing_top_of_range():
    assert pair_with_vandermonde(lam(9), 9) == lambda_expected(9) == 90720
    assert pair_with_vandermonde(pi_family(9), 9) == double_factorial(9)
    with pytest.raises(ValueError, match="n <= 10"):
        pair_with_vandermonde(lam(11), 11)


def refuse(*args):
    raise AssertionError("computed before the budget check")


@pytest.mark.parametrize("suite", ["lambda-family", "pi-family", "hessenberg"])
def test_pairing_suites_check_the_budget_before_any_pairing(suite, monkeypatch):
    monkeypatch.setattr(zeropat.verify, "pair_with_vandermonde", refuse)
    message = f"pairings are evaluated for n <= {MAX_PAIR_N}, got {MAX_PAIR_N + 1}"
    with pytest.raises(ValueError, match=message):
        run_suite(suite, max_n=MAX_PAIR_N + 1)


def test_ideal_congruence_checks_its_budget_first(monkeypatch):
    monkeypatch.setattr(zeropat.verify, "in_coinvariant_ideal", refuse)
    message = f"ideal-congruence is budgeted for max_n <= {MAX_CHAIN_N}, got 8"
    with pytest.raises(ValueError, match=message):
        run_suite("ideal-congruence", max_n=8)


def test_pairing_degree_mismatch_is_zero():
    assert pair_with_vandermonde(Pattern([(1, 2)]), 3) == 0
    assert pair_with_vandermonde(Pattern(), 2) == 0


def test_pairing_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="grid size must be at least 1, got 0"):
        pair_with_vandermonde(Pattern(), 0)


def test_pairing_rejects_diagonal():
    with pytest.raises(ValueError, match=r"^diagonal position \(1, 1\) in pattern$"):
        pair_with_vandermonde(Pattern([(1, 1), (1, 2), (2, 1)]), 2)
    with pytest.raises(ValueError, match=r"^diagonal position \(2, 2\) in pattern$"):
        pair_with_vandermonde(Pattern([(1, 2), (3, 3), (2, 2)]), 11)


@pytest.mark.parametrize("positions, n, message", [
    ([(1, 2), (3, 1)], 2, r"position \(3, 1\) outside the 2 x 2 grid"),
    ([(1, 1), (4, 1)], 2, r"position \(4, 1\) outside the 2 x 2 grid"),
    ([(12, 1)], 11, r"position \(12, 1\) outside the 11 x 11 grid"),
    ([(1, 2)], 0, "grid size must be at least 1, got 0"),
    ([], -3, "grid size must be at least 1, got -3"),
    ([], 10**6, "pairings are evaluated for n <= 10, got 1000000"),
])
def test_pairing_checks_the_grid_before_the_budget(positions, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        pair_with_vandermonde(Pattern(positions), n)


def test_table_kernel_matches_the_oracle_and_the_residue_path(monkeypatch):
    rng = random.Random(27)
    cases = [(Pattern(), 1), (Pattern(), 2), (Pattern([(1, 2)]), 3), (lam(6), 6)]
    cases += [(random_strict(rng, n), n) for n in range(2, 7) for _ in range(8)]
    table = [pair_with_vandermonde(I, n) for I, n in cases]
    assert table == [pair_with_vandermonde_naive(I, n) for I, n in cases]
    assert table[:4] == [1, 0, 0, lambda_expected(6)] and any(table[4:])
    # without a difference table every n takes the residue path
    constants = zeropat.polynomials._pair_constants
    monkeypatch.setattr(zeropat.polynomials, "_pair_constants",
                        lambda n: (constants(n)[0], None, *constants(n)[2:]))
    assert [pair_with_vandermonde(I, n) for I, n in cases] == table


def test_table_kernel_pairs_a_batch_like_one_call_each():
    rng = random.Random(11)
    for n in range(2, 7):
        patterns = [random_strict(rng, n) for _ in range(6)]
        bits = np.array([[(i - 1) * n + j - 1 for i, j in I] for I in patterns])
        one_by_one = [pair_with_vandermonde(I, n) for I in patterns]
        assert zeropat.polynomials._exact_pairings(bits, n).tolist() == one_by_one
        batch = zeropat.polynomials._exact_pairings(bits.reshape(2, 3, -1), n)
        assert batch.shape == (2, 3) and batch.ravel().tolist() == one_by_one


def test_difference_table_is_cached_and_read_only():
    for n in range(1, MAX_PAIR_N + 1):
        table = zeropat.polynomials._pair_constants(n)[1]
        if n >= 7:
            assert table is None
            continue
        assert table is zeropat.polynomials._pair_constants(n)[1]
        assert not table.flags.writeable
        perms = permutation_table(n)[0]
        assert table.shape == (n * n, math.factorial(n)) and table.dtype == np.int64
        for i, j in itertools.product(range(n), repeat=2):
            assert (table[i * n + j] == perms[:, i].astype(int) - perms[:, j]).all()


def test_pairing_sign_rules():
    rng = random.Random(2)
    n = 5
    for _ in range(25):
        I = random_strict(rng, n)
        v = pair_with_vandermonde(I, n)
        p = random_permutation(rng, n)
        assert pair_with_vandermonde(I.apply_perm(p), n) == perm_sign(p) * v
        assert pair_with_vandermonde(I.transpose(), n) == (-1) ** mu(n) * v


def test_staircase_pairing_example():
    # sigma = identity, i = (-1, 1): the pattern pairs to n at n = 3
    assert pair_with_vandermonde(j_family((1, 2, 3), (-1, 1)), 3) == 3


def test_norms():
    assert norm_squared(ne(3), 3) == 6
    assert norm_squared(Pattern([(1, 2)]), 2) == 2
    assert norm_squared(Pattern(), 2) == 1
    for I, n in chi_inputs():
        f = chi_by_products(I, n)
        assert norm_squared(I, n) == inner(f, f), (I, n)
    with pytest.raises(ValueError):
        norm_squared(Pattern([(2, 2)]), 2)


def test_norm_minimum_over_p4():
    # full scan: the minimum norm is 4! and only the full simple patterns attain it
    best = None
    argmin = []
    cells = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
    for combo in itertools.combinations(cells, 6):
        I = Pattern(combo)
        q = norm_squared(I, 4)
        if best is None or q < best:
            best, argmin = q, [I]
        elif q == best:
            argmin.append(I)
    assert best == 24
    assert len(argmin) == 2 ** mu(4)
    assert all(I.is_simple() for I in argmin)


def test_symmetric_functions():
    assert elementary(2, 3) == Poly(
        3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    )
    assert complete(2, 2) == Poly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert complete(0, 3) == Poly.const(3, 1)
    assert elementary(0, 3) == Poly.const(3, 1)
    with pytest.raises(ValueError):
        elementary(4, 3)
    with pytest.raises(ValueError):
        complete(-1, 3)
    # generating identity: sum_k (-1)^k e_k h_{m-k} = 0 for m >= 1
    n = 4
    for m in (1, 2, 3):
        total = Poly.zero(n)
        for k in range(0, m + 1):
            term = elementary(k, n) * complete(m - k, n)
            total = total + ((-1) ** k) * term
        assert total.is_zero()


def test_diff_apply():
    x1 = Poly.variable(1, 1)
    assert diff_apply(x1, x1 * x1) == 2 * x1
    # derivative of the complete symmetric function: coefficient 1 + d_i
    n, k = 3, 3
    for i in (1, 2, 3):
        lhs = diff_apply(Poly.variable(n, i), complete(k, n))
        rhs = Poly(n, {e: 1 + e[i - 1] for e in complete(k - 1, n).terms})
        assert lhs == rhs


def test_shift():
    x1 = Poly.variable(1, 1)
    assert shift(x1, 1, 2) == Poly.variable(2, 2)
    f = vandermonde(2)
    g = shift(f, 2, 4)
    assert g == Poly.variable(4, 3) - Poly.variable(4, 4)
    # factorization of the full expansion across a block split
    h = Poly.const(4, 1)
    for i in (1, 2):
        for j in (3, 4):
            h = h * (Poly.variable(4, i) - Poly.variable(4, j))
    assert vandermonde(2).extend(4) * shift(vandermonde(2), 2, 4) * h == vandermonde(4)
    with pytest.raises(ValueError):
        shift(vandermonde(2), 3, 4)


def test_ideal_membership():
    assert in_coinvariant_ideal(elementary(1, 3) * Poly.variable(3, 1), 3)
    assert not in_coinvariant_ideal(vandermonde(3), 3)
    assert in_coinvariant_ideal(Poly.zero(3), 3)
    assert not in_coinvariant_ideal(Poly.const(3, 2), 3)
    with pytest.raises(ValueError):
        in_coinvariant_ideal(Poly.variable(2, 1) + Poly.const(2, 1), 2)
    with pytest.raises(ValueError):
        in_coinvariant_ideal(vandermonde(2) ** 3, 2)


def test_ideal_membership_matches_the_pairing_criterion():
    rng = random.Random(3)
    verdicts = []
    for draw in range(300):
        n = rng.randint(2, 5)
        k = rng.randint(1, min(n, mu(n)))
        d = rng.randint(k, mu(n))
        if draw % 2:
            h = random_homogeneous(rng, n, d - k, terms=3, bound=3)
            f = elementary(k, n) * h
        else:
            f = random_homogeneous(rng, n, d, terms=4, bound=3)
        member = in_coinvariant_ideal_by_pairing(f, n)
        assert in_coinvariant_ideal(f, n) == member, (n, f)
        verdicts.append(member)
    assert verdicts.count(True) >= 50
    assert verdicts.count(False) >= 50


def test_derivative_chain():
    # m = 0 is trivially the identity operator
    assert derivative_chain_matches((1, 2, 3), (), 0, 3)
    assert derivative_chain_matches((1, 2, 3), (1, 1), 2, 3)
    with pytest.raises(ValueError):
        derivative_chain_matches((1, 2, 3), (3,), 1, 3)
