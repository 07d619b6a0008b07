"""Exact polynomial arithmetic, pairings, and the differential identities."""

import itertools
import math
import random

import pytest

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
    Poly,
    chi,
    complete,
    compositions,
    derivative_chain_matches,
    diff_apply,
    elementary,
    in_coinvariant_ideal,
    inner,
    norm_squared,
    pair_with_vandermonde,
    permutation_table,
    shift,
    staircase_coefficient,
    vandermonde,
)
from zeropat.verify import double_factorial, lambda_expected, random_strict

from oracles import pair_with_vandermonde_naive, random_permutation


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


def test_chi():
    assert chi(ne(3), 3) == vandermonde(3)
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


def test_staircase_coefficient():
    assert staircase_coefficient((1, 0)) == 1
    assert staircase_coefficient((0, 1)) == -1
    assert staircase_coefficient((2, 1, 0)) == 1
    assert staircase_coefficient((1, 1, 1)) == 0
    assert staircase_coefficient((3, 1, 0)) == 0
    V = vandermonde(4)
    for e, c in V.terms.items():
        assert staircase_coefficient(e) == c


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


def test_permutation_table():
    for n in range(7):
        perms, signs = permutation_table(n)
        assert perms.tolist() == [list(p) for p in itertools.permutations(range(n))]
        assert signs.tolist() == [perm_sign([v + 1 for v in p]) for p in perms]
        assert not perms.flags.writeable and not signs.flags.writeable


def test_pairing_top_of_range():
    assert pair_with_vandermonde(lam(9), 9) == lambda_expected(9) == 90720
    assert pair_with_vandermonde(pi_family(9), 9) == double_factorial(9)
    with pytest.raises(ValueError, match="n <= 10"):
        pair_with_vandermonde(lam(11), 11)


def test_pairing_degree_mismatch_is_zero():
    assert pair_with_vandermonde(Pattern([(1, 2)]), 3) == 0
    assert pair_with_vandermonde(Pattern(), 2) == 0


def test_pairing_rejects_diagonal():
    with pytest.raises(ValueError):
        pair_with_vandermonde(Pattern([(1, 1), (1, 2), (2, 1)]), 2)


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
    rng = random.Random(4)
    for _ in range(20):
        I = random_strict(rng, 4)
        assert norm_squared(I, 4) == inner(chi(I, 4), chi(I, 4))


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


def test_compositions():
    assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions(4, 3))) == 15


def test_diff_apply():
    x1 = Poly.variable(1, 1)
    assert diff_apply(x1, x1 * x1) == 2 * x1
    # derivative of the complete symmetric function: coefficient 1 + d_i
    n, k = 3, 3
    for i in (1, 2, 3):
        lhs = diff_apply(Poly.variable(n, i), complete(k, n))
        rhs = Poly(n, {e: 1 + e[i - 1] for e in compositions(k - 1, n)})
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


def test_derivative_chain():
    # m = 0 is trivially the identity operator
    assert derivative_chain_matches((1, 2, 3), (), 0, 3)
    assert derivative_chain_matches((1, 2, 3), (1, 1), 2, 3)
    with pytest.raises(ValueError):
        derivative_chain_matches((1, 2, 3), (3,), 1, 3)
