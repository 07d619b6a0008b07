"""Pattern operations, group actions, and the named families."""

import random

import pytest

from zeropat.patterns import (
    Pattern,
    block_extend,
    cyclic3,
    delta,
    j_core,
    j_core_half,
    j_family,
    j_hessenberg,
    lam,
    lam_prime,
    mu,
    ne,
    nw,
    parse_family,
    perm_sign,
    pi_family,
    se,
    sw,
)
from zeropat.verify import random_strict

from oracles import random_permutation


def test_position_validation():
    with pytest.raises(ValueError):
        Pattern([(0, 1)])
    with pytest.raises(TypeError):
        Pattern([(1.5, 2)])
    assert len(Pattern([(1, 2), (1, 2)])) == 1


def test_transpose_basics():
    assert Pattern([(1, 2)]).transpose() == Pattern([(2, 1)])
    assert ne(3).transpose() == sw(3)
    rng = random.Random(0)
    for _ in range(20):
        I = random_strict(rng, 4)
        assert I.transpose().transpose() == I


def test_lambda_symmetry_rule():
    # symmetric exactly when n mod 4 is 0 or 1
    for n in range(1, 9):
        assert (lam(n).transpose() == lam(n)) == (n % 4 in (0, 1)), n


def test_strict_proper_simple():
    assert not Pattern([(1, 1)]).is_strict()
    assert ne(4).is_strict()
    assert not delta(3).is_strict()
    assert not delta(3).is_proper(3)
    assert Pattern([(1, 1), (2, 2)]).is_proper(3)
    assert Pattern().is_proper(2)
    with pytest.raises(ValueError):
        Pattern([(4, 1)]).is_proper(3)
    assert ne(4).is_simple()
    assert not Pattern([(1, 2), (2, 1)]).is_simple()
    assert not pi_family(4).is_simple()


def test_complexity():
    assert ne(4).complexity() == 0
    assert Pattern([(1, 2), (2, 1), (1, 3)]).complexity() == 1
    assert delta(3).complexity() == 3
    for n in range(2, 8):
        assert lam(n).complexity() == mu(n) // 2, n


def test_complexity_invariance():
    rng = random.Random(1)
    for _ in range(30):
        I = random_strict(rng, 5)
        p = random_permutation(rng, 5)
        assert I.apply_perm(p).complexity() == I.complexity()
        assert I.transpose().complexity() == I.complexity()


def test_apply_perm():
    I = Pattern([(1, 2)])
    assert I.apply_perm((2, 1)) == Pattern([(2, 1)])
    assert I.apply_perm((1, 2)) == I
    rng = random.Random(2)
    for _ in range(30):
        I = random_strict(rng, 5)
        p = random_permutation(rng, 5)
        q = random_permutation(rng, 5)
        p_after_q = tuple(p[q[i] - 1] for i in range(5))
        assert I.apply_perm(q).apply_perm(p) == I.apply_perm(p_after_q)
    with pytest.raises(ValueError):
        I.apply_perm((1, 1))


def test_perm_helpers():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1


def test_lambda_prime_maps_onto_lambda():
    for n in range(2, 8):
        s = (n + 1) // 4
        p = list(range(1, n + 1))
        for t in range(1, s + 1):
            p[2 * t - 2], p[2 * t - 1] = p[2 * t - 1], p[2 * t - 2]
        assert lam_prime(n).apply_perm(tuple(p)) == lam(n), n


def test_flip():
    assert Pattern([(1, 2)]).flip((1, 2)) == Pattern([(2, 1)])
    with pytest.raises(ValueError):
        Pattern([(1, 2), (2, 1)]).flip((1, 2))
    with pytest.raises(ValueError):
        Pattern([(1, 2)]).flip((2, 1))
    I = sw(3)
    for p in [(2, 1), (3, 1), (3, 2)]:
        I = I.flip(p)
    assert I == ne(3)


def test_flip_preserves_pair_multiset():
    rng = random.Random(3)
    for _ in range(30):
        I = random_strict(rng, 5)
        flippable = [p for p in I if (p[1], p[0]) not in I]
        if not flippable:
            continue
        p = rng.choice(flippable)
        J = I.flip(p)
        assert len(J) == len(I)
        def multiset(K):
            return sorted(
                (min(i, j), max(i, j)) for i, j in K
            )
        assert multiset(J) == multiset(I)


def test_translate():
    I = Pattern([(1, 2)])
    assert I.translate((0, 0)) == I
    assert I.translate((2, 2)) == Pattern([(3, 4)])
    with pytest.raises(ValueError):
        I.translate((-1, 0))


def test_block_extend():
    assert block_extend(ne(2), Pattern(), 2, 3) == ne(3)
    I = block_extend(Pattern([(1, 2)]), Pattern([(2, 1)]), 2, 4)
    assert len(I) == 1 + 1 + 4 == mu(4)
    assert I.is_strict()
    with pytest.raises(ValueError):
        block_extend(ne(2), Pattern(), 2, 2)


def test_triangular_families():
    assert nw(3) == Pattern([(1, 1), (1, 2), (2, 1)])
    assert se(3) == Pattern([(3, 3), (2, 3), (3, 2)])
    assert len(ne(5)) == len(sw(5)) == mu(5)


def test_lambda_displays():
    # frozen zero sets of the displayed matrices for n = 4..7
    assert lam(4) == Pattern([(1, 2), (1, 4), (2, 1), (2, 3), (3, 2), (4, 1)])
    assert lam(5) == Pattern(
        [(1, 2), (1, 3), (1, 5), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (4, 2), (5, 1)]
    )
    assert lam(6) == Pattern(
        [(1, 2), (1, 3), (1, 4), (1, 6), (2, 1), (2, 3), (2, 4), (2, 5),
         (3, 1), (3, 2), (3, 4), (4, 1), (4, 2), (5, 2), (6, 1)]
    )
    assert lam(7) == Pattern(
        [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (2, 1), (2, 3), (2, 4),
         (2, 5), (2, 6), (3, 1), (3, 2), (3, 4), (3, 5), (4, 1), (4, 2),
         (5, 1), (5, 2), (5, 3), (6, 2), (7, 1)]
    )


def test_pi_display():
    assert pi_family(5) == Pattern(
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)]
    )
    assert pi_family(2) == Pattern([(1, 2)])


def test_j_core():
    assert j_core_half(4) == Pattern([(1, 2), (1, 3), (2, 4)])
    assert j_core(4) == Pattern([(1, 2), (2, 1), (1, 3), (3, 1), (2, 4), (4, 2)])
    assert len(j_core(n := 6)) == 4 * n - 10


def test_staircase_family():
    # direct application of the signed-position rule for n = 3
    assert j_family((1, 2, 3), (-1, 1)) == Pattern([(2, 1), (3, 1), (1, 3)])
    rng = random.Random(4)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            sigma = random_permutation(rng, n)
            used = set()
            ivec = []
            for k in range(1, n):
                cands = [s * v for v in sigma[:k] for s in (1, -1) if s * v not in used]
                pick = rng.choice(cands)
                used.add(pick)
                ivec.append(pick)
            J = j_family(sigma, tuple(ivec))
            assert len(J) == mu(n)
            assert J.is_strict()
            assert j_family(sigma, tuple(-v for v in ivec)) == J.transpose()


def test_staircase_validation():
    with pytest.raises(ValueError):
        j_family((1, 2), (2,))  # |i_1| = 2 not among first image
    with pytest.raises(ValueError):
        j_family((1, 2, 3), (1, 1))  # repeated value
    with pytest.raises(ValueError):
        j_family((1, 2, 3), (0, 1))  # zero not allowed


def test_pi_is_staircase_instance():
    def interleave_perm(n):
        """The permutation 1, n, 2, n-1, ... sending 2k-1 to k and 2k to n+1-k."""
        p = [0] * n
        for k in range(1, n // 2 + 1):
            p[2 * k - 1 - 1] = k
            p[2 * k - 1] = n + 1 - k
        if n % 2:
            p[n - 1] = (n + 1) // 2
        return tuple(p)

    def alternating_rows(n):
        """The signed sequence 1, -1, 2, -2, ... of length n - 1."""
        out = []
        k = 1
        while len(out) < n - 1:
            out.append(k)
            if len(out) < n - 1:
                out.append(-k)
            k += 1
        return tuple(out)

    for n in (4, 5, 6):
        assert pi_family(n) == j_family(interleave_perm(n), alternating_rows(n))


def test_hessenberg_family():
    for n in range(3, 8):
        for k in range(1, n):
            J = j_hessenberg(k, n)
            assert len(J) == mu(n)
            assert J.is_strict()
    with pytest.raises(ValueError):
        j_hessenberg(0, 4)
    with pytest.raises(ValueError):
        j_hessenberg(4, 4)


def test_cyclic():
    assert cyclic3() == Pattern([(1, 3), (2, 1), (3, 2)])


def test_mask_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        I = random_strict(rng, 5)
        assert Pattern.from_mask(I.mask(5), 5) == I
    for n in range(2, 9):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for I in (Pattern(), Pattern(cells), random_strict(rng, n)):
            mask = I.mask(n)
            J = Pattern.from_mask(mask, n)
            assert J == I and hash(J) == hash(I) and J.mask(n) == mask
        for _ in range(10):
            mask = rng.getrandbits(n * n)
            assert Pattern.from_mask(mask, n).mask(n) == mask


def test_family_parsing():
    I, n = parse_family("lambda:5")
    assert I == lam(5) and n == 5
    I, n = parse_family("jkn:2,5")
    assert I == j_hessenberg(2, 5) and n == 5
    I, n = parse_family("jfam:sigma=[1,2,3],i=[-1,1]")
    assert I == j_family((1, 2, 3), (-1, 1)) and n == 3
    I, n = parse_family("cyclic")
    assert I == cyclic3() and n == 3
    with pytest.raises(ValueError):
        parse_family("lambda")
    with pytest.raises(ValueError):
        parse_family("nonesuch:3")
    with pytest.raises(ValueError):
        parse_family("cyclic:7")
    with pytest.raises(ValueError):
        parse_family("jfam:sigma=[1,3,2],i=[1,-1],bogus=[9]")
    with pytest.raises(ValueError):
        parse_family("jfam:sigma=[1,3,2],i=[1,-1],i=[1,-1]")


def test_json_roundtrip():
    I = cyclic3()
    assert Pattern.from_json(I.to_json()) == I
