"""Test-only oracles and the helpers several test files share.

``src/zeropat`` keeps only what the command line, the verification suites,
``zeropat.__all__`` or the benchmark call.  Everything else that the tests
need lives here: slow independent implementations that a test compares a
package path against, and small generators of test inputs.

* ``pair_with_vandermonde_naive`` checks ``polynomials.pair_with_vandermonde``;
* ``weak_classes_by_flip_bfs`` checks ``classify.weak_canonical_form``.
"""

from __future__ import annotations

from zeropat.classify import enumerate_strict
from zeropat.patterns import Pattern, mu
from zeropat.polynomials import chi, inner, vandermonde


def transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
    return tuple(p)


def random_permutation(rng, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def pair_with_vandermonde_naive(I: Pattern, n: int) -> int:
    """Full expansion of chi(I), then the inner product with the expanded
    Vandermonde polynomial."""
    if len(I) != mu(n):
        return 0
    return inner(chi(I, n), vandermonde(n))


def weak_classes_by_flip_bfs(n: int) -> dict[int, int]:
    """Partition of the strict size-mu(n) patterns by closure under flips and
    adjacent relabelings, computed by exhaustive union-find: an independent
    check of the multiplicity-vector encoding that the orbit engine computes;
    budgeted for n <= 4."""
    if not 2 <= n <= 4:
        raise ValueError("exhaustive flip closure is budgeted for n <= 4")
    masks = []
    mask_index = {}
    for I in enumerate_strict(n):
        m = I.mask(n)
        mask_index[m] = len(masks)
        masks.append((m, I))
    parent = list(range(len(masks)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    gens = [transposition(n, i, i + 1) for i in range(1, n)]
    for idx, (m, I) in enumerate(masks):
        for g in gens:
            union(idx, mask_index[I.apply_perm(g).mask(n)])
        for (i, j) in I:
            if (j, i) not in I:
                union(idx, mask_index[I.flip((i, j)).mask(n)])
    out = {}
    for idx, (m, _) in enumerate(masks):
        out[m] = find(idx)
    return out
