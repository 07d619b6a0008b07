"""Exact dimension of the unitary stabilizer of a pattern subspace.

For a proper pattern I the traceless matrices vanishing on I form a subspace
stabilized under conjugation by a closed subgroup of U(n).  The dimension of
that subgroup equals the dimension of its Lie algebra

    {X skew-hermitian : [X, A] stays in the subspace for every A in it},

the kernel of an integer linear system in which every equation pins one
off-diagonal entry of X.  ``stabilizer_dim`` counts the entries left free, so
no elimination and no rank tolerance enter the classification tables; the
system and its exact and floating-point ranks remain here as oracles because
the benchmark patches two of them by name and checks with the float rank.
"""

from __future__ import annotations

import numpy as np

from .patterns import Pattern


def traceless_basis(I: Pattern, n: int) -> list[list[list[int]]]:
    """Integer matrices spanning (over the complex field) the traceless
    matrices vanishing on I: elementary matrices at the free off-diagonal
    cells plus consecutive differences of the free diagonal cells (oracle)."""
    I.check_within(n)
    pos = set(I)
    mats = []
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k != l and (k, l) not in pos:
                M = [[0] * n for _ in range(n)]
                M[k - 1][l - 1] = 1
                mats.append(M)
    free_diag = [i for i in range(1, n + 1) if (i, i) not in pos]
    for a, b in zip(free_diag, free_diag[1:]):
        M = [[0] * n for _ in range(n)]
        M[a - 1][a - 1] = 1
        M[b - 1][b - 1] = -1
        mats.append(M)
    return mats


def _param_index(n: int):
    """Real coordinates on the skew-hermitian matrices: first the n diagonal
    imaginary parts, then (re, im) for each cell above the diagonal."""
    idx = {}
    t = 0
    for k in range(1, n + 1):
        idx[("c", k)] = t
        t += 1
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            idx[("a", k, l)] = t
            idx[("b", k, l)] = t + 1
            t += 2
    return idx, t


def constraint_rows(I: Pattern, n: int) -> list[tuple[int, ...]]:
    """Integer rows of the system whose kernel is the stabilizer algebra.

    For each basis matrix A of the pattern subspace and each position (i, j)
    of I, the entry [X, A]_{ij} must vanish; its real and imaginary parts are
    integer linear forms in the skew-hermitian parameters.  Test oracle.
    """
    idx, nparams = _param_index(n)
    rows: set[tuple[int, ...]] = set()
    positions = list(I)
    for A in traceless_basis(I, n):
        for (i, j) in positions:
            # weight of X_{p,q} inside [X, A]_{ij} = sum_t X_it A_tj - A_it X_tj
            weight: dict[tuple[int, int], int] = {}
            for t in range(1, n + 1):
                w = A[t - 1][j - 1]
                if w:
                    weight[(i, t)] = weight.get((i, t), 0) + w
                w = A[i - 1][t - 1]
                if w:
                    weight[(t, j)] = weight.get((t, j), 0) - w
            re = [0] * nparams
            im = [0] * nparams
            for (p, q), w in weight.items():
                if p == q:
                    im[idx[("c", p)]] += w
                elif p < q:
                    re[idx[("a", p, q)]] += w
                    im[idx[("b", p, q)]] += w
                else:
                    re[idx[("a", q, p)]] -= w
                    im[idx[("b", q, p)]] += w
            for row in (re, im):
                if any(row):
                    # canonical sign so duplicate constraints collapse
                    for v in row:
                        if v:
                            if v < 0:
                                row = [-x for x in row]
                            break
                    rows.add(tuple(row))
    return sorted(rows)


def integer_rank(rows, ncols: int) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination; with
    ``constraint_rows``, the test oracle for ``stabilizer_dim``."""
    m = [list(r) for r in rows]
    rank = 0
    prev = 1
    top = 0
    for col in range(ncols):
        piv = None
        for r in range(top, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        pr = m[top]
        pv = pr[col]
        # every row below is updated, even with a zero multiplier: the
        # fraction-free scheme needs the uniform rescaling for later
        # divisions to stay exact
        for r in range(top + 1, len(m)):
            row = m[r]
            f = row[col]
            for c in range(col + 1, ncols):
                row[c] = (row[c] * pv - f * pr[c]) // prev
            row[col] = 0
        prev = pv
        top += 1
        rank += 1
        if top == len(m):
            break
    return rank


def stabilizer_dim(I: Pattern, n: int) -> int:
    """Real dimension of the stabilizer of the pattern subspace in U(n).

    The subspace is spanned by E_kl at free off-diagonal cells and E_aa - E_bb
    at free diagonal cells.  At (i, j) in I, [X, E_kl]_{ij} is X_ik [j = l]
    or -X_lj [i = k], never both, and [X, E_aa - E_bb]_{ij} is a multiple of
    X_ij, nonzero when {i, j} meets {a, b}.  So each equation pins one
    off-diagonal X_pq, and X_qp = -conj(X_pq) with it: when (p, j) is in I
    and (q, j) is free for some j != q; when (i, q) is in I and (i, p) is
    free for some i != p; or when (p, q) is in I and p or q is one of at
    least two free diagonal cells.  The dimension is n plus 2 per pair
    {p, q} with neither entry pinned.  For a strict I, whose diagonal is
    free, those are the twin pairs: (p, q), (q, p) not in I, and rows and
    columns p and q of I agree, so swapping p and q fixes I.  As
    n^2 - 2 mu(n) = n, a strict maximal I is defective iff it has one.
    """
    # 0-based: bit q of free_rows[p] (free_cols[p]) is set when cell (p, q)
    # ((q, p)) is off the diagonal and not in I, bit p of free_diag when cell
    # (p, p) is not in I, and bit q of pins[p] when X_pq or X_qp is pinned
    cells = [(i - 1, j - 1) for i, j in I if i <= n and j <= n]
    if len(cells) < len(I) or n < 1:
        I.check_within(n)  # raises, naming n or a position outside the grid
    free_diag = (1 << n) - 1
    free_rows = [free_diag ^ (1 << p) for p in range(n)]
    free_cols = free_rows.copy()
    for i, j in cells:
        free_rows[i] &= ~(1 << j)
        free_cols[j] &= ~(1 << i)
        if i == j:
            free_diag ^= 1 << i
    if not free_diag:
        raise ValueError("stabilizer dimension needs a proper pattern")
    pins = [0] * n
    for i, j in cells:
        pins[i] |= free_cols[j]
        pins[j] |= free_rows[i]
        if free_diag & (free_diag - 1) and free_diag & (1 << i | 1 << j):
            pins[i] |= 1 << j
    free = 0
    for p in range(n):
        rest = ~pins[p] & (1 << n) - (2 << p)  # q > p with X_pq not pinned from p
        while rest:
            free += not pins[(rest & -rest).bit_length() - 1] >> p & 1
            rest &= rest - 1
    return n + 2 * free


def is_defective(I: Pattern, n: int) -> bool:
    """True when the stabilizer dimension exceeds n^2 - 2|I|; such patterns
    cannot be universal."""
    return stabilizer_dim(I, n) > n * n - 2 * len(I)


def float_system_rank(I: Pattern, n: int) -> int:
    """Floating-point rank of the same system, singular values above 1e-8;
    the benchmark's oracle."""
    rows = constraint_rows(I, n)
    if not rows:
        return 0
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float), tol=1e-8))
