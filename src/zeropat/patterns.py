"""Zero patterns of complex square matrices.

A pattern is a finite set of 1-based matrix positions (i, j); requiring the
entries at those positions to vanish carves a linear subspace out of the
traceless n x n matrices.  The ambient size n is never stored on a pattern.
Every size-dependent operation takes n explicitly, so the same strict pattern
stays meaningful for all larger sizes.

Patterns are immutable, hashable value objects.  For n <= 8 a pattern embeds
into a 64-bit occupancy mask over the n x n grid; the mask is the encoding
used for orbit enumeration and canonical forms.

Permutations of {1..n} are represented as tuples of images, 1-based:
``p[i-1]`` is the image of i.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

Position = tuple[int, int]


def mu(n: int) -> int:
    """Number of positions strictly above the diagonal of an n x n grid."""
    return n * (n - 1) // 2


class Pattern:
    """An immutable finite set of 1-based matrix positions."""

    __slots__ = ("_positions",)

    def __init__(self, positions: Iterable[Sequence[int]] = ()):
        pos = set()
        for p in positions:
            i, j = p
            if not isinstance(i, int) or not isinstance(j, int):
                raise TypeError(f"positions must be pairs of ints, got {p!r}")
            if i < 1 or j < 1:
                raise ValueError(f"position indices are 1-based, got {p!r}")
            pos.add((i, j))
        self._positions = frozenset(pos)

    @property
    def positions(self) -> tuple[Position, ...]:
        return tuple(sorted(self._positions))

    def __iter__(self):
        return iter(sorted(self._positions))

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, p) -> bool:
        return tuple(p) in self._positions

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._positions == other._positions

    def __hash__(self) -> int:
        return hash(self._positions)

    def __repr__(self) -> str:
        return f"Pattern({list(self.positions)!r})"

    # -- basic predicates ---------------------------------------------------

    def is_strict(self) -> bool:
        """True when the pattern holds no diagonal position."""
        return all(i != j for i, j in self._positions)

    def is_proper(self, n: int) -> bool:
        """True when at least one diagonal position of the n x n grid is free."""
        self.check_within(n)
        return any((i, i) not in self._positions for i in range(1, n + 1))

    def is_simple(self) -> bool:
        """True when no position occurs together with its mirror."""
        return all((j, i) not in self._positions for i, j in self._positions)

    def complexity(self) -> int:
        """Number of unordered pairs {i, j}, i <= j, doubled in the pattern."""
        return sum(
            1
            for i, j in self._positions
            if i <= j and (j, i) in self._positions
        )

    def check_within(self, n: int) -> None:
        for i, j in self._positions:
            if i > n or j > n:
                raise ValueError(f"position {(i, j)} outside the {n} x {n} grid")

    # -- transformations ----------------------------------------------------

    def transpose(self) -> "Pattern":
        return Pattern((j, i) for i, j in self._positions)

    def apply_perm(self, perm: Sequence[int]) -> "Pattern":
        """Relabel rows and columns simultaneously by a permutation of {1..n}."""
        if not is_permutation(perm):
            raise ValueError(f"not a permutation: {perm!r}")
        n = len(perm)
        self.check_within(n)
        return Pattern((perm[i - 1], perm[j - 1]) for i, j in self._positions)

    def flip(self, p: Sequence[int]) -> "Pattern":
        """Replace position p by its mirror; p must be present, its mirror absent."""
        i, j = p
        if (i, j) not in self._positions:
            raise ValueError(f"flip not allowed: {(i, j)} not in pattern")
        if (j, i) in self._positions:
            raise ValueError(f"flip not allowed: mirror {(j, i)} already present")
        return Pattern((self._positions - {(i, j)}) | {(j, i)})

    def translate(self, offset: Sequence[int]) -> "Pattern":
        di, dj = offset
        moved = [(i + di, j + dj) for i, j in self._positions]
        if any(i < 1 or j < 1 for i, j in moved):
            raise ValueError(f"translate by {(di, dj)} leaves the positive grid")
        return Pattern(moved)

    # -- encodings ----------------------------------------------------------

    def mask(self, n: int) -> int:
        """Occupancy bitmask over the n x n grid, bit (i-1)*n + (j-1)."""
        self.check_within(n)
        m = 0
        for i, j in self._positions:
            m |= 1 << ((i - 1) * n + (j - 1))
        return m

    @staticmethod
    def from_mask(mask: int, n: int) -> "Pattern":
        """The pattern whose occupancy bitmask over the n x n grid is the
        Python int ``mask``, the inverse of ``mask(n)``.  Only the set bits
        are visited, and their positions are valid by construction, so the
        checks of ``Pattern(...)`` are skipped."""
        pos = []
        while mask:
            low = mask & -mask
            i, j = divmod(low.bit_length() - 1, n)
            pos.append((i + 1, j + 1))
            mask ^= low
        I = Pattern.__new__(Pattern)
        I._positions = frozenset(pos)
        return I

    def to_json(self) -> list[list[int]]:
        return [[i, j] for i, j in self.positions]

    @staticmethod
    def from_json(data) -> "Pattern":
        """The pattern of a JSON list of [i, j] pairs of ints (not bools)."""
        if not isinstance(data, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p)
            for p in data
        ):
            raise ValueError(f"a pattern is a JSON list of [i, j] pairs of ints, got {data!r}")
        return Pattern(data)


def block_extend(I: Pattern, J: Pattern, n: int, m: int) -> Pattern:
    """Assemble the block pattern I on the leading n x n corner, J shifted to
    the trailing (m-n) x (m-n) corner, and the full upper right n x (m-n) block.
    """
    if m <= n:
        raise ValueError(f"need m > n, got n={n}, m={m}")
    I.check_within(n)
    J.check_within(m - n)
    block = [(i, n + j) for i in range(1, n + 1) for j in range(1, m - n + 1)]
    out = Pattern(list(I) + list(J.translate((n, n))) + block)
    assert len(out) == len(I) + len(J) + n * (m - n)
    return out


# -- permutations as tuples of 1-based images --------------------------------


def is_permutation(perm: Sequence[int]) -> bool:
    n = len(perm)
    return sorted(perm) == list(range(1, n + 1))


def perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


# -- pattern families ---------------------------------------------------------


def delta(n: int) -> Pattern:
    """The diagonal positions of the n x n grid."""
    return Pattern((i, i) for i in range(1, n + 1))


def ne(n: int) -> Pattern:
    """Strictly upper triangular positions."""
    return Pattern((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def sw(n: int) -> Pattern:
    """Strictly lower triangular positions."""
    return ne(n).transpose()


def nw(n: int) -> Pattern:
    """Positions above the antidiagonal, i + j < n + 1."""
    return Pattern(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i + j < n + 1
    )


def se(n: int) -> Pattern:
    """Positions below the antidiagonal, i + j > n + 1."""
    return Pattern(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i + j > n + 1
    )


def lam(n: int) -> Pattern:
    """The maximal-complexity triangular modification, size mu(n).

    Start from all off-diagonal positions with i + j <= n + 1, remove the
    antidiagonal pairs (2i-1, n-2i+1) and (n-2i+1, 2i-1) for 1 <= i <= n//4,
    and when n mod 4 is 2 or 3 also remove (2m+2, 2m+1) with m = n//4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m, r = divmod(n, 4)
    pos = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and i + j <= n + 1
    }
    for i in range(1, m + 1):
        pos.discard((2 * i - 1, n - 2 * i + 1))
        pos.discard((n - 2 * i + 1, 2 * i - 1))
    if r in (2, 3):
        pos.discard((2 * m + 2, 2 * m + 1))
    out = Pattern(pos)
    assert len(out) == mu(n)
    return out


def j_core_half(n: int) -> Pattern:
    """Rows 1 and 2 band: {(1,2), (1,n-1), (2,n)} plus {1,2} x {3..n-2}."""
    if n < 4:
        raise ValueError("defined for n >= 4")
    pos = {(1, 2), (1, n - 1), (2, n)}
    pos.update((a, b) for a in (1, 2) for b in range(3, n - 1))
    return Pattern(pos)


def j_core(n: int) -> Pattern:
    """The doubled two-row band, j_core_half(n) together with its transpose."""
    half = j_core_half(n)
    out = Pattern(list(half) + list(half.transpose()))
    assert len(out) == 2 * len(half)
    return out


def lam_prime(n: int) -> Pattern:
    """Recursive companion of lam(n): the doubled two-row band around a
    shifted copy of lam_prime(n-4).  A product of disjoint transpositions
    carries it onto lam(n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 1:
        return Pattern()
    if n == 2:
        return Pattern([(1, 2)])
    if n == 3:
        return Pattern([(2, 1), (2, 3), (3, 2)])
    inner = lam_prime(n - 4).translate((2, 2))
    out = Pattern(list(j_core(n)) + list(inner))
    assert len(out) == mu(n)
    return out


def pi_family(n: int) -> Pattern:
    """The antitriangular modification: off-diagonal i + j <= n positions plus
    the upper half of the antidiagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pos = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n and i != j}
    pos.update((i, n - i + 1) for i in range(1, n + 1) if 2 * i <= n)
    out = Pattern(pos)
    assert len(out) == mu(n)
    return out


def j_family(sigma: Sequence[int], ivec: Sequence[int]) -> Pattern:
    """Staircase pattern driven by a permutation and a signed row sequence.

    For each k < j the position is (i_k, sigma(j)) when i_k > 0 and
    (sigma(j), -i_k) when i_k < 0.  The i_k must be distinct nonzero integers
    with |i_k| among {sigma(1), ..., sigma(k)}; this forces the pattern to be
    strict of size mu(n).
    """
    sigma = tuple(sigma)
    if not is_permutation(sigma):
        raise ValueError(f"sigma is not a permutation: {sigma!r}")
    n = len(sigma)
    ivec = tuple(ivec)
    if len(ivec) != n - 1:
        raise ValueError(f"need {n - 1} row indices, got {len(ivec)}")
    if any(v == 0 for v in ivec):
        raise ValueError("row indices must be nonzero")
    if len(set(ivec)) != len(ivec):
        raise ValueError("row indices must be distinct")
    for k, v in enumerate(ivec, start=1):
        if abs(v) not in set(sigma[:k]):
            raise ValueError(
                f"|i_{k}| = {abs(v)} is not among the first {k} images of sigma"
            )
    pos = set()
    for k in range(1, n):
        ik = ivec[k - 1]
        for j in range(k + 1, n + 1):
            if ik > 0:
                pos.add((ik, sigma[j - 1]))
            else:
                pos.add((sigma[j - 1], -ik))
    out = Pattern(pos)
    assert len(out) == mu(n) and out.is_strict()
    return out


def j_hessenberg(k: int, n: int) -> Pattern:
    """Hessenberg-band pattern: everything above the first superdiagonal, the
    first k entries of the last row, and the tail of the first column."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n - 1, got k={k}, n={n}")
    pos = set(ne(n - 1).translate((0, 1)))
    pos.update((n, c) for c in range(1, k + 1))
    pos.update((i, 1) for i in range(k + 1, n))
    out = Pattern(pos)
    assert len(out) == mu(n)
    return out


def cyclic3() -> Pattern:
    """The 3 x 3 cyclic pattern {(1,3), (2,1), (3,2)}."""
    return Pattern([(1, 3), (2, 1), (3, 2)])


_SIMPLE_FAMILIES = {
    "delta": delta,
    "ne": ne,
    "sw": sw,
    "nw": nw,
    "se": se,
    "lambda": lam,
    "lambdap": lam_prime,
    "pi": pi_family,
    "jn": j_core,
    "jnp": j_core_half,
}


def parse_family(text: str) -> tuple[Pattern, int]:
    """Parse a family spec like 'lambda:5', 'jkn:2,5', 'cyclic', or
    'jfam:sigma=[1,3,2],i=[1,-1]'; returns (pattern, ambient n)."""
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    rest = rest.strip()
    if name == "cyclic":
        if rest not in ("", "3"):
            raise ValueError(f"the cyclic pattern is 3 x 3, got {text!r}")
        return cyclic3(), 3
    if name == "jfam":
        params = _parse_kv_ints(rest)
        if sorted(params) != ["i", "sigma"]:
            raise ValueError("jfam spec is 'jfam:sigma=[...],i=[...]'")
        return j_family(params["sigma"], params["i"]), len(params["sigma"])
    if name == "jkn":
        parts = [p for p in rest.split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError("jkn spec is 'jkn:k,n'")
        n = int(parts[1])
        return j_hessenberg(int(parts[0]), n), n
    if name not in _SIMPLE_FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    if not rest:
        raise ValueError(f"family spec {text!r} is missing ':n'")
    n = int(rest)
    return _SIMPLE_FAMILIES[name](n), n


def _parse_kv_ints(text: str) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    depth = 0
    chunk = ""
    chunks = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append(chunk)
            chunk = ""
        else:
            chunk += ch
    if chunk:
        chunks.append(chunk)
    for c in chunks:
        key, _, val = c.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"key {key!r} is given twice")
        val = val.strip().strip("[]")
        out[key] = [int(v) for v in val.split(",") if v.strip()]
    return out
