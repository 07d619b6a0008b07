"""Exact sparse multivariate polynomials over the integers.

Supplies the machinery behind the nonsingularity test for zero patterns:
difference products of patterns, the Vandermonde expansion and the pairing
with it (evaluated over a table of permutations, not expanded), the inner
product that makes monomials orthonormal, symmetric functions,
apolarity-style differential operators, and membership in the ideal
generated by the nonconstant elementary symmetric functions.

Polynomials are dicts from exponent tuples to big integers; they are treated
as immutable values after construction.  Everything here is exact, there is
no floating point in this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

import numpy as np

from .patterns import Pattern, mu, perm_sign


class Poly:
    """Sparse polynomial in ``nvars`` variables with integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError(f"exponent vector {e} has wrong length")
                if c:
                    clean[e] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c: int) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff: int = 1) -> "Poly":
        return Poly(nvars, {tuple(exps): coeff})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        """The variable x_i, 1-based."""
        e = [0] * nvars
        e[i - 1] = 1
        return Poly(nvars, {tuple(e): 1})

    # -- ring operations ------------------------------------------------------

    def _require_same(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable counts differ: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.nvars, other)
        self._require_same(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Poly(self.nvars)
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._require_same(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def extend(self, new_nvars: int) -> "Poly":
        if new_nvars < self.nvars:
            raise ValueError("cannot shrink the variable count")
        pad = (0,) * (new_nvars - self.nvars)
        return Poly(new_nvars, {e + pad: c for e, c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        def key(e):
            return (sum(e), tuple(-x for x in e))
        parts = []
        for e in sorted(self.terms, key=key, reverse=True):
            c = self.terms[e]
            mon = "*".join(
                f"x{i+1}" if p == 1 else f"x{i+1}^{p}"
                for i, p in enumerate(e)
                if p
            )
            if not mon:
                parts.append(f"{c:+d}")
            elif c == 1:
                parts.append(f"+{mon}")
            elif c == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c:+d}*{mon}")
        s = " ".join(parts)
        return s[1:] if s.startswith("+") else s

    __repr__ = __str__


# -- core constructions --------------------------------------------------------


@functools.cache
def permutation_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(n), one per row in lexicographic order, and
    their signs; cached and read-only.  Each size prefixes f to the rows p of
    the last (shifted past f), with sign (-1)^f times the sign of p."""
    perms, signs = np.zeros((1, 0), dtype=np.int8), np.ones(1, dtype=np.int8)
    for m in range(1, n + 1):
        perms = np.concatenate([
            np.column_stack([np.full(len(perms), f, dtype=np.int8), perms + (perms >= f)])
            for f in range(m)
        ])
        signs = np.concatenate([signs * (-1) ** f for f in range(m)])
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


def vandermonde(n: int) -> Poly:
    """Expansion of the product of x_i - x_j over all i < j in n variables.

    n! terms with coefficients +-1; the coefficient of the monomial with
    exponents (n-1, n-2, ..., 0) pushed through a permutation is its sign.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    perms, signs = permutation_table(n)
    exps = np.empty_like(perms)
    np.put_along_axis(exps, perms.astype(np.intp), np.arange(n - 1, -1, -1), axis=1)
    return Poly(n, {tuple(map(int, e)): int(s) for e, s in zip(exps, signs)})


def chi(I: Pattern, n: int) -> Poly:
    """Product of the differences x_i - x_j over the positions of I.

    Diagonal positions are rejected; the zero polynomial is never returned
    silently.
    """
    I.check_within(n)
    out = Poly.const(n, 1)
    for i, j in I:
        if i == j:
            raise ValueError(f"diagonal position {(i, j)}: the product vanishes")
        out = out * (Poly.variable(n, i) - Poly.variable(n, j))
    return out


def inner(f: Poly, g: Poly) -> int:
    """Inner product that makes the monomials orthonormal."""
    f._require_same(g)
    if len(f.terms) > len(g.terms):
        f, g = g, f
    return sum(c * g.terms.get(e, 0) for e, c in f.terms.items())


def staircase_coefficient(exps: Sequence[int]) -> int:
    """Coefficient of the given monomial in vandermonde(n): the sign of the
    permutation when the exponents are a permutation of {0..n-1}, else 0."""
    n = len(exps)
    if sorted(exps) != list(range(n)):
        return 0
    # x_t carries exponent n - sigma^-1(t) in sigma's term; inverses share signs
    return perm_sign([n - e for e in exps])


#: the pairing sums over a table of all n! permutations, 10! rows at most
MAX_PAIR_N = 10
#: |pairing| <= sum of |coefficients of chi(I)| <= 2^mu(n), below half their
#: product for n <= 11, so the residues determine the pairing
_PRIMES = (2**31 - 1, 2**31 - 19)


def pair_with_vandermonde(I: Pattern, n: int) -> int:
    """Exact inner product of chi(I) with vandermonde(n), for n <= MAX_PAIR_N.

    Antisymmetrized, chi(I) becomes the pairing times vandermonde(n); both
    evaluated at (0, 1, ..., n-1) give

        pairing = sum_sigma sgn(sigma) prod_{(i,j) in I} (sigma(i) - sigma(j))
                  / prod_{i<j} (i - j),

    summed over the permutation table modulo two primes and recombined by the
    Chinese remainder theorem.  A pattern whose size differs from mu(n)
    pairs to zero by homogeneity.
    """
    I.check_within(n)
    for i, j in I:
        if i == j:
            raise ValueError(f"diagonal position {(i, j)} in pattern")
    if n > MAX_PAIR_N:
        raise ValueError(f"pairings are evaluated for n <= {MAX_PAIR_N}, got {n}")
    if len(I) != mu(n):
        return 0
    perms, signs = permutation_table(n)
    primes = np.array(_PRIMES, dtype=np.int64)[:, None]
    acc = np.ones((len(_PRIMES), len(signs)), dtype=np.int64)
    for i, j in I:
        acc = acc * (perms[:, i - 1] - perms[:, j - 1]) % primes
    sums = (acc @ signs.astype(np.int64)).tolist()
    scale = math.prod(i - j for i in range(n) for j in range(i + 1, n))
    r1, r2 = (s * pow(scale, -1, p) % p for s, p in zip(sums, _PRIMES))
    p1, p2 = _PRIMES
    x = r1 + p1 * ((r2 - r1) * pow(p1, -1, p2) % p2)
    return x if 2 * x < p1 * p2 else x - p1 * p2


def norm_squared(I: Pattern, n: int) -> int:
    """Exact inner product of chi(I) with itself: sum of squared coefficients.
    The expansion packs exponents 6 bits per variable, so |I| <= 63."""
    I.check_within(n)
    for i, j in I:
        if i == j:
            raise ValueError(f"diagonal position {(i, j)} in pattern")
    if len(I) > 63:
        raise ValueError("too many positions for packed exponents")
    cur: dict[int, int] = {0: 1}
    for i, j in I:
        bi, bj = 1 << 6 * (i - 1), 1 << 6 * (j - 1)
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, c in cur.items():
            nxt[key + bi] = get(key + bi, 0) + c
            nxt[key + bj] = get(key + bj, 0) - c
        cur = {k: v for k, v in nxt.items() if v}
    return sum(c * c for c in cur.values())


def elementary(k: int, n: int) -> Poly:
    """Elementary symmetric polynomial of degree k in n variables."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    terms = {}
    for combo in itertools.combinations(range(n), k):
        e = [0] * n
        for t in combo:
            e[t] = 1
        terms[tuple(e)] = 1
    return Poly(n, terms)


def complete(k: int, n: int) -> Poly:
    """Complete homogeneous symmetric polynomial of degree k in n variables."""
    if k < 0:
        raise ValueError("k must be >= 0")
    terms = {}
    for e in compositions(k, n):
        terms[e] = 1
    return Poly(n, terms)


def compositions(total: int, parts: int):
    """Yield all tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def diff_apply(f: Poly, g: Poly) -> Poly:
    """Apply f as a constant-coefficient differential operator to g.

    Each variable of f acts as the partial derivative in that variable.
    """
    f._require_same(g)
    out: dict[tuple[int, ...], int] = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            coeff = cf * cg
            key = []
            ok = True
            for a, b in zip(ef, eg):
                if b < a:
                    ok = False
                    break
                # falling factorial b * (b-1) * ... * (b-a+1)
                for x in range(b - a + 1, b + 1):
                    coeff *= x
                key.append(b - a)
            if not ok:
                continue
            key = tuple(key)
            v = out.get(key, 0) + coeff
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return Poly(g.nvars, out)


def shift(f: Poly, t: int, new_nvars: int) -> Poly:
    """Send x_i to x_{i+t} and reinterpret in new_nvars variables."""
    if t < 0:
        raise ValueError("shift distance must be >= 0")
    used = 0
    for e in f.terms:
        for idx in range(f.nvars - 1, -1, -1):
            if e[idx]:
                used = max(used, idx + 1)
                break
    if used + t > new_nvars:
        raise ValueError("shifted variables do not fit")
    out = {}
    for e, c in f.terms.items():
        key = (0,) * t + tuple(e)
        key = key[:new_nvars] + (0,) * (new_nvars - len(key))
        out[key] = c
    return Poly(new_nvars, out)


def in_coinvariant_ideal(f: Poly, n: int) -> bool:
    """Membership of a homogeneous f in the ideal generated by the nonconstant
    elementary symmetric polynomials of n variables.

    Uses the pairing criterion: a homogeneous f of degree d <= mu(n) lies in
    the ideal exactly when every degree-mu(n) monomial multiple of f pairs to
    zero against the Vandermonde expansion.  Only degrees up to mu(n) are
    supported.
    """
    if f.nvars > n:
        raise ValueError("polynomial has more variables than the ideal")
    f = f.extend(n)
    if f.is_zero():
        return True
    if not f.is_homogeneous():
        raise ValueError("membership test needs a homogeneous polynomial")
    d = f.total_degree()
    if d > mu(n):
        raise ValueError(f"degree {d} exceeds mu({n}) = {mu(n)}; unsupported")
    items = list(f.terms.items())
    for m in compositions(mu(n) - d, n):
        s = 0
        for e, c in items:
            s += c * staircase_coefficient(tuple(a + b for a, b in zip(e, m)))
        if s:
            return False
    return True


def derivative_chain_matches(sigma: Sequence[int], r: Sequence[int],
                             m: int, n: int) -> bool:
    """Check the closed form for iterated row-difference operators applied to
    the Vandermonde expansion.

    With I_k = {(r_k, sigma(j)) : k < j <= n} and r_k among the first k images
    of sigma, applying the operators of I_1 ... I_m to vandermonde(n) must
    give sgn(sigma) * prod_k (n - k + [r_k == sigma(k)])! times the
    Vandermonde expansion in the trailing variables x_sigma(m+1..n).
    """
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma is not a permutation of 1..n")
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    for k in range(1, m + 1):
        if r[k - 1] not in set(sigma[:k]):
            raise ValueError(f"r_{k} not among the first {k} images of sigma")
    lhs = vandermonde(n)
    for k in range(1, m + 1):
        Ik = Pattern((r[k - 1], sigma[j - 1]) for j in range(k + 1, n + 1))
        lhs = diff_apply(chi(Ik, n), lhs)
    coef = perm_sign(sigma)
    for k in range(1, m + 1):
        coef *= math.factorial(n - k + (1 if r[k - 1] == sigma[k - 1] else 0))
    tail = Pattern(
        (sigma[s - 1], sigma[t - 1])
        for s in range(m + 1, n + 1)
        for t in range(s + 1, n + 1)
    )
    rhs = coef * chi(tail, n)
    return lhs == rhs
