"""Named verification suites over the exact and numerical engines.

Each suite returns a JSON-friendly report with a boolean ``passed`` field,
and ``run_suite`` adds its name; the command line and the acceptance tests
both call the suites through ``run_suite``.  Expected constants live in the
packaged data file, not in code.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import orbit3
from .classify import (
    MAX_ENUM_N,
    audit_exceptional4,
    check_complexity_one,
    load_expected,  # noqa: F401  (read here by the benchmark and the tests)
    scan_extremal,
    verify_hessenberg,
)
from .patterns import (
    Pattern,
    block_extend,
    j_core,
    j_family,
    lam,
    mu,
    perm_sign,
    pi_family,
)
from .polynomials import (
    Poly,
    complete,
    derivative_chain_matches,
    diff_apply,
    elementary,
    in_coinvariant_ideal,
    inner,
    pair_with_vandermonde,
    vandermonde,
)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def lambda_expected(n: int) -> int:
    s = (n + 1) // 4
    return (-1) ** s * math.factorial(n) // 2**s


def random_strict(rng: random.Random, n: int) -> Pattern:
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return Pattern(rng.sample(cells, mu(n)))


def random_j_parameters(rng: random.Random, n: int):
    """A uniformly sampled valid (sigma, i) parameter pair for the staircase
    family: distinct nonzero i_k with |i_k| among the first k images."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    used: set[int] = set()
    ivec = []
    for k in range(1, n):
        cands = [s * v for v in sigma[:k] for s in (1, -1) if s * v not in used]
        pick = rng.choice(cands)
        used.add(pick)
        ivec.append(pick)
    return sigma, tuple(ivec)


def random_homogeneous(
    rng: random.Random, n: int, degree: int, terms: int, bound: int
) -> Poly:
    """A sum of up to ``terms`` random monomials of the given degree with
    coefficients in [-bound, bound]; a repeated monomial keeps its last draw."""
    out = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(degree):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = rng.randint(-bound, bound)
    return Poly(n, out)


def staircase_expected(sigma, ivec, n: int) -> int:
    d = sum(n - k for k in range(1, n) if ivec[k - 1] < 0)
    prod = 1
    for k in range(1, n):
        if abs(ivec[k - 1]) == sigma[k - 1]:
            prod *= n - k + 1
    return (-1) ** d * perm_sign(sigma) * prod


# -- suites ---------------------------------------------------------------------


def suite_lambda_family(max_n: int = 8) -> dict:
    rows = []
    ok = True
    for n in range(2, max_n + 1):
        got = pair_with_vandermonde(lam(n), n)
        expect = lambda_expected(n)
        rows.append({"n": n, "pairing": got, "expected": expect})
        ok = ok and got == expect
    return {"rows": rows, "passed": ok}


def suite_pi_family(max_n: int = 7) -> dict:
    rows = []
    ok = True
    for n in range(2, max_n + 1):
        got = pair_with_vandermonde(pi_family(n), n)
        expect = double_factorial(n)
        rows.append({"n": n, "pairing": got, "expected": expect})
        ok = ok and got == expect
    return {"rows": rows, "passed": ok}


def suite_jfamily(samples: int = 200, seed: int = 0) -> dict:
    rng = random.Random(seed)
    checked = 0
    failures = []
    for n in (3, 4, 5, 6):
        for _ in range(samples):
            sigma, ivec = random_j_parameters(rng, n)
            J = j_family(sigma, ivec)
            got = pair_with_vandermonde(J, n)
            expect = staircase_expected(sigma, ivec, n)
            checked += 1
            if got != expect:
                failures.append({"sigma": sigma, "i": ivec, "got": got, "expected": expect})
    return {
        "checked": checked,
        "failures": failures,
        "passed": not failures,
    }


def suite_block_product(samples: int = 100, seed: int = 0) -> dict:
    rng = random.Random(seed)
    checked = 0
    ok = True
    for (n, m) in [(2, 4), (2, 5), (3, 5)]:
        for _ in range(samples):
            I = random_strict(rng, n)
            J = random_strict(rng, m - n)
            lhs = pair_with_vandermonde(block_extend(I, J, n, m), m)
            rhs = (
                math.comb(m, n)
                * pair_with_vandermonde(I, n)
                * pair_with_vandermonde(J, m - n)
            )
            ok = ok and lhs == rhs
            checked += 1
    band_checked = 0
    for n in (5, 6, 7):
        for _ in range(samples):
            inner_pat = random_strict(rng, n - 4) if n - 4 >= 2 else Pattern()
            I = Pattern(list(j_core(n)) + list(inner_pat.translate((2, 2))))
            lhs = pair_with_vandermonde(I, n)
            sub = (
                pair_with_vandermonde(inner_pat, n - 4) if n - 4 >= 2 else 1
            )
            rhs = n * (n - 1) * (n - 2) * (n - 3) // 2 * sub
            ok = ok and lhs == rhs
            band_checked += 1
    return {
        "product_checked": checked,
        "band_checked": band_checked,
        "passed": ok,
    }


def suite_ideal_congruence(max_n: int = 5) -> dict:
    checked = 0
    ok = True
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            for r in range(1, m + 1):
                lhs = Poly.const(n, 1)
                for i in range(m + 1, n + 1):
                    lhs = lhs * (Poly.variable(n, r) - Poly.variable(n, i))
                dr = diff_apply(Poly.variable(m, r), complete(n - m + 1, m))
                ok = ok and in_coinvariant_ideal(lhs - dr.extend(n), n)
                checked += 1
    return {"checked": checked, "passed": ok}


def suite_derivative_chain(
    samples: int = 100, seed: int = 0, max_n: int = 4
) -> dict:
    rng = random.Random(seed)
    ok = True
    checked = 0
    for _ in range(samples):
        n = rng.randint(2, max_n)
        m = rng.randint(0, n - 1)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        r = [rng.choice(sigma[:k]) for k in range(1, m + 1)]
        ok = ok and derivative_chain_matches(sigma, r, m, n)
        checked += 1

    # a homogeneous top-degree polynomial acts on the Vandermonde expansion
    # as its pairing, times the product of the factorials below n
    pair_ok = True
    for n in (3, 4, 5):
        V = vandermonde(n)
        pk = 1
        for k in range(1, n):
            pk *= math.factorial(k)
        for _ in range(50):
            f = random_homogeneous(rng, n, mu(n), terms=10, bound=9)
            pair_ok = pair_ok and diff_apply(f, V) == Poly.const(n, pk * inner(f, V))

    # congruent polynomials act identically
    cong_ok = True
    for n in (3, 4):
        V = vandermonde(n)
        for _ in range(25):
            f = random_homogeneous(rng, n, mu(n), terms=6, bound=5)
            k = rng.randrange(1, n + 1)
            h = random_homogeneous(rng, n, mu(n) - k, terms=4, bound=4)
            g = f + elementary(k, n) * h
            cong_ok = cong_ok and in_coinvariant_ideal(f - g, n)
            cong_ok = cong_ok and diff_apply(f, V) == diff_apply(g, V)

    return {
        "chain_checked": checked,
        "chain_ok": ok,
        "pairing_action_ok": pair_ok,
        "congruence_action_ok": cong_ok,
        "passed": ok and pair_ok and cong_ok,
    }


def suite_complexity1() -> dict:
    reports = [check_complexity_one(n) for n in (4, 5)]
    return {
        "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }


def suite_extremal() -> dict:
    reports = [scan_extremal(n) for n in range(2, MAX_ENUM_N + 1)]
    return {
        "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }


def suite_factorization(samples: int = 20, seed: int = 0) -> dict:
    """Consistency of the degree-24 polynomial with its restriction
    factorization: the extracted cofactor is degree-12 homogeneous, the
    polynomial vanishes at the reference matrices, and it vanishes along the
    non-transversal locus to second order."""
    rng = np.random.default_rng(seed)
    ok_hom = True
    worst = 0.0
    for _ in range(samples):
        A = orbit3.random_cyclic_subspace(rng)
        try:
            r1 = orbit3.poly_P2_ratio(A)
            r2 = orbit3.poly_P2_ratio(2 * A)
        except ValueError:
            continue
        err = abs(r2 - 2**12 * r1) / max(abs(r2), 1e-12)
        worst = max(worst, err)
        ok_hom = ok_hom and err < 1e-7

    refs_ok = True
    for M in (
        orbit3.GAMMA1_MATRIX,
        orbit3.GAMMA2_MATRIX,
        orbit3.SURFACE_PAIR_A,
        orbit3.SURFACE_PAIR_B,
    ):
        s = float(np.linalg.norm(M))
        refs_ok = refs_ok and abs(orbit3.poly_P(M)) <= 1e-12 * s**24

    # crossing the non-transversal locus: bisect a sign change of the
    # degree-6 factor along a segment and confirm the big polynomial is tiny
    cross_ok = True
    found = 0
    for _ in range(200):
        if found >= 5:
            break
        A0 = orbit3.random_cyclic_subspace(rng)
        A1 = orbit3.random_cyclic_subspace(rng)
        f = lambda t: orbit3.poly_P1((1 - t) * A0 + t * A1)
        a, b = 0.0, 1.0
        if f(a) * f(b) >= 0:
            continue
        found += 1
        for _ in range(60):
            c = (a + b) / 2
            if f(a) * f(c) <= 0:
                b = c
            else:
                a = c
        Ac = (1 - (a + b) / 2) * A0 + (a + b) / 2 * A1
        s = float(np.linalg.norm(Ac))
        cross_ok = cross_ok and abs(orbit3.poly_P(Ac)) <= 1e-9 * s**24
    return {
        "ratio_homogeneity_ok": bool(ok_hom),
        "worst_ratio_err": float(worst),
        "reference_zeros_ok": bool(refs_ok),
        "crossings_tested": found,
        "crossing_zeros_ok": bool(cross_ok),
        "passed": bool(ok_hom and refs_ok and cross_ok and found > 0),
    }


SUITES = {
    "lambda-family": suite_lambda_family,
    "pi-family": suite_pi_family,
    "jfamily": suite_jfamily,
    "hessenberg": verify_hessenberg,
    "block-product": suite_block_product,
    "ideal-congruence": suite_ideal_congruence,
    "derivative-chain": suite_derivative_chain,
    "exceptional4": audit_exceptional4,
    "complexity1": suite_complexity1,
    "extremal": suite_extremal,
    "intertwiner": orbit3.check_intertwiner,
    "certificates": orbit3.check_nonuniversality_invariants,
    "factorization": suite_factorization,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return {**SUITES[name](**kwargs), "suite": name}
