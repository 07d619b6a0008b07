"""Named verification suites over the exact and numerical engines.

Every suite is defined here and returns a JSON-friendly report with a
boolean ``passed`` field; ``run_suite`` adds its name.  The command line and
the acceptance tests both call the suites through ``run_suite``; the engine
modules keep no suite.  Expected constants live in the packaged data file,
not in code.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import orbit3
from .classify import (
    EXCEPTIONAL_4,
    MAX_ENUM_N,
    STATUS_EXCEPTIONAL,
    _class_walk,
    canonical_form,
    classify_all,
    load_expected,  # noqa: F401  (read here by the benchmark and the tests)
    offdiag_cells,
    scan_extremal,
    weak_canonical_form,
)
from .patterns import (
    Pattern,
    block_extend,
    j_core,
    j_family,
    j_hessenberg,
    lam,
    mu,
    ne,
    perm_sign,
    pi_family,
)
from .polynomials import (
    Poly,
    chi,
    complete,
    derivative_chain_matches,
    diff_apply,
    elementary,
    in_coinvariant_ideal,
    inner,
    pair_with_vandermonde,
    require_pair_budget,
    vandermonde,
)
from .stabdim import stabilizer_dim

#: derivative-chain and ideal-congruence apply difference operators to the
#: n!-term Vandermonde expansion for n up to max_n: derivative-chain's 100
#: default samples take about 4 s at max_n = 7 and about 4 minutes at 8, and
#: ideal-congruence about 8 s at 7 and 160 s at 8 (one core of a 2-core x86
#: host)
MAX_CHAIN_N = 7


def _require_chain_budget(suite: str, max_n: int) -> None:
    if max_n > MAX_CHAIN_N:
        raise ValueError(
            f"{suite} is budgeted for max_n <= {MAX_CHAIN_N}, got {max_n}"
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
    return Pattern(rng.sample(offdiag_cells(n), mu(n)))


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


def _closed_forms(cases) -> dict:
    """One row per (labels, pattern, expected) case, the labels holding the
    grid size n: the pattern's pairing beside its closed form.  Every size is
    checked against the pairing budget before the first pairing."""
    cases = list(cases)
    require_pair_budget(max((at["n"] for at, _, _ in cases), default=1))
    rows = [
        {**at, "pairing": pair_with_vandermonde(I, at["n"]), "expected": expect}
        for at, I, expect in cases
    ]
    return {"rows": rows, "passed": all(r["pairing"] == r["expected"] for r in rows)}


def _per_n(check, sizes) -> dict:
    """The report of ``check(n)`` for each size, passed when all of them pass."""
    reports = [check(n) for n in sizes]
    return {"reports": reports, "passed": all(r["passed"] for r in reports)}


def suite_lambda_family(max_n: int = 8) -> dict:
    return _closed_forms(
        ({"n": n}, lam(n), lambda_expected(n)) for n in range(2, max_n + 1)
    )


def suite_pi_family(max_n: int = 7) -> dict:
    return _closed_forms(
        ({"n": n}, pi_family(n), double_factorial(n)) for n in range(2, max_n + 1)
    )


def suite_hessenberg(max_n: int = 7) -> dict:
    """Pairings of the Hessenberg-band family against the closed form
    (-1)^(n-1) C(n,k) C(n-2,k-1) for all 3 <= n <= max_n, 1 <= k <= n-1."""
    return _closed_forms(
        (
            {"n": n, "k": k},
            j_hessenberg(k, n),
            (-1) ** (n - 1) * math.comb(n, k) * math.comb(n - 2, k - 1),
        )
        for n in range(3, max_n + 1)
        for k in range(1, n)
    )


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
    _require_chain_budget("ideal-congruence", max_n)
    checked = 0
    ok = True
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            for r in range(1, m + 1):
                lhs = chi(Pattern((r, i) for i in range(m + 1, n + 1)), n)
                dr = diff_apply(Poly.variable(m, r), complete(n - m + 1, m))
                ok = ok and in_coinvariant_ideal(lhs - dr.extend(n), n)
                checked += 1
    return {"checked": checked, "passed": ok}


def suite_derivative_chain(
    samples: int = 100, seed: int = 0, max_n: int = 4
) -> dict:
    _require_chain_budget("derivative-chain", max_n)
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


def suite_exceptional4() -> dict:
    """Audit of the seven exceptional classes for n = 4: each is singular,
    not defective, the classes are pairwise distinct, and together they are
    exactly the exceptional classes of the full census."""
    n = 4
    per_pattern = []
    for I in EXCEPTIONAL_4:
        pairing, sd = pair_with_vandermonde(I, n), stabilizer_dim(I, n)
        per_pattern.append(
            {
                "pattern": I.to_json(),
                "pairing": pairing,
                "stab_dim": sd,
                "singular": pairing == 0,
                "non_defective": sd <= n,
            }
        )
    canon_forms = {canonical_form(I, n).mask(n) for I in EXCEPTIONAL_4}
    _, records = classify_all(n)
    census_exceptional = {
        r.canonical.mask(n) for r in records if r.status == STATUS_EXCEPTIONAL
    }
    report = {
        "patterns": per_pattern,
        "all_singular": all(p["singular"] for p in per_pattern),
        "all_non_defective": all(p["non_defective"] for p in per_pattern),
        "num_distinct_classes": len(canon_forms),
        "exhausts_exceptional_classes": canon_forms == census_exceptional,
    }
    report["passed"] = (
        report["all_singular"]
        and report["all_non_defective"]
        and report["num_distinct_classes"] == 7
        and report["exhausts_exceptional_classes"]
    )
    return report


def complexity_one_case_a(n: int) -> Pattern:
    """Representative with the doubled pair and the missing pair sharing an
    index: upper triangle minus (1,2) plus (3,1)."""
    return Pattern([p for p in ne(n) if p != (1, 2)] + [(3, 1)])


def complexity_one_case_b(n: int) -> Pattern:
    """Representative with the doubled pair and the missing pair disjoint:
    upper triangle minus (1,2) plus (4,3)."""
    return Pattern([p for p in ne(n) if p != (1, 2)] + [(4, 3)])


def check_complexity_one(n: int) -> dict:
    """Complexity-1 patterns fall into two flip-equivalence classes; the class
    of case (a) has pairing of magnitude n!/2, the class of case (b) is
    singular and defective."""
    if n < 4:
        raise ValueError("the two-class split needs n >= 4")
    a = complexity_one_case_a(n)
    b = complexity_one_case_b(n)
    pa = pair_with_vandermonde(a, n)
    pb = pair_with_vandermonde(b, n)
    report = {
        "n": n,
        "case_a_pairing": pa,
        "case_b_pairing": pb,
        "case_a_magnitude_ok": abs(pa) == math.factorial(n) // 2,
        "case_b_singular": pb == 0,
        "case_b_defective": stabilizer_dim(b, n) > n,
    }
    keys = {weak_canonical_form(a, n), weak_canonical_form(b, n)}
    report["distinct_weak_classes"] = len(keys)
    if n <= MAX_ENUM_N:
        # complexity is a class invariant, so whole classes are in or out
        ones = [
            (size, key) for m, size, key in _class_walk(n)
            if Pattern.from_mask(m, n).complexity() == 1
        ]
        report["num_complexity_one_patterns"] = sum(size for size, _ in ones)
        report["num_weak_classes"] = len({key for _, key in ones})
    else:
        report["num_weak_classes"] = None
    report["passed"] = (
        report["case_a_magnitude_ok"]
        and report["case_b_singular"]
        and report["case_b_defective"]
        and report["distinct_weak_classes"] == 2
        and (report["num_weak_classes"] in (None, 2))
    )
    return report


def suite_complexity1() -> dict:
    return _per_n(check_complexity_one, (4, 5))


def suite_extremal() -> dict:
    return _per_n(scan_extremal, range(2, MAX_ENUM_N + 1))


def intertwiner_matrix() -> np.ndarray:
    """The explicit unitary X with GAMMA1_MATRIX @ X = X @ GAMMA2_MATRIX,
    entries in closed radical form."""
    s69 = math.sqrt(69.0)
    d = 6 * math.sqrt(37 - s69)
    s6 = math.sqrt(6.0)
    s46 = math.sqrt(46.0)
    s13 = math.sqrt(13.0)
    x11 = (2 * (s69 - 7) - 1j * (3 + s69)) / d
    x12 = (1 + 3j) * (1j * s6 - s46) / (12 * s13)
    x13 = (s46 + s6) / 12
    x21 = ((3 - 1j) * s69 + 34 + 27j) / (15 * math.sqrt(37 - s69))
    x22 = 4 * (s46 - s6) / (15 * s13) + 1j * (23 * s6 - 3 * s46) / (60 * s13)
    x23 = (3 - 1j) * (3 * s6 - 1j * s46) / 60
    x31 = (2 * (2 - s69) - 1j * (3 + s69)) / d
    x32 = 4 * (s6 + s46) / (15 * s13) + 1j * (23 * s6 + 3 * s46) / (60 * s13)
    x33 = (s46 - s6) / 12
    return np.array(
        [[x11, x12, x13], [x21, x22, x23], [x31, x32, x33]], dtype=complex
    )


def suite_intertwiner() -> dict:
    """Residuals of the closed-form unitary intertwining the two reference
    matrices: unitarity, the intertwining relation, and spectral agreement."""
    X = intertwiner_matrix()
    A = orbit3.GAMMA1_MATRIX
    B = orbit3.GAMMA2_MATRIX
    unitarity = float(np.linalg.norm(X.conj().T @ X - np.eye(3)))
    intertwine = float(np.linalg.norm(A @ X - X @ B))
    ea = np.sort_complex(np.linalg.eigvals(A))
    eb = np.sort_complex(np.linalg.eigvals(B))
    spectra = float(np.max(np.abs(ea - eb)))
    return {
        "unitarity_residual": unitarity,
        "intertwining_residual": intertwine,
        "spectral_gap": spectra,
        "passed": unitarity <= 1e-9 and intertwine <= 1e-9 and spectra <= 1e-9,
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


def _first_subspace_p(ivec) -> float:
    i1, i2, i3, i4, i5, i6, i7, i8 = ivec[0:8]
    i11 = ivec[10]
    i13 = ivec[12]
    return (
        (2 * i4 + 3 * i5 - i6) ** 2
        + 4 * i1 * (i2 - i3) * (i1 * i3 - 6 * i5)
        + 4 * i1**2 * (i1 * i5 + i8 - i7)
        + 4 * i1 * i2 * (i6 - i4)
        + 4 * i8 * (5 * i3 - 4 * i2)
        + 16 * i3**2 * (2 * i2 - i3)
        + 4 * i7 * (2 * i2 - 3 * i3)
        + 4 * i2**2 * (i2 - 5 * i3)
        + 8 * (i1 * i11 - i13)
    )


def _second_subspace_p(ivec) -> float:
    i1, i2, i3 = ivec[0], ivec[1], ivec[2]
    return i1**2 + 4 * (i3 - i2)


def suite_certificates(samples: int = 100, seed: int = 0) -> dict:
    """Certificates behind two non-universal 3 x 3 subspaces: an invariant
    polynomial that is a perfect square on each subspace yet negative on the
    diagonal matrices with independent eigenvalue directions.

    Checks both closed forms on random members and the negativity of the
    diagonal evaluations, and counts the draws whose two diagonal signs lie
    above the double-precision noise floor.
    """
    rng = np.random.default_rng(seed)
    rel_tol = 1e-8
    ok_first = ok_second = ok_diag = True
    worst = 0.0
    decided = 0

    def cx():
        return rng.normal() + 1j * rng.normal()

    for _ in range(samples):
        x, y, z, u, v = (cx() for _ in range(5))
        A = np.array([[0, 0, x], [0, z, y], [u, v, -z]], dtype=complex)
        # both sides are homogeneous: evaluate at unit Frobenius norm so the
        # tolerance is relative to the natural scale
        s = float(np.linalg.norm(A))
        A = A / s
        x, y, z, u, v = (t / s for t in (x, y, z, u, v))
        got = _first_subspace_p(orbit3.invariants(A))
        z1, z2 = z.real, z.imag
        u1, u2 = u.real, u.imag
        x1, x2 = x.real, x.imag
        expect = (abs(u) ** 2 - abs(x) ** 2) ** 2 * (
            abs(x - u.conjugate()) ** 2 * z1**2
            - 4 * (u1 * x2 + u2 * x1) * z1 * z2
            + abs(x + u.conjugate()) ** 2 * z2**2
        ) ** 2
        scale = max(1.0, abs(got), abs(expect))
        err = abs(got - expect) / scale
        worst = max(worst, err)
        ok_first = ok_first and err < rel_tol

        A2 = np.array([[0, x, y], [u, z, 0], [v, 0, -z]], dtype=complex)
        s2 = float(np.linalg.norm(A2))
        A2 = A2 / s2
        got2 = _second_subspace_p(orbit3.invariants(A2))
        expect2 = (
            (abs(u) ** 2 + abs(v) ** 2 - abs(x) ** 2 - abs(y) ** 2) / s2**2
        ) ** 2
        scale2 = max(1.0, abs(got2), abs(expect2))
        err2 = abs(got2 - expect2) / scale2
        worst = max(worst, err2)
        ok_second = ok_second and err2 < rel_tol

        uu, vv = cx(), cx()
        sd = float(np.linalg.norm(np.array([uu, vv, -uu - vv])))
        uu, vv = uu / sd, vv / sd
        D = np.diag([uu, vv, -uu - vv])
        cross = uu.real * vv.imag - uu.imag * vv.real
        d1 = _first_subspace_p(orbit3.invariants(D))
        d2 = _second_subspace_p(orbit3.invariants(D))
        # the first certificate is degree 12 in the entries, so its diagonal
        # restriction is the sixth power of the cross term (checked
        # symbolically); the second is degree 4 and quadratic in it
        e1 = -64 * cross**6
        e2 = -4 * cross**2
        err3 = max(
            abs(d1 - e1) / max(1.0, abs(e1)), abs(d2 - e2) / max(1.0, abs(e2))
        )
        worst = max(worst, err3)
        ok_diag = ok_diag and err3 < rel_tol
        # the sign is decidable in doubles only above the noise floor
        if abs(e1) > 1e-12:
            ok_diag = ok_diag and d1 < 0
        if abs(e2) > 1e-12:
            ok_diag = ok_diag and d2 < 0
        decided += abs(e1) > 1e-12 and abs(e2) > 1e-12

    return {
        "samples": samples,
        "first_subspace_identity": bool(ok_first),
        "second_subspace_identity": bool(ok_second),
        "diagonal_closed_forms": bool(ok_diag),
        "diagonal_signs_decided": decided,
        "worst_rel_error": float(worst),
        "passed": bool(ok_first and ok_second and ok_diag),
    }


SUITES = {
    "lambda-family": suite_lambda_family,
    "pi-family": suite_pi_family,
    "jfamily": suite_jfamily,
    "hessenberg": suite_hessenberg,
    "block-product": suite_block_product,
    "ideal-congruence": suite_ideal_congruence,
    "derivative-chain": suite_derivative_chain,
    "exceptional4": suite_exceptional4,
    "complexity1": suite_complexity1,
    "extremal": suite_extremal,
    "intertwiner": suite_intertwiner,
    "certificates": suite_certificates,
    "factorization": suite_factorization,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return {**SUITES[name](**kwargs), "suite": name}
