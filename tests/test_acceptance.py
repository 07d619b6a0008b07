"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets and tolerances are pinned here, not deferred.  When the computed
census disagrees with a packaged expected value, the full orbit census is
written out for audit before the test reports the mismatch.
"""

import json
import math
import time

import numpy as np

from zeropat import orbit3
from zeropat.classify import classify_all
from zeropat.patterns import mu
from zeropat.verify import load_expected, run_suite

EXPECTED = load_expected()


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f": {detail}" if detail else ""))


def census_tuple(census):
    return (
        census.num_classes,
        census.num_nonsingular,
        census.num_defective,
        census.num_exceptional,
    )


def test_c01a_census_small_sizes():
    t0 = time.time()
    expected = {
        2: ((1, 1, 0, 0), 1),
        3: ((3, 3, 0, 0), 2),
        4: ((30, 19, 4, 7), 12),
    }
    for n, (counts, weak) in expected.items():
        census, records = classify_all(n)
        assert census_tuple(census) == counts, (n, census)
        assert census.num_weak_classes == weak, (n, census)
        assert census.total_patterns == math.comb(2 * mu(n), mu(n))
        assert sum(r.orbit_size for r in records) == census.total_patterns
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("criterion 1a (census n<=4, weak classes, runtime)", True,
           f"{elapsed:.1f}s")


def test_c01b_census_n5(tmp_path):
    t0 = time.time()
    census, records = classify_all(5)
    elapsed = time.time() - t0
    assert elapsed < 900.0
    got = census.to_json()
    expected = EXPECTED["census"]["5"]
    mismatches = {
        k: {"expected": v, "computed": got[k]}
        for k, v in expected.items()
        if got[k] != v
    }
    if mismatches:
        audit = {
            "census": got,
            "expected": expected,
            "mismatches": mismatches,
            "classes": [r.to_json() for r in records],
        }
        audit_path = tmp_path / "audit_census_n5.json"
        with open(audit_path, "w") as fh:
            json.dump(audit, fh, indent=1, sort_keys=True)
        report(
            "criterion 1b (census n=5)",
            False,
            f"mismatch {json.dumps(mismatches, sort_keys=True)}; "
            f"full orbit census written to {audit_path}; the exact "
            "stabilizer dimensions (the pinned-entry count, checked against "
            "Bareiss elimination in the tests) give the computed split",
        )
    else:
        report("criterion 1b (census n=5)", True, f"{elapsed:.1f}s")
    assert not mismatches, mismatches


def test_c02_lambda_family():
    t0 = time.time()
    rep = run_suite("lambda-family", max_n=8)
    assert rep["passed"], rep
    assert [row["n"] for row in rep["rows"]] == list(range(2, 9))
    for row in rep["rows"]:
        s = (row["n"] + 1) // 4
        expect = (-1) ** s * math.factorial(row["n"]) // 2**s
        assert row["pairing"] == row["expected"] == expect, row
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("criterion 2 (max-complexity family pairings, n=2..8)", True,
           f"{elapsed:.1f}s")


def test_c03_pi_family():
    rep = run_suite("pi-family", max_n=7)
    assert rep["passed"], rep
    assert [row["n"] for row in rep["rows"]] == list(range(2, 8))
    assert all(row["pairing"] == row["expected"] for row in rep["rows"])
    report("criterion 3 (antitriangular family pairings, n=2..7)", True)


def test_c04_staircase_closed_form():
    rep = run_suite("jfamily", samples=200, seed=42)
    assert rep["passed"], rep["failures"]
    assert rep["checked"] == 4 * 200
    report("criterion 4 (staircase family closed form, 200 draws x n=3..6)", True)


def test_c05_hessenberg_conjecture():
    rep = run_suite("hessenberg", max_n=7)
    assert rep["passed"], rep
    report("criterion 5 (Hessenberg-band pairings, all k, n<=7)", True)


def test_c06_block_product_and_band_reduction():
    rep = run_suite("block-product", samples=100, seed=7)
    assert rep["passed"], rep
    assert rep["product_checked"] == 3 * 100
    assert rep["band_checked"] == 3 * 100
    report("criterion 6 (block multiplicativity + band reduction, 100 each)", True)


def test_c07_ideal_and_derivative_identities():
    # congruence for every 1 <= r <= m <= n <= 5
    rep = run_suite("ideal-congruence", max_n=5)
    assert rep["passed"], rep
    assert rep["checked"] == sum(m for n in range(1, 6) for m in range(1, n + 1))
    # iterated derivative chain for n <= 4, 100 random draws; the action of
    # a top-degree polynomial equals its pairing, 50 draws per n = 3, 4, 5;
    # congruent polynomials act equally, 25 draws per n = 3, 4
    rep = run_suite("derivative-chain", samples=100, seed=11)
    assert rep["passed"], rep
    assert rep["chain_checked"] == 100
    assert rep["chain_ok"]
    assert rep["pairing_action_ok"]
    assert rep["congruence_action_ok"]
    report("criterion 7 (ideal congruence, derivative chain, pairing action)", True)


def test_c08_exceptional_audit():
    rep = run_suite("exceptional4")
    assert rep["all_singular"]
    assert rep["all_non_defective"]
    assert rep["num_distinct_classes"] == 7
    assert rep["exhausts_exceptional_classes"]
    report("criterion 8 (the seven exceptional classes for n=4)", True)


def test_c09_complexity_one():
    suite = run_suite("complexity1")
    assert suite["passed"], suite
    assert [rep["n"] for rep in suite["reports"]] == [4, 5]
    for rep in suite["reports"]:
        n = rep["n"]
        assert abs(rep["case_a_pairing"]) == math.factorial(n) // 2, rep
        assert rep["case_b_singular"] and rep["case_b_defective"], rep
        assert rep["num_weak_classes"] == 2, rep
    report("criterion 9 (complexity-one split and representatives, n=4,5)", True)


def test_c10_extremal_scans():
    suite = run_suite("extremal")
    assert suite["passed"], suite
    assert [rep["n"] for rep in suite["reports"]] == [2, 3, 4, 5]
    for rep in suite["reports"]:
        n = rep["n"]
        assert rep["scanned"] == math.comb(2 * mu(n), mu(n))
        assert rep["counterexample"] is None
        assert rep["max_abs_pairing"] == math.factorial(n)
        assert rep["min_norm"] == math.factorial(n)
        assert rep["num_argmax"] == 2 ** mu(n)
        assert rep["num_argmin"] == 2 ** mu(n)
    assert rep["scanned"] == 184_756
    report("criterion 10 (extremal scans: exhaustive n<=5)", True)


def test_c11_reference_numerics():
    rep = run_suite("intertwiner")
    assert rep["passed"], rep
    assert rep["unitarity_residual"] <= 1e-9
    assert rep["intertwining_residual"] <= 1e-9
    # reference zeros of the degree-24 polynomial (1e-12 s^24), degree-12
    # homogeneity of P / P1^2 (20 draws), and zeros at bisected crossings of
    # the degree-6 factor
    rep = run_suite("factorization", samples=20, seed=5)
    assert rep["passed"], rep
    assert rep["ratio_homogeneity_ok"]
    assert rep["reference_zeros_ok"]
    assert rep["crossing_zeros_ok"] and rep["crossings_tested"] >= 3
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = orbit3.random_traceless(rng)
        U = orbit3.haar_unitary(rng, 3)
        a, b = orbit3.poly_P(X), orbit3.poly_P(U @ X @ U.conj().T)
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-12)
        for t in (2.0, 1 / 3):
            assert abs(orbit3.poly_P(t * X) - t**24 * orbit3.poly_P(X)) <= (
                1e-8 * abs(t**24 * orbit3.poly_P(X))
            )
    report("criterion 11 (reference values, invariance, homogeneity)", True)


def test_c12_transversality_cross_validation():
    rng = np.random.default_rng(12)
    agree = 0
    total = 0
    while total < 500:
        A = orbit3.random_cyclic_subspace(rng)
        if abs(orbit3.poly_P1(A)) < 1e-6:
            continue
        total += 1
        if orbit3.is_transversal_at(A) == (orbit3.poly_P1(A) != 0):
            agree += 1
    assert agree == 500, agree
    assert not orbit3.is_transversal_at(orbit3.GAMMA1_MATRIX)
    assert orbit3.is_transversal_at(orbit3.GAMMA2_MATRIX)
    report("criterion 12 (transversality vs degree-6 factor)", True,
           f"{agree}/500")


def test_c13_flag_statistics():
    t0 = time.time()
    rng = np.random.default_rng(99)
    collected = 0
    attempts = 0
    Ns = []
    while collected < 25 and attempts < 40:
        attempts += 1
        A = orbit3.random_traceless(rng)
        res = orbit3.count_flags(A, restarts=2000, seed=5000 + attempts)
        if not res.generic:
            continue
        collected += 1
        Ns.append(res.num_flags)
        assert res.num_flags % 6 == 0, res.num_flags
        assert res.num_flags in (6, 18), res.num_flags
        assert res.z_orbit_closed
        for sol in res.solutions:
            assert sol.residual <= 1e-18
    elapsed = time.time() - t0
    assert collected == 25
    assert elapsed < 1200.0
    report("criterion 13 (flag counts over 25 generic samples)", True,
           f"N values {sorted(set(Ns))}, {elapsed:.0f}s")


def test_c14_nonuniversality_certificates():
    rep = run_suite("certificates", samples=100, seed=1)
    assert rep["passed"], rep
    assert rep["first_subspace_identity"]
    assert rep["second_subspace_identity"]
    # passed includes the negativity of every draw decided above the noise floor
    negs = rep["diagonal_signs_decided"]
    assert negs >= 90
    report("criterion 14 (nonuniversality certificates)", True,
           f"{negs}/100 negativity checks")
