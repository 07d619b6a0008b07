"""Numerical companion: invariants, the degree-24 polynomial, transversality,
and the reducing-flag machinery for the cyclic pattern."""

import numpy as np
import pytest

from zeropat.classify import EXCEPTIONAL_4
from zeropat.orbit3 import (
    CYCLE_MATRIX,
    CYCLIC_PATTERN,
    GAMMA1_MATRIX,
    GAMMA2_MATRIX,
    SURFACE_PAIR_A,
    SURFACE_PAIR_B,
    count_flags,
    haar_unitary,
    invariants,
    numeric_reduce,
    poly_P1,
    poly_P2_ratio,
    random_cyclic_subspace,
    random_traceless,
    torus_equivalent,
    torus_equivalent_grid,
    _p_expanded,
)
from zeropat.patterns import ne


def test_invariants_zero_matrix():
    assert np.allclose(invariants(np.zeros((3, 3))), 0.0)


def test_invariants_conjugation_invariance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        X = random_traceless(rng)
        U = haar_unitary(rng, 3)
        a = invariants(X)
        b = invariants(U @ X @ U.conj().T)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-11)


def test_invariants_phase_weights():
    # every slot except the tenth is scalar-phase invariant; the tenth
    # follows the phase of its defining trace product
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = random_traceless(rng)
        th = float(rng.uniform(0, 2 * np.pi))
        a = invariants(X)
        b = invariants(np.exp(1j * th) * X)
        keep = [k for k in range(16) if k != 9]
        assert np.allclose(a[keep], b[keep], rtol=1e-9, atol=1e-11)
        Y = X.conj().T
        core = (
            np.trace(X @ X)
            * np.trace(X @ X @ Y) ** 2
            * np.trace(Y @ Y @ Y)
            / 6
        )
        assert abs(b[9] - (np.exp(1j * th) * core).imag) < 1e-9


def test_invariant_nonnegativity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        i = invariants(random_traceless(rng))
        assert i[2] >= 0 and i[4] >= 0 and i[5] >= 0


def test_p_table_structure():
    P = _p_expanded()
    assert len(P.terms) == 203
    # frozen checksums against transcription drift
    assert sum(P.terms.values()) == 549
    assert sum(abs(c) for c in P.terms.values()) == 4589617


def test_p1_reference_values():
    assert abs(poly_P1(GAMMA1_MATRIX)) <= 1e-6
    assert abs(poly_P1(GAMMA2_MATRIX) - 89424) <= 1e-9 * 89424
    assert abs(poly_P1(SURFACE_PAIR_A) - 45) <= 1e-9 * 45
    assert abs(poly_P1(SURFACE_PAIR_B) - 45) <= 1e-9 * 45


def test_p1_rejects_outside_subspace():
    with pytest.raises(ValueError):
        poly_P1(np.eye(3) - np.diag([0, 0, 3]) + np.diag([1, 1, 1]))
    with pytest.raises(ValueError):
        poly_P1(np.ones((3, 3)))


def test_p2_ratio():
    # degree-12 scaled zero at the reference pair
    for M in (SURFACE_PAIR_A, SURFACE_PAIR_B, GAMMA2_MATRIX):
        s = float(np.linalg.norm(M))
        assert abs(poly_P2_ratio(M)) <= 1e-9 * s**12
    with pytest.raises(ValueError):
        poly_P2_ratio(GAMMA1_MATRIX)  # P1 vanishes there


def test_certificate_degenerate_cases():
    from zeropat.orbit3 import _first_subspace_p, _second_subspace_p

    # real eigenvalue directions: the certificates vanish on the diagonal
    D = np.diag([1.5, -0.25, -1.25])
    assert abs(_first_subspace_p(invariants(D))) < 1e-9
    assert abs(_second_subspace_p(invariants(D))) < 1e-9
    assert abs(_first_subspace_p(invariants(np.zeros((3, 3))))) == 0.0


def test_torus_equivalence():
    rng = np.random.default_rng(8)
    B = random_cyclic_subspace(rng)
    t = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=3)))
    C = np.linalg.inv(t) @ B @ t
    assert torus_equivalent(B, C)
    assert torus_equivalent_grid(B, C, steps=180, tol=1e-2)
    D = random_cyclic_subspace(rng)
    assert not torus_equivalent(B, D)


def test_count_flags_basic():
    rng = np.random.default_rng(9)
    A = random_traceless(rng)
    res = count_flags(A, restarts=500, seed=1)
    assert res.num_flags % 6 == 0
    assert res.num_flags in (6, 18)
    assert res.generic
    assert res.z_orbit_closed
    assert res.n_converged > 0
    for sol in res.solutions:
        assert sol.residual <= 1e-18
        B = sol.reduced
        for (i, j) in CYCLIC_PATTERN:
            assert abs(B[i - 1, j - 1]) <= 2e-9
        ea = np.sort_complex(np.linalg.eigvals(sol.unitary.conj().T @ (A / np.linalg.norm(A)) @ sol.unitary))
        eb = np.sort_complex(np.linalg.eigvals(B))
        assert np.max(np.abs(ea - eb)) < 1e-8
        # unitarity of the flag representative
        U = sol.unitary
        assert np.linalg.norm(U.conj().T @ U - np.eye(3)) < 1e-12


def test_count_flags_invariance():
    rng = np.random.default_rng(10)
    A = random_traceless(rng)
    U = haar_unitary(rng, 3)
    n1 = count_flags(A, restarts=600, seed=2).num_flags
    n2 = count_flags(U @ A @ U.conj().T, restarts=600, seed=3).num_flags
    n3 = count_flags(A, restarts=600, seed=77).num_flags
    assert n1 == n2 == n3


def test_cycle_conjugation_preserves_subspace():
    rng = np.random.default_rng(11)
    A = random_cyclic_subspace(rng)
    B = CYCLE_MATRIX @ A @ CYCLE_MATRIX.T
    for (i, j) in CYCLIC_PATTERN:
        assert abs(B[i - 1, j - 1]) < 1e-12
    assert abs(poly_P1(A) - poly_P1(B)) < 1e-9


def test_numeric_reduce_triangularization():
    rng = np.random.default_rng(12)
    A = random_traceless(rng, 3)
    sol = numeric_reduce(A, ne(3), 3, restarts=50, seed=0)
    assert sol is not None and sol.residual <= 1e-16


def test_numeric_reduce_universal_exceptional():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A -= np.trace(A) / 4 * np.eye(4)
    sol = numeric_reduce(A, EXCEPTIONAL_4[2], 4, restarts=150, seed=1)
    assert sol is not None


def test_numeric_reduce_obstructed_case():
    # the doubled 3 x 3 corner pattern cannot absorb this rank-2 nilpotent
    N = np.zeros((4, 4), dtype=complex)
    N[0, 1] = 1
    N[2, 3] = 1
    sol = numeric_reduce(N, EXCEPTIONAL_4[0], 4, restarts=150, seed=2)
    assert sol is None


def test_numeric_reduce_validation():
    with pytest.raises(ValueError):
        numeric_reduce(np.zeros((5, 5)), ne(5), 5)


def test_surface_pair_genericity_report():
    from zeropat.orbit3 import surface_pair_genericity_report

    rep = surface_pair_genericity_report(restarts=800, seed=0)
    assert rep["matrices_similar"]
    for key in ("pair_a", "pair_b"):
        assert rep[key]["num_flags"] % 6 == 0
        assert rep[key]["all_clusters_transversal"]
        # unit-norm rescaling of the reference value 45 at norm sqrt(5)
        assert abs(rep[key]["min_abs_p1"] - 45 / 5**3) < 1e-6
