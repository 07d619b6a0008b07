"""Numerical companion: invariants, the degree-24 polynomial, transversality,
and the reducing-flag machinery for the cyclic pattern."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zeropat import orbit3
from zeropat.classify import EXCEPTIONAL_4
from zeropat.orbit3 import (
    CYCLE_MATRIX,
    CYCLIC_PATTERN,
    GAMMA1_MATRIX,
    GAMMA2_MATRIX,
    SURFACE_PAIR_A,
    SURFACE_PAIR_B,
    FlagCensus,
    FlagSolution,
    count_flags,
    count_reductions,
    haar_unitaries,
    haar_unitary,
    invariants,
    is_transversal_at,
    poly_P1,
    poly_P2_ratio,
    random_cyclic_subspace,
    random_traceless,
    skew_hermitian_basis,
    torus_equivalent,
    _p_expanded,
)
from zeropat.patterns import Pattern, delta, ne


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


def test_p2_ratio_refuses_where_its_scale_underflows():
    # the zero matrix and a scale whose sixth power underflows once raised
    # ZeroDivisionError; where only s^24 underflows, P read 0 or kept a few
    # digits (1e-20 and 1e-13)
    A = random_cyclic_subspace(np.random.default_rng(17))
    for scale in (0.0, 1e-200, 1e-20, 1e-13):
        with pytest.raises(ValueError, match="too small"):
            poly_P2_ratio(scale * A)
    for scale in (1e-10, 1e5):
        want = scale**12 * poly_P2_ratio(A)
        assert abs(poly_P2_ratio(scale * A) - want) <= 1e-9 * abs(want)


def test_certificate_degenerate_cases():
    from zeropat.verify import _first_subspace_p, _second_subspace_p

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
    assert not torus_equivalent_grid(B, D, steps=180, tol=1e-2)


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
    sol = count_reductions(A, ne(3), restarts=50, seed=0).solutions[0]
    assert sol.residual <= 1e-16


def test_numeric_reduce_universal_exceptional():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A -= np.trace(A) / 4 * np.eye(4)
    assert count_reductions(A, EXCEPTIONAL_4[2], restarts=150, seed=1).num_flags > 0


def test_numeric_reduce_obstructed_case():
    # the doubled 3 x 3 corner pattern cannot absorb this rank-2 nilpotent
    N = np.zeros((4, 4), dtype=complex)
    N[0, 1] = 1
    N[2, 3] = 1
    assert count_reductions(N, EXCEPTIONAL_4[0], restarts=150, seed=2).num_flags == 0


def test_numeric_reduce_validation():
    A = random_traceless(np.random.default_rng(14), 3)
    with pytest.raises(ValueError, match="budgeted"):
        count_reductions(np.zeros((5, 5)), ne(5))
    with pytest.raises(ValueError, match="does not match"):
        count_reductions(np.zeros((3, 4)), ne(3))
    with pytest.raises(ValueError, match="outside the 3 x 3 grid"):
        count_reductions(A, ne(4))
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        B = A.copy()
        B[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            count_reductions(B, ne(3), restarts=5)
    with pytest.raises(ValueError, match="zero matrix"):
        count_reductions(np.eye(4), ne(4), restarts=5)
    # fewer than mu(n) independent positions: the whole diagonal of a
    # traceless matrix holds one dependent position
    for I, k in ((Pattern(), 0), (delta(3), 2), (Pattern([(1, 2), (2, 3)]), 2)):
        with pytest.raises(ValueError, match=f"pattern has {k} independent"):
            count_reductions(A, I, restarts=5)
    full = Pattern(list(delta(3)) + [(1, 2)])
    assert count_reductions(A, full, restarts=5).n_restarts == 5
    with pytest.raises(ValueError, match="at least one restart"):
        count_reductions(A, ne(3), restarts=0)
    # checked before the starts are drawn
    with pytest.raises(ValueError, match="at most 1000000 restarts"):
        count_reductions(A, ne(3), restarts=orbit3.MAX_RESTARTS + 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", [
    invariants, orbit3.poly_P, poly_P1, poly_P2_ratio, is_transversal_at,
], ids=lambda fn: fn.__name__)
def test_non_finite_input_is_rejected(fn, bad):
    A = random_cyclic_subspace(np.random.default_rng(16))
    A[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fn(A)
    with pytest.raises(ValueError, match="non-finite"):
        fn(np.full((3, 3), bad))


def test_count_flags_validation():
    with pytest.raises(ValueError, match="expected a 3 x 3 matrix"):
        count_flags(random_traceless(np.random.default_rng(15), 4), restarts=5)
    with pytest.raises(ValueError, match="expected a 3 x 3 matrix"):
        count_flags(np.ones(9), restarts=5)
    with pytest.raises(ValueError, match="non-finite"):
        count_flags(np.full((3, 3), np.nan), restarts=5)
    A = random_traceless(np.random.default_rng(15))
    A[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        count_flags(A, restarts=5)
    with pytest.raises(ValueError, match="zero matrix"):
        count_flags(np.eye(3), restarts=5)


def surface_pair_genericity_report(restarts, seed):
    """Numerical genericity evidence for the two unitarily similar reference
    matrices lying on the degree-12 hypersurface.

    A matrix is generic when its orbit meets the pattern subspace
    transversally at every intersection point; this report counts the torus
    clusters of each matrix and evaluates the degree-6 factor and the
    transversality test at each cluster.
    """
    out = {}
    for name, M in (("pair_a", SURFACE_PAIR_A), ("pair_b", SURFACE_PAIR_B)):
        res = count_flags(M, restarts=restarts, seed=seed)
        transversal = [is_transversal_at(s.reduced) for s in res.solutions]
        out[name] = {
            "num_flags": res.num_flags,
            "min_abs_p1": min(abs(p) for p in res.cluster_p1) if res.cluster_p1 else None,
            "all_clusters_transversal": bool(all(transversal)),
            "numerically_generic": bool(res.generic and all(transversal)),
        }
    out["matrices_similar"] = bool(
        np.allclose(
            np.sort_complex(np.linalg.eigvals(SURFACE_PAIR_A)),
            np.sort_complex(np.linalg.eigvals(SURFACE_PAIR_B)),
        )
    )
    return out


def test_surface_pair_genericity_report():
    rep = surface_pair_genericity_report(restarts=800, seed=0)
    assert rep["matrices_similar"]
    for key in ("pair_a", "pair_b"):
        assert rep[key]["num_flags"] % 6 == 0
        assert rep[key]["all_clusters_transversal"]
        # unit-norm rescaling of the reference value 45 at norm sqrt(5)
        assert abs(rep[key]["min_abs_p1"] - 45 / 5**3) < 1e-6


# -- oracle: one restart at a time, clustered by a greedy loop over the clusters


def _expm_skew(X):
    w, V = np.linalg.eigh(-1j * X)
    return (V * np.exp(1j * w)) @ V.conj().T


def _pattern_residual(B, pos0):
    vals = B[tuple(zip(*pos0))]
    return np.concatenate([vals.real, vals.imag])


def commutator_jacobian(B, pos0):
    """Oracle for the pattern Jacobian at one matrix B: the real and
    imaginary parts of the 0-based pattern entries pos0 of the commutators
    [B, S_b], built from the whole basis stack, shape (2k, n^2)."""
    stack = skew_hermitian_basis(B.shape[0])
    comm = B[None, :, :] @ stack - stack @ B[None, :, :]
    vals = comm[:, [p[0] for p in pos0], [p[1] for p in pos0]]
    return np.concatenate([vals.real, vals.imag], axis=1).T


def gauss_newton_one_start(A, U0, positions, max_iter=60, resid_tol=1e-18):
    """Oracle for gauss_newton_reduce on one start: the commutator Jacobian
    built from the whole basis stack, ``lstsq`` for the step, and a fresh
    ``eigh`` per step length.  Returns (solution, steps taken)."""
    pos0 = [(i - 1, j - 1) for (i, j) in positions]
    stack = skew_hermitian_basis(A.shape[0])
    U = U0
    B = U.conj().T @ A @ U
    r = _pattern_residual(B, pos0)
    r2 = float(r @ r)
    taken = 0
    for _ in range(max_iter):
        if r2 <= resid_tol:
            break
        J = commutator_jacobian(B, pos0)
        s, *_ = np.linalg.lstsq(J, -r, rcond=None)
        X = np.tensordot(s, stack, axes=(0, 0))
        improved = False
        step = 1.0
        for _ in range(10):
            U2 = U @ _expm_skew(step * X)
            B2 = U2.conj().T @ A @ U2
            rr = _pattern_residual(B2, pos0)
            rr2 = float(rr @ rr)
            if rr2 < r2:
                U, B, r, r2 = U2, B2, rr, rr2
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        taken += 1
    W, _, Vh = np.linalg.svd(U)
    U = W @ Vh
    B = U.conj().T @ A @ U
    r = _pattern_residual(B, pos0)
    return FlagSolution(unitary=U, reduced=B, residual=float(r @ r)), taken


def torus_equivalent_scalar(B, C, tol=1e-7):
    """Oracle for torus_equivalent: the test written out entry by entry."""
    free = [(0, 1), (1, 2), (2, 0)]
    for d in range(3):
        if abs(B[d, d] - C[d, d]) > tol:
            return False
    for (i, j) in free:
        if abs(abs(B[i, j]) - abs(C[i, j])) > tol:
            return False
    if min(abs(B[i, j]) for (i, j) in free) <= tol:
        return True
    pb = B[0, 1] * B[1, 2] * B[2, 0]
    pc = C[0, 1] * C[1, 2] * C[2, 0]
    return abs(pb / abs(pb) - pc / abs(pc)) < 100 * tol


def torus_equivalent_grid(B, C, steps=600, tol=1e-6):
    """Brute-force oracle for torus_equivalent: scan diagonal unitaries
    diag(1, e^ia, e^ib) on a grid and compare the conjugates directly."""
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    angles = np.linspace(0, 2 * np.pi, steps, endpoint=False)
    D = np.ones((steps, 3), dtype=complex)
    D[:, 2] = np.exp(1j * angles)
    for a in angles:
        D[:, 1] = np.exp(1j * a)
        # diag(D)^-1 B diag(D) scales entry (i, j) by D_j / D_i
        M = B * D[:, None, :] / D[:, :, None]
        if (np.abs(M - C).max(axis=(1, 2)) < tol).any():
            return True
    return False


def count_flags_by_restart_loop(
    A, restarts=2000, seed=0, max_iter=60, resid_tol=1e-18, cluster_tol=1e-7,
    genericity_band=1e-6,
):
    """Oracle for count_flags: a Python loop over the restarts, each drawn by
    ``haar_unitary`` and reduced alone, clustered by a greedy loop of the
    torus test, which the flag clustering must reproduce."""
    A = np.asarray(A, dtype=complex)
    A = A - np.trace(A) / 3 * np.eye(3)
    A = A / np.linalg.norm(A)
    rng = np.random.default_rng(seed)
    reps, hits, steps = [], [], []
    n_converged = 0
    last_new = None
    for t in range(restarts):
        sol, taken = gauss_newton_one_start(
            A, haar_unitary(rng, 3), list(CYCLIC_PATTERN), max_iter, resid_tol
        )
        steps.append(taken)
        if sol.residual > resid_tol:
            continue
        n_converged += 1
        for k, rep in enumerate(reps):
            if torus_equivalent_scalar(sol.reduced, rep.reduced, cluster_tol):
                hits[k] += 1
                break
        else:
            reps.append(sol)
            hits.append(1)
            last_new = t
    p1s = [float(poly_P1(r.reduced)) for r in reps]
    z_closed = True
    for rep in reps:
        img = CYCLE_MATRIX @ rep.reduced @ CYCLE_MATRIX.T
        for k, other in enumerate(reps):
            if torus_equivalent_scalar(img, other.reduced, cluster_tol):
                if abs(p1s[k] - poly_P1(rep.reduced)) > 1e-6:
                    z_closed = False
                break
        else:
            z_closed = False
    groups = {}
    for p in p1s:
        key = round(p / max(cluster_tol, 1e-9))
        groups[key] = groups.get(key, 0) + 1
    return FlagCensus(
        num_flags=len(reps),
        solutions=reps,
        cluster_hits=hits,
        cluster_p1=p1s,
        n_restarts=restarts,
        n_converged=n_converged,
        generic=bool(reps) and min(abs(p) for p in p1s) >= genericity_band,
        z_orbit_closed=z_closed,
        p1_group_sizes=sorted(groups.values(), reverse=True),
        incomplete=n_converged < max(10, restarts // 200),
        last_new_cluster=last_new,
        gn_iterations=np.bincount(steps).tolist(),
    )


def flags3_panel(k):
    """Matrix k of the panel the flags3 benchmark conjugates: the k-th draw
    of ``random_traceless`` from seed 0.  Matrix 2 is slow: about a quarter
    of its restarts converge."""
    rng = np.random.default_rng(0)
    for _ in range(k):
        random_traceless(rng)
    return random_traceless(rng)


def assert_same_census(got, want, rep_tol, same_steps=True):
    for name in (
        "num_flags", "cluster_hits", "n_restarts", "n_converged", "generic",
        "z_orbit_closed", "p1_group_sizes", "incomplete", "last_new_cluster",
    ):
        assert getattr(got, name) == getattr(want, name), name
    assert sum(got.gn_iterations) == got.n_restarts
    if same_steps:
        assert got.gn_iterations == want.gn_iterations
    for a, b in zip(got.solutions, want.solutions):
        assert np.max(np.abs(a.reduced - b.reduced)) <= rep_tol
        assert np.max(np.abs(a.unitary - b.unitary)) <= rep_tol
        assert a.residual <= 1e-18 and b.residual <= 1e-18


@pytest.mark.parametrize("k", [0, 1, 2])
def test_count_flags_matches_the_restart_loop(k):
    A = flags3_panel(k)
    got = count_flags(A, restarts=300, seed=k)
    want = count_flags_by_restart_loop(A, restarts=300, seed=k)
    slow = k == 2
    # a restart that stalls takes a number of steps that rounding can change
    assert_same_census(got, want, 1e-9, same_steps=not slow)
    assert got.n_converged < 150 if slow else got.n_converged > 290


def test_haar_unitaries_match_a_loop_of_haar_unitary():
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        loop = [haar_unitary(rng, n) for _ in range(40)]
        batch = haar_unitaries(np.random.default_rng(n), 40, n)
        assert np.array_equal(batch, np.stack(loop))


def test_haar_draws_stay_lean():
    # drawn and factored all at once, 8000 draws peaked at 6.16 MB traced;
    # _BLOCK at a time they peak at 2.32 MB
    haar_unitaries(np.random.default_rng(1), 20, 3)
    tracemalloc.start()
    try:
        haar_unitaries(np.random.default_rng(1), 8000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_torus_equivalent_matches_the_scalar_loop():
    rng = np.random.default_rng(21)
    founders = [random_cyclic_subspace(rng) for _ in range(4)]
    # two founders with a vanishing free entry, one exactly and one below tol
    founders[2][0, 1] = 0
    founders[3][2, 0] = 3e-8
    mats = []
    for _ in range(20):
        j = rng.integers(len(founders))
        t = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=3)))
        M = np.linalg.inv(t) @ founders[j] @ t
        if rng.random() < 0.3:
            M = M + 4e-8 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        elif j == 3 and rng.random() < 0.5:
            # within tol of the modulus 3e-8 but above tol itself: only a
            # matrix whose own entry vanishes may skip the phase test
            M[2, 0] = 1.2e-7 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        mats.append(M)
    for B in mats:
        for C in mats:
            assert torus_equivalent(B, C) == torus_equivalent_scalar(B, C)


@pytest.mark.parametrize("n", [3, 4])
def test_flag_clusters_match_the_planted_flags(n):
    rng = np.random.default_rng(40 + n)
    founders = list(haar_unitaries(rng, 3, n))
    # the same lines as founder 0 in another order: a different flag
    founders.append(founders[0][:, np.roll(np.arange(n), 1)])
    planted, unitaries = [], []
    for _ in range(80):
        j = int(rng.integers(len(founders)))
        D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
        U = founders[j] @ D
        if rng.random() < 0.5:
            U = U + 1e-9 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        planted.append(j)
        unitaries.append(U)
    labels = orbit3._flag_clusters(np.stack(unitaries))
    # clusters are numbered in order of appearance
    order = list(dict.fromkeys(planted))
    assert len(order) == len(founders)
    assert labels.tolist() == [order.index(j) for j in planted]


def test_count_flags_with_no_converged_restart(monkeypatch):
    monkeypatch.setattr(orbit3, "RESID_TOL", -1.0)
    res = count_flags(flags3_panel(1), restarts=20, seed=4)
    assert res.num_flags == 0 and res.n_converged == 0
    assert res.solutions == res.cluster_hits == res.cluster_p1 == []
    assert res.p1_group_sizes == []
    assert res.generic is False and res.z_orbit_closed is True
    assert res.incomplete is True and res.last_new_cluster is None
    assert sum(res.gn_iterations) == 20


def test_count_flags_does_not_depend_on_the_block_size(monkeypatch):
    # panel matrix 1 keeps every bit; on the slow panel matrix 2 a restart's
    # place in the stacked products changes their rounding, which moves the
    # founders by up to 5.5e-14 and the step counts of stalled restarts, as
    # in test_count_flags_matches_the_restart_loop[2].  2000 restarts run as
    # one window by default and as four windows of 512
    cases = [(flags3_panel(1), True), (flags3_panel(2), False)]
    default = orbit3._BLOCK
    assert default >= 2000
    for restarts, blocks in ((300, (37, 300)), (2000, (512,))):
        monkeypatch.setattr(orbit3, "_BLOCK", default)
        wants = [count_flags(A, restarts=restarts, seed=4) for A, _ in cases]
        for block in blocks:
            monkeypatch.setattr(orbit3, "_BLOCK", block)
            for (A, exact), want in zip(cases, wants):
                got = count_flags(A, restarts=restarts, seed=4)
                assert_same_census(
                    got, want, 0.0 if exact else 1e-9, same_steps=exact
                )


def test_a_full_window_stays_lean(monkeypatch):
    # one window of 2000 restarts peaks at 3.34 MB traced, most of it the
    # workspace; the same window holding each iteration's Jacobians and
    # trial matrices until the next ones were built peaked at 6.8 MB
    A = flags3_panel(0)
    count_flags(A, restarts=20)  # the cached tables are built outside the trace
    widest = []
    solve = orbit3._min_norm_steps

    def recording(J, r, *rest):
        widest.append(J.shape[-1])
        return solve(J, r, *rest)

    monkeypatch.setattr(orbit3, "_min_norm_steps", recording)
    tracemalloc.start()
    try:
        count_flags(A, restarts=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(widest) == 2000
    assert peak < 5e6


def test_a_large_count_stays_lean():
    # 8000 restarts run as four windows, and the count peaks at 5.89 MB
    # traced; the Newton-Schulz step over the whole stack once peaked at
    # 8.86 MB, with the starts held twice, and the Haar draws made all at
    # once at 6.16 MB
    A = flags3_panel(0)
    count_flags(A, restarts=20)  # the cached tables are built outside the trace
    tracemalloc.start()
    try:
        count_flags(A, restarts=8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


def test_a_count_runs_through_the_module_reducer(monkeypatch):
    # the benchmark's tracer times the reducer by replacing this module
    # attribute, so a count must reach the reducer through it, once
    calls = []
    reduce = orbit3.gauss_newton_reduce

    def recording(*args):
        calls.append(args[1].shape)
        return reduce(*args)

    monkeypatch.setattr(orbit3, "gauss_newton_reduce", recording)
    count_flags(flags3_panel(0), restarts=30)
    assert calls == [(30, 3, 3)]


def test_the_iterations_of_a_call_share_one_workspace(monkeypatch):
    # every window's Jacobians lie in the one buffer of the call, whatever
    # the window's width: no iteration allocates its stacks afresh
    stacks = []
    solve = orbit3._min_norm_steps

    def recording(J, r, *rest):
        stacks.append(J)
        return solve(J, r, *rest)

    def owner(a):
        while a.base is not None:
            a = a.base
        return a

    monkeypatch.setattr(orbit3, "_min_norm_steps", recording)
    count_flags(flags3_panel(2), restarts=300, seed=2)
    assert len({J.shape[-1] for J in stacks}) > 10
    assert len({id(owner(J)) for J in stacks}) == 1


def test_count_flags_reports_an_open_z_orbit(monkeypatch):
    # with the first of its six flags dropped, the z-orbit of the rest is open
    count = orbit3.count_reductions

    def drop_first(*args):
        census = count(*args)
        assert census.num_flags == 6
        return replace(
            census, num_flags=5, solutions=census.solutions[1:],
            cluster_hits=census.cluster_hits[1:],
        )

    monkeypatch.setattr(orbit3, "count_reductions", drop_first)
    res = count_flags(random_traceless(np.random.default_rng(0)), restarts=300, seed=1)
    assert res.num_flags == 5
    assert res.z_orbit_closed is False


def test_the_window_bounds_the_stacked_jacobians(monkeypatch):
    # panel matrix 2 has many restarts that run to max_iter, so the window
    # refills while slow restarts hold their places in it
    rows = []
    solve = orbit3._min_norm_steps

    def recording(J, r, *rest):
        rows.append(J.shape[-1])
        return solve(J, r, *rest)

    monkeypatch.setattr(orbit3, "_min_norm_steps", recording)
    monkeypatch.setattr(orbit3, "_BLOCK", 16)
    count_flags(flags3_panel(2), restarts=100, seed=2)
    assert max(rows) == 16


def test_each_start_keeps_its_own_step_budget_in_the_window(monkeypatch):
    # with a budget of 3 steps, most of the 40 starts stop on it while later
    # ones wait for their place in the window; each must stop where it would
    # stop alone
    monkeypatch.setattr(orbit3, "_BLOCK", 16)
    A = flags3_panel(0)
    starts = haar_unitaries(np.random.default_rng(3), 40, 3)
    U, _, res, steps = orbit3.gauss_newton_reduce(A, starts, list(CYCLIC_PATTERN), 3)
    assert (res > 1e-18).sum() > 20
    for k in range(40):
        want, taken = gauss_newton_one_start(A, starts[k], list(CYCLIC_PATTERN), 3)
        assert steps[k] == taken
        assert np.max(np.abs(U[k] - want.unitary)) <= 1e-9


def _last(z):
    """A stack of matrices given stack axis first, in the reducer's layout:
    the stack axis last, and a single matrix as a stack of one."""
    return z[..., None] if z.ndim == 2 else np.moveaxis(z, 0, -1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mm_matches_matmul(n):
    rng = np.random.default_rng(50 + n)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b, M = cx(30, n, n), cx(30, n, n), cx(n, n)
    for x, y in ((a, b), (M, b), (a, M)):
        want = x @ y
        got = np.moveaxis(orbit3._mm(_last(x), _last(y)), -1, 0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mm_into_given_arrays_keeps_every_bit(n):
    rng = np.random.default_rng(55 + n)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b, M = cx(n, n, 30), cx(n, n, 30), cx(n, n, 1)
    for x, y in ((a, b), (M, b), (a, M)):
        want = orbit3._mm(x, y)
        out, scratch = np.empty_like(want), np.empty_like(want)
        got = orbit3._mm(x, y, out=out, scratch=scratch)
        assert got is out
        assert got.tobytes() == want.tobytes()


def _fresh_take(self, name, shape, dtype=float):
    """``_Workspace.take`` with every stack in memory of its own."""
    return np.empty(shape, dtype)


class _Fresh:
    """A workspace for calling a kernel alone: every stack it takes is a
    fresh array, so no result is overwritten by a later call."""

    take = _fresh_take


FRESH = _Fresh()


def _packed_and_fresh(monkeypatch, run):
    """run() with the packed workspace and with every stack taken fresh."""
    packed = run()
    with monkeypatch.context() as m:
        m.setattr(orbit3._Workspace, "take", _fresh_take)
        return packed, run()


def assert_same_stacks(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_packed_workspace_keeps_every_bit(n, monkeypatch):
    # stacks that share memory in the packed layout of _LIVE must never be
    # live together: a name missing from a set where it is live lets another
    # stack overwrite it, and the bits change.  Windows of 37 and 16 gather
    # partial windows; at 2048 the window narrows within a wider workspace
    rng = np.random.default_rng(95 + n)
    I = {2: ne(2), 3: CYCLIC_PATTERN, 4: EXCEPTIONAL_4[0]}[n]
    A = random_traceless(rng, n)
    starts = haar_unitaries(rng, 120, n)
    for block in (2048, 37, 16):
        monkeypatch.setattr(orbit3, "_BLOCK", block)
        packed, fresh = _packed_and_fresh(
            monkeypatch, lambda: orbit3.gauss_newton_reduce(A, starts, list(I), 60)
        )
        assert_same_stacks(packed, fresh)


def test_count_reductions_at_n4_on_three_positions(monkeypatch):
    # the hand-laid workspace once put the step coefficients and P = [Re X;
    # Im X] in overlapping floats for every pattern of 3 positions at n = 4.
    # count_reductions refuses such a pattern, whose reductions form
    # continua, but the reducer still steps it with every bit kept
    A = random_traceless(np.random.default_rng(9), 4)
    I = [(1, 2), (2, 3), (3, 4)]
    starts = haar_unitaries(np.random.default_rng(3), 200, 4)
    packed, fresh = _packed_and_fresh(
        monkeypatch, lambda: orbit3.gauss_newton_reduce(A, starts, I, 60)
    )
    assert (packed[2] <= orbit3.RESID_TOL).sum() > 100
    assert_same_stacks(packed, fresh)
    with pytest.raises(ValueError, match="3 independent positions"):
        count_reductions(A, Pattern(I))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_workspace_takes_no_more_than_its_largest_live_set(n):
    for k in range(1, n * n + 1):
        work = orbit3._Workspace(n, 2 * k, 3)
        slots = work.slots
        live = [[name for name in names if name in slots] for names in orbit3._LIVE]
        largest = max(
            sum(slots[name][1] - slots[name][0] for name in names) for names in live
        )
        assert work.buf.size == 3 * largest
        for names in live:
            runs = sorted(slots[name] for name in names)
            assert all(end <= start for (_, end), (start, _) in zip(runs, runs[1:]))
    # the closed-form names are laid out at n = 3 only, and no residual
    # stack is held: 64, 144 and 402 floats when both were
    want = {2: (2, 32), 3: (6, 144), 4: (12, 390)}[n]
    assert orbit3._Workspace(n, want[0], 1).buf.size == want[1]


def test_a_count_takes_every_live_name(monkeypatch):
    # a name no kernel takes would keep its floats in the layout: a count
    # takes every name its workspace lays out, at n = 3 every name of _LIVE
    taken, laid_out = set(), set()
    take = orbit3._Workspace.take

    def recording(self, name, *args):
        taken.add(name)
        laid_out.update(self.slots)
        return take(self, name, *args)

    monkeypatch.setattr(orbit3._Workspace, "take", recording)
    count_flags(flags3_panel(0), restarts=50)
    assert taken == laid_out == {name for names in orbit3._LIVE for name in names}
    rng = np.random.default_rng(7)
    for n, I in ((2, ne(2)), (4, EXCEPTIONAL_4[0])):
        taken.clear()
        laid_out.clear()
        count_reductions(random_traceless(rng, n), I, restarts=50)
        assert taken == laid_out
        assert not taken & orbit3._EXP3_NAMES


def test_every_conjugation_of_a_count_takes_the_call_workspace(monkeypatch):
    # the starts at entry and the endpoints at exit are conjugated through
    # the workspace too, _BLOCK starts at a time: 3000 restarts make two
    # windows of each
    works = []
    conjugates = orbit3._conjugates

    def recording(A, U, work=None):
        works.append(work)
        assert U.shape[-1] <= orbit3._BLOCK
        return conjugates(A, U, work)

    monkeypatch.setattr(orbit3, "_conjugates", recording)
    count_flags(flags3_panel(0), restarts=3000)
    assert len(works) > 4
    assert all(isinstance(work, orbit3._Workspace) for work in works)
    assert len({id(work) for work in works}) == 1


@pytest.mark.parametrize(
    "case, block",
    [
        pytest.param("triangular", None, id="triangular"),
        pytest.param("exceptional", None, id="exceptional"),
        # restart 0 fails, and the window refills many times over 100 restarts
        pytest.param("exceptional", 16, id="exceptional-block16"),
    ],
)
def test_numeric_reduce_matches_the_restart_loop(case, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(orbit3, "_BLOCK", block)
    rng = np.random.default_rng(30)
    if case == "triangular":
        n, I = 3, ne(3)
    else:
        n, I = 4, EXCEPTIONAL_4[2]
    A = random_traceless(rng, n)
    sol = count_reductions(A, I, restarts=100, seed=5).solutions[0]
    starts = np.random.default_rng(5)
    for _ in range(100):
        want, _ = gauss_newton_one_start(
            A, haar_unitary(starts, n), list(I), max_iter=60
        )
        if want.residual <= 1e-18:
            break
    assert np.max(np.abs(sol.unitary - want.unitary)) <= 1e-9


def _pattern_jacobians(A, I, count, rng):
    """Pattern Jacobians and residuals of I at ``count`` Haar conjugates of A,
    the stack axis first."""
    n = A.shape[0]
    rows, cols = np.array(sorted(I), dtype=np.intp).T - 1
    B = orbit3._conjugates(A, _last(haar_unitaries(rng, count, n)), FRESH)
    J = orbit3._pattern_jacobian(B, orbit3._jacobian_table(n, rows, cols), FRESH)
    return np.moveaxis(J, -1, 0), orbit3._residuals(B, rows, cols).T


def _stack_first_steps(J, r):
    """``orbit3._min_norm_steps`` on stacks with the stack axis first."""
    x, svd_rows = orbit3._min_norm_steps(_last(J), r.T, FRESH)
    return x.T, svd_rows


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_norm_steps_match_lstsq(n):
    rng = np.random.default_rng(40 + n)
    I = {2: ne(2), 3: CYCLIC_PATTERN, 4: EXCEPTIONAL_4[0]}[n]
    J, r = _pattern_jacobians(random_traceless(rng, n), I, 40, rng)
    deficient = np.zeros(len(J), dtype=bool)
    # one row of one Jacobian scaled down: still full rank, but its Gram
    # pivot falls below the bound
    J[1, 0] *= 1e-6
    deficient[1] = True
    if n == 4:
        # the nilpotent of test_numeric_reduce_obstructed_case: every
        # Jacobian on its orbit is exactly rank-deficient: the Gram matrix is
        # singular, and lstsq truncates
        N = np.zeros((4, 4), dtype=complex)
        N[0, 1] = N[2, 3] = 1
        JN, rN = _pattern_jacobians(N / np.sqrt(2), I, 20, rng)
        mix = rng.permutation(60)
        J, r = np.concatenate([J, JN])[mix], np.concatenate([r, rN])[mix]
        deficient = np.concatenate([deficient, np.ones(20, dtype=bool)])[mix]
    x, svd_rows = _stack_first_steps(J, r)
    assert np.array_equal(svd_rows, deficient)
    assert np.isfinite(x).all()
    for Jk, rk, xk in zip(J, r, x):
        want = np.linalg.lstsq(Jk, -rk, rcond=None)[0]
        assert np.linalg.norm(xk - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "n, positions",
    [
        (2, [(1, 2)]),
        (2, [(1, 1), (2, 1)]),
        (3, list(CYCLIC_PATTERN)),
        (3, [(1, 2), (2, 2), (3, 1)]),
        (4, list(EXCEPTIONAL_4[0])),
        (4, [(4, 4), (1, 3), (3, 2)]),
    ],
    ids=["n2", "n2-diagonal", "n3-cyclic", "n3-diagonal", "n4-exceptional", "n4-diagonal"],
)
def test_jacobian_table_matches_the_commutator_stack(n, positions):
    rng = np.random.default_rng(80 + n + len(positions))
    B = rng.normal(size=(25, n, n)) + 1j * rng.normal(size=(25, n, n))
    rows, cols = np.array(positions, dtype=np.intp).T - 1
    work = orbit3._Workspace(n, 2 * len(rows), len(B))
    J = orbit3._pattern_jacobian(_last(B), orbit3._jacobian_table(n, rows, cols), work)
    assert J.shape == (2 * len(positions), n * n, len(B))
    pos0 = list(zip(rows, cols))
    for k, Bk in enumerate(B):
        assert np.max(np.abs(J[..., k] - commutator_jacobian(Bk, pos0))) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_table_assembles_the_steps(n):
    coef = np.random.default_rng(90 + n).normal(size=(n * n, 30))
    X = orbit3._skew_combinations(orbit3._basis_table(n), coef, FRESH)
    assert X.shape == (n, n, 30)
    want = np.tensordot(coef, skew_hermitian_basis(n), (0, 0))
    assert np.max(np.abs(np.moveaxis(X, -1, 0) - want)) <= 1e-15


def test_is_transversal_at_keeps_the_commutator_verdicts():
    # the matrices of test_c12_transversality_cross_validation and the
    # reference matrices, against the smallest singular value of the
    # normalized commutator-stack Jacobian
    rng = np.random.default_rng(12)
    mats = [GAMMA1_MATRIX, GAMMA2_MATRIX, SURFACE_PAIR_A, SURFACE_PAIR_B]
    mats += [random_cyclic_subspace(rng) for _ in range(500)]
    pos0 = [(i - 1, j - 1) for i, j in CYCLIC_PATTERN]
    verdicts = []
    for A in mats:
        J = commutator_jacobian(A / np.linalg.norm(A), pos0)
        verdicts.append(bool(np.linalg.svd(J, compute_uv=False)[-1] > 1e-8))
        assert orbit3.is_transversal_at(A) == verdicts[-1]
    assert verdicts[:4] == [False, True, True, True]


def _skew_from_spectrum(rng, spectrum, count):
    """Skew-hermitian i V diag(spectrum) V*: the first with V = I, so its
    spectrum is exact, the rest with Haar V."""
    V = haar_unitaries(rng, count, 3)
    V[0] = np.eye(3)
    return 1j * (V * np.asarray(spectrum, dtype=float)) @ V.conj().swapaxes(1, 2)


def _exp3_cases():
    rng = np.random.default_rng(60)
    J, r = _pattern_jacobians(random_traceless(rng), CYCLIC_PATTERN, 40, rng)
    steps = np.tensordot(_stack_first_steps(J, r)[0], skew_hermitian_basis(3), axes=(1, 0))
    unit = steps / np.linalg.norm(steps, axis=(1, 2))[:, None, None]
    return {
        "steps": steps,
        # det H0 = 2 and -2 with a double eigenvalue, and det H0 = 0; the
        # shift 0.5 gives H a trace and leaves the spectrum of the first H0
        # exact, so its split w of the double eigenvalue is exactly 0
        "double-det-pos": _skew_from_spectrum(rng, [-0.5, -0.5, 2.5], 20),
        "double-det-neg": _skew_from_spectrum(rng, [1.5, 1.5, -1.5], 20),
        "det-zero": _skew_from_spectrum(rng, [1.5, 0.5, -0.5], 20),
        # a double eigenvalue split by 2e-9, near the sqrt(eps) resolution
        # of the split from c0 and c1
        "near-double": _skew_from_spectrum(rng, [1.5 + 1e-9, 1.5 - 1e-9, -1.5], 20),
        "norm-1e-10": 1e-10 * unit,
        "norm-pi": np.pi * unit,
        "norm-10": 10 * unit,
    }


@pytest.mark.parametrize(
    "case",
    [
        "steps", "double-det-pos", "double-det-neg", "det-zero", "near-double",
        "norm-1e-10", "norm-pi", "norm-10",
    ],
)
def test_exp3_matches_the_eigh_oracle(case):
    X = _exp3_cases()[case]
    I = np.broadcast_to(np.eye(3), X.shape)
    trial = orbit3._exp3_trials(_last(I), _last(X), FRESH)
    # every step length of the line search
    for t in 0.5 ** np.arange(10):
        got = np.moveaxis(trial(t, np.arange(len(X))), -1, 0)
        for G, Y in zip(got, t * X):
            scale = max(1.0, np.linalg.norm(Y))
            assert np.linalg.norm(G - _expm_skew(Y)) <= 1e-14 * scale
            assert np.linalg.norm(G.conj().T @ G - np.eye(3)) <= 1e-14


def test_exp3_of_zero_is_the_identity():
    U = haar_unitaries(np.random.default_rng(61), 2, 3)
    U[0] = np.eye(3)
    X = np.zeros((2, 3, 3), dtype=complex)
    # a zero traceless part: exp(t X) is the scalar e^{-0.3 i t}
    X[1] = -0.3j * np.eye(3)
    trial = orbit3._exp3_trials(_last(U), _last(X), FRESH)
    for t in 0.5 ** np.arange(10):
        got = np.moveaxis(trial(t, np.arange(2)), -1, 0)
        assert np.array_equal(got[0], U[0])
        assert np.max(np.abs(got[1] - np.exp(-0.3j * t) * U[1])) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reducer_endpoints_are_unitary_with_their_conjugates(n, monkeypatch):
    rng = np.random.default_rng(70 + n)
    if n == 4:
        # the nilpotent of test_numeric_reduce_obstructed_case: every
        # Jacobian on its orbit takes the SVD step
        I = EXCEPTIONAL_4[0]
        A = np.zeros((4, 4), dtype=complex)
        A[0, 1] = A[2, 3] = 1 / np.sqrt(2)
    else:
        I = {2: ne(2), 3: CYCLIC_PATTERN}[n]
        A = random_traceless(rng, n)
    svd_rows = []
    solve = orbit3._min_norm_steps

    def recording(J, r, *rest):
        x, rows = solve(J, r, *rest)
        svd_rows.append(rows.any())
        return x, rows

    monkeypatch.setattr(orbit3, "_min_norm_steps", recording)
    U, B, _, _ = orbit3.gauss_newton_reduce(A, haar_unitaries(rng, 40, n), list(I), 80)
    assert any(svd_rows) == (n == 4)
    for Uk, Bk in zip(U, B):
        assert np.linalg.norm(Uk.conj().T @ Uk - np.eye(n)) <= 1e-14
        assert np.max(np.abs(Bk - Uk.conj().T @ A @ Uk)) <= 1e-14


def test_count_flags_calls_neither_eigh_nor_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-matrix LAPACK call")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    res = count_flags(flags3_panel(0), restarts=200, seed=0)
    assert res.num_flags in (6, 18) and res.generic
    # the patch is live: the reducer at n = 4 still needs eigh
    with pytest.raises(AssertionError, match="LAPACK"):
        count_reductions(random_traceless(np.random.default_rng(62), 4), EXCEPTIONAL_4[2], restarts=5)
