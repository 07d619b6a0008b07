"""Numerical companion for the 3 x 3 cyclic pattern {(1,3), (2,1), (3,2)}.

Provides the sixteen scalar conjugation invariants of a traceless 3 x 3
matrix, the degree-24 invariant polynomial P whose zero set contains every
matrix with a non-transversal orbit intersection, the degree-6 factor P1 on
the pattern subspace together with the ratio extraction of the degree-12
cofactor, transversality tests, and a random-restart Gauss-Newton reducer on
the unitary group.  ``count_reductions`` counts the flags reducing a matrix
of size 2, 3 or 4 into the subspace of any pattern; ``count_flags`` runs it
on the cyclic pattern and adds the checks that exist only there.

All tolerances are taken relative to natural homogeneity scales: inputs are
normalized to unit Frobenius norm before thresholding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .patterns import Pattern, cyclic3, mu
from .polynomials import Poly

# -- reference matrices --------------------------------------------------------

_SQ69 = math.sqrt(69.0)

#: matrix on the degree-6 hypersurface but not on the degree-12 one
GAMMA1_MATRIX = np.array(
    [[3 + 3j, 5, 0], [0, 3 - 3j, 5], [5, 0, -6]], dtype=complex
)

#: matrix on the degree-12 hypersurface but not on the degree-6 one
GAMMA2_MATRIX = np.array(
    [
        [-1, math.sqrt(222 + 6 * _SQ69) / 2, 0],
        [0, (1 - _SQ69) / 2, 0],
        [math.sqrt(222 - 6 * _SQ69) / 2, 0, (1 + _SQ69) / 2],
    ],
    dtype=complex,
)

#: unitarily similar pair of regular points on the degree-12 hypersurface
SURFACE_PAIR_A = np.array(
    [[1 + 1j, 0, 0], [0, -1, 0], [1, 0, -1j]], dtype=complex
)
SURFACE_PAIR_B = np.array(
    [[-1j, 0, 0], [0, -1, 0], [1, 0, 1 + 1j]], dtype=complex
)

#: cyclic permutation matrix; conjugation by it preserves the pattern subspace
CYCLE_MATRIX = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)

CYCLIC_PATTERN = cyclic3()


def _square(A, n: int = 3) -> np.ndarray:
    """A as a complex array; ValueError unless it is a finite n x n matrix."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix: {A.shape} does not match")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    return A


def _traceless(A) -> np.ndarray:
    """A as a complex array; ValueError unless it is a finite 3 x 3 matrix
    whose trace is zero up to 1e-9 max(||A||, 1)."""
    A = _square(A)
    if abs(np.trace(A)) > 1e-9 * max(float(np.linalg.norm(A)), 1.0):
        raise ValueError("matrix is not traceless")
    return A


# -- scalar invariants -----------------------------------------------------------


def invariants(X) -> np.ndarray:
    """Sixteen generating scalar invariants of a traceless 3 x 3 matrix under
    conjugation by special unitaries combined with unit scalar rescaling.

    The adjoint enters through Y = X*; all sixteen values are real.  A matrix
    that is not traceless is rejected.
    """
    X = _traceless(X)
    Y = X.conj().T
    X2 = X @ X
    Y2 = Y @ Y
    t_xy = np.trace(X @ Y).real
    t_x2y2 = np.trace(X2 @ Y2).real
    t_x2 = np.trace(X2)
    t_x3 = np.trace(X2 @ X)
    t_y2 = np.trace(Y2)
    t_y3 = np.trace(Y2 @ Y)
    t_x2y = np.trace(X2 @ Y)
    t_xy2 = np.trace(X @ Y2)
    t_xyx2y2 = np.trace(X @ Y @ X2 @ Y2).real
    i = np.empty(16)
    i[0] = t_xy
    i[1] = t_x2y2
    i[2] = abs(t_x2) ** 2 / 4
    i[3] = t_xyx2y2
    i[4] = abs(t_x3) ** 2 / 9
    i[5] = abs(t_x2y) ** 2
    i[6] = (t_y2 * (3 * t_x2y**2 + t_x3 * t_xy2)).real / 6
    i[7] = (t_y2 * (3 * t_x2y**2 - t_x3 * t_xy2)).real / 6
    i[8] = (t_y2 * t_x2y**2).imag / 2
    i[9] = (t_x2 * t_x2y**2 * t_y3).imag / 6
    i[10] = (t_x2**2 * t_y3 * t_xy2).real / 12
    i[11] = (t_x2**2 * t_y3 * t_xy2).imag / 12
    i[12] = (t_x3**2 * t_y2**3).real / 72
    i[13] = (t_x3**2 * t_y2**3).imag / 72
    i[14] = (t_x2y**3 * t_y3).imag / 3
    i[15] = (t_x2**4 * t_y3**2 * t_xy2**2).real / 144
    return i


# -- the degree-24 polynomial -----------------------------------------------------

#: real degree of each invariant in the matrix entries, 1-based slot 0 unused
INVARIANT_DEGREES = (0, 2, 4, 4, 6, 6, 6, 8, 8, 8, 11, 10, 10, 12, 12, 12, 20)


def _collected_coefficients() -> dict[tuple[int, int], Poly]:
    """The coefficient polynomials p[k, l] of P = sum p_kl i3^k i6^l, written
    exactly in the collected form of the source table."""
    v = [None] + [Poly.variable(16, t) for t in range(1, 17)]
    i1, i2, i4, i5, i7, i8, i11, i13, i16 = (
        v[1], v[2], v[4], v[5], v[7], v[8], v[11], v[13], v[16],
    )
    p: dict[tuple[int, int], Poly] = {}
    p[0, 0] = -6 * (
        126 * i2**2 * i1**4 - 26 * i2 * i1**6 + 336 * i7 * i2 * i1**2
        - 270 * i2**3 * i1**2 + 1536 * i7**2 + 216 * i2**4
        - 11 * i7 * i1**4 + 2 * i1**8 - 1152 * i7 * i2**2
    ) * (i8 + i7)
    p[0, 1] = (
        18432 * i11 * i7 + 186 * i8 * i1**5 + 2016 * i11 * i1**2 * i2
        + 2160 * i2**2 * i1 * i7 - 66 * i11 * i1**4
        + 2160 * i8 * i1 * i2**2 - 1278 * i8 * i1**3 * i2
        + 186 * i1**5 * i7 - 6912 * i11 * i2**2 + 3456 * i1 * i7**2
        + 3456 * i8 * i1 * i7 - 1278 * i1**3 * i2 * i7
    )
    p[0, 2] = (
        3888 * i8 * i2 + 297 * i1**2 * i2**2 - 4608 * i13 - 324 * i2**3
        - 90 * i1**4 * i2 + 3888 * i2 * i7 + 9 * i1**6
        - 1242 * i1**2 * i7 - 1242 * i8 * i1**2 - 3456 * i11 * i1
    )
    p[0, 3] = 18 * i1 * (-7 * i1**2 + 27 * i2)
    p[0, 4] = Poly.const(16, 729)
    p[1, 0] = (
        6912 * i7 * i4 * i1 * i2 + 2016 * i2 * i1**2 * i13
        - 33 * i4 * i2 * i1**5 + 1008 * i4 * i2**2 * i1**3
        - 3456 * i4 * i1 * i2**3 - 1008 * i4**2 * i2 * i1**2
        + 31104 * i5**2 * i2**2 + 33 * i5 * i1**7 + 297 * i5**2 * i1**4
        + 9792 * i2**3 * i8 - 2304 * i4**2 * i8 - 251 * i1**6 * i8
        - 20736 * i5**2 * i8 - 3024 * i5 * i4 * i2 * i1**2
        + 25920 * i7 * i2**3 - 55296 * i7**2 * i2 - 6912 * i7 * i4**2
        + 17760 * i7**2 * i1**2 + 3456 * i4**2 * i2**2
        + 9504 * i5 * i2**2 * i1**3 - 6912 * i7 * i5 * i1**3
        - 66 * i1**4 * i13 + 4608 * i16 - 24012 * i7 * i2**2 * i1**2
        - 317 * i7 * i1**6 - 62208 * i7 * i5**2
        + 2304 * i4 * i2 * i1 * i8 - 1206 * i5 * i2 * i1**5
        + 3012 * i2 * i1**4 * i8 + 5226 * i7 * i2 * i1**4
        - 20736 * i7 * i5 * i4 + 8544 * i7 * i1**2 * i8
        - 6912 * i2**2 * i13 + 9216 * i7 * i13 + 66 * i1**5 * i11
        - 9072 * i5**2 * i2 * i1**2 - 2304 * i5 * i1**3 * i8
        - 27648 * i7 * i2 * i8 - 6912 * i5 * i4 * i8
        - 11052 * i2**2 * i1**2 * i8 + 13824 * i5 * i2 * i1 * i8
        + 10368 * i5 * i4 * i2**2 + 1632 * i2**2 * i1**6
        - 5151 * i2**3 * i1**4 + 7200 * i2**4 * i1**2
        - 256 * i2 * i1**8 + 16 * i1**10 - 1728 * i2**5
        - 2016 * i2 * i1**3 * i11 + 41472 * i7 * i5 * i1 * i2
        - 18432 * i7 * i1 * i11 + 6912 * i2**2 * i1 * i11
        - 20736 * i5 * i1 * i2**3 + 99 * i5 * i4 * i1**4
        + 33 * i4**2 * i1**4
    )
    p[1, 1] = (
        -4320 * i5 * i2 * i1**2 + 6 * i1**3 * i8 + 6912 * i7 * i4
        + 1728 * i4**2 * i1 - 3450 * i7 * i1**3 - 5088 * i1**2 * i11
        + 14688 * i1 * i2**3 + 2721 * i2 * i1**5 + 2304 * i4 * i8
        - 4320 * i2 * i1 * i8 + 15552 * i5**2 * i1 + 1152 * i1 * i13
        + 11520 * i5 * i8 - 3456 * i4 * i2**2 + 1440 * i7 * i1 * i2
        - 20736 * i5 * i2**2 - 272 * i1**7 + 1530 * i5 * i1**4
        - 33 * i4 * i1**4 + 32256 * i2 * i11 + 5184 * i5 * i4 * i1
        - 9792 * i2**2 * i1**3 - 720 * i4 * i2 * i1**2 + 39168 * i7 * i5
    )
    p[1, 2] = (
        -1728 * i4 * i1 + 2130 * i1**4 - 10170 * i2 * i1**2
        + 15228 * i2**2 + 1296 * i8 + 1296 * i7 - 10368 * i5 * i1
    )
    p[1, 3] = -3726 * i1
    p[2, 0] = (
        -4272 * i4 * i2 * i1**3 + 16128 * i4 * i1 * i2**2
        - 16128 * i4**2 * i2 + 12816 * i5 * i4 * i1**2
        - 48384 * i5 * i4 * i2 + 4272 * i4**2 * i1**2
        - 27360 * i2**2 * i8 + 23808 * i7 * i8 + 80844 * i7 * i2 * i1**2
        + 69888 * i7**2 - 47808 * i5 * i2 * i1**3
        + 117504 * i5 * i1 * i2**2 - 39168 * i7 * i5 * i1
        + 19500 * i2 * i1**2 * i8 - 8544 * i1**2 * i13
        + 32256 * i2 * i13 + 8544 * i1**3 * i11 + 384 * i1**8
        + 20160 * i2**4 - 128736 * i7 * i2**2 - 11607 * i7 * i1**4
        + 4470 * i5 * i1**5 - 145152 * i5**2 * i2 + 38448 * i5**2 * i1**2
        - 2799 * i1**4 * i8 - 11520 * i5 * i1 * i8
        - 50016 * i2**3 * i1**2 - 5279 * i2 * i1**6
        + 26283 * i2**2 * i1**4 - 32256 * i2 * i1 * i11
    )
    p[2, 1] = (
        -22224 * i7 * i1 - 4272 * i4 * i1**2 - 37632 * i11
        + 16128 * i4 * i2 + 96768 * i5 * i2 - 2112 * i1**5
        + 18192 * i2 * i1**3 - 15264 * i5 * i1**2 - 8400 * i1 * i8
        - 40608 * i1 * i2**2
    )
    p[2, 2] = -10476 * i2 + 10401 * i1**2
    p[3, 0] = (
        44448 * i5 * i1**3 + 31296 * i8 * i2 + 4415 * i1**6
        - 76308 * i1**2 * i7 - 18816 * i4 * i1 * i2 + 169344 * i5**2
        + 56448 * i5 * i4 + 128496 * i1**2 * i2**2 + 37632 * i11 * i1
        - 209664 * i5 * i1 * i2 + 18816 * i4**2 - 9108 * i8 * i1**2
        + 236352 * i2 * i7 - 37632 * i13 - 90624 * i2**3
        - 43032 * i1**4 * i2
    )
    p[3, 1] = -117504 * i5 + 480 * i2 * i1 + 3312 * i1**3 - 18816 * i4
    p[3, 2] = Poly.const(16, -5196)
    p[4, 0] = (
        -146816 * i2 * i1**2 - 10384 * i8 + 112896 * i5 * i1
        + 23948 * i1**4 + 195840 * i2**2 - 142480 * i7
    )
    p[4, 1] = 33632 * i1
    p[5, 0] = -202048 * i2 + 65232 * i1**2
    p[6, 0] = Poly.const(16, 78400)
    return p


@functools.cache
def _p_expanded() -> Poly:
    """The fully expanded 203-term polynomial in the sixteen invariants."""
    v3 = Poly.variable(16, 3)
    v6 = Poly.variable(16, 6)
    total = Poly.zero(16)
    for (k, l), coeff in _collected_coefficients().items():
        total = total + coeff * v3**k * v6**l
    if len(total.terms) != 203:
        raise AssertionError(
            f"invariant polynomial table has {len(total.terms)} terms, "
            "expected 203; transcription drift"
        )
    for e in total.terms:
        deg = sum(INVARIANT_DEGREES[t + 1] * p for t, p in enumerate(e))
        if deg != 24:
            raise AssertionError(
                f"term {e} has matrix degree {deg}, expected 24"
            )
    return total


@functools.cache
def _p_compiled():
    poly = _p_expanded()
    exps = np.array(sorted(poly.terms), dtype=np.int64)
    coeffs = np.array([poly.terms[tuple(e)] for e in exps], dtype=np.int64)
    return exps, coeffs


def poly_p_from_invariants(ivec) -> float:
    exps, coeffs = _p_compiled()
    ivec = np.asarray(ivec, dtype=float)
    return float(coeffs @ np.prod(ivec[None, :] ** exps, axis=1))


def poly_P(X) -> float:
    """The degree-24 invariant polynomial on traceless 3 x 3 matrices.

    Evaluated on the unit-norm rescaling and scaled back, so the relative
    precision is uniform across input scales.
    """
    X = _square(X)
    s = float(np.linalg.norm(X))
    if s == 0.0:
        return 0.0
    return poly_p_from_invariants(invariants(X / s)) * s**24


def _cyclic_entries(A):
    """Split a pattern-subspace matrix into its five free entries u, v, w, x,
    y, z; reject matrices outside the subspace."""
    A = _traceless(A)
    tol = 1e-9 * max(float(np.linalg.norm(A)), 1.0)
    for (i, j) in CYCLIC_PATTERN:
        if abs(A[i - 1, j - 1]) > tol:
            raise ValueError(
                f"entry {(i, j)} = {A[i - 1, j - 1]} is not zero: "
                "matrix lies outside the cyclic pattern subspace"
            )
    u, z = A[0, 0], A[0, 1]
    v, x = A[1, 1], A[1, 2]
    y, w = A[2, 0], A[2, 2]
    return u, v, w, x, y, z


def poly_P1(A) -> float:
    """Degree-6 polynomial on the cyclic pattern subspace whose zero set is
    exactly the locus of non-transversal orbit intersection."""
    u, v, w, x, y, z = _cyclic_entries(A)
    s = float(np.linalg.norm(np.asarray(A)))
    if s == 0.0:
        return 0.0
    u, v, w, x, y, z = (t / s for t in (u, v, w, x, y, z))
    val = (
        abs((v - w) * x**2) ** 2
        + abs((w - u) * y**2) ** 2
        + abs((u - v) * z**2) ** 2
        + (abs((v - w) * x) ** 2 + abs(y * z) ** 2)
        * (abs(v) ** 2 + abs(w) ** 2 - 5 * abs(u) ** 2)
        + (abs((w - u) * y) ** 2 + abs(z * x) ** 2)
        * (abs(w) ** 2 + abs(u) ** 2 - 5 * abs(v) ** 2)
        + (abs((u - v) * z) ** 2 + abs(x * y) ** 2)
        * (abs(u) ** 2 + abs(v) ** 2 - 5 * abs(w) ** 2)
        + abs((u - v) * (v - w) * (w - u)) ** 2
    )
    return val * s**6


def poly_P2_ratio(A) -> float:
    """The degree-12 cofactor extracted as P / P1^2.

    Refuses when |P1| is below 1e-8 relative to scale: near its zero locus
    the ratio is ill conditioned, and when s^24, s = ||A||, is below the
    smallest normal float (at the zero matrix too), where P reads 0 or
    loses its digits."""
    A = np.asarray(A, dtype=complex)
    s = float(np.linalg.norm(A))
    p1 = poly_P1(A)
    if s**24 < np.finfo(float).tiny:
        raise ValueError(f"matrix of norm {s:.3g} is too small: P underflows")
    if abs(p1) < 1e-8 * s**6:
        raise ValueError(
            "P1 is below the conditioning threshold; ratio extraction refused"
        )
    return poly_P(A) / p1**2


# -- transversality ---------------------------------------------------------------


@functools.cache
def skew_hermitian_basis(n: int) -> np.ndarray:
    """Real basis of the skew-hermitian n x n matrices, stacked: shape
    (n^2, n, n), read-only.  The diagonal units i E_kk come first, then for
    each k < l the pair E_kl - E_lk, i (E_kl + E_lk)."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    for k in range(n):
        basis[k, k, k] = 1j
    b = n
    for k in range(n):
        for l in range(k + 1, n):
            basis[b, k, l], basis[b, l, k] = 1, -1
            basis[b + 1, k, l] = basis[b + 1, l, k] = 1j
            b += 2
    basis.setflags(write=False)
    return basis


def is_transversal_at(A) -> bool:
    """Whether the conjugation orbit through A meets the cyclic pattern
    subspace transversally at A.  The subspace is cut out of the traceless
    matrices by the three pattern entries, so it does exactly when the
    commutators with skew-hermitian matrices reach every value of those
    entries: when the 6 x 9 pattern Jacobian at A, normalized to unit norm,
    has its smallest singular value above 1e-8."""
    A = np.asarray(A, dtype=complex)
    _cyclic_entries(A)
    s = float(np.linalg.norm(A))
    if s == 0.0:
        return False
    rows, cols = np.array(list(CYCLIC_PATTERN), dtype=np.intp).T - 1
    table, work = _jacobian_table(3, rows, cols), _Workspace(3, 6, 1)
    J = _pattern_jacobian((A / s)[..., None], table, work)
    return bool(np.linalg.svd(J[..., 0], compute_uv=False)[-1] > 1e-8)


def _jacobian_table(n: int, rows, cols) -> np.ndarray:
    """The real (2k n^2, 2n^2) matrix of the linear map from [Re B; Im B],
    B an n x n matrix flattened, to the pattern Jacobian at B: the real and
    imaginary parts of the k pattern entries (p, q) of the commutators
    [B, S_b], over the skew-hermitian basis S_b, stacked as the rows
    (part, entry, b)."""
    # d[B, S]_pq / dS_kl = B_pk [l = q] - [k = p] B_lq: the entry (p, q) of
    # [B, S_b] takes B_xy with the weight [x = p] (S_b)_yq - (S_b)_px [y = q]
    basis, eye = skew_hermitian_basis(n), np.eye(n)
    M = np.einsum("ix,byi->ibxy", eye[rows], basis[:, :, cols])
    M -= np.einsum("bix,yi->ibxy", basis[:, rows, :], eye[:, cols])
    M = M.reshape(-1, n * n)
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def _pattern_jacobian(B: np.ndarray, table: np.ndarray, work) -> np.ndarray:
    """Jacobian of the real and imaginary parts of the pattern entries of
    exp(-S) B exp(S) at S = 0, for each matrix of the stack B of shape
    (n, n, R), in the coordinates of the skew-hermitian basis: shape
    (2k, n^2, R).  It is linear in B, so the whole stack takes one real
    matrix product with the ``_jacobian_table`` of the pattern.  The parts
    [Re B; Im B] and J take their slots of the ``_Workspace`` work."""
    n2, R = B.shape[0] * B.shape[1], B.shape[-1]
    Bf = B.reshape(n2, R)
    parts = work.take("parts", (2 * n2, R))
    np.copyto(parts[:n2], Bf.real)
    np.copyto(parts[n2:], Bf.imag)
    J = np.matmul(table, parts, out=work.take("J", (table.shape[0], R)))
    return J.reshape(-1, n2, R)


# -- the Gauss-Newton reducer -------------------------------------------------------

#: live starts that one Gauss-Newton iteration reduces together: the first
#: _BLOCK in restart order, refilled as starts finish, and the starts that
#: the entry and exit of a reducer call conjugate at a time.  A fixed window
#: bounds the memory of the stacked Jacobians and trial matrices whatever
#: the restart budget, and refilling keeps it full while slow starts run to
#: max_iter.  The window's stacks live in one ``_Workspace`` per reducer
#: call, 1152 bytes per start at n = 3, so a full window takes 2.36 MB,
#: allocated once.  2048 holds the default budget of 2000 restarts in one
#: window, so each iteration and each trial step length pays its fixed cost
#: of a few dozen small numpy calls once for all of them
_BLOCK = 2048

#: squared pattern residual at or below which a reduction has converged
RESID_TOL = 1e-18

#: tolerance on unit-norm matrices of the diagonal-torus conjugacy test
TORUS_TOL = 1e-7

#: largest norm of the off-diagonal part of U* U' at which two reducing
#: unitaries U, U' give the same flag.  On 16 flags3 samples (seeds 1, 7 and
#: 2024), restarts lie within 4.2e-8 of their flag and flags 0.74 apart
FLAG_TOL = 1e-4

#: restarts one count accepts at most: every start is held at once, and from
#: a few thousand restarts on the endpoints, their conjugates and their
#: clustering set a count's traced peak at about 0.71 kB per start (5.89 MB
#: at 8000, 11.4 MB at 16,000), so 10**6 take about 0.71 GB
MAX_RESTARTS = 10**6

#: smallest Cholesky pivot of the Gram matrix J J^T, relative to the mean of
#: its diagonal, that the Gram step accepts.  The j-th pivot is the squared
#: distance of row j of J from the span of the rows before it, so a Jacobian
#: whose rows are dependent to within about 1e-4 of their size goes to the
#: SVD.  For the Jacobians kept, the Gram solve's error of about
#: cond(J)^2 eps stays near 1e-7 of the step at worst, and the next
#: Gauss-Newton step absorbs it.  Exactly rank-deficient Jacobians give
#: pivots near eps.  Over the 263,429 Jacobians of count_flags on the 16
#: benchmark matrices of seeds 1 and 7919, the smallest relative pivot is
#: 4e-8 (cond(J) up to 1.6e4), so none of them takes the SVD.
_GRAM_PIVOT = 1e-8


@dataclass
class FlagSolution:
    """A unitary reducing a matrix into a pattern subspace, with the reduced
    matrix and the squared residual of the pattern constraints."""

    unitary: np.ndarray
    reduced: np.ndarray
    residual: float


@dataclass
class FlagCensus:
    """Outcome of a multi-restart flag count for one input matrix.

    ``last_new_cluster`` is the index of the restart whose endpoint founded
    the last cluster (None without clusters): far below ``n_restarts``, the
    budget had room to spare.  ``gn_iterations[k]`` counts the restarts that
    took k Gauss-Newton steps.  The fields from ``cluster_p1`` on belong to
    the cyclic pattern: ``count_flags`` fills them, ``count_reductions``
    leaves them empty or None."""

    num_flags: int
    solutions: list[FlagSolution]
    cluster_hits: list[int]
    n_restarts: int
    n_converged: int
    incomplete: bool
    last_new_cluster: int | None
    gn_iterations: list[int]
    cluster_p1: list[float] = field(default_factory=list)
    generic: bool | None = None
    z_orbit_closed: bool | None = None
    p1_group_sizes: list[int] = field(default_factory=list)


def haar_unitaries(rng, count: int, n: int) -> np.ndarray:
    """``count`` Haar-distributed n x n unitaries, shape (count, n, n): QR of
    complex Gaussian matrices with the phases of R's diagonal moved into Q.
    Draws the same numbers, in the same order, as ``count`` calls of
    ``haar_unitary``.  The starts are drawn and factored _BLOCK at a time,
    so the draws and factors of a large count are never all held at once."""
    chunks = []
    for a in range(0, count, _BLOCK):
        Z = rng.normal(size=(min(_BLOCK, count - a), 2, n, n))
        Q, R = np.linalg.qr(Z[:, 0] + 1j * Z[:, 1])
        d = np.diagonal(R, axis1=-2, axis2=-1)
        chunks.append(Q * (d / np.abs(d))[:, None, :])
        del Z, Q, R, d  # so that the next chunk draws with none of them held
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def haar_unitary(rng, n: int) -> np.ndarray:
    return haar_unitaries(rng, 1, n)[0]


def random_traceless(rng, n: int = 3) -> np.ndarray:
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A -= np.trace(A) / n * np.eye(n)
    return A / np.linalg.norm(A)


def random_cyclic_subspace(rng) -> np.ndarray:
    """Random unit-norm matrix in the cyclic pattern subspace."""
    u, v, x, y, z = (rng.normal() + 1j * rng.normal() for _ in range(5))
    A = np.array([[u, z, 0], [0, v, x], [y, 0, -u - v]], dtype=complex)
    return A / np.linalg.norm(A)


# The reducer keeps a stack of R small n x m matrices as an (n, m, R) array,
# the stack axis last: every elementwise operation then runs over the whole
# stack in one inner loop, where a leading stack axis gives inner loops of
# length m.  A single matrix enters a product with such stacks as (n, m, 1).


#: the window stacks that one step of a reducer iteration holds at once, by
#: the names the kernels take them by: ``_Workspace`` gives the names of one
#: set disjoint memory, so a set lists every stack that its step writes or
#: that is written before the step and read after it
_LIVE = (
    ("B", "parts", "J"),  # the Jacobian J of the window B via [Re B; Im B]
    ("J", "T", "row", "diag", "coef"),  # the Gram solve for the step
    ("coef", "P", "X"),  # the step X via P = [Re X; Im X]
    # (n = 3) H0 from X; H0^2, K, U H0 and U H0^2; then N from them
    ("X", "U", "H0"),
    ("U", "H0", "H0sq", "K", "UH0", "UH0sq", "mm"),
    ("U", "K", "UH0", "UH0sq", "N"),
    # a trial point U2 from N via N_j; its conjugate B2 via A U and U*
    # (as for the starts and the endpoints), which then take the accepted
    # points and their conjugates
    ("N", "Nj", "U2"),
    ("N", "U2", "AU", "adj", "B2", "mm2"),
    ("Ustar", "UstarU", "UUstarU", "S"),  # the Newton-Schulz step at exit
)

#: the names that only the closed-form exponential of ``_exp3_trials`` takes
_EXP3_NAMES = frozenset({"H0", "H0sq", "K", "UH0", "UH0sq", "mm", "N", "Nj", "U2"})


class _Workspace:
    """The memory of one ``gauss_newton_reduce`` call: one flat float buffer,
    allocated once for ``width`` starts, that each iteration carves into the
    C-contiguous stacks of its window, and the entry and exit carve into
    those of ``width`` starts at a time.  Each name of ``_LIVE`` that the
    call's trial path takes (the ``_EXP3_NAMES`` at n = 3 only) owns a run
    of floats per start, taken ``width`` times, so its stacks of any width
    lie in its own floats.  The runs are packed from ``_LIVE``: largest
    first, each at the lowest offset clear of every name it shares a set
    with, which takes as many floats per start as the largest set (32 at
    n = 2 on one position, 144 at n = 3 on the cyclic pattern)."""

    def __init__(self, n: int, m: int, width: int):
        d = 2 * n * n  # floats per start of an n x n complex stack
        skip = () if n == 3 else _EXP3_NAMES
        live = [[name for name in names if name not in skip] for names in _LIVE]
        sizes = dict(J=m * n * n, T=m * m + m, row=m + 1, diag=m, coef=n * n, N=3 * d)
        floats = {name: sizes.get(name, d) for names in live for name in names}
        self.slots = {}
        for name in sorted(floats, key=floats.get, reverse=True):
            f = floats[name] + floats[name] % 2  # keeps complex slots 16-byte aligned
            offset = 0
            for start, end in sorted(
                self.slots[other]
                for names in live if name in names
                for other in names if other in self.slots
            ):
                if offset + f <= start:
                    break
                offset = max(offset, end)
            self.slots[name] = offset, offset + f
        self.width = width
        self.buf = np.empty(max(end for _, end in self.slots.values()) * width)

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """An empty stack of the given shape, stack axis last, in slot ``name``."""
        offset, end = self.slots[name]
        floats = math.prod(shape[:-1]) * np.dtype(dtype).itemsize // 8
        assert floats <= end - offset and shape[-1] <= self.width
        start = offset * self.width
        return self.buf[start : start + floats * shape[-1]].view(dtype).reshape(shape)


def _mm(a: np.ndarray, b: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """a @ b for stacks of small matrices of shapes (n, l, ...) and
    (l, m, ...), with broadcasting stack axes, as a sum of l broadcast outer
    products.  This is for products whose two factors both vary over the
    stack: numpy's stacked matmul hands them to BLAS one matrix at a time,
    which costs several times more per 3 x 3 product than these few array
    operations over the whole stack.  A fixed left factor F instead takes
    one BLAS call for the whole stack, F @ b.reshape(l, -1) (as in
    ``_conjugates``), and so does a fixed linear map of the stack's entries
    (``_pattern_jacobian``, ``_skew_combinations``).  Given arrays of the
    product's shape, the product goes into out and each outer product into
    scratch, with the same bits."""
    out = np.multiply(a[:, 0, None], b[0], out=out)
    for k in range(1, a.shape[1]):
        out += np.multiply(a[:, k, None], b[k], out=scratch)
    return out


def _adjoint(U: np.ndarray, out=None) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack, a view of the
    conjugates written into out (a fresh array when out is None)."""
    return np.conjugate(U, out=out).swapaxes(0, 1)


def _conjugates(A: np.ndarray, U: np.ndarray, work) -> np.ndarray:
    """U* A U for a stack of unitaries U of shape (n, n, R): A U is one
    matrix product over the stack, U* (A U) a product per start.  A U, U*,
    the result and the scratch of the product take their slots of the
    ``_Workspace`` work; a window of a wider stack U is first copied into
    the result's slot, since A U needs it in one piece."""
    n, shape = A.shape[0], U.shape
    out, scratch = (work.take(name, shape, complex) for name in ("B2", "mm2"))
    if not U.flags.c_contiguous:
        np.copyto(out, U)
        U = out
    AU = work.take("AU", shape, complex)
    np.matmul(A, U.reshape(n, -1), out=AU.reshape(n, -1))
    adj = _adjoint(U, work.take("adj", shape, complex))
    return _mm(adj, AU, out, scratch)


def _basis_table(n: int) -> np.ndarray:
    """The real (2n^2, n^2) matrix whose column b holds the real and then the
    imaginary parts of the flattened basis matrix S_b of
    ``skew_hermitian_basis(n)``."""
    S = skew_hermitian_basis(n).reshape(n * n, n * n).T
    return np.concatenate([S.real, S.imag])


def _skew_combinations(table: np.ndarray, coef: np.ndarray, work) -> np.ndarray:
    """The skew-hermitian matrices sum_b coef[b, r] S_b, shape (n, n, R), from
    the coefficients coef of shape (n^2, R) and the ``_basis_table`` of
    the S_b: one real matrix product over the stack.  P = [Re X; Im X] and
    X take their slots of the ``_Workspace`` work."""
    n2, R = table.shape[1], coef.shape[1]
    n = math.isqrt(n2)
    P = np.matmul(table, coef, out=work.take("P", (2 * n2, R)))
    X = np.multiply(1j, P[n2:], out=work.take("X", (n2, R), complex))
    np.add(P[:n2], X, out=X)
    return X.reshape(n, n, R)


def _det3(M: np.ndarray) -> np.ndarray:
    """Determinant of each 3 x 3 matrix of the stack M, by cofactors along
    the first row."""
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def _columns(a: np.ndarray, k: np.ndarray, out=None) -> np.ndarray:
    """The stack a at the sorted distinct stack indices k: a itself, with no
    copy, when k takes every matrix of the stack, else a gather into out
    (a fresh array when out is None)."""
    if k.size == a.shape[-1]:
        return a
    if out is None:
        return a[..., k]
    # mode="clip" writes straight into out, where "raise" buffers it
    return np.take(a, k, axis=-1, out=out, mode="clip")


def _eigh_trials(U: np.ndarray, X: np.ndarray):
    """The map (t, k) -> U[..., k] exp(t X[..., k]) for a stack U of n x n
    unitaries and a stack X of skew-hermitian matrices, from one eigh of the
    hermitian -iX: exp(t X) = V diag(e^{i t w}) V*, so a trial point is
    (U V) diag(e^{i t w}) V*."""
    w, V = np.linalg.eigh(-1j * X.transpose(2, 0, 1))
    V = np.ascontiguousarray(V.transpose(1, 2, 0))
    UV, Vh, w = _mm(U, V), _adjoint(V), np.ascontiguousarray(w.T)
    return lambda t, k: _mm(
        _columns(UV, k) * np.exp(1j * t * _columns(w, k)), _columns(Vh, k)
    )


def _exp3_trials(U: np.ndarray, X: np.ndarray, work):
    """The map (t, k) -> U[..., k] exp(t X[..., k]) for stacks of 3 x 3
    matrices, in the closed form of Morningstar and Peardon (Phys. Rev. D
    69, 054501, 2004), with no per-matrix LAPACK call.

    With H = -iX = a I + H0, H0 traceless, exp(t X) = e^{i t a} (f0 I +
    f1 t H0 + f2 t^2 H0^2).  The eigenvalues of H0 are 2u and -u +- w, with
    c1 = tr H0^2 / 2, c0 = det H0, theta = arccos(|c0| / (2 (c1/3)^(3/2))),
    u = sign(c0) sqrt(c1/3) cos(theta/3) and w = sqrt(c1) sin(theta/3):
    carrying the sign of c0 in u takes the place of the paper's conjugation
    for c0 < 0, and keeps D = 9u^2 - w^2 >= 8u^2.  With E = e^{i t (a + 2u)}
    and F = e^{i t (a - u)}, the exponentials of the eigenvalue 2u and of the
    mean of the other two, and S = sin(t w) / w,

        D f0 = (u^2 - w^2) E + F (8u^2 cos(t w) + 2i u (3u^2 + w^2) S)
        D f1 t = 2u E - F (2u cos(t w) - i (3u^2 - w^2) S)
        D f2 t^2 = E - F (cos(t w) + 3i u S),

    so U exp(t X) = E N0 + F cos(t w) N1 + F S N2 with three matrices per
    start that do not depend on t: a trial length only scales a + 2u, a - u
    and w.  S is t where w = 0: a computed w of 0 may stand for a true split
    of about sqrt(eps) |H0|, whose N2 term S keeps.  A zero H0 (possible on
    the SVD step) gives f = (1, 0, 0), so X = 0 gives U exactly.

    H0, H0^2, K, U H0, U H0^2, N and each trial point take their slots of
    the ``_Workspace`` work."""
    shape = X.shape
    H0 = np.multiply(-1j, X, out=work.take("H0", shape, complex))
    a = np.trace(H0).real / 3
    for i in range(3):
        H0[i, i] -= a
    mm = work.take("mm", shape, complex)
    H0sq = _mm(H0, H0, work.take("H0sq", shape, complex), mm)
    c1 = np.trace(H0sq).real / 2
    c0 = _det3(H0).real
    r = np.sqrt(c1 / 3)
    cmax = 2 * r**3
    ratio = np.divide(np.abs(c0), cmax, out=np.zeros_like(c0), where=cmax > 0)
    theta = np.arccos(np.minimum(ratio, 1.0)) / 3
    u = np.copysign(r * np.cos(theta), c0)
    w = np.sqrt(c1) * np.sin(theta)
    uu, ww = u * u, w * w
    D = 9 * uu - ww
    flat = D == 0
    inv = np.divide(1.0, D, out=np.zeros_like(D), where=~flat)
    # K[j, i] is the coefficient of the j-th of E, F cos(t w), F S in
    # f_i t^i, and f0 = E where H0 = 0
    K = work.take("K", (3, 3) + u.shape, complex)
    K[0, 0], K[0, 1], K[0, 2] = uu - ww, 2 * u, 1
    K[1, 0], K[1, 1], K[1, 2] = 8 * uu, -2 * u, -1
    K[2, 0], K[2, 1], K[2, 2] = 2j * u * (3 * uu + ww), 1j * (3 * uu - ww), -3j * u
    np.multiply(inv, K, out=K)
    K[0, 0] += flat
    # N_j = sum_i K[j, i] M_i with M = (U, U H0, U H0^2), as three
    # contiguous linear combinations built in place: N_2 holds the products
    # of N_0 and N_1 until M_1 and M_2, no longer needed, take their own
    M = (
        U,
        _mm(U, H0, work.take("UH0", U.shape, complex), mm),
        _mm(U, H0sq, work.take("UH0sq", U.shape, complex), mm),
    )
    N = work.take("N", (3,) + U.shape, complex)
    for j in range(2):
        np.multiply(K[j, 0], M[0], out=N[j])
        for i in (1, 2):
            N[j] += np.multiply(K[j, i], M[i], out=N[2])
    np.multiply(K[2, 0], M[0], out=N[2])
    for i in (1, 2):
        N[2] += np.multiply(K[2, i], M[i], out=M[i])
    N = N.reshape(3, 9, -1)
    # the columns a trial length t scales: a + 2u, a - u, w, and the S of
    # w = 0
    still = w == 0
    C = np.stack([a + 2 * u, a - u, w, still])
    winv = 1 / np.where(still, 1.0, w)

    def trial(t, k):
        top, mid, tw, s0 = _columns(C, k) * t
        F = np.exp(1j * mid)
        # each N_j of the searching starts is gathered into Nj in turn
        shape = (9, k.size)
        Nj = work.take("Nj", shape, complex)
        U2 = np.multiply(
            np.exp(1j * top), _columns(N[0], k, Nj),
            out=work.take("U2", shape, complex),
        )
        U2 += np.multiply(F * np.cos(tw), _columns(N[1], k, Nj), out=Nj)
        U2 += np.multiply(
            F * (np.sin(tw) * _columns(winv, k) + s0), _columns(N[2], k, Nj), out=Nj
        )
        return U2.reshape(3, 3, -1)

    return trial


def _residuals(B: np.ndarray, rows, cols) -> np.ndarray:
    """Stacked real and imaginary parts of the pattern entries, one column
    per matrix of the stack B."""
    vals = B[rows, cols]
    return np.concatenate([vals.real, vals.imag])


def _evaluate(A: np.ndarray, U: np.ndarray, rows, cols, work):
    """(B, r2): the conjugates B = U* A U of a stack of unitaries U, in the
    ``_Workspace`` work (``_conjugates``), and the squared norms of their
    pattern residuals."""
    B = _conjugates(A, U, work)
    r = _residuals(B, rows, cols)
    return B, np.einsum("ir,ir->r", r, r)


def _min_norm_steps(
    J: np.ndarray, r: np.ndarray, work
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solutions x of J x = -r for a stack J of
    shape (m, d, R) with m <= d and r of shape (m, R), as
    ``lstsq(J, -r, rcond=None)`` gives them.

    A Jacobian of full row rank has x = J^T y with (J J^T) y = -r, solved by
    a Cholesky of the m x m Gram matrix done column by column across the
    stack; the Gram matrices come from one einsum per row, not a stacked
    matmul, which would call BLAS once per matrix, and only their upper
    triangles are formed and eliminated.  A Jacobian with a pivot below
    _GRAM_PIVOT times the mean Gram diagonal may be rank-deficient, where
    only a truncated SVD gives the right step; the SVD runs on those starts
    alone.  Returns (x, svd_rows), the steps of shape (d, R) and the mask of
    the starts the SVD solved.  T, its scratch row, the Cholesky diagonal
    and x take their slots of the ``_Workspace`` work."""
    m, R = J.shape[0], J.shape[2]
    # the upper triangle of [G | -r], eliminated in place: row j ends as row
    # j of L^T followed by the forward solution z_j of L z = -r.  The
    # eliminations read only that triangle, and the scratch row holds each
    # update's products
    T = work.take("T", (m, m + 1, R))
    for i in range(m):
        np.einsum("br,jbr->jr", J[i], J[i:], out=T[i, i:m])
    np.negative(r, out=T[:, m])
    row = work.take("row", (m + 1, R))
    floor = _GRAM_PIVOT * np.trace(T[:, :m]) / m
    ok = np.ones(R, dtype=bool)
    diag = work.take("diag", (m, R))
    for j in range(m):
        ok &= T[j, j] > floor
        np.sqrt(np.where(ok, T[j, j], 1.0), out=diag[j])
        T[j, j:] /= diag[j]
        for i in range(j + 1, m):
            T[i, i:] -= np.multiply(T[j, i], T[j, i:], out=row[i:])
    # back substitution L^T y = z
    y = T[:, m]
    for j in range(m - 1, -1, -1):
        y[j] /= diag[j]
        y[:j] -= np.multiply(T[:j, j], y[j], out=row[:j])
    x = np.einsum("ibr,ir->br", J, y, out=work.take("coef", J.shape[1:]))
    svd_rows = ~ok
    if svd_rows.any():
        # truncated where lstsq(rcond=None) truncates
        W, sv, Vh = np.linalg.svd(
            J[..., svd_rows].transpose(2, 0, 1), full_matrices=False
        )
        cut = np.finfo(float).eps * max(J.shape[:2]) * sv[:, :1]
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cut)
        Wr = np.einsum("rim,ir->rm", W, r[:, svd_rows])
        x[:, svd_rows] = -np.einsum("rmb,rm->br", Vh, inv * Wr)
    return x, svd_rows


def gauss_newton_reduce(
    A: np.ndarray,
    U0: np.ndarray,
    positions,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Drive the pattern entries of U* A U to zero by Gauss-Newton steps in
    the exponential chart of the unitary group, from each start of the stack
    U0 of shape (R, n, n), re-unitarizing at the end.

    The residual is the stacked real and imaginary parts of the constrained
    entries; its squared norm is the quantity thresholded by RESID_TOL.  A
    step is the minimum-norm least-squares solution of the linearized
    system in the coordinates of ``skew_hermitian_basis(n)``: J^T y with
    (J J^T) y = -r, from a Cholesky of the Gram matrix (``_min_norm_steps``).
    A start whose Gram pivot falls below _GRAM_PIVOT takes the truncated SVD
    step instead, the only correct one for a rank-deficient Jacobian; such
    Jacobians occur, e.g. all along the orbit of the nilpotent E_12 + E_34
    for the first pattern of EXCEPTIONAL_4.  The step is halved up to nine
    times until the residual strictly drops.  A start stops when its
    residual is at most RESID_TOL, when no step length lowers it, or after
    max_iter attempted steps.

    A trial point U exp(t X) comes at n = 3 from the closed-form exponential
    of ``_exp3_trials``, whose t-independent matrices are formed once per
    iteration, so a step length only rescales two phases and one angle; the
    ``eigh`` of -iX (``_eigh_trials``) runs only at other n, i.e. for
    ``count_reductions`` at n = 2 and n = 4.  The endpoints are re-unitarized
    by one Newton-Schulz step U <- (3 U - U U* U) / 2 toward the polar
    factor.  At n = 3 an iteration makes no per-matrix LAPACK or BLAS call
    unless a rank-deficient Jacobian takes the SVD step.

    The stacks are held with the stack axis last (see ``_mm``) and returned
    with it first.  Each iteration steps the first _BLOCK live starts in
    restart order, so the window refills from the waiting starts as others
    stop.  A call holds the starts, stepped in place in a C-contiguous
    stack-last copy of U0 (a caller that keeps no reference to U0, as
    ``count_reductions``, holds them once), their conjugates and their
    squared residuals.  Every other stack lives in one ``_Workspace``: those
    of an iteration, and at entry and exit, ``work.width`` starts at a time,
    those of the conjugations and the Newton-Schulz step.  An iteration
    allocates only arrays of a few floats per start.  The starts share no
    state, but a start's place in the stack can change the rounding of the
    product A @ U and of the residual and Gram ``einsum`` calls, so its path
    depends on the window at rounding level: on panel matrix 2 of the
    flags3 benchmark, a window of 37 moves endpoints by up to 5.5e-14 and
    changes the step counts of stalled starts, though no start switches
    between converged and not.

    Returns (unitaries, reduced, residuals, steps): the endpoints, U* A U at
    each, their squared residuals and the number of steps each start took.
    """
    # C order, so a window's gather by np.take does not copy the whole stack
    U = np.array(np.moveaxis(U0, 0, -1), dtype=complex, order="C")
    del U0
    n, R = A.shape[0], U.shape[-1]
    rows = np.array([i - 1 for i, _ in positions], dtype=np.intp)
    cols = np.array([j - 1 for _, j in positions], dtype=np.intp)
    jacobian_table, basis_table = _jacobian_table(n, rows, cols), _basis_table(n)
    work = _Workspace(n, 2 * rows.size, min(R, _BLOCK))
    B, r2 = np.empty_like(U), np.empty(R)
    for a in range(0, R, work.width):
        s = slice(a, a + work.width)
        B[..., s], r2[s] = _evaluate(A, U[..., s], rows, cols, work)
    steps, live = np.zeros(R, dtype=np.intp), np.ones(R, dtype=bool)
    while True:
        # a start leaves ``live`` at its first failed line search, so a live
        # start has taken a step at each of its attempts
        live &= (r2 > RESID_TOL) & (steps < max_iter)
        idx = np.flatnonzero(live)[:_BLOCK]
        if idx.size == 0:
            break
        w = idx.size
        Bw = _columns(B, idx, work.take("B", (n, n, w), complex))
        J = _pattern_jacobian(Bw, jacobian_table, work)
        coef, _ = _min_norm_steps(J, _residuals(Bw, rows, cols), work)
        X = _skew_combinations(basis_table, coef, work)
        Uw = _columns(U, idx, work.take("U", (n, n, w), complex))
        trial = _exp3_trials(Uw, X, work) if n == 3 else _eigh_trials(Uw, X)
        searching = np.ones(w, dtype=bool)
        step = 1.0
        for _ in range(10):
            k = np.flatnonzero(searching)
            U2 = trial(step, k)
            B2, rr2 = _evaluate(A, U2, rows, cols, work)
            # the accepted points, by one integer index, gathered into
            # slots the conjugation is done with
            j = np.flatnonzero(rr2 < r2[idx[k]])
            took = idx[k[j]]
            kept = U2.shape[:-1] + (j.size,)
            U[..., took] = _columns(U2, j, work.take("AU", kept, complex))
            B[..., took] = _columns(B2, j, work.take("adj", kept, complex))
            r2[took] = rr2[j]
            searching[k[j]] = False
            if not searching.any():
                break
            step *= 0.5
        steps[idx[~searching]] += 1
        live[idx[searching]] = False
        # no view of the workspace outlives the loop
        del Bw, J, coef, X, Uw, trial, U2, B2
    for a in range(0, R, work.width):
        s = slice(a, a + work.width)
        # one Newton-Schulz step toward the polar factor, U <- 1.5 U -
        # 0.5 U U* U, in place, then the conjugates of the endpoints
        Us = U[..., s]
        S = work.take("S", Us.shape, complex)
        adj = _adjoint(Us, work.take("Ustar", Us.shape, complex))
        G = _mm(adj, Us, work.take("UstarU", Us.shape, complex), S)
        H = _mm(Us, G, work.take("UUstarU", Us.shape, complex), S)
        np.subtract(np.multiply(1.5, Us, out=S), np.multiply(0.5, H, out=H), out=Us)
        B[..., s], r2[s] = _evaluate(A, Us, rows, cols, work)
    del work, Us, S, adj, G, H
    U = np.ascontiguousarray(np.moveaxis(U, -1, 0))
    return U, np.ascontiguousarray(np.moveaxis(B, -1, 0)), r2, steps


def _same_flag(F: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Whether unitaries F and U, stacks that broadcast, give the same flag:
    the off-diagonal part of F* U has norm at most FLAG_TOL.  F* U is
    unitary, so that norm squared is n - sum_i |(F* U)_ii|^2, and only the
    diagonal is formed."""
    d = np.einsum("...ji,...ji->...i", F.conj(), U)
    return U.shape[-1] - (d.real**2 + d.imag**2).sum(axis=-1) <= FLAG_TOL**2


def _flag_clusters(U: np.ndarray) -> np.ndarray:
    """Cluster label of each unitary of the stack U, in order of appearance.
    The first unitary no cluster holds founds the next one, which takes
    every unlabeled unitary giving the same flag (``_same_flag``)."""
    labels = np.full(len(U), -1, dtype=np.intp)
    unlabeled = np.arange(len(U))
    k = 0
    while unlabeled.size:
        match = _same_flag(U[unlabeled[0]], U[unlabeled])
        match[0] = True
        labels[unlabeled[match]] = k
        unlabeled = unlabeled[~match]
        k += 1
    return labels


def count_reductions(A, I: Pattern, restarts: int = 2000, seed: int = 0) -> FlagCensus:
    """Count the flags reducing A into the subspace of pattern I, by
    clustering the converged endpoints of random-restart Gauss-Newton runs.

    A must be a finite n x n matrix with n in {2, 3, 4} and I a pattern in
    its grid with at least mu(n) independent positions, all of them unless
    I holds the whole diagonal, where the trace fixes one (ValueError
    otherwise, as for a zero traceless part).  With fewer, the reductions
    of a generic A form continua, which the clusters only sample; defective
    patterns (``is_defective``) give continua too, which this check does
    not catch.  A is made traceless and normalized to unit Frobenius norm
    first.  Each restart takes up to 60 Gauss-Newton steps and has
    converged when its squared residual is at most RESID_TOL; the converged
    endpoints are clustered by flag (``_flag_clusters``), each cluster
    represented by its founder.  A flag is evidence of orbit intersection;
    none after the restart budget is evidence of nothing.  All restarts go through one ``gauss_newton_reduce``
    call from the first ``restarts`` Haar draws of default_rng(seed)
    (ValueError unless 1 <= restarts <= MAX_RESTARTS); it steps at most
    _BLOCK of them at a time, so a budget up to _BLOCK (the default among
    them) runs as one window.  The window can move the endpoints and the
    step counts of stalled restarts at rounding level but has not been seen
    to change a count or a cluster."""
    A = np.asarray(A, dtype=complex)
    n = len(A) if A.ndim else 0
    if n not in (2, 3, 4):
        raise ValueError(f"reducer is budgeted for n in {{2, 3, 4}}, got {A.shape}")
    A = _square(A, n)
    I.check_within(n)
    independent = len(I) - all((i, i) in I for i in range(1, n + 1))
    if independent < mu(n):
        raise ValueError(
            f"pattern has {independent} independent positions, fewer than "
            f"mu({n}) = {mu(n)}: its reductions form continua"
        )
    A = A - np.trace(A) / n * np.eye(n)
    s = float(np.linalg.norm(A))
    if s == 0.0:
        raise ValueError("zero matrix")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if restarts > MAX_RESTARTS:
        raise ValueError(f"at most {MAX_RESTARTS} restarts, got {restarts}")
    # no reference to the starts is kept here, so the reducer's stack-last
    # copy of them is the only one held while it runs
    U, B, res, taken = gauss_newton_reduce(
        A / s, haar_unitaries(np.random.default_rng(seed), restarts, n), list(I), 60
    )
    converged = np.flatnonzero(res <= RESID_TOL)
    _, first, hits = np.unique(
        _flag_clusters(U[converged]), return_index=True, return_counts=True
    )
    founders = converged[first]
    return FlagCensus(
        num_flags=int(founders.size),
        # copies, so a census does not keep every endpoint of the run alive
        solutions=[
            FlagSolution(U[k].copy(), B[k].copy(), float(res[k])) for k in founders
        ],
        cluster_hits=hits.tolist(),
        n_restarts=restarts,
        n_converged=int(converged.size),
        incomplete=converged.size < max(10, restarts // 200),
        last_new_cluster=int(founders[-1]) if founders.size else None,
        gn_iterations=np.bincount(taken).tolist(),
    )


def torus_equivalent(B, C) -> bool:
    """Whether two matrices in the cyclic pattern subspace are conjugate by a
    diagonal unitary: equal diagonals, equal moduli of the free entries
    (1,2), (2,3), (3,1), and a matching phase of their cycle product when
    all three entries of B are nonzero, each up to TORUS_TOL (the phase up
    to 100 TORUS_TOL)."""
    B, C = np.asarray(B, dtype=complex), np.asarray(C, dtype=complex)
    rows, cols = [0, 1, 2], [1, 2, 0]
    fb, fc = B[rows, cols], C[rows, cols]
    if not (
        np.all(np.abs(np.diag(B) - np.diag(C)) <= TORUS_TOL)
        and np.all(np.abs(np.abs(fb) - np.abs(fc)) <= TORUS_TOL)
    ):
        return False
    if np.abs(fb).min() <= TORUS_TOL:
        return True
    pb, pc = fb.prod(), fc.prod()
    return bool(abs(pb / abs(pb) - pc / abs(pc)) < 100 * TORUS_TOL)


def count_flags(A, restarts: int = 2000, seed: int = 0) -> FlagCensus:
    """``count_reductions`` of a 3 x 3 matrix A into the cyclic pattern
    subspace, with the checks that exist only for that pattern.

    A must be a finite 3 x 3 matrix (ValueError otherwise, or for what
    ``count_reductions`` rejects).  The z-orbit of the clusters is checked by
    flag: for a cluster C = U* A U, z C z^T = (U z^T)* A (U z^T), so the flag
    U z^T must be the flag (``_same_flag``) of a cluster, and the first such
    cluster must have C's P1.  The count equals the number of flags reducing
    A into the subspace when every intersection point is transversal; a
    sample with a cluster whose |P1| is below 1e-6 is marked non-generic.
    The clusters are grouped by P1 rounded to TORUS_TOL."""
    census = count_reductions(_square(A), CYCLIC_PATTERN, restarts, seed)
    U = np.array([r.unitary for r in census.solutions]).reshape(-1, 3, 3)
    p1 = np.array([poly_P1(r.reduced) for r in census.solutions], dtype=float)
    # each image flag U z^T against the flag of every cluster
    match = _same_flag(U[None], (U @ CYCLE_MATRIX.T)[:, None])
    # the first match in each row decides, and it must carry the row's P1
    first = match & (np.cumsum(match, axis=1) == 1)
    same_p1 = np.abs(p1[:, None] - p1[None]) <= 1e-6
    groups = np.unique(np.round(p1 / TORUS_TOL), return_counts=True)[1]
    return replace(
        census,
        cluster_p1=p1.tolist(),
        generic=bool(p1.size and np.abs(p1).min() >= 1e-6),
        z_orbit_closed=bool(np.all((first & same_p1).any(axis=1))),
        p1_group_sizes=sorted(groups.tolist(), reverse=True),
    )
