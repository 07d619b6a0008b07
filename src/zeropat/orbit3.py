"""Numerical companion for the 3 x 3 cyclic pattern {(1,3), (2,1), (3,2)}.

Provides the sixteen scalar conjugation invariants of a traceless 3 x 3
matrix, the degree-24 invariant polynomial P whose zero set contains every
matrix with a non-transversal orbit intersection, the degree-6 factor P1 on
the pattern subspace together with the ratio extraction of the degree-12
cofactor, transversality tests, and a random-restart Gauss-Newton reducer on
the unitary group that counts the flags reducing a generic matrix into the
pattern subspace.

All tolerances are taken relative to natural homogeneity scales: inputs are
normalized to unit Frobenius norm before thresholding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .patterns import Pattern, cyclic3
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


def intertwiner_matrix() -> np.ndarray:
    """The explicit unitary X with GAMMA1_MATRIX @ X = X @ GAMMA2_MATRIX,
    entries in closed radical form."""
    s69 = _SQ69
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


# -- scalar invariants -----------------------------------------------------------


def invariants(X) -> np.ndarray:
    """Sixteen generating scalar invariants of a traceless 3 x 3 matrix under
    conjugation by special unitaries combined with unit scalar rescaling.

    The adjoint enters through Y = X*; all sixteen values are real.
    """
    X = np.asarray(X, dtype=complex)
    if X.shape != (3, 3):
        raise ValueError("expected a 3 x 3 matrix")
    if not np.isfinite(X).all():
        raise ValueError("matrix has a non-finite entry")
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
    X = np.asarray(X, dtype=complex)
    s = float(np.linalg.norm(X))
    if s == 0.0:
        return 0.0
    if not math.isfinite(s):
        raise ValueError("matrix has a non-finite entry")
    return poly_p_from_invariants(invariants(X / s)) * s**24


def _cyclic_entries(A):
    """Split a pattern-subspace matrix into its five free entries u, v, w, x,
    y, z; reject matrices outside the subspace."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (3, 3):
        raise ValueError("expected a 3 x 3 matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    tol = 1e-9 * max(float(np.linalg.norm(A)), 1.0)
    for (i, j) in CYCLIC_PATTERN:
        if abs(A[i - 1, j - 1]) > tol:
            raise ValueError(
                f"entry {(i, j)} = {A[i - 1, j - 1]} is not zero: "
                "matrix lies outside the cyclic pattern subspace"
            )
    if abs(np.trace(A)) > tol:
        raise ValueError("matrix is not traceless")
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
    the ratio is ill conditioned.
    """
    A = np.asarray(A, dtype=complex)
    s = float(np.linalg.norm(A))
    p1 = poly_P1(A)
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
    J = _pattern_jacobian((A / s)[..., None], _jacobian_table(3, rows, cols))
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


def _pattern_jacobian(B: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Jacobian of the real and imaginary parts of the pattern entries of
    exp(-S) B exp(S) at S = 0, for each matrix of the stack B of shape
    (n, n, R), in the coordinates of the skew-hermitian basis: shape
    (2k, n^2, R).  It is linear in B, so the whole stack takes one real
    matrix product with the ``_jacobian_table`` of the pattern."""
    n2 = B.shape[0] * B.shape[1]
    Bf = B.reshape(n2, -1)
    J = table @ np.concatenate([Bf.real, Bf.imag])
    return J.reshape(-1, n2, Bf.shape[1])


# -- the Gauss-Newton reducer -------------------------------------------------------

#: live starts that one Gauss-Newton iteration reduces together: the first
#: _BLOCK in restart order, refilled as starts finish.  A fixed window bounds
#: the memory of the stacked Jacobians and trial matrices whatever the restart
#: budget, and refilling keeps it full while slow starts run to max_iter
_BLOCK = 512

#: squared pattern residual at or below which a reduction has converged
RESID_TOL = 1e-18

#: tolerance on unit-norm matrices of the diagonal-torus conjugacy test
TORUS_TOL = 1e-7

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
    took k Gauss-Newton steps."""

    num_flags: int
    solutions: list[FlagSolution]
    cluster_hits: list[int]
    cluster_p1: list[float]
    n_restarts: int
    n_converged: int
    generic: bool
    z_orbit_closed: bool
    p1_group_sizes: list[int] = field(default_factory=list)
    incomplete: bool = False
    last_new_cluster: int | None = None
    gn_iterations: list[int] = field(default_factory=list)


def haar_unitaries(rng, count: int, n: int) -> np.ndarray:
    """``count`` Haar-distributed n x n unitaries, shape (count, n, n): QR of
    complex Gaussian matrices with the phases of R's diagonal moved into Q.
    Draws the same numbers, in the same order, as ``count`` calls of
    ``haar_unitary``."""
    Z = rng.normal(size=(count, 2, n, n))
    Q, R = np.linalg.qr(Z[:, 0] + 1j * Z[:, 1])
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[:, None, :]


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


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices of shapes (n, l, ...) and
    (l, m, ...), with broadcasting stack axes, as a sum of l broadcast outer
    products.  This is for products whose two factors both vary over the
    stack: numpy's stacked matmul hands them to BLAS one matrix at a time,
    which costs several times more per 3 x 3 product than these few array
    operations over the whole stack.  A fixed left factor F instead takes
    one BLAS call for the whole stack, F @ b.reshape(l, -1) (as in
    ``_conjugates``), and so does a fixed linear map of the stack's entries
    (``_pattern_jacobian``, ``_skew_combinations``)."""
    out = a[:, 0, None] * b[0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[k]
    return out


def _adjoint(U: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack."""
    return U.conj().swapaxes(0, 1)


def _conjugates(A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U* A U for a stack of unitaries U of shape (n, n, R): A U is one
    matrix product over the stack, U* (A U) a product per start."""
    n = A.shape[0]
    AU = (A @ U.reshape(n, -1)).reshape(U.shape)
    return _mm(_adjoint(U), AU)


def _basis_table(n: int) -> np.ndarray:
    """The real (2n^2, n^2) matrix whose column b holds the real and then the
    imaginary parts of the flattened basis matrix S_b of
    ``skew_hermitian_basis(n)``."""
    S = skew_hermitian_basis(n).reshape(n * n, n * n).T
    return np.concatenate([S.real, S.imag])


def _skew_combinations(table: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The skew-hermitian matrices sum_b coef[b, r] S_b, shape (n, n, R), from
    the coefficients coef of shape (n^2, R) and the ``_basis_table`` of
    the S_b: one real matrix product over the stack."""
    n2 = table.shape[1]
    n = math.isqrt(n2)
    P = table @ coef
    return (P[:n2] + 1j * P[n2:]).reshape(n, n, -1)


def _det3(M: np.ndarray) -> np.ndarray:
    """Determinant of each 3 x 3 matrix of the stack M, by cofactors along
    the first row."""
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def _eigh_trials(U: np.ndarray, X: np.ndarray):
    """The map (t, k) -> U[..., k] exp(t X[..., k]) for a stack U of n x n
    unitaries and a stack X of skew-hermitian matrices, from one eigh of the
    hermitian -iX: exp(t X) = V diag(e^{i t w}) V*, so a trial point is
    (U V) diag(e^{i t w}) V*."""
    w, V = np.linalg.eigh(-1j * X.transpose(2, 0, 1))
    V = np.ascontiguousarray(V.transpose(1, 2, 0))
    UV, Vh, w = _mm(U, V), _adjoint(V), np.ascontiguousarray(w.T)
    return lambda t, k: _mm(UV[..., k] * np.exp(1j * t * w[:, k]), Vh[..., k])


def _exp3_trials(U: np.ndarray, X: np.ndarray):
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
    the SVD step) gives f = (1, 0, 0), so X = 0 gives U exactly."""
    H = -1j * X
    a = np.trace(H).real / 3
    H0 = H - np.eye(3)[..., None] * a
    H0sq = _mm(H0, H0)
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
    one = np.ones_like(u)
    # K[j, i] is the coefficient of the j-th of E, F cos(t w), F S in
    # f_i t^i, and f0 = E where H0 = 0
    K = inv * np.array(
        [
            [uu - ww, 2 * u, one],
            [8 * uu, -2 * u, -one],
            [2j * u * (3 * uu + ww), 1j * (3 * uu - ww), -3j * u],
        ]
    )
    K[0, 0] += flat
    # N_j = sum_i K[j, i] M_i with M = (U, U H0, U H0^2), as three
    # contiguous linear combinations
    M = (U, _mm(U, H0), _mm(U, H0sq))
    N = np.empty((3,) + U.shape, dtype=complex)
    for j in range(3):
        np.multiply(K[j, 0], M[0], out=N[j])
        N[j] += K[j, 1] * M[1]
        N[j] += K[j, 2] * M[2]
    N = N.reshape(3, 9, -1)
    # the columns a trial length t scales: a + 2u, a - u, w, and the S of
    # w = 0
    still = w == 0
    C = np.stack([a + 2 * u, a - u, w, still])
    winv = 1 / np.where(still, 1.0, w)

    def trial(t, k):
        top, mid, tw, s0 = C[:, k] * t
        F = np.exp(1j * mid)
        Nk = N[..., k]
        U2 = np.exp(1j * top) * Nk[0]
        U2 += F * np.cos(tw) * Nk[1]
        U2 += F * (np.sin(tw) * winv[k] + s0) * Nk[2]
        return U2.reshape(3, 3, -1)

    return trial


def _residuals(B: np.ndarray, rows, cols) -> np.ndarray:
    """Stacked real and imaginary parts of the pattern entries, one column
    per matrix of the stack B."""
    vals = B[rows, cols]
    return np.concatenate([vals.real, vals.imag])


def _min_norm_steps(J: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solutions x of J x = -r for a stack J of
    shape (m, d, R) with m <= d and r of shape (m, R), as
    ``lstsq(J, -r, rcond=None)`` gives them.

    A Jacobian of full row rank has x = J^T y with (J J^T) y = -r, solved by
    a Cholesky of the m x m Gram matrix done column by column across the
    stack; the Gram matrices come from one einsum, not a stacked matmul,
    which would call BLAS once per matrix.  A Jacobian with a pivot below
    _GRAM_PIVOT times the mean Gram diagonal may be rank-deficient, where
    only a truncated SVD gives the right step; the SVD runs on those starts
    alone.  Returns (x, svd_rows), the steps of shape (d, R) and the mask of
    the starts the SVD solved."""
    m, R = J.shape[0], J.shape[2]
    # [G | -r], eliminated in place: row j ends as row j of L^T followed by
    # the forward solution z_j of L z = -r
    T = np.empty((m, m + 1, R))
    T[:, :m] = np.einsum("ibr,jbr->ijr", J, J)
    T[:, m] = -r
    floor = _GRAM_PIVOT * np.trace(T[:, :m]) / m
    ok = np.ones(R, dtype=bool)
    diag = np.empty((m, R))
    for j in range(m):
        ok &= T[j, j] > floor
        diag[j] = np.sqrt(np.where(ok, T[j, j], 1.0))
        T[j, j:] /= diag[j]
        T[j + 1 :, j + 1 :] -= T[j, j + 1 : m, None] * T[j, None, j + 1 :]
    # back substitution L^T y = z
    y = T[:, m]
    for j in range(m - 1, -1, -1):
        y[j] /= diag[j]
        y[:j] -= T[:j, j] * y[j]
    x = np.einsum("ibr,ir->br", J, y)
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
    ``numeric_reduce`` at n = 2 and n = 4.  The endpoints are re-unitarized
    by one Newton-Schulz step U <- (3 U - U U* U) / 2 toward the polar
    factor.  At n = 3 an iteration makes no per-matrix LAPACK or BLAS call
    unless a rank-deficient Jacobian takes the SVD step.  The maps that are
    the same for every start are one BLAS call each over the whole stack:
    the Jacobian is the ``_jacobian_table`` of the pattern applied to the
    flattened real and imaginary parts of the conjugates, the step X the
    ``_basis_table`` applied to the coefficients, and A U in each
    conjugation one product with A; both tables are built once per call.

    The stacks are held with the stack axis last (see ``_mm``) and returned
    with it first.  Each iteration steps the first _BLOCK live starts in
    restart order, so the window refills from the waiting starts as others
    stop, and the stacked arrays never hold more than _BLOCK starts.  The
    starts share no state: each follows the path it would follow alone,
    whatever the window.

    Returns (unitaries, reduced, residuals, steps): the endpoints, U* A U at
    each, their squared residuals and the number of steps each start took.
    """
    n = A.shape[0]
    rows = np.array([i - 1 for i, _ in positions], dtype=np.intp)
    cols = np.array([j - 1 for _, j in positions], dtype=np.intp)
    jacobian_table, basis_table = _jacobian_table(n, rows, cols), _basis_table(n)
    U = np.array(np.moveaxis(U0, 0, -1), dtype=complex)
    B = _conjugates(A, U)
    r = _residuals(B, rows, cols)
    r2 = np.einsum("ir,ir->r", r, r)
    R = U.shape[-1]
    steps = np.zeros(R, dtype=np.intp)
    tried = np.zeros(R, dtype=np.intp)
    live = np.ones(R, dtype=bool)
    while True:
        live &= (r2 > RESID_TOL) & (tried < max_iter)
        idx = np.flatnonzero(live)[:_BLOCK]
        if idx.size == 0:
            break
        J = _pattern_jacobian(B[..., idx], jacobian_table)
        coef, _ = _min_norm_steps(J, r[:, idx])
        X = _skew_combinations(basis_table, coef)
        trial = (_exp3_trials if n == 3 else _eigh_trials)(U[..., idx], X)
        searching = np.ones(idx.size, dtype=bool)
        step = 1.0
        for _ in range(10):
            k = np.flatnonzero(searching)
            U2 = trial(step, k)
            B2 = _conjugates(A, U2)
            rr = _residuals(B2, rows, cols)
            rr2 = np.einsum("ir,ir->r", rr, rr)
            better = rr2 < r2[idx[k]]
            took = idx[k[better]]
            U[..., took], B[..., took], r[:, took], r2[took] = (
                U2[..., better], B2[..., better], rr[:, better], rr2[better]
            )
            searching[k[better]] = False
            if not searching.any():
                break
            step *= 0.5
        tried[idx] += 1
        steps[idx[~searching]] += 1
        live[idx[searching]] = False
    # one Newton-Schulz step toward the polar factor: the endpoints are
    # unitary to about 1e-15, so one step reaches it to rounding
    U = 1.5 * U - 0.5 * _mm(U, _mm(_adjoint(U), U))
    B = _conjugates(A, U)
    r = _residuals(B, rows, cols)
    return (
        np.ascontiguousarray(np.moveaxis(U, -1, 0)),
        np.ascontiguousarray(np.moveaxis(B, -1, 0)),
        np.einsum("ir,ir->r", r, r),
        steps,
    )


def numeric_reduce(
    A,
    I: Pattern,
    n: int,
    restarts: int = 200,
    seed: int = 0,
) -> FlagSolution | None:
    """Search for a unitary putting A into the subspace of pattern I.

    Each restart takes up to 80 Gauss-Newton steps on A normalized to unit
    norm and has converged when its squared residual is at most RESID_TOL.
    All restarts are reduced in one ``gauss_newton_reduce`` call, and the
    first converged one in restart order is returned.  Success is evidence
    of orbit intersection; failure after the restart budget is evidence of
    nothing.  A must be a finite n x n matrix (ValueError otherwise).
    """
    if n not in (2, 3, 4):
        raise ValueError("reducer is budgeted for n in {2, 3, 4}")
    if restarts < 1:
        raise ValueError("numeric_reduce needs at least one restart")
    A = np.asarray(A, dtype=complex)
    if A.shape != (n, n):
        raise ValueError("matrix size does not match n")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    I.check_within(n)
    s = float(np.linalg.norm(A))
    if s == 0.0:
        return FlagSolution(np.eye(n, dtype=complex), A.copy(), 0.0)
    starts = haar_unitaries(np.random.default_rng(seed), restarts, n)
    U, _, res, _ = gauss_newton_reduce(A / s, starts, list(I), 80)
    hit = np.flatnonzero(res <= RESID_TOL)
    if hit.size == 0:
        return None
    U = U[hit[0]].copy()
    return FlagSolution(U, U.conj().T @ A @ U, float(res[hit[0]]) * s * s)


def _torus_invariants(B: np.ndarray):
    """The diagonal, the moduli of the free entries (1,2), (2,3), (3,1) and
    the unit phase of their cycle product, for a matrix or a stack of them.
    The phase is nan where the product vanishes."""
    diag = np.diagonal(B, axis1=-2, axis2=-1)
    free = np.stack([B[..., 0, 1], B[..., 1, 2], B[..., 2, 0]], axis=-1)
    cycle = free[..., 0] * free[..., 1] * free[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = cycle / np.abs(cycle)
    return diag, np.abs(free), phase


def _torus_match(new, old):
    """Whether matrices with torus invariants ``new`` are conjugate to ones
    with invariants ``old`` (broadcasting) by a diagonal unitary.  When a free
    entry of ``new`` vanishes, the cycle phase is unconstrained."""
    (d1, m1, p1), (d2, m2, p2) = new, old
    return (
        np.all(np.abs(d1 - d2) <= TORUS_TOL, axis=-1)
        & np.all(np.abs(m1 - m2) <= TORUS_TOL, axis=-1)
        & ((np.min(m1, axis=-1) <= TORUS_TOL) | (np.abs(p1 - p2) < 100 * TORUS_TOL))
    )


def torus_equivalent(B, C) -> bool:
    """Whether two matrices in the cyclic pattern subspace are conjugate by a
    diagonal unitary: equal diagonals, equal moduli of the free entries, and
    a matching phase of the cycle product when all three entries of B are
    nonzero, each up to TORUS_TOL (the phase up to 100 TORUS_TOL).
    """
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    return bool(_torus_match(_torus_invariants(B), _torus_invariants(C)))


def _torus_clusters(B: np.ndarray) -> np.ndarray:
    """Cluster label of each matrix of the stack B, in order of appearance.

    The first matrix no cluster holds founds the next one, which takes every
    unlabeled matrix ``torus_equivalent`` to it (tested with that matrix as
    the first argument).  These are the clusters of a first-come scan that
    puts each matrix into the first earlier cluster whose founder it matches.
    """
    inv = _torus_invariants(B)
    labels = np.full(len(B), -1, dtype=np.intp)
    unlabeled = np.arange(len(B))
    k = 0
    while unlabeled.size:
        founder = unlabeled[0]
        match = _torus_match(
            tuple(x[unlabeled] for x in inv), tuple(x[founder] for x in inv)
        )
        match[0] = True
        labels[unlabeled[match]] = k
        unlabeled = unlabeled[~match]
        k += 1
    return labels


def count_flags(
    A,
    restarts: int = 2000,
    seed: int = 0,
) -> FlagCensus:
    """Count the diagonal-torus orbits in the intersection of the conjugation
    orbit of A with the cyclic pattern subspace, by clustering the converged
    endpoints of random-restart Gauss-Newton runs.

    A must be a finite 3 x 3 matrix (ValueError otherwise, as for a zero
    traceless part); it is made traceless and normalized to unit Frobenius
    norm first.  Each restart takes up to 60 Gauss-Newton steps and has
    converged when its squared residual is at most RESID_TOL; the converged
    endpoints are clustered by ``torus_equivalent``.  The count equals the number of flags
    reducing A into the subspace when every intersection point is
    transversal; a sample with a cluster whose |P1| is below 1e-6 is marked
    non-generic.  The clusters are grouped by P1 rounded to TORUS_TOL.  All
    restarts go through one ``gauss_newton_reduce`` call, which steps at most
    _BLOCK of them at a time; the outputs do not depend on _BLOCK.
    """
    if restarts < 1:
        raise ValueError("count_flags needs at least one restart")
    A = np.asarray(A, dtype=complex)
    if A.shape != (3, 3):
        raise ValueError("expected a 3 x 3 matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    A = A - np.trace(A) / 3 * np.eye(3)
    s = float(np.linalg.norm(A))
    if s == 0.0:
        raise ValueError("zero matrix")
    A = A / s
    starts = haar_unitaries(np.random.default_rng(seed), restarts, 3)
    U, B, res, taken = gauss_newton_reduce(A, starts, list(CYCLIC_PATTERN), 60)
    converged = np.flatnonzero(res <= RESID_TOL)
    U, B, res = U[converged], B[converged], res[converged]
    labels = _torus_clusters(B)
    first = np.unique(labels, return_index=True)[1]
    # copies, so a census does not keep every endpoint of the run alive
    reps = [FlagSolution(U[k].copy(), B[k].copy(), float(res[k])) for k in first]
    hits = np.bincount(labels).tolist()
    n_converged = int(converged.size)
    p1s = [float(poly_P1(r.reduced)) for r in reps]
    z = CYCLE_MATRIX
    z_closed = True
    for rep, p1 in zip(reps, p1s):
        img = z @ rep.reduced @ z.T
        for k, other in enumerate(reps):
            if torus_equivalent(img, other.reduced):
                if abs(p1s[k] - p1) > 1e-6:
                    z_closed = False
                break
        else:
            z_closed = False
    generic = bool(reps) and bool(min(abs(p) for p in p1s) >= 1e-6)
    groups: dict[int, int] = {}
    for p in p1s:
        key = round(p / TORUS_TOL)
        groups[key] = groups.get(key, 0) + 1
    incomplete = n_converged < max(10, restarts // 200)
    return FlagCensus(
        num_flags=len(reps),
        solutions=reps,
        cluster_hits=hits,
        cluster_p1=p1s,
        n_restarts=restarts,
        n_converged=n_converged,
        generic=generic,
        z_orbit_closed=z_closed,
        p1_group_sizes=sorted(groups.values(), reverse=True),
        incomplete=incomplete,
        last_new_cluster=int(converged[first[-1]]) if reps else None,
        gn_iterations=np.bincount(taken).tolist(),
    )


# -- invariant identities on small subspaces ------------------------------------------


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


def check_nonuniversality_invariants(samples: int = 100, seed: int = 0) -> dict:
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
        got = _first_subspace_p(invariants(A))
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
        got2 = _second_subspace_p(invariants(A2))
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
        d1 = _first_subspace_p(invariants(D))
        d2 = _second_subspace_p(invariants(D))
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


def check_intertwiner() -> dict:
    """Residuals of the closed-form unitary intertwining the two reference
    matrices: unitarity, the intertwining relation, and spectral agreement."""
    X = intertwiner_matrix()
    A = GAMMA1_MATRIX
    B = GAMMA2_MATRIX
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
