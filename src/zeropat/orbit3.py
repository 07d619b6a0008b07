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

import cmath
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
    return poly_p_from_invariants(invariants(X / s)) * s**24


def _cyclic_entries(A):
    """Split a pattern-subspace matrix into its five free entries u, v, w, x,
    y, z; reject matrices outside the subspace."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (3, 3):
        raise ValueError("expected a 3 x 3 matrix")
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
    J = _pattern_jacobian((A / s)[None], rows, cols, skew_hermitian_basis(3))[0]
    return bool(np.linalg.svd(J, compute_uv=False)[-1] > 1e-8)


def _pattern_jacobian(B: np.ndarray, rows, cols, basis: np.ndarray) -> np.ndarray:
    """Jacobian of the real and imaginary parts of the pattern entries of
    exp(-S) B exp(S) at S = 0, for each matrix of the stack B, in the
    coordinates of the skew-hermitian basis: shape (R, 2k, n^2)."""
    # d[B, S]_pq / dS_kl = B_pk [l = q] - [k = p] B_lq, contracted with
    # each basis matrix S_b at the pattern positions (p, q)
    Jc = np.einsum("rik,bki->rib", B[:, rows, :], basis[:, :, cols])
    Jc -= np.einsum("bil,rli->rib", basis[:, rows, :], B[:, :, cols])
    return np.concatenate([Jc.real, Jc.imag], axis=1)


# -- the Gauss-Newton reducer -------------------------------------------------------

#: starts reduced together in one call of gauss_newton_reduce: a fixed block
#: bounds the memory of the stacked arrays whatever the restart budget
_BLOCK = 256

#: squared pattern residual at or below which a reduction has converged
RESID_TOL = 1e-18

#: tolerance on unit-norm matrices of the diagonal-torus conjugacy test
TORUS_TOL = 1e-7


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


def _conjugates(A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U* A U for a stack of unitaries U."""
    return U.conj().swapaxes(-1, -2) @ A @ U


def _residuals(B: np.ndarray, rows, cols) -> np.ndarray:
    """Stacked real and imaginary parts of the pattern entries, one row per
    matrix of the stack B."""
    vals = B[:, rows, cols]
    return np.concatenate([vals.real, vals.imag], axis=1)


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
    system in the coordinates of ``skew_hermitian_basis(n)``; it is halved
    up to nine times until the residual strictly drops.  A start stops when
    its residual is at most RESID_TOL, when no step length lowers it, or
    after max_iter steps.  The starts share no state: each follows the path
    it would follow alone.

    Returns (unitaries, reduced, residuals, steps): the endpoints, U* A U at
    each, their squared residuals and the number of steps each start took.
    """
    n = A.shape[0]
    rows = np.array([i - 1 for i, _ in positions], dtype=np.intp)
    cols = np.array([j - 1 for _, j in positions], dtype=np.intp)
    basis = skew_hermitian_basis(n)
    U = np.array(U0, dtype=complex)
    B = _conjugates(A, U)
    r = _residuals(B, rows, cols)
    r2 = np.einsum("ri,ri->r", r, r)
    steps = np.zeros(len(U), dtype=np.intp)
    live = np.ones(len(U), dtype=bool)
    for _ in range(max_iter):
        live &= r2 > RESID_TOL
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        J = _pattern_jacobian(B[idx], rows, cols, basis)
        # minimum-norm solution, truncated where lstsq(rcond=None) truncates
        W, sv, Vh = np.linalg.svd(J, full_matrices=False)
        cut = np.finfo(float).eps * max(J.shape[1:]) * sv[:, :1]
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cut)
        coef = -np.einsum("rmb,rm->rb", Vh, inv * np.einsum("rim,ri->rm", W, r[idx]))
        X = np.tensordot(coef, basis, axes=(1, 0))
        # exp(t X) = V diag(e^{i t w}) V* from one eigh of the hermitian -iX
        w, V = np.linalg.eigh(-1j * X)
        searching = np.ones(idx.size, dtype=bool)
        step = 1.0
        for _ in range(10):
            k = np.flatnonzero(searching)
            Vk = V[k]
            G = (Vk * np.exp(1j * (step * w[k]))[:, None, :]) @ Vk.conj().swapaxes(-1, -2)
            U2 = U[idx[k]] @ G
            B2 = _conjugates(A, U2)
            rr = _residuals(B2, rows, cols)
            rr2 = np.einsum("ri,ri->r", rr, rr)
            better = rr2 < r2[idx[k]]
            took = idx[k[better]]
            U[took], B[took], r[took], r2[took] = (
                U2[better], B2[better], rr[better], rr2[better]
            )
            searching[k[better]] = False
            if not searching.any():
                break
            step *= 0.5
        steps[idx[~searching]] += 1
        live[idx[searching]] = False
    W, _, Vh = np.linalg.svd(U)
    U = W @ Vh
    B = _conjugates(A, U)
    r = _residuals(B, rows, cols)
    return U, B, np.einsum("ri,ri->r", r, r), steps


def _reduce_blocks(A, rng, restarts: int, positions, max_iter: int):
    """Run ``restarts`` Haar-random starts through gauss_newton_reduce in
    blocks of _BLOCK, yielding (index of the block's first restart, reducer
    output) per block.  The starts are drawn block by block, which gives the
    same unitaries as drawing them all at once."""
    for lo in range(0, restarts, _BLOCK):
        starts = haar_unitaries(rng, min(_BLOCK, restarts - lo), A.shape[0])
        yield lo, gauss_newton_reduce(A, starts, positions, max_iter)


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
    Returns the first converged restart in restart order.  Success is
    evidence of orbit intersection; failure after the restart budget is
    evidence of nothing.
    """
    if n not in (2, 3, 4):
        raise ValueError("reducer is budgeted for n in {2, 3, 4}")
    A = np.asarray(A, dtype=complex)
    if A.shape != (n, n):
        raise ValueError("matrix size does not match n")
    I.check_within(n)
    s = float(np.linalg.norm(A))
    if s == 0.0:
        return FlagSolution(np.eye(n, dtype=complex), A.copy(), 0.0)
    rng = np.random.default_rng(seed)
    for _, (U, _, res, _) in _reduce_blocks(A / s, rng, restarts, list(I), 80):
        hit = np.flatnonzero(res <= RESID_TOL)
        if hit.size:
            U = U[hit[0]].copy()
            return FlagSolution(U, U.conj().T @ A @ U, float(res[hit[0]]) * s * s)
    return None


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


def torus_equivalent_grid(B, C, steps: int = 600, tol: float = 1e-6) -> bool:
    """Brute-force arbiter: scan diagonal unitaries diag(1, e^ia, e^ib) on a
    grid and compare conjugates directly."""
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    angles = np.linspace(0, 2 * math.pi, steps, endpoint=False)
    best = np.inf
    for a in angles:
        ea = cmath.exp(1j * a)
        # conjugation by diag(1, ea, eb) sends entry (i,j) to t_j/t_i scale
        # entries: (0,1): ea, (1,2): eb/ea, (2,0): 1/eb
        # match (0,1) exactly when possible, leaving a 1-parameter scan
        D = np.array([1.0 + 0j, ea, 1.0 + 0j])
        for b in angles:
            D[2] = cmath.exp(1j * b)
            T = np.diag(D)
            M = np.linalg.inv(T) @ B @ T
            best = min(best, float(np.max(np.abs(M - C))))
            if best < tol:
                return True
    return False


def count_flags(
    A,
    restarts: int = 2000,
    seed: int = 0,
) -> FlagCensus:
    """Count the diagonal-torus orbits in the intersection of the conjugation
    orbit of A with the cyclic pattern subspace, by clustering the converged
    endpoints of random-restart Gauss-Newton runs.

    A is made traceless and normalized to unit Frobenius norm first.  Each
    restart takes up to 60 Gauss-Newton steps and has converged when its
    squared residual is at most RESID_TOL; the converged endpoints are
    clustered by ``torus_equivalent``.  The count equals the number of flags
    reducing A into the subspace when every intersection point is
    transversal; a sample with a cluster whose |P1| is below 1e-6 is marked
    non-generic.  The clusters are grouped by P1 rounded to TORUS_TOL.  The
    restarts run in blocks of fixed size; the outputs do not depend on it.
    """
    if restarts < 1:
        raise ValueError("count_flags needs at least one restart")
    A = np.asarray(A, dtype=complex)
    A = A - np.trace(A) / 3 * np.eye(3)
    s = float(np.linalg.norm(A))
    if s == 0.0:
        raise ValueError("zero matrix")
    A = A / s
    rng = np.random.default_rng(seed)
    ends, converged, steps = [], [], []
    for lo, (U, B, res, taken) in _reduce_blocks(
        A, rng, restarts, list(CYCLIC_PATTERN), 60
    ):
        ok = np.flatnonzero(res <= RESID_TOL)
        ends.append((U[ok], B[ok], res[ok]))
        converged.append(lo + ok)
        steps.append(taken)
    U, B, res = (np.concatenate(part) for part in zip(*ends))
    converged = np.concatenate(converged)
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
        gn_iterations=np.bincount(np.concatenate(steps)).tolist(),
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


def surface_pair_genericity_report(restarts: int = 1500, seed: int = 0) -> dict:
    """Numerical genericity evidence for the two unitarily similar reference
    matrices lying on the degree-12 hypersurface.

    A matrix is generic when its orbit meets the pattern subspace
    transversally at every intersection point; this report counts the torus
    clusters of each matrix and evaluates the degree-6 factor and the
    transversality test at each cluster.  It reports the evidence without
    claiming a resolution.
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
