"""Dense linear-algebra kernels used by every other module.

The package standardizes on a handful of primitives with fixed conventions:

* matrices are 2-D ``numpy.ndarray`` objects (real or complex),
* eigenvector columns have unit Euclidean norm and are rotated so their
  largest-magnitude entry is real and positive,
* eigenpair residuals are ``||M v - lam v||_2`` measured relative to the
  Frobenius norm of ``M``.

Eigenvalue, LU and Cholesky factorizations are delegated to LAPACK (via
numpy and scipy); the Cholesky probe reports the failing pivot index from
``potrf``'s ``info`` so that it is available to callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import dpotrf

__all__ = [
    "LinalgError",
    "NotPositiveDefinite",
    "NoConvergence",
    "Singular",
    "EigenDecomposition",
    "LUFactors",
    "cholesky",
    "sym_eig",
    "nonsym_eig",
    "solve",
    "spd_sqrt_pair",
    "sqrt_pair_from_eig",
]

# Max relative asymmetry accepted by ops that require symmetric input.
SYMMETRY_RTOL = 1e-12

# An LU pivot at most this times the matrix's Frobenius norm is negligible.
PIVOT_RTOL = 1e-13


class LinalgError(Exception):
    """Base class for numerical failures raised by this module."""


class NotPositiveDefinite(LinalgError):
    """Cholesky pivot failed; ``pivot_index`` is the offending column."""

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = int(pivot_index)
        super().__init__(message or f"matrix is not positive definite (pivot {pivot_index})")


class NoConvergence(LinalgError):
    """An iterative eigenvalue kernel failed to converge."""

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(f"eigenvalue iteration did not converge{': ' + detail if detail else ''}")


class Singular(LinalgError):
    """Linear solve hit a negligible pivot; ``rank_estimate`` counts the usable ones."""

    def __init__(self, rank_estimate: int, message: str | None = None):
        self.rank_estimate = int(rank_estimate)
        super().__init__(message or f"matrix is numerically singular (rank estimate {rank_estimate})")


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues, matching eigenvector columns, and per-pair residuals.

    ``eigenvalues[i]`` pairs with column ``eigenvectors[:, i]``;
    ``residual_norms[i]`` is ``||M v_i - lam_i v_i||_2 / ||M||_F``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _as_square(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square 2-D matrix, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray, what: str) -> np.ndarray:
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale > 0.0 and np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{what} must be symmetric to {SYMMETRY_RTOL:g} relative")
    # Symmetrize so downstream kernels see an exactly symmetric matrix.
    return 0.5 * (a + a.T)


def _frobenius_scale(a: np.ndarray) -> float:
    s = float(np.linalg.norm(a))
    return s if s > 0.0 else 1.0


def normalize_columns(v: np.ndarray) -> np.ndarray:
    """Unit Euclidean columns, largest-magnitude entry rotated real positive.

    The rotation fixes the arbitrary per-column phase (sign, in the real
    case) so that repeated runs and different code paths produce identical
    eigenvector matrices.
    """
    v = np.array(v, copy=True)
    for j in range(v.shape[1]):
        col = v[:, j]
        nrm = np.linalg.norm(col)
        if nrm == 0.0:
            continue
        col = col / nrm
        k = int(np.argmax(np.abs(col)))
        piv = col[k]
        if piv != 0.0:
            col = col * (np.conj(piv) / abs(piv))
        if np.iscomplexobj(col):
            col.real[k] = abs(col[k])  # kill rounding in the pivot's phase
            col.imag[k] = 0.0
        v[:, j] = col
    return v


def _residuals(m: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    scale = _frobenius_scale(m)
    r = m @ vectors - vectors * values[np.newaxis, :]
    return np.linalg.norm(r, axis=0) / scale


def cholesky(m) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    Factors with LAPACK ``potrf`` and raises :class:`NotPositiveDefinite`
    with the failing pivot index when a leading minor is not positive
    definite.  This is the package's working definition of positive
    definiteness.

    Parameters
    ----------
    m : array_like
        Symmetric real matrix.

    Returns
    -------
    numpy.ndarray
        Lower-triangular ``L`` with ``L @ L.T == m`` up to roundoff.
    """
    a = _as_square(m).astype(float)
    # potrf reports info = 0 for a NaN pivot, so non-finite input is
    # rejected here, at the first row whose lower part holds such an entry.
    bad_rows = ~np.all(np.isfinite(np.tril(a)), axis=1)
    if np.any(bad_rows):
        raise NotPositiveDefinite(pivot_index=int(np.argmax(bad_rows)))
    a = _require_symmetric(a, "cholesky input")
    low, info = dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(pivot_index=info - 1)
    return low


def sym_eig(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric real matrix.

    Returns real eigenvalues in ascending order with orthonormal
    eigenvector columns (phase-normalized as in :func:`normalize_columns`).
    """
    a = _require_symmetric(_as_square(m).astype(float), "sym_eig input")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NoConvergence(str(exc)) from exc
    v = normalize_columns(v)
    return EigenDecomposition(w, v, _residuals(a, w, v))


def nonsym_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a general real or complex square matrix.

    Eigenvalues are sorted by ``(Re, Im)``.  For real input the eigenvalue
    multiset is closed under conjugation (LAPACK returns exact conjugate
    pairs).  Eigenvectors follow the package normalization convention.
    """
    a = _as_square(m)
    a = a.astype(complex) if np.iscomplexobj(a) else a.astype(float)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = normalize_columns(v[:, order])
    return EigenDecomposition(w, v, _residuals(a, w, v))


class LUFactors:
    """LU factorization with partial pivoting of a square matrix.

    Construction runs one ``lu_factor`` and raises :class:`Singular` when
    an upper-triangular pivot is at most ``PIVOT_RTOL`` of the matrix scale,
    with ``rank_estimate`` set to the number of healthy pivots.
    :meth:`solve` checks the residual of its solution; :meth:`apply_inverse`
    does not, and suits inner loops whose end result goes through
    :meth:`solve`.
    """

    def __init__(self, m):
        self.matrix = _as_square(m)
        self.scale = _frobenius_scale(self.matrix)
        self.factors = lu_factor(self.matrix)
        diag = np.abs(np.diag(self.factors[0]))
        healthy = int(np.count_nonzero(diag > PIVOT_RTOL * self.scale))
        if healthy < self.matrix.shape[0]:
            raise Singular(rank_estimate=healthy)
        self._perm = None  # built by the first apply_inverse

    def apply_inverse(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """``m^{-1} b``, or ``m^{-H} b`` with ``adjoint``, for one vector; residual unchecked.

        Two BLAS ``trsv`` calls: for a single right-hand side they run
        several times faster than ``getrs`` (``lu_solve``).
        """
        if self._perm is None:
            # getrf's sequential row swaps as one permutation: P^T b = b[perm].
            perm = list(range(self.matrix.shape[0]))
            for i, k in enumerate(self.factors[1].tolist()):
                perm[i], perm[k] = perm[k], perm[i]
            self._perm = np.array(perm)
        lu = self.factors[0]
        trsv = get_blas_funcs("trsv", (lu, b))
        if not adjoint:
            y = trsv(lu, b[self._perm], lower=1, diag=1, overwrite_x=1)
            return trsv(lu, y, overwrite_x=1)
        z = trsv(lu, b, trans=2)
        w = trsv(lu, z, lower=1, trans=2, diag=1, overwrite_x=1)
        x = np.empty_like(w)
        x[self._perm] = w
        return x

    def solve(self, b):
        """Solve ``m @ x = b`` for one vector or stacked columns.

        Raises :class:`Singular` when the residual exceeds ``1e-10`` of
        ``scale * ||x|| + ||b||``: the matrix is then effectively singular.
        """
        a, rhs = self.matrix, np.asarray(b)
        if rhs.shape[0] != a.shape[0]:
            raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix order {a.shape[0]}")
        x = lu_solve(self.factors, rhs)
        resid = np.linalg.norm(a @ x - rhs)
        if not np.isfinite(resid) or resid > 1e-10 * (self.scale * np.linalg.norm(x) + np.linalg.norm(rhs)):
            raise Singular(rank_estimate=a.shape[0], message="solution residual exceeds tolerance; matrix is effectively singular")
        return x


def solve(m, b):
    """Solve ``m @ x = b`` by LU factorization with partial pivoting.

    Accepts one right-hand side vector or a matrix of stacked columns.
    Raises :class:`Singular` on a negligible pivot or an excessive
    residual, as :class:`LUFactors` does.
    """
    return LUFactors(m).solve(b)


def spd_sqrt_pair(m) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of an SPD matrix.

    Both factors are built from one :func:`sym_eig` call; the smallest
    eigenvalue must be strictly positive.
    """
    return sqrt_pair_from_eig(sym_eig(m))


def sqrt_pair_from_eig(dec: EigenDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """:func:`spd_sqrt_pair` from an existing :func:`sym_eig` decomposition."""
    w = dec.eigenvalues
    if w[0] <= 0.0:
        raise NotPositiveDefinite(pivot_index=0, message="spd_sqrt_pair requires a positive definite matrix")
    v = dec.eigenvectors
    root = (v * np.sqrt(w)) @ v.T
    inv_root = (v / np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T), 0.5 * (inv_root + inv_root.T)
