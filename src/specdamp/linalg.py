"""Dense linear-algebra kernels used by every other module.

Matrices are 2-D ``numpy.ndarray`` objects (real or complex).
Eigenvalue, LU and Cholesky factorizations are delegated to LAPACK (via
numpy and scipy), and the eigensolvers return LAPACK's ``(w, v)`` as they
come: unit eigenvector columns whose phase is LAPACK's own.  The package's
phase convention, unit columns with the largest-magnitude entry real and
positive (:func:`normalize_columns`), is applied once, to the phase
eigenvectors that :func:`~specdamp.spectrum.solve_qep` reports.  The
Cholesky probe reports the failing pivot index from ``potrf``'s ``info``
so that it is available to callers.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
from scipy.linalg.lapack import dpotrf

__all__ = [
    "LinalgError",
    "NotPositiveDefinite",
    "NoConvergence",
    "Singular",
    "LUFactors",
    "solve_stack",
    "healthy_pivots",
    "cholesky",
    "sym_eig",
    "nonsym_eig",
    "real_times",
    "sqrt_pair_from_eig",
]

# Max relative asymmetry accepted by ops that require symmetric input.
SYMMETRY_RTOL = 1e-12

# An LU pivot at most this times the matrix's Frobenius norm is negligible.
PIVOT_RTOL = 1e-13

# A solution whose residual exceeds this times scale * ||x|| + ||b|| is rejected.
RESIDUAL_RTOL = 1e-10


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
    eigenvector matrices.  Zero columns pass through.
    """
    norms = np.linalg.norm(v, axis=0)
    v = v / np.where(norms == 0.0, 1.0, norms)
    cols = np.arange(v.shape[1])
    rows = np.argmax(np.abs(v), axis=0)
    piv = v[rows, cols]
    mag = np.abs(piv)
    v *= np.conj(piv) / np.where(mag == 0.0, 1.0, mag)  # a zero column stays zero
    if np.iscomplexobj(v):
        v[rows, cols] = mag  # kill rounding in the pivot's phase
    return v


def real_times(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` for a real matrix and a real or complex array ``x``.

    The product contracts ``mat`` with the first axis of ``x``, whatever
    its number of axes: an ``(n, ...)`` array gives an ``(m, ...)`` one.  A
    complex ``x`` is multiplied as its real and imaginary parts, in one
    real product, where numpy's mixed product would first copy ``mat`` to
    complex.
    """
    if not np.iscomplexobj(x):
        if x.ndim <= 2:
            return mat @ x
        return (mat @ x.reshape(x.shape[0], -1)).reshape((mat.shape[0],) + x.shape[1:])
    x = np.ascontiguousarray(x)
    out = mat @ x.view(float).reshape(x.shape[0], -1)
    return out.view(complex).reshape((mat.shape[0],) + x.shape[1:])


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


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition ``(w, v)`` of a symmetric real matrix.

    Returns real eigenvalues in ascending order with orthonormal
    eigenvector columns, as LAPACK computes them.
    """
    a = _require_symmetric(_as_square(m).astype(float), "sym_eig input")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NoConvergence(str(exc)) from exc
    return w, v


def nonsym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a general real or complex square matrix.

    Eigenvalues are sorted by ``(Re, Im)``.  For real input the eigenvalue
    multiset is closed under conjugation (LAPACK returns exact conjugate
    pairs).  Eigenvector columns are LAPACK's: unit norm, largest component
    real (LAPACK Users' Guide, 3rd ed., section 2.4.8).
    """
    a = _as_square(m)
    a = a.astype(complex) if np.iscomplexobj(a) else a.astype(float)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.lexsort((w.imag, w.real))
    return w[order], v[:, order]


def healthy_pivots(pivots, scale) -> np.ndarray:
    """The pivot rule, elementwise: ``|pivot| > PIVOT_RTOL * scale``.

    A pivot that fails it is rounding against ``scale``, the size of its
    matrix (:class:`LUFactors`).
    """
    return np.abs(pivots) > PIVOT_RTOL * scale


def _residual_fails(resid, x_norm, b_norm, scale) -> np.ndarray:
    # The residual rule: a solution is rejected when its residual is not
    # finite or exceeds RESIDUAL_RTOL of scale * ||x|| + ||b||.
    return ~np.isfinite(resid) | (resid > RESIDUAL_RTOL * (scale * x_norm + b_norm))


def _residual_singular(n: int) -> Singular:
    return Singular(rank_estimate=n, message="solution residual exceeds tolerance; matrix is effectively singular")


class LUFactors:
    """LU factorization with partial pivoting of a square matrix.

    Construction runs one ``lu_factor`` and raises :class:`Singular` when
    an upper-triangular pivot is at most ``PIVOT_RTOL`` of ``scale``, with
    ``rank_estimate`` set to the number of healthy pivots.  ``scale``
    defaults to the matrix's Frobenius norm; a matrix formed as a sum whose
    terms cancel passes the size of those terms instead, below which a
    pivot is rounding.  :meth:`solve` checks the residual of its solution.
    Inner loops whose end result goes through :meth:`solve` may call LAPACK
    ``getrs`` on ``factors`` directly instead.
    """

    def __init__(self, m, scale: float | None = None):
        self.matrix = _as_square(m)
        self.scale = _frobenius_scale(self.matrix) if scale is None else float(scale)
        self.factors = lu_factor(self.matrix)
        healthy = int(np.count_nonzero(healthy_pivots(np.diag(self.factors[0]), self.scale)))
        if healthy < self.matrix.shape[0]:
            raise Singular(rank_estimate=healthy)

    def solve(self, b):
        """Solve ``m @ x = b`` for one vector or stacked columns.

        Raises :class:`Singular` when the residual exceeds ``RESIDUAL_RTOL``
        of ``scale * ||x|| + ||b||``: the matrix is then effectively singular.
        """
        a, rhs = self.matrix, np.asarray(b)
        if rhs.shape[0] != a.shape[0]:
            raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix order {a.shape[0]}")
        x = lu_solve(self.factors, rhs)
        resid = np.linalg.norm(a @ x - rhs)
        if _residual_fails(resid, np.linalg.norm(x), np.linalg.norm(rhs), self.scale):
            raise _residual_singular(a.shape[0])
        return x


def solve_stack(mats: np.ndarray, rhs: np.ndarray, scales: np.ndarray):
    """Solve ``mats[i] @ x[i] = rhs[i]`` for a stack, up to its first singular system.

    ``mats`` is a ``(p, n, n)`` stack, ``rhs`` a ``(p, n, k)`` one and
    ``scales`` holds each matrix's ``scale`` as :class:`LUFactors` takes it.
    Each matrix is factored and solved by the LAPACK calls of
    :class:`LUFactors` (``getrf``, ``getrs``), so matrix by matrix the
    pivots and solutions are bit for bit its own; the pivot test and the
    residual check then run on the whole stack at once, by the rules of
    :class:`LUFactors` and :meth:`LUFactors.solve`.  Returns
    ``(x, error)``: ``x`` holds the solutions of the systems before the
    first one that fails either test, and ``error`` is the
    :class:`Singular` that :class:`LUFactors` would raise for that one, or
    ``None`` when none fails.
    """
    # Chosen by dtype as lu_factor and lu_solve choose them.
    (getrf,) = get_lapack_funcs(("getrf",), (mats,))
    (getrs,) = get_lapack_funcs(("getrs",), (mats, rhs))
    x, pivots = np.empty(rhs.shape, dtype=getrs.dtype), np.empty(mats.shape[:2], dtype=getrf.dtype)
    for i, (m, b) in enumerate(zip(mats, rhs)):
        factors, piv, _ = getrf(m)
        pivots[i] = np.diagonal(factors)
        x[i] = getrs(factors, piv, b)[0]
    n = mats.shape[-1]
    ranks = np.count_nonzero(healthy_pivots(pivots, scales[:, None]), axis=-1)
    low = np.flatnonzero(ranks < n)
    good, error = (int(low[0]), Singular(rank_estimate=ranks[low[0]])) if low.size else (ranks.size, None)
    mats, rhs, x = mats[:good], rhs[:good], x[:good]
    resid = mats @ x
    resid -= rhs
    norms = [np.linalg.norm(v, axis=(-2, -1)) for v in (resid, x, rhs)]
    failed = np.flatnonzero(_residual_fails(*norms, scales[:good]))
    if failed.size:
        good, error = int(failed[0]), _residual_singular(n)
    return x[:good], error


def sqrt_pair_from_eig(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of an SPD matrix.

    Both factors are built from the matrix's :func:`sym_eig` decomposition
    ``(w, v)``; a column's sign changes neither.  The smallest eigenvalue
    must be strictly positive.
    """
    if w[0] <= 0.0:
        raise NotPositiveDefinite(
            pivot_index=0, message="sqrt_pair_from_eig requires a positive definite matrix"
        )
    root = (v * np.sqrt(w)) @ v.T
    inv_root = (v / np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T), 0.5 * (inv_root + inv_root.T)
