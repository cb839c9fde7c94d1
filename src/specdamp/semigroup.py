"""Time evolution, contraction checks, and resolvent-based analyticity probes.

The phase flow ``x'(t) = A x(t)`` with ``A = [[0, I], [-K, -C]]`` is a
contraction in the energy norm ``|x|_E^2 = x^T K x + |y|^2`` because
``Re <A u, u>_E = -y^H C y <= 0``.  In energy coordinates
``y = S x``, ``S = diag(K^{1/2}, I)``, that norm is the Euclidean one.
`evolve` and `propagator` work from one basis per solved spectrum, the
energy-normalized eigenvectors ``V_E``
(:func:`~specdamp.spectrum.energy_basis`), and its condition number, the
Riesz number that `riesz_basis_condition_number` reports, is the only
thing that picks the method:

* **exact-modal** while that number is at most ``MODAL_CONDITION_LIMIT``:
  ``y(t) = V_E exp(L t) V_E^{-1} S x0``, energies read as ``|y(t)|^2``
  and states mapped back through ``K^{-1/2}``;
* **expm** otherwise (Jordan blocks, nearly dependent eigenvectors): each
  sample is ``expm(t A) x0`` by scaling and squaring (Higham, SIMAX 26,
  2005), whose cost grows only with ``log ||t A||``.

`smoothing_probe` takes its states from `evolve`.

Resolvent probes quantify how far the generator is from sectorial:
`resolvent_norm_at` evaluates ``||(A - lam)^{-1}||`` in the energy norm
(the norm in which the Hille-Yosida contraction bound
``||(A - lam)^{-1}|| <= 1 / Re lam`` actually holds), and
`resolvent_scan` walks a vertical line ``Re lam = re_offset``, recording
``norm * |Im lam|``.  Bounded products along the line plus a finite
spectral sector angle ``max |Im lam_k| / |Re lam_k|`` together make the
sectoriality verdict; each alone has blind spots at finite order.
Like `evolve`, `propagator` and `smoothing_probe`, both take the solved
spectrum, ``(model, report, ...)``, and never solve the model or
eigendecompose ``A`` again; the caller solves once and hands it down.

Each resolvent point costs one LU factorization of ``A - lam``, which
keeps the value accurate to a few ulps against a 40-digit oracle.  One
Schur form shared by the whole scan was rejected: its backward error is
eps times the norm of the energy-scaled operator, whose damping block
grows like the fourth power of the rod's top frequency, and that cost up
to 1e-8 relative at N = 128.

What follows the LU depends only on the operator dimension ``2n``.
Below ``LANCZOS_MIN_DIMENSION`` the explicit energy-scaled inverse is
formed and its spectral norm taken densely, the faster route at that
size.  From there on the inverse is never formed: Lanczos with full
reorthogonalization on ``R_E^H R_E`` (``R_E`` the energy-scaled
resolvent), from a seeded random start, applies it through the LU
factors, two triangular solve pairs per step (Trefethen & Embree,
*Spectra and Pseudospectra*, 2005; Wright & Trefethen, SISC 23, 2001).
It stops when the top Ritz residual falls to ``LANCZOS_RTOL`` of the
Ritz value and returns ``||R_E u|| / ||u||`` for that Ritz vector ``u``,
through a residual-checked solve.

Every truncation order generates a trivially analytic semigroup, so the
honest finite-order statement is uniformity: bounded ``fitted_M`` and
sector angle as the order grows, which callers check across orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

from . import linalg
from .model import PhaseVector, SystemModel, phase_operator, validate
from .spectrum import SpectrumReport, energy_basis, solve_qep  # noqa: F401 (perfbench tests patch this binding)
from .tolerances import DEFAULT_TOLERANCES, ToleranceProfile

__all__ = [
    "NearSpectrum",
    "TrajectoryReport",
    "ResolventScan",
    "energy",
    "evolve",
    "propagator",
    "resolvent_norm_at",
    "resolvent_scan",
    "smoothing_probe",
]

# Above this condition number of the energy basis (the Riesz number) the
# modal formula loses too many digits, and expm(tA) takes over.
MODAL_CONDITION_LIMIT = 1e8

# From this operator dimension on, resolvent_norm_at runs Lanczos through
# the LU factors; below it the explicit inverse is faster.
LANCZOS_MIN_DIMENSION = 128

# Lanczos stops once the top Ritz residual is at most this times the Ritz
# value, which puts the Ritz value within that relative distance of an
# eigenvalue of R_E^H R_E.
LANCZOS_RTOL = 1e-13

# Seed of the Lanczos start vector, fixed so the norms are reproducible.
LANCZOS_SEED = 0


class NearSpectrum(Exception):
    """Requested resolvent point is within cluster tolerance of the spectrum."""

    def __init__(self, lam: complex, distance: float):
        self.lam = lam
        self.distance = distance
        super().__init__(f"lambda = {lam} is {distance:.3e} from the computed spectrum")


def energy(model: SystemModel, x: PhaseVector) -> float:
    """Squared energy norm ``x^T K x + |y|^2`` of a phase state."""
    p, v = x.position, x.velocity
    return float(np.real(np.vdot(p, model.K @ p)) + np.real(np.vdot(v, v)))


@dataclass(frozen=True)
class TrajectoryReport:
    """Sampled trajectory with energies and the method that produced it."""

    times: np.ndarray
    states: tuple[PhaseVector, ...]
    energies: np.ndarray
    method: str


def _maybe_real(arr: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(arr) and np.max(np.abs(arr.imag)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(arr.real)))
    ):
        return np.ascontiguousarray(arr.real)
    return arr


def _modal_basis(model: SystemModel, report: SpectrumReport):
    # The energy basis when the modal formula may use it, else None.
    basis = energy_basis(model, report)
    return basis if basis.condition_number <= MODAL_CONDITION_LIMIT else None


def evolve(
    model: SystemModel,
    report: SpectrumReport,
    x0: PhaseVector,
    times,
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
) -> TrajectoryReport:
    """Integrate the phase flow from ``x0`` over an ascending time grid.

    ``report`` is the solved spectrum of ``model``.  While its energy basis
    has a condition number of at most ``MODAL_CONDITION_LIMIT`` the flow is
    the modal formula in energy coordinates (``exact-modal``), with energies
    read as squared Euclidean norms there; otherwise each sample is
    ``expm(t A) x0`` (``expm``).
    """
    validation = validate(model)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nonnegative and ascending")
    z0 = x0.stacked()
    n = model.n
    if z0.shape[0] != 2 * n:
        raise ValueError("initial state dimension does not match the model")

    basis = _modal_basis(model, report)
    if basis is not None:
        method = "exact-modal"
        y0 = np.concatenate([validation.k_sqrt @ z0[:n], z0[n:]]).astype(complex)
        coeff = linalg.solve(basis.vectors, y0)
        ys = (np.exp(np.multiply.outer(times, report.eigenvalues)) * coeff) @ basis.vectors.T
        energies = np.einsum("ti,ti->t", ys.conj(), ys).real
        ys[:, :n] = ys[:, :n] @ validation.k_inv_sqrt  # K^{-1/2} is symmetric
        states = tuple(PhaseVector.from_stacked(_maybe_real(y)) for y in ys)
    else:
        method = "expm"
        a_op = phase_operator(model)
        states = tuple(PhaseVector.from_stacked(expm(t * a_op) @ z0) for t in times)
        energies = np.array([energy(model, s) for s in states])
    return TrajectoryReport(times=times, states=states, energies=energies, method=method)


def propagator(model: SystemModel, report: SpectrumReport, t: float) -> np.ndarray:
    """Time-``t`` solution operator ``exp(t A)`` as a dense matrix.

    ``report`` is the solved spectrum of ``model``; the modal formula and
    the ``expm`` fallback are chosen as in :func:`evolve`.
    """
    if t < 0.0:
        raise ValueError("propagator is defined for t >= 0")
    basis = _modal_basis(model, report)
    if basis is None:
        return expm(t * phase_operator(model))
    # exp(tA) = S^{-1} V_E exp(L t) V_E^{-1} S with S = diag(K^{1/2}, I).
    validation, n = validate(model), model.n
    scale = np.eye(2 * n, dtype=complex)
    scale[:n, :n] = validation.k_sqrt
    coeff = linalg.solve(basis.vectors, scale)
    prop = basis.vectors @ (np.exp(t * report.eigenvalues)[:, None] * coeff)
    prop[:n] = validation.k_inv_sqrt @ prop[:n]
    return _maybe_real(prop)


def resolvent_norm_at(
    model: SystemModel,
    report: SpectrumReport,
    lam: complex,
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
) -> float:
    """Energy-norm resolvent ``||(A - lam)^{-1}||`` at one point.

    Raises :class:`NearSpectrum` when ``lam`` is within cluster tolerance
    of an eigenvalue in ``report``, the solved spectrum, and
    :class:`~specdamp.linalg.Singular` when the LU factorization of
    ``A - lam`` has a negligible pivot.  The norm is the operator 2-norm
    of ``R_E = diag(K^{1/2}, I) (A - lam)^{-1} diag(K^{-1/2}, I)``; in
    that norm a contraction semigroup obeys ``norm <= 1 / Re lam`` for
    ``Re lam > 0``.

    Below ``LANCZOS_MIN_DIMENSION`` the explicit ``R_E`` is formed and its
    norm taken densely.  From there on ``R_E`` is never formed: Lanczos on
    ``R_E^H R_E`` applies it through the one LU factorization and returns
    ``||R_E u|| / ||u||`` for its converged Ritz vector ``u``, computed
    through a residual-checked solve.
    """
    lam = complex(lam)
    dist = float(np.min(np.abs(report.eigenvalues - lam)))
    if dist <= tolerances.cluster_tol * (1.0 + abs(lam)):
        raise NearSpectrum(lam, dist)
    validation, n = validate(model), model.n
    shifted = phase_operator(model).astype(complex) - lam * np.eye(2 * n)
    if 2 * n >= LANCZOS_MIN_DIMENSION:
        return _lanczos_norm(linalg.LUFactors(shifted), validation.k_sqrt, validation.k_inv_sqrt)
    resolvent = linalg.solve(shifted, np.eye(2 * n, dtype=complex))
    # Energy similarity diag(K^{1/2}, I) . R . diag(K^{-1/2}, I).
    resolvent[:n, :] = validation.k_sqrt @ resolvent[:n, :]
    resolvent[:, :n] = resolvent[:, :n] @ validation.k_inv_sqrt
    return float(np.linalg.norm(resolvent, 2))


def _lanczos_norm(lu: linalg.LUFactors, k_sqrt: np.ndarray, k_inv_sqrt: np.ndarray) -> float:
    # sigma_max of R_E = S R S^{-1}, S = diag(K^{1/2}, I), R = lu's inverse,
    # by Lanczos with full reorthogonalization on the Hermitian R_E^H R_E.
    dim, n = lu.matrix.shape[0], k_sqrt.shape[0]

    def scale_top(mat, v):
        # mat @ v[:n] for real mat and complex v, without a complex copy of mat
        w = v.copy()
        w[:n] = (mat @ v[:n].view(float).reshape(n, 2)).view(complex).ravel()
        return w

    def r_e(v):
        return scale_top(k_sqrt, lu.apply_inverse(scale_top(k_inv_sqrt, v)))

    def r_e_adjoint(v):
        return scale_top(k_inv_sqrt, lu.apply_inverse(scale_top(k_sqrt, v), adjoint=True))

    # A fixed generic start: a structured one (all ones, say) can be
    # orthogonal to the top singular vector of a symmetric model.
    rng = np.random.default_rng(LANCZOS_SEED)
    basis = np.empty((dim, dim), dtype=complex)  # one Lanczos vector per row
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = [], []
    for j in range(dim):
        q = basis[j]
        w = r_e_adjoint(r_e(q))
        alpha.append(float(np.vdot(q, w).real))
        w -= alpha[-1] * q
        if j:
            w -= beta[-1] * basis[j - 1]
        done = basis[: j + 1]
        for _ in range(2):
            w -= (done.conj() @ w) @ done
        b = float(np.linalg.norm(w))
        theta, s = eigh_tridiagonal(
            np.array(alpha), np.array(beta), select="i", select_range=(j, j), check_finite=False
        )
        # b * |s_j| is the Ritz residual ||H u - theta u|| of the top Ritz
        # pair, u = s @ done.  A full basis makes the Ritz pair exact.
        if b * abs(s[-1, 0]) <= LANCZOS_RTOL * theta[0] or j + 1 == dim:
            break
        beta.append(b)
        basis[j + 1] = w / b
    u = s[:, 0] @ done
    x = scale_top(k_sqrt, lu.solve(scale_top(k_inv_sqrt, u)))
    return float(np.linalg.norm(x) / np.linalg.norm(u))


@dataclass(frozen=True)
class ResolventScan:
    """Vertical-line resolvent scan and the sectoriality verdict.

    ``samples`` holds ``(lam, norm, product)`` with
    ``product = norm * |Im lam|``; ``fitted_M`` is the largest product.
    ``tail_slope`` is the log-log slope of the product over the top third
    of the line; near zero it certifies the ``M / |Im lam|`` decay.  The
    verdict ``sectorial`` additionally requires a finite spectral sector
    angle.
    """

    samples: tuple[tuple[complex, float, float], ...]
    fitted_M: float
    tail_slope: float
    products_bounded: bool
    sector_angle: float
    sectorial: bool


def resolvent_scan(
    model: SystemModel,
    report: SpectrumReport,
    re_offset: float,
    im_grid,
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
) -> ResolventScan:
    """Scan ``lam = re_offset + i t`` over ``im_grid`` and fit boundedness.

    ``report``, the solved spectrum of ``model``, gives the sector angle.
    ``im_grid`` should be an ascending positive (ideally log-spaced)
    grid.  :class:`NearSpectrum` from any sample propagates out.
    """
    im_grid = np.atleast_1d(np.asarray(im_grid, dtype=float))
    if im_grid.size < 2 or np.any(im_grid <= 0.0) or np.any(np.diff(im_grid) <= 0.0):
        raise ValueError("im_grid must be ascending and strictly positive")
    samples = []
    for t in im_grid:
        lam = complex(re_offset, float(t))
        nrm = resolvent_norm_at(model, report, lam, tolerances)
        samples.append((lam, nrm, nrm * float(t)))

    products = np.array([s[2] for s in samples])
    fitted = float(np.max(products))
    tail = max(2, im_grid.size // 3)
    slope = float(
        np.polyfit(np.log(im_grid[-tail:]), np.log(products[-tail:]), 1)[0]
    )
    bounded = slope <= 0.1

    lams = report.eigenvalues
    with np.errstate(divide="ignore"):
        ratios = np.where(
            lams.real == 0.0, np.inf, np.abs(lams.imag) / np.abs(lams.real)
        )
    angle = float(np.max(ratios)) if ratios.size else 0.0
    return ResolventScan(
        samples=tuple(samples),
        fitted_M=fitted,
        tail_slope=slope,
        products_bounded=bool(bounded),
        sector_angle=angle,
        sectorial=bool(bounded and np.isfinite(angle)),
    )


def smoothing_probe(
    model: SystemModel,
    report: SpectrumReport,
    x0: PhaseVector,
    t_grid,
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
) -> float:
    """Largest ``t ||A x(t)||_E / ||x0||_E`` over a small positive grid.

    Bounded values as the grid approaches zero are the smoothing
    signature of an analytic flow; the statistic is reported raw and is
    meant to be read together with the sector angle.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0.0):
        raise ValueError("t_grid must be nonnegative")
    base = np.sqrt(energy(model, x0))
    if base == 0.0:
        return 0.0
    a_op = phase_operator(model)
    traj = evolve(model, report, x0, np.sort(t_grid), tolerances)
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        ax = PhaseVector.from_stacked(a_op @ state.stacked())
        worst = max(worst, float(t) * np.sqrt(energy(model, ax)) / base)
    return worst
