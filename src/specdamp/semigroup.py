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

`smoothing_probe` takes its states from `evolve`.  The phase operator is
a direct sum over the model's coupling components
(:class:`~specdamp.model.ValidationReport`), and both methods run on each
component by itself: the scalar modes' ``2 x 2`` blocks all at once, each
coupled block on its own, so a decoupled model never forms a ``2n x 2n``
basis, solve or exponential.

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

The resolvent is a direct sum too, and its norm the largest block norm:
closed form on the scalar modes, and on each coupled block of size ``n``
one LU factorization of the ``n x n`` quadratic
``Q(lam) = K + lam C + lam^2 I``, which is singular exactly when
``A_b - lam`` is (structured pseudospectra of quadratic eigenproblems
work on ``Q`` directly too: Tisseur & Higham, SIMAX 23, 2001).  For an
input ``(a, g)`` in energy coordinates the energy-scaled resolvent is
``R_E (a, g) = (K^{1/2} x, y)`` with
``x = -Q^{-1}(g + C K^{-1/2} a + lam K^{-1/2} a)`` and
``y = Q^{-1}(K^{1/2} a - lam g)``, both from one solve with two
right-hand sides.  Neither formula cancels; ``y = K^{-1/2} a + lam x``,
the obvious alternative, loses digits on low modes at large ``|lam|``:
against a 40-digit oracle it is off by 3e-14 relative on the two-patch
rod at ``N = 16`` and by 1.2e-11 on a model whose ``K`` spans 1e-4..1e4
(condition number 1e8), where these formulas stay within 3.7e-16 and
2e-13.  The adjoint needs no solve of its own: the energy-scaled operator
``A_E`` is real with ``A_E^T = J A_E J``, ``J = diag(I, -I)``, because
``K^{1/2}`` and ``C`` are symmetric, so ``R_E^H v = J conj(R_E conj(J v))``.  One
Schur form shared by the whole scan was rejected: its backward error is
eps times the norm of the energy-scaled operator, whose damping block
grows like the fourth power of the rod's top frequency, and that cost up
to 1e-8 relative at N = 128.

What follows the LU depends only on the block's dimension ``2n``.
Below ``LANCZOS_MIN_DIMENSION`` ``R_E`` is formed explicitly as
``[[-K^{1/2} Z1, -K^{1/2} Z3], [Z2, -lam Z3]]`` from one residual-checked
solve ``Z = Q^{-1} [(C + lam) K^{-1/2} | K^{1/2} | I]`` and its spectral
norm taken densely, the faster route at that size.  From there on
``R_E`` is never formed: Lanczos with full reorthogonalization on
``R_E^H R_E``, from a seeded random start, applies it through the LU
factors, two ``n x n`` solves with two right-hand sides each per step
(Trefethen & Embree, *Spectra and Pseudospectra*, 2005; Wright &
Trefethen, SISC 23, 2001).  It stops when the top Ritz residual falls to
``LANCZOS_RTOL`` of the Ritz value and returns ``||R_E u|| / ||u||`` for
that Ritz vector ``u``, through a residual-checked solve.

Every truncation order generates a trivially analytic semigroup, so the
honest finite-order statement is uniformity: bounded ``fitted_M`` and
sector angle as the order grows, which callers check across orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, lapack

from . import linalg
from .model import CoupledBlock, PhaseVector, ScalarModes, SystemModel, phase_operator, validate
from .spectrum import SpectrumReport, energy_basis, solve_qep  # noqa: F401 (perfbench tests patch this binding)
from .tolerances import CLUSTER_TOL

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
# the LU factors of Q(lam); below it the explicit R_E is faster.  On the
# two-patch rod a 25-point scan takes about the same time either way at
# dimension 96 (0.045 s) and half the time by Lanczos at 128 (0.05 s
# against 0.10 s), one core.
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


def _rows(block: CoupledBlock, n: int) -> np.ndarray:
    # A block's coordinates in the stacked 2n phase vector.
    return np.concatenate([block.index, n + block.index])


def _mode_generators(modes: ScalarModes) -> np.ndarray:
    # The (m, 2, 2) stack of the scalar modes' phase operators [[0, 1], [-k, -c]].
    gen = np.zeros((modes.size, 2, 2))
    gen[:, 0, 1] = 1.0
    gen[:, 1, 0] = -modes.k
    gen[:, 1, 1] = -modes.c
    return gen


def evolve(model: SystemModel, report: SpectrumReport, x0: PhaseVector, times) -> TrajectoryReport:
    """Integrate the phase flow from ``x0`` over an ascending time grid.

    ``report`` is the solved spectrum of ``model``.  While its energy basis
    has a condition number of at most ``MODAL_CONDITION_LIMIT`` the flow is
    the modal formula in energy coordinates (``exact-modal``), with energies
    read as squared Euclidean norms there; otherwise each sample is
    ``expm(t A) x0`` (``expm``).  Either way the flow runs on each coupling
    component by itself, the scalar modes all at once.
    """
    validation = validate(model)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nonnegative and ascending")
    z0 = x0.stacked()
    n = model.n
    if z0.shape[0] != 2 * n:
        raise ValueError("initial state dimension does not match the model")

    modes = validation.scalar_modes
    basis = _modal_basis(model, report)
    if basis is not None:
        method = "exact-modal"
        ys = np.empty((times.size, 2 * n), dtype=complex)
        energies = np.zeros(times.size)
        if modes.size:
            root = np.sqrt(modes.k)
            y0 = np.stack([root * z0[modes.index], z0[n + modes.index]], axis=1).astype(complex)
            coeff = np.linalg.solve(basis.modes, y0[..., None])[..., 0]
            flow = np.exp(np.multiply.outer(times, basis.mode_values)) * coeff
            ym = np.einsum("mij,tmj->tmi", basis.modes, flow)
            energies += np.einsum("tmi,tmi->t", ym.conj(), ym).real
            ys[:, modes.index] = ym[..., 0] / root
            ys[:, n + modes.index] = ym[..., 1]
        for block, vectors, values in zip(validation.coupled_blocks, basis.blocks, basis.block_values):
            m = block.n
            y0 = np.concatenate([block.k_sqrt @ z0[block.index], z0[n + block.index]])
            coeff = linalg.solve(vectors, y0.astype(complex))
            yb = (np.exp(np.multiply.outer(times, values)) * coeff) @ vectors.T
            energies += np.einsum("ti,ti->t", yb.conj(), yb).real
            ys[:, block.index] = yb[:, :m] @ block.k_inv_sqrt  # K^{-1/2} is symmetric
            ys[:, n + block.index] = yb[:, m:]
        states = tuple(PhaseVector.from_stacked(_maybe_real(y)) for y in ys)
    else:
        method = "expm"
        zs = np.empty((times.size, 2 * n), dtype=np.result_type(z0, float))
        if modes.size:
            flows = expm(np.multiply.outer(times, _mode_generators(modes)))
            zm = np.stack([z0[modes.index], z0[n + modes.index]], axis=1)
            out = np.einsum("tmij,mj->tmi", flows, zm)
            zs[:, modes.index] = out[..., 0]
            zs[:, n + modes.index] = out[..., 1]
        for block in validation.coupled_blocks:
            a_op, rows = phase_operator(block), _rows(block, n)
            zb = z0[rows]
            for i, t in enumerate(times):
                zs[i, rows] = expm(t * a_op) @ zb
        states = tuple(PhaseVector.from_stacked(z) for z in zs)
        energies = np.array([energy(model, s) for s in states])
    return TrajectoryReport(times=times, states=states, energies=energies, method=method)


def propagator(model: SystemModel, report: SpectrumReport, t: float) -> np.ndarray:
    """Time-``t`` solution operator ``exp(t A)`` as a dense matrix.

    ``report`` is the solved spectrum of ``model``; the modal formula and
    the ``expm`` fallback are chosen as in :func:`evolve` and applied per
    coupling component.
    """
    if t < 0.0:
        raise ValueError("propagator is defined for t >= 0")
    validation, n = validate(model), model.n
    modes = validation.scalar_modes
    basis = _modal_basis(model, report)
    prop = np.zeros((2 * n, 2 * n), dtype=float if basis is None else complex)
    if modes.size:
        if basis is None:
            flows = expm(t * _mode_generators(modes))
        else:
            # exp(tA_i) = S_i^{-1} V_i exp(L_i t) V_i^{-1} S_i with S_i = diag(sqrt(k_i), 1).
            root = np.sqrt(modes.k)
            scale = np.zeros((modes.size, 2, 2))
            scale[:, 0, 0], scale[:, 1, 1] = root, 1.0
            coeff = np.linalg.solve(basis.modes, scale)
            flows = basis.modes @ (np.exp(t * basis.mode_values)[..., None] * coeff)
            flows[:, 0, :] /= root[:, None]
        coords = (modes.index, n + modes.index)
        for i in range(2):
            for j in range(2):
                prop[coords[i], coords[j]] = flows[:, i, j]
    for b, block in enumerate(validation.coupled_blocks):
        rows = _rows(block, n)
        if basis is None:
            prop[np.ix_(rows, rows)] = expm(t * phase_operator(block))
            continue
        vectors, m = basis.blocks[b], block.n
        scale = np.eye(2 * m, dtype=complex)
        scale[:m, :m] = block.k_sqrt
        coeff = linalg.solve(vectors, scale)
        flow = vectors @ (np.exp(t * basis.block_values[b])[:, None] * coeff)
        flow[:m] = block.k_inv_sqrt @ flow[:m]
        prop[np.ix_(rows, rows)] = flow
    return _maybe_real(prop)


def _mode_resolvent_norms(modes: ScalarModes, lam: complex, dim: int) -> np.ndarray:
    # R_E of a scalar mode is S (A_i - lam)^{-1} S^{-1} = N / q with
    # S = diag(sqrt(k), 1), q = lam^2 + c lam + k and
    # N = [[-(c + lam), -sqrt(k)], [sqrt(k), -lam]].  Its norm is the root of
    # the top eigenvalue of N^H N = [[h11, h12], [conj(h12), h22]], a sum of
    # nonnegative terms free of cancellation.  LU with partial pivoting of
    # A_i - lam = [[-lam, 1], [-k, -(c + lam)]] has pivots max(|lam|, k) and
    # |q| / max(|lam|, k); a negligible one raises Singular as LUFactors does.
    k, c = modes.k, modes.c
    q = lam * lam + c * lam + k
    first = np.maximum(abs(lam), k)
    scale = np.sqrt(abs(lam) ** 2 + 1.0 + k * k + np.abs(c + lam) ** 2)  # ||A_i - lam||_F
    bad = np.minimum(first, np.abs(q) / first) <= linalg.PIVOT_RTOL * scale
    if np.any(bad):
        raise linalg.Singular(rank_estimate=dim - int(np.count_nonzero(bad)))
    h11 = np.abs(c + lam) ** 2 + k
    h22 = k + abs(lam) ** 2
    h12_sq = k * (c * c + 4.0 * lam.imag**2)  # |h12|^2, h12 = sqrt(k) (c - 2i Im lam)
    top = 0.5 * (h11 + h22) + np.sqrt(0.25 * (h11 - h22) ** 2 + h12_sq)
    return np.sqrt(top) / np.abs(q)


def _block_resolvent_norm(block: CoupledBlock, lam: complex) -> float:
    # The energy-norm resolvent of one coupled block through one LU of
    # Q(lam) = K + lam C + lam^2 I (see resolvent_norm_at).
    n = block.n
    quad = block.C * lam + block.K
    quad[np.diag_indices(n)] += lam * lam
    # Near the spectrum the three terms cancel, so the pivots are judged
    # against their size: a 1 x 1 Q would otherwise be its own scale.
    terms = np.linalg.norm(block.K) + abs(lam) * np.linalg.norm(block.C) + abs(lam) ** 2 * np.sqrt(n)
    lu = linalg.LUFactors(quad, scale=terms)
    if 2 * n >= LANCZOS_MIN_DIMENSION:
        return _lanczos_norm(lu, block, lam)
    # Z = Q^{-1} [(C + lam) K^{-1/2} | K^{1/2} | I]; then
    # R_E = [[-K^{1/2} Z1, -K^{1/2} Z3], [Z2, -lam Z3]].
    damped = block.C @ block.k_inv_sqrt + lam * block.k_inv_sqrt
    z = lu.solve(np.hstack([damped, block.k_sqrt, np.eye(n)]))
    z1, z2, z3 = z[:, :n], z[:, n : 2 * n], z[:, 2 * n :]
    resolvent = np.block([[-(block.k_sqrt @ z1), -(block.k_sqrt @ z3)], [z2, -lam * z3]])
    return float(np.linalg.norm(resolvent, 2))


def resolvent_norm_at(model: SystemModel, report: SpectrumReport, lam: complex) -> float:
    """Energy-norm resolvent ``||(A - lam)^{-1}||`` at one point.

    Raises :class:`NearSpectrum` when ``lam`` is within cluster tolerance
    of an eigenvalue in ``report``, the solved spectrum, and
    :class:`~specdamp.linalg.Singular` when the LU factorization of a
    block's ``Q(lam) = K + lam C + lam^2 I`` has a negligible pivot
    (``Q(lam)`` is singular exactly when ``A - lam`` is).  The norm is the
    operator 2-norm of ``R_E = diag(K^{1/2}, I) (A - lam)^{-1}
    diag(K^{-1/2}, I)``; in that norm a contraction semigroup obeys
    ``norm <= 1 / Re lam`` for ``Re lam > 0``.

    ``R_E`` is a direct sum over the coupling components, so its norm is
    the largest block norm.  The ``2 x 2`` blocks of the scalar modes are
    normed in closed form, all at once.  Each coupled block of size ``n``
    factors its ``n x n`` ``Q(lam)`` once: below ``LANCZOS_MIN_DIMENSION``
    (of ``2n``) its explicit ``R_E`` is formed from one residual-checked
    solve and normed densely; from there on ``R_E`` is never formed, and
    Lanczos on ``R_E^H R_E`` applies it through the factors and returns
    ``||R_E u|| / ||u||`` for its converged Ritz vector ``u``, computed
    through a residual-checked solve.
    """
    lam = complex(lam)
    dist = float(np.min(np.abs(report.eigenvalues - lam)))
    if dist <= CLUSTER_TOL * (1.0 + abs(lam)):
        raise NearSpectrum(lam, dist)
    validation = validate(model)
    norms = [_block_resolvent_norm(block, lam) for block in validation.coupled_blocks]
    if validation.scalar_modes.size:
        norms.append(float(np.max(_mode_resolvent_norms(validation.scalar_modes, lam, 2 * model.n))))
    return max(norms)


def _lanczos_norm(lu: linalg.LUFactors, block: CoupledBlock, lam: complex) -> float:
    # sigma_max of the block's R_E by Lanczos with full reorthogonalization
    # on the Hermitian R_E^H R_E; lu holds the factors of Q(lam).
    n, dim = block.n, 2 * block.n
    k_sqrt, k_inv_sqrt = block.k_sqrt, block.k_inv_sqrt

    def real_times(mat, v):
        # mat @ v for real mat and complex v, without a complex copy of mat
        return (mat @ v.view(float).reshape(n, 2)).view(complex).ravel()

    def r_e(v, solve=lu.apply_inverse):
        # R_E (a, g) = (K^{1/2} x, y) with x = -Q^{-1}(g + (C + lam) K^{-1/2} a)
        # and y = Q^{-1}(K^{1/2} a - lam g), one solve for both.  Forming
        # y = K^{-1/2} a + lam x instead cancels on low modes at large |lam|.
        a, g = v[:n], v[n:]
        p = real_times(k_inv_sqrt, a)
        rhs = np.empty((n, 2), dtype=complex, order="F")
        rhs[:, 0] = g + real_times(block.C, p) + lam * p
        rhs[:, 1] = real_times(k_sqrt, a) - lam * g
        xy = solve(rhs)
        return np.concatenate([-real_times(k_sqrt, np.ascontiguousarray(xy[:, 0])), xy[:, 1]])

    def r_e_adjoint(v):
        # A_E^T = J A_E J with J = diag(I, -I) and A_E real, so
        # R_E^H v = J conj(R_E conj(J v)): no adjoint solve.
        jv = v.conj()
        jv[n:] *= -1.0
        out = r_e(jv).conj()
        out[n:] *= -1.0
        return out

    # A fixed generic start: a structured one (all ones, say) can be
    # orthogonal to the top singular vector of a symmetric model.
    rng = np.random.default_rng(LANCZOS_SEED)
    basis = np.empty((dim, dim), dtype=complex)  # one Lanczos vector per row
    conj_basis = np.empty((dim, dim), dtype=complex)  # their conjugates
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    basis[0] = start / np.linalg.norm(start)
    conj_basis[0] = basis[0].conj()
    alpha, beta = np.empty(dim), np.empty(dim)
    for j in range(dim):
        q = basis[j]
        w = r_e_adjoint(r_e(q))
        alpha[j] = np.vdot(q, w).real
        w -= alpha[j] * q
        if j:
            w -= beta[j - 1] * basis[j - 1]
        done, conj_done = basis[: j + 1], conj_basis[: j + 1]
        for _ in range(2):
            w -= (conj_done @ w) @ done
        b = float(np.linalg.norm(w))
        theta, s = _top_ritz_pair(alpha[: j + 1], beta[:j])
        # b * |s_j| is the Ritz residual ||H u - theta u|| of the top Ritz
        # pair, u = s @ done.  A full basis makes the Ritz pair exact.
        if b * abs(s[-1]) <= LANCZOS_RTOL * theta or j + 1 == dim:
            break
        beta[j] = b
        basis[j + 1] = w / b
        conj_basis[j + 1] = basis[j + 1].conj()
    u = s @ done
    x = r_e(u, solve=lu.solve)
    return float(np.linalg.norm(x) / np.linalg.norm(u))


def _top_ritz_pair(diag: np.ndarray, off: np.ndarray) -> tuple[float, np.ndarray]:
    # The largest eigenvalue of the symmetric tridiagonal matrix and its
    # eigenvector, by LAPACK stebz (bisection) and stein (inverse
    # iteration), the pair eigh_tridiagonal(select="i") runs.
    m = diag.shape[0]
    if m == 1:
        return float(diag[0]), np.ones(1)
    count, w, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, m, m, 0.0, "B")
    if info == 0:
        vec, info = lapack.dstein(diag, off, w[:count], iblock, isplit)
    if info != 0:
        raise linalg.NoConvergence(f"tridiagonal Ritz pair (LAPACK info {info})")
    return float(w[0]), vec[:, 0]


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
    model: SystemModel, report: SpectrumReport, re_offset: float, im_grid
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
        nrm = resolvent_norm_at(model, report, lam)
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


def smoothing_probe(model: SystemModel, report: SpectrumReport, x0: PhaseVector, t_grid) -> float:
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
    validation, n = validate(model), model.n
    modes = validation.scalar_modes
    ops = [(_rows(block, n), phase_operator(block)) for block in validation.coupled_blocks]
    traj = evolve(model, report, x0, np.sort(t_grid))
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        z = state.stacked()
        az = np.empty_like(z)
        # A_i (x, y) = (y, -k x - c y) on each scalar mode, A_b z_b on each block.
        az[modes.index] = z[n + modes.index]
        az[n + modes.index] = -modes.k * z[modes.index] - modes.c * z[n + modes.index]
        for rows, a_op in ops:
            az[rows] = a_op @ z[rows]
        worst = max(worst, float(t) * np.sqrt(energy(model, PhaseVector.from_stacked(az))) / base)
    return worst
