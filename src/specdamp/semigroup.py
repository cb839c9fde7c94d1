"""Time evolution, contraction checks, and resolvent-based analyticity probes.

The phase flow ``x'(t) = A x(t)`` with ``A = [[0, I], [-K, -C]]`` is a
contraction in the energy norm ``|x|_E^2 = x^T K x + |y|^2`` because
``Re <A u, u>_E = -y^H C y <= 0``.  In energy coordinates
``y = S x``, ``S = diag(K^{1/2}, I)``, that norm is the Euclidean one.
`evolve`, `propagator` and `smoothing_probe` share one kernel, which
returns ``exp(t A) Z`` for every sample time and every column of a
``2n x k`` matrix ``Z``, with each column's energy: `evolve` flows
``Z = x0``, `propagator` the identity at one time, and `smoothing_probe`
``Z = A x0``, because ``A`` commutes with ``exp(t A)``:
``A x(t) = exp(t A) A x0``, so the probe reads ``t ||A x(t)||_E`` from the
energies.  The phase operator is a direct sum over the model's coupling
components (:class:`~specdamp.model.ValidationReport`), and the kernel
flows each component by itself, every sample at once, so a decoupled
model never forms a ``2n x 2n`` basis, solve or exponential:

* every scalar mode's ``exp(t A_i)`` is the closed form of a ``2 x 2``
  exponential (Putzer's; Moler & Van Loan, SIAM Rev. 45, 2003),
  ``e^{l1 t} I + phi (A_i - l1 I)`` with
  ``phi = (e^{l2 t} - e^{l1 t}) / (l2 - l1)``, evaluated through ``expm1``
  from the slower root ``l1``; at an exact double root ``phi = t e^{l1 t}``,
  the flow of the Jordan chain ``e^{l t} (I + t (A_i - l))``.  One pass
  over a ``(modes, samples)`` array covers all of them.
* each coupled block flows by a method that one number picks for the whole
  model: the condition number of the energy-normalized eigenvectors
  ``V_E`` (:func:`~specdamp.spectrum.energy_basis`), the Riesz number that
  `riesz_basis_condition_number` reports.  While it is at most
  ``MODAL_CONDITION_LIMIT`` the method is **exact-modal**:
  ``y(t) = V_E exp(L t) V_E^{-1} S x0`` for all samples in one product,
  energies read as ``|y(t)|^2`` and states mapped back through
  ``K^{-1/2}``; ``V_E`` is LU-factored once per report
  (:meth:`~specdamp.spectrum.EnergyBasis.block_factors`).  Otherwise
  (Jordan blocks, nearly dependent eigenvectors) it is **expm**: ``expm``
  on the stack of ``t A_b`` over all samples, each by scaling and squaring
  (Higham, SIMAX 26, 2005), whose cost grows only with ``log ||t A_b||``.
  One call takes as many samples as keep the stack within
  ``MAX_TRAJECTORY_ENTRIES`` entries, so a long grid on a large block takes
  a few.

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

What follows depends only on the block's dimension ``2n``.  Below
``LANCZOS_MIN_DIMENSION`` ``R_E`` is formed explicitly and normed densely,
a chunk of points in one pass: one stack of ``Q(lam)`` and of the
right-hand sides ``[(C + lam) K^{-1/2} | K^{1/2} | I]``, solved for ``Z``
by :func:`~specdamp.linalg.solve_stack` (the LAPACK calls of
:class:`~specdamp.linalg.LUFactors` point by point, then one pivot test
and one residual check of the whole stack, by its rules), one stack of
``R_E = [[-K^{1/2} Z1, -K^{1/2} Z3], [Z2, -lam Z3]]`` and one batched SVD.
From there on ``R_E`` is never formed, and the block is taken in the
eigenbasis ``V`` of its ``K``, which validation has already computed:
there ``K`` is ``diag(k_i)``, ``K^{+-1/2}`` are scalings by ``k_i^{+-1/2}``,
``C`` becomes ``V^T C V`` and ``R_E`` becomes
``diag(V, V)^T R_E diag(V, V)``, which has the same norm.  Each point's
``Q(lam) = diag(k_i) + lam V^T C V + lam^2 I`` is factored by itself, and
Lanczos with full reorthogonalization on ``R_E^H R_E``, from a seeded
random start, applies it through the LU factors, two ``n x n`` solves
with two right-hand sides each per step and one real product with
``V^T C V`` per application (Trefethen & Embree, *Spectra and
Pseudospectra*, 2005; Wright & Trefethen, SISC 23, 2001).  A diagonal
``K``, as the beam's, has ``V = I`` exactly, so there ``Q(lam)``, the
solves and the norms are bit for bit those in the model's own
coordinates.  Each point stops when its top Ritz residual falls to
``LANCZOS_RTOL`` of its Ritz value and returns ``||R_E u|| / ||u||`` for
that Ritz vector ``u``, through a residual-checked solve.

A scan runs the Lanczos of all its points in lockstep.  Their vectors
live in one ``(points, steps, 2n)`` array; each of a step's two
resolvent applications multiplies all points' columns by ``V^T C V`` in
one real product, each step reorthogonalizes all of them in one batched
product, and only the triangular solves and the tridiagonal Ritz pair run
point by point.  A point that converges leaves the active set, so every
point keeps its own start, stop test and value.  On both routes the points go through in chunks whose working set fits
``RESOLVENT_CHUNK_BYTES``, so stacking raises no peak memory, and
`resolvent_norm_at` is the one-point case of the same code.  On the
explicit route a scan sample is the one-point value bit for bit.  On the
Lanczos route a product over a chunk's columns need not round as a
one-column product does, so a sample and the one-point value, or the
samples of two chunk sizes, agree to 1e-14 relative only: on the
two-patch rod's 25-point scan 20 samples differ at ``N = 32``, 22 at
``N = 64`` and 19 at ``N = 128``, by at most 3.1e-15.  The scalar modes
of all points are normed at once, as one ``(points, modes)`` array.  The
first failing point in grid order raises, as if the points ran one by
one.

Every truncation order generates a trivially analytic semigroup, so the
honest finite-order statement is uniformity: bounded ``fitted_M`` and
sector angle as the order grows, which callers check across orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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

# The coupled-block dimension 2n from which the resolvent norm runs Lanczos
# through the LU factors of Q(lam); below it R_E is formed and normed
# densely.  A 25-point scan of the two-patch rod (PYTHONPATH=src python3
# tools/scan_crossover.py 24 28 32 --repeat 15, one core) takes, explicit
# against Lanczos, 6.3 against 7.7 ms at N = 24 (dimension 48), 8.4 against
# 8.4 ms at N = 28 and 11.4 against 9.2 ms at N = 32.  The routes agree to
# about 2e-15 relative, and the spectral bracket of the tier-1 tests checks
# both.
LANCZOS_MIN_DIMENSION = 64

# The points of a scan go through in chunks of at most this many bytes of
# working set, at least one point each.  On the Lanczos route a point holds
# Q(lam) and its LU factors (32 n^2 bytes, complex), which all stay alive
# through the lockstep: 64 points at N = 32, 16 at N = 64, 4 at N = 128 and
# 1 at N = 256.  On the explicit route a point's share of the stacks of
# Q(lam), right-hand sides, solutions, residuals and R_E is about 288 n^2
# bytes: 12 points at N = 24 and every point of the 25 up to n = 17.  The
# budget is no more than a one-point Lanczos keeping a full dim x dim
# complex basis and its conjugate holds at N = 128 (dim = 256), so the scan
# raises no peak memory.
RESOLVENT_CHUNK_BYTES = 2 << 20

# Lanczos stops once the top Ritz residual is at most this times the Ritz
# value, which puts the Ritz value within that relative distance of an
# eigenvalue of R_E^H R_E.
LANCZOS_RTOL = 1e-13

# Seed of the Lanczos start vector, fixed so the norms are reproducible.
LANCZOS_SEED = 0

# The most state entries (samples x 2n) a trajectory may hold, 128 MiB of
# float64: the CLI's simulate refuses more before it solves anything.  The
# expm path exponentiates a coupled block's samples in chunks whose stack
# of (2n_b)^2 entries per sample stays within it too.
MAX_TRAJECTORY_ENTRIES = 1 << 24


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
    """Sampled trajectory with energies and the method that produced it.

    ``states`` is one ``(samples, 2n)`` array whose row ``i`` is the state
    ``(x, y)`` at ``times[i]``: real for a real initial state, since
    ``exp(t A)`` is real, and complex for a complex one.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    method: str


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Re sum_i conj(a_i) b_i over the first axis.
    return np.einsum("i...,i...->...", a.conj() if np.iscomplexobj(a) else a, b).real


def _mode_flows(modes: ScalarModes, values: np.ndarray, times: np.ndarray):
    # The entries (f00, f01, f10, f11) of every scalar mode's exp(t A_i) as
    # real (modes, times) arrays, in Putzer's form (module docstring) with
    # phi = t e^{l1 t} expm1(d t) / (d t), d = l2 - l1.  values holds each
    # mode's roots ascending, so l1 is the slower one, Re d <= 0 and nothing
    # overflows; expm1 keeps phi's digits where the roots nearly coincide.
    # A_i - l1 I = [[-l1, 1], [-k, l2]], since l1 + l2 = -c.
    slow, fast = values[:, 1, None], values[:, 0, None]
    decay = np.exp(slow * times)
    dt = (fast - slow) * times
    ratio = np.ones_like(dt)
    moving = dt != 0.0
    ratio[moving] = np.expm1(dt[moving]) / dt[moving]
    phi = times * decay * ratio
    # The imaginary parts of a conjugate pair's entries are rounding.
    return (decay - slow * phi).real, phi.real, -modes.k[:, None] * phi.real, (decay + fast * phi).real


def _flow(model: SystemModel, report: SpectrumReport, times: np.ndarray, z: np.ndarray):
    # exp(tA) z for every time and every column of the 2n x k matrix z, as a
    # (2n, times, k) array, real for a real z, with each column's squared
    # energy norm as a (times, k) array, and the method.  Each coupling
    # component flows by itself: the scalar modes in closed form, all at
    # once, and each coupled block in one product over all samples
    # (exact-modal) or from stacked expm calls, one per chunk of samples.
    validation, n = validate(model), model.n
    modes = validation.scalar_modes
    basis = energy_basis(model, report)
    modal = basis.condition_number <= MODAL_CONDITION_LIMIT
    shape = (times.size, z.shape[1])
    blocks = validation.coupled_blocks
    out = np.empty((2 * n,) + shape, dtype=np.result_type(z, complex if modal and blocks else float))
    energies = np.zeros(shape)
    if modes.size:
        # Entrywise: the identity's 2n columns make a batched product the
        # bulk of propagator.
        f00, f01, f10, f11 = (f[..., None] for f in _mode_flows(modes, basis.mode_values, times))
        x, y = z[modes.index, None], z[n + modes.index, None]
        xt, yt = f00 * x + f01 * y, f10 * x + f11 * y
        out[modes.index], out[n + modes.index] = xt, yt
        energies += _inner(xt, modes.k[:, None, None] * xt) + _inner(yt, yt)
    for b, block in enumerate(blocks):
        m, rows = block.n, np.concatenate([block.index, n + block.index])
        zb = z[rows]
        if not modal:
            # scipy exponentiates a stack matrix by matrix, each as a call
            # of its own would, so the chunks change no flow.
            gen, step = phase_operator(block), max(1, MAX_TRAJECTORY_ENTRIES // (2 * m) ** 2)
            for lo in range(0, times.size, step):
                flows = expm(times[lo : lo + step, None, None] * gen)
                out[rows, lo : lo + step] = (flows @ zb).transpose(1, 0, 2)
            x, y = out[block.index], out[n + block.index]
            energies += _inner(x, linalg.real_times(block.K, x)) + _inner(y, y)
            continue
        # In energy coordinates y = diag(K^{1/2}, I) z the flow is
        # V_E exp(L t) V_E^{-1} y and the energy is |y|^2.
        y0 = np.concatenate([linalg.real_times(block.k_sqrt, zb[:m]), zb[m:]])
        coeff = basis.block_factors(b).solve(y0.astype(complex))
        flow = np.exp(np.multiply.outer(basis.block_values[b], times))[..., None] * coeff[:, None]
        # One product over all samples; a batched one per sample is slower.
        yb = (basis.blocks[b] @ flow.reshape(2 * m, -1)).reshape(flow.shape)
        energies += _inner(yb, yb)
        out[block.index] = linalg.real_times(block.k_inv_sqrt, yb[:m])  # K^{-1/2} is symmetric
        out[n + block.index] = yb[m:]
    # exp(tA) is real, so for a real z the imaginary part is rounding.
    return out if np.iscomplexobj(z) else out.real, energies, "exact-modal" if modal else "expm"


def evolve(model: SystemModel, report: SpectrumReport, x0: PhaseVector, times) -> TrajectoryReport:
    """Integrate the phase flow from ``x0`` over an ascending time grid.

    ``report`` is the solved spectrum of ``model``.  The flow runs on each
    coupling component by itself.  Every scalar mode's ``exp(t A_i)`` is
    the closed form of a ``2 x 2`` exponential, all modes and samples at
    once.  While the energy basis has a condition number of at most
    ``MODAL_CONDITION_LIMIT`` each coupled block flows by the modal formula
    in energy coordinates (``exact-modal``), with energies read as squared
    Euclidean norms there; otherwise its ``exp(t A_b)`` for every sample
    comes from stacked ``expm`` calls (``expm``).  ``states`` is one
    ``(samples, 2n)`` array, real for a real ``x0``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nonnegative and ascending")
    z0 = x0.stacked()
    if z0.shape[0] != 2 * model.n:
        raise ValueError("initial state dimension does not match the model")
    out, energies, method = _flow(model, report, times, z0[:, None])
    states = np.ascontiguousarray(out[:, :, 0].T)
    return TrajectoryReport(times=times, states=states, energies=energies[:, 0], method=method)


def propagator(model: SystemModel, report: SpectrumReport, t: float) -> np.ndarray:
    """Time-``t`` solution operator ``exp(t A)`` as a dense real matrix.

    ``report`` is the solved spectrum of ``model``; each coupling component
    flows as in :func:`evolve`.
    """
    if t < 0.0:
        raise ValueError("propagator is defined for t >= 0")
    out, _, _ = _flow(model, report, np.array([float(t)]), np.eye(2 * model.n))
    return np.ascontiguousarray(out[:, 0])


def _point_scalars(lams: np.ndarray):
    # |lam|, |lam|^2 and lam^2 of every point in Python's complex arithmetic.
    # numpy's vectorized abs and complex product can differ from it in the
    # last bit; these keep every norm bit for bit what a point-by-point
    # evaluation in Python scalars gives, and the reports' bytes with it.
    points = lams.tolist()
    mags = [abs(lam) for lam in points]
    return np.array(mags), np.array([m**2 for m in mags]), np.array([lam * lam for lam in points])


def _mode_resolvent_norms(modes: ScalarModes, lams: np.ndarray, dim: int, failures: dict) -> np.ndarray:
    # The norm of every scalar mode's R_E at every point of lams, a
    # (points, modes) array that is zero from the first failing point on;
    # that point's Singular is added to failures.
    # R_E of a scalar mode is S (A_i - lam)^{-1} S^{-1} = N / q with
    # S = diag(sqrt(k), 1), q = lam^2 + c lam + k and
    # N = [[-(c + lam), -sqrt(k)], [sqrt(k), -lam]].  Its norm is the root of
    # the top eigenvalue of N^H N = [[h11, h12], [conj(h12), h22]], a sum of
    # nonnegative terms free of cancellation.  LU with partial pivoting of
    # A_i - lam = [[-lam, 1], [-k, -(c + lam)]] has pivots max(|lam|, k) and
    # |q| / max(|lam|, k); a negligible one raises Singular as LUFactors does.
    k, c, col = modes.k, modes.c, lams[:, None]
    mags, mag_sq, squares = _point_scalars(lams)
    q = squares[:, None] + c * col + k
    first = np.maximum(mags[:, None], k)
    shifted_sq = np.abs(c + col) ** 2
    scale = np.sqrt((mag_sq + 1.0)[:, None] + k * k + shifted_sq)  # ||A_i - lam||_F
    bad = ~linalg.healthy_pivots(np.minimum(first, np.abs(q) / first), scale)
    stop = lams.size
    if np.any(bad):
        stop = int(np.flatnonzero(np.any(bad, axis=1))[0])
        failures[stop] = linalg.Singular(rank_estimate=dim - int(np.count_nonzero(bad[stop])))
    imag_sq4 = np.array([4.0 * lam.imag**2 for lam in lams[:stop].tolist()])
    h11 = shifted_sq[:stop] + k
    h22 = k + mag_sq[:stop, None]
    h12_sq = k * (c * c + imag_sq4[:, None])  # |h12|^2, h12 = sqrt(k) (c - 2i Im lam)
    top = 0.5 * (h11 + h22) + np.sqrt(0.25 * (h11 - h22) ** 2 + h12_sq)
    norms = np.zeros(q.shape)
    norms[:stop] = np.sqrt(top) / np.abs(q[:stop])
    return norms


def _explicit_norms(block: CoupledBlock, lams: np.ndarray, quads: np.ndarray, terms: np.ndarray) -> list:
    # The norm of the block's R_E at every point of lams, formed explicitly
    # and normed densely, up to the first failing point, whose Singular ends
    # the list; quads stacks the points' Q(lam) and terms their pivot
    # scales.  One stacked, residual-checked solve gives
    # Z = Q^{-1} [(C + lam) K^{-1/2} | K^{1/2} | I] at every point, then
    # R_E = [[-K^{1/2} Z1, -K^{1/2} Z3], [Z2, -lam Z3]] and one batched SVD.
    n = block.n
    rhs = np.empty((lams.size, n, 3 * n), dtype=complex)
    rhs[:, :, :n] = block.C @ block.k_inv_sqrt + lams[:, None, None] * block.k_inv_sqrt
    rhs[:, :, n : 2 * n] = block.k_sqrt
    rhs[:, :, 2 * n :] = np.eye(n)
    z, error = linalg.solve_stack(quads, rhs, terms)
    z1, z2, z3 = z[:, :, :n], z[:, :, n : 2 * n], z[:, :, 2 * n :]
    resolvent = np.empty((len(z), 2 * n, 2 * n), dtype=complex)
    resolvent[:, :n, :n] = -(block.k_sqrt @ z1)
    resolvent[:, :n, n:] = -(block.k_sqrt @ z3)
    resolvent[:, n:, :n] = z2
    resolvent[:, n:, n:] = -lams[: len(z), None, None] * z3
    norms = np.linalg.svd(resolvent, compute_uv=False)[:, 0].tolist()
    return norms + [error] if error else norms


class _EigenFrame(NamedTuple):
    # A coupled block in the eigenbasis V of its K, the k_vectors of its
    # validation: K is diag(values), K^{1/2} and K^{-1/2} scale by root and
    # inv_root, and damping is V^T C V, symmetrized.
    n: int
    values: np.ndarray
    root: np.ndarray
    inv_root: np.ndarray
    damping: np.ndarray


def _eigen_frame(block: CoupledBlock) -> _EigenFrame:
    # inv_root is 1 / root, as sqrt_pair_from_eig divides, so a diagonal K
    # (V = I) gives the bits of block.k_inv_sqrt's diagonal.
    v = block.k_vectors
    damping = v.T @ block.C @ v
    root = np.sqrt(block.k_eigenvalues)
    return _EigenFrame(block.n, block.k_eigenvalues, root, 1.0 / root, 0.5 * (damping + damping.T))


def _apply_resolvent(frame: _EigenFrame, lams: np.ndarray, solves, v: np.ndarray) -> np.ndarray:
    # R_E (a, g) = (K^{1/2} x, y) in the frame for each column (a, g) of v,
    # the i-th at lams[i], with x = -Q^{-1}(g + (C + lam) K^{-1/2} a) and
    # y = Q^{-1}(K^{1/2} a - lam g) from one solve for both; solves[i]
    # applies Q(lams[i])^{-1} to an (n, 2) block.  Forming
    # y = K^{-1/2} a + lam x instead cancels on low modes at large |lam|.
    n = frame.n
    a, g = v[:n], v[n:]
    p = frame.inv_root[:, None] * a
    # rhs[i].T is the F-contiguous (n, 2) block of point i.
    rhs = np.empty((len(solves), 2, n), dtype=complex)
    rhs[:, 0] = (g + linalg.real_times(frame.damping, p) + lams * p).T
    rhs[:, 1] = (frame.root[:, None] * a - lams * g).T
    xy = np.empty((2, n, len(solves)), dtype=complex)
    for i, solve in enumerate(solves):
        xy[:, :, i] = solve(rhs[i].T).T
    return np.concatenate([-(frame.root[:, None] * xy[0]), xy[1]])


def _ritz_norm(frame: _EigenFrame, lam: complex, lu: linalg.LUFactors, u: np.ndarray):
    # ||R_E u|| / ||u|| through the residual-checked solve, or the Singular
    # that solve raised.
    try:
        x = _apply_resolvent(frame, np.array([lam]), [lu.solve], u[:, None])
    except linalg.Singular as exc:
        return exc
    return float(np.linalg.norm(x) / np.linalg.norm(u))


def _lanczos_norms(frame: _EigenFrame, lams: np.ndarray, factors: list) -> list:
    # sigma_max of each point's R_E by Lanczos with full reorthogonalization
    # on the Hermitian R_E^H R_E, every point in lockstep; factors[i] holds
    # the LU factors of the frame's Q(lams[i]).  Each entry of the result is
    # a norm, or the Singular that the point's final, residual-checked solve
    # raised.
    n, dim = frame.n, 2 * frame.n
    getrs = lapack.get_lapack_funcs("getrs", (factors[0].factors[0],))
    solves = [lambda b, f=lu.factors: getrs(*f, b, overwrite_b=True)[0] for lu in factors]

    def gram(v, lams, solves):
        # R_E^H R_E on every column: A_E^T = J A_E J with J = diag(I, -I) and
        # A_E real, so R_E^H w = J conj(R_E conj(J w)), no adjoint solve.
        w = _apply_resolvent(frame, lams, solves, v).conj()
        w[n:] *= -1.0
        w = _apply_resolvent(frame, lams, solves, w).conj()
        w[n:] *= -1.0
        return w

    # A fixed generic start: a structured one (all ones, say) can be
    # orthogonal to the top singular vector of a symmetric model.
    rng = np.random.default_rng(LANCZOS_SEED)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    cap = min(dim, 16)
    # basis[i, j] is the j-th Lanczos vector of the i-th active point.
    basis = np.empty((len(factors), cap, dim), dtype=complex)
    basis[:, 0] = start / np.linalg.norm(start)
    alpha, beta = np.empty((len(factors), cap)), np.empty((len(factors), cap))
    active = np.arange(len(factors))
    results = [None] * len(factors)
    for j in range(dim):
        q = basis[:, j]
        w = np.ascontiguousarray(gram(np.ascontiguousarray(q.T), lams[active], solves).T)
        alpha[:, j] = np.sum(q.conj() * w, axis=1).real
        w -= alpha[:, j, None] * q
        if j:
            w -= beta[:, j - 1, None] * basis[:, j - 1]
        done = basis[:, : j + 1]
        for _ in range(2):
            # The coefficients V^H w of every point at once, and their sum.
            coeff = np.matmul(done, w.conj()[:, :, None]).conj()
            w -= np.matmul(coeff.transpose(0, 2, 1), done)[:, 0]
        b = np.linalg.norm(w, axis=1)
        keep = []
        for i, point in enumerate(active.tolist()):
            theta, s = _top_ritz_pair(alpha[i, : j + 1], beta[i, :j])
            # b * |s_j| is the Ritz residual ||H u - theta u|| of the top Ritz
            # pair, u = s @ done.  A full basis makes the Ritz pair exact.
            if b[i] * abs(s[-1]) <= LANCZOS_RTOL * theta or j + 1 == dim:
                results[point] = _ritz_norm(frame, lams[point], factors[point], s @ done[i])
            else:
                keep.append(i)
        if len(keep) < active.size:
            if not keep:
                break
            active, basis, alpha, beta = active[keep], basis[keep], alpha[keep], beta[keep]
            w, b, solves = w[keep], b[keep], [solves[i] for i in keep]
        if j + 1 == cap:  # room for twice the steps
            cap = min(2 * cap, dim)
            basis, alpha, beta = (
                np.concatenate([a, np.empty_like(a[:, : cap - j - 1])], axis=1) for a in (basis, alpha, beta)
            )
        beta[:, j] = b
        basis[:, j + 1] = w / b[:, None]
    return results


def _block_norms(block: CoupledBlock, lams: np.ndarray, failures: dict) -> np.ndarray:
    # The block's resolvent norm at every point of lams before the first
    # failing one; failures maps a point's position to its exception, and
    # a point that fails here is added to it.  The points go through in
    # chunks of at most RESOLVENT_CHUNK_BYTES of working set.
    n = block.n
    norms = np.zeros(lams.size)
    lanczos = 2 * n >= LANCZOS_MIN_DIMENSION
    # Lanczos runs in the eigenbasis of K, where K is diag(frame.values).
    frame = _eigen_frame(block) if lanczos else None
    chunk = max(1, RESOLVENT_CHUNK_BYTES // ((32 if lanczos else 288) * n * n))
    mags, mag_sq, squares = _point_scalars(lams)
    # Near the spectrum the three terms of Q cancel, so the pivots are judged
    # against their size: a 1 x 1 Q would otherwise be its own scale.
    terms = np.linalg.norm(block.K) + mags * np.linalg.norm(block.C) + mag_sq * np.sqrt(n)
    diag = np.arange(n)
    for first in range(0, lams.size, chunk):
        stop = min(first + chunk, min(failures, default=lams.size))
        if stop <= first:
            break
        if lanczos:
            quads = frame.damping * lams[first:stop, None, None]
            quads[:, diag, diag] += frame.values
        else:
            quads = block.C * lams[first:stop, None, None] + block.K
        quads[:, diag, diag] += squares[first:stop, None]
        if not lanczos:
            results = _explicit_norms(block, lams[first:stop], quads, terms[first:stop])
        else:
            factors = []
            for quad, scale in zip(quads, terms[first:stop]):
                try:
                    factors.append(linalg.LUFactors(quad, scale=scale))
                except linalg.Singular as exc:
                    failures[first + len(factors)] = exc
                    break
            results = _lanczos_norms(frame, lams[first : first + len(factors)], factors) if factors else []
        for i, result in enumerate(results, first):
            if isinstance(result, linalg.Singular):
                failures[i] = result
            else:
                norms[i] = result
    return norms


def _resolvent_norms(model: SystemModel, report: SpectrumReport, lams: np.ndarray) -> np.ndarray:
    # The energy-norm resolvent at every point of lams (see
    # resolvent_norm_at).  The first failing point in order raises its
    # error, and nothing past it is computed.
    if not np.all(np.isfinite(lams)):
        raise ValueError("resolvent points must be finite")
    dist = np.min(np.abs(report.eigenvalues[None, :] - lams[:, None]), axis=1)
    near = np.flatnonzero(dist <= CLUSTER_TOL * (1.0 + np.abs(lams)))
    failures = {}
    if near.size:
        failures[int(near[0])] = NearSpectrum(complex(lams[near[0]]), float(dist[near[0]]))
    validation = validate(model)
    norms = np.zeros(lams.size)
    for block in validation.coupled_blocks:
        stop = min(failures, default=lams.size)
        norms[:stop] = np.maximum(norms[:stop], _block_norms(block, lams[:stop], failures))
    modes, stop = validation.scalar_modes, min(failures, default=lams.size)
    if modes.size:
        mode_norms = _mode_resolvent_norms(modes, lams[:stop], 2 * model.n, failures)
        norms[:stop] = np.maximum(norms[:stop], np.max(mode_norms, axis=1))
    if failures:
        raise failures[min(failures)]
    return norms


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
    works on its ``n x n`` ``Q(lam)``: below ``LANCZOS_MIN_DIMENSION`` (of
    ``2n``) its pivots are tested and its explicit ``R_E`` is formed from
    one residual-checked solve and normed densely; from there on ``Q(lam)``
    in the eigenbasis of ``K`` is factored once, ``R_E`` is never formed,
    and Lanczos on ``R_E^H R_E`` applies it through the factors and
    returns ``||R_E u|| / ||u||`` for its converged Ritz vector ``u``,
    computed through a residual-checked solve.  This is the one-point case of
    :func:`resolvent_scan`'s computation.
    """
    return float(_resolvent_norms(model, report, np.array([complex(lam)]))[0])


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
    grid.  The points run in lockstep (see the module docstring); the
    :class:`NearSpectrum` or :class:`~specdamp.linalg.Singular` of the
    first failing point in grid order propagates out.
    """
    im_grid = np.atleast_1d(np.asarray(im_grid, dtype=float))
    if im_grid.size < 2 or np.any(im_grid <= 0.0) or np.any(np.diff(im_grid) <= 0.0):
        raise ValueError("im_grid must be ascending and strictly positive")
    lams = np.empty(im_grid.size, dtype=complex)
    lams.real, lams.imag = re_offset, im_grid
    norms = _resolvent_norms(model, report, lams)
    products = norms * im_grid
    samples = tuple(zip(lams.tolist(), norms.tolist(), products.tolist()))
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
        samples=samples,
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
    meant to be read together with the sector angle.  ``A`` commutes with
    ``exp(t A)``, so ``A x(t)`` is the flow of ``A x0``.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0 or np.any(t_grid < 0.0):
        raise ValueError("t_grid must be nonempty and nonnegative")
    base = np.sqrt(energy(model, x0))
    if base == 0.0:
        return 0.0
    p, v = x0.position, x0.velocity
    _, energies, _ = _flow(model, report, t_grid, np.concatenate([v, -(model.K @ p) - model.C @ v])[:, None])
    return float(np.max(t_grid * np.sqrt(energies[:, 0]))) / base
