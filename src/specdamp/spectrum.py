"""Spectrum of the phase operator and its quadratic-pencil structure.

Eigenvalues of the block operator ``[[0, I], [-K, -C]]`` are exactly the
roots of the quadratic matrix pencil ``Q(lam) = lam^2 I + lam C + K``, and
every eigenvector has the structure ``(x, lam x)`` with ``x`` in the
kernel of ``Q(lam)``.  The solver leans on that structure:

1. the mode-coupling graph of ``|K| + |C|`` is split into connected
   components (:func:`~specdamp.model.validate` keeps them).  When there
   are several, every component of one coordinate, a scalar mode, has the
   roots of ``lam^2 + c lam + k`` in closed form, all modes in one
   vectorized pass, so exactly decoupled systems (single-patch beams,
   diagonal test models) never reach the steps below,
2. per coupled component, eigenpairs come from LAPACK on the block operator.
   When its moduli split cleanly into ``n`` small and ``n`` large ones,
   the small ones are taken from the reversed, energy-scaled companion
   ``[[0, I], [-K^{-1}, -K^{-1/2} C K^{-1/2}]]`` instead, whose
   eigenvalues are ``1 / lam`` and whose coefficients stay of order one
   however stiff the model.  Each ``x`` is read from the eigenvector
   block that carries it; near-real values are snapped onto the axis and
   close values are clustered,
3. each eigenvalue is polished through the scalar Rayleigh quadratic
   ``(x^H x) lam^2 + (x^H C x) lam + (x^H K x)`` of its own ``x``, all
   of a pass at once by the scalar modes' root rule.  For a
   tight cluster (diameter within ``CLUSTER_TOL``) an orthonormal kernel
   basis of ``Q`` at the cluster mean is extracted by SVD; when it has
   fewer directions than the cluster has members, the cluster is a Jordan
   block and the members are polished with the basis directions instead,
4. eigenvectors are rebuilt as ``(x, lam x)`` and given the phase
   convention of :class:`Eigenpair` by one
   :func:`~specdamp.linalg.normalize_columns` pass per coupled block.

Step 3 matters: for stiff models the raw eigenvalues of the block matrix
carry absolute errors on the scale of ``eps * ||A||``, which drowns the
small magnitudes.  The reversed companion and the polish restore relative
accuracy, and because the Rayleigh coefficients are quadratic forms of
the definite matrices, the polished values provably stay in the closed
left half plane and above the magnitude lower bound.  The polish is only
trusted when it cannot confuse neighbouring eigenvalues: a member of a
tight cluster (a singleton included) may move at most ten cluster
tolerances, and inside a spread-out cluster a member may move at most a
fraction of the distance to its nearest sibling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .model import (
    BeamSpec,
    CoupledBlock,
    PhaseVector,
    SystemModel,
    beam_assemble,
    phase_operator,
    validate,
)
from .tolerances import CLUSTER_TOL, RANK_TOL, RESIDUAL_TOL, SNAP_REAL_TOL

__all__ = [
    "Eigenpair",
    "EigenvalueBound",
    "SpectrumReport",
    "EnergyBasis",
    "AccumulationReport",
    "solve_qep",
    "energy_basis",
    "eigenvalue_lower_bound",
    "accumulation_experiment",
    "quadratic_pencil",
    "pencil_kernel_basis",
    "cluster_eigenvalues",
]


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue with its phase-space eigenvector and residual.

    ``residual`` is measured against the Frobenius norm of the phase
    operator.  The eigenvector has unit Euclidean norm, its
    largest-magnitude entry is real and positive, and ``velocity`` equals
    ``value * position`` to rounding, not bit for bit, since the normalizing
    factor scales ``x`` and ``value * x`` separately:
    ``|velocity_i - value position_i| <= 4 eps |value| |position_i|``.
    """

    value: complex
    vector: PhaseVector
    residual: float


@dataclass(frozen=True)
class EigenvalueBound:
    """Closed-form lower bound on eigenvalue magnitudes.

    With ``v = ||K^{-1}|| = 1 / lam_min(K)`` and
    ``d = ||K^{-1/2} C K^{-1/2}||``, every eigenvalue satisfies
    ``|lam| >= (sqrt(d^2 + 4 v) - d) / (2 v)``.  For ``C = 0`` the bound
    is attained: the smallest magnitude is exactly ``sqrt(lam_min(K))``.
    """

    norm_ainv: float
    norm_ainv_d: float
    value: float


@dataclass(frozen=True)
class EnergyBasis:
    """The solved eigenvectors in energy coordinates, one block per component.

    In the coordinates ``diag(K^{1/2}, I) v`` the energy norm is the
    Euclidean norm and the flow is a contraction.  The phase operator is a
    direct sum over the model's coupling components, and so is this basis.
    ``modes[i]`` is the ``2 x 2`` matrix whose columns are the two
    eigenvectors of the ``i``-th scalar mode in its coordinates
    ``(sqrt(k_i) x_i, y_i)``; ``blocks[b]`` is the square matrix whose
    columns are the eigenvectors of the ``b``-th coupled block in its
    coordinates ``(K_b^{1/2} x_b, y_b)``.  Every column has unit norm, and
    ``mode_values`` and ``block_values`` hold the matching eigenvalues.
    ``condition_number`` is the 2-norm condition number of the whole basis
    (``inf`` when singular), the finite-order Riesz basis constant of the
    eigenvectors: the largest block ``sigma_max`` over the smallest block
    ``sigma_min``, since the singular values of a direct sum are those of
    its blocks.
    """

    modes: np.ndarray = field(repr=False)
    mode_values: np.ndarray = field(repr=False)
    blocks: tuple[np.ndarray, ...] = field(repr=False)
    block_values: tuple[np.ndarray, ...] = field(repr=False)
    condition_number: float


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenpairs plus the magnitude lower bound.

    ``bound.value`` is also the radius of the spectrum-free disk around the
    origin: a Neumann-series argument on the inverse phase operator gives
    the same expression.  Every eigenvector lives on one coupling component
    of the model (:class:`~specdamp.model.ValidationReport`):
    ``mode_pairs[i]`` holds the indices of the two eigenpairs of the
    ``i``-th scalar mode and ``block_pairs[b]`` those of the ``b``-th
    coupled block, ascending.  :func:`energy_basis` stores its result on the
    report.
    """

    eigenpairs: tuple[Eigenpair, ...]
    bound: EigenvalueBound
    mode_pairs: np.ndarray = field(repr=False, compare=False)
    block_pairs: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    _energy_basis: EnergyBasis | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([p.value for p in self.eigenpairs])

    @property
    def min_abs(self) -> float:
        return float(np.min(np.abs(self.eigenvalues)))

    @property
    def max_real(self) -> float:
        return float(np.max(self.eigenvalues.real))


@dataclass(frozen=True)
class AccumulationReport:
    """Eigenvalue counts near the predicted accumulation points.

    ``counts[i][j]`` is the number of eigenvalues of the order
    ``orders[i]`` truncation within ``epsilon`` of ``points[j]``;
    ``nearest[i][j]`` is the distance of the closest one.
    """

    orders: tuple[int, ...]
    points: tuple[float, ...]
    epsilon: float
    counts: np.ndarray
    nearest: np.ndarray
    counts_nondecreasing: bool


def quadratic_pencil(model: SystemModel | CoupledBlock, lam: complex) -> np.ndarray:
    """Evaluate ``Q(lam) = lam^2 I + lam C + K``."""
    lam = complex(lam)
    if lam.imag == 0.0:
        r = lam.real
        return (r * r) * np.eye(model.n) + r * model.C + model.K
    return (lam * lam) * np.eye(model.n) + lam * model.C + model.K


def pencil_kernel_basis(
    model: SystemModel | CoupledBlock,
    lam: complex,
    max_dim: int | None = None,
    diameter: float = 0.0,
) -> np.ndarray:
    """Orthonormal numerical kernel basis of ``Q(lam)``, smallest directions first.

    A direction with singular value ``sigma`` counts as null when
    ``sigma`` is at most the largest of three thresholds:

    * ``RANK_TOL * sigma_max``, the usual relative rank test;
    * ``64 eps * (|lam|^2 + |lam| ||C||_F + ||K||_F)``, the roundoff
      floor of forming ``Q(lam)`` itself.  Without it a block on which
      the whole pencil degenerates (repeated proportional components
      make ``Q(lam)`` vanish identically) would see ``sigma_max`` itself
      at roundoff level and reject genuine kernel directions;
    * ``4 * diameter * |2 lam + x^H C x|``, which widens the cutoff for
      clusters of nearby eigenvalues: ``|2 lam + x^H C x|`` is the
      derivative of the per-direction Rayleigh quadratic, so ``diameter``
      (the cluster radius) times it bounds how far members can push the
      singular value away from zero.  At a defective eigenvalue that
      derivative vanishes, which is exactly why the rule never mistakes
      a Jordan block for a semisimple cluster.

    At least one direction is always returned, at most ``max_dim``.
    """
    q = quadratic_pencil(model, lam)
    _, sigma, vh = np.linalg.svd(q)
    n = model.n
    limit = n if max_dim is None else min(max_dim, n)
    smax = max(float(sigma[0]), 1e-300)
    form_scale = abs(lam) ** 2 + abs(lam) * float(np.linalg.norm(model.C)) + float(
        np.linalg.norm(model.K)
    )
    floor = 64.0 * np.finfo(float).eps * form_scale
    cols = []
    for i in range(limit):
        x = vh[n - 1 - i].conj()
        deriv = abs(2.0 * complex(lam) + complex(np.vdot(x, model.C @ x)))
        cutoff = max(RANK_TOL * smax, floor, 4.0 * diameter * deriv)
        if i > 0 and sigma[n - 1 - i] > cutoff:
            break
        cols.append(x)
    return np.column_stack(cols)


def cluster_eigenvalues(values: np.ndarray, cluster_tol: float) -> list[list[int]]:
    """Group indices of nearby eigenvalues (chain rule on complex distance).

    Values within ``cluster_tol * (1 + |lam|)`` of a cluster's running
    mean join the first such cluster.  The sweep order puts conjugate
    partners next to each other so that a nearly defective real pair with a
    spurious imaginary split is merged into a single real cluster.  Each
    value is compared with all running means at once.
    """
    values = np.asarray(values)
    order = np.lexsort((values.imag, np.abs(values.imag), values.real))
    clusters: list[list[int]] = []
    means = np.empty(values.shape[0], dtype=complex)  # running mean of each cluster
    for idx in order.tolist():
        lam = complex(values[idx])
        current = means[: len(clusters)]
        hits = np.flatnonzero(np.abs(lam - current) <= cluster_tol * (1.0 + np.abs(current)))
        if hits.size:
            c = int(hits[0])
            clusters[c].append(idx)
            mean = complex(means[c])  # updated in Python complex arithmetic, as it always was
            means[c] = mean + (lam - mean) / len(clusters[c])
        else:
            means[len(clusters)] = lam
            clusters.append([idx])
    return clusters


def _snap_real(values: np.ndarray, snap_tol: float) -> np.ndarray:
    out = np.array(values, dtype=complex, copy=True)
    mask = np.abs(out.imag) <= snap_tol * (1.0 + np.abs(out))
    out[mask] = out[mask].real
    return out


def _mode_roots(k: np.ndarray, c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Both roots of ``m lam^2 + c lam + k`` for each entry, as ``(len(k), 2)``.

    ``k`` and ``m`` are positive and ``c`` nonnegative.  Distinct real
    roots come from the stable quadratic formula (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 1.8), a conjugate pair
    from a negative discriminant, and a discriminant within ``64 eps`` of
    its terms' scale is taken as zero: the exact double root ``-c / (2 m)``.
    """
    disc = c * c - 4.0 * m * k
    double = np.abs(disc) <= 64.0 * np.finfo(float).eps * (c * c + 4.0 * m * k)
    real = (disc > 0.0) & ~double
    pair = ~(real | double)
    root = np.sqrt(np.abs(disc))
    q = -0.5 * (c + root)  # c > 0 wherever disc > 0
    centre = -c / (2.0 * m)
    out = np.empty(k.shape + (2,), dtype=complex)
    out.real[:, 0] = np.where(real, q / m, centre)
    out.real[:, 1] = np.where(real, k / q, centre)
    out.imag[:, 0] = np.where(pair, root / (2.0 * m), 0.0)
    out.imag[:, 1] = np.where(pair, -root / (2.0 * m), 0.0)
    return out


def _mode_vectors(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Entries of (1, lam) / |(1, lam)|, the phase eigenvector of a scalar
    # mode, with its larger entry rotated real positive: the phase convention
    # that linalg.normalize_columns gives the coupled blocks' eigenvectors.
    mag = np.abs(lams)
    norm = np.sqrt(1.0 + mag * mag)
    big = mag > 1.0
    position = np.where(big, lams.conj() / mag, 1.0) / norm
    return position, np.where(big, mag, lams) / norm


def _block_vectors(values: np.ndarray, vecs: np.ndarray, n: int) -> list[np.ndarray]:
    # Companion eigenvectors are (x, lam x): read x from the block that
    # carries it, the top one for |lam| <= 1 and the bottom one / lam above.
    out = []
    for j, lam in enumerate(values):
        x = vecs[:n, j] if abs(lam) <= 1.0 else vecs[n:, j] / lam
        out.append(x / np.linalg.norm(x))
    return out


def _linearized_eigenpairs(block: CoupledBlock) -> tuple[np.ndarray, list[np.ndarray]]:
    """Starting eigenvalues and pencil vectors of one block, all from LAPACK.

    The large-magnitude eigenvalues come from the phase operator.  When
    its moduli split cleanly ``n``/``n``, the ``n`` small ones come from the
    reversed companion in ``g = K^{1/2} x``, whose absolute error is
    ``eps`` times coefficients of order one rather than ``eps * ||A||``.
    """
    n = block.n
    values, vecs = linalg.nonsym_eig(phase_operator(block))
    if n == 1:
        # Q(lam) is 1x1, so its kernel is spanned by 1 for every root.
        return values, [np.ones(1), np.ones(1)]
    xs = _block_vectors(values, vecs, n)
    mods = np.abs(values)
    order = np.argsort(mods, kind="stable")
    if not mods[order[n - 1]] < 0.5 * mods[order[n]]:
        return values, xs

    root_inv = block.k_inv_sqrt
    k_inv = root_inv @ root_inv
    rev = np.block(
        [
            [np.zeros((n, n)), np.eye(n)],
            [-0.5 * (k_inv + k_inv.T), -block.weighted_damping],
        ]
    )
    rvalues, rvecs = linalg.nonsym_eig(rev)
    rorder = np.argsort(-np.abs(rvalues), kind="stable")
    mu = rvalues[rorder[:n]]
    small = 1.0 / mu
    # Both linearizations must agree on where the gap is, or a conjugate
    # pair of equal modulus could be cut in two.
    cut = 0.5 * min(mods[order[n]], 1.0 / abs(rvalues[rorder[n]]))
    if not np.max(np.abs(small)) < cut:
        return values, xs
    # Eigenvectors (g, mu g) of the reversed companion map to (x, mu x).
    rvecs = rvecs[:, rorder[:n]]
    lifted = np.vstack([root_inv @ rvecs[:n], root_inv @ rvecs[n:]])
    return (
        np.concatenate([small, values[order[n:]]]),
        _block_vectors(mu, lifted, n) + [xs[i] for i in order[n:]],
    )


def _dense_eigensolve(block: CoupledBlock) -> list[tuple[complex, np.ndarray]]:
    """Eigenvalues plus pencil-kernel vectors for one coupled block."""
    values, starts = _linearized_eigenpairs(block)
    values = _snap_real(values, SNAP_REAL_TOL)
    xs = list(starts)

    for _pass in range(2):
        refined = np.array(values, copy=True)
        # Per polished member: its index, start value, allowed move, and the
        # coefficients (x^H K x, x^H C x, x^H x) of its Rayleigh quadratic.
        # They are real and nonnegative for any x because K and C are
        # symmetric (semi)definite, so the roots respect the left half plane.
        moves, coeffs = [], []
        for members in cluster_eigenvalues(values, CLUSTER_TOL):
            mem_vals = values[members]
            mean = complex(np.mean(mem_vals))
            if abs(mean.imag) <= SNAP_REAL_TOL * (1.0 + abs(mean)):
                mean = complex(mean.real)
            diameter = float(np.max(np.abs(mem_vals - mean)))
            tight = diameter <= CLUSTER_TOL * (1.0 + abs(mean))
            vectors = [starts[i] for i in members]
            if tight and len(members) > 1:
                # Genuine numerical coincidence.  The kernel basis at the mean
                # tells a Jordan block (fewer kernel directions than members)
                # from a semisimple cluster; only then do its directions
                # replace the members' own vectors.
                basis = pencil_kernel_basis(block, mean, max_dim=len(members), diameter=diameter)
                dim = basis.shape[1]
                if dim < len(members):
                    vectors = [basis[:, min(rank, dim - 1)] for rank in range(len(members))]
            for idx, x in zip(members, vectors):
                # A tight cluster member may move ten cluster tolerances; a
                # member of a spread-out chain only well inside the gap to its
                # nearest sibling, so no two can collapse onto one root.
                lam0 = complex(values[idx])
                if tight:
                    limit = 10.0 * CLUSTER_TOL * (1.0 + abs(lam0))
                else:
                    limit = 0.4 * min(abs(lam0 - complex(values[j])) for j in members if j != idx)
                moves.append((idx, lam0, limit))
                coeffs.append([np.vdot(x, block.K @ x).real, np.vdot(x, block.C @ x).real, np.vdot(x, x).real])
                xs[idx] = x
        # All of the pass's quadratics at once, by the scalar modes' root rule.
        for (idx, lam0, limit), roots in zip(moves, _mode_roots(*np.array(coeffs).T).tolist()):
            lam = min(roots, key=lambda r: abs(r - lam0))
            refined[idx] = lam0 if abs(lam - lam0) > limit else lam
        values = _snap_real(refined, SNAP_REAL_TOL)

    return [(complex(values[i]), xs[i]) for i in range(values.shape[0])]


def _pencil_residuals(block: CoupledBlock, lams: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # ||Q(lam) x|| / ||(x, lam x)|| for every column x of xs at once: the
    # residual of the phase eigenvector (x, lam x), whose top half vanishes.
    q_x = block.K @ xs + (block.C @ xs) * lams + xs * (lams * lams)
    return np.linalg.norm(q_x, axis=0) / (
        np.linalg.norm(xs, axis=0) * np.sqrt(1.0 + np.abs(lams) ** 2)
    )


def solve_qep(model: SystemModel) -> SpectrumReport:
    """All ``2n`` eigenpairs of the phase operator, structure-refined.

    The phase operator is a direct sum over the coupling components of the
    model.  Every scalar mode is solved in closed form, all of them in one
    vectorized pass; every coupled block by the dense path above.  Returns
    eigenpairs sorted by ``(Re, Im)``.  Raises
    :class:`~specdamp.model.InvalidModel` before any factorization if the
    model breaks (A1) or (A2), and :class:`~specdamp.linalg.NoConvergence`
    if any final residual exceeds ``RESIDUAL_TOL`` relative to
    the Frobenius norm of the phase operator.
    """
    validation = validate(model)
    n = model.n
    scale = float(np.sqrt(n + np.linalg.norm(model.K) ** 2 + np.linalg.norm(model.C) ** 2))
    pairs: list[Eigenpair] = []
    groups: list[int] = []  # the component of each eigenpair: modes first, then blocks

    modes = validation.scalar_modes
    if modes.size:
        lams = _snap_real(_mode_roots(modes.k, modes.c, np.ones(modes.size)), SNAP_REAL_TOL)
        k, c = modes.k[:, None], modes.c[:, None]
        resid = np.abs(lams * lams + c * lams + k) / (np.sqrt(1.0 + np.abs(lams) ** 2) * scale)
        position, velocity = _mode_vectors(lams)
        for i, coord in enumerate(modes.index.tolist()):
            for j in range(2):
                lam = complex(lams[i, j])
                if lam.imag == 0.0:
                    vec = np.zeros(2 * n)
                    vec[coord], vec[n + coord] = position[i, j].real, velocity[i, j].real
                else:
                    vec = np.zeros(2 * n, dtype=complex)
                    vec[coord], vec[n + coord] = position[i, j], velocity[i, j]
                pairs.append(Eigenpair(lam, PhaseVector.from_stacked(vec), float(resid[i, j])))
                groups.append(i)

    for b, block in enumerate(validation.coupled_blocks):
        found = _dense_eigensolve(block)
        lams = np.array([lam for lam, _ in found])
        xs = np.column_stack([x for _, x in found])
        resid = _pencil_residuals(block, lams, xs) / scale
        # The block's phase eigenvectors (x, lam x), all brought to the phase
        # convention at once, then embedded in R^2n.
        stacked = linalg.normalize_columns(np.vstack([xs, xs * lams]))
        for (lam, _), r, col in zip(found, resid, stacked.T):
            if lam.imag == 0.0 and np.max(np.abs(col.imag)) <= 1e-14:
                col = col.real
            vec = np.zeros(2 * n, dtype=col.dtype)
            vec[block.index], vec[n + block.index] = col[: block.n], col[block.n :]
            pairs.append(Eigenpair(value=lam, vector=PhaseVector.from_stacked(vec), residual=float(r)))
            groups.append(modes.size + b)

    order = sorted(range(len(pairs)), key=lambda i: (pairs[i].value.real, pairs[i].value.imag))
    worst = max(p.residual for p in pairs)
    if worst > RESIDUAL_TOL:
        raise linalg.NoConvergence(f"worst eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}")
    # Positions in the sorted list, grouped by component and ascending within each.
    by_component = np.argsort(np.array(groups)[order], kind="stable")
    ends = np.cumsum([2 * modes.size] + [2 * block.n for block in validation.coupled_blocks])
    return SpectrumReport(
        eigenpairs=tuple(pairs[i] for i in order),
        bound=eigenvalue_lower_bound(model),
        mode_pairs=by_component[: ends[0]].reshape(modes.size, 2),
        block_pairs=tuple(by_component[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])),
    )


def energy_basis(model: SystemModel, report: SpectrumReport) -> EnergyBasis:
    """Energy-normalized eigenvectors of ``report``, block by block, and their condition number.

    ``report`` is the solved spectrum of ``model``.  The scalar modes share
    one batched SVD of their ``2 x 2`` blocks; each coupled block takes its
    own.  The result is computed once per report; later calls return the
    stored one.
    """
    if report._energy_basis is not None:
        return report._energy_basis
    validation = validate(model)
    pairs = report.eigenpairs
    modes = validation.scalar_modes
    entries = np.array(
        [
            [(pairs[j].vector.position[i], pairs[j].vector.velocity[i]) for j in row]
            for i, row in zip(modes.index.tolist(), report.mode_pairs.tolist())
        ],
        dtype=complex,
    ).reshape(modes.size, 2, 2)  # [mode, column, (position, velocity)]
    mode_vectors = np.stack([np.sqrt(modes.k)[:, None] * entries[..., 0], entries[..., 1]], axis=1)
    mode_vectors /= np.linalg.norm(mode_vectors, axis=1, keepdims=True)
    sigmas = [np.linalg.svd(mode_vectors, compute_uv=False)] if modes.size else []
    blocks = []
    for block, members in zip(validation.coupled_blocks, report.block_pairs):
        cols = []
        for j in members:
            v = pairs[j].vector
            position, velocity = v.position[block.index], v.velocity[block.index]
            col = np.concatenate([block.k_sqrt @ position, velocity]).astype(complex)
            cols.append(col / np.linalg.norm(col))
        vectors = np.column_stack(cols)
        vectors.setflags(write=False)
        blocks.append(vectors)
        sigmas.append(np.linalg.svd(vectors, compute_uv=False))
    mode_vectors.setflags(write=False)
    top = max(float(np.max(sig)) for sig in sigmas)
    low = min(float(np.min(sig)) for sig in sigmas)
    values = report.eigenvalues
    basis = EnergyBasis(
        modes=mode_vectors,
        mode_values=values[report.mode_pairs],
        blocks=tuple(blocks),
        block_values=tuple(values[members] for members in report.block_pairs),
        condition_number=float(top / low) if low > 0.0 else float("inf"),
    )
    object.__setattr__(report, "_energy_basis", basis)
    return basis


def eigenvalue_lower_bound(model: SystemModel) -> EigenvalueBound:
    """Magnitude lower bound from the two inverse-operator norms.

    ``norm_ainv`` is ``1 / lam_min(K)`` and ``norm_ainv_d`` is the
    spectral norm of ``K^{-1/2} C K^{-1/2}`` (equal to its largest
    eigenvalue, the sharp damping/stiffness comparison constant).
    """
    report = validate(model)
    v = 1.0 / report.k_min_eigenvalue
    # gamma and alpha are the extreme eigenvalues of K^{-1/2} C K^{-1/2}.
    d = float(max(abs(report.gamma), abs(report.alpha)))
    value = (np.sqrt(d * d + 4.0 * v) - d) / (2.0 * v)
    return EigenvalueBound(norm_ainv=v, norm_ainv_d=d, value=float(value))


def accumulation_experiment(spec: BeamSpec, orders, epsilon: float = 0.01) -> AccumulationReport:
    """Track eigenvalue accumulation at ``-E / a_k`` across truncation orders.

    For each order ``N`` in ``orders`` the beam is reassembled and solved;
    eigenvalues within ``epsilon`` of each predicted point are counted.
    Growing truncation families feed these counts monotonically, which is
    the finite-order signature of essential spectrum in the limit model.
    """
    orders = tuple(int(n) for n in orders)
    if not orders or any(n < 1 for n in orders):
        raise ValueError("orders must be a nonempty sequence of positive integers")
    points = tuple(-spec.E / a for a in sorted({p.a for p in spec.patches}, reverse=True))
    counts = np.zeros((len(orders), len(points)), dtype=int)
    nearest = np.full((len(orders), len(points)), np.inf)
    for i, n in enumerate(orders):
        sub = BeamSpec(E=spec.E, patches=spec.patches, N=n)
        report = solve_qep(beam_assemble(sub))
        lams = report.eigenvalues
        for j, p in enumerate(points):
            dist = np.abs(lams - p)
            counts[i, j] = int(np.count_nonzero(dist <= epsilon))
            nearest[i, j] = float(np.min(dist))
    nondec = bool(np.all(np.diff(counts[np.argsort(orders)], axis=0) >= 0))
    return AccumulationReport(
        orders=orders,
        points=points,
        epsilon=float(epsilon),
        counts=counts,
        nearest=nearest,
        counts_nondecreasing=nondec,
    )
