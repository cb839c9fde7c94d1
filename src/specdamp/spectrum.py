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
   of a pass at once: the coefficients from one real product with ``K``
   and one with ``C``, the roots by the scalar modes' root rule.  For a
   tight cluster of two or more (diameter within ``CLUSTER_TOL``) an
   orthonormal kernel basis of ``Q`` at the cluster mean is extracted by
   SVD; when it has fewer directions than the cluster has members, the
   cluster is a Jordan block and the members are polished with the basis
   directions instead,
4. eigenvectors are rebuilt as ``(x, lam x)`` and given the phase
   convention of :class:`SpectrumReport` by one
   :func:`~specdamp.linalg.normalize_columns` pass per coupled block.
   The report keeps them per component, as solved; :func:`eigenvectors`
   is the one place that embeds them in phase space.

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
    SystemModel,
    beam_assemble,
    phase_operator,
    validate,
)
from .tolerances import CLUSTER_TOL, RANK_TOL, RESIDUAL_TOL, SNAP_REAL_TOL

__all__ = [
    "EigenvalueBound",
    "SpectrumReport",
    "EnergyBasis",
    "AccumulationReport",
    "solve_qep",
    "eigenvectors",
    "energy_basis",
    "eigenvalue_lower_bound",
    "accumulation_experiment",
    "quadratic_pencil",
    "pencil_kernel_basis",
    "cluster_eigenvalues",
]


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
    its blocks.  :meth:`block_factors` factors a block on first use and
    keeps the factors, so every flow of the same report shares them.
    """

    modes: np.ndarray = field(repr=False)
    mode_values: np.ndarray = field(repr=False)
    blocks: tuple[np.ndarray, ...] = field(repr=False)
    block_values: tuple[np.ndarray, ...] = field(repr=False)
    condition_number: float
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def block_factors(self, b: int) -> linalg.LUFactors:
        """The LU factors of ``blocks[b]``, computed on the first call and kept."""
        if b not in self._factors:
            self._factors[b] = linalg.LUFactors(self.blocks[b])
        return self._factors[b]


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenvalues, their eigenvectors per component, and the magnitude lower bound.

    ``eigenvalues`` (read-only) are sorted by ``(Re, Im)``, and
    ``residuals[j]`` is the residual of eigenpair ``j`` relative to the
    Frobenius norm of the phase operator.  ``bound.value`` is also the
    radius of the spectrum-free disk around the origin: a Neumann-series
    argument on the inverse phase operator gives the same expression.

    Every eigenvector lives on one coupling component of the model
    (:class:`~specdamp.model.ValidationReport`) and is stored there, on
    that component's coordinates only.  ``mode_pairs[i]`` holds the indices
    of the two eigenpairs of the ``i``-th scalar mode, ascending, and
    ``mode_vectors[i]`` is the ``2 x 2`` matrix ``[x; y]`` whose columns
    are their eigenvectors, in the same order.  ``block_pairs[b]`` holds the
    indices of the eigenpairs of the ``b``-th coupled block, ascending, and
    ``block_vectors[b]`` the ``2 n_b x 2 n_b`` matrix ``[X; Y]`` of their
    eigenvectors, column by column.  :func:`eigenvectors` embeds chosen
    columns in phase space.  Each eigenvector ``(x, y)`` has unit Euclidean
    norm, its largest-magnitude entry is real and positive, and ``y``
    equals ``lam x`` to rounding, not bit for bit, since the normalizing
    factor scales ``x`` and ``lam x`` separately:
    ``|y_i - lam x_i| <= 4 eps |lam| |x_i|``.  :func:`energy_basis` stores
    its result on the report.
    """

    eigenvalues: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    bound: EigenvalueBound
    mode_pairs: np.ndarray = field(repr=False, compare=False)
    block_pairs: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    mode_vectors: np.ndarray = field(repr=False, compare=False)
    block_vectors: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    _energy_basis: EnergyBasis | None = field(
        default=None, init=False, repr=False, compare=False
    )

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


def _block_vectors(values: np.ndarray, vecs: np.ndarray, n: int) -> np.ndarray:
    # Companion eigenvectors are (x, lam x): read x from the block that
    # carries it, the top one for |lam| <= 1 and the bottom one / lam above.
    # One unit column per eigenvalue.
    big = np.abs(values) > 1.0
    xs = np.where(big, vecs[n:] / np.where(big, values, 1.0), vecs[:n])
    return xs / np.linalg.norm(xs, axis=0)


def _linearized_eigenpairs(block: CoupledBlock) -> tuple[np.ndarray, np.ndarray]:
    """Starting eigenvalues and pencil vectors, as columns, of one block, all from LAPACK.

    The large-magnitude eigenvalues come from the phase operator.  When
    its moduli split cleanly ``n``/``n``, the ``n`` small ones come from the
    reversed companion in ``g = K^{1/2} x``, whose absolute error is
    ``eps`` times coefficients of order one rather than ``eps * ||A||``.
    """
    n = block.n
    values, vecs = linalg.nonsym_eig(phase_operator(block))
    if n == 1:
        # Q(lam) is 1x1, so its kernel is spanned by 1 for every root.
        return values, np.ones((1, 2))
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
        np.hstack([_block_vectors(mu, lifted, n), xs[:, order[n:]]]),
    )


def _conjugate_partners(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Indices (lower, upper) that pair each value below the real axis with
    # its exact conjugate above it, when the values are closed under
    # conjugation; two empty arrays otherwise.
    lower, upper = np.flatnonzero(values.imag < 0.0), np.flatnonzero(values.imag > 0.0)
    lower = lower[np.lexsort((-values.imag[lower], values.real[lower]))]
    upper = upper[np.lexsort((values.imag[upper], values.real[upper]))]
    if lower.size == upper.size and np.array_equal(values[lower], values[upper].conj()):
        return lower, upper
    return np.empty(0, dtype=int), np.empty(0, dtype=int)


def _dense_eigensolve(block: CoupledBlock) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues plus pencil-kernel vectors, as columns, for one coupled block.

    Each of the two polish passes clusters the values.  Every member keeps
    its own start vector, except in a tight cluster of two or more whose
    kernel basis has fewer directions than members (a Jordan block): there
    the basis directions replace them.  A member of a tight cluster, a
    singleton included, may move ten cluster tolerances, a member of a
    spread-out chain only well inside the gap to its nearest sibling, so no
    two can collapse onto one root.  Only the clusters of two or more are
    visited one by one; the Rayleigh coefficients
    ``(x^H K x, x^H C x, x^H x)`` of all members come from one real product
    with ``K`` and one with ``C``, and the roots, the nearest-root choice
    and the accept test are whole-array steps.  The coefficients are real
    and nonnegative for any ``x`` because ``K`` and ``C`` are symmetric
    (semi)definite, so the roots respect the left half plane.  The lower
    member of each exactly conjugate pair takes its partner's coefficients,
    so the polished values stay exactly closed under conjugation whatever
    rounding a batched product gives each column.
    """
    values, starts = _linearized_eigenpairs(block)
    values = _snap_real(values, SNAP_REAL_TOL)

    for _pass in range(2):
        vectors = starts
        limits = 10.0 * CLUSTER_TOL * (1.0 + np.abs(values))
        for members in cluster_eigenvalues(values, CLUSTER_TOL):
            if len(members) == 1:
                continue
            mem_vals = values[members]
            mean = complex(np.mean(mem_vals))
            if abs(mean.imag) <= SNAP_REAL_TOL * (1.0 + abs(mean)):
                mean = complex(mean.real)
            diameter = float(np.max(np.abs(mem_vals - mean)))
            if diameter > CLUSTER_TOL * (1.0 + abs(mean)):
                gaps = np.abs(mem_vals[:, None] - mem_vals[None, :])
                np.fill_diagonal(gaps, np.inf)
                limits[members] = 0.4 * np.min(gaps, axis=1)
                continue
            # Genuine numerical coincidence.  The kernel basis at the mean
            # tells a Jordan block (fewer kernel directions than members)
            # from a semisimple cluster; only then do its directions
            # replace the members' own vectors.
            basis = pencil_kernel_basis(block, mean, max_dim=len(members), diameter=diameter)
            dim = basis.shape[1]
            if dim < len(members):
                if vectors is starts:
                    vectors = starts.astype(np.result_type(starts, basis))
                vectors[:, members] = basis[:, np.minimum(np.arange(len(members)), dim - 1)]
        products = (linalg.real_times(block.K, vectors), linalg.real_times(block.C, vectors), vectors)
        coeffs = np.array([np.sum(vectors.conj() * y, axis=0).real for y in products])
        lower, upper = _conjugate_partners(values)
        coeffs[:, lower] = coeffs[:, upper]
        roots = _mode_roots(*coeffs)
        # The nearer root, the first on a tie; a move beyond the limit is refused.
        dist = np.abs(roots - values[:, None])
        nearest = np.where(dist[:, 1] < dist[:, 0], roots[:, 1], roots[:, 0])
        values = _snap_real(np.where(np.abs(nearest - values) > limits, values, nearest), SNAP_REAL_TOL)

    return values, vectors


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
    eigenvalues sorted by ``(Re, Im)`` with their eigenvectors kept per
    component.  Raises
    :class:`~specdamp.model.InvalidModel` before any factorization if the
    model breaks (A1) or (A2), and :class:`~specdamp.linalg.NoConvergence`
    if any final residual exceeds ``RESIDUAL_TOL`` relative to
    the Frobenius norm of the phase operator.
    """
    validation = validate(model)
    n = model.n
    scale = float(np.sqrt(n + np.linalg.norm(model.K) ** 2 + np.linalg.norm(model.C) ** 2))
    modes, blocks = validation.scalar_modes, validation.coupled_blocks

    lams = _snap_real(_mode_roots(modes.k, modes.c, np.ones(modes.size)), SNAP_REAL_TOL)
    k, c = modes.k[:, None], modes.c[:, None]
    resid = np.abs(lams * lams + c * lams + k) / (np.sqrt(1.0 + np.abs(lams) ** 2) * scale)
    mode_vectors = np.stack(_mode_vectors(lams), axis=1)  # [mode, (x, y), root]
    values, residuals, block_vectors = [lams.ravel()], [resid.ravel()], []
    for block in blocks:
        lams, xs = _dense_eigensolve(block)
        values.append(lams)
        residuals.append(_pencil_residuals(block, lams, xs) / scale)
        # The block's phase eigenvectors (x, lam x), all brought to the phase
        # convention at once; a real eigenvalue's column keeps no imaginary
        # part at rounding level.
        stacked = linalg.normalize_columns(np.vstack([xs, xs * lams]))
        real = (lams.imag == 0.0) & (np.max(np.abs(stacked.imag), axis=0) <= 1e-14)
        stacked.imag[:, real] = 0.0
        block_vectors.append(stacked)
    values, residuals = np.concatenate(values), np.concatenate(residuals)
    worst = float(np.max(residuals))
    if worst > RESIDUAL_TOL:
        raise linalg.NoConvergence(f"worst eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}")

    order = np.lexsort((values.imag, values.real))
    # Positions in the sorted order, grouped by component (modes first, then
    # blocks) and ascending within each; order[] maps them back to columns.
    sizes = [2] * modes.size + [2 * block.n for block in blocks]
    by_component = np.argsort(np.repeat(np.arange(len(sizes)), sizes)[order], kind="stable")
    ends = np.cumsum([2 * modes.size] + sizes[modes.size :])
    mode_pairs = by_component[: ends[0]].reshape(modes.size, 2)
    roots = order[mode_pairs] - 2 * np.arange(modes.size)[:, None]
    block_pairs = tuple(by_component[lo:hi] for lo, hi in zip(ends[:-1], ends[1:]))
    for b, (lo, members) in enumerate(zip(ends[:-1], block_pairs)):
        block_vectors[b] = block_vectors[b][:, order[members] - lo]
    values, residuals = values[order], residuals[order]
    mode_vectors = np.take_along_axis(mode_vectors, roots[:, None, :], axis=2)
    for array in [values, residuals, mode_vectors] + block_vectors:
        array.setflags(write=False)
    return SpectrumReport(
        eigenvalues=values,
        residuals=residuals,
        bound=eigenvalue_lower_bound(model),
        mode_pairs=mode_pairs,
        block_pairs=block_pairs,
        mode_vectors=mode_vectors,
        block_vectors=tuple(block_vectors),
    )


def eigenvectors(model: SystemModel, report: SpectrumReport, members) -> np.ndarray:
    """Phase-space eigenvectors of the eigenpairs ``members`` of ``report``, as columns.

    ``report`` is the solved spectrum of ``model``.  Returns the dense
    ``(2n, len(members))`` matrix whose columns are ``(x, y)``, zero off
    each eigenvector's component; it is real when every chosen column is.
    """
    members = np.asarray(members, dtype=int).reshape(-1)
    validation = validate(model)
    modes, n = validation.scalar_modes, model.n
    # The component (the modes, then the blocks) and column of each eigenpair.
    component = np.empty(report.eigenvalues.size, dtype=int)
    column = np.empty_like(component)
    component[report.mode_pairs], column[report.mode_pairs] = np.arange(modes.size)[:, None], np.arange(2)
    for b, pairs in enumerate(report.block_pairs):
        component[pairs], column[pairs] = modes.size + b, np.arange(pairs.size)
    component, column = component[members], column[members]
    out = np.zeros((2 * n, members.size), dtype=complex)
    cols = np.flatnonzero(component < modes.size)
    rows = modes.index[component[cols]] + np.array([[0], [n]])  # x row over y row
    out[rows, cols] = report.mode_vectors[component[cols], :, column[cols]].T
    for b, (block, vectors) in enumerate(zip(validation.coupled_blocks, report.block_vectors)):
        cols = np.flatnonzero(component == modes.size + b)
        out[np.concatenate([block.index, n + block.index])[:, None], cols] = vectors[:, column[cols]]
    return out if out.imag.any() else out.real.copy()


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
    modes = validation.scalar_modes
    entries = report.mode_vectors
    mode_vectors = np.stack([np.sqrt(modes.k)[:, None] * entries[:, 0], entries[:, 1]], axis=1)
    mode_vectors /= np.linalg.norm(mode_vectors, axis=1, keepdims=True)
    sigmas = [np.linalg.svd(mode_vectors, compute_uv=False)] if modes.size else []
    blocks = []
    for block, stacked in zip(validation.coupled_blocks, report.block_vectors):
        vectors = np.vstack([block.k_sqrt @ stacked[: block.n], stacked[block.n :]])
        vectors /= np.linalg.norm(vectors, axis=0)
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
