"""Spectrum of the phase operator and its quadratic-pencil structure.

Eigenvalues of the block operator ``[[0, I], [-K, -C]]`` are exactly the
roots of the quadratic matrix pencil ``Q(lam) = lam^2 I + lam C + K``, and
every eigenvector has the structure ``(x, lam x)`` with ``x`` in the
kernel of ``Q(lam)``.  The solver leans on that structure:

1. the mode-coupling graph of ``|K| + |C|`` is split into connected
   components, so exactly decoupled systems (single-patch beams, diagonal
   test models) are solved per mode,
2. per component, eigenpairs come from LAPACK on the block operator.
   When its moduli split cleanly into ``n`` small and ``n`` large ones,
   the small ones are taken from the reversed, energy-scaled companion
   ``[[0, I], [-K^{-1}, -K^{-1/2} C K^{-1/2}]]`` instead, whose
   eigenvalues are ``1 / lam`` and whose coefficients stay of order one
   however stiff the model.  Each ``x`` is read from the eigenvector
   block that carries it; near-real values are snapped onto the axis and
   close values are clustered,
3. each eigenvalue is polished through the scalar Rayleigh quadratic
   ``(x^H x) lam^2 + (x^H C x) lam + (x^H K x)`` of its own ``x``.  For a
   tight cluster (diameter within ``cluster_tol``) an orthonormal kernel
   basis of ``Q`` at the cluster mean is extracted by SVD; when it has
   fewer directions than the cluster has members, the cluster is a Jordan
   block and the members are polished with the basis directions instead,
4. eigenvectors are rebuilt as ``(x, lam x)``, so the structural identity
   between position and velocity blocks holds exactly.

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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import linalg
from .model import (
    BeamSpec,
    PhaseVector,
    SystemModel,
    beam_assemble,
    phase_operator,
    validate,
)
from .tolerances import DEFAULT_TOLERANCES, ToleranceProfile

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
    operator; the eigenvector has unit Euclidean norm and satisfies
    ``velocity == value * position`` exactly by construction.
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
    """The solved eigenvectors in energy coordinates.

    Column ``j`` of ``vectors`` is ``diag(K^{1/2}, I) v_j`` scaled to unit
    Euclidean norm, ``v_j`` the ``j``-th eigenvector of the report; in these
    coordinates the energy norm is the Euclidean norm and the flow is a
    contraction.  ``condition_number`` is the 2-norm condition number of
    ``vectors`` (``inf`` when singular): the finite-order Riesz basis
    constant of the eigenvectors.
    """

    vectors: np.ndarray = field(repr=False)
    condition_number: float


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted eigenpairs plus the magnitude lower bound.

    ``bound.value`` is also the radius of the spectrum-free disk around the
    origin: a Neumann-series argument on the inverse phase operator gives
    the same expression.  :func:`energy_basis` stores its result on the
    report.
    """

    eigenpairs: tuple[Eigenpair, ...]
    bound: EigenvalueBound
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


def quadratic_pencil(model: SystemModel, lam: complex) -> np.ndarray:
    """Evaluate ``Q(lam) = lam^2 I + lam C + K``."""
    lam = complex(lam)
    if lam.imag == 0.0:
        r = lam.real
        return (r * r) * np.eye(model.n) + r * model.C + model.K
    return (lam * lam) * np.eye(model.n) + lam * model.C + model.K


def pencil_kernel_basis(
    model: SystemModel,
    lam: complex,
    rank_tol: float = DEFAULT_TOLERANCES.rank_tol,
    max_dim: int | None = None,
    diameter: float = 0.0,
) -> np.ndarray:
    """Orthonormal numerical kernel basis of ``Q(lam)``, smallest directions first.

    A direction with singular value ``sigma`` counts as null when
    ``sigma`` is at most the largest of three thresholds:

    * ``rank_tol * sigma_max``, the usual relative rank test;
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
        cutoff = max(rank_tol * smax, floor, 4.0 * diameter * deriv)
        if i > 0 and sigma[n - 1 - i] > cutoff:
            break
        cols.append(x)
    return np.column_stack(cols)


def cluster_eigenvalues(values: np.ndarray, cluster_tol: float) -> list[list[int]]:
    """Group indices of nearby eigenvalues (chain rule on complex distance).

    Values within ``cluster_tol * (1 + |lam|)`` of a cluster's running
    mean join that cluster.  The sweep order puts conjugate partners next
    to each other so that a nearly defective real pair with a spurious
    imaginary split is merged into a single real cluster.
    """
    values = np.asarray(values)
    order = np.lexsort((values.imag, np.abs(values.imag), values.real))
    clusters: list[list[int]] = []
    means: list[complex] = []
    for idx in order:
        lam = complex(values[idx])
        placed = False
        for c, mean in enumerate(means):
            if abs(lam - mean) <= cluster_tol * (1.0 + abs(mean)):
                clusters[c].append(int(idx))
                k = len(clusters[c])
                means[c] = mean + (lam - mean) / k
                placed = True
                break
        if not placed:
            clusters.append([int(idx)])
            means.append(lam)
    return clusters


def _snap_real(values: np.ndarray, snap_tol: float) -> np.ndarray:
    out = np.array(values, dtype=complex, copy=True)
    mask = np.abs(out.imag) <= snap_tol * (1.0 + np.abs(out))
    out[mask] = out[mask].real
    return out


def _rayleigh_roots(model: SystemModel, x: np.ndarray) -> tuple[complex, complex]:
    # Roots of (x^H x) lam^2 + (x^H C x) lam + (x^H K x); the coefficients
    # are real and nonnegative for any x because K and C are symmetric
    # (semi)definite, so the roots always respect the left half plane.
    m = float(np.real(np.vdot(x, x)))
    c = float(np.real(np.vdot(x, model.C @ x)))
    k = float(np.real(np.vdot(x, model.K @ x)))
    disc = c * c - 4.0 * m * k
    if abs(disc) <= 64.0 * np.finfo(float).eps * (c * c + 4.0 * m * k):
        r = -c / (2.0 * m)
        return complex(r), complex(r)
    if disc > 0.0:
        q = -0.5 * (c + np.sqrt(disc))  # c > 0 whenever disc > 0 and k > 0
        return complex(q / m), complex(k / q)
    im = np.sqrt(-disc) / (2.0 * m)
    re = -c / (2.0 * m)
    return complex(re, im), complex(re, -im)


def _nearest_root(roots: tuple[complex, complex], lam0: complex) -> complex:
    return min(roots, key=lambda r: abs(r - lam0))


def _coupling_components(model: SystemModel) -> list[np.ndarray]:
    pattern = (model.K != 0.0) | (model.C != 0.0)
    np.fill_diagonal(pattern, True)
    count, labels = connected_components(csr_matrix(pattern), directed=False)
    return [np.flatnonzero(labels == c) for c in range(count)]


def _block_vectors(values: np.ndarray, vecs: np.ndarray, n: int) -> list[np.ndarray]:
    # Companion eigenvectors are (x, lam x): read x from the block that
    # carries it, the top one for |lam| <= 1 and the bottom one / lam above.
    out = []
    for j, lam in enumerate(values):
        x = vecs[:n, j] if abs(lam) <= 1.0 else vecs[n:, j] / lam
        out.append(x / np.linalg.norm(x))
    return out


def _linearized_eigenpairs(model: SystemModel) -> tuple[np.ndarray, list[np.ndarray]]:
    """Starting eigenvalues and pencil vectors of one block, all from LAPACK.

    The large-magnitude eigenvalues come from the phase operator.  When
    its moduli split cleanly ``n``/``n``, the ``n`` small ones come from the
    reversed companion in ``g = K^{1/2} x``, whose absolute error is
    ``eps`` times coefficients of order one rather than ``eps * ||A||``.
    """
    n = model.n
    dec = linalg.nonsym_eig(phase_operator(model))
    values = dec.eigenvalues
    if n == 1:
        # Q(lam) is 1x1, so its kernel is spanned by 1 for every root.
        return values, [np.ones(1), np.ones(1)]
    xs = _block_vectors(values, dec.eigenvectors, n)
    mods = np.abs(values)
    order = np.argsort(mods, kind="stable")
    if not mods[order[n - 1]] < 0.5 * mods[order[n]]:
        return values, xs

    validation = validate(model)
    root_inv = validation.k_inv_sqrt
    k_inv = root_inv @ root_inv
    rev = np.block(
        [
            [np.zeros((n, n)), np.eye(n)],
            [-0.5 * (k_inv + k_inv.T), -validation.weighted_damping],
        ]
    )
    rdec = linalg.nonsym_eig(rev)
    rorder = np.argsort(-np.abs(rdec.eigenvalues), kind="stable")
    mu = rdec.eigenvalues[rorder[:n]]
    small = 1.0 / mu
    # Both linearizations must agree on where the gap is, or a conjugate
    # pair of equal modulus could be cut in two.
    cut = 0.5 * min(mods[order[n]], 1.0 / abs(rdec.eigenvalues[rorder[n]]))
    if not np.max(np.abs(small)) < cut:
        return values, xs
    # Eigenvectors (g, mu g) of the reversed companion map to (x, mu x).
    rvecs = rdec.eigenvectors[:, rorder[:n]]
    lifted = np.vstack([root_inv @ rvecs[:n], root_inv @ rvecs[n:]])
    return (
        np.concatenate([small, values[order[n:]]]),
        _block_vectors(mu, lifted, n) + [xs[i] for i in order[n:]],
    )


def _dense_eigensolve(
    model: SystemModel, tolerances: ToleranceProfile
) -> list[tuple[complex, np.ndarray]]:
    """Eigenvalues plus pencil-kernel vectors for one fully coupled block."""
    values, starts = _linearized_eigenpairs(model)
    values = _snap_real(values, tolerances.snap_real_tol)
    xs = list(starts)

    for _pass in range(2):
        refined = np.array(values, copy=True)
        for members in cluster_eigenvalues(values, tolerances.cluster_tol):
            mem_vals = values[members]
            mean = complex(np.mean(mem_vals))
            if abs(mean.imag) <= tolerances.snap_real_tol * (1.0 + abs(mean)):
                mean = complex(mean.real)
            diameter = float(np.max(np.abs(mem_vals - mean)))
            tight = diameter <= tolerances.cluster_tol * (1.0 + abs(mean))
            vectors = [starts[i] for i in members]
            if tight and len(members) > 1:
                # Genuine numerical coincidence.  The kernel basis at the mean
                # tells a Jordan block (fewer kernel directions than members)
                # from a semisimple cluster; only then do its directions
                # replace the members' own vectors.
                basis = pencil_kernel_basis(
                    model, mean, tolerances.rank_tol, max_dim=len(members), diameter=diameter
                )
                dim = basis.shape[1]
                if dim < len(members):
                    vectors = [basis[:, min(rank, dim - 1)] for rank in range(len(members))]
            for idx, x in zip(members, vectors):
                # A tight cluster member may move ten cluster tolerances; a
                # member of a spread-out chain only well inside the gap to its
                # nearest sibling, so no two can collapse onto one root.
                lam0 = complex(values[idx])
                if tight:
                    limit = 10.0 * tolerances.cluster_tol * (1.0 + abs(lam0))
                else:
                    limit = 0.4 * min(abs(lam0 - complex(values[j])) for j in members if j != idx)
                lam = _nearest_root(_rayleigh_roots(model, x), lam0)
                refined[idx] = lam0 if abs(lam - lam0) > limit else lam
                xs[idx] = x
        values = _snap_real(refined, tolerances.snap_real_tol)

    return [(complex(values[i]), xs[i]) for i in range(values.shape[0])]


def solve_qep(model: SystemModel, tolerances: ToleranceProfile = DEFAULT_TOLERANCES) -> SpectrumReport:
    """All ``2n`` eigenpairs of the phase operator, structure-refined.

    Returns eigenpairs sorted by ``(Re, Im)``.  Raises
    :class:`~specdamp.model.InvalidModel` before any factorization if the
    model breaks (A1) or (A2), and :class:`~specdamp.linalg.NoConvergence`
    if any final residual exceeds ``tolerances.residual_tol`` relative to
    the Frobenius norm of the phase operator.
    """
    validate(model)
    a_op = phase_operator(model)
    comps = _coupling_components(model)
    found: list[tuple[complex, np.ndarray]] = []
    if len(comps) == 1:
        found = _dense_eigensolve(model, tolerances)
    else:
        for comp in comps:
            sub = SystemModel(
                K=model.K[np.ix_(comp, comp)], C=model.C[np.ix_(comp, comp)], source="generic"
            )
            for lam, x_sub in _dense_eigensolve(sub, tolerances):
                x = np.zeros(model.n, dtype=x_sub.dtype)
                x[comp] = x_sub
                found.append((lam, x))

    scale = linalg._frobenius_scale(a_op)
    pairs: list[Eigenpair] = []
    for lam, x in found:
        stacked = np.concatenate([x, lam * x]).astype(complex)
        stacked = linalg.normalize_columns(stacked[:, None])[:, 0]
        resid = float(np.linalg.norm(a_op @ stacked - lam * stacked) / scale)
        if lam.imag == 0.0 and np.max(np.abs(stacked.imag)) <= 1e-14:
            stacked = stacked.real.astype(float)
        pairs.append(Eigenpair(value=lam, vector=PhaseVector.from_stacked(stacked), residual=resid))

    pairs.sort(key=lambda p: (p.value.real, p.value.imag))
    worst = max(p.residual for p in pairs)
    if worst > tolerances.residual_tol:
        raise linalg.NoConvergence(
            f"worst eigenpair residual {worst:.3e} exceeds {tolerances.residual_tol:.1e}"
        )

    return SpectrumReport(eigenpairs=tuple(pairs), bound=eigenvalue_lower_bound(model))


def energy_basis(model: SystemModel, report: SpectrumReport) -> EnergyBasis:
    """Energy-normalized eigenvector matrix of ``report`` and its condition number.

    ``report`` is the solved spectrum of ``model``.  The basis and its one
    SVD are computed once per report; later calls return the stored result.
    """
    if report._energy_basis is not None:
        return report._energy_basis
    root = validate(model).k_sqrt
    cols = []
    for pair in report.eigenpairs:
        v = pair.vector
        col = np.concatenate([root @ v.position, v.velocity]).astype(complex)
        cols.append(col / np.linalg.norm(col))
    vectors = np.column_stack(cols)
    vectors.setflags(write=False)
    sig = np.linalg.svd(vectors, compute_uv=False)
    cond = float(sig[0] / sig[-1]) if sig[-1] > 0.0 else float("inf")
    basis = EnergyBasis(vectors=vectors, condition_number=cond)
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


def accumulation_experiment(
    spec: BeamSpec,
    orders,
    epsilon: float = 0.01,
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
) -> AccumulationReport:
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
        report = solve_qep(beam_assemble(sub), tolerances)
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
