"""System models: stiffness/damping pairs and their phase-space operator.

A model is a second-order system ``z'' + K z + C z' = 0`` on ``R^n`` given
by a stiffness matrix ``K`` and a damping matrix ``C``.  Validity means

* (A1) ``K`` is symmetric positive definite,
* (A2) ``C`` is symmetric positive semidefinite.

The first-order phase operator acts on states ``(z, z')`` stacked into a
``2n`` vector; the natural phase-space norm is the energy norm
``|x|_K^2 + |y|^2`` with ``|x|_K^2 = x^T K x``.

The beam constructor realizes a clamped/sliding fourth-order rod with
piecewise-constant damping coefficient in its exact modal basis.  With
mode shapes ``phi_k(r) = sqrt(2) sin(w_k r)``, ``w_k = (k - 1/2) pi``, the
stiffness is ``diag(E w_k^4)`` and the damping matrix has entries

    C[j, k] = sum_m a_m * w_j^2 w_k^2 * integral_{patch m} 2 sin(w_j r) sin(w_k r) dr

with the patch integrals evaluated in closed form (antiderivatives of
cosine differences), not by quadrature.

A note on scope: the matrix models here keep ``C`` bounded relative to
``K`` only in the trivial sense that everything on ``R^n`` is bounded.
The operator class being mirrored allows damping that is stiffness-like
in strength (e.g. the beam's damping scales as ``w^4`` exactly like the
stiffness), and it is the *truncation family* over increasing ``n`` - not
any single matrix - that reflects such unbounded damping.  Conclusions
drawn at one truncation order are finite-dimensional shadows, which is
why accumulation behaviour is probed across orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg

__all__ = [
    "InvalidModel",
    "Patch",
    "BeamSpec",
    "SystemModel",
    "PhaseVector",
    "ScalarModes",
    "CoupledBlock",
    "ValidationReport",
    "validate",
    "phase_operator",
    "phase_operator_inverse",
    "beam_assemble",
    "perturbed_kelvin_voigt",
    "beam_frequencies",
]

MAX_TRUNCATION_ORDER = 256

# Patch lists must cover [0, 1]; gaps or overlaps beyond this are rejected.
PATCH_GAP_TOL = 1e-12


class InvalidModel(Exception):
    """Model failed validation; ``assumption`` names the broken requirement."""

    def __init__(self, reason: str, assumption: str | None = None):
        self.reason = reason
        self.assumption = assumption
        tag = f"({assumption}) " if assumption else ""
        super().__init__(f"invalid model: {tag}{reason}")


class Patch(NamedTuple):
    """Constant damping coefficient ``a`` on the subinterval ``[lo, hi]``."""

    a: float
    lo: float
    hi: float


@dataclass(frozen=True)
class BeamSpec:
    """Damped rod description: modulus ``E``, damping patches, truncation order ``N``."""

    E: float
    patches: tuple[Patch, ...]
    N: int

    def __post_init__(self):
        if not (self.E > 0.0 and np.isfinite(self.E)):
            raise InvalidModel(f"modulus E must be a positive real, got {self.E!r}")
        if not (1 <= int(self.N) <= MAX_TRUNCATION_ORDER):
            raise InvalidModel(f"truncation order N must lie in [1, {MAX_TRUNCATION_ORDER}], got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "patches", _normalize_patches(self.patches))

    @property
    def damping_values(self) -> tuple[float, ...]:
        """Distinct patch coefficients, ascending."""
        return tuple(sorted({p.a for p in self.patches}))


def _normalize_patches(patches) -> tuple[Patch, ...]:
    items = [Patch(float(a), float(lo), float(hi)) for a, lo, hi in patches]
    if not items:
        raise InvalidModel("beam needs at least one damping patch")
    for p in items:
        if not (np.isfinite(p.a) and p.a > 0.0):
            raise InvalidModel(f"patch coefficient must be positive, got {p.a!r}")
        if not (0.0 - PATCH_GAP_TOL <= p.lo < p.hi <= 1.0 + PATCH_GAP_TOL):
            raise InvalidModel(f"patch ({p.a}, {p.lo}, {p.hi}) must satisfy 0 <= lo < hi <= 1")
    items.sort(key=lambda p: p.lo)
    merged: list[Patch] = []
    for p in items:
        if merged:
            prev = merged[-1]
            if p.lo < prev.hi - PATCH_GAP_TOL:
                raise InvalidModel(f"patches overlap near r = {p.lo}")
            if p.lo > prev.hi + PATCH_GAP_TOL:
                raise InvalidModel(f"patches leave a gap near r = {prev.hi}")
            if abs(p.a - prev.a) == 0.0:
                merged[-1] = Patch(prev.a, prev.lo, p.hi)
                continue
        merged.append(Patch(p.a, max(p.lo, 0.0), min(p.hi, 1.0)))
    if abs(merged[0].lo) > PATCH_GAP_TOL or abs(merged[-1].hi - 1.0) > PATCH_GAP_TOL:
        raise InvalidModel("patches must cover [0, 1]")
    return tuple(merged)


@dataclass(frozen=True)
class SystemModel:
    """Second-order system ``z'' + K z + C z' = 0``.

    ``beam`` is the :class:`BeamSpec` that :func:`beam_assemble` built the
    model from, and ``None`` for any other model.  It is the one provenance
    field: only a beam has the accumulation points ``-E / a_k`` that the
    conditions ``ii`` and ``iii`` of :mod:`~specdamp.conditions` test.
    Construction checks shapes and symmetry only; definiteness is the job
    of :func:`validate`.
    """

    K: np.ndarray
    C: np.ndarray
    beam: BeamSpec | None = None
    _validation: ValidationReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # Copies: the model freezes its matrices, and never a caller's array.
        k = np.array(self.K, dtype=float)
        c = np.array(self.C, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise InvalidModel(f"K must be square, got shape {k.shape}")
        if c.shape != k.shape:
            raise InvalidModel(f"C shape {c.shape} does not match K shape {k.shape}")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(c))):
            raise InvalidModel("K and C must be finite")
        try:
            k = linalg._require_symmetric(k, "K")
        except ValueError as exc:
            raise InvalidModel(str(exc), assumption="A1") from exc
        try:
            c = linalg._require_symmetric(c, "C")
        except ValueError as exc:
            raise InvalidModel(str(exc), assumption="A2") from exc
        k.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "C", c)

    @property
    def n(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class PhaseVector:
    """Phase-space state ``(position, velocity)``, each of length ``n``."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.position))
        y = np.atleast_1d(np.asarray(self.velocity))
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("position and velocity must be 1-D of equal length")
        object.__setattr__(self, "position", x)
        object.__setattr__(self, "velocity", y)

    @property
    def n(self) -> int:
        return self.position.shape[0]

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity])

    @staticmethod
    def from_stacked(vec: np.ndarray) -> "PhaseVector":
        vec = np.asarray(vec)
        if vec.ndim != 1 or vec.shape[0] % 2:
            raise ValueError("stacked phase vector must be 1-D of even length")
        n = vec.shape[0] // 2
        return PhaseVector(vec[:n], vec[n:])


@dataclass(frozen=True)
class ScalarModes:
    """The coordinates that no entry of ``K`` or ``C`` couples to any other.

    Each is a size-one component of the coupling graph of ``|K| + |C|``, a
    scalar oscillator ``z'' + k z + c z' = 0``; ``index`` lists them
    ascending, and ``k`` and ``c`` are their diagonal entries.  A model that
    is one component, ``n = 1`` included, has none: it is one coupled block.
    """

    index: np.ndarray
    k: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.index.shape[0]


@dataclass(frozen=True)
class CoupledBlock:
    """A coupling component that is not a scalar mode, with its matrices.

    ``index`` lists its coordinates ascending; ``K`` and ``C`` are the
    model's matrices on them, ``k_sqrt``, ``k_inv_sqrt`` and
    ``weighted_damping`` (``K^{-1/2} C K^{-1/2}``) those of the block
    itself, and ``k_eigenvalues`` (ascending) and ``k_vectors`` the
    eigendecomposition of its ``K`` that they come from.  For a model that
    is one component ``K`` and ``C`` are the model's very arrays.  A block
    has ``n``, ``K`` and ``C`` like a model, so :func:`phase_operator` takes
    it.
    """

    index: np.ndarray
    K: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    k_sqrt: np.ndarray = field(repr=False)
    k_inv_sqrt: np.ndarray = field(repr=False)
    weighted_damping: np.ndarray = field(repr=False)
    k_eigenvalues: np.ndarray = field(repr=False)
    k_vectors: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.index.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the (A1)/(A2) checks and the damping/stiffness comparison.

    ``gamma`` and ``alpha`` are the extreme eigenvalues of
    ``K^{-1/2} C K^{-1/2}``: the tightest constants with
    ``gamma * x^T K x <= x^T C x <= alpha * x^T K x``.  ``scalar_modes``
    and ``coupled_blocks`` split the coordinates into the connected
    components of the coupling graph of ``|K| + |C|``: the phase operator
    is, up to a permutation, the direct sum of one ``2 x 2`` block per
    scalar mode and one block per coupled component, and every layer works
    component by component.  Each coupled block carries its own ``K^{1/2}``,
    ``K^{-1/2}`` and weighted damping, and the one eigendecomposition of its
    ``K`` they come from; a scalar mode has the closed forms ``sqrt(k)`` and
    ``c / k``.
    No direct sum over the components is formed: the extreme eigenvalues
    above are taken over the components' spectra.
    """

    n: int
    c_min_eigenvalue: float
    gamma: float
    alpha: float
    k_min_eigenvalue: float
    scalar_modes: ScalarModes = field(repr=False)
    coupled_blocks: tuple[CoupledBlock, ...] = field(repr=False)


def _coupling_components(k: np.ndarray, c: np.ndarray) -> list[np.ndarray]:
    # Coordinates i and j are coupled when K or C has a nonzero at (i, j) or
    # (j, i).  Each component is labelled by its smallest coordinate: the
    # coordinates nothing couples (the scalar modes) label themselves in one
    # whole-array step, and each other component grows from its smallest
    # coordinate by a frontier search in which every coordinate enters a
    # frontier once.  Components come in label order, each ascending.
    pattern = (k != 0.0) | (c != 0.0)
    pattern = pattern | pattern.T
    np.fill_diagonal(pattern, False)
    labels = np.where(pattern.any(axis=1), -1, np.arange(pattern.shape[0]))
    for root in np.flatnonzero(labels < 0).tolist():
        if labels[root] >= 0:
            continue  # reached from a smaller root
        frontier = np.array([root])
        labels[root] = root
        while frontier.size:
            frontier = np.flatnonzero(pattern[frontier].any(axis=0) & (labels < 0))
            labels[frontier] = root
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _block_validation(model: SystemModel, index: np.ndarray):
    # One coupled component: its matrices, the K^{1/2} pair and the weighted
    # damping from the eigendecomposition of its K, plus the extreme
    # eigenvalues of C, K and K^{-1/2} C K^{-1/2} on it.
    if index.shape[0] == model.n:
        k, c = model.K, model.C  # a whole-model block shares them, uncopied
    else:
        cut = np.ix_(index, index)
        k, c = model.K[cut], model.C[cut]
    k_eigs, k_vecs = linalg.sym_eig(k)
    k_half, k_inv_half = linalg.sqrt_pair_from_eig(k_eigs, k_vecs)
    weighted = k_inv_half @ c @ k_inv_half
    weighted = 0.5 * (weighted + weighted.T)
    for shared in (k_half, k_inv_half, weighted, k_eigs, k_vecs):
        shared.setflags(write=False)  # every later validate() returns these
    c_eigs, w_eigs = np.linalg.eigvalsh(c), np.linalg.eigvalsh(weighted)
    block = CoupledBlock(index, k, c, k_half, k_inv_half, weighted, k_eigs, k_vecs)
    return block, c_eigs[0], k_eigs[0], w_eigs[0], w_eigs[-1]


def validate(model: SystemModel) -> ValidationReport:
    """Check (A1) and (A2) and compute the damping equivalence constants.

    The checks run once per model instance, whose ``K`` and ``C`` are
    read-only; later calls return the stored report.  Past the Cholesky
    probe of the whole ``K``, the work runs per coupling component: each
    coupled block takes the eigendecomposition of its ``K`` and the
    eigenvalues of its ``C`` and weighted damping, each scalar mode its
    closed forms ``c``, ``k`` and ``c / k``.

    Raises
    ------
    InvalidModel
        If ``K`` fails the Cholesky probe (A1) or ``C`` has an eigenvalue
        below ``-1e-10 * ||C||_F`` (A2).
    """
    if model._validation is not None:
        return model._validation
    try:
        linalg.cholesky(model.K)
    except linalg.NotPositiveDefinite as exc:
        raise InvalidModel(
            f"stiffness matrix is not positive definite (Cholesky pivot {exc.pivot_index} failed)",
            assumption="A1",
        ) from exc
    components = _coupling_components(model.K, model.C)
    # A model that is one component is solved whole, as one coupled block.
    scalar = [len(components) > 1 and comp.shape[0] == 1 for comp in components]
    single = np.array([comp[0] for comp, one in zip(components, scalar) if one], dtype=int)
    modes = ScalarModes(single, model.K[single, single], model.C[single, single])
    parts = [_block_validation(model, comp) for comp, one in zip(components, scalar) if not one]
    blocks = tuple(part[0] for part in parts)
    # Each spectrum is the union of its components' spectra; a scalar mode
    # contributes c, k and c / k.  Columns: lam_min(C), lam_min(K), gamma, alpha.
    ratio = modes.c / modes.k
    ends = np.array([part[1:] for part in parts]).reshape(-1, 4)
    c_min = float(np.min(np.concatenate([modes.c, ends[:, 0]])))
    c_scale = float(np.linalg.norm(model.C))
    if c_min < -1e-10 * max(c_scale, 1e-300):
        raise InvalidModel(
            f"damping matrix has negative eigenvalue {c_min:.6e}",
            assumption="A2",
        )
    report = ValidationReport(
        n=model.n,
        c_min_eigenvalue=c_min,
        gamma=float(np.min(np.concatenate([ratio, ends[:, 2]]))),
        alpha=float(np.max(np.concatenate([ratio, ends[:, 3]]))),
        k_min_eigenvalue=float(np.min(np.concatenate([modes.k, ends[:, 1]]))),
        scalar_modes=modes,
        coupled_blocks=blocks,
    )
    object.__setattr__(model, "_validation", report)
    return report


def phase_operator(model: SystemModel | CoupledBlock) -> np.ndarray:
    """Block matrix ``[[0, I], [-K, -C]]`` generating ``(z, z') -> (z', z'')``."""
    n = model.n
    top = np.hstack([np.zeros((n, n)), np.eye(n)])
    bot = np.hstack([-model.K, -model.C])
    return np.vstack([top, bot])


def phase_operator_inverse(model: SystemModel) -> np.ndarray:
    """Closed-form inverse ``[[-K^{-1} C, -K^{-1}], [I, 0]]`` of the phase operator.

    Exists for every valid model (zero is never in the spectrum); the
    solves go through the LU kernel so ill-conditioned stiffness surfaces
    as :class:`~specdamp.linalg.Singular`.
    """
    n = model.n
    k_inv = linalg.LUFactors(model.K).solve(np.eye(n))
    top = np.hstack([-(k_inv @ model.C), -k_inv])
    bot = np.hstack([np.eye(n), np.zeros((n, n))])
    return np.vstack([top, bot])


def beam_frequencies(order: int) -> np.ndarray:
    """Mode frequencies ``w_k = (k - 1/2) pi`` for ``k = 1..order``."""
    k = np.arange(1, order + 1, dtype=float)
    return (k - 0.5) * np.pi


def _sinpi(u: np.ndarray) -> np.ndarray:
    # sin(pi * u) with argument reduction done on u itself, so the result
    # is exactly zero at integer u (np.sin(np.pi * m) is not).
    m = np.round(u)
    s = np.sin(np.pi * (u - m))
    return np.where(m % 2, -s, s)


def _sine_overlap(j, k, lo: float, hi: float) -> np.ndarray:
    # integral over [lo, hi] of 2 sin(w_j r) sin(w_k r) dr for 1-based mode
    # indices (integer arrays), w_m = (m - 1/2) pi, by the cosine-difference
    # antiderivative: a Toeplitz part in j - k minus a Hankel part in
    # j + k - 1, each evaluated once per distinct integer and gathered.
    # Every sine argument is pi * (integer * r), routed through _sinpi so
    # that full-interval overlaps of distinct modes vanish exactly and a
    # beam with one patch over [0, 1] assembles exactly diagonal matrices.
    def part(d):
        # (sin(pi d hi) - sin(pi d lo)) / (pi d) at every entry of d
        first = np.min(d)
        m = np.arange(first, np.max(d) + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (_sinpi(m * hi) - _sinpi(m * lo)) / (m * np.pi)
        return values[d - first]

    dm, dp = np.subtract(j, k), np.add(j, k) - 1
    return np.where(dm == 0, hi - lo, part(dm)) - part(dp)


def beam_assemble(spec: BeamSpec) -> SystemModel:
    """Assemble the modal-basis matrices of the damped rod.

    ``K = diag(E w_k^4)`` and ``C[j, k]`` sums the closed-form patch
    overlap integrals weighted by ``a_m w_j^2 w_k^2``.  For a single patch
    covering [0, 1] the modal overlaps are exactly orthonormal and ``C``
    is ``a * diag(w_k^4)``; the eigenvalues of ``K^{-1} C`` then
    concentrate on the patch values ``a_m / E`` as the order grows.
    """
    w = beam_frequencies(spec.N)
    stiff = np.diag(spec.E * w**4)
    damp = np.zeros((spec.N, spec.N))
    w2 = w**2
    j, k = np.indices((spec.N, spec.N)) + 1
    for patch in spec.patches:
        overlap = _sine_overlap(j, k, patch.lo, patch.hi)
        # Mirror the upper triangle so the matrix is symmetric bit for bit.
        overlap = np.where(j <= k, overlap, overlap.T)
        damp += patch.a * (w2[:, None] * overlap * w2[None, :])
    damp = 0.5 * (damp + damp.T)
    model = SystemModel(K=stiff, C=damp, beam=spec)
    validate(model)
    return model


def perturbed_kelvin_voigt(stiffness, alpha: float, perturbation) -> tuple[SystemModel, float]:
    """Model with ``C = alpha * K + B`` plus the smallness proxy for ``B``.

    Returns the validated model and ``||K^{-1/2} B K^{-1/2}||_2``, the
    finite-dimensional stand-in for relative compactness of the
    perturbation against the stiffness.  ``B = C - alpha K`` lives on the
    coupling components of ``|K| + |C|``, so the norm is the largest of the
    blocks' ``||K_b^{-1/2} B_b K_b^{-1/2}||_2`` and the scalar modes'
    ``|b_ii| / k_i``.
    """
    k = np.asarray(stiffness, dtype=float)
    b = np.asarray(perturbation, dtype=float)
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise InvalidModel(f"proportional coefficient alpha must be positive, got {alpha!r}")
    if b.shape != k.shape:
        raise InvalidModel(f"perturbation shape {b.shape} does not match stiffness shape {k.shape}")
    model = SystemModel(K=k, C=alpha * k + b)
    report = validate(model)
    modes = report.scalar_modes
    proxy = float(np.max(np.abs(b[modes.index, modes.index]) / modes.k, initial=0.0))
    for block in report.coupled_blocks:
        root = block.k_inv_sqrt
        proxy = max(proxy, float(np.linalg.norm(root @ b[np.ix_(block.index, block.index)] @ root, 2)))
    return model, proxy
