"""Indefinite (Krein) inner-product structure of the phase operator.

On phase space the quadratic form ``[u, v] = <x_u, x_v>_K - <y_u, y_v>``
(stiffness-weighted positions minus plain velocities) makes the phase
operator self-adjoint: ``[A u, v] = [u, A v]`` for all ``u, v``.  That
symmetry forces the familiar indefinite spectral rules checked here:

* eigenvectors for ``lam_i != conj(lam_j)`` are ``[.,.]``-orthogonal,
* eigenvectors of nonreal eigenvalues are neutral (``[v, v] = 0``),
* a real eigenvalue carries a sign type: the Gram matrix of ``[.,.]``
  restricted to its eigenspace is definite (positive/negative type),
  zero (neutral), or indefinite (mixed),
* degeneracy of that Gram is the fingerprint of a Jordan block.

``classify_eigenpairs`` computes these per eigenvalue cluster, and
``decompose`` splits the real spectrum into a fast, negative-type branch
and the rest, reporting the decay cut ``M_cut`` and the numerical
orthogonality between the two halves.

Every eigenvector these verdicts use is one of ``solve_qep``'s: a
cluster's eigenspace is the span of its members' position blocks,
orthonormalized by a thin SVD (a singleton's is its one unit position,
and all singletons are classified at once), and nothing is re-derived
from the pencil.
A Jordan cluster is no exception, because ``solve_qep`` already gives its
members the pencil-kernel directions, repeated, so the span has fewer
directions than the cluster has members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, spectrum
from .model import PhaseVector, SystemModel, validate
from .tolerances import CLUSTER_TOL, NEUTRAL_TOL, ORTH_TOL, RANK_TOL, SNAP_REAL_TOL

__all__ = [
    "IllConditionedCluster",
    "MixedClusterObstruction",
    "ClusterClassification",
    "SignClassification",
    "NondegeneracyReport",
    "Decomposition",
    "indefinite_product",
    "classify_eigenpairs",
    "kernel_gram_nondegeneracy",
    "decompose",
]


class IllConditionedCluster(Exception):
    """Kernel-basis Gram of a cluster is numerically unusable."""

    def __init__(self, eigenvalue: complex, detail: str):
        self.eigenvalue = eigenvalue
        super().__init__(f"cluster at {eigenvalue}: {detail}")


class MixedClusterObstruction(Exception):
    """A real eigenvalue of mixed sign type blocks the two-branch split."""

    def __init__(self, eigenvalue: complex):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"real eigenvalue cluster at {eigenvalue} has mixed sign type; "
            "no definite-type spectral split exists"
        )


def indefinite_product(model: SystemModel, u: PhaseVector, v: PhaseVector) -> complex:
    """Krein product ``[u, v]``, linear in ``u`` and conjugate-linear in ``v``."""
    return complex(
        np.vdot(v.position, model.K @ u.position) - np.vdot(v.velocity, u.velocity)
    )


@dataclass(frozen=True)
class ClusterClassification:
    """Sign-type verdict for one eigenvalue cluster.

    ``gram`` is the Hermitian matrix of ``[v_i, v_j]`` over an orthonormal
    basis ``x_i`` of the span of the members' eigenvector positions,
    lifted to phase vectors ``(x_i, lam x_i)`` at the cluster mean
    ``lam``.  ``kernel_dim`` is that span's dimension, so
    ``jordan_defect = size - kernel_dim``.
    ``margin`` is ``min |eig(gram)| - threshold``; a nonpositive margin
    means the Gram is numerically degenerate.  ``nonpositive_directions``
    counts Gram eigenvalues at or below the neutral threshold.
    """

    eigenvalue: complex
    member_indices: tuple[int, ...]
    is_real: bool
    kernel_dim: int
    jordan_defect: int
    sign_type: str
    neutral_threshold: float
    margin: float
    nonpositive_directions: int
    degenerate: bool
    gram: np.ndarray = field(repr=False)
    gram_eigenvalues: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.member_indices)


@dataclass(frozen=True)
class SignClassification:
    """Per-cluster sign types for a full spectrum."""

    clusters: tuple[ClusterClassification, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"positive": 0, "negative": 0, "neutral": 0, "mixed": 0}
        for c in self.clusters:
            out[c.sign_type] += 1
        return out

    @property
    def total_jordan_defect(self) -> int:
        return sum(c.jordan_defect for c in self.clusters)


def _orthonormal_range(columns: np.ndarray) -> np.ndarray:
    # Orthonormal basis of the span of the columns: the left singular
    # vectors whose singular value exceeds RANK_TOL times the largest.
    if columns.shape[1] == 1:
        return columns / np.linalg.norm(columns)
    u, sigma, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, sigma > RANK_TOL * sigma[0]]


def _cluster_gram(model: SystemModel, lam: complex, basis: np.ndarray):
    # For the phase vectors v_i = (b_i, lam b_i), [v_i, v_j] is entry (j, i)
    # of B^H K B - |lam|^2 B^H B; the energy of v_i is entry (i, i) of
    # B^H K B + |lam|^2 B^H B.
    bkb = basis.conj().T @ (model.K @ basis)
    bb = basis.conj().T @ basis
    lam2 = abs(lam) ** 2
    gram = (bkb - lam2 * bb).T
    gram = 0.5 * (gram + gram.conj().T)
    scale = float(np.max(np.real(np.diag(bkb)) + lam2 * np.real(np.diag(bb))))
    if not (np.isfinite(scale) and scale > 0.0 and np.all(np.isfinite(gram))):
        raise IllConditionedCluster(lam, "non-finite Gram or zero energy scale")
    tau = NEUTRAL_TOL * scale
    mu, coeff = np.linalg.eigh(gram)
    return gram, mu, coeff, tau


def _sign_type(mu: np.ndarray, tau) -> list[str]:
    # The sign type of each row of Gram eigenvalues mu against its
    # threshold, tau one per row.
    mu, tau = np.atleast_2d(mu), np.reshape(tau, (-1, 1))
    return np.select(
        [np.all(mu > tau, axis=1), np.all(mu < -tau, axis=1), np.all(np.abs(mu) <= tau, axis=1)],
        ["positive", "negative", "neutral"],
        "mixed",
    ).tolist()


def classify_eigenpairs(model: SystemModel, report: spectrum.SpectrumReport) -> SignClassification:
    """Cluster the eigenvalues and sign-classify each cluster's eigenspace.

    ``report`` is the solved spectrum of ``model``.  Each cluster is
    classified over the span of its members' eigenvector positions,
    orthonormalized by a thin SVD that keeps the directions whose singular
    value exceeds ``RANK_TOL`` times the largest.  The sign type is the
    inertia of the Gram over that span, so it does not depend on how the
    eigenvectors were paired up inside the cluster.

    A singleton's span is its one unit position ``x``, and its Gram the
    scalar ``x^H K x - |lam|^2 x^H x``: all singletons take theirs at
    once, from one real product with ``K`` and column-wise sums.  Only the
    clusters of two or more take the SVD, Gram and ``eigh`` one by one.
    """
    values = report.eigenvalues
    clusters = spectrum.cluster_eigenvalues(values, CLUSTER_TOL)
    single = np.array([len(members) == 1 for members in clusters])
    means = values[[members[0] for members in clusters]].astype(complex)
    for c in np.flatnonzero(~single).tolist():
        means[c] = np.mean(values[clusters[c]])
    means = np.where(np.abs(means.imag) <= SNAP_REAL_TOL * (1.0 + np.abs(means)), means.real, means)
    # The singletons' unit positions, as columns, and their scalar Grams.
    x = spectrum.eigenvectors(model, report, [clusters[c][0] for c in np.flatnonzero(single).tolist()])
    x = x[: model.n] / np.linalg.norm(x[: model.n], axis=0)
    lam2 = np.abs(means[single]) ** 2
    xkx = np.sum(x.conj() * linalg.real_times(model.K, x), axis=0).real
    xx = np.sum(x.conj() * x, axis=0).real
    grams, scales = xkx - lam2 * xx, xkx + lam2 * xx
    taus = NEUTRAL_TOL * scales
    singles = zip(grams.tolist(), scales.tolist(), taus.tolist(), _sign_type(grams[:, None], taus))
    out = []
    for members, mean in zip(clusters, means.tolist()):
        if len(members) == 1:
            g, scale, tau, sign_type = next(singles)
            if not (np.isfinite(scale) and scale > 0.0 and np.isfinite(g)):
                raise IllConditionedCluster(mean, "non-finite Gram or zero energy scale")
            gram, mu, dim = np.array([[g]]), np.array([g]), 1
        else:
            basis = _orthonormal_range(spectrum.eigenvectors(model, report, members)[: model.n])
            gram, mu, _, tau = _cluster_gram(model, mean, basis)
            sign_type, dim = _sign_type(mu, tau)[0], basis.shape[1]
        margin = float(np.min(np.abs(mu)) - tau)
        out.append(
            ClusterClassification(
                eigenvalue=mean,
                member_indices=tuple(members),
                is_real=(mean.imag == 0.0),
                kernel_dim=dim,
                jordan_defect=len(members) - dim,
                sign_type=sign_type,
                neutral_threshold=tau,
                margin=margin,
                nonpositive_directions=int(np.count_nonzero(mu <= tau)),
                degenerate=bool(margin <= 0.0),
                gram=gram,
                gram_eigenvalues=mu,
            )
        )
    out.sort(key=lambda c: (c.eigenvalue.real, c.eigenvalue.imag))
    return SignClassification(clusters=tuple(out))


@dataclass(frozen=True)
class NondegeneracyReport:
    """Gram nondegeneracy verdict at one eigenvalue, with a witness if it fails.

    ``witness`` is the phase vector built from the Gram null combination;
    it satisfies ``[w, u] ~ 0`` for every ``u`` in the eigenspace, which is
    exactly the direction along which a Jordan chain continues.  The
    threshold is relative to the eigenvectors' energy scale, not to
    ``||gram||``: a cluster whose whole Gram is tiny is degenerate, and a
    Gram-relative cutoff would wrongly pass it.
    """

    eigenvalue: complex
    kernel_dim: int
    gram: np.ndarray
    min_abs_eigenvalue: float
    threshold: float
    nondegenerate: bool
    witness: PhaseVector | None


def kernel_gram_nondegeneracy(model: SystemModel, lam: complex, positions) -> NondegeneracyReport:
    """Test whether ``[.,.]`` restricted to ``ker Q(lam)`` is nondegenerate.

    ``positions`` is the ``(n, k)`` matrix of the position blocks of the
    solved eigenvectors near ``lam``; orthonormalized as in
    :func:`classify_eigenpairs`, they span the eigenspace.
    """
    lam = complex(lam)
    positions = np.asarray(positions)
    if positions.ndim != 2 or positions.shape[1] == 0:
        raise ValueError("positions must be an (n, k) matrix with k >= 1")
    basis = _orthonormal_range(positions)
    gram, mu, coeff, tau = _cluster_gram(model, lam, basis)
    k = int(np.argmin(np.abs(mu)))
    min_abs = float(np.abs(mu[k]))
    ok = min_abs > tau
    witness = None
    if not ok:
        x = basis @ coeff[:, k]
        witness = PhaseVector(x, lam * x)
    return NondegeneracyReport(
        eigenvalue=lam,
        kernel_dim=basis.shape[1],
        gram=gram,
        min_abs_eigenvalue=min_abs,
        threshold=tau,
        nondegenerate=bool(ok),
        witness=witness,
    )


@dataclass(frozen=True)
class Decomposition:
    """Two-branch split of the eigenpairs by Krein sign.

    ``h_prime`` collects the eigenpairs of the maximal most-negative run
    of negative-type real clusters (the fast branch); everything else,
    including all nonreal eigenvalues, lands in ``h_doubleprime``.
    ``m_cut`` is the decay cut: every fast eigenvalue satisfies
    ``Re lam <= -m_cut`` and the slowest of them attains it.
    ``cross_gram_norm`` is the largest energy-normalized ``|[v_i, v_j]|``
    across the split (zero in exact arithmetic), and
    ``hprime_definiteness`` is the largest Gram eigenvalue over the fast
    branch (negative exactly when ``[.,.]`` is negative definite there).
    """

    h_prime: tuple[int, ...]
    h_doubleprime: tuple[int, ...]
    m_cut: float | None
    cross_gram_norm: float
    orthogonal: bool
    hprime_definiteness: float | None
    neutral_real_eigenvalues: tuple[complex, ...]


def _cross_gram_norm(model: SystemModel, report: spectrum.SpectrumReport, fast: np.ndarray) -> float:
    # Largest energy-normalized |[v_i, v_j]| over v_i fast and v_j slow
    # (fast is a mask over the eigenpairs).  Eigenvectors of different
    # coupling components have disjoint supports, so only pairs within one
    # component contribute: a scalar mode whose two eigenpairs fall on
    # different sides of the split, or two members of one coupled block.
    validation = validate(model)
    worst = 0.0
    # Each scalar mode's two eigenpairs, the fast one first.
    rows = report.mode_pairs
    first = np.argsort(~fast[rows], axis=1, kind="stable")
    ends = np.take_along_axis(rows, first, axis=1)
    split = fast[ends[:, 0]] & ~fast[ends[:, 1]]
    if np.any(split):
        # [mode, (x, y), (fast, slow)]
        entries = np.take_along_axis(report.mode_vectors[split], first[split][:, None, :], axis=2)
        x, y = entries[:, 0], entries[:, 1]
        kx = validation.scalar_modes.k[split][:, None] * x
        energy = np.real(x.conj() * kx) + np.abs(y) ** 2
        g = x[:, 1].conj() * kx[:, 0] - y[:, 1].conj() * y[:, 0]
        worst = float(np.max(np.abs(g) / np.sqrt(energy[:, 1] * energy[:, 0])))
    for block, members, vectors in zip(validation.coupled_blocks, report.block_pairs, report.block_vectors):
        on_fast = fast[members]
        p = int(np.count_nonzero(on_fast))
        if p == 0 or p == members.size:
            continue
        # Fast columns first, in row-major order: the BLAS path, and so the
        # rounding of the products below, depends on the layout.
        vectors = np.ascontiguousarray(vectors[:, np.argsort(~on_fast, kind="stable")])
        x, y = vectors[: block.n], vectors[block.n :]
        kx = block.K @ x
        energy = np.real(np.sum(x.conj() * kx, axis=0)) + np.sum(np.abs(y) ** 2, axis=0)
        # Entry (j, i) is [v_i, v_j] for v_i fast and v_j slow.
        g = x[:, p:].conj().T @ kx[:, :p] - y[:, p:].conj().T @ y[:, :p]
        worst = max(worst, float(np.max(np.abs(g) / np.sqrt(np.outer(energy[p:], energy[:p])))))
    return worst


def decompose(
    model: SystemModel,
    report: spectrum.SpectrumReport,
    classification: SignClassification | None = None,
) -> Decomposition:
    """Split the spectrum into the negative-type fast branch and the rest.

    ``report`` is the solved spectrum of ``model``.  Raises
    :class:`MixedClusterObstruction` when some real cluster has mixed sign
    type, because then no invariant-subspace split by sign exists.  Real
    neutral clusters (Jordan blocks at critical damping) do not raise; they
    are routed to the slow branch and reported.  The cross-Gram is taken
    per coupling component: entries between components are exact zeros.
    """
    if classification is None:
        classification = classify_eigenpairs(model, report)

    real = [c for c in classification.clusters if c.is_real]
    real.sort(key=lambda c: c.eigenvalue.real)
    for c in real:
        if c.sign_type == "mixed":
            raise MixedClusterObstruction(c.eigenvalue)

    prefix: list[ClusterClassification] = []
    for c in real:
        if c.sign_type == "negative":
            prefix.append(c)
        else:
            break
    fast = np.zeros(report.eigenvalues.size, dtype=bool)
    fast[[i for c in prefix for i in c.member_indices]] = True
    hprime = tuple(np.flatnonzero(fast).tolist())
    hsecond = tuple(np.flatnonzero(~fast).tolist())
    m_cut = -max(c.eigenvalue.real for c in prefix) if prefix else None
    hp_max = max(float(np.max(c.gram_eigenvalues)) for c in prefix) if prefix else None
    neutral = tuple(c.eigenvalue for c in real if c.sign_type == "neutral")
    cross = _cross_gram_norm(model, report, fast)

    return Decomposition(
        h_prime=hprime,
        h_doubleprime=hsecond,
        m_cut=m_cut,
        cross_gram_norm=cross,
        orthogonal=bool(cross <= ORTH_TOL),
        hprime_definiteness=hp_max,
        neutral_real_eigenvalues=neutral,
    )
