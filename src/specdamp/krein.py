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

Every eigenvector these verdicts use is one of ``solve_qep``'s, and
nothing is re-derived from the pencil: a cluster's eigenspace is the span
of its members' position blocks, taken per coupling component.  Members
on different components have disjoint supports and ``K`` is block
diagonal over the components, so the span and its Gram are direct sums of
one part per component, and nothing is lost by splitting them.  A scalar
mode's part is its one coordinate, whichever of its roots are members,
with Gram ``k - |lam|^2`` and energy ``k + |lam|^2`` (to rounding: both
come from the unit position entry); a part of one member is its unit
position.  These one-direction parts, over all clusters, are
classified in one whole-array step.  Only the members of one coupled
block take a thin SVD, a Gram and an ``eigh``, so a model that is one
coupled block goes the dense way cluster by cluster, and a diagonal model
never does.  The per-cluster rules hold across the parts: the rank cut is
relative to the cluster's largest singular value, and the neutral
threshold to its largest energy.
A Jordan cluster is no exception, because ``solve_qep`` already gives its
members the pencil-kernel directions, repeated, so the span has fewer
directions than the cluster has members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


def _range(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Left singular vectors and singular values of the columns, largest
    # first; one column is its own, normalized.
    if columns.shape[1] == 1:
        norm = np.linalg.norm(columns)
        return columns / norm, np.array([norm])
    u, sigma, _ = np.linalg.svd(columns, full_matrices=False)
    return u, sigma


def _unit_forms(x: np.ndarray, kx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # x^H K x and x^H x of each column of x, given kx = K x.
    return np.sum(x.conj() * kx, axis=0).real, np.sum(x.conj() * x, axis=0).real


def _mode_parts(k: np.ndarray, entries: np.ndarray, part: np.ndarray, first: np.ndarray):
    # Scalar modes' parts: entries are their members' position entries, part
    # numbers each entry's part and first picks each part's first entry.
    # Returns x^H K x and x^H x of that first entry as a unit x, the norm of
    # all the part's entries (its one singular value), and x.
    x = entries[first] / np.sqrt((entries[first].conj() * entries[first]).real)
    sigma = np.sqrt(np.bincount(part, (entries.conj() * entries).real, minlength=first.size))
    return (*_unit_forms(x[None], k * x[None]), sigma, x)


def _span_grams(lams: np.ndarray, ones, dense):
    """The Gram of each cluster's span, as a direct sum over its parts.

    A part is a cluster's members on one coupling component, and its span
    lies on that component's coordinates, where ``K`` is a block of its own.
    ``lams`` holds the cluster means.  ``ones`` describes, as arrays
    ``(cluster, xkx, xx, sigma)`` in cluster order, the parts whose span is
    one direction: ``x^H K x`` and ``x^H x`` of its unit direction ``x``,
    and the norm of its columns.  ``dense`` lists every other part as
    ``(cluster, K, columns)``, on the part's own coordinates.  Every
    direction whose singular value is at most ``RANK_TOL`` times the
    largest of its cluster is dropped.

    Returns one ``(gram, mu, tau, dim, sign_type, margin,
    nonpositive_directions)`` per cluster, with ``mu`` the Gram eigenvalues
    ascending and ``tau = NEUTRAL_TOL * max energy``; the Gram of each of
    the ``ones``, ``inf`` where it was dropped; and each dense part's
    ``(basis, mu, coeff)``.
    """
    cluster, xkx, xx, sigma = ones
    ranges = [(c, k, *_range(columns)) for c, k, columns in dense]
    top = np.zeros(lams.size)
    np.maximum.at(top, cluster, sigma)
    for c, _, _, s in ranges:
        top[c] = max(top[c], s[0])
    keep = sigma > RANK_TOL * top[cluster]
    lam2 = np.abs(lams[cluster]) ** 2
    g = (xkx - lam2 * xx)[keep]
    dirs = [(cluster[keep], g, (xkx + lam2 * xx)[keep])]
    ones_gram = np.full(cluster.size, np.inf)
    ones_gram[keep] = g
    ends = np.cumsum(np.bincount(cluster[keep], minlength=lams.size))
    grams = [np.diag(g[lo:hi]) for lo, hi in zip([0] + ends[:-1].tolist(), ends.tolist())]
    parts = []
    for c, k, u, s in ranges:
        # For the phase vectors v_i = (b_i, lam b_i), [v_i, v_j] is entry
        # (j, i) of B^H K B - |lam|^2 B^H B; the energy of v_i is entry (i, i)
        # of B^H K B + |lam|^2 B^H B.
        basis = u[:, s > RANK_TOL * top[c]]
        bkb = basis.conj().T @ (k @ basis)
        bb = basis.conj().T @ basis
        # Python's abs(z) ** 2, where the ones take numpy's np.abs(z) ** 2: the
        # two differ in the last bit for many z, and each route's bytes stay.
        lam2 = abs(complex(lams[c])) ** 2
        gram = (bkb - lam2 * bb).T
        gram = 0.5 * (gram + gram.conj().T)
        if not np.all(np.isfinite(gram)):
            raise IllConditionedCluster(complex(lams[c]), "non-finite Gram or zero energy scale")
        mu, coeff = np.linalg.eigh(gram)
        grams[c] = scipy.linalg.block_diag(grams[c], gram) if grams[c].size else gram
        dirs.append((np.full(mu.size, c), mu, np.real(np.diag(bkb)) + lam2 * np.real(np.diag(bb))))
        parts.append((basis, mu, coeff))

    # Every direction's Gram eigenvalue and energy, by cluster and ascending.
    cluster, mu, energy = (np.concatenate(column) for column in zip(*dirs))
    order = np.lexsort((mu, cluster))
    mu, energy = mu[order], energy[order]
    dims = np.bincount(cluster, minlength=lams.size)
    starts = np.cumsum(dims) - dims
    scale = np.maximum.reduceat(energy, starts)
    bad = ~(np.isfinite(scale) & (scale > 0.0) & np.logical_and.reduceat(np.isfinite(mu), starts))
    if np.any(bad):
        raise IllConditionedCluster(complex(lams[np.argmax(bad)]), "non-finite Gram or zero energy scale")
    tau = NEUTRAL_TOL * scale
    t = np.repeat(tau, dims)
    # The first of positive, negative and neutral that holds in all of a
    # cluster's directions, else mixed.
    tests = [np.logical_and.reduceat(test, starts) for test in (mu > t, mu < -t, np.abs(mu) <= t)]
    kind = np.argmax(np.vstack(tests + [np.ones(lams.size, dtype=bool)]), axis=0)
    margin = np.minimum.reduceat(np.abs(mu), starts) - tau
    nonpositive = np.add.reduceat(mu <= t, starts)
    spans = zip(
        grams,
        [mu[lo:hi] for lo, hi in zip(starts.tolist(), (starts + dims).tolist())],
        tau.tolist(),
        dims.tolist(),
        [("positive", "negative", "neutral", "mixed")[i] for i in kind.tolist()],
        margin.tolist(),
        nonpositive.tolist(),
    )
    return list(spans), ones_gram, parts


def classify_eigenpairs(model: SystemModel, report: spectrum.SpectrumReport) -> SignClassification:
    """Cluster the eigenvalues and sign-classify each cluster's eigenspace.

    ``report`` is the solved spectrum of ``model``.  Each cluster is
    classified over the span of its members' eigenvector positions, taken
    per coupling component: members on different components have disjoint
    supports and ``K`` is block diagonal over the components, so the span
    and its Gram are direct sums of one part per component.  The sign type
    is the inertia of that Gram, so it does not depend on how the
    eigenvectors were paired up inside the cluster.

    A part whose span is one direction takes its scalar Gram ``x^H K x -
    |lam|^2 x^H x`` from its unit position ``x``: a scalar mode's part,
    whichever of its roots are members (its span is its coordinate, and its
    Gram ``k - |lam|^2`` to rounding), and any part of one member.  All of
    them, over all clusters, are taken at once.  Only the parts of two or
    more members of one coupled block take a thin SVD of their positions, a
    Gram and an ``eigh``, one by one.  The SVD keeps the directions whose
    singular value exceeds ``RANK_TOL`` times the largest of the whole
    cluster.
    """
    values = report.eigenvalues
    clusters = spectrum.cluster_eigenvalues(values, CLUSTER_TOL)
    sizes = np.array([len(members) for members in clusters])
    flat = np.concatenate(clusters)
    means = values[flat[np.cumsum(sizes) - sizes]].astype(complex)
    for c in np.flatnonzero(sizes > 1).tolist():
        means[c] = np.mean(values[clusters[c]])
    means = np.where(np.abs(means.imag) <= SNAP_REAL_TOL * (1.0 + np.abs(means)), means.real, means)

    validation = validate(model)
    modes, blocks = validation.scalar_modes, validation.coupled_blocks
    component, column = spectrum._component_columns(report)
    # One part per cluster and component, in that order; lead is each part's
    # first member.
    components = modes.size + len(blocks)
    keys, first, part, count = np.unique(
        np.repeat(np.arange(sizes.size), sizes) * components + component[flat],
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    owner, comp = np.divmod(keys, components)
    lead, scalar = flat[first], comp < modes.size
    xkx, xx, sigma = np.zeros((3, keys.size))
    on = scalar[part]
    entries = report.mode_vectors[component[flat[on]], 0, column[flat[on]]]
    xkx[scalar], xx[scalar], sigma[scalar], _ = _mode_parts(
        modes.k[comp[scalar]], entries, (np.cumsum(scalar) - 1)[part[on]], (np.cumsum(on) - 1)[first[scalar]]
    )
    # A coupled block's one-member parts: their unit positions, block by block.
    single = np.flatnonzero(~scalar & (count == 1))
    if single.size:
        x = spectrum.eigenvectors(model, report, lead[single])[: model.n]
        sigma[single] = np.linalg.norm(x, axis=0)
        x = x / sigma[single]
        for b, block in enumerate(blocks):
            on = comp[single] == modes.size + b
            xb = x[np.ix_(block.index, on)]
            xkx[single[on]], xx[single[on]] = _unit_forms(xb, linalg.real_times(block.K, xb))
    one = scalar | (count == 1)
    dense = []
    for p in np.flatnonzero(~one).tolist():
        block = blocks[comp[p] - modes.size]
        columns = spectrum.eigenvectors(model, report, flat[part == p])[: model.n]
        dense.append((owner[p], block.K, columns[block.index]))
    spans, _, _ = _span_grams(means, (owner[one], xkx[one], xx[one], sigma[one]), dense)

    out = []
    for members, mean, (gram, mu, tau, dim, sign_type, margin, nonpositive) in zip(
        clusters, means.tolist(), spans
    ):
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
                nonpositive_directions=nonpositive,
                degenerate=margin <= 0.0,
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
    :func:`classify_eigenpairs`, per coupling component, they span the
    eigenspace.  The columns are split by the component that holds their
    rows, and columns whose rows span several components join those into
    one part.  The witness comes from the part that holds the Gram
    eigenvalue of least modulus.
    """
    lam = complex(lam)
    positions = np.asarray(positions)
    if positions.ndim != 2 or positions.shape[1] == 0:
        raise ValueError("positions must be an (n, k) matrix with k >= 1")
    validation = validate(model)
    modes, blocks, n = validation.scalar_modes, validation.coupled_blocks, model.n
    owner = np.empty(n, dtype=int)  # each coordinate's component
    owner[modes.index] = np.arange(modes.size)
    for b, block in enumerate(blocks):
        owner[block.index] = modes.size + b
    label = np.arange(modes.size + len(blocks))  # each component's part
    nonzero = positions != 0.0
    lead = owner[np.argmax(nonzero, axis=0)]
    for j in np.flatnonzero(np.any(nonzero & (owner[:, None] != lead), axis=0)).tolist():
        joined = np.unique(label[owner[nonzero[:, j]]])
        label[np.isin(label, joined)] = joined[0]
    coords_of, part = label[owner], label[lead]  # each coordinate's and column's part
    scalar = (part < modes.size) & (np.bincount(coords_of, minlength=label.size)[part] == 1)
    keys, first, inverse = np.unique(part[scalar], return_index=True, return_inverse=True)
    rows = modes.index[keys]
    entries = positions[rows[inverse], np.flatnonzero(scalar)]
    xkx, xx, sigma, units = _mode_parts(modes.k[keys], entries, inverse, first)
    dense = []
    for p in sorted(set(part[~scalar].tolist())):
        coords = np.flatnonzero(coords_of == p)
        k = model.K if coords.size == n else model.K[np.ix_(coords, coords)]
        dense.append((0, k, positions[np.ix_(coords, part == p)], coords))
    ones = (np.zeros(keys.size, dtype=int), xkx, xx, sigma)
    spans, ones_gram, parts = _span_grams(np.array([lam]), ones, [d[:3] for d in dense])
    gram, mu, tau, dim = spans[0][:4]
    min_abs = float(np.min(np.abs(mu)))
    witness = None
    if not min_abs > tau:
        # The Gram null direction, on the coordinates of the part that holds it.
        least = [np.abs(ones_gram)] + [np.abs(mu) for _, mu, _ in parts]
        p = int(np.argmin([np.min(m) if m.size else np.inf for m in least]))
        k = int(np.argmin(least[p]))
        if p == 0:
            coords, direction = rows[k : k + 1], units[k : k + 1]
        else:
            basis, _, coeff = parts[p - 1]
            coords, direction = dense[p - 1][3], basis @ coeff[:, k]
        x = np.zeros(n, dtype=direction.dtype)
        x[coords] = direction
        witness = PhaseVector(x, lam * x)
    return NondegeneracyReport(
        eigenvalue=lam,
        kernel_dim=dim,
        gram=gram,
        min_abs_eigenvalue=min_abs,
        threshold=tau,
        nondegenerate=bool(min_abs > tau),
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
    model: SystemModel, report: spectrum.SpectrumReport, classification: SignClassification
) -> Decomposition:
    """Split the spectrum into the negative-type fast branch and the rest.

    ``report`` is the solved spectrum of ``model`` and ``classification``
    its :func:`classify_eigenpairs`.  Raises
    :class:`MixedClusterObstruction` when some real cluster has mixed sign
    type, because then no invariant-subspace split by sign exists.  Real
    neutral clusters (Jordan blocks at critical damping) do not raise; they
    are routed to the slow branch and reported.  The cross-Gram is taken
    per coupling component: entries between components are exact zeros.
    """
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
