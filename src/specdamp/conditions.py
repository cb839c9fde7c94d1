"""Sufficient conditions for real spectrum and an eigenvector Riesz basis.

Three independently checkable conditions are implemented:

* **Overdamping margin.**  ``margin = min_{|g|=1} (g^T Wt g)^2 - 4 g^T K^{-1} g``
  with ``Wt = K^{-1/2} C K^{-1/2}``; the substitution ``g = K^{1/2} f``
  turns the classical per-direction discriminant ``(f^T C f)^2 -
  4 (f^T f)(f^T K f)`` (normalized to ``f^T K f = 1``) into this form.  A
  positive margin forces every eigenvalue real and semisimple.  The
  minimum is found by projected-gradient descent over the unit sphere
  from deterministic seeded restarts, stopped when its best value stalls,
  and cross-checked by an independent convex detector: ``margin > 0`` iff
  some ``s < 0`` makes ``L(s) = s^2 I + s Wt + K^{-1}`` negative definite
  (the hyperbolicity certificate).  ``phi(s) = lam_max(L(s))`` is a
  maximum of convex parabolas, hence convex in ``s``, and its slope comes
  with the top eigenvector, so a tangent-cut search finds its global
  minimum, kinks included, and stops once the best value is within
  roundoff of the tangents' lower bound.  The two detectors must agree
  outside a small band around zero or the check aborts.  ``K^{-1}``,
  ``||Wt||``, ``||K^{-1}||`` and the two deterministic starts come from
  the model's validation report.

* **Kernel nondegeneracy at candidate accumulation values** (condition
  ``ii``): for each declared essential value ``mu`` of ``-K^{-1} C``, the
  reciprocal ``1/mu`` is either spectrum-free (holds vacuously) or must
  carry a nondegenerate Krein Gram.

* **Norm gap** (condition ``iii``): ``lam_min(K)^{-1/2}`` must stay below
  the smallest declared essential value of ``K^{-1} C`` (for beams,
  ``min_k a_k / E`` in closed form).

The patch threshold report evaluates each beam patch coefficient against
two candidate overdamping thresholds that differ only in how the modulus
enters, ``8 / (pi^2 sqrt(E))`` and ``8 sqrt(E) / pi^2`` (equal at
``E = 1``), plus the norm-gap threshold ``4 sqrt(E) / pi^2``, and attaches
the measured margin so the data adjudicates which modulus scaling is the
true sufficient constant.  The report states no preference.

Functions here that take a model together with its solved spectrum or its
overdamping report, ``(model, report, ...)``, read those and never solve
the model again; the caller solves once and hands the results down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import krein, spectrum
from .model import BeamSpec, SystemModel, validate
from .tolerances import DEFAULT_TOLERANCES, ToleranceProfile

__all__ = [
    "OptimizerDisagreement",
    "MissingEssentialSpectrumProxy",
    "OverdampingReport",
    "ConditionIIVerdict",
    "ConditionIII",
    "PatchThresholdEntry",
    "PatchThresholdReport",
    "ConditionReport",
    "check_overdamping",
    "check_condition_ii",
    "check_condition_iii",
    "patch_threshold_report",
    "riesz_basis_condition_number",
    "condition_report",
]

# The sphere minimizer stops once its best value has improved by at most
# STALL_RTOL * (1 + |best|) over the last STALL_WINDOW iterations, and
# after MAX_SPHERE_ITERATIONS iterations at most.
STALL_WINDOW = 20
STALL_RTOL = 1e-14
MAX_SPHERE_ITERATIONS = 400

# The definiteness search stops once the best value is within CUT_ROUNDOFF
# roundoff units of the tangent lower bound, or the bracket is that narrow,
# and after MAX_CUTS evaluations at most.
CUT_ROUNDOFF = 8.0
MAX_CUTS = 200

# Outside this band around zero the two overdamping detectors must agree.
AGREEMENT_BAND = 1e-6


class OptimizerDisagreement(Exception):
    """The sphere minimizer and the definiteness line search disagree."""

    def __init__(self, margin: float, certificate_value: float):
        self.margin = margin
        self.certificate_value = certificate_value
        super().__init__(
            f"overdamping detectors disagree: margin {margin:.6e} vs "
            f"min-definiteness value {certificate_value:.6e}"
        )


class MissingEssentialSpectrumProxy(Exception):
    """Generic models have no essential spectrum; a proxy must be declared."""


@dataclass(frozen=True)
class OverdampingReport:
    """Result of the two-detector overdamping check.

    ``margin`` and ``minimizer`` come from the sphere minimization over
    ``restarts`` start vectors.  ``certificate_s`` is the best point the
    tangent-cut search on ``phi(s) = lam_max(s^2 I + s Wt + K^{-1})``
    evaluated, and ``certificate_value = phi(certificate_s)``; it doubles as
    the hyperbolicity certificate when that value is negative.  The value is
    within roundoff of ``min phi``; at a smooth minimum, where ``phi`` is
    flat, ``certificate_s`` itself is determined only to about
    ``sqrt(eps)``.
    """

    margin: float
    minimizer: np.ndarray
    overdamped: bool
    certificate_s: float
    certificate_value: float
    definite_point_exists: bool
    restarts: int


def _colnorm(g: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", g, g))


def _sphere_objective(g: np.ndarray, wt: np.ndarray, kinv: np.ndarray) -> np.ndarray:
    w1 = np.einsum("ij,ij->j", g, wt @ g)
    v1 = np.einsum("ij,ij->j", g, kinv @ g)
    return w1 * w1 - 4.0 * v1


def _minimize_margin(
    wt: np.ndarray,
    kinv: np.ndarray,
    wt_norm: float,
    kinv_norm: float,
    starts,
    seeds,
) -> tuple[float, np.ndarray, int]:
    n = wt.shape[0]
    cols = [np.random.default_rng(int(s)).standard_normal(n) for s in seeds]
    cols.extend(starts)
    g = np.column_stack(cols)
    g = g / _colnorm(g)

    eta = np.full(g.shape[1], 1.0 / (4.0 * wt_norm**2 + 8.0 * kinv_norm + 1.0))
    f = _sphere_objective(g, wt, kinv)
    best = [float(np.min(f))]  # best value after each iteration, nonincreasing
    for _ in range(MAX_SPHERE_ITERATIONS):
        w = wt @ g
        w1 = np.einsum("ij,ij->j", g, w)
        grad = 4.0 * w1 * w - 8.0 * (kinv @ g)
        radial = np.einsum("ij,ij->j", g, grad)
        tangent = grad - radial * g
        t2 = np.einsum("ij,ij->j", tangent, tangent)
        cand = g - eta * tangent
        cand = cand / _colnorm(cand)
        f_cand = _sphere_objective(cand, wt, kinv)
        accept = f_cand <= f - 1e-4 * eta * t2
        g = np.where(accept, cand, g)
        f = np.where(accept, f_cand, f)
        eta = np.where(accept, eta * 1.25, eta * 0.5)
        if np.max(t2) <= 1e-30 * (1.0 + wt_norm**2 + kinv_norm) ** 2:
            break
        best.append(float(np.min(f)))
        if len(best) > STALL_WINDOW and best[-STALL_WINDOW - 1] - best[-1] <= STALL_RTOL * (
            1.0 + abs(best[-1])
        ):
            break
    i = int(np.argmin(f))
    return float(f[i]), g[:, i], g.shape[1]


def _definiteness_search(
    wt: np.ndarray, kinv: np.ndarray, wt_norm: float, kinv_norm: float
) -> tuple[float, float]:
    # phi(s) = lam_max(s^2 I + s Wt + K^{-1}) is a maximum of upward
    # parabolas, so it is convex; with top eigenvector v its slope (a
    # subgradient at a kink) is 2 s + v^T Wt v.  The bracket [a, b] keeps
    # slope(a) < 0 < slope(b), so it holds the minimum.  The tangents at its
    # ends meet at the next point, and their common value there bounds
    # min phi from below.
    n = wt.shape[0]
    eye = np.eye(n)

    def phi(s: float) -> tuple[float, float]:
        value, v = scipy.linalg.eigh(s * s * eye + s * wt + kinv, subset_by_index=[n - 1, n - 1])
        return float(value[0]), 2.0 * s + float(v[:, 0] @ wt @ v[:, 0])

    a, b = -(wt_norm + np.sqrt(kinv_norm) + 1.0), 0.0
    (fa, ga), (fb, gb) = phi(a), phi(b)
    s_best, f_best = (a, fa) if fa < fb else (b, fb)
    eps = np.finfo(float).eps
    for _ in range(MAX_CUTS):
        if gb <= 0.0:  # b is a minimizer (slope(a) < 0 holds from the start)
            break
        s = (fb - fa + ga * a - gb * b) / (ga - gb)
        lower = fa + ga * (s - a)
        # phi is evaluated to about eps * ||L(s)||, bounded here at s = a.
        scale = a * a - a * wt_norm + kinv_norm
        if f_best - lower <= CUT_ROUNDOFF * eps * scale or b - a <= CUT_ROUNDOFF * eps * -a:
            break
        if not a < s < b:
            s = 0.5 * (a + b)
        fs, gs = phi(s)
        if fs < f_best:
            s_best, f_best = s, fs
        if gs < 0.0:
            a, fa, ga = s, fs, gs
        else:
            b, fb, gb = s, fs, gs
    return float(s_best), float(f_best)


def check_overdamping(
    model: SystemModel,
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
    seeds=tuple(range(32)),
) -> OverdampingReport:
    """Minimize the overdamping functional and cross-check definiteness.

    Raises :class:`OptimizerDisagreement` when the sign of the margin and
    the existence of a negative-definiteness point ``s*`` conflict while
    ``|margin| > AGREEMENT_BAND``; agreement is never assumed silently.
    """
    report = validate(model)
    wt = report.weighted_damping
    kinv = report.k_inv_sqrt @ report.k_inv_sqrt
    kinv = 0.5 * (kinv + kinv.T)
    wt_norm = max(abs(report.gamma), abs(report.alpha))
    kinv_norm = 1.0 / report.k_min_eigenvalue

    # Deterministic starts: the largest compliance and the weakest damping.
    starts = (report.k_min_eigenvector, report.gamma_eigenvector)
    margin, minimizer, restarts = _minimize_margin(wt, kinv, wt_norm, kinv_norm, starts, seeds)
    s_star, value = _definiteness_search(wt, kinv, wt_norm, kinv_norm)
    definite = value < 0.0
    if margin > AGREEMENT_BAND and not definite:
        raise OptimizerDisagreement(margin, value)
    if margin < -AGREEMENT_BAND and definite:
        raise OptimizerDisagreement(margin, value)
    return OverdampingReport(
        margin=margin,
        minimizer=minimizer,
        overdamped=bool(margin > 0.0),
        certificate_s=float(s_star),
        certificate_value=float(value),
        definite_point_exists=bool(definite),
        restarts=restarts,
    )


@dataclass(frozen=True)
class ConditionIIVerdict:
    """Nondegeneracy verdict at one candidate value ``mu``.

    ``candidate_eigenvalue`` is ``1 / mu``.  ``verdict`` is
    ``holds-vacuously`` when no computed eigenvalue sits within cluster
    tolerance of it, else ``holds``/``fails`` by Gram nondegeneracy.
    """

    mu: float
    candidate_eigenvalue: float
    nearest_distance: float
    verdict: str
    nondegeneracy: krein.NondegeneracyReport | None


def check_condition_ii(
    model: SystemModel,
    report: spectrum.SpectrumReport,
    candidates,
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
) -> tuple[ConditionIIVerdict, ...]:
    """Check kernel nondegeneracy at the reciprocals of candidate values.

    ``candidates`` lists real values ``mu`` (for beams, ``-a_k / E``);
    each is tested at the would-be eigenvalue ``1 / mu``, over the span of
    the solved eigenvectors within cluster tolerance of it.
    """
    values = report.eigenvalues
    out = []
    for mu in candidates:
        mu = float(mu)
        if mu == 0.0 or not np.isfinite(mu):
            raise ValueError("candidate values must be finite and nonzero")
        lam = 1.0 / mu
        dist = np.abs(values - lam)
        nearest = float(np.min(dist)) if dist.size else np.inf
        if nearest > tolerances.cluster_tol * (1.0 + abs(lam)):
            out.append(
                ConditionIIVerdict(
                    mu=mu,
                    candidate_eigenvalue=lam,
                    nearest_distance=nearest,
                    verdict="holds-vacuously",
                    nondegeneracy=None,
                )
            )
            continue
        inside = np.flatnonzero(dist <= tolerances.cluster_tol * (1.0 + abs(lam)))
        nd = krein.kernel_gram_nondegeneracy(
            model,
            lam,
            cluster=[report.eigenpairs[i].vector for i in inside],
            tolerances=tolerances,
        )
        out.append(
            ConditionIIVerdict(
                mu=mu,
                candidate_eigenvalue=lam,
                nearest_distance=nearest,
                verdict="holds" if nd.nondegenerate else "fails",
                nondegeneracy=nd,
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class ConditionIII:
    """Norm-gap condition: ``lhs = lam_min(K)^{-1/2} < rhs`` must hold."""

    lhs: float
    rhs: float
    holds: bool


def check_condition_iii(
    target, essential_proxy: float | None = None
) -> ConditionIII:
    """Compare ``lam_min(K)^{-1/2}`` against the essential-value floor.

    For a :class:`~specdamp.model.BeamSpec` (or a model assembled from
    one) the floor is ``min_k a_k / E`` in closed form.  Generic matrix
    models have no essential spectrum, so ``essential_proxy`` must be
    declared explicitly; otherwise
    :class:`MissingEssentialSpectrumProxy` is raised.
    """
    spec: BeamSpec | None = None
    if isinstance(target, BeamSpec):
        spec = target
        k_min = spec.E * (0.5 * np.pi) ** 4
    elif isinstance(target, SystemModel):
        spec = target.beam
        k_min = validate(target).k_min_eigenvalue
    else:
        raise TypeError(f"expected SystemModel or BeamSpec, got {type(target)!r}")

    if spec is not None:
        rhs = min(spec.damping_values) / spec.E
    elif essential_proxy is not None:
        rhs = float(essential_proxy)
    else:
        raise MissingEssentialSpectrumProxy(
            "generic models need a declared essential-value floor (none exists "
            "in finite dimension); pass essential_proxy"
        )
    lhs = 1.0 / np.sqrt(k_min)
    return ConditionIII(lhs=float(lhs), rhs=float(rhs), holds=bool(lhs < rhs))


@dataclass(frozen=True)
class PatchThresholdEntry:
    """One patch coefficient against the three closed-form thresholds."""

    a: float
    lo: float
    hi: float
    threshold_inv_sqrt_modulus: float
    threshold_sqrt_modulus: float
    threshold_gap: float
    above_inv_sqrt: bool
    above_sqrt: bool
    above_gap: bool


@dataclass(frozen=True)
class PatchThresholdReport:
    """Patch-wise thresholds plus the measured margin that adjudicates them.

    ``threshold_inv_sqrt_modulus = 8 / (pi^2 sqrt(E))`` and
    ``threshold_sqrt_modulus = 8 sqrt(E) / pi^2`` are the two candidate
    sufficient constants for overdamping (identical at ``E = 1``);
    ``threshold_gap = 4 sqrt(E) / pi^2`` is the norm-gap constant.  The
    measured ``margin`` and the count of nonreal eigenvalues let the
    numbers speak for themselves: if every patch clears one candidate but
    the margin is negative and nonreal eigenvalues exist, that candidate
    cannot be a sufficient constant.
    """

    modulus: float
    order: int
    entries: tuple[PatchThresholdEntry, ...]
    margin: float
    margin_positive: bool
    nonreal_count: int


def patch_threshold_report(
    spec: BeamSpec, overdamping: OverdampingReport, report: spectrum.SpectrumReport
) -> PatchThresholdReport:
    """Evaluate every patch against the closed-form thresholds.

    ``overdamping`` and ``report`` belong to the model assembled from ``spec``.
    """
    e = spec.E
    t_inv = 8.0 / (np.pi**2 * np.sqrt(e))
    t_sqrt = 8.0 * np.sqrt(e) / np.pi**2
    t_gap = 4.0 * np.sqrt(e) / np.pi**2
    entries = tuple(
        PatchThresholdEntry(
            a=p.a,
            lo=p.lo,
            hi=p.hi,
            threshold_inv_sqrt_modulus=float(t_inv),
            threshold_sqrt_modulus=float(t_sqrt),
            threshold_gap=float(t_gap),
            above_inv_sqrt=bool(p.a > t_inv),
            above_sqrt=bool(p.a > t_sqrt),
            above_gap=bool(p.a > t_gap),
        )
        for p in spec.patches
    )
    nonreal = int(np.count_nonzero(report.eigenvalues.imag != 0.0))
    return PatchThresholdReport(
        modulus=float(e),
        order=spec.N,
        entries=entries,
        margin=overdamping.margin,
        margin_positive=overdamping.overdamped,
        nonreal_count=nonreal,
    )


def riesz_basis_condition_number(
    model: SystemModel, report: spectrum.SpectrumReport
) -> float:
    """Condition number of the energy-normalized eigenvector matrix.

    Columns are the eigenvectors mapped through ``diag(K^{1/2}, I)`` and
    scaled to unit energy norm (:func:`~specdamp.spectrum.energy_basis`); a
    modest condition number certifies that the eigenvectors form a
    well-conditioned basis in the energy inner product (the finite-order
    analog of a Riesz basis bound).  The same number picks the modal or the
    ``expm`` path in :mod:`~specdamp.semigroup`.
    """
    return spectrum.energy_basis(model, report).condition_number


@dataclass(frozen=True)
class ConditionReport:
    """Bundle of all three condition checks plus the beam threshold table.

    ``equivalence_constants = (gamma, alpha)`` are the tight constants
    with ``gamma x^T K x <= x^T C x <= alpha x^T K x``.  When the margin
    is positive a definiteness certificate is always present (detector
    cross-check enforces it).
    """

    overdamping_margin: float
    overdamping: OverdampingReport
    hyperbolicity_certificate: float | None
    condition_ii: tuple[ConditionIIVerdict, ...]
    condition_iii: ConditionIII | None
    patch_thresholds: PatchThresholdReport | None
    equivalence_constants: tuple[float, float]
    riesz_condition_number: float


def condition_report(
    model: SystemModel,
    report: spectrum.SpectrumReport,
    essential_candidates=None,
    essential_proxy: float | None = None,
    tolerances: ToleranceProfile = DEFAULT_TOLERANCES,
    seeds=tuple(range(32)),
) -> ConditionReport:
    """Assemble the full condition report for one model.

    For beam models the candidate values ``-a_k / E`` and the norm-gap
    floor come from the patch data automatically; generic models check
    condition ``ii``/``iii`` only against explicitly supplied candidates
    and proxy (sections are omitted, not guessed, when absent).  ``report``
    is the solved spectrum of ``model``.
    """
    od = check_overdamping(model, tolerances, seeds=seeds)

    if essential_candidates is None and model.beam is not None:
        essential_candidates = [-a / model.beam.E for a in model.beam.damping_values]
    cii = (
        check_condition_ii(model, report, essential_candidates, tolerances)
        if essential_candidates
        else ()
    )

    ciii: ConditionIII | None
    if model.beam is not None:
        ciii = check_condition_iii(model)
    elif essential_proxy is not None:
        ciii = check_condition_iii(model, essential_proxy=essential_proxy)
    else:
        ciii = None

    thresholds = patch_threshold_report(model.beam, od, report) if model.beam else None
    val = validate(model)
    return ConditionReport(
        overdamping_margin=od.margin,
        overdamping=od,
        hyperbolicity_certificate=od.certificate_s if od.definite_point_exists else None,
        condition_ii=cii,
        condition_iii=ciii,
        patch_thresholds=thresholds,
        equivalence_constants=(val.gamma, val.alpha),
        riesz_condition_number=riesz_basis_condition_number(model, report),
    )
