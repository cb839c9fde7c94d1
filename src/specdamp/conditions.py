"""Sufficient conditions for real spectrum and an eigenvector Riesz basis.

Three independently checkable conditions are implemented:

* **Overdamping margin.**  ``margin = min_{|g|=1} (g^T Wt g)^2 - 4 g^T K^{-1} g``
  with ``Wt = K^{-1/2} C K^{-1/2}``; the substitution ``g = K^{1/2} f``
  turns the classical per-direction discriminant ``(f^T C f)^2 -
  4 (f^T f)(f^T K f)`` (normalized to ``f^T K f = 1``) into this form.  A
  positive margin forces every eigenvalue real and semisimple.  It is
  computed by one convex search with a primal witness.  ``phi(s) =
  lam_max(L(s))`` with ``L(s) = s^2 I + s Wt + K^{-1}`` is a maximum of
  convex parabolas, hence convex in ``s``, and its slope comes with the top
  eigenvector, so a bracketing search finds its global minimum ``s*``,
  kinks included, and stops once the best value is within roundoff of the
  lower bound where the tangents at the bracket's ends meet.  It steps to
  the zero of the chord through the slopes of its last two points, which
  converges superlinearly at a smooth minimum, where the tangents' meeting
  point is only a bisection; at a kink, where the slope jumps and chords
  gain little, it steps to the tangents' meeting point instead.  For every
  ``s`` and unit ``g``, ``f(g) + 4 g^T L(s) g = (g^T Wt g + 2 s)^2 >= 0``
  (Duffin, 1955), so the margin lies in ``[-4 phi(s*), f(g)]``.  The witness ``g`` comes from the top eigenvectors
  at the search's final bracket: the zero of ``g^T (Wt + 2 s* I) g`` on
  their span, or one of them.  The duality gap is zero (Brickman, 1961, for
  ``n >= 3``; for ``n <= 2`` because ``f`` has no interior critical point),
  so the interval is roundoff-narrow, and the check aborts when it is not.
  ``margin > 0`` iff some ``s < 0`` makes ``L(s)`` negative definite, and
  then ``s*`` does (the hyperbolicity certificate).  ``Wt``, ``K^{-1}``
  and ``L(s)`` are direct sums over the model's coupling components, taken
  per block from the validation report and as ``c / k``, ``1 / k`` on the
  scalar modes: ``phi(s)`` is the largest of the blocks' top eigenvalues, on
  the scalar modes the top of their parabolas, and each form of the witness
  is a sum over the components.

* **Kernel nondegeneracy at the accumulation points** (condition ``ii``):
  for each essential value ``mu = -a_k / E`` of a beam's ``-K^{-1} C``, the
  reciprocal ``1/mu`` is either spectrum-free (holds vacuously) or must
  carry a nondegenerate Krein Gram.

* **Norm gap** (condition ``iii``): ``lam_min(K)^{-1/2}`` must stay below
  the smallest essential value ``min_k a_k / E`` of a beam's ``K^{-1} C``.

Only a beam model has essential values: conditions ``ii`` and ``iii`` are
checked on beam models and omitted on every other model.

The patch threshold report evaluates each beam patch coefficient against
two candidate overdamping thresholds that differ only in how the modulus
enters, ``8 / (pi^2 sqrt(E))`` and ``8 sqrt(E) / pi^2`` (equal at
``E = 1``), plus the norm-gap threshold ``4 sqrt(E) / pi^2``; read beside
the measured margin of the condition report, the data adjudicates which
modulus scaling is the true sufficient constant.  The report states no
preference.

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
from .tolerances import CLUSTER_TOL

__all__ = [
    "OptimizerDisagreement",
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

# The definiteness search stops once the best value is within CUT_ROUNDOFF
# roundoff units of the tangents' lower bound, or the bracket is that narrow,
# and after MAX_CUTS evaluations at most.
CUT_ROUNDOFF = 8.0
MAX_CUTS = 200

# The certified interval [-4 phi(s*), f(g)] may be at most CERTIFY_RTOL *
# (||Wt||^2 + 4 ||K^{-1}||) wide.  On random models with n = 1..8, the
# edge-case models, modal models at n = 256 and the two-patch rod up to
# N = 256, widths stay within 10 eps of that scale.
CERTIFY_RTOL = 1e-10


class OptimizerDisagreement(Exception):
    """The witness and the definiteness search do not bracket the margin tightly."""

    def __init__(self, margin: float, certificate_value: float):
        self.margin = margin
        self.certificate_value = certificate_value
        super().__init__(
            f"overdamping margin not certified: witness value {margin:.6e} vs "
            f"lower bound -4 phi(s*) = {-4.0 * certificate_value:.6e}"
        )


@dataclass(frozen=True)
class OverdampingReport:
    """Certified overdamping margin.

    ``certificate_s`` is the best point the bracketing search on
    ``phi(s) = lam_max(s^2 I + s Wt + K^{-1})`` evaluated, and
    ``certificate_value = phi(certificate_s)``; it doubles as the
    hyperbolicity certificate when that value is negative.  ``minimizer`` is
    the unit witness ``g`` and ``margin = f(g)``.  By weak duality the true
    margin lies in ``[-4 certificate_value, margin]``, an interval checked to
    be roundoff-narrow.  At a smooth minimum, where ``phi`` is flat,
    ``certificate_s`` itself is determined only to about ``sqrt(eps)``.
    """

    margin: float
    minimizer: np.ndarray
    overdamped: bool
    certificate_s: float
    certificate_value: float
    definite_point_exists: bool


def _component_form(x: np.ndarray, index: np.ndarray, mat: np.ndarray):
    # x^T M x on one coupling component, for a vector x or a block of
    # columns; a 1-D mat is the diagonal of the scalar modes.  A whole-model
    # block keeps the order (x^T M) x.
    xc = x if index.shape[0] == x.shape[0] else x[index]
    return (xc.T * mat if mat.ndim == 1 else xc.T @ mat) @ xc


def _margin_functional(g: np.ndarray, parts) -> float:
    w = float(sum(_component_form(g, index, wt) for index, wt, _ in parts))
    return w * w - 4.0 * float(sum(_component_form(g, index, kinv) for index, _, kinv in parts))


def _definiteness_search(parts, wt_norm: float, kinv_norm: float) -> tuple[float, float, np.ndarray]:
    # phi(s) = lam_max(s^2 I + s Wt + K^{-1}) is a maximum of upward
    # parabolas, so it is convex; with top eigenvector v its slope (a
    # subgradient at a kink) is 2 s + v^T Wt v.  The bracket [a, b] keeps
    # slope(a) < 0 < slope(b), so it holds the minimum.  The tangents at its
    # ends meet at a point where their common value bounds min phi from
    # below.  Every point with negative slope lies at or left of a and every
    # other one at or right of b, so the best point is an end.
    #
    # The next point is the zero of the chord through the slopes of the
    # last two points evaluated (the secant rule on the slope), when it lies
    # inside the bracket and the minimum looks smooth; otherwise it is the
    # tangents' meeting point, and the midpoint if rounding puts that
    # outside.  At a smooth minimum phi is nearly a parabola, whose tangents
    # meet at the bracket's midpoint but whose slope the chord follows, so
    # chords shrink the gap between the best value and the tangents' bound
    # superlinearly and tangent cuts only about fourfold.  At a kink the
    # slope jumps: chords shrink the gap only linearly, and the tangents
    # meet close to the kink.  So the minimum looks smooth after a chord
    # step that at least halved the gap, or a tangent step that cut it less
    # than tenfold.
    #
    # L(s) is a direct sum over the coupling components, the (index, Wt,
    # K^{-1}) triples of ``parts``, so phi is the largest of their top
    # eigenvalues: for the scalar modes the top of the parabolas
    # s^2 + s Wt_ii + (K^{-1})_ii, for a block the top eigenpair of its own
    # L_b(s), embedded in R^n.
    n = sum(index.shape[0] for index, _, _ in parts)

    def phi(s: float) -> tuple[float, float, np.ndarray]:
        top = (-np.inf, 0.0, None)
        for index, wt, kinv in parts:
            m = index.shape[0]
            if wt.ndim == 1:
                values = s * s + s * wt + kinv
                i = int(np.argmax(values))
                value, v = values[i], np.zeros(m)
                v[i] = 1.0
            else:
                value, v = scipy.linalg.eigh(s * s * np.eye(m) + s * wt + kinv, subset_by_index=[m - 1, m - 1])
                value, v = value[0], v[:, 0]
            if value > top[0]:
                g = np.zeros(n)
                g[index] = v
                top = (float(value), 2.0 * s + float(_component_form(v, index, wt)), g)
        return top

    a, b = -(wt_norm + np.sqrt(kinv_norm) + 1.0), 0.0
    (fa, ga, va), (fb, gb, vb) = phi(a), phi(b)
    recent = ((a, ga), (b, gb))  # the last two points evaluated, with slopes
    eps, last_gap, chorded = np.finfo(float).eps, np.inf, True
    for _ in range(MAX_CUTS):
        if gb <= 0.0:  # b is a minimizer (slope(a) < 0 holds from the start)
            break
        s = (fb - fa + ga * a - gb * b) / (ga - gb)
        lower = fa + ga * (s - a)
        # phi is evaluated to about eps * ||L(s)||, bounded here at s = a.
        scale = a * a - a * wt_norm + kinv_norm
        gap = min(fa, fb) - lower
        if gap <= CUT_ROUNDOFF * eps * scale or b - a <= CUT_ROUNDOFF * eps * -a:
            break
        (s0, g0), (s1, g1) = recent
        chord = s1 - g1 * (s1 - s0) / (g1 - g0) if g1 != g0 else s
        smooth = gap <= 0.5 * last_gap if chorded else gap > 0.1 * last_gap
        chorded = smooth and a < chord < b
        if chorded:
            s = chord
        elif not a < s < b:
            s = 0.5 * (a + b)
        fs, gs, vs = phi(s)
        recent, last_gap = (recent[1], (s, gs)), gap
        if gs < 0.0:
            a, fa, ga, va = s, fs, gs, vs
        else:
            b, fb, gb, vb = s, fs, gs, vs
    s_best, f_best = (a, fa) if fa < fb else (b, fb)

    # The witness.  f(g) = -4 g^T L(s) g whenever g^T (Wt + 2 s I) g = 0, and
    # the top eigenvectors at the ends lean to either side of that cone.  At
    # a kink the zero of the form on span{v_a, v_b} recovers the top
    # eigenspace's witness; at a smooth minimum the end the search closed in
    # on has a slope near zero, and f(v) = -4 phi + slope^2 there is already
    # within roundoff.  Each candidate is an upper bound, so the least is kept.
    candidates = [va, vb]
    if gb > 0.0 and n > 1:
        q = np.linalg.qr(np.column_stack([va, vb]))[0]
        form = sum(_component_form(q, index, wt) for index, wt, _ in parts)
        mu, u = np.linalg.eigh(form + 2.0 * s_best * (q.T @ q))
        if mu[0] < 0.0 < mu[1]:
            x, y = np.sqrt(mu[1] / (mu[1] - mu[0])), np.sqrt(-mu[0] / (mu[1] - mu[0]))
            candidates += [q @ (x * u[:, 0] + y * u[:, 1]), q @ (x * u[:, 0] - y * u[:, 1])]
    g = min(candidates, key=lambda c: _margin_functional(c, parts))
    return float(s_best), float(f_best), g


def check_overdamping(model: SystemModel) -> OverdampingReport:
    """Certify the overdamping margin by one convex search plus a witness.

    Raises :class:`OptimizerDisagreement` when the certified interval
    ``[-4 phi(s*), f(g)]`` is wider than ``CERTIFY_RTOL * (||Wt||^2 +
    4 ||K^{-1}||)``; agreement is never assumed silently.
    """
    report = validate(model)
    # Wt and K^{-1} per coupling component: the diagonals c / k and 1 / k on
    # the scalar modes, then each coupled block's matrices.
    modes = report.scalar_modes
    parts = [(modes.index, modes.c / modes.k, 1.0 / modes.k)] if modes.size else []
    for block in report.coupled_blocks:
        kinv = block.k_inv_sqrt @ block.k_inv_sqrt
        parts.append((block.index, block.weighted_damping, 0.5 * (kinv + kinv.T)))
    wt_norm = max(abs(report.gamma), abs(report.alpha))
    kinv_norm = 1.0 / report.k_min_eigenvalue

    s_star, value, g = _definiteness_search(parts, wt_norm, kinv_norm)
    margin = _margin_functional(g, parts)
    if abs(margin + 4.0 * value) > CERTIFY_RTOL * (wt_norm**2 + 4.0 * kinv_norm):
        raise OptimizerDisagreement(margin, value)
    return OverdampingReport(
        margin=margin,
        minimizer=g,
        overdamped=bool(margin > 0.0),
        certificate_s=float(s_star),
        certificate_value=float(value),
        definite_point_exists=bool(value < 0.0),
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
    model: SystemModel, report: spectrum.SpectrumReport, candidates
) -> tuple[ConditionIIVerdict, ...]:
    """Check kernel nondegeneracy at the reciprocals of candidate values.

    ``candidates`` lists real values ``mu`` (for beams, ``-a_k / E``);
    each is tested at the would-be eigenvalue ``1 / mu``, over the span of
    the solved eigenvectors within cluster tolerance of it, which
    :func:`~specdamp.krein.kernel_gram_nondegeneracy` takes per coupling
    component: on a diagonal model every part is one scalar mode's
    coordinate, and no SVD or ``eigh`` wider than one is formed.
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
        if nearest > CLUSTER_TOL * (1.0 + abs(lam)):
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
        inside = np.flatnonzero(dist <= CLUSTER_TOL * (1.0 + abs(lam)))
        positions = spectrum.eigenvectors(model, report, inside)[: model.n]
        nd = krein.kernel_gram_nondegeneracy(model, lam, positions)
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


def check_condition_iii(model: SystemModel) -> ConditionIII:
    """Compare ``lam_min(K)^{-1/2}`` against the floor ``min_k a_k / E``.

    ``model`` must be a beam model; any other has no essential values, and
    raises ``ValueError``.
    """
    spec = model.beam
    if spec is None:
        raise ValueError("condition iii needs a beam model: no other model has essential values")
    lhs = 1.0 / np.sqrt(validate(model).k_min_eigenvalue)
    rhs = min(spec.damping_values) / spec.E
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
    """Patch-wise thresholds plus the count of nonreal eigenvalues.

    ``threshold_inv_sqrt_modulus = 8 / (pi^2 sqrt(E))`` and
    ``threshold_sqrt_modulus = 8 sqrt(E) / pi^2`` are the two candidate
    sufficient constants for overdamping (identical at ``E = 1``);
    ``threshold_gap = 4 sqrt(E) / pi^2`` is the norm-gap constant.  The
    nonreal count here and the measured margin of the
    :class:`ConditionReport`'s ``overdamping`` let the numbers speak for
    themselves: if every patch clears one candidate but the margin is
    negative and nonreal eigenvalues exist, that candidate cannot be a
    sufficient constant.
    """

    entries: tuple[PatchThresholdEntry, ...]
    nonreal_count: int


def patch_threshold_report(spec: BeamSpec, report: spectrum.SpectrumReport) -> PatchThresholdReport:
    """Evaluate every patch against the closed-form thresholds.

    ``report`` is the solved spectrum of the model assembled from ``spec``.
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
    return PatchThresholdReport(entries=entries, nonreal_count=nonreal)


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
    with ``gamma x^T K x <= x^T C x <= alpha x^T K x``.  Outside roundoff of
    zero a positive margin comes with a definiteness certificate: the
    certified interval holds both.  The hyperbolicity certificate is
    ``overdamping.certificate_s`` when ``overdamping.definite_point_exists``.
    """

    overdamping: OverdampingReport
    condition_ii: tuple[ConditionIIVerdict, ...]
    condition_iii: ConditionIII | None
    patch_thresholds: PatchThresholdReport | None
    equivalence_constants: tuple[float, float]
    riesz_condition_number: float


def condition_report(model: SystemModel, report: spectrum.SpectrumReport) -> ConditionReport:
    """Assemble the full condition report for one model.

    ``report`` is the solved spectrum of ``model``.  On a beam model
    conditions ``ii`` (at ``-a_k / E``) and ``iii`` and the patch thresholds
    come from the patch data; on any other model, which has no essential
    values, those sections are empty.
    """
    od = check_overdamping(model)
    beam = model.beam
    cii: tuple[ConditionIIVerdict, ...] = ()
    ciii = thresholds = None
    if beam is not None:
        cii = check_condition_ii(model, report, [-a / beam.E for a in beam.damping_values])
        ciii = check_condition_iii(model)
        thresholds = patch_threshold_report(beam, report)
    val = validate(model)
    return ConditionReport(
        overdamping=od,
        condition_ii=cii,
        condition_iii=ciii,
        patch_thresholds=thresholds,
        equivalence_constants=(val.gamma, val.alpha),
        riesz_condition_number=riesz_basis_condition_number(model, report),
    )
