"""Independent reference computations used to cross-check the library.

Everything here deliberately avoids the code paths under test: polynomial
roots come from a hand-rolled Faddeev-LeVerrier + Durand-Kerner pipeline
instead of any eigensolver, beam mode roots from 50-digit arithmetic,
sphere minima from brute-force angular scanning or closed form, overlap
integrals from adaptive quadrature, and the spectrum of an overdamped model
from a Hermitian-definite linearization.  The text of ``report.json``
comes from a recursive writer, one call per value.  The benchmark's own
workload module is loaded here too, so tests can run its requests.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import sys

import mpmath as mp
import numpy as np
import scipy.linalg
from scipy import integrate

import specdamp as sd


# ---------------------------------------------------------------------------
# random model generator shared by the seeded suites


def random_model(rng: np.random.Generator, n: int) -> sd.SystemModel:
    """Random valid model: SPD stiffness, PSD damping of varied character."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    kvals = rng.uniform(0.2, 5.0, n)
    if n > 1 and rng.random() < 0.3:
        kvals[1] = kvals[0]
    stiff = q @ np.diag(kvals) @ q.T
    style = int(rng.integers(0, 4))
    if style == 0:
        damp = np.zeros((n, n))
    elif style == 1:
        damp = float(rng.uniform(0.1, 3.0)) * stiff
    elif style == 2:
        r = np.linalg.qr(rng.standard_normal((n, n)))[0]
        damp = r @ np.diag(rng.uniform(0.0, 4.0, n)) @ r.T
    else:
        b = rng.standard_normal((n, max(1, n - 1)))
        damp = b @ b.T
    stiff = 0.5 * (stiff + stiff.T)
    damp = 0.5 * (damp + damp.T)
    return sd.SystemModel(K=stiff, C=damp)


def wide_k_model(seed: int = 0, n: int = 12) -> sd.SystemModel:
    """The benchmark's edge-cases wide-K model: ``K`` over 1e-4..1e4.

    ``K`` has eigenvalues log-spaced over 1e-4..1e4 in a random basis, and
    each of its modes is damped at a random ratio of critical in [0.1, 2].
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    kw = np.logspace(-4.0, 4.0, n)
    zeta = rng.uniform(0.1, 2.0, n)
    stiff = (q * kw) @ q.T
    damp = (q * (2.0 * zeta * np.sqrt(kw))) @ q.T
    return sd.SystemModel(K=0.5 * (stiff + stiff.T), C=0.5 * (damp + damp.T))


def critical_blocks(rotated: bool) -> sd.SystemModel:
    """Exactly critical repeated blocks: eigenvalues -1 and -2, each in two 2 x 2 Jordan blocks.

    Unrotated the model is diagonal, four scalar modes; ``rotated`` turns it
    into one coupled 4 x 4 component by a seeded orthogonal similarity.
    """
    roots = np.repeat([1.0, 2.0], 2)
    k, c = np.diag(roots**2), np.diag(2.0 * roots)
    if rotated:
        q = np.linalg.qr(np.random.default_rng(68).standard_normal((4, 4)))[0]
        k, c = q @ k @ q.T, q @ c @ q.T
    return sd.SystemModel(K=0.5 * (k + k.T), C=0.5 * (c + c.T))


def phase_symmetry_defect(model: sd.SystemModel) -> float:
    """Asymmetry of ``J S = [[0, K^{1/2}], [K^{1/2}, C]]``, relative to its norm.

    ``S = diag(K^{1/2}, I) A diag(K^{-1/2}, I)`` is the energy-similarity
    transform of the phase operator and ``J = diag(I, -I)``; ``J S`` is
    symmetric exactly when ``A`` is self-adjoint in the Krein product.
    ``K^{1/2}`` comes from ``scipy.linalg.sqrtm``, which does not
    symmetrize its result, and ``C`` is the model's own, so the defect is
    not zero by construction.  Returns ``||J S - (J S)^T||_F / ||J S||_F``.
    """
    root = scipy.linalg.sqrtm(model.K)
    zero = np.zeros((model.n, model.n))
    js = np.block([[zero, root], [root, model.C]])
    return float(np.linalg.norm(js - js.T) / np.linalg.norm(js))


# ---------------------------------------------------------------------------
# characteristic polynomial route (independent of any eigensolver)


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    m = a.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(a, dtype=float)
    eye = np.eye(m)
    for k in range(1, m + 1):
        mk = a @ mk + coeffs[-1] * eye
        coeffs.append(float(-np.trace(a @ mk) / k))
    return np.array(coeffs)


def durand_kerner(coeffs: np.ndarray, iters: int = 400) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous iteration."""
    m = len(coeffs) - 1
    if m == 0:
        return np.array([], dtype=complex)
    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    # deterministic asymmetric starts; roots of unity can stall on
    # symmetric spectra
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(m) / m + 0.4))
    c = np.asarray(coeffs, dtype=complex)

    def poly(x):
        out = np.zeros_like(x)
        for ck in c:
            out = out * x + ck
        return out

    for _ in range(iters):
        num = poly(z)
        den = np.ones_like(z)
        for i in range(m):
            den[i] = np.prod(z[i] - np.delete(z, i))
        step = num / den
        z = z - step
        if np.max(np.abs(step)) < 1e-15 * max(1.0, float(np.max(np.abs(z)))):
            break
    return z


def polynomial_spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``a`` via the characteristic polynomial route."""
    return durand_kerner(charpoly_coefficients(np.asarray(a, dtype=float)))


# ---------------------------------------------------------------------------
# beam mode roots in 50-digit arithmetic


def beam_mode_roots(E: float, a: float, N: int) -> list[complex]:
    """Per-mode quadratic roots of the uniformly damped rod, 50 digits.

    Mode k contributes the two roots of
    ``lam^2 + a w^4 lam + E w^4 = 0`` with ``w = (k - 1/2) pi``.
    """
    with mp.workdps(50):
        roots = []
        av = mp.mpf(repr(float(a)))
        ev = mp.mpf(repr(float(E)))
        for k in range(1, N + 1):
            w4 = ((mp.mpf(k) - mp.mpf(1) / 2) * mp.pi) ** 4
            c = av * w4
            kk = ev * w4
            sq = mp.sqrt(c * c - 4 * kk)
            roots.append(complex((-c + sq) / 2))
            roots.append(complex((-c - sq) / 2))
    return roots


# ---------------------------------------------------------------------------
# energy-norm resolvent in 40-digit arithmetic


def resolvent_norm_mp(model: sd.SystemModel, lam: complex, dps: int = 40) -> float:
    """Energy-norm ``||(A - lam)^{-1}||`` as ``1 / sigma_min(B - lam)`` in mpmath.

    ``B = [[0, K^{1/2}], [-K^{1/2}, -C]]`` is the phase operator after the
    energy similarity ``diag(K^{1/2}, I)``; it is built from the float
    ``K`` and ``C`` (converted exactly), with ``K^{1/2}`` from the
    ``mp.eigsy`` eigendecomposition of ``K``, so ``K`` may be any SPD
    matrix.
    """
    n = model.n
    with mp.workdps(dps):
        z = mp.mpc(repr(lam.real), repr(lam.imag))
        stiff = mp.matrix([[mp.mpf(float(v)) for v in row] for row in model.K])
        vals, vecs = mp.eigsy(stiff)
        root = vecs * mp.diag([mp.sqrt(v) for v in vals]) * vecs.T
        shifted = mp.matrix(2 * n, 2 * n)
        for i in range(n):
            shifted[i, i] = -z
            for j in range(n):
                shifted[i, n + j] = root[i, j]
                shifted[n + i, j] = -root[i, j]
                shifted[n + i, n + j] = -mp.mpf(float(model.C[i, j]))
            shifted[n + i, n + i] -= z
        sigma = mp.svd_c(shifted, compute_uv=False)
        return float(1 / min(sigma[k] for k in range(2 * n)))


# ---------------------------------------------------------------------------
# phase-flow energies from a 40-digit matrix exponential


def flow_energies_mp(model: sd.SystemModel, x0: sd.PhaseVector, times, dps: int = 40) -> np.ndarray:
    """Energies ``x^T K x + |y|^2`` of ``exp(t A) x0`` at ascending ``times``.

    ``A = [[0, I], [-K, -C]]`` is built from the float ``K`` and ``C``
    (converted exactly) and exponentiated with ``mp.expm``, independent of
    any eigendecomposition.  The state steps from one time to the next, so
    equal increments share one exponential.
    """
    n = model.n
    with mp.workdps(dps):
        a_op = mp.matrix(2 * n, 2 * n)
        for i in range(n):
            a_op[i, n + i] = 1
            for j in range(n):
                a_op[n + i, j] = -mp.mpf(float(model.K[i, j]))
                a_op[n + i, n + j] = -mp.mpf(float(model.C[i, j]))
        stiff = mp.matrix(model.K.tolist())
        state = mp.matrix([float(v) for v in x0.stacked()])
        steps, energies, t_prev = {}, [], 0.0
        for t in times:
            dt = float(t) - t_prev
            if dt > 0.0:
                if dt not in steps:
                    steps[dt] = mp.expm(a_op * mp.mpf(dt))
                state = steps[dt] * state
            t_prev = float(t)
            x, y = state[:n, 0], state[n:, 0]
            energies.append(float((x.T * stiff * x)[0] + (y.T * y)[0]))
    return np.array(energies)


def scalar_flow_mp(k: float, c: float, t: float, dps: int = 40) -> np.ndarray:
    """``exp(t A)`` of the scalar mode ``A = [[0, 1], [-k, -c]]`` in energy coordinates.

    ``diag(sqrt(k), 1) exp(t A) diag(1 / sqrt(k), 1)`` from ``mp.expm`` of
    the float ``k``, ``c`` and ``t`` (converted exactly), rounded once.
    """
    with mp.workdps(dps):
        root = mp.sqrt(mp.mpf(k))
        flow = mp.expm(mp.matrix([[0, 1], [-mp.mpf(k), -mp.mpf(c)]]) * mp.mpf(t))
        return np.array([[float(flow[0, 0]), float(flow[0, 1] * root)], [float(flow[1, 0] / root), float(flow[1, 1])]])


# ---------------------------------------------------------------------------
# brute-force sphere minimum for the overdamping margin (n = 2 only)


def grid_margin_n2(model: sd.SystemModel, points: int = 3600) -> float:
    """Minimum of ``(g^T W g)^2 - 4 g^T K^{-1} g`` over the unit circle.

    Dense angular scan followed by a golden-section polish of the best
    cell; independent of the library's search.
    """
    if model.n != 2:
        raise ValueError("grid oracle is for n = 2 models")
    vals_k, vecs_k = np.linalg.eigh(model.K)
    kih = vecs_k @ np.diag(vals_k**-0.5) @ vecs_k.T
    wt = kih @ model.C @ kih
    wt = 0.5 * (wt + wt.T)
    kinv = kih @ kih
    kinv = 0.5 * (kinv + kinv.T)

    def f(theta: float) -> float:
        g = np.array([np.cos(theta), np.sin(theta)])
        return float((g @ wt @ g) ** 2 - 4.0 * (g @ kinv @ g))

    thetas = np.linspace(0.0, np.pi, points, endpoint=False)
    vals = np.array([f(t) for t in thetas])
    i = int(np.argmin(vals))
    a, b = thetas[i] - np.pi / points, thetas[i] + np.pi / points
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return min(fc, fd, float(vals[i]))


# ---------------------------------------------------------------------------
# definiteness line search (overdamping sign oracle, any n)


def definiteness_minimum(model: sd.SystemModel, points: int = 240) -> float:
    """``min over t > 0`` of ``lambda_max(t^2 I - t C + K)``, polished.

    Negative exactly when some real spectral shift makes the pencil
    negative definite, which characterizes the overdamped regime.  Log
    grid plus a bounded scalar minimization of the best cell; shares no
    code with the library's tangent-cut search.
    """
    from scipy import optimize

    eye = np.eye(model.n)

    def f(u: float) -> float:
        t = np.exp(u)
        return float(np.linalg.eigvalsh(t * t * eye - t * model.C + model.K)[-1])

    us = np.linspace(np.log(1e-4), np.log(1e4), points)
    vals = [f(u) for u in us]
    i = int(np.argmin(vals))
    lo = us[max(0, i - 1)]
    hi = us[min(len(us) - 1, i + 1)]
    res = optimize.minimize_scalar(
        f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10, "maxiter": 80}
    )
    return min(float(res.fun), float(vals[i]))


# ---------------------------------------------------------------------------
# overdamping interval in 50-digit arithmetic


def overdamping_interval_mp(
    model: sd.SystemModel, g, s: float, dps: int = 50
) -> tuple[float, float]:
    """``(-4 lam_max(L(s)), f(g))`` from the float ``K``, ``C``, ``g`` and ``s``.

    ``f(g) = (g^T Wt g)^2 - 4 g^T K^{-1} g`` and ``L(s) = s^2 I + s Wt +
    K^{-1}`` with ``Wt = K^{-1/2} C K^{-1/2}``; ``K^{-1/2}`` comes from an
    mpmath symmetric eigendecomposition of ``K``.  By weak duality the true
    margin lies between the two values for any unit ``g`` and any ``s``.
    """
    n = model.n
    with mp.workdps(dps):
        stiff = mp.matrix(model.K.tolist())
        damp = mp.matrix(model.C.tolist())
        d, q = mp.eigsy(stiff)
        kih = q * mp.diag([1 / mp.sqrt(d[i]) for i in range(n)]) * q.T
        h = kih * mp.matrix([float(x) for x in g])
        w = (h.T * damp * h)[0]
        upper = w * w - 4 * (h.T * h)[0]
        sm = mp.mpf(float(s))
        pencil = sm * sm * mp.eye(n) + sm * (kih * damp * kih) + kih * kih
        top = max(mp.eigsy(pencil, eigvals_only=True))
        return float(-4 * top), float(upper)


# ---------------------------------------------------------------------------
# closed-form overdamping of modal damping C = gamma (K + I), K diagonal


def modal_overdamping(k, gamma: float) -> tuple[float, float, float]:
    """``(margin, s*, phi(s*))`` for diagonal ``K = diag(k)``, ``C = gamma (K + I)``.

    Then ``Wt = gamma (I + K^{-1})``, and a unit ``g`` enters the margin only
    through ``u = sum g_i^2 / k_i``, which ranges over ``[1/k_max, 1/k_min]``:
    ``margin = min_u gamma^2 (1 + u)^2 - 4 u``.  ``L(s)`` is diagonal with
    entries ``s^2 + gamma s + u_i (1 + gamma s)``, parabolas that all cross
    at ``s = -1/gamma``.  When ``u* = 2/gamma^2 - 1`` lies in the range, that
    crossing is the minimum of ``phi(s) = lam_max(L(s))`` (a kink) and the
    margin is ``4 (1 - 1/gamma^2)``.  Otherwise both minima sit at the
    nearer end ``u`` of the range, where ``phi`` is the smooth parabola with
    vertex ``s* = -gamma (1 + u) / 2``.
    """
    k = np.asarray(k, dtype=float)
    u_lo, u_hi = 1.0 / float(np.max(k)), 1.0 / float(np.min(k))
    u_star = 2.0 / gamma**2 - 1.0
    if u_lo <= u_star <= u_hi:
        return 4.0 * (1.0 - 1.0 / gamma**2), -1.0 / gamma, 1.0 / gamma**2 - 1.0
    u = u_hi if u_star > u_hi else u_lo
    margin = gamma**2 * (1.0 + u) ** 2 - 4.0 * u
    return margin, -0.5 * gamma * (1.0 + u), -0.25 * margin


# ---------------------------------------------------------------------------
# Hermitian-definite linearization of an overdamped model


def definite_pencil_eigenvalues(model: sd.SystemModel, sigma: float) -> np.ndarray:
    """All ``2n`` eigenvalues of ``lam^2 I + lam C + K``, ascending, via a definite pencil.

    ``A = [[-K, 0], [0, I]]`` and ``B = [[C, I], [I, 0]]`` linearize the
    QEP: ``(A - lam B) [x; lam x] = [-Q(lam) x; 0]``.  The Schur complement
    of the identity block in ``A - sigma B`` is ``-Q(sigma)``, so a
    Cholesky factorization of ``A - sigma B`` proves that ``Q(sigma)`` is
    negative definite (``numpy.linalg.LinAlgError`` otherwise).  The pencil
    ``(B, A - sigma B)`` is then Hermitian-definite with real eigenvalues
    ``theta = 1 / (lam - sigma)``.
    """
    n = model.n
    eye, zero = np.eye(n), np.zeros((n, n))
    a = np.block([[-model.K, zero], [zero, eye]])
    b = np.block([[model.C, eye], [eye, zero]])
    shifted = a - sigma * b
    np.linalg.cholesky(shifted)
    theta = scipy.linalg.eigh(b, shifted, eigvals_only=True)
    return np.sort(sigma + 1.0 / theta)


# ---------------------------------------------------------------------------
# quadrature oracle for the beam overlap integrals


def quad_overlap(j: int, k: int, lo: float, hi: float) -> float:
    """``integral 2 sin(w_j r) sin(w_k r) dr`` by adaptive quadrature."""
    wj = (j - 0.5) * np.pi
    wk = (k - 0.5) * np.pi
    val, _ = integrate.quad(
        lambda r: 2.0 * np.sin(wj * r) * np.sin(wk * r), lo, hi, limit=200
    )
    return float(val)


def _scalar_sinpi(u: float) -> float:
    m = round(u)
    s = float(np.sin(np.pi * (u - m)))
    return -s if m % 2 else s


def closed_form_overlap(j: int, k: int, lo: float, hi: float) -> float:
    """The closed-form patch overlap for one pair of 1-based modes, one call per entry.

    Same antiderivative as the library's, evaluated scalar by scalar, so a
    vectorized assembly can be compared with it bit for bit.
    """
    if j == k:
        d = 2 * j - 1
        return (hi - lo) - (_scalar_sinpi(d * hi) - _scalar_sinpi(d * lo)) / (d * np.pi)
    dm, dp = j - k, j + k - 1
    return (_scalar_sinpi(dm * hi) - _scalar_sinpi(dm * lo)) / (dm * np.pi) - (
        _scalar_sinpi(dp * hi) - _scalar_sinpi(dp * lo)
    ) / (dp * np.pi)


def closed_form_damping(spec: sd.BeamSpec) -> np.ndarray:
    """Beam ``C`` entry by entry from :func:`closed_form_overlap`.

    Each overlap is evaluated once for ``j <= k`` and mirrored, and each
    entry sums ``a * (w_j^2 * overlap * w_k^2)`` over the patches in order.
    """
    n = spec.N
    w = [(k - 0.5) * np.pi for k in range(1, n + 1)]
    w2 = [x * x for x in w]
    overlaps = []
    for p in spec.patches:
        ov = np.zeros((n, n))
        for j in range(n):
            for k in range(j, n):
                ov[j, k] = ov[k, j] = closed_form_overlap(j + 1, k + 1, p.lo, p.hi)
        overlaps.append((p.a, ov))
    damp = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            c = 0.0
            for a, ov in overlaps:
                c += a * (w2[j] * ov[j, k] * w2[k])
            damp[j, k] = c
    return 0.5 * (damp + damp.T)


# ---------------------------------------------------------------------------
# eigenvalue clustering, one comparison at a time


def cluster_eigenvalues_loop(values, cluster_tol: float) -> list[list[int]]:
    """The chain clustering rule of ``spectrum.cluster_eigenvalues`` as a plain loop.

    Same sweep order and running means; each value is compared with the
    means one by one and joins the first within ``cluster_tol * (1 + |mean|)``.
    """
    values = np.asarray(values)
    order = np.lexsort((values.imag, np.abs(values.imag), values.real))
    clusters: list[list[int]] = []
    means: list[complex] = []
    for idx in order:
        lam = complex(values[idx])
        for c, mean in enumerate(means):
            if abs(lam - mean) <= cluster_tol * (1.0 + abs(mean)):
                clusters[c].append(int(idx))
                means[c] = mean + (lam - mean) / len(clusters[c])
                break
        else:
            clusters.append([int(idx)])
            means.append(lam)
    return clusters


def cluster_sweep(values, cluster_tol: float) -> tuple[list[list[int]], np.ndarray]:
    """The whole-sweep clustering of ``spectrum.cluster_eigenvalues``, with its running means.

    Every value in ``(Re, |Im|, Im)`` order is compared with the running
    means of all clusters made so far, in one array step, and joins the
    first within ``cluster_tol * (1 + |mean|)``; the mean is updated in
    Python complex arithmetic.  Returns the clusters and their means.
    """
    values = np.asarray(values)
    order = np.lexsort((values.imag, np.abs(values.imag), values.real))
    clusters: list[list[int]] = []
    means = np.empty(values.shape[0], dtype=complex)
    for idx in order.tolist():
        lam = complex(values[idx])
        current = means[: len(clusters)]
        hits = np.flatnonzero(np.abs(lam - current) <= cluster_tol * (1.0 + np.abs(current)))
        if hits.size:
            c = int(hits[0])
            clusters[c].append(idx)
            mean = complex(means[c])
            means[c] = mean + (lam - mean) / len(clusters[c])
        else:
            means[len(clusters)] = lam
            clusters.append([idx])
    return clusters, means[: len(clusters)]


# ---------------------------------------------------------------------------
# the resolvent bracket


def resolvent_bracket_violations(model, report, samples, rtol: float = 1e-12) -> np.ndarray:
    """Positions of the scan samples outside ``[1/d, kappa/d] * (1 -+ rtol)``.

    ``samples`` are a resolvent scan's ``(lam, norm, product)``; ``d`` is
    the distance from ``lam`` to the solved spectrum and ``kappa`` the
    Riesz number of ``report``.  For a diagonalizable phase operator
    ``R_E(lam) = V_E (L - lam)^{-1} V_E^{-1}`` in the energy norm, so
    ``1/d <= ||R_E|| <= kappa/d`` (Bauer-Fike).  The bracket needs the
    spectrum and the energy basis, and no factorization of ``Q(lam)``.
    """
    kappa = sd.energy_basis(model, report).condition_number
    lams = np.array([lam for lam, _, _ in samples])
    norms = np.array([norm for _, norm, _ in samples])
    dist = np.min(np.abs(report.eigenvalues[None, :] - lams[:, None]), axis=1)
    return np.flatnonzero((norms < (1.0 - rtol) / dist) | (norms > (1.0 + rtol) * kappa / dist))


# ---------------------------------------------------------------------------
# multiset comparison


def multiset_distance(got, want) -> float:
    """Worst relative distance under greedy nearest matching of multisets."""
    got = sorted((complex(z) for z in got), key=lambda z: (z.real, z.imag))
    rest = [complex(z) for z in want]
    if len(got) != len(rest):
        return np.inf
    worst = 0.0
    for z in got:
        j = min(range(len(rest)), key=lambda i: abs(rest[i] - z))
        worst = max(worst, abs(rest[j] - z) / (1.0 + abs(rest[j])))
        rest.pop(j)
    return worst


# ---------------------------------------------------------------------------
# report.json text


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def emit_json(obj, indent: int = 0) -> str:
    """Reference writer for report.json, one recursive call per value.

    Sorted keys, a two-space indent, floats as ``.17g`` and the non-finite
    ones as ``NaN``, ``Infinity`` and ``-Infinity``.  Takes plain values:
    dicts, lists, tuples, arrays and scalars, numpy's among them.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return emit_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return emit_json(obj.tolist(), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {emit_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# benchmark requests


def edge_case_models(seed: int, names=None) -> dict:
    """The benchmark's edge-cases generic models of ``seed``, built by its own code.

    Keyed by name (``n1``, ``near-critical-above``, ...); ``names``, when
    given, keeps only those.  The beam request is left out.
    """
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        requests = benchmark_workloads().build("edge-cases", seed, tmp)
    models = {}
    for r in requests:
        name = r.rid[: -len("-analyze")]
        if r.kind == "analyze" and not name.startswith("rod-") and (names is None or name in names):
            models[name] = sd.SystemModel(K=r.K, C=r.C)
    return models


def benchmark_workloads():
    """``perfbench/workloads.py``, loaded once by file path."""
    workloads = sys.modules.get("perfbench_workloads")
    if workloads is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads
