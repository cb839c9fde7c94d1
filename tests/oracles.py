"""Independent reference computations used to cross-check the library.

Everything here deliberately avoids the code paths under test: polynomial
roots come from a hand-rolled Faddeev-LeVerrier + Durand-Kerner pipeline
instead of any eigensolver, beam mode roots from 50-digit arithmetic,
sphere minima from brute-force angular scanning, and overlap integrals
from adaptive quadrature.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
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
    ``K`` and ``C`` with ``K^{1/2}`` taken entrywise, so ``K`` must be
    diagonal (as it is for beams).
    """
    stiff, damp, n = model.K, model.C, model.n
    if np.any(stiff != np.diag(np.diag(stiff))):
        raise ValueError("resolvent_norm_mp needs a diagonal K")
    with mp.workdps(dps):
        z = mp.mpc(repr(lam.real), repr(lam.imag))
        shifted = mp.matrix(2 * n, 2 * n)
        for i in range(n):
            root = mp.sqrt(mp.mpf(repr(float(stiff[i, i]))))
            shifted[i, i] = -z
            shifted[i, n + i] = root
            shifted[n + i, i] = -root
            for j in range(n):
                shifted[n + i, n + j] = -mp.mpf(repr(float(damp[i, j])))
            shifted[n + i, n + i] -= z
        sigma = mp.svd_c(shifted, compute_uv=False)
        return float(1 / min(sigma[k] for k in range(2 * n)))


# ---------------------------------------------------------------------------
# brute-force sphere minimum for the overdamping margin (n = 2 only)


def grid_margin_n2(model: sd.SystemModel, points: int = 3600) -> float:
    """Minimum of ``(g^T W g)^2 - 4 g^T K^{-1} g`` over the unit circle.

    Dense angular scan followed by a golden-section polish of the best
    cell; independent of the projected-gradient implementation.
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
    code with the projected-gradient margin.
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
