"""Batch front end: parse a model config, run analyses, serialize reports.

Subcommands
-----------
``specdamp analyze --config cfg.json [--out DIR]``
    Runs the requested analyses and writes ``report.json``,
    ``eigenvalues.csv``, and ``spectrum.svg`` into the output directory.

``specdamp simulate --config cfg.json [--x0 SPEC] [--t-max T]
[--samples N] [--out DIR]``
    Integrates the phase flow and writes ``trajectory.csv`` plus
    ``energy.svg``.  ``--x0`` accepts ``eigenvector:k``,
    ``modal:w1,w2,...`` (positions at rest), or ``explicit:v1,...,v2n``.

``specdamp check --config cfg.json``
    Prints the condition report as a table; exit status 0 only if every
    evaluated condition holds.

Exit codes: 0 success, 1 a checked condition fails, 2 invalid model or
malformed config, 3 numerical failure.  The config schema is strict:
unknown keys anywhere are rejected.  All floats are serialized with 17
significant digits so reports round-trip bit-exactly, and identical
config yields byte-identical outputs.  Files are written atomically (temp
file then rename).  No computation is random: ``--seed N`` and an integer
config ``"seed"`` have no effect, and stay accepted because the benchmark's
workloads pass them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import conditions, krein, linalg, semigroup, spectrum, tolerances
from .model import (
    BeamSpec,
    InvalidModel,
    Patch,
    PhaseVector,
    SystemModel,
    beam_assemble,
    perturbed_kelvin_voigt,
)

__all__ = ["main", "run_analyze", "run_simulate", "run_check", "ConfigError"]

EXIT_OK = 0
EXIT_CONDITION_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

ANALYSES = ("spectrum", "krein", "conditions", "semigroup", "accumulation")

# Accumulation runs rebuild the beam at these fixed truncation orders.
ACCUMULATION_ORDERS = (8, 16, 32)
ACCUMULATION_EPSILON = 0.01

_SIGN_COLORS = {
    "positive": "#1f77b4",
    "negative": "#d62728",
    "neutral": "#7f7f7f",
    "mixed": "#ff7f0e",
}


class ConfigError(Exception):
    """Config file is malformed or violates the schema."""


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt_float(x: float) -> str:
    # math, not numpy: a report writes thousands of floats, and a numpy
    # ufunc call on a scalar costs about 40 times as much.
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _emit_json(obj, indent: int = 0) -> str:
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
        return _emit_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit_json(obj.tolist(), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_emit_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-specdamp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config parsing (strict schema)


def _check_keys(mapping, where: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise ConfigError(f"{where} is missing keys: {missing}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _parse_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ConfigError(f"{where} must be an array of arrays")
    # bool is a subclass of int, but not one of these types.
    if not {type(v) for row in rows for v in row} <= {int, float}:
        raise ConfigError(f"{where} must be a number")
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"{where} must be square")
    return np.asarray(rows, dtype=float)


def _build_model(cfg) -> tuple[SystemModel, dict]:
    _check_keys(
        cfg,
        '"model"',
        required=("type",),
        optional=("E", "N", "patches", "K", "C", "alpha", "B"),
    )
    kind = cfg.get("type")
    if kind == "beam":
        _check_keys(cfg, 'beam "model"', required=("type", "E", "N", "patches"))
        if not isinstance(cfg["patches"], list) or not cfg["patches"]:
            raise ConfigError('"patches" must be a nonempty array')
        patches = []
        for i, p in enumerate(cfg["patches"]):
            _check_keys(p, f"patch #{i}", required=("a", "from", "to"))
            patches.append(
                Patch(
                    _as_number(p["a"], "patch a"),
                    _as_number(p["from"], 'patch "from"'),
                    _as_number(p["to"], 'patch "to"'),
                )
            )
        if isinstance(cfg["N"], bool) or not isinstance(cfg["N"], int):
            raise ConfigError('"N" must be an integer')
        spec = BeamSpec(E=_as_number(cfg["E"], '"E"'), patches=tuple(patches), N=cfg["N"])
        model = beam_assemble(spec)
        echo = {
            "type": "beam",
            "E": spec.E,
            "N": spec.N,
            "patches": [{"a": p.a, "from": p.lo, "to": p.hi} for p in spec.patches],
            "n": model.n,
        }
        return model, echo
    if kind == "generic":
        _check_keys(cfg, 'generic "model"', required=("type", "K", "C"))
        model = SystemModel(
            K=_parse_matrix(cfg["K"], '"K"'), C=_parse_matrix(cfg["C"], '"C"')
        )
        return model, {"type": "generic", "n": model.n}
    if kind == "perturbed":
        _check_keys(cfg, 'perturbed "model"', required=("type", "K", "alpha", "B"))
        model, proxy = perturbed_kelvin_voigt(
            _parse_matrix(cfg["K"], '"K"'),
            _as_number(cfg["alpha"], '"alpha"'),
            _parse_matrix(cfg["B"], '"B"'),
        )
        return model, {
            "type": "perturbed",
            "n": model.n,
            "alpha": model.perturbation_alpha,
            "perturbation_proxy": proxy,
        }
    raise ConfigError(f'unknown model type {kind!r} (expected beam/generic/perturbed)')


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    _check_keys(cfg, "config", required=("model", "analyses"), optional=("seed",))
    analyses = cfg["analyses"]
    if not isinstance(analyses, list) or not analyses:
        raise ConfigError('"analyses" must be a nonempty array')
    for a in analyses:
        if a not in ANALYSES:
            raise ConfigError(f'unknown analysis {a!r} (expected subset of {ANALYSES})')
    # Ignored like --seed, and still checked: the benchmark's configs carry it.
    seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError('"seed" must be an integer')
    return cfg


# ---------------------------------------------------------------------------
# report sections


def _complex_dict(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _spectrum_section(report: spectrum.SpectrumReport) -> dict:
    return {
        "eigenvalues": [
            {"re": lam.real, "im": lam.imag, "residual": r}
            for lam, r in zip(report.eigenvalues.tolist(), report.residuals.tolist())
        ],
        "bound": {
            "norm_ainv": report.bound.norm_ainv,
            "norm_ainv_d": report.bound.norm_ainv_d,
            "value": report.bound.value,
        },
        "min_abs": report.min_abs,
        "max_real": report.max_real,
    }


def _krein_section(
    model: SystemModel, report: spectrum.SpectrumReport, clf: krein.SignClassification
) -> dict:
    clusters = [
        {
            "eigenvalue": _complex_dict(c.eigenvalue),
            "size": c.size,
            "kernel_dim": c.kernel_dim,
            "jordan_defect": c.jordan_defect,
            "sign_type": c.sign_type,
            "margin": c.margin,
            "neutral_threshold": c.neutral_threshold,
            "nonpositive_directions": c.nonpositive_directions,
            "degenerate": c.degenerate,
            "gram_eigenvalues": [float(m) for m in c.gram_eigenvalues],
        }
        for c in clf.clusters
    ]
    try:
        dec = krein.decompose(model, report, classification=clf)
        decomposition = {
            "h_prime": list(dec.h_prime),
            "h_doubleprime": list(dec.h_doubleprime),
            "m_cut": dec.m_cut,
            "cross_gram_norm": dec.cross_gram_norm,
            "orthogonal": dec.orthogonal,
            "hprime_definiteness": dec.hprime_definiteness,
            "neutral_real_eigenvalues": [
                _complex_dict(z) for z in dec.neutral_real_eigenvalues
            ],
        }
    except krein.MixedClusterObstruction as exc:
        decomposition = {"obstruction": str(exc)}
    return {"clusters": clusters, "decomposition": decomposition}


def _conditions_section(rep: conditions.ConditionReport) -> dict:
    cii = [
        {
            "mu": v.mu,
            "candidate_eigenvalue": v.candidate_eigenvalue,
            "nearest_distance": v.nearest_distance,
            "verdict": v.verdict,
            "gram_min_abs_eig": None
            if v.nondegeneracy is None
            else v.nondegeneracy.min_abs_eigenvalue,
        }
        for v in rep.condition_ii
    ]
    ciii = None
    if rep.condition_iii is not None:
        ciii = {
            "lhs": rep.condition_iii.lhs,
            "rhs": rep.condition_iii.rhs,
            "holds": rep.condition_iii.holds,
        }
    thresholds = None
    if rep.patch_thresholds is not None:
        pt = rep.patch_thresholds
        thresholds = {
            "nonreal_count": pt.nonreal_count,
            "entries": [
                {
                    "a": e.a,
                    "from": e.lo,
                    "to": e.hi,
                    "threshold_inv_sqrt_modulus": e.threshold_inv_sqrt_modulus,
                    "threshold_sqrt_modulus": e.threshold_sqrt_modulus,
                    "threshold_gap": e.threshold_gap,
                    "above_inv_sqrt": e.above_inv_sqrt,
                    "above_sqrt": e.above_sqrt,
                    "above_gap": e.above_gap,
                }
                for e in pt.entries
            ],
        }
    od = rep.overdamping
    return {
        "overdamping": {
            "margin": od.margin,
            "overdamped": od.overdamped,
            "certificate_s": od.certificate_s,
            "certificate_value": od.certificate_value,
            "definite_point_exists": od.definite_point_exists,
        },
        "condition_ii": cii,
        "condition_iii": ciii,
        "patch_thresholds": thresholds,
        "equivalence_constants": {
            "gamma": rep.equivalence_constants[0],
            "alpha": rep.equivalence_constants[1],
        },
        "riesz_condition_number": rep.riesz_condition_number,
    }


def _default_state(model: SystemModel) -> PhaseVector:
    # Equal-weight positions at rest: deterministic and excites all modes.
    x = np.ones(model.n) / np.sqrt(model.n)
    return PhaseVector(x, np.zeros(model.n))


def _semigroup_section(model: SystemModel, report: spectrum.SpectrumReport) -> dict:
    scan = semigroup.resolvent_scan(model, report, re_offset=1.0, im_grid=np.logspace(0.0, 4.0, 25))
    x0 = _default_state(model)
    traj = semigroup.evolve(model, report, x0, np.linspace(0.0, 1.0, 21))
    drift = float(np.max(np.diff(traj.energies))) if traj.energies.size > 1 else 0.0
    probe = semigroup.smoothing_probe(model, report, x0, np.logspace(-3.0, 0.0, 13))
    return {
        "resolvent_scan": {
            "samples": [
                {"re": s[0].real, "im": s[0].imag, "norm": s[1], "product": s[2]}
                for s in scan.samples
            ],
            "fitted_M": scan.fitted_M,
            "tail_slope": scan.tail_slope,
            "products_bounded": scan.products_bounded,
            "sector_angle": scan.sector_angle,
            "sectorial": scan.sectorial,
        },
        "trajectory": {
            "method": traj.method,
            "t_max": float(traj.times[-1]),
            "initial_energy": float(traj.energies[0]),
            "final_energy": float(traj.energies[-1]),
            "max_energy_increase": drift,
        },
        "smoothing_statistic": probe,
    }


def _accumulation_section(model: SystemModel) -> dict:
    if model.beam is None:
        raise ConfigError('"accumulation" analysis requires a beam model')
    acc = spectrum.accumulation_experiment(model.beam, ACCUMULATION_ORDERS, ACCUMULATION_EPSILON)
    return {
        "orders": list(acc.orders),
        "points": list(acc.points),
        "epsilon": acc.epsilon,
        "counts": acc.counts.tolist(),
        "nearest": acc.nearest.tolist(),
        "counts_nondecreasing": acc.counts_nondecreasing,
    }


# ---------------------------------------------------------------------------
# CSV and SVG emitters


def _eigenvalue_csv(
    report: spectrum.SpectrumReport, clf: krein.SignClassification
) -> str:
    by_index: dict[int, krein.ClusterClassification] = {}
    for c in clf.clusters:
        for i in c.member_indices:
            by_index[i] = c
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(
        [
            "index",
            "re_lambda",
            "im_lambda",
            "residual",
            "sign_type",
            "jordan_defect",
            "gram_min_eig",
        ]
    )
    for i, (lam, r) in enumerate(zip(report.eigenvalues.tolist(), report.residuals.tolist())):
        c = by_index[i]
        writer.writerow(
            [
                i,
                _fmt_float(lam.real),
                _fmt_float(lam.imag),
                _fmt_float(r),
                c.sign_type,
                c.jordan_defect,
                _fmt_float(float(np.min(np.abs(c.gram_eigenvalues)))),
            ]
        )
    return buf.getvalue()


def _symlog(v: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(v) * np.log10(1.0 + np.abs(v) / thr)


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]


def _svg_spectrum(
    model: SystemModel,
    report: spectrum.SpectrumReport,
    clf: krein.SignClassification,
) -> str:
    width, height, margin = 640, 480, 56
    values = report.eigenvalues
    mags = np.abs(np.concatenate([values.real, values.imag]))
    mags = mags[mags > 0.0]
    thr = max(1e-12, 0.1 * float(np.median(mags))) if mags.size else 1.0

    xs = _symlog(values.real, thr)
    ys = _symlog(values.imag, thr)
    bound = report.bound.value
    extra_x = [_symlog(np.array([-bound, bound]), thr)]
    extra_y = [_symlog(np.array([-bound, bound]), thr)]
    if model.beam is not None:
        pts = np.array([-model.beam.E / a for a in model.beam.damping_values])
        extra_x.append(_symlog(pts, thr))
    all_x = np.concatenate([xs] + extra_x)
    all_y = np.concatenate([ys] + extra_y)
    x_lo, x_hi = float(np.min(all_x)), float(np.max(all_x))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    x_pad = 0.05 * (x_hi - x_lo) or 1.0
    y_pad = 0.05 * (y_hi - y_lo) or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(u: float) -> float:
        return margin + (u - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(u: float) -> float:
        return height - margin - (u - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    out = _svg_header(width, height, "spectrum (symlog axes, colored by sign type)")
    out.append(
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    zx, zy = px(0.0), py(0.0)
    out.append(
        f'<line x1="{zx:.2f}" y1="{margin}" x2="{zx:.2f}" y2="{height - margin}" '
        f'stroke="#bbb" stroke-width="0.7"/>'
    )
    out.append(
        f'<line x1="{margin}" y1="{zy:.2f}" x2="{width - margin}" y2="{zy:.2f}" '
        f'stroke="#bbb" stroke-width="0.7"/>'
    )

    # Spectrum-free disk |lambda| = bound, drawn as a transformed polyline.
    theta = np.linspace(0.0, 2.0 * np.pi, 121)
    cx = _symlog(bound * np.cos(theta), thr)
    cy = _symlog(bound * np.sin(theta), thr)
    path = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(cx, cy))
    out.append(
        f'<polyline points="{path}" fill="none" stroke="#2ca02c" '
        f'stroke-width="1" stroke-dasharray="4 3"/>'
    )
    if model.beam is not None:
        for a in model.beam.damping_values:
            u = px(float(_symlog(np.array([-model.beam.E / a]), thr)[0]))
            out.append(
                f'<line x1="{u:.2f}" y1="{margin}" x2="{u:.2f}" '
                f'y2="{height - margin}" stroke="#9467bd" stroke-width="1" '
                f'stroke-dasharray="2 3"/>'
            )

    by_index: dict[int, str] = {}
    for c in clf.clusters:
        for i in c.member_indices:
            by_index[i] = c.sign_type
    for i in range(values.size):
        color = _SIGN_COLORS[by_index[i]]
        out.append(
            f'<circle cx="{px(float(xs[i])):.2f}" cy="{py(float(ys[i])):.2f}" '
            f'r="3.5" fill="{color}" fill-opacity="0.8"/>'
        )

    for k, (name, color) in enumerate(sorted(_SIGN_COLORS.items())):
        lx, ly = width - margin - 110, margin + 14 + 16 * k
        out.append(f'<circle cx="{lx}" cy="{ly}" r="4" fill="{color}"/>')
        out.append(
            f'<text x="{lx + 10}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        ux = x_lo + frac * (x_hi - x_lo)
        uy = y_lo + frac * (y_hi - y_lo)
        rx = np.sign(ux) * thr * (10.0 ** abs(ux) - 1.0)
        ry = np.sign(uy) * thr * (10.0 ** abs(uy) - 1.0)
        out.append(
            f'<text x="{px(ux):.2f}" y="{height - margin + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{rx:.3g}</text>'
        )
        out.append(
            f'<text x="{margin - 6}" y="{py(uy) + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{ry:.3g}</text>'
        )
    out.append(
        f'<text x="{width / 2:.1f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">Re</text>'
    )
    out.append(
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 16 {height / 2:.1f})">Im</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _svg_energy(times: np.ndarray, energies: np.ndarray, method: str) -> str:
    width, height, margin = 640, 400, 56
    # Energies are accurate to about eps times the largest of them (two
    # evolutions that agree to roundoff differ by that much), so the log
    # axis stops there instead of at whatever rounding or underflow left;
    # 1e-300 keeps an all-zero state plottable.
    floor = max(np.finfo(float).eps * float(np.max(energies)), 1e-300)
    ys = np.log10(np.maximum(energies, floor))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    t_lo, t_hi = float(times[0]), float(times[-1])
    if t_hi - t_lo <= 0.0:
        t_hi = t_lo + 1.0

    def px(t: float) -> float:
        return margin + (t - t_lo) / (t_hi - t_lo) * (width - 2 * margin)

    def py(v: float) -> float:
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    out = _svg_header(width, height, f"energy decay ({method})")
    out.append(
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    path = " ".join(f"{px(float(t)):.2f},{py(float(v)):.2f}" for t, v in zip(times, ys))
    out.append(
        f'<polyline points="{path}" fill="none" stroke="#1f77b4" stroke-width="1.6"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        t = t_lo + frac * (t_hi - t_lo)
        v = y_lo + frac * (y_hi - y_lo)
        out.append(
            f'<text x="{px(t):.2f}" y="{height - margin + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{t:.3g}</text>'
        )
        out.append(
            f'<text x="{margin - 6}" y="{py(v) + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">1e{v:.2f}</text>'
        )
    out.append(
        f'<text x="{width / 2:.1f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">t</text>'
    )
    out.append(
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 16 {height / 2:.1f})">energy (log10)</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def run_analyze(config_path: str, out_dir: str = ".") -> int:
    """Run the analyses requested in the config; write report files."""
    cfg = _load_config(config_path)
    model, echo = _build_model(cfg["model"])
    analyses = cfg["analyses"]

    report = spectrum.solve_qep(model)
    clf = krein.classify_eigenpairs(model, report)

    doc: dict = {"model": echo, "analyses": sorted(set(analyses))}
    doc["tolerances"] = {
        "residual_tol": tolerances.RESIDUAL_TOL,
        "snap_real_tol": tolerances.SNAP_REAL_TOL,
        "cluster_tol": tolerances.CLUSTER_TOL,
        "neutral_tol": tolerances.NEUTRAL_TOL,
        "orth_tol": tolerances.ORTH_TOL,
        "rank_tol": tolerances.RANK_TOL,
    }
    if "spectrum" in analyses:
        doc["spectrum"] = _spectrum_section(report)
    if "krein" in analyses:
        doc["krein"] = _krein_section(model, report, clf)
    if "conditions" in analyses:
        doc["conditions"] = _conditions_section(conditions.condition_report(model, report))
    if "semigroup" in analyses:
        doc["semigroup"] = _semigroup_section(model, report)
    if "accumulation" in analyses:
        doc["accumulation"] = _accumulation_section(model)

    _atomic_write(os.path.join(out_dir, "report.json"), _emit_json(doc) + "\n")
    _atomic_write(os.path.join(out_dir, "eigenvalues.csv"), _eigenvalue_csv(report, clf))
    _atomic_write(os.path.join(out_dir, "spectrum.svg"), _svg_spectrum(model, report, clf))
    return EXIT_OK


def _parse_x0(
    spec_str: str, model: SystemModel, report: spectrum.SpectrumReport
) -> PhaseVector:
    kind, sep, rest = spec_str.partition(":")
    if not sep:
        raise ConfigError(
            "--x0 must look like eigenvector:k, modal:w1,..., or explicit:v1,..."
        )
    if kind == "eigenvector":
        try:
            k = int(rest)
        except ValueError as exc:
            raise ConfigError(f"eigenvector index must be an integer, got {rest!r}") from exc
        count = report.eigenvalues.size
        if not 0 <= k < count:
            raise ConfigError(f"eigenvector index {k} out of range [0, {count})")
        return PhaseVector.from_stacked(spectrum.eigenvectors(model, report, [k])[:, 0])
    try:
        weights = [float(w) for w in rest.split(",") if w != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse x0 weights from {rest!r}") from exc
    if kind == "modal":
        if len(weights) != model.n:
            raise ConfigError(f"modal x0 needs {model.n} weights, got {len(weights)}")
        return PhaseVector(np.array(weights), np.zeros(model.n))
    if kind == "explicit":
        if len(weights) != 2 * model.n:
            raise ConfigError(f"explicit x0 needs {2 * model.n} values, got {len(weights)}")
        return PhaseVector.from_stacked(np.array(weights))
    raise ConfigError(f"unknown x0 kind {kind!r}")


def run_simulate(
    config_path: str,
    out_dir: str = ".",
    x0_spec: str = "eigenvector:0",
    t_max: float = 1.0,
    samples: int = 200,
) -> int:
    """Integrate the configured model and write trajectory CSV + SVG."""
    cfg = _load_config(config_path)
    model, _ = _build_model(cfg["model"])
    if not (t_max > 0.0 and np.isfinite(t_max)):
        raise ConfigError("--t-max must be positive")
    if samples < 2:
        raise ConfigError("--samples must be at least 2")

    report = spectrum.solve_qep(model)
    x0 = _parse_x0(x0_spec, model, report)
    times = np.linspace(0.0, float(t_max), int(samples))
    traj = semigroup.evolve(model, report, x0, times)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["t", "energy", "method"])
    for t, e in zip(traj.times, traj.energies):
        writer.writerow([_fmt_float(float(t)), _fmt_float(float(e)), traj.method])
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), buf.getvalue())
    _atomic_write(
        os.path.join(out_dir, "energy.svg"),
        _svg_energy(traj.times, traj.energies, traj.method),
    )
    return EXIT_OK


def run_check(config_path: str, stream=None) -> int:
    """Print the condition report as a table; exit 0 iff all checks hold."""
    stream = stream or sys.stdout
    cfg = _load_config(config_path)
    model, _ = _build_model(cfg["model"])

    report = spectrum.solve_qep(model)
    rep = conditions.condition_report(model, report)
    rows: list[tuple[str, str, bool | None]] = []
    od = rep.overdamping
    rows.append(
        (
            "overdamping margin",
            f"{od.margin:+.6e} (certificate s* = {od.certificate_s:.6e}, "
            f"value {od.certificate_value:+.6e})",
            od.overdamped,
        )
    )
    for v in rep.condition_ii:
        ok = v.verdict in ("holds", "holds-vacuously")
        rows.append(
            (
                f"kernel nondegeneracy at 1/mu = {v.candidate_eigenvalue:.6g}",
                f"nearest eigenvalue distance {v.nearest_distance:.3e} ({v.verdict})",
                ok,
            )
        )
    if rep.condition_iii is not None:
        c3 = rep.condition_iii
        rows.append(
            (
                "norm gap",
                f"{c3.lhs:.6g} < {c3.rhs:.6g}" if c3.holds else f"{c3.lhs:.6g} >= {c3.rhs:.6g}",
                c3.holds,
            )
        )
    rows.append(
        (
            "eigenvector basis conditioning",
            f"cond = {rep.riesz_condition_number:.6e}",
            None,
        )
    )
    if rep.patch_thresholds is not None:
        pt = rep.patch_thresholds
        for e in pt.entries:
            rows.append(
                (
                    f"patch a = {e.a:g}",
                    f"thresholds {e.threshold_inv_sqrt_modulus:.6g} / "
                    f"{e.threshold_sqrt_modulus:.6g} / gap {e.threshold_gap:.6g}; "
                    f"above: {e.above_inv_sqrt}/{e.above_sqrt}/{e.above_gap}",
                    None,
                )
            )
        rows.append(
            (
                "beam nonreal eigenvalues",
                str(pt.nonreal_count),
                None,
            )
        )

    name_w = max(len(r[0]) for r in rows)
    print(f"{'check':<{name_w}}  {'details':<58}  verdict", file=stream)
    print("-" * (name_w + 70), file=stream)
    failed = False
    for name, detail, ok in rows:
        verdict = "-" if ok is None else ("holds" if ok else "FAILS")
        failed = failed or ok is False
        print(f"{name:<{name_w}}  {detail:<58}  {verdict}", file=stream)
    return EXIT_CONDITION_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdamp",
        description="Spectral analysis of damped second-order systems at finite order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("analyze", "run analyses and write report.json / eigenvalues.csv / spectrum.svg"),
        ("simulate", "integrate the phase flow and write trajectory.csv / energy.svg"),
        ("check", "print the condition table; exit 0 iff all conditions hold"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, help="ignored; kept because the benchmark passes it")
        if name in ("analyze", "simulate"):
            p.add_argument("--out", default=".", help="output directory")
        if name == "simulate":
            p.add_argument(
                "--x0",
                default="eigenvector:0",
                help="initial state: eigenvector:k | modal:w1,w2,... | explicit:v1,...",
            )
            p.add_argument("--t-max", type=float, default=1.0, help="final time")
            p.add_argument("--samples", type=int, default=200, help="number of samples")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return run_analyze(args.config, args.out)
        if args.command == "simulate":
            return run_simulate(args.config, args.out, args.x0, args.t_max, args.samples)
        return run_check(args.config)
    except (ConfigError, InvalidModel) as exc:
        print(f"specdamp: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (
        linalg.LinalgError,
        conditions.OptimizerDisagreement,
        conditions.MissingEssentialSpectrumProxy,
        krein.IllConditionedCluster,
        semigroup.NearSpectrum,
    ) as exc:
        print(f"specdamp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
