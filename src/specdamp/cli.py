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

Exit codes: 0 success, 1 a checked condition fails, 2 invalid model,
malformed config or an output that cannot be written, 3 numerical
failure.  The config schema is strict: unknown keys anywhere are
rejected.  All floats are serialized with 17 significant digits so
reports round-trip bit-exactly, and identical config yields
byte-identical outputs.  Files are written atomically (temp
file then rename).  No computation is random: ``--seed N`` and an integer
config ``"seed"`` have no effect, and stay accepted because the benchmark's
workloads pass them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

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

_SIGN_COLORS = {
    "positive": "#1f77b4",
    "negative": "#d62728",
    "neutral": "#7f7f7f",
    "mixed": "#ff7f0e",
}
SVG_WIDTH, SVG_MARGIN = 640, 56


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


def _fmt_floats(values: np.ndarray) -> list[str]:
    # _fmt_float of each value, with one format call per finite value.
    out = [format(x, ".17g") for x in values.tolist()]
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        out[i] = _fmt_float(values[i])
    return out


class _Table(dict):
    """A JSON array of objects, held by key: ``table[key][i]`` is object ``i``'s value."""


def _table(items, names: str) -> _Table:
    # One object per item, key k holding its attribute k.
    return _Table({k: [getattr(x, k) for x in items] for k in names.split()})


def _fields(obj, names: str) -> dict:
    return {k: getattr(obj, k) for k in names.split()}


# The text of every value of a list whose values all have one of these types.
_KIND_TEXT = {int: str, str: encode_basestring_ascii, bool: lambda b: "true" if b else "false"}


def _json_list(cells: Iterable[str], indent: int) -> str:
    inner = "  " * (indent + 1)
    # No JSON text is empty, so an empty join is an empty list.
    text = f",\n{inner}".join(cells)
    return f"[\n{inner}{text}\n" + "  " * indent + "]" if text else "[]"


def _table_cells(table: _Table, indent: int) -> Iterator[str]:
    # One row template for the whole table, filled from one list of texts
    # per key; the rows are made as the caller joins them.
    keys = sorted(table)
    inner = "  " * (indent + 1)
    names = [encode_basestring_ascii(str(k)).replace("{", "{{").replace("}", "}}") for k in keys]
    row = "{{\n" + ",\n".join(f"{inner}{k}: {{}}" for k in names) + "\n" + "  " * indent + "}}"
    return map(row.format, *[_cells(table[k], indent + 1) for k in keys])


def _cells(values, indent: int) -> Iterable[str]:
    """The JSON text of each of ``values``, as the items of a list at ``indent``.

    A column of floats takes one ``_fmt_floats`` call, and so does a list
    of 1-D float arrays (one per cluster, say) in all; a list of one other
    type takes one mapped call.  Only a list of mixed values is written
    value by value.
    """
    if isinstance(values, _Table):
        return _table_cells(values, indent)
    if isinstance(values, np.ndarray):
        if values.ndim == 1 and values.dtype.kind == "f":
            return _fmt_floats(values)
        if values.ndim == 1 and values.dtype.kind == "c":
            return _table_cells(_Table(re=values.real, im=values.imag), indent)
        values = values.tolist()
    if len(values) == 1:
        return [_json_value(values[0], indent)]
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return _fmt_floats(np.array(values, dtype=float))
    if kinds <= {complex, np.complex128}:
        return _cells(np.array(values, dtype=complex), indent)
    if len(kinds) == 1 and (kind := kinds.pop()) in _KIND_TEXT:
        return list(map(_KIND_TEXT[kind], values))
    if all(isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype.kind == "f" for v in values):
        ends = np.cumsum([v.size for v in values]).tolist()
        flat = _fmt_floats(np.concatenate(values))
        return [_json_list(flat[a:b], indent) for a, b in zip([0] + ends, ends)]
    return [_json_value(v, indent) for v in values]


def _json_value(obj, indent: int = 0) -> str:
    """The JSON text of ``obj``: sorted keys, a two-space indent, ``.17g``
    floats and the tokens ``NaN``, ``Infinity`` and ``-Infinity``."""
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple, np.ndarray, _Table)):
        return _json_list(_cells(obj, indent + 1), indent)
    if isinstance(obj, dict):
        return next(_table_cells(_Table({k: [v] for k, v in obj.items()}), indent)) if obj else "{}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f".tmp-specdamp-{os.urandom(8).hex()}")
        try:
            # Mode 0o666 with the umask applied by the kernel, as open() gives.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a double") from None


def _parse_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ConfigError(f"{where} must be an array of arrays")
    # bool is a subclass of int, but not one of these types.
    if not {type(v) for row in rows for v in row} <= {int, float}:
        raise ConfigError(f"{where} must be a number")
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"{where} must be square")
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError:
        raise ConfigError(f"{where} has an entry too large for a double") from None


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
        alpha = _as_number(cfg["alpha"], '"alpha"')
        model, proxy = perturbed_kelvin_voigt(
            _parse_matrix(cfg["K"], '"K"'), alpha, _parse_matrix(cfg["B"], '"B"')
        )
        return model, {
            "type": "perturbed",
            "n": model.n,
            "alpha": alpha,
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


def _spectrum_section(report: spectrum.SpectrumReport) -> dict:
    values = report.eigenvalues
    return {
        "eigenvalues": _Table(re=values.real, im=values.imag, residual=report.residuals),
        "bound": _fields(report.bound, "norm_ainv norm_ainv_d value"),
        **_fields(report, "min_abs max_real"),
    }


def _krein_section(
    model: SystemModel, report: spectrum.SpectrumReport, clf: krein.SignClassification
) -> dict:
    clusters = _table(
        clf.clusters,
        "eigenvalue size kernel_dim jordan_defect sign_type margin neutral_threshold"
        " nonpositive_directions degenerate gram_eigenvalues",
    )
    try:
        decomposition = _fields(
            krein.decompose(model, report, clf),
            "h_prime h_doubleprime m_cut cross_gram_norm orthogonal hprime_definiteness"
            " neutral_real_eigenvalues",
        )
    except krein.MixedClusterObstruction as exc:
        decomposition = {"obstruction": str(exc)}
    return {"clusters": clusters, "decomposition": decomposition}


def _conditions_section(rep: conditions.ConditionReport) -> dict:
    cii = _table(rep.condition_ii, "mu candidate_eigenvalue nearest_distance verdict")
    cii["gram_min_abs_eig"] = [
        None if v.nondegeneracy is None else v.nondegeneracy.min_abs_eigenvalue
        for v in rep.condition_ii
    ]
    c3, pt, thresholds = rep.condition_iii, rep.patch_thresholds, None
    if pt is not None:
        entries = _table(
            pt.entries,
            "a lo hi threshold_inv_sqrt_modulus threshold_sqrt_modulus threshold_gap"
            " above_inv_sqrt above_sqrt above_gap",
        )
        entries["from"], entries["to"] = entries.pop("lo"), entries.pop("hi")
        thresholds = {"nonreal_count": pt.nonreal_count, "entries": entries}
    return {
        "overdamping": _fields(
            rep.overdamping,
            "margin overdamped certificate_s certificate_value definite_point_exists",
        ),
        "condition_ii": cii,
        "condition_iii": None if c3 is None else _fields(c3, "lhs rhs holds"),
        "patch_thresholds": thresholds,
        "equivalence_constants": dict(zip(("gamma", "alpha"), rep.equivalence_constants)),
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
    lam, norm, product = zip(*scan.samples)
    lam = np.array(lam, dtype=complex)
    return {
        "resolvent_scan": {
            "samples": _Table(re=lam.real, im=lam.imag, norm=norm, product=product),
            **_fields(scan, "fitted_M tail_slope products_bounded sector_angle sectorial"),
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
    acc = spectrum.accumulation_experiment(model.beam, ACCUMULATION_ORDERS)
    return _fields(acc, "orders points epsilon counts nearest counts_nondecreasing")


# ---------------------------------------------------------------------------
# CSV and SVG emitters


def _cluster_of(clf: krein.SignClassification, size: int) -> list[int]:
    # The position in clf.clusters of each eigenvalue's cluster.
    of = [0] * size
    for k, c in enumerate(clf.clusters):
        for i in c.member_indices:
            of[i] = k
    return of


def _eigenvalue_csv(
    report: spectrum.SpectrumReport, clf: krein.SignClassification, cluster_of: list[int]
) -> str:
    # Numbers and sign types: no field needs CSV quoting.
    # Each cluster's min |gram eigenvalue|, all clusters in one reduction.
    grams = [c.gram_eigenvalues for c in clf.clusters]
    starts = np.cumsum([0] + [g.size for g in grams[:-1]])
    gram_min = _fmt_floats(np.minimum.reduceat(np.abs(np.concatenate(grams)), starts))
    tails = [f"{c.sign_type},{c.jordan_defect},{g}" for c, g in zip(clf.clusters, gram_min)]
    values = report.eigenvalues
    rows = zip(
        _fmt_floats(values.real), _fmt_floats(values.imag), _fmt_floats(report.residuals), cluster_of
    )
    text = "".join(f"{i},{a},{b},{r},{tails[k]}\r\n" for i, (a, b, r, k) in enumerate(rows))
    return "index,re_lambda,im_lambda,residual,sign_type,jordan_defect,gram_min_eig\r\n" + text


def _symlog(v: np.ndarray, thr: float) -> np.ndarray:
    return np.sign(v) * np.log10(1.0 + np.abs(v) / thr)


def _svg_plot(height, title, x_range, y_range, body, ticks, labels) -> str:
    # A titled plot frame.  body(px, py) draws inside it through the maps
    # from plot to pixel coordinates, which take floats or arrays; ticks
    # holds the text of an x and a y tick at a plot coordinate, and labels
    # the two axis labels.
    width, margin = SVG_WIDTH, SVG_MARGIN
    (x_lo, x_hi), (y_lo, y_hi) = x_range, y_range

    def px(u):
        return margin + (u - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    out += body(px, py)
    x_tick, y_tick = ticks
    for frac in (0.0, 0.5, 1.0):
        u = x_lo + frac * (x_hi - x_lo)
        v = y_lo + frac * (y_hi - y_lo)
        out.append(
            f'<text x="{px(u):.2f}" y="{height - margin + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x_tick(u)}</text>'
        )
        out.append(
            f'<text x="{margin - 6}" y="{py(v) + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{y_tick(v)}</text>'
        )
    x_label, y_label = labels
    out.append(
        f'<text x="{width / 2:.1f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{y_label}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs.tolist(), ys.tolist()))


def _svg_spectrum(
    model: SystemModel,
    report: spectrum.SpectrumReport,
    clf: krein.SignClassification,
    cluster_of: list[int],
) -> str:
    height = 480
    top, bottom = SVG_MARGIN, height - SVG_MARGIN
    values = report.eigenvalues
    mags = np.abs(np.concatenate([values.real, values.imag]))
    mags = mags[mags > 0.0]
    thr = max(1e-12, 0.1 * float(np.median(mags))) if mags.size else 1.0

    xs = _symlog(values.real, thr)
    ys = _symlog(values.imag, thr)
    bound = report.bound.value
    disk = _symlog(np.array([-bound, bound]), thr)
    # The beam's accumulation points -E/a, one per damping value.
    acc = np.empty(0)
    if model.beam is not None:
        acc = _symlog(np.array([-model.beam.E / a for a in model.beam.damping_values]), thr)
    all_x = np.concatenate([xs, disk, acc])
    all_y = np.concatenate([ys, disk])
    x_lo, x_hi = float(np.min(all_x)), float(np.max(all_x))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    x_pad = 0.05 * (x_hi - x_lo) or 1.0
    y_pad = 0.05 * (y_hi - y_lo) or 1.0

    def body(px, py) -> list[str]:
        zx, zy = px(0.0), py(0.0)
        out = [
            f'<line x1="{zx:.2f}" y1="{top}" x2="{zx:.2f}" y2="{bottom}" '
            f'stroke="#bbb" stroke-width="0.7"/>',
            f'<line x1="{SVG_MARGIN}" y1="{zy:.2f}" x2="{SVG_WIDTH - SVG_MARGIN}" y2="{zy:.2f}" '
            f'stroke="#bbb" stroke-width="0.7"/>',
        ]
        # Spectrum-free disk |lambda| = bound, drawn as a transformed polyline.
        theta = np.linspace(0.0, 2.0 * np.pi, 121)
        cx = _symlog(bound * np.cos(theta), thr)
        cy = _symlog(bound * np.sin(theta), thr)
        out.append(
            f'<polyline points="{_points(px(cx), py(cy))}" fill="none" stroke="#2ca02c" '
            f'stroke-width="1" stroke-dasharray="4 3"/>'
        )
        out += [
            f'<line x1="{u:.2f}" y1="{top}" x2="{u:.2f}" y2="{bottom}" stroke="#9467bd" '
            f'stroke-width="1" stroke-dasharray="2 3"/>'
            for u in px(acc).tolist()
        ]
        colors = [_SIGN_COLORS[c.sign_type] for c in clf.clusters]
        out += [
            f'<circle cx="{u:.2f}" cy="{v:.2f}" r="3.5" fill="{colors[k]}" fill-opacity="0.8"/>'
            for u, v, k in zip(px(xs).tolist(), py(ys).tolist(), cluster_of)
        ]
        for k, (name, color) in enumerate(sorted(_SIGN_COLORS.items())):
            lx, ly = SVG_WIDTH - SVG_MARGIN - 110, SVG_MARGIN + 14 + 16 * k
            out.append(f'<circle cx="{lx}" cy="{ly}" r="4" fill="{color}"/>')
            out.append(
                f'<text x="{lx + 10}" y="{ly + 4}" font-family="sans-serif" '
                f'font-size="11">{name}</text>'
            )
        return out

    def tick(u: float) -> str:
        return f"{np.sign(u) * thr * (10.0 ** abs(u) - 1.0):.3g}"

    return _svg_plot(
        height,
        "spectrum (symlog axes, colored by sign type)",
        (x_lo - x_pad, x_hi + x_pad),
        (y_lo - y_pad, y_hi + y_pad),
        body,
        (tick, tick),
        ("Re", "Im"),
    )


def _svg_energy(times: np.ndarray, energies: np.ndarray, method: str) -> str:
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

    def body(px, py) -> list[str]:
        return [
            f'<polyline points="{_points(px(times), py(ys))}" fill="none" stroke="#1f77b4" '
            f'stroke-width="1.6"/>'
        ]

    return _svg_plot(
        400,
        f"energy decay ({method})",
        (t_lo, t_hi),
        (y_lo, y_hi),
        body,
        (lambda t: f"{t:.3g}", lambda v: f"1e{v:.2f}"),
        ("t", "energy (log10)"),
    )


# ---------------------------------------------------------------------------
# subcommands


def _report_doc(model, echo, analyses, report, clf) -> dict:
    # The document that report.json holds, one section per analysis asked for.
    doc: dict = {"model": echo, "analyses": sorted(set(analyses))}
    names = "RESIDUAL_TOL SNAP_REAL_TOL CLUSTER_TOL NEUTRAL_TOL ORTH_TOL RANK_TOL"
    doc["tolerances"] = {name.lower(): getattr(tolerances, name) for name in names.split()}
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
    return doc


def run_analyze(config_path: str, out_dir: str) -> int:
    """Run the analyses requested in the config; write report files."""
    cfg = _load_config(config_path)
    model, echo = _build_model(cfg["model"])
    analyses = cfg["analyses"]
    if "accumulation" in analyses and model.beam is None:
        raise ConfigError('"accumulation" analysis requires a beam model')

    report = spectrum.solve_qep(model)
    clf = krein.classify_eigenpairs(model, report)
    cluster_of = _cluster_of(clf, report.eigenvalues.size)
    doc = _report_doc(model, echo, analyses, report, clf)
    _atomic_write(os.path.join(out_dir, "report.json"), _json_value(doc) + "\n")
    _atomic_write(os.path.join(out_dir, "eigenvalues.csv"), _eigenvalue_csv(report, clf, cluster_of))
    _atomic_write(
        os.path.join(out_dir, "spectrum.svg"), _svg_spectrum(model, report, clf, cluster_of)
    )
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
        weights = np.array([float(w) for w in rest.split(",")])
    except ValueError as exc:
        raise ConfigError(f"could not parse x0 weights from {rest!r}") from exc
    if not np.all(np.isfinite(weights)):
        raise ConfigError(f"x0 values must be finite, got {rest!r}")
    if kind == "modal":
        if weights.size != model.n:
            raise ConfigError(f"modal x0 needs {model.n} weights, got {weights.size}")
        x0 = PhaseVector(weights, np.zeros(model.n))
    elif kind == "explicit":
        if weights.size != 2 * model.n:
            raise ConfigError(f"explicit x0 needs {2 * model.n} values, got {weights.size}")
        x0 = PhaseVector.from_stacked(weights)
    else:
        raise ConfigError(f"unknown x0 kind {kind!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(semigroup.energy(model, x0)):
            raise ConfigError(f"x0 {rest!r} has an energy that overflows")
    return x0


def run_simulate(config_path: str, out_dir: str, x0_spec: str, t_max: float, samples: int) -> int:
    """Integrate the configured model and write trajectory CSV + SVG."""
    cfg = _load_config(config_path)
    model, _ = _build_model(cfg["model"])
    if not (t_max > 0.0 and np.isfinite(t_max)):
        raise ConfigError("--t-max must be positive")
    if samples < 2:
        raise ConfigError("--samples must be at least 2")
    if samples * 2 * model.n > semigroup.MAX_TRAJECTORY_ENTRIES:
        raise ConfigError(
            f"--samples {samples} with 2n = {2 * model.n} asks for more than "
            f"{semigroup.MAX_TRAJECTORY_ENTRIES} trajectory entries"
        )

    report = spectrum.solve_qep(model)
    x0 = _parse_x0(x0_spec, model, report)
    times = np.linspace(0.0, float(t_max), int(samples))
    traj = semigroup.evolve(model, report, x0, times)

    # Numbers and a method name: no field needs CSV quoting.
    rows = zip(_fmt_floats(traj.times), _fmt_floats(traj.energies))
    text = "".join(f"{t},{e},{traj.method}\r\n" for t, e in rows)
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), "t,energy,method\r\n" + text)
    _atomic_write(
        os.path.join(out_dir, "energy.svg"),
        _svg_energy(traj.times, traj.energies, traj.method),
    )
    return EXIT_OK


def run_check(config_path: str) -> int:
    """Print the condition report as a table; exit 0 iff all checks hold."""
    cfg = _load_config(config_path)
    model, _ = _build_model(cfg["model"])

    report = spectrum.solve_qep(model)
    rep = conditions.condition_report(model, report)
    od = rep.overdamping
    rows: list[tuple[str, str, bool | None]] = [
        (
            "overdamping margin",
            f"{od.margin:+.6e} (certificate s* = {od.certificate_s:.6e}, "
            f"value {od.certificate_value:+.6e})",
            od.overdamped,
        )
    ]
    rows += [
        (
            f"kernel nondegeneracy at 1/mu = {v.candidate_eigenvalue:.6g}",
            f"nearest eigenvalue distance {v.nearest_distance:.3e} ({v.verdict})",
            v.verdict in ("holds", "holds-vacuously"),
        )
        for v in rep.condition_ii
    ]
    c3 = rep.condition_iii
    if c3 is not None:
        relation = "<" if c3.holds else ">="
        rows.append(("norm gap", f"{c3.lhs:.6g} {relation} {c3.rhs:.6g}", c3.holds))
    cond = f"cond = {rep.riesz_condition_number:.6e}"
    rows.append(("eigenvector basis conditioning", cond, None))
    pt = rep.patch_thresholds
    if pt is not None:
        rows += [
            (
                f"patch a = {e.a:g}",
                f"thresholds {e.threshold_inv_sqrt_modulus:.6g} / {e.threshold_sqrt_modulus:.6g}"
                f" / gap {e.threshold_gap:.6g};"
                f" above: {e.above_inv_sqrt}/{e.above_sqrt}/{e.above_gap}",
                None,
            )
            for e in pt.entries
        ]
        rows.append(("beam nonreal eigenvalues", str(pt.nonreal_count), None))

    name_w = max(len(r[0]) for r in rows)
    print(f"{'check':<{name_w}}  {'details':<58}  verdict")
    print("-" * (name_w + 70))
    failed = False
    for name, detail, ok in rows:
        verdict = "-" if ok is None else ("holds" if ok else "FAILS")
        failed = failed or ok is False
        print(f"{name:<{name_w}}  {detail:<58}  {verdict}")
    return EXIT_CONDITION_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # built once per process; parse_args keeps no state on it
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
    except OSError as exc:
        # Reading the config turns its OSError into a ConfigError, so this
        # one comes from writing the outputs.
        print(f"specdamp: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (
        linalg.LinalgError,
        conditions.OptimizerDisagreement,
        krein.IllConditionedCluster,
        semigroup.NearSpectrum,
    ) as exc:
        print(f"specdamp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
