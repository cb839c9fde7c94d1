"""Report checker: judges every artifact the benchmark gets back.

Each check has a name; ``inspect`` returns the names of the checks an
artifact set violates.  An artifact that is missing or cannot be parsed
raises :class:`ArtifactError`, which the runner counts as a failed request.
The backward error is computed here from the benchmark's own ``K`` and
``C`` and the printed eigenvalues, never taken from the report.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter

import numpy as np
import scipy.linalg

ARTIFACTS = {
    "analyze": ("report.json", "eigenvalues.csv", "spectrum.svg"),
    "simulate": ("trajectory.csv", "energy.svg"),
    "check": ("stdout.txt",),
}


class ArtifactError(Exception):
    """An expected artifact is missing or unparseable."""


def backward_errors(K: np.ndarray, C: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """QEP backward error ``sigma_min(Q(lam)) / (|lam|^2 + |lam| ||C|| + ||K||)``.

    Norms are spectral norms.
    """
    nk, nc = np.linalg.norm(K, 2), np.linalg.norm(C, 2)
    eye = np.eye(K.shape[0])
    out = np.empty(lams.shape[0])
    for i, lam in enumerate(lams):
        smin = float(scipy.linalg.svdvals((lam * lam) * eye + lam * C + K)[-1])
        a = abs(lam)
        out[i] = smin / (a * a + a * nc + nk)
    return out


def unpaired_conjugates(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Eigenvalues whose exact conjugate is missing from the multiset."""
    counts = Counter(pairs)
    return [p for p in counts if counts[p] != counts.get((p[0], -p[1]), 0)]


def check_report(report: dict, K: np.ndarray, C: np.ndarray) -> list[str]:
    """Violated invariants of one ``report.json`` (needs the spectrum section)."""
    spec = report["spectrum"]
    pairs = [(float(e["re"]), float(e["im"])) for e in spec["eigenvalues"]]
    lams = np.array([complex(re, im) for re, im in pairs])
    bad = []
    if lams.shape[0] != 2 * K.shape[0]:
        bad.append("eigenvalue_count")
    if unpaired_conjugates(pairs):
        bad.append("conjugate_closed")
    if np.any(lams.real > 0.0):
        bad.append("left_half_plane")
    if np.any(np.abs(lams) < float(spec["bound"]["value"])):
        bad.append("magnitude_bound")
    if np.max(backward_errors(K, C, lams)) > float(report["tolerances"]["residual_tol"]):
        bad.append("backward_error")
    margin = report.get("conditions", {}).get("overdamping", {}).get("margin")
    if margin is not None and margin > 0.0 and np.any(lams.imag != 0.0):
        bad.append("real_under_positive_margin")
    return bad


def overdamping_verdict(table: str) -> bool:
    """The ``check`` table's overdamping verdict (True when it holds)."""
    for line in table.splitlines():
        if line.startswith("overdamping margin"):
            verdict = line.split()[-1]
            if verdict in ("holds", "FAILS"):
                return verdict == "holds"
    raise ArtifactError("no overdamping verdict in the check table")


def _decode(arts: dict[str, bytes], name: str) -> str:
    try:
        return arts[name].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{name}: {exc!r}") from exc


def inspect(req, arts: dict[str, bytes]) -> list[str]:
    """Violated check names for one request's artifacts.

    Raises :class:`ArtifactError` when an artifact is missing or unparseable.
    """
    for name in ARTIFACTS[req.kind]:
        if name not in arts:
            raise ArtifactError(f"missing {name}")
    if req.kind == "check":
        verdict = overdamping_verdict(_decode(arts, "stdout.txt"))
        return [] if verdict == req.overdamped else ["overdamping_verdict"]
    if req.kind == "simulate":
        rows = list(csv.reader(io.StringIO(_decode(arts, "trajectory.csv"))))
        if len(rows) < 3 or rows[0] != ["t", "energy", "method"]:
            raise ArtifactError("trajectory.csv has no samples")
        try:
            [float(r[1]) for r in rows[1:]]
        except (IndexError, ValueError) as exc:
            raise ArtifactError(f"trajectory.csv: {exc!r}") from exc
        return []
    try:
        report = json.loads(_decode(arts, "report.json"))
        rows = list(csv.reader(io.StringIO(_decode(arts, "eigenvalues.csv"))))
        if len(rows) != len(report["spectrum"]["eigenvalues"]) + 1:
            raise ArtifactError("eigenvalues.csv and report.json list different spectra")
        return check_report(report, req.K, req.C)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"report.json: {exc!r}") from exc
