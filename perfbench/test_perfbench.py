"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from specdamp import cli  # noqa: E402

# Overdamped (c^2 > 4k in both modes), so every eigenvalue is real.
K = [[1.0, 0.0], [0.0, 2.0]]
C = [[3.0, 0.0], [0.0, 4.0]]


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"model": {"type": "generic", "K": K, "C": C},
                               "analyses": ["spectrum", "conditions"]}))
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())


def _violations(report):
    import numpy as np

    return checker.check_report(report, np.array(K), np.array(C))


def test_clean_report_passes(clean_report):
    assert clean_report["conditions"]["overdamping"]["margin"] > 0.0
    assert _violations(clean_report) == []


def test_unpaired_complex_eigenvalue_is_flagged(clean_report):
    report = json.loads(json.dumps(clean_report))
    report["spectrum"]["eigenvalues"][0]["im"] = 1e-9
    assert "conjugate_closed" in _violations(report)


def test_nonreal_pair_under_positive_margin_is_flagged(clean_report):
    report = json.loads(json.dumps(clean_report))
    first, second = report["spectrum"]["eigenvalues"][:2]
    second["re"] = first["re"]
    first["im"], second["im"] = 1e-9, -1e-9
    flags = _violations(report)
    assert "real_under_positive_margin" in flags
    assert "conjugate_closed" not in flags


class _FlakyCli:
    """Stands in for ``specdamp.cli``: the second call changes one byte."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        payload = {"report.json": b"{}\n", "eigenvalues.csv": b"index\r\n", "spectrum.svg": b"<svg/>\n"}
        if self.calls == 2:
            payload["spectrum.svg"] = b"<svg/>\r"
        for name, data in payload.items():
            with open(os.path.join(out, name), "wb") as fh:
                fh.write(data)
        return 0


def test_one_changed_byte_fails_the_request(tmp_path):
    req = workloads.Request("r", "analyze", ["analyze", "--out", "{out}"], 0)
    runner = run.Runner(_FlakyCli(), [req], str(tmp_path), deadline=30.0)
    first, second, third = (runner.run_pass(False) for _ in range(3))
    assert first["failures"] == [] and third["failures"] == []
    assert [f[:2] for f in second["failures"]] == [("r", "repeat_bytes")]
    assert second["wall_s"] == 30.0


def _traced_calls(req, work):
    tr = tracing.Tracer()
    runner = run.Runner(cli, [req], work, 30.0, tr)
    tr.install()
    try:
        record = runner.run_pass(True)
    finally:
        tr.uninstall()
    assert record["failures"] == []
    return {name: row["calls"] for name, row in tr.aggregate().items()}, record["digests"]


def test_traced_runs_repeat_call_counts_and_bytes(tmp_path):
    reqs = workloads.build("edge-cases", 1, str(tmp_path / "configs"))
    req = next(r for r in reqs if r.rid == "n1-analyze")
    first, digest_traced = _traced_calls(req, str(tmp_path / "a"))
    second, _ = _traced_calls(req, str(tmp_path / "b"))
    assert first == second
    assert first["cli.main"] == 1 and first["spectrum.solve_qep"] >= 1
    assert first["lapack.eig"] >= 1

    untraced = run.Runner(cli, [req], str(tmp_path / "c"), 30.0).run_pass(False)
    assert untraced["digests"] == digest_traced


def test_call_counts_that_differ_between_traced_passes_are_flagged():
    steady = {"cli.main": {"calls": 1}, "spectrum.solve_qep": {"calls": 2}}
    assert run.call_count_mismatches([steady, steady]) == []
    drifted = {"cli.main": {"calls": 1}, "spectrum.solve_qep": {"calls": 3}}
    assert run.call_count_mismatches([steady, drifted]) == ["spectrum.solve_qep"]
    assert run.call_count_mismatches([steady, {"cli.main": {"calls": 1}}]) == ["spectrum.solve_qep"]


def test_layer_metrics_are_those_benchmark_json_lists():
    import types

    tr = tracing.Tracer()
    tr.spans = [[0, None, "1:r", "cli.main", 0.0, 2.0], [1, 0, "1:r", "spectrum.solve_qep", 0.5, 1.0],
                [2, None, "3:r", "cli.main", 0.0, 2.0], [3, 2, "3:r", "spectrum.solve_qep", 0.5, 1.0],
                [4, 2, "3:r", "spectrum.solve_qep", 1.0, 1.5]]
    passes = [{"traced": i % 2 == 1, "wall_s": 1.5 if i % 2 else 1.0} for i in range(4)]
    runner = types.SimpleNamespace(passes=passes, requests=["r"])
    metrics, unsteady = run.layer_metrics(runner, tr)
    assert list(metrics) == list(run.listed_metrics("per_layer"))
    assert metrics["spectrum.solve_qep.calls"] == {"value": 1, "unit": "count"}
    assert metrics["spectrum.solve_qep.per_request"]["value"] == 1.0
    assert metrics["cli.main.self_s"] == {"value": 1.25, "unit": "s"}
    assert metrics["trace.overhead_s"]["value"] == 0.5
    assert unsteady == ["spectrum.solve_qep"]


def test_tracer_restores_every_binding():
    import numpy as np
    from specdamp import semigroup, spectrum

    before = (spectrum.solve_qep, semigroup.solve_qep, np.linalg.svd, cli.main)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert semigroup.solve_qep is not before[1] and np.linalg.svd is not before[2]
    finally:
        tr.uninstall()
    assert (spectrum.solve_qep, semigroup.solve_qep, np.linalg.svd, cli.main) == before
