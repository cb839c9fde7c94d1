"""Tests for the command-line front end: schema, artifacts, exit codes."""

import collections
import csv
import functools
import importlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import specdamp
from specdamp import cli, conditions, linalg, model, semigroup, spectrum, tolerances


BEAM_CONFIG = {
    "model": {
        "type": "beam",
        "E": 1.0,
        "N": 8,
        "patches": [{"a": 2.0, "from": 0.0, "to": 1.0}],
    },
    "analyses": ["spectrum", "krein", "conditions"],
}


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


class TestAnalyze:
    def test_full_run_artifacts(self, tmp_path):
        cfg = dict(BEAM_CONFIG)
        cfg["analyses"] = ["spectrum", "krein", "conditions", "semigroup", "accumulation"]
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0

        doc = json.loads((out / "report.json").read_text())
        for section in ("model", "tolerances", "spectrum", "krein",
                        "conditions", "semigroup", "accumulation"):
            assert section in doc
        # Each value has one key: no key repeats another of the report.
        assert "seed" not in doc and "disk_radius" not in doc["spectrum"]
        assert "hyperbolicity_certificate" not in doc["conditions"]
        assert set(doc["conditions"]["patch_thresholds"]) == {"entries", "nonreal_count"}
        assert doc["model"]["type"] == "beam" and doc["model"]["n"] == 8
        names = ("RESIDUAL_TOL", "SNAP_REAL_TOL", "CLUSTER_TOL", "NEUTRAL_TOL", "ORTH_TOL", "RANK_TOL")
        assert doc["tolerances"] == {name.lower(): getattr(tolerances, name) for name in names}
        assert len(doc["spectrum"]["eigenvalues"]) == 16
        assert doc["accumulation"]["counts_nondecreasing"] is True
        assert doc["conditions"]["overdamping"]["margin"] > 0.0

        with open(out / "eigenvalues.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "re_lambda", "im_lambda", "residual",
                           "sign_type", "jordan_defect", "gram_min_eig"]
        assert len(rows) == 17
        assert {r[4] for r in rows[1:]} <= {"positive", "negative", "neutral", "mixed"}

        svg = (out / "spectrum.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["analyze", "--config", path, "--out", str(out1)]) == 0
        assert cli.main(["analyze", "--config", path, "--out", str(out2)]) == 0
        for name in ("report.json", "eigenvalues.csv", "spectrum.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_artifacts_follow_umask(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        out = tmp_path / "out"
        saved = os.umask(0o022)
        try:
            assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        finally:
            os.umask(saved)
        for name in ("report.json", "eigenvalues.csv", "spectrum.svg"):
            assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644

    def test_report_floats_roundtrip(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        out = tmp_path / "out"
        cli.main(["analyze", "--config", path, "--out", str(out)])
        raw = (out / "report.json").read_text()
        doc = json.loads(raw)
        # serialization keeps 17 significant digits: a parse/emit cycle on
        # a spot-checked float is lossless
        ev = doc["spectrum"]["eigenvalues"][0]["re"]
        assert float(cli._fmt_float(ev)) == ev

    def test_generic_model_sections(self, tmp_path):
        cfg = {
            "model": {"type": "generic", "K": [[1.0, 0.0], [0.0, 4.0]],
                      "C": [[0.5, 0.0], [0.0, 0.5]]},
            "analyses": ["spectrum", "conditions"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["conditions"]["condition_iii"] is None
        assert doc["conditions"]["condition_ii"] == []
        assert "krein" not in doc

    def test_perturbed_model_echo(self, tmp_path):
        cfg = {
            "model": {"type": "perturbed", "K": [[2.0, 0.0], [0.0, 3.0]],
                      "alpha": 0.4, "B": [[0.05, 0.0], [0.0, 0.05]]},
            "analyses": ["spectrum"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["model"]["alpha"] == 0.4
        assert doc["model"]["perturbation_proxy"] > 0.0

    def test_critical_damping_obstruction_reported_not_fatal(self, tmp_path):
        cfg = {
            "model": {"type": "generic", "K": [[1.0]], "C": [[2.0]]},
            "analyses": ["krein"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        dec = doc["krein"]["decomposition"]
        assert dec["h_prime"] == [] and dec["m_cut"] is None


class TestSchemaErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": broken')
        assert cli.main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        cfg = dict(BEAM_CONFIG)
        cfg["extra"] = 1
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    def test_unknown_analysis(self, tmp_path):
        cfg = dict(BEAM_CONFIG)
        cfg["analyses"] = ["spectral"]
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    def test_unknown_patch_key(self, tmp_path):
        cfg = json.loads(json.dumps(BEAM_CONFIG))
        cfg["model"]["patches"][0]["width"] = 0.5
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    def test_patch_gap_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(BEAM_CONFIG))
        cfg["model"]["patches"] = [{"a": 1.0, "from": 0.0, "to": 0.4},
                                   {"a": 2.0, "from": 0.6, "to": 1.0}]
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    def test_asymmetric_stiffness_cites_assumption(self, tmp_path, capsys):
        cfg = {
            "model": {"type": "generic", "K": [[1.0, 0.3], [0.0, 1.0]],
                      "C": [[0.0, 0.0], [0.0, 0.0]]},
            "analyses": ["spectrum"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2
        assert "(A1)" in capsys.readouterr().err

    def test_indefinite_stiffness_rejected(self, tmp_path):
        cfg = {
            "model": {"type": "generic", "K": [[1.0, 0.0], [0.0, -1.0]],
                      "C": [[0.0, 0.0], [0.0, 0.0]]},
            "analyses": ["spectrum"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.0, 0.0], [0.0]], '"K" must be square'),
            ([[1.0, 0.0]], '"K" must be square'),
            ([[1.0, True], [0.0, 1.0]], '"K" must be a number'),
            ([[1.0, "0"], [0.0, 1.0]], '"K" must be a number'),
        ],
        ids=["ragged", "wide", "bool", "string"],
    )
    def test_malformed_matrix_rows(self, tmp_path, capsys, rows, message):
        cfg = {
            "model": {"type": "generic", "K": rows, "C": [[0.0, 0.0], [0.0, 0.0]]},
            "analyses": ["spectrum"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_accumulation_needs_beam(self, tmp_path):
        cfg = {
            "model": {"type": "generic", "K": [[1.0]], "C": [[0.0]]},
            "analyses": ["accumulation"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    def test_empty_analyses(self, tmp_path):
        cfg = dict(BEAM_CONFIG)
        cfg["analyses"] = []
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["residual_tolerance", "residual_tol"])
    def test_tolerances_key_rejected(self, tmp_path, capsys, key):
        # The thresholds are constants of specdamp.tolerances; a config
        # cannot set them, under any spelling, not even to their own values.
        cfg = dict(BEAM_CONFIG)
        cfg["tolerances"] = {key: 1e-8}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path)]) == 2
        assert "'tolerances'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def analyze_and_check(tmp_path, capsys, name, cfg, extra=()):
    # The bytes of every analyze artifact and of check's stdout, after both
    # exit 0.
    path = write_config(tmp_path / f"{name}.json", cfg)
    out = tmp_path / name
    assert cli.main(["analyze", "--config", path, "--out", str(out), *extra]) == 0
    assert cli.main(["check", "--config", path, *extra]) == 0
    files = [(out / f).read_bytes() for f in ("report.json", "eigenvalues.csv", "spectrum.svg")]
    return files + [capsys.readouterr().out]


class TestSeedPrecedence:
    # No result reads a seed, so the config's "seed", SPECDAMP_SEED and
    # --seed change no byte of any output, in any combination, and
    # SPECDAMP_SEED is not even parsed.
    CFG = dict(BEAM_CONFIG, analyses=list(cli.ANALYSES))

    def test_config_seed_default(self, tmp_path, capsys):
        plain = analyze_and_check(tmp_path, capsys, "plain", self.CFG)
        assert analyze_and_check(tmp_path, capsys, "seeded", dict(self.CFG, seed=5)) == plain

    def test_env_overrides_config(self, tmp_path, capsys, monkeypatch):
        plain = analyze_and_check(tmp_path, capsys, "plain", self.CFG)
        monkeypatch.setenv("SPECDAMP_SEED", "abc")
        assert analyze_and_check(tmp_path, capsys, "seeded", dict(self.CFG, seed=5)) == plain

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        plain = analyze_and_check(tmp_path, capsys, "plain", self.CFG)
        monkeypatch.setenv("SPECDAMP_SEED", "9")
        seeded = analyze_and_check(tmp_path, capsys, "seeded", dict(self.CFG, seed=5), ["--seed", "3"])
        assert seeded == plain


class TestSimulate:
    def test_modal_initial_state(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        out = tmp_path / "out"
        code = cli.main([
            "simulate", "--config", path, "--out", str(out),
            "--x0", "modal:1,0,0,0,0,0,0,0", "--t-max", "0.5", "--samples", "20",
        ])
        assert code == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "energy", "method"]
        assert len(rows) == 21
        energies = np.array([float(r[1]) for r in rows[1:]])
        assert np.all(np.diff(energies) <= 1e-10 * energies[0])
        ET.fromstring((out / "energy.svg").read_text())

    def test_eigenvector_initial_state(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        out = tmp_path / "out"
        code = cli.main([
            "simulate", "--config", path, "--out", str(out),
            "--x0", "eigenvector:0", "--t-max", "0.01", "--samples", "5",
        ])
        assert code == 0

    def test_bad_x0_specs(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        out = tmp_path / "out"
        base = ["simulate", "--config", path, "--out", str(out)]
        assert cli.main(base + ["--x0", "modal:1,0"]) == 2
        assert cli.main(base + ["--x0", "explicit:1,2,3"]) == 2
        assert cli.main(base + ["--x0", "eigenvector:99"]) == 2
        assert cli.main(base + ["--x0", "nonsense"]) == 2

    def test_stiff_critical_model_simulates(self, tmp_path):
        # Nearly dependent eigenvectors of a stiff model (K up to 4e8): the
        # flow is expm(tA) per sample, which the stiffness does not slow.
        rng = np.random.default_rng(64)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        kw = 1e8 * np.array([1.0, 1.0, 4.0, 4.0])
        stiff, root = (q * kw) @ q.T, (q * np.sqrt(kw)) @ q.T
        cfg = {
            "model": {"type": "generic", "K": (0.5 * (stiff + stiff.T)).tolist(),
                      "C": (root + root.T).tolist()},
            "analyses": ["spectrum"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        proc = run_module(["simulate", "--config", path, "--out", str(tmp_path / "out")],
                          tmp_path)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        with open(tmp_path / "out" / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 201 and {r[2] for r in rows[1:]} == {"expm"}

    def test_energy_axis_stops_at_rounding_floor(self, tmp_path):
        # Energies below eps times the largest are rounding (or underflow to
        # exactly 0): two series that differ only there plot the same.
        times = np.linspace(0.0, 1.0, 4)
        svg = cli._svg_energy(times, np.array([1.0, 0.5, 1e-20, 0.0]), "exact-modal")
        assert svg == cli._svg_energy(times, np.array([1.0, 0.5, 1e-25, 1e-30]), "exact-modal")
        assert "1e-15.65" in svg and "1e-300" not in svg
        # An all-zero state has no largest energy to scale by, and still plots.
        cfg = {"model": {"type": "generic", "K": [[1.0]], "C": [[3.0]]}, "analyses": ["spectrum"]}
        path = write_config(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", path, "--out", str(out), "--x0", "explicit:0,0"]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            assert {float(r[1]) for r in list(csv.reader(fh))[1:]} == {0.0}
        ET.fromstring((out / "energy.svg").read_text())

    def test_bad_horizon(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path),
                         "--t-max", "-1.0"]) == 2


# The directory that holds the imported ``specdamp`` package: a child
# interpreter given it first on PYTHONPATH runs the code under test, whatever
# its cwd and whatever other copy may be installed.
PACKAGE_ROOT = Path(specdamp.__file__).resolve().parents[1]


def package_env():
    """The environment with ``PACKAGE_ROOT`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    return env


def run_module(args, cwd):
    """Run ``python -m specdamp ARGS`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "specdamp", *args],
        capture_output=True, text=True, cwd=cwd, env=package_env(),
    )


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        out, ref = tmp_path / "out", tmp_path / "ref"
        proc = run_module(["analyze", "--config", path, "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert cli.main(["analyze", "--config", path, "--out", str(ref)]) == 0
        assert (out / "report.json").read_bytes() == (ref / "report.json").read_bytes()

    def test_exit_code_propagates(self, tmp_path):
        path = write_config(tmp_path / "cfg.json",
                            {"model": {"type": "nope"}, "analyses": ["conditions"]})
        proc = run_module(["check", "--config", path], tmp_path)
        assert proc.returncode == cli.EXIT_INVALID, proc.stderr
        assert proc.stderr.startswith("specdamp:")

    def test_console_script_target(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["specdamp"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main

    @pytest.mark.skipif(shutil.which("specdamp") is None,
                        reason="no specdamp console script on PATH")
    def test_console_script_on_path(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", BEAM_CONFIG)
        out = tmp_path / "out"
        proc = subprocess.run(
            ["specdamp", "analyze", "--config", path, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()


def patch_bindings(monkeypatch, fn, wrapper):
    """Replace every binding of ``fn`` in the specdamp modules and ``np.linalg`` with ``wrapper``."""
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "specdamp"]
    for mod in mods + [np.linalg]:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, wrapper)


def count_calls(monkeypatch, fn, counter, record=None):
    """Count calls of ``fn`` through every binding of it in the specdamp modules."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counter[fn.__name__] += 1
        if record is not None:
            record.append(args[0])
        return fn(*args, **kwargs)

    patch_bindings(monkeypatch, fn, wrapper)


def count_calls_outside(monkeypatch, fn, outer, counter, record=None):
    """Count calls of ``fn`` made while no call of ``outer`` is running.

    ``record``, if given, collects the first argument of each such call.
    """
    depth = [0]

    @functools.wraps(outer)
    def outer_wrapper(*args, **kwargs):
        depth[0] += 1
        try:
            return outer(*args, **kwargs)
        finally:
            depth[0] -= 1

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not depth[0]:
            counter[fn.__name__] += 1
            if record is not None:
                record.append(args[0])
        return fn(*args, **kwargs)

    patch_bindings(monkeypatch, outer, outer_wrapper)
    patch_bindings(monkeypatch, fn, wrapper)


class TestComputeOnce:
    def test_analyze_solves_and_factors_each_model_once(self, tmp_path, monkeypatch):
        cfg = {
            "model": {"type": "beam", "E": 1.0, "N": 16,
                      "patches": [{"a": 1.2, "from": 0.0, "to": 0.5},
                                  {"a": 2.5, "from": 0.5, "to": 1.0}]},
            "analyses": ["spectrum", "krein", "conditions", "semigroup", "accumulation"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        calls = collections.Counter()
        models, eig_args = [], []
        count_calls(monkeypatch, spectrum.solve_qep, calls)
        count_calls(monkeypatch, conditions.check_overdamping, calls)
        count_calls(monkeypatch, model.beam_assemble, calls)
        count_calls(monkeypatch, model.validate, calls, record=models)
        count_calls(monkeypatch, linalg.sym_eig, calls, record=eig_args)
        count_calls(monkeypatch, linalg.nonsym_eig, calls)
        stray = collections.Counter()
        for fn in (linalg.nonsym_eig, spectrum.pencil_kernel_basis):
            count_calls_outside(monkeypatch, fn, spectrum.solve_qep, stray)
        svd_args = []
        count_calls_outside(
            monkeypatch, np.linalg.svd, spectrum.solve_qep, collections.Counter(), svd_args
        )
        assert cli.main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 0

        # One solve of the configured rod plus one per accumulation order.
        assert calls["solve_qep"] == 1 + len(cli.ACCUMULATION_ORDERS)
        assert calls["check_overdamping"] == 1
        assert calls["beam_assemble"] == 1 + len(cli.ACCUMULATION_ORDERS)
        distinct = list({id(m): m for m in models}.values())
        assert len(distinct) == 1 + len(cli.ACCUMULATION_ORDERS)
        k_eigs = [sum(a is m.K for a in eig_args) for m in distinct]
        assert k_eigs == [1] * len(distinct)
        # Every eigendecomposition of the phase operator and every pencil
        # kernel basis is made inside solve_qep; the layers reuse its eigenpairs.
        assert calls["nonsym_eig"] > 0
        # One SVD of the 32 x 32 energy basis serves the Riesz number,
        # evolve and the smoothing probe.
        assert [np.shape(a) for a in svd_args].count((32, 32)) == 1
        assert stray == {}


    def test_decoupled_check_forms_no_phase_space_matrix(self, tmp_path, monkeypatch):
        # A diagonal model is 256 scalar modes: every layer works on their
        # 2 x 2 blocks, so no 512 x 512 SVD, LU, eig or expm is formed.
        n = 256
        k = np.random.default_rng(8).uniform(1.0, 100.0, n)
        cfg = {
            "model": {"type": "generic", "K": np.diag(k).tolist(),
                      "C": (1.3 * np.diag(k + 1.0)).tolist()},
            "analyses": ["conditions"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        calls = collections.Counter()
        args = []
        for fn in (np.linalg.svd, np.linalg.eig, linalg.lu_factor, semigroup.expm, linalg.nonsym_eig):
            count_calls(monkeypatch, fn, calls, record=args)
        assert cli.main(["check", "--config", path]) == 0
        assert calls["nonsym_eig"] == calls["lu_factor"] == calls["eig"] == 0
        assert calls["svd"] == 1  # the batched SVD of the 2 x 2 energy-basis blocks
        assert not [a for a in args if max(np.shape(a)) >= 2 * n]


class TestDecoupledRod:
    def test_cap_order_rod_analyzes_and_simulates(self, tmp_path):
        # The single-patch rod at the N = 256 cap is 256 scalar modes.
        cfg = {
            "model": {"type": "beam", "E": 1.0, "N": 256,
                      "patches": [{"a": 2.0, "from": 0.0, "to": 1.0}]},
            "analyses": list(cli.ANALYSES),
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        runs = {
            "analyze": ["analyze"],
            "eigenvector": ["simulate", "--x0", "eigenvector:0", "--samples", "101"],
            "modal": ["simulate", "--x0", "modal:" + ",".join(["1"] * 256), "--samples", "101"],
        }
        for name, args in runs.items():
            proc = run_module(args + ["--config", path, "--out", str(tmp_path / name)], tmp_path)
            assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "analyze" / "report.json").read_text())
        values = report["spectrum"]["eigenvalues"]
        assert len(values) == 512
        assert all(v["im"] == 0.0 and v["residual"] <= tolerances.RESIDUAL_TOL for v in values)
        for name in ("eigenvector", "modal"):
            rows = list(csv.reader(io.StringIO((tmp_path / name / "trajectory.csv").read_text())))
            assert len(rows) == 102 and rows[1][2] == "exact-modal"
        # The fast mode's energy underflows to exactly 0 after t = 0; the
        # log axis stops at the rounding floor, not at 1e-300.
        assert "1e-300" not in (tmp_path / "eigenvector" / "energy.svg").read_text()


class TestDemos:
    DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

    @pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
    def test_demo_runs(self, demo, tmp_path):
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                              text=True, cwd=tmp_path, env=package_env())
        assert proc.returncode == 0, proc.stderr


class TestCheck:
    def test_passing_beam(self, tmp_path, capsys):
        cfg = {
            "model": {"type": "beam", "E": 1.0, "N": 16,
                      "patches": [{"a": 0.85, "from": 0.0, "to": 1.0}]},
            "analyses": ["conditions"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "overdamping margin" in out and "FAILS" not in out

    def test_failing_norm_gap(self, tmp_path, capsys):
        cfg = {
            "model": {"type": "beam", "E": 1.0, "N": 16,
                      "patches": [{"a": 0.3, "from": 0.0, "to": 1.0}]},
            "analyses": ["conditions"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["check", "--config", path]) == 1
        assert "FAILS" in capsys.readouterr().out

    def test_generic_overdamped_passes(self, tmp_path):
        cfg = {
            "model": {"type": "generic", "K": [[1.0]], "C": [[3.0]]},
            "analyses": ["conditions"],
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["check", "--config", path]) == 0

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2")
        assert cli.main(["check", "--config", str(path)]) == 2
        # "seed" has no effect, but a config that carries one must give an integer.
        for seed in ("7", True):
            write_config(path, dict(BEAM_CONFIG, seed=seed))
            assert cli.main(["check", "--config", str(path)]) == 2
            assert '"seed" must be an integer' in capsys.readouterr().err
