"""Tests for ``tools/artifact_diff.py compare``, the artifact comparison of two runs."""

import importlib.util
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def artifact_diff():
    # The tool pins BLAS to one thread in os.environ and puts perfbench/ on
    # sys.path when it is imported; neither outlives the import here.
    environ, path = dict(os.environ), list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("artifact_diff", ROOT / "tools" / "artifact_diff.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return module


def write_tree(top, files):
    for rel, text in files.items():
        target = top / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def compare(artifact_diff, tmp_path, capsys, old, new):
    write_tree(tmp_path / "old", old)
    write_tree(tmp_path / "new", new)
    status = artifact_diff.compare(str(tmp_path / "old"), str(tmp_path / "new"), [])
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 5 and cells[0] not in ("field", "---"):
            rows[cells[0]] = (int(cells[1]), int(cells[2]), float(cells[3]))
    return status, rows


REPORT = '{"krein": {"clusters": [{"margin": %s, "gram_eigenvalues": [%s, 2.5]}], "count": %s}}\n'
CSV = "index,gram_min_eig,cluster\n0,%s,0\n1,0.25,1\n"


def test_sign_flip_of_zero_is_moved(artifact_diff, tmp_path, capsys):
    # 0 -> -0 compares equal as a number, in JSON (where -0 even reads back
    # as the int 0) and in CSV, yet the bytes changed: it must be listed.
    old = {"r/report.json": REPORT % ("0", "0.0", "3"), "r/eigenvalues.csv": CSV % "0"}
    new = {"r/report.json": REPORT % ("-0", "-0.0", "3"), "r/eigenvalues.csv": CSV % "-0"}
    status, rows = compare(artifact_diff, tmp_path, capsys, old, new)
    assert rows["krein.clusters[].gram_eigenvalues[]"] == (2, 1, 0.0)
    assert rows["eigenvalues.csv:gram_min_eig"] == (2, 1, 0.0)
    # margin reads as an int in both trees, so a changed text is a mismatch.
    assert rows["krein.clusters[].margin"] == (1, 1, 0.0)
    assert "krein.count" not in rows
    assert status == 1


def test_numbers_compared_by_value(artifact_diff, tmp_path, capsys):
    old = {"r/report.json": REPORT % ("0.5", "1.0", "3"), "r/eigenvalues.csv": CSV % "1.0"}
    new = {"r/report.json": REPORT % ("0.5", "1.0000000000000002", "3"), "r/eigenvalues.csv": CSV % "1.0"}
    status, rows = compare(artifact_diff, tmp_path, capsys, old, new)
    assert rows == {"krein.clusters[].gram_eigenvalues[]": (2, 1, pytest.approx(2.2e-16, rel=0.01))}
    assert status == 0


def test_identical_trees_list_nothing(artifact_diff, tmp_path, capsys):
    files = {"r/report.json": REPORT % ("-0", "0.0", "3"), "r/eigenvalues.csv": CSV % "0"}
    status, rows = compare(artifact_diff, tmp_path, capsys, files, files)
    assert (status, rows) == (0, {})


def test_integer_field_and_string_mismatches(artifact_diff, tmp_path, capsys):
    old = {"r/report.json": REPORT % ("0.5", "1.0", "3")}
    new = {"r/report.json": REPORT % ("0.5", "1.0", "4")}
    status, rows = compare(artifact_diff, tmp_path, capsys, old, new)
    assert rows["krein.count"] == (1, 1, pytest.approx(0.25))
    assert status == 1
    new = {"r/report.json": REPORT % ("0.5", "1.0", '"3"')}
    status, rows = compare(artifact_diff, tmp_path / "string", capsys, old, new)
    assert status == 1 and rows == {}
