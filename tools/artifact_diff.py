"""Run the benchmark's requests into an artifact tree, or compare two trees.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/artifact_diff.py run NEW --seeds 1 2 3 7
    PYTHONPATH=../parent/src python3 tools/artifact_diff.py run OLD --seeds 1 2 3 7
    python3 tools/artifact_diff.py compare OLD NEW --removed krein.symmetry_defect

``run`` builds every request of the three workloads in
``perfbench/workloads.py`` at each seed and sends it to ``specdamp.cli.main``
in this process, with whichever ``specdamp`` comes first on ``PYTHONPATH``
and BLAS on one thread, as the benchmark runs it.  Each request's artifacts
(its stdout for ``check``) and its exit code land in
``OUT/<workload>/<seed>/<request>/``.

``compare`` walks both trees.  JSON files are compared value by value,
CSV files cell by cell and other files token by token.  Numbers are
reported as the worst relative change per JSON path (list indices
dropped), per CSV column or per file.  A trajectory's energies are
measured relative to its initial energy.  A number whose text changes
while its value compares equal, such as ``0`` -> ``-0``, counts as moved,
with a relative change of 0.  A JSON path or CSV column whose
every compared value in both trees is an integer is an integer field and
must match exactly, as must every string, bool, null, key set, exit code,
non-numeric token and file name.  Any such mismatch makes the exit status
1; ``--removed`` names JSON keys whose absence from the new tree is
expected.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")


def run(out: str, seeds) -> None:
    from specdamp import cli

    print(f"specdamp from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            base = os.path.join(out, workload, str(seed))
            for req in workloads.build(workload, seed, os.path.join(out, "_configs", workload, str(seed))):
                out_dir = os.path.join(base, req.rid)
                os.makedirs(out_dir, exist_ok=True)
                argv = [a.replace("{out}", out_dir) for a in req.argv]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                with open(os.path.join(out_dir, "exit.txt"), "w", encoding="utf-8") as fh:
                    fh.write(f"{code}\n")
                if req.kind == "check":
                    with open(os.path.join(out_dir, "stdout.txt"), "w", encoding="utf-8") as fh:
                        fh.write(stdout.getvalue())


def _files(top: str) -> set[str]:
    found = set()
    for here, dirs, names in os.walk(top):
        dirs[:] = [d for d in dirs if d != "_configs"]
        found.update(os.path.relpath(os.path.join(here, n), top) for n in names)
    return found


class _Token(str):
    """A JSON number, kept as the text it was written as."""


def _number(text: str):
    # The CLI writes floats with format(x, ".17g") and ints with str(), so
    # an integral float reads back as an int; both are numbers here.
    try:
        return int(text)
    except ValueError:
        return float(text.replace("Infinity", "inf").replace("NaN", "nan"))


def _relative(a, b, scale=None) -> float:
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    ref = abs(scale) if scale is not None else max(abs(a), abs(b))
    return abs(a - b) / ref if ref > 0.0 else math.inf


class Diff:
    def __init__(self, removed):
        self.removed = set(removed)
        self.mismatches: list[str] = []
        self.numbers = defaultdict(list)  # field -> [(relative change, both ints, file, text moved)]
        self.files = defaultdict(lambda: [0, 0])  # artifact name -> [files, byte-identical]

    def number(self, field, a, b, moved, where, scale=None):
        # moved: the number's text changed, whether or not its value did.
        both_int = isinstance(a, int) and isinstance(b, int)
        self.numbers[field].append((_relative(a, b, scale), both_int, where, moved))

    def json(self, a, b, path, where):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                sub = f"{path}.{key}" if path else key
                if key not in b and sub in self.removed:
                    continue
                if key not in a or key not in b:
                    self.mismatches.append(f"{where}: key {sub} only in {'new' if key in b else 'old'}")
                else:
                    self.json(a[key], b[key], sub, where)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.mismatches.append(f"{where}: {path} has {len(a)} items, now {len(b)}")
            for x, y in zip(a, b):
                self.json(x, y, path + "[]", where)
        elif isinstance(a, _Token) and isinstance(b, _Token):
            self.number(path, _number(a), _number(b), a != b, where)
        elif a != b or type(a) is not type(b):
            self.mismatches.append(f"{where}: {path} {a!r} -> {b!r}")

    def csv(self, name, a, b, where):
        old, new = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
        if len(old) != len(new) or old[:1] != new[:1]:
            self.mismatches.append(f"{where}: header or row count differs")
            return
        header = old[0]
        scale = None
        if name == "trajectory.csv" and len(old) > 1:
            scale = _number(old[1][header.index("energy")])
        for row_a, row_b in zip(old[1:], new[1:]):
            if len(row_a) != len(row_b):
                self.mismatches.append(f"{where}: a row has {len(row_a)} cells, now {len(row_b)}")
            for col, x, y in zip(header, row_a, row_b):
                try:
                    nx, ny = _number(x), _number(y)
                except ValueError:
                    if x != y:
                        self.mismatches.append(f"{where}: column {col} {x!r} -> {y!r}")
                    continue
                self.number(f"{name}:{col}", nx, ny, x != y, where, scale if col == "energy" else None)

    def text(self, name, a, b, where):
        if NUMBER.split(a) != NUMBER.split(b):
            self.mismatches.append(f"{where}: text outside numbers differs")
            return
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            self.number(name, float(_number(x)), float(_number(y)), x != y, where)

    def file(self, rel, old_path, new_path):
        name = os.path.basename(rel)
        with open(old_path, "rb") as fh:
            a = fh.read()
        with open(new_path, "rb") as fh:
            b = fh.read()
        self.files[name][0] += 1
        if a == b:
            self.files[name][1] += 1
            return
        a, b = a.decode("utf-8"), b.decode("utf-8")
        if name == "exit.txt":
            self.mismatches.append(f"{rel}: exit {a.strip()} -> {b.strip()}")
        elif name.endswith(".json"):
            as_text = {"parse_float": _Token, "parse_int": _Token, "parse_constant": _Token}
            self.json(json.loads(a, **as_text), json.loads(b, **as_text), "", rel)
        elif name.endswith(".csv"):
            self.csv(name, a, b, rel)
        else:
            self.text(name, a, b, rel)

    def report(self) -> int:
        print("| artifact | files | byte-identical |\n| --- | --- | --- |")
        for name, (count, same) in sorted(self.files.items()):
            print(f"| {name} | {count} | {same} |")
        print("\n| field | values | moved | worst relative change | where |\n| --- | --- | --- | --- | --- |")
        for field, seen in sorted(self.numbers.items()):
            moved = [s for s in seen if s[3]]
            if not moved:
                continue
            worst = max(moved, key=lambda s: s[0])
            print(f"| {field} | {len(seen)} | {len(moved)} | {worst[0]:.2e} | {worst[2]} |")
            if all(s[1] for s in seen):
                self.mismatches.append(f"integer field {field} changed ({len(moved)} values)")
        for line in self.mismatches:
            print(f"MISMATCH {line}")
        return 1 if self.mismatches else 0


def compare(old: str, new: str, removed) -> int:
    diff = Diff(removed)
    old_files, new_files = _files(old), _files(new)
    for rel in sorted(old_files ^ new_files):
        diff.mismatches.append(f"{rel} only in {'new' if rel in new_files else 'old'}")
    for rel in sorted(old_files & new_files):
        diff.file(rel, os.path.join(old, rel), os.path.join(new, rel))
    return diff.report()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run every request of the three workloads into OUT")
    r.add_argument("out")
    r.add_argument("--seeds", type=int, nargs="+", required=True)
    c = sub.add_parser("compare", help="compare the artifact trees OLD and NEW")
    c.add_argument("old")
    c.add_argument("new")
    c.add_argument("--removed", nargs="*", default=[], help="JSON key paths expected to be gone")
    args = p.parse_args(argv)
    if args.command == "run":
        run(args.out, args.seeds)
        return 0
    return compare(args.old, args.new, args.removed)


if __name__ == "__main__":
    sys.exit(main())
