"""Run every workload once and print all end-to-end metrics side by side.

Usage (from the repository root)::

    python3 perfbench/summary.py [--seed 1] [--seconds 30] [--trace 0]

Each workload runs in its own process through ``run.py``, so peak memory
is per workload; the report checker runs inside each of them.  Exits 1
when any run is incorrect, that is, shows a failure or violated check not
listed in ``ledger.json``.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

METRIC_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    table: dict[str, dict[str, tuple[str, str]]] = {}
    correct = True
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        correct = correct and json.loads(lines[-1])["correct"]
        table[workload] = {
            m.group(1): (m.group(2), m.group(3)) for m in map(METRIC_LINE.match, lines) if m
        }

    names = list(dict.fromkeys(n for row in table.values() for n in row))
    width = max(len(n) for n in names)
    print(f"\n{'metric':<{width}}  {'unit':<13}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = next(row[name][1] for row in table.values() if name in row)
        cells = "".join(f"{table[w].get(name, ('-',))[0]:>16}" for w in WORKLOADS)
        print(f"{name:<{width}}  {unit:<13}{cells}")
    print(f"\ncorrect: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
