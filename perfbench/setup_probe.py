"""Set-up probe: import specdamp and finish one warm-up ``analyze`` call.

Run as a script in a fresh interpreter, it is what ``setup_s`` times:
``python3 perfbench/setup_probe.py OUT_DIR``.  The benchmark also calls
:func:`warm_up` in its own process before the first timed request.
"""

import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARM_UP_CONFIG = {
    "model": {"type": "generic", "K": [[2.0, -1.0], [-1.0, 2.0]], "C": [[0.5, 0.0], [0.0, 0.5]]},
    "analyses": ["spectrum", "krein", "conditions", "semigroup"],
}


def warm_up(out_dir: str) -> int:
    """Run one small ``analyze`` request into ``out_dir``; return its exit code."""
    from specdamp import cli

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "warm-up.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(WARM_UP_CONFIG, fh)
    return cli.main(["analyze", "--config", path, "--out", out_dir])


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(warm_up(sys.argv[1]))
