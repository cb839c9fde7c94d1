"""Time the resolvent scan of the two-patch rod by each route of the block norm.

For each order N the script solves the two-patch rod (a = 1.2 on [0, 0.5],
2.5 on [0.5, 1], E = 1), a single coupled block of size n = N, and times
``semigroup.resolvent_scan`` over the CLI's 25-point grid on the line
Re lam = 1, once with every point on the explicit route and once with every
point on the Lanczos route, by setting ``semigroup.LANCZOS_MIN_DIMENSION``
above or below 2N.  It prints the best of ``--repeat`` runs of each, in
milliseconds, with BLAS on one thread.

Usage:  PYTHONPATH=src python3 tools/scan_crossover.py [N ...] [--repeat R]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import specdamp as sd  # noqa: E402
from specdamp import semigroup  # noqa: E402

GRID = np.logspace(0.0, 4.0, 25)


def best_ms(model, report, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        semigroup.resolvent_scan(model, report, 1.0, GRID)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("orders", nargs="*", type=int, default=[16, 32, 48, 56, 64, 96])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    patches = (sd.Patch(1.2, 0.0, 0.5), sd.Patch(2.5, 0.5, 1.0))
    print("    N   dim  explicit_ms  lanczos_ms")
    for N in args.orders:
        model = sd.beam_assemble(sd.BeamSpec(E=1.0, patches=patches, N=N))
        report = sd.solve_qep(model)
        times = []
        for threshold in (4 * N, 2 * N):  # above 2N: explicit; at 2N: Lanczos
            semigroup.LANCZOS_MIN_DIMENSION = threshold
            times.append(best_ms(model, report, args.repeat))
        print(f"{N:5d} {2 * N:5d} {times[0]:12.1f} {times[1]:11.1f}")


if __name__ == "__main__":
    main()
