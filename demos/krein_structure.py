"""Sign classification of eigenvalues in the indefinite energy product.

The phase operator is self-adjoint in the indefinite product
[u, v] = <x_u, K x_v> - <y_u, y_v>, which attaches a sign to every real
eigenvalue cluster.  For heavily damped rods the spectrum splits into a
slow branch (positive type, near the accumulation point) and a fast
branch (negative type, running to -infinity), and the two branches are
[.,.]-orthogonal.  Critical damping produces a genuinely neutral
cluster with a Jordan block, which the decomposition refuses to split.

Run:  python3 demos/krein_structure.py
"""

import numpy as np

import specdamp as sd


def classify_rod():
    spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=8)
    model = sd.beam_assemble(spec)
    rep = sd.solve_qep(model)
    cls = sd.classify_eigenpairs(model, rep)
    print("damped rod, N=8:")
    print(f"{'eigenvalue':>14}  {'type':>8}  {'kernel':>6}  {'defect':>6}")
    for c in cls.clusters:
        print(f"{c.eigenvalue.real:14.6f}  {c.sign_type:>8}  "
              f"{c.kernel_dim:6d}  {c.jordan_defect:6d}")

    dec = sd.decompose(model, rep, cls)
    print(f"\nsplit at the sign change: {len(dec.h_prime)} fast (negative type) "
          f"vs {len(dec.h_doubleprime)} slow (positive type)")
    print(f"  cross-orthogonality between the branches: {dec.cross_gram_norm:.2e}")
    print(f"  cut magnitude m_cut = {dec.m_cut:.6f}\n")


def critical_damping():
    # scalar system at the critical coefficient: one double eigenvalue,
    # neutral direction, Jordan block of size 2
    model = sd.SystemModel(K=np.array([[1.0]]), C=np.array([[2.0]]))
    rep = sd.solve_qep(model)
    cls = sd.classify_eigenpairs(model, rep)
    c = cls.clusters[0]
    print("critical damping x'' + 2x' + x = 0:")
    print(f"  eigenvalue {c.eigenvalue.real:g} with multiplicity "
          f"{len(c.member_indices)}, kernel dimension {c.kernel_dim}, "
          f"Jordan defect {c.jordan_defect}, sign type {c.sign_type}")
    dec = sd.decompose(model, rep, cls)
    print(f"  neutral real eigenvalues reported by the split: "
          f"{[f'{z.real:g}' for z in dec.neutral_real_eigenvalues]}, "
          f"no negative-type prefix (m_cut = {dec.m_cut})\n")


def mixed_cluster():
    # two decoupled scalar systems sharing the eigenvalue -1 with opposite
    # signs: no sign-based invariant split exists, and the library says so
    model = sd.SystemModel(K=np.diag([2.0, 0.5]), C=np.diag([3.0, 1.5]))
    rep = sd.solve_qep(model)
    print("two decoupled oscillators sharing eigenvalue -1 with opposite signs:")
    try:
        sd.decompose(model, rep, sd.classify_eigenpairs(model, rep))
        print("  unexpectedly split")
    except sd.MixedClusterObstruction as exc:
        print(f"  split refused, mixed cluster at {exc}")


def main():
    classify_rod()
    critical_damping()
    mixed_cluster()


if __name__ == "__main__":
    main()
