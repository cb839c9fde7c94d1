"""Trajectories, energy decay, and the resolvent scan for the damped rod.

The phase operator generates a contraction semigroup in the energy
norm, so every trajectory's energy is nonincreasing.  The demo evolves
one smooth and one rough initial state, prints decay factors, then scans
the resolvent along Re = 1 to exhibit the boundedness that underpins
analyticity of the semigroup.

Run:  python3 demos/energy_decay.py
"""

import numpy as np

import specdamp as sd


def trajectory(model, rep, x0, label, t_max=2.0):
    times = np.linspace(0.0, t_max, 9)
    traj = sd.evolve(model, rep, x0, times)
    print(f"{label} (integrator: {traj.method})")
    for t, e in zip(traj.times, traj.energies):
        print(f"  t={t:5.2f}  energy {e:.6e}  ({e / traj.energies[0]:.3e} of start)")
    drift = np.max(np.diff(traj.energies))
    print(f"  max energy increase along the path: {drift:.2e}\n")


def resolvent(model, rep):
    scan = sd.resolvent_scan(model, rep, re_offset=1.0, im_grid=np.logspace(0, 4, 17))
    print("resolvent along lam = 1 + it:")
    for lam, norm, product in scan.samples[::4]:
        print(f"  t={lam.imag:10.1f}  ||R|| {norm:.3e}  t ||R|| {product:.3f}")
    print(f"  fitted bound M on |Im lam| ||R||: {scan.fitted_M:.3f}"
          f"  (bounded: {scan.products_bounded}, sectorial: {scan.sectorial})")


def main():
    spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=16)
    model = sd.beam_assemble(spec)
    rep = sd.solve_qep(model)
    n = model.n

    smooth = np.zeros(n)
    smooth[0] = 1.0
    trajectory(model, rep, sd.PhaseVector(smooth, np.zeros(n)), "fundamental mode at rest")

    rng = np.random.default_rng(7)
    rough = rng.standard_normal(n)
    trajectory(model, rep, sd.PhaseVector(rough / np.linalg.norm(rough), np.zeros(n)),
               "rough initial displacement")

    resolvent(model, rep)


if __name__ == "__main__":
    main()
