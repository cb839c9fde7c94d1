"""Two closed-form damping thresholds and the case that separates them.

For the uniformly damped rod with modulus E there are two candidate
sufficient thresholds on the patch coefficient a, differing by a factor
of E in the scaling of the modulus.  At E=4 the choice matters: a=1 sits
above one threshold and below the other.  The computed spectrum settles
which one actually guarantees a real spectrum; the report states both
membership facts and the measured spectrum side by side.

Run:  python3 demos/threshold_adjudication.py
"""

import numpy as np

import specdamp as sd


def adjudicate(E, a, N=16):
    spec = sd.BeamSpec(E=E, patches=(sd.Patch(a, 0.0, 1.0),), N=N)
    model = sd.beam_assemble(spec)
    rep = sd.solve_qep(model)
    cond = sd.condition_report(model, rep)
    ptr, od = cond.patch_thresholds, cond.overdamping
    entry = ptr.entries[0]

    print(f"rod with E={E:g}, uniform patch a={a:g}, N={N}")
    print(f"  threshold (1/sqrt-modulus scaling): {entry.threshold_inv_sqrt_modulus:.6f}"
          f"  -> a above it: {entry.above_inv_sqrt}")
    print(f"  threshold (sqrt-modulus scaling):   {entry.threshold_sqrt_modulus:.6f}"
          f"  -> a above it: {entry.above_sqrt}")
    print(f"  overdamping margin: {od.margin:+.6f} (positive means real spectrum)")
    print(f"  nonreal eigenvalues found: {ptr.nonreal_count}")

    # the mode-1 discriminant decides by closed form
    w1 = 0.5 * np.pi
    disc = (a * w1**4) ** 2 - 4.0 * E * w1**4
    print(f"  mode-1 discriminant (a w^4)^2 - 4 E w^4 = {disc:+.6f}")
    verdict = "real spectrum guaranteed" if od.overdamped else \
        "nonreal pair present, weaker threshold insufficient"
    print(f"  => {verdict}\n")


def main():
    adjudicate(4.0, 1.0)   # between the two thresholds: nonreal pair survives
    adjudicate(4.0, 1.7)   # above both: real spectrum
    adjudicate(1.0, 0.85)  # E=1, thresholds coincide; just above


if __name__ == "__main__":
    main()
