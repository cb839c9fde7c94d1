"""Acceptance suite: the headline guarantees, each at its stated tolerance.

One test per guarantee, in a fixed order.  Each prints a single
``[PASS] acceptance k/10 ...`` line with the measured quantities when it
succeeds (run ``pytest -s`` to see them live; they also appear in the
captured-output section otherwise).  Expected values come from the
independent oracles in ``oracles.py`` or were frozen from oracle runs;
none were produced by the code paths under test.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import specdamp as sd

import oracles


def announce(line):
    # bypass capture so the one-line verdicts reach the terminal
    import sys

    sys.stderr.write(line + "\n")
    sys.stderr.flush()


def uniform_beam(E, a, N):
    return sd.BeamSpec(E=E, patches=(sd.Patch(a, 0.0, 1.0),), N=N)


def energy_norm(model, vec):
    x, y = vec.position, vec.velocity
    return float(np.sqrt(np.real(np.vdot(x, model.K @ x) + np.vdot(y, y))))


def sorted_eigs(values):
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


def test_01_undamped_beam_exact_floor():
    # 16-mode rod with damping removed: purely imaginary pairs +-i w^2,
    # and the smallest magnitude equals the analytic floor bitwise.
    start = time.perf_counter()
    w = (np.arange(1, 17) - 0.5) * np.pi
    model = sd.SystemModel(K=np.diag(w**4), C=np.zeros((16, 16)))
    rep = sd.solve_qep(model)

    expected = np.concatenate([1j * w**2, -1j * w**2])
    got = sorted_eigs(rep.eigenvalues)
    want = sorted_eigs(expected)
    rel = np.abs(got - want) / np.abs(want)
    assert np.max(rel) <= 1e-8

    assert rep.min_abs == np.pi**2 / 4
    assert rep.bound.value == np.pi**2 / 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(
        f"[PASS] acceptance 1/10 undamped rod: worst rel err {np.max(rel):.2e}, "
        f"min |lam| == pi^2/4 bitwise, {elapsed:.2f}s"
    )


def test_02_lower_bound_and_spectral_stability():
    # 500 random valid models: no eigenvalue inside the guaranteed disk,
    # none in the open right half plane.
    start = time.perf_counter()
    rng = np.random.default_rng(20260818)
    worst_gap = np.inf
    worst_real = -np.inf
    for _ in range(500):
        n = int(rng.integers(1, 7))
        model = oracles.random_model(rng, n)
        rep = sd.solve_qep(model)
        worst_gap = min(worst_gap, rep.min_abs - rep.bound.value)
        worst_real = max(worst_real, rep.max_real)
        assert rep.min_abs >= rep.bound.value - 1e-10
        assert rep.max_real <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(
        f"[PASS] acceptance 2/10 bound + stability over 500 models: "
        f"min(|lam|-bound) {worst_gap:.2e}, max Re {worst_real:.2e}, {elapsed:.1f}s"
    )


def test_03_damped_beam_modes_and_accumulation():
    # Uniform a=2 rod at N=32 against 50-digit per-mode roots, plus the
    # finite-order accumulation signature at -E/a.
    spec = uniform_beam(1.0, 2.0, 32)
    rep = sd.solve_qep(sd.beam_assemble(spec))
    got = sorted_eigs(rep.eigenvalues)
    want = sorted_eigs(oracles.beam_mode_roots(1.0, 2.0, 32))
    rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert np.max(rel) <= 1e-8

    acc = sd.accumulation_experiment(spec, (8, 16, 32))
    assert acc.points == (-0.5,)
    for order, count in zip(acc.orders, acc.counts[:, 0]):
        assert count >= order - 2
    assert acc.counts[:, 0].tolist() == [7, 15, 31]
    assert acc.counts_nondecreasing
    announce(
        f"[PASS] acceptance 3/10 damped rod modes: worst rel err {np.max(rel):.2e}; "
        f"counts near -1/2 {acc.counts[:, 0].tolist()} for orders {list(acc.orders)}"
    )


def test_04_overdamping_dichotomy():
    # a=0.85 sits above the uniform threshold: positive margin, purely
    # real semisimple spectrum, tame eigenvector basis.  a=0.5 sits
    # below: negative margin and a conjugate nonreal pair.
    over = sd.beam_assemble(uniform_beam(1.0, 0.85, 16))
    rep = sd.solve_qep(over)
    cond = sd.condition_report(over, rep)
    assert cond.overdamping.margin > 0.0
    assert np.isclose(cond.overdamping.margin, 0.06547713570020242, rtol=1e-9)
    cls = sd.classify_eigenpairs(over, rep)
    assert all(c.is_real for c in cls.clusters)
    assert all(c.jordan_defect == 0 for c in cls.clusters)
    assert cond.riesz_condition_number <= 1e6

    under = sd.beam_assemble(uniform_beam(1.0, 0.5, 16))
    rep2 = sd.solve_qep(under)
    cond2 = sd.condition_report(under, rep2)
    assert cond2.overdamping.margin < 0.0
    assert np.isclose(cond2.overdamping.margin, -0.4070228642997976, rtol=1e-9)
    lams = rep2.eigenvalues
    nonreal = lams[np.abs(lams.imag) > 0]
    assert nonreal.size >= 2
    for lam in nonreal:
        assert np.min(np.abs(lams - np.conj(lam))) <= 1e-8 * (1.0 + abs(lam))
    announce(
        f"[PASS] acceptance 4/10 dichotomy: a=0.85 margin "
        f"{cond.overdamping.margin:+.6e} all-real cond {cond.riesz_condition_number:.2f}; "
        f"a=0.5 margin {cond2.overdamping.margin:+.6e} with {nonreal.size} nonreal"
    )


def test_05_threshold_window_adjudication():
    # E=4, a=1 lies between the two closed-form patch thresholds; the
    # report must state the window membership and the computed spectrum
    # facts side by side, leaving the verdict to the reader.
    spec = uniform_beam(4.0, 1.0, 16)
    rep = sd.solve_qep(sd.beam_assemble(spec))
    cond = sd.condition_report(sd.beam_assemble(spec), rep)
    ptr = cond.patch_thresholds
    entry = ptr.entries[0]
    assert abs(entry.threshold_inv_sqrt_modulus - 0.4053) <= 1e-4
    assert abs(entry.threshold_sqrt_modulus - 1.6211) <= 1e-4
    assert entry.threshold_inv_sqrt_modulus < 1.0 < entry.threshold_sqrt_modulus
    assert entry.above_inv_sqrt is True
    assert entry.above_sqrt is False
    od = cond.overdamping
    assert od.margin < 0.0
    assert np.isclose(od.margin, -0.1017557160749494, rtol=1e-9)
    assert od.overdamped is False
    assert ptr.nonreal_count >= 1
    announce(
        f"[PASS] acceptance 5/10 threshold window: a=1 in "
        f"({entry.threshold_inv_sqrt_modulus:.4f}, {entry.threshold_sqrt_modulus:.4f}), "
        f"margin {od.margin:+.6e}, nonreal {ptr.nonreal_count}"
    )


def test_06_indefinite_product_structure():
    # Exact symmetry of the energy-coordinates product matrix, pairwise
    # orthogonality across spectrally separated clusters, neutrality of
    # nonreal eigenvectors, and Gram degeneracy matching Jordan defects.
    rng = np.random.default_rng(606)
    catalogue = [
        sd.beam_assemble(uniform_beam(1.0, 2.0, 16)),
        sd.beam_assemble(uniform_beam(4.0, 1.0, 8)),
    ] + [oracles.random_model(rng, int(rng.integers(1, 7))) for _ in range(20)]
    worst_sym = max(oracles.phase_symmetry_defect(m) for m in catalogue)
    assert worst_sym <= 1e-12

    worst_orth = 0.0
    worst_neutral = 0.0
    mismatches = 0
    checked_pairs = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        model = oracles.random_model(rng, n)
        rep = sd.solve_qep(model)
        cls = sd.classify_eigenpairs(model, rep)
        vecs = sd.eigenvectors(model, rep, range(2 * n))
        for c in cls.clusters:
            # real cluster: kernel Gram degeneracy tracks the defect;
            # nonreal: the kernel is structurally neutral, so the
            # semisimplicity form is the cross Gram with the conjugate
            # cluster's eigenvectors instead
            if c.is_real:
                degenerate = c.degenerate
            else:
                basis = sd.spectrum.pencil_kernel_basis(
                    model, c.eigenvalue, max_dim=len(c.member_indices)
                )
                cross = np.empty((basis.shape[1], basis.shape[1]), dtype=complex)
                for a_ in range(basis.shape[1]):
                    u = sd.PhaseVector(basis[:, a_], c.eigenvalue * basis[:, a_])
                    for b_ in range(basis.shape[1]):
                        xb = np.conj(basis[:, b_])
                        v = sd.PhaseVector(xb, np.conj(c.eigenvalue) * xb)
                        cross[a_, b_] = sd.indefinite_product(model, u, v)
                smin = float(np.linalg.svd(cross, compute_uv=False)[-1])
                degenerate = smin <= c.neutral_threshold
            if degenerate != (c.jordan_defect > 0):
                mismatches += 1
            if not c.is_real:
                for i in c.member_indices:
                    u = sd.PhaseVector.from_stacked(vecs[:, i])
                    val = abs(sd.indefinite_product(model, u, u))
                    val /= energy_norm(model, u) ** 2
                    worst_neutral = max(worst_neutral, val)
                    assert val <= 1e-8
        for ci in cls.clusters:
            for cj in cls.clusters:
                if ci is cj:
                    continue
                gap = abs(ci.eigenvalue - np.conj(cj.eigenvalue))
                if gap <= 1e-3 * (1.0 + abs(ci.eigenvalue)):
                    continue  # conjugate partners are not orthogonal
                for i in ci.member_indices:
                    for j in cj.member_indices:
                        u = sd.PhaseVector.from_stacked(vecs[:, i])
                        v = sd.PhaseVector.from_stacked(vecs[:, j])
                        val = abs(sd.indefinite_product(model, u, v))
                        val /= energy_norm(model, u) * energy_norm(model, v)
                        worst_orth = max(worst_orth, val)
                        checked_pairs += 1
                        assert val <= 1e-8
    assert mismatches == 0
    announce(
        f"[PASS] acceptance 6/10 product structure: symmetry defect {worst_sym:.2e}, "
        f"orthogonality {worst_orth:.2e} over {checked_pairs} pairs, "
        f"neutrality {worst_neutral:.2e}, degeneracy/defect mismatches 0"
    )


def test_07_inverse_identity():
    # Closed-form inverse of the phase operator against the operator
    # itself, both multiplication orders.
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        model = oracles.random_model(rng, n)
        a = sd.phase_operator(model)
        ainv = sd.phase_operator_inverse(model)
        eye = np.eye(2 * n)
        worst = max(
            worst,
            float(np.max(np.abs(a @ ainv - eye))),
            float(np.max(np.abs(ainv @ a - eye))),
        )
        assert np.max(np.abs(a @ ainv - eye)) <= 1e-11
        assert np.max(np.abs(ainv @ a - eye)) <= 1e-11
    announce(f"[PASS] acceptance 7/10 inverse identity: worst residual {worst:.2e}")


def test_08_contraction_semigroup():
    # Energy decay along 200 random trajectories, propagator spectrum
    # against exp(t lam), the half-plane resolvent bound, and a bounded
    # scan along Re = 1 for the damped rod.
    rng = np.random.default_rng(808)
    worst_drift = -np.inf
    for _ in range(200):
        n = int(rng.integers(1, 5))
        model = oracles.random_model(rng, n)
        x0 = sd.PhaseVector(rng.standard_normal(n), rng.standard_normal(n))
        t_max = float(rng.uniform(0.5, 3.0))
        traj = sd.evolve(model, sd.solve_qep(model), x0, np.linspace(0.0, t_max, 21))
        e0 = traj.energies[0]
        drift = float(np.max(np.diff(traj.energies))) if e0 > 0 else 0.0
        worst_drift = max(worst_drift, drift / max(e0, 1e-300))
        assert np.all(np.diff(traj.energies) <= 1e-10 * e0)

    worst_prop = worst_expm = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        model = oracles.random_model(rng, n)
        rep = sd.solve_qep(model)
        lams = rep.eigenvalues
        modal = sd.riesz_basis_condition_number(model, rep) <= sd.semigroup.MODAL_CONDITION_LIMIT
        for t in (0.3, 1.0):
            prop = sd.propagator(model, rep, t)
            pe = np.linalg.eigvals(prop)
            dist = oracles.multiset_distance(pe, np.exp(t * lams))
            worst_prop = max(worst_prop, dist)
            assert dist <= 1e-8
            if modal:
                # Independent of the eigenpairs: scaling and squaring of tA.
                want = scipy.linalg.expm(t * sd.phase_operator(model))
                rel = np.linalg.norm(prop - want) / np.linalg.norm(want)
                worst_expm = max(worst_expm, rel)
                assert rel <= 1e-10

    worst_res = 0.0
    for _ in range(25):
        model = oracles.random_model(rng, int(rng.integers(1, 5)))
        rep = sd.solve_qep(model)
        for lam in (0.1 + 0.0j, 1.0 + 2.0j, 3.0 - 5.0j, 0.25 + 40.0j):
            val = sd.resolvent_norm_at(model, rep, lam)
            worst_res = max(worst_res, val * lam.real)
            assert val <= (1.0 / lam.real) * (1.0 + 1e-12)

    beam = sd.beam_assemble(uniform_beam(1.0, 2.0, 16))
    scan = sd.resolvent_scan(
        beam,
        sd.solve_qep(beam),
        re_offset=1.0,
        im_grid=np.logspace(0.0, 4.0, 33),
    )
    assert scan.products_bounded
    assert np.isfinite(scan.fitted_M) and scan.fitted_M > 0.0
    announce(
        f"[PASS] acceptance 8/10 semigroup: worst energy drift {worst_drift:.2e}, "
        f"propagator err {worst_prop:.2e} (vs expm {worst_expm:.2e}), sup Re(lam)*||R|| {worst_res:.3f}, "
        f"scan fitted_M {scan.fitted_M:.3f} over t in [1, 1e4]"
    )


def test_09_margin_against_oracles():
    # Certified margin against a dense angular scan (n=2), then
    # sign agreement with an independent definiteness line search away
    # from the +-1e-6 boundary band.
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        model = oracles.random_model(rng, 2)
        got = sd.check_overdamping(model).margin
        want = oracles.grid_margin_n2(model)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-6

    disagreements = 0
    decided = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        model = oracles.random_model(rng, n)
        margin = sd.check_overdamping(model).margin
        if abs(margin) <= 1e-6:
            continue
        decided += 1
        oracle_overdamped = oracles.definiteness_minimum(model) < 0.0
        if (margin > 0.0) != oracle_overdamped:
            disagreements += 1
    assert disagreements == 0
    announce(
        f"[PASS] acceptance 9/10 margin oracles: grid gap {worst:.2e} over 100 models, "
        f"0 sign disagreements on {decided}/1000 models outside the 1e-6 band"
    )


def test_10_general_eigensolver_against_charpoly():
    # The dense nonsymmetric eigenvalue routine against characteristic
    # polynomial roots obtained without any eigensolver.
    from specdamp import linalg

    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = rng.standard_normal((n, n))
        got = linalg.nonsym_eig(m)[0]
        want = oracles.polynomial_spectrum(m)
        dist = oracles.multiset_distance(got, want)
        worst = max(worst, dist)
        assert dist <= 1e-8
    announce(
        f"[PASS] acceptance 10/10 eigensolver vs charpoly roots: "
        f"worst multiset distance {worst:.2e} over 1000 matrices"
    )
