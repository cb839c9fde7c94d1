"""Tests for the phase-flow integrator and resolvent statistics."""

import time

import numpy as np
import pytest

import specdamp as sd
from specdamp import linalg, semigroup
from specdamp.model import phase_operator

import oracles


def scalar_model(k, c):
    return sd.SystemModel(K=np.array([[float(k)]]), C=np.array([[float(c)]]))


class TestEnergy:
    def test_formula(self):
        m = sd.SystemModel(K=np.diag([2.0, 3.0]), C=np.zeros((2, 2)))
        v = sd.PhaseVector(np.array([1.0, 1.0]), np.array([2.0, 0.0]))
        assert semigroup.energy(m, v) == pytest.approx(2.0 + 3.0 + 4.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(61)
        m = oracles.random_model(rng, 3)
        for _ in range(10):
            v = sd.PhaseVector(rng.standard_normal(3), rng.standard_normal(3))
            assert semigroup.energy(m, v) >= 0.0


class TestEvolve:
    def test_time_zero_is_identity(self):
        m = scalar_model(1.0, 0.5)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([-2.0]))
        traj = semigroup.evolve(m, x0, np.array([0.0]))
        assert np.allclose(traj.states[0].stacked(), x0.stacked(), atol=1e-14)

    def test_harmonic_quarter_period(self):
        m = scalar_model(1.0, 0.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        traj = semigroup.evolve(m, x0, np.array([0.0, np.pi / 2.0]))
        end = traj.states[-1].stacked()
        assert np.allclose(end, [0.0, -1.0], atol=1e-12)

    def test_critical_damping_eigenvector_decay(self):
        # the true eigenvector of the defective block still decays as
        # e^{-t}; the integrator must fall back to time stepping here
        m = scalar_model(1.0, 2.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([-1.0]))
        traj = semigroup.evolve(m, x0, np.array([0.0, 1.0]))
        assert traj.method == "trapezoidal"
        assert traj.step_error_estimate is not None
        want = np.exp(-1.0) * np.array([1.0, -1.0])
        assert np.allclose(traj.states[-1].stacked(), want, atol=1e-5)

    def test_undamped_energy_constant(self):
        m = scalar_model(1.0, 0.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        traj = semigroup.evolve(m, x0, np.linspace(0.0, 2.0 * np.pi, 40))
        assert np.max(np.abs(traj.energies - traj.energies[0])) <= 1e-10

    def test_energy_nonincreasing_random(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            m = oracles.random_model(rng, n)
            x0 = sd.PhaseVector(rng.standard_normal(n), rng.standard_normal(n))
            traj = semigroup.evolve(m, x0, np.linspace(0.0, 2.0, 15))
            e0 = traj.energies[0]
            assert np.all(np.diff(traj.energies) <= 1e-10 * max(e0, 1.0))

    def test_times_validation(self):
        m = scalar_model(1.0, 0.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            semigroup.evolve(m, x0, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            semigroup.evolve(m, x0, np.array([-1.0, 0.5]))

    def test_trapezoid_route_matches_modal_route(self, monkeypatch):
        rng = np.random.default_rng(63)
        m = oracles.random_model(rng, 2)
        x0 = sd.PhaseVector(rng.standard_normal(2), rng.standard_normal(2))
        times = np.linspace(0.0, 1.0, 9)
        exact = semigroup.evolve(m, x0, times)
        assert exact.method == "exact-modal"
        monkeypatch.setattr(semigroup, "MODAL_CONDITION_LIMIT", 0.0)
        stepped = semigroup.evolve(m, x0, times)
        assert stepped.method == "trapezoidal"
        diff = np.max(
            np.abs(stepped.states[-1].stacked() - exact.states[-1].stacked())
        )
        assert diff <= 1e-3
        assert diff <= 4.0 * stepped.step_error_estimate + 1e-12

    def test_stiff_trapezoid_refused_before_stepping(self):
        # Rotated critically damped blocks, K eigenvalues 1e8 * {1, 1, 4, 4}:
        # the eigenvectors are nearly dependent, and the trapezoid would
        # need about 1.2e10 steps of h = 0.1 / ||A|| to reach t = 1.
        rng = np.random.default_rng(64)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        kw = 1e8 * np.array([1.0, 1.0, 4.0, 4.0])
        stiff, root = (q * kw) @ q.T, (q * np.sqrt(kw)) @ q.T
        m = sd.SystemModel(K=0.5 * (stiff + stiff.T), C=root + root.T)
        x0 = sd.solve_qep(m).eigenpairs[0].vector
        start = time.perf_counter()
        with pytest.raises(linalg.NoConvergence, match="steps"):
            semigroup.evolve(m, x0, np.linspace(0.0, 1.0, 200))
        assert time.perf_counter() - start < 1.0


class TestPropagator:
    def test_zero_time_identity(self):
        m = scalar_model(2.0, 1.0)
        assert np.allclose(semigroup.propagator(m, 0.0), np.eye(2), atol=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(64)
        m = oracles.random_model(rng, 3)
        s, t = 0.3, 0.9
        ps = semigroup.propagator(m, s)
        pt = semigroup.propagator(m, t)
        pst = semigroup.propagator(m, s + t)
        assert np.allclose(ps @ pt, pst, atol=1e-10)

    def test_eigenvalues_exponentiate(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = oracles.random_model(rng, n)
            t = 0.7
            lam = sd.solve_qep(m).eigenvalues
            pe = np.linalg.eigvals(semigroup.propagator(m, t))
            assert oracles.multiset_distance(pe, np.exp(t * lam)) <= 1e-8

    def test_defective_closed_form(self):
        # critical damping: A = -I + N with N^2 = 0, so
        # e^{tA} = e^{-t} (I + t N)
        m = scalar_model(1.0, 2.0)
        t = 0.8
        nil = phase_operator(m) + np.eye(2)
        want = np.exp(-t) * (np.eye(2) + t * nil)
        assert np.allclose(semigroup.propagator(m, t), want, atol=1e-10)


class TestResolvent:
    def test_undamped_scalar_value(self):
        # energy-norm resolvent of the rotation generator at lam = 1:
        # distance to the spectrum {+-i} in the unitary coordinates
        m = scalar_model(1.0, 0.0)
        assert semigroup.resolvent_norm_at(m, sd.solve_qep(m), 1.0 + 0.0j) == pytest.approx(
            1.0 / np.sqrt(2.0), rel=1e-12
        )

    def test_hille_yosida_right_half_plane(self):
        rng = np.random.default_rng(66)
        probes = [0.5 + 0.0j, 1.0 + 2.0j, 3.0 - 1.0j, 0.05 + 5.0j]
        for _ in range(15):
            m = oracles.random_model(rng, int(rng.integers(1, 5)))
            rep = sd.solve_qep(m)
            for lam in probes:
                val = semigroup.resolvent_norm_at(m, rep, lam)
                assert val <= 1.0 / lam.real + 1e-9

    def test_zero_matches_inverse_energy_norm(self):
        rng = np.random.default_rng(67)
        m = oracles.random_model(rng, 3)
        val = semigroup.resolvent_norm_at(m, sd.solve_qep(m), 0.0 + 0.0j)
        vals, vecs = np.linalg.eigh(m.K)
        kh = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
        kih = vecs @ np.diag(vals**-0.5) @ vecs.T
        left = np.block([[kh, np.zeros((3, 3))], [np.zeros((3, 3)), np.eye(3)]])
        right = np.block([[kih, np.zeros((3, 3))], [np.zeros((3, 3)), np.eye(3)]])
        want = np.linalg.norm(left @ sd.phase_operator_inverse(m) @ right, 2)
        assert val == pytest.approx(want, rel=1e-10)

    def test_near_spectrum_raises(self):
        m = scalar_model(1.0, 0.0)
        with pytest.raises(semigroup.NearSpectrum):
            semigroup.resolvent_norm_at(m, sd.solve_qep(m), 1.0j)


class TestResolventScan:
    def test_damped_beam_bounded_products(self):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=16)
        m = sd.beam_assemble(spec)
        scan = semigroup.resolvent_scan(m, sd.solve_qep(m), 1.0, np.logspace(0.0, 4.0, 25))
        assert scan.products_bounded
        assert np.isfinite(scan.fitted_M) and scan.fitted_M > 0.0
        assert scan.tail_slope <= 0.1
        # fully real spectrum: zero sector angle, sectorial verdict
        assert scan.sector_angle == 0.0 and scan.sectorial

    def test_undamped_flagged_nonsectorial(self):
        m = sd.SystemModel(K=np.eye(2), C=np.zeros((2, 2)))
        scan = semigroup.resolvent_scan(m, sd.solve_qep(m), 0.5, np.logspace(0.0, 3.0, 15))
        assert scan.sector_angle == np.inf
        assert not scan.sectorial

    def test_grid_validation(self):
        m = scalar_model(1.0, 1.0)
        rep = sd.solve_qep(m)
        with pytest.raises(ValueError):
            semigroup.resolvent_scan(m, rep, 1.0, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            semigroup.resolvent_scan(m, rep, 1.0, np.array([-1.0, 1.0]))


class TestSmoothingProbe:
    def test_damped_statistic_finite(self):
        m = scalar_model(1.0, 1.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        val = semigroup.smoothing_probe(m, x0, np.logspace(-2.0, 0.0, 9))
        assert np.isfinite(val) and val > 0.0

    def test_scales_linearly_for_undamped(self):
        # unitary-like orbit: ||A x(t)|| is constant, so the statistic is
        # t_max * const and doubling the horizon doubles it
        m = scalar_model(1.0, 0.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        v1 = semigroup.smoothing_probe(m, x0, np.array([1.0]))
        v2 = semigroup.smoothing_probe(m, x0, np.array([2.0]))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-9)
