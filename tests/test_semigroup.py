"""Tests for the phase-flow integrator and resolvent statistics."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import specdamp as sd
from specdamp import conditions, linalg, semigroup
from specdamp.model import phase_operator, validate

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
        traj = semigroup.evolve(m, sd.solve_qep(m), x0, np.array([0.0]))
        assert np.allclose(traj.states[0], x0.stacked(), atol=1e-14)

    def test_harmonic_quarter_period(self):
        m = scalar_model(1.0, 0.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        traj = semigroup.evolve(m, sd.solve_qep(m), x0, np.array([0.0, np.pi / 2.0]))
        end = traj.states[-1]
        assert np.allclose(end, [0.0, -1.0], atol=1e-12)

    def test_critical_damping_eigenvector_decay(self):
        # the true eigenvector of the defective block still decays as
        # e^{-t}; the modal basis is singular here, so expm(tA) takes over
        m = scalar_model(1.0, 2.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([-1.0]))
        traj = semigroup.evolve(m, sd.solve_qep(m), x0, np.array([0.0, 1.0]))
        assert traj.method == "expm"
        want = np.exp(-1.0) * np.array([1.0, -1.0])
        assert np.allclose(traj.states[-1], want, atol=1e-12)

    def test_undamped_energy_constant(self):
        m = scalar_model(1.0, 0.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        traj = semigroup.evolve(m, sd.solve_qep(m), x0, np.linspace(0.0, 2.0 * np.pi, 40))
        assert np.max(np.abs(traj.energies - traj.energies[0])) <= 1e-10

    def test_energy_nonincreasing_random(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            m = oracles.random_model(rng, n)
            x0 = sd.PhaseVector(rng.standard_normal(n), rng.standard_normal(n))
            traj = semigroup.evolve(m, sd.solve_qep(m), x0, np.linspace(0.0, 2.0, 15))
            e0 = traj.energies[0]
            assert np.all(np.diff(traj.energies) <= 1e-10 * max(e0, 1.0))

    def test_times_validation(self):
        m = scalar_model(1.0, 0.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        rep = sd.solve_qep(m)
        with pytest.raises(ValueError):
            semigroup.evolve(m, rep, x0, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            semigroup.evolve(m, rep, x0, np.array([-1.0, 0.5]))

    def test_expm_route_matches_modal_route(self, monkeypatch):
        rng = np.random.default_rng(63)
        m = oracles.random_model(rng, 2)
        x0 = sd.PhaseVector(rng.standard_normal(2), rng.standard_normal(2))
        times = np.linspace(0.0, 1.0, 9)
        rep = sd.solve_qep(m)
        exact = semigroup.evolve(m, rep, x0, times)
        assert exact.method == "exact-modal"
        monkeypatch.setattr(semigroup, "MODAL_CONDITION_LIMIT", 0.0)
        fallback = semigroup.evolve(m, rep, x0, times)
        assert fallback.method == "expm"
        for a, b in zip(fallback.states, exact.states):
            assert np.max(np.abs(a - b)) <= 1e-12
        assert np.max(np.abs(fallback.energies - exact.energies)) <= 1e-12 * exact.energies[0]

    def test_two_patch_energies_match_40_digit_expm(self):
        # The CLI's default state (unit positions at rest) on the coupled rod:
        # the modal formula over solve_qep's eigenpairs must reproduce a
        # 40-digit exp(tA) to roundoff.  Equal steps share one exponential.
        m = two_patch_rod(16)
        x0 = sd.PhaseVector(np.ones(m.n), np.zeros(m.n))
        times = np.linspace(0.0, 1.0, 5)
        traj = semigroup.evolve(m, sd.solve_qep(m), x0, times)
        want = oracles.flow_energies_mp(m, x0, times)
        assert traj.method == "exact-modal"
        assert np.max(np.abs(traj.energies - want)) <= 1e-13 * want[0]

    @pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
    def test_critical_blocks_energies_match_40_digit_expm(self, rotated):
        # Exactly critical repeated blocks (roots 1 and 2, each twice): two
        # Jordan blocks, a singular modal basis, so expm(tA) per sample.
        m = oracles.critical_blocks(rotated)
        rep = sd.solve_qep(m)
        assert conditions.riesz_basis_condition_number(m, rep) > semigroup.MODAL_CONDITION_LIMIT
        first = sd.PhaseVector.from_stacked(sd.eigenvectors(m, rep, [0])[:, 0])
        for x0 in (first, sd.PhaseVector(np.ones(4), np.zeros(4))):
            x0 = sd.PhaseVector(x0.position.real, x0.velocity.real)
            times = np.linspace(0.0, 1.0, 6)
            traj = semigroup.evolve(m, rep, x0, times)
            want = oracles.flow_energies_mp(m, x0, times)
            assert traj.method == "expm"
            assert np.max(np.abs(traj.energies - want)) <= 1e-12 * want[0]

    def test_stiff_critical_model_evolves_quickly(self, monkeypatch):
        # Rotated critically damped blocks, K eigenvalues 1e8 * {1, 1, 4, 4}:
        # the eigenvectors are nearly dependent, so the one coupled block
        # takes one expm call for all samples, whatever the stiffness; no
        # step loop runs.
        m = stiff_critical_model()
        rep = sd.solve_qep(m)
        x0 = sd.PhaseVector.from_stacked(sd.eigenvectors(m, rep, [0])[:, 0])
        times = np.linspace(0.0, 1.0, 200)
        calls = []

        def counted(a):
            calls.append(a.shape)
            return scipy.linalg.expm(a)

        monkeypatch.setattr(semigroup, "expm", counted)
        traj = semigroup.evolve(m, rep, x0, times)
        assert calls == [(times.size, 8, 8)]
        assert traj.method == "expm"
        assert np.all(np.isfinite(traj.energies))
        assert np.all(np.diff(traj.energies) <= 1e-10 * traj.energies[0])
        want = oracles.flow_energies_mp(m, x0, times[::40])
        assert np.max(np.abs(traj.energies[::40] - want)) <= 1e-12 * want[0]

    @pytest.mark.parametrize("samples", [4, 2001])
    @pytest.mark.parametrize("blocks", [0, 1, 2])
    def test_one_expm_call_per_coupled_block(self, blocks, samples, monkeypatch):
        # Exactly critical blocks put the whole model on the expm path.  The
        # plain blocks are four scalar modes, which flow in closed form with
        # no expm call; each rotated copy is one coupled block, which
        # exponentiates all samples in one call.
        plain, rotated = oracles.critical_blocks(False), oracles.critical_blocks(True)
        parts = [plain] + [rotated] * blocks
        m = sd.SystemModel(
            K=scipy.linalg.block_diag(*(p.K for p in parts)), C=scipy.linalg.block_diag(*(p.C for p in parts))
        )
        rep = sd.solve_qep(m)
        assert len(validate(m).coupled_blocks) == blocks
        calls = []

        def counted(a):
            calls.append(a.shape)
            return scipy.linalg.expm(a)

        monkeypatch.setattr(semigroup, "expm", counted)
        times = np.linspace(0.0, 1.0, samples)
        traj = semigroup.evolve(m, rep, sd.PhaseVector(np.ones(m.n), np.zeros(m.n)), times)
        assert traj.method == "expm"
        assert calls == [(samples, 8, 8)] * blocks
        assert np.all(np.diff(traj.energies) <= 1e-12 * traj.energies[0])

    @pytest.mark.parametrize("cap", [10, 5 * 64, 23 * 64])
    def test_expm_chunks_stay_within_the_cap(self, cap, monkeypatch):
        # One rotated critical block, 2n_b = 8, so 64 stack entries a sample:
        # each expm call takes max(1, cap // 64) samples, the last the rest,
        # and the states are those of the single-call flow bit for bit.
        m = oracles.critical_blocks(True)
        rep = sd.solve_qep(m)
        x0 = sd.PhaseVector(np.ones(m.n), np.zeros(m.n))
        times = np.linspace(0.0, 1.0, 23)
        whole = semigroup.evolve(m, rep, x0, times)
        calls = []

        def counted(a):
            calls.append(a.shape)
            return scipy.linalg.expm(a)

        monkeypatch.setattr(semigroup, "expm", counted)
        monkeypatch.setattr(semigroup, "MAX_TRAJECTORY_ENTRIES", cap)
        traj = semigroup.evolve(m, rep, x0, times)
        step = max(1, cap // 64)
        assert calls == [(min(step, times.size - lo), 8, 8) for lo in range(0, times.size, step)]
        assert all(shape[0] == 1 or shape[0] * 64 <= cap for shape in calls)
        assert traj.method == whole.method == "expm"
        assert np.array_equal(traj.states, whole.states)
        assert np.array_equal(traj.energies, whole.energies)

    def test_energy_basis_factored_once_per_report(self, monkeypatch):
        # The Riesz number needs the energy basis but not its factors; the
        # flows of one report share a single LU of the coupled block's basis.
        m = two_patch_rod(16)
        rep = sd.solve_qep(m)
        shapes, lu_factor = [], linalg.lu_factor

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "lu_factor", counted)
        conditions.riesz_basis_condition_number(m, rep)
        assert shapes == []
        x0 = sd.PhaseVector(np.ones(m.n), np.zeros(m.n))
        for _ in range(2):
            semigroup.evolve(m, rep, x0, np.linspace(0.0, 1.0, 5))
            semigroup.smoothing_probe(m, rep, x0, np.logspace(-3.0, 0.0, 4))
        assert shapes == [(2 * m.n, 2 * m.n)]

    def test_states_are_one_array_real_for_a_real_state(self):
        # exp(tA) is real: a real x0 gives real rows even where the modal
        # formula runs in complex arithmetic, and the eigenvector of a
        # complex eigenvalue flows as the complex e^{lam t} v.
        m = oracles.random_model(np.random.default_rng(62), 4)
        rep = sd.solve_qep(m)
        times = np.linspace(0.0, 1.0, 7)
        traj = semigroup.evolve(m, rep, sd.PhaseVector(np.ones(m.n), np.zeros(m.n)), times)
        assert traj.method == "exact-modal"
        assert traj.states.shape == (times.size, 2 * m.n) and traj.states.dtype == np.float64
        k = int(np.argmax(np.abs(rep.eigenvalues.imag)))
        v = sd.eigenvectors(m, rep, [k])[:, 0]
        traj = semigroup.evolve(m, rep, sd.PhaseVector.from_stacked(v), times)
        assert traj.states.shape == (times.size, 2 * m.n) and traj.states.dtype == np.complex128
        want = np.exp(rep.eigenvalues[k] * times)[:, None] * v
        assert np.max(np.abs(traj.states - want)) <= 1e-12


def stiff_critical_model():
    rng = np.random.default_rng(64)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    kw = 1e8 * np.array([1.0, 1.0, 4.0, 4.0])
    stiff, root = (q * kw) @ q.T, (q * np.sqrt(kw)) @ q.T
    return sd.SystemModel(K=0.5 * (stiff + stiff.T), C=root + root.T)


class TestPropagator:
    def test_zero_time_identity(self):
        m = scalar_model(2.0, 1.0)
        assert np.allclose(semigroup.propagator(m, sd.solve_qep(m), 0.0), np.eye(2), atol=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(64)
        m = oracles.random_model(rng, 3)
        s, t = 0.3, 0.9
        rep = sd.solve_qep(m)
        ps = semigroup.propagator(m, rep, s)
        pt = semigroup.propagator(m, rep, t)
        pst = semigroup.propagator(m, rep, s + t)
        assert np.allclose(ps @ pt, pst, atol=1e-10)

    def test_eigenvalues_exponentiate(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = oracles.random_model(rng, n)
            t = 0.7
            rep = sd.solve_qep(m)
            lam = rep.eigenvalues
            prop = semigroup.propagator(m, rep, t)
            pe = np.linalg.eigvals(prop)
            assert oracles.multiset_distance(pe, np.exp(t * lam)) <= 1e-8
            # An independent check: the modal formula against scaling and squaring.
            if conditions.riesz_basis_condition_number(m, rep) <= semigroup.MODAL_CONDITION_LIMIT:
                want = scipy.linalg.expm(t * phase_operator(m))
                assert np.linalg.norm(prop - want) <= 1e-10 * np.linalg.norm(want)

    def test_defective_closed_form(self):
        # critical damping: A = -I + N with N^2 = 0, so
        # e^{tA} = e^{-t} (I + t N)
        m = scalar_model(1.0, 2.0)
        t = 0.8
        nil = phase_operator(m) + np.eye(2)
        want = np.exp(-t) * (np.eye(2) + t * nil)
        assert np.allclose(semigroup.propagator(m, sd.solve_qep(m), t), want, atol=1e-10)

    def test_scalar_mode_flows_match_40_digit_expm(self):
        # Each scalar mode's closed-form flow against a 40-digit expm, in
        # energy coordinates, where the flow is a contraction: an exact
        # double root, discriminants c^2 - 4k = +-1e-3, an underdamped mode,
        # c^2 / k = 1e9, and the top mode of the single-patch rod with a = 2
        # at N = 256 (c^2 / k = 1.7e12).
        top = ((256 - 0.5) * np.pi) ** 4
        k = np.array([1.0, 1.0, 1.0, 4.0, 1.0, top])
        c = np.array([2.0, np.sqrt(4.0 + 1e-3), np.sqrt(4.0 - 1e-3), 1.0, np.sqrt(1e9), 2.0 * top])
        m = sd.SystemModel(K=np.diag(k), C=np.diag(c))
        rep = sd.solve_qep(m)
        assert validate(m).scalar_modes.size == m.n
        for t in (1e-3, 0.1, 1.0, 10.0):
            prop = semigroup.propagator(m, rep, t)
            for i in range(m.n):
                f = prop[np.ix_([i, m.n + i], [i, m.n + i])]
                got = f * np.array([[1.0, np.sqrt(k[i])], [1.0 / np.sqrt(k[i]), 1.0]])
                assert np.linalg.norm(got - oracles.scalar_flow_mp(k[i], c[i], t), 2) <= 1e-14


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

    def test_singular_raises_on_one_coordinate_block(self):
        # The spectrum handed in misses the eigenvalue i sqrt(2), where the
        # 1 x 1 Q(lam) = 2 + lam^2 is rounding: the pivot test must see it
        # against the size of its terms, not against Q itself.
        m = scalar_model(2.0, 0.0)
        lam = sd.solve_qep(m).eigenvalues[-1]
        with pytest.raises(linalg.Singular):
            semigroup.resolvent_norm_at(m, SimpleNamespace(eigenvalues=np.array([-1.0])), lam)

    def test_two_patch_matches_mp_oracle(self):
        m = two_patch_rod(16)
        rep = sd.solve_qep(m)
        for t in (1.0, 46.4, 1000.0, 1e4):
            lam = complex(1.0, t)
            want = oracles.resolvent_norm_mp(m, lam)
            assert semigroup.resolvent_norm_at(m, rep, lam) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_wide_k_matches_mp_oracle(self):
        # K over 1e-4..1e4 in a random basis: the low modes are where
        # y = K^{-1/2} a + lam x would cancel at large |lam|.
        m = oracles.wide_k_model()
        rep = sd.solve_qep(m)
        for t in (1.0, 46.4, 1000.0, 1e4):
            lam = complex(1.0, t)
            want = oracles.resolvent_norm_mp(m, lam)
            assert semigroup.resolvent_norm_at(m, rep, lam) == pytest.approx(want, rel=1e-12, abs=0.0)


def two_patch_rod(N):
    return sd.beam_assemble(
        sd.BeamSpec(E=1.0, patches=(sd.Patch(1.2, 0.0, 0.5), sd.Patch(2.5, 0.5, 1.0)), N=N)
    )


def dense_resolvent_norm(m, lam):
    # The energy-scaled inverse formed explicitly, normed by numpy's SVD.
    vals, vecs = np.linalg.eigh(m.K)
    scale = np.eye(2 * m.n)
    inv_scale = np.eye(2 * m.n)
    scale[: m.n, : m.n] = (vecs * np.sqrt(vals)) @ vecs.T
    inv_scale[: m.n, : m.n] = (vecs / np.sqrt(vals)) @ vecs.T
    inverse = np.linalg.inv(phase_operator(m) - lam * np.eye(2 * m.n))
    return float(np.linalg.norm(scale @ inverse @ inv_scale, 2))


CLI_GRID = np.logspace(0.0, 4.0, 25)


class TestResolventLanczos:
    """Operators of dimension >= LANCZOS_MIN_DIMENSION: no explicit inverse."""

    def test_two_patch_N64_matches_dense(self):
        m = two_patch_rod(64)
        rep = sd.solve_qep(m)
        for t in CLI_GRID:
            lam = complex(1.0, t)
            want = dense_resolvent_norm(m, lam)
            assert semigroup.resolvent_norm_at(m, rep, lam) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_swap_symmetric_antisymmetric_maximum(self):
        # K = [[A, A/2], [A/2, A]], C = [[D, .98 D], [.98 D, D]] splits under
        # the swap of its two halves: K acts as A/2 and C as D/50 on the
        # antisymmetric half, which carries the maximum at low |Im lam|.  A
        # start vector with no antisymmetric part would miss it there.
        rng = np.random.default_rng(3)

        def spd(vals):
            q = np.linalg.qr(rng.standard_normal((32, 32)))[0]
            a = (q * vals) @ q.T
            return 0.5 * (a + a.T)

        a, d = spd(np.logspace(0.0, 4.0, 32)), spd(rng.uniform(0.5, 2.0, 32))
        m = sd.SystemModel(K=np.block([[a, a / 2], [a / 2, a]]), C=np.block([[d, 0.98 * d], [0.98 * d, d]]))
        anti = sd.SystemModel(K=a / 2, C=0.02 * d)
        sym = sd.SystemModel(K=1.5 * a, C=1.98 * d)
        rep = sd.solve_qep(m)
        anti_wins = 0
        for t in CLI_GRID:
            lam = complex(1.0, t)
            want = dense_resolvent_norm(m, lam)
            anti_wins += dense_resolvent_norm(anti, lam) > 1.4 * dense_resolvent_norm(sym, lam)
            assert semigroup.resolvent_norm_at(m, rep, lam) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert anti_wins >= 8

    def test_near_spectrum_raises(self):
        m = two_patch_rod(64)
        rep = sd.solve_qep(m)
        with pytest.raises(semigroup.NearSpectrum):
            semigroup.resolvent_norm_at(m, rep, rep.eigenvalues[0])

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_raises(self):
        # The spectrum handed in misses lam = i, an eigenvalue of the
        # undamped unit model, so only the pivot test can catch it.
        m = sd.SystemModel(K=np.eye(64), C=np.zeros((64, 64)))
        with pytest.raises(linalg.Singular):
            semigroup.resolvent_norm_at(m, SimpleNamespace(eigenvalues=np.array([-1.0])), 1.0j)

    def test_one_lu_and_no_dense_eigensolve(self, monkeypatch):
        m = two_patch_rod(64)
        rep = sd.solve_qep(m)
        calls = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(linalg, "lu_factor", counted("lu", linalg.lu_factor))
        for name in ("eig", "eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        semigroup.resolvent_norm_at(m, rep, 1.0 + 10.0j)
        # The one LU is of the 64 x 64 Q(lam), not of the 128 x 128 A - lam.
        assert [c for c in calls if c[0] == "lu"] == [("lu", (64, 64))]
        assert not [c for c in calls if c[1] == (128, 128)]
        # The scan: one such LU per point, and still no dense eigensolve.
        calls.clear()
        semigroup.resolvent_scan(m, rep, 1.0, CLI_GRID)
        assert calls == [("lu", (64, 64))] * CLI_GRID.size

    @pytest.mark.parametrize("N", [64, 128])
    def test_scan_matches_one_point_and_any_chunk(self, N, monkeypatch):
        # The scan's points run their Lanczos in lockstep, in chunks of a
        # byte budget of factors; each sample is the one-point value, and
        # one point per chunk changes none of them.
        m = two_patch_rod(N)
        rep = sd.solve_qep(m)
        scan = semigroup.resolvent_scan(m, rep, 1.0, CLI_GRID)
        for lam, norm, _ in scan.samples:
            assert norm == pytest.approx(semigroup.resolvent_norm_at(m, rep, lam), rel=1e-14, abs=0.0)
        monkeypatch.setattr(semigroup, "RESOLVENT_CHUNK_BYTES", 1)
        single = semigroup.resolvent_scan(m, rep, 1.0, CLI_GRID)
        for (lam, norm, _), (lam1, norm1, _) in zip(scan.samples, single.samples):
            assert lam1 == lam and norm1 == pytest.approx(norm, rel=1e-14, abs=0.0)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_first_failing_point_raises(self):
        # Undamped coupled model with K eigenvalues j^2: Q(i j) is singular.
        # The spectrum handed in holds +-i and 2.5i, so lam = i and 2.5i are
        # caught as near it, and lam = 2i only by the pivot test.  Whichever
        # failing point comes first in the grid raises.
        q = np.linalg.qr(np.random.default_rng(5).standard_normal((64, 64)))[0]
        stiff = (q * np.arange(1.0, 65.0) ** 2) @ q.T
        m = sd.SystemModel(K=0.5 * (stiff + stiff.T), C=np.zeros((64, 64)))
        assert len(validate(m).coupled_blocks) == 1
        rep = SimpleNamespace(eigenvalues=np.array([-1j, 1j, 2.5j]))
        with pytest.raises(semigroup.NearSpectrum) as exc:
            semigroup.resolvent_scan(m, rep, 0.0, [0.5, 0.75, 1.0, 1.5, 2.0])
        assert exc.value.lam == 1j
        with pytest.raises(linalg.Singular):
            semigroup.resolvent_scan(m, rep, 0.0, [0.5, 2.0, 2.5, 3.5])


def rotated(rng, k, c):
    # K = Q diag(k) Q^T and C = Q diag(c) Q^T in a random basis Q.
    q = np.linalg.qr(rng.standard_normal((k.size, k.size)))[0]
    k, c = (q * k) @ q.T, (q * c) @ q.T
    return sd.SystemModel(K=0.5 * (k + k.T), C=0.5 * (c + c.T))


def explicit_route_models():
    # Models whose every norm comes from the stacked explicit route or the
    # closed form of the scalar modes: n = 1, rotated critical Jordan blocks
    # (n = 4), near-critical (n = 8), K over 1e-4..1e4 (n = 12), a coupled
    # block beside two scalar modes, and the two-patch rod at N = 32.
    rng = np.random.default_rng(21)
    kw = rng.uniform(1.0, 10.0, 8)
    mixed = np.zeros((5, 5))
    mixed[:3, :3] = rotated(rng, np.array([1.0, 3.0, 7.0]), np.zeros(3)).K
    mixed[3:, 3:] = np.diag([2.0, 5.0])
    return {
        "n1": scalar_model(2.0, 0.7),
        "critical-blocks": rotated(rng, np.array([1.0, 1.0, 4.0, 4.0]), np.array([2.0, 2.0, 4.0, 4.0])),
        "near-critical": rotated(rng, kw, 2.0 * 1.001 * np.sqrt(kw)),
        "wide-K": oracles.wide_k_model(),
        "mixed": sd.SystemModel(K=mixed, C=np.diag([0.5, 1.0, 0.2, 0.3, 4.0])),
        "two-patch-N32": two_patch_rod(32),
    }


class TestResolventStacked:
    """Operators below LANCZOS_MIN_DIMENSION and scalar modes: whole-grid stacks."""

    @pytest.mark.parametrize("name", list(explicit_route_models()))
    def test_scan_samples_are_one_point_values_in_any_chunk(self, name, monkeypatch):
        m = explicit_route_models()[name]
        rep = sd.solve_qep(m)
        assert 2 * max([b.n for b in validate(m).coupled_blocks], default=0) < semigroup.LANCZOS_MIN_DIMENSION
        scan = semigroup.resolvent_scan(m, rep, 1.0, CLI_GRID)
        for lam, norm, _ in scan.samples:
            assert norm == semigroup.resolvent_norm_at(m, rep, lam)
        monkeypatch.setattr(semigroup, "RESOLVENT_CHUNK_BYTES", 1)
        single = semigroup.resolvent_scan(m, rep, 1.0, CLI_GRID)
        assert single.samples == scan.samples

    def test_one_stacked_svd_per_chunk_and_no_lu_factor(self, monkeypatch):
        # At N = 32 a chunk holds 7 points (RESOLVENT_CHUNK_BYTES), so the
        # 25-point scan runs 4 chunks, one batched SVD each.
        m = two_patch_rod(32)
        rep = sd.solve_qep(m)
        calls = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(linalg, "lu_factor", counted("lu_factor", linalg.lu_factor))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        semigroup.resolvent_scan(m, rep, 1.0, CLI_GRID)
        assert calls == [("svd", (size, 64, 64)) for size in (7, 7, 7, 4)]
        calls.clear()
        semigroup.resolvent_norm_at(m, rep, 1.0 + 10.0j)
        assert calls == [("svd", (1, 64, 64))]

    @pytest.mark.parametrize("coupled", [True, False])
    def test_non_finite_point_rejected(self, coupled):
        # The two-patch rod at N = 8, one coupled block; two scalar modes.
        m = two_patch_rod(8) if coupled else sd.SystemModel(K=np.diag([2.0, 3.0]), C=np.diag([0.5, 0.2]))
        rep = sd.solve_qep(m)
        for lam in (complex(np.nan, 1.0), complex(1.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                semigroup.resolvent_norm_at(m, rep, lam)

    @pytest.mark.parametrize("budget", [semigroup.RESOLVENT_CHUNK_BYTES, 1])
    @pytest.mark.parametrize("coupled", [True, False])
    def test_first_failing_point_raises(self, coupled, budget, monkeypatch):
        # Undamped, K eigenvalues j^2: Q(i j) is singular.  Coupled, one
        # block of n = 8 on the explicit route; uncoupled, 8 scalar modes.
        # The spectrum handed in holds +-i and 2.5i, so lam = i and 2.5i are
        # caught as near it, and lam = 2i only by the pivot test, which
        # counts the one negligible pivot out of 8 or of 16.
        monkeypatch.setattr(semigroup, "RESOLVENT_CHUNK_BYTES", budget)
        k = np.arange(1.0, 9.0) ** 2
        if coupled:
            m = rotated(np.random.default_rng(5), k, np.zeros(8))
        else:
            m = sd.SystemModel(K=np.diag(k), C=np.zeros((8, 8)))
        parts = validate(m)
        assert (len(parts.coupled_blocks), parts.scalar_modes.size) == ((1, 0) if coupled else (0, 8))
        rep = SimpleNamespace(eigenvalues=np.array([-1j, 1j, 2.5j]))
        with pytest.raises(semigroup.NearSpectrum) as exc:
            semigroup.resolvent_scan(m, rep, 0.0, [0.5, 0.75, 1.0, 1.5, 2.0])
        assert exc.value.lam == 1j
        with pytest.raises(linalg.Singular) as exc:
            semigroup.resolvent_scan(m, rep, 0.0, [0.5, 2.0, 2.5, 3.5])
        assert exc.value.rank_estimate == (7 if coupled else 15)


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
        val = semigroup.smoothing_probe(m, sd.solve_qep(m), x0, np.logspace(-2.0, 0.0, 9))
        assert np.isfinite(val) and val > 0.0

    def test_scales_linearly_for_undamped(self):
        # unitary-like orbit: ||A x(t)|| is constant, so the statistic is
        # t_max * const and doubling the horizon doubles it
        m = scalar_model(1.0, 0.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        rep = sd.solve_qep(m)
        v1 = semigroup.smoothing_probe(m, rep, x0, np.array([1.0]))
        v2 = semigroup.smoothing_probe(m, rep, x0, np.array([2.0]))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-9)

    def test_grid_validation(self):
        m = scalar_model(1.0, 1.0)
        x0 = sd.PhaseVector(np.array([1.0]), np.array([0.0]))
        rep = sd.solve_qep(m)
        for grid in (np.array([]), np.array([-1.0, 1.0])):
            with pytest.raises(ValueError, match="t_grid must be nonempty and nonnegative"):
                semigroup.smoothing_probe(m, rep, x0, grid)
