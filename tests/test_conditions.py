"""Tests for the sufficient-condition checks and threshold reports."""

import json

import numpy as np
import pytest
import scipy.linalg

import specdamp as sd
from specdamp import cli, conditions, krein
from specdamp.model import validate

import oracles


def scalar_model(k, c):
    return sd.SystemModel(K=np.array([[float(k)]]), C=np.array([[float(c)]]))


def modal_model(n, gamma, seed=0):
    # The benchmark's modal-check family: diagonal K over [1, 100] plus one
    # unit mode, C = gamma (K + I).
    k = np.concatenate([[1.0], np.random.default_rng(seed).uniform(1.0, 100.0, n - 1)])
    return sd.SystemModel(K=np.diag(k), C=gamma * (np.diag(k) + np.eye(n))), k


class TestOverdamping:
    def test_scalar_margins(self):
        # n = 1 closed form: margin = (c/k)^2 - 4/k
        assert conditions.check_overdamping(scalar_model(1.0, 3.0)).margin == pytest.approx(5.0, abs=1e-12)
        assert conditions.check_overdamping(scalar_model(1.0, 2.0)).margin == pytest.approx(0.0, abs=1e-12)
        assert conditions.check_overdamping(scalar_model(1.0, 0.0)).margin == pytest.approx(-4.0, abs=1e-12)

    def test_verdict_and_certificate(self):
        od = conditions.check_overdamping(scalar_model(1.0, 3.0))
        assert od.overdamped and od.definite_point_exists
        assert od.certificate_s == pytest.approx(-1.5, abs=1e-6)
        assert od.certificate_value == pytest.approx(-1.25, abs=1e-6)
        od0 = conditions.check_overdamping(scalar_model(1.0, 0.0))
        assert not od0.overdamped and not od0.definite_point_exists
        assert od0.certificate_value > 0.0

    def test_matches_grid_oracle_n2(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            m = oracles.random_model(rng, 2)
            od = conditions.check_overdamping(m)
            ref = oracles.grid_margin_n2(m)
            assert abs(od.margin - ref) <= 1e-6 * (1.0 + abs(ref))

    def test_minimizer_attains_margin(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = oracles.random_model(rng, n)
            od = conditions.check_overdamping(m)
            g = np.asarray(od.minimizer)
            assert np.isclose(np.linalg.norm(g), 1.0, atol=1e-9)
            vals, vecs = np.linalg.eigh(m.K)
            kih = vecs @ np.diag(vals**-0.5) @ vecs.T
            wt = kih @ m.C @ kih
            kinv = kih @ kih
            val = (g @ wt @ g) ** 2 - 4.0 * (g @ kinv @ g)
            assert val == pytest.approx(od.margin, abs=1e-9 * (1.0 + abs(od.margin)))

    def test_detectors_agree_in_value_on_rod(self):
        # For n >= 3 the image of the unit sphere under
        # g -> (g^T Wt g, g^T K^{-1} g) is convex (Brickman, 1961), so by
        # minimax min_s lam_max(L(s)) = -margin / 4 exactly: the witness
        # value and the search's lower bound meet.
        spec = sd.BeamSpec(E=1.0, patches=((1.2, 0.0, 0.5), (2.5, 0.5, 1.0)), N=32)
        od = conditions.check_overdamping(sd.beam_assemble(spec))
        assert od.margin == pytest.approx(-4.0 * od.certificate_value, rel=1e-12)

    def test_deterministic_given_seeds(self):
        rng = np.random.default_rng(53)
        m = oracles.random_model(rng, 3)
        a = conditions.check_overdamping(m)
        b = conditions.check_overdamping(m)
        assert a.margin == b.margin
        assert np.array_equal(a.minimizer, b.minimizer)

    def test_overdamped_models_have_real_spectrum(self):
        rng = np.random.default_rng(54)
        checked = 0
        for _ in range(80):
            m = oracles.random_model(rng, int(rng.integers(1, 5)))
            od = conditions.check_overdamping(m)
            if od.margin > 1e-9:
                checked += 1
                rep = sd.solve_qep(m)
                assert np.all(rep.eigenvalues.imag == 0.0)
        assert checked >= 5


class TestCertifiedInterval:
    # The 50-digit interval [-4 lam_max(L(s*)), f(g)] is exact for the stored
    # K and C.  A float K^{-1/2} of a dense K is accurate only to about
    # eps * cond(K) relative, which bounds how close any float margin can
    # come to it; on the rod K is diagonal and that term is absent.  On the
    # wide-K model at seed 0 projected-gradient descent over the sphere from
    # 34 starts stops 2.5e-3 relative above the margin.
    @pytest.mark.parametrize("name", ["wide-K", "two-patch-rod-N32"])
    def test_margin_inside_50_digit_interval(self, name):
        if name == "wide-K":
            m = oracles.wide_k_model()
            rtol = np.finfo(float).eps * np.linalg.cond(m.K)
        else:
            spec = sd.BeamSpec(E=1.0, patches=((1.2, 0.0, 0.5), (2.5, 0.5, 1.0)), N=32)
            m = sd.beam_assemble(spec)
            rtol = 1e-12
        od = conditions.check_overdamping(m)
        lower, upper = oracles.overdamping_interval_mp(m, od.minimizer, od.certificate_s)
        tol = rtol * abs(upper)
        assert -tol <= upper - lower <= tol
        assert lower - tol <= od.margin <= upper + tol

    def test_displaced_certificate_is_refused(self, monkeypatch, tmp_path):
        search = conditions._definiteness_search

        def displaced(parts, *args):
            s, _, g = search(parts, *args)
            s -= 0.5
            # The scalar model is one component: one 1 x 1 block.
            ((_, wt, kinv),) = parts
            return s, float(np.linalg.eigvalsh(s * s * np.eye(1) + s * wt + kinv)[-1]), g

        monkeypatch.setattr(conditions, "_definiteness_search", displaced)
        m = scalar_model(1.0, 3.0)
        with pytest.raises(conditions.OptimizerDisagreement):
            conditions.check_overdamping(m)
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"type": "generic", "K": [[1.0]], "C": [[3.0]]}, '
                        '"analyses": ["conditions"]}')
        assert cli.main(["check", "--config", str(path)]) == 3


    def test_seed_changes_no_result(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": {"type": "beam", "E": 1.0, "N": 16,
                      "patches": [{"a": 1.2, "from": 0.0, "to": 0.5},
                                  {"a": 2.5, "from": 0.5, "to": 1.0}]},
            "analyses": ["spectrum", "conditions"],
        }))
        reports, outs = [], []
        for seed in ("0", "5"):
            out = tmp_path / seed
            assert cli.main(["analyze", "--config", str(path), "--out", str(out), "--seed", seed]) == 0
            reports.append((out / "report.json").read_bytes())
            assert cli.main(["check", "--config", str(path), "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert outs[0] == outs[1]

class TestModalClosedForm:
    # gamma = 1.3 puts u* = 2/gamma^2 - 1 inside [1/k_max, 1/k_min]: phi has
    # its minimum at the kink s = -1/gamma.  gamma = 0.6 and 2.0 put the
    # minimum at the smooth vertex of the parabola of the largest and the
    # smallest compliance.  phi is flat at a smooth vertex, so there its
    # argument is determined only to about sqrt(eps).
    @pytest.mark.parametrize("gamma, kink", [(0.6, False), (1.3, True), (2.0, False)])
    def test_margin_and_certificate(self, gamma, kink):
        m, k = modal_model(256, gamma)
        margin, s_star, value = oracles.modal_overdamping(k, gamma)
        assert (s_star == -1.0 / gamma) == kink
        od = conditions.check_overdamping(m)
        assert od.margin == pytest.approx(margin, rel=0, abs=1e-12 * (1.0 + abs(margin)))
        assert od.certificate_value == pytest.approx(value, rel=0, abs=1e-12 * (1.0 + abs(value)))
        assert od.certificate_s == pytest.approx(s_star, rel=0, abs=1e-12 if kink else 1e-7)
        assert od.overdamped == (margin > 0.0)
        assert od.definite_point_exists == (value < 0.0)


class TestEigensolveBudget:
    @pytest.mark.parametrize("gamma", [0.6, 1.3])
    def test_check_overdamping_eigensolves(self, monkeypatch, gamma):
        m, _ = modal_model(128, gamma)
        validate(m)  # the model's one shared validation is not the check's cost
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)

            return wrapper

        for mod, name in (
            (np.linalg, "eigh"),
            (np.linalg, "eigvalsh"),
            (scipy.linalg, "eigh"),
            (scipy.linalg, "eigvalsh"),
        ):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        conditions.check_overdamping(m)
        # A chord step can land on the vertex of a scalar mode's parabola,
        # a minimizer, and then the witness needs no eigensolve at all.
        assert len(calls) <= 40

    @pytest.mark.parametrize("N", [12, 32, 64, 128])
    def test_two_patch_rod_top_eigenpairs(self, monkeypatch, N):
        # phi is smooth at the rod's s*, where a tangent cut only halves the
        # bracket (26-28 solves); the chord of the slopes converges
        # superlinearly there.
        spec = sd.BeamSpec(E=1.0, patches=((1.2, 0.0, 0.5), (2.5, 0.5, 1.0)), N=N)
        m = sd.beam_assemble(spec)
        solves = []
        eigh = scipy.linalg.eigh

        def counted(*args, **kwargs):
            solves.append(kwargs.get("subset_by_index"))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counted)
        od = conditions.check_overdamping(m)
        assert od.overdamped and od.definite_point_exists
        assert solves == [[N - 1, N - 1]] * len(solves) and 0 < len(solves) <= 14


class TestDefinitePencil:
    # The certificate s* must make A - B/s* positive definite in the
    # Hermitian-definite linearization; that pencil then gives all 2n
    # eigenvalues as real numbers, n of positive type above 1/s* and n of
    # negative type below it.  The pencil computes theta = 1/(lam - 1/s*)
    # to an absolute accuracy of about eps * max|theta|, so the comparison
    # is made in theta; the rod's fast eigenvalues (|lam| ~ 1e8 at N = 32)
    # come out of the pencil only to about 1e-9 relative.
    def check_against_pencil(self, m):
        od = conditions.check_overdamping(m)
        assert od.definite_point_exists and od.certificate_s < 0.0
        sigma = 1.0 / od.certificate_s
        want = oracles.definite_pencil_eigenvalues(m, sigma)
        rep = sd.solve_qep(m)
        assert np.all(rep.eigenvalues.imag == 0.0)
        theta_want = 1.0 / (want - sigma)
        theta_got = 1.0 / (np.sort(rep.eigenvalues.real) - sigma)
        assert np.max(np.abs(theta_got - theta_want)) <= 1e-12 * np.max(np.abs(theta_want))
        signs = {"positive": [], "negative": []}
        for c in krein.classify_eigenpairs(m, rep).clusters:
            assert c.sign_type in signs
            signs[c.sign_type].extend(rep.eigenvalues[i].real for i in c.member_indices)
        assert len(signs["positive"]) == len(signs["negative"]) == m.n
        assert min(signs["positive"]) > sigma > max(signs["negative"])

    def test_random_overdamped_models(self):
        rng = np.random.default_rng(56)
        checked = 0
        while checked < 8:
            m = oracles.random_model(rng, int(rng.integers(1, 7)))
            if conditions.check_overdamping(m).margin > 1e-3:
                self.check_against_pencil(m)
                checked += 1

    def test_two_patch_rod(self):
        spec = sd.BeamSpec(E=1.0, patches=((1.2, 0.0, 0.5), (2.5, 0.5, 1.0)), N=32)
        self.check_against_pencil(sd.beam_assemble(spec))


class TestConditionII:
    def test_vacuous_when_candidate_misses_spectrum(self):
        m = scalar_model(1.0, 3.0)  # eigenvalues -1 +- something: -0.382, -2.618
        rep = sd.solve_qep(m)
        verdicts = conditions.check_condition_ii(m, rep, [-0.1])
        v = verdicts[0]
        assert v.verdict == "holds-vacuously"
        assert v.candidate_eigenvalue == pytest.approx(-10.0)
        assert v.nearest_distance == pytest.approx(abs(-10.0 + 2.618033988749895), rel=1e-6)
        assert v.nondegeneracy is None

    def test_holds_at_nondegenerate_eigenvalue(self):
        m = scalar_model(1.0, 3.0)
        rep = sd.solve_qep(m)
        mu = 1.0 / -2.618033988749895
        verdicts = conditions.check_condition_ii(m, rep, [mu])
        assert verdicts[0].verdict == "holds"
        assert verdicts[0].nondegeneracy.nondegenerate

    def test_fails_at_critical_damping(self):
        m = scalar_model(1.0, 2.0)
        rep = sd.solve_qep(m)
        verdicts = conditions.check_condition_ii(m, rep, [-1.0])
        v = verdicts[0]
        assert v.verdict == "fails"
        assert v.nondegeneracy is not None and not v.nondegeneracy.nondegenerate
        assert v.nondegeneracy.witness is not None


class TestConditionIII:
    def test_beam_closed_form(self):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=16)
        rep = conditions.check_condition_iii(sd.beam_assemble(spec))
        assert rep.lhs == pytest.approx((2.0 / np.pi) ** 2, rel=1e-12)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.holds

    def test_beam_fails_for_weak_damping(self):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(0.3, 0.0, 1.0),), N=16)
        rep = conditions.check_condition_iii(sd.beam_assemble(spec))
        assert not rep.holds and rep.lhs > rep.rhs

    def test_modulus_scaling(self):
        spec = sd.BeamSpec(E=4.0, patches=(sd.Patch(1.0, 0.0, 1.0),), N=8)
        rep = conditions.check_condition_iii(sd.beam_assemble(spec))
        assert rep.lhs == pytest.approx((2.0 / np.pi) ** 2 / 2.0, rel=1e-12)
        assert rep.rhs == pytest.approx(0.25)

    def test_generic_model_raises(self):
        # Only a beam has essential values to compare against.
        with pytest.raises(ValueError, match="beam model"):
            conditions.check_condition_iii(scalar_model(4.0, 1.0))


def patch_thresholds(spec):
    return conditions.patch_threshold_report(spec, sd.solve_qep(sd.beam_assemble(spec)))


class TestPatchThresholds:
    def test_threshold_values(self):
        spec = sd.BeamSpec(E=4.0, patches=(sd.Patch(1.0, 0.0, 1.0),), N=16)
        rep = patch_thresholds(spec)
        e = rep.entries[0]
        assert e.threshold_inv_sqrt_modulus == pytest.approx(8.0 / (np.pi**2 * 2.0), rel=1e-12)
        assert e.threshold_sqrt_modulus == pytest.approx(8.0 * 2.0 / np.pi**2, rel=1e-12)
        assert e.threshold_gap == pytest.approx(4.0 * 2.0 / np.pi**2, rel=1e-12)

    def test_adjudication_case(self):
        # a = 1 clears the inverse-sqrt threshold yet the spectrum is not
        # real: that scaling of the constant cannot be sufficient, while
        # the sqrt-modulus scaling correctly refuses to certify
        spec = sd.BeamSpec(E=4.0, patches=(sd.Patch(1.0, 0.0, 1.0),), N=16)
        rep = patch_thresholds(spec)
        e = rep.entries[0]
        assert e.above_inv_sqrt and not e.above_sqrt
        od = conditions.check_overdamping(sd.beam_assemble(spec))
        assert od.margin < 0.0 and not od.overdamped
        assert rep.nonreal_count >= 2

    def test_certifying_case(self):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(0.85, 0.0, 1.0),), N=16)
        rep = patch_thresholds(spec)
        assert rep.entries[0].above_sqrt
        od = conditions.check_overdamping(sd.beam_assemble(spec))
        assert od.margin > 0.0 and od.overdamped
        assert rep.nonreal_count == 0


class TestRieszConditioning:
    def test_undamped_orthonormal_in_energy_coordinates(self):
        m = sd.SystemModel(K=np.diag([1.0, 4.0]), C=np.zeros((2, 2)))
        rep = sd.solve_qep(m)
        cond = conditions.riesz_basis_condition_number(m, rep)
        assert cond == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_svd(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = oracles.random_model(rng, n)
            rep = sd.solve_qep(m)
            cond = conditions.riesz_basis_condition_number(m, rep)
            vals, vecs = np.linalg.eigh(m.K)
            kh = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
            cols = []
            for v in sd.eigenvectors(m, rep, range(2 * n)).T:
                col = np.concatenate([kh @ v[:n], v[n:]])
                cols.append(col / np.linalg.norm(col))
            assert cond == pytest.approx(np.linalg.cond(np.column_stack(cols)), rel=1e-8)

    def test_defective_model_is_ill_conditioned(self):
        m = scalar_model(1.0, 2.0)
        rep = sd.solve_qep(m)
        assert conditions.riesz_basis_condition_number(m, rep) > 1e6


class TestConditionReport:
    def test_beam_assembles_all_sections(self):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=8)
        m = sd.beam_assemble(spec)
        rep = conditions.condition_report(m, sd.solve_qep(m))
        assert rep.overdamping.overdamped
        assert rep.overdamping.definite_point_exists
        assert [v.mu for v in rep.condition_ii] == [-2.0]
        assert rep.condition_iii is not None and rep.condition_iii.holds
        assert rep.patch_thresholds is not None
        gamma, alpha = rep.equivalence_constants
        assert gamma == pytest.approx(2.0, rel=1e-9)
        assert alpha == pytest.approx(2.0, rel=1e-9)
        assert rep.riesz_condition_number < 1e3

    def test_generic_model_omits_beam_sections(self):
        m = scalar_model(1.0, 3.0)
        rep = conditions.condition_report(m, sd.solve_qep(m))
        assert rep.condition_iii is None
        assert rep.patch_thresholds is None
        assert rep.condition_ii == ()
