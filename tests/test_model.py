"""Tests for model construction, validation, and the beam assembler."""

import numpy as np
import pytest

import specdamp as sd
from specdamp import linalg
from specdamp.model import validate

import oracles


class TestSystemModel:
    def test_rejects_asymmetric_stiffness(self):
        with pytest.raises(sd.InvalidModel) as exc:
            sd.SystemModel(K=np.array([[1.0, 0.4], [0.0, 1.0]]), C=np.zeros((2, 2)))
        assert exc.value.assumption == "A1"
        assert "(A1)" in str(exc.value)

    def test_rejects_asymmetric_damping(self):
        with pytest.raises(sd.InvalidModel) as exc:
            sd.SystemModel(K=np.eye(2), C=np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert exc.value.assumption == "A2"

    def test_rejects_bad_shapes(self):
        with pytest.raises(sd.InvalidModel):
            sd.SystemModel(K=np.ones((2, 3)), C=np.zeros((2, 3)))
        with pytest.raises(sd.InvalidModel):
            sd.SystemModel(K=np.eye(2), C=np.zeros((3, 3)))

    def test_rejects_nonfinite(self):
        k = np.eye(2)
        c = np.zeros((2, 2))
        c[0, 0] = np.nan
        with pytest.raises(sd.InvalidModel):
            sd.SystemModel(K=k, C=c)

    def test_matrices_read_only(self):
        m = sd.SystemModel(K=np.eye(2), C=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.K[0, 0] = 2.0

    def test_n_property(self):
        m = sd.SystemModel(K=np.eye(3), C=np.zeros((3, 3)))
        assert m.n == 3


class TestValidate:
    def test_indefinite_stiffness_cites_a1(self):
        m = sd.SystemModel(K=np.diag([1.0, -1.0]), C=np.zeros((2, 2)))
        with pytest.raises(sd.InvalidModel) as exc:
            validate(m)
        assert exc.value.assumption == "A1"

    def test_negative_damping_cites_a2(self):
        m = sd.SystemModel(K=np.eye(2), C=np.diag([1.0, -0.5]))
        with pytest.raises(sd.InvalidModel) as exc:
            validate(m)
        assert exc.value.assumption == "A2"

    def test_equivalence_constants_match_weighted_eigs(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = oracles.random_model(rng, n)
            rep = validate(m)
            vals, vecs = np.linalg.eigh(m.K)
            kih = vecs @ np.diag(vals**-0.5) @ vecs.T
            w = np.linalg.eigvalsh(kih @ m.C @ kih)
            assert np.isclose(rep.gamma, w[0], atol=1e-10)
            assert np.isclose(rep.alpha, w[-1], atol=1e-10)
            # tightest constants: gamma x^T K x <= x^T C x <= alpha x^T K x
            for _ in range(5):
                x = rng.standard_normal(n)
                kq = x @ m.K @ x
                cq = x @ m.C @ x
                assert rep.gamma * kq - 1e-10 <= cq <= rep.alpha * kq + 1e-10

    def test_components_listed_when_labels_interleave(self):
        # Coupled pairs (0, 4), (1, 5), (2, 6) and the lone 3: each component's
        # coordinates ascend, and components come in label order, as one
        # flatnonzero per label lists them.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        from specdamp.model import _coupling_components

        rng = np.random.default_rng(25)
        k = np.diag(rng.uniform(1.0, 2.0, 7))
        for i, j in ((0, 4), (1, 5), (2, 6)):
            k[i, j] = k[j, i] = 0.1
        got = _coupling_components(k, np.zeros((7, 7)))
        assert [part.tolist() for part in got] == [[0, 4], [1, 5], [2, 6], [3]]
        # A random interleaved pattern against the per-label reference.
        perm = rng.permutation(40)
        k = np.eye(40)
        for lo, hi in ((0, 7), (7, 8), (8, 20), (20, 33), (33, 40)):
            for a, b in zip(perm[lo : hi - 1], perm[lo + 1 : hi]):
                k[a, b] = k[b, a] = 0.01
        count, labels = connected_components(csr_matrix(k != 0.0), directed=False)
        want = [np.flatnonzero(labels == i) for i in range(count)]
        got = _coupling_components(k, np.zeros((40, 40)))
        assert len(got) == len(want) == 5
        for part, ref in zip(got, want):
            assert np.array_equal(part, ref) and part.dtype == ref.dtype

    def test_report_fields(self):
        m = sd.SystemModel(K=np.diag([4.0]), C=np.diag([2.0]))
        rep = validate(m)
        assert rep.n == 1
        assert np.isclose(rep.c_min_eigenvalue, 2.0)
        assert np.isclose(rep.gamma, 0.5) and np.isclose(rep.alpha, 0.5)


class TestPhaseOperator:
    def test_block_layout(self):
        m = sd.SystemModel(K=np.diag([2.0, 3.0]), C=np.diag([0.5, 0.0]))
        a = sd.phase_operator(m)
        assert np.array_equal(a[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(a[:2, 2:], np.eye(2))
        assert np.array_equal(a[2:, :2], -m.K)
        assert np.array_equal(a[2:, 2:], -m.C)

    def test_inverse_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = oracles.random_model(rng, n)
            a = sd.phase_operator(m)
            ainv = sd.phase_operator_inverse(m)
            assert np.max(np.abs(a @ ainv - np.eye(2 * n))) <= 1e-11
            assert np.max(np.abs(ainv @ a - np.eye(2 * n))) <= 1e-11

    def test_inverse_blocks(self):
        m = sd.SystemModel(K=np.diag([2.0]), C=np.diag([3.0]))
        ainv = sd.phase_operator_inverse(m)
        assert np.allclose(ainv, [[-1.5, -0.5], [1.0, 0.0]])


class TestPhaseVector:
    def test_stack_roundtrip(self):
        v = sd.PhaseVector(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(v.stacked(), [1.0, 2.0, 3.0, 4.0])
        w = sd.PhaseVector.from_stacked(v.stacked())
        assert np.array_equal(w.position, v.position)
        assert np.array_equal(w.velocity, v.velocity)

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            sd.PhaseVector(np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            sd.PhaseVector.from_stacked(np.ones(3))


class TestBeamSpec:
    def test_frequencies(self):
        w = sd.beam_frequencies(4)
        assert np.allclose(w, [(k - 0.5) * np.pi for k in range(1, 5)])

    def test_patch_normalization_merges_equal(self):
        spec = sd.BeamSpec(
            E=1.0,
            patches=(sd.Patch(2.0, 0.5, 1.0), sd.Patch(2.0, 0.0, 0.5)),
            N=4,
        )
        assert spec.patches == (sd.Patch(2.0, 0.0, 1.0),)

    def test_rejects_gap_overlap_and_cover(self):
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=1.0, patches=(sd.Patch(1.0, 0.0, 0.4), sd.Patch(2.0, 0.6, 1.0)), N=4)
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=1.0, patches=(sd.Patch(1.0, 0.0, 0.6), sd.Patch(2.0, 0.4, 1.0)), N=4)
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=1.0, patches=(sd.Patch(1.0, 0.2, 1.0),), N=4)
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=1.0, patches=(sd.Patch(1.0, 0.0, 0.9),), N=4)

    def test_rejects_bad_parameters(self):
        full = (sd.Patch(1.0, 0.0, 1.0),)
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=0.0, patches=full, N=4)
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=1.0, patches=(sd.Patch(-1.0, 0.0, 1.0),), N=4)
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=1.0, patches=full, N=0)
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=1.0, patches=full, N=10_000)
        with pytest.raises(sd.InvalidModel):
            sd.BeamSpec(E=1.0, patches=(), N=4)

    def test_damping_values_sorted_distinct(self):
        spec = sd.BeamSpec(
            E=1.0,
            patches=(sd.Patch(3.0, 0.0, 0.3), sd.Patch(1.0, 0.3, 0.6), sd.Patch(3.0, 0.6, 1.0)),
            N=4,
        )
        assert spec.damping_values == (1.0, 3.0)


class TestBeamAssemble:
    def test_stiffness_diagonal_exact(self):
        spec = sd.BeamSpec(E=2.5, patches=(sd.Patch(1.0, 0.0, 1.0),), N=6)
        m = sd.beam_assemble(spec)
        w = sd.beam_frequencies(6)
        assert np.array_equal(m.K, np.diag(2.5 * w**4))
        assert m.source == "beam" and m.beam is spec

    def test_uniform_patch_gives_exact_diagonal_damping(self):
        # modal orthonormality on the full interval must hold exactly so
        # that uniformly damped rods decouple mode by mode
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=8)
        m = sd.beam_assemble(spec)
        w = sd.beam_frequencies(8)
        assert np.array_equal(m.C - np.diag(np.diag(m.C)), np.zeros((8, 8)))
        assert np.allclose(np.diag(m.C), 2.0 * w**4, rtol=1e-15)

    def test_multi_patch_against_quadrature(self):
        spec = sd.BeamSpec(
            E=1.0,
            patches=(sd.Patch(1.0, 0.0, 0.35), sd.Patch(4.0, 0.35, 1.0)),
            N=5,
        )
        m = sd.beam_assemble(spec)
        w = sd.beam_frequencies(5)
        want = np.zeros((5, 5))
        for patch in spec.patches:
            for j in range(5):
                for k in range(5):
                    want[j, k] += (
                        patch.a
                        * w[j] ** 2
                        * w[k] ** 2
                        * oracles.quad_overlap(j + 1, k + 1, patch.lo, patch.hi)
                    )
        assert np.allclose(m.C, want, atol=1e-9 * np.linalg.norm(want))

    def test_overlap_identity_on_random_subintervals(self):
        rng = np.random.default_rng(23)
        from specdamp.model import _sine_overlap

        for _ in range(30):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            if hi - lo < 1e-3:
                continue
            j, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            assert np.isclose(
                _sine_overlap(j, k, lo, hi),
                oracles.quad_overlap(j, k, lo, hi),
                atol=1e-11,
            )

    @pytest.mark.parametrize("N", [1, 7, 64, 256])
    @pytest.mark.parametrize(
        "patches",
        [
            ((1.2, 0.0, 0.5), (2.5, 0.5, 1.0)),
            ((0.3, 0.0, 0.1), (5.0, 0.1, 0.77), (1.7, 0.77, 1.0)),
        ],
        ids=["two-patch", "three-patch"],
    )
    def test_damping_matches_scalar_closed_form_exactly(self, N, patches):
        spec = sd.BeamSpec(E=1.0, patches=tuple(sd.Patch(*p) for p in patches), N=N)
        assert np.array_equal(sd.beam_assemble(spec).C, oracles.closed_form_damping(spec))

    def test_assembled_model_is_valid(self):
        spec = sd.BeamSpec(
            E=1.0, patches=(sd.Patch(0.5, 0.0, 0.5), sd.Patch(2.0, 0.5, 1.0)), N=6
        )
        m = sd.beam_assemble(spec)
        rep = validate(m)
        assert rep.c_min_eigenvalue >= -1e-12


class TestPerturbedKelvinVoigt:
    def test_structure_and_proxy(self):
        rng = np.random.default_rng(24)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        k = q @ np.diag([1.0, 2.0, 4.0]) @ q.T
        k = 0.5 * (k + k.T)
        b = 0.01 * np.eye(3)
        m, proxy = sd.perturbed_kelvin_voigt(k, 0.5, b)
        assert np.allclose(m.C, 0.5 * k + b)
        assert m.source == "perturbed" and m.perturbation_alpha == 0.5
        vals, vecs = np.linalg.eigh(k)
        kih = vecs @ np.diag(vals**-0.5) @ vecs.T
        assert np.isclose(proxy, np.linalg.norm(kih @ b @ kih, 2), rtol=1e-10)

    def test_rejects_bad_alpha_and_shapes(self):
        with pytest.raises(sd.InvalidModel):
            sd.perturbed_kelvin_voigt(np.eye(2), 0.0, np.zeros((2, 2)))
        with pytest.raises(sd.InvalidModel):
            sd.perturbed_kelvin_voigt(np.eye(2), 0.5, np.zeros((3, 3)))

    def test_perturbation_breaking_a2_rejected(self):
        with pytest.raises(sd.InvalidModel) as exc:
            sd.perturbed_kelvin_voigt(np.eye(2), 0.1, np.diag([0.0, -1.0]))
        assert exc.value.assumption == "A2"
