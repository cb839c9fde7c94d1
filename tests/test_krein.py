"""Tests for the indefinite-product machinery and sign classification."""

import numpy as np
import pytest

import specdamp as sd
from specdamp import conditions, krein
from specdamp.tolerances import CLUSTER_TOL

import oracles


def scalar_model(k, c):
    return sd.SystemModel(K=np.array([[float(k)]]), C=np.array([[float(c)]]))


def energy_norm_sq(model, v):
    return float(
        np.real(np.vdot(v.position, model.K @ v.position))
        + np.real(np.vdot(v.velocity, v.velocity))
    )


class TestIndefiniteProduct:
    def test_definition(self):
        m = sd.SystemModel(K=np.diag([2.0, 3.0]), C=np.zeros((2, 2)))
        u = sd.PhaseVector(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        v = sd.PhaseVector(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
        # [u, v] = <x_u, x_v>_K - <y_u, y_v>
        assert krein.indefinite_product(m, u, v) == pytest.approx(2.0 - 2.0)
        assert krein.indefinite_product(m, u, u) == pytest.approx(2.0 - 4.0)

    def test_sesquilinear_slots(self):
        rng = np.random.default_rng(41)
        m = oracles.random_model(rng, 3)
        u = sd.PhaseVector(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                           rng.standard_normal(3))
        v = sd.PhaseVector(rng.standard_normal(3), rng.standard_normal(3))
        z = 0.7 - 1.3j
        zu = sd.PhaseVector(z * u.position, z * u.velocity)
        zv = sd.PhaseVector(z * v.position, z * v.velocity)
        assert krein.indefinite_product(m, zu, v) == pytest.approx(
            z * krein.indefinite_product(m, u, v)
        )
        assert krein.indefinite_product(m, u, zv) == pytest.approx(
            np.conj(z) * krein.indefinite_product(m, u, v)
        )

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(42)
        m = oracles.random_model(rng, 2)
        u = sd.PhaseVector(rng.standard_normal(2), rng.standard_normal(2))
        v = sd.PhaseVector(rng.standard_normal(2), rng.standard_normal(2))
        assert krein.indefinite_product(m, u, v) == pytest.approx(
            np.conj(krein.indefinite_product(m, v, u))
        )


class TestClassify:
    def test_scalar_overdamped_slow_positive_fast_negative(self):
        m = scalar_model(1.0, 3.0)
        clf = krein.classify_eigenpairs(m, sd.solve_qep(m))
        fast, slow = clf.clusters
        assert slow.eigenvalue == pytest.approx(-0.3819660112501051, rel=1e-12)
        assert slow.sign_type == "positive" and not slow.degenerate
        assert fast.eigenvalue == pytest.approx(-2.618033988749895, rel=1e-12)
        assert fast.sign_type == "negative" and not fast.degenerate
        assert clf.counts == {"positive": 1, "negative": 1, "neutral": 0, "mixed": 0}
        assert clf.total_jordan_defect == 0

    def test_undamped_pair_neutral(self):
        m = scalar_model(1.0, 0.0)
        clf = krein.classify_eigenpairs(m, sd.solve_qep(m))
        assert [c.sign_type for c in clf.clusters] == ["neutral", "neutral"]
        assert all(not c.is_real for c in clf.clusters)

    def test_critical_damping_neutral_defective(self):
        m = scalar_model(1.0, 2.0)
        clf = krein.classify_eigenpairs(m, sd.solve_qep(m))
        assert len(clf.clusters) == 1
        c = clf.clusters[0]
        assert c.size == 2 and c.kernel_dim == 1 and c.jordan_defect == 1
        assert c.sign_type == "neutral" and c.degenerate

    def test_mixed_real_cluster(self):
        # decoupled scalars tuned so a slow positive-type root of one block
        # coincides with a fast negative-type root of the other
        m = sd.SystemModel(K=np.diag([2.0, 0.5]), C=np.diag([3.0, 1.5]))
        rep = sd.solve_qep(m)
        clf = krein.classify_eigenpairs(m, rep)
        at_minus_one = [c for c in clf.clusters if abs(c.eigenvalue + 1.0) < 1e-9]
        assert len(at_minus_one) == 1
        c = at_minus_one[0]
        assert c.size == 2 and c.kernel_dim == 2 and c.jordan_defect == 0
        assert c.sign_type == "mixed"
        assert c.nonpositive_directions == 1

    def test_member_indices_partition(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            m = oracles.random_model(rng, int(rng.integers(1, 5)))
            rep = sd.solve_qep(m)
            clf = krein.classify_eigenpairs(m, rep)
            members = sorted(i for c in clf.clusters for i in c.member_indices)
            assert members == list(range(rep.eigenvalues.size))

    def test_gram_exactly_hermitian(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            m = oracles.random_model(rng, int(rng.integers(1, 5)))
            clf = krein.classify_eigenpairs(m, sd.solve_qep(m))
            for c in clf.clusters:
                g = np.asarray(c.gram)
                assert np.array_equal(g, g.conj().T)

    def test_nonreal_eigenvectors_neutral(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            m = oracles.random_model(rng, int(rng.integers(1, 5)))
            rep = sd.solve_qep(m)
            vecs = sd.eigenvectors(m, rep, range(2 * m.n))
            for lam, col in zip(rep.eigenvalues, vecs.T):
                if lam.imag == 0.0:
                    continue
                v = sd.PhaseVector.from_stacked(col)
                val = abs(krein.indefinite_product(m, v, v))
                assert val <= 1e-10 * energy_norm_sq(m, v)

    def test_cross_cluster_orthogonality(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            m = oracles.random_model(rng, int(rng.integers(2, 5)))
            rep = sd.solve_qep(m)
            values = rep.eigenvalues
            vecs = [sd.PhaseVector.from_stacked(col) for col in sd.eigenvectors(m, rep, range(2 * m.n)).T]
            for i in range(values.size):
                for j in range(i + 1, values.size):
                    li, lj = values[i], values[j]
                    # orthogonality needs lam_i != conj(lam_j)
                    if abs(li - np.conj(lj)) <= 1e-3 * (1.0 + abs(li)):
                        continue
                    val = abs(krein.indefinite_product(m, vecs[i], vecs[j]))
                    scale = np.sqrt(energy_norm_sq(m, vecs[i]) * energy_norm_sq(m, vecs[j]))
                    assert val <= 1e-8 * scale

    @pytest.mark.parametrize("case", ["random", "two-patch-N32"])
    def test_singletons_match_cluster_gram_route(self, case):
        # The singletons' scalar Grams against the per-cluster route every
        # cluster of two or more takes: orthonormal range, _cluster_gram, eigh.
        if case == "random":
            rng = np.random.default_rng(48)
            models = [oracles.random_model(rng, int(rng.integers(2, 9))) for _ in range(20)]
        else:
            patches = (sd.Patch(1.2, 0.0, 0.5), sd.Patch(2.5, 0.5, 1.0))
            models = [sd.beam_assemble(sd.BeamSpec(E=1.0, patches=patches, N=32))]
        singletons = 0
        for m in models:
            rep = sd.solve_qep(m)
            for c in krein.classify_eigenpairs(m, rep).clusters:
                if c.size > 1:
                    continue
                singletons += 1
                cols = sd.eigenvectors(m, rep, c.member_indices)[: m.n]
                basis = krein._orthonormal_range(cols)
                gram, mu, _, tau = krein._cluster_gram(m, c.eigenvalue, basis)
                scale = tau / krein.NEUTRAL_TOL
                assert c.sign_type == krein._sign_type(mu, tau)[0]
                assert (c.kernel_dim, c.jordan_defect) == (basis.shape[1], 0)
                assert c.nonpositive_directions == int(np.count_nonzero(mu <= tau))
                assert c.neutral_threshold == pytest.approx(tau, rel=1e-12, abs=0.0)
                assert np.allclose(c.gram, gram, rtol=0.0, atol=1e-12 * scale)
                assert np.allclose(c.gram_eigenvalues, mu, rtol=0.0, atol=1e-12 * scale)
                assert c.margin == pytest.approx(float(np.min(np.abs(mu)) - tau), rel=0.0, abs=1e-12 * scale)
        assert singletons >= 40


def solved_near(m, lam):
    # The positions of the eigenvectors solve_qep returns within cluster
    # tolerance of lam, as columns.
    rep = sd.solve_qep(m)
    near = np.flatnonzero(np.abs(rep.eigenvalues - lam) <= CLUSTER_TOL * (1.0 + abs(lam)))
    return sd.eigenvectors(m, rep, near)[: m.n]


class TestNondegeneracy:
    def test_two_dim_slow_kernel_positive(self):
        # two identical overdamped modes: kernel at the slow root is 2-D
        # and its Gram is (k - lam^2) I in the modal coordinates
        m = sd.SystemModel(K=np.diag([1.0, 1.0]), C=np.diag([3.0, 3.0]))
        lam = -0.3819660112501051
        rep = krein.kernel_gram_nondegeneracy(m, lam, solved_near(m, lam))
        assert rep.kernel_dim == 2
        assert rep.nondegenerate and rep.witness is None
        want = 1.0 - lam * lam
        assert np.allclose(np.asarray(rep.gram), want * np.eye(2), atol=1e-8)

    def test_critical_damping_degenerate_with_witness(self):
        m = scalar_model(1.0, 2.0)
        rep = krein.kernel_gram_nondegeneracy(m, -1.0, solved_near(m, -1.0))
        assert not rep.nondegenerate
        w = rep.witness
        assert w is not None
        val = abs(krein.indefinite_product(m, w, w))
        assert val <= 1e-10 * energy_norm_sq(m, w)
        # the witness really is an eigenvector: velocity = lam * position
        assert np.allclose(w.velocity, -1.0 * w.position, atol=1e-10)

    def test_min_abs_eigenvalue_vs_threshold(self):
        m = scalar_model(1.0, 3.0)
        lam = -0.3819660112501051
        rep = krein.kernel_gram_nondegeneracy(m, lam, solved_near(m, lam))
        assert rep.min_abs_eigenvalue > rep.threshold > 0.0
        assert rep.nondegenerate


class TestDecompose:
    def test_uniform_beam_splits_fast_and_slow(self):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=8)
        m = sd.beam_assemble(spec)
        rep = sd.solve_qep(m)
        dec = krein.decompose(m, rep, krein.classify_eigenpairs(m, rep))
        assert len(dec.h_prime) == 8 and len(dec.h_doubleprime) == 8
        vals = rep.eigenvalues
        fast = np.array([vals[i] for i in dec.h_prime])
        slow = np.array([vals[i] for i in dec.h_doubleprime])
        # the fast branch is uniformly to the left of the cut, the slow
        # branch strictly to the right of it
        assert dec.m_cut is not None and dec.m_cut > 0.0
        assert np.all(fast.real <= -dec.m_cut + 1e-12)
        assert np.isclose(np.max(fast.real), -dec.m_cut)
        assert np.all(slow.real > -dec.m_cut)
        assert dec.orthogonal and dec.cross_gram_norm <= 1e-8
        assert dec.hprime_definiteness is not None and dec.hprime_definiteness < 0.0
        assert dec.neutral_real_eigenvalues == ()

    def test_mixed_cluster_raises_obstruction(self):
        m = sd.SystemModel(K=np.diag([2.0, 0.5]), C=np.diag([3.0, 1.5]))
        rep = sd.solve_qep(m)
        clf = krein.classify_eigenpairs(m, rep)
        with pytest.raises(krein.MixedClusterObstruction):
            krein.decompose(m, rep, clf)

    def test_critical_damping_routed_to_second_part(self):
        m = scalar_model(1.0, 2.0)
        rep = sd.solve_qep(m)
        dec = krein.decompose(m, rep, krein.classify_eigenpairs(m, rep))
        assert dec.h_prime == ()
        assert dec.m_cut is None
        assert sorted(dec.h_doubleprime) == [0, 1]
        assert dec.neutral_real_eigenvalues == (complex(-1.0),)

    def test_cross_gram_per_component_matches_dense(self):
        # Two scalar modes and one coupled 3 x 3 block, C = 1.3 (K + I): every
        # mode and the whole model are overdamped, so each scalar mode and
        # the block have eigenpairs on both sides of the split.
        rng = np.random.default_rng(8)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        stiff = np.zeros((5, 5))
        stiff[0, 0], stiff[1, 1] = 2.0, 5.0
        stiff[2:, 2:] = (q * np.array([1.0, 3.0, 9.0])) @ q.T
        stiff = 0.5 * (stiff + stiff.T)
        m = sd.SystemModel(K=stiff, C=1.3 * (stiff + np.eye(5)))
        rep = sd.solve_qep(m)
        dec = krein.decompose(m, rep, krein.classify_eigenpairs(m, rep))
        assert len(dec.h_prime) == 5 and dec.orthogonal
        # The dense cross-Gram over all eigenvectors, fast against slow.
        vecs = sd.eigenvectors(m, rep, dec.h_prime + dec.h_doubleprime)
        x, y = vecs[:5], vecs[5:]
        kx = m.K @ x
        energy = np.real(np.sum(x.conj() * kx, axis=0)) + np.sum(np.abs(y) ** 2, axis=0)
        g = x[:, 5:].conj().T @ kx[:, :5] - y[:, 5:].conj().T @ y[:, :5]
        dense = float(np.max(np.abs(g) / np.sqrt(np.outer(energy[5:], energy[:5]))))
        assert dec.cross_gram_norm == pytest.approx(dense, rel=0.0, abs=1e-15)

    def test_undamped_everything_second_part(self):
        m = sd.SystemModel(K=np.diag([1.0, 4.0]), C=np.zeros((2, 2)))
        rep = sd.solve_qep(m)
        dec = krein.decompose(m, rep, krein.classify_eigenpairs(m, rep))
        assert dec.h_prime == () and len(dec.h_doubleprime) == 4


class TestTwoPatchRod:
    # The overdamped two-patch rod (a = 1.2 on [0, 1/2], 2.5 on [1/2, 1])
    # accumulates real eigenvalues at -E/a_k = -5/6 and -0.4.  Every member
    # there is of positive type, so the clusters must be too, the two-branch
    # split must exist, and condition ii must hold at both points.
    @pytest.mark.parametrize("N", [128, 256])
    def test_accumulating_clusters_definite(self, N):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(1.2, 0.0, 0.5), sd.Patch(2.5, 0.5, 1.0)), N=N)
        m = sd.beam_assemble(spec)
        rep = sd.solve_qep(m)
        clf = krein.classify_eigenpairs(m, rep)
        assert clf.counts["mixed"] == 0
        assert krein.decompose(m, rep, clf).orthogonal
        verdicts = conditions.check_condition_ii(m, rep, [-1.2, -2.5])
        assert [v.verdict for v in verdicts] == ["holds", "holds"]
