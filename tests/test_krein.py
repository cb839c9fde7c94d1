"""Tests for the indefinite-product machinery and sign classification."""

import numpy as np
import pytest
import scipy.linalg

import specdamp as sd
from specdamp import conditions, krein, linalg
from specdamp.model import validate
from specdamp.tolerances import CLUSTER_TOL, NEUTRAL_TOL, RANK_TOL

import oracles


def scalar_model(k, c):
    return sd.SystemModel(K=np.array([[float(k)]]), C=np.array([[float(c)]]))


def energy_norm_sq(model, v):
    return float(
        np.real(np.vdot(v.position, model.K @ v.position))
        + np.real(np.vdot(v.velocity, v.velocity))
    )


def dense_span_gram(model, lam, positions):
    # The whole-span route: an orthonormal basis B of the range of all the
    # positions at once (one column normalized, else a thin SVD cut at
    # RANK_TOL times the largest singular value), the Gram
    # (B^H K B - |lam|^2 B^H B)^T with the full K, its eigh, and
    # tau = NEUTRAL_TOL times the largest energy B^H K B + |lam|^2 B^H B.
    if positions.shape[1] == 1:
        basis = positions / np.linalg.norm(positions)
    else:
        u, sigma, _ = np.linalg.svd(positions, full_matrices=False)
        basis = u[:, sigma > RANK_TOL * sigma[0]]
    bkb = basis.conj().T @ (model.K @ basis)
    bb = basis.conj().T @ basis
    lam2 = abs(lam) ** 2
    gram = (bkb - lam2 * bb).T
    gram = 0.5 * (gram + gram.conj().T)
    mu, coeff = np.linalg.eigh(gram)
    tau = NEUTRAL_TOL * float(np.max(np.real(np.diag(bkb)) + lam2 * np.real(np.diag(bb))))
    return basis, gram, mu, coeff, tau


def sign_of(mu, tau):
    if np.all(mu > tau):
        return "positive"
    if np.all(mu < -tau):
        return "negative"
    return "neutral" if np.all(np.abs(mu) <= tau) else "mixed"


def dense_classification(model, rep, clusters):
    # (mu, tau, kernel_dim) of each cluster by the whole-span route.  The
    # singletons take x^H K x - |lam|^2 x^H x over the full K, all in one
    # product, with x their unit positions; every other cluster takes
    # dense_span_gram of all its members' positions.
    singles = [c for c in clusters if c.size == 1]
    x = sd.eigenvectors(model, rep, [c.member_indices[0] for c in singles])[: model.n]
    x = x / np.linalg.norm(x, axis=0)
    xkx = np.sum(x.conj() * linalg.real_times(model.K, x), axis=0).real
    xx = np.sum(x.conj() * x, axis=0).real
    lam2 = np.abs(np.array([c.eigenvalue for c in singles])) ** 2
    scalars = zip(xkx - lam2 * xx, NEUTRAL_TOL * (xkx + lam2 * xx))
    out = dict(zip((c.member_indices for c in singles), scalars))
    for c in clusters:
        if c.size == 1:
            g, tau = out[c.member_indices]
            out[c.member_indices] = (np.array([g]), float(tau), 1)
        else:
            positions = sd.eigenvectors(model, rep, c.member_indices)[: model.n]
            basis, _, mu, _, tau = dense_span_gram(model, c.eigenvalue, positions)
            out[c.member_indices] = (mu, tau, basis.shape[1])
    return [out[c.member_indices] for c in clusters]


def one_block(model):
    validation = validate(model)
    return validation.scalar_modes.size == 0 and len(validation.coupled_blocks) == 1


def mixed_cluster_model():
    # A rotated coupled block with modes (k, c) = (1, 3) and (4, 12) beside a
    # scalar mode (1, 3): the roots (-3 +- sqrt 5) / 2 of the block's first
    # mode and of the scalar mode form two clusters of one member each from
    # the block and the scalar mode.
    t = 0.6
    q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    stiff, damp = np.zeros((3, 3)), np.zeros((3, 3))
    stiff[:2, :2], damp[:2, :2] = (q * [1.0, 4.0]) @ q.T, (q * [3.0, 12.0]) @ q.T
    stiff[2, 2], damp[2, 2] = 1.0, 3.0
    return sd.SystemModel(K=0.5 * (stiff + stiff.T), C=0.5 * (damp + damp.T))


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

    def test_non_finite_gram_raises(self):
        # A one-direction part with a non-finite form, and a coupled part
        # whose K is not finite, each alone in its cluster at -1.
        one = (np.array([0]), np.array([np.nan]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(krein.IllConditionedCluster):
            krein._span_grams(np.array([-1.0]), one, [])
        none = (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), np.zeros(0))
        with pytest.raises(krein.IllConditionedCluster), np.errstate(invalid="ignore"):
            krein._span_grams(np.array([-1.0]), none, [(0, np.diag([np.inf, 1.0]), np.eye(2))])

    @pytest.mark.parametrize("case", ["random", "two-patch-N32"])
    def test_singletons_match_cluster_gram_route(self, case):
        # The singletons' scalar Grams, all taken in one step, against the
        # route a coupled block's part of two or more members takes, applied
        # to the one column: normalize, Gram, eigh (dense_span_gram).
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
                basis, gram, mu, _, tau = dense_span_gram(m, c.eigenvalue, cols)
                scale = tau / NEUTRAL_TOL
                assert c.sign_type == sign_of(mu, tau)
                assert (c.kernel_dim, c.jordan_defect) == (basis.shape[1], 0)
                assert c.nonpositive_directions == int(np.count_nonzero(mu <= tau))
                assert c.neutral_threshold == pytest.approx(tau, rel=1e-12, abs=0.0)
                assert np.allclose(c.gram, gram, rtol=0.0, atol=1e-12 * scale)
                assert np.allclose(c.gram_eigenvalues, mu, rtol=0.0, atol=1e-12 * scale)
                assert c.margin == pytest.approx(float(np.min(np.abs(mu)) - tau), rel=0.0, abs=1e-12 * scale)
        assert singletons >= 40


def critical_block_beside_mode():
    # The rotated critical blocks, one coupled 4 x 4 component with two
    # Jordan blocks at -1 and two at -2, beside a critical scalar mode (1, 2):
    # the cluster at -1 holds a coupled block's part of four members and a
    # scalar mode's part of two.
    block = oracles.critical_blocks(True)
    stiff, damp = np.eye(5), 2.0 * np.eye(5)
    stiff[:4, :4], damp[:4, :4] = block.K, block.C
    return sd.SystemModel(K=stiff, C=damp)


def oracle_models():
    rng = np.random.default_rng(49)
    two_patch = (sd.Patch(1.2, 0.0, 0.5), sd.Patch(2.5, 0.5, 1.0))
    return [
        ("rod-N64", sd.beam_assemble(sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=64))),
        ("critical-blocks", oracles.critical_blocks(False)),
        ("mixed-cluster", mixed_cluster_model()),
        ("rotated-critical-and-mode", critical_block_beside_mode()),
        *((f"random-{i}", oracles.random_model(rng, int(rng.integers(2, 7)))) for i in range(6)),
        ("two-patch-N32", sd.beam_assemble(sd.BeamSpec(E=1.0, patches=two_patch, N=32))),
    ]


class TestPerComponentOracle:
    # The per-component route against the whole-span dense route: the
    # verdicts must be equal, and every Gram-derived float must agree within
    # 1e-12 of the cluster's energy scale, bit for bit on a model that is
    # one coupled block, which the per-component route takes whole.
    @pytest.mark.parametrize("name, m", oracle_models())
    def test_classification(self, name, m):
        rep = sd.solve_qep(m)
        clusters = krein.classify_eigenpairs(m, rep).clusters
        for c, (mu, tau, dim) in zip(clusters, dense_classification(m, rep, clusters)):
            margin = float(np.min(np.abs(mu)) - tau)
            assert (c.sign_type, c.kernel_dim, c.jordan_defect) == (sign_of(mu, tau), dim, c.size - dim)
            assert c.nonpositive_directions == int(np.count_nonzero(mu <= tau))
            assert c.degenerate == (margin <= 0.0)
            if one_block(m):
                assert np.array_equal(c.gram_eigenvalues, mu)
                assert (c.margin, c.neutral_threshold) == (margin, tau)
            else:
                scale = tau / NEUTRAL_TOL
                assert np.allclose(c.gram_eigenvalues, mu, rtol=0.0, atol=1e-12 * scale)
                assert abs(c.margin - margin) <= 1e-12 * scale
                assert abs(c.neutral_threshold - tau) <= 1e-12 * scale
        if name in ("rod-N64", "critical-blocks", "mixed-cluster", "rotated-critical-and-mode"):
            assert any(c.size > 1 for c in clusters)

    @pytest.mark.parametrize("name, m", oracle_models())
    def test_kernel_nondegeneracy(self, name, m):
        rep = sd.solve_qep(m)
        for c in krein.classify_eigenpairs(m, rep).clusters:
            positions = sd.eigenvectors(m, rep, c.member_indices)[: m.n]
            got = krein.kernel_gram_nondegeneracy(m, c.eigenvalue, positions)
            basis, _, mu, _, tau = dense_span_gram(m, c.eigenvalue, positions)
            min_abs = float(np.min(np.abs(mu)))
            assert (got.kernel_dim, got.nondegenerate) == (basis.shape[1], min_abs > tau)
            assert (got.witness is None) == got.nondegenerate
            if one_block(m):
                assert (got.min_abs_eigenvalue, got.threshold) == (min_abs, tau)
            else:
                scale = tau / NEUTRAL_TOL
                assert abs(got.min_abs_eigenvalue - min_abs) <= 1e-12 * scale
                assert abs(got.threshold - tau) <= 1e-12 * scale
                assert np.allclose(np.linalg.eigvalsh(got.gram), mu, rtol=0.0, atol=1e-12 * scale)


class TestGramBudget:
    # The single-patch rod is diagonal, so every cluster's span is a direct
    # sum of scalar modes' coordinates: classifying it and checking its
    # conditions takes no SVD or eigh of anything wider than a scalar
    # mode's 2 x 2.
    def test_diagonal_rod_factorizes_nothing_wide(self, monkeypatch):
        m = sd.beam_assemble(sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=64))
        rep = sd.solve_qep(m)
        widths = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                widths.append(max(np.shape(a)[-2:]))
                return fn(a, *args, **kwargs)

            return wrapper

        for mod, name in ((np.linalg, "svd"), (np.linalg, "eigh"), (scipy.linalg, "eigh")):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        krein.classify_eigenpairs(m, rep)
        report = conditions.condition_report(m, rep)
        assert [v.verdict for v in report.condition_ii] == ["holds"]
        assert widths and max(widths) <= 2

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

    def test_decoupled_critical_pair_degenerate(self):
        # K = I, C = 2 I: two critical scalar modes put four eigenpairs at -1
        # on a 2-D kernel, one direction per mode, where the Gram vanishes.
        m = sd.SystemModel(K=np.eye(2), C=2.0 * np.eye(2))
        rep = sd.solve_qep(m)
        (c,) = krein.classify_eigenpairs(m, rep).clusters
        assert (c.size, c.kernel_dim, c.jordan_defect, c.sign_type) == (4, 2, 2, "neutral")
        (v,) = conditions.check_condition_ii(m, rep, [-1.0])
        nd = v.nondegeneracy
        assert v.verdict == "fails" and nd.kernel_dim == 2 and not nd.nondegenerate
        w = nd.witness
        assert abs(krein.indefinite_product(m, w, w)) <= 1e-12 * energy_norm_sq(m, w)
        # The witness is an eigenvector: y = lam x and Q(-1) x = (K - C + I) x = 0.
        assert np.allclose(w.velocity, -w.position, rtol=0.0, atol=1e-15)
        assert np.linalg.norm((m.K - m.C + np.eye(2)) @ w.position) <= 1e-15 * np.linalg.norm(w.position)

    @pytest.mark.parametrize(
        "m, lam, mix",
        [
            # Columns 0 and 1 mixed across two of three scalar modes: one part
            # of two components beside a scalar mode's part.
            (
                sd.SystemModel(K=np.eye(3), C=3.0 * np.eye(3)),
                -0.3819660112501051,
                [[1, 1, 0], [1, -1, 0], [0, 0, 1]],
            ),
            # Every column across both critical modes: one part, degenerate.
            (
                sd.SystemModel(K=np.eye(2), C=2.0 * np.eye(2)),
                -1.0,
                np.arange(16.0).reshape(4, 4) % 5 + np.eye(4),
            ),
            # The coupled block's member mixed with the scalar mode's.
            (mixed_cluster_model(), -0.3819660112501051, [[1, 2], [-1, 1]]),
        ],
    )
    def test_columns_spanning_components_keep_verdict(self, m, lam, mix):
        # Columns whose rows span two components join them into one part; the
        # verdict and the Gram spectrum are those of the whole-span route, and
        # those of the unmixed columns.
        positions = solved_near(m, lam)
        mixed = positions @ np.asarray(mix, dtype=float)
        got = krein.kernel_gram_nondegeneracy(m, lam, mixed)
        basis, _, mu, _, tau = dense_span_gram(m, lam, mixed)
        scale = tau / NEUTRAL_TOL
        assert (got.kernel_dim, got.nondegenerate) == (basis.shape[1], bool(np.min(np.abs(mu)) > tau))
        assert np.allclose(np.linalg.eigvalsh(got.gram), mu, rtol=0.0, atol=1e-12 * scale)
        plain = krein.kernel_gram_nondegeneracy(m, lam, positions)
        assert (plain.kernel_dim, plain.nondegenerate) == (got.kernel_dim, got.nondegenerate)
        assert abs(plain.min_abs_eigenvalue - got.min_abs_eigenvalue) <= 1e-12 * scale
        if not got.nondegenerate:
            w = got.witness
            assert abs(krein.indefinite_product(m, w, w)) <= 1e-12 * energy_norm_sq(m, w)

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
