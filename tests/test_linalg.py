"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from specdamp import linalg

import oracles


def random_spd(rng, n, lo=0.2, hi=5.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = q @ np.diag(rng.uniform(lo, hi, n)) @ q.T
    return 0.5 * (a + a.T)


def residual_norms(a, w, v):
    # ||a v_i - w_i v_i||_2 / ||a||_F for each eigenpair.
    return np.linalg.norm(a @ v - v * w, axis=0) / np.linalg.norm(a)


class TestCholesky:
    def test_factor_reconstructs(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 5, 8):
            a = random_spd(rng, n)
            low = linalg.cholesky(a)
            assert np.allclose(low @ low.T, a, atol=1e-12 * np.linalg.norm(a))
            assert np.allclose(np.triu(low, 1), 0.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 6)
        assert np.allclose(linalg.cholesky(a), np.linalg.cholesky(a))

    def test_indefinite_reports_pivot(self):
        a = np.diag([4.0, 1.0, -3.0, 2.0])
        with pytest.raises(linalg.NotPositiveDefinite) as exc:
            linalg.cholesky(a)
        assert exc.value.pivot_index == 2

    def test_semidefinite_rejected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(linalg.NotPositiveDefinite):
            linalg.cholesky(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        for i, j in ((0, 0), (2, 2), (2, 1)):
            a = np.diag([4.0, 1.0, 3.0])
            a[i, j] = a[j, i] = bad
            with pytest.raises(linalg.NotPositiveDefinite):
                linalg.cholesky(a)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            linalg.cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSymEig:
    def test_against_numpy_values(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 4, 7):
            a = random_spd(rng, n, lo=-2.0, hi=5.0)
            w, _ = linalg.sym_eig(a)
            assert np.allclose(w, np.linalg.eigvalsh(a))

    def test_ascending_orthonormal_reconstruction(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 6, lo=-1.0, hi=3.0)
        w, v = linalg.sym_eig(a)
        assert np.all(np.diff(w) >= 0.0)
        assert np.allclose(v.T @ v, np.eye(6), atol=1e-12)
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-11)
        assert np.all(residual_norms(a, w, v) <= 1e-13)


class TestNonsymEig:
    def test_eigen_residuals_random(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 8):
            a = rng.standard_normal((n, n))
            w, v = linalg.nonsym_eig(a)
            assert np.all(residual_norms(a, w, v) <= 1e-12)
            assert np.linalg.norm(a @ v - v * w) <= 1e-11 * np.linalg.norm(a)

    def test_sorted_and_conjugate_closed(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        w, _ = linalg.nonsym_eig(a)
        key = np.lexsort((w.imag, w.real))
        assert np.array_equal(key, np.arange(6))
        assert oracles.multiset_distance(w, np.conj(w)) <= 1e-14

    def test_unit_columns(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        _, v = linalg.nonsym_eig(a)
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0)

    def test_complex_input(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]]) + 0.25j * np.eye(2)
        w, v = linalg.nonsym_eig(a)
        assert np.all(residual_norms(a, w, v) <= 1e-13)

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            got, _ = linalg.nonsym_eig(a)
            want = oracles.polynomial_spectrum(a)
            assert oracles.multiset_distance(got, want) <= 1e-8


class TestSolve:
    def test_vector_and_matrix_rhs(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 5, lo=-2.0, hi=4.0)
        b = rng.standard_normal(5)
        x = linalg.LUFactors(a).solve(b)
        assert np.allclose(a @ x, b, atol=1e-10)
        bm = rng.standard_normal((5, 3))
        xm = linalg.LUFactors(a).solve(bm)
        assert np.allclose(a @ xm, bm, atol=1e-10)

    def test_complex_rhs(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0 + 2.0j, -1.0j])
        x = linalg.LUFactors(a).solve(b)
        assert np.allclose(a @ x, b)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_raises_with_rank(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(linalg.Singular) as exc:
            linalg.LUFactors(a).solve(np.ones(2))
        assert exc.value.rank_estimate == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.LUFactors(np.eye(3)).solve(np.ones(2))


class TestSolveStack:
    def test_matches_lufactors_bit_for_bit(self):
        rng = np.random.default_rng(13)
        mats = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
        rhs = rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5))
        scales = np.linalg.norm(mats, axis=(1, 2))
        x, error = linalg.solve_stack(mats, rhs, scales)
        assert error is None and x.shape == rhs.shape
        for i in range(4):
            assert np.array_equal(x[i], linalg.LUFactors(mats[i], scale=scales[i]).solve(rhs[i]))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_stops_at_first_pivot_failure_with_its_rank(self):
        rng = np.random.default_rng(14)
        mats = rng.standard_normal((4, 5, 5))
        mats[2, :, 3] = mats[2, :, 0] + mats[2, :, 1]  # rank 4
        mats[3, :, 1:] = 0.0  # rank 1, later in the stack
        rhs = rng.standard_normal((4, 5, 2))
        scales = np.linalg.norm(mats, axis=(1, 2))
        x, error = linalg.solve_stack(mats, rhs, scales)
        assert len(x) == 2
        with pytest.raises(linalg.Singular) as exc:
            linalg.LUFactors(mats[2], scale=scales[2])
        assert isinstance(error, linalg.Singular) and error.rank_estimate == exc.value.rank_estimate == 4

    def test_stops_at_first_residual_failure(self):
        # With scale 0 every nonzero pivot passes, and the residual of a
        # Hilbert matrix of order 12 (condition 1e16) fails the residual rule.
        hilbert = 1.0 / (np.arange(12)[:, None] + np.arange(12)[None, :] + 1.0)
        mats = np.stack([np.eye(12), hilbert, hilbert])
        rhs = np.ones((3, 12, 1))
        scales = np.array([1.0, 0.0, 0.0])
        x, error = linalg.solve_stack(mats, rhs, scales)
        assert len(x) == 1 and np.array_equal(x[0], rhs[0])
        with pytest.raises(linalg.Singular) as exc:
            linalg.LUFactors(hilbert, scale=0.0).solve(rhs[1])
        assert isinstance(error, linalg.Singular)
        assert error.rank_estimate == exc.value.rank_estimate == 12 and str(error) == str(exc.value)


class TestRealTimes:
    def test_matches_mixed_product(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((5, 4))
        for shape in ((4,), (4, 3)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for v in (x, x.real, x.T.T[::-1]):
                got = linalg.real_times(m, v)
                assert got.shape == (5,) + shape[1:] and got.dtype == v.dtype
                assert np.allclose(got, m @ v, rtol=1e-14, atol=1e-14)

    def test_contracts_first_axis_of_nd_input(self):
        # An (n, t, k) array, real or complex, contiguous or not, is
        # multiplied slice by slice along its first axis.
        rng = np.random.default_rng(13)
        m = rng.standard_normal((5, 4))
        x = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
        for v in (x, x.real, x.real[:, ::2], x[:, ::2]):
            got = linalg.real_times(m, v)
            assert got.shape == (5,) + v.shape[1:] and got.dtype == v.dtype
            for i in range(v.shape[1]):
                assert np.allclose(got[:, i], m @ v[:, i], rtol=1e-14, atol=1e-14)


class TestSqrtPair:
    def test_roots_multiply_back(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 6)
        root, inv_root = linalg.sqrt_pair_from_eig(*linalg.sym_eig(a))
        assert np.allclose(root @ root, a, atol=1e-11 * np.linalg.norm(a))
        assert np.allclose(root @ inv_root, np.eye(6), atol=1e-11)
        assert np.array_equal(root, root.T)
        assert np.array_equal(inv_root, inv_root.T)

    def test_rejects_semidefinite(self):
        with pytest.raises(linalg.NotPositiveDefinite):
            linalg.sqrt_pair_from_eig(*linalg.sym_eig(np.diag([1.0, 0.0])))


class TestNormalizeColumns:
    def test_unit_and_pivot_positive(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        out = linalg.normalize_columns(v)
        assert np.allclose(np.linalg.norm(out, axis=0), 1.0)
        for j in range(3):
            piv = out[np.argmax(np.abs(out[:, j])), j]
            assert piv.imag == 0.0 and piv.real > 0.0

    def test_matches_column_loop(self):
        # One vectorized pass against the column-by-column definition; the
        # norms are summed in another order, so equal to a few eps.
        rng = np.random.default_rng(13)
        for v in (rng.standard_normal((6, 5)), rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))):
            want = np.array(v, copy=True)
            for j in range(v.shape[1]):
                col = v[:, j] / np.linalg.norm(v[:, j])
                piv = col[np.argmax(np.abs(col))]
                want[:, j] = col * np.conj(piv) / abs(piv)
            assert np.max(np.abs(linalg.normalize_columns(v) - want)) <= 4.0 * np.finfo(float).eps

    def test_zero_column_passthrough(self):
        v = np.zeros((3, 1))
        assert np.array_equal(linalg.normalize_columns(v), v)
