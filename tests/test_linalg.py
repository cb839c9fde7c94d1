"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from specdamp import linalg

import oracles


def random_spd(rng, n, lo=0.2, hi=5.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = q @ np.diag(rng.uniform(lo, hi, n)) @ q.T
    return 0.5 * (a + a.T)


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
            dec = linalg.sym_eig(a)
            assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(a))

    def test_ascending_orthonormal_reconstruction(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 6, lo=-1.0, hi=3.0)
        dec = linalg.sym_eig(a)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        v = dec.eigenvectors
        assert np.allclose(v.T @ v, np.eye(6), atol=1e-12)
        assert np.allclose(v @ np.diag(dec.eigenvalues) @ v.T, a, atol=1e-11)
        assert np.all(dec.residual_norms <= 1e-13)

    def test_phase_convention(self):
        dec = linalg.sym_eig(np.diag([2.0, 1.0]))
        for j in range(2):
            col = dec.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0


class TestNonsymEig:
    def test_eigen_residuals_random(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 8):
            a = rng.standard_normal((n, n))
            dec = linalg.nonsym_eig(a)
            assert np.all(dec.residual_norms <= 1e-12)
            r = a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
            assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(a)

    def test_sorted_and_conjugate_closed(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        w = linalg.nonsym_eig(a).eigenvalues
        key = np.lexsort((w.imag, w.real))
        assert np.array_equal(key, np.arange(6))
        assert oracles.multiset_distance(w, np.conj(w)) <= 1e-14

    def test_unit_columns(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        v = linalg.nonsym_eig(a).eigenvectors
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0)

    def test_complex_input(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]]) + 0.25j * np.eye(2)
        dec = linalg.nonsym_eig(a)
        assert np.all(dec.residual_norms <= 1e-13)

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            got = linalg.nonsym_eig(a).eigenvalues
            want = oracles.polynomial_spectrum(a)
            assert oracles.multiset_distance(got, want) <= 1e-8


class TestSolve:
    def test_vector_and_matrix_rhs(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 5, lo=-2.0, hi=4.0)
        b = rng.standard_normal(5)
        x = linalg.solve(a, b)
        assert np.allclose(a @ x, b, atol=1e-10)
        bm = rng.standard_normal((5, 3))
        xm = linalg.solve(a, bm)
        assert np.allclose(a @ xm, bm, atol=1e-10)

    def test_complex_rhs(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0 + 2.0j, -1.0j])
        x = linalg.solve(a, b)
        assert np.allclose(a @ x, b)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_raises_with_rank(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(linalg.Singular) as exc:
            linalg.solve(a, np.ones(2))
        assert exc.value.rank_estimate == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.solve(np.eye(3), np.ones(2))

    def test_lu_factors_apply_inverse_and_adjoint(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for a in (rng.standard_normal((6, 6)), rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))):
            lu = linalg.LUFactors(a)
            assert np.allclose(a @ lu.apply_inverse(b), b, atol=1e-12)
            assert np.allclose(a.conj().T @ lu.apply_inverse(b, adjoint=True), b, atol=1e-12)


class TestNorms:
    def test_operator_norm_matches_numpy(self):
        rng = np.random.default_rng(10)
        for shape in ((3, 3), (4, 2), (2, 5)):
            a = rng.standard_normal(shape)
            assert np.isclose(linalg.operator_norm_2(a), np.linalg.norm(a, 2), rtol=1e-12)

    def test_operator_norm_complex(self):
        a = np.array([[1.0 + 1.0j, 0.0], [0.0, 0.5]])
        assert np.isclose(linalg.operator_norm_2(a), np.sqrt(2.0))


class TestSqrtPair:
    def test_roots_multiply_back(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 6)
        root, inv_root = linalg.spd_sqrt_pair(a)
        assert np.allclose(root @ root, a, atol=1e-11 * np.linalg.norm(a))
        assert np.allclose(root @ inv_root, np.eye(6), atol=1e-11)
        assert np.array_equal(root, root.T)
        assert np.array_equal(inv_root, inv_root.T)

    def test_rejects_semidefinite(self):
        with pytest.raises(linalg.NotPositiveDefinite):
            linalg.spd_sqrt_pair(np.diag([1.0, 0.0]))


class TestNormalizeColumns:
    def test_unit_and_pivot_positive(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        out = linalg.normalize_columns(v)
        assert np.allclose(np.linalg.norm(out, axis=0), 1.0)
        for j in range(3):
            piv = out[np.argmax(np.abs(out[:, j])), j]
            assert piv.imag == 0.0 and piv.real > 0.0

    def test_zero_column_passthrough(self):
        v = np.zeros((3, 1))
        assert np.array_equal(linalg.normalize_columns(v), v)
