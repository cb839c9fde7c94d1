"""Tests for the quadratic pencil solver and the eigenvalue bound."""

import importlib
import inspect

import numpy as np
import pytest

import specdamp as sd
from specdamp import spectrum
from specdamp.model import phase_operator, validate
from specdamp.tolerances import RESIDUAL_TOL

import oracles


def scalar_model(k, c):
    return sd.SystemModel(K=np.array([[float(k)]]), C=np.array([[float(c)]]))


@pytest.mark.parametrize("layer", ["spectrum", "krein", "conditions", "semigroup"])
def test_thresholds_are_not_parameters(layer):
    # Every threshold is a constant of specdamp.tolerances, read directly.
    mod = importlib.import_module(f"specdamp.{layer}")
    public = [
        fn
        for name, fn in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
    ]
    assert public
    for fn in public:
        assert not {"tolerances", "rank_tol"} & set(inspect.signature(fn).parameters), fn.__name__


class TestQuadraticPencil:
    def test_formula(self):
        m = sd.SystemModel(K=np.diag([2.0, 3.0]), C=np.diag([0.5, 1.0]))
        lam = -1.0 + 2.0j
        q = spectrum.quadratic_pencil(m, lam)
        assert np.allclose(q, lam**2 * np.eye(2) + lam * m.C + m.K)

    def test_real_argument_stays_real(self):
        m = scalar_model(2.0, 1.0)
        assert spectrum.quadratic_pencil(m, -0.5).dtype == np.float64


class TestScalarClosedForms:
    def test_overdamped_distinct_roots(self):
        # lam^2 + 3 lam + 2 = (lam + 1)(lam + 2)
        rep = sd.solve_qep(scalar_model(2.0, 3.0))
        assert np.allclose(sorted(rep.eigenvalues.real), [-2.0, -1.0], atol=1e-14)
        assert np.all(rep.eigenvalues.imag == 0.0)

    def test_critical_damping_exact_double_root(self):
        rep = sd.solve_qep(scalar_model(1.0, 2.0))
        assert np.array_equal(rep.eigenvalues, np.array([-1.0 + 0.0j, -1.0 + 0.0j]))

    def test_underdamped_conjugate_pair(self):
        # lam^2 + lam + 1: roots -1/2 +- i sqrt(3)/2
        rep = sd.solve_qep(scalar_model(1.0, 1.0))
        want = [-0.5 - 0.5j * np.sqrt(3.0), -0.5 + 0.5j * np.sqrt(3.0)]
        assert oracles.multiset_distance(rep.eigenvalues, want) <= 1e-15

    def test_undamped_pure_imaginary(self):
        rep = sd.solve_qep(scalar_model(4.0, 0.0))
        assert oracles.multiset_distance(rep.eigenvalues, [2.0j, -2.0j]) <= 1e-15


class TestSolveQep:
    def test_matches_companion_eigenvalues(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = oracles.random_model(rng, n)
            got = sd.solve_qep(m).eigenvalues
            want = np.linalg.eigvals(phase_operator(m))
            assert oracles.multiset_distance(got, want) <= 1e-9

    def test_eigenpairs_satisfy_pencil(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = oracles.random_model(rng, n)
            rep = sd.solve_qep(m)
            vecs = sd.eigenvectors(m, rep, range(2 * n))
            for lam, col in zip(rep.eigenvalues, vecs.T):
                q = spectrum.quadratic_pencil(m, lam)
                x = col[:n]
                denom = np.linalg.norm(q) * max(np.linalg.norm(x), 1e-300)
                assert np.linalg.norm(q @ x) <= 1e-8 * denom
                # phase-space eigenvector structure: velocity = lam * position
                assert np.allclose(col[n:], lam * x, atol=1e-8 * (1.0 + abs(lam)))

    def test_residuals_within_tolerance(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            m = oracles.random_model(rng, int(rng.integers(1, 7)))
            rep = sd.solve_qep(m)
            assert np.all(rep.residuals <= RESIDUAL_TOL)

    def test_sorted_by_real_then_imag(self):
        rng = np.random.default_rng(34)
        m = oracles.random_model(rng, 4)
        vals = sd.solve_qep(m).eigenvalues
        keys = [(v.real, v.imag) for v in vals]
        assert keys == sorted(keys)

    def test_left_half_plane(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            m = oracles.random_model(rng, int(rng.integers(1, 7)))
            assert sd.solve_qep(m).max_real <= 1e-12

    def test_block_diagonal_components_solved_independently(self):
        # two decoupled oscillators: spectrum is the union of the parts,
        # eigenvectors supported on their own block
        ka, ca = 2.0, 3.0
        kb, cb = 5.0, 0.0
        m = sd.SystemModel(K=np.diag([ka, kb]), C=np.diag([ca, cb]))
        rep = sd.solve_qep(m)
        want = list(sd.solve_qep(scalar_model(ka, ca)).eigenvalues) + list(
            sd.solve_qep(scalar_model(kb, cb)).eigenvalues
        )
        assert oracles.multiset_distance(rep.eigenvalues, want) <= 1e-14
        for x in sd.eigenvectors(m, rep, range(4))[:2].T:
            assert min(abs(x[0]), abs(x[1])) == 0.0

    def test_report_helpers(self):
        rep = sd.solve_qep(scalar_model(4.0, 0.0))
        assert rep.min_abs == 2.0
        assert rep.max_real == 0.0


class TestCoupledSolver:
    def test_svd_count_does_not_grow_with_size(self, monkeypatch):
        rng = np.random.default_rng(39)
        n = 64
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        stiff = (q * rng.uniform(0.2, 5.0, n)) @ q.T
        b = rng.standard_normal((n, n))
        m = sd.SystemModel(K=0.5 * (stiff + stiff.T), C=b @ b.T / n)
        real_svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rep = sd.solve_qep(m)
        assert rep.eigenvalues.size == 2 * n
        assert len(calls) <= 4

    @pytest.mark.parametrize("order", [64, 128])
    def test_two_patch_rod_real_with_small_backward_error(self, order):
        # margin +1.3: the QEP is overdamped, so every eigenvalue is real
        patches = (sd.Patch(1.2, 0.0, 0.5), sd.Patch(2.5, 0.5, 1.0))
        m = sd.beam_assemble(sd.BeamSpec(E=1.0, patches=patches, N=order))
        rep = sd.solve_qep(m)
        assert np.all(rep.eigenvalues.imag == 0.0)
        norm_k, norm_c = np.linalg.norm(m.K, 2), np.linalg.norm(m.C, 2)
        for lam, x in zip(rep.eigenvalues, sd.eigenvectors(m, rep, range(2 * order))[:order].T):
            q = lam * lam * np.eye(order) + lam * m.C + m.K
            scale = (abs(lam) ** 2 + abs(lam) * norm_c + norm_k) * np.linalg.norm(x)
            assert np.linalg.norm(q @ x) / scale <= 1e-12

    @pytest.mark.parametrize("c", [1.0, 3.0, 6.0])
    def test_equal_moduli_match_charpoly(self, c):
        # K = 4 I with rank-one C: every nonreal eigenvalue has |lam| = 2,
        # so no modulus gap separates a small from a large half.
        u = np.array([0.6, 0.8])
        m = sd.SystemModel(K=4.0 * np.eye(2), C=c * np.outer(u, u))
        got = sd.solve_qep(m).eigenvalues
        want = oracles.polynomial_spectrum(phase_operator(m))
        assert oracles.multiset_distance(got, want) <= 1e-9
        assert np.array_equal(np.sort_complex(got), np.sort_complex(got.conj()))


def edge_case_models(seed, names):
    # The benchmark's edge-cases models of that seed, built by its own code.
    import importlib.util
    import os
    import sys
    import tempfile

    workloads = sys.modules.get("perfbench_workloads")
    if workloads is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    with tempfile.TemporaryDirectory() as tmp:
        requests = workloads.build("edge-cases", seed, tmp)
    return [sd.SystemModel(K=r.K, C=r.C) for r in requests if r.rid in {name + "-analyze" for name in names}]


def assert_exactly_conjugate_closed(values):
    nonreal = values[values.imag != 0.0]
    order = np.lexsort((nonreal.imag, nonreal.real))
    conj = nonreal.conj()
    assert np.array_equal(nonreal[order], conj[np.lexsort((conj.imag, conj.real))])


class TestConjugateClosure:
    """The polish batches its Rayleigh coefficients; conjugates stay exact."""

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_edge_case_models(self, seed):
        models = edge_case_models(seed, ("near-critical-below", "wide-K", "critical-blocks-rotated"))
        assert len(models) == 3
        for m in models:
            assert_exactly_conjugate_closed(sd.solve_qep(m).eigenvalues)

    def test_partners_pair_exact_conjugates_only(self):
        values = np.array([-1 + 2j, -3.0, -1 - 1j, -1 - 2j, -1 + 1j, -1 - 2j, -1 + 2j])
        lower, upper = spectrum._conjugate_partners(values)
        assert np.array_equal(values[lower], values[upper].conj())
        assert sorted(lower.tolist()) == [2, 3, 5] and sorted(upper.tolist()) == [0, 4, 6]
        for broken in (values[:-1], np.append(values[:-1], -1 + 2.0000000000000004j)):
            assert [part.size for part in spectrum._conjugate_partners(broken)] == [0, 0]

    def test_random_coupled_models(self):
        rng = np.random.default_rng(40)
        nonreal = 0
        for _ in range(20):
            m = oracles.random_model(rng, int(rng.integers(2, 13)))
            assert len(validate(m).coupled_blocks) == 1
            values = sd.solve_qep(m).eigenvalues
            nonreal += int(np.count_nonzero(values.imag))
            assert_exactly_conjugate_closed(values)
        assert nonreal > 0


def two_patch_rod(N):
    return sd.beam_assemble(
        sd.BeamSpec(E=1.0, patches=(sd.Patch(1.2, 0.0, 0.5), sd.Patch(2.5, 0.5, 1.0)), N=N)
    )


def diagonal_model():
    return sd.SystemModel(K=np.diag([1.0, 4.0, 9.0]), C=np.diag([0.5, 5.0, 1.0]))


class TestEigenvectorConventions:
    # The phase convention is applied once, in solve_qep: by one
    # normalize_columns pass per coupled block, in closed form on the scalar
    # modes.  The rotated critical blocks are one coupled Jordan component.
    @pytest.mark.parametrize(
        "make, coupled",
        [(lambda: two_patch_rod(16), True), (diagonal_model, False), (lambda: oracles.critical_blocks(True), True)],
        ids=["two-patch-rod-N16", "diagonal-n3", "critical-blocks-rotated"],
    )
    def test_phase_convention(self, make, coupled):
        m = make()
        assert bool(validate(m).coupled_blocks) == coupled
        rep = sd.solve_qep(m)
        for v in sd.eigenvectors(m, rep, range(2 * m.n)).T:
            assert abs(np.linalg.norm(v) - 1.0) <= 4.0 * np.finfo(float).eps
            top = v[np.argmax(np.abs(v))]
            assert np.imag(top) == 0.0 and np.real(top) > 0.0

    @pytest.mark.parametrize(
        "make",
        [lambda: two_patch_rod(16), lambda: two_patch_rod(32), lambda: two_patch_rod(64), diagonal_model],
        ids=["two-patch-rod-N16", "two-patch-rod-N32", "two-patch-rod-N64", "diagonal-n3"],
    )
    def test_velocity_is_value_times_position_to_rounding(self, make):
        # Not bit for bit: the normalizing factor multiplies x and lam x
        # separately.  The worst entry on these models is 1.54 eps.
        eps = np.finfo(float).eps
        m = make()
        rep = sd.solve_qep(m)
        vecs = sd.eigenvectors(m, rep, range(2 * m.n))
        for lam, x, y in zip(rep.eigenvalues, vecs[: m.n].T, vecs[m.n :].T):
            assert np.all(np.abs(y - lam * x) <= 4.0 * eps * abs(lam) * np.abs(x))


class TestEigenvalueBound:
    def test_undamped_equality(self):
        m = sd.SystemModel(K=np.diag([4.0, 9.0]), C=np.zeros((2, 2)))
        b = sd.eigenvalue_lower_bound(m)
        assert np.isclose(b.value, 2.0, rtol=1e-14)
        rep = sd.solve_qep(m)
        assert np.isclose(rep.min_abs, b.value, rtol=1e-14)

    def test_formula_reconstruction(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = oracles.random_model(rng, n)
            b = sd.eigenvalue_lower_bound(m)
            v = 1.0 / np.linalg.eigvalsh(m.K)[0]
            vals, vecs = np.linalg.eigh(m.K)
            kih = vecs @ np.diag(vals**-0.5) @ vecs.T
            d = np.linalg.norm(kih @ m.C @ kih, 2)
            want = (np.sqrt(d * d + 4.0 * v) - d) / (2.0 * v)
            assert np.isclose(b.value, want, rtol=1e-10)
            assert np.isclose(b.norm_ainv, v, rtol=1e-10)
            assert np.isclose(b.norm_ainv_d, d, rtol=1e-10)

    def test_every_eigenvalue_outside_disk(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            m = oracles.random_model(rng, int(rng.integers(1, 7)))
            rep = sd.solve_qep(m)
            assert np.min(np.abs(rep.eigenvalues)) >= rep.bound.value - 1e-10


class TestKernelBasis:
    def test_simple_eigenvalue_dimension_one(self):
        m = scalar_model(2.0, 3.0)
        basis = spectrum.pencil_kernel_basis(m, -1.0)
        assert basis.shape == (1, 1)

    def test_semisimple_double_dimension_two(self):
        # two identical decoupled modes share each eigenvalue
        m = sd.SystemModel(K=np.diag([2.0, 2.0]), C=np.diag([3.0, 3.0]))
        basis = spectrum.pencil_kernel_basis(m, -1.0)
        assert basis.shape == (2, 2)
        assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)

    def test_defective_double_dimension_one(self):
        # critical damping: algebraic 2, geometric 1
        m = scalar_model(1.0, 2.0)
        basis = spectrum.pencil_kernel_basis(m, -1.0)
        assert basis.shape == (1, 1)

    def test_max_dim_cap(self):
        m = sd.SystemModel(K=np.diag([2.0, 2.0]), C=np.diag([3.0, 3.0]))
        basis = spectrum.pencil_kernel_basis(m, -1.0, max_dim=1)
        assert basis.shape == (2, 1)


class TestClustering:
    def test_merges_conjugate_split_pair(self):
        vals = np.array([-1.0 + 1e-8j, -1.0 - 1e-8j, -3.0])
        clusters = spectrum.cluster_eigenvalues(vals, 1e-7)
        assert sorted(map(sorted, clusters)) == [[0, 1], [2]]

    def test_keeps_separated_values_apart(self):
        vals = np.array([-1.0, -1.001, 2.0j])
        clusters = spectrum.cluster_eigenvalues(vals, 1e-7)
        assert len(clusters) == 3

    def test_chains_through_running_mean(self):
        vals = np.array([-1.0, -1.0 + 4e-8, -1.0 + 8e-8])
        clusters = spectrum.cluster_eigenvalues(vals, 1e-7)
        assert len(clusters) == 1 and len(clusters[0]) == 3

    @pytest.mark.parametrize("family", ["random", "conjugate-pairs", "near-defective", "rod"])
    def test_matches_loop_oracle(self, family):
        # The vectorized search must reproduce the one-mean-at-a-time loop
        # exactly: same groups in the same order, members in sweep order.
        rng = np.random.default_rng(41)
        tol = 1e-7
        if family == "random":
            spectra = [rng.standard_normal(40) + 1j * rng.standard_normal(40) for _ in range(20)]
        elif family == "conjugate-pairs":
            spectra = []
            for _ in range(20):
                z = rng.uniform(-3.0, 0.0, 15) + 1j * rng.uniform(0.0, 2.0, 15)
                z[:5] = z[0] + rng.uniform(-1.0, 1.0, 5) * 3e-8  # chains within the tolerance
                z[5:8].imag = rng.uniform(-1e-8, 1e-8, 3)  # spurious splits of real values
                spectra.append(np.concatenate([z, z.conj()]))
        elif family == "near-defective":
            spectra = []
            for _ in range(20):
                centre = rng.uniform(-2.0, -0.5, 6)
                split = rng.uniform(-1.0, 1.0, 6) * np.array([1e-9, 1e-8, 5e-8, 1e-7, 2e-7, 1e-6])
                spectra.append(np.concatenate([centre + split, centre - split, centre + 1j * split]))
        else:
            spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=256)
            spectra = [sd.solve_qep(sd.beam_assemble(spec)).eigenvalues]
        for values in spectra:
            want = oracles.cluster_eigenvalues_loop(values, tol)
            assert spectrum.cluster_eigenvalues(values, tol) == want
        if family == "rod":
            # The slow branch accumulates at -E / a = -0.5: most of it joins a few clusters.
            assert len(want) < len(spectra[0])


class TestAccumulation:
    def test_uniform_beam_counts(self):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=32)
        acc = spectrum.accumulation_experiment(spec, (8, 16, 32))
        assert acc.points == (-0.5,)
        assert acc.counts_nondecreasing
        assert np.all(np.diff(acc.counts[:, 0]) >= 0)
        # the slow branch homes in on the predicted point
        assert np.all(np.diff(acc.nearest[:, 0]) < 0)

    def test_two_patch_points_order(self):
        spec = sd.BeamSpec(
            E=2.0,
            patches=(sd.Patch(1.0, 0.0, 0.5), sd.Patch(4.0, 0.5, 1.0)),
            N=8,
        )
        acc = spectrum.accumulation_experiment(spec, (8,))
        # predicted points -E/a sorted by coefficient size, largest first
        assert acc.points == (-0.5, -2.0)

    def test_orders_validated(self):
        spec = sd.BeamSpec(E=1.0, patches=(sd.Patch(2.0, 0.0, 1.0),), N=8)
        with pytest.raises(ValueError):
            spectrum.accumulation_experiment(spec, (0,))
