"""Per-component layers on block-diagonal models, against dense references.

The models are the modal family C = gamma (K + I) split into scalar modes
and dense coupled blocks of size 2 to 4, with their coordinates randomly
permuted.  Every layer works component by component; each check here forms
the whole 2n x 2n object instead.
"""

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

import specdamp as sd
from specdamp import conditions, krein, semigroup, spectrum
from specdamp.model import phase_operator, validate

import oracles


def mixed_model(seed, gamma, modes=5, blocks=(2, 3, 4)):
    """Permuted direct sum of ``modes`` scalar modes and dense blocks of the given sizes.

    Returns the model and the eigenvalues of its ``K``.
    """
    rng = np.random.default_rng(seed)
    n = modes + sum(blocks)
    k = rng.uniform(1.0, 100.0, n)
    k[rng.integers(n)] = 1.0
    stiff = np.zeros((n, n))
    stiff[range(modes), range(modes)] = k[:modes]
    start = modes
    for size in blocks:
        q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        block = (q * k[start : start + size]) @ q.T
        stiff[start : start + size, start : start + size] = 0.5 * (block + block.T)
        start += size
    perm = rng.permutation(n)
    stiff = stiff[np.ix_(perm, perm)]
    return sd.SystemModel(K=stiff, C=gamma * (stiff + np.eye(n))), k


def energy_scale(m):
    vals, vecs = np.linalg.eigh(m.K)
    return (vecs * np.sqrt(vals)) @ vecs.T, (vecs / np.sqrt(vals)) @ vecs.T


CASES = [(seed, gamma) for seed in (1, 2, 3) for gamma in (0.6, 1.3)]


@pytest.fixture(params=CASES, ids=[f"seed{s}-g{g}" for s, g in CASES])
def case(request):
    seed, gamma = request.param
    m, k = mixed_model(seed, gamma)
    return m, k, gamma, sd.solve_qep(m)


def test_components_found(case):
    m, _, _, _ = case
    val = validate(m)
    assert val.scalar_modes.size == 5
    assert sorted(b.n for b in val.coupled_blocks) == [2, 3, 4]
    covered = np.concatenate([val.scalar_modes.index] + [b.index for b in val.coupled_blocks])
    assert sorted(covered) == list(range(m.n))


def test_qep_backward_error(case):
    m, _, _, rep = case
    assert rep.eigenvalues.size == 2 * m.n
    norm_k, norm_c = np.linalg.norm(m.K, 2), np.linalg.norm(m.C, 2)
    for lam in rep.eigenvalues:
        q = lam * lam * np.eye(m.n) + lam * m.C + m.K
        smin = scipy.linalg.svdvals(q)[-1]
        assert smin / (abs(lam) ** 2 + abs(lam) * norm_c + norm_k) <= 1e-13
    assert oracles.multiset_distance(rep.eigenvalues, np.linalg.eigvals(phase_operator(m))) <= 1e-9


def test_riesz_number_matches_dense_svd(case):
    m, _, _, rep = case
    root, _ = energy_scale(m)
    cols = []
    for v in sd.eigenvectors(m, rep, range(2 * m.n)).T:
        col = np.concatenate([root @ v[: m.n], v[m.n :]])
        cols.append(col / np.linalg.norm(col))
    sig = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    got = conditions.riesz_basis_condition_number(m, rep)
    assert got == pytest.approx(sig[0] / sig[-1], rel=1e-12)


def test_eigenvectors_lie_on_one_component(case):
    # Every phase column eigenvectors() scatters is supported on one coupling
    # component, solves the pencil, keeps the phase convention, and maps to
    # energy_basis's column for it.
    m, _, _, rep = case
    n, eps = m.n, np.finfo(float).eps
    val = validate(m)
    modes = val.scalar_modes
    label = np.empty(n, dtype=int)
    label[modes.index] = np.arange(modes.size)
    for b, block in enumerate(val.coupled_blocks):
        label[block.index] = modes.size + b
    basis = spectrum.energy_basis(m, rep)
    norm_k, norm_c = np.linalg.norm(m.K, 2), np.linalg.norm(m.C, 2)
    vecs = sd.eigenvectors(m, rep, range(2 * n))
    assert vecs.shape == (2 * n, 2 * n)
    for j, (lam, v) in enumerate(zip(rep.eigenvalues, vecs.T)):
        x, y = v[:n], v[n:]
        support = np.flatnonzero((x != 0.0) | (y != 0.0))
        assert np.unique(label[support]).size == 1
        q = lam * lam * np.eye(n) + lam * m.C + m.K
        scale = (abs(lam) ** 2 + abs(lam) * norm_c + norm_k) * np.linalg.norm(x)
        assert np.linalg.norm(q @ x) <= 1e-12 * scale
        assert abs(np.linalg.norm(v) - 1.0) <= 4.0 * eps
        top = v[np.argmax(np.abs(v))]
        assert np.imag(top) == 0.0 and np.real(top) > 0.0
        assert np.all(np.abs(y - lam * x) <= 4.0 * eps * abs(lam) * np.abs(x))
        c = label[support[0]]
        if c < modes.size:
            i = modes.index[c]
            want = basis.modes[c][:, list(rep.mode_pairs[c]).index(j)]
            got = np.array([np.sqrt(modes.k[c]) * x[i], y[i]])
        else:
            block = val.coupled_blocks[c - modes.size]
            want = basis.blocks[c - modes.size][:, list(rep.block_pairs[c - modes.size]).index(j)]
            got = np.concatenate([block.k_sqrt @ x[block.index], y[block.index]])
        assert np.max(np.abs(got / np.linalg.norm(got) - want)) <= 1e-15


def modal_diagonal(n=256, gamma=1.3):
    stiff = np.diag(np.linspace(1.0, 100.0, n))
    return sd.SystemModel(K=stiff, C=gamma * (stiff + np.eye(n)))


def two_patch_rod(N=16):
    patches = (sd.Patch(1.2, 0.0, 0.5), sd.Patch(2.5, 0.5, 1.0))
    return sd.beam_assemble(sd.BeamSpec(E=1.0, patches=patches, N=N))


@pytest.mark.parametrize("make", [modal_diagonal, two_patch_rod], ids=["diagonal-n256", "two-patch-rod-N16"])
def test_layers_build_no_phase_vector(make, monkeypatch):
    # The spectrum stays in its per-component arrays through every layer that
    # reads eigenvectors; a PhaseVector is built only for a caller's state.
    m = make()
    built = []
    original = sd.model.PhaseVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(sd.model.PhaseVector, "__post_init__", counting)
    rep = sd.solve_qep(m)
    clf = krein.classify_eigenpairs(m, rep)
    krein.decompose(m, rep, clf)
    spectrum.energy_basis(m, rep)
    conditions.condition_report(m, rep)
    assert built == []


def test_resolvent_matches_dense_inverse(case):
    m, _, _, rep = case
    root, inv_root = energy_scale(m)
    n = m.n
    left, right = np.eye(2 * n), np.eye(2 * n)
    left[:n, :n], right[:n, :n] = root, inv_root
    for lam in (0.0, 1.0 + 1.0j, 1.0 + 46.4j, 0.5 - 3.0j):
        inverse = np.linalg.inv(phase_operator(m) - lam * np.eye(2 * n))
        want = np.linalg.norm(left @ inverse @ right, 2)
        assert semigroup.resolvent_norm_at(m, rep, lam) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_margin_matches_modal_closed_form(case):
    m, k, gamma, _ = case
    margin, _, value = oracles.modal_overdamping(k, gamma)
    od = conditions.check_overdamping(m)
    assert od.margin == pytest.approx(margin, rel=0, abs=1e-12 * (1.0 + abs(margin)))
    assert od.certificate_value == pytest.approx(value, rel=0, abs=1e-12 * (1.0 + abs(value)))
    assert od.overdamped == (gamma > 1.0)


def test_evolve_and_propagator_match_expm(case):
    m, _, _, rep = case
    rng = np.random.default_rng(5)
    x0 = sd.PhaseVector(rng.standard_normal(m.n), rng.standard_normal(m.n))
    times = np.linspace(0.0, 1.0, 5)
    traj = semigroup.evolve(m, rep, x0, times)
    assert traj.method == "exact-modal"
    a_op = phase_operator(m)
    for t, state, e in zip(times, traj.states, traj.energies):
        want = scipy.linalg.expm(t * a_op) @ x0.stacked()
        assert np.linalg.norm(state - want) <= 1e-12 * np.linalg.norm(x0.stacked())
        assert e == pytest.approx(semigroup.energy(m, sd.PhaseVector.from_stacked(want)), rel=1e-12)
        prop = semigroup.propagator(m, rep, t)
        assert np.linalg.norm(prop - scipy.linalg.expm(t * a_op)) <= 1e-12 * np.linalg.norm(prop)


def test_kelvin_voigt_proxy_matches_dense(case):
    # B on the model's coupling components, so C = K + B keeps them.  The
    # dense K^{-1/2} is the direct sum of the validation report's roots, so
    # this checks the split of the norm, not the roots themselves.
    m = case[0]
    rep = validate(m)
    on_components = np.zeros((m.n, m.n), dtype=bool)
    on_components[rep.scalar_modes.index, rep.scalar_modes.index] = True
    for b in rep.coupled_blocks:
        on_components[np.ix_(b.index, b.index)] = True
    r = np.random.default_rng(6).standard_normal((m.n, m.n))
    pert = 0.05 * np.where(on_components, r + r.T, 0.0)
    model, proxy = sd.perturbed_kelvin_voigt(m.K, 1.0, pert)
    split = validate(model)
    assert [b.n for b in split.coupled_blocks] == [b.n for b in rep.coupled_blocks]
    inv_root = np.zeros((m.n, m.n))
    inv_root[split.scalar_modes.index, split.scalar_modes.index] = 1.0 / np.sqrt(split.scalar_modes.k)
    for b in split.coupled_blocks:
        inv_root[np.ix_(b.index, b.index)] = b.k_inv_sqrt
    assert proxy == pytest.approx(np.linalg.norm(inv_root @ pert @ inv_root, 2), rel=1e-14, abs=0.0)


def defective_model():
    # One exactly critical scalar mode (k = 4, c = 4) in a mixed model.
    m, _ = mixed_model(4, 1.3, modes=3, blocks=(2, 3))
    k, c = m.K.copy(), m.C.copy()
    i = validate(m).scalar_modes.index[0]
    k[i, i], c[i, i] = 4.0, 4.0
    return sd.SystemModel(K=k, C=c)


def test_defective_mode_takes_expm_per_component():
    # The critical mode makes the basis singular: evolve and propagator
    # fall back to expm on every component.
    m = defective_model()
    rep = sd.solve_qep(m)
    assert spectrum.energy_basis(m, rep).condition_number > semigroup.MODAL_CONDITION_LIMIT
    x0 = sd.PhaseVector(np.ones(m.n), np.zeros(m.n))
    times = np.linspace(0.0, 1.0, 4)
    traj = semigroup.evolve(m, rep, x0, times)
    assert traj.method == "expm"
    for t, state in zip(times, traj.states):
        want = scipy.linalg.expm(t * phase_operator(m)) @ x0.stacked()
        assert np.linalg.norm(state - want) <= 1e-12 * np.linalg.norm(want)
    prop = semigroup.propagator(m, rep, 0.7)
    assert np.linalg.norm(prop - scipy.linalg.expm(0.7 * phase_operator(m))) <= 1e-12 * np.linalg.norm(prop)


def dense_smoothing_statistic(m, x0, t_grid):
    # max_t t ||A expm(tA) x0||_E / ||x0||_E, with scipy's expm of the whole phase operator.
    a_op, z0, n = phase_operator(m), x0.stacked(), m.n

    def norm(z):
        return np.sqrt(z[:n] @ m.K @ z[:n] + z[n:] @ z[n:])

    return max(t * norm(a_op @ (scipy.linalg.expm(t * a_op) @ z0)) for t in t_grid) / norm(z0)


def test_smoothing_probe_matches_dense_expm(case):
    m, _, _, rep = case
    rng = np.random.default_rng(7)
    x0 = sd.PhaseVector(rng.standard_normal(m.n), rng.standard_normal(m.n))
    t_grid = np.logspace(-3.0, 0.0, 13)
    got = semigroup.smoothing_probe(m, rep, x0, t_grid)
    assert got == pytest.approx(dense_smoothing_statistic(m, x0, t_grid), rel=1e-12, abs=0.0)


def test_smoothing_probe_on_expm_path_matches_dense_expm():
    m = defective_model()
    rep = sd.solve_qep(m)
    assert spectrum.energy_basis(m, rep).condition_number > semigroup.MODAL_CONDITION_LIMIT
    x0 = sd.PhaseVector(np.ones(m.n), np.linspace(-1.0, 1.0, m.n))
    t_grid = np.logspace(-3.0, 0.0, 13)
    got = semigroup.smoothing_probe(m, rep, x0, t_grid)
    assert got == pytest.approx(dense_smoothing_statistic(m, x0, t_grid), rel=1e-12, abs=0.0)


def test_scalar_roots_closed_form():
    # Distinct real, conjugate, double and undamped roots of lam^2 + c lam + k.
    k = np.array([2.0, 1.0, 1.0, 4.0, 1e8])
    c = np.array([3.0, 1.0, 2.0, 0.0, 4e8])
    roots = spectrum._mode_roots(k, c, np.ones(5))
    assert np.allclose(np.sort_complex(roots[0]), [-2.0, -1.0], rtol=1e-15)
    assert np.allclose(np.sort_complex(roots[1]), [-0.5 - 0.75**0.5 * 1j, -0.5 + 0.75**0.5 * 1j], rtol=1e-15)
    assert np.array_equal(roots[2], [-1.0, -1.0])
    assert np.allclose(np.sort_complex(roots[3]), [-2.0j, 2.0j], rtol=1e-15)
    # The stable formula keeps the small root of a stiff, heavily damped mode,
    # which the textbook (-c + sqrt(c^2 - 4k)) / 2 gets wrong in its tenth digit.
    with mp.workdps(40):
        small = (-mp.mpf(4e8) + mp.sqrt(mp.mpf(4e8) ** 2 - 4 * mp.mpf(1e8))) / 2
    assert roots[4, 1].real == pytest.approx(float(small), rel=1e-15)
    assert (-c[4] + np.sqrt(c[4] ** 2 - 4.0 * k[4])) / 2.0 != pytest.approx(float(small), rel=1e-10)
    size = np.abs(roots) ** 2 + c[:, None] * np.abs(roots) + k[:, None]
    assert np.all(np.abs(roots * roots + c[:, None] * roots + k[:, None]) <= 1e-15 * size)


@pytest.mark.parametrize("n", [1, 3])
def test_one_component_model_is_one_block(n):
    # A model that is one component, n = 1 included, keeps the dense path:
    # no scalar modes, and its block shares the model's matrices.
    stiff = np.diag(np.arange(1.0, n + 1.0)) + 0.1 * (np.ones((n, n)) - np.eye(n))
    m = sd.SystemModel(K=stiff, C=0.5 * stiff)
    rep = validate(m)
    assert rep.scalar_modes.size == 0 and len(rep.coupled_blocks) == 1
    block = rep.coupled_blocks[0]
    assert block.K is m.K
    assert sd.solve_qep(m).eigenvalues.size == 2 * n
